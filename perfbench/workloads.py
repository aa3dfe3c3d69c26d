"""Seeded inputs, jobs and correctness checks of the two benchmark workloads.

Every input is generated here from the workload seed.  Nothing is imported
from the repository's test helpers, so editing a test cannot silently change
a workload.  A workload object is made in two steps: ``__init__`` generates
the benchmark-side inputs from the seed, the checkout root and a scratch
directory for written inputs (no mvhedge code runs), ``build`` does the
program-side set-up that ``setup_s`` times.  ``job(j)`` runs job ``j`` and
returns a :class:`JobResult`; the inputs of job ``j`` depend only on the seed
and ``j``.
"""

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

N_ASSETS = 3

# Stream ids that keep the seeded random streams of different purposes apart.
_CORPUS, _MC_SEED = 1, 3


def _rng(seed, stream, index=0):
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


@dataclass
class JobResult:
    """Outcome of one job: checks made, failure messages, work units done."""

    checks: int = 0
    failures: list = field(default_factory=list)
    work: int = 0

    def check(self, ok, message):
        self.checks += 1
        if not ok:
            self.failures.append(message)


def random_tree(rng, periods, branches, shape):
    """Random strictly positive event tree with ``N_ASSETS`` assets.

    Returns (nodes, root, terminal_ids) with nodes as (id, time, prices,
    [(prob, child)]) tuples in breadth-first order.  Every internal node has
    ``branches`` children with Dirichlet(2) probabilities.  Gross returns are
    drawn uniform on [0.7, 1.4] and then divided, asset by asset, by their
    mean under a second Dirichlet(2) measure, which makes that measure a
    martingale measure: every node is free of arbitrage, the paper's standing
    assumption.  Without this step a node can hold an arbitrage, its
    opportunity value ``L`` comes close to 0, and the engine and the DP oracle
    then disagree beyond 1e-10.  ``shape`` is "generic"; "riskless", where asset 1 has the constant price 1, so ``c*``
    is rank deficient and the engine takes its risk-free branch; or
    "duplicated", where asset 3 repeats asset 2, so every node has flat null
    directions.
    """

    def shaped(gross):
        if shape == "riskless":
            gross[..., 0] = 1.0
        elif shape == "duplicated":
            gross[..., 2] = gross[..., 1]
        elif shape != "generic":
            raise ValueError(f"unknown market shape {shape!r}")
        return gross

    prices = [shaped(rng.uniform(0.5, 2.0, size=N_ASSETS))]
    times = [0]
    kids = [[]]
    level = [0]
    for t in range(periods):
        next_level = []
        for parent in level:
            probs = rng.dirichlet(np.full(branches, 2.0))
            pricing = rng.dirichlet(np.full(branches, 2.0))
            gross = shaped(rng.uniform(0.7, 1.4, size=(branches, N_ASSETS)))
            gross /= pricing @ gross
            for p, g in zip(probs, gross):
                child = len(prices)
                prices.append(prices[parent] * g)
                times.append(t + 1)
                kids.append([])
                kids[parent].append((float(p), child))
                next_level.append(child)
        level = next_level
    nodes = [
        (f"n{i}", times[i], prices[i].tolist(), [(p, f"n{c}") for p, c in kids[i]])
        for i in range(len(prices))
    ]
    terminal_ids = [f"n{i}" for i in level]
    return nodes, "n0", terminal_ids


def _tree_config(nodes, root, payoff, wealth):
    model = {
        "kind": "tree",
        "root": root,
        "nodes": [
            {
                "id": nid,
                "time": time,
                "prices": prices,
                "branches": [{"prob": p, "child": ch} for p, ch in branches],
            }
            for nid, time, prices, branches in nodes
        ],
        "payoff": payoff,
    }
    return {"model": model, "wealth": wealth}


def run_cli(cli, argv):
    """Run ``cli.main(argv)`` in-process; return (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def parse_fields(text):
    """Map ``name = number`` lines of CLI output to floats."""
    fields = {}
    for line in text.splitlines():
        name, sep, value = line.rpartition(" = ")
        if sep:
            try:
                fields[name] = float(value)
            except ValueError:
                pass
    return fields


class DeskTrees:
    """Small random trees run through ``mvhedge hedge`` and ``mvhedge oracle``.

    Why: this is the desk user's path.  It covers config parsing, tree
    construction and thousands of tiny per-node QPs dominated by Python and
    numpy dispatch.  Each job makes 8 backward passes (1 in the engine, 7 in
    the DP oracle: a base solve plus 2 per positive asset), so this is the
    oracle/qp workload.  The corpus mixes generic, riskless-asset and
    duplicated-asset markets so that a fast path for full-rank ``c*`` cannot
    slow or mis-rank degenerate nodes unseen.

    Every node has 4 = d + 1 branches, like the trees of the acceptance
    suite.  With 3 branches some nodes are close to singular, and the
    oracle's own 1e-9 numeraire check failed on one tree in a sample of 900.
    """

    name = "desk_trees"
    SHAPES = ("generic", "riskless", "duplicated")
    PASSES = 1 + 1 + 2 * N_ASSETS  # engine + DP base + 2 DP solves per numeraire

    def __init__(self, seed, root, workdir, small=False):
        per_shape = 1 if small else 10
        self.paths = []
        self.wealth = []
        self.internal = []
        for i in range(per_shape * len(self.SHAPES)):
            rng = _rng(seed, _CORPUS, i)
            nodes, tree_root, terminals = random_tree(
                rng, periods=3, branches=4, shape=self.SHAPES[i % 3]
            )
            payoff = {t: float(x) for t, x in zip(terminals, rng.normal(0.5, 1.0, len(terminals)))}
            wealth = float(rng.uniform(-0.5, 1.5))
            path = workdir / f"desk_{i:03d}.json"
            path.write_text(json.dumps(_tree_config(nodes, tree_root, payoff, wealth)))
            self.paths.append(str(path))
            self.wealth.append(wealth)
            self.internal.append(len(nodes) - len(terminals))

    def build(self):
        from mvhedge import cli

        self.cli = cli

    def job(self, j):
        i = j % len(self.paths)
        path, wealth = self.paths[i], self.wealth[i]
        res = JobResult(work=self.PASSES * self.internal[i])
        code, text = run_cli(self.cli, ["hedge", "--model", path])
        hedge = parse_fields(text)
        code_o, text_o = run_cli(self.cli, ["oracle", "--model", path, "--tol", "1e-9"])
        dp = next(
            (v for k, v in parse_fields(text_o).items() if k.startswith("dp objective")),
            None,
        )
        # Criterion 6's tolerance: 1e-10 absolute, relative above 1.  A purely
        # relative 1e-10 fails on small objectives, where the two independent
        # recursions still agree to about 2e-11 absolute.
        try:
            engine_obj = hedge["L0"] * (wealth - hedge["V0"]) ** 2 + hedge["eps2_0"]
            gap = abs(engine_obj - dp) / max(1.0, abs(engine_obj), abs(dp))
        except (KeyError, TypeError):
            gap = math.inf
        res.check(
            code == 0 and gap <= 1e-10,
            f"{path}: hedge exit {code}, engine vs DP objective gap {gap:.3e}",
        )
        verdicts = [ln for ln in text_o.splitlines() if ln.startswith("numeraire asset")]
        res.check(
            code_o == 0
            and len(verdicts) == N_ASSETS
            and all(": PASS " in ln for ln in verdicts),
            f"{path}: oracle exit {code_o}, numeraire lines {verdicts}",
        )
        return res


# Published values of criteria 1 and 2 in tests/test_acceptance.py, as
# (value, tolerance).  The triple is checked as L0, L0 * V0(1) and eps2_0(1).
_PUBLISHED = {
    "iid_3assets_t4.json": {
        "L0": (0.57571, 0.5e-5),
        "L0V0": (0.30381, 0.5e-5),
        "eps2": (0.024179, 0.5e-6),
        "sm": ((0.57571, 0.51e-5), (1.2262, 0.51e-4), (0.30381, 0.51e-5)),
        "var": ((0.075446, 0.51e-6), (0.22625, 0.51e-5), (1.6466, 0.51e-4)),
    },
    "pii_4assets_t5.json": {
        "L0": (2.21772301, 1e-8),
        "L0V0": (1.20696211, 1e-8),
        "eps2": (0.28028620, 1e-8),
        "sm": ((2.21772, 0.51e-5), (15.9127, 0.51e-4), (1.20696, 0.51e-5)),
        "var": ((0.66328, 0.51e-5), (14.9127, 0.51e-4), (1.28790, 0.51e-5)),
    },
}
_CURVE = re.compile(r"^(second moment|variance): .* = (\S+) \+ (\S+)\*\(E\[R\] - (\S+)\)\^2$")


def _frontier_mismatches(text, published):
    """Names of the published frontier values the ``frontier`` output misses."""
    f = parse_fields(text)
    got = {}
    if {"L0", "V0(1)", "eps2_0(1)"} <= f.keys():
        got = {"L0": f["L0"], "L0V0": f["L0"] * f["V0(1)"], "eps2": f["eps2_0(1)"]}
    for line in text.splitlines():
        m = _CURVE.match(line)
        if m:
            key = "sm" if m.group(1) == "second moment" else "var"
            got[key] = tuple(float(x) for x in m.groups()[1:])
    bad = []
    for key, target in published.items():
        if key not in got:
            bad.append(f"{key} missing")
        elif key in ("sm", "var"):
            if any(abs(g - v) > tol for g, (v, tol) in zip(got[key], target)):
                bad.append(f"{key} = {got[key]}")
        elif abs(got[key] - target[0]) > target[1]:
            bad.append(f"{key} = {got[key]!r}")
    return bad


class ClosedFormMc:
    """``frontier`` and ``simulate`` on the two shipped closed-form configs.

    Why: vectorized random draws and wealth updates in the oracle simulators
    take nearly all the time, while qp solves only a handful of problems per
    job.  A qp or tree-engine change should show no change here; a simulator
    change shows only here.
    """

    name = "closed_form_mc"
    # Distinct Monte Carlo seeds per run: job j uses seed index j % MC_SEEDS.
    # A repeated seed must reproduce its output byte for byte, and few
    # distinct seeds keep the chance of a 4-standard-error miss per run small.
    MC_SEEDS = 8

    def __init__(self, seed, root, workdir, small=False):
        configs = root / "configs"
        self.runs = []
        for name, paths in (("iid_3assets_t4.json", 2**17), ("pii_4assets_t5.json", 2**14)):
            path = configs / name
            data = json.loads(path.read_text())
            if data["model"]["kind"] == "iid":
                steps = data["model"]["T"]
            else:
                step = data["step"]
                steps = sum(
                    max(1, math.ceil(s["duration"] / step - 1e-12))
                    for s in data["model"]["segments"]
                )
            n = paths // 64 if small else paths
            self.runs.append((str(path), _PUBLISHED[name], n, steps))
        self.mc_seeds = [
            int(_rng(seed, _MC_SEED, k).integers(2**32)) for k in range(self.MC_SEEDS)
        ]
        self.seen = {}

    def build(self):
        from mvhedge import cli

        self.cli = cli

    def job(self, j):
        mc_seed = self.mc_seeds[j % self.MC_SEEDS]
        res = JobResult()
        for path, published, n_paths, steps in self.runs:
            code, text = run_cli(self.cli, ["frontier", "--model", path])
            bad = _frontier_mismatches(text, published)
            res.check(code == 0 and not bad, f"{path}: frontier exit {code}, {bad}")
            argv = ["simulate", "--model", path, "--paths", str(n_paths), "--seed", str(mc_seed)]
            code, text = run_cli(self.cli, argv)
            f = parse_fields(text)
            try:
                dev = abs(f["empirical error second moment"] - f["analytic hedging error"])
                ok = dev <= 4.0 * f["standard error"]
            except KeyError:
                dev, ok = math.nan, False
            first = self.seen.setdefault((path, mc_seed), text)
            res.check(
                code == 0 and ok and text == first,
                f"{path} seed {mc_seed}: simulate exit {code}, deviation {dev:.3e}, "
                f"repeatable {text == first}",
            )
            res.work += n_paths * steps
        return res


WORKLOADS = {w.name: w for w in (DeskTrees, ClosedFormMc)}
