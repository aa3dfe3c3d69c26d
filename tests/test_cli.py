import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from conftest import tree_dict
from mvhedge import cli, engine, models, oracle, qp
from mvhedge.cli import main
from test_models import MALFORMED_TREES, TERMINAL_PAYOFF, VALID_TREE

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
DATA = os.path.join(os.path.dirname(__file__), "data")


def cfg(name):
    return os.path.join(CONFIGS, name)


def huge_put_config():
    """Complete one-period market whose claim is in bounds undiscounted but
    exceeds MAX_AMOUNT once divided by asset 1 (2e150 at node "d")."""
    nodes = [
        {"id": "r", "time": 0, "prices": [1.0, 1.0],
         "branches": [{"prob": 0.5, "child": "u"}, {"prob": 0.5, "child": "d"}]},
        {"id": "u", "time": 1, "prices": [1.1, 1.3]},
        {"id": "d", "time": 1, "prices": [0.5, 0.8]},
    ]
    payoff = {"u": 1.0, "d": 1e150}
    return {"model": {"kind": "tree", "root": "r", "nodes": nodes, "payoff": payoff}}


class TestFrontierCommand:
    def test_discrete_benchmark_output(self, capsys):
        code = main(["frontier", "--model", cfg("iid_3assets_t4.json")])
        out = capsys.readouterr().out
        assert code == 0
        values = {}
        for line in out.splitlines():
            if line.startswith(("L0 =", "V0(1) =", "eps2_0(1) =")):
                key, _, val = line.partition(" = ")
                values[key] = float(val)
        assert abs(values["L0"] - 0.57571) < 5e-6
        assert abs(values["V0(1)"] - 0.30381 / 0.57571) < 1e-4
        assert abs(values["eps2_0(1)"] - 0.024179) < 5e-7
        assert "1.22624724269" in out  # second-moment slope at 12 digits
        assert "0.226247242686" in out  # variance slope

    def test_csv_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(
                ["frontier", "--model", cfg("iid_3assets_t4.json"), "--out", str(out)]
            ) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "mean,variance,second_moment"

    def test_tree_frontier(self, capsys):
        # The triple criterion 8 checks on trees: the tree solution of the
        # constant claim 1.
        tree = models.load_config(cfg("tree_call_binomial.json"))[0]
        with pytest.raises(TypeError):
            engine.closed_form_values(tree)
        sol = engine.tree_backward(tree, models.Claim(constant=1.0))
        assert main(["frontier", "--model", cfg("tree_call_binomial.json")]) == 0
        out = capsys.readouterr().out
        printed = dict(line.split(" = ", 1) for line in out.splitlines()[:3])
        assert printed == {
            "L0": f"{sol.L0:.12g}",
            "V0(1)": f"{sol.V0:.12g}",
            "eps2_0(1)": f"{sol.eps2_0:.12g}",
        }
        assert "variance: Var(R) = " in out and "efficient for means >= " in out

    def test_missing_file_exits_2(self, capsys):
        assert main(["frontier", "--model", "no_such_file.json"]) == 2

    def test_unreadable_model_file_exits_2(self, tmp_path, capsys):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (tmp_path, binary):
            assert main(["frontier", "--model", str(path)]) == 2
            assert len(capsys.readouterr().err.splitlines()) == 1

    def test_program_errors_are_not_input_errors(self, monkeypatch, capsys):
        # a ValueError from inside the library is a bug, not invalid input
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(engine, "closed_form_values", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["frontier", "--model", cfg("iid_3assets_t4.json")])

    def test_failed_factorization_exits_2(self, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, so it needs its own entry
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        assert main(["solve-qp", "--model", cfg("qp_example.json")]) == 2
        assert capsys.readouterr().err.splitlines() == ["SVD did not converge"]

    def test_missing_model_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "no_sigma.json"
        path.write_text(json.dumps({"model": {"kind": "iid", "mu": [0.1], "T": 2}}))
        assert main(["frontier", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["iid model config lacks the key 'sigma'"]

    def test_malformed_model_or_claim_exits_2(self, tmp_path, capsys):
        model = {"kind": "iid", "mu": [0.1], "sigma": [[0.04]], "T": 2}
        tree = {
            "kind": "tree",
            "root": "r",
            "nodes": [
                {
                    "id": "r",
                    "time": 0,
                    "prices": [1.0],
                    "branches": [{"prob": 0.5, "child": "u"}, {"prob": 0.5, "child": "d"}],
                },
                {"id": "u", "time": 1, "prices": [1.2]},
                {"id": "d", "time": 1, "prices": [0.9]},
            ],
        }
        bad_prob = json.loads(json.dumps(tree))
        bad_prob["nodes"][0]["branches"][0]["prob"] = "x"
        true_prob = json.loads(json.dumps(tree))
        true_prob["nodes"][0]["branches"][1]["prob"] = True
        seg = {"duration": 1.0, "b": [0.1], "c": [[0.04]]}
        wide = dict(seg, b=[0.1, 0.2], c=[[0.04, 0.0], [0.0, 0.09]])
        cases = [
            ({"model": []}, "the 'model' section must be a mapping"),
            (
                {"model": model, "claim": [1]},
                "claim must be a number or a mapping of numbers, got [1]",
            ),
            (
                {"model": {"kind": "pii", "segments": [[1, 2, 3]]}},
                "each segment must be a mapping",
            ),
            ({"model": {"kind": "pii", "segments": 5}}, "'segments' must be a list"),
            (
                {"model": dict(tree, nodes=[[1, 2]])},
                "each tree node must be a mapping",
            ),
            ({"model": dict(tree, payoff=[1])}, "'payoff' must be a mapping"),
            ({"model": dict(model, T="x")}, "T must be an integer, got 'x'"),
            ({"model": dict(model, T=4.7)}, "T must be an integer, got 4.7"),
            ({"model": dict(model, T=True)}, "T must be an integer, got True"),
            ({"model": dict(model, T="4")}, "T must be an integer, got '4'"),
            (
                {"model": dict(model, mu="abc")},
                "mu must be a rectangular array of numbers, got 'abc'",
            ),
            (
                {"model": dict(model, mu=[0.1, 0.2], sigma=[[0.04, 0.0], [0.0]])},
                "sigma must be a rectangular array of numbers, "
                "got [[0.04, 0.0], [0.0]]",
            ),
            ({"model": bad_prob}, "branch prob must be a number, got 'x'"),
            # JSON true is not the number 1, in any scalar number field
            ({"model": true_prob}, "branch prob must be a number, got True"),
            ({"model": model, "wealth": True}, "wealth must be a number, got True"),
            ({"model": model, "step": True}, "step must be a number, got True"),
            (
                {"model": model, "claim": True},
                "claim must be a number or a mapping of numbers, got True",
            ),
            (  # a JSON integer past the float range
                {"model": model, "claim": 10**400},
                f"claim must be a number or a mapping of numbers, got {10**400}",
            ),
            (
                {"model": tree, "claim": {"u": 1.0, "d": False}},
                "claim at 'd' must be a number, got False",
            ),
            (
                {"model": dict(tree, payoff={"u": True, "d": 0.0})},
                "payoff at 'u' must be a number, got True",
            ),
            (
                {"model": dict(tree, payoff={"u": 1.0, "d": "x"})},
                "payoff at 'd' must be a number, got 'x'",
            ),
            (
                {"model": {"kind": "pii", "segments": [dict(seg, duration=True)]}},
                "segment duration must be a number, got True",
            ),
            ({"model": dict(model, mu=[math.inf])}, "mu contains non-finite entries"),
            ({"model": dict(model, mu=[0.1, 0.2])}, "mu and sigma dimensions differ"),
            ({"model": dict(model, T=0)}, "n_periods must be at least 1"),
            (
                {"model": {"kind": "pii", "segments": []}},
                "at least one segment is required",
            ),
            (
                {"model": {"kind": "pii", "segments": [dict(seg, b=[math.inf])]}},
                "segment 0 drift has non-finite entries",
            ),
            (
                {"model": {"kind": "pii", "segments": [seg, wide]}},
                "segments have inconsistent dimensions",
            ),
        ]
        for data, message in cases:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            assert main(["frontier", "--model", str(path)]) == 2
            assert capsys.readouterr().err.splitlines() == [message]

    def test_absurd_magnitudes_exit_2(self, tmp_path, capsys):
        def load(name):
            with open(cfg(name), encoding="utf-8") as fh:
                return json.load(fh)

        iid, pii = load("iid_3assets_t4.json"), load("pii_4assets_t5.json")
        rich, huge = load("tree_call_binomial.json"), load("tree_call_binomial.json")
        steep = load("tree_call_binomial.json")
        iid["model"]["T"] = 1e300
        pii["model"]["segments"][0]["duration"] = 1e300
        rich["wealth"] = 1e300
        huge["model"]["payoff"]["nuu"] = 1e300
        steep["model"]["nodes"][0]["prices"][1] = 1e300  # node "nuu"
        steps = "n_periods must be at most 1000000, got 1e+300"
        bound = "must be at most 1e+150 in magnitude, got"
        cases = [
            ("frontier", iid, steps),
            ("simulate", iid, steps),
            (
                "simulate",
                pii,
                "the value processes overflow over the horizon 1e+300: "
                "exp(log L) or exp(log V) exceeds the float range",
            ),
            ("hedge", rich, f"wealth {bound} 1e+300"),
            ("hedge", huge, f"a claim value {bound} 1e+300"),
            ("oracle", huge, f"a claim value {bound} 1e+300"),
            (
                "hedge",
                steep,
                f"every edge return {bound} 8e+299 on the edge into node 'nuu'",
            ),
        ]
        for command, data, message in cases:
            path = tmp_path / "absurd.json"
            path.write_text(json.dumps(data))
            assert main([command, "--model", str(path)]) == 2
            assert capsys.readouterr().err.splitlines() == [message]


def test_every_command_has_a_help_line():
    # The help texts, not argparse's printed help, whose wording differs
    # between Python versions.
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    helps = {action.dest: action.help for action in commands._choices_actions}
    assert list(helps) == list(cli._COMMANDS) and all(helps.values())


# Flags each command does not read; argparse rejects them (exit 2).
UNREAD_FLAGS = [
    ("frontier", "--claim"),
    ("frontier", "--wealth"),
    ("frontier", "--seed"),
    ("frontier", "--paths"),
    ("frontier", "--tol"),
    ("hedge", "--seed"),
    ("hedge", "--paths"),
    ("hedge", "--tol"),
    ("oracle", "--out"),
    ("oracle", "--seed"),
    ("oracle", "--paths"),
    ("simulate", "--out"),
    ("simulate", "--tol"),
    ("solve-qp", "--claim"),
    ("solve-qp", "--wealth"),
    ("solve-qp", "--out"),
    ("solve-qp", "--seed"),
    ("solve-qp", "--paths"),
    ("solve-qp", "--tol"),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flag_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "--model", cfg("tree_call_binomial.json"), flag, "3"])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_iid_long_horizon_stays_in_float_range(capsys):
    # growth = 1 - 2ab + aca is 1.10, so L = growth^T overflows at T = 20000
    # and V underflows to 0, but L V^2 = ((1 - ab)^2 / growth)^T does not:
    # simulate reports the finite error at wealth 0 and frontier rejects the
    # infinite L0 in one line, neither with a warning.
    path = os.path.join(DATA, "iid_long_horizon.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        argv = ["simulate", "--model", path, "--paths", "1000", "--seed", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main(["frontier", "--model", path]) == 2
        model = models.load_config(path)[0]
        analytic = engine.hedging_error(engine.closed_form_values(model).values, 0.0)
    assert capsys.readouterr().err.splitlines() == [
        "L0 must be positive and finite, got inf"
    ]
    printed = float(re.search(r"analytic hedging error = (\S+)", out).group(1))
    assert np.isfinite(printed) and printed == float(cli._fmt(analytic))
    reference = _iid_error_at_zero_wealth(model)
    assert abs(analytic - reference) <= 1e-12 * reference


def test_iid_overflowed_l0_with_normal_v0(capsys):
    # At T = 10000, L0 = e^978 overflows but V0 = e^-603 is a normal float, so
    # (0 - V0)^2 underflows to 0 and L0 (0 - V0)^2 is formed from log L0.
    path = os.path.join(DATA, "iid_long_horizon_t10000.json")
    model = models.load_config(path)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = engine.closed_form_values(model).values
        assert values.L0 == np.inf and values.V0 > np.finfo(float).tiny
        argv = ["simulate", "--model", path, "--paths", "1000", "--seed", "1"]
        assert main(argv) == 0
        analytic = engine.hedging_error(values, 0.0)
    out = capsys.readouterr().out
    printed = float(re.search(r"analytic hedging error = (\S+)", out).group(1))
    assert np.isfinite(printed) and printed == float(cli._fmt(analytic))
    reference = _iid_error_at_zero_wealth(model)
    assert abs(analytic - reference) <= 1e-12 * reference


def _iid_error_at_zero_wealth(model):
    """Log-space reference for the three-asset IID hedging error at wealth 0.

    a and p b come from the budget-constrained KKT systems, then L0 V0^2 +
    eps2_0 = ratio^T + kappa (1 + ratio + ... + ratio^(T-1)).
    """
    b, c = model.log_characteristics(0)
    kkt = np.block([[c, np.ones((3, 1))], [np.ones((1, 3)), np.zeros((1, 1))]])
    x = np.linalg.solve(kkt, np.column_stack([np.append(b, -1.0), np.append(b, 0.0)]))
    a, pb = x[:3, 0], x[:3, 1]
    growth = 1.0 - 2.0 * (a @ b) + a @ c @ a
    log_ratio = 2.0 * np.log(1.0 - a @ b) - np.log(growth)
    kappa = 1.0 - b @ pb - np.exp(log_ratio)
    powers = np.exp(log_ratio * np.arange(model.n_periods + 1))
    return powers[-1] + kappa * math.fsum(powers[:-1])


@pytest.mark.parametrize(
    "case", ["duplicate id", "node reached twice", "inconsistent asset count"]
)
def test_malformed_tree_config_exits_2(case, tmp_path, capsys):
    edit, error, _ = {c[0]: c[1:] for c in MALFORMED_TREES}[case]
    records = list(VALID_TREE)
    edit(records)
    with pytest.raises(error) as expected:
        models.model_from_dict(tree_dict(records, "r"))
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"model": tree_dict(records, "r", TERMINAL_PAYOFF)}))
    assert main(["hedge", "--model", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [str(expected.value)]


class TestParserReuse:
    def test_parser_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for command in ("hedge", "oracle", "frontier", "hedge"):
            assert main([command, "--model", cfg("tree_call_binomial.json")]) == 0
        capsys.readouterr()
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_no_flag_leaks_into_the_next_call(self, tmp_path, capsys):
        data = json.loads(open(cfg("tree_call_binomial.json"), encoding="utf-8").read())
        data.pop("wealth")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))

        def fields():
            out = capsys.readouterr().out
            return dict(line.split(" = ", 1) for line in out.splitlines())

        assert main(["hedge", "--model", str(path), "--wealth", "0.3"]) == 0
        assert fields()["wealth"] == "0.3"
        assert main(["hedge", "--model", str(path)]) == 0
        printed = fields()
        assert printed["wealth"] == printed["V0"]
        assert main(["oracle", "--model", str(path), "--tol", "0"]) == 3
        capsys.readouterr()
        assert main(["oracle", "--model", str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_parser_works_after_an_argparse_exit(self, capsys):
        argv, expected = PINNED["hedge"]
        for bad in ([], ["hedge"], ["hedge", "--model", cfg("qp_example.json"), "--seed", "3"]):
            with pytest.raises(SystemExit) as err:
                main(bad)
            assert err.value.code == 2
            capsys.readouterr()
            assert main(argv) == 0
            assert capsys.readouterr().out == expected


class TestHedgeCommand:
    def test_complete_tree_has_zero_error_column(self, tmp_path, capsys):
        out = tmp_path / "hedge.csv"
        code = main(
            ["hedge", "--model", cfg("tree_call_binomial.json"), "--out", str(out)]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        rows = out.read_text().strip().splitlines()
        header = rows[0].split(",")
        eps_col = header.index("eps2")
        for row in rows[1:]:
            assert abs(float(row.split(",")[eps_col])) < 1e-12
        assert "hedging error" in stdout

    def test_out_lists_nodes_breadth_first_with_config_times(self, tmp_path, capsys):
        # The node and time columns: ids in layout order, and the config's
        # own times, also when the root does not start at 0.
        data = json.loads(open(cfg("tree_call_binomial.json"), encoding="utf-8").read())
        later = json.loads(json.dumps(data))
        for node in later["model"]["nodes"]:
            node["time"] += 3
        columns = {}
        for name, config in (("shipped", data), ("later", later)):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            path.write_text(json.dumps(config))
            assert main(["hedge", "--model", str(path), "--out", str(out)]) == 0
            columns[name] = [row.split(",")[:2] for row in out.read_text().splitlines()]
        capsys.readouterr()
        ids = ["n", "nu", "nd", "nuu", "nud", "ndu", "ndd"]
        assert columns["shipped"] == [["node", "time"]] + [
            [nid, str(t)] for nid, t in zip(ids, [0, 1, 1, 2, 2, 2, 2])
        ]
        assert columns["later"] == [["node", "time"]] + [
            [nid, str(t)] for nid, t in zip(ids, [3, 4, 4, 5, 5, 5, 5])
        ]

    def test_printed_error_consistent_with_processes(self, capsys):
        code = main(["hedge", "--model", cfg("tree_call_binomial.json")])
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): float(line.split("=")[1])
            for line in out.splitlines()
            if "=" in line
        }
        expected = (
            values["L0"] * (values["wealth"] - values["V0"]) ** 2 + values["eps2_0"]
        )
        assert abs(values["hedging error"] - expected) < 1e-10

    def test_wealth_defaults_to_tracking_value(self, capsys, tmp_path):
        data = json.loads(
            open(cfg("tree_call_binomial.json"), encoding="utf-8").read()
        )
        data.pop("wealth")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        code = main(["hedge", "--model", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): float(line.split("=")[1])
            for line in out.splitlines()
            if "=" in line
        }
        assert abs(values["wealth"] - values["V0"]) < 1e-14
        assert abs(values["hedging error"] - values["eps2_0"]) < 1e-14

    def test_tree_required(self, capsys):
        assert main(["hedge", "--model", cfg("iid_3assets_t4.json")]) == 2

    def test_claim_from_flag_or_config_mapping(self, tmp_path, capsys):
        # --claim replaces the config's payoff; a config "claim" mapping is a
        # payoff on the terminal nodes.
        tree = models.load_config(cfg("tree_call_binomial.json"))[0]
        with open(cfg("tree_call_binomial.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        payoff = {"nuu": 0.25, "nud": 1.0, "ndu": 1.0, "ndd": 2.0}
        data["claim"] = payoff
        path = tmp_path / "claim_map.json"
        path.write_text(json.dumps(data))
        flag = ["--model", cfg("tree_call_binomial.json"), "--claim", "1"]
        for argv, claim in (
            (flag, models.Claim(1.0)),
            (["--model", str(path)], models.Claim(payoff=payoff)),
        ):
            solution = engine.tree_backward(tree, claim)
            assert main(["hedge"] + argv) == 0
            assert capsys.readouterr().out.splitlines()[:3] == [
                f"L0 = {cli._fmt(solution.L0)}",
                f"V0 = {cli._fmt(solution.V0)}",
                f"eps2_0 = {cli._fmt(solution.eps2_0)}",
            ]

    def test_claim_required_on_a_tree(self, tmp_path, capsys):
        with open(cfg("tree_call_binomial.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        del data["model"]["payoff"]
        path = tmp_path / "no_claim.json"
        path.write_text(json.dumps(data))
        assert main(["hedge", "--model", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "a claim is required: give --claim or a payoff map in the config"
        ]

    def test_hedging_error_never_negative(self, tmp_path, capsys):
        # The market is complete, so the true error is 0; at the 1e300 scale
        # of the squared payoff, rounding used to leave eps2_0 at -5.9e284.
        path = tmp_path / "huge_put.json"
        path.write_text(json.dumps(huge_put_config()))
        tree, claim, _, _ = models.load_config(path)
        sol = engine.tree_backward(tree, claim)
        assert np.all(sol.eps2 >= 0.0)
        for v in (0.0, sol.V0):
            assert np.all(oracle.dp_solve(tree, claim, v).e >= 0.0)
        assert main(["hedge", "--model", str(path)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("hedging error")]
        assert len(lines) == 1 and float(lines[0].split("=")[1]) >= 0.0


class TestOracleCommand:
    def test_all_numeraires_pass(self, capsys):
        code = main(
            ["oracle", "--model", cfg("tree_call_binomial.json"), "--wealth", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 2
        assert "FAIL" not in out

    def test_degenerate_value_function_names_its_node(self, tmp_path, capsys):
        # Two riskless assets of returns 0 and 1 are an exact arbitrage: at the
        # root of the shipped tree, and here only at "d", the second node of
        # period 1.
        records = [
            ("r", 0, [1.0, 1.0], [(0.5, "u"), (0.5, "d")]),
            ("u", 1, [1.0, 1.2], [(0.5, "uu"), (0.5, "ud")]),
            ("d", 1, [1.0, 0.9], [(0.5, "du"), (0.5, "dd")]),
            ("uu", 2, [1.0, 1.3], []),
            ("ud", 2, [1.0, 1.1], []),
            ("du", 2, [1.0, 1.8], []),
            ("dd", 2, [1.0, 1.8], []),
        ]
        payoff = dict.fromkeys(["uu", "ud", "du", "dd"], 1.0)
        path = tmp_path / "arbitrage_at_d.json"
        path.write_text(json.dumps({"model": tree_dict(records, "r", payoff)}))
        shipped = os.path.join(DATA, "tree_arbitrage.json")
        for config, node in ((shipped, "r"), (path, "d")):
            assert main(["oracle", "--model", str(config)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "value function degenerates: wealth has no quadratic cost, so a "
                "fully invested portfolio attains zero conditional second moment "
                f"(at node {node!r})"
            ]

    def test_negative_tolerance_exits_2(self, capsys):
        argv = ["oracle", "--model", cfg("tree_call_binomial.json"), "--tol", "-0.001"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "--tol must be non-negative, got -0.001"
        ]

    def test_impossible_tolerance_exits_3(self, capsys):
        code = main(
            ["oracle", "--model", cfg("tree_call_binomial.json"), "--tol", "0"]
        )
        out = capsys.readouterr().out
        assert code == 3
        # the constant-asset check is literally the same problem twice -> 0 gap
        assert "PASS" in out and "FAIL" in out

    def test_hedge_and_oracle_agree(self, capsys):
        # the error printed by `hedge` equals the objective printed by `oracle`
        # for the same config and wealth
        assert main(
            ["hedge", "--model", cfg("tree_call_binomial.json"), "--wealth", "0.35"]
        ) == 0
        hedge_out = capsys.readouterr().out
        assert main(
            ["oracle", "--model", cfg("tree_call_binomial.json"), "--wealth", "0.35"]
        ) == 0
        oracle_out = capsys.readouterr().out
        hedge_err = float(
            [l for l in hedge_out.splitlines() if l.startswith("hedging error")][0]
            .split("=")[1]
        )
        dp_obj = float(
            [l for l in oracle_out.splitlines() if l.startswith("dp objective")][0]
            .split("=")[1]
        )
        assert abs(hedge_err - dp_obj) < 1e-10

    def test_base_dp_solved_once(self, capsys, monkeypatch):
        # the base tree is solved once, together with one discounted tree per
        # positive asset: one stacked least-squares solve per level holds all
        # three
        tree = models.load_config(cfg("tree_call_binomial.json"))[0]
        stacks = []
        lsq = qp._lsq

        def counting(rows, *args, **kwargs):
            stacks.append(len(rows))
            return lsq(rows, *args, **kwargs)

        monkeypatch.setattr(qp, "_lsq", counting)
        assert main(["oracle", "--model", cfg("tree_call_binomial.json")]) == 0
        assert capsys.readouterr().out.count("PASS") == 2
        assert len(tree.positive_assets()) == 2
        assert len(stacks) == len(tree.levels)
        sizes = [here.stop - here.start for here, _, _, _ in reversed(tree.levels)]
        assert stacks == [3 * m for m in sizes]

    def test_discounted_claim_bound(self, tmp_path, capsys):
        path = tmp_path / "huge_put.json"
        path.write_text(json.dumps(huge_put_config()))
        assert main(["oracle", "--model", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "a claim value must be at most 1e+150 in magnitude, got 2e+150"
        ]


class TestSimulateCommand:
    def test_tree_enumeration_matches_analytic(self, capsys):
        code = main(
            ["simulate", "--model", cfg("tree_call_binomial.json"), "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): line.split("=")[1].strip()
            for line in out.splitlines()
            if "=" in line
        }
        assert values["exact"] == "True"
        empirical = float(values["empirical error second moment"])
        analytic = float(values["analytic hedging error"])
        assert abs(empirical - analytic) < 1e-12

    def test_euler_simulation_reads_step_from_config(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                cfg("pii_4assets_t5.json"),
                "--paths",
                "2000",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): line.split("=")[1].strip()
            for line in out.splitlines()
            if "=" in line
        }
        empirical = float(values["empirical error second moment"])
        analytic = float(values["analytic hedging error"])
        # Euler bias plus sampling noise: loose sanity band only
        assert abs(empirical - analytic) < 0.25 * (1 + analytic)

    def test_non_numeric_step_exits_2(self, tmp_path, capsys):
        with open(cfg("pii_4assets_t5.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        data["step"] = "x"
        path = tmp_path / "bad_step.json"
        path.write_text(json.dumps(data))
        assert main(["simulate", "--model", str(path), "--paths", "10"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["step must be a number, got 'x'"]

    def test_non_positive_step_exits_2(self, tmp_path, capsys):
        with open(cfg("pii_4assets_t5.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        for step in (0.0, -0.05):
            data["step"] = step
            path = tmp_path / "bad_step.json"
            path.write_text(json.dumps(data))
            assert main(["simulate", "--model", str(path), "--paths", "10"]) == 2
            err = capsys.readouterr().err
            assert err.splitlines() == [f"step must be positive, got {step}"]

    def test_euler_step_defaults_to_a_hundredth_of_the_shortest_segment(
        self, tmp_path, capsys
    ):
        # the shipped config's step 0.05 is the default for its one 5-year segment
        with open(cfg("pii_4assets_t5.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        assert data.pop("step") == 0.05
        path = tmp_path / "no_step.json"
        path.write_text(json.dumps(data))
        outputs = []
        for config in (cfg("pii_4assets_t5.json"), str(path)):
            argv = ["simulate", "--model", config, "--paths", "500", "--seed", "2"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_path_count_below_one_exits_2(self, capsys):
        for config in ("iid_3assets_t4.json", "pii_4assets_t5.json"):
            for paths in ("0", "-3"):
                argv = ["simulate", "--model", cfg(config), "--paths", paths]
                assert main(argv) == 2
                assert capsys.readouterr().err.splitlines() == [
                    f"the path count must be at least 1, got {paths}"
                ]

    def test_negative_seed_exits_2_on_closed_forms(self, capsys):
        argv = ["simulate", "--model", cfg("iid_3assets_t4.json"), "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "the seed must be non-negative, got -1"
        ]
        # a tree is enumerated exactly and draws nothing
        argv = ["simulate", "--model", cfg("tree_call_binomial.json"), "--seed", "-1"]
        assert main(argv) == 0

    def test_seeds_are_not_reduced_modulo_2_64(self, capsys):
        argv = ["simulate", "--model", cfg("iid_3assets_t4.json"), "--paths", "1000"]
        outs = []
        for seed in ("1", str(2**64 + 1)):
            assert main(argv + ["--seed", seed]) == 0
            outs.append(capsys.readouterr().out.splitlines())
        moments = [
            [line for line in out if line.startswith("empirical")] for out in outs
        ]
        assert moments[0] != moments[1]

    def test_tree_simulation_ignores_path_count(self, capsys):
        # A tree is enumerated exactly, so no path count is checked
        argv = ["simulate", "--model", cfg("tree_call_binomial.json")]
        assert main(argv) == 0
        exact = capsys.readouterr().out
        assert "exact = True" in exact.splitlines()
        for paths in ("0", "-3"):
            assert main(argv + ["--paths", paths]) == 0
            assert capsys.readouterr().out == exact

    def test_gaussian_simulation_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                cfg("iid_3assets_t4.json"),
                "--paths",
                "20000",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = {
            line.split("=")[0].strip(): line.split("=")[1].strip()
            for line in out.splitlines()
            if "=" in line
        }
        gap = abs(
            float(values["empirical error second moment"])
            - float(values["analytic hedging error"])
        )
        assert gap < 6 * float(values["standard error"])


class TestSolveQpCommand:
    def test_demo_problem(self, capsys):
        code = main(["solve-qp", "--model", cfg("qp_example.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "x_hat" in out and "value" in out
        assert "agrees to" in out

    def test_unbounded_reports_direction(self, tmp_path, capsys):
        path = tmp_path / "unbounded.json"
        path.write_text(
            json.dumps(
                {
                    "C": [[0.0, 0.0], [0.0, 0.0]],
                    "F": [0.0, 1.0],
                    "A": [[1.0, 0.0]],
                    "b": [0.0],
                }
            )
        )
        code = main(["solve-qp", "--model", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "unbounded below" in out
        assert "descent direction" in out

    def test_bad_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"C": [[1.0]]}))
        assert main(["solve-qp", "--model", str(path)]) == 2

    def test_reads_one_right_hand_side(self, tmp_path, capsys):
        with open(cfg("qp_example.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        cases = [
            (dict(data, F=[[0.4, 0.1], [-0.2, 0.0], [0.3, 0.2]]), "F and b must be vectors"),
            (dict(data, b=[[1.0, 2.0]]), "F and b must be vectors"),
            (dict(data, C="x"), "QP file fields must be arrays of numbers"),
            ([1, 2], "a QP file must be a mapping"),
        ]
        path = tmp_path / "qp.json"
        for case, message in cases:
            path.write_text(json.dumps(case))
            assert main(["solve-qp", "--model", str(path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and message in err[0]


# Every value printed by the tree and QP commands, at 12 significant digits.
# The roundoff diagnostics (objective gap, max holdings gap, agrees to) are
# masked: they measure disagreement at machine precision, not results.
PINNED = {
    "hedge": (
        ["hedge", "--model", cfg("tree_call_binomial.json"), "--wealth", "0.25"],
        "L0 = 0.825210935453\n"
        "V0 = 0.111111111111\n"
        "eps2_0 = 1.615534835e-32\n"
        "wealth = 0.25\n"
        "hedging error = 0.0159184208228\n",
    ),
    "oracle": (
        ["oracle", "--model", cfg("tree_call_binomial.json")],
        "dp objective at wealth 0.2 = 0.00652018516901\n"
        "numeraire asset 1: PASS (objective gap *, max holdings gap *, "
        "E[X_T^2] 1)\n"
        "numeraire asset 2: PASS (objective gap *, max holdings gap *, "
        "E[X_T^2] 1.42444225)\n",
    ),
    "simulate": (
        ["simulate", "--model", cfg("tree_call_binomial.json")],
        "paths = 4\n"
        "seed = 0\n"
        "exact = True\n"
        "empirical error second moment = 0.00652018516901\n"
        "empirical error mean = 0.0733520831514\n"
        "standard error = 0\n"
        "analytic hedging error = 0.00652018516901\n",
    ),
    "solve-qp": (
        ["solve-qp", "--model", cfg("qp_example.json")],
        "x_hat = [0.326359832636, -0.359832635983, 1.03347280335]\n"
        "value = -0.367782426778\n"
        "solution set dimension = 0\n"
        "alternative representation (direct) agrees to *\n",
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_printed_values_pinned(command, capsys):
    argv, expected = PINNED[command]
    assert main(argv) == 0
    out = capsys.readouterr().out
    masked = re.sub(
        r"(objective gap|max holdings gap|agrees to) [-+.0-9e]+", r"\1 *", out
    )
    assert masked == expected
