"""Outside-in tracing of the seven mvhedge layers.

While a :class:`Tracer` is active, every public function of ``linalg``,
``qp``, ``models``, ``engine``, ``frontier``, ``oracle`` and ``cli`` (the
names in each module's ``__all__``, plus the ``cli.cmd_*`` handlers) and the
constructors that validate model and problem data are replaced by wrappers
that record one span per call.  A function is replaced in every module
namespace and dispatch table of the package that binds it: ``qp`` imports
``pinv`` from ``linalg`` by name and ``cli`` keeps its handlers in a dict, so
patching the defining module alone would miss those calls.  The numpy
factorizations ``svd``, ``eigh`` and ``eigvalsh`` are counted, not timed.
Leaving the active context restores every original object, so untraced jobs
run the program unchanged.

A span is ``[name, start, end, parent, job, error, size]``: ``parent`` is the
index of the enclosing span (-1 for none), ``error`` is true when the call
raised, and ``size`` is the work the call was given (nodes, paths or path
steps) where a per-unit metric needs it.
"""

import gzip
import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "qp", "models", "engine", "frontier", "oracle", "cli")

# Constructors doing their layer's validation work: (module, class, method).
_CONSTRUCTORS = (
    ("models", "FiniteTreeModel", "__init__"),
    ("models", "IidDiscreteModel", "__init__"),
    ("models", "PiiItoModel", "__init__"),
    ("qp", "QpProblem", "__post_init__"),
)
_COUNTED = ("svd", "eigh", "eigvalsh")


def _internal_nodes(tree):
    return len(tree.nodes) - len(tree.terminal_ids)


def _mc_split(model, coeffs, values, claim, v, n_paths, seed, step=None,
              exhaustive=None, ctx=None):
    """Label and size of an ``mc_simulate`` call: its model kind and path steps."""
    if type(model).__name__ == "IidDiscreteModel":
        return "iid", int(n_paths) * model.n_periods
    substeps = sum(
        max(1, math.ceil(s.duration / step - 1e-12)) for s in model.segments
    )
    return "pii", int(n_paths) * substeps


class Tracer:
    """Span recorder for the mvhedge package; import mvhedge before creating."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(_COUNTED, 0)
        self._stack = []
        self._job = None
        self._epoch = time.perf_counter()
        mods = {name: importlib.import_module(f"mvhedge.{name}") for name in LAYERS}
        sizes = {
            "engine.tree_backward": lambda tree, *a, **k: (None, _internal_nodes(tree)),
            "oracle.dp_solve": lambda tree, *a, **k: (None, _internal_nodes(tree)),
            "models.discount_tree": lambda tree, *a, **k: (None, len(tree.nodes)),
            "models.FiniteTreeModel": lambda self, nodes, *a, **k: (None, len(nodes)),
            "oracle.mc_simulate": _mc_split,
        }
        self._wrappers = {}
        for layer, mod in mods.items():
            names = list(mod.__all__)
            if layer == "cli":
                names += [n for n in vars(mod) if n.startswith("cmd_")]
            for n in names:
                fn = getattr(mod, n)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{n}"
                    self._wrappers[fn] = self._span_wrapper(fn, name, sizes.get(name))
        self._methods = []
        for layer, cls_name, meth in _CONSTRUCTORS:
            cls = getattr(mods[layer], cls_name)
            name = f"{layer}.{cls_name}"
            fn = cls.__dict__[meth]
            self._methods.append((cls, meth, fn, self._span_wrapper(fn, name, sizes.get(name))))
        linalg_mods = [np.linalg] + [m for m in (getattr(np.linalg, "_linalg", None),) if m]
        self._numpy = [
            (mod, n, getattr(mod, n), self._count_wrapper(getattr(mod, n), n))
            for mod in linalg_mods
            for n in _COUNTED
        ]

    def _span_wrapper(self, fn, name, split):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label, size = split(*args, **kwargs) if split else (None, 0)
            rec = [name if label is None else f"{name}[{label}]",
                   time.perf_counter(), 0.0, stack[-1], self._job, False, size]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_sites(self):
        """(container, key, original) for every binding of a wrapped function."""
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mvhedge" and not mod_name.startswith("mvhedge."):
                continue
            for key, value in vars(mod).items():
                if inspect.isfunction(value) and value in self._wrappers:
                    sites.append((vars(mod), key, value))
                elif isinstance(value, dict):
                    sites += [
                        (value, k, v)
                        for k, v in value.items()
                        if inspect.isfunction(v) and v in self._wrappers
                    ]
        return sites

    @contextmanager
    def active(self, job):
        """Trace everything the program does inside the block as job ``job``."""
        sites = self._patch_sites()
        rec = ["bench.job", time.perf_counter(), 0.0, -1, job, False, 0]
        self._job = job
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            for container, key, fn in sites:
                container[key] = self._wrappers[fn]
            for cls, meth, _, wrapper in self._methods:
                setattr(cls, meth, wrapper)
            for mod, n, _, wrapper in self._numpy:
                setattr(mod, n, wrapper)
            yield
        finally:
            for container, key, fn in sites:
                container[key] = fn
            for cls, meth, fn, _ in self._methods:
                setattr(cls, meth, fn)
            for mod, n, fn, _ in self._numpy:
                setattr(mod, n, fn)
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._job = None

    def write(self, path):
        """Write the spans as gzip CSV, times in seconds from tracer creation."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,job,error,size\n")
            for i, (name, t0, t1, parent, job, err, size) in enumerate(self.spans):
                fh.write(
                    f"{i},{name},{t0 - self._epoch:.9f},{t1 - self._epoch:.9f},"
                    f"{parent},{job},{int(err)},{size}\n"
                )

    def summary(self):
        """Per span name and per layer: calls, inclusive and self seconds, errors, size."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        names, layers = {}, {}
        for i, (name, t0, t1, parent, job, err, size) in enumerate(self.spans):
            dur = t1 - t0
            for key, table in ((name, names), (name.split(".", 1)[0], layers)):
                row = table.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "errors": 0, "size": 0})
                row["calls"] += 1
                row["incl_s"] += dur
                row["self_s"] += dur - child[i]
                row["errors"] += int(err)
                row["size"] += size
        return names, layers


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def per_layer_metrics(tracer):
    """Per-layer metrics of a traced run as {name: (value, unit)}.

    A metric of a function the workload never calls reads 0.  The comment on
    each group names the end-to-end metric and workload it should move.
    """
    names, layers = tracer.summary()
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "errors": 0, "size": 0}

    def row(*keys):
        rows = [names.get(k, zero) for k in keys]
        return {f: sum(r[f] for r in rows) for f in zero}

    svd = tracer.counts["svd"]
    eig = tracer.counts["eigh"] + tracer.counts["eigvalsh"]
    solve, solve_alt = row("qp.solve"), row("qp.solve_alt")
    tree_backward, closed_form = row("engine.tree_backward"), row("engine.closed_form_values")
    dp = row("oracle.dp_solve")
    simulate = row("oracle.mc_simulate[iid]", "oracle.mc_simulate[pii]")
    tree_model, discount = row("models.FiniteTreeModel"), row("models.discount_tree")
    load, coeffs = row("models.load_config"), row("frontier.frontier_coeffs")
    m = {
        # linalg and qp: desk_trees job_p90_s and throughput; no change
        # predicted on closed_form_mc.
        "linalg.svd_calls": (svd, "count"),
        "linalg.eig_calls": (eig, "count"),
        "linalg.factorizations_per_qp_solve": (
            _ratio(svd + eig, solve["calls"] + solve_alt["calls"]), "1"),
        "qp.solve.calls": (solve["calls"], "count"),
        "qp.solve.us_per_call": (_ratio(solve["incl_s"], solve["calls"], 1e6), "us"),
        "qp.check_bounded.self_s": (row("qp.check_bounded")["self_s"], "s"),
        "qp.validate_s": (row("qp.QpProblem")["incl_s"], "s"),
        # engine: the tree pass is a share of desk_trees job_p90_s and
        # throughput; the closed forms a small share of closed_form_mc.
        "engine.tree_backward.us_per_node": (
            _ratio(tree_backward["incl_s"], tree_backward["size"], 1e6), "us"),
        "engine.closed_form_values.us_per_call": (
            _ratio(closed_form["incl_s"], closed_form["calls"], 1e6), "us"),
        # oracle: DP and numeraire checks move desk_trees only; the IID and
        # Ito simulators move closed_form_mc throughput.
        "oracle.dp_solve.us_per_node": (_ratio(dp["incl_s"], dp["size"], 1e6), "us"),
        "oracle.numeraire_change_check.self_s": (
            row("oracle.numeraire_change_check")["self_s"], "s"),
        "oracle.simulate.ns_per_path_step": (
            _ratio(simulate["incl_s"], simulate["size"], 1e9), "ns"),
        # models: tree construction, discounting and config loading move
        # desk_trees job_p90_s and throughput.
        "models.FiniteTreeModel.us_per_node": (
            _ratio(tree_model["incl_s"], tree_model["size"], 1e6), "us"),
        "models.discount_tree.us_per_node": (
            _ratio(discount["incl_s"], discount["size"], 1e6), "us"),
        "models.load_config.s_per_call": (_ratio(load["incl_s"], load["calls"]), "s"),
        # frontier: predicted to move nothing measurable.
        "frontier.frontier_coeffs.us_per_call": (
            _ratio(coeffs["incl_s"], coeffs["calls"], 1e6), "us"),
        # cli: argument parsing and dispatch in main; small shares of
        # desk_trees and closed_form_mc.
        "cli.main.self_s": (row("cli.main")["self_s"], "s"),
    }
    for layer in LAYERS:
        r = layers.get(layer, zero)
        m[f"{layer}.calls"] = (r["calls"], "count")
        m[f"{layer}.self_s"] = (r["self_s"], "s")
        m[f"{layer}.errors"] = (r["errors"], "count")
    return m
