"""Outside-in span tracer for the lowrank package.

`Tracer.installed()` swaps the public entry points of lowrank's modules for
thin wrappers that record one span per call and a few layer counters, and
puts every original back when the block ends, also when it raises. The
wrappers live here; nothing in the package is edited.

A span is (id, name, start_ns, end_ns, parent_id, thread, self_ns). Each
thread keeps its own stack of open spans, so a span's parent is the
innermost open span on the same thread; pool workers start new roots. Self
time is the span's duration minus the time its child spans cover. Spans
stay in memory until `write_spans` is called at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("linalg.insert.calls", "count", "lower"),
    ("linalg.insert.self_s", "s", "lower"),
    ("linalg.insert.matvecs", "count", "lower"),
    ("linalg.insert.unconverged", "count", "lower"),
    ("linalg.project.calls", "count", "lower"),
    ("linalg.project.self_s", "s", "lower"),
    ("linalg.project.bytes", "B", "lower"),
    ("linalg.csr_with.calls", "count", "lower"),
    ("linalg.csr_with.self_s", "s", "lower"),
    ("inner.refit_fast.calls", "count", "lower"),
    ("inner.refit_fast.self_s", "s", "lower"),
    ("inner.refit_full.calls", "count", "lower"),
    ("inner.refit_full.self_s", "s", "lower"),
    ("inner.refit_full.cg_iters", "count", "lower"),
    ("inner.refit_full.incomplete", "count", "lower"),
    ("inner.lbfgs.calls", "count", "lower"),
    ("inner.lbfgs.self_s", "s", "lower"),
    ("inner.lbfgs.nit", "count", "lower"),
    ("inner.lbfgs.nfev", "count", "lower"),
    ("objectives.value.calls", "count", "lower"),
    ("objectives.value.self_s", "s", "lower"),
    ("objectives.gradient.calls", "count", "lower"),
    ("objectives.gradient.self_s", "s", "lower"),
    ("objectives.quad_term.calls", "count", "lower"),
    ("objectives.quad_term.self_s", "s", "lower"),
    ("solvers.outer_iters", "count", "lower"),
    ("solvers.self_s", "s", "lower"),
    ("solvers.objective_up", "count", "lower"),
    ("solvers.truncate.calls", "count", "lower"),
    ("solvers.truncate.self_s", "s", "lower"),
    ("baselines.soft_impute.calls", "count", "lower"),
    ("baselines.soft_impute.self_s", "s", "lower"),
    ("baselines.soft_impute.iters", "count", "lower"),
    ("baselines.soft_impute.capped", "count", "lower"),
    ("sparse_equiv.check.calls", "count", "lower"),
    ("sparse_equiv.solver_runs", "count", "lower"),
    ("sparse_equiv.vector.self_s", "s", "lower"),
    ("experiments.trial.calls", "count", "lower"),
    ("experiments.trial.s", "s", "lower"),
    ("experiments.pool_util", "ratio", "higher"),
    ("data.gen.self_s", "s", "lower"),
    ("data.metric.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# metrics that count work: identical inputs must reproduce them exactly
COUNT_METRICS = [name for name, unit, _ in LAYER_METRICS if unit in ("count", "B")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> list:
        stack = self._stack()
        # [id, parent id, child ns, start ns]
        frame = [next(self._ids), stack[-1][0] if stack else None, 0, 0]
        stack.append(frame)
        frame[3] = time.perf_counter_ns()
        return frame

    def close(self, frame: list, name: str) -> int:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][2] += duration
        self.spans.append((frame[0], name, frame[3], end, frame[1],
                           threading.get_ident(), duration - frame[2]))
        return duration

    def add(self, key: str, n: int | float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    @contextmanager
    def installed(self):
        """Wrap the package's entry points for the duration of the block."""
        patches = []
        try:
            for holder, attr, wrapper in _targets(self):
                had_own = attr in vars(holder)
                patches.append((holder, attr, vars(holder).get(attr), had_own))
                setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original, had_own in reversed(patches):
                if had_own:
                    setattr(holder, attr, original)
                else:
                    delattr(holder, attr)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id name start_ns end_ns parent thread self_ns\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ------------------------------------------------------------------ targets

def _lowrank_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "lowrank" or name.startswith("lowrank."))]


def _holders_of(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) of the package that is bound to `fn`."""
    out = []
    for mod in _lowrank_modules():
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


def _wrap(tracer: Tracer, name: str, fn, after=None, call=None):
    """Span around `fn`; `call(fn, args, kwargs)` may substitute arguments,
    `after(args, kwargs, result, duration_ns)` records counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open()
        try:
            out = call(fn, args, kwargs) if call else fn(*args, **kwargs)
        finally:
            duration = tracer.close(frame, name)
        if after is not None:
            after(args, kwargs, out, duration)
        return out

    return traced


def _targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(holder, attribute, wrapper) for every entry point found in the package.

    Targets the package no longer has are skipped, so their metrics read 0.
    """
    import lowrank.experiments  # noqa: F401  (with the package, loads every module)

    add = tracer.add
    specs = []  # (module name, function name, span name, after, call)

    def insert_call(fn, args, kwargs):
        op = args[0] if args else None
        if not (dataclasses.is_dataclass(op) and hasattr(op, "matvec")
                and hasattr(op, "rmatvec")):
            return fn(*args, **kwargs)
        calls = [0]

        def counted(apply):
            def run(x):
                calls[0] += 1
                return apply(x)
            return run

        op = dataclasses.replace(op, matvec=counted(op.matvec),
                                 rmatvec=counted(op.rmatvec))
        try:
            return fn(op, *args[1:], **kwargs)
        finally:
            add("linalg.insert.matvecs", calls[0])

    def insert_after(args, kwargs, out, _):
        if getattr(out, "converged", True) is False:
            add("linalg.insert.unconverged")

    def project_after(args, kwargs, out, _):
        pair, omega = (args + (None, None))[:2]
        rank = getattr(pair, "rank", 0)
        nnz = getattr(omega, "nnz", 0)
        add("linalg.project.bytes", 2 * nnz * rank * 8)

    def full_after(args, kwargs, out, _):
        info = out[1] if isinstance(out, tuple) and len(out) > 1 else None
        add("inner.refit_full.cg_iters", getattr(info, "iterations", 0))
        if getattr(info, "converged", True) is False:
            add("inner.refit_full.incomplete")

    def lbfgs_after(args, kwargs, out, _):
        add("inner.lbfgs.nit", int(getattr(out, "nit", 0)))
        add("inner.lbfgs.nfev", int(getattr(out, "nfev", 0)))

    def solver_after(args, kwargs, out, _):
        traces = out[1] if isinstance(out, tuple) and len(out) > 1 else []
        objs = [getattr(t, "objective", math.nan) for t in traces]
        add("solvers.outer_iters", len(traces))
        add("solvers.objective_up", sum(b > a for a, b in zip(objs, objs[1:])))

    def soft_impute_after(args, kwargs, out, _):
        traces = out[1] if isinstance(out, tuple) and len(out) > 1 else []
        config = args[1] if len(args) > 1 else kwargs.get("config")
        add("baselines.soft_impute.iters", len(traces))
        if traces and len(traces) >= getattr(config, "max_iters", math.inf) \
                and traces[-1].rel_change > getattr(config, "tol", math.inf):
            add("baselines.soft_impute.capped")

    def run_completion_after(fn):
        signature = inspect.signature(fn)
        experiments = sys.modules.get("lowrank.experiments")

        def after(args, kwargs, out, duration):
            try:
                trials = signature.bind(*args, **kwargs).arguments["trials"]
                workers = experiments.worker_count(trials)
            except (AttributeError, KeyError, TypeError):
                workers = 1
            add("experiments.pool_capacity_ns", duration * workers)
        return after

    specs += [
        ("lowrank.linalg", "top_singular_triplet", "linalg.insert",
         insert_after, insert_call),
        ("lowrank.linalg", "project_observed", "linalg.project", project_after, None),
        ("lowrank.inner", "optimize_fast", "inner.refit_fast", None, None),
        ("lowrank.inner", "optimize_full", "inner.refit_full", full_after, None),
        ("lowrank.inner", "minimize", "inner.lbfgs", lbfgs_after, None),
        ("lowrank.solvers", "truncate_svd", "solvers.truncate", None, None),
        ("lowrank.solvers", "truncate_fast", "solvers.truncate", None, None),
        ("lowrank.baselines", "soft_impute", "baselines.soft_impute",
         soft_impute_after, None),
        ("lowrank.sparse_equiv", "check_equivalence", "sparse_equiv.check", None, None),
        ("lowrank.sparse_equiv", "omp", "sparse_equiv.vector", None, None),
        ("lowrank.sparse_equiv", "ompr", "sparse_equiv.vector", None, None),
        ("lowrank.experiments", "completion_trial", "experiments.trial", None, None),
        ("lowrank.data", "gen_completion", "data.gen", None, None),
        ("lowrank.data", "gen_rpca", "data.gen", None, None),
        ("lowrank.data", "nmse_on", "data.metric", None, None),
        ("lowrank.data", "rmse_on", "data.metric", None, None),
    ]
    for solver in ("greedy", "local_search", "fast_greedy", "fast_local_search"):
        specs.append(("lowrank.solvers", solver, "solvers", solver_after, None))
    run_completion = getattr(sys.modules.get("lowrank.experiments"), "run_completion", None)
    if run_completion is not None:
        specs.append(("lowrank.experiments", "run_completion", "experiments.run",
                      run_completion_after(run_completion), None))

    out = []
    for module, attr, span, after, call in specs:
        fn = getattr(sys.modules.get(module), attr, None)
        if fn is None:
            continue
        wrapper = _wrap(tracer, span, fn, after, call)
        out += [(holder, name, wrapper) for holder, name in _holders_of(fn)]

    # methods: observed-entry CSR copies and every objective class's layer calls
    linalg = sys.modules.get("lowrank.linalg")
    sparse = getattr(linalg, "SparseObservations", None)
    if sparse is not None and "csr_with" in vars(sparse):
        out.append((sparse, "csr_with",
                    _wrap(tracer, "linalg.csr_with", vars(sparse)["csr_with"])))
    for mod in _lowrank_modules():
        for cls in list(vars(mod).values()):
            if not (isinstance(cls, type) and cls.__module__ == mod.__name__):
                continue
            for method in ("value", "gradient", "quad_term"):
                fn = vars(cls).get(method)
                if inspect.isfunction(fn):
                    out.append((cls, method,
                                _wrap(tracer, f"objectives.{method}", fn)))
    return out


# ---------------------------------------------------------------- aggregation

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    calls: Counter = Counter()
    self_ns: defaultdict = defaultdict(int)
    total_ns: defaultdict = defaultdict(int)
    names = {}
    for span_id, name, start, end, parent, _, own in tracer.spans:
        names[span_id] = name
        calls[name] += 1
        self_ns[name] += own
        total_ns[name] += end - start
    solver_runs = sum(1 for _, name, _, _, parent, _, _ in tracer.spans
                      if name == "solvers" and names.get(parent) == "sparse_equiv.check")
    counts = tracer.counts
    capacity = counts.get("experiments.pool_capacity_ns", 0)

    def s(ns):
        return ns / 1e9

    out = {
        "linalg.insert.calls": calls["linalg.insert"],
        "linalg.insert.self_s": s(self_ns["linalg.insert"]),
        "linalg.insert.matvecs": counts["linalg.insert.matvecs"],
        "linalg.insert.unconverged": counts["linalg.insert.unconverged"],
        "linalg.project.calls": calls["linalg.project"],
        "linalg.project.self_s": s(self_ns["linalg.project"]),
        "linalg.project.bytes": counts["linalg.project.bytes"],
        "linalg.csr_with.calls": calls["linalg.csr_with"],
        "linalg.csr_with.self_s": s(self_ns["linalg.csr_with"]),
        "inner.refit_fast.calls": calls["inner.refit_fast"],
        "inner.refit_fast.self_s": s(self_ns["inner.refit_fast"]),
        "inner.refit_full.calls": calls["inner.refit_full"],
        "inner.refit_full.self_s": s(self_ns["inner.refit_full"]),
        "inner.refit_full.cg_iters": counts["inner.refit_full.cg_iters"],
        "inner.refit_full.incomplete": counts["inner.refit_full.incomplete"],
        "inner.lbfgs.calls": calls["inner.lbfgs"],
        "inner.lbfgs.self_s": s(self_ns["inner.lbfgs"]),
        "inner.lbfgs.nit": counts["inner.lbfgs.nit"],
        "inner.lbfgs.nfev": counts["inner.lbfgs.nfev"],
        "solvers.outer_iters": counts["solvers.outer_iters"],
        "solvers.self_s": s(self_ns["solvers"]),
        "solvers.objective_up": counts["solvers.objective_up"],
        "solvers.truncate.calls": calls["solvers.truncate"],
        "solvers.truncate.self_s": s(self_ns["solvers.truncate"]),
        "baselines.soft_impute.calls": calls["baselines.soft_impute"],
        "baselines.soft_impute.self_s": s(self_ns["baselines.soft_impute"]),
        "baselines.soft_impute.iters": counts["baselines.soft_impute.iters"],
        "baselines.soft_impute.capped": counts["baselines.soft_impute.capped"],
        "sparse_equiv.check.calls": calls["sparse_equiv.check"],
        "sparse_equiv.solver_runs": solver_runs,
        "sparse_equiv.vector.self_s": s(self_ns["sparse_equiv.vector"]),
        "experiments.trial.calls": calls["experiments.trial"],
        "experiments.trial.s": s(total_ns["experiments.trial"]),
        "experiments.pool_util": total_ns["experiments.trial"] / capacity if capacity else 0.0,
        "data.gen.self_s": s(self_ns["data.gen"]),
        "data.metric.self_s": s(self_ns["data.metric"]),
    }
    for method in ("value", "gradient", "quad_term"):
        out[f"objectives.{method}.calls"] = calls[f"objectives.{method}"]
        out[f"objectives.{method}.self_s"] = s(self_ns[f"objectives.{method}"])
    return out
