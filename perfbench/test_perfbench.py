"""Self-tests of the benchmark: tracer restore, span bookkeeping, repeatable
counts, and agreement between BENCHMARK.json and the code.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import lowrank  # noqa: E402
from lowrank import experiments  # noqa: E402

import tracer as tracing  # noqa: E402
from calibrate import OperationClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def small_pass():
    """One small instance of every workload's call path."""
    experiments.run_completion(30, 30, 2, 0.5, 10.0, 0, "fast-local", 3, 3, 2)
    experiments.run_completion(30, 30, 2, 0.5, 10.0, 0, "softimpute", 3, 3, 1)
    experiments.run_rpca(30, 30, 2, 0.05, 10.0, 1.0, 2, 0)
    problem = experiments.make_equivalence_problem(6, 2, 0)
    beta = 1.01 * float(np.linalg.eigvalsh(problem.design.T @ problem.design)[-1])
    for mode in ("greedy", "local"):
        lowrank.check_equivalence(problem, beta, 2, mode=mode)


def traced_small_pass():
    tracer = tracing.Tracer()
    with tracer.installed():
        small_pass()
    return tracer


def snapshot():
    """Every attribute the tracer replaces, as the package holds it now."""
    return {(id(holder), attr): vars(holder).get(attr)
            for holder, attr, _ in tracing._targets(tracing.Tracer())}


def test_installed_wraps_and_restores_on_exception():
    before = snapshot()
    assert len(before) > 30
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            assert lowrank.linalg.top_singular_triplet is not \
                before[(id(lowrank.linalg), "top_singular_triplet")]
            lowrank.fast_greedy(lowrank.ObservedQuadratic(
                lowrank.SparseObservations(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])),
                lowrank.SolverConfig(target_rank=1))
            raise RuntimeError("boom")
    assert tracer.spans
    after = snapshot()
    assert after == before
    for holder, attr, _ in tracing._targets(tracing.Tracer()):
        assert not hasattr(vars(holder).get(attr), "__wrapped__"), (holder, attr)


def test_self_time_within_duration():
    tracer = traced_small_pass()
    names = {span[1] for span in tracer.spans}
    assert {"linalg.insert", "linalg.project", "linalg.csr_with", "inner.refit_fast",
            "inner.refit_full", "inner.lbfgs", "solvers", "baselines.soft_impute",
            "sparse_equiv.check", "experiments.trial"} <= names
    ids = {span[0] for span in tracer.spans}
    for span_id, name, start, end, parent, thread, own in tracer.spans:
        assert 0 <= own <= end - start, (name, own, end - start)
        assert parent is None or parent in ids


def test_counts_repeat_across_traced_runs():
    first = tracing.layer_metrics(traced_small_pass())
    second = tracing.layer_metrics(traced_small_pass())
    counts = {name: first[name] for name in tracing.COUNT_METRICS if name in first}
    assert counts == {name: second[name] for name in counts}
    assert first["linalg.insert.calls"] > 0 and first["inner.lbfgs.nfev"] > 0
    assert first["sparse_equiv.solver_runs"] == 4  # 2 modes x steps 1, 2


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.LAYER_METRICS]
    assert [m["name"] for m in spec["end_to_end"]] == ["solve_s", "setup_s", "peak_rss_mb"]
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


def test_clock_leaves_probe_time_out_and_keeps_exceptions():
    clock = OperationClock()

    def operation():
        for _ in range(5):
            clock.probe()
        return "done"

    result, wall = clock.run(operation)
    assert result == "done"
    assert len(clock.samples) == 6 * 3
    assert 0 <= wall < 5 * 3 * min(clock.samples)

    result, _ = clock.run(lambda: 1 / 0)
    assert isinstance(result, ZeroDivisionError)
