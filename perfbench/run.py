"""Benchmark of the lowrank solvers: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` next to this directory. The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`: with `--trace 0` the
end-to-end metrics (solve_s, setup_s, peak_rss_mb), with `--trace 1` the
per-layer metrics of `tracer.LAYER_METRICS`. Times are wall times converted
to seconds on the quiet host by `calibrate.speed_scale`. The lines above the
JSON print every end-to-end figure, including the quality ones, with its
unit, and the environment. A JSON record of the run goes to
`.perfbench_out/`, and a traced run also writes its spans there. The exit
code is 0 only if every output check passed. See README.md.
"""

from __future__ import annotations

import os
import sys

# Pin thread counts before numpy loads: BLAS and the trial pool each get
# one thread, so a run is one compute thread and the reference load in
# calibrate.py sees the same host conditions as the solvers. Two pool
# workers made same-seed runs of `completion` spread by up to 15%, which no
# single-thread reference corrects.
CPUS = len(os.sched_getaffinity(0))
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "LOWRANK_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import OperationClock, reference_samples, speed_scale  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3
MIN_PASSES = 2  # an untraced run times every operation at least this often


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_lowrank() -> None:
    """Import the checkout's package, never an installed copy."""
    if not (SRC / "lowrank" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lowrank package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lowrank
    if Path(lowrank.__file__).resolve().parent != SRC / "lowrank":
        raise SystemExit(f"perfbench: imported lowrank from {lowrank.__file__}, "
                         f"not from {SRC}")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the checkout's package."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import lowrank; "
            "print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "cpus": CPUS,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": THREADS,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(workload, inputs, clock, probe=True):
    """(wall seconds of each operation, results, per-pass inputs) of one solve."""
    run_inputs = workload.fresh(inputs)
    seconds, results = [], []
    for operation in workload.operations(run_inputs, clock.probe if probe else None):
        result, wall = clock.run(operation)
        results.append(result)
        seconds.append(wall)
    clock.samples += reference_samples()
    return seconds, results, run_inputs


def median_pass(passes: list[list[float]]) -> float:
    """Sum over operations of each one's median wall time across passes.

    A burst of interference slows the operations it overlaps; the
    per-operation median drops those samples, where the median of whole
    passes keeps any burst that hit every pass.
    """
    return sum(statistics.median(op) for op in zip(*passes))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lowrank()

    import tracer as tracing
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # set-up: a fresh interpreter importing the package, then the inputs
    setup = []
    for _ in range(SETUP_REPS):
        samples = reference_samples()
        start = time.perf_counter()
        import_seconds()
        inputs = workload.generate(args.seed)
        wall = time.perf_counter() - start
        setup.append(wall * speed_scale(samples + reference_samples()))
    setup_s = statistics.median(setup)

    workload.warmup(workload.fresh(inputs))

    # Untimed checks follow every pass. A traced run alternates an untraced
    # and a traced pass, so both see the same host conditions; the traced
    # pass does not probe, so no reference load runs inside a span.
    clock = OperationClock()
    total = Outcome()
    plain, traced, layers = [], [], []
    tracer = None
    begin = time.perf_counter()
    while True:
        seconds, results, run_inputs = timed_pass(workload, inputs, clock)
        plain.append(seconds)
        outcome = workload.check(run_inputs, results)
        total.merge(outcome)
        quality = outcome.quality
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                seconds, results, run_inputs = timed_pass(workload, inputs, clock,
                                                          probe=False)
            traced.append(seconds)
            layers.append(tracing.layer_metrics(tracer))
            total.merge(workload.check(run_inputs, results))
        elapsed = time.perf_counter() - begin
        if len(plain) >= (1 if args.trace else MIN_PASSES) \
                and elapsed * (1 + 1 / len(plain)) > args.seconds:
            break

    scale = speed_scale(clock.samples)
    wall_s = median_pass(plain)
    end_to_end = {
        "solve_s": (wall_s * scale, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if args.trace:
        counts = [{name: layer[name] for name in tracing.COUNT_METRICS if name in layer}
                  for layer in layers]
        total.record(all(c == counts[0] for c in counts),
                     "per-layer counts differ between traced passes")
        metrics = {}
        for name, unit, _ in tracing.LAYER_METRICS:
            if name == "trace.overhead_s":
                value = (median_pass(traced) - wall_s) * scale
            elif name in tracing.COUNT_METRICS:
                value = layers[0][name]
            else:
                value = statistics.median(layer[name] for layer in layers)
                if unit == "s":
                    value *= scale
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}

    env = environment()
    fail_frac = total.failed / total.attempted
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} wall solve_s {wall_s:.4f} host speed scale {scale:.4f}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<19} {value:.6g} {unit}")
    print(f"  {'fail_frac':<19} {fail_frac:.6g} ratio "
          f"({total.failed} of {total.attempted} operations)")
    for name in ("test_nmse", "baseline_test_nmse", "rel_err"):
        value = quality.get(name)
        print(f"  {name:<19} {'n/a' if value is None else f'{value:.6g}'} ratio")
    for problem in total.problems[:10]:
        print(f"  FAILED {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup,
        "operation_wall_s": plain, "traced_operation_wall_s": traced,
        "reference_s": clock.samples, "speed_scale": scale, "fail_frac": fail_frac,
        "quality": quality, "problems": total.problems, "metrics": metrics,
    }
    (OUT_DIR / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"spans-{stem}.jsonl")

    correct = total.failed == 0
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
