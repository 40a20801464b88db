"""Batch experiment runner: subcommands emit CSV results plus JSON summaries.

Given identical flags and seeds, every emitted value is reproducible; the
timing columns (`seconds`, `wall_nanos`) are the only fields that vary
between runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple, fields

from .data import load_movielens
from .experiments import (COMPLETION_SOLVERS, run_completion, run_equivalence,
                          run_recsys, run_rpca)
from .solvers import IterationTrace

TRACE_HEADER = [f.name for f in fields(IterationTrace)]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_clip(text: str) -> tuple[float, float] | None:
    if text.lower() == "none":
        return None
    try:
        lo, hi = text.split(":")
        return (float(lo), float(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI or 'none', got {text!r}")


def _cmd_synth_complete(args) -> int:
    rows, summary, traces = run_completion(
        args.m, args.n, args.true_rank, args.p, args.snr, args.seed,
        args.solver, args.rank, args.inner_iters, args.trials)
    _write_csv(args.csv, list(rows[0]), [row.values() for row in rows])
    _write_json(args.json, summary)
    if args.trace is not None:
        _write_csv(args.trace, ["trial"] + TRACE_HEADER,
                   [(trial, *astuple(tr)) for trial, tr in traces])
    return 0


def _cmd_rpca_synth(args) -> int:
    traces, report = run_rpca(args.m, args.n, args.true_rank, args.sparse_frac,
                              args.sparse_mag, args.delta, args.rank, args.seed)
    _write_csv(args.csv, TRACE_HEADER, [astuple(tr) for tr in traces])
    _write_json(args.json, report)
    if args.trace is not None:
        _write_csv(args.trace, TRACE_HEADER, [astuple(tr) for tr in traces])
    return 0


def _cmd_recsys(args) -> int:
    ratings = load_movielens(args.data, args.format)
    rows, summary, traces = run_recsys(ratings, args.splits, args.split, args.seed,
                                       args.rank, args.inner_iters, args.clip,
                                       args.solver)
    _write_csv(args.csv, list(rows[0]), [row.values() for row in rows])
    _write_json(args.json, summary)
    if args.trace is not None:
        _write_csv(args.trace, ["split"] + TRACE_HEADER,
                   [(s, *astuple(tr)) for s, tr in traces])
    return 0


def _cmd_equivalence(args) -> int:
    report = run_equivalence(args.n, args.sparsity, args.steps, args.beta,
                             args.seed, args.mode)
    out = asdict(report)
    del out["details"]
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrank",
        description="Rank-constrained convex optimization experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("synth-complete",
                        help="synthetic matrix completion NMSE sweep")
    sc.add_argument("--m", type=int, default=100)
    sc.add_argument("--n", type=int, default=100)
    sc.add_argument("--true-rank", type=int, default=5)
    sc.add_argument("--p", type=float, default=0.2)
    sc.add_argument("--snr", type=float, default=10.0)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--solver", choices=COMPLETION_SOLVERS, default="fast-greedy")
    sc.add_argument("--rank", type=int, default=30)
    sc.add_argument("--inner-iters", type=int, default=3)
    sc.add_argument("--trials", type=int, default=5)
    sc.add_argument("--csv", default="synth_complete.csv")
    sc.add_argument("--json", default="synth_complete.json")
    sc.add_argument("--trace", default=None)
    sc.set_defaults(func=_cmd_synth_complete)

    rp = sub.add_parser("rpca-synth",
                        help="robust PCA recovery on a corrupted low-rank matrix")
    rp.add_argument("--m", type=int, default=100)
    rp.add_argument("--n", type=int, default=100)
    rp.add_argument("--true-rank", type=int, default=3)
    rp.add_argument("--sparse-frac", type=float, default=0.05)
    rp.add_argument("--sparse-mag", type=float, default=10.0,
                    help="corruption magnitude in units of sd of the clean entries")
    rp.add_argument("--delta", type=float, default=1.0,
                    help="Huber delta in units of sd of the clean entries")
    rp.add_argument("--rank", type=int, default=3)
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--csv", default="rpca_synth.csv")
    rp.add_argument("--json", default="rpca_synth.json")
    rp.add_argument("--trace", default=None)
    rp.set_defaults(func=_cmd_rpca_synth)

    rs = sub.add_parser("recsys", help="MovieLens train/test RMSE")
    rs.add_argument("--data", required=True)
    rs.add_argument("--format", choices=("ml100k", "ml1m"), default="ml100k")
    rs.add_argument("--split", type=float, default=0.8)
    rs.add_argument("--splits", type=int, default=5)
    rs.add_argument("--seed", type=int, default=0)
    rs.add_argument("--rank", type=int, default=100)
    rs.add_argument("--inner-iters", type=int, default=2)
    rs.add_argument("--clip", type=_parse_clip, default="1:5")
    rs.add_argument("--solver", choices=("fast-greedy", "fast-local", "greedy", "local"),
                    default="fast-greedy")
    rs.add_argument("--csv", default="recsys.csv")
    rs.add_argument("--json", default="recsys.json")
    rs.add_argument("--trace", default=None)
    rs.set_defaults(func=_cmd_recsys)

    eq = sub.add_parser("equivalence",
                        help="pursuit equivalence check on a lifted instance")
    eq.add_argument("--n", type=int, default=10)
    eq.add_argument("--sparsity", type=int, default=2)
    eq.add_argument("--steps", type=int, default=5)
    eq.add_argument("--beta", type=float, default=None)
    eq.add_argument("--seed", type=int, default=0)
    eq.add_argument("--mode", choices=("greedy", "local"), default="greedy")
    eq.set_defaults(func=_cmd_equivalence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
