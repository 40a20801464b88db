import csv
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import lowrank
from lowrank.cli import TRACE_HEADER, build_parser, main
from lowrank.experiments import COMPLETION_SOLVERS, run_completion, run_rpca


def run_cli(args):
    return main(list(args))


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def load_json(text):
    """json.loads that fails on NaN and Infinity, which json.dump writes but
    JSON does not allow."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture(autouse=True)
def written_json_is_valid(tmp_path):
    yield
    for path in tmp_path.rglob("*.json"):
        load_json(path.read_text())


def read_lines(path):
    return path.read_text().splitlines()


def strip_timing(csv_lines, columns=("seconds", "wall_nanos")):
    """Blank the timing columns so byte comparisons see only computed values."""
    header = csv_lines[0].split(",")
    drop = [i for i, name in enumerate(header) if name in columns]
    out = []
    for line in csv_lines:
        cells = line.split(",")
        for i in drop:
            cells[i] = ""
        out.append(",".join(cells))
    return out


def _kind(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return type(value).__name__


def _reads_back(field, value) -> bool:
    """Whether the CSV field parses back to `value` bit for bit; "" is None."""
    if value is None:
        return field == ""
    if isinstance(value, float):
        return struct.pack("<d", float(field)) == struct.pack("<d", value)
    return type(value)(field) == value


def reads_back(path, header, rows, timing=("seconds", "wall_nanos")) -> set[str]:
    """Assert that the CSV at `path` holds `header` and `rows` outside the
    timing columns; returns the kinds of value compared."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == list(header)
    assert len(lines) == 1 + len(rows)
    kinds = set()
    for line, row in zip(lines[1:], rows):
        assert len(line) == len(row)
        for name, field, value in zip(header, line, row):
            if name not in timing:
                assert _reads_back(field, value), (path.name, name, field, value)
                kinds.add(_kind(value))
    return kinds


# -------------------------------------------------------------- equivalence

def test_equivalence_exit_zero(capsys):
    code = run_cli(["equivalence", "--n", "10", "--sparsity", "2", "--steps", "5",
                    "--seed", "1", "--mode", "greedy"])
    out = load_json(capsys.readouterr().out)
    assert code == 0
    assert out["passed"] is True


def test_equivalence_local_mode(capsys):
    code = run_cli(["equivalence", "--n", "10", "--sparsity", "3", "--steps", "3",
                    "--seed", "0", "--mode", "local"])
    assert code == 0


def test_equivalence_above_64_dimensions_passes(capsys):
    code = run_cli(["equivalence", "--n", "80", "--sparsity", "3", "--steps", "3",
                    "--seed", "1"])
    out = load_json(capsys.readouterr().out)
    assert code == 0
    assert out["passed"] is True


def test_equivalence_without_steps_is_an_error(capsys):
    for steps in ("0", "-3"):
        code = run_cli(["equivalence", "--n", "10", "--sparsity", "2", "--steps", steps])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "steps must be an integer >= 1" in captured.err


def test_equivalence_bad_inputs_name_the_field(capsys):
    for flags, field in ((["--beta", "nan"], "beta"), (["--beta", "inf"], "beta"),
                         (["--sparsity", "12"], "sparsity"), (["--n", "0"], "n")):
        code = run_cli(["equivalence", "--steps", "2"] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {field} must be" in captured.err, flags


# ------------------------------------------------------------ synth-complete

def test_synth_complete_shapes(tmp_path):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    trace_path = tmp_path / "trace.csv"
    code = run_cli(["synth-complete", "--m", "30", "--n", "30", "--true-rank", "2",
                    "--p", "0.4", "--snr", "10", "--seed", "3",
                    "--solver", "fast-greedy", "--rank", "5", "--inner-iters", "3",
                    "--trials", "2", "--csv", str(csv_path), "--json", str(json_path),
                    "--trace", str(trace_path)])
    assert code == 0
    lines = read_lines(csv_path)
    assert lines[0] == "trial,rank,train_nmse,test_nmse,seconds"
    assert len(lines) == 1 + 2 * 5  # trials x ranks
    summary = load_json(json_path.read_text())
    assert "best_test_nmse" in summary and "mean" in summary["best_test_nmse"]
    assert len(summary["trials"]) == 2
    tlines = read_lines(trace_path)
    assert tlines[0] == "trial,iter,rank,objective,top_sigma,truncated_column,wall_nanos,flags"
    assert len(tlines) == 1 + 2 * 5


def test_synth_complete_without_heldout_entries_is_an_error(tmp_path, capsys):
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = run_cli(["synth-complete", "--m", "30", "--n", "30", "--p", "1.0",
                    "--rank", "3", "--trials", "2",
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 1
    assert "held-out" in capsys.readouterr().err
    assert not csv_path.exists() and not json_path.exists()


@pytest.mark.parametrize("solver", COMPLETION_SOLVERS)
def test_synth_complete_without_observed_entries_is_an_error(tmp_path, capsys, solver):
    # floor(0.005 * 10 * 10) = 0 cells are observed
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = run_cli(["synth-complete", "--m", "10", "--n", "10", "--p", "0.005",
                    "--solver", solver, "--rank", "3", "--trials", "1",
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 1
    assert "error: no observed entries to fit: p leaves none observed" in (
        capsys.readouterr().err)
    assert not csv_path.exists() and not json_path.exists()


@pytest.mark.parametrize("flag,value,name", [
    ("--snr", "nan", "snr"), ("--true-rank", "-1", "true_rank"),
    ("--m", "0", "m must"), ("--n", "0", "n must")])
def test_synth_complete_rejects_bad_config(tmp_path, capsys, flag, value, name):
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = run_cli(["synth-complete", "--m", "20", "--n", "20", "--rank", "3",
                    "--trials", "1", flag, value,
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 1
    assert name in capsys.readouterr().err
    assert not csv_path.exists() and not json_path.exists()


@pytest.mark.parametrize("solver", COMPLETION_SOLVERS)
def test_synth_complete_rejects_a_rank_0_truth(tmp_path, capsys, solver):
    # a rank-0 truth leaves a zero held-out signal, so test NMSE is undefined
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = run_cli(["synth-complete", "--m", "20", "--n", "20", "--true-rank", "0",
                    "--rank", "3", "--trials", "1", "--solver", solver,
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 1
    assert "true_rank" in capsys.readouterr().err
    assert not csv_path.exists() and not json_path.exists()


@pytest.mark.parametrize("solver", COMPLETION_SOLVERS)
def test_synth_complete_rejects_rank_0(tmp_path, capsys, solver):
    # local and fast-local used to fail inside the sweep on an empty min()
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = run_cli(["synth-complete", "--m", "20", "--n", "20", "--rank", "0",
                    "--trials", "1", "--solver", solver,
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: rank must be an integer >= 1")
    assert not csv_path.exists() and not json_path.exists()


def test_synth_complete_softimpute_rows(tmp_path):
    csv_path = tmp_path / "o.csv"
    code = run_cli(["synth-complete", "--m", "25", "--n", "25", "--true-rank", "2",
                    "--p", "0.5", "--snr", "5", "--seed", "0",
                    "--solver", "softimpute", "--rank", "6", "--trials", "1",
                    "--csv", str(csv_path), "--json", str(tmp_path / "o.json")])
    assert code == 0
    lines = read_lines(csv_path)
    assert len(lines) == 1 + 10  # one row per lambda on the grid


def test_synth_complete_deterministic_modulo_timing(tmp_path):
    argv = ["synth-complete", "--m", "25", "--n", "25", "--true-rank", "2",
            "--p", "0.4", "--snr", "10", "--seed", "5", "--solver", "fast-local",
            "--rank", "4", "--trials", "2"]
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(argv + ["--csv", str(a_csv), "--json", str(tmp_path / "a.json")])
    run_cli(argv + ["--csv", str(b_csv), "--json", str(tmp_path / "b.json")])
    assert strip_timing(read_lines(a_csv)) == strip_timing(read_lines(b_csv))


@pytest.mark.parametrize("solver", ["fast-local", "softimpute"])
def test_synth_complete_csvs_read_back_the_library_values(tmp_path, solver):
    csv_path, json_path, trace_path = (tmp_path / name
                                       for name in ("o.csv", "o.json", "t.csv"))
    code = run_cli(["synth-complete", "--m", "25", "--n", "20", "--true-rank", "2",
                    "--p", "0.5", "--snr", "10", "--seed", "4", "--solver", solver,
                    "--rank", "3", "--inner-iters", "3", "--trials", "2",
                    "--csv", str(csv_path), "--json", str(json_path),
                    "--trace", str(trace_path)])
    assert code == 0
    rows, _, traces = run_completion(25, 20, 2, 0.5, 10.0, 4, solver, 3, 3, 2)
    kinds = reads_back(csv_path, rows[0], [list(row.values()) for row in rows])
    kinds |= reads_back(trace_path, ["trial"] + TRACE_HEADER,
                        [(k, *astuple(tr)) for k, tr in traces])
    # SoftImpute's traces have no insertion sigma and no truncated column
    assert kinds == {"int", "float", "str"} | (
        {"nan", "NoneType"} if solver == "softimpute" else set())


def test_rpca_synth_csvs_read_back_the_library_values(tmp_path):
    csv_path, json_path, trace_path = (tmp_path / name
                                       for name in ("r.csv", "r.json", "t.csv"))
    code = run_cli(["rpca-synth", "--m", "30", "--n", "25", "--true-rank", "2",
                    "--rank", "3", "--seed", "2", "--csv", str(csv_path),
                    "--json", str(json_path), "--trace", str(trace_path)])
    assert code == 0
    traces, _ = run_rpca(30, 25, 2, 0.05, 10.0, 1.0, 3, 2)
    rows = [astuple(tr) for tr in traces]
    for path in (csv_path, trace_path):
        assert reads_back(path, TRACE_HEADER, rows) >= {"int", "float", "str"}


# ----------------------------------------------------------------- rpca-synth

def test_rpca_synth_outputs(tmp_path):
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    code = run_cli(["rpca-synth", "--m", "30", "--n", "30", "--true-rank", "2",
                    "--sparse-frac", "0.05", "--sparse-mag", "8", "--delta", "1",
                    "--rank", "2", "--seed", "1",
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 0
    lines = read_lines(csv_path)
    assert lines[0] == "iter,rank,objective,top_sigma,truncated_column,wall_nanos,flags"
    report = load_json(json_path.read_text())
    assert "rel_frobenius_error" in report
    assert np.isfinite(report["rel_frobenius_error"])


@pytest.mark.parametrize("flag,value,name", [
    ("--delta", "nan", "delta"), ("--delta", "inf", "delta"),
    ("--sparse-mag", "nan", "sparse_magnitude"), ("--sparse-mag", "inf", "sparse_magnitude")])
def test_rpca_synth_rejects_non_finite_parameters(tmp_path, capsys, flag, value, name):
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    code = run_cli(["rpca-synth", "--m", "20", "--n", "20", "--true-rank", "2",
                    "--rank", "2", flag, value,
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 1
    assert name in capsys.readouterr().err
    assert not csv_path.exists() and not json_path.exists()


@pytest.mark.filterwarnings("error")  # m = 0 used to warn on an empty std first
@pytest.mark.parametrize("flag,value,name", [
    ("--m", "0", "m must"), ("--n", "0", "n must"), ("--true-rank", "-1", "true_rank")])
def test_rpca_synth_rejects_bad_shape(tmp_path, capsys, flag, value, name):
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    code = run_cli(["rpca-synth", "--m", "20", "--n", "20", "--rank", "2", flag, value,
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 1
    assert name in capsys.readouterr().err
    assert not csv_path.exists() and not json_path.exists()


def test_rpca_synth_rejects_a_rank_0_truth(tmp_path, capsys):
    # its relative error was 0 / 0, written to the JSON as NaN
    paths = [tmp_path / name for name in ("r.csv", "r.json", "t.csv")]
    code = run_cli(["rpca-synth", "--m", "20", "--n", "20", "--true-rank", "0",
                    "--rank", "2", "--csv", str(paths[0]), "--json", str(paths[1]),
                    "--trace", str(paths[2])])
    assert code == 1
    assert "error: true_rank must be >= 1" in capsys.readouterr().err
    assert not any(p.exists() for p in paths)


# --------------------------------------------------------------------- recsys

@pytest.fixture
def mini_ratings(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "u.data"
    lines = []
    seen = set()
    while len(lines) < 300:
        u, i = int(rng.integers(1, 31)), int(rng.integers(1, 41))
        if (u, i) in seen:
            continue
        seen.add((u, i))
        lines.append(f"{u}\t{i}\t{int(rng.integers(1, 6))}\t0")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_recsys_outputs(tmp_path, mini_ratings):
    csv_path = tmp_path / "rs.csv"
    json_path = tmp_path / "rs.json"
    code = run_cli(["recsys", "--data", str(mini_ratings), "--format", "ml100k",
                    "--split", "0.8", "--splits", "2", "--seed", "0",
                    "--rank", "3", "--inner-iters", "2", "--clip", "1:5",
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 0
    lines = read_lines(csv_path)
    assert lines[0] == "split,rmse,train_rmse,seconds"
    assert len(lines) == 3
    summary = load_json(json_path.read_text())
    assert summary["rmse"]["mean"] > 0
    assert summary["params"]["clip"] == [1.0, 5.0]


def test_recsys_outputs_do_not_depend_on_the_files_line_order(tmp_path, mini_ratings):
    # the splits are drawn over the ratings' row-major positions
    lines = read_lines(mini_ratings)
    shuffled = tmp_path / "shuffled.data"
    order = np.random.default_rng(1).permutation(len(lines))
    shuffled.write_text("\n".join(lines[k] for k in order) + "\n")
    outputs = []
    for name, data in (("given", mini_ratings), ("shuffled", shuffled)):
        csv_path, json_path, trace_path = (tmp_path / f"{name}.{ext}"
                                           for ext in ("csv", "json", "trace.csv"))
        code = run_cli(["recsys", "--data", str(data), "--format", "ml100k",
                        "--split", "0.8", "--splits", "2", "--seed", "0",
                        "--rank", "3", "--inner-iters", "2",
                        "--csv", str(csv_path), "--json", str(json_path),
                        "--trace", str(trace_path)])
        assert code == 0
        outputs.append((strip_timing(read_lines(csv_path)), json_path.read_bytes(),
                        strip_timing(read_lines(trace_path))))
    assert outputs[0] == outputs[1]


def test_zero_trials_or_splits_exit_one(tmp_path, mini_ratings, capsys):
    for args in (["synth-complete", "--m", "20", "--n", "20", "--trials", "0"],
                 ["recsys", "--data", str(mini_ratings), "--splits", "0"]):
        csv_path = tmp_path / "out.csv"
        code = run_cli(args + ["--csv", str(csv_path),
                               "--json", str(tmp_path / "out.json")])
        assert code == 1
        assert "must be an integer >= 1" in capsys.readouterr().err
        assert not csv_path.exists()


@pytest.mark.parametrize("command, flag, field", [
    ("synth-complete", "--inner-iters", "inner_iters"), ("rpca-synth", "--rank", "rank"),
    ("recsys", "--rank", "rank"), ("recsys", "--inner-iters", "inner_iters")])
def test_zero_rank_or_inner_iters_names_the_flags_field(tmp_path, mini_ratings, capsys,
                                                        command, flag, field):
    # the solver config named them target_rank and ls_iters
    size = {"synth-complete": ["--m", "20", "--n", "20", "--trials", "1"],
            "rpca-synth": ["--m", "20", "--n", "20"],
            "recsys": ["--data", str(mini_ratings), "--splits", "1"]}[command]
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = run_cli([command, *size, "--rank", "2", flag, "0",
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be an integer >= 1")
    assert not csv_path.exists() and not json_path.exists()


def test_recsys_split_leaving_no_training_rating_exits_one(tmp_path, capsys):
    # floor(0.3 * 3) = 0: the empty training half used to be fitted, and
    # only the scoring then failed, on "reference set is empty"
    data = tmp_path / "u.data"
    data.write_text("1\t1\t3\t0\n1\t2\t4\t0\n2\t1\t5\t0\n")
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = run_cli(["recsys", "--data", str(data), "--split", "0.3", "--rank", "1",
                    "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 1
    assert capsys.readouterr().err == ("error: train_fraction 0.3 of 3 ratings leaves "
                                       "the training half empty\n")
    assert not csv_path.exists() and not json_path.exists()


def test_recsys_full_refit_rank_above_its_cap_exits_one(tmp_path, mini_ratings, capsys):
    # greedy's full refit at recsys's default rank of 100 would build a
    # 10^4 x 10^4 normal matrix; it is refused before the first step
    csv_path = tmp_path / "g.csv"
    code = run_cli(["recsys", "--data", str(mini_ratings), "--solver", "greedy",
                    "--csv", str(csv_path), "--json", str(tmp_path / "g.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rank 100" in err and "cap of 4194304" in err
    assert not csv_path.exists()


def test_recsys_missing_data_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli(["recsys", "--rank", "3"])
    assert exc.value.code == 2


def test_recsys_missing_file_returns_error(tmp_path, capsys):
    code = run_cli(["recsys", "--data", str(tmp_path / "absent.data"),
                    "--csv", str(tmp_path / "x.csv"), "--json", str(tmp_path / "x.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    # the subprocess imports the same lowrank package as this interpreter
    src = str(Path(lowrank.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "lowrank", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "synth-complete" in proc.stdout


def test_clip_default_is_parsed():
    assert build_parser().parse_args(["recsys", "--data", "x"]).clip == (1.0, 5.0)


def test_clip_parser_rejects_a_malformed_range(capsys):
    for text in ("1-5", "1:2:3", "a:5"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["recsys", "--data", "x", "--clip", text])
        assert exc.value.code == 2
        assert f"expected LO:HI or 'none', got {text!r}" in capsys.readouterr().err


def test_clip_parser_accepts_none(tmp_path, mini_ratings):
    code = run_cli(["recsys", "--data", str(mini_ratings), "--splits", "1",
                    "--rank", "2", "--clip", "none",
                    "--csv", str(tmp_path / "c.csv"), "--json", str(tmp_path / "c.json")])
    assert code == 0
    summary = load_json((tmp_path / "c.json").read_text())
    assert summary["params"]["clip"] is None
