import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from linetrack.cli import main
from linetrack.fileio import (
    list_frame_paths,
    read_frame_csv,
    read_results_csv,
    read_truth_csv,
    write_frame_csv,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_no_command_is_usage_error():
    rc, _, _ = run_cli([])
    assert rc == 1


def test_unknown_flag_exits_one():
    rc, _, _ = run_cli(["simulate", "--nonsense"])
    assert rc == 1


def test_simulate_writes_run_directory(tmp_path):
    out = tmp_path / "run"
    rc, stdout, _ = run_cli(["simulate", "--out", str(out), "--frames", "3",
                             "--outliers", "5", "--seed", "4"])
    assert rc == 0
    assert "3 frames" in stdout
    assert len(list_frame_paths(out)) == 3
    assert (out / "truth.csv").exists()
    truth = read_truth_csv(out / "truth.csv")
    assert truth.deltas.size == 2


def test_estimate_needs_a_prior(tmp_path):
    out = tmp_path / "run"
    run_cli(["simulate", "--out", str(out), "--frames", "2", "--outliers", "0"])
    rc, _, stderr = run_cli(["estimate", "--data", str(out)])
    assert rc == 1
    assert "prior" in stderr


def test_estimate_writes_scored_results(tmp_path):
    out = tmp_path / "run"
    run_cli(["simulate", "--out", str(out), "--frames", "4", "--outliers", "5",
             "--seed", "1"])
    rc, stdout, _ = run_cli(["estimate", "--data", str(out), "--prior-from-truth",
                             "--seed", "1"])
    assert rc == 0
    rows = read_results_csv(out / "results.csv")
    assert len(rows) == 4
    # the summary prints plain floats that parse back to the last fit exactly
    line = next(ln for ln in stdout.splitlines() if ln.startswith("final parameters: "))
    final = [float(v) for v in line.removeprefix("final parameters: ").split(",")]
    np.testing.assert_array_equal(final, rows[-1].params)
    assert rows[-1].acc is not None
    assert rows[-1].acc >= 95.0
    # reproducible by default: the timing column is zeroed
    assert all(r.dt_ms == 0.0 for r in rows)


def test_estimate_explicit_p0_size_checked(tmp_path):
    out = tmp_path / "run"
    run_cli(["simulate", "--out", str(out), "--frames", "2", "--outliers", "0"])
    rc, _, stderr = run_cli(["estimate", "--data", str(out), "--p0", "0,0,20,0,1000"])
    assert rc == 1  # config 222 needs 7 values
    assert "7" in stderr


def test_benchmark_sweeps_comma_list(tmp_path):
    out = tmp_path / "bench.csv"
    rc, stdout, _ = run_cli(["benchmark", "--out", str(out), "--outliers", "5,10",
                             "--repeats", "2", "--frames", "6", "--window", "3",
                             "--seed", "2"])
    assert rc == 0
    assert "n_o=5" in stdout and "n_o=10" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "5"
    assert lines[2].split(",")[0] == "10"


def test_filter_subcommand(tmp_path):
    rng = np.random.default_rng(0)
    ground = np.column_stack([
        rng.uniform(-50.0, 50.0, size=200),
        rng.uniform(-20.0, 20.0, size=200),
        rng.normal(0.0, 0.05, size=200),
    ])
    line = np.column_stack([
        rng.uniform(-50.0, 50.0, size=50),
        np.zeros(50),
        np.full(50, 20.0),
    ])
    src = tmp_path / "scene.csv"
    write_frame_csv(src, np.vstack([ground, line]))
    dst = tmp_path / "filtered.csv"
    rc, stdout, _ = run_cli(["filter", "--input", str(src), "--out", str(dst),
                             "--method", "ground"])
    assert rc == 0
    assert "kept" in stdout
    kept = read_frame_csv(dst)
    assert kept.shape[0] <= 60
    assert np.all(kept[:, 2] > 5.0)


def test_filter_corridor_needs_anchors(tmp_path):
    src = tmp_path / "scene.csv"
    write_frame_csv(src, np.zeros((5, 3)))
    rc, _, stderr = run_cli(["filter", "--input", str(src),
                             "--out", str(tmp_path / "o.csv"), "--method", "corridor"])
    assert rc == 1
    assert "anchor" in stderr


def test_export_curves_from_params(tmp_path):
    out = tmp_path / "curves.csv"
    rc, _, _ = run_cli(["export-curves", "--out", str(out), "--config", "222",
                        "--params", "0,0,20,0,1000,4,5", "--samples", "10"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 6 * 10


def test_export_curves_requires_one_source(tmp_path):
    rc, _, stderr = run_cli(["export-curves", "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "params" in stderr or "results" in stderr


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps({"frames": 2, "outliers": 3}))
    out = tmp_path / "run"
    rc, _, _ = run_cli(["simulate", "--config-file", str(cfg), "--out", str(out)])
    assert rc == 0
    assert len(list_frame_paths(out)) == 2


def test_config_file_flag_wins(tmp_path):
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps({"frames": 2}))
    out = tmp_path / "run"
    rc, _, _ = run_cli(["simulate", "--config-file", str(cfg), "--out", str(out),
                        "--frames", "5"])
    assert rc == 0
    assert len(list_frame_paths(out)) == 5


# each value goes through its flag's own type and choices; a bad one is a
# usage error naming the key
@pytest.mark.parametrize(
    "command, values, expected_rc",
    [
        pytest.param("simulate", {"framez": 2}, 1, id="unknown-key"),
        pytest.param("estimate", {"n_search": 2.5}, 1, id="float-for-int"),
        pytest.param("estimate", {"prior_from_truth": "yes"}, 1, id="text-for-switch"),
        pytest.param("simulate", {"noise_sigma": None}, 1, id="null"),
        pytest.param("simulate", {"config": "999"}, 1, id="bad-choice"),
        pytest.param("simulate", {"frames": 1, "truth": [0, 0, 20, 0, 1000, 4, 5]}, 0,
                     id="list-for-floats"),
        pytest.param("benchmark", {"outliers": [10, 50], "frames": 3, "repeats": 1, "window": 2},
                     0, id="list-for-sweep"),
    ],
)
def test_config_file_unknown_key_rejected(tmp_path, command, values, expected_rc):
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps(values))
    target = "--data" if command == "estimate" else "--out"
    rc, _, stderr = run_cli([command, "--config-file", str(cfg), target, str(tmp_path / "out")])
    assert rc == expected_rc, stderr
    if expected_rc == 1:
        assert next(iter(values)) in stderr


def test_estimate_with_filter_flag(tmp_path):
    out = tmp_path / "run"
    run_cli(["simulate", "--out", str(out), "--frames", "2", "--outliers", "0",
             "--seed", "3"])
    rc, stdout, _ = run_cli(["estimate", "--data", str(out), "--prior-from-truth",
                             "--seed", "3", "--filter", "cluster", "--eps", "25"])
    assert rc == 0
    assert "filter cluster" in stdout
    rows = read_results_csv(out / "results.csv")
    assert len(rows) == 2
