import numpy as np
import pytest

from linetrack.fileio import (
    RESULTS_FILENAME,
    TRUTH_FILENAME,
    ResultRow,
    frame_path,
    labels_path,
    list_frame_paths,
    read_frame_csv,
    read_labels_csv,
    read_results_csv,
    read_truth_csv,
    write_benchmark_csv,
    write_curves_csv,
    write_frame_csv,
    write_labels_csv,
    write_results_csv,
    write_truth_csv,
)
from linetrack.geometry import ParamVector


def test_frame_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(0.0, 100.0, size=(37, 3))
    path = tmp_path / "frame.csv"
    write_frame_csv(path, pts)
    back = read_frame_csv(path)
    # repr round-trip keeps float64 values bit-exact
    np.testing.assert_array_equal(back, pts)


def test_frame_empty_round_trip(tmp_path):
    path = tmp_path / "frame.csv"
    write_frame_csv(path, np.zeros((0, 3)))
    back = read_frame_csv(path)
    assert back.shape == (0, 3)


def test_frame_bad_shape_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_frame_csv(tmp_path / "bad.csv", np.zeros((3, 2)))


def test_frame_bad_header_rejected(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_frame_csv(path)


@pytest.mark.parametrize(
    "body, line, n_fields",
    [
        pytest.param("1,2,3\n4,5\n6,7,8\n", 3, 2, id="short-row"),
        pytest.param("1,2,3\n\n4,5,6,7\n", 4, 4, id="long-row"),
        pytest.param("1,2\n4,5\n", 2, 2, id="all-short"),
    ],
)
def test_frame_row_without_three_fields_named(tmp_path, body, line, n_fields):
    path = tmp_path / "frame.csv"
    path.write_text("x,y,z\n" + body)
    with pytest.raises(ValueError, match=rf"frame\.csv: line {line} has {n_fields} fields"):
        read_frame_csv(path)


def test_labels_round_trip(tmp_path):
    labels = np.array([0, 0, 1, 5, -1, -1])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    np.testing.assert_array_equal(read_labels_csv(path), labels)


def test_truth_round_trip(tmp_path):
    truth = ParamVector(1.25, -3.5, 20.125, 0.0625, 1000.5, np.array([4.0, 5.0]))
    path = tmp_path / TRUTH_FILENAME
    write_truth_csv(path, truth)
    back = read_truth_csv(path)
    np.testing.assert_array_equal(back.to_array(), truth.to_array())


def test_truth_no_deltas_round_trip(tmp_path):
    truth = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    path = tmp_path / TRUTH_FILENAME
    write_truth_csv(path, truth)
    assert read_truth_csv(path).deltas.size == 0


def test_results_round_trip_scored(tmp_path):
    rows = [
        ResultRow(frame=0, params=np.array([0.1, 0.2, 20.0, 0.0, 1000.0, 4.0, 5.0]),
                  cost=1.5, n_pts=40, dt_ms=0.0, acc=100.0, psi_e=0.001, a_e=-12.5),
        ResultRow(frame=1, params=np.array([0.2, 0.1, 20.1, 0.0, 990.0, 4.0, 5.0]),
                  cost=1.25, n_pts=42, dt_ms=0.0, acc=97.5, psi_e=-0.002, a_e=-10.0),
    ]
    path = tmp_path / RESULTS_FILENAME
    write_results_csv(path, rows)
    back = read_results_csv(path)
    assert len(back) == 2
    for a, b in zip(rows, back):
        assert (a.frame, a.cost, a.n_pts, a.dt_ms) == (b.frame, b.cost, b.n_pts, b.dt_ms)
        np.testing.assert_array_equal(a.params, b.params)
        assert (a.acc, a.psi_e, a.a_e) == (b.acc, b.psi_e, b.a_e)


def test_results_round_trip_unscored(tmp_path):
    rows = [ResultRow(frame=0, params=np.array([0.0, 0.0, 20.0, 0.0, 1000.0]),
                      cost=0.5, n_pts=10, dt_ms=2.5)]
    path = tmp_path / RESULTS_FILENAME
    write_results_csv(path, rows)
    back = read_results_csv(path)
    assert back[0].acc is None and back[0].psi_e is None and back[0].a_e is None
    header = path.read_text().splitlines()[0]
    assert "acc" not in header


def test_results_reject_mixed_scoring(tmp_path):
    rows = [
        ResultRow(frame=0, params=np.zeros(5) + [0, 0, 0, 0, 1000.0],
                  cost=0.0, n_pts=1, dt_ms=0.0, acc=100.0, psi_e=0.0, a_e=0.0),
        ResultRow(frame=1, params=np.zeros(5) + [0, 0, 0, 0, 1000.0],
                  cost=0.0, n_pts=1, dt_ms=0.0),
    ]
    with pytest.raises(ValueError):
        write_results_csv(tmp_path / RESULTS_FILENAME, rows)


def test_results_reject_empty(tmp_path):
    with pytest.raises(ValueError):
        write_results_csv(tmp_path / RESULTS_FILENAME, [])


def test_benchmark_csv_columns(tmp_path):
    row = {
        "n_o": 10, "n_pts_mean": 39.5, "n_pts_std": 4.0,
        "dt_ms_mean": 0.0, "dt_ms_std": 0.0,
        "acc_mean": 100.0, "acc_std": 0.0,
        "psi_e_mean": 0.0, "psi_e_std": 0.001,
        "a_e_mean": -5.0, "a_e_std": 10.0,
    }
    path = tmp_path / "bench.csv"
    write_benchmark_csv(path, [row])
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[0] == "n_o"
    assert len(lines) == 2
    with pytest.raises(ValueError):
        write_benchmark_csv(path, [{"n_o": 10}])


def test_curves_csv_shape(tmp_path):
    curves = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
    path = tmp_path / "curves.csv"
    write_curves_csv(path, curves)
    lines = path.read_text().splitlines()
    assert lines[0] == "conductor_k,x,y,z"
    assert len(lines) == 1 + 8
    with pytest.raises(ValueError):
        write_curves_csv(path, np.zeros((2, 4)))


def test_frame_paths_sorted(tmp_path):
    for i in (3, 0, 11):
        write_frame_csv(frame_path(tmp_path, i), np.zeros((1, 3)))
        write_labels_csv(labels_path(tmp_path, i), np.array([0]))
    paths = list_frame_paths(tmp_path)
    assert [p.name for p in paths] == ["frame_00000.csv", "frame_00003.csv", "frame_00011.csv"]
