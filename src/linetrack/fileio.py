"""CSV formats for frames, labels, ground truth, estimates, and summaries.

All floats are written with repr(), the shortest digit string that
round-trips to the same float64, so rewriting identical data yields
byte-identical files. Files use UTF-8, decimal points, and LF newlines
regardless of locale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import ParamVector

FRAME_PATTERN = "frame_%05d.csv"
LABELS_PATTERN = "labels_%05d.csv"
TRUTH_FILENAME = "truth.csv"
RESULTS_FILENAME = "results.csv"

BENCHMARK_HEADER = [
    "n_o",
    "n_pts_mean",
    "n_pts_std",
    "dt_ms_mean",
    "dt_ms_std",
    "acc_mean",
    "acc_std",
    "psi_e_mean",
    "psi_e_std",
    "a_e_mean",
    "a_e_std",
]


def frame_path(directory: str | Path, index: int) -> Path:
    return Path(directory) / (FRAME_PATTERN % index)


def labels_path(directory: str | Path, index: int) -> Path:
    return Path(directory) / (LABELS_PATTERN % index)


def list_frame_paths(directory: str | Path) -> list[Path]:
    """All frame files of a run directory, in frame order."""
    return sorted(Path(directory).glob("frame_*.csv"))


def _fmt(value: float | int) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_rows(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_frame_csv(path: str | Path, points: np.ndarray) -> None:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (m, 3), got shape {pts.shape}")
    _write_rows(path, ["x", "y", "z"], [list(row) for row in pts])


def read_frame_csv(path: str | Path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["x", "y", "z"]:
            raise ValueError(f"{path}: expected header x,y,z, got {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        return np.zeros((0, 3))
    try:
        pts = np.asarray(rows, dtype=float)
        if pts.shape[1] == 3:
            return pts
    except ValueError:  # rows of unequal length
        pass
    # only a malformed file gets here: name its first row without 3 fields
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        n_fields = next(len(row) for row in reader if row and len(row) != 3)
    raise ValueError(f"{path}: line {reader.line_num} has {n_fields} fields, expected 3")


def write_labels_csv(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=int).ravel()
    _write_rows(path, ["label"], [[int(v)] for v in labels])


def read_labels_csv(path: str | Path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["label"]:
            raise ValueError(f"{path}: expected header label, got {header}")
        vals = [int(row[0]) for row in reader if row]
    return np.asarray(vals, dtype=int)


def _param_header(n_deltas: int) -> list[str]:
    return ["x_o", "y_o", "z_o", "psi", "a"] + [f"delta_{i + 1}" for i in range(n_deltas)]


def write_truth_csv(path: str | Path, truth: ParamVector) -> None:
    _write_rows(path, _param_header(truth.deltas.size), [list(truth.to_array())])


def read_truth_csv(path: str | Path) -> ParamVector:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        row = next(reader)
    if header[:5] != ["x_o", "y_o", "z_o", "psi", "a"]:
        raise ValueError(f"{path}: unexpected truth header {header}")
    if len(row) != len(header):
        raise ValueError(f"{path}: truth row has {len(row)} fields, header {len(header)}")
    return ParamVector.from_array(np.array([float(v) for v in row]))


@dataclass(frozen=True)
class ResultRow:
    """One fitted frame as written to results.csv.

    The three scoring fields are None when no ground truth is available:
    the file then simply omits those columns.
    """

    frame: int
    params: np.ndarray
    cost: float
    n_pts: int
    dt_ms: float
    acc: float | None = None
    psi_e: float | None = None
    a_e: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "params", np.asarray(self.params, dtype=float).ravel())


def write_results_csv(path: str | Path, rows: list[ResultRow]) -> None:
    if not rows:
        raise ValueError("no result rows to write")
    n_deltas = rows[0].params.size - 5
    scored = rows[0].acc is not None
    header = ["frame"] + _param_header(n_deltas) + ["cost", "n_pts", "dt_ms"]
    if scored:
        header += ["acc", "psi_e", "a_e"]
    out = []
    for r in rows:
        if r.params.size - 5 != n_deltas:
            raise ValueError("result rows disagree on parameter count")
        if (r.acc is not None) != scored:
            raise ValueError("result rows disagree on truth availability")
        row = [r.frame, *r.params, r.cost, r.n_pts, r.dt_ms]
        if scored:
            row += [r.acc, r.psi_e, r.a_e]
        out.append(row)
    _write_rows(path, header, out)


def read_results_csv(path: str | Path) -> list[ResultRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        scored = header[-3:] == ["acc", "psi_e", "a_e"]
        n_cols = len(header)
        n_deltas = n_cols - (12 if scored else 9)
        expected = ["frame"] + _param_header(n_deltas) + ["cost", "n_pts", "dt_ms"]
        if scored:
            expected += ["acc", "psi_e", "a_e"]
        if header != expected:
            raise ValueError(f"{path}: unexpected results header {header}")
        rows = []
        for row in reader:
            if not row:
                continue
            vals = [float(v) for v in row]
            rows.append(
                ResultRow(
                    frame=int(row[0]),
                    params=np.array(vals[1 : 6 + n_deltas]),
                    cost=vals[6 + n_deltas],
                    n_pts=int(row[7 + n_deltas]),
                    dt_ms=vals[8 + n_deltas],
                    acc=vals[9 + n_deltas] if scored else None,
                    psi_e=vals[10 + n_deltas] if scored else None,
                    a_e=vals[11 + n_deltas] if scored else None,
                )
            )
    return rows


def write_benchmark_csv(path: str | Path, rows: list[dict]) -> None:
    out = []
    for r in rows:
        missing = [k for k in BENCHMARK_HEADER if k not in r]
        if missing:
            raise ValueError(f"benchmark row missing columns {missing}")
        out.append([r[k] for k in BENCHMARK_HEADER])
    _write_rows(path, list(BENCHMARK_HEADER), out)


def write_curves_csv(path: str | Path, curves: np.ndarray) -> None:
    """Write sampled conductor polylines, shape (q, n, 3)."""
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 3 or curves.shape[2] != 3:
        raise ValueError(f"curves must be (q, n, 3), got shape {curves.shape}")
    rows = []
    for k in range(curves.shape[0]):
        for pt in curves[k]:
            rows.append([k, pt[0], pt[1], pt[2]])
    _write_rows(path, ["conductor_k", "x", "y", "z"], rows)
