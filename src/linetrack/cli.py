"""Command-line surface: simulate, estimate, benchmark, filter, export-curves.

Every flag has a config-file equivalent: pass --config-file with a JSON
object whose keys are the flag names with dashes as underscores; values
act as defaults, so explicit flags always win.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime errors.

Output files carry zeroed timing columns by default so that reruns with
the same seed are byte-identical; pass --timing wall to record real
wall-clock milliseconds instead (measured timings are always printed to
stdout either way).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .fileio import (
    RESULTS_FILENAME,
    TRUTH_FILENAME,
    frame_path,
    labels_path,
    list_frame_paths,
    read_frame_csv,
    read_results_csv,
    read_truth_csv,
    write_benchmark_csv,
    write_curves_csv,
    write_frame_csv,
    write_labels_csv,
    write_results_csv,
    write_truth_csv,
    ResultRow,
)
from .filters import (
    ClusterSpec,
    CorridorSpec,
    RansacSpec,
    apply_mask,
    clustering_filter,
    corridor_filter,
    ground_filter_ransac,
)
from .geometry import (
    CatenaryRangeError,
    ParamVector,
    available_configs,
    conductor_config,
    sample_curves,
)
from .loss import LossWeights
from .metrics import frame_metrics, sensitivity_study
from .simulator import (
    OutlierBox,
    Scenario,
    default_prior_sigma,
    default_truth,
    generate_sequence,
    random_prior,
)
from .solver import EstimatorSettings, SolverError, track_sequence


class UsageError(Exception):
    """A bad flag combination detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; runtime problems exit 2 (see main)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _vec3(text: str) -> tuple[float, float, float]:
    vals = _floats(text)
    if vals.size != 3:
        raise argparse.ArgumentTypeError(f"expected three numbers, got {text!r}")
    return tuple(vals)


def _add_sim_flags(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    p.add_argument("--config", default="222", choices=available_configs(),
                   help="conductor array layout")
    p.add_argument("--mode", default="global", choices=["global", "partial"],
                   help="observation regime")
    p.add_argument("--frames", type=int, default=100, help="frames per sequence")
    if sweep:
        p.add_argument("--outliers", type=_ints, default=[10, 50, 150, 300],
                       help="clutter volumes to sweep (comma list)")
    else:
        p.add_argument("--outliers", type=int, default=10, help="clutter points per frame")
    p.add_argument("--pts-per-line-max", type=int, default=10,
                   help="per-conductor return count is uniform in 0..this")
    p.add_argument("--noise-sigma", type=float, default=0.1,
                   help="per-axis sensor noise standard deviation, m")
    p.add_argument("--span", type=float, default=200.0, help="global-mode extent, m")
    p.add_argument("--slice-center", type=float, default=50.0,
                   help="partial-mode slice center, m")
    p.add_argument("--slice-width", type=float, default=5.0,
                   help="partial-mode slice width, m")
    p.add_argument("--truth", type=_floats, default=None,
                   help="override true parameters: x_o,y_o,z_o,psi,a,delta...")
    p.add_argument("--outlier-center", type=_vec3, default=None,
                   help="clutter box center x,y,z (default: around the line)")
    p.add_argument("--outlier-extent", type=_vec3, default=None,
                   help="clutter box extent x,y,z, default 10,10,10")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-search", type=int, default=2,
                   help="perturbed restarts besides the warm start")
    p.add_argument("--search-sigma", type=_floats, default=None,
                   help="restart spread per parameter (comma list)")
    p.add_argument("--reg-q", type=_floats, default=None,
                   help="diagonal prior-penalty weights (comma list; "
                        "default: built-in per-model penalty)")
    p.add_argument("--max-iterations", type=int, default=200,
                   help="iteration cap per descent")


def _add_filter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--anchor-a", type=_vec3, default=None,
                   help="corridor anchor A: x,y,z")
    p.add_argument("--anchor-b", type=_vec3, default=None,
                   help="corridor anchor B: x,y,z")
    p.add_argument("--half-width", type=float, default=20.0, help="corridor half-width, m")
    p.add_argument("--bin-height", type=float, default=1.0,
                   help="corridor elevation bin, m")
    p.add_argument("--ground-fraction", type=float, default=0.05,
                   help="corridor: occupancy fraction marking the ground bin")
    p.add_argument("--clearance-bins", type=int, default=2,
                   help="corridor: extra bins dropped above the ground bin")
    p.add_argument("--no-ground-cut", action="store_true",
                   help="corridor: skip the elevation histogram cut")
    p.add_argument("--ransac-iterations", type=int, default=200, help="plane samples")
    p.add_argument("--ransac-threshold", type=float, default=0.3,
                   help="plane inlier distance, m")
    p.add_argument("--min-inlier-fraction", type=float, default=0.2,
                   help="smallest plane worth removing, as a fraction")
    p.add_argument("--eps", type=float, default=1.5, help="clustering neighbor radius, m")
    p.add_argument("--min-points", type=int, default=4,
                   help="clustering core-point neighbor count (self included)")
    p.add_argument("--ratio", type=float, default=10.0,
                   help="eigenvalue elongation ratio a kept cluster needs")


def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="linetrack",
                     description="Conductor-array pose, spacing, and sag from LiDAR clouds")
    sub = parser.add_subparsers(dest="command", metavar="command")
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def new_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config-file", default=None,
                       help="JSON file of flag defaults (flags win)")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        subparsers[name] = p
        return p

    p = new_command("simulate", "write a synthetic frame sequence with labels and truth")
    _add_sim_flags(p)
    p.add_argument("--out", required=True, help="run directory to create")
    p.set_defaults(func=cmd_simulate)

    p = new_command("estimate", "fit every frame of a run directory, tracking forward")
    p.add_argument("--data", required=True, help="run directory holding frame_*.csv")
    p.add_argument("--out", default=None,
                   help=f"results file (default: <data>/{RESULTS_FILENAME})")
    p.add_argument("--config", default="222", choices=available_configs(),
                   help="conductor array layout")
    p.add_argument("--p0", type=_floats, default=None,
                   help="initial prior: x_o,y_o,z_o,psi,a,delta...")
    p.add_argument("--prior-from-truth", action="store_true",
                   help="draw the initial prior around truth.csv")
    p.add_argument("--prior-sigma", type=_floats, default=None,
                   help="spread for --prior-from-truth (comma list)")
    _add_solver_flags(p)
    p.add_argument("--filter", default=None, dest="filter_method",
                   choices=["corridor", "ground", "cluster"],
                   help="pre-filter applied to each frame before fitting")
    _add_filter_flags(p)
    p.add_argument("--timing", default="off", choices=["off", "wall"],
                   help="dt_ms column source: zeros (reproducible) or wall clock")
    p.set_defaults(func=cmd_estimate)

    p = new_command("benchmark", "sweep clutter volume and tabulate tracking quality")
    _add_sim_flags(p, sweep=True)
    p.add_argument("--out", required=True, help="study table CSV to write")
    p.add_argument("--repeats", type=int, default=20, help="independent runs per volume")
    p.add_argument("--window", type=int, default=10,
                   help="trailing frames per run that enter the statistics")
    p.add_argument("--prior-sigma", type=_floats, default=None,
                   help="spread of the random initial priors (comma list)")
    _add_solver_flags(p)
    p.add_argument("--timing", default="off", choices=["off", "wall"],
                   help="dt_ms column source: zeros (reproducible) or wall clock")
    p.set_defaults(func=cmd_benchmark)

    p = new_command("filter", "apply one pre-filter to a frame file")
    p.add_argument("--input", required=True, help="frame CSV to read")
    p.add_argument("--out", required=True, help="filtered frame CSV to write")
    p.add_argument("--method", required=True, choices=["corridor", "ground", "cluster"])
    _add_filter_flags(p)
    p.set_defaults(func=cmd_filter)

    p = new_command("export-curves", "sample fitted conductor curves for plotting")
    p.add_argument("--out", required=True, help="curves CSV to write")
    p.add_argument("--config", default="222", choices=available_configs(),
                   help="conductor array layout")
    p.add_argument("--params", type=_floats, default=None,
                   help="parameters to sample: x_o,y_o,z_o,psi,a,delta...")
    p.add_argument("--results", default=None, help="results.csv to take parameters from")
    p.add_argument("--frame", type=int, default=None,
                   help="frame index within --results (default: last row)")
    p.add_argument("--x-min", type=float, default=-100.0, help="sampling range start, m")
    p.add_argument("--x-max", type=float, default=100.0, help="sampling range end, m")
    p.add_argument("--samples", type=int, default=100, help="points per conductor")
    p.set_defaults(func=cmd_export_curves)

    return parser, subparsers


def _apply_config_file(argv: list[str], subparsers: dict[str, argparse.ArgumentParser]) -> None:
    """Install JSON config values as subparser defaults before parsing."""
    if not argv or argv[0] not in subparsers:
        return
    sp = subparsers[argv[0]]
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config-file" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config-file="):
            path = tok.split("=", 1)[1]
    if path is None:
        return
    with open(path) as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            sp.error(f"--config-file {path}: invalid JSON ({exc})")
    if not isinstance(values, dict):
        sp.error(f"--config-file {path}: expected a JSON object")
    dests = {a.dest for a in sp._actions}
    unknown = sorted(set(values) - dests)
    if unknown:
        sp.error(f"--config-file {path}: unknown keys {unknown}")
    sp.set_defaults(**values)


def _build_scenario(args) -> Scenario:
    config = conductor_config(args.config)
    # benchmark passes a sweep list; the scenario template takes the first cell
    n_outliers = args.outliers[0] if isinstance(args.outliers, list) else args.outliers
    if args.truth is not None:
        if args.truth.size != 5 + config.l:
            raise UsageError(
                f"--truth needs {5 + config.l} values for config {args.config}, "
                f"got {args.truth.size}"
            )
        truth = ParamVector.from_array(args.truth)
    else:
        truth = default_truth(config)
    box = None
    if args.outlier_center is not None or args.outlier_extent is not None:
        center = args.outlier_center
        if center is None:
            x_c = 0.0 if args.mode == "global" else args.slice_center
            center = (x_c, truth.y_o, truth.z_o)
        box = OutlierBox(center=center, extent=args.outlier_extent or (10.0, 10.0, 10.0))
    return Scenario(
        config=config,
        truth=truth,
        mode=args.mode,
        span=args.span,
        slice_center=args.slice_center,
        slice_width=args.slice_width,
        pts_per_line_max=args.pts_per_line_max,
        noise_sigma=args.noise_sigma,
        n_outliers=n_outliers,
        outlier_box=box,
        n_frames=args.frames,
        seed=args.seed,
    )


def _build_settings(args) -> EstimatorSettings:
    weights = LossWeights(q_diag=args.reg_q) if args.reg_q is not None else None
    return EstimatorSettings(
        n_search=args.n_search,
        sigma=args.search_sigma,
        weights=weights,
        max_iterations=args.max_iterations,
        seed=args.seed,
    )


def _corridor_spec(args) -> CorridorSpec:
    if args.anchor_a is None or args.anchor_b is None:
        raise UsageError("corridor filtering needs --anchor-a and --anchor-b")
    return CorridorSpec(
        anchor_a=args.anchor_a,
        anchor_b=args.anchor_b,
        half_width=args.half_width,
        bin_height=args.bin_height,
        ground_fraction=args.ground_fraction,
        clearance_bins=args.clearance_bins,
        ground_cut=not args.no_ground_cut,
    )


def _ransac_spec(args) -> RansacSpec:
    return RansacSpec(
        iterations=args.ransac_iterations,
        threshold=args.ransac_threshold,
        min_inlier_fraction=args.min_inlier_fraction,
    )


def _cluster_spec(args) -> ClusterSpec:
    return ClusterSpec(eps=args.eps, min_points=args.min_points, ratio=args.ratio)


def _filter_points(points: np.ndarray, method: str, args, rng: np.random.Generator) -> np.ndarray:
    if method == "corridor":
        mask = corridor_filter(points, _corridor_spec(args))
    elif method == "ground":
        mask = ground_filter_ransac(points, _ransac_spec(args), rng)
    elif method == "cluster":
        mask = clustering_filter(points, _ransac_spec(args), _cluster_spec(args), rng)
    else:
        raise UsageError(f"unknown filter method {method!r}")
    return apply_mask(points, mask)


def cmd_simulate(args) -> int:
    scenario = _build_scenario(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    frames = generate_sequence(scenario)
    n_points = 0
    for i, frame in enumerate(frames):
        write_frame_csv(frame_path(out, i), frame.cloud.points)
        write_labels_csv(labels_path(out, i), frame.labels)
        n_points += len(frame.cloud)
    write_truth_csv(out / TRUTH_FILENAME, scenario.truth)
    print(f"wrote {len(frames)} frames ({n_points} points) to {out}")
    return 0


def cmd_estimate(args) -> int:
    config = conductor_config(args.config)
    data = Path(args.data)
    paths = list_frame_paths(data)
    if not paths:
        raise FileNotFoundError(f"no frame_*.csv files in {data}")
    clouds = [read_frame_csv(p) for p in paths]

    truth = None
    truth_file = data / TRUTH_FILENAME
    if truth_file.exists():
        truth = read_truth_csv(truth_file)
        if truth.deltas.size != config.l:
            raise ValueError(
                f"truth in {truth_file} has {truth.deltas.size} offsets but config "
                f"{args.config} expects {config.l}"
            )

    raw_counts = [c.shape[0] for c in clouds]
    if args.filter_method is not None:
        rng = np.random.default_rng(args.seed)
        clouds = [_filter_points(c, args.filter_method, args, rng) for c in clouds]
        kept = sum(c.shape[0] for c in clouds)
        print(f"filter {args.filter_method}: kept {kept} of {sum(raw_counts)} points")

    if args.p0 is not None:
        if args.p0.size != 5 + config.l:
            raise UsageError(
                f"--p0 needs {5 + config.l} values for config {args.config}, got {args.p0.size}"
            )
        prior0 = ParamVector.from_array(args.p0)
    elif args.prior_from_truth:
        if truth is None:
            raise UsageError(f"--prior-from-truth needs {truth_file} to exist")
        sigma = args.prior_sigma if args.prior_sigma is not None else default_prior_sigma(config)
        prior0 = random_prior(truth, sigma, np.random.default_rng(args.seed))
    else:
        raise UsageError("supply an initial prior: --p0 or --prior-from-truth")

    settings = _build_settings(args)
    results = track_sequence(clouds, prior0, config, settings)

    rows = []
    for i, (cloud, result) in enumerate(zip(clouds, results)):
        dt_ms = result.solve_time * 1e3 if args.timing == "wall" else 0.0
        acc = psi_e = a_e = None
        if truth is not None:
            m = frame_metrics(result.p, truth, cloud, config, result.solve_time)
            acc, psi_e, a_e = m.accuracy_pct, m.psi_error, m.a_error
        rows.append(
            ResultRow(
                frame=i,
                params=result.p.to_array(),
                cost=result.cost,
                n_pts=cloud.shape[0],
                dt_ms=dt_ms,
                acc=acc,
                psi_e=psi_e,
                a_e=a_e,
            )
        )
    out = Path(args.out) if args.out else data / RESULTS_FILENAME
    write_results_csv(out, rows)

    dt = np.array([r.solve_time for r in results]) * 1e3
    last = results[-1].p.to_array()
    print(f"fitted {len(results)} frames; solve time {dt.mean():.2f} +/- {dt.std():.2f} ms/frame")
    print("final parameters: " + ",".join(repr(float(v)) for v in last))
    if truth is not None:
        accs = np.array([r.acc for r in rows], dtype=float)
        accs = accs[~np.isnan(accs)]
        if accs.size:
            print(f"mean accuracy {accs.mean():.1f}%")
    print(f"wrote {out}")
    return 0


def cmd_benchmark(args) -> int:
    scenario = _build_scenario(args)
    settings = _build_settings(args)
    study = sensitivity_study(
        scenario,
        args.outliers,
        n_repeats=args.repeats,
        settings=settings,
        prior_sigma=args.prior_sigma,
        window=args.window,
        base_seed=args.seed,
    )
    table = []
    for row in study.rows:
        dt_mean = row.dt_ms_mean if args.timing == "wall" else 0.0
        dt_std = row.dt_ms_std if args.timing == "wall" else 0.0
        table.append(
            {
                "n_o": row.n_outliers,
                "n_pts_mean": row.n_pts_mean,
                "n_pts_std": row.n_pts_std,
                "dt_ms_mean": dt_mean,
                "dt_ms_std": dt_std,
                "acc_mean": row.acc_mean,
                "acc_std": row.acc_std,
                "psi_e_mean": row.psi_e_mean,
                "psi_e_std": row.psi_e_std,
                "a_e_mean": row.a_e_mean,
                "a_e_std": row.a_e_std,
            }
        )
        print(
            f"n_o={row.n_outliers}: acc {row.acc_mean:.1f} +/- {row.acc_std:.1f} %, "
            f"dt {row.dt_ms_mean:.2f} +/- {row.dt_ms_std:.2f} ms, "
            f"a_e {row.a_e_mean:.1f} +/- {row.a_e_std:.1f} m"
        )
    for failure in study.failures:
        print(
            f"failed run: n_o={failure.n_outliers} repeat={failure.repeat}: {failure.message}",
            file=sys.stderr,
        )
    write_benchmark_csv(args.out, table)
    print(f"wrote {args.out}")
    return 0


def cmd_filter(args) -> int:
    points = read_frame_csv(args.input)
    rng = np.random.default_rng(args.seed)
    filtered = _filter_points(points, args.method, args, rng)
    write_frame_csv(args.out, filtered)
    removed = points.shape[0] - filtered.shape[0]
    print(
        f"{args.method}: kept {filtered.shape[0]} of {points.shape[0]} points "
        f"(removed {removed}); wrote {args.out}"
    )
    return 0


def cmd_export_curves(args) -> int:
    config = conductor_config(args.config)
    if (args.params is None) == (args.results is None):
        raise UsageError("supply exactly one of --params or --results")
    if args.params is not None:
        if args.params.size != 5 + config.l:
            raise UsageError(
                f"--params needs {5 + config.l} values for config {args.config}, "
                f"got {args.params.size}"
            )
        p = ParamVector.from_array(args.params)
    else:
        rows = read_results_csv(args.results)
        if args.frame is None:
            row = rows[-1]
        else:
            matches = [r for r in rows if r.frame == args.frame]
            if not matches:
                raise ValueError(f"frame {args.frame} not found in {args.results}")
            row = matches[0]
        if row.params.size != 5 + config.l:
            raise ValueError(
                f"{args.results} rows carry {row.params.size} parameters but config "
                f"{args.config} expects {5 + config.l}"
            )
        p = ParamVector.from_array(row.params)
    curves = sample_curves(p, config, args.x_min, args.x_max, args.samples)
    write_curves_csv(args.out, curves)
    print(f"wrote {curves.shape[0] * curves.shape[1]} curve points to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        _apply_config_file(argv, subparsers)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, SolverError, CatenaryRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
