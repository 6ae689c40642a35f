"""Benchmark of the linetrack pipeline: one named workload per fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload track_global --seed 1 --seconds 35 --trace 0

The benchmark makes its inputs from --seed with its own numpy code, feeds
them to linetrack's public functions in rounds for --seconds seconds,
checks every output against an independent numpy evaluation of the model,
and prints one JSON object as the last line of stdout: correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics. --trace 1
repeats the seed's first few rounds, alternating untraced and traced
passes, and reports the per-layer metrics of the traced ones. See README.md.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS and OpenMP pools are capped at the core count before numpy loads.
CORES = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CORES)

_T_SCRIPT = time.perf_counter()


def process_age() -> float:
    """Seconds since the process started, from the kernel's start stamp."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T_SCRIPT


import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import refmodel  # noqa: E402
import scenes  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS_DIR = ROOT / "perfbench" / "_runs"
TRACES_DIR = ROOT / "perfbench" / "_traces"

MIN_PASSES = 2  # a frame's time is its fastest pass, so at least two

# Output-check tolerances.
COST_RTOL = 1e-9  # reported cost against the reference objective at the same parameters
# L-BFGS-B can stop on relative reduction in the long, shallow sag valley,
# seen up to 1.4 % above the cost at the generator's truth; see README.md.
TRUTH_RTOL = 5e-2
DECOY_REACH_M = 1.0  # |z_o - truth| under this means the fit found the conductor
DECOY_REACH_FLOOR = 0.7  # share of a round's fits that must find it
TRACK_TRAILING = 10  # frames at the end of each sequence that are scored
# 90th percentile of |estimate - truth| over a sequence's scored frames:
# x_o, y_o, z_o (m), psi (rad), a (m), delta_1, delta_2 (m)
TRACK_ERROR_P90 = np.array([1.5, 0.5, 1.5, 0.01, 150.0, 0.5, 0.75])
CLI_KEPT_RTOL = 0.1  # kept points within 10 % of the conductor returns
CLI_HEIGHT_TOL = 0.25  # m, fitted z_o against the truth


class FrameTimer:
    """Thin timing wrapper on linetrack.solver.estimate_frame.

    Every caller (track_sequence, the CLI, the benchmark itself) looks the
    name up in linetrack.solver at call time, so one wrapper sees all fits.
    `calls` holds the current round's (seconds, args, result) triples.
    """

    def __init__(self, solver):
        self.calls: list[tuple[float, tuple, object]] = []
        inner = solver.estimate_frame

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = inner(*args, **kwargs)
            self.calls.append((time.perf_counter() - t0, args, result))
            return result

        solver.estimate_frame = timed


def _check_descents(calls, layout, q) -> list[str]:
    """Reported cost matches the reference objective; no start ends above
    the objective at the point it began from."""
    errors = []
    for _, args, result in calls:
        points, prior = args[0], args[1].to_array()
        j = refmodel.objective(layout, result.p.to_array(), points, prior, q)
        if abs(result.cost - j) > COST_RTOL * max(1.0, abs(j)):
            errors.append(f"reported cost {result.cost!r} but the model gives {j!r}")
        for start in result.starts:
            if not np.isfinite(start.cost):
                continue
            j0 = refmodel.objective(layout, start.p0, points, prior, q)
            if start.cost > j0 + COST_RTOL * max(1.0, abs(j0)):
                errors.append(f"start {start.start_index} rose from {j0!r} to {start.cost!r}")
    return errors


class TrackGlobal:
    """Frame-to-frame tracking of the 222 array, in memory; a round is one
    sequence tracked from a perturbed initial prior."""

    N_FRAMES = 30
    POOL = 4  # sequences: 120 distinct frames

    def __init__(self, seed, lt, run_dir):
        self.seed, self.lt = seed, lt
        self.config = lt.geometry.conductor_config("222")
        self.q = lt.solver.default_regularization(self.config)

    def rounds(self):
        return list(itertools.islice(scenes.tracking_sequences(self.seed, self.N_FRAMES), self.POOL))

    def run(self, seq):
        solver = self.lt.solver
        prior = self.lt.geometry.ParamVector.from_array(seq.prior)
        settings = solver.EstimatorSettings(seed=seq.solver_seed)
        t0 = time.perf_counter()
        try:
            solver.track_sequence(seq.frames, prior, self.config, settings)
            failed = 0
        except solver.SolverError as exc:
            print(f"track_global: sequence failed: {exc}", file=sys.stderr)
            failed = len(seq.frames)
        return len(seq.frames), failed, time.perf_counter() - t0

    def check(self, seq, calls):
        errors = _check_descents(calls, "222", self.q)
        trailing = np.array([r.p.to_array() for _, _, r in calls[-TRACK_TRAILING:]])
        err = np.abs(trailing - scenes.TRACK_TRUTH)
        p90 = np.percentile(err, 90, axis=0)
        if np.any(p90 > TRACK_ERROR_P90):
            errors.append(f"trailing-frame error p90 {p90.round(4)} over {TRACK_ERROR_P90}")
        return errors


class MultistartDecoy:
    """Independent cold fits with many restarts and no prior penalty; a
    round is a batch of fits, each on its own scene."""

    BATCH = 10
    POOL = 10  # batches: 100 distinct fits

    def __init__(self, seed, lt, run_dir):
        self.seed, self.lt = seed, lt
        self.config = lt.geometry.conductor_config("1")
        self.prior = lt.geometry.ParamVector.from_array(scenes.DECOY_PRIOR)
        self.qzero = lt.loss.LossWeights(q_diag=np.zeros(5))

    def rounds(self):
        return list(itertools.islice(scenes.decoy_batches(self.seed, self.BATCH), self.POOL))

    def run(self, batch):
        solver = self.lt.solver
        settings = [
            solver.EstimatorSettings(
                n_search=10, sigma=scenes.DECOY_SEARCH_SIGMA, weights=self.qzero,
                seed=scene.solver_seed,
            )
            for scene in batch
        ]
        failed = 0
        t0 = time.perf_counter()
        for scene, s in zip(batch, settings):
            try:
                solver.estimate_frame(scene.points, self.prior, self.config, s)
            except solver.SolverError as exc:
                print(f"multistart_decoy: fit failed: {exc}", file=sys.stderr)
                failed += 1
        return len(batch), failed, time.perf_counter() - t0

    def check(self, batch, calls):
        errors = _check_descents(calls, "1", None)
        reached = 0
        for _, args, result in calls:
            if abs(result.p.z_o - scenes.DECOY_TRUTH[2]) >= DECOY_REACH_M:
                continue
            reached += 1
            j_truth = refmodel.objective("1", scenes.DECOY_TRUTH, args[0])
            if result.cost > j_truth * (1.0 + TRUTH_RTOL):
                errors.append(f"fit on the conductor costs {result.cost!r} > truth {j_truth!r}")
        if reached < DECOY_REACH_FLOOR * len(batch):
            errors.append(f"only {reached} of {len(batch)} fits reached the conductor")
        return errors


class EstimateCliCluster:
    """`linetrack estimate --filter cluster --config 1` in-process; a round
    is one command over the run directory that set-up writes."""

    N_FRAMES = 100

    def __init__(self, seed, lt, run_dir):
        self.lt = lt
        self.results = run_dir / "results.csv"
        self.counts, prior = scenes.write_corridor_run(seed, self.N_FRAMES, run_dir)
        self.argv = [
            "estimate", "--data", str(run_dir), "--config", "1", "--filter", "cluster",
            "--seed", str(seed), "--out", str(self.results),
            "--p0=" + ",".join(repr(float(v)) for v in prior),
        ]

    def rounds(self):
        return [self.argv]

    def run(self, argv):
        self.results.unlink(missing_ok=True)
        n = len(self.counts)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.lt.cli.main(argv)
        seconds = time.perf_counter() - t0
        return n, (n if rc != 0 else 0), seconds

    def check(self, argv, calls):
        n = len(self.counts)
        errors = []
        if len(calls) < n:
            errors.append(f"estimate_frame ran {len(calls)} times for {n} frames")
        with open(self.results, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n:
            return errors + [f"{len(rows)} result rows for {n} frames"]
        for row, n_line in zip(rows, self.counts):
            n_pts, z_o = int(row["n_pts"]), float(row["z_o"])
            if abs(n_pts - n_line) > CLI_KEPT_RTOL * n_line:
                errors.append(f"frame {row['frame']}: kept {n_pts} points, {n_line} are conductor")
            if abs(z_o - scenes.CLI_TRUTH[2]) > CLI_HEIGHT_TOL:
                errors.append(f"frame {row['frame']}: fitted z_o {z_o}, truth {scenes.CLI_TRUTH[2]}")
        return errors


WORKLOADS = {
    "track_global": TrackGlobal,
    "estimate_cli_cluster": EstimateCliCluster,
    "multistart_decoy": MultistartDecoy,
}


def make_tracer(lt) -> Tracer:
    tracer = Tracer()
    solver, cli = lt.solver, lt.cli
    tracer.add(cli, "main", "cli")
    tracer.add(cli, "read_frame_csv", "fileio", lambda a, r: os.path.getsize(a[0]))
    tracer.add(cli, "write_results_csv", "fileio")
    tracer.add(cli, "clustering_filter", "filters", lambda a, r: (int(r.sum()), int(r.size)))
    tracer.add(lt.filters, "ground_filter_ransac", "filters")
    tracer.add(lt.filters, "dbscan_labels", "filters")
    tracer.add(cli, "frame_metrics", "metrics")
    tracer.add(lt.metrics, "distance_field", "geometry")
    tracer.add(cli, "track_sequence", "solver")
    tracer.add(solver, "track_sequence", "solver")
    tracer.add(solver, "estimate_frame", "solver")
    tracer.add(solver, "minimize", "solver", lambda a, r: (int(r.nit), int(r.nfev), bool(r.success)))
    tracer.add(solver, "cost_and_gradient", "loss")
    tracer.add(solver, "distance_field", "geometry")
    return tracer


def per_layer(tracer: Tracer, frames: int) -> dict[str, tuple[float, str]]:
    spans, own = tracer.spans, tracer.self_seconds()

    def total(name):
        return sum(s.t1 - s.t0 for s in spans if s.name == name)

    def ratio(a, b):
        return a / b if b else 0.0

    def self_ms(layer):
        return 1e3 * sum(o for s, o in zip(spans, own) if s.layer == layer) / frames

    evals = sum(1 for s in spans if s.name == "cost_and_gradient")
    descents = [s.info for s in spans if s.name == "minimize"]
    geometry = [s.t1 - s.t0 for s in spans if s.layer == "geometry"]
    kept = [s.info for s in spans if s.name == "clustering_filter"]
    read_bytes = sum(s.info for s in spans if s.name == "read_frame_csv")
    return {
        "loss.evals_per_frame": (evals / frames, "count"),
        "loss.us_per_eval": (1e6 * ratio(total("cost_and_gradient"), evals), "us"),
        "loss.ms_per_frame": (1e3 * total("cost_and_gradient") / frames, "ms"),
        "solver.descents_per_frame": (len(descents) / frames, "count"),
        "solver.iters_per_descent": (ratio(sum(d[0] for d in descents), len(descents)), "count"),
        "solver.evals_per_descent": (ratio(sum(d[1] for d in descents), len(descents)), "count"),
        "solver.self_ms_per_frame": (self_ms("solver"), "ms"),
        "solver.converged_ratio": (ratio(sum(d[2] for d in descents), len(descents)), "ratio"),
        "geometry.distance_field.us_per_call": (1e6 * ratio(sum(geometry), len(geometry)), "us"),
        "filters.ransac_ms_per_frame": (1e3 * total("ground_filter_ransac") / frames, "ms"),
        "filters.dbscan_ms_per_frame": (1e3 * total("dbscan_labels") / frames, "ms"),
        "filters.kept_ratio": (ratio(sum(k[0] for k in kept), sum(k[1] for k in kept)), "ratio"),
        "fileio.read_ms_per_frame": (1e3 * total("read_frame_csv") / frames, "ms"),
        "fileio.read_mb_per_s": (ratio(read_bytes / 1e6, total("read_frame_csv")), "MB/s"),
        "metrics.frame_metrics_ms_per_frame": (1e3 * total("frame_metrics") / frames, "ms"),
        "cli.self_ms_per_frame": (self_ms("cli"), "ms"),
    }


class Tally:
    def __init__(self, workload, timer):
        self.workload, self.timer = workload, timer
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def round(self, item) -> tuple[int, float, list[float]]:
        """Run one round, then check its outputs outside the timed region.
        Returns frames, the round's wall seconds and each fit's seconds."""
        self.timer.calls.clear()
        frames, failed, seconds = self.workload.run(item)
        self.attempted += frames
        self.failed += failed
        if not failed:
            self.errors += self.workload.check(item, self.timer.calls)
        return frames, seconds, [dt for dt, _, _ in self.timer.calls]


def fastest(samples: list[list[float]]) -> np.ndarray:
    """Elementwise minimum over passes of one round's per-frame seconds
    (passes that lost frames to a failure are left out)."""
    full = max(len(s) for s in samples)
    return np.min([s for s in samples if len(s) == full], axis=0)


def measure(args, workload, timer, tracer, setup_s):
    """Whole passes over the seed's pool of rounds until the time is up.

    Every pass repeats the same work, so a frame's time is its fastest pass:
    contention from elsewhere on the machine only ever adds time. With a
    tracer, passes alternate untraced and traced; per-layer figures come
    from the traced ones, whose counts then repeat exactly for a seed.
    """
    tally = Tally(workload, timer)
    pool = workload.rounds()
    passes: list[tuple[bool, list]] = []
    t_start = time.perf_counter()
    for n_pass in itertools.count():
        traced = tracer is not None and n_pass % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            passes.append((traced, [tally.round(item) for item in pool]))
        if n_pass + 1 >= MIN_PASSES and time.perf_counter() - t_start >= args.seconds:
            break

    untraced = [rounds for t, rounds in passes if not t]
    if tracer is None:
        frame_ms = 1e3 * np.concatenate(
            [fastest([p[i][2] for p in untraced]) for i in range(len(pool))]
        )
        best_rates = [
            max(p[i][0] / p[i][1] for p in untraced) for i in range(len(pool))
        ]
        metrics = {
            "setup_s": (setup_s, "s"),
            "frame_ms_p50": (float(np.percentile(frame_ms, 50)), "ms"),
            "frame_ms_p90": (float(np.percentile(frame_ms, 90)), "ms"),
            "frames_per_s": (float(np.median(best_rates)), "frames/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return tally, metrics

    def per_frame(kind):
        rounds = [r for t, p in passes if t == kind for r in p]
        return sum(r[1] for r in rounds) / sum(r[0] for r in rounds)

    traced_frames = sum(r[0] for t, p in passes if t for r in p)
    metrics = per_layer(tracer, traced_frames)
    metrics["trace.overhead_pct"] = (100.0 * (per_frame(True) / per_frame(False) - 1.0), "%")
    evals = sum(1 for s in tracer.spans if s.name == "cost_and_gradient")
    nfev = sum(s.info[1] for s in tracer.spans if s.name == "minimize")
    if evals != nfev:
        tally.errors.append(f"cost_and_gradient ran {evals} times, scipy reports nfev {nfev}")
    tracer.write(TRACES_DIR / f"{args.workload}-seed{args.seed}.json")
    return tally, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "linetrack" / "__init__.py").is_file():
        print(f"error: no linetrack source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import linetrack.cli
    import linetrack.filters
    import linetrack.geometry
    import linetrack.loss
    import linetrack.metrics
    import linetrack.solver

    lt = SimpleNamespace(
        cli=linetrack.cli, filters=linetrack.filters, geometry=linetrack.geometry,
        loss=linetrack.loss, metrics=linetrack.metrics, solver=linetrack.solver,
    )
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, lt, run_dir)
        generate_s = time.perf_counter() - t0  # the run directory, for the CLI
        timer = FrameTimer(lt.solver)
        tracer = make_tracer(lt) if args.trace else None
        tally, metrics = measure(args, workload, timer, tracer, process_age() - generate_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS_DIR.rmdir()  # only when no other run is using it
    for e in tally.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not tally.errors else 1


if __name__ == "__main__":
    sys.exit(main())
