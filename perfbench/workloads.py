"""Workloads of the mirrormotion benchmark, timed in a child process of run.py.

A workload is a sequence of units, each a call of one `cli` command on
inputs made from the seed and the unit index, followed by checks of what the
command returned and wrote.  Units run until the next one would overrun the
time budget by more than half its length; the first unit always runs.  One
small unit runs untimed first, so lazy imports and FFT plan caches are filled
before timing starts.  Unit times are rescaled to the reference CPU speed
(speed.py).

With tracing on, every unit runs twice, once plain and once traced, in
alternating order; the per-layer numbers come from the traced copies and
`trace_overhead_ratio` is traced / plain rescaled unit time.  Speed probes
run in both copies, so each unit is rescaled by probes of its own; span
times leave the probes out.

Run through run.py, which sets the thread caps and measures set-up time and
memory; the last stdout line of this script is not the benchmark's result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import shutil
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from mirrormotion import cli, sim

import layers
import speed

RATIO_BAND = (0.95, 1.05)  # acceptance criterion 2: empirical MSE / analytic minimum
SWEEP_TRIALS = 300
NONLINEAR_TRIALS = 10
NONLINEAR_ALPHA_SQ = 6.24e6
BOUNDS_POINTS = 25
WARMUP_TRIALS = 2  # empirical_mse needs two kept trials
WARMUP_POINTS = 2


@dataclass
class UnitResult:
    ops: int
    failed: int = 0
    errors: list = field(default_factory=list)
    note: str = ""


def _read_csv(path, columns):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [dict(zip(header, line)) for line in reader]
    errors = [] if tuple(header) == tuple(columns) else [f"{path.name}: header {header}"]
    return rows, errors


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sweep_unit(seed, k, out_dir, trials, workers):
    """`cli.cmd_sweep` on one amplitude of the reference config (both probe
    kinds); the amplitude cycles with the unit index, starting from the seed."""
    base = cli.reference_config()
    alpha = base.alpha_sqs[(seed + k) % len(base.alpha_sqs)]
    config = replace(
        base,
        alpha_sqs=(alpha,),
        simulation=replace(base.simulation, n_trials=trials, seed=seed + k),
    )
    path = out_dir / f"sweep-{k}.csv"
    cli.cmd_sweep(config, out_path=path, workers=workers)

    rows, errors = _read_csv(path, cli.SWEEP_COLUMNS)
    result = UnitResult(ops=trials * len(cli.PROBE_KINDS), errors=errors)
    for kind in cli.PROBE_KINDS:
        cell = {r["var"]: r for r in rows if r["probe"] == kind}
        if sorted(cell) != ["f", "p", "q"]:
            result.failed += trials
            result.errors.append(f"cell ({kind}, {alpha:g}) did not complete")
            continue
        for x, row in cell.items():
            ratio = float(row["mse_emp"]) / float(row["mmse"])
            if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
                result.errors.append(f"cell ({kind}, {alpha:g}) {x}: mse/mmse = {ratio:.4f}")
    result.note = f"alpha_sq={alpha:g} sim_seed={seed + k} csv_sha256={_digest(path)}"
    return result


def nonlinear_unit(seed, k, out_dir, trials):
    """`cli.cmd_simulate` on the squeezed cell at the highest reference
    amplitude with the full nonlinear homodyne model."""
    base = cli.reference_config()
    config = replace(
        base,
        simulation=replace(
            base.simulation, n_trials=trials, seed=seed + k, mode=sim.MODE_NONLINEAR
        ),
        out_dir=str(out_dir),
    )
    try:
        point = cli.cmd_simulate(config, "squeezed", NONLINEAR_ALPHA_SQ)
    except Exception as exc:  # a failed cell is a result to report, not a crash
        return UnitResult(ops=trials, failed=trials, errors=[f"cell failed: {exc!r}"])
    result = UnitResult(ops=trials, failed=point.n_diverged)
    for x in ("q", "p", "f"):
        if not (math.isfinite(point.mse[x]) and point.mse[x] > 0):
            result.errors.append(f"{x}: mse = {point.mse[x]!r}")
    result.note = f"sim_seed={seed + k} diverged={point.n_diverged} " + " ".join(
        f"{x}:mse/mmse={point.mse[x] / point.mmse[x]:.4f}" for x in ("q", "p", "f")
    )
    return result


def bounds_unit(seed, k, out_dir, n_points):
    """`cli.cmd_bounds` with the reference amplitudes scaled by a seeded
    factor in [2^-0.5, 2^0.5], so no two passes repeat their inputs."""
    base = cli.reference_config()
    scale = 2.0 ** np.random.default_rng([seed, k]).uniform(-0.5, 0.5)
    config = replace(base, alpha_sqs=tuple(a * scale for a in base.alpha_sqs))
    lo, hi = min(config.alpha_sqs), max(config.alpha_sqs)
    expected = set(np.geomspace(lo, hi, n_points)) | set(config.alpha_sqs)
    path = out_dir / f"bounds-{k}.csv"
    cli.cmd_bounds(config, out_path=path, n_points=n_points)

    rows, errors = _read_csv(path, cli.BOUNDS_COLUMNS)
    result = UnitResult(ops=len(expected), errors=errors)
    by_alpha = {}
    for row in rows:
        by_alpha.setdefault(float(row["alpha_sq"]), []).append(row)
    result.failed = len(expected - set(by_alpha))
    if result.failed:
        result.errors.append(f"{result.failed} of {len(expected)} points missing")
    for alpha, group in by_alpha.items():
        if sorted(r["var"] for r in group) != ["f", "p", "q"]:
            result.errors.append(f"alpha_sq={alpha:g}: rows {[r['var'] for r in group]}")
        for r in group:
            v = {c: float(r[c]) for c in cli.BOUNDS_COLUMNS[2:]}
            if not all(math.isfinite(x) for x in v.values()):
                result.errors.append(f"alpha_sq={alpha:g} {r['var']}: non-finite {v}")
            elif not (
                v["qcrb_sq"] < v["qcrb_coh"] <= v["mmse_coh"] * (1 + 1e-9)
                and v["mmse_sq"] < v["mmse_coh"]
            ):
                result.errors.append(f"alpha_sq={alpha:g} {r['var']}: ordering broken {v}")
    result.note = f"scale={scale:.6f} points={len(by_alpha)} csv_sha256={_digest(path)}"
    return result


@dataclass(frozen=True)
class Workload:
    """Why each workload exists: BENCHMARK.json and README.md."""

    run: object  # (seed, k, out_dir, size) -> UnitResult
    size: int
    warmup_size: int
    parallel: bool = False


WORKLOADS = {
    "sweep_acceptance": Workload(
        lambda s, k, d, n: sweep_unit(s, k, d, n, workers=1),
        SWEEP_TRIALS,
        WARMUP_TRIALS,
    ),
    "sweep_parallel": Workload(
        lambda s, k, d, n: sweep_unit(s, k, d, n, workers=2),
        SWEEP_TRIALS,
        WARMUP_TRIALS,
        parallel=True,
    ),
    "cell_nonlinear": Workload(
        nonlinear_unit,
        NONLINEAR_TRIALS,
        WARMUP_TRIALS,
    ),
    "bounds": Workload(
        bounds_unit,
        BOUNDS_POINTS,
        WARMUP_POINTS,
    ),
}


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    workload = WORKLOADS[name]
    workload.run(seed, 0, out_dir, workload.warmup_size)
    speed.probe()  # the first call also plans its FFT

    tracer = layers.Tracer() if trace else None
    attempted = failed = 0
    errors = []
    units = []  # (traced, start, end)
    with speed.Sampler(all_cores=workload.parallel) as sampler:
        start = time.perf_counter()
        k = 0
        while True:
            passes = [False, True] if trace else [False]
            if k % 2:
                passes.reverse()
            for traced in passes:
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    result = workload.run(seed, k, out_dir, workload.size)
                finally:
                    t1 = time.perf_counter()
                    if traced:
                        tracer.uninstall()
                units.append((traced, t0, t1))
                attempted += result.ops
                failed += result.failed
                errors += [f"unit {k}: {e}" for e in result.errors]
                print(f"unit {k}{' traced' if traced else ''}: {t1 - t0:.3f} s {result.note}",
                      flush=True)
            k += 1
            # stop where the next unit would overrun by more than half of it
            unit_s = sum(t1 - t0 for _, t0, t1 in units[-len(passes):])
            if time.perf_counter() - start + 0.5 * unit_s > seconds:
                break

    wall = {False: 0.0, True: 0.0}
    rescaled = {False: 0.0, True: 0.0}
    for traced, t0, t1 in units:
        wall[traced] += t1 - t0
        rescaled[traced] += sampler.rescaled(t0, t1)
    ops = attempted // 2 if trace else attempted
    out = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "n_units": k,
        "versions": versions(),
        "wall_ops_per_s": ops / wall[False],
    }
    if trace:
        tracer.dump(out_dir / "trace.json")
        probes = [(end - busy, end) for end, busy, _ in sampler.samples]
        metrics = layers.layer_metrics(tracer.spans, tracer.events, ops, probes)
        metrics["trace_overhead_ratio"] = rescaled[True] / rescaled[False]
        out["metrics"] = {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in layers.LAYER_METRICS.items()
        }
    else:
        out["metrics"] = {"ops_per_s": ops / rescaled[False]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="directory for outputs")
    args = parser.parse_args(argv)

    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    (args.out / "workload.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
