"""Batch harness: config files, amplitude sweeps, bound curves, diagnostics.

Config files are flat `section.key = value` text whose keys are those of the
`CONFIG_KEYS` table; `write-config` emits the canonical example with every key
at its reference value.  Results are plain
CSV so any plotting tool can consume them.  All commands are deterministic for
a given config and seed, independent of the worker count.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import est, sim
from .errors import RiccatiError, require_finite
from .model import PRIOR_TAGS, ForceParams, MirrorParams, PriorModel
from .probe import (
    ProbeState,
    SqueezingBandwidth,
    attainability_gap,
    effective_squeezing_factor,
    measurement_noise_psd,
)

SWEEP_COLUMNS = ("var", "probe", "alpha_sq", "mse_emp", "mse_stderr", "mmse", "qcrb_coh", "qcrb_sq")
BOUNDS_COLUMNS = ("var", "alpha_sq", "mmse_coh", "mmse_sq", "qcrb_coh", "qcrb_sq")
PROBE_KINDS = ("coherent", "squeezed")

#: A nonlinear cell fails before its first trial when its trials are
#: expected to hold at least this many samples per record with a feedback
#: error past pi/2 (`run_sweep_point`).
MAX_EXPECTED_SLIPS = 1e-2

#: Trials per task of a sweep cell.  A cell keeps only four floats per kept
#: trial; its scored windows live for one task.
TRIALS_PER_TASK = 5


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch experiment: system model, probe family, and run settings."""

    mirror: MirrorParams
    force: ForceParams
    simulation: sim.SimConfig
    squeezing_db: float
    antisqueezing_db: float
    eta_det: float
    bandwidth: float
    alpha_sqs: tuple
    out_dir: str = "results"

    def __post_init__(self):
        # Python floats whatever the caller passed, so the CSVs `repr` them alike
        object.__setattr__(self, "alpha_sqs", tuple(float(a) for a in self.alpha_sqs))
        require_finite(self)
        if len(self.alpha_sqs) == 0:
            raise ValueError("need at least one probe amplitude")
        if any(a <= 0 for a in self.alpha_sqs):
            raise ValueError("probe amplitudes must be positive")
        if len(set(self.alpha_sqs)) < len(self.alpha_sqs):
            raise ValueError("probe amplitudes must be distinct")
        if self.bandwidth <= 0:
            raise ValueError("probe bandwidth must be positive")
        # a rate at or past the Nyquist frequency aliases in every trial
        nyquist = max(self.mirror.Omega, self.mirror.gamma, self.force.lam) * self.simulation.dt
        if nyquist >= math.pi:
            raise ValueError(
                f"sim.dt = {self.simulation.dt:g} s cannot resolve the model: "
                f"max(mirror.resonance, mirror.damping, force.cutoff) * sim.dt "
                f"= {nyquist:.3g} must be below pi"
            )
        # `ProbeState` owns the probe-family rules; name the keys that broke one
        for kind, keys in (
            ("coherent", "probe.efficiency"),
            ("squeezed", "probe.squeezing_db, probe.antisqueezing_db"),
        ):
            try:
                self.probe_template(kind, self.alpha_sqs[0])
            except ValueError as exc:
                raise ValueError(f"{keys}: {exc}") from exc

    def priors(self) -> PriorModel:
        """The mass-spring-damper mirror under the OU force prior."""
        return PriorModel(self.mirror, self.force)

    def probe_template(self, kind: str, alpha_sq: float) -> ProbeState:
        """Probe with sigma_phi_sq = 0; calibrate before using S_z."""
        if kind == "coherent":
            return ProbeState(alpha_sq, eta_det=self.eta_det)
        if kind == "squeezed":
            return ProbeState.from_db(
                alpha_sq, self.squeezing_db, self.antisqueezing_db, eta_det=self.eta_det
            )
        raise ValueError(f"unknown probe kind {kind!r}")

    def operating_point(self, kind: str, alpha_sq: float) -> ProbeState:
        """Probe of `kind` at `alpha_sq` with its self-consistent tracking
        error (`sim.calibrate_tracking` of the template)."""
        return sim.calibrate_tracking(
            self.probe_template(kind, alpha_sq), self.force, self.mirror, self.simulation
        )


def reference_config() -> ExperimentConfig:
    """Canonical operating point: the 860 nm probe on the 0.59 g PZT-mounted
    mirror driven by an Ornstein-Uhlenbeck force."""
    return ExperimentConfig(
        mirror=MirrorParams(
            m=5.88e-4,
            Omega=1.76e5,
            gamma=7.66e3,
            k0=2.0 * math.pi / 860e-9,
            theta=math.pi / 4.0,
        ),
        force=ForceParams(lam=5.84e4, kappa=1.67e3),
        simulation=sim.SimConfig(),
        squeezing_db=3.62,
        antisqueezing_db=6.00,
        eta_det=0.871,
        bandwidth=1.76e6,
        alpha_sqs=(1.02e6, 1.88e6, 2.87e6, 6.24e6),
    )


# ---------------------------------------------------------------------------
# config file round trip


def _floats(text: str) -> tuple:
    return tuple(float(a) for a in text.split(","))


#: Config-file key -> (ExperimentConfig attribute path, parser of the value
#: text): the one schema of the file, iterated by write_config and read_config.
CONFIG_KEYS = {
    "mirror.mass": ("mirror.m", float),
    "mirror.resonance": ("mirror.Omega", float),
    "mirror.damping": ("mirror.gamma", float),
    "mirror.wavenumber": ("mirror.k0", float),
    "mirror.angle": ("mirror.theta", float),
    "force.cutoff": ("force.lam", float),
    "force.intensity": ("force.kappa", float),
    "probe.squeezing_db": ("squeezing_db", float),
    "probe.antisqueezing_db": ("antisqueezing_db", float),
    "probe.efficiency": ("eta_det", float),
    "probe.bandwidth": ("bandwidth", float),
    "sim.dt": ("simulation.dt", float),
    "sim.samples": ("simulation.n_samples", int),
    "sim.trials": ("simulation.n_trials", int),
    "sim.seed": ("simulation.seed", int),
    "sim.mode": ("simulation.mode", str),
    "sim.delay_samples": ("simulation.feedback_delay_samples", int),
    "sweep.alpha_sq": ("alpha_sqs", _floats),
    "out.dir": ("out_dir", str),
}


def _with_values(config: ExperimentConfig, values: dict) -> ExperimentConfig:
    """`config` with `values` ({attribute path: value}) applied.  One `replace`
    per section, so each dataclass validates its final values only."""
    sections, top = {}, {}
    for attr, value in values.items():
        section, _, name = attr.rpartition(".")
        if section:
            sections.setdefault(section, {})[name] = value
        else:
            top[name] = value
    for section, fields in sections.items():
        top[section] = replace(getattr(config, section), **fields)
    return replace(config, **top)


def write_config(config: ExperimentConfig, path) -> None:
    lines = ["# mirror-motion estimation experiment configuration"]
    for key, (attr, _) in CONFIG_KEYS.items():
        value = attrgetter(attr)(config)
        text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{key} = {text}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def read_config(path) -> ExperimentConfig:
    """Reference config with the file's keys applied; missing keys keep their
    reference values."""
    return _with_values(reference_config(), _read_values(path))


def _read_values(path) -> dict:
    """{attribute path: parsed value} of a config file's keys."""
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    values = {}
    for key, text in raw.items():
        attr, parse = CONFIG_KEYS[key]
        try:
            values[attr] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from exc
    return values


# ---------------------------------------------------------------------------
# sweep


def _score_trials(trial_indices):
    """Run trials of the entered cell (`_enter_cell`); returns {index:
    payload} with None marking diverged trials.  Each payload's scored windows
    are copies, so a kept trial holds 6 x `n_samples` floats, not its
    full-length records.  With the cell's `dump_dir`, every trial is also
    written there as CSV."""
    priors, probe, tracker, bank, cfg, dump_dir = _cell
    results = {}
    for idx in trial_indices:
        traj = sim.simulate_trial(priors, probe, tracker, cfg, sim.trial_rng(cfg.seed, idx))
        if dump_dir is not None:
            traj.to_csv(Path(dump_dir) / f"trial_{idx:04d}.csv")
        if traj.diverged:
            results[idx] = None
            continue
        window = traj.data_slice
        payload = {"sigma_phi_sq": traj.sigma_phi_sq}
        for x in PRIOR_TAGS:
            estimate = est.smooth(traj.y, x, bank)
            payload[x] = (estimate[window].copy(), getattr(traj, x)[window].copy())
        results[idx] = payload
    return results


@dataclass
class SweepPoint:
    """Scored results for one (probe kind, amplitude) cell, with the tracker
    that filtered its trials."""

    tracker: sim.KalmanTracker
    mse: dict
    stderr: dict
    mmse: dict
    qcrb_coh: dict
    qcrb_sq: dict
    sigma_phi_sq_emp: float
    n_diverged: int


@functools.cache
def _reuse_freed_heap() -> None:
    """Keep the memory trials free in the C heap for the next trial.

    A trial allocates and frees megabytes of sub-megabyte arrays.  With
    glibc's starting thresholds, free() hands the top of the heap back to
    the system after each trial and the next trial faults it in again
    (about 1,000 minor page faults per reference trial, 14% of a serial
    trial's time).  This sets, once per process, the thresholds glibc's own
    adjustment tops out at: arrays up to 32 MB come from the heap, and up to
    64 MB of free heap is kept.  Only processes that run trials call it, on
    entering a cell (`_enter_cell`).  A pool's parent runs none, so it hands
    back what its cell set-up and fold free before the next cell's pool
    forks.  Where malloc is not glibc's, this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library malloc to tune
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # from <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


#: The sweep cell this process scores, `(priors, probe, tracker, bank, cfg,
#: dump_dir)`, set by `_enter_cell`.
_cell = None


def _enter_cell(*cell) -> None:
    """Keep the cell this process scores: a serial cell enters it in the
    parent, and a pool runs this as each process's initializer, so each
    task sends only its trial indices (a reference `FilterBank` is ~1.5 MB)."""
    global _cell
    _reuse_freed_heap()  # inherited under fork; spawned processes need it
    _cell = cell


def run_sweep_point(
    config: ExperimentConfig,
    kind: str,
    alpha_sq: float,
    grid: est.SpectralGrid,
    workers: int = 1,
    dump_dir=None,
) -> SweepPoint:
    """Calibrate, simulate and score one (probe kind, amplitude) cell on the
    caller's `grid`, a `est.SpectralGrid` of `config.priors()`, whose priors
    the trials simulate and filter.  The trials run as tasks of
    `TRIALS_PER_TASK`, serially or on a pool of at most `workers` processes,
    one per task and per CPU, and each task's windows are scored as the task
    returns.  The process that runs the trials enters the cell once
    (`_enter_cell`), so a task carries only trial indices; the parent keeps
    no cell past its tasks."""
    global _cell
    if workers < 1:
        raise ValueError("need at least one worker")
    priors = grid.priors
    cfg = config.simulation

    _, n_total = sim.trial_geometry(config.force, config.mirror, cfg)  # fails a short trace first
    probe = config.operating_point(kind, alpha_sq)
    tracker = sim.KalmanTracker(measurement_noise_psd(probe), config.force, config.mirror, cfg)
    if cfg.mode == sim.MODE_NONLINEAR:
        # samples per record whose feedback error, Gaussian of the predicted
        # variance, lies past pi/2, where a nonlinear trial diverges
        sigma_sq = tracker.sigma_phi_sq_feedback()
        slips = n_total * math.erfc(0.5 * math.pi / math.sqrt(2.0 * sigma_sq))
        if slips >= MAX_EXPECTED_SLIPS:
            raise RiccatiError(
                f"nonlinear tracking loop cannot lock: its feedback error "
                f"sigma_phi^2 = {sigma_sq:.4g} rad^2 puts {slips:.3g} of the "
                f"{n_total} samples per record past pi/2 on average"
            )
    bank = est.FilterBank.build(n_total, cfg.dt, priors, probe)
    cell = (priors, probe, tracker, bank, cfg, dump_dir)

    trials = range(cfg.n_trials)
    tasks = [trials[i : i + TRIALS_PER_TASK] for i in range(0, len(trials), TRIALS_PER_TASK)]
    scores = {}  # trial index -> (sigma_phi_sq, q, p, f errors), None if diverged

    def fold(parts):
        for part in parts:
            for idx, payload in part.items():
                scores[idx] = None if payload is None else (
                    payload["sigma_phi_sq"],
                    *(est.trial_mse(*payload[x]) for x in PRIOR_TAGS),
                )
            part = payload = None  # this task's windows go before the next runs

    if workers > 1:
        # build the tracker's filter before forking: it loads scipy.linalg and
        # scipy.signal (`trial_geometry` loaded scipy.fft) for the workers to
        # inherit, and a forked worker that first calls scipy's BLAS starts
        # BLAS threads, which spin
        tracker.gain
        size = min(workers, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size, initializer=_enter_cell, initargs=cell) as pool:
            fold(pool.map(_score_trials, tasks))
    else:
        _enter_cell(*cell)
        try:
            fold(map(_score_trials, tasks))
        finally:
            _cell = None

    # reduction keyed by trial index, so the outcome is independent of the
    # pool and task sizes
    kept = [scores[i] for i in sorted(scores) if scores[i] is not None]
    n_diverged = len(scores) - len(kept)
    if len(kept) < 2:
        raise ValueError(
            f"{n_diverged} of {len(scores)} trials diverged; a cell needs two kept trials"
        )
    sigma_emp = [score[0] for score in kept]
    mse, stderr = {}, {}
    for k, x in enumerate(PRIOR_TAGS, start=1):
        mse[x], stderr[x] = est.empirical_mse([score[k] for score in kept])

    coh = config.probe_template("coherent", alpha_sq)
    sq = config.probe_template("squeezed", alpha_sq)
    return SweepPoint(
        tracker=tracker,
        mse=mse,
        stderr=stderr,
        mmse={x: est.analytic_mmse(x, probe, grid) for x in PRIOR_TAGS},
        qcrb_coh={x: est.qcrb(x, coh, grid) for x in PRIOR_TAGS},
        qcrb_sq={x: est.qcrb(x, sq, grid) for x in PRIOR_TAGS},
        sigma_phi_sq_emp=float(np.mean(sigma_emp)),
        n_diverged=n_diverged,
    )


def _point_label(kind: str, alpha_sq: float) -> str:
    return f"sweep point (kind={kind}, alpha_sq={alpha_sq:g})"


def _try_cell(label: str, fn, *args):
    """`fn(*args)`, or None once its failure is reported on stderr as
    `<label> failed: <reason>`, so a command keeps its other cells."""
    try:
        return fn(*args)
    except Exception as exc:  # report the cell, keep the others
        print(f"{label} failed: {exc}", file=sys.stderr)
        return None


def _write_table(path, columns, cells, rows_of) -> tuple[list[dict], int]:
    """Write a CSV table one cell at a time.  `cells` are (label, cell) pairs
    and `rows_of(cell)` builds a cell's rows in full before any is written;
    a cell that raises is reported (`_try_cell`), writes no rows and counts
    as failed, and the table keeps every other cell.  Returns the rows
    written and the number of failed cells."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows, failed = [], 0
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for label, cell in cells:
            cell_rows = _try_cell(label, rows_of, cell)
            if cell_rows is None:
                failed += 1
                continue
            for row in cell_rows:
                fields = (row[col] for col in columns)
                text = (repr(v) if isinstance(v, float) else str(v) for v in fields)
                fh.write(",".join(text) + "\n")
            fh.flush()
            rows += cell_rows
    return rows, failed


def cmd_sweep(config: ExperimentConfig, out_path, workers: int) -> tuple[list[dict], int]:
    """Full amplitude sweep; one CSV row per (variable, probe kind, amplitude).
    A cell with diverged trials scores only the others and says so on stderr.
    Returns the rows and the number of cells that failed (and wrote none)."""
    grid = est.SpectralGrid.build(config.priors())

    def rows_of(cell):
        kind, alpha_sq = cell
        point = run_sweep_point(config, kind, alpha_sq, grid=grid, workers=workers)
        if point.n_diverged:
            print(
                f"{_point_label(kind, alpha_sq)}: {point.n_diverged} of "
                f"{config.simulation.n_trials} trials diverged and were left out",
                file=sys.stderr,
            )
        return [
            {
                "var": x,
                "probe": kind,
                "alpha_sq": alpha_sq,
                "mse_emp": point.mse[x],
                "mse_stderr": point.stderr[x],
                "mmse": point.mmse[x],
                "qcrb_coh": point.qcrb_coh[x],
                "qcrb_sq": point.qcrb_sq[x],
            }
            for x in PRIOR_TAGS
        ]

    cells = [
        (_point_label(kind, alpha_sq), (kind, alpha_sq))
        for alpha_sq in config.alpha_sqs
        for kind in PROBE_KINDS
    ]
    return _write_table(out_path, SWEEP_COLUMNS, cells, rows_of)


# ---------------------------------------------------------------------------
# bounds and diagnostics


def cmd_bounds(config: ExperimentConfig, out_path, n_points: int = 25) -> tuple[list[dict], int]:
    """Analytic prediction curves and bounds on a dense amplitude grid (no
    simulation).  The grid always contains the configured sweep amplitudes.
    Returns the rows and the number of amplitudes that failed (and wrote none)."""
    grid = est.SpectralGrid.build(config.priors())
    lo, hi = min(config.alpha_sqs), max(config.alpha_sqs)
    # geomspace(a, a, n) has interior points an ulp off a: one amplitude is one point
    dense = np.geomspace(lo, hi, n_points) if hi > lo else ()
    alphas = sorted(set(dense) | set(config.alpha_sqs))

    def rows_of(alpha_sq):
        coh = config.operating_point("coherent", alpha_sq)
        sq = config.operating_point("squeezed", alpha_sq)
        return [
            {
                "var": x,
                "alpha_sq": float(alpha_sq),
                "mmse_coh": est.analytic_mmse(x, coh, grid),
                "mmse_sq": est.analytic_mmse(x, sq, grid),
                "qcrb_coh": est.qcrb(x, coh, grid),
                "qcrb_sq": est.qcrb(x, sq, grid),
            }
            for x in PRIOR_TAGS
        ]

    cells = [(f"bounds point alpha_sq={alpha_sq:g}", alpha_sq) for alpha_sq in alphas]
    return _write_table(out_path, BOUNDS_COLUMNS, cells, rows_of)


def cmd_diagnose(config: ExperimentConfig) -> tuple[str, int]:
    """Operating-point report, one block per configured amplitude.  An
    amplitude that fails is reported (`_try_cell`) and has no block.
    Returns the report and the number of amplitudes that failed."""
    grid = est.SpectralGrid.build(config.priors())

    def block_of(alpha_sq):
        squeezed = config.operating_point("squeezed", alpha_sq)
        # beam-level quantities (effective factor, attainability) use the beam
        # moments before detection loss; a lossless coherent beam's gap is 1
        # at any tracking error, so its probe needs no calibration
        coherent = ProbeState(alpha_sq)
        lossless = replace(squeezed, eta_det=1.0)
        r_eff = effective_squeezing_factor(lossless)
        try:
            bw = SqueezingBandwidth.standard(squeezed, config.bandwidth)
        except ValueError as exc:  # r_m = 0: no bandwidths, but the rest of the block holds
            ratio_text = f"undefined: {exc}"
        else:
            ratios = {x: est.qcrb_finite_bandwidth(x, squeezed, bw, grid) / est.qcrb(x, squeezed, grid)
                      for x in PRIOR_TAGS}
            ratio_text = ", ".join(f"{x} {ratio:.4f}" for x, ratio in ratios.items())
        linearization = squeezed.sigma_phi_sq * squeezed.beam_moments()[0]
        return [
            f"alpha_sq = {alpha_sq:.3e} /s",
            f"  riccati sigma_phi^2        = {squeezed.sigma_phi_sq:.4e} rad^2",
            f"  effective R_sq (beam)      = {r_eff:.4f} ({10.0 * math.log10(r_eff):+.2f} dB)",
            f"  effective R_sq (detected)  = {effective_squeezing_factor(squeezed):.4f}",
            f"  attainability gap coherent = {attainability_gap(coherent):.6f}",
            f"  attainability gap squeezed = {attainability_gap(lossless):.4f}",
            f"  linearization sigma^2 e^2rp = {linearization:.4e} (<< 1 required)",
            f"  finite-bandwidth / broadband qcrb_sq: {ratio_text}",
        ]

    blocks = [_try_cell(f"diagnose point alpha_sq={a:g}", block_of, a) for a in config.alpha_sqs]
    lines = ["operating-point diagnostics", "=" * 60]
    lines += [line for block in blocks if block is not None for line in block]
    return "\n".join(lines), blocks.count(None)


def cmd_simulate(
    config: ExperimentConfig,
    kind: str,
    alpha_sq: float,
    dump_trajectories: bool = False,
    workers: int = 1,
) -> SweepPoint:
    """Run the Monte Carlo trials of one sweep cell, optionally dumping each
    trajectory as CSV under `config.out_dir` (`_make_dump_dir`)."""
    dump_dir = _make_dump_dir(config, kind, alpha_sq) if dump_trajectories else None
    grid = est.SpectralGrid.build(config.priors())
    return run_sweep_point(config, kind, alpha_sq, grid=grid, workers=workers, dump_dir=dump_dir)


def _make_dump_dir(config: ExperimentConfig, kind: str, alpha_sq: float) -> Path:
    """The cell's trajectory-dump directory, made after `config.out_dir` (so
    an `out_dir` that is a file reads "File exists", not "Not a directory")."""
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    dump_dir = Path(config.out_dir) / f"trajectories_{kind}_{alpha_sq:.3e}"
    dump_dir.mkdir(exist_ok=True)
    return dump_dir


# ---------------------------------------------------------------------------
# entry point


def _load_config(args) -> ExperimentConfig:
    """Reference config with the file's values and then the CLI overrides
    applied at once, so the config is built and checked once."""
    values = _read_values(args.config) if args.config else {}
    overrides = {"simulation.seed": args.seed, "simulation.n_trials": args.trials, "out_dir": args.out}
    if getattr(args, "alpha_sq", None) is not None:  # checked like a file's amplitudes
        overrides["alpha_sqs"] = (args.alpha_sq,)
    values.update((a, v) for a, v in overrides.items() if v is not None)
    return _with_values(reference_config(), values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mirrormotion",
        description="Quantum-limited mirror-motion estimation toolkit",
    )
    parser.add_argument("--config", help="configuration file (default: built-in reference values)")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--workers", type=int, default=1, help="worker processes for trials")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("sweep", help="Monte Carlo amplitude sweep against the bounds")
    sub.add_parser("bounds", help="analytic bound curves on a dense amplitude grid")
    sub.add_parser("diagnose", help="operating-point diagnostics report")
    p_sim = sub.add_parser("simulate", help="run one sweep cell")
    p_sim.add_argument("--kind", choices=PROBE_KINDS, default="squeezed")
    p_sim.add_argument("--alpha-sq", type=float, default=None)
    p_sim.add_argument("--dump-trajectories", action="store_true")
    p_cfg = sub.add_parser("write-config", help="write the canonical default config file")
    p_cfg.add_argument("path")

    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")

    failed = 0
    try:  # the one usage-error boundary (exit 2); a cell reports its own failure
        if args.command == "write-config":
            write_config(reference_config(), args.path)
            print(f"wrote {args.path}")
            return 0
        config = _load_config(args)
        out_path = Path(config.out_dir) / f"{args.command}.csv"
        if args.command == "sweep":
            rows, failed = cmd_sweep(config, out_path, args.workers)
        elif args.command == "bounds":
            rows, failed = cmd_bounds(config, out_path)
        elif args.command == "simulate" and args.dump_trajectories:
            _make_dump_dir(config, args.kind, config.alpha_sqs[-1])
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    if args.command in ("sweep", "bounds"):
        print(f"wrote {len(rows)} rows to {out_path}")
    elif args.command == "diagnose":
        text, failed = cmd_diagnose(config)
        print(text)
    elif args.command == "simulate":
        alpha_sq = config.alpha_sqs[-1]
        point = _try_cell(
            _point_label(args.kind, alpha_sq), cmd_simulate,
            config, args.kind, alpha_sq, args.dump_trajectories, args.workers,
        )
        if point is None:
            return 1
        for x in PRIOR_TAGS:
            print(
                f"{x}: mse = {point.mse[x]:.4e} +- {point.stderr[x]:.1e}, "
                f"mmse = {point.mmse[x]:.4e}, qcrb(coh) = {point.qcrb_coh[x]:.4e}, "
                f"qcrb(sq) = {point.qcrb_sq[x]:.4e}"
            )
        n_trials = config.simulation.n_trials
        print(
            f"trials: {n_trials} run, {n_trials - point.n_diverged} kept, "
            f"{point.n_diverged} diverged"
        )
        print(
            f"tracking sigma_phi^2: empirical feedback error = {point.sigma_phi_sq_emp:.4e} "
            f"(kept trials), predicted feedback error = "
            f"{point.tracker.sigma_phi_sq_feedback():.4e}, "
            f"Riccati posterior = {point.tracker.sigma_phi_sq_posterior:.4e}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
