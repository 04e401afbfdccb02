"""Batch harness: config files, amplitude sweeps, bound curves, diagnostics.

Config files are flat `section.key = value` text whose keys are those of the
`CONFIG_KEYS` table; `write-config` emits the canonical example with every key
at its reference value.  Results are plain
CSV so any plotting tool can consume them.  All commands are deterministic for
a given config and seed, independent of the worker count.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import est, sim
from .errors import require_finite
from .model import (
    ForceParams,
    MirrorParams,
    NominalTransferFunction,
    PriorModel,
    TabulatedTransferFunction,
)
from .probe import (
    ProbeState,
    SqueezingBandwidth,
    attainability_gap,
    effective_squeezing_factor,
    validate_broadband,
)

SWEEP_COLUMNS = ("var", "probe", "alpha_sq", "mse_emp", "mse_stderr", "mmse", "qcrb_coh", "qcrb_sq")
BOUNDS_COLUMNS = ("var", "alpha_sq", "mmse_coh", "mmse_sq", "qcrb_coh", "qcrb_sq")
PROBE_KINDS = ("coherent", "squeezed")


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
    tf_source: str = "nominal"
    out_dir: str = "results"

    def __post_init__(self):
        require_finite(self)
        if len(self.alpha_sqs) == 0:
            raise ValueError("need at least one probe amplitude")
        if any(a <= 0 for a in self.alpha_sqs):
            raise ValueError("probe amplitudes must be positive")
        if self.tf_source == "nominal":
            tf = NominalTransferFunction(self.mirror)
        elif Path(self.tf_source).exists():
            tf = TabulatedTransferFunction.from_csv(self.tf_source)  # raises naming the file
        else:
            raise ValueError(f"transfer-function file not found: {self.tf_source}")
        object.__setattr__(self, "_priors", PriorModel(self.mirror, self.force, tf))

    def priors(self) -> PriorModel:
        """The run's one `PriorModel`, built with the config."""
        return self._priors

    def probe_template(self, kind: str, alpha_sq: float) -> ProbeState:
        """Probe with sigma_phi_sq = 0; calibrate before using S_z."""
        if kind == "coherent":
            return ProbeState.coherent(alpha_sq, eta_det=self.eta_det)
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
    "sim.edge_discard": ("simulation.edge_discard", float),
    "sweep.alpha_sq": ("alpha_sqs", _floats),
    "transfer.source": ("tf_source", str),
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


def _score_trials(priors, probe, tracker, bank, cfg, trial_indices, dump_dir=None):
    """Run trials; returns {index: payload} with None marking diverged trials.
    Each payload's scored windows are copies, so a kept trial holds 6 x
    `n_samples` floats, not its full-length records.  With `dump_dir`, every
    trial is also written there as CSV."""
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
        for x, truth in (("q", traj.q), ("p", traj.p), ("f", traj.f)):
            estimate = est.smooth(traj.y, x, bank)
            payload[x] = (estimate[window].copy(), truth[window].copy())
        results[idx] = payload
    return results


@dataclass
class SweepPoint:
    """Scored results for one (probe kind, amplitude) cell."""

    probe: ProbeState
    mse: dict
    stderr: dict
    mmse: dict
    qcrb_coh: dict
    qcrb_sq: dict
    sigma_phi_sq_emp: float = float("nan")
    n_diverged: int = 0


def run_sweep_point(
    config: ExperimentConfig,
    kind: str,
    alpha_sq: float,
    grid: est.SpectralGrid | None = None,
    workers: int = 1,
    dump_dir=None,
) -> SweepPoint:
    """Calibrate, simulate and score one (probe kind, amplitude) cell.
    `grid`, when given, is a `est.SpectralGrid` of `config.priors()`; the
    trials simulate and filter the grid's own priors."""
    if workers < 1:
        raise ValueError("need at least one worker")
    if grid is None:
        grid = est.SpectralGrid.build(config.priors())
    priors = grid.priors
    cfg = config.simulation

    _, n_total = sim.trial_geometry(config.force, config.mirror, cfg)  # fails a short trace first
    probe = config.operating_point(kind, alpha_sq)
    tracker = sim.KalmanTracker(probe, config.force, config.mirror, cfg)
    bank = est.FilterBank.build(n_total, cfg.dt, priors, probe)

    chunks = [
        (priors, probe, tracker, bank, cfg, range(i, cfg.n_trials, workers), dump_dir)
        for i in range(workers)
    ]
    if workers > 1:
        # the trials' filters need scipy.signal: import it once here, so the
        # forked workers inherit it instead of each importing it again
        import scipy.signal  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_score_trials, *zip(*chunks)))
    else:
        parts = [_score_trials(*chunks[0])]
    results = {idx: payload for part in parts for idx, payload in part.items()}

    # reduction keyed by trial index, so the outcome is pool-size independent
    kept = [results[i] for i in sorted(results) if results[i] is not None]
    n_diverged = sum(1 for v in results.values() if v is None)
    sigma_emp = [payload["sigma_phi_sq"] for payload in kept]
    mse, stderr = {}, {}
    for x in ("q", "p", "f"):
        estimates = [payload[x][0] for payload in kept]
        truths = [payload[x][1] for payload in kept]
        mse[x], stderr[x] = est.empirical_mse(estimates, truths, cfg)

    coh = config.probe_template("coherent", alpha_sq)
    sq = config.probe_template("squeezed", alpha_sq)
    return SweepPoint(
        probe=probe,
        mse=mse,
        stderr=stderr,
        mmse={x: est.analytic_mmse(x, probe, grid) for x in ("q", "p", "f")},
        qcrb_coh={x: est.qcrb(x, coh, grid) for x in ("q", "p", "f")},
        qcrb_sq={x: est.qcrb(x, sq, grid) for x in ("q", "p", "f")},
        sigma_phi_sq_emp=float(np.mean(sigma_emp)) if sigma_emp else float("nan"),
        n_diverged=n_diverged,
    )


def _point_label(kind: str, alpha_sq: float) -> str:
    return f"sweep point (kind={kind}, alpha_sq={alpha_sq:g})"


def _write_table(path, columns, cells, rows_of) -> tuple[list[dict], int]:
    """Write a CSV table one cell at a time.  `cells` are (label, cell) pairs
    and `rows_of(cell)` builds a cell's rows in full before any is written;
    a cell that raises is reported on stderr, writes no rows and counts as
    failed, and the table keeps every other cell.  Returns the rows written
    and the number of failed cells."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows, failed = [], 0
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for label, cell in cells:
            try:
                cell_rows = rows_of(cell)
            except Exception as exc:  # report the cell, keep the partial table
                print(f"{label} failed: {exc}", file=sys.stderr)
                failed += 1
                continue
            for row in cell_rows:
                fields = (row[col] for col in columns)
                text = (repr(v) if isinstance(v, float) else str(v) for v in fields)
                fh.write(",".join(text) + "\n")
            fh.flush()
            rows += cell_rows
    return rows, failed


def cmd_sweep(
    config: ExperimentConfig, out_path=None, workers: int = 1
) -> tuple[list[dict], int]:
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
            for x in ("q", "p", "f")
        ]

    cells = [
        (_point_label(kind, alpha_sq), (kind, alpha_sq))
        for alpha_sq in config.alpha_sqs
        for kind in PROBE_KINDS
    ]
    out_path = out_path or Path(config.out_dir) / "sweep.csv"
    return _write_table(out_path, SWEEP_COLUMNS, cells, rows_of)


# ---------------------------------------------------------------------------
# bounds and diagnostics


def cmd_bounds(
    config: ExperimentConfig, out_path=None, n_points: int = 25
) -> tuple[list[dict], int]:
    """Analytic prediction curves and bounds on a dense amplitude grid (no
    simulation).  The grid always contains the configured sweep amplitudes.
    Returns the rows and the number of amplitudes that failed (and wrote none)."""
    grid = est.SpectralGrid.build(config.priors())
    lo, hi = min(config.alpha_sqs), max(config.alpha_sqs)
    alphas = sorted(set(np.geomspace(lo, hi, n_points)) | set(config.alpha_sqs))

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
            for x in ("q", "p", "f")
        ]

    cells = [(f"bounds point alpha_sq={alpha_sq:g}", alpha_sq) for alpha_sq in alphas]
    out_path = out_path or Path(config.out_dir) / "bounds.csv"
    return _write_table(out_path, BOUNDS_COLUMNS, cells, rows_of)


@dataclass
class DiagnosticsPoint:
    alpha_sq: float
    sigma_phi_sq: float
    r_sq_eff: float
    r_sq_eff_db: float
    r_sq_detected: float
    attainability_coherent: float
    attainability_squeezed: float
    linearization_check: float
    broadband: object


def diagnose_point(config: ExperimentConfig, alpha_sq: float) -> DiagnosticsPoint:
    squeezed = config.operating_point("squeezed", alpha_sq)
    coherent = config.operating_point("coherent", alpha_sq)
    # beam-level quantities (effective factor, attainability) use the beam
    # moments before detection loss
    lossless = replace(squeezed, eta_det=1.0)
    r_eff = effective_squeezing_factor(lossless)
    bw = SqueezingBandwidth.standard(squeezed, config.bandwidth)
    return DiagnosticsPoint(
        alpha_sq=alpha_sq,
        sigma_phi_sq=squeezed.sigma_phi_sq,
        r_sq_eff=r_eff,
        r_sq_eff_db=10.0 * math.log10(r_eff),
        r_sq_detected=effective_squeezing_factor(squeezed),
        attainability_coherent=attainability_gap(replace(coherent, eta_det=1.0)),
        attainability_squeezed=attainability_gap(lossless),
        linearization_check=squeezed.sigma_phi_sq * math.exp(2.0 * squeezed.r_p),
        broadband=validate_broadband(bw, config.mirror.Omega, config.force.lam, squeezed),
    )


def cmd_diagnose(config: ExperimentConfig) -> str:
    lines = ["operating-point diagnostics", "=" * 60]
    for alpha_sq in config.alpha_sqs:
        d = diagnose_point(config, alpha_sq)
        b = d.broadband
        lines += [
            f"alpha_sq = {alpha_sq:.3e} /s",
            f"  riccati sigma_phi^2        = {d.sigma_phi_sq:.4e} rad^2",
            f"  effective R_sq (beam)      = {d.r_sq_eff:.4f} ({d.r_sq_eff_db:+.2f} dB)",
            f"  effective R_sq (detected)  = {d.r_sq_detected:.4f}",
            f"  attainability gap coherent = {d.attainability_coherent:.6f}",
            f"  attainability gap squeezed = {d.attainability_squeezed:.4f}",
            f"  linearization sigma^2 e^2rp = {d.linearization_check:.4e} (<< 1 required)",
            f"  broadband: bandwidth ratio {b.bandwidth_ratio:.2f} [{b.bandwidth_status}], "
            f"flux ratio {b.flux_ratio:.3f} [{b.flux_status}] -> {b.status}",
        ]
    return "\n".join(lines)


def cmd_simulate(
    config: ExperimentConfig,
    kind: str,
    alpha_sq: float,
    dump_trajectories: bool = False,
    workers: int = 1,
) -> SweepPoint:
    """Run the Monte Carlo trials of one sweep cell, optionally dumping each
    trajectory as CSV under `config.out_dir`."""
    dump_dir = None
    if dump_trajectories:
        dump_dir = Path(config.out_dir) / f"trajectories_{kind}_{alpha_sq:.3e}"
        dump_dir.mkdir(parents=True, exist_ok=True)
    return run_sweep_point(config, kind, alpha_sq, workers=workers, dump_dir=dump_dir)


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

    if args.command == "write-config":
        try:
            write_config(reference_config(), args.path)
        except OSError as exc:  # e.g. a parent path that is a file
            parser.error(str(exc))
        print(f"wrote {args.path}")
        return 0

    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:  # a bad value or an unreadable file
        parser.error(str(exc))
    failed = 0
    if args.command == "sweep":
        rows, failed = cmd_sweep(config, workers=args.workers)
        print(f"wrote {len(rows)} rows to {Path(config.out_dir) / 'sweep.csv'}")
    elif args.command == "bounds":
        rows, failed = cmd_bounds(config)
        print(f"wrote {len(rows)} rows to {Path(config.out_dir) / 'bounds.csv'}")
    elif args.command == "diagnose":
        print(cmd_diagnose(config))
    elif args.command == "simulate":
        alpha_sq = config.alpha_sqs[-1]
        try:
            point = cmd_simulate(
                config, args.kind, alpha_sq, args.dump_trajectories, workers=args.workers
            )
        except Exception as exc:  # reported like a failed sweep cell
            print(f"{_point_label(args.kind, alpha_sq)} failed: {exc}", file=sys.stderr)
            return 1
        for x in ("q", "p", "f"):
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
            f"(kept trials), Riccati posterior = {point.probe.sigma_phi_sq:.4e}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
