"""Time-domain Monte Carlo engine.

A trial lives on an extended grid: the scored data window plus stationary
force-bearing margins of PAD_CORRELATION_TIMES times the longest correlation
time of the problem (max of the force time 1/lam and the mechanical ringdown
2/gamma) on each side.  The margins serve three purposes at once: they give
the smoother real two-sided data around every scored sample, they let the
feedback tracker converge before the data window starts, and they push FFT
wrap-around effects exp(-PAD_CORRELATION_TIMES) below the Monte Carlo noise.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import RiccatiError, require_finite
from .model import ForceParams, MirrorParams, PriorModel, TransferFunction, force_gains
from .probe import ProbeState, measurement_noise_psd

MODE_LINEARIZED = "linearized"
MODE_NONLINEAR = "nonlinear"

#: Margin/padding length in units of the longest correlation time.
PAD_CORRELATION_TIMES = 10.0

#: calibrate_tracking stops when sigma_phi^2 changes by at most this fraction,
#: and fails after CALIBRATION_MAX_ITER steps.
CALIBRATION_RTOL = 1e-10
CALIBRATION_MAX_ITER = 60

#: Samples the nonlinear tracker converts to Python floats at a time.
TRACKER_BLOCK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings.

    `n_samples` counts only the scored data window; margins are added
    internally (`trial_geometry`).  `edge_discard` seconds, `n_edge` samples,
    are trimmed from each end of the data window before scoring.
    """

    dt: float = 1e-7
    n_samples: int = 10_000
    n_trials: int = 300
    seed: int = 424242
    mode: str = MODE_LINEARIZED
    feedback_delay_samples: int = 4
    edge_discard: float = 1e-4

    def __post_init__(self):
        require_finite(self)
        if self.dt <= 0:
            raise ValueError("sample period must be positive")
        if self.n_samples < 2:
            raise ValueError("need at least two samples")
        if self.n_trials < 2:  # every command scores a standard error
            raise ValueError("need at least two trials")
        if self.mode not in (MODE_LINEARIZED, MODE_NONLINEAR):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.feedback_delay_samples < 0:
            raise ValueError("feedback delay must be nonnegative")
        if self.edge_discard < 0:
            raise ValueError("edge discard must be nonnegative")
        try:
            too_wide = 2 * self.n_edge >= self.n_samples
        except OverflowError:  # edge_discard / dt beyond the float range
            too_wide = True
        if too_wide:
            raise ValueError("edge discard leaves no scoring window")

    @property
    def n_edge(self) -> int:
        """Samples trimmed from each end of the data window before scoring."""
        return int(round(self.edge_discard / self.dt))


def _lfilter(b, a, x) -> np.ndarray:
    """`scipy.signal.lfilter`, imported on the first call: only a trial
    filters, and the import costs about a second that `bounds`, `diagnose`
    and calibration never need."""
    import scipy.signal

    return scipy.signal.lfilter(b, a, x)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial (stable in trial count).

    The stream is the `trial_index`-th child of `SeedSequence(seed).spawn`,
    built directly from its spawn key in O(1).
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial_index,)))


def trial_geometry(force: ForceParams, params: MirrorParams, cfg: SimConfig) -> tuple[int, int]:
    """(n_margin, n_total): samples of margin on each side of the data window,
    and the FFT-friendly length of the whole extended grid.  The data window
    must span at least ten force correlation times."""
    duration = cfg.n_samples * cfg.dt
    if duration < 10.0 / force.lam:
        raise ValueError(
            f"trace length {duration:g} s is shorter than ten force "
            f"correlation times ({10.0 / force.lam:g} s)"
        )
    tau = max(force.correlation_time, 2.0 / params.gamma if params.gamma > 0 else 0.0)
    n_margin = int(math.ceil(PAD_CORRELATION_TIMES * tau / cfg.dt))
    return n_margin, scipy.fft.next_fast_len(cfg.n_samples + 2 * n_margin)


# ---------------------------------------------------------------------------
# signal generation


def simulate_ou(force: ForceParams, cfg: SimConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """`n` exact-discretization Ornstein-Uhlenbeck force samples.

    f[k+1] = e^{-lam dt} f[k] + eps[k] with Var(eps) = kappa(1-e^{-2 lam dt})/(2 lam)
    and f[0] drawn from the stationary distribution, so every sample is exactly
    stationary at any step size.
    """
    a = math.exp(-force.lam * cfg.dt)
    innovation_std = math.sqrt(force.stationary_variance * (1.0 - a * a))
    drive = rng.normal(0.0, innovation_std, n)
    drive[0] = rng.normal(0.0, math.sqrt(force.stationary_variance))
    return _lfilter([1.0], [1.0, -a], drive)


def mirror_response(
    f: np.ndarray,
    tf: TransferFunction,
    params: MirrorParams,
    cfg: SimConfig,
    pad_samples: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mechanical response (q, p, phi) to a force record via FFT convolution
    with the force-referred gains g_qf and g_pf of `model.force_gains`.

    The transform grid is zero-padded by `pad_samples` (the margin of
    `trial_geometry`) so the circular wrap-around of the response kernel is
    suppressed; the returned arrays match the input length.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    n_fft = scipy.fft.next_fast_len(n + pad_samples)
    # force spectrum before the gain table: the other order leaves heap holes
    # that raised a 300-trial serial sweep's peak RSS by ~12%
    spectrum = scipy.fft.rfft(f, n_fft, axis=-1)
    gains = force_gains(2.0 * np.pi * np.fft.rfftfreq(n_fft, cfg.dt), tf, params)
    q = scipy.fft.irfft(gains["q"] * spectrum, n_fft, axis=-1)[..., :n]
    p = scipy.fft.irfft(gains["p"] * spectrum, n_fft, axis=-1)[..., :n]
    return q, p, params.phase_gain * q


# ---------------------------------------------------------------------------
# real-time phase tracking


def _discretize(a_c: np.ndarray, q_c: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (Van Loan) discretization of dx = A x dt + noise with intensity Q."""
    n = a_c.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = -a_c
    blk[:n, n:] = q_c
    blk[n:, n:] = a_c.T
    e = scipy.linalg.expm(blk * dt)
    a_d = e[n:, n:].T
    q_d = a_d @ e[:n, n:]
    return a_d, 0.5 * (q_d + q_d.T)


@functools.lru_cache(maxsize=64)
def _tracker_model(
    params: MirrorParams, force: ForceParams, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only discretized (a_d, q_d) of the tracker's state model (q, p, f).

    They do not depend on the probe, so every tracker of one mirror, force
    and sample period (all the steps of `calibrate_tracking`, every cell of
    a sweep) shares one Van Loan exponential.
    """
    m = params.m
    a_c = np.array(
        [
            [0.0, 1.0 / m, 0.0],
            [-m * params.Omega**2, -params.gamma, 1.0],
            [0.0, 0.0, -force.lam],
        ]
    )
    q_c = np.diag([0.0, 0.0, force.kappa])
    a_d, q_d = _discretize(a_c, q_c, dt)
    a_d.flags.writeable = q_d.flags.writeable = False
    return a_d, q_d


class KalmanTracker:
    """Steady-state Kalman predictor of the optical phase for feedback.

    The internal model is the nominal mass-spring-damper system with state
    (q, p, f), the force an Ornstein-Uhlenbeck process, and the measurement
    y = 2 k0 cos(theta) q + noise of per-sample variance S_z/dt.  The gain is
    the stationary discrete Riccati solution; the y -> phase-prediction map is
    then a fixed third-order IIR filter.
    """

    def __init__(
        self, probe: ProbeState, force: ForceParams, params: MirrorParams, cfg: SimConfig
    ):
        self.cfg = cfg
        self.a_d, self.q_d = _tracker_model(params, force, cfg.dt)
        self.c_vec = np.array([params.phase_gain, 0.0, 0.0])
        self.r = measurement_noise_psd(probe) / cfg.dt

        try:
            self.p_pred = scipy.linalg.solve_discrete_are(
                self.a_d.T, self.c_vec[:, None], self.q_d, np.array([[self.r]])
            )
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise RiccatiError(f"steady-state Riccati solve failed: {exc}") from exc
        s = float(self.c_vec @ self.p_pred @ self.c_vec) + self.r
        self.gain = self.p_pred @ self.c_vec / s
        self.p_post = self.p_pred - np.outer(self.gain, self.c_vec @ self.p_pred)
        a_cl = self.a_d @ (np.eye(3) - np.outer(self.gain, self.c_vec))
        rho = float(np.max(np.abs(np.linalg.eigvals(a_cl))))
        if rho >= 1.0:
            raise RiccatiError(f"closed-loop tracker is unstable (spectral radius {rho:.6f})")
        self._rho = rho
        self._a_cl = a_cl

    @property
    def sigma_phi_sq_posterior(self) -> float:
        """Steady-state posterior phase MSE, c^2 P_post[q, q]."""
        return float(self.c_vec @ self.p_post @ self.c_vec)

    @property
    def sigma_phi_sq_prediction(self) -> float:
        """One-step-prediction phase MSE, c^2 P_pred[q, q]."""
        return float(self.c_vec @ self.p_pred @ self.c_vec)

    def sigma_phi_sq_feedback(self) -> float:
        """Phase MSE of the feedback signal, a one-step prediction applied
        d = `cfg.feedback_delay_samples` samples late: E[(phi_k - phihat_{k-d})^2]."""
        d = self.cfg.feedback_delay_samples
        sigma_x = scipy.linalg.solve_discrete_lyapunov(self.a_d, self.q_d)
        a_pow = np.linalg.matrix_power(self.a_d, d)
        drift = a_pow - np.eye(3)
        cov = a_pow @ self.p_pred @ a_pow.T + drift @ (sigma_x - self.p_pred) @ drift.T
        step = np.eye(3)
        for _ in range(d):
            cov = cov + step @ self.q_d @ step.T
            step = step @ self.a_d
        return float(self.c_vec @ cov @ self.c_vec)

    @property
    def settle_samples(self) -> int:
        """Samples until the slowest closed-loop transient has decayed by e^-8."""
        return int(math.ceil(8.0 / -math.log(self._rho)))

    @functools.cached_property
    def _iir(self) -> tuple[np.ndarray, np.ndarray]:
        """(numerator, denominator) of the y -> phase-prediction filter, built
        on first use: calibration builds trackers that never filter.  These
        are the characteristic polynomials `scipy.signal.ss2tf` forms for
        (A, B, C, D) = (a_cl, a_d gain, c, 0), with the same numpy calls."""
        den = np.poly(self._a_cl)
        num = np.poly(self._a_cl - np.outer(self.a_d @ self.gain, self.c_vec)) - den
        return num, den

    def predict_series(self, y: np.ndarray) -> np.ndarray:
        """Causal one-step phase predictions phihat_k from a measurement record."""
        return _lfilter(*self._iir, y)


def calibrate_tracking(
    probe: ProbeState,
    force: ForceParams,
    params: MirrorParams,
    cfg: SimConfig,
) -> ProbeState:
    """Self-consistent operating point: sigma_phi^2 feeds the effective
    squeezing factor, which sets S_z, which feeds the Riccati solution back.

    The map is a mild contraction (the factor depends weakly on sigma_phi^2),
    so plain fixed-point iteration converges in a few steps.
    """
    state = replace(probe, sigma_phi_sq=0.0)
    value = 0.0
    for _ in range(CALIBRATION_MAX_ITER):
        new = KalmanTracker(state, force, params, cfg).sigma_phi_sq_posterior
        state = replace(state, sigma_phi_sq=new)
        if abs(new - value) <= CALIBRATION_RTOL * max(new, 1e-30):
            return state
        value = new
    raise RiccatiError("tracking operating point did not converge")


@dataclass
class TrackingResult:
    y: np.ndarray
    phi_fb: np.ndarray
    sigma_phi_sq: float
    diverged: bool = False


def _delayed(series: np.ndarray, d: int) -> np.ndarray:
    if d == 0:
        return series
    out = np.empty_like(series)
    out[:d] = series[0]
    out[d:] = series[:-d]
    return out


def _track_nonlinear(
    phi: np.ndarray,
    noise_scale: np.ndarray,
    tracker: KalmanTracker,
    d: int,
    ep: float,
    em: float,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Closed-loop homodyne record y, one-step predictions phi_hat and the
    divergence flag of the nonlinear tracker, fed back d samples late.

    The feedback makes every sample depend on the previous ones, so this is a
    per-sample loop.  It runs on Python floats (the same IEEE-754 double
    operations, in the same order, as numpy float64 scalars, several times
    faster), converted TRACKER_BLOCK samples at a time so the number of
    float objects alive stays bounded.
    """
    n = phi.shape[0]
    y = np.empty(n)
    phi_hat = np.empty(n)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = tracker.a_d.tolist()
    k0, k1, k2 = tracker.gain.tolist()
    c = float(tracker.c_vec[0])
    ep, em = float(ep), float(em)
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    half_pi = 0.5 * math.pi
    x0 = x1 = x2 = 0.0
    pending = deque([0.0] * d)  # predictions made but not yet fed back
    diverged = False
    for j in range(0, n, TRACKER_BLOCK):
        block = slice(j, j + TRACKER_BLOCK)
        ys = []
        hats = []
        for phi_k, w in zip(phi[block].tolist(), noise_scale[block].tolist()):
            ph = c * x0
            hats.append(ph)
            pending.append(ph)
            fb = pending.popleft()
            delta = phi_k - fb
            if abs(delta) > half_pi:
                diverged = True
            s = sin(delta)
            co = cos(delta)
            yk = s + w * sqrt(s * s * ep + co * co * em) + fb
            ys.append(yk)
            innov = yk - ph
            x0p = x0 + k0 * innov
            x1p = x1 + k1 * innov
            x2p = x2 + k2 * innov
            x0 = a00 * x0p + a01 * x1p + a02 * x2p
            x1 = a10 * x0p + a11 * x1p + a12 * x2p
            x2 = a20 * x0p + a21 * x1p + a22 * x2p
        y[block] = ys
        phi_hat[block] = hats
    return y, phi_hat, diverged


def run_tracking(
    phi: np.ndarray,
    probe: ProbeState,
    tracker: KalmanTracker,
    cfg: SimConfig,
    rng: np.random.Generator,
) -> TrackingResult:
    """Synthesize the homodyne record and the real-time feedback phase.

    Linearized mode: y = phi + z with z white of per-sample variance S_z/dt.
    Nonlinear mode: the normalized homodyne output sin(phi - phi') plus
    phase-dependent quadrature noise, offset back by the feedback phase; a
    trial is flagged diverged when |phi - phi'| exceeds pi/2.

    The empirical sigma_phi^2 is averaged over the steady-state region (after
    the closed-loop transient has settled).
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0]
    d = cfg.feedback_delay_samples
    diverged = False

    if cfg.mode == MODE_LINEARIZED:
        z = rng.normal(0.0, math.sqrt(measurement_noise_psd(probe) / cfg.dt), n)
        y = phi + z
        phi_fb = _delayed(tracker.predict_series(y), d)
    else:
        ep, em = probe.detected_moments()
        noise_scale = rng.normal(0.0, 1.0, n) / (
            2.0 * math.sqrt(probe.eta_det * probe.alpha_sq * cfg.dt)
        )
        y, phi_hat, diverged = _track_nonlinear(phi, noise_scale, tracker, d, ep, em)
        phi_fb = _delayed(phi_hat, d)

    start = min(tracker.settle_samples, n // 2)
    err = phi[start:] - phi_fb[start:]
    return TrackingResult(
        y=y, phi_fb=phi_fb, sigma_phi_sq=float(np.mean(err**2)), diverged=diverged
    )


# ---------------------------------------------------------------------------
# full trials


@dataclass
class Trajectory:
    """One simulated trial on the extended grid.

    t = 0 marks the start of the scored data window; the margins carry real
    (stationary) force so every scored sample sees stationary statistics.
    """

    t: np.ndarray
    f: np.ndarray
    q: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    phi_fb: np.ndarray
    y: np.ndarray
    data_start: int
    n_data: int
    sigma_phi_sq: float = float("nan")
    diverged: bool = False

    @property
    def data_slice(self) -> slice:
        return slice(self.data_start, self.data_start + self.n_data)

    def to_csv(self, path) -> None:
        header = "t,f,q,p,phi,phi_fb,y"
        table = np.column_stack([self.t, self.f, self.q, self.p, self.phi, self.phi_fb, self.y])
        np.savetxt(path, table, delimiter=",", header=header, comments="")


def simulate_trial(
    priors: PriorModel,
    probe: ProbeState,
    tracker: KalmanTracker,
    cfg: SimConfig,
    rng: np.random.Generator,
) -> Trajectory:
    """Generate one force/motion/measurement trial on the extended grid."""
    n_margin, n_total = trial_geometry(priors.force, priors.params, cfg)
    f = simulate_ou(priors.force, cfg, rng, n=n_total)
    q, p, phi = mirror_response(f, priors.tf, priors.params, cfg, pad_samples=n_margin)
    tracked = run_tracking(phi, probe, tracker, cfg, rng)
    t = (np.arange(n_total) - n_margin) * cfg.dt
    return Trajectory(
        t=t,
        f=f,
        q=q,
        p=p,
        phi=phi,
        phi_fb=tracked.phi_fb,
        y=tracked.y,
        data_start=n_margin,
        n_data=cfg.n_samples,
        sigma_phi_sq=tracked.sigma_phi_sq,
        diverged=tracked.diverged,
    )
