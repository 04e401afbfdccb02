"""Time-domain Monte Carlo engine.

A trial lives on an extended grid: the scored data window plus stationary
force-bearing margins of PAD_CORRELATION_TIMES times the longest correlation
time of the problem (max of the force time 1/lam and the mechanical ringdown
2/gamma) on each side.  The margins serve the truth and the tracker: they
push the wrap-around of `mirror_response`'s FFT convolution,
exp(-PAD_CORRELATION_TIMES), below the Monte Carlo noise, and they let the
feedback tracker converge before the data window starts.  The smoother
reads only its reach on either side of the window (`est.smoother_reach`,
`cli.run_sweep_point`), the whole record only when its reach is the margin
or more.

A trial's force, mirror response and unit measurement noise depend on its
generator, not on the probe, and every cell of a sweep draws trial i from
the same `trial_rng(seed, i)`.  So `simulate_trial` keeps the last trial's
draws, read-only, and a serial sweep, which runs trial i of every cell
before trial i + 1 (`cli.cmd_sweep`), draws each trial's truth once.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import RiccatiError, require_finite
from .model import ForceParams, MirrorParams, NominalTransferFunction, PriorModel
from .probe import ProbeState, measurement_noise_psd, noise_psd_at_tracking_error

MODE_LINEARIZED = "linearized"
MODE_NONLINEAR = "nonlinear"

#: Margin/padding length in units of the longest correlation time.
PAD_CORRELATION_TIMES = 10.0

#: Longest extended grid `trial_geometry` accepts: 134 MB per float64 record,
#: of which a trial holds about 11 at its peak.
MAX_TRIAL_SAMPLES = 2**24

#: calibrate_tracking stops when sigma_phi^2 changes by at most this fraction,
#: and fails after CALIBRATION_MAX_ITER steps.
CALIBRATION_RTOL = 1e-10
CALIBRATION_MAX_ITER = 60

#: Gauss-Legendre nodes per panel of the tracker's phase-spectrum integral;
#: a tracker fails when twice as many nodes move the integral by more than
#: SPECTRAL_RTOL of its value.
SPECTRAL_NODES = 16
SPECTRAL_RTOL = 1e-10

#: Samples the nonlinear tracker converts to Python floats at a time.
TRACKER_BLOCK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings.

    `n_samples` counts only the scored data window; margins are added
    internally (`trial_geometry`), and every sample of the window is scored.
    """

    dt: float = 1e-7
    n_samples: int = 10_000
    n_trials: int = 300
    seed: int = 424242
    mode: str = MODE_LINEARIZED
    feedback_delay_samples: int = 4

    def __post_init__(self):
        require_finite(self)
        if self.dt <= 0:
            raise ValueError("sample period must be positive")
        if self.n_samples < 2:
            raise ValueError("need at least two samples")
        if self.n_trials < 2:  # every command scores a standard error
            raise ValueError("need at least two trials")
        if self.seed < 0:  # numpy seeds are nonnegative
            raise ValueError("seed must be nonnegative")
        if self.mode not in (MODE_LINEARIZED, MODE_NONLINEAR):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.feedback_delay_samples < 0:
            raise ValueError("feedback delay must be nonnegative")
        if self.feedback_delay_samples >= self.n_samples:
            raise ValueError("feedback delay must be shorter than the data window")


# scipy modules are imported inside the functions that use them, so importing
# the package, building a config or a spectral grid loads none; `bounds` and
# `diagnose` load `scipy.linalg` (calibration) but never `scipy.fft`, and
# `scipy.signal`, ~0.35 s to import, loads only where a trial filters.


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial (stable in trial count).

    The stream is the `trial_index`-th child of `SeedSequence(seed).spawn`,
    built directly from its spawn key in O(1).
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial_index,)))


def trial_geometry(priors: PriorModel, cfg: SimConfig) -> tuple[int, int]:
    """(n_margin, n_total): samples of margin on each side of the data window,
    and the length of the whole extended grid, a fast complex-FFT length
    (`scipy.fft.next_fast_len`).  The data window must span at least ten
    force correlation times, and the grid must hold at most
    MAX_TRIAL_SAMPLES samples."""
    import scipy.fft

    force = priors.force
    duration = cfg.n_samples * cfg.dt
    if duration < 10.0 / force.lam:
        raise ValueError(
            f"trace length {duration:g} s is shorter than ten force "
            f"correlation times ({10.0 / force.lam:g} s)"
        )
    tau = max(force.correlation_time, 2.0 / priors.params.gamma)
    margin = PAD_CORRELATION_TIMES * tau / cfg.dt
    # the unpadded length first: past the cap, `math.ceil` and `next_fast_len`
    # overflow or take seconds; MAX_TRIAL_SAMPLES is a fast length, so padding
    # never takes a grid that passes this test past it
    n_total = cfg.n_samples + 2.0 * margin
    if n_total <= MAX_TRIAL_SAMPLES:
        n_margin = math.ceil(margin)
        n_total = scipy.fft.next_fast_len(cfg.n_samples + 2 * n_margin)
    if n_total > MAX_TRIAL_SAMPLES:
        raise ValueError(
            f"a trial of {n_total:.6g} samples ({margin:.6g} of margin on each side of the "
            f"{cfg.n_samples}-sample window) exceeds {MAX_TRIAL_SAMPLES} samples"
        )
    return n_margin, n_total


# ---------------------------------------------------------------------------
# signal generation


def simulate_ou(force: ForceParams, cfg: SimConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """`n` exact-discretization Ornstein-Uhlenbeck force samples.

    f[k+1] = e^{-lam dt} f[k] + eps[k] with Var(eps) = kappa(1-e^{-2 lam dt})/(2 lam)
    and f[0] drawn from the stationary distribution, so every sample is exactly
    stationary at any step size.
    """
    import scipy.signal

    a = math.exp(-force.lam * cfg.dt)
    innovation_std = math.sqrt(force.stationary_variance * (1.0 - a * a))
    drive = rng.normal(0.0, innovation_std, n)
    drive[0] = rng.normal(0.0, math.sqrt(force.stationary_variance))
    return scipy.signal.lfilter([1.0], [1.0, -a], drive)


def mirror_response(
    f: np.ndarray, params: MirrorParams, cfg: SimConfig, pad_samples: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mechanical response (q, p, phi) to a force record via FFT convolution
    with the force-referred gains g_qf and g_pf = i m w g_qf (as
    `model.force_gains` builds them, the phi and f gains left out).

    The transform grid is zero-padded by `pad_samples` (the margin of
    `trial_geometry`) so the circular wrap-around of the response kernel is
    suppressed; the returned arrays match the input length and own their
    memory, so they do not keep the `n_fft`-point transforms alive.
    """
    import scipy.fft

    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    n_fft = scipy.fft.next_fast_len(n + pad_samples)
    # force spectrum before the gain table: the other order leaves heap holes
    # that raised a 300-trial serial sweep's peak RSS by ~12%
    spectrum = scipy.fft.rfft(f, n_fft, axis=-1)
    w = 2.0 * np.pi * np.fft.rfftfreq(n_fft, cfg.dt)
    q_spec = NominalTransferFunction(params)(w)
    p_spec = 1j * params.m * w * q_spec
    del w
    q_spec *= spectrum  # each gain becomes its response spectrum in place
    p_spec *= spectrum
    del spectrum
    q = scipy.fft.irfft(q_spec, n_fft, axis=-1)[..., :n].copy()
    del q_spec
    p = scipy.fft.irfft(p_spec, n_fft, axis=-1)[..., :n].copy()
    return q, p, params.phase_gain * q


# ---------------------------------------------------------------------------
# real-time phase tracking


def _discretize(a_c: np.ndarray, q_c: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (Van Loan) discretization of dx = A x dt + noise with intensity Q."""
    import scipy.linalg

    n = a_c.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = -a_c
    blk[:n, n:] = q_c
    blk[n:, n:] = a_c.T
    e = scipy.linalg.expm(blk * dt)
    a_d = e[n:, n:].T
    q_d = a_d @ e[:n, n:]
    return a_d, 0.5 * (q_d + q_d.T)


def _phase_spectrum_panels(priors: PriorModel, dt: float) -> np.ndarray:
    """Panel edges on [0, pi] for the tracker's phase spectrum: geometric
    around the resonance Omega dt in steps of its width gamma dt (2^-3 to
    2^13 widths), and in octaves around gamma dt, lambda dt and Omega dt,
    where the spectrum turns over."""
    resonance, width = priors.params.Omega * dt, priors.params.gamma * dt
    edges = {0.0, math.pi}
    steps = width * 2.0 ** np.arange(-3, 14)
    edges.update(resonance - steps)
    edges.update(resonance + steps)
    for corner in (width, priors.force.lam * dt, resonance):
        edges.update(corner * 2.0 ** np.arange(-10, 11))
    return np.array(sorted(e for e in edges if 0.0 <= e <= math.pi))


def _phase_spectrum(
    a_d: np.ndarray, q_d: np.ndarray, c: float, edges: np.ndarray, nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(weights, S_phi) at the `nodes`-point Gauss-Legendre nodes theta of
    every panel between `edges`: the discrete phase spectrum
    S_phi = c^2 [G q_d G^H]_00 of the tracker's model, G = (e^{i theta} I - a_d)^-1."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2
    theta = (lo + half * (x + 1.0)).ravel()
    weights = (half * w).ravel()
    g = np.linalg.inv(np.exp(1j * theta)[:, None, None] * np.eye(3) - a_d)[:, 0, :]
    s_phi = c * c * np.einsum("ni,ij,nj->n", g, q_d, g.conj()).real
    if s_phi.min() < 0.0:  # ln(1 + S_phi/r) needs S_phi >= 0
        raise RiccatiError(f"the tracker's phase spectrum is negative (min {s_phi.min():.3g})")
    return weights, s_phi


@functools.lru_cache(maxsize=64)
def _tracker_model(
    priors: PriorModel, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Read-only discretized (a_d, q_d) of the tracker's state model (q, p, f),
    its measurement row c_vec and its phase spectrum (`_phase_spectrum`) on
    `SPECTRAL_NODES` and twice as many nodes per panel, as
    (weights, fine weights, S_phi): one S_phi array holds the coarse table
    and then the fine one, so a tracker takes the logarithm of both in one
    pass.

    None of them depends on the probe, so every tracker of equal `PriorModel`s
    and one sample period (all the steps of `calibrate_tracking`, every cell
    of a sweep) shares one Van Loan exponential and one spectrum table.
    c_vec is exactly [phase_gain, 0, 0]: the tracker measures position only,
    so its phase spectrum is c^2 times that of q (row 0 of G), and a test
    pins c_vec.
    """
    params, force = priors.params, priors.force
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
    c_vec = np.array([params.phase_gain, 0.0, 0.0])
    edges = _phase_spectrum_panels(priors, dt)
    (w, s_phi), (w_fine, s_phi_fine) = (
        _phase_spectrum(a_d, q_d, params.phase_gain, edges, nodes)
        for nodes in (SPECTRAL_NODES, 2 * SPECTRAL_NODES)
    )
    spectrum = (w, w_fine, np.concatenate((s_phi, s_phi_fine)))
    for array in (a_d, q_d, c_vec, *spectrum):
        array.flags.writeable = False
    return a_d, q_d, c_vec, spectrum


class KalmanTracker:
    """Steady-state Kalman predictor of the optical phase for feedback.

    The internal model is the nominal mass-spring-damper system with state
    (q, p, f), the force an Ornstein-Uhlenbeck process, and the measurement
    y = 2 k0 cos(theta) q + noise of per-sample variance r = S_z/dt.  The
    white-noise PSD `noise_psd` = S_z [rad^2 s] (`probe.measurement_noise_psd`)
    is all the tracker needs of the probe.

    Its phase errors come from the spectrum of its model (Kolmogorov-Szego):
    the one-step innovation variance c^2 P + r of y_k = phi_k + v_k is the
    geometric mean r e^L of the spectrum of y, with
    L = (1/pi) int_0^pi ln(1 + S_phi(theta)/r) dtheta.  So calibration, which
    needs only the posterior error, solves no Riccati equation.  The
    stationary filter (`_steady_state`: the Riccati solution, the gain, the
    settling time and the y -> phase-prediction IIR) is built once, on first
    use, when the tracker filters or reports its feedback error.
    """

    def __init__(self, noise_psd: float, priors: PriorModel, cfg: SimConfig):
        if not 0.0 < noise_psd < math.inf:  # a NaN fails too
            raise ValueError(f"noise_psd must be positive and finite, got {noise_psd!r}")
        self.cfg = cfg
        self.a_d, self.q_d, self.c_vec, (w, w_fine, s_phi) = _tracker_model(priors, cfg.dt)
        self.r = noise_psd / cfg.dt
        log_term = s_phi / self.r  # ln(1 + S_phi/r), coarse then fine nodes
        np.log1p(log_term, out=log_term)
        big_l = np.dot(w, log_term[: w.size]) / math.pi
        check = np.dot(w_fine, log_term[w.size :]) / math.pi
        if not abs(check - big_l) <= SPECTRAL_RTOL * check:
            raise RiccatiError(
                "phase-spectrum integral not converged: doubling its nodes moves it "
                f"by {abs(check - big_l) / check:.1e}"
            )
        self._log_innovation = big_l  # L = ln((c^2 P + r) / r)

    @property
    def sigma_phi_sq_posterior(self) -> float:
        """Steady-state posterior phase MSE, c^2 P_post[q, q] = c^2 P r / (c^2 P + r)."""
        return -self.r * math.expm1(-self._log_innovation)

    @property
    def sigma_phi_sq_prediction(self) -> float:
        """One-step-prediction phase MSE, c^2 P_pred[q, q]."""
        return self.r * math.expm1(self._log_innovation)

    def sigma_phi_sq_feedback(self) -> float:
        """Phase MSE of the feedback signal, a one-step prediction applied
        d = `cfg.feedback_delay_samples` samples late: E[(phi_k - phihat_{k-d})^2].

        It is the one-step prediction error plus the delay penalty, from the
        Riccati solution; the penalty is exactly 0 at d = 0, so the feedback
        error never falls below the prediction error by rounding."""
        import scipy.linalg

        d = self.cfg.feedback_delay_samples
        p_pred = self._steady_state[0]
        sigma_x = scipy.linalg.solve_discrete_lyapunov(self.a_d, self.q_d)
        a_pow = np.linalg.matrix_power(self.a_d, d)
        drift = a_pow - np.eye(3)
        penalty = a_pow @ p_pred @ a_pow.T - p_pred + drift @ (sigma_x - p_pred) @ drift.T
        step = np.eye(3)
        for _ in range(d):
            penalty = penalty + step @ self.q_d @ step.T
            step = step @ self.a_d
        return self.sigma_phi_sq_prediction + float(self.c_vec @ penalty @ self.c_vec)

    @functools.cached_property
    def _steady_state(self) -> tuple[np.ndarray, np.ndarray, int, tuple[np.ndarray, np.ndarray]]:
        """(p_pred, gain, settle_samples, (num, den)) of the stationary filter:
        the one-step-prediction covariance, the stabilizing discrete Riccati
        solution; its Kalman gain P c / (c P c + r), whose closed loop
        a_cl = a_d (I - gain c) must have spectral radius below 1; and the
        y -> phase-prediction IIR, the state-space system (a_cl, a_d gain, c, 0)."""
        import scipy.linalg
        import scipy.signal

        c_vec = self.c_vec
        try:
            p_pred = scipy.linalg.solve_discrete_are(
                self.a_d.T, c_vec[:, None], self.q_d, np.array([[self.r]])
            )
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise RiccatiError(f"steady-state Riccati solve failed: {exc}") from exc
        gain = p_pred @ c_vec / (float(c_vec @ p_pred @ c_vec) + self.r)
        a_cl = self.a_d @ (np.eye(3) - np.outer(gain, c_vec))
        rho = float(np.max(np.abs(np.linalg.eigvals(a_cl))))
        if rho >= 1.0:
            raise RiccatiError(f"closed-loop tracker is unstable (spectral radius {rho:.6f})")
        num, den = scipy.signal.ss2tf(
            a_cl, (self.a_d @ gain)[:, None], c_vec[None, :], np.zeros((1, 1))
        )
        return p_pred, gain, int(math.ceil(8.0 / -math.log(rho))), (num[0], den)

    @property
    def gain(self) -> np.ndarray:
        """Kalman gain of the stationary filter."""
        return self._steady_state[1]

    @property
    def settle_samples(self) -> int:
        """Samples until the slowest closed-loop transient has decayed by e^-8."""
        return self._steady_state[2]

    def predict_series(self, y: np.ndarray) -> np.ndarray:
        """Causal one-step phase predictions phihat_k from a measurement record."""
        import scipy.signal

        return scipy.signal.lfilter(*self._steady_state[3], y)


def calibrate_tracking(probe: ProbeState, priors: PriorModel, cfg: SimConfig) -> ProbeState:
    """Self-consistent operating point: sigma_phi^2 feeds the effective
    squeezing factor, which sets S_z, which feeds the Riccati solution back.

    The map is a mild contraction (the factor depends weakly on sigma_phi^2),
    so plain fixed-point iteration converges in a few steps.  It iterates
    sigma_phi^2 as a float, from 0, and gives the probe its value once, at
    the fixed point.  Too faint or too anti-squeezed a probe drives an
    iterate to 1 rad^2, where the loop cannot lock; that raises RiccatiError.
    """
    noise_psd = noise_psd_at_tracking_error(probe)
    value = 0.0
    for _ in range(CALIBRATION_MAX_ITER):
        new = KalmanTracker(noise_psd(value), priors, cfg).sigma_phi_sq_posterior
        if new >= 1.0:
            raise RiccatiError(
                f"tracking loop cannot lock at alpha_sq={probe.alpha_sq:.4g}: "
                f"sigma_phi^2 reaches {new:.4g} rad^2"
            )
        if abs(new - value) <= CALIBRATION_RTOL * max(new, 1e-30):
            return replace(probe, sigma_phi_sq=new)
        value = new
    raise RiccatiError("tracking operating point did not converge")


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
    """Closed-loop homodyne record y, feedback phase phi_fb (the one-step
    predictions, d samples late) and divergence flag of the nonlinear tracker.

    The feedback makes every sample depend on the previous ones, so this is a
    per-sample loop.  It runs on Python floats (the same IEEE-754 double
    operations, in the same order, as numpy float64 scalars, several times
    faster), converted TRACKER_BLOCK samples at a time so the number of
    float objects alive stays bounded.

    Each sample does only what the feedback needs.  The force row of a_d is
    exactly [0, 0, a22], since f is its own AR(1), so the force update is
    a22 x2p alone; a tracker whose row is not raises RiccatiError.  The
    divergence test, |phi - phi_fb| > pi/2 at any sample, reads the finished
    arrays, whose difference is the loop's own delta bit for bit.
    """
    n = phi.shape[0]
    y = np.empty(n)
    phi_fb = np.empty(n)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = tracker.a_d.tolist()
    if a20 != 0.0 or a21 != 0.0:
        raise RiccatiError(
            f"the tracker's force row [{a20!r}, {a21!r}, {a22!r}] is not [0, 0, a22]"
        )
    k0, k1, k2 = tracker.gain.tolist()
    c = float(tracker.c_vec[0])
    ep, em = float(ep), float(em)
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    x0 = x1 = x2 = 0.0
    pending = deque([0.0] * d)  # predictions made but not yet fed back
    for j in range(0, n, TRACKER_BLOCK):
        block = slice(j, j + TRACKER_BLOCK)
        ys = []
        fbs = []
        for phi_k, w in zip(phi[block].tolist(), noise_scale[block].tolist()):
            ph = c * x0
            pending.append(ph)
            fb = pending.popleft()
            fbs.append(fb)
            delta = phi_k - fb
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
            x2 = a22 * x2p
        y[block] = ys
        phi_fb[block] = fbs
    diverged = bool(np.any(np.abs(phi - phi_fb) > 0.5 * math.pi))
    return y, phi_fb, diverged


def run_tracking(
    phi: np.ndarray,
    probe: ProbeState,
    tracker: KalmanTracker,
    cfg: SimConfig,
    z: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """Synthesize the homodyne record and the real-time feedback phase:
    (y, phi_fb, sigma_phi_sq, diverged), from unit normals `z` (one per
    sample of `phi`).

    Linearized mode: y = phi + s z, white noise of per-sample variance
    s^2 = S_z/dt.  Nonlinear mode: the normalized homodyne output
    sin(phi - phi') plus phase-dependent quadrature noise of scale
    z / (2 sqrt(eta alpha^2 dt)), offset back by the feedback phase; a
    trial is flagged diverged when |phi - phi'| exceeds pi/2.  With
    z = rng.standard_normal(n), s z is rng.normal(0, s, n) and the nonlinear
    scale is rng.normal(0, 1, n) / (2 sqrt(eta alpha^2 dt)), bit for bit.

    The empirical sigma_phi^2 is averaged over the steady-state region (after
    the closed-loop transient has settled).
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0]
    d = cfg.feedback_delay_samples
    diverged = False

    if cfg.mode == MODE_LINEARIZED:
        # y = phi + s z, built on the noise (IEEE addition commutes)
        y = z * math.sqrt(measurement_noise_psd(probe) / cfg.dt)
        y += phi
        phi_fb = _delayed(tracker.predict_series(y), d)
    else:
        ep, em = probe.detected_moments()
        noise_scale = z / (2.0 * math.sqrt(probe.eta_det * probe.alpha_sq * cfg.dt))
        y, phi_fb, diverged = _track_nonlinear(phi, noise_scale, tracker, d, ep, em)

    start = min(tracker.settle_samples, n // 2)
    err = phi[start:] - phi_fb[start:]
    err *= err
    return y, phi_fb, float(np.mean(err)), diverged


# ---------------------------------------------------------------------------
# full trials


@dataclass
class Trajectory:
    """One simulated trial on the extended grid.

    t = 0 marks the start of the scored data window; the margins carry real
    (stationary) force so every scored sample sees stationary statistics.
    The time axis `t` is computed when asked for, not stored.
    """

    f: np.ndarray
    q: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    phi_fb: np.ndarray
    y: np.ndarray
    data_start: int
    n_data: int
    dt: float
    sigma_phi_sq: float
    diverged: bool

    @property
    def t(self) -> np.ndarray:
        return (np.arange(self.f.shape[-1]) - self.data_start) * self.dt

    @property
    def data_slice(self) -> slice:
        return slice(self.data_start, self.data_start + self.n_data)

    def to_csv(self, path) -> None:
        header = "t,f,q,p,phi,phi_fb,y"
        table = np.column_stack([self.t, self.f, self.q, self.p, self.phi, self.phi_fb, self.y])
        np.savetxt(path, table, delimiter=",", header=header, comments="")


#: The last trial's probe-independent draws: (key, draws, generator state
#: after them), see `_trial_truth`.
_last_truth = None


def _trial_truth(priors: PriorModel, cfg: SimConfig, rng: np.random.Generator) -> tuple:
    """(n_margin, f, q, p, phi, z) of a trial: its margin, force, mirror
    response and the unit normals of its measurement noise, drawn in that
    order.  None of them depends on the probe.

    The last call's draws are kept, read-only, under the key (priors, cfg,
    generator state before the draws).  A call with an equal key returns
    them and moves `rng` to the state the draws left it in, so its caller
    sees what a fresh draw would give, bit for bit; any other call frees
    them before it draws its own.
    """
    global _last_truth
    key = (priors, cfg, rng.bit_generator.state)
    if _last_truth is not None and _last_truth[0] == key:
        _, draws, state = _last_truth
        rng.bit_generator.state = state
        return draws
    _last_truth = None
    n_margin, n_total = trial_geometry(priors, cfg)
    f = simulate_ou(priors.force, cfg, rng, n=n_total)
    q, p, phi = mirror_response(f, priors.params, cfg, pad_samples=n_margin)
    z = rng.standard_normal(n_total)
    for array in (f, q, p, phi, z):
        array.flags.writeable = False
    draws = (n_margin, f, q, p, phi, z)
    _last_truth = key, draws, rng.bit_generator.state
    return draws


def simulate_trial(
    priors: PriorModel,
    probe: ProbeState,
    tracker: KalmanTracker,
    cfg: SimConfig,
    rng: np.random.Generator,
) -> Trajectory:
    """Generate one force/motion/measurement trial on the extended grid.
    Its f, q, p and phi are read-only: they may be the last trial's draws
    (`_trial_truth`)."""
    n_margin, f, q, p, phi, z = _trial_truth(priors, cfg, rng)
    y, phi_fb, sigma_phi_sq, diverged = run_tracking(phi, probe, tracker, cfg, z)
    return Trajectory(
        f, q, p, phi, phi_fb, y, n_margin, cfg.n_samples, cfg.dt, sigma_phi_sq, diverged
    )
