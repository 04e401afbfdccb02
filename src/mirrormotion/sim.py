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

import contextlib
import functools
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

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
# `scipy.signal`, about a second to import, loads only where a trial filters.


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
    import scipy.fft

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
    import scipy.signal

    a = math.exp(-force.lam * cfg.dt)
    innovation_std = math.sqrt(force.stationary_variance * (1.0 - a * a))
    drive = rng.normal(0.0, innovation_std, n)
    drive[0] = rng.normal(0.0, math.sqrt(force.stationary_variance))
    return scipy.signal.lfilter([1.0], [1.0, -a], drive)


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
    gains = force_gains(2.0 * np.pi * np.fft.rfftfreq(n_fft, cfg.dt), tf, params)
    q_spec, p_spec = gains["q"], gains["p"]  # the phi and f gains go with the dict
    del gains
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


@functools.lru_cache(maxsize=64)
def _tracker_model(
    params: MirrorParams, force: ForceParams, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Read-only discretized (a_d, q_d) of the tracker's state model (q, p, f),
    its measurement row c_vec and the r-free part of its Riccati pencil.

    None of them depends on the probe, so every tracker of one mirror, force
    and sample period (all the steps of `calibrate_tracking`, every cell of
    a sweep) shares one Van Loan exponential and one balanced pencil.

    c_vec is exactly [phase_gain, 0, 0]: the tracker measures position only.
    `KalmanTracker`'s build relies on it, writing each product with c_vec as
    its one nonzero term, and a test pins it, so a model that also measured
    p would fail that test rather than drift silently.
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
    c_vec = np.array([params.phase_gain, 0.0, 0.0])
    a_d.flags.writeable = q_d.flags.writeable = c_vec.flags.writeable = False
    return a_d, q_d, c_vec, _riccati_pencil(a_d, c_vec, q_d)


def _no_sort(*_):
    """Eigenvalue selector for an unsorted QZ (never called with sort_t=0)."""


def _riccati_pencil(a_d: np.ndarray, c_vec: np.ndarray, q_d: np.ndarray) -> tuple:
    """The part of the tracker's Riccati pencil that does not depend on the
    measurement noise variance r: read-only (H[:, :6], J[:, :6], H[:, 6:]
    with H[6, 6] left at 0, sca[:3] (x) sca[:3]).

    H - zJ is van Dooren's 7x7 symplectic pencil (SIAM J. Sci. Stat.
    Comput. 2, 121 (1981)), scaled by Benner's symplectic balancing with
    scale factors sca, as `scipy.linalg.solve_discrete_are(a_d.T,
    c_vec[:, None], q_d, [[r]])` builds it.

    r enters only at H[6, 6].  The balancing sees |H| + |J| with the
    diagonal zeroed, so never r, and it scales H[6, 6] by sca[6] / sca[6],
    a ratio of equal powers of two, exactly 1; so `_solve_riccati` sets
    H[6, 6] = r after the scaling and gets scipy's pencil bit for bit.
    """
    from scipy.linalg import lapack

    eye = np.eye(3)
    h = np.zeros((7, 7))
    h[:3, :3] = a_d.T
    h[:3, 6] = c_vec
    h[3:6, :3] = -q_d
    h[3:6, 3:6] = eye
    j = np.zeros((7, 7))
    j[:3, :3] = eye
    j[3:6, 3:6] = a_d
    j[6, 3:6] = -c_vec

    # scipy rescales unless gebal's scaling is close to all ones; gebal scales
    # by powers of two, so that means exactly all ones.  The pencil is scaled
    # by diag(D, 1/D, s_r), D = 2^round((log2 s_costate - log2 s_state) / 2),
    # which keeps it symplectic
    mags = np.abs(h) + np.abs(j)
    np.fill_diagonal(mags, 0.0)
    sca = lapack.dgebal(mags, scale=1, permute=0, overwrite_a=1)[3]
    if not (sca == 1.0).all():
        log_sca = np.log2(sca)
        s = np.round((log_sca[3:6] - log_sca[:3]) / 2)
        sca = 2 ** np.concatenate((s, -s, log_sca[6:]))
        scale = sca[:, None] * np.reciprocal(sca)
        h *= scale
        j *= scale
    x_scale = sca[:3, None] * sca[:3]
    h.flags.writeable = j.flags.writeable = x_scale.flags.writeable = False
    return h[:, :6], j[:, :6], h[:, 6:], x_scale


def _solve_riccati(pencil: tuple, r: float) -> np.ndarray:
    """Stationary one-step-prediction covariance of the tracker's Kalman
    filter, the stabilizing solution of the discrete Riccati equation at
    measurement noise variance r.

    With `pencil = _riccati_pencil(a_d, c_vec, q_d)` it is
    `scipy.linalg.solve_discrete_are(a_d.T, c_vec[:, None], q_d, [[r]])` bit
    for bit: the same LAPACK calls, in the same order, on the same values,
    without scipy's argument checks (at these sizes LAPACK takes its unblocked
    path whatever the workspace, so the default workspaces keep every bit).
    The pencil is deflated by its R column; a real QZ orders the eigenvalues
    inside the unit circle first; and P = U21 U11^-1 from the stable
    subspace (U11; U21).  Failures raise np.linalg.LinAlgError, or
    ValueError for a non-finite r, as scipy does.
    """
    from scipy.linalg import lapack

    if not math.isfinite(r):
        raise ValueError("measurement noise variance must be finite")
    h_free, j_free, column, x_scale = pencil
    column = column.copy()
    column[6, 0] = r
    qr, tau = lapack.dgeqrf(column, overwrite_a=1)[:2]
    q_full = np.empty((7, 7))
    q_full[:, :1] = qr
    q = lapack.dorgqr(q_full, tau, overwrite_a=1)[0]
    h = q[:, 1:].T.dot(h_free)
    j = q[:, 1:].T.dot(j_free)

    aa, bb, _, alphar, alphai, beta, vsl, vsr, _, info = lapack.dgges(
        _no_sort, h, j, overwrite_a=1, overwrite_b=1, sort_t=0
    )
    if info:
        raise np.linalg.LinAlgError(f"QZ iteration failed (gges info {info})")
    # beta = 0 is an infinite eigenvalue, never stable, and the only case in
    # which the division warns: only then is np.errstate worth its cost
    infinite = 0.0 in beta.tolist()
    with np.errstate(divide="ignore", invalid="ignore") if infinite else contextlib.nullcontext():
        stable = abs((alphar + alphai * 1j) / beta) < 1.0
    reordered = lapack.dtgsen(stable, aa, bb, vsl, vsr, ijob=0, lwork=4 * 6 + 16, liwork=1)
    u, info = reordered[6], reordered[-1]
    if info:
        raise np.linalg.LinAlgError(f"reordering the stable subspace failed (tgsen info {info})")
    u00 = u[:3, :3]
    u10 = u[3:, :3]

    # u00 = P L U (scipy.linalg.lu's factors); fail where np.linalg.cond(U),
    # from the same singular values (numpy's own dgesdd call), exceeds
    # 1/eps.  x = u10 U^-1 L^-1 P^T by two triangular solves, each reading
    # one triangle of lu.T: U^T, then the unit-diagonal L^T
    lu, piv, info = lapack.dgetrf(u00)
    upper = lu.copy()  # np.triu(lu)
    upper[1, 0] = upper[2, 0] = upper[2, 1] = 0.0
    sv, svd_info = lapack.dgesdd(upper, compute_uv=0)[1::2]
    if svd_info:
        raise np.linalg.LinAlgError("SVD did not converge")
    sv_max, _, sv_min = sv.tolist()
    if info or not sv_min or 1 / (sv_max / sv_min) < math.ulp(1.0):
        raise np.linalg.LinAlgError("Failed to find a finite solution.")
    y = lapack.dtrtrs(lu.T, u10.T, lower=1)[0]
    w = lapack.dtrtrs(lu.T, y, unitdiag=1)[0]

    # U11^T U21 is symmetric for a stabilizing solution.  Its 1-norm and that
    # of its antisymmetric part are numpy's column sums (row 0 + row 1) + row 2,
    # where the antisymmetric part's zero diagonal adds exact zeros
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = u00.T.dot(u10).tolist()
    norm = max(
        abs(m00) + abs(m10) + abs(m20),
        abs(m01) + abs(m11) + abs(m21),
        abs(m02) + abs(m12) + abs(m22),
    )
    d01, d02, d12 = abs(m10 - m01), abs(m20 - m02), abs(m21 - m12)
    if max(d01 + d02, d01 + d12, d02 + d12) > max(math.ulp(1000.0), 0.1 * norm):
        raise np.linalg.LinAlgError(
            "The associated symplectic pencil has eigenvalues too close to the unit circle"
        )

    # x[:, perm] = w.T, x *= x_scale and (x + x.T) / 2, entry by entry
    perm = [0, 1, 2]
    for k, p in enumerate(piv.tolist()):
        perm[k], perm[p] = perm[p], perm[k]
    x_t = [None] * 3  # x.T: its row perm[j] is row j of w
    for p, row in zip(perm, w.tolist()):
        x_t[p] = row
    (x00, x10, x20), (x01, x11, x21), (x02, x12, x22) = x_t
    (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = x_scale.tolist()
    x01 = (x01 * s01 + x10 * s10) / 2
    x02 = (x02 * s02 + x20 * s20) / 2
    x12 = (x12 * s12 + x21 * s21) / 2
    x00, x11, x22 = x00 * s00, x11 * s11, x22 * s22
    return np.array(
        [[(x00 + x00) / 2, x01, x02], [x01, (x11 + x11) / 2, x12], [x02, x12, (x22 + x22) / 2]]
    )


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
        from scipy.linalg import lapack

        self.cfg = cfg
        self.a_d, self.q_d, self.c_vec, pencil = _tracker_model(params, force, cfg.dt)
        self.r = measurement_noise_psd(probe) / cfg.dt

        try:
            self.p_pred = _solve_riccati(pencil, self.r)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise RiccatiError(f"steady-state Riccati solve failed: {exc}") from exc
        # c_vec = [c, 0, 0], so each product with it has one nonzero term and
        # these Python floats are numpy's expressions bit for bit:
        # c_vec P = c P[0], P c_vec = P[:, 0] c, and I - outer(gain, c_vec) is
        # the identity less gain c in column 0
        c = self.c_vec.item(0)
        p = self.p_pred.tolist()
        c_p = [c * v for v in p[0]]
        s = c_p[0] * c + self.r
        gain = [row[0] * c / s for row in p]
        self.gain = np.array(gain)
        self.p_post = np.array([[v - k * w for v, w in zip(row, c_p)] for row, k in zip(p, gain)])
        g0, g1, g2 = (k * c for k in gain)
        update = np.array([[1.0 - g0, 0.0, 0.0], [0.0 - g1, 1.0, 0.0], [0.0 - g2, 0.0, 1.0]])
        a_cl = self.a_d @ update
        # np.linalg.eigvals' checks and its own dgeev call, without its wrapper
        if not np.isfinite(a_cl).all():
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        wr, wi, _, _, info = lapack.dgeev(a_cl, compute_vl=0, compute_vr=0)
        if info:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        rho = float(abs(wr + wi * 1j).max())
        if rho >= 1.0:
            raise RiccatiError(f"closed-loop tracker is unstable (spectral radius {rho:.6f})")
        self._rho = rho
        self._a_cl = a_cl

    @property
    def sigma_phi_sq_posterior(self) -> float:
        """Steady-state posterior phase MSE, c^2 P_post[q, q]."""
        c = self.c_vec.item(0)
        return c * self.p_post.item(0) * c

    @property
    def sigma_phi_sq_prediction(self) -> float:
        """One-step-prediction phase MSE, c^2 P_pred[q, q]."""
        c = self.c_vec.item(0)
        return c * self.p_pred.item(0) * c

    def sigma_phi_sq_feedback(self) -> float:
        """Phase MSE of the feedback signal, a one-step prediction applied
        d = `cfg.feedback_delay_samples` samples late: E[(phi_k - phihat_{k-d})^2]."""
        import scipy.linalg

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
        on first use: calibration builds trackers that never filter.  It is
        the state-space system (A, B, C, D) = (a_cl, a_d gain, c, 0)."""
        import scipy.signal

        num, den = scipy.signal.ss2tf(
            self._a_cl, (self.a_d @ self.gain)[:, None], self.c_vec[None, :], np.zeros((1, 1))
        )
        return num[0], den

    def predict_series(self, y: np.ndarray) -> np.ndarray:
        """Causal one-step phase predictions phihat_k from a measurement record."""
        import scipy.signal

        return scipy.signal.lfilter(*self._iir, y)


def calibrate_tracking(
    probe: ProbeState,
    force: ForceParams,
    params: MirrorParams,
    cfg: SimConfig,
) -> ProbeState:
    """Self-consistent operating point: sigma_phi^2 feeds the effective
    squeezing factor, which sets S_z, which feeds the Riccati solution back.

    The map is a mild contraction (the factor depends weakly on sigma_phi^2),
    so plain fixed-point iteration converges in a few steps.  Too faint or
    too anti-squeezed a probe drives an iterate to 1 rad^2, where the loop
    cannot lock; that raises RiccatiError.
    """
    state = replace(probe, sigma_phi_sq=0.0)
    value = 0.0
    for _ in range(CALIBRATION_MAX_ITER):
        new = KalmanTracker(state, force, params, cfg).sigma_phi_sq_posterior
        if new >= 1.0:
            raise RiccatiError(
                f"tracking loop cannot lock at alpha_sq={probe.alpha_sq:.4g}: "
                f"sigma_phi^2 reaches {new:.4g} rad^2"
            )
        state = replace(state, sigma_phi_sq=new)
        if abs(new - value) <= CALIBRATION_RTOL * max(new, 1e-30):
            return state
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
    """
    n = phi.shape[0]
    y = np.empty(n)
    phi_fb = np.empty(n)
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
        fbs = []
        for phi_k, w in zip(phi[block].tolist(), noise_scale[block].tolist()):
            ph = c * x0
            pending.append(ph)
            fb = pending.popleft()
            fbs.append(fb)
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
        phi_fb[block] = fbs
    return y, phi_fb, diverged


def run_tracking(
    phi: np.ndarray,
    probe: ProbeState,
    tracker: KalmanTracker,
    cfg: SimConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """Synthesize the homodyne record and the real-time feedback phase:
    (y, phi_fb, sigma_phi_sq, diverged).

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
        # y = phi + z, built on the noise draw (IEEE addition commutes)
        y = rng.normal(0.0, math.sqrt(measurement_noise_psd(probe) / cfg.dt), n)
        y += phi
        phi_fb = _delayed(tracker.predict_series(y), d)
    else:
        ep, em = probe.detected_moments()
        noise_scale = rng.normal(0.0, 1.0, n) / (
            2.0 * math.sqrt(probe.eta_det * probe.alpha_sq * cfg.dt)
        )
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
    y, phi_fb, sigma_phi_sq, diverged = run_tracking(phi, probe, tracker, cfg, rng)
    return Trajectory(
        f, q, p, phi, phi_fb, y, n_margin, cfg.n_samples, cfg.dt, sigma_phi_sq, diverged
    )
