"""Independent oracles for the estimation path and the phase tracker.

The estimation oracles work in the time domain through the state-space
description of the mirror: stationary covariance from the continuous Lyapunov
equation, autocovariance from the matrix exponential, and posterior MSEs from
dense Gaussian conditioning on a finite window of samples.  No spectral
densities, quadrature, or Wiener formulas are used, so agreement with the
frequency-domain results validates that whole path at once.

The tracker oracles are the nonlinear feedback loop written one array
element at a time, the form the fast scalar loop of `sim.run_tracking` must
match, the tracking calibration written with one probe per fixed-point
step, which `sim.calibrate_tracking` must match, and a tracker's log
innovation variance computed on each Gauss-Legendre rule's table apart,
which `sim.KalmanTracker` must match.

The smoothing oracle is the circular smoother: the optimal filter applied
by rfft and irfft at the record's own length, which `est.smooth` must equal
wherever that length is already a fast real-FFT length.
"""

import math
from dataclasses import replace

import numpy as np
import scipy.fft
import scipy.linalg

from mirrormotion import est, sim
from mirrormotion.errors import RiccatiError
from mirrormotion.probe import measurement_noise_psd

STATE_INDEX = {"q": 0, "p": 1, "f": 2}


def drift_matrix(mirror, force) -> np.ndarray:
    """Continuous drift of the (q, p, f) state for the nominal model."""
    return np.array(
        [
            [0.0, 1.0 / mirror.m, 0.0],
            [-mirror.m * mirror.Omega**2, -mirror.gamma, 1.0],
            [0.0, 0.0, -force.lam],
        ]
    )


def stationary_covariance(mirror, force) -> np.ndarray:
    """Stationary covariance of (q, p, f) from A P + P A^T + Q = 0."""
    a = drift_matrix(mirror, force)
    q = np.diag([0.0, 0.0, force.kappa])
    return scipy.linalg.solve_continuous_lyapunov(a, -q)


def autocovariance_blocks(mirror, force, dt: float, n_lags: int) -> np.ndarray:
    """R(k dt) = e^{A k dt} P_inf for k = 0..n_lags-1 (R(-tau) = R(tau)^T)."""
    p_inf = stationary_covariance(mirror, force)
    step = scipy.linalg.expm(drift_matrix(mirror, force) * dt)
    blocks = np.empty((n_lags, 3, 3))
    blocks[0] = p_inf
    for k in range(1, n_lags):
        blocks[k] = step @ blocks[k - 1]
    return blocks


def _joint_covariances(x: str, mirror, force, probe, n: int, dt: float):
    """Covariances of the target samples x(t_j) and measurements
    y_k = c q(t_k) + z_k with Var(z) = S_z/dt."""
    i = STATE_INDEX[x]
    blocks = autocovariance_blocks(mirror, force, dt, n)
    c = mirror.phase_gain
    var_z = measurement_noise_psd(probe) / dt

    # R_ab(t_j - t_k): blocks[|j-k|][a, b] for j >= k, transposed block otherwise
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    sign = np.subtract.outer(np.arange(n), np.arange(n)) >= 0
    r_qq = blocks[lags, 0, 0]
    r_xq = np.where(sign, blocks[lags, i, 0], blocks[lags, 0, i])
    r_xx0 = blocks[0, i, i]

    cov_yy = c * c * r_qq + var_z * np.eye(n)
    cov_xy = c * r_xq
    return r_xx0, cov_xy, cov_yy


def posterior_mse(x: str, mirror, force, probe, n: int, dt: float, keep: float = 1 / 3):
    """Exact posterior MSE of x(t_j) given all n measurements, averaged over
    the central `keep` fraction of the window (edges feel the missing data)."""
    r_xx0, cov_xy, cov_yy = _joint_covariances(x, mirror, force, probe, n, dt)
    solved = scipy.linalg.solve(cov_yy, cov_xy.T, assume_a="pos")
    explained = np.einsum("jk,kj->j", cov_xy, solved)
    lo = int(n * (0.5 - keep / 2))
    hi = int(n * (0.5 + keep / 2))
    return float(np.mean(r_xx0 - explained[lo:hi]))


def wiener_weights(x: str, mirror, force, probe, n: int, dt: float) -> np.ndarray:
    """Optimal linear weights mapping the n measurements to the middle-sample
    estimate of x; their sum is the DC gain of the discrete smoother."""
    _, cov_xy, cov_yy = _joint_covariances(x, mirror, force, probe, n, dt)
    return scipy.linalg.solve(cov_yy, cov_xy[n // 2], assume_a="pos")


def smooth_circular(y, x: str, dt: float, priors, probe) -> np.ndarray:
    """The optimal smoother for x on the rfft grid of the records' own
    length n: rfft, multiply by `est.optimal_filter`, irfft at n, so the
    kernel's ends wrap around each record.  `y` is one record or a
    (trials, n) batch."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    spectrum = scipy.fft.rfft(y, axis=-1)
    spectrum *= est.optimal_filter(x, 2.0 * np.pi * np.fft.rfftfreq(n, dt), priors, probe)
    return scipy.fft.irfft(spectrum, n=n, axis=-1)


def run_tracking_nonlinear(phi, probe, tracker, cfg, rng) -> tuple:
    """Nonlinear-mode `sim.run_tracking` as a plain array-indexed loop:
    (y, phi_fb, sigma_phi_sq, diverged).

    This is the direct transcription of the closed-loop homodyne model, one
    numpy element per sample; `sim.run_tracking` must reproduce it bit for bit.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0]
    d = cfg.feedback_delay_samples
    diverged = False

    ep, em = probe.detected_moments()
    noise_scale = rng.normal(0.0, 1.0, n) / (
        2.0 * math.sqrt(probe.eta_det * probe.alpha_sq * cfg.dt)
    )
    y = np.empty(n)
    phi_hat = np.empty(n)
    phi_fb = np.empty(n)
    a = tracker.a_d
    a00, a01, a02 = a[0]
    a10, a11, a12 = a[1]
    a20, a21, a22 = a[2]
    k0, k1, k2 = tracker.gain
    c = tracker.c_vec[0]
    x0 = x1 = x2 = 0.0
    half_pi = 0.5 * math.pi
    for i in range(n):
        ph = c * x0
        phi_hat[i] = ph
        fb = phi_hat[i - d] if i >= d else 0.0
        phi_fb[i] = fb
        delta = phi[i] - fb
        if abs(delta) > half_pi:
            diverged = True
        s = math.sin(delta)
        co = math.cos(delta)
        yk = s + noise_scale[i] * math.sqrt(s * s * ep + co * co * em) + fb
        y[i] = yk
        innov = yk - ph
        x0p = x0 + k0 * innov
        x1p = x1 + k1 * innov
        x2p = x2 + k2 * innov
        x0 = a00 * x0p + a01 * x1p + a02 * x2p
        x1 = a10 * x0p + a11 * x1p + a12 * x2p
        x2 = a20 * x0p + a21 * x1p + a22 * x2p

    start = min(tracker.settle_samples, n // 2)
    err = phi[start:] - phi_fb[start:]
    return y, phi_fb, float(np.mean(err**2)), diverged


def calibrate_tracking_reference(probe, priors, cfg):
    """`sim.calibrate_tracking` with a `ProbeState` for every fixed-point
    step: each step's tracker reads S_z from the probe of the previous
    step's sigma_phi^2.  `sim.calibrate_tracking` must return the same
    probe, bit for bit, and raise the same errors."""
    state = replace(probe, sigma_phi_sq=0.0)
    value = 0.0
    for _ in range(sim.CALIBRATION_MAX_ITER):
        tracker = sim.KalmanTracker(measurement_noise_psd(state), priors, cfg)
        new = tracker.sigma_phi_sq_posterior
        if new >= 1.0:
            raise RiccatiError(
                f"tracking loop cannot lock at alpha_sq={probe.alpha_sq:.4g}: "
                f"sigma_phi^2 reaches {new:.4g} rad^2"
            )
        state = replace(state, sigma_phi_sq=new)
        if abs(new - value) <= sim.CALIBRATION_RTOL * max(new, 1e-30):
            return state
        value = new
    raise RiccatiError("tracking operating point did not converge")


def log_innovation_reference(noise_psd, priors, cfg) -> float:
    """L = (1/pi) int_0^pi ln(1 + S_phi/r) dtheta of `sim.KalmanTracker`,
    r = noise_psd/dt, with each rule's phase-spectrum table divided and
    logged on its own: the `sim.SPECTRAL_NODES` rule gives L, and twice as
    many nodes give the check that raises the tracker's RiccatiError.
    `sim.KalmanTracker._log_innovation` must equal it bit for bit."""
    a_d, q_d, c_vec, _ = sim._tracker_model(priors, cfg.dt)
    edges = sim._phase_spectrum_panels(priors, cfg.dt)
    r = noise_psd / cfg.dt
    (w, s_phi), (w_fine, s_phi_fine) = (
        sim._phase_spectrum(a_d, q_d, priors.params.phase_gain, edges, nodes)
        for nodes in (sim.SPECTRAL_NODES, 2 * sim.SPECTRAL_NODES)
    )
    big_l = np.dot(w, np.log1p(s_phi / r)) / math.pi
    check = np.dot(w_fine, np.log1p(s_phi_fine / r)) / math.pi
    if not abs(check - big_l) <= sim.SPECTRAL_RTOL * check:
        raise RiccatiError(
            "phase-spectrum integral not converged: doubling its nodes moves it "
            f"by {abs(check - big_l) / check:.1e}"
        )
    return big_l
