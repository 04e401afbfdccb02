"""Independent oracles for the estimation path and the phase tracker.

The estimation oracles work in the time domain through the state-space
description of the mirror: stationary covariance from the continuous Lyapunov
equation, autocovariance from the matrix exponential, and posterior MSEs from
dense Gaussian conditioning on a finite window of samples.  No spectral
densities, quadrature, or Wiener formulas are used, so agreement with the
frequency-domain results validates that whole path at once.

The tracker oracles are the nonlinear feedback loop written one array element
at a time, the form the fast scalar loop of `sim.run_tracking` must match; the
Kalman gain, covariances and closed loop as numpy matrix expressions of the
Riccati solution, which `sim.KalmanTracker`'s scalar build must match bit for
bit; and the tracker's phase errors from the spectrum of its own model
(Kolmogorov-Szego), which share no step with the Riccati solve.
"""

import math

import numpy as np
import scipy.linalg

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


def tracker_build(tracker) -> dict:
    """What `sim.KalmanTracker` derives from its Riccati solution, written as
    numpy matrix expressions of P = `tracker.p_pred` and the measurement row:
    innovation variance s = c P c + r, gain P c / s, posterior covariance
    P - gain (c P), closed loop a_d (I - gain c), its spectral radius by
    `np.linalg.eigvals`, the samples until its transient decays by e^-8, and
    the posterior and prediction phase MSEs c P c."""
    c_vec, p_pred = tracker.c_vec, tracker.p_pred
    s = float(c_vec @ p_pred @ c_vec) + tracker.r
    gain = p_pred @ c_vec / s
    p_post = p_pred - np.outer(gain, c_vec @ p_pred)
    a_cl = tracker.a_d @ (np.eye(3) - np.outer(gain, c_vec))
    rho = float(np.max(np.abs(np.linalg.eigvals(a_cl))))
    return {
        "gain": gain,
        "p_post": p_post,
        "_a_cl": a_cl,
        "_rho": rho,
        "settle_samples": int(math.ceil(8.0 / -math.log(rho))),
        "sigma_phi_sq_posterior": float(c_vec @ p_post @ c_vec),
        "sigma_phi_sq_prediction": float(c_vec @ p_pred @ c_vec),
    }


#: Gauss-Legendre nodes per panel of the phase-spectrum integral.
SPECTRAL_NODES = 16


def _phase_spectrum_panels(params, force, dt: float) -> np.ndarray:
    """Panel edges on [0, pi] for the tracker's phase spectrum: geometric
    around the resonance Omega dt in steps of its width gamma dt (2^-3 to
    2^13 widths), and in octaves around gamma dt, lambda dt and Omega dt,
    where the spectrum turns over."""
    resonance, width = params.Omega * dt, params.gamma * dt
    edges = {0.0, math.pi}
    steps = width * 2.0 ** np.arange(-3, 14)
    edges.update(resonance - steps)
    edges.update(resonance + steps)
    for corner in (width, force.lam * dt, resonance):
        edges.update(corner * 2.0 ** np.arange(-10, 11))
    return np.array(sorted(e for e in edges if 0.0 <= e <= math.pi))


def spectral_phase_errors(tracker, params, force) -> tuple[float, float]:
    """(posterior, one-step prediction) phase MSE of the steady-state Kalman
    filter, from the phase spectrum of the tracker's own model instead of its
    Riccati equation.

    For y_k = phi_k + v_k with Var v = r, the one-step innovation variance is
    the geometric mean of the spectrum of y (Kolmogorov-Szego): c^2 P + r =
    r e^L with L = (1/pi) int_0^pi ln(1 + S_phi(theta)/r) dtheta, where
    S_phi = c^2 [G q_d G^H]_00 and G = (e^{i theta} I - a_d)^-1.  So the
    prediction error is r expm1(L) and the posterior c^2 P r / (c^2 P + r) is
    -r expm1(-L); neither form cancels.  The integral runs on Gauss-Legendre
    panels (`_phase_spectrum_panels`) that resolve the mechanical resonance.
    """
    edges = _phase_spectrum_panels(params, force, tracker.cfg.dt)
    x, w = np.polynomial.legendre.leggauss(SPECTRAL_NODES)
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2
    theta = (lo + half * (x + 1.0)).ravel()
    weights = (half * w).ravel()
    g = np.linalg.inv(np.exp(1j * theta)[:, None, None] * np.eye(3) - tracker.a_d)[:, 0, :]
    c = tracker.c_vec[0]
    s_phi = c * c * np.einsum("ni,ij,nj->n", g, tracker.q_d, g.conj()).real
    big_l = np.dot(weights, np.log1p(s_phi / tracker.r)) / math.pi
    return -tracker.r * math.expm1(-big_l), tracker.r * math.expm1(big_l)
