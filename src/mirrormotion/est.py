"""Offline estimation: optimal smoothing filters, analytic minimum MSEs and
quantum bounds, FFT smoothing of measurement records, and empirical scoring.

All three target variables share one information kernel
K(w) = |g_phi-f(w)|^2 S_f(w), so every integrand and filter below is written in
the factored form that never divides by w: the minimum-MSE integrand is
S_x S_z / (S_z + K) and the bound integrand is S_x / (1 + 4 S_dI K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import GridMismatchError, TailAccuracyError
from .model import PRIOR_TAGS, PriorModel, TabulatedTransferFunction
from .probe import ProbeState, measurement_noise_psd, photon_flux_psd_broadband

#: Largest relative change of a spectral integral when its grid's omega_max is
#: doubled; a larger change raises TailAccuracyError.
TAIL_RTOL = 1e-3

#: Doublings of omega_max SpectralGrid.build tries before giving up.
MAX_DOUBLINGS = 60


# ---------------------------------------------------------------------------
# spectral quadrature


def _panel_edges(priors: PriorModel, omega_max: float) -> np.ndarray:
    """Panel boundaries concentrating nodes at the force cutoff, the mechanical
    resonance, and the tabulated range limits, with at most one octave per
    panel elsewhere."""
    p = priors.params
    anchors = set()
    for s in (0.25, 0.5, 1.0, 2.0, 4.0):
        anchors.add(s * priors.force.lam)
    for k in (-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0):
        w = p.Omega + k * p.gamma
        if w > 0:
            anchors.add(w)
    if isinstance(priors.tf, TabulatedTransferFunction):
        anchors.add(priors.tf.freqs[0])
        anchors.add(priors.tf.freqs[-1])
    edges = [0.0] + sorted(a for a in anchors if 0 < a < omega_max) + [omega_max]
    filled = [0.0]
    for a, b in zip(edges, edges[1:]):
        if a > 0 and b > 2.0 * a:
            n_extra = int(np.ceil(np.log2(b / a))) - 1
            filled.extend(a * (b / a) ** (np.arange(1, n_extra + 1) / (n_extra + 1)))
        filled.append(b)
    return np.asarray(filled)


@dataclass(frozen=True)
class SpectralGrid:
    """Gauss-Legendre composite grid on [0, omega_max] for even integrands.

    `integrate` approximates Integral_0^omega_max f(w) dw; the builder doubles
    omega_max until the prior force-spectrum integral (the slowest-decaying
    integrand in the toolkit, tail ~ 1/w^2) has converged to `rtol`.
    """

    nodes: np.ndarray
    weights: np.ndarray
    omega_max: float
    priors: PriorModel
    n_per_panel: int

    def integrate(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))

    def doubled(self) -> "SpectralGrid":
        return _raw_grid(self.priors, 2.0 * self.omega_max, self.n_per_panel)

    @classmethod
    def build(
        cls,
        priors: PriorModel,
        omega_max: float | None = None,
        n_per_panel: int = 16,
        rtol: float = 1e-5,
    ) -> "SpectralGrid":
        p = priors.params
        floor = 50.0 * max(p.Omega, priors.force.lam)
        if isinstance(priors.tf, TabulatedTransferFunction):
            floor = max(floor, 5.0 * priors.tf.freqs[-1])
        omega_max = floor if omega_max is None else max(omega_max, floor)

        grid = _raw_grid(priors, omega_max, n_per_panel)
        ref = grid.integrate(priors.psd("f", grid.nodes))
        for _ in range(MAX_DOUBLINGS):
            bigger = grid.doubled()
            ref_new = bigger.integrate(priors.psd("f", bigger.nodes))
            if abs(ref_new - ref) <= rtol * abs(ref_new):
                fine = _raw_grid(priors, bigger.omega_max, 2 * n_per_panel)
                ref_fine = fine.integrate(priors.psd("f", fine.nodes))
                if abs(ref_fine - ref_new) > rtol * abs(ref_fine):
                    raise TailAccuracyError(
                        "node-count doubling still moves the reference integral; "
                        "increase n_per_panel"
                    )
                return bigger
            grid, ref = bigger, ref_new
        raise TailAccuracyError(
            f"prior spectrum integral did not converge below rtol={rtol:g} "
            f"after {MAX_DOUBLINGS} doublings of omega_max"
        )


def _raw_grid(priors: PriorModel, omega_max: float, n_per_panel: int) -> SpectralGrid:
    x, w = np.polynomial.legendre.leggauss(n_per_panel)
    edges = _panel_edges(priors, omega_max)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return SpectralGrid(nodes, weights, float(omega_max), priors, n_per_panel)


def _converged_integral(fn, grid: SpectralGrid, label: str) -> float:
    value = grid.integrate(fn(grid.nodes)) / np.pi
    bigger = grid.doubled()
    refined = bigger.integrate(fn(bigger.nodes)) / np.pi
    if abs(refined - value) > TAIL_RTOL * abs(refined):
        raise TailAccuracyError(
            f"{label}: tail estimate {abs(refined - value):.3e} exceeds "
            f"{TAIL_RTOL:g} of the integral {refined:.3e}; increase omega_max"
        )
    return refined


# ---------------------------------------------------------------------------
# analytic MSEs and bounds


def analytic_mmse(x: str, priors: PriorModel, probe: ProbeState, grid: SpectralGrid) -> float:
    """Minimum mean-square smoothing error for x in {q, p, f}:
    Integral dw/2pi (1/S_x + |g_phi-x|^2/S_z)^{-1}, with the integrand taken as
    0 by continuity wherever S_x vanishes."""
    if x not in PRIOR_TAGS:
        raise ValueError(f"unknown variable tag {x!r}")
    sz = measurement_noise_psd(probe)

    def integrand(w):
        return priors.psd(x, w) * sz / (sz + priors.information_kernel(w))

    return _converged_integral(integrand, grid, f"analytic_mmse[{x}]")


def qcrb(x: str, priors: PriorModel, probe: ProbeState, grid: SpectralGrid) -> float:
    """Waveform estimation bound for x in {q, p, f}:
    Integral dw/2pi (1/S_x + |g_phi-x|^2 4 S_dI)^{-1}, using the broadband
    photon-flux spectrum of the lossless beam."""
    if x not in PRIOR_TAGS:
        raise ValueError(f"unknown variable tag {x!r}")
    s_di4 = 4.0 * photon_flux_psd_broadband(probe)

    def integrand(w):
        return priors.psd(x, w) / (1.0 + s_di4 * priors.information_kernel(w))

    return _converged_integral(integrand, grid, f"qcrb[{x}]")


def prior_variance(x: str, priors: PriorModel, grid: SpectralGrid) -> float:
    """Stationary variance of x, Integral S_x dw/2pi."""
    return _converged_integral(lambda w: priors.psd(x, w), grid, f"prior_variance[{x}]")


# ---------------------------------------------------------------------------
# optimal filters


def optimal_filter(x: str, omega, priors: PriorModel, probe: ProbeState):
    """Optimal smoothing filter J_x(w) = g_phi-x^* S_x / (|g_phi-x|^2 S_x + S_z).

    Evaluated in factored form (the momentum numerator is i c m w |g_qf|^2 S_f)
    so no pole appears anywhere on the real axis and J_p(0) = 0 exactly.
    """
    w = np.asarray(omega, dtype=float)
    sz = measurement_noise_psd(probe)
    c = priors.params.phase_gain
    g = np.asarray(priors.tf(w), dtype=complex)
    sf = priors.psd("f", w)
    den = c * c * np.abs(g) ** 2 * sf + sz
    if x == "q":
        num = c * np.abs(g) ** 2 * sf + 0.0j
    elif x == "p":
        num = 1j * c * priors.params.m * w * np.abs(g) ** 2 * sf
    elif x == "f":
        num = c * np.conj(g) * sf
    else:
        raise ValueError(f"unknown variable tag {x!r}")
    out = num / den
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class FilterBank:
    """Optimal filters sampled on the rfft grid of a simulation record.

    Only the nonnegative half-spectrum is stored; Hermitian symmetry (hence a
    real smoothed output) is guaranteed by the rfft/irfft pair.
    """

    n_fft: int
    dt: float
    filters: dict

    @classmethod
    def build(cls, n_fft: int, dt: float, priors: PriorModel, probe: ProbeState):
        omega = 2.0 * np.pi * np.fft.rfftfreq(n_fft, dt)
        filters = {x: optimal_filter(x, omega, priors, probe) for x in PRIOR_TAGS}
        return cls(n_fft=n_fft, dt=float(dt), filters=filters)


def smooth(y, x: str, bank: FilterBank, cfg=None):
    """Apply the optimal smoother for x to measurement record(s) y.

    y may be one record or a (trials, samples) batch on the grid the bank was
    built for; the result is the real non-causal estimate x'(t).
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != bank.n_fft:
        raise GridMismatchError(
            f"record length {y.shape[-1]} does not match filter grid {bank.n_fft}"
        )
    if cfg is not None and abs(cfg.dt - bank.dt) > 1e-12 * bank.dt:
        raise GridMismatchError(
            f"record sample period {cfg.dt:g} does not match filter grid {bank.dt:g}"
        )
    return scipy.fft.irfft(scipy.fft.rfft(y, axis=-1) * bank.filters[x], n=bank.n_fft, axis=-1)


def empirical_mse(estimates, truths, cfg) -> tuple[float, float]:
    """Time-and-trial averaged squared error over the retained window.

    `estimates` and `truths` are (trials, samples) arrays on the data window;
    `cfg.edge_discard` seconds are trimmed from each end before scoring (the
    smoother needs two-sided data).  Returns (mse, standard error), the latter
    from the scatter of per-trial means.
    """
    e = np.atleast_2d(np.asarray(estimates, dtype=float))
    t = np.atleast_2d(np.asarray(truths, dtype=float))
    if e.shape != t.shape:
        raise ValueError("estimate and truth arrays must have matching shapes")
    if e.shape[0] < 2:
        raise ValueError("need at least two trials for a standard error")
    n_edge = int(round(cfg.edge_discard / cfg.dt))
    if e.shape[1] - 2 * n_edge <= 0:
        raise ValueError("edge discard leaves an empty scoring window")
    window = slice(n_edge, e.shape[1] - n_edge)
    per_trial = np.mean((e[:, window] - t[:, window]) ** 2, axis=1)
    mse = float(np.mean(per_trial))
    stderr = float(np.std(per_trial, ddof=1) / np.sqrt(len(per_trial)))
    return mse, stderr
