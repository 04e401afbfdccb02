"""Offline estimation: optimal smoothing filters, analytic minimum MSEs and
quantum bounds, FFT smoothing of measurement records, and empirical scoring.

Everything below derives from the force-referred gains g_xf of
`model.force_gains` and the information kernel K = |g_phi-f|^2 S_f, so nothing
divides by w.  The minimum MSE (nu = 1/S_z) and the quantum bound
(nu = 4 S_dI; the ratio of the two nu is `probe.attainability_gap`) are the
one integral Integral dw/2pi S_x / (1 + nu K), and the optimal filter is
J_x = g_xf conj(g_phi-f) S_f / (K + S_z)."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, TailAccuracyError
from .model import PRIOR_TAGS, PriorModel, force_gains
from .probe import (
    ProbeState,
    SqueezingBandwidth,
    measurement_noise_psd,
    photon_flux_psd_broadband,
    photon_flux_psd_exact,
)

#: Largest relative change of a spectral integral when its grid's omega_max is
#: doubled; a larger change raises TailAccuracyError.
TAIL_RTOL = 1e-3

#: Largest relative change of the prior force-spectrum integral at which
#: SpectralGrid.build stops doubling omega_max (and the nodes per panel).
PRIOR_RTOL = 1e-5

#: Doublings of omega_max SpectralGrid.build tries before giving up.
MAX_DOUBLINGS = 60

#: Gauss-Legendre nodes per panel; SpectralGrid.build checks that twice as
#: many leave the reference integral unchanged.
N_PER_PANEL = 16

#: Constant-nu tables 1 + nu K a SpectralGrid keeps (`SpectralGrid.denominator`):
#: a `bounds` point reads four (two probes' minimum MSEs and quantum bounds),
#: each for q, p and f.
KEPT_DENOMINATORS = 8

#: Largest share of its energy a smoothing kernel may hold at lags a cell's
#: smoother does not reach (`smoother_reach`).
REACH_ENERGY = 1e-20


# ---------------------------------------------------------------------------
# spectral quadrature


def _panel_edges(priors: PriorModel, omega_max: float) -> np.ndarray:
    """Panel boundaries concentrating nodes at the force cutoff and the
    mechanical resonance, with at most one octave per panel elsewhere."""
    p = priors.params
    anchors = set()
    for s in (0.25, 0.5, 1.0, 2.0, 4.0):
        anchors.add(s * priors.force.lam)
    for k in (-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0):
        w = p.Omega + k * p.gamma
        if w > 0:
            anchors.add(w)
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
    integrand in the toolkit, tail ~ 1/w^2) has converged to `PRIOR_RTOL`.  The
    integrands of every MSE and bound are built from the tables of
    `integrands`, evaluated once per grid, and a constant nu's denominator
    1 + nu K (`denominator`), evaluated once per grid and nu.
    """

    nodes: np.ndarray
    weights: np.ndarray
    omega_max: float
    priors: PriorModel

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))

    def doubled(self) -> "SpectralGrid":
        """The grid on [0, 2 omega_max]: built on the first call, the same
        object on every later one."""
        return self._doubled

    @functools.cached_property
    def _doubled(self) -> "SpectralGrid":
        return _raw_grid(self.priors, 2.0 * self.omega_max, N_PER_PANEL)

    @functools.cached_property
    def integrands(self) -> dict:
        """Read-only tables of the grid's priors on its nodes: S_x for x in
        PRIOR_TAGS and the information kernel K under "K", evaluated on the
        first access and reused afterwards."""
        tables = {x: self.priors.psd(x, self.nodes) for x in PRIOR_TAGS}
        tables["K"] = self.priors.information_kernel(self.nodes)
        for table in tables.values():
            table.flags.writeable = False
        return tables

    def denominator(self, nu: float) -> np.ndarray:
        """Read-only 1 + nu K on the grid's nodes for a constant nu, computed
        on the first call for nu; the grid keeps the last `KEPT_DENOMINATORS`
        it computed, so the q, p and f integrals of one probe share one."""
        memo = self._denominators
        table = memo.get(nu)
        if table is None:
            table = np.multiply(nu, self.integrands["K"])
            table += 1.0
            table.flags.writeable = False
            if len(memo) == KEPT_DENOMINATORS:
                del memo[next(iter(memo))]  # the oldest
            memo[nu] = table
        return table

    @functools.cached_property
    def _denominators(self) -> dict:
        return {}

    @classmethod
    def build(cls, priors: PriorModel) -> "SpectralGrid":
        omega_max = 50.0 * max(priors.params.Omega, priors.force.lam)
        grid = _raw_grid(priors, omega_max, N_PER_PANEL)
        ref = grid.integrate(priors.psd("f", grid.nodes))
        for _ in range(MAX_DOUBLINGS):
            bigger = grid.doubled()
            ref_new = bigger.integrate(priors.psd("f", bigger.nodes))
            if abs(ref_new - ref) <= PRIOR_RTOL * abs(ref_new):
                fine = _raw_grid(priors, bigger.omega_max, 2 * N_PER_PANEL)
                ref_fine = fine.integrate(priors.psd("f", fine.nodes))
                if abs(ref_fine - ref_new) > PRIOR_RTOL * abs(ref_fine):
                    raise TailAccuracyError(
                        "node-count doubling still moves the reference integral; "
                        "increase N_PER_PANEL"
                    )
                return bigger
            grid, ref = bigger, ref_new
        raise TailAccuracyError(
            f"prior spectrum integral did not converge below {PRIOR_RTOL:g} "
            f"after {MAX_DOUBLINGS} doublings of omega_max"
        )


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], one rule per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _raw_grid(priors: PriorModel, omega_max: float, n_per_panel: int) -> SpectralGrid:
    x, w = _gauss_legendre(n_per_panel)
    edges = _panel_edges(priors, omega_max)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return SpectralGrid(nodes, weights, float(omega_max), priors)


# ---------------------------------------------------------------------------
# analytic MSEs and bounds


def _weighted_integral(x: str, g: SpectralGrid, nu) -> float:
    """g.integrate(S_x / (1.0 + nu * K)) / pi, the same operations in the
    same order: a constant nu reads the grid's kept denominator
    (`SpectralGrid.denominator`), and a function nu(w) is evaluated at the
    grid's nodes into a fresh one."""
    tables = g.integrands
    if callable(nu):
        buf = np.multiply(nu(g.nodes), tables["K"])
        buf += 1.0
        np.divide(tables[x], buf, out=buf)
    else:
        buf = np.divide(tables[x], g.denominator(nu))
    return g.integrate(buf) / np.pi


def _information_integral(x: str, grid: SpectralGrid, nu, label: str) -> float:
    """Integral dw/2pi S_x / (1 + nu K), K the information kernel of the
    grid's priors, on `grid` and on its doubled twin; `nu` is a constant, or
    a function of w called once per grid, with its nodes.  Raises
    TailAccuracyError when the two differ by more than TAIL_RTOL, or when
    either is NaN."""
    if x not in PRIOR_TAGS:
        raise ValueError(f"unknown variable tag {x!r}")
    value = _weighted_integral(x, grid, nu)
    refined = _weighted_integral(x, grid.doubled(), nu)
    if not abs(refined - value) <= TAIL_RTOL * abs(refined):  # a NaN fails too
        raise TailAccuracyError(
            f"{label}[{x}]: tail estimate {abs(refined - value):.3e} exceeds "
            f"{TAIL_RTOL:g} of the integral {refined:.3e} at omega_max {grid.omega_max:.3e} rad/s"
        )
    return refined


def analytic_mmse(x: str, probe: ProbeState, grid: SpectralGrid) -> float:
    """Minimum mean-square smoothing error for x in {q, p, f} under the
    grid's priors: Integral dw/2pi S_x / (1 + K/S_z)."""
    return _information_integral(x, grid, 1.0 / measurement_noise_psd(probe), "analytic_mmse")


def qcrb(x: str, probe: ProbeState, grid: SpectralGrid) -> float:
    """Waveform estimation bound for x in {q, p, f} under the grid's priors:
    Integral dw/2pi S_x / (1 + 4 S_dI K), using the broadband photon-flux
    spectrum of the lossless beam."""
    return _information_integral(x, grid, 4.0 * photon_flux_psd_broadband(probe), "qcrb")


def qcrb_finite_bandwidth(
    x: str, probe: ProbeState, bw: SqueezingBandwidth, grid: SpectralGrid
) -> float:
    """`qcrb` on the beam's exact photon-flux spectrum for squeezing bandwidths
    `bw`: Integral dw/2pi S_x / (1 + 4 S_dI(w) K) (Tsang, Wiseman and Caves,
    PRL 106, 090401 (2011)).  For a coherent probe S_dI(w) = |alpha|^2, so
    the two bounds are equal bit for bit."""
    return _information_integral(
        x, grid, lambda w: 4.0 * photon_flux_psd_exact(w, probe, bw), "qcrb_finite_bandwidth"
    )


def prior_variance(x: str, grid: SpectralGrid) -> float:
    """Stationary variance of x under the grid's priors, Integral S_x dw/2pi:
    the information integral with no information (nu = 0)."""
    return _information_integral(x, grid, 0.0, "prior_variance")


# ---------------------------------------------------------------------------
# optimal filters


def optimal_filter(x: str, omega, priors: PriorModel, probe: ProbeState):
    """Optimal smoothing filter J_x(w) = g_xf conj(g_phi-f) S_f / (K + S_z).

    No pole appears anywhere on the real axis, and J_p(0) = 0 exactly.
    """
    if x not in PRIOR_TAGS:
        raise ValueError(f"unknown variable tag {x!r}")
    w = np.asarray(omega, dtype=float)
    gains = force_gains(w, priors.params)
    sf = priors.psd("f", w)
    kernel = np.abs(gains["phi"]) ** 2 * sf
    out = gains[x] * np.conj(gains["phi"]) * sf / (kernel + measurement_noise_psd(probe))
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class FilterBank:
    """Optimal filters for records of `n` samples, sampled on the rfft grid
    of `n_fft`, the fast real-FFT length `scipy.fft.next_fast_len(n,
    real=True)` >= n (62,500 for the reference 62,370-sample record, whose
    factors 7 and 11 pocketfft's real transforms lack; 18,750 to 32,768 for
    the stretches the reference cells smooth).

    Only the nonnegative half-spectrum is stored; Hermitian symmetry (hence a
    real smoothed output) is guaranteed by the rfft/irfft pair.
    """

    n: int
    filters: dict

    @property
    def n_fft(self) -> int:
        return _real_fft_length(self.n)

    @classmethod
    def build(cls, n: int, dt: float, priors: PriorModel, probe: ProbeState):
        omega = 2.0 * np.pi * np.fft.rfftfreq(_real_fft_length(n), dt)
        filters = {x: optimal_filter(x, omega, priors, probe) for x in PRIOR_TAGS}
        return cls(n=n, filters=filters)


def _real_fft_length(n: int) -> int:
    import scipy.fft

    return scipy.fft.next_fast_len(n, real=True)


def smoother_reach(bank: FilterBank) -> int:
    """The smallest lag L at which each of the bank's q, p and f kernels,
    irfft(J_x, n_fft), holds at most `REACH_ENERGY` of its energy at
    circular lags >= L; n_fft // 2 + 1 when one never does.

    An estimate that reads only the record within L samples of its own
    sample leaves out the taps at lags >= L, and only those: what lies
    beyond the record, the zero padding and the kernel's circular aliases
    all sit there.
    """
    import scipy.fft

    n_fft = bank.n_fft
    reach = 0
    for x in PRIOR_TAGS:
        energy = scipy.fft.irfft(bank.filters[x], n_fft)
        energy *= energy
        by_lag = energy[: n_fft // 2 + 1]  # circular lag d: taps d and n_fft - d
        by_lag[1 : (n_fft + 1) // 2] += energy[: n_fft // 2 : -1]
        beyond = np.cumsum(by_lag[::-1])[::-1]  # energy at lags >= d, smallest first
        reach = max(reach, int(np.count_nonzero(beyond > REACH_ENERGY * beyond[0])))
    return reach


def smooth(y, x: str, bank: FilterBank):
    """Apply the optimal smoother for x to measurement record(s) y.

    y may be one record or a (trials, samples) batch of the bank's `n`
    samples; the result is the real non-causal estimate x'(t), `n` samples
    per record.  Each record is zero-padded to the bank's `n_fft` and
    filtered there, so the kernel's ends fall on the padding instead of
    wrapping around the record; a sweep cell smooths the scored window and
    `smoother_reach` samples on either side (`cli.run_sweep_point`), so the
    padding and the wrap-around lie past the window's reach.
    """
    import scipy.fft  # deferred: only a trial smooths, and bounds never does

    y = np.asarray(y, dtype=float)
    if y.shape[-1] != bank.n:
        raise GridMismatchError(
            f"record length {y.shape[-1]} does not match the filter bank's {bank.n}"
        )
    n_fft = bank.n_fft
    spectrum = scipy.fft.rfft(y, n_fft, axis=-1)
    spectrum *= bank.filters[x]
    return scipy.fft.irfft(spectrum, n_fft, axis=-1)[..., : bank.n]


def trial_mse(estimate, truth) -> float:
    """Time-averaged squared error of one trial over its data window.

    `estimate` and `truth` are one trial's records on the data window (the
    last axis).  Every sample is scored: the smoother reads two-sided data
    as far as its kernel reaches (`smoother_reach`).
    """
    e = np.asarray(estimate, dtype=float)
    t = np.asarray(truth, dtype=float)
    if e.shape != t.shape:
        raise ValueError("estimate and truth arrays must have matching shapes")
    return float(np.mean((e - t) ** 2))


def empirical_mse(per_trial) -> tuple[float, float]:
    """Trial average of per-trial errors (`trial_mse`, in trial order).
    Returns (mse, standard error), the latter from the scatter of the
    per-trial values.
    """
    per_trial = np.asarray(per_trial, dtype=float)
    if per_trial.size < 2:
        raise ValueError("need at least two trials for a standard error")
    mse = float(np.mean(per_trial))
    stderr = float(np.std(per_trial, ddof=1) / np.sqrt(len(per_trial)))
    return mse, stderr
