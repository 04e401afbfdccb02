"""Mirror/PZT physical model: parameters, motion transfer functions, prior spectra.

All frequencies are angular (rad/s) and all spectral densities are two-sided,
defined as S_x(w) = Integral <x(t)x(t+tau)> e^{i w tau} dtau.  The sign
conventions match the numpy FFT pair, so d/dt maps to +i*w on the half-spectrum
returned by rfft.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, require_finite

#: Variables connected by the motion functions g_ij(w).
VAR_TAGS = ("phi", "q", "p", "f")

#: Variables with a stationary prior spectrum, the estimated variables, in
#: the order of the CSV rows.
PRIOR_TAGS = ("q", "p", "f")


def effective_mass(m_mirror: float, m_pzt: float) -> float:
    """Effective moving mass of a mirror glued on a PZT stack.

    The PZT stretches proportionally along its length, so only one third of
    its mass moves coherently with the mirror face: m = m_mirror + m_pzt/3.
    """
    if m_mirror <= 0 or m_pzt < 0:
        raise ValueError("masses must be positive (PZT mass may be zero)")
    return m_mirror + m_pzt / 3.0


@dataclass(frozen=True)
class MirrorParams:
    """Physical constants of the PZT-mounted mirror and its readout.

    Attributes
    ----------
    m : float
        Effective moving mass [kg].
    Omega : float
        Mechanical resonance [rad/s].
    gamma : float
        Velocity damping coefficient [rad/s].
    k0 : float
        Optical wavenumber of the probe beam [rad/m].
    theta : float
        Reflection angle off the mirror [rad]; the phase shift per unit
        displacement is 2*k0*cos(theta).
    """

    m: float
    Omega: float
    gamma: float
    k0: float
    theta: float

    def __post_init__(self):
        require_finite(self)
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.Omega <= 0:
            raise ValueError("resonance frequency must be positive")
        if self.gamma <= 0:
            raise ValueError("damping must be positive")
        if self.k0 <= 0:
            raise ValueError("wavenumber must be positive")
        if not 0.0 <= self.theta < np.pi / 2:
            raise ValueError("reflection angle must lie in [0, pi/2)")

    @property
    def phase_gain(self) -> float:
        """Optical phase shift per unit mirror displacement, 2*k0*cos(theta) [rad/m]."""
        return 2.0 * self.k0 * np.cos(self.theta)


@dataclass(frozen=True)
class ForceParams:
    """Ornstein-Uhlenbeck model of the external force.

    df/dt = -lam*f + w(t) with <w(t)w(t')> = kappa*delta(t-t'), so the force
    spectrum is S_f(w) = kappa/(w^2 + lam^2).
    """

    lam: float
    kappa: float

    def __post_init__(self):
        require_finite(self)
        if self.lam <= 0:
            raise ValueError("cutoff frequency must be positive")
        if self.kappa <= 0:
            raise ValueError("noise intensity must be positive")

    @property
    def stationary_variance(self) -> float:
        """Stationary force variance kappa/(2*lam) [N^2]."""
        return self.kappa / (2.0 * self.lam)

    @property
    def correlation_time(self) -> float:
        return 1.0 / self.lam


class NominalTransferFunction:
    """Mass-spring-damper response g_qf(w) = 1/(m*(Omega^2 - w^2 + i*gamma*w)) [m/N],
    the one mechanical model of the package.

    The DC response is 1/(m*Omega^2); the displacement normalization absorbs
    the detector/drive gains so the model works directly in force units.  It
    is Hermitian, g_qf(-w) = conj(g_qf(w)), so time-domain responses are real.
    """

    def __init__(self, params: MirrorParams):
        self.params = params

    def __call__(self, omega):
        p = self.params
        w = np.asarray(omega, dtype=float)
        out = 1.0 / (p.m * (p.Omega**2 - w**2 + 1j * p.gamma * w))
        return out if out.ndim else complex(out)


class TabulatedTransferFunction:
    """Measured g_qf samples on an ascending positive-frequency grid.

    Negative frequencies follow from conjugate symmetry.  Queries outside the
    tabulated range clamp to the nearest endpoint: measured data is never
    extrapolated silently.  The first clamped query warns, naming the |omega|
    range it asked for; later ones do not, since every rfft grid includes
    omega = 0 and would repeat the warning on every call.

    Nothing in the package uses it: it stays only because the `perfbench`
    layer tracer patches its `__call__` by name, and it goes with that line.
    """

    def __init__(self, freqs, values):
        freqs = np.asarray(freqs, dtype=float)
        values = np.asarray(values, dtype=complex)
        if freqs.ndim != 1 or freqs.size < 2:
            raise ValueError("need at least two tabulated frequencies")
        if freqs.shape != values.shape:
            raise ValueError("frequency and value arrays must match")
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(values))):
            raise ValueError("tabulated frequencies and values must be finite")
        if np.any(freqs <= 0):
            raise ValueError("tabulated frequencies must be positive")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("tabulated frequencies must be strictly ascending")
        self.freqs = freqs
        self.values = values
        self._warned = False

    @classmethod
    def from_csv(cls, path) -> "TabulatedTransferFunction":
        """Load `freq_hz,gqf_real,gqf_imag` rows (positive frequencies, m/N).
        A missing column, an unparsable value or an invalid table raises
        ValueError naming the file."""
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        try:
            freqs = [2.0 * np.pi * float(row["freq_hz"]) for row in rows]
            values = [float(row["gqf_real"]) + 1j * float(row["gqf_imag"]) for row in rows]
            return cls(np.array(freqs), np.array(values))
        except KeyError as exc:
            raise ValueError(f"{path}: missing column {exc}") from None
        except (TypeError, ValueError) as exc:  # TypeError: a row short of a value
            raise ValueError(f"{path}: {exc}") from None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["freq_hz", "gqf_real", "gqf_imag"])
            for w, v in zip(self.freqs, self.values):
                writer.writerow(
                    [repr(float(w) / (2.0 * np.pi)), repr(float(v.real)), repr(float(v.imag))]
                )

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        aw = np.abs(w)
        if not self._warned and aw.size:
            lo, hi = aw.min(), aw.max()
            if lo < self.freqs[0] or hi > self.freqs[-1]:
                self._warned = True
                warnings.warn(
                    f"query outside tabulated transfer-function range: |omega| in "
                    f"[{lo:g}, {hi:g}] rad/s, clamping to [{self.freqs[0]:g}, "
                    f"{self.freqs[-1]:g}] rad/s (warned once per table)",
                    stacklevel=2,
                )
        aw = np.clip(aw, self.freqs[0], self.freqs[-1])
        re = np.interp(aw, self.freqs, self.values.real)
        im = np.interp(aw, self.freqs, self.values.imag)
        out = re + 1j * np.where(w >= 0, im, -im)
        return out if out.ndim else complex(out)


def force_gains(omega, params: MirrorParams) -> dict:
    """Force-referred motion functions {x: g_xf(w)} for x in VAR_TAGS, from one
    evaluation of g_qf: g_phi-f = 2 k0 cos(theta) g_qf, g_pf = i m w g_qf
    (p = m dq/dt in the rfft convention) and g_ff = 1."""
    w = np.asarray(omega, dtype=float)
    g = np.asarray(NominalTransferFunction(params)(w), dtype=complex)
    return {
        "phi": params.phase_gain * g,
        "q": g,
        "p": 1j * params.m * w * g,
        "f": np.ones_like(w, dtype=complex),
    }


def motion_function(i: str, j: str, omega, params: MirrorParams):
    """Mirror-motion function g_ij(w) relating x_i~(w) = g_ij(w) x_j~(w).

    Built from the force-referred gains as g_ij = g_if / g_jf, so the
    composition rules g_ij*g_jk = g_ik and g_ji = 1/g_ij hold by construction.
    Requesting a value at a pole (e.g. g_qp at w = 0) raises SingularityError;
    quantities whose poles cancel must use the force-referred gains instead.
    """
    if not {i, j} <= set(VAR_TAGS):
        raise ValueError(f"unknown variable tag in g_{i}{j}, expected tags from {VAR_TAGS}")
    gains = force_gains(omega, params)
    if np.any(gains[j] == 0):
        raise SingularityError(f"g_{i}{j} has a pole at one of the requested frequencies")
    out = gains[i] / gains[j]
    return out if out.ndim else complex(out)


def prior_psd(x: str, omega, priors: PriorModel):
    """Prior spectral density S_x(w) = |g_xf|^2 S_f for x in {f, q, p}, with
    S_f = kappa/(w^2 + lam^2).  The momentum gain i m w g_qf carries its zero,
    so S_p(0) = 0 exactly."""
    if x not in PRIOR_TAGS:
        raise ValueError(f"unknown prior tag {x!r}, expected one of {PRIOR_TAGS}")
    w = np.asarray(omega, dtype=float)
    out = priors.force.kappa / (w**2 + priors.force.lam**2)
    if x != "f":
        out = np.abs(force_gains(w, priors.params)[x]) ** 2 * out
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PriorModel:
    """Bundle of the mirror parameters and force prior."""

    params: MirrorParams
    force: ForceParams

    def psd(self, x: str, omega):
        return prior_psd(x, omega, self)

    def information_kernel(self, omega):
        """K(w) = |g_phi-f(w)|^2 S_f(w), shared by every MSE and bound integrand."""
        w = np.asarray(omega, dtype=float)
        return np.abs(force_gains(w, self.params)["phi"]) ** 2 * self.psd("f", w)
