"""Quantum statistics of the probe beam.

Squeezing conventions: r_m and r_p are the squeezing and anti-squeezing
parameters at the carrier, so the phase-quadrature noise is reduced by
e^{-2 r_m} and the amplitude quadrature blown up by e^{2 r_p} relative to shot
noise (vacuum level 1/4).  A coherent state has r_m = r_p = 0.

Detection loss eta maps the quadrature moments through a beam splitter,
    e^{-2 r_m} -> eta e^{-2 r_m} + 1 - eta,
    e^{+2 r_p} -> eta e^{+2 r_p} + 1 - eta,
and the detected photon flux is eta*|alpha|^2.  Only the measurement-noise
quantities (effective squeezing factor, S_z) fold in the loss; the photon-flux
spectra describe the beam itself and always use the lossless moments, which is
what the estimation bounds require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError, require_finite

_DB = math.log(10.0) / 10.0  # dB -> natural log of a power ratio


@dataclass(frozen=True)
class ProbeState:
    """Probe-beam operating point; `ProbeState(alpha_sq)` is a coherent probe.

    Attributes
    ----------
    alpha_sq : float
        Mean coherent photon flux |alpha|^2 [photons/s].
    r_m, r_p : float
        Squeezing / anti-squeezing parameters, 0 <= r_m <= r_p.
    sigma_phi_sq : float
        Steady-state tracking error of the feedback phase estimate [rad^2];
        only `sim.calibrate_tracking` sets it.
    eta_det : float
        Overall detection efficiency in (0, 1].
    """

    alpha_sq: float
    r_m: float = 0.0
    r_p: float = 0.0
    sigma_phi_sq: float = 0.0
    eta_det: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.alpha_sq <= 0:
            raise ValueError("photon flux must be positive")
        if not 0.0 <= self.r_m <= self.r_p:
            raise ValueError("need 0 <= r_m <= r_p")
        if not 0.0 <= self.sigma_phi_sq < 1.0:
            raise ValueError("tracking error must lie in [0, 1) rad^2")
        if not 0.0 < self.eta_det <= 1.0:
            raise ValueError("detection efficiency must lie in (0, 1]")

    @classmethod
    def from_db(
        cls, alpha_sq: float, squeezing_db: float, antisqueezing_db: float, eta_det: float
    ):
        """Build from measured noise levels in dB (squeezing_db is the reduction
        below shot noise, quoted positive: -3.62 dB observed -> 3.62), with no
        tracking error: `sim.calibrate_tracking` gives a probe its own."""
        return cls(
            alpha_sq,
            r_m=0.5 * _DB * squeezing_db,
            r_p=0.5 * _DB * antisqueezing_db,
            eta_det=eta_det,
        )

    @property
    def is_coherent(self) -> bool:
        return self.r_m == 0.0 and self.r_p == 0.0

    def beam_moments(self) -> tuple[float, float]:
        """Lossless quadrature moments (e^{2 r_p}, e^{-2 r_m}) of the beam."""
        return math.exp(2.0 * self.r_p), math.exp(-2.0 * self.r_m)

    def detected_moments(self) -> tuple[float, float]:
        """(e^{2 r_p}, e^{-2 r_m}) after the detection-loss beam splitter."""
        ep, em = self.beam_moments()
        eta = self.eta_det
        return eta * ep + (1.0 - eta), eta * em + (1.0 - eta)


@dataclass(frozen=True)
class SqueezingBandwidth:
    """Lorentzian rolloff bandwidths of the squeezing spectra [rad/s]."""

    dw_minus: float
    dw_plus: float

    def __post_init__(self):
        require_finite(self)
        if self.dw_minus <= 0 or self.dw_plus <= 0:
            raise ValueError("bandwidths must be positive")

    @classmethod
    def standard(cls, probe: ProbeState, dw0: float) -> "SqueezingBandwidth":
        """Bandwidths with mean dw0 and the standard-form ratio
        dw_plus/dw_minus = sqrt((1 - 4R-(0)) / (4R+(0) - 1)).

        For a pure state this ratio makes R+(w) R-(w) = 1/16 at every
        frequency; for impure states it keeps the pair physical (uncertainty
        product >= 1/16 everywhere).
        """
        if dw0 <= 0:
            raise ValueError("mean bandwidth must be positive")
        if probe.is_coherent:
            return cls(dw0, dw0)
        ep, em = probe.beam_moments()
        ratio = math.sqrt((1.0 - em) / (ep - 1.0))
        if ratio == 0.0:  # r_m = 0, or 1 - e^{-2 r_m} rounds to 0
            raise ValueError("standard form needs squeezing (r_m > 0) to pair with anti-squeezing")
        dw_minus = 2.0 * dw0 / (1.0 + ratio)
        return cls(dw_minus, ratio * dw_minus)


def _squeezing_factor(ep: float, em: float, sigma_phi_sq: float) -> float:
    return sigma_phi_sq * ep + (1.0 - sigma_phi_sq) * em


def effective_squeezing_factor(p: ProbeState) -> float:
    """Effective squeezing factor: the measured-noise variance relative to shot
    noise, sigma_phi^2 e^{2 r_p} + (1 - sigma_phi^2) e^{-2 r_m}, evaluated with
    the detection-loss-transformed moments.

    Imperfect tracking mixes the anti-squeezed quadrature into the phase
    readout, so the factor grows with sigma_phi^2 whenever r_p > 0.
    """
    return _squeezing_factor(*p.detected_moments(), p.sigma_phi_sq)


def noise_psd_at_tracking_error(p: ProbeState):
    """S_z of the probe `p` as a function of its tracking error:
    sigma_phi^2 -> R_sq_eff(sigma_phi^2) / (4 eta |alpha|^2) [rad^2 s], with
    `p.sigma_phi_sq` ignored.  Calibration evaluates it at each of its
    fixed-point steps without building a probe per step."""
    ep, em = p.detected_moments()
    shot_noise = 4.0 * p.eta_det * p.alpha_sq
    return lambda sigma_phi_sq: _squeezing_factor(ep, em, sigma_phi_sq) / shot_noise


def measurement_noise_psd(p: ProbeState) -> float:
    """White measurement-noise PSD S_z = R_sq_eff / (4 eta |alpha|^2) [rad^2 s]."""
    return noise_psd_at_tracking_error(p)(p.sigma_phi_sq)


def squeezing_spectrum(sign: str, omega, p: ProbeState, bw: SqueezingBandwidth):
    """Squeezing spectrum R±(w) of the beam (lossless moments).

    Standard Lorentzian form: R±(w) = 1/4 + (R±(0) - 1/4) dw±^2/(w^2 + dw±^2),
    rolling off to the vacuum level 1/4.
    """
    w = np.asarray(omega, dtype=float)
    ep, em = p.beam_moments()
    if sign == "+":
        r0, dw = 0.25 * ep, bw.dw_plus
    elif sign == "-":
        r0, dw = 0.25 * em, bw.dw_minus
    else:
        raise ValueError("sign must be '+' or '-'")
    out = 0.25 + (r0 - 0.25) * dw**2 / (w**2 + dw**2)
    return out if out.ndim else float(out)


def mean_squeezing_flux(p: ProbeState, bw: SqueezingBandwidth) -> float:
    """Mean photon flux carried by the squeezing, I_sq [photons/s].

    Closed form of the integrated flux spectrum:
    I_sq = (1/8) [ (e^{2 r_p} - 1) dw+ + (e^{-2 r_m} - 1) dw- ].
    """
    ep, em = p.beam_moments()
    return 0.125 * ((ep - 1.0) * bw.dw_plus + (em - 1.0) * bw.dw_minus)


def xi_factor(p: ProbeState) -> float:
    """Flux-correction factor xi in the broadband photon-flux approximation
    S_dI(0) = (|alpha|^2 + xi I_sq) e^{2 r_p}.

    xi = e^{-2 r_p} (1 + (1/4) (A^{3/2} + B^{3/2}) / (sqrt(A) - sqrt(B)))
    with A = e^{2 r_p} - 1 and B = 1 - e^{-2 r_m}.  It runs from 1 in the
    coherent limit down to 1/4 as r_p grows.  The denominator vanishes when
    A = B with both nonzero (impossible for r_p >= r_m); that case raises.
    """
    ep, em = p.beam_moments()
    a, b = ep - 1.0, 1.0 - em
    if a == 0.0 and b == 0.0:
        return 1.0
    den = math.sqrt(a) - math.sqrt(b)
    if den <= 0.0:
        raise SingularityError(
            "xi is singular when e^{2 r_p} - 1 = 1 - e^{-2 r_m} with both nonzero"
        )
    # not 1 / ep, which may differ in the last bit
    return math.exp(-2.0 * p.r_p) * (1.0 + 0.25 * (a**1.5 + b**1.5) / den)


def photon_flux_psd_exact(omega, p: ProbeState, bw: SqueezingBandwidth):
    """Exact photon-flux-fluctuation spectrum S_dI(w) for the finite-bandwidth
    Gaussian beam (lossless moments):

    S_dI = 4|alpha|^2 R+(w) + I_sq
         + (1/8) [ (e^{2 r_p}-1)^2 dw+^3/(w^2 + (2 dw+)^2)
                 + (1-e^{-2 r_m})^2 dw-^3/(w^2 + (2 dw-)^2) ].
    """
    w = np.asarray(omega, dtype=float)
    ep, em = p.beam_moments()
    a, b = ep - 1.0, 1.0 - em
    out = (
        4.0 * p.alpha_sq * squeezing_spectrum("+", w, p, bw)
        + mean_squeezing_flux(p, bw)
        + 0.125
        * (
            a**2 * bw.dw_plus**3 / (w**2 + (2.0 * bw.dw_plus) ** 2)
            + b**2 * bw.dw_minus**3 / (w**2 + (2.0 * bw.dw_minus) ** 2)
        )
    )
    return out if np.ndim(out) else float(out)


def photon_flux_psd_broadband(p: ProbeState) -> float:
    """Broadband photon-flux-fluctuation spectrum |alpha|^2 e^{2 r_p}.

    Valid when the squeezing bandwidth dominates all system frequencies and
    xi*I_sq << |alpha|^2; `est.qcrb_finite_bandwidth` measures the bound's
    departure from it with :func:`photon_flux_psd_exact`.
    """
    return p.alpha_sq * p.beam_moments()[0]


def attainability_gap(p: ProbeState) -> float:
    """4 S_dI S_z: equals 1 when the estimation bound is attainable.

    For eta = 1 the gap is e^{2 r_p} R_sq_eff; it is exactly 1 for any coherent
    state and for a pure squeezed state with perfect tracking, and grows with
    impurity or tracking error.
    """
    return 4.0 * photon_flux_psd_broadband(p) * measurement_noise_psd(p)
