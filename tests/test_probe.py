"""Probe-beam statistics: squeezing factors, flux spectra, attainability."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from mirrormotion.errors import SingularityError
from mirrormotion.probe import (
    ProbeState,
    SqueezingBandwidth,
    attainability_gap,
    effective_squeezing_factor,
    mean_squeezing_flux,
    measurement_noise_psd,
    photon_flux_psd_broadband,
    photon_flux_psd_exact,
    squeezing_spectrum,
    xi_factor,
)

from conftest import ANTISQUEEZING_DB, BANDWIDTH_10_OMEGA, SQUEEZING_DB

E2RP = 10 ** (ANTISQUEEZING_DB / 10)     # 3.981
EM2RM = 10 ** (-SQUEEZING_DB / 10)       # 0.4345


def reference_squeezed(alpha_sq=1.02e6, sigma_phi_sq=0.0, eta_det=1.0):
    probe = ProbeState.from_db(alpha_sq, SQUEEZING_DB, ANTISQUEEZING_DB, eta_det=eta_det)
    return replace(probe, sigma_phi_sq=sigma_phi_sq)


class TestProbeState:
    def test_from_db_moments(self):
        p = reference_squeezed()
        assert math.exp(2 * p.r_p) == pytest.approx(E2RP, rel=1e-12)
        assert math.exp(-2 * p.r_m) == pytest.approx(EM2RM, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeState(alpha_sq=0.0)
        with pytest.raises(ValueError):
            ProbeState(alpha_sq=1.0, r_m=0.5, r_p=0.2)
        with pytest.raises(ValueError):
            ProbeState(alpha_sq=1.0, sigma_phi_sq=1.0)
        with pytest.raises(ValueError):
            ProbeState(alpha_sq=1.0, eta_det=0.0)
        with pytest.raises(ValueError):
            ProbeState(alpha_sq=math.inf)
        with pytest.raises(ValueError):
            ProbeState(alpha_sq=1.0, r_m=0.1, r_p=math.inf)
        with pytest.raises(ValueError):
            ProbeState(alpha_sq=1.0, eta_det=math.nan)

    def test_detected_moments_ideal(self):
        p = reference_squeezed()
        ep, em = p.detected_moments()
        assert ep == pytest.approx(E2RP, rel=1e-12)
        assert em == pytest.approx(EM2RM, rel=1e-12)

    def test_detected_moments_lossy(self):
        p = reference_squeezed(eta_det=0.871)
        ep, em = p.detected_moments()
        assert ep == pytest.approx(0.871 * E2RP + 0.129, rel=1e-12)
        assert em == pytest.approx(0.871 * EM2RM + 0.129, rel=1e-12)


class TestEffectiveSqueezingFactor:
    def test_coherent_is_shot_noise(self):
        for sigma in (0.0, 0.3, 0.9):
            for eta in (1.0, 0.871, 0.5):
                p = ProbeState(1e6, sigma_phi_sq=sigma, eta_det=eta)
                assert effective_squeezing_factor(p) == pytest.approx(1.0, rel=1e-12)

    def test_perfect_tracking_reaches_squeezing_floor(self):
        p = reference_squeezed(sigma_phi_sq=0.0)
        r = effective_squeezing_factor(p)
        assert r == pytest.approx(EM2RM, rel=1e-12)
        assert 10 * math.log10(r) == pytest.approx(-3.62, abs=1e-9)

    def test_operating_band_inversion(self):
        # tracking error that reproduces the reported operating band
        def db_at(sigma):
            return 10 * math.log10(effective_squeezing_factor(reference_squeezed(sigma_phi_sq=sigma)))

        sigma_hi = brentq(lambda s: db_at(s) + 3.28, 0.0, 0.5)
        sigma_lo = brentq(lambda s: db_at(s) + 3.48, 0.0, 0.5)
        assert 0.003 < sigma_lo < sigma_hi < 0.011
        assert db_at(sigma_hi) == pytest.approx(-3.28, abs=1e-9)
        assert db_at(sigma_lo) == pytest.approx(-3.48, abs=1e-9)

    def test_monotone_in_tracking_error(self):
        sigmas = np.linspace(0.0, 0.5, 20)
        values = [effective_squeezing_factor(reference_squeezed(sigma_phi_sq=s)) for s in sigmas]
        assert np.all(np.diff(values) > 0)


class TestMeasurementNoise:
    def test_coherent_shot_noise_level(self):
        p = ProbeState(1e6)
        assert measurement_noise_psd(p) == pytest.approx(2.5e-7, rel=1e-12)

    def test_squeezed_operating_point(self):
        # R_sq = 0.47 (-3.28 dB) at alpha^2 = 1.02e6
        sigma = (0.47 - EM2RM) / (E2RP - EM2RM)
        p = reference_squeezed(sigma_phi_sq=sigma)
        assert measurement_noise_psd(p) == pytest.approx(1.152e-7, rel=1e-3)

    def test_halving_efficiency_doubles_noise(self):
        base = measurement_noise_psd(ProbeState(1e6, eta_det=1.0))
        assert measurement_noise_psd(ProbeState(1e6, eta_det=0.5)) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_algebraic_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rm = rng.uniform(0, 1)
            p = ProbeState(
                alpha_sq=rng.uniform(1e3, 1e9),
                r_m=rm,
                r_p=rm + rng.uniform(0, 1),
                sigma_phi_sq=rng.uniform(0, 0.99),
                eta_det=rng.uniform(0.1, 1.0),
            )
            lhs = measurement_noise_psd(p) * 4.0 * p.alpha_sq * p.eta_det
            assert lhs == pytest.approx(effective_squeezing_factor(p), rel=1e-12)


class TestSqueezingSpectrum:
    def test_center_values(self):
        p = reference_squeezed()
        bw = SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)
        assert squeezing_spectrum("+", 0.0, p, bw) == pytest.approx(E2RP / 4, rel=1e-12)
        assert squeezing_spectrum("+", 0.0, p, bw) == pytest.approx(0.995, rel=1e-3)
        assert squeezing_spectrum("-", 0.0, p, bw) == pytest.approx(EM2RM / 4, rel=1e-12)

    def test_vacuum_floor_at_high_frequency(self):
        p = reference_squeezed()
        bw = SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)
        assert squeezing_spectrum("+", 1e6 * bw.dw_plus, p, bw) == pytest.approx(0.25, rel=1e-9)
        assert squeezing_spectrum("-", 1e6 * bw.dw_minus, p, bw) == pytest.approx(0.25, rel=1e-9)

    def test_pure_state_product_everywhere(self):
        p = ProbeState(alpha_sq=1e6, r_m=0.5, r_p=0.5)
        bw = SqueezingBandwidth.standard(p, 1e6)
        rng = np.random.default_rng(12)
        w = rng.uniform(0, 1e8, 10)
        prod = squeezing_spectrum("+", w, p, bw) * squeezing_spectrum("-", w, p, bw)
        assert np.allclose(prod, 1.0 / 16.0, rtol=1e-12)

    def test_uncertainty_relation_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rm = rng.uniform(0, 1.2)
            p = ProbeState(alpha_sq=1e6, r_m=rm, r_p=rm + rng.uniform(0, 1.2))
            bw = SqueezingBandwidth.standard(p, rng.uniform(1e5, 1e8))
            w = rng.uniform(0, 1e8, 20)
            prod = squeezing_spectrum("+", w, p, bw) * squeezing_spectrum("-", w, p, bw)
            assert np.all(prod >= 1.0 / 16.0 - 1e-15)

    def test_bandwidth_ratio_standard_form(self):
        p = reference_squeezed()
        bw = SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)
        assert bw.dw_plus / bw.dw_minus == pytest.approx(
            math.sqrt((1 - EM2RM) / (E2RP - 1)), rel=1e-12
        )
        assert bw.dw_plus / bw.dw_minus == pytest.approx(0.435, rel=2e-3)
        assert 0.5 * (bw.dw_minus + bw.dw_plus) == pytest.approx(BANDWIDTH_10_OMEGA, rel=1e-12)

    @pytest.mark.parametrize("r_m", [0.0, 1e-20])  # 1 - e^{-2e-20} rounds to 0
    def test_standard_form_needs_squeezing(self, r_m):
        p = ProbeState(alpha_sq=1e6, r_m=r_m, r_p=0.5)
        with pytest.raises(ValueError, match=r"needs squeezing \(r_m > 0\)"):
            SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)

    @pytest.mark.parametrize("dw_minus, dw_plus", [(math.nan, 1e6), (math.inf, math.inf)])
    def test_non_finite_bandwidth_rejected(self, dw_minus, dw_plus):
        with pytest.raises(ValueError, match="must be finite"):
            SqueezingBandwidth(dw_minus, dw_plus)


class TestXiFactor:
    def test_coherent_limit(self):
        assert xi_factor(ProbeState(1.0)) == 1.0

    def test_strong_antisqueezing_limit(self):
        p = ProbeState(alpha_sq=1.0, r_m=0.0, r_p=12.0)
        assert xi_factor(p) == pytest.approx(0.25, rel=1e-3)

    def test_reference_value(self):
        assert xi_factor(reference_squeezed()) == pytest.approx(0.61, abs=0.005)

    def test_singular_configuration(self):
        # e^{2rp} - 1 = 1 - e^{-2rm} requires r_p < r_m, rejected upstream;
        # hit the guard directly through an unvalidated instance
        bad = ProbeState.__new__(ProbeState)
        object.__setattr__(bad, "alpha_sq", 1.0)
        object.__setattr__(bad, "r_m", 1.0)
        object.__setattr__(bad, "r_p", 0.5 * math.log(2 - math.exp(-2.0)))
        object.__setattr__(bad, "sigma_phi_sq", 0.0)
        object.__setattr__(bad, "eta_det", 1.0)
        with pytest.raises(SingularityError):
            xi_factor(bad)


class TestMeanSqueezingFlux:
    def test_coherent_is_zero(self):
        p = ProbeState(1e6)
        bw = SqueezingBandwidth(1e6, 1e6)
        assert mean_squeezing_flux(p, bw) == 0.0

    def test_published_flux_anchor(self):
        p = reference_squeezed()
        bw = SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)
        assert xi_factor(p) * mean_squeezing_flux(p, bw) == pytest.approx(1.37e5, rel=2e-2)

    def test_linear_in_bandwidth(self):
        p = reference_squeezed()
        bw = SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)
        doubled = SqueezingBandwidth(2 * bw.dw_minus, 2 * bw.dw_plus)
        assert mean_squeezing_flux(p, doubled) == pytest.approx(
            2.0 * mean_squeezing_flux(p, bw), rel=1e-12
        )


class TestPhotonFluxPsd:
    def test_coherent_flux_noise(self):
        p = ProbeState(3e6)
        bw = SqueezingBandwidth(1e6, 1e6)
        w = np.array([0.0, 1e5, 1e7])
        assert np.allclose(photon_flux_psd_exact(w, p, bw), p.alpha_sq, rtol=1e-12)
        assert photon_flux_psd_broadband(p) == pytest.approx(p.alpha_sq, rel=1e-12)

    def test_center_matches_flux_corrected_broadband(self):
        # with the standard bandwidth ratio the w = 0 value is exactly
        # (|alpha|^2 + xi I_sq) e^{2 r_p}
        p = reference_squeezed()
        bw = SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)
        exact0 = photon_flux_psd_exact(0.0, p, bw)
        corrected = (p.alpha_sq + xi_factor(p) * mean_squeezing_flux(p, bw)) * E2RP
        assert exact0 == pytest.approx(corrected, rel=1e-10)

    def test_broadband_gap_is_flux_correction(self):
        p = reference_squeezed()
        bw = SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)
        gap = photon_flux_psd_exact(0.0, p, bw) - photon_flux_psd_broadband(p)
        assert gap == pytest.approx(xi_factor(p) * mean_squeezing_flux(p, bw) * E2RP, rel=1e-9)

    def test_high_frequency_limit(self):
        p = reference_squeezed()
        bw = SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)
        w = 300.0 * max(bw.dw_plus, bw.dw_minus)
        expected = p.alpha_sq + mean_squeezing_flux(p, bw)
        assert photon_flux_psd_exact(w, p, bw) == pytest.approx(expected, rel=1e-3)

    def test_broadband_value(self):
        assert photon_flux_psd_broadband(reference_squeezed()) == pytest.approx(
            3.98 * 1.02e6, rel=1e-3
        )

    def test_even_and_nonnegative(self):
        p = reference_squeezed()
        bw = SqueezingBandwidth.standard(p, BANDWIDTH_10_OMEGA)
        rng = np.random.default_rng(14)
        w = rng.uniform(0, 1e8, 100)
        s = photon_flux_psd_exact(w, p, bw)
        assert np.all(s > 0)
        assert np.allclose(photon_flux_psd_exact(-w, p, bw), s, rtol=1e-14)


class TestAttainabilityGap:
    def test_coherent_always_attainable(self):
        for sigma in (0.0, 0.2, 0.8):
            p = ProbeState(1e7, sigma_phi_sq=sigma)
            assert attainability_gap(p) == pytest.approx(1.0, rel=1e-12)

    def test_pure_squeezed_perfect_tracking(self):
        p = ProbeState(alpha_sq=1e6, r_m=0.7, r_p=0.7, sigma_phi_sq=0.0)
        assert attainability_gap(p) == pytest.approx(1.0, rel=1e-12)

    def test_impure_gap_value(self):
        p = reference_squeezed(sigma_phi_sq=0.0)
        assert attainability_gap(p) == pytest.approx(E2RP * EM2RM, rel=1e-12)
        assert attainability_gap(p) == pytest.approx(1.731, rel=2e-3)

    def test_gap_at_least_one(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            rm = rng.uniform(0, 1.5)
            p = ProbeState(
                alpha_sq=rng.uniform(1, 1e9),
                r_m=rm,
                r_p=rm + rng.uniform(0, 1.5),
                sigma_phi_sq=rng.uniform(0, 0.99),
            )
            assert attainability_gap(p) >= 1.0 - 1e-12


def _outcome(fn, *args):
    """`fn(*args)`, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _same(actual, expected) -> bool:
    if isinstance(expected, np.ndarray):
        return np.array_equal(actual, expected)
    return actual == expected


class TestClosedForms:
    """Every function of the quadrature moments equals, bit for bit, its
    closed form written out with `math.exp`."""

    @settings(max_examples=300)
    @given(
        r_m=st.floats(0.0, 2.0),
        extra=st.floats(0.0, 2.0),
        sigma_phi_sq=st.floats(0.0, 0.99),
        eta_det=st.floats(0.01, 1.0),
        log_alpha_sq=st.floats(0.0, 9.0),
        log_dw=st.tuples(st.floats(4.0, 8.0), st.floats(4.0, 8.0), st.floats(4.0, 8.0)),
        omegas=st.lists(st.floats(0.0, 1e8), min_size=8, max_size=8),
    )
    def test_matches_closed_form(
        self, r_m, extra, sigma_phi_sq, eta_det, log_alpha_sq, log_dw, omegas
    ):
        p = ProbeState(10.0**log_alpha_sq, r_m, r_m + extra, sigma_phi_sq, eta_det)
        alpha, s, eta = p.alpha_sq, p.sigma_phi_sq, p.eta_det
        ep, em = math.exp(2.0 * p.r_p), math.exp(-2.0 * p.r_m)
        dwm, dwp, dw0 = (10.0**x for x in log_dw)
        bw = SqueezingBandwidth(dwm, dwp)
        w = np.array(omegas)

        dep, dem = eta * ep + (1.0 - eta), eta * em + (1.0 - eta)
        assert p.detected_moments() == (dep, dem)
        r_eff = s * dep + (1.0 - s) * dem
        assert effective_squeezing_factor(p) == r_eff
        s_z = r_eff / (4.0 * eta * alpha)
        assert measurement_noise_psd(p) == s_z
        assert photon_flux_psd_broadband(p) == alpha * ep
        assert attainability_gap(p) == 4.0 * (alpha * ep) * s_z

        def standard():
            if p.r_m == 0.0 and p.r_p == 0.0:
                return SqueezingBandwidth(dw0, dw0)
            ratio = math.sqrt((1.0 - em) / (ep - 1.0))
            minus = 2.0 * dw0 / (1.0 + ratio)
            return SqueezingBandwidth(minus, ratio * minus)

        assert _outcome(SqueezingBandwidth.standard, p, dw0) == _outcome(standard)

        def xi():
            a, b = ep - 1.0, 1.0 - em
            if a == 0.0 and b == 0.0:
                return 1.0
            den = math.sqrt(a) - math.sqrt(b)
            if den <= 0.0:
                raise SingularityError("singular")
            return math.exp(-2.0 * p.r_p) * (1.0 + 0.25 * (a**1.5 + b**1.5) / den)

        assert _outcome(xi_factor, p) == _outcome(xi)
        flux = 0.125 * ((ep - 1.0) * dwp + (em - 1.0) * dwm)
        assert mean_squeezing_flux(p, bw) == flux

        for x in (w, omegas[0]):
            plus = 0.25 + (0.25 * ep - 0.25) * dwp**2 / (x**2 + dwp**2)
            minus = 0.25 + (0.25 * em - 0.25) * dwm**2 / (x**2 + dwm**2)
            assert _same(squeezing_spectrum("+", x, p, bw), plus)
            assert _same(squeezing_spectrum("-", x, p, bw), minus)
            exact = (
                4.0 * alpha * plus
                + flux
                + 0.125
                * (
                    (ep - 1.0) ** 2 * dwp**3 / (x**2 + (2.0 * dwp) ** 2)
                    + (1.0 - em) ** 2 * dwm**3 / (x**2 + (2.0 * dwm) ** 2)
                )
            )
            assert _same(photon_flux_psd_exact(x, p, bw), exact)
