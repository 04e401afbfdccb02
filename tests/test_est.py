"""Estimation path: quadrature, analytic MSEs, bounds, filters, smoothing."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
from hypothesis import given, settings, strategies as st

from mirrormotion import cli, est, sim
from mirrormotion.errors import GridMismatchError, TailAccuracyError
from mirrormotion.est import FilterBank, SpectralGrid, analytic_mmse, empirical_mse, optimal_filter, prior_variance, qcrb, qcrb_finite_bandwidth, smooth, trial_mse
from mirrormotion.model import ForceParams, NominalTransferFunction, PriorModel
from mirrormotion.probe import ProbeState, SqueezingBandwidth, attainability_gap, measurement_noise_psd, photon_flux_psd_broadband, photon_flux_psd_exact

import oracles
from conftest import ALPHA_SQS, ANTISQUEEZING_DB, BANDWIDTH_10_OMEGA, ETA, KAPPA, LAMBDA, SQUEEZING_DB


def split_quad(fn, priors, upper):
    """Integral_0^upper fn(w) dw by scipy's adaptive integrator, split at 10
    Omega with breakpoints at lambda and Omega +- gamma, so that it cannot
    step over the resonance of a range that reaches ~1e10 rad/s."""
    omega, gamma = priors.params.Omega, priors.params.gamma
    pieces = (
        (0.0, 10.0 * omega, [priors.force.lam, omega - gamma, omega, omega + gamma]),
        (10.0 * omega, upper, None),
    )
    return sum(
        scipy.integrate.quad(fn, lo, hi, points=points, limit=400, epsabs=0.0)[0]
        for lo, hi, points in pieces
    )


def squeezed(alpha_sq, sigma_phi_sq=0.0, eta_det=1.0):
    probe = ProbeState.from_db(alpha_sq, SQUEEZING_DB, ANTISQUEEZING_DB, eta_det=eta_det)
    return replace(probe, sigma_phi_sq=sigma_phi_sq)


class TestSpectralGrid:
    def test_nodes_increasing_and_positive_weights(self, grid):
        assert np.all(np.diff(grid.nodes) > 0)
        assert np.all(grid.weights > 0)

    def test_omega_max_floor(self, grid, mirror):
        assert grid.omega_max >= 50.0 * max(mirror.Omega, LAMBDA)

    def test_matches_adaptive_quadrature(self, priors, grid):
        # resonance-dominated integrand against scipy's adaptive integrator;
        # abs=0 because the integral (~1e-15) is below approx's default abs
        # tolerance
        fn = lambda w: priors.psd("q", w)
        ref = split_quad(fn, priors, grid.omega_max)
        assert grid.integrate(fn(grid.nodes)) == pytest.approx(ref, rel=1e-8, abs=0.0)

    def test_doubling_converged(self, priors, grid):
        value = grid.integrate(priors.psd("f", grid.nodes))
        refined = grid.doubled()
        value2 = refined.integrate(priors.psd("f", refined.nodes))
        assert value2 == pytest.approx(value, rel=2e-5)

    def test_doubled_grid_built_once(self, priors, grid):
        twin = grid.doubled()
        assert grid.doubled() is twin
        fresh = est._raw_grid(priors, 2.0 * grid.omega_max, est.N_PER_PANEL)
        assert twin.omega_max == fresh.omega_max
        assert np.array_equal(twin.nodes, fresh.nodes)
        assert np.array_equal(twin.weights, fresh.weights)

    def test_integrand_tables_built_once(self, priors, grid):
        tables = grid.integrands
        assert grid.integrands is tables
        for x in ("q", "p", "f"):
            assert np.array_equal(tables[x], priors.psd(x, grid.nodes))
        assert np.array_equal(tables["K"], priors.information_kernel(grid.nodes))
        assert not any(t.flags.writeable for t in tables.values())

    @pytest.mark.parametrize("n", [est.N_PER_PANEL, 2 * est.N_PER_PANEL])
    def test_quadrature_rule_cached(self, n):
        x, w = est._gauss_legendre(n)
        assert est._gauss_legendre(n)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert not x.flags.writeable and not w.flags.writeable

    def test_tail_error_raised_for_short_grid(self, priors):
        stub = est._raw_grid(priors, 5.0 * LAMBDA, 16)
        with pytest.raises(TailAccuracyError):
            prior_variance("f", stub)

    def test_nan_integral_fails_tail_check(self, grid):
        with pytest.raises(TailAccuracyError, match="nan"):
            est._information_integral("q", grid, lambda w: math.nan, "nan_flux")


class TestAnalyticMmse:
    def test_perfect_measurement_limit(self, priors, grid):
        # the near-noiseless integrands stay flat far past the default cutoff,
        # so this extreme needs an explicitly deeper grid; note the force MSE
        # decays only like S_z^(1/6) because force content beyond the
        # mechanical band is unobservable at any flux
        deep = est._raw_grid(priors, 2e14, est.N_PER_PANEL)
        for x in ("q", "p", "f"):
            values = [
                analytic_mmse(x, ProbeState(a), deep)
                for a in (1.02e6, 1e12, 1e18, 1e24)
            ]
            assert np.all(np.diff(values) < 0)
            assert values[-1] < 1e-3 * values[0]

    def test_no_information_limit(self, grid):
        blind = ProbeState(1e-12)
        assert analytic_mmse("f", blind, grid) == pytest.approx(
            KAPPA / (2 * LAMBDA), rel=2e-5, abs=0.0
        )
        for x in ("q", "p", "f"):
            assert analytic_mmse(x, blind, grid) == pytest.approx(
                prior_variance(x, grid), rel=1e-9, abs=0.0
            )

    def test_force_mmse_against_posterior_oracle(self, mirror, force, grid):
        probe = ProbeState(6.24e6)
        oracle = oracles.posterior_mse("f", mirror, force, probe, 256, 4e-6)
        assert analytic_mmse("f", probe, grid) == pytest.approx(oracle, rel=2e-2)

    def test_monotone_decreasing_in_amplitude(self, grid):
        for x in ("q", "p", "f"):
            mmse = [analytic_mmse(x, ProbeState(a), grid) for a in ALPHA_SQS]
            bound = [qcrb(x, ProbeState(a), grid) for a in ALPHA_SQS]
            assert np.all(np.diff(mmse) < 0)
            assert np.all(np.diff(bound) < 0)

    def test_prior_variance_against_lyapunov(self, mirror, force, priors, grid):
        fine = est._raw_grid(priors, grid.omega_max * 2**14, est.N_PER_PANEL)
        p_inf = oracles.stationary_covariance(mirror, force)
        for x, idx in (("q", 0), ("p", 1), ("f", 2)):
            assert prior_variance(x, fine) == pytest.approx(p_inf[idx, idx], rel=1e-7, abs=0.0)


class TestQcrb:
    def test_coherent_equals_mmse(self, grid):
        for a in ALPHA_SQS:
            probe = ProbeState(a)
            for x in ("q", "p", "f"):
                assert qcrb(x, probe, grid) == pytest.approx(
                    analytic_mmse(x, probe, grid), rel=1e-9, abs=0.0
                )

    def test_impure_squeezed_bound_is_looser_than_mmse(self, grid):
        probe = squeezed(1.02e6)
        assert attainability_gap(probe) > 1.0
        for x in ("q", "p", "f"):
            assert qcrb(x, probe, grid) < analytic_mmse(x, probe, grid)

    def test_squeezed_bound_below_coherent_bound(self, grid):
        for a in ALPHA_SQS:
            for x in ("q", "p", "f"):
                assert qcrb(x, squeezed(a), grid) < qcrb(
                    x, ProbeState(a), grid
                )

    def test_ordering_chain(self, priors, grid):
        fine = est._raw_grid(priors, grid.omega_max * 2**7, est.N_PER_PANEL)
        for a in (1.02e6, 6.24e6):
            coh = ProbeState(a)
            sq = squeezed(a)
            for x in ("q", "p", "f"):
                chain = (
                    qcrb(x, sq, fine),
                    qcrb(x, coh, fine),
                    analytic_mmse(x, coh, fine),
                    prior_variance(x, fine),
                )
                assert chain[0] < chain[1]
                assert chain[1] <= chain[2] * (1 + 1e-12)
                assert chain[2] < chain[3]

    def test_pointwise_integrand_dominance(self, priors, grid):
        # bound integrand <= MMSE integrand at every node when the gap >= 1
        for a in (1.02e6, 6.24e6):
            for probe in (ProbeState(a), squeezed(a, sigma_phi_sq=5e-3)):
                assert attainability_gap(probe) >= 1.0 - 1e-12
                w = grid.nodes
                k = priors.information_kernel(w)
                sz = measurement_noise_psd(probe)
                s_di4 = 4.0 * photon_flux_psd_broadband(probe)
                for x in ("q", "p", "f"):
                    sx = priors.psd(x, w)
                    mmse_int = sx * sz / (sz + k)
                    qcrb_int = sx / (1.0 + s_di4 * k)
                    assert np.all(qcrb_int <= mmse_int * (1 + 1e-9))

    @settings(max_examples=25)
    @given(
        log_alpha_sq=st.floats(5.0, 8.0),
        squeezing_db=st.floats(0.1, 6.0),
        extra_antisqueezing_db=st.floats(0.0, 6.0),
        eta_det=st.floats(0.5, 1.0),
        sigma_phi_sq=st.floats(0.0, 0.05),
        log_omega=st.floats(4.5, 6.0),
        log_gamma=st.floats(2.5, 4.5),
        log_lam=st.floats(3.5, 5.5),
    )
    def test_ordering_property(
        self, mirror, log_alpha_sq, squeezing_db, extra_antisqueezing_db, eta_det,
        sigma_phi_sq, log_omega, log_gamma, log_lam,
    ):
        params = replace(mirror, Omega=10.0**log_omega, gamma=10.0**log_gamma)
        priors = PriorModel(params, ForceParams(lam=10.0**log_lam, kappa=KAPPA))
        grid = SpectralGrid.build(priors)
        a = 10.0**log_alpha_sq
        coh = ProbeState(a, sigma_phi_sq=sigma_phi_sq, eta_det=eta_det)
        sq = replace(
            ProbeState.from_db(a, squeezing_db, squeezing_db + extra_antisqueezing_db, eta_det=eta_det),
            sigma_phi_sq=sigma_phi_sq,
        )
        for x in ("q", "p", "f"):
            qcrb_sq, qcrb_coh = qcrb(x, sq, grid), qcrb(x, coh, grid)
            mmse_coh, mmse_sq = analytic_mmse(x, coh, grid), analytic_mmse(x, sq, grid)
            assert qcrb_sq < qcrb_coh <= mmse_coh * (1 + 1e-9) < prior_variance(x, grid)
            assert qcrb_sq <= mmse_sq * (1 + 1e-9)


class TestQcrbFiniteBandwidth:
    """The squeezed bound on the beam's exact photon-flux spectrum."""

    @pytest.mark.parametrize("alpha_sq", [1e3, 1e5, 1.02e6, 6.24e6, 1e8, 1e10])
    @pytest.mark.parametrize("eta_det", [0.5, ETA, 1.0])
    def test_coherent_equals_broadband_bound(self, grid, alpha_sq, eta_det):
        # S_dI(w) = 4 |alpha|^2 / 4 + 0 + 0 = |alpha|^2 exactly
        probe = ProbeState(alpha_sq, sigma_phi_sq=3e-3, eta_det=eta_det)
        bw = SqueezingBandwidth.standard(probe, BANDWIDTH_10_OMEGA)
        for x in ("q", "p", "f"):
            assert qcrb_finite_bandwidth(x, probe, bw, grid) == qcrb(x, probe, grid)

    @pytest.mark.parametrize("alpha_sq", [1.02e6, 6.24e6])
    def test_matches_adaptive_quadrature(self, priors, grid, alpha_sq):
        # the same integrand by scipy's adaptive integrator on the refined range
        probe = squeezed(alpha_sq)
        bw = SqueezingBandwidth.standard(probe, BANDWIDTH_10_OMEGA)
        for x in ("q", "p", "f"):
            def integrand(w):
                k = priors.information_kernel(w)
                return priors.psd(x, w) / (1.0 + 4.0 * photon_flux_psd_exact(w, probe, bw) * k)

            ref = split_quad(integrand, priors, grid.doubled().omega_max)
            # abs=0: the bounds are ~1e-17, far below approx's default abs tolerance
            assert qcrb_finite_bandwidth(x, probe, bw, grid) == pytest.approx(
                ref / np.pi, rel=1e-9, abs=0.0
            )

    def test_reference_q_ratios(self, grid):
        # the finite bandwidth matters most at the faintest reference amplitude
        ratios = []
        for alpha_sq in ALPHA_SQS:
            probe = squeezed(alpha_sq)
            bw = SqueezingBandwidth.standard(probe, BANDWIDTH_10_OMEGA)
            ratios.append(qcrb_finite_bandwidth("q", probe, bw, grid) / qcrb("q", probe, grid))
        assert ratios == pytest.approx([0.9229, 0.9555, 0.9720, 0.9921], abs=1e-3)


class TestInformationIntegral:
    """Each integral is Integral S_x / (1 + nu K) on the doubled grid, with
    the expression's operations in its order, bit for bit."""

    @staticmethod
    def direct(x, grid, nu):
        g = grid.doubled()
        return g.integrate(g.integrands[x] / (1.0 + nu(g.nodes) * g.integrands["K"])) / np.pi

    @pytest.mark.parametrize("alpha_sq", [ALPHA_SQS[0], ALPHA_SQS[-1]])
    @pytest.mark.parametrize("x", ["q", "p", "f"])
    def test_constant_nu(self, grid, x, alpha_sq):
        probe = squeezed(alpha_sq, sigma_phi_sq=5e-3, eta_det=ETA)
        mmse_nu = 1.0 / measurement_noise_psd(probe)
        qcrb_nu = 4.0 * photon_flux_psd_broadband(probe)
        assert analytic_mmse(x, probe, grid) == self.direct(x, grid, lambda w: mmse_nu)
        assert qcrb(x, probe, grid) == self.direct(x, grid, lambda w: qcrb_nu)

    @pytest.mark.parametrize("alpha_sq", [ALPHA_SQS[0], ALPHA_SQS[-1]])
    @pytest.mark.parametrize("x", ["q", "p", "f"])
    def test_array_nu(self, grid, x, alpha_sq):
        probe = squeezed(alpha_sq)
        bw = SqueezingBandwidth.standard(probe, BANDWIDTH_10_OMEGA)
        nu = lambda w: 4.0 * photon_flux_psd_exact(w, probe, bw)  # noqa: E731
        assert qcrb_finite_bandwidth(x, probe, bw, grid) == self.direct(x, grid, nu)

    @pytest.mark.parametrize("x", ["q", "p", "f"])
    def test_zero_nu(self, grid, x):
        assert prior_variance(x, grid) == self.direct(x, grid, lambda w: 0.0)


class TestGoldenBounds:
    """`bounds` values at the four reference amplitudes, computed with the
    minimum-MSE integrand written as S_x S_z / (S_z + K): a refactor of the
    spectral path may move only their last bits."""

    # (alpha_sq, x): (mmse_coh, mmse_sq, qcrb_coh, qcrb_sq)
    GOLDEN = {
        (1020000.0, "q"): (7.24569042650811e-17, 5.2477470372326284e-17, 6.771531633470563e-17, 2.997025405175122e-17),
        (1020000.0, "p"): (5.145462693646861e-13, 3.608490224889426e-13, 4.76451637341653e-13, 2.0804692461668686e-13),
        (1020000.0, "f"): (0.010349452662788272, 0.008675313419303915, 0.009999708043653596, 0.00615505384714111),
        (1880000.0, "q"): (5.2768017172294464e-17, 3.5977731811666145e-17, 4.879031437078968e-17, 1.921231396996113e-17),
        (1880000.0, "p"): (3.629556397075728e-13, 2.4701574747536966e-13, 3.344369844660777e-13, 1.403628199634473e-13),
        (1880000.0, "f"): (0.008703491284963179, 0.0068909332792324515, 0.008307823152421241, 0.0047311615258982705),
        (2870000.0, "q"): (4.115080046321188e-17, 2.6836847049419297e-17, 3.772974278194372e-17, 1.379095878275712e-17),
        (2870000.0, "p"): (2.8154162657276247e-13, 1.8811875454341684e-13, 2.586005511836439e-13, 1.0650245502413093e-13),
        (2870000.0, "f"): (0.0074886670527785654, 0.005754111306273778, 0.007097173551931494, 0.003962198497973393),
        (6240000.0, "q"): (2.438548584300336e-17, 1.478902196965037e-17, 2.203252753387127e-17, 7.254798178328846e-18),
        (6240000.0, "p"): (1.7267648334299923e-13, 1.1276691740301308e-13, 1.5794621980195678e-13, 6.429649316914826e-14),
        (6240000.0, "f"): (0.005432491152630085, 0.004106569815998359, 0.0051173007947193745, 0.002974322424308758),
    }

    @pytest.fixture(scope="class")
    def reference(self):
        config = cli.reference_config()
        return config, SpectralGrid.build(config.priors())

    @pytest.mark.parametrize("alpha_sq", ALPHA_SQS)
    def test_matches_golden(self, reference, alpha_sq):
        config, grid = reference
        coh = config.operating_point("coherent", alpha_sq)
        sq = config.operating_point("squeezed", alpha_sq)
        for x in ("q", "p", "f"):
            values = (
                analytic_mmse(x, coh, grid),
                analytic_mmse(x, sq, grid),
                qcrb(x, coh, grid),
                qcrb(x, sq, grid),
            )
            assert values == pytest.approx(self.GOLDEN[alpha_sq, x], rel=1e-12, abs=0.0)


class TestGoldenCalibration:
    """Self-consistent tracking errors at the four reference amplitudes,
    pinned exactly: every bound and filter of a cell starts from them, and
    the bounds golden above would pass a last-bit change here."""

    # (kind, alpha_sq): operating_point(kind, alpha_sq).sigma_phi_sq
    GOLDEN = {
        ("coherent", 1020000.0): 0.012338384128018649,
        ("coherent", 1880000.0): 0.00967355435692306,
        ("coherent", 2870000.0): 0.008033493876040899,
        ("coherent", 6240000.0): 0.005475579187113506,
        ("squeezed", 1020000.0): 0.009633307380824489,
        ("squeezed", 1880000.0): 0.007276137905336827,
        ("squeezed", 2870000.0): 0.005872088873180458,
        ("squeezed", 6240000.0): 0.0037915448309478357,
    }

    @pytest.mark.parametrize("kind", cli.PROBE_KINDS)
    @pytest.mark.parametrize("alpha_sq", ALPHA_SQS)
    def test_matches_golden(self, kind, alpha_sq):
        probe = cli.reference_config().operating_point(kind, alpha_sq)
        assert probe.sigma_phi_sq == self.GOLDEN[kind, alpha_sq]


class TestOptimalFilter:
    def test_ignore_measurement_limit(self, priors):
        blind = ProbeState(1e-18)
        w = np.array([0.0, 1e4, 2e5])
        for x in ("q", "p", "f"):
            assert np.all(np.abs(optimal_filter(x, w, priors, blind)) < 1e-12)

    def test_channel_inversion_limit(self, priors, mirror):
        tight = ProbeState(1e30)
        w = np.array([1e4, 1.76e5, 9e5])
        c = mirror.phase_gain
        g = np.asarray(NominalTransferFunction(mirror)(w))
        assert np.allclose(optimal_filter("q", w, priors, tight), 1.0 / c, rtol=1e-9)
        assert np.allclose(
            optimal_filter("p", w, priors, tight), 1j * mirror.m * w / c, rtol=1e-9
        )
        assert np.allclose(optimal_filter("f", w, priors, tight), 1.0 / (c * g), rtol=1e-9)

    def test_momentum_filter_vanishes_at_dc(self, priors):
        probe = ProbeState(1.02e6)
        assert optimal_filter("p", 0.0, priors, probe) == 0.0

    def test_finite_on_dense_grid(self, priors):
        probe = squeezed(1.02e6, sigma_phi_sq=5e-3, eta_det=ETA)
        w = np.linspace(0.0, 5e7, 20001)
        for x in ("q", "p", "f"):
            assert np.all(np.isfinite(optimal_filter(x, w, priors, probe)))

    def test_hermitian_symmetry(self, priors):
        probe = squeezed(1.02e6)
        rng = np.random.default_rng(8)
        w = rng.uniform(1e2, 1e7, 50)
        for x in ("q", "p", "f"):
            assert np.allclose(
                optimal_filter(x, -w, priors, probe),
                np.conj(optimal_filter(x, w, priors, probe)),
                rtol=1e-13,
            )

    def test_position_filter_dc_against_discrete_wiener(self, mirror, force, priors):
        probe = ProbeState(1.02e6)
        weights = oracles.wiener_weights("q", mirror, force, probe, 64, 1.2e-5)
        jq0 = complex(optimal_filter("q", 0.0, priors, probe)).real
        assert float(np.sum(weights)) == pytest.approx(jq0, rel=1e-2)


@pytest.fixture(scope="module")
def smoothing_cfg():
    return sim.SimConfig(dt=1e-7, n_samples=10_000, seed=77)


class TestSmoothing:

    def test_zero_in_zero_out(self, priors, smoothing_cfg):
        bank = FilterBank.build(4096, smoothing_cfg.dt, priors, ProbeState(1e6))
        out = smooth(np.zeros(4096), "q", bank)
        assert np.all(out == 0.0)

    def test_noiseless_channel_inversion(self, mirror, force, priors, smoothing_cfg):
        tight = ProbeState(1e28)
        f = sim.simulate_ou(force, smoothing_cfg, sim.trial_rng(80, 0), n=50_000)
        pad = sim.trial_geometry(force, mirror, smoothing_cfg)[0]
        q, _, phi = sim.mirror_response(f, mirror, smoothing_cfg, pad)
        bank = FilterBank.build(50_000, smoothing_cfg.dt, priors, tight)
        q_hat = smooth(phi, "q", bank)
        inner = slice(5000, -5000)
        rel = np.sqrt(np.mean((q_hat - q)[inner] ** 2) / np.mean(q[inner] ** 2))
        assert rel < 1e-8

    def test_real_output_from_hermitian_bank(self, priors, smoothing_cfg):
        # apply the filter through the full complex FFT and check the
        # imaginary residue the rfft path silently guarantees
        probe = squeezed(1.02e6, sigma_phi_sq=5e-3, eta_det=ETA)
        n = 8192
        bank = FilterBank.build(n, smoothing_cfg.dt, priors, probe)
        rng = np.random.default_rng(9)
        y = rng.normal(size=n)
        spectrum = scipy.fft.fft(y)
        for x in ("q", "p", "f"):
            j_half = bank.filters[x]
            j_full = np.concatenate([j_half, np.conj(j_half[-2:0:-1])])
            out = scipy.fft.ifft(j_full * spectrum)
            assert np.max(np.abs(out.imag)) < 1e-10 * np.sqrt(np.mean(out.real**2))
            assert np.allclose(out.real, smooth(y, x, bank), atol=1e-12 * np.std(out.real))

    def test_grid_mismatch_raises(self, priors, smoothing_cfg):
        bank = FilterBank.build(4096, smoothing_cfg.dt, priors, ProbeState(1e6))
        with pytest.raises(GridMismatchError):
            smooth(np.zeros(4095), "q", bank)


class TestSmootherReach:
    """Every sample of the data window is scored, so each scored estimate must
    draw only on data inside the trial's record: the smoother's kernel has to
    vanish at circular lags beyond the margin, where it would reach across the
    record's ends (measured <= 3e-28 of its energy at the reference cells)."""

    @pytest.mark.parametrize("alpha_sq", ALPHA_SQS)
    @pytest.mark.parametrize("kind", ["coherent", "squeezed"])
    def test_kernel_inside_margins(self, kind, alpha_sq):
        config = cli.reference_config()
        cfg = config.simulation
        n_margin, n_total = sim.trial_geometry(config.force, config.mirror, cfg)
        probe = config.operating_point(kind, alpha_sq)
        bank = FilterBank.build(n_total, cfg.dt, config.priors(), probe)
        lag = np.arange(n_total)
        beyond = np.minimum(lag, n_total - lag) > n_margin
        for x in ("q", "p", "f"):
            energy = scipy.fft.irfft(bank.filters[x], n_total) ** 2
            assert np.sum(energy[beyond]) <= 1e-20 * np.sum(energy), x


class TestEmpiricalMse:

    def scores(self, estimates, truths):
        return [trial_mse(e, t) for e, t in zip(estimates, truths)]

    def test_exact_estimates(self):
        truth = np.random.default_rng(1).normal(size=(3, 10_000))
        mse, stderr = empirical_mse(self.scores(truth, truth))
        assert mse == 0.0
        assert stderr == 0.0

    def test_unit_white_noise(self):
        rng = np.random.default_rng(2)
        truth = np.zeros((100, 10_000))
        noisy = truth + rng.normal(size=truth.shape)
        mse, stderr = empirical_mse(self.scores(noisy, truth))
        assert mse == pytest.approx(1.0, rel=5e-3)
        # stderr ~ sqrt(2/samples)/sqrt(trials) for Gaussian errors
        assert stderr == pytest.approx(math.sqrt(2.0 / 10_000.0 / 100.0), rel=0.3)

    def test_per_trial_means_match_batched_mean(self):
        # each trial scored alone gives the bits of one axis=1 mean over all
        rng = np.random.default_rng(3)
        e, t = rng.normal(size=(2, 50, 10_000))
        batched = np.mean((e - t) ** 2, axis=1)
        assert self.scores(e, t) == batched.tolist()

    def test_requires_two_trials(self):
        with pytest.raises(ValueError, match="two trials"):
            empirical_mse(self.scores(np.zeros((1, 10_000)), np.zeros((1, 10_000))))

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError, match="matching"):
            trial_mse(np.zeros(10_000), np.zeros(9_999))


class TestOracleEquivalence:
    """Frequency-domain MMSE vs dense linear-Gaussian conditioning."""

    @pytest.mark.parametrize("alpha_sq", [1.02e6, 6.24e6])
    @pytest.mark.parametrize("kind", ["coherent", "squeezed"])
    def test_posterior_mse_matches(self, mirror, force, grid, alpha_sq, kind):
        probe = (
            ProbeState(alpha_sq, eta_det=ETA)
            if kind == "coherent"
            else squeezed(alpha_sq, sigma_phi_sq=5e-3, eta_det=ETA)
        )
        for x in ("q", "p", "f"):
            oracle = oracles.posterior_mse(x, mirror, force, probe, 256, 4e-6)
            assert analytic_mmse(x, probe, grid) == pytest.approx(oracle, rel=3e-2, abs=0.0)
