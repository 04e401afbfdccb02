"""Monte Carlo engine: force statistics, mechanical response, phase tracking."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.signal
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from mirrormotion import sim
from mirrormotion.errors import RiccatiError
from mirrormotion.model import ForceParams, MirrorParams, NominalTransferFunction, PriorModel
from mirrormotion.probe import ProbeState, measurement_noise_psd

import oracles
from conftest import (
    ALPHA_SQS, ANTISQUEEZING_DB, ETA, GAMMA, KAPPA, LAMBDA, MASS, OMEGA, SQUEEZING_DB, THETA, WAVELENGTH,
)


@pytest.fixture(scope="module")
def cfg():
    return sim.SimConfig(dt=1e-7, n_samples=10_000, n_trials=4, seed=902, mode="linearized")


@pytest.fixture(scope="module")
def pad(priors, cfg):
    """Zero padding for mirror_response: the margin of a trial at `cfg`."""
    return sim.trial_geometry(priors, cfg)[0]


def squeezed(alpha_sq, sigma_phi_sq=0.0):
    probe = ProbeState.from_db(alpha_sq, SQUEEZING_DB, ANTISQUEEZING_DB, eta_det=ETA)
    return replace(probe, sigma_phi_sq=sigma_phi_sq)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sim.SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            sim.SimConfig(mode="exact")
        with pytest.raises(ValueError):
            sim.SimConfig(feedback_delay_samples=-1)
        with pytest.raises(ValueError):
            sim.SimConfig(dt=math.nan)
        with pytest.raises(ValueError):
            sim.SimConfig(dt=math.inf)

    def test_feedback_delay_shorter_than_window(self):
        # a delay as long as the data window feeds back nothing, and the
        # nonlinear loop allocates its delay line before the first sample
        longest = sim.SimConfig(n_samples=100, feedback_delay_samples=99)
        assert longest.feedback_delay_samples == 99
        with pytest.raises(ValueError, match="shorter than the data window"):
            sim.SimConfig(n_samples=100, feedback_delay_samples=100)

    def test_short_trace_rejected(self, priors):
        cfg = sim.SimConfig(dt=1e-7, n_samples=1000)
        with pytest.raises(ValueError, match="correlation times"):
            sim.trial_geometry(priors, cfg)

    def test_trial_length_capped(self, force, mirror, priors, cfg, monkeypatch):
        # damping 1/s puts 2e8 samples of margin on each side of the window;
        # the grid is refused before any array of that length exists
        slow = replace(mirror, gamma=1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as refused:
                sim.trial_geometry(PriorModel(slow, force), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == (
            "a trial of 4.0001e+08 samples (2e+08 of margin on each side of the "
            "10000-sample window) exceeds 16777216 samples"
        )
        assert peak < 1 << 20
        # the cap is inclusive: the reference grid passes at exactly its length
        n_total = sim.trial_geometry(priors, cfg)[1]
        monkeypatch.setattr(sim, "MAX_TRIAL_SAMPLES", n_total)
        assert sim.trial_geometry(priors, cfg)[1] == n_total
        monkeypatch.setattr(sim, "MAX_TRIAL_SAMPLES", n_total - 1)
        with pytest.raises(ValueError, match=f"a trial of {n_total} samples"):
            sim.trial_geometry(priors, cfg)

    @pytest.mark.parametrize("gamma", [1e-3, 1e-30, 1e-200])
    def test_extreme_damping_refused_before_padding(self, force, mirror, cfg, monkeypatch, gamma):
        # margins of 2e11 to 2e208 samples: refused on the unpadded length,
        # before `math.ceil` or `next_fast_len` sees them
        def unreachable(n):
            raise AssertionError(f"next_fast_len({n})")

        monkeypatch.setattr(scipy.fft, "next_fast_len", unreachable)
        with pytest.raises(ValueError, match="exceeds 16777216 samples"):
            sim.trial_geometry(PriorModel(replace(mirror, gamma=gamma), force), cfg)


class TestTrialRng:
    @pytest.mark.parametrize("seed", [424242, 3, 0])
    def test_matches_spawned_child(self, seed):
        # trial_rng builds the idx-th child of SeedSequence(seed).spawn directly
        for idx in (0, 1, 7, 149, 299, 1000):
            spawned = np.random.SeedSequence(seed).spawn(idx + 1)[-1]
            expected = np.random.default_rng(spawned).normal(size=1000)
            assert np.array_equal(sim.trial_rng(seed, idx).normal(size=1000), expected)


class TestSimulateOu:
    def test_stationary_variance_and_lag1(self, force, cfg):
        f = sim.simulate_ou(force, cfg, np.random.default_rng(1), n=10_000_000)
        target = KAPPA / (2 * LAMBDA)
        assert np.var(f) == pytest.approx(target, rel=1e-2)
        assert np.var(f) == pytest.approx(1.430e-2, rel=1e-2)
        lag1 = np.mean(f[1:] * f[:-1]) / np.var(f)
        assert lag1 == pytest.approx(math.exp(-LAMBDA * cfg.dt), rel=1e-2)

    def test_white_noise_limit(self, force, cfg):
        # one-step innovation variance -> kappa*dt as lambda*dt -> 0
        f = sim.simulate_ou(force, cfg, np.random.default_rng(2), n=1_000_000)
        a = math.exp(-LAMBDA * cfg.dt)
        innov = f[1:] - a * f[:-1]
        assert np.var(innov) == pytest.approx(KAPPA * cfg.dt, rel=1e-2)

    def test_distribution_exact(self, force, cfg):
        f = sim.simulate_ou(force, cfg, np.random.default_rng(3), n=1_000_000)
        scale = math.sqrt(KAPPA / (2 * LAMBDA))
        # thin to roughly independent samples before the KS test
        step = int(10.0 / (LAMBDA * cfg.dt))
        _, p_value = scipy.stats.kstest(f[::step] / scale, "norm")
        assert p_value > 0.01

    def test_same_seed_bit_identical(self, force, cfg):
        f1 = sim.simulate_ou(force, cfg, sim.trial_rng(42, 7), n=cfg.n_samples)
        f2 = sim.simulate_ou(force, cfg, sim.trial_rng(42, 7), n=cfg.n_samples)
        assert np.array_equal(f1, f2)

    def test_distinct_trials_independent(self, force, cfg):
        f1 = sim.simulate_ou(force, cfg, sim.trial_rng(42, 0), n=100_000)
        f2 = sim.simulate_ou(force, cfg, sim.trial_rng(42, 1), n=100_000)
        # correlate the whitened innovations; the paths themselves have a
        # ~170-sample correlation time so the iid bound would not apply
        a = math.exp(-LAMBDA * cfg.dt)
        e1 = f1[1:] - a * f1[:-1]
        e2 = f2[1:] - a * f2[:-1]
        rho = np.corrcoef(e1, e2)[0, 1]
        assert abs(rho) < 3.0 / math.sqrt(e1.size)


class TestMirrorResponse:
    def test_static_spring_response(self, mirror, cfg, pad):
        f0 = 2.5e-3
        n = 50_000
        f = np.full(n, f0)
        q, _, _ = sim.mirror_response(f, mirror, cfg, pad)
        mid = q[n // 2 : n // 2 + 5000]
        assert np.allclose(mid, f0 / (mirror.m * mirror.Omega**2), rtol=1e-3)

    def test_resonant_gain(self, mirror, cfg, pad):
        n = 80_000
        t = np.arange(n) * cfg.dt
        f0 = 1e-3
        f = f0 * np.sin(mirror.Omega * t)
        q, _, _ = sim.mirror_response(f, mirror, cfg, pad)
        mid = q[40_000:70_000]
        resonant = abs(NominalTransferFunction(mirror)(mirror.Omega))
        assert np.sqrt(np.mean(mid**2)) == pytest.approx(resonant * f0 / math.sqrt(2.0), rel=1e-2)
        assert resonant == pytest.approx(
            1.0 / (mirror.m * mirror.gamma * mirror.Omega), rel=1e-12
        )

    def test_momentum_is_mass_times_velocity(self, mirror, force, cfg, pad):
        f = sim.simulate_ou(force, cfg, np.random.default_rng(5), n=60_000)
        q, p, _ = sim.mirror_response(f, mirror, cfg, pad)
        dq = (q[2:] - q[:-2]) / (2 * cfg.dt)
        resid = p[1:-1] - mirror.m * dq
        inner = slice(2000, -2000)
        rel = np.sqrt(np.mean(resid[inner] ** 2) / np.mean(p[1:-1][inner] ** 2))
        assert rel < 5e-3

    def test_phase_proportional_to_position(self, mirror, force, cfg, pad):
        f = sim.simulate_ou(force, cfg, np.random.default_rng(6), n=20_000)
        q, _, phi = sim.mirror_response(f, mirror, cfg, pad)
        assert np.array_equal(phi, mirror.phase_gain * q)


class TestDiscretization:
    def test_force_block_matches_ou_formulas(self, priors, cfg):
        tracker = sim.KalmanTracker(measurement_noise_psd(ProbeState(1e6)), priors, cfg)
        a = math.exp(-LAMBDA * cfg.dt)
        assert tracker.a_d[2, 2] == pytest.approx(a, rel=1e-12)
        # exact: `_track_nonlinear` updates the force as a22 x2p alone
        assert tracker.a_d[2, :2].tolist() == [0.0, 0.0]
        assert tracker.q_d[2, 2] == pytest.approx(
            KAPPA * (1 - a * a) / (2 * LAMBDA), rel=1e-10
        )

    def test_stationary_covariance_consistency(self, mirror, force, priors, cfg):
        # discrete-time stationarity must reproduce the continuous Lyapunov solution
        tracker = sim.KalmanTracker(measurement_noise_psd(ProbeState(1e6)), priors, cfg)
        p_disc = scipy.linalg.solve_discrete_lyapunov(tracker.a_d, tracker.q_d)
        p_cont = oracles.stationary_covariance(mirror, force)
        assert np.allclose(p_disc, p_cont, rtol=1e-8)

    def test_cache_matches_fresh_van_loan(self, mirror, force, priors, cfg):
        m = mirror.m
        a_c = np.array(
            [
                [0.0, 1.0 / m, 0.0],
                [-m * mirror.Omega**2, -mirror.gamma, 1.0],
                [0.0, 0.0, -force.lam],
            ]
        )
        a_d, q_d = sim._discretize(a_c, np.diag([0.0, 0.0, force.kappa]), cfg.dt)
        tracker = sim.KalmanTracker(measurement_noise_psd(ProbeState(1e6)), priors, cfg)
        assert np.array_equal(tracker.a_d, a_d)
        assert np.array_equal(tracker.q_d, q_d)
        assert not tracker.a_d.flags.writeable and not tracker.q_d.flags.writeable

    def test_cache_keyed_on_model_and_period(self, mirror, force, priors, cfg):
        cached = sim._tracker_model(priors, cfg.dt)
        # equal but distinct models share one entry, spectrum included
        twin = sim._tracker_model(PriorModel(replace(mirror), replace(force)), cfg.dt)
        assert all(a is b for a, b in zip(twin, cached))
        a_d, q_d, c_vec, spectrum = cached
        w, w_fine, s_phi = spectrum
        assert w_fine.size == 2 * w.size
        assert s_phi.shape == (w.size + w_fine.size,)  # coarse nodes, then fine
        for array in (a_d, q_d, c_vec, w, w_fine, s_phi):
            assert array.ndim >= 1
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        other = sim._tracker_model(priors, 2.0 * cfg.dt)
        assert other[0] is not a_d and other[3] is not spectrum
        assert not np.array_equal(other[0], a_d)
        assert not np.array_equal(other[3][2], s_phi)


#: The reference mirror and force, as tracker_models draws them.
REFERENCE_MODEL = PriorModel(
    MirrorParams(m=MASS, Omega=OMEGA, gamma=GAMMA, k0=2.0 * math.pi / WAVELENGTH, theta=THETA),
    ForceParams(lam=LAMBDA, kappa=KAPPA),
)


@st.composite
def tracker_models(draw):
    """A `PriorModel` over test_stability_property's ranges."""
    params = MirrorParams(
        m=MASS,
        Omega=10.0 ** draw(st.floats(4.5, 6.0)),
        gamma=10.0 ** draw(st.floats(2.5, 4.5)),
        k0=2.0 * math.pi / WAVELENGTH,
        theta=THETA,
    )
    return PriorModel(params, ForceParams(lam=10.0 ** draw(st.floats(3.5, 5.5)), kappa=KAPPA))


@st.composite
def tracker_probes(draw):
    """A probe over test_stability_property's ranges, at a tracking error
    sigma_phi^2 in [0, 0.5]."""
    a = 10.0 ** draw(st.floats(5.0, 8.0))
    squeezing_db = draw(st.one_of(st.none(), st.floats(0.1, 6.0)))
    eta_det = draw(st.floats(0.5, 1.0))
    sigma_phi_sq = draw(st.floats(0.0, 0.5))
    if squeezing_db is None:
        return ProbeState(a, sigma_phi_sq=sigma_phi_sq, eta_det=eta_det)
    antisqueezing_db = squeezing_db + draw(st.floats(0.0, 6.0))
    probe = ProbeState.from_db(a, squeezing_db, antisqueezing_db, eta_det=eta_det)
    return replace(probe, sigma_phi_sq=sigma_phi_sq)


class TestRiccatiTracking:
    def test_noiseless_limit(self, priors, cfg):
        tight = sim.KalmanTracker(
            measurement_noise_psd(ProbeState(1e18)), priors, cfg
        ).sigma_phi_sq_posterior
        typical = sim.KalmanTracker(
            measurement_noise_psd(ProbeState(1e6)), priors, cfg
        ).sigma_phi_sq_posterior
        assert tight < 1e-6 * typical

    def test_monotone_in_amplitude(self, priors, cfg):
        values = [
            sim.KalmanTracker(
                measurement_noise_psd(ProbeState(a, eta_det=ETA)), priors, cfg
            ).sigma_phi_sq_posterior
            for a in ALPHA_SQS
        ]
        assert np.all(np.diff(values) < 0)

    def test_closed_loop_stable(self, priors, cfg):
        tracker = sim.KalmanTracker(measurement_noise_psd(squeezed(1.02e6)), priors, cfg)
        assert tracker.settle_samples > 0  # implies spectral radius < 1

    @pytest.mark.parametrize(
        "use",
        [
            lambda tracker: tracker.gain,
            lambda tracker: tracker.settle_samples,
            lambda tracker: tracker.predict_series(np.zeros(16)),
            lambda tracker: tracker.sigma_phi_sq_feedback(),
        ],
        ids=["gain", "settle_samples", "predict_series", "sigma_phi_sq_feedback"],
    )
    def test_unstable_closed_loop_raises_at_first_use(self, mirror, priors, cfg, monkeypatch, use):
        # a non-stabilizing Riccati "solution": its gain over-corrects the
        # position estimate, doubling it every step; every reader of the
        # stationary filter refuses it
        def non_stabilizing(a, b, q, r):
            return np.diag([-0.5 * r.item() / mirror.phase_gain**2, 0.0, 0.0])

        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", non_stabilizing)
        tracker = sim.KalmanTracker(measurement_noise_psd(squeezed(1.02e6)), priors, cfg)
        with pytest.raises(RiccatiError, match="unstable"):
            use(tracker)

    def test_coarse_spectrum_fails_node_doubling(self, priors, cfg, monkeypatch):
        # one panel cannot resolve the mechanical resonance
        monkeypatch.setattr(sim, "_phase_spectrum_panels", lambda *_: np.array([0.0, math.pi]))
        sim._tracker_model.cache_clear()
        try:
            with pytest.raises(RiccatiError, match="phase-spectrum integral not converged"):
                sim.KalmanTracker(measurement_noise_psd(squeezed(1.02e6)), priors, cfg)
        finally:
            sim._tracker_model.cache_clear()  # drop the coarse tables

    def test_negative_phase_spectrum_named(self, mirror, force, cfg):
        # lambda dt = 100, far past the Nyquist rate `cli.ExperimentConfig`
        # refuses: the discretized model's phase spectrum goes negative, so
        # ln(1 + S_phi/r) has no value
        fast = replace(force, lam=100.0 / cfg.dt)
        with pytest.raises(RiccatiError, match=r"the tracker's phase spectrum is negative \(min -"):
            sim.KalmanTracker(measurement_noise_psd(squeezed(1.02e6)), PriorModel(mirror, fast), cfg)

    @pytest.mark.parametrize(
        "noise_psd", [math.nan, math.inf, 0.0, -1e-12], ids=["nan", "inf", "zero", "negative"]
    )
    def test_noise_level_must_be_positive_and_finite(self, priors, cfg, noise_psd):
        # checked where it enters, not left to fail the spectral integral
        with pytest.raises(ValueError, match="noise_psd must be positive and finite"):
            sim.KalmanTracker(noise_psd, priors, cfg)

    @settings(max_examples=100)
    @given(model=tracker_models(), probe=tracker_probes())
    @example(model=REFERENCE_MODEL, probe=ProbeState(ALPHA_SQS[0], eta_det=ETA))
    @example(model=REFERENCE_MODEL, probe=ProbeState(ALPHA_SQS[1], eta_det=ETA))
    @example(model=REFERENCE_MODEL, probe=ProbeState(ALPHA_SQS[2], eta_det=ETA))
    @example(model=REFERENCE_MODEL, probe=ProbeState(ALPHA_SQS[3], eta_det=ETA))
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[0]))
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[1]))
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[2]))
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[3]))
    def test_phase_errors_match_scipy_riccati(self, model, probe):
        # the spectral phase errors against scipy's Riccati solution, to 1e-9
        # relative (seen: ~1e-13 at the reference cells, ~2e-11 over the
        # drawn models, the rest being rounding near the resonance)
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), model, sim.SimConfig())
        c_vec, r = tracker.c_vec, tracker.r
        p_pred = scipy.linalg.solve_discrete_are(tracker.a_d.T, c_vec[:, None], tracker.q_d, [[r]])
        prediction = float(c_vec @ p_pred @ c_vec)
        posterior = prediction * r / (prediction + r)
        assert tracker.sigma_phi_sq_posterior == pytest.approx(posterior, rel=1e-9, abs=0.0)
        assert tracker.sigma_phi_sq_prediction == pytest.approx(prediction, rel=1e-9, abs=0.0)

    @settings(max_examples=20)
    @given(model=tracker_models())
    @example(model=REFERENCE_MODEL)
    def test_measurement_row_measures_position_only(self, model):
        # the phase spectrum is that of the position: c_vec = [phase_gain, 0, 0] exactly
        c_vec = sim._tracker_model(model, sim.SimConfig().dt)[2]
        assert c_vec.dtype == np.float64
        assert c_vec.tolist() == [model.params.phase_gain, 0.0, 0.0]
        assert not np.signbit(c_vec[1:]).any()
        with pytest.raises(ValueError, match="read-only"):
            c_vec[1] = 1.0

    def test_filter_built_on_first_use_matches_fresh_coefficients(self, priors, cfg):
        tracker = sim.KalmanTracker(measurement_noise_psd(squeezed(1.02e6)), priors, cfg)
        a_cl = tracker.a_d @ (np.eye(3) - np.outer(tracker.gain, tracker.c_vec))
        num, den = scipy.signal.ss2tf(
            a_cl, (tracker.a_d @ tracker.gain)[:, None], tracker.c_vec[None, :], np.zeros((1, 1))
        )
        y = np.random.default_rng(5).normal(0.0, 0.1, 5000)
        expected = scipy.signal.lfilter(num[0], den, y)
        assert np.array_equal(tracker.predict_series(y), expected)
        assert np.array_equal(tracker.predict_series(y), expected)  # filter reused

    @settings(max_examples=25)
    @given(
        log_alpha_sq=st.floats(5.0, 8.0),
        squeezing_db=st.one_of(st.none(), st.floats(0.1, 6.0)),
        extra_antisqueezing_db=st.floats(0.0, 6.0),
        eta_det=st.floats(0.5, 1.0),
        d=st.integers(0, 8),
        log_omega=st.floats(4.5, 6.0),
        log_gamma=st.floats(2.5, 4.5),
        log_lam=st.floats(3.5, 5.5),
    )
    # a faint, impure probe on a slow mirror: calibration cannot lock
    @example(
        log_alpha_sq=5.0, squeezing_db=1.0, extra_antisqueezing_db=4.0, eta_det=0.5, d=0,
        log_omega=4.5, log_gamma=3.0, log_lam=4.0,
    )
    def test_stability_property(
        self, mirror, log_alpha_sq, squeezing_db, extra_antisqueezing_db, eta_det, d,
        log_omega, log_gamma, log_lam,
    ):
        # calibrated operating points (coherent when squeezing_db is None):
        # a stable loop, and the phase error grows from the posterior to the
        # one-step prediction to the prediction fed back d samples late; or,
        # where the fixed-point iteration reaches 1 rad^2, the named error
        priors = PriorModel(
            replace(mirror, Omega=10.0**log_omega, gamma=10.0**log_gamma),
            ForceParams(lam=10.0**log_lam, kappa=KAPPA),
        )
        cfg_d = sim.SimConfig(feedback_delay_samples=d)
        a = 10.0**log_alpha_sq
        if squeezing_db is None:
            template = ProbeState(a, eta_det=eta_det)
        else:
            template = ProbeState.from_db(
                a, squeezing_db, squeezing_db + extra_antisqueezing_db, eta_det=eta_det
            )
        try:
            probe = sim.calibrate_tracking(template, priors, cfg_d)
        except RiccatiError as exc:
            # the one-probe-per-step oracle raises only on reaching 1 rad^2
            with pytest.raises(RiccatiError, match=r"^tracking loop cannot lock at ") as expected:
                oracles.calibrate_tracking_reference(template, priors, cfg_d)
            assert str(exc) == str(expected.value)
            assert str(exc).startswith(f"tracking loop cannot lock at alpha_sq={a:.4g}: ")
            return
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg_d)
        assert tracker.settle_samples > 0
        assert (
            tracker.sigma_phi_sq_posterior
            <= tracker.sigma_phi_sq_prediction
            <= tracker.sigma_phi_sq_feedback()
        )

    @settings(max_examples=100)
    @given(model=tracker_models(), probe=tracker_probes())
    @example(model=REFERENCE_MODEL, probe=ProbeState(ALPHA_SQS[0], eta_det=ETA))
    @example(model=REFERENCE_MODEL, probe=ProbeState(ALPHA_SQS[1], eta_det=ETA))
    @example(model=REFERENCE_MODEL, probe=ProbeState(ALPHA_SQS[2], eta_det=ETA))
    @example(model=REFERENCE_MODEL, probe=ProbeState(ALPHA_SQS[3], eta_det=ETA))
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[0]))
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[1]))
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[2]))
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[3]))
    def test_calibration_matches_one_probe_per_step(self, model, probe):
        # iterating sigma_phi^2 as a float gives the operating point of a
        # probe rebuilt at every step, bit for bit, or the same error
        cfg = sim.SimConfig()
        try:
            expected = oracles.calibrate_tracking_reference(probe, model, cfg)
        except RiccatiError as exc:
            with pytest.raises(RiccatiError) as raised:
                sim.calibrate_tracking(probe, model, cfg)
            assert str(raised.value) == str(exc)
            return
        assert sim.calibrate_tracking(probe, model, cfg) == expected

    @settings(max_examples=100)
    @given(model=tracker_models(), probe=tracker_probes(), scale=st.sampled_from([1.0, 1e-6, 1e6]))
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[0]), scale=1.0)
    @example(model=REFERENCE_MODEL, probe=squeezed(ALPHA_SQS[3]), scale=1.0)
    def test_log_innovation_matches_two_rule_reference(self, model, probe, scale):
        # one divide and one log1p over both rules' nodes give each rule's
        # own L bit for bit, or the same error; `scale` moves the noise level
        # decades past the probes' range
        noise_psd = scale * measurement_noise_psd(probe)
        cfg = sim.SimConfig()
        try:
            expected = oracles.log_innovation_reference(noise_psd, model, cfg)
        except RiccatiError as exc:
            with pytest.raises(RiccatiError) as raised:
                sim.KalmanTracker(noise_psd, model, cfg)
            assert str(raised.value) == str(exc)
            return
        assert sim.KalmanTracker(noise_psd, model, cfg)._log_innovation == expected

    def test_calibration_fixed_point(self, priors, cfg):
        probe = sim.calibrate_tracking(squeezed(1.02e6), priors, cfg)
        again = sim.KalmanTracker(
            measurement_noise_psd(probe), priors, cfg
        ).sigma_phi_sq_posterior
        assert again == pytest.approx(probe.sigma_phi_sq, rel=1e-8)
        # reproduces the reported operating band of the effective factor
        assert 0.003 < probe.sigma_phi_sq < 0.011

    def test_empirical_consistency(self, mirror, force, priors, cfg, pad):
        cfg0 = replace(cfg, feedback_delay_samples=0)
        probe = sim.calibrate_tracking(squeezed(1.02e6), priors, cfg0)
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg0)
        emp = np.mean([
            sim.run_tracking(
                sim.mirror_response(
                    sim.simulate_ou(force, cfg0, sim.trial_rng(21, i), n=62_500),
                    mirror, cfg0, pad,
                )[2],
                probe, tracker, cfg0, sim.trial_rng(9021, i),
            )[2]  # sigma_phi_sq
            for i in range(30)
        ])
        assert emp == pytest.approx(tracker.sigma_phi_sq_posterior, rel=0.10)

    def test_huge_amplitude_matches_prediction_variance(self, priors):
        cfg0 = sim.SimConfig(dt=1e-7, n_samples=10_000, seed=3, feedback_delay_samples=0)
        probe = ProbeState(1e12)
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg0)
        emp = np.mean([
            sim.simulate_trial(priors, probe, tracker, cfg0, sim.trial_rng(11, i)).sigma_phi_sq
            for i in range(24)
        ])
        assert emp == pytest.approx(tracker.sigma_phi_sq_prediction, rel=0.05)

    @pytest.mark.parametrize("mode, n_trials", [("linearized", 20), ("nonlinear", 8)])
    def test_trials_track_with_feedback_error(self, priors, mode, n_trials):
        # the squeezed operating point is calibrated on the posterior error,
        # but the loop feeds back a prediction d samples late: the trials'
        # error is the feedback error, about 12% above the posterior here
        cfg_ref = sim.SimConfig(mode=mode)
        probe = sim.calibrate_tracking(squeezed(6.24e6), priors, cfg_ref)
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg_ref)
        errors = [
            sim.simulate_trial(
                priors, probe, tracker, cfg_ref, sim.trial_rng(cfg_ref.seed, i)
            ).sigma_phi_sq
            for i in range(n_trials)
        ]
        mean = np.mean(errors)
        band = 3.0 * np.std(errors, ddof=1) / math.sqrt(n_trials)
        assert abs(mean - tracker.sigma_phi_sq_feedback()) < band
        assert abs(mean - tracker.sigma_phi_sq_posterior) > band

    def test_delay_penalty_is_small(self, priors, cfg):
        probe = sim.calibrate_tracking(squeezed(1.02e6), priors, cfg)
        theory = {}
        empirical = {}
        for d in (0, 4):
            cfg_d = replace(cfg, feedback_delay_samples=d)
            tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg_d)
            theory[d] = tracker.sigma_phi_sq_feedback()
            empirical[d] = np.mean([
                sim.simulate_trial(priors, probe, tracker, cfg_d, sim.trial_rng(31, i)).sigma_phi_sq
                for i in range(20)
            ])
        assert theory[4] / theory[0] < 1.05
        assert empirical[4] / empirical[0] < 1.05
        for d in (0, 4):
            assert empirical[d] == pytest.approx(theory[d], rel=0.10)


class TestRunTracking:
    def test_linearized_noise_level(self, mirror, force, priors, cfg, pad):
        probe = ProbeState(1.02e6, eta_det=ETA)
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg)
        f = sim.simulate_ou(force, cfg, sim.trial_rng(50, 0), n=62_500)
        _, _, phi = sim.mirror_response(f, mirror, cfg, pad)
        y = sim.run_tracking(phi, probe, tracker, cfg, sim.trial_rng(51, 0))[0]
        z = y - phi
        assert np.var(z) == pytest.approx(measurement_noise_psd(probe) / cfg.dt, rel=2e-2)

    def test_linearized_residual_is_white(self, mirror, force, priors, cfg, pad):
        probe = ProbeState(1.02e6, eta_det=ETA)
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg)
        # average the autocorrelation over trials so the 3/sqrt(N) bound has
        # headroom against single-trial 3-sigma fluctuations
        acf = np.zeros(20)
        n_trials = 4
        for i in range(n_trials):
            f = sim.simulate_ou(force, cfg, sim.trial_rng(52, i), n=62_500)
            _, _, phi = sim.mirror_response(f, mirror, cfg, pad)
            y = sim.run_tracking(phi, probe, tracker, cfg, sim.trial_rng(53, i))[0]
            z = y - phi
            z = z - z.mean()
            denom = float(np.dot(z, z))
            size = z.size
            acf += [float(np.dot(z[:-lag], z[lag:])) / denom for lag in range(1, 21)]
        assert np.all(np.abs(acf / n_trials) < 3.0 / math.sqrt(size))

    def test_nonlinear_matches_linearized(self, priors, cfg):
        # paired seeds; quadratic-approximation regime
        probe = sim.calibrate_tracking(squeezed(1.02e6), priors, cfg)
        mse = {}
        for mode in ("linearized", "nonlinear"):
            cfg_m = replace(cfg, mode=mode)
            tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg_m)
            errs = []
            for i in range(12):
                traj = sim.simulate_trial(priors, probe, tracker, cfg_m, sim.trial_rng(61, i))
                assert not traj.diverged
                errs.append(traj.sigma_phi_sq)
            mse[mode] = np.mean(errs)
        assert mse["nonlinear"] == pytest.approx(mse["linearized"], rel=3e-2)

    def test_nonlinear_divergence_flagged(self, priors, cfg):
        probe = ProbeState(1e9)
        cfg_n = replace(cfg, mode="nonlinear")
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg_n)
        phi = np.full(5000, math.pi)  # step far outside the linear regime
        diverged = assert_tracks_like_oracle(phi, probe, tracker, cfg_n, 0)
        assert diverged


@pytest.fixture(scope="module")
def nonlinear_loop(mirror, force, priors, pad):
    """Squeezed operating point at the top reference amplitude and a phase
    record long enough for three tracker blocks."""
    cfg_n = sim.SimConfig(dt=1e-7, n_samples=10_000, mode="nonlinear")
    probe = sim.calibrate_tracking(squeezed(6.24e6), priors, cfg_n)
    tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg_n)
    n = 3 * sim.TRACKER_BLOCK
    f = sim.simulate_ou(force, cfg_n, sim.trial_rng(81, 0), n=n)
    phi = sim.mirror_response(f, mirror, cfg_n, pad)[2]
    return probe, tracker, cfg_n, phi


def assert_tracks_like_oracle(phi, probe, tracker, cfg, seed):
    """Both loops give the same (y, phi_fb, sigma_phi_sq, diverged) bit for
    bit; returns the divergence flag."""
    y, phi_fb, sigma_phi_sq, diverged = sim.run_tracking(
        phi, probe, tracker, cfg, np.random.default_rng(seed)
    )
    y_ref, phi_fb_ref, sigma_phi_sq_ref, diverged_ref = oracles.run_tracking_nonlinear(
        phi, probe, tracker, cfg, np.random.default_rng(seed)
    )
    assert np.array_equal(y, y_ref)
    assert np.array_equal(phi_fb, phi_fb_ref)
    assert sigma_phi_sq == sigma_phi_sq_ref
    assert diverged == diverged_ref
    return diverged


class TestNonlinearTracker:
    """The blocked scalar loop reproduces the array-indexed oracle bit for bit
    (the diverging pi step: TestRunTracking.test_nonlinear_divergence_flagged)."""

    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_feedback_delays(self, nonlinear_loop, d):
        probe, tracker, cfg_n, phi = nonlinear_loop
        cfg_d = replace(cfg_n, feedback_delay_samples=d)
        diverged = assert_tracks_like_oracle(phi, probe, tracker, cfg_d, 40 + d)
        assert not diverged

    @pytest.mark.parametrize(
        "n", [1, 1000, sim.TRACKER_BLOCK, 2 * sim.TRACKER_BLOCK + 777],
        ids=["one-sample", "under-one-block", "one-block", "partial-last-block"],
    )
    def test_record_lengths(self, nonlinear_loop, n):
        probe, tracker, cfg_n, phi = nonlinear_loop
        assert_tracks_like_oracle(phi[:n], probe, tracker, cfg_n, n)

    @settings(max_examples=40)
    @given(
        d=st.integers(0, 8),
        full_blocks=st.integers(0, 2),
        tail=st.integers(1, sim.TRACKER_BLOCK),
        log_amplitude=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_property(
        self, nonlinear_loop, d, full_blocks, tail, log_amplitude, seed
    ):
        # the record's phase is ~0.17 rad rms; scaled by 10 or more it drives
        # the loop out of lock, so both values of the divergence flag occur
        probe, tracker, cfg_n, phi = nonlinear_loop
        cfg_d = replace(cfg_n, feedback_delay_samples=d)
        n = full_blocks * sim.TRACKER_BLOCK + tail
        assert_tracks_like_oracle(10.0**log_amplitude * phi[:n], probe, tracker, cfg_d, seed)

    @pytest.mark.parametrize(
        "step, diverged", [(0.5 * math.pi, False), (np.nextafter(0.5 * math.pi, 4.0), True)],
        ids=["at-half-pi", "past-half-pi"],
    )
    def test_divergence_is_a_sample_past_half_pi(self, nonlinear_loop, step, diverged):
        # noiseless and at rest, the loop feeds back exactly 0 until the
        # one-sample step reaches it, so the step's own delta is the step
        probe, tracker, _, _ = nonlinear_loop
        phi = np.zeros(100)
        phi[50] = step
        moments = probe.detected_moments()
        _, phi_fb, flag = sim._track_nonlinear(phi, np.zeros(100), tracker, 4, *moments)
        assert phi_fb[50] == 0.0
        assert flag is diverged

    @settings(max_examples=50)
    @given(model=tracker_models(), dt=st.floats(1e-9, 5e-7))
    @example(model=REFERENCE_MODEL, dt=1e-7)
    def test_force_row_is_exactly_ar1(self, model, dt):
        # f drives q and p but nothing drives f, so the Van Loan exponential
        # leaves exact zeros in the force row, which the loop skips
        a_d = sim._tracker_model(model, dt)[0]
        assert a_d[2, :2].tolist() == [0.0, 0.0]

    def test_inexact_force_row_refused(self, nonlinear_loop):
        probe, tracker, cfg_n, phi = nonlinear_loop
        a_d = tracker.a_d.copy()
        a_d[2, 0] = 1e-30
        stand_in = SimpleNamespace(a_d=a_d, gain=tracker.gain, c_vec=tracker.c_vec)
        noise_scale = np.zeros(phi.shape[0])
        with pytest.raises(RiccatiError, match=r"^the tracker's force row \[1e-30, 0\.0, "):
            sim._track_nonlinear(phi, noise_scale, stand_in, 4, *probe.detected_moments())


class TestSimulateTrial:
    def test_reproducible_and_consistent(self, mirror, priors, cfg):
        probe = ProbeState(2.87e6, eta_det=ETA)
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg)
        t1 = sim.simulate_trial(priors, probe, tracker, cfg, sim.trial_rng(70, 3))
        t2 = sim.simulate_trial(priors, probe, tracker, cfg, sim.trial_rng(70, 3))
        assert np.array_equal(t1.y, t2.y)
        assert np.array_equal(t1.f, t2.f)
        assert np.array_equal(t1.phi, mirror.phase_gain * t1.q)
        assert t1.t[t1.data_start] == 0.0
        assert t1.data_slice.stop - t1.data_slice.start == cfg.n_samples

    def test_margins_cover_correlations(self, mirror, priors, cfg):
        n_margin, n_total = sim.trial_geometry(priors, cfg)
        tau_max = max(1.0 / LAMBDA, 2.0 / mirror.gamma)
        assert n_margin * cfg.dt >= 10.0 * tau_max
        assert n_total >= cfg.n_samples + 2 * n_margin

    def test_trajectory_csv(self, priors, cfg, tmp_path):
        probe = ProbeState(1.02e6)
        tracker = sim.KalmanTracker(measurement_noise_psd(probe), priors, cfg)
        traj = sim.simulate_trial(priors, probe, tracker, cfg, sim.trial_rng(71, 0))
        path = tmp_path / "trial.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,f,q,p,phi,phi_fb,y"
