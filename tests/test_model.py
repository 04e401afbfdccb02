"""Mirror model: masses, motion functions, transfer functions, prior spectra."""

import math
import warnings

import numpy as np
import pytest

from mirrormotion import est, sim
from mirrormotion.errors import SingularityError
from mirrormotion.model import (
    PRIOR_TAGS,
    VAR_TAGS,
    ForceParams,
    MirrorParams,
    NominalTransferFunction,
    TabulatedTransferFunction,
    effective_mass,
    force_gains,
    motion_function,
    prior_psd,
)
from mirrormotion.probe import ProbeState

from conftest import KAPPA, LAMBDA, MASS, OMEGA


class TestEffectiveMass:
    def test_published_value(self):
        # 0.444 g mirror on a 0.432 g PZT -> 5.88e-4 kg
        assert effective_mass(0.444e-3, 0.432e-3) == pytest.approx(5.88e-4, rel=1e-12)

    def test_massless_pzt(self):
        assert effective_mass(1.0, 0.0) == 1.0

    def test_linearity(self):
        eps = 1e-9
        assert effective_mass(eps, 3.0) == pytest.approx(eps + 1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_mass(0.0, 1.0)
        with pytest.raises(ValueError):
            effective_mass(1.0, -1.0)


class TestMirrorParams:
    def test_phase_gain(self, mirror):
        k0 = 2.0 * math.pi / 860e-9
        assert mirror.phase_gain == pytest.approx(math.sqrt(2.0) * k0, rel=1e-12)
        assert mirror.phase_gain == pytest.approx(1.0332e7, rel=1e-4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": -1.0},
            {"Omega": 0.0},
            {"gamma": -1.0},
            {"gamma": 0.0},
            {"k0": 0.0},
            {"theta": math.pi / 2},
            {"m": math.nan},
            {"Omega": math.inf},
            {"gamma": math.nan},
            {"k0": math.inf},
            {"theta": math.nan},
        ],
    )
    def test_invalid_parameters(self, mirror, kwargs):
        fields = dict(
            m=mirror.m, Omega=mirror.Omega, gamma=mirror.gamma,
            k0=mirror.k0, theta=mirror.theta,
        )
        fields.update(kwargs)
        with pytest.raises(ValueError):
            MirrorParams(**fields)


class TestForceGains:
    def test_table_from_gqf(self, mirror):
        w = np.array([0.0, 1e4, OMEGA, 3e6])
        g = force_gains(w, mirror)
        assert tuple(g) == VAR_TAGS
        gqf = NominalTransferFunction(mirror)(w)
        assert np.array_equal(g["q"], gqf)
        assert np.allclose(g["phi"], mirror.phase_gain * gqf, rtol=1e-15)
        assert np.allclose(g["p"], 1j * mirror.m * w * gqf, rtol=1e-15)
        assert g["p"][0] == 0.0
        assert np.array_equal(g["f"], np.ones(4))

    def test_one_transfer_function_evaluation_per_call(self, mirror, force, priors, monkeypatch):
        calls = []
        nominal = NominalTransferFunction.__call__

        def counted(self, omega):
            calls.append(np.size(omega))
            return nominal(self, omega)

        monkeypatch.setattr(NominalTransferFunction, "__call__", counted)
        w = np.linspace(0.0, 1e6, 7)

        def evaluations(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)

        assert evaluations(prior_psd, "f", w, force, mirror) == 0
        for x in ("q", "p"):
            assert evaluations(prior_psd, x, w, force, mirror) == 1
        assert evaluations(priors.information_kernel, w) == 1
        for x in PRIOR_TAGS:
            assert evaluations(est.optimal_filter, x, w, priors, ProbeState(1e6)) == 1
        cfg = sim.SimConfig()
        assert evaluations(sim.mirror_response, np.ones(1000), mirror, cfg, 200) == 1
        assert calls == [601]  # the rfft grid of next_fast_len(1200) = 1200 samples


class TestMotionFunctions:
    def test_gqf_dc_value(self, mirror):
        tf = NominalTransferFunction(mirror)
        # DC spring response 1/(m Omega^2)
        assert tf(0.0) == pytest.approx(1.0 / (MASS * OMEGA**2), rel=1e-12)
        assert abs(tf(0.0)) == pytest.approx(5.49e-8, rel=1e-3)

    def test_g_phiq_is_constant(self, mirror):
        rng = np.random.default_rng(3)
        w = rng.uniform(-1e7, 1e7, 10)
        g = motion_function("phi", "q", w, mirror)
        assert np.allclose(g, mirror.phase_gain, rtol=1e-12)

    def test_composition_identity(self, mirror):
        rng = np.random.default_rng(4)
        w = rng.uniform(1e2, 1e7, 10)
        lhs = motion_function("phi", "f", w, mirror)
        rhs = motion_function("phi", "q", w, mirror) * motion_function("q", "f", w, mirror)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_inverse_identity(self, mirror):
        rng = np.random.default_rng(5)
        w = rng.uniform(1e2, 1e7, 10)
        gg = motion_function("q", "f", w, mirror) * motion_function("f", "q", w, mirror)
        assert np.allclose(gg, 1.0, rtol=1e-12)

    def test_hermitian_symmetry(self, mirror):
        rng = np.random.default_rng(6)
        w = rng.uniform(1e2, 1e7, 50)
        g_pos = motion_function("q", "f", w, mirror)
        g_neg = motion_function("q", "f", -w, mirror)
        assert np.allclose(g_neg, np.conj(g_pos), rtol=1e-14)

    def test_pole_raises(self, mirror):
        with pytest.raises(SingularityError):
            motion_function("q", "p", 0.0, mirror)
        with pytest.raises(SingularityError):
            motion_function("phi", "p", np.array([1e3, 0.0]), mirror)

    def test_momentum_dc_is_zero(self, mirror):
        # g_pq(0) = i m w -> 0 is a value, not a pole
        assert motion_function("p", "q", 0.0, mirror) == 0.0

    def test_unknown_tag(self, mirror):
        with pytest.raises(ValueError):
            motion_function("x", "q", 1.0, mirror)


class TestPriorPsd:
    def test_force_dc(self, mirror, force):
        s0 = prior_psd("f", 0.0, force, mirror)
        assert s0 == pytest.approx(KAPPA / LAMBDA**2, rel=1e-12)
        assert s0 == pytest.approx(4.896e-7, rel=1e-3)

    def test_lorentzian_half_width(self, mirror, force):
        assert prior_psd("f", LAMBDA, force, mirror) == pytest.approx(
            0.5 * prior_psd("f", 0.0, force, mirror), rel=1e-12
        )

    def test_momentum_dc_vanishes(self, mirror, force):
        assert prior_psd("p", 0.0, force, mirror) == 0.0

    def test_even_and_nonnegative(self, mirror, force):
        rng = np.random.default_rng(7)
        w = rng.uniform(1e1, 5e7, 200)
        for x in ("f", "q", "p"):
            s_pos = prior_psd(x, w, force, mirror)
            s_neg = prior_psd(x, -w, force, mirror)
            assert np.all(s_pos >= 0.0)
            assert np.allclose(s_pos, s_neg, rtol=1e-14)

    def test_parseval_ou_variance(self, priors, grid):
        fine = est._raw_grid(priors, grid.omega_max * 2**14, est.N_PER_PANEL)
        var = est.prior_variance("f", fine)
        assert var == pytest.approx(KAPPA / (2.0 * LAMBDA), rel=1e-6)

    def test_momentum_factored_form(self, mirror, force):
        w = np.array([1e3, 1e5, 3e5])
        gqf = NominalTransferFunction(mirror)(w)
        expected = (mirror.m * w) ** 2 * np.abs(gqf) ** 2 * prior_psd("f", w, force, mirror)
        assert np.allclose(prior_psd("p", w, force, mirror), expected, rtol=1e-14)


class TestTabulatedTransferFunction:
    NOT_FINITE = "gqf.csv: tabulated frequencies and values must be finite"

    @pytest.fixture()
    def tabulated(self, mirror):
        nominal = NominalTransferFunction(mirror)
        freqs = np.geomspace(1e3, 1e7, 4000)
        return TabulatedTransferFunction(freqs, nominal(freqs))

    def test_matches_nominal_inside_range(self, mirror, tabulated):
        nominal = NominalTransferFunction(mirror)
        w = np.geomspace(2e3, 5e6, 200)
        assert np.allclose(tabulated(w), nominal(w), rtol=1e-4)

    def test_hermitian_by_construction(self, tabulated):
        w = np.geomspace(2e3, 5e6, 50)
        assert np.allclose(tabulated(-w), np.conj(tabulated(w)), rtol=0, atol=0)

    def test_out_of_range_clamps_with_warning(self, tabulated):
        with pytest.warns(UserWarning, match="clamping"):
            high = tabulated(2e7)
        assert high == tabulated.values[-1]
        fresh = TabulatedTransferFunction(tabulated.freqs, tabulated.values)
        with pytest.warns(UserWarning, match="clamping"):
            low = fresh(0.0)
        assert low == tabulated.values[0]

    def test_out_of_range_warns_once_per_table(self, tabulated):
        with pytest.warns(UserWarning, match=r"\|omega\| in \[0, 2e\+07\] rad/s, clamping"):
            tabulated(np.array([0.0, 1e4, 2e7]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tabulated(-3e7) == np.conj(tabulated.values[-1])
            assert tabulated(0.0) == tabulated.values[0]

    def test_csv_round_trip(self, tabulated, tmp_path):
        path = tmp_path / "gqf.csv"
        tabulated.to_csv(path)
        loaded = TabulatedTransferFunction.from_csv(path)
        assert np.allclose(loaded.freqs, tabulated.freqs, rtol=1e-15)
        assert np.allclose(loaded.values, tabulated.values, rtol=1e-15)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("freq_hz,gqf_real\n1,2\n3,4\n", "gqf.csv: missing column 'gqf_imag'"),
            ("freq_hz,gqf_real,gqf_imag\n1,2,3\n3,x,4\n", "gqf.csv: could not convert string to float: 'x'"),
            ("freq_hz,gqf_real,gqf_imag\n1,2,3\n3,4\n", "gqf.csv: float() argument"),
            ("freq_hz,gqf_real,gqf_imag\n1,2,3\n", "gqf.csv: need at least two"),
            ("freq_hz,gqf_real,gqf_imag\n1e3,2,3\nnan,4,5\n1e5,6,7\n", NOT_FINITE),
            ("freq_hz,gqf_real,gqf_imag\n1e3,2,3\n1e4,4,5\ninf,6,7\n", NOT_FINITE),
            ("freq_hz,gqf_real,gqf_imag\n1e3,2,3\n1e4,nan,5\n", NOT_FINITE),
        ],
        ids=[
            "missing-column", "unparsable-value", "short-row", "one-row",
            "nan-frequency", "infinite-frequency", "nan-value",
        ],
    )
    def test_csv_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "gqf.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc_info:
            TabulatedTransferFunction.from_csv(path)
        assert message in str(exc_info.value)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            TabulatedTransferFunction([1.0], [1.0 + 0j])
        with pytest.raises(ValueError):
            TabulatedTransferFunction([2.0, 1.0], [1.0 + 0j, 1.0 + 0j])
        with pytest.raises(ValueError):
            TabulatedTransferFunction([-1.0, 1.0], [1.0 + 0j, 1.0 + 0j])


class TestForceParams:
    def test_stationary_variance(self, force):
        assert force.stationary_variance == pytest.approx(KAPPA / (2 * LAMBDA), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ForceParams(lam=0.0, kappa=1.0)
        with pytest.raises(ValueError):
            ForceParams(lam=1.0, kappa=0.0)
        with pytest.raises(ValueError):
            ForceParams(lam=math.nan, kappa=1.0)
        with pytest.raises(ValueError):
            ForceParams(lam=1.0, kappa=math.inf)


def test_prior_model_information_kernel(priors):
    w = np.array([0.0, 1e4, OMEGA])
    c = priors.params.phase_gain
    expected = c**2 * np.abs(NominalTransferFunction(priors.params)(w)) ** 2 * priors.psd("f", w)
    assert np.allclose(priors.information_kernel(w), expected, rtol=1e-14)
