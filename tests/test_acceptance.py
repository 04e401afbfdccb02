"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The Monte Carlo criteria share one 150-trial amplitude sweep at the
canonical operating point (fixed seed, so the outcome is reproducible).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mirrormotion import cli, est, sim
from mirrormotion.probe import (
    ProbeState,
    SqueezingBandwidth,
    attainability_gap,
    mean_squeezing_flux,
    measurement_noise_psd,
    photon_flux_psd_broadband,
    squeezing_spectrum,
    xi_factor,
)

import oracles
from conftest import (
    ALPHA_SQS,
    ANTISQUEEZING_DB,
    BANDWIDTH_10_OMEGA,
    ETA,
    KAPPA,
    LAMBDA,
    SQUEEZING_DB,
)

VARS = ("q", "p", "f")


def _report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def config():
    base = cli.reference_config()
    return replace(base, simulation=replace(base.simulation, n_trials=150))


@pytest.fixture(scope="session")
def sweep(config):
    """150-trial Monte Carlo sweep over both probe kinds and all amplitudes."""
    priors = config.priors()
    grid = est.SpectralGrid.build(priors)
    points = {}
    for alpha in config.alpha_sqs:
        for kind in ("coherent", "squeezed"):
            points[kind, alpha] = cli.run_sweep_point(config, kind, alpha, grid=grid)
    return points


def test_criterion_1_coherent_attainability(grid):
    """Unit-efficiency coherent bound equals the minimum MSE to 1e-9."""
    worst = 0.0
    for alpha in ALPHA_SQS:
        probe = ProbeState(alpha)
        for x in VARS:
            bound = est.qcrb(x, probe, grid)
            mmse = est.analytic_mmse(x, probe, grid)
            worst = max(worst, abs(bound / mmse - 1.0))
    _report(1, "coherent-state bound attainability", worst <= 1e-9,
            f"max relative gap {worst:.2e}")


def test_criterion_2_monte_carlo_consistency(sweep):
    """Empirical MSE / analytic minimum in [0.95, 1.05] for every cell.

    The line also prints the span and mean of z = (mse - mmse)/stderr over
    the cells.  Trial i of every cell draws `sim.trial_rng(seed, i)`, so the
    cells are one draw, not independent ones: at one seed their z move
    together (at 424242 all read low).
    """
    ratios, z = {}, []
    for (kind, alpha), point in sweep.items():
        for x in VARS:
            ratios[x, kind, alpha] = point.mse[x] / point.mmse[x]
            z.append((point.mse[x] - point.mmse[x]) / point.stderr[x])
    ok = all(0.95 <= r <= 1.05 for r in ratios.values())
    lo = min(ratios.values())
    hi = max(ratios.values())
    _report(2, "Monte Carlo consistency with the analytic minimum MSE", ok,
            f"ratios span [{lo:.3f}, {hi:.3f}] over {len(ratios)} cells; "
            f"z = (mse - mmse)/stderr spans [{min(z):.2f}, {max(z):.2f}], "
            f"mean {np.mean(z):.2f}, one draw: every cell shares trial_rng(seed, i)")


def test_criterion_3_quantum_enhancement(sweep):
    """Squeezed-probe MSEs beat the coherent bound by 5-25% for q and p.

    The line prints each cell's Monte Carlo reading, 1 - mse/qcrb_coh, with
    its analytic reading, 1 - mmse/qcrb_coh of the same cell, in brackets.
    The lower edge holds: squeezing helps at every amplitude.  The upper edge
    does not.  Seven cells fail for two causes:

    * the model: q and p at 1.88e6 /s and above lie beyond 25% analytically
      too.  Detection loss is the only modeled imperfection, while the
      laboratory's 15+-8% / 12+-2% also carried environmental noise that
      this simulator omits;
    * the fixture's draw: p at 1.02e6 /s is in band analytically (24.3%)
      and out of band in the Monte Carlo (26.1%).  Every cell shares the
      same trial streams, and at this seed every cell's MSE reads low.
    """
    detail = []
    ok = True
    for x in ("q", "p"):
        points = [sweep["squeezed", alpha] for alpha in ALPHA_SQS]
        enh = [1.0 - point.mse[x] / point.qcrb_coh[x] for point in points]
        analytic = [1.0 - point.mmse[x] / point.qcrb_coh[x] for point in points]
        ok = ok and all(0.05 <= e <= 0.25 for e in enh)
        readings = " / ".join(f"{e*100:.1f} [{a*100:.1f}]" for e, a in zip(enh, analytic))
        detail.append(f"{x}: {readings}% (mean {np.mean(enh)*100:.1f}%)")
    _report(3, "quantum enhancement within the reported 5-25% band", ok,
            "; ".join(detail))


def test_criterion_4_coherent_closeness(sweep):
    """Coherent MSEs exceed the coherent bound by 5-45% for q, p, f.

    The line prints each cell's Monte Carlo reading, mse/qcrb_coh - 1, with
    its analytic reading, mmse/qcrb_coh - 1 of the same cell, in brackets.
    Momentum satisfies the band; five cells fail for two causes:

    * the model: f at 1.02e6 and 1.88e6 /s lies below 5% analytically too.
      The force MSE is prior-dominated there, so detection loss (the only
      modeled imperfection) barely degrades it;
    * the fixture's draw: q at 1.02e6 /s and f at 2.87e6 and 6.24e6 /s are
      in band analytically and out of band in the Monte Carlo.  Every cell
      shares the same trial streams, and at this seed every cell's MSE
      reads low.
    """
    detail = []
    ok = True
    for x in VARS:
        points = [sweep["coherent", alpha] for alpha in ALPHA_SQS]
        excess = [point.mse[x] / point.qcrb_coh[x] - 1.0 for point in points]
        analytic = [point.mmse[x] / point.qcrb_coh[x] - 1.0 for point in points]
        ok = ok and all(0.05 <= e <= 0.45 for e in excess)
        readings = " / ".join(f"{e*100:.1f} [{a*100:.1f}]" for e, a in zip(excess, analytic))
        detail.append(f"{x}: {readings}% (mean {np.mean(excess)*100:.1f}%)")
    _report(4, "coherent closeness within the reported 5-45% band", ok,
            "; ".join(detail))


def test_criterion_5_flux_anchors():
    """xi = 0.61 +- 0.005 and xi*I_sq = 1.37e5/s +- 2% at ten-resonance bandwidth."""
    probe = ProbeState.from_db(1.02e6, SQUEEZING_DB, ANTISQUEEZING_DB, eta_det=1.0)
    xi = xi_factor(probe)
    bw = SqueezingBandwidth.standard(probe, BANDWIDTH_10_OMEGA)
    flux = xi * mean_squeezing_flux(probe, bw)
    ok = abs(xi - 0.61) <= 0.005 and abs(flux / 1.37e5 - 1.0) <= 0.02
    _report(5, "squeezing flux anchors", ok, f"xi = {xi:.4f}, xi*I_sq = {flux:.4g}/s")


def test_criterion_6_oracle_equivalence(mirror, force, grid):
    """Frequency-domain MMSE matches dense linear-Gaussian conditioning to 3%."""
    worst = 0.0
    for alpha in (1.02e6, 6.24e6):
        for kind in ("coherent", "squeezed"):
            probe = (
                ProbeState(alpha, eta_det=ETA)
                if kind == "coherent"
                else replace(
                    ProbeState.from_db(alpha, SQUEEZING_DB, ANTISQUEEZING_DB, eta_det=ETA),
                    sigma_phi_sq=5e-3,
                )
            )
            for x in VARS:
                oracle = oracles.posterior_mse(x, mirror, force, probe, 256, 4e-6)
                ana = est.analytic_mmse(x, probe, grid)
                worst = max(worst, abs(ana / oracle - 1.0))
    _report(6, "finite-dimensional posterior oracle equivalence", worst <= 0.03,
            f"max deviation {worst*100:.3f}%")


def test_criterion_7_ou_statistics(force):
    """Stationary variance and lag-1 autocorrelation within 1% over 1e7 samples."""
    cfg = sim.SimConfig(dt=1e-7, n_samples=10_000, seed=1)
    f = sim.simulate_ou(force, cfg, np.random.default_rng(2024), n=10_000_000)
    var = float(np.var(f))
    lag1 = float(np.mean(f[1:] * f[:-1]) / var)
    var_ok = abs(var / (KAPPA / (2 * LAMBDA)) - 1.0) <= 0.01
    lag_ok = abs(lag1 / math.exp(-LAMBDA * cfg.dt) - 1.0) <= 0.01
    _report(7, "Ornstein-Uhlenbeck exact statistics", var_ok and lag_ok,
            f"variance {var:.4e} (target {KAPPA/(2*LAMBDA):.4e}), lag-1 {lag1:.6f}")


def test_criterion_8_invariant_suites(priors, grid):
    """Bound ordering, integrand dominance, Hermitian filters, monotonicity,
    uncertainty relation."""
    failures = []

    # bound-ordering chain and pointwise integrand dominance
    for alpha in ALPHA_SQS:
        coh = ProbeState(alpha)
        sq = replace(
            ProbeState.from_db(alpha, SQUEEZING_DB, ANTISQUEEZING_DB, eta_det=1.0), sigma_phi_sq=5e-3
        )
        w = grid.nodes
        kernel = priors.information_kernel(w)
        for x in VARS:
            chain = (
                est.qcrb(x, sq, grid),
                est.qcrb(x, coh, grid),
                est.analytic_mmse(x, coh, grid),
                est.prior_variance(x, grid),
            )
            if not (chain[0] < chain[1] <= chain[2] * (1 + 1e-9) < chain[3]):
                failures.append(f"ordering chain broken for {x} at {alpha:g}")
            sx = priors.psd(x, w)
            for probe in (coh, sq):
                if attainability_gap(probe) < 1.0 - 1e-12:
                    failures.append(f"attainability gap below one at {alpha:g}")
                mmse_int = sx * measurement_noise_psd(probe) / (
                    measurement_noise_psd(probe) + kernel
                )
                qcrb_int = sx / (1.0 + 4.0 * photon_flux_psd_broadband(probe) * kernel)
                if not np.all(qcrb_int <= mmse_int * (1 + 1e-9)):
                    failures.append(f"integrand dominance broken for {x} at {alpha:g}")

    # filter Hermitian symmetry
    rng = np.random.default_rng(88)
    w = rng.uniform(1e2, 1e7, 64)
    probe = ProbeState.from_db(1.02e6, SQUEEZING_DB, ANTISQUEEZING_DB, eta_det=ETA)
    for x in VARS:
        j_pos = est.optimal_filter(x, w, priors, probe)
        j_neg = est.optimal_filter(x, -w, priors, probe)
        if not np.allclose(j_neg, np.conj(j_pos), rtol=1e-12):
            failures.append(f"filter J_{x} is not Hermitian")

    # monotonicity in probe amplitude
    for x in VARS:
        mmse = [est.analytic_mmse(x, ProbeState(a), grid) for a in ALPHA_SQS]
        bound = [est.qcrb(x, ProbeState(a), grid) for a in ALPHA_SQS]
        if not (np.all(np.diff(mmse) < 0) and np.all(np.diff(bound) < 0)):
            failures.append(f"MSE not strictly decreasing in amplitude for {x}")

    # uncertainty relation for the squeezing spectra
    for _ in range(200):
        rm = rng.uniform(0, 1.5)
        p = ProbeState(alpha_sq=1e6, r_m=rm, r_p=rm + rng.uniform(0, 1.5))
        bw = SqueezingBandwidth.standard(p, rng.uniform(1e5, 1e8))
        wr = rng.uniform(0, 1e8, 16)
        prod = squeezing_spectrum("+", wr, p, bw) * squeezing_spectrum("-", wr, p, bw)
        if not np.all(prod >= 1.0 / 16.0 - 1e-15):
            failures.append("uncertainty relation violated")
            break

    _report(8, "invariant suites", not failures, "; ".join(failures) or "all invariants hold")
