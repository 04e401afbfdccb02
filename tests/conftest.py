"""Shared fixtures: the reference operating point used across the tests."""

import math

import pytest
from hypothesis import settings

from mirrormotion import est
from mirrormotion.model import ForceParams, MirrorParams, NominalTransferFunction, PriorModel
from mirrormotion.probe import ProbeState

# property tests draw the same examples on every run and have no per-example
# time limit (a spectral-grid build can take longer than the default deadline)
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# experimental constants used throughout the tests
MASS = 5.88e-4               # kg, mirror + PZT/3
OMEGA = 1.76e5               # rad/s mechanical resonance
GAMMA = 7.66e3               # rad/s damping
WAVELENGTH = 860e-9          # m
THETA = math.pi / 4.0
LAMBDA = 5.84e4              # rad/s force cutoff
KAPPA = 1.67e3               # N^2/s force intensity
SQUEEZING_DB = 3.62
ANTISQUEEZING_DB = 6.00
ETA = 0.871
ALPHA_SQS = (1.02e6, 1.88e6, 2.87e6, 6.24e6)
BANDWIDTH_10_OMEGA = 10.0 * OMEGA


@pytest.fixture(scope="session")
def mirror():
    return MirrorParams(
        m=MASS,
        Omega=OMEGA,
        gamma=GAMMA,
        k0=2.0 * math.pi / WAVELENGTH,
        theta=THETA,
    )


@pytest.fixture(scope="session")
def force():
    return ForceParams(lam=LAMBDA, kappa=KAPPA)


@pytest.fixture(scope="session")
def priors(mirror, force):
    return PriorModel(mirror, force, NominalTransferFunction(mirror))


@pytest.fixture(scope="session")
def grid(priors):
    return est.SpectralGrid.build(priors)


@pytest.fixture(scope="session")
def squeezed_probe():
    """Squeezed probe at the lowest experimental amplitude, ideal detection."""
    return ProbeState.from_db(ALPHA_SQS[0], SQUEEZING_DB, ANTISQUEEZING_DB, eta_det=1.0)
