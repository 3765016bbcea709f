import os

import numpy as np
import pytest

from slabresonance import (
    Defect,
    LatticeConfig,
    Pendant,
    SpectralPoint,
    extract_coefficients,
    find_real_mode,
    tune_structure,
)
from slabresonance.lattice import (
    interaction_matrix,
    propagating_orders,
    wood_distance,
)
from slabresonance.errors import WoodAnomalyError

# Even with database=None, Hypothesis caches the literals it reads from the
# package's source in its storage directory, which it looks up once, on first
# use; a directory that cannot be created turns that cache off.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.devnull)

CASE2 = LatticeConfig(
    period=3,
    defects=(Defect(0, 0, -1.9), Defect(1, 0, -1.9)),
)

CASE1_SEED = LatticeConfig(
    period=3,
    defects=(
        Defect(0, -1, -3.0),
        Defect(0, 0, -0.9),
        Defect(0, 1, -3.0),
        Defect(1, 0, -0.12),
    ),
    pendants=(Pendant(3, 0.5, 0.15),),
    tunable="pendants.0.g",
)


@pytest.fixture(scope="session")
def case2_config():
    return CASE2


@pytest.fixture(scope="session")
def case1_seed_config():
    return CASE1_SEED


@pytest.fixture(scope="session")
def case2_mode(case2_config):
    mode = find_real_mode(case2_config, (-0.25, 0.25), (1.3, 1.7))
    assert mode is not None
    return mode


@pytest.fixture(scope="session")
def case1_tuned(case1_seed_config):
    """(tuned config, mode) produced once per session by the tuner."""
    return tune_structure(
        case1_seed_config, (0.08, 0.32), (1.30, 1.46), param_range=(0.05, 0.8)
    )


@pytest.fixture(params=["case2", "case1"])
def mode_case(request):
    """(config, mode) of the standing case2 mode, then of the tuned case1 one."""
    if request.param == "case1":
        return request.getfixturevalue("case1_tuned")
    return (request.getfixturevalue("case2_config"),
            request.getfixturevalue("case2_mode"))


@pytest.fixture(scope="session")
def coeffs_case2(case2_config, case2_mode):
    return extract_coefficients(case2_config, case2_mode)


@pytest.fixture(scope="session")
def coeffs_case1(case1_tuned):
    config, mode = case1_tuned
    return extract_coefficients(config, mode)


def random_lossless_config(rng, max_period=3, max_defects=3):
    """A random valid lossless config (possibly with one pendant).

    Defects sit on distinct sites in rows z in [-2, 2], so a draw of more
    defects than the 5 * period sites there is capped at that number.
    """
    period = int(rng.integers(1, max_period + 1))
    n_def = min(int(rng.integers(1, max_defects + 1)), 5 * period)
    sites = set()
    defects = []
    while len(defects) < n_def:
        x = int(rng.integers(0, period))
        z = int(rng.integers(-2, 3))
        if (x, z) in sites:
            continue
        sites.add((x, z))
        defects.append(Defect(x, z, float(rng.uniform(-2.0, 2.0))))
    pendants = ()
    if rng.random() < 0.5:
        pendants = (
            Pendant(
                int(rng.integers(0, n_def)),
                float(rng.uniform(0.1, 3.0)),
                float(rng.uniform(0.1, 1.0)),
            ),
        )
    return LatticeConfig(period, tuple(defects), pendants)


def mirror_pairs(period, *pairs):
    """A lossless config of mirror pairs (x, z, d): a defect at (x, z) and one
    at its image ((1 - x) mod period, z), both with d.

    A site that is its own image holds one defect; a pair on taken sites adds
    none (x -> 1 - x is an involution, so a pair's sites are taken together).
    """
    sites = {}
    for x, z, d in pairs:
        for site in ((x, z), ((1 - x) % period, z)):
            sites.setdefault(site, d)
    return LatticeConfig(period, tuple(Defect(x, z, d)
                                       for (x, z), d in sites.items()))


def random_mirror_config(rng, max_pairs=2):
    """A random lossless config symmetric under x -> (1 - x) mod period.

    ``mirror_pairs`` of up to ``max_pairs`` pairs drawn in rows z in [-2, 2],
    so the config's modes at kappa = 0 are symmetry-protected.
    """
    period = int(rng.integers(2, 5))
    pairs = [(int(rng.integers(0, period)), int(rng.integers(-2, 3)),
              float(rng.uniform(-2.5, -0.5)))
             for _ in range(int(rng.integers(1, max_pairs + 1)))]
    return mirror_pairs(period, *pairs)


def ambiguous_anchor(point, config):
    """A unit vector overlapping none of A's eigenvectors well at ``point``.

    Built for the 4-site CASE1_SEED: orthogonal to three of the eigenvectors.
    """
    a = interaction_matrix(point, config)
    _, evecs = np.linalg.eig(a)
    probe = np.ones(len(a), dtype=complex)
    for j in (2, 3, 1):
        v = evecs[:, j] / np.linalg.norm(evecs[:, j])
        probe = probe - (v.conj() @ probe) * v
    return probe / np.linalg.norm(probe)


def random_regime_point(rng, config, max_tries=200):
    """A real (kappa, omega) with exactly order 0 propagating, off Wood lines."""
    for _ in range(max_tries):
        kappa = float(rng.uniform(-0.4, 0.4))
        omega = float(rng.uniform(0.3, 1.9))
        point = SpectralPoint(kappa, omega)
        try:
            propagating = propagating_orders(point, config.period)
        except WoodAnomalyError:
            continue
        if not (propagating[0] and np.sum(propagating) == 1):
            continue
        # keep clear margins from the branch points and pendant poles
        if wood_distance(point, config.period) < 1e-3:
            continue
        if any(abs(omega**2 - p.mu) < 0.05 for p in config.pendants):
            continue
        return point
    raise RuntimeError("no regime point found")
