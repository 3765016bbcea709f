"""Randomised property tests of the scattering solver.

Hypothesis draws a seed; the seed builds a random lossless config and a real
point with exactly order 0 propagating (``random_lossless_config`` and
``random_regime_point``), or a frequency grid at a random kappa.
``derandomize=True`` fixes the examples;
``database=None`` and the storage directory set in ``conftest.py`` keep the
run free of files.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from slabresonance import SpectralPoint, solve_scattering
from slabresonance.errors import (
    BranchCollisionError,
    ConvergenceError,
    NearSingularError,
    NoPropagatingOrderError,
    PendantPoleError,
    WoodAnomalyError,
)
from slabresonance.lattice import OK
from slabresonance.modes import IM_OMEGA_TOL, branch_seeds, trace_branch
from slabresonance.scattering import SKIP_ERRORS, solve_grid

from _oracles import strip_solve

from conftest import random_lossless_config, random_regime_point

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def examples(n):
    return settings(max_examples=n, derandomize=True, database=None,
                    deadline=None)


def random_case(seed):
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng)
    return config, random_regime_point(rng, config)


def strict_solve(point, config):
    try:
        return solve_scattering(point, config)
    except NearSingularError:
        reject()


@examples(60)
@given(SEEDS)
def test_energy_balance(seed):
    config, point = random_case(seed)
    sol = strict_solve(point, config)
    residual = abs(abs(sol.reflection) ** 2 + abs(sol.transmission) ** 2 - 1.0)
    assert residual < 1e-10


@examples(30)
@given(SEEDS)
def test_transmission_modulus_even_in_kappa(seed):
    config, point = random_case(seed)
    sol_p = solve_scattering(point, config, strict=False)
    sol_m = solve_scattering(SpectralPoint(-point.kappa, point.omega), config,
                             strict=False)
    assert abs(abs(sol_p.transmission) - abs(sol_m.transmission)) < 1e-12


@examples(3)
@given(SEEDS)
def test_matches_strip_oracle(seed):
    config, point = random_case(seed)
    sol = strict_solve(point, config)
    refl, trans, _ = strip_solve(
        point.kappa, point.omega, config.period, config.xs, config.zs,
        config.ds, [(p.host, p.mu, p.g) for p in config.pendants], z_max=200,
    )
    assert abs(sol.reflection - refl) < 1e-5
    assert abs(sol.transmission - trans) < 1e-5


def bits(z):
    return np.asarray(z, dtype=complex).tobytes()


def assert_grid_matches_points(kappa, omegas, config):
    """Every row of solve_grid is the single-point solve, bit for bit."""
    grid = solve_grid(kappa, omegas, config)
    for i, om in enumerate(omegas):
        try:
            sol = solve_scattering(SpectralPoint(kappa, float(om)), config,
                                   strict=False)
        except (WoodAnomalyError, NoPropagatingOrderError,
                PendantPoleError) as exc:
            assert grid.status[i] != OK and SKIP_ERRORS[grid.status[i]] is type(exc)
            continue
        assert grid.status[i] == OK
        assert bits(grid.psi[i]) == bits(sol.psi)
        assert bits(grid.reflection[i]) == bits(sol.reflection)
        assert bits(grid.transmission[i]) == bits(sol.transmission)
    return grid


@examples(25)
@given(SEEDS)
def test_grid_rows_equal_single_points(seed):
    """Random frequencies plus a Wood row, a row above the band and, with a
    pendant, its pole."""
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng)
    kappa = float(rng.uniform(-0.4, 0.4))
    omegas = np.concatenate([
        rng.uniform(0.0, 2.5, 40), [2.0 * abs(np.sin(kappa / 2.0)), 2.9],
        [np.sqrt(p.mu) for p in config.pendants],
    ])
    status = assert_grid_matches_points(kappa, omegas, config).status
    assert status[40] == "wood-anomaly"
    assert status[41] == "no-propagating-order"


def test_grid_special_rows(case2_config, case2_mode, case1_seed_config):
    """The least-squares row at the case2 mode and a pendant-pole row."""
    om0 = case2_mode.omega0
    grid = assert_grid_matches_points(
        case2_mode.kappa0, [om0 - 1e-3, om0, om0 + 1e-3], case2_config)
    assert list(grid.status) == [OK] * 3
    at_mode = solve_scattering(SpectralPoint(case2_mode.kappa0, om0),
                               case2_config, strict=False)
    assert at_mode.sigma_min < 1e-12  # solved by the least-squares fallback
    pole = np.sqrt(case1_seed_config.pendants[0].mu)
    grid = assert_grid_matches_points(0.2, [pole, 0.75, 0.8], case1_seed_config)
    assert list(grid.status) == ["pendant-pole", OK, OK]


@examples(25)
@given(SEEDS)
def test_dispersion_sign(seed):
    """Im omega <= 0 along every branch traced at real kappa."""
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng)
    kappas = np.linspace(-0.3, 0.3, 13)
    for omega_seed in branch_seeds(config, kappas[0], (0.3, 1.9))[:3]:
        try:
            samples = trace_branch(config, kappas, omega_seed)
        except (ConvergenceError, BranchCollisionError):
            continue  # an untraceable branch says nothing about the sign
        assert max(s.omega.imag for s in samples) <= IM_OMEGA_TOL
