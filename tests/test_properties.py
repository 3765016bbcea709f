"""Randomised property tests of the scattering solver.

Hypothesis draws a seed; the seed builds a random lossless config and a real
point with exactly order 0 propagating (``random_lossless_config`` and
``random_regime_point``).  ``derandomize=True`` fixes the examples;
``database=None`` and the storage directory set in ``conftest.py`` keep the
run free of files.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from slabresonance import SpectralPoint, solve_scattering
from slabresonance.errors import NearSingularError

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
