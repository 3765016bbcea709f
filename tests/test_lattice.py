import json

import numpy as np
import pytest

from slabresonance import (
    Defect,
    LatticeConfig,
    Pendant,
    SpectralPoint,
    greens_function,
    interaction_matrix,
    order_wavenumber,
    propagating_orders,
)
from slabresonance import lattice
from slabresonance.errors import (
    ConfigError,
    PendantPoleError,
    SlabError,
    WoodAnomalyError,
)
from slabresonance.lattice import effective_potential, order_arrays, wood_distance

from _oracles import eta_bisect, strip_greens

from conftest import random_lossless_config, random_regime_point


def dispersion_residual(kappa_p, omega, eta):
    return abs(
        4 * np.sin(np.asarray(kappa_p, complex) / 2) ** 2
        + 4 * np.sin(np.asarray(eta, complex) / 2) ** 2
        - np.asarray(omega, complex) ** 2
    )


class TestOrderWavenumber:
    def test_propagating_example(self):
        # sin^2(eta/2) = 1/2 forced by the dispersion relation
        eta = order_wavenumber(0.0, np.sqrt(2.0))
        assert abs(eta - np.pi / 2) < 1e-12

    def test_evanescent_example_vs_bisection(self):
        eta = order_wavenumber(np.pi, 1.0)
        assert abs(eta.real) < 1e-12
        oracle = eta_bisect(np.pi, 1.0)
        assert abs(eta - oracle) < 1e-9
        assert abs(eta - 1.5668j) < 2e-4

    @pytest.mark.parametrize("kappa_p,omega", [
        (0.0, 0.7), (0.3, 1.2), (np.pi, 1.0), (0.0, 3.0), (2.0, 0.5),
        (0.1 + 0.02j, 1.3 + 0.01j), (0.25, 1.6 - 0.05j),
    ])
    def test_defining_identity(self, kappa_p, omega):
        eta = order_wavenumber(kappa_p, omega)
        assert dispersion_residual(kappa_p, omega, eta) < 1e-12

    def test_residual_relative_far_above_band(self, monkeypatch):
        """At w = 327.9 the residual is a few ulp of w, not a failure.  An
        overflowing w (a diverging Newton iterate) still fails, and so does
        a residual over the relative tolerance."""
        omega = 36.21390695347674
        eta = order_wavenumber(0.0, omega)
        assert dispersion_residual(0.0, omega, eta) / omega**2 < 1e-14
        with np.errstate(all="ignore"), pytest.raises(
                SlabError, match="dispersion residual nan"):
            order_wavenumber(0.1, 2.4e303j)
        monkeypatch.setattr(lattice, "DISPERSION_TOL", 1e-18)
        with pytest.raises(SlabError, match="dispersion residual"):
            order_wavenumber(0.0, omega)

    def test_decay_sign_for_evanescent(self):
        for kappa_p, omega in [(np.pi, 1.0), (0.0, 3.0), (2.5, 0.4)]:
            eta = order_wavenumber(kappa_p, omega)
            assert eta.imag > 0

    def test_outgoing_branch_matches_plus_i0_limit(self):
        # propagating branch continues Im eta > 0 from Im omega > 0
        eta0 = order_wavenumber(0.2, 1.1)
        eta_up = order_wavenumber(0.2, 1.1 + 1e-8j)
        assert abs(eta_up - eta0) < 1e-6
        assert eta_up.imag > 0

    def test_analytic_across_real_axis_evanescent(self):
        # same region formula on both sides: no branch jump
        up = order_wavenumber(np.pi, 1.0 + 1e-8j)
        dn = order_wavenumber(np.pi, 1.0 - 1e-8j)
        assert abs(up - dn) < 1e-6


class TestPropagatingOrders:
    def test_single_order_regime(self):
        mask = propagating_orders(SpectralPoint(0.06, 0.98), 3)
        assert list(mask) == [True, False, False]

    def test_above_band_no_orders(self):
        mask = propagating_orders(SpectralPoint(0.0, 3.0), 1)
        assert not mask.any()

    def test_two_order_classification(self):
        mask = propagating_orders(SpectralPoint(0.0, 1.0), 2)
        assert list(mask) == [True, False]

    def test_wood_guard(self):
        # omega = 2 sin(kappa/2) puts order 0 exactly at its branch point
        kappa = 0.3
        with pytest.raises(WoodAnomalyError):
            propagating_orders(SpectralPoint(kappa, 2 * np.sin(kappa / 2)), 2)

    def test_all_etas_satisfy_dispersion(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            point = SpectralPoint(float(rng.uniform(-0.5, 0.5)),
                                  float(rng.uniform(0.2, 1.9)))
            try:
                kappa_p, etas, _ = order_arrays(point.kappa, point.omega, n)
            except WoodAnomalyError:
                continue
            for kp, eta in zip(kappa_p, etas):
                assert dispersion_residual(kp, point.omega, eta) < 1e-12


class TestGreensFunction:
    def lattice_apply(self, point, period, m, n):
        """(omega^2 - L0) G at site (m, n)."""
        orders = order_arrays(point.kappa, point.omega, period)
        g = lambda mm, nn: greens_function(orders, period, mm, nn)
        return (point.omega**2 - 4.0) * g(m, n) + g(m + 1, n) + g(m - 1, n) \
            + g(m, n + 1) + g(m, n - 1)

    def test_defining_equation_random_sites(self):
        rng = np.random.default_rng(5)
        point = SpectralPoint(0.17, 1.3)
        period = 3
        for _ in range(20):
            m = int(rng.integers(-6, 7))
            n = int(rng.integers(-8, 9))
            val = self.lattice_apply(point, period, m, n)
            cell, m_in = divmod(m, period)
            expected = np.exp(1j * point.kappa * period * cell) \
                if (m_in, n) == (0, 0) else 0.0
            assert abs(val - expected) < 1e-10

    def test_even_in_n(self):
        orders = order_arrays(0.21, 1.1, 3)
        for m, n in [(0, 3), (1, 2), (2, 5)]:
            a = greens_function(orders, 3, m, n)
            b = greens_function(orders, 3, m, -n)
            assert a == b

    def test_reciprocity_in_kappa(self):
        orders = order_arrays(0.19, 1.25, 3)
        flipped = order_arrays(-0.19, 1.25, 3)
        for m, n in [(1, 0), (2, 1), (-1, 3)]:
            assert abs(greens_function(orders, 3, m, n)
                       - greens_function(flipped, 3, -m, n)) < 1e-14

    def test_matches_strip_solve(self):
        val = greens_function(order_arrays(0.0, 1.0, 1), 1, 0, 0)
        oracle = strip_greens(0.0, 1.0, 1, 0, 0, z_max=100)
        assert abs(val - oracle) < 1e-6


class TestInteractionMatrix:
    def test_empty_scatterer_is_identity(self):
        config = LatticeConfig(2, (Defect(0, 0, 0.0), Defect(1, 1, 0.0)))
        a = interaction_matrix(SpectralPoint(0.1, 0.9), config)
        assert np.allclose(a, np.eye(2), atol=1e-15)

    def test_mirror_symmetry_at_kappa_zero(self):
        config = LatticeConfig(3, (Defect(0, 0, -1.1), Defect(1, 0, -1.1)))
        a = interaction_matrix(SpectralPoint(0.0, 1.2), config)
        perm = np.array([[0, 1], [1, 0]])
        assert np.allclose(perm @ a @ perm, a, atol=1e-14)

    def test_entries_from_greens_oracle(self):
        # assemble A independently from strip-solve Green's values
        kappa, omega = 0.1, 0.9
        config = LatticeConfig(2, (Defect(0, 0, -1.5), Defect(1, 0, -1.5)))
        a = interaction_matrix(SpectralPoint(kappa, omega), config)
        v = config.ds
        indep = np.eye(2, dtype=complex)
        for j in range(2):
            for k in range(2):
                gval = strip_greens(kappa, omega, 2,
                                    int(config.xs[j] - config.xs[k]),
                                    int(config.zs[j] - config.zs[k]), z_max=150)
                indep[j, k] -= gval * v[k]
        assert np.max(np.abs(a - indep)) < 1e-8

    def test_kappa_per_row_equals_single_points(self):
        """A kappa per frequency row, real or complex, gives each row the
        bits of its single-point matrix."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            config = random_lossless_config(rng)
            kappas = rng.uniform(-0.4, 0.4, 4) + 1j * rng.choice([0.0, 0.05], 4)
            omegas = rng.uniform(0.2, 2.8, 4) - 1j * rng.uniform(0.0, 0.2, 4)
            got = interaction_matrix(SpectralPoint(kappas, omegas), config)
            for k, om, row in zip(kappas, omegas, got, strict=True):
                want = interaction_matrix(SpectralPoint(k, om), config)
                assert row.tobytes() == want.tobytes()

    def test_pendant_elimination_pole(self):
        config = LatticeConfig(
            2, (Defect(0, 0, -1.0),), (Pendant(0, 1.21, 0.4),)
        )
        with pytest.raises(PendantPoleError):
            effective_potential(1.1, config)

    def test_effective_potential_real_on_real_axis(self):
        config = LatticeConfig(
            2, (Defect(0, 0, -1.0),), (Pendant(0, 0.5, 0.4),)
        )
        v = effective_potential(1.2, config)
        assert np.max(np.abs(v.imag)) == 0.0

    def test_analyticity_polydisc_fit(self):
        """Degree-4 bivariate fit of A entries on a small polydisc."""
        rng = np.random.default_rng(3)
        config = LatticeConfig(
            3, (Defect(0, 0, -1.2), Defect(1, 1, 0.8)), (Pendant(0, 0.4, 0.3),)
        )
        k0, om0 = 0.15, 1.2
        r = 0.01
        offs = np.array([-0.9, -0.45, 0.1, 0.55, 0.95])
        pts = [
            (k0 + r * a + 1j * r * 0.3 * b, om0 + r * b + 1j * r * 0.3 * a)
            for a in offs for b in offs
        ]
        samples = np.array(
            [interaction_matrix(SpectralPoint(k, o), config) for k, o in pts]
        )
        design = np.array([
            [(k - k0) ** i * (o - om0) ** j
             for i in range(5) for j in range(5 - i)]
            for k, o in pts
        ])
        flat = samples.reshape(len(pts), -1)
        coef, *_ = np.linalg.lstsq(design, flat, rcond=None)
        resid = np.max(np.abs(design @ coef - flat))
        assert resid < 1e-6 * np.max(np.abs(flat))


class TestConfigIO:
    def test_roundtrip(self, tmp_path):
        config = LatticeConfig(
            3,
            (Defect(0, -1, -3.0), Defect(1, 0, -0.12)),
            (Pendant(1, 0.5, 0.15),),
            tunable="pendants.0.g",
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        back = LatticeConfig.from_json(path)
        assert back == config

    def test_shipped_configs_load(self):
        for name in ("configs/case2_symmetric.json", "configs/case1_seed.json"):
            config = LatticeConfig.from_json(name)
            assert config.period == 3

    def test_schema_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"period": 2}')
        with pytest.raises(ConfigError):
            LatticeConfig.from_json(bad)
        bad.write_text("not json")
        with pytest.raises(ConfigError):
            LatticeConfig.from_json(bad)

    def test_invariant_checks(self):
        with pytest.raises(ConfigError):
            LatticeConfig(0, (Defect(0, 0, 1.0),))
        with pytest.raises(ConfigError):
            LatticeConfig(2, (Defect(0, 0, 1.0), Defect(0, 0, 2.0)))
        with pytest.raises(ConfigError):
            LatticeConfig(2, (Defect(3, 0, 1.0),))
        with pytest.raises(ConfigError):
            LatticeConfig(2, (Defect(0, 0, 1.0),), (Pendant(5, 0.5, 0.1),))
        with pytest.raises(ConfigError):
            LatticeConfig(2, ())

    def test_tunable_handle(self):
        config = LatticeConfig(
            2, (Defect(0, 0, -1.0),), (Pendant(0, 0.5, 0.3),),
            tunable="pendants.0.g",
        )
        assert config.tunable_value == 0.3
        new = config.with_tunable(0.7)
        assert new.pendants[0].g == 0.7
        assert config.pendants[0].g == 0.3
        with pytest.raises(ConfigError):
            LatticeConfig(2, (Defect(0, 0, -1.0),), tunable="defects.4.d")


def test_wood_distance_positive_on_regime_points():
    rng = np.random.default_rng(9)
    for _ in range(10):
        config = random_lossless_config(rng)
        point = random_regime_point(rng, config)
        assert wood_distance(point, config.period) > 1e-3


def test_pendants_compose_additively():
    one = LatticeConfig(2, (Defect(0, 0, -1.0),), (Pendant(0, 0.5, 0.4),))
    two = LatticeConfig(
        2, (Defect(0, 0, -1.0),),
        (Pendant(0, 0.5, 0.4), Pendant(0, 2.0, 0.3)),
    )
    omega = 1.2
    v1 = effective_potential(omega, one)[0]
    v2 = effective_potential(omega, two)[0]
    assert abs(v2 - v1 - 0.09 / (omega**2 - 2.0)) < 1e-15


def test_pendant_on_bare_site():
    # a defect with d = 0 still anchors its pendant's effective potential
    config = LatticeConfig(2, (Defect(0, 0, 0.0),), (Pendant(0, 0.5, 0.4),))
    v = effective_potential(1.2, config)[0]
    assert abs(v - 0.16 / (1.2**2 - 0.5)) < 1e-15


def test_shipped_configs_match_fixtures():
    from conftest import CASE1_SEED, CASE2

    assert LatticeConfig.from_json("configs/case2_symmetric.json") == CASE2
    assert LatticeConfig.from_json("configs/case1_seed.json") == CASE1_SEED


@pytest.mark.parametrize("attr", ["defects.1.d", "pendants.0.g", "pendants.0.mu"])
def test_effective_potential_parameter_axis_equals_configs(attr):
    """Row t of a parameter-axis call is the call on config.with_tunable(s_t),
    bit for bit; a row on its own pendant pole raises as that config does."""
    from dataclasses import replace

    rng = np.random.default_rng(11)
    config = replace(LatticeConfig(
        3, (Defect(0, 0, -1.2), Defect(1, 1, 0.8), Defect(2, -1, 0.3)),
        (Pendant(1, 0.5, 0.4),)), tunable=attr)
    values = config.tunable_value + rng.uniform(-0.3, 0.3, 5)
    omegas = rng.uniform(0.3, 2.0, (5, 3)) - 1j * rng.uniform(0.0, 0.1, (5, 3))
    got = effective_potential(omegas, config, values)
    for t, s in enumerate(values):
        want = effective_potential(omegas[t], config.with_tunable(s))
        assert got[t].tobytes() == want.tobytes()
    # at equal values, the parameter axis changes nothing
    same = effective_potential(omegas, config, [config.tunable_value] * 5)
    assert same.tobytes() == effective_potential(omegas, config).tobytes()
    if attr == "pendants.0.mu":
        omegas[3, 1] = np.sqrt(values[3])
        with pytest.raises(PendantPoleError) as batch:
            effective_potential(omegas, config, values)
        with pytest.raises(PendantPoleError) as alone:
            effective_potential(omegas[3], config.with_tunable(values[3]))
        assert str(batch.value) == str(alone.value)
