import re
from dataclasses import replace

import numpy as np
import pytest

from slabresonance import modes
from slabresonance import (
    Defect,
    LatticeConfig,
    SpectralPoint,
    eigen_branch,
    find_real_mode,
    omega_root,
    trace_branch,
    tune_structure,
    verify_mode,
)
from slabresonance.errors import (
    BranchCollisionError,
    ConfigError,
    ConvergenceError,
    DispersionSignError,
    PendantPoleError,
)
from slabresonance.lattice import effective_potential, greens_function, order_arrays
from slabresonance.modes import (
    ROOT_MAX_ITER,
    ROOT_TOL,
    SEED_GRID,
    DispersionSample,
    _omega_newton,
    branch_seeds,
    decay_profile,
)

from conftest import ambiguous_anchor, survey_case


class TestOmegaRoot:
    def test_recovers_known_mode(self, case2_config, case2_mode):
        samp = omega_root(case2_mode.kappa0, case2_mode.omega0 + 1e-3j,
                          case2_config)
        assert abs(samp.omega - case2_mode.omega0) < 1e-9
        assert samp.residual < 1e-10

    def test_symmetric_branch_even(self, case2_config, case2_mode):
        delta = 0.01
        sp = omega_root(case2_mode.kappa0 + delta, case2_mode.omega0,
                        case2_config, case2_mode.nullvector)
        sm = omega_root(case2_mode.kappa0 - delta, case2_mode.omega0,
                        case2_config, case2_mode.nullvector)
        assert abs(sp.omega - sm.omega) < 1e-8

    def test_leaky_off_the_real_point(self, case2_config, case2_mode):
        samp = omega_root(case2_mode.kappa0 + 0.02, case2_mode.omega0,
                          case2_config, case2_mode.nullvector)
        assert samp.omega.imag < 0

    def test_nonconvergence_reported(self, case2_config):
        with pytest.raises(ConvergenceError):
            omega_root(0.1, 5.0 + 0j, case2_config, max_iter=8)


class TestOmegaRootErrors:
    """Which error a failed batched Newton step reports."""

    def test_guess_on_pendant_pole(self, case1_seed_config):
        pole = np.sqrt(case1_seed_config.pendants[0].mu)
        with pytest.raises(PendantPoleError):
            omega_root(0.2, pole, case1_seed_config)

    def test_stencil_reaches_pendant_pole(self, case1_seed_config):
        pole = np.sqrt(case1_seed_config.pendants[0].mu)
        om = (pole - 1e-6) / (1.0 + 1e-6)  # om + h lands on the pole
        eigen_branch(SpectralPoint(0.2, om), case1_seed_config)  # om is valid
        with pytest.raises(ConvergenceError, match="derivative stencil"):
            omega_root(0.2, om, case1_seed_config)

    def test_root_breaks_the_dispersion_sign(self, case2_config, monkeypatch):
        """Under a negative IM_OMEGA_TOL a root with Im omega <= 0 breaks
        the sign bound, and omega_root raises rather than return it."""
        monkeypatch.setattr(modes, "IM_OMEGA_TOL", -1e-4)
        with pytest.raises(DispersionSignError, match="at real kappa=0.0"):
            omega_root(0.0, 1.45, case2_config)

    def test_branch_collision_at_guess(self, case1_seed_config):
        point = SpectralPoint(0.1, 1.2)
        probe = ambiguous_anchor(point, case1_seed_config)
        with pytest.raises(BranchCollisionError, match="branch overlap"):
            omega_root(point.kappa, point.omega, case1_seed_config, probe)


def test_omega_newton_failed_call_is_retried_per_row():
    """A batch call that raises is made again for each row on its own
    stencil: row 1, whose guess is invalid, fails with its own error after
    its omega alone raises too, and rows 0 and 2 converge."""
    calls = []

    def f(kappa, oms, rows):
        calls.append((list(rows), oms.shape[1]))
        if 1 in rows:
            raise PendantPoleError("injected")
        return [st * st - 2.0 for st in oms]

    roots, _, errors = _omega_newton(f, 0.1, np.array([1.0, 1.2, 1.4]),
                                     ROOT_TOL, ROOT_MAX_ITER)
    assert calls[:5] == [([0, 1, 2], 3), ([0], 3), ([1], 3), ([1], 1),
                         ([2], 3)]
    assert calls[5] == ([0, 2], 3)
    assert all(1 not in rows for rows, _ in calls[5:])
    assert isinstance(errors[1], PendantPoleError) and roots[1] == 1.2
    assert errors[0] is None and abs(roots[0] - np.sqrt(2.0)) < ROOT_TOL
    assert errors[2] is None and abs(roots[2] - np.sqrt(2.0)) < ROOT_TOL


def test_omega_newton_stops_a_diverging_row():
    """A row whose iterate runs away fails early; the other row converges.

    Newton on 1/omega doubles omega each step while |f| falls, so the basin
    check never fires; the row fails once it is 10 (1 + |guess|) away.
    """
    seen = []

    def f(kappa, oms, rows):
        seen.append(list(rows))
        return [1.0 / st if r == 0 else st - 1.3 for st, r in zip(oms, rows)]

    roots, _, errors = _omega_newton(f, 0.1, np.array([1.0, 1.2]),
                                     ROOT_TOL, ROOT_MAX_ITER)
    assert isinstance(errors[0], ConvergenceError)
    assert "diverged" in str(errors[0])
    assert sum(0 in rows for rows in seen) == 5  # omega ~ 1, 2, 4, 8, 16
    assert errors[1] is None and abs(roots[1] - 1.3) < ROOT_TOL


def test_omega_newton_vanishing_derivative():
    """A row whose stencil values at omega + h and omega - h agree has no
    Newton step: it fails at its guess."""
    roots, sizes, errors = _omega_newton(
        lambda kappa, oms, rows: [(1.0, 2.0, 2.0) for _ in oms], 0.1, [1.2],
        ROOT_TOL, ROOT_MAX_ITER)
    assert isinstance(errors[0], ConvergenceError)
    assert str(errors[0]) == "omega Newton: vanishing derivative"
    assert (roots, sizes) == ([1.2], [1.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_trace_rows_do_not_overflow():
    """On this mirror config some traced Newton rows diverge.

    They used to run on until omega**2 overflowed, which printed numpy
    RuntimeWarnings; now they stop early and the mode is still found.
    """
    config, window = survey_case(3)
    mode = find_real_mode(config, (-0.25, 0.25), window)
    assert (mode.kappa0, mode.omega0) == (0.0, 1.3910556043099453)


class TestFindRealMode:
    def test_case2_mode_at_kappa_zero(self, case2_config, case2_mode):
        assert case2_mode.kappa0 == 0.0
        assert abs(case2_mode.omega0 - 1.4971229592699646) < 1e-9
        assert case2_mode.residual < 1e-10
        assert case2_mode.radiating_component < 1e-8

    def test_asymmetric_seed_has_none(self, case1_seed_config):
        mode = find_real_mode(case1_seed_config, (0.06, 0.34), (1.30, 1.46),
                              n_kappa=60)
        assert mode is None

    def test_empty_scatterer_has_no_candidates(self):
        config = LatticeConfig(2, (Defect(0, 0, 0.0),))
        assert branch_seeds(config, 0.1, (0.5, 1.5)) == []
        assert find_real_mode(config, (-0.2, 0.2), (0.5, 1.5), n_kappa=40) is None


# survey draws whose windows hold a real point at kappa = 0 that verify_mode
# passes, while every trace of the dense search fails; how many traces that is
UNTRACED = {0: 2, 13: 3, 39: 1, 44: 2, 73: 1, 82: 1}


@pytest.mark.parametrize("seed", UNTRACED)
def test_failed_traces_are_no_verdict(seed):
    """Where no mode is found but branch traces failed, the search raises
    ConvergenceError naming each failed seed omega, in seed order, and its
    error, in place of reporting no mode."""
    config, window = survey_case(seed)
    with pytest.raises(ConvergenceError) as info:
        find_real_mode(config, (-0.25, 0.25), window)
    message = str(info.value)
    assert message.startswith(
        f"no mode found, but {UNTRACED[seed]} branch trace(s) failed: seed omega=")
    named = re.findall(r"seed omega=([^:]+): omega Newton ", message)
    assert list(map(float, named)) == branch_seeds(config, -0.25, window)


class TestVerifyMode:
    def test_case2_mode_passes(self, case2_config, case2_mode):
        report = verify_mode(case2_mode, case2_config)
        assert report["passed"], report

    def test_decay_rate_matches_slowest_eta(self, case2_config, case2_mode):
        report = verify_mode(case2_mode, case2_config)
        expected = report["decay_rate_expected"]
        assert abs(report["decay_rate"] - expected) < 0.1 * expected

    def test_leaky_point_rejected(self, case2_config, case2_mode):
        from slabresonance.modes import GuidedMode

        samp = omega_root(case2_mode.kappa0 + 0.05, case2_mode.omega0,
                          case2_config, case2_mode.nullvector)
        _, vec = eigen_branch(
            SpectralPoint(case2_mode.kappa0 + 0.05, samp.omega.real),
            case2_config, samp.vector,
        )
        fake = GuidedMode(case2_mode.kappa0 + 0.05, samp.omega.real, vec,
                          0.0, 0.0)
        report = verify_mode(fake, case2_config)
        assert not report["checks"]["radiating"]

    def test_decay_profile_equals_site_sum(self, mode_case):
        """The closed-form rows equal the Green's-function sum over the sites."""
        config, mode = mode_case
        ns, vals, _ = decay_profile(mode, config)
        orders = order_arrays(mode.kappa0, mode.omega0, config.period)
        weighted = effective_potential(mode.omega0, config) * mode.nullvector
        site_sum = [
            max(abs(sum(greens_function(orders, config.period, m - d.x, n - d.z)
                        * weighted[j] for j, d in enumerate(config.defects)))
                for m in range(config.period))
            for n in ns
        ]
        assert np.max(np.abs(vals - site_sum)) <= 1e-12 * np.max(vals)


class TestTuner:
    def test_tuned_mode_off_gamma(self, case1_tuned):
        tuned, mode = case1_tuned
        assert mode.kappa0 != 0.0
        assert abs(mode.kappa0 - 0.194277) < 5e-4
        assert abs(mode.omega0 - 1.384427) < 5e-4
        assert mode.radiating_component < 1e-8
        assert abs(tuned.tunable_value - 0.4123064997) < 1e-6

    def test_noop_when_mode_exists(self, case2_config, case2_mode):
        config = LatticeConfig(
            case2_config.period, case2_config.defects, (),
            tunable="defects.0.d",
        )
        tuned, mode = tune_structure(config, (-0.25, 0.25), (1.3, 1.7))
        assert tuned.tunable_value == config.tunable_value
        assert mode.kappa0 == case2_mode.kappa0

    def test_perturbing_tuned_parameter_destroys_mode(self, case1_tuned):
        tuned, mode = case1_tuned
        kappas = np.linspace(mode.kappa0 - 0.03, mode.kappa0 + 0.03, 31)
        base = min(
            abs(s.omega.imag)
            for s in trace_branch(tuned, kappas, complex(mode.omega0),
                                  mode.nullvector)
        )
        for delta in (1e-3, -1e-3):
            bumped = tuned.with_tunable(tuned.tunable_value + delta)
            gap = min(
                abs(s.omega.imag)
                for s in trace_branch(bumped, kappas, complex(mode.omega0),
                                      mode.nullvector)
            )
            assert gap > max(100.0 * base, 5e-11), (
                f"real point survived parameter bump: gap={gap:.2e}, "
                f"baseline={base:.2e}"
            )

    # the case1_tuned fixture itself covers (0.08, 0.32), (1.30, 1.46), (0.05, 0.8)
    @pytest.mark.parametrize("kappa_range, omega_window, param_range", [
        ((0.08, 0.32), (1.30, 1.46), None),
        ((0.08, 0.32), (1.30, 1.46), (0.3, 0.6)),
        ((0.075, 0.325), (1.295, 1.465), (0.05, 0.8)),
    ])
    def test_scan_minimum_in_newton_basin(self, case1_seed_config, case1_tuned,
                                          kappa_range, omega_window,
                                          param_range):
        """Gauss-Newton from the coarse-scan minimum reaches one tuned point.

        The tuner starts Gauss-Newton at the coarse-scan minimum, so that
        minimum must lie in the basin for every scan interval and window.
        The default interval straddles g = 0; g enters only as g^2, so the
        tuner may land on -g.
        """
        ref_config, ref_mode = case1_tuned
        tuned, mode = tune_structure(case1_seed_config, kappa_range,
                                     omega_window, param_range=param_range)
        assert abs(abs(tuned.tunable_value) - ref_config.tunable_value) < 1e-10
        assert abs(mode.kappa0 - ref_mode.kappa0) < 1e-10
        assert abs(mode.omega0 - ref_mode.omega0) < 1e-10

    # case1 with mu tunable: the last scan value puts the pendant pole on a
    # point of branch_seeds' grid, the earlier ones below the window
    POLE = np.linspace(1.30, 1.46, SEED_GRID)[1] ** 2
    POLE_SCAN = ((0.08, 0.32), (1.30, 1.46), (POLE - 0.6, POLE))

    def test_scan_raises_a_seed_grid_pole_after_the_earlier_traces(
            self, case1_seed_config):
        """The scan value whose seed grid hits its pendant pole raises that
        error only after the twelve earlier values have been traced."""
        config = replace(case1_seed_config, tunable="pendants.0.mu")
        traced, lockstep = [], modes._lockstep

        def recorded(configs, owners, kappas, seeds):
            traced.append(sorted(set(owners)))
            return lockstep(configs, owners, kappas, seeds)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modes, "_lockstep", recorded)
            with pytest.raises(PendantPoleError, match=f"mu = {self.POLE}$"):
                tune_structure(config, *self.POLE_SCAN)
        assert traced[-1] == list(range(12))

    def test_scan_raises_an_earlier_trace_error_first(self, case1_seed_config):
        """A trace error that is not skipped, met at an earlier scan value,
        wins over the later value's seed-grid error."""
        config = replace(case1_seed_config, tunable="pendants.0.mu")
        lockstep = modes._lockstep

        def injected(configs, owners, kappas, seeds):
            out = lockstep(configs, owners, kappas, seeds)
            if len(configs) > 1:
                out[list(owners).index(3)] = BranchCollisionError("injected")
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modes, "_lockstep", injected)
            with pytest.raises(BranchCollisionError, match="^injected$"):
                tune_structure(config, *self.POLE_SCAN)

    def test_gauss_newton_stall(self, case1_seed_config):
        """A radiating amplitude that never falls below 5e-14 stops the
        Gauss-Newton stage after its 40 rounds."""
        rounds = []

        def stuck(kappa, om_guess, config, anchor):
            rounds.append(kappa)
            return 1e-3 + 0j, DispersionSample(kappa, om_guess, 0.0, anchor)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modes, "_rho", stuck)
            with pytest.raises(ConvergenceError,
                               match=r"^tuner Gauss-Newton stalled at \|rho\| = 1\.00e-03$"):
                tune_structure(case1_seed_config, (0.08, 0.32), (1.30, 1.46))
        assert len(rounds) >= 40 * 5

    def test_requires_tunable(self, case2_config):
        with pytest.raises(ConfigError, match="no tunable parameter"):
            tune_structure(case2_config, (-0.2, 0.2), (1.3, 1.7))


class TestIsolation:
    def test_punctured_disk_is_leaky(self, case1_tuned):
        tuned, mode = case1_tuned
        offsets = [-0.05, -0.03, -0.02, -0.01, -0.005, -0.002,
                   0.002, 0.005, 0.01, 0.02, 0.03, 0.05]
        for kt in offsets:
            samp = omega_root(mode.kappa0 + kt, complex(mode.omega0), tuned,
                              mode.nullvector)
            assert samp.omega.imag < -1e-12, (
                f"expected leaky at kt={kt}, got Im omega={samp.omega.imag:.2e}"
            )

    def test_dispersion_sign_everywhere(self, case2_config, case2_mode):
        kappas = np.linspace(-0.3, 0.3, 61)
        samples = trace_branch(case2_config, kappas, complex(case2_mode.omega0),
                               case2_mode.nullvector)
        assert max(s.omega.imag for s in samples) <= 1e-9


def test_case2_mode_confirmed_by_strip_nullspace(case2_config, case2_mode):
    """Independent oracle: the sourceless strip operator is singular there."""
    from _oracles import strip_min_singular

    args = (case2_config.period, case2_config.xs, case2_config.zs,
            case2_config.ds, [])
    at_mode = strip_min_singular(case2_mode.kappa0, case2_mode.omega0, *args)
    off_mode = strip_min_singular(case2_mode.kappa0, case2_mode.omega0 + 0.01,
                                  *args)
    assert at_mode < 1e-8
    assert off_mode > 100.0 * at_mode


def test_coarse_trace_stays_on_branch(case1_seed_config):
    """A 3-point continuation lands on the same branch as an 80-point one."""
    from slabresonance.modes import branch_seeds

    seed = branch_seeds(case1_seed_config, 0.06, (1.30, 1.46))[0]
    fine = trace_branch(case1_seed_config, np.linspace(0.06, 0.34, 80), seed)
    coarse = trace_branch(case1_seed_config, np.linspace(0.06, 0.34, 3), seed)
    assert abs(coarse[-1].omega - fine[-1].omega) < 1e-9
