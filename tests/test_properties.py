"""Randomised property tests of the scattering solver and the root finders.

Hypothesis draws a seed; the seed builds a random lossless config and a real
point with exactly order 0 propagating (``random_lossless_config`` and
``random_regime_point``), or a frequency grid at a random kappa.
``derandomize=True`` fixes the examples;
``database=None`` and the storage directory set in ``conftest.py`` keep the
run free of files.
"""

import contextlib
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from slabresonance import (
    GuidedMode,
    SpectralPoint,
    coefficient_triple,
    eigen_branch,
    solve_scattering,
)
from slabresonance import lattice, modes
from slabresonance.errors import (
    BranchCollisionError,
    ConvergenceError,
    DispersionSignError,
    NearSingularError,
    NoPropagatingOrderError,
    PendantPoleError,
    SlabError,
    WoodAnomalyError,
)
from slabresonance.lattice import OK, evaluate_point, interaction_matrix
from slabresonance.modes import (
    DENSE_KAPPAS,
    IM_OMEGA_TOL,
    ROOT_MAX_ITER,
    ROOT_TOL,
    SCAN_KAPPAS,
    SEED_GRID,
    _smallest_eig_moduli,
    branch_seeds,
    find_real_mode,
    trace_branch,
    verify_mode,
)
from slabresonance.scattering import COND_LIMIT, SKIP_ERRORS, solve_grid

from _oracles import strip_solve

from conftest import (
    CASE1_SEED,
    CASE2,
    mirror_pairs,
    random_lossless_config,
    random_mirror_config,
    random_regime_point,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def examples(n):
    return settings(max_examples=n, derandomize=True, database=None,
                    deadline=None)


def test_random_config_caps_defects_at_sites():
    """Seed 0 draws 6 defects for period 1, which has 5 sites in z in [-2, 2]."""
    config = random_lossless_config(np.random.default_rng(0), 1, 6)
    assert config.period == 1
    assert sorted(config.zs) == [-2, -1, 0, 1, 2]


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


@examples(10)
@given(SEEDS)
def test_grid_takes_lstsq_exactly_where_the_svd_test_fails(case2_config,
                                                           case2_mode, seed):
    """Near the case2 mode, at offsets that put cond_2(A) between 1e8 and
    1e14, plus the mode row itself: each solve_grid row is the single-point
    solve, and goes to lstsq exactly where the SVD test calls A singular,
    although most rows of the block skip the SVD; all other rows are solved
    by one batched LU call."""
    rng = np.random.default_rng(seed)
    kappa, om0 = case2_mode.kappa0, case2_mode.omega0
    # cond_2(A) is about 0.4 / |omega - omega0| here
    offsets = rng.choice([-1, 1], 24) * 10 ** rng.uniform(np.log10(4e-15),
                                                         np.log10(4e-9), 24)
    omegas = np.concatenate([om0 + offsets, [om0], rng.uniform(1.42, 1.52, 8)])
    a = evaluate_point(SpectralPoint(kappa, omegas), case2_config)[2]
    svals = np.linalg.svd(a, compute_uv=False)
    expected = np.flatnonzero(svals[:, -1] < svals[:, 0] / COND_LIMIT)
    lstsq, solve, solved, lu = np.linalg.lstsq, np.linalg.solve, [], []

    def recorded(m, b, rcond=None):
        solved.append(m.tobytes())
        return lstsq(m, b, rcond=rcond)

    def batched(m, b):
        lu.append(len(m))
        return solve(m, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "lstsq", recorded)
        patch.setattr(np.linalg, "solve", batched)
        solve_grid(kappa, omegas, case2_config)
    assert solved == [a[i].tobytes() for i in expected]
    assert lu == [len(omegas) - len(expected)]
    assert 24 in expected  # the mode row
    assert_grid_matches_points(kappa, omegas, case2_config)


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


def outcome(fn, *args):
    """fn's result, or the class and message of the error it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, SlabError) as exc:
        return type(exc), str(exc)


def per_point_seeds(config, kappa, window):
    """branch_seeds as a loop of single-point eigvals: (seeds, min |eig|)."""
    oms = np.linspace(window[0], window[1], SEED_GRID)
    vals = np.array([
        np.min(np.abs(np.linalg.eigvals(
            interaction_matrix(SpectralPoint(kappa, om), config))))
        for om in oms
    ])
    minima = [i for i in range(1, SEED_GRID - 1)
              if vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < 0.6]
    seeds = [oms[i] for i in sorted(minima, key=lambda i: vals[i])]
    return seeds, vals


@examples(40)
@given(SEEDS)
def test_branch_seeds_equal_per_point_loop(seed):
    """Same seeds and min |eig| bits; with an invalid grid point, the error of
    the first one in grid order (a pendant pole ahead of a Wood point)."""
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng)
    kappa = float(rng.uniform(-0.4, 0.4))
    wood = 2.0 * abs(np.sin(kappa / 2.0))
    window = (float(rng.uniform(0.0, 1.5)), float(rng.uniform(1.5, 2.9)))
    kind = int(rng.integers(0, 3))
    if kind == 1:
        window = (window[0], wood)
    elif kind == 2 and config.pendants:
        window = (np.sqrt(config.pendants[0].mu), wood)
    want = outcome(per_point_seeds, config, kappa, window)
    got = outcome(branch_seeds, config, kappa, window)
    if isinstance(want[0], type):
        assert got == want
        return
    assert got == want[0]
    oms = np.linspace(window[0], window[1], SEED_GRID)
    assert bits(_smallest_eig_moduli(config, kappa, oms)) == bits(want[1])


def per_point_branch(point, config, anchor):
    """Batched eigen_branch as single calls: row 0 on ``anchor``, the other
    rows on row 0's vector."""
    oms = np.atleast_1d(point.omega)
    ell, vec = eigen_branch(SpectralPoint(point.kappa, oms[0]), config, anchor)
    rows = [ell] + [eigen_branch(SpectralPoint(point.kappa, om), config, vec)[0]
                    for om in oms[1:]]
    return np.array(rows), vec


@examples(60)
@given(SEEDS)
def test_batched_eigen_branch_equals_single_calls(seed):
    """Complex frequency rows at real or complex kappa, with no anchor or the
    eigenvector of a nearby point (which may collide on some row)."""
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng)
    kappa = complex(rng.uniform(-0.4, 0.4), rng.choice([0.0, 0.05]))
    oms = rng.uniform(0.2, 2.8, 5) - 1j * rng.uniform(0.0, 0.2, 5)
    anchor = None
    if rng.random() < 0.7:
        near = SpectralPoint(kappa, oms[0] + complex(*rng.uniform(-0.1, 0.1, 2)))
        anchor = outcome(eigen_branch, near, config)[1]
        if isinstance(anchor, str):
            reject()
    point = SpectralPoint(kappa, oms)
    want = outcome(per_point_branch, point, config, anchor)
    got = outcome(eigen_branch, point, config, anchor)
    if isinstance(want[0], type):
        assert got[0] is want[0]
        return
    assert bits(got[0]) == bits(want[0])
    assert bits(got[1]) == bits(want[1])


def per_run_branch(point, config, anchor):
    """eigen_branch with a kappa per row as one batched call per run of rows
    at one kappa, each anchored on the previous run's first vector."""
    kappas, rows, vecs = point.kappa, [], []
    ends = [*np.flatnonzero(kappas[1:] != kappas[:-1]) + 1, len(kappas)]
    for s, e in zip([0, *ends], ends):
        ells, anchor = eigen_branch(SpectralPoint(kappas[s], point.omega[s:e]),
                                    config, anchor)
        rows.extend(ells)
        vecs.append(anchor)
    return np.array(rows), np.array(vecs)


@examples(60)
@given(SEEDS)
def test_eigen_branch_with_a_kappa_per_row(seed):
    """Two or three runs of one to three complex frequency rows, each run at
    its own real kappa, with no anchor or the eigenvector of a nearby point:
    the bits of one call per run, or an error where those calls raise."""
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng)
    sizes = rng.integers(1, 4, int(rng.integers(2, 4)))
    kappas = np.repeat(rng.uniform(-0.4, 0.4, len(sizes)), sizes)
    oms = rng.uniform(0.2, 2.8, len(kappas)) - 1j * rng.uniform(0.0, 0.2, len(kappas))
    anchor = None
    if rng.random() < 0.7:
        near = SpectralPoint(kappas[0], oms[0] + complex(*rng.uniform(-0.1, 0.1, 2)))
        anchor = outcome(eigen_branch, near, config)[1]
        if isinstance(anchor, str):
            reject()
    point = SpectralPoint(kappas, oms)
    want = outcome(per_run_branch, point, config, anchor)
    got = outcome(eigen_branch, point, config, anchor)
    if isinstance(want[0], type):
        assert isinstance(got[0], type)
        return
    assert bits(got[0]) == bits(want[0])
    assert bits(got[1]) == bits(want[1])


@examples(40)
@given(SEEDS)
def test_eigen_branch_with_several_traces(seed):
    """Two or three traces in one 1-D frequency array, each started by its
    row of a 2-D anchor (NaN on the rows that continue it) and holding one
    or two runs of one to three complex rows, each run at its own real
    kappa: the bits of one call per trace, or an error where one of those
    calls raises."""
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng)
    traces, anchors = [], []
    for _ in range(int(rng.integers(2, 4))):
        sizes = rng.integers(1, 4, int(rng.integers(1, 3)))
        kappas = np.repeat(rng.uniform(-0.4, 0.4, len(sizes)), sizes)
        oms = rng.uniform(0.2, 2.8, len(kappas)) - 1j * rng.uniform(0.0, 0.2, len(kappas))
        near = SpectralPoint(kappas[0], oms[0] + complex(*rng.uniform(-0.1, 0.1, 2)))
        anchor = outcome(eigen_branch, near, config)[1]
        if isinstance(anchor, str):
            reject()
        traces.append(SpectralPoint(kappas, oms))
        anchors.append(np.full((len(oms), len(anchor)), np.nan, dtype=complex))
        anchors[-1][0] = anchor
    want = [outcome(per_run_branch, trace, config, rows[0])
            for trace, rows in zip(traces, anchors)]
    point = SpectralPoint(np.concatenate([t.kappa for t in traces]),
                          np.concatenate([t.omega for t in traces]))
    got = outcome(eigen_branch, point, config, np.concatenate(anchors))
    if any(isinstance(w[0], type) for w in want):
        assert isinstance(got[0], type)
        return
    assert bits(got[0]) == bits(np.concatenate([w[0] for w in want]))
    assert bits(got[1]) == bits(np.concatenate([w[1] for w in want]))


def per_row_triples(point, config, anchor):
    """coefficient_triple at each row of ``point`` alone: its result or error."""
    return [outcome(coefficient_triple, SpectralPoint(point.kappa, om), config,
                    anchor) for om in point.omega]


@examples(60)
@given(SEEDS)
def test_batched_coefficient_triple_equals_single_calls(seed):
    """Complex rows at real or complex kappa, or real rows about a regime
    point (where the order check runs) with one complex row and possibly a
    Wood, above-band or pendant-pole row; no anchor or the eigenvector of a
    nearby point.  A batch with a failing row raises a failing row's class."""
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng)
    if rng.random() < 0.5:
        kappa = complex(rng.uniform(-0.4, 0.4), rng.choice([0.0, 0.05]))
        oms = rng.uniform(0.2, 2.8, 5) - 1j * rng.uniform(0.0, 0.2, 5)
    else:
        point = random_regime_point(rng, config)
        kappa = point.kappa
        oms = point.omega + np.append(rng.uniform(-0.02, 0.02, 4), 0j)
        oms[-1] -= 0.01j
        bad = [2.0 * abs(np.sin(kappa / 2.0)), 2.9]
        bad += [np.sqrt(p.mu) for p in config.pendants]
        if rng.random() < 0.3:
            oms[rng.integers(0, 5)] = rng.choice(bad)
    anchor = None
    if rng.random() < 0.7:
        near = SpectralPoint(kappa, oms[0] + complex(*rng.uniform(-0.01, 0.01, 2)))
        anchor = outcome(eigen_branch, near, config)[1]
        if isinstance(anchor, str):
            reject()
    point = SpectralPoint(kappa, oms)
    rows = per_row_triples(point, config, anchor)
    got = outcome(coefficient_triple, point, config, anchor)
    failed = {row[0] for row in rows if isinstance(row, tuple)}
    if failed:
        assert isinstance(got, tuple) and got[0] in failed
        return
    for field in ("eigval", "refl", "trans"):
        assert bits(getattr(got, field)) == bits(
            [getattr(row, field) for row in rows])


def solo_flattest(config, kappas, window, max_seeds):
    """One config's (min |Im omega|, its sample) and failed (seed, error)
    traces, one trace after another."""
    best, failed = (np.inf, None), []
    for seed in branch_seeds(config, kappas[0], window)[:max_seeds]:
        try:
            samples = trace_branch(config, kappas, seed)
        except (ConvergenceError, DispersionSignError) as exc:
            failed.append((seed, exc))
            continue
        ims = [abs(s.omega.imag) for s in samples]
        i = int(np.argmin(ims))
        if ims[i] < best[0]:
            best = (ims[i], samples[i])
    return best, failed


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert bits(g.kappa) == bits(w.kappa)
        assert bits(g.omega) == bits(w.omega)
        assert bits(g.residual) == bits(w.residual)
        assert bits(g.vector) == bits(w.vector)


@examples(20)
@given(SEEDS)
def test_lockstep_scan_equals_solo_traces(seed):
    """The lock-step scan over a tunable defect d, pendant g or pendant mu
    gives every scan value the per-trace result and failed traces, or raises
    the error the per-trace loop meets first."""
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng)
    paths = [f"defects.{int(rng.integers(len(config.defects)))}.d"]
    paths += [f"pendants.0.{attr}" for attr in ("g", "mu") if config.pendants]
    config = replace(config, tunable=paths[int(rng.integers(len(paths)))])
    svals = config.tunable_value + rng.uniform(-0.3, 0.3, int(rng.integers(2, 6)))
    configs = [config.with_tunable(s) for s in svals]
    k0 = float(rng.uniform(-0.4, 0.3))
    kappas = np.linspace(k0, k0 + float(rng.uniform(0.05, 0.3)), 10)
    window = (float(rng.uniform(0.2, 1.2)), float(rng.uniform(1.5, 2.8)))
    max_seeds = [None, 3][int(rng.integers(2))]
    want = []
    for cfg in configs:
        want.append(outcome(solo_flattest, cfg, kappas, window, max_seeds))
        if isinstance(want[-1][0], type):
            want = want[-1]
            break
    got = outcome(modes._flattest_sample, configs, kappas, window, max_seeds)
    if isinstance(want[0], type):
        assert got == want
        return
    for (gf, gs), gfail, ((wf, ws), wfail) in zip(*got, want, strict=True):
        assert bits(gf) == bits(wf)
        assert (gs is None) == (ws is None)
        if ws is not None:
            assert_same_samples([gs], [ws])
        assert [(bits(seed), type(exc), str(exc)) for seed, exc in gfail] == [
            (bits(seed), type(exc), str(exc)) for seed, exc in wfail]


@examples(80)
@given(SEEDS)
def test_omega_newton_rows_end_as_solved_alone(seed):
    """Each row of a batched ``_omega_newton`` gets the root, |f| and error
    it gets solved alone, whichever calls raise.

    Row r solves omega^2 = c_r and raises at Re omega > cut_r: never, at the
    midpoint between its guess and its root, before its guess, or on its
    guess's derivative stencil only.  Besides, the calls in ``faults`` raise
    whenever they hold more than one row.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    guesses = rng.uniform(0.3, 3.0, n) + 1j * rng.uniform(-0.3, 0.3, n)
    targets = rng.uniform(0.3, 3.0, n) + 1j * rng.uniform(-0.3, 0.3, n)
    midpoints = 0.5 * (guesses.real + np.sqrt(targets).real)
    cuts = np.choose(rng.integers(0, 4, n), [
        np.full(n, np.inf), midpoints, guesses.real - 0.1,
        guesses.real + 0.5e-6])
    faults = set(rng.choice(8, size=int(rng.integers(0, 4)), replace=False))

    def value(r, w):
        if w.real > cuts[r]:
            raise PendantPoleError(f"row {r} raises at omega={w}")
        return w * w - targets[r]

    calls = []

    def batch(kappa, stencils, rows):
        calls.append(rows)
        if len(rows) > 1 and len(calls) - 1 in faults:
            raise ArithmeticError("injected failure of a shared call")
        return [[value(r, w) for w in row] for r, row in zip(rows, stencils)]

    roots, sizes, errors = modes._omega_newton(batch, 0.1, guesses, ROOT_TOL,
                                               ROOT_MAX_ITER)
    for r in range(n):
        (root,), (size,), (error,) = modes._omega_newton(
            lambda k, stencils, rows: [[value(r, w) for w in stencils[0]]],
            0.1, guesses[r:r + 1], ROOT_TOL, ROOT_MAX_ITER)
        assert roots[r] == root
        assert sizes[r] == size or np.isnan([sizes[r], size]).all()
        assert (type(errors[r]), str(errors[r])) == (type(error), str(error))


def assert_lockstep_equals_traces(configs, owners, kappas, seeds):
    """Each lock-step trace is trace_branch on its config and seed."""
    got = modes._lockstep(configs, owners, kappas, seeds)
    for c, seed, trace in zip(owners, seeds, got, strict=True):
        want = outcome(trace_branch, configs[c], kappas, seed)
        if isinstance(want[0], type):
            assert (type(trace), str(trace)) == want
        else:
            assert_same_samples(trace, want)
    return got


def halving_depths(monkeypatch):
    """Record the depth of every _root_with_halving call."""
    depths = []
    solo = modes._root_with_halving

    def recorded(k_prev, om, vec, k, config, depth=6):
        depths.append(depth)
        return solo(k_prev, om, vec, k, config, depth)

    monkeypatch.setattr(modes, "_root_with_halving", recorded)
    return depths


def test_lockstep_row_that_halves(monkeypatch):
    """A coarse kappa path where the first seed's trace needs halvings (the
    other two fail at the first kappa), at two values of a defect d."""
    config = replace(random_lossless_config(np.random.default_rng(5)),
                     tunable="defects.0.d")
    configs = [config, config.with_tunable(config.tunable_value + 1e-3)]
    kappas = np.linspace(-0.4, 0.4, 4)
    seeds = branch_seeds(config, kappas[0], (0.3, 2.5))[:3]
    depths = halving_depths(monkeypatch)
    got = assert_lockstep_equals_traces(configs, [0] * 3 + [1] * 3, kappas,
                                        seeds + seeds)
    assert min(depths) < 6
    assert isinstance(got[0], list) and isinstance(got[3], list)


def test_lockstep_row_whose_trace_fails(monkeypatch):
    """Both traces halve down to depth 0; one then raises ConvergenceError."""
    config = random_lossless_config(np.random.default_rng(8))
    kappas = np.linspace(-0.4, 0.4, 4)
    seeds = [0.3739495798319328, 1.8899159663865548]
    depths = halving_depths(monkeypatch)
    got = assert_lockstep_equals_traces([config], [0, 0], kappas, seeds)
    assert min(depths) == 0
    assert isinstance(got[0], ConvergenceError)
    assert isinstance(got[1], list)


def lockstep_fallbacks(monkeypatch):
    """Record (kappa, config) of every _halved call _lockstep makes."""
    calls = []
    solo = modes._halved

    def recorded(k_prev, om, vec, k, config, depth):
        if sys._getframe(1).f_code.co_name == "_lockstep":
            calls.append((k, config))
        return solo(k_prev, om, vec, k, config, depth)

    monkeypatch.setattr(modes, "_halved", recorded)
    return calls


def test_lockstep_failed_call_is_retried_per_row(monkeypatch):
    """A batched eigen_branch call of several traces that raises at a later
    kappa is made again for each of its rows on its own stencil: no row
    reaches the halving path, and every trace keeps the bits of
    trace_branch."""
    config = replace(CASE1_SEED, tunable="pendants.0.g")
    configs = [config.with_tunable(g) for g in (0.3, 0.4, 0.5)]
    kappas = np.linspace(0.08, 0.32, 12)
    seeds = [branch_seeds(c, kappas[0], (1.30, 1.46))[0] for c in configs]
    batched = modes.eigen_branch
    failed = []

    def eigen_branch(point, config, anchor=None, *args):
        # an anchor per frequency row: the rows of several traces
        if (np.ndim(point.omega) == 1 and np.ndim(anchor) == 2
                and np.ravel(point.kappa)[0] == kappas[5] and not failed):
            failed.append(np.count_nonzero(~np.isnan(anchor[:, 0])))
            raise ArithmeticError("injected failure of a batched call")
        return batched(point, config, anchor, *args)

    monkeypatch.setattr(modes, "eigen_branch", eigen_branch)
    fallbacks = lockstep_fallbacks(monkeypatch)
    got = assert_lockstep_equals_traces(configs, [0, 1, 2], kappas, seeds)
    assert failed == [3]
    assert fallbacks == []
    assert all(len(trace) == len(kappas) for trace in got)


def test_lockstep_batch_with_a_pendant_pole_row(monkeypatch):
    """One trace starts on its own pendant pole: the batch evaluation raises
    and is made again for each row.  That trace fails as trace_branch does,
    with its own error; the other two, unanchored in their first calls and
    anchored after, stay in the lock step.  No trace reaches the solo path
    at the first kappa."""
    config = replace(CASE1_SEED, tunable="pendants.0.mu")
    configs = [config.with_tunable(mu) for mu in (0.5, 0.6, 0.7)]
    kappas = np.linspace(0.08, 0.32, 12)
    seeds = [1.39, float(np.sqrt(0.6)), 1.39]
    fallbacks = lockstep_fallbacks(monkeypatch)
    got = assert_lockstep_equals_traces(configs, [0, 1, 2], kappas, seeds)
    assert isinstance(got[1], PendantPoleError)
    assert isinstance(got[0], list) and isinstance(got[2], list)
    assert [c for k, c in fallbacks if k == kappas[0]] == []


@pytest.mark.parametrize("kappas, seeds, im_tol, ends", [
    (np.linspace(0.0, 0.2, 6), [0.3, 1.0, 1.5], IM_OMEGA_TOL,
     [ConvergenceError, ConvergenceError, list]),
    (np.linspace(0.0, 0.2, 6), [1.45, 1.5], -1e-4,
     [DispersionSignError, DispersionSignError]),
    (np.linspace(0.2, 0.0, 6), [1.45, 1.5, 1.0], -5e-4,
     [DispersionSignError, DispersionSignError, ConvergenceError]),
], ids=["basin-lost-at-first-kappa", "sign-at-first-kappa",
        "sign-at-a-later-kappa"])
def test_lockstep_stores_errors_halving_cannot_mend(monkeypatch, kappas, seeds,
                                                   im_tol, ends):
    """On case2, a trace whose Newton fails at the first kappa (guesses 0.3
    and 1.0 lie outside every basin), or whose root breaks the dispersion
    sign (forced by a negative IM_OMEGA_TOL), ends with that row's own
    error, the one trace_branch raises, and no solo re-solve."""
    monkeypatch.setattr(modes, "IM_OMEGA_TOL", im_tol)
    fallbacks = lockstep_fallbacks(monkeypatch)
    got = assert_lockstep_equals_traces([CASE2], [0] * len(seeds), kappas, seeds)
    assert [type(trace) for trace in got] == ends
    assert fallbacks == []


def mirror_case(seed):
    """A mirror-symmetric config, kappa range (-0.25, 0.25) and omega window."""
    rng = np.random.default_rng(seed)
    config = random_mirror_config(rng)
    lo = float(rng.uniform(0.3, 1.2))
    return config, (-0.25, 0.25), (lo, lo + float(rng.uniform(0.3, 0.8)))


def test_polisher_stays_in_the_kappa_range():
    """The flattest sample of this draw is at kappa = -0.25, the edge of the
    range, with Im omega = -1.6e-3.  The polisher's steps away from the range
    are clipped, so it stops at the edge and no mode is found; unclipped, it
    stepped out until its omega Newton diverged (ConvergenceError)."""
    config, kappa_range, window = mirror_case(9)
    assert find_real_mode(config, kappa_range, window, DENSE_KAPPAS) is None


# a mode the dense search misses: its trace stops outside the Newton basin
MISSED_DENSE = (
    mirror_pairs(4, (3, 2, -1.4672864296867942), (0, 1, -2.152702967554777)),
    (-0.25, 0.25), (0.40223130319092726, 1.0224618611368166))
# two real points at kappa = 0
TWO_MODES = (
    mirror_pairs(4, (3, 2, -2.4600604225847893), (1, -2, -1.4344536812972144)),
    (-0.25, 0.25), (0.8879897357298199, 1.5552513647968988))


@example(MISSED_DENSE)
@example(TWO_MODES)
@examples(12)
@given(SEEDS.map(mirror_case))
def test_default_search_keeps_the_dense_modes(case):
    """The default search finds a mode wherever the DENSE_KAPPAS search does.

    Every mode it returns passes verify_mode.  Where the two find the same
    mode (within 1e-6) and none of the dense search's traced branches is real
    at every kappa (then any kappa is a real point), they agree within 1e-12.
    A window may hold several modes, and the SCAN_KAPPAS trace may reach
    another one first.
    """
    config, kappa_range, window = case
    traces = []
    lockstep = modes._lockstep

    def recorded(*args):
        got = lockstep(*args)
        traces.extend(got)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modes, "_lockstep", recorded)
        dense = outcome(find_real_mode, config, kappa_range, window,
                        DENSE_KAPPAS)
    found = outcome(find_real_mode, config, kappa_range, window)
    if isinstance(found, GuidedMode):
        assert verify_mode(found, config)["passed"]
    if not isinstance(dense, GuidedMode):
        return
    assert isinstance(found, GuidedMode)
    if any(isinstance(t, list) and all(abs(s.omega.imag) < IM_OMEGA_TOL
                                       for s in t) for t in traces):
        return
    moved = max(abs(found.kappa0 - dense.kappa0),
                abs(found.omega0 - dense.omega0))
    assert moved < 1e-12 or moved > 1e-6


@pytest.mark.parametrize("config, window, omega0", [
    (mirror_pairs(4, (1, 1, -1.0377615750712645), (0, -2, -1.41985814704811)),
     (1.111021501259668, 1.8001388781584604), 1.3333814677158717),
    (mirror_pairs(4, (1, 1, -1.1856866157287327), (3, 2, -2.0355072327364745)),
     (0.4080299012112423, 1.0018676599973677), 1.2147983524351373),
    (mirror_pairs(4, (0, 2, -1.9743074402563152), (0, 0, -1.5694377706289342)),
     (1.16043946583717, 1.6118744353400665), None),
])
def test_default_search_falls_back_to_the_dense_scan(config, window, omega0):
    """Where the SCAN_KAPPAS search gives no mode or fails, the DENSE_KAPPAS
    search answers (``mirror_case`` seeds 89, 307 and 194).

    In the first two the coarse trace jumps past the mode at (0, omega0); in
    the third the polisher steps off the kappa range from an edge sample,
    and the dense search finds no mode but fails to trace all three of its
    branches, so it answers with ConvergenceError.
    """
    coarse = outcome(find_real_mode, config, (-0.25, 0.25), window,
                     SCAN_KAPPAS)
    assert coarse is None or coarse[0] is ConvergenceError
    if omega0 is None:
        assert coarse is not None
        with pytest.raises(ConvergenceError,
                           match=r"^no mode found, but 3 branch trace\(s\) failed: "
                                 r"seed omega=1\.44116.*outside basin"):
            find_real_mode(config, (-0.25, 0.25), window)
    else:
        mode = find_real_mode(config, (-0.25, 0.25), window)
        assert mode.kappa0 == 0.0 and abs(mode.omega0 - omega0) < 1e-12


def chained_roots(config, kappas, seed):
    """A branch traced as one ``_root_with_halving`` per kappa, each from the
    previous sample, so every Newton step evaluates its whole stencil.
    Returns the samples and the (class, message) of the error that stopped
    the chain, or None."""
    out, om, vec, k_prev = [], complex(seed), None, None
    for k in kappas:
        try:
            samp = modes._root_with_halving(k_prev, om, vec, k, config)
        except (ArithmeticError, SlabError) as exc:
            return out, (type(exc), str(exc))
        out.append(samp)
        om, vec, k_prev = samp.omega, samp.vector, k
    return out, None


def assert_trace_equals_chain(config, kappas, seed):
    """trace_branch gives the chain's samples, or raises the chain's error;
    then its trace of the kappas before that error gives the chain's
    samples."""
    want, error = chained_roots(config, kappas, seed)
    got = outcome(trace_branch, config, kappas, seed)
    if error is not None:
        assert got == error
        got = trace_branch(config, kappas[:len(want)], seed) if want else []
    assert_same_samples(got, want)


@contextlib.contextmanager
def branch_calls():
    """A list that gains, per eigen_branch call of ``modes`` inside the
    block, its kind and the class of the error it raised (or None).  A call
    with a kappa per row is a "lookahead"; one of two rows that share the
    anchor is the "completion" of a missed step."""
    calls = []
    branch = modes.eigen_branch

    def recorded(point, *args):
        kind = ("lookahead" if np.ndim(point.kappa) else
                "completion" if np.shape(point.omega) == (2, 1) else "plain")
        try:
            result = branch(point, *args)
        except (ArithmeticError, SlabError) as exc:
            calls.append((kind, type(exc)))
            raise
        calls.append((kind, None))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modes, "eigen_branch", recorded)
        yield calls


def trace_case(seed):
    """A random lossless (odd seed) or mirror (even seed) config, a path of
    3 to 39 kappa points, and up to three branch seeds at its first kappa."""
    rng = np.random.default_rng(seed)
    config = random_lossless_config(rng) if seed % 2 else random_mirror_config(rng)
    k0 = float(rng.uniform(-0.4, 0.3))
    n = int(rng.integers(3, 40))
    kappas = np.linspace(k0, k0 + float(rng.uniform(0.05, 0.5)), n)
    window = (float(rng.uniform(0.2, 1.2)), float(rng.uniform(1.5, 2.8)))
    try:
        seeds = branch_seeds(config, kappas[0], window)[:3]
    except SlabError:
        seeds = []
    return config, kappas, seeds


@examples(40)
@given(SEEDS)
def test_trace_equals_chained_roots(seed):
    """Two evaluations per kappa give the samples (omega, residual, vector)
    and the errors of three, on random lossless and mirror configs."""
    config, kappas, seeds = trace_case(seed)
    for omega_seed in seeds:
        assert_trace_equals_chain(config, kappas, omega_seed)


def test_trace_next_kappa_collides():
    """On trace_case(379) the rows of a lookahead collide at the next kappa.
    The lookahead is dropped, and that kappa meets the collision in its own
    first call, as the chain does."""
    config, kappas, seeds = trace_case(379)
    with branch_calls() as calls:
        trace_branch(config, kappas, seeds[0])
    assert ("lookahead", BranchCollisionError) in calls
    assert_trace_equals_chain(config, kappas, seeds[0])


def test_trace_with_repeated_kappas():
    """A path that repeats a kappa (as a range LO:LO gives): no lookahead is
    taken to the same kappa, and the samples are the chain's."""
    kappas = np.array([0.1, 0.1, 0.1, 0.12, 0.12])
    seed = branch_seeds(CASE2, kappas[0], (1.3, 1.7))[0]
    assert_trace_equals_chain(CASE2, kappas, seed)


@pytest.mark.parametrize("config, kappa_range, window", [
    (CASE2, (-0.25, 0.25), (1.3, 1.7)),
    (CASE1_SEED, (0.08, 0.32), (1.30, 1.46)),
], ids=["case2", "case1-seed"])
def test_trace_with_forced_misses(config, kappa_range, window):
    """Eigenvalues scaled by 2**14 leave every Newton step as it was (the
    scale is exact and cancels in the step) but make the convergence test
    2**14 times stricter, so many steps expected to converge miss and are
    completed by their +-h rows."""
    kappas = np.linspace(*kappa_range, 40)
    seed = branch_seeds(config, kappas[0], window)[0]
    branch = modes.eigen_branch

    def scaled(point, *args):
        ell, vec = branch(point, *args)
        return ell * 2.0**14, vec

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modes, "eigen_branch", scaled)
        with branch_calls() as calls:
            trace_branch(config, kappas, seed)
        assert calls.count(("completion", None)) >= 10
        assert_trace_equals_chain(config, kappas, seed)


def test_trace_next_kappa_at_a_wood_point():
    """A kappa made a Wood point (its order arrays raise WoodAnomalyError)
    fails the lookahead taken at the kappa before it; that kappa's sample is
    kept, and the trace raises the chain's error at the Wood point."""
    kappas = np.linspace(-0.25, 0.25, 20)
    seed = branch_seeds(CASE2, kappas[0], (1.3, 1.7))[0]
    order_arrays = lattice.order_arrays

    def wood(kappa, omega, period):
        if np.any(np.asarray(kappa) == kappas[7]):
            raise WoodAnomalyError("sin(eta_p) vanishes: order at a branch point")
        return order_arrays(kappa, omega, period)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "order_arrays", wood)
        with branch_calls() as calls:
            with pytest.raises(WoodAnomalyError):
                trace_branch(CASE2, kappas, seed)
        assert ("lookahead", WoodAnomalyError) in calls
        assert_trace_equals_chain(CASE2, kappas, seed)


@contextlib.contextmanager
def lockstep_calls():
    """A list that gains, per eigen_branch call of ``modes`` inside the
    block: the shape of its frequencies, its number of traces, its kappas
    and the class of the error it raised (or None).  With a 2-D anchor for
    a 1-D array of frequencies, each row with an anchor starts a trace."""
    calls = []
    branch = modes.eigen_branch

    def recorded(point, config, anchor=None, *args):
        shape = np.shape(point.omega)
        traces = (shape[0] if len(shape) == 2 else
                  np.count_nonzero(~np.isnan(anchor[:, 0])) if np.ndim(anchor) == 2
                  else 1)
        entry = [shape, traces, set(np.ravel(point.kappa).tolist()), None]
        calls.append(entry)
        try:
            return branch(point, config, anchor, *args)
        except (ArithmeticError, SlabError) as exc:
            entry[3] = type(exc)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modes, "eigen_branch", recorded)
        yield calls


def scan_case(n_kappa):
    """Three values of CASE1_SEED's pendant g and the first seed of each."""
    config = replace(CASE1_SEED, tunable="pendants.0.g")
    configs = [config.with_tunable(g) for g in (0.3, 0.4, 0.5)]
    kappas = np.linspace(0.08, 0.32, n_kappa)
    return configs, kappas, [branch_seeds(c, kappas[0], (1.30, 1.46))[0]
                             for c in configs]


def test_lockstep_with_forced_misses():
    """The 2**14 eigenvalue scaling of ``test_trace_with_forced_misses`` on
    three lock-step traces: steps expected to converge miss, the missed rows
    of a step share their +-h call, and every trace keeps its solo bits."""
    configs, kappas, seeds = scan_case(40)
    branch = modes.eigen_branch

    def scaled(point, *args):
        ell, vec = branch(point, *args)
        return ell * 2.0**14, vec

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modes, "eigen_branch", scaled)
        with lockstep_calls() as calls:
            assert_lockstep_equals_traces(configs, [0, 1, 2], kappas, seeds)
    completions = [shape[0] // 2 for shape, *_ in calls
                   if len(shape) == 2 and shape[1] == 1]
    assert max(completions) == 3
    assert completions.count(1) >= 10


def test_lockstep_shared_completion_raises(monkeypatch):
    """The forced misses of ``test_lockstep_with_forced_misses``, and a Wood
    anomaly injected at the first missed row's omega + h in the first +-h
    call of three missed rows past the first kappa.  That shared call
    raises, so the step is made again row by row from the vectors it
    started with; the first row's own +-h call raises, its Newton fails
    without a slope and it halves.  Every trace keeps its solo bits, which
    the same (kappa, omega) fails alike."""
    configs, kappas, seeds = scan_case(40)
    branch = modes.eigen_branch
    held, wood = [], []

    def scaled(point, *args):
        omega = np.asarray(point.omega)
        if omega.shape == (6, 1) and point.kappa != kappas[0]:
            held.append((point.kappa, omega[0, 0]))
        if wood and np.any((point.kappa == wood[0][0]) & (omega == wood[0][1])):
            raise WoodAnomalyError("injected: a frequency of a +-h call")
        ell, vec = branch(point, *args)
        return ell * 2.0**14, vec

    monkeypatch.setattr(modes, "eigen_branch", scaled)
    modes._lockstep(configs, [0, 1, 2], kappas, seeds)
    wood.append(held[0])
    fallbacks = lockstep_fallbacks(monkeypatch)
    with lockstep_calls() as calls:
        assert_lockstep_equals_traces(configs, [0, 1, 2], kappas, seeds)
    completions = [(shape[0] // 2, error) for shape, *_, error in calls
                   if len(shape) == 2 and shape[1] == 1]
    shared = completions.index((3, WoodAnomalyError))
    assert completions[shared + 1] == (1, WoodAnomalyError)
    assert [k for k, _ in fallbacks] == [wood[0][0]] * 2  # lock step, then solo


def test_lockstep_next_kappa_collides():
    """On trace_case(379) the rows of the first seed's lookahead collide at
    the next kappa.  Traced twice in lock step, with the second seed too,
    the two copies share that lookahead's call; it is made again row by
    row, each copy drops its lookahead, and every trace keeps its solo
    bits."""
    config, kappas, seeds = trace_case(379)
    with lockstep_calls() as calls:
        assert_lockstep_equals_traces([config], [0, 0, 0], kappas,
                                      [seeds[0], seeds[0], seeds[1]])
    assert any(traces == 2 and len(ks) == 2 and error is BranchCollisionError
               for _, traces, ks, error in calls)


def test_lockstep_with_repeated_kappas():
    """A path that repeats kappas, traced in lock step from both CASE2
    seeds: the only lookaheads go from 0.12 to 0.14, the converging step at
    the first 0.14 evaluates omega alone for both traces, and each trace
    keeps its solo bits."""
    kappas = np.array([0.1, 0.1, 0.12, 0.14, 0.14, 0.16])
    seeds = branch_seeds(CASE2, kappas[0], (1.3, 1.7))
    with lockstep_calls() as calls:
        assert_lockstep_equals_traces([CASE2], [0, 0], kappas, seeds)
    looks = [traces for _, traces, ks, _ in calls if len(ks) > 1]
    assert 2 in looks
    assert all(ks == {0.12, 0.14} for _, _, ks, _ in calls if len(ks) > 1)
    assert [(2,), 2, {0.14}, None] in calls


@pytest.mark.parametrize("n_traces, layout", [(1, [(3,), 1]), (2, [(2, 3), 2])],
                         ids=["lone", "several"])
def test_lockstep_first_step_layout(n_traces, layout):
    """Without an anchor, a lone trace's first Newton step is a one-trace
    call of its three frequencies, and that of several traces is one 2-D
    call, a trace per row; every trace keeps its solo bits."""
    kappas = np.linspace(0.1, 0.14, 3)
    seeds = branch_seeds(CASE2, kappas[0], (1.3, 1.7))[:n_traces]
    with lockstep_calls() as calls:
        assert_lockstep_equals_traces([CASE2], [0] * n_traces, kappas, seeds)
    assert calls[0][:2] == layout


def test_lockstep_one_lookahead_raises():
    """The lookahead of the g = 0.4 trace into kappas[6] raises (an injected
    Wood anomaly); those of the other two do not.  Their shared call is made
    again row by row: the g = 0.4 row drops its lookahead, and the other two
    take theirs, so kappas[6]'s first call holds the g = 0.4 row alone.
    Every trace keeps its solo bits."""
    configs, kappas, seeds = scan_case(12)
    branch = modes.eigen_branch

    def eigen_branch(point, config, anchor=None, tunable_values=None):
        kappa = np.broadcast_to(point.kappa, np.shape(point.omega))
        value = config.tunable_value if tunable_values is None else tunable_values
        ahead = (kappa == kappas[6]) & (kappa != kappa.flat[0])
        if np.any(ahead & (np.reshape(value, (-1,) + (1,) * (kappa.ndim - 1)) == 0.4)):
            raise WoodAnomalyError("injected: a lookahead into kappas[6]")
        return branch(point, config, anchor, tunable_values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modes, "eigen_branch", eigen_branch)
        got = modes._lockstep(configs, [0, 1, 2], kappas, seeds)
        with lockstep_calls() as calls:
            assert_lockstep_equals_traces(configs, [0, 1, 2], kappas, seeds)
    assert all(isinstance(trace, list) and len(trace) == 12 for trace in got)
    failed = [traces for _, traces, ks, error in calls
              if error is WoodAnomalyError]
    assert 3 in failed and 1 in failed
    first = next(entry for entry in calls if entry[2] == {kappas[6]})
    assert first[:2] == [(3,), 1]
