"""Complex dispersion tracing, real-point location, and structure tuning.

A guided mode is a real (kappa0, omega0) root of the tracked eigenvalue.  For
real kappa the complex root omega(kappa) always has Im omega <= 0; a real
point is where the branch touches the real axis, which happens exactly when
the null field has no propagating (order-0) component.  The polisher below
exploits that: it drives the order-0 amplitude of the null field to zero
instead of chasing the quadratically flat maximum of Im omega.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchCollisionError,
    ConvergenceError,
    DispersionSignError,
    SlabError,
)
from .lattice import (
    LatticeConfig,
    SpectralPoint,
    effective_potential,
    interaction_matrix,
    order_arrays,
)
from .scattering import eigen_branch, order_amplitude

IM_OMEGA_TOL = 1e-9
ROOT_TOL = 1e-10
ROOT_MAX_ITER = 50
NEWTON_REACH = 10.0  # in (1 + |guess|); a row this far away (or NaN) diverged
RADIATING_TOL = 1e-8
# real-omega grid points on which branch_seeds looks for minima
SEED_GRID = 120
POLISH_MAX_ITER = 40
# kappa points traced before polishing (the polished point moves ~3e-14 with
# them); a coarse trace can jump past a mode, see find_real_mode
SCAN_KAPPAS = 15
DENSE_KAPPAS = 200
# tune_structure: parameter values scanned
TUNE_SCAN = 13
# decay_profile's rows, counted above the topmost defect
DECAY_ROWS = range(5, 21)


@dataclass(frozen=True)
class DispersionSample:
    """One traced point: omega root of the eigenvalue at fixed kappa."""

    kappa: float
    omega: complex
    residual: float
    vector: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class GuidedMode:
    """A verified real point of the dispersion relation."""

    kappa0: float
    omega0: float
    nullvector: np.ndarray = field(repr=False, default=None)
    radiating_component: float = np.nan
    residual: float = np.nan


def _omega_newton(f, kappa, guesses, tol, max_iter):
    """Newton-solve f(kappa, omega) = 0 in complex omega at fixed kappa.

    ``guesses`` are independent rows, solved together.  Each step is one
    call ``f(kappa, stencils, rows)`` on the [omega, omega + h, omega - h]
    stencils, h = 1e-6 * (1 + |omega|), of the rows still iterating, for a
    central difference; ``rows`` indexes them in ``guesses``, and f returns
    one value per frequency.  A row leaves when it converges or fails: a
    second iterate with larger |f| (a guess outside the basin) or more than
    NEWTON_REACH (1 + |guess|) from its guess fails with ConvergenceError.
    Every row ends as it would solved alone: the step arithmetic is per row,
    in scalars, and a call that raises is made again row by row
    (``_row_alone``).  Returns (roots, |f| at the roots, errors),
    ``errors[i]`` being the exception that stopped row i, or None.
    """
    om = list(map(complex, guesses))
    size, first = [np.nan] * len(om), [np.nan] * len(om)
    errors = [None] * len(om)
    live = list(range(len(om)))
    for it in range(max_iter):
        if not live:
            break
        hs, stencils = [], []
        for r in live:
            w = om[r]
            h = 1e-6 * (1.0 + abs(w))
            hs.append(h)
            stencils += (w, w + h, w - h)
        stencils = np.array(stencils).reshape(len(live), 3)
        try:
            vals = f(kappa, stencils, live)
        except (ArithmeticError, SlabError):
            vals = [_row_alone(f, kappa, stencils[n:n + 1], r, it, len(live) > 1)
                    for n, r in enumerate(live)]
        still = []
        for r, h, row in zip(live, hs, vals):
            if isinstance(row, Exception):
                errors[r] = row
                continue
            val, fp, fm = row
            size[r] = current = abs(val)
            if current < tol:
                continue
            if it == 0:
                first[r] = current
            elif it == 1 and current > first[r]:
                errors[r] = ConvergenceError(
                    f"omega Newton guess {guesses[r]} outside basin "
                    f"(|f| {first[r]:.2e} -> {current:.2e})"
                )
                continue
            if fp is None:
                errors[r] = ConvergenceError(
                    f"omega Newton derivative stencil left the valid domain "
                    f"at omega={om[r]}"
                )
                continue
            deriv = (fp - fm) / (2.0 * h)
            if deriv == 0:
                errors[r] = ConvergenceError("omega Newton: vanishing derivative")
                continue
            om[r] = om[r] - val / deriv
            if not abs(om[r] - guesses[r]) <= NEWTON_REACH * (1 + abs(guesses[r])):
                errors[r] = ConvergenceError(f"omega Newton diverged from {guesses[r]}")
                continue
            still.append(r)
        live = still
    for r in live:
        errors[r] = ConvergenceError(
            f"omega Newton did not converge in {max_iter} iterations "
            f"(kappa={kappa}, last |f|={size[r]:.2e})"
        )
    return om, size, errors


def _row_alone(f, kappa, stencil, r, it, shared):
    """Row r's stencil values at Newton step ``it`` after its call raised:
    its own stencil's if the call was ``shared`` with other rows, else those
    of omega alone (a width-1 stencil) with no slope (None).  If omega raises
    too, the error that ends the row: an invalid guess's own, or later
    ConvergenceError, as the iterate left the valid domain."""
    if shared:
        with contextlib.suppress(ArithmeticError, SlabError):
            return f(kappa, stencil, [r])[0]
    try:
        return f(kappa, stencil[:, :1], [r])[0][0], None, None
    except (ArithmeticError, SlabError) as exc:
        return exc if it == 0 else ConvergenceError(
            f"omega Newton left the valid domain at omega={stencil[0, 0]}")


def omega_root(kappa, omega_guess, config: LatticeConfig,
               anchor: np.ndarray | None = None, tol: float = ROOT_TOL,
               max_iter: int = ROOT_MAX_ITER) -> DispersionSample:
    """Newton-solve the tracked eigenvalue to zero in omega at fixed kappa.

    ``_omega_newton`` on ``eigen_branch`` with one row: the stencil rows are
    tracked from the eigenvector at omega, which anchors the next step.  For
    real kappa the root must satisfy Im omega <= 1e-9; a violation is a
    branch or model error and raises.
    """
    vec = anchor

    def branch(k, oms, rows):
        nonlocal vec
        ell, vec = eigen_branch(SpectralPoint(k, oms[0]), config, vec)
        return (ell,)

    (om,), (residual,), (error,) = _omega_newton(branch, kappa, [omega_guess],
                                                 tol, max_iter)
    if error is not None:
        raise error
    sign = _sign_error(kappa, om)
    if sign is not None:
        raise sign
    return DispersionSample(kappa, om, residual, vec)


def _sign_error(kappa, om):
    """The DispersionSignError of a root omega with Im omega > IM_OMEGA_TOL
    at real kappa, or None."""
    if om.imag > IM_OMEGA_TOL and np.imag(np.asarray(kappa)) == 0:
        return DispersionSignError(
            f"Im omega = {om.imag:.3e} > 0 at real kappa={kappa}"
        )
    return None


def _root_with_halving(k_prev, om, vec, k, config, depth=6):
    """omega_root at k, inserting midpoints when the warm start fails.

    Collisions and basin losses along a coarse path are resolved by halving
    the continuation step, which reconstructs the globally simple branch.
    """
    try:
        return omega_root(k, om, config, vec)
    except (ConvergenceError, BranchCollisionError):
        if depth == 0 or k_prev is None:
            raise
    k_mid = 0.5 * (k_prev + k)
    mid = _root_with_halving(k_prev, om, vec, k_mid, config, depth - 1)
    return _root_with_halving(k_mid, mid.omega, mid.vector, k, config,
                              depth - 1)


def trace_branch(config: LatticeConfig, kappas, omega_seed,
                 anchor=None) -> list[DispersionSample]:
    """Trace omega(kappa) along a kappa path with warm starts."""
    out = []
    om = complex(omega_seed)
    vec = anchor
    k_prev = None
    for k in kappas:
        samp = _root_with_halving(k_prev, om, vec, k, config)
        out.append(samp)
        om, vec, k_prev = samp.omega, samp.vector, k
    return out


def _smallest_eig_moduli(config, kappa, oms):
    """min |eig A| at each frequency of ``oms``, one batched A and eigvals.

    Each value has the bits of a single-point evaluation.  If a frequency is
    invalid, the first one in grid order raises its own error.
    """
    try:
        a = interaction_matrix(SpectralPoint(kappa, oms), config)
    except (ArithmeticError, SlabError):
        for om in oms:
            interaction_matrix(SpectralPoint(kappa, om), config)
        raise
    return np.min(np.abs(np.linalg.eigvals(a)), axis=-1)


def branch_seeds(config: LatticeConfig, kappa, omega_window):
    """Candidate omega roots at fixed kappa: minima of the smallest |eig|.

    The local minima below 0.6 of min |eig A| on a SEED_GRID-point omega
    grid, smallest first.  The grid is evaluated as one batch.
    """
    lo, hi = omega_window
    oms = np.linspace(lo, hi, SEED_GRID)
    vals = _smallest_eig_moduli(config, kappa, oms)
    minima = [
        i
        for i in range(1, SEED_GRID - 1)
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < 0.6
    ]
    return [oms[i] for i in sorted(minima, key=lambda i: vals[i])]


def null_order0_amplitudes(kappa, omega, config, vec):
    """Order-0 right/left amplitudes of the (near-)null field ``vec``."""
    weighted = effective_potential(omega, config) * vec
    orders = order_arrays(kappa, omega, config.period)
    right = order_amplitude(orders, config, weighted, 0, +1)
    left = order_amplitude(orders, config, weighted, 0, -1)
    return right, left


def _rho(kappa, om_guess, config, anchor):
    """Root-follow in omega, then the null field's right order-0 amplitude.

    The root is driven well below the default tolerance: leftover omega error
    feeds straight into the amplitude and would poison the polisher's
    finite-difference slopes near the zero.
    """
    samp = omega_root(kappa, om_guess, config, anchor, tol=1e-13, max_iter=80)
    right, _ = null_order0_amplitudes(kappa, samp.omega, config, samp.vector)
    return right, samp


def polish_real_point(config: LatticeConfig, kappa_guess, omega_guess,
                      anchor=None, kappa_range=None):
    """1D Newton in kappa on the null field's radiating amplitude.

    Near a real point the amplitude crosses zero transversally along kappa;
    killing it kills Im omega as well (a non-radiating homogeneous solution
    at real parameters cannot decay in time).  Each kappa step is clipped to
    ``kappa_range`` (LO, HI) when given, and the search stops when a step
    cannot move.  Returns (kappa0, sample).
    """
    lo, hi = sorted(kappa_range or (-np.inf, np.inf))
    k = float(kappa_guess)
    om = complex(omega_guess)
    vec = anchor
    r1, s1 = _rho(k, om, config, vec)
    r2, _ = _rho(k + 1e-4, s1.omega, config, s1.vector)
    direction = r2 - r1
    if abs(direction) < 1e-15:
        direction = 1.0 + 0j
    direction /= abs(direction)
    om, vec = s1.omega, s1.vector
    best = None
    for _ in range(POLISH_MAX_ITER):
        right, samp = _rho(k, om, config, vec)
        om, vec = samp.omega, samp.vector
        u = (right * np.conj(direction)).real
        if best is None or abs(u) < best[0]:
            best = (abs(u), k, samp)
        if abs(u) < 1e-15:
            break
        h = 1e-7 * (1.0 + abs(k))
        rp, _ = _rho(k + h, om, config, vec)
        rm, _ = _rho(k - h, om, config, vec)
        du = ((rp - rm) * np.conj(direction)).real / (2.0 * h)
        if abs(du) < 1e-13:
            break
        step = float(np.clip(u / du, -0.05, 0.05))
        k, k_prev = min(max(k - step, lo), hi), k
        if k == k_prev or abs(step) < 1e-13 * (1.0 + abs(k)):
            break
    _, k, _ = best
    _, samp = _rho(k, om, config, vec)
    if abs(k) < 1e-12:
        k = 0.0  # sub-noise offset from a symmetry-pinned point
        samp = omega_root(0.0, samp.omega, config, samp.vector)
    return k, samp


def _mode_from_sample(kappa0, samp, config) -> GuidedMode:
    right, left = null_order0_amplitudes(kappa0, samp.omega.real, config,
                                         samp.vector)
    ell, vec = eigen_branch(SpectralPoint(kappa0, samp.omega.real), config,
                            samp.vector)
    return GuidedMode(
        kappa0=float(kappa0),
        omega0=float(samp.omega.real),
        nullvector=vec,
        radiating_component=float(max(abs(right), abs(left))),
        residual=float(abs(ell)),
    )


def find_real_mode(config: LatticeConfig, kappa_range, omega_window,
                   n_kappa: int | None = None) -> GuidedMode | None:
    """Scan a kappa grid, trace omega(kappa), return the real point if any.

    The branch is traced from seeds found at the first kappa; the grid
    minimizer of |Im omega| is refined by the radiating-amplitude polisher,
    which stays in ``kappa_range``.  Returns None when no point reaches
    |Im omega| < 1e-9 and every branch was traced.  A branch whose trace
    failed may hold the mode, so then ConvergenceError is raised, naming
    each failed seed omega and its error; a polisher failure propagates.
    The grid has ``n_kappa`` points.  By default it has SCAN_KAPPAS, and
    when those give no mode or raise, the DENSE_KAPPAS search answers: a
    coarse trace can jump to a neighbouring root past a mode.
    """
    if n_kappa is None:
        try:
            mode = find_real_mode(config, kappa_range, omega_window, SCAN_KAPPAS)
        except (ArithmeticError, SlabError):
            mode = None
        return mode or find_real_mode(config, kappa_range, omega_window,
                                      DENSE_KAPPAS)
    mode, failed = _grid_mode(config, kappa_range, omega_window, n_kappa)
    if mode is None and failed:
        raise ConvergenceError(
            f"no mode found, but {len(failed)} branch trace(s) failed: "
            + "; ".join(f"seed omega={seed}: {exc}" for seed, exc in failed))
    return mode


def _grid_mode(config, kappa_range, omega_window, n_kappa):
    """(mode polished from an n_kappa-point trace or None, failed traces)."""
    kappas = np.linspace(kappa_range[0], kappa_range[1], n_kappa)
    [(_, samp)], [failed] = _flattest_sample([config], kappas, omega_window)
    return samp and polish_mode(config, samp.kappa, samp.omega, samp.vector,
                                kappa_range), failed


def polish_mode(config: LatticeConfig, kappa_guess, omega_guess,
                anchor, kappa_range=None) -> GuidedMode | None:
    """Polish a guess into a real point; the mode there, or None if none.

    The polisher stays in ``kappa_range`` when given.  None when the polished
    point keeps |Im omega| > 1e-9 or its null field radiates more than 1e-8;
    a polisher failure propagates.
    """
    kappa0, samp = polish_real_point(config, kappa_guess, omega_guess, anchor,
                                     kappa_range)
    if abs(samp.omega.imag) > IM_OMEGA_TOL:
        return None
    mode = _mode_from_sample(kappa0, samp, config)
    if mode.radiating_component > RADIATING_TOL:
        return None
    return mode


def _flattest_sample(configs, kappas, omega_window, max_seeds=None):
    """(min |Im omega|, its sample) per config, over its traced branches,
    and per config the (seed omega, error) of each branch that failed.

    The configs differ at most in the value of their tunable parameter.  Each
    config's branches start from its first ``max_seeds`` ``branch_seeds`` at
    kappas[0], and all of them are traced together by ``_lockstep``, each
    with the bits of ``trace_branch`` on its config and seed.  A branch that
    raises ConvergenceError or DispersionSignError is left out of the
    minimum and listed as failed; a config with no traced branch gets
    (inf, None).  Any other error propagates: the first one in config and
    seed order, as if the branches were traced one after another.
    """
    seeds, stop = [], None
    for config in configs:
        try:
            seeds.append(branch_seeds(config, kappas[0], omega_window)[:max_seeds])
        except (ArithmeticError, SlabError) as exc:
            stop = exc
            break
    owners = [c for c, found in enumerate(seeds) for _ in found]
    flat = [seed for found in seeds for seed in found]
    traces = _lockstep(configs, owners, kappas, flat)
    best = [(np.inf, None)] * len(configs)
    failed = [[] for _ in configs]
    for c, seed, samples in zip(owners, flat, traces):
        if isinstance(samples, (ConvergenceError, DispersionSignError)):
            failed[c].append((seed, samples))
            continue
        if isinstance(samples, Exception):
            raise samples
        ims = [abs(s.omega.imag) for s in samples]
        i = int(np.argmin(ims))
        if ims[i] < best[c][0]:
            best[c] = (ims[i], samples[i])
    if stop is not None:
        raise stop
    return best, failed


def _lockstep(configs, owners, kappas, seeds):
    """``trace_branch(configs[owners[t]], kappas, seeds[t])`` for every t.

    All traces advance together, one kappa at a time: the ``_omega_newton``
    rows of a step are every live trace, evaluated by one ``eigen_branch``
    call per Newton step with the tunable parameter as a row axis.  Each row
    ends as it would solved alone; a row whose Newton fails re-runs that
    kappa with ``_root_with_halving`` from the same warm start, as
    ``trace_branch`` does, so every trace keeps its solo bits.  Where
    ``_root_with_halving`` would only raise again (at the first kappa, or an
    error it does not halve on), the row's own error, or the
    DispersionSignError of its root, stops the trace.  Returns, per
    trace, its samples or the error that stopped it.  A lone trace gains
    nothing from the lock step, so it is traced by ``trace_branch`` itself,
    which costs less per step.
    """
    if len(seeds) == 1:
        try:
            return [trace_branch(configs[owners[0]], kappas, seeds[0])]
        except (ArithmeticError, SlabError) as exc:
            return [exc]
    base = configs[0]
    values = None
    if len(configs) > 1:
        values = np.array([configs[c].tunable_value for c in owners])
    out = [[] for _ in seeds]
    # each live trace's warm start: omega and, after the first kappa, the
    # eigenvector
    om = np.array(seeds, dtype=complex)
    vecs = np.zeros((len(seeds), len(base.defects)), dtype=complex)
    # a trace is anchored once a call has returned its vector; the rows of
    # one call are all anchored or all not
    anchored = np.zeros(len(seeds), dtype=bool)

    def branch(kappa, oms, rows):
        t = live[rows]
        anchors = newton_vecs[t] if anchored[t[0]] else None
        ell, newton_vecs[t] = eigen_branch(
            SpectralPoint(kappa, oms), base, anchors,
            None if values is None else values[t])
        anchored[t] = True
        return ell

    live = np.arange(len(seeds))
    k_prev = None
    for k in kappas:
        if not len(live):
            break
        newton_vecs = vecs.copy()
        roots, residuals, errors = _omega_newton(branch, k, om[live], ROOT_TOL,
                                                 ROOT_MAX_ITER)
        still = []
        for n, t in enumerate(live):
            error = errors[n] or _sign_error(k, roots[n])
            if error is None:
                samp = DispersionSample(k, roots[n], residuals[n],
                                        newton_vecs[t].copy())
            elif k_prev is None or not isinstance(
                    error, (ConvergenceError, BranchCollisionError)):
                out[t] = error  # what omega_root raises; halving cannot help
                continue
            else:
                try:
                    samp = _root_with_halving(k_prev, om[t], vecs[t], k,
                                              configs[owners[t]])
                except (ArithmeticError, SlabError) as exc:
                    out[t] = exc
                    continue
            out[t].append(samp)
            om[t], vecs[t], anchored[t] = samp.omega, samp.vector, True
            still.append(t)
        live = np.array(still, dtype=int)
        k_prev = k
    return out


def tune_structure(config: LatticeConfig, kappa_target_range,
                   omega_window, param_range=None):
    """Drive the tunable parameter until a real point appears.

    Two stages.  Stage 1 scans the parameter on TUNE_SCAN points and picks
    the one minimizing s -> min_kappa |Im omega(kappa; s)| (the minimum
    touches zero quadratically, so a sign-based bisection does not apply).
    One ``_flattest_sample`` call traces the first three branches of every
    scan value in lock step on SCAN_KAPPAS points: each Newton step of all
    of them is one ``eigen_branch`` call, with the parameter as a row axis,
    and each trace keeps the bits it has when traced alone.
    Stage 2 starts from that scan point and runs a 2D Gauss-Newton on the
    null field's complex order-0 amplitude over (kappa, s), which converges
    to machine precision.  The result is polished by ``polish_mode``; a
    point it does not accept raises ConvergenceError, and a config without
    a tunable parameter raises ConfigError.  Returns (tuned_config,
    GuidedMode).
    """
    s0 = config.tunable_value
    if param_range is None:
        span = 0.5 * (1.0 + abs(s0))
        param_range = (s0 - span, s0 + span)

    kappas = np.linspace(kappa_target_range[0], kappa_target_range[1], SCAN_KAPPAS)

    # a mode at the current parameter makes tuning a no-op; a failed trace retunes
    existing, _ = _grid_mode(config, kappa_target_range, omega_window, SCAN_KAPPAS)
    if existing is not None:
        return config, existing

    # stage 1: coarse scan of the parameter
    svals = np.linspace(param_range[0], param_range[1], TUNE_SCAN)
    scan, _ = _flattest_sample([config.with_tunable(s) for s in svals], kappas,
                               omega_window, 3)
    i = int(np.argmin([f for f, _ in scan]))
    f_min, samp0 = scan[i]
    if not np.isfinite(f_min) or samp0 is None:
        raise ConvergenceError("tuner: no traceable branch in the scan interval")

    # stage 2: Gauss-Newton on (Re rho, Im rho)(kappa, s) from the scan minimum
    k, s = float(samp0.kappa), float(svals[i])
    om, vec = samp0.omega, samp0.vector

    converged = False
    for _ in range(40):
        tuned = config.with_tunable(s)
        r0, samp = _rho(k, om, tuned, vec)
        om, vec = samp.omega, samp.vector
        if abs(r0) < 5e-14:
            converged = True
            break
        hk = 1e-7 * (1.0 + abs(k))
        hs = 1e-7 * (1.0 + abs(s))
        rk1, _ = _rho(k + hk, om, tuned, vec)
        rk2, _ = _rho(k - hk, om, tuned, vec)
        rs1, _ = _rho(k, om, config.with_tunable(s + hs), vec)
        rs2, _ = _rho(k, om, config.with_tunable(s - hs), vec)
        drdk = (rk1 - rk2) / (2 * hk)
        drds = (rs1 - rs2) / (2 * hs)
        jac = np.array([[drdk.real, drds.real], [drdk.imag, drds.imag]])
        rhs = np.array([r0.real, r0.imag])
        step, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        cap = min(1.0, 0.05 / max(np.max(np.abs(step)), 1e-30))
        k -= cap * step[0]
        s -= cap * step[1]
    if not converged:
        raise ConvergenceError(
            f"tuner Gauss-Newton stalled at |rho| = {abs(r0):.2e}"
        )

    mode = polish_mode(tuned, k, om, vec)
    if mode is None:
        raise ConvergenceError(
            "tuner: polished point keeps Im omega or a radiating null field"
        )
    return tuned, mode


def decay_profile(mode: GuidedMode, config: LatticeConfig):
    """Null-field amplitude per row n and the slowest active decay rate.

    The rows n sampled, DECAY_ROWS above the topmost defect, see only the
    transmitted-side orders, so the scattered field there is
    sum_p amp_p exp(i kappa_p m + i eta_p n) with amp_p the order amplitudes;
    each row's value is its largest modulus over the cells m of one period.
    """
    orders = order_arrays(mode.kappa0, mode.omega0, config.period)
    kappa_p, eta, _ = orders
    weighted = effective_potential(mode.omega0, config) * mode.nullvector
    # per-order amplitudes of the null field on the transmitted side
    amps = np.array([
        order_amplitude(orders, config, weighted, p, +1)
        for p in range(config.period)
    ])
    rates = eta.imag
    # evanescent orders carrying a nonnegligible share of the null field
    active = (np.abs(amps) > 1e-9 * max(np.max(np.abs(amps)), 1e-300)) & (
        rates > 1e-9
    )
    slow_rate = float(np.min(rates[active])) if np.any(active) else np.nan

    ns = np.array(DECAY_ROWS) + int(np.max(config.zs))
    cells = np.exp(1j * np.outer(kappa_p, np.arange(config.period)))
    field = (np.exp(1j * np.outer(ns, eta)) * amps) @ cells
    return ns, np.abs(field).max(axis=1), slow_rate


def verify_mode(mode: GuidedMode, config: LatticeConfig) -> dict:
    """Re-check the four mode criteria; returns a report dict.

    Checks: |eigenvalue| at the point, Im omega of the re-solved root, the
    radiating order-0 component, and the far-field exponential decay rate
    against the slowest active evanescent order (within 10 percent).
    """
    point = SpectralPoint(mode.kappa0, mode.omega0)
    ell, vec = eigen_branch(point, config, mode.nullvector)
    samp = omega_root(mode.kappa0, mode.omega0, config, vec)
    right, left = null_order0_amplitudes(mode.kappa0, mode.omega0, config, vec)
    ns, vals, slow_rate = decay_profile(mode, config)
    good = vals > 1e-280
    slope = -np.polyfit(ns[good], np.log(vals[good]), 1)[0]
    report = {
        "eig_abs": float(abs(ell)),
        "im_omega": float(abs(samp.omega.imag)),
        "radiating_component": float(max(abs(right), abs(left))),
        "decay_rate": float(slope),
        "decay_rate_expected": slow_rate,
        "checks": {},
    }
    report["checks"]["eig"] = bool(report["eig_abs"] < 1e-10)
    report["checks"]["im_omega"] = bool(report["im_omega"] < IM_OMEGA_TOL)
    report["checks"]["radiating"] = bool(
        report["radiating_component"] < RADIATING_TOL
    )
    report["checks"]["decay"] = bool(
        np.isfinite(slow_rate) and abs(slope - slow_rate) < 0.1 * slow_rate
    )
    report["passed"] = all(report["checks"].values())
    return report
