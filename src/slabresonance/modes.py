"""Complex dispersion tracing, real-point location, and structure tuning.

A guided mode is a real (kappa0, omega0) root of the tracked eigenvalue.  For
real kappa the complex root omega(kappa) always has Im omega <= 0; a real
point is where the branch touches the real axis, which happens exactly when
the null field has no propagating (order-0) component.  The polisher below
exploits that: it drives the order-0 amplitude of the null field to zero
instead of chasing the quadratically flat maximum of Im omega.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchCollisionError,
    ConvergenceError,
    DispersionSignError,
    SlabError,
)
from .lattice import LatticeConfig, SpectralPoint, effective_potential, order_arrays
from .scattering import eigen_branch, order_amplitude

IM_OMEGA_TOL = 1e-9
ROOT_TOL = 1e-10
RADIATING_TOL = 1e-8


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

    def to_dict(self) -> dict:
        return {
            "kappa0": self.kappa0,
            "omega0": self.omega0,
            "radiating_component": self.radiating_component,
            "residual": self.residual,
        }


def omega_root(kappa, omega_guess, config: LatticeConfig,
               anchor: np.ndarray | None = None, tol: float = ROOT_TOL,
               max_iter: int = 50) -> DispersionSample:
    """Newton-solve the tracked eigenvalue to zero in omega at fixed kappa.

    The derivative is taken by central differences with step
    1e-6 * (1 + |omega|).  For real kappa the converged root must satisfy
    Im omega <= 1e-9; a violation is a branch or model error and raises.
    """
    om = complex(omega_guess)
    vec = anchor
    prev_abs = None
    for it in range(max_iter):
        try:
            ell, vec = eigen_branch(SpectralPoint(kappa, om), config, vec)
        except (ArithmeticError, SlabError):
            if it == 0:
                raise  # the guess itself is invalid: report the real cause
            raise ConvergenceError(
                f"omega_root left the valid domain at omega={om}"
            ) from None
        if abs(ell) < tol:
            break
        if it == 1 and prev_abs is not None and abs(ell) > prev_abs:
            raise ConvergenceError(
                f"omega_root guess {omega_guess} outside basin "
                f"(|eig| {prev_abs:.2e} -> {abs(ell):.2e})"
            )
        prev_abs = abs(ell) if prev_abs is None else prev_abs
        h = 1e-6 * (1.0 + abs(om))
        try:
            lp, _ = eigen_branch(SpectralPoint(kappa, om + h), config, vec)
            lm, _ = eigen_branch(SpectralPoint(kappa, om - h), config, vec)
        except (ArithmeticError, SlabError):
            raise ConvergenceError(
                f"omega_root derivative stencil left the valid domain at "
                f"omega={om}"
            ) from None
        deriv = (lp - lm) / (2.0 * h)
        if deriv == 0:
            raise ConvergenceError("omega_root: vanishing derivative")
        om = om - ell / deriv
    else:
        raise ConvergenceError(
            f"omega_root did not converge in {max_iter} iterations "
            f"(kappa={kappa}, last |eig|={abs(ell):.2e})"
        )
    if np.imag(np.asarray(kappa)) == 0 and om.imag > IM_OMEGA_TOL:
        raise DispersionSignError(
            f"Im omega = {om.imag:.3e} > 0 at real kappa={kappa}"
        )
    return DispersionSample(kappa, om, abs(ell), vec)


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


def branch_seeds(config: LatticeConfig, kappa, omega_window, n_grid=120):
    """Candidate omega roots at fixed kappa: minima of the smallest |eig|."""
    from .lattice import interaction_matrix

    lo, hi = omega_window
    oms = np.linspace(lo, hi, n_grid)
    vals = np.empty(n_grid)
    for i, om in enumerate(oms):
        a = interaction_matrix(SpectralPoint(kappa, om), config)
        vals[i] = np.min(np.abs(np.linalg.eigvals(a)))
    seeds = [
        oms[i]
        for i in range(1, n_grid - 1)
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < 0.6
    ]
    return sorted(seeds, key=lambda om: vals[int(np.argmin(np.abs(oms - om)))])


def null_order0_amplitudes(kappa, omega, config, vec):
    """Order-0 right/left amplitudes of the (near-)null field ``vec``."""
    point = SpectralPoint(kappa, omega)
    weighted = effective_potential(omega, config) * vec
    right = order_amplitude(point, config, weighted, 0, +1)
    left = order_amplitude(point, config, weighted, 0, -1)
    return right, left


def _rho(kappa, om_guess, config, anchor):
    """Root-follow in omega, then the null field's right order-0 amplitude.

    The root is driven well below the default tolerance: leftover omega error
    feeds straight into the amplitude and would poison the polisher's
    finite-difference slopes near the zero.
    """
    samp = omega_root(kappa, om_guess, config, anchor, tol=1e-13, max_iter=80)
    right, left = null_order0_amplitudes(kappa, samp.omega, config, samp.vector)
    return right, left, samp


def polish_real_point(config: LatticeConfig, kappa_guess, omega_guess,
                      anchor=None, max_iter=40):
    """1D Newton in kappa on the null field's radiating amplitude.

    Near a real point the amplitude crosses zero transversally along kappa;
    killing it kills Im omega as well (a non-radiating homogeneous solution
    at real parameters cannot decay in time).  Returns (kappa0, sample).
    """
    k = float(kappa_guess)
    om = complex(omega_guess)
    vec = anchor
    r1, _, s1 = _rho(k, om, config, vec)
    r2, _, _ = _rho(k + 1e-4, s1.omega, config, s1.vector)
    direction = r2 - r1
    if abs(direction) < 1e-15:
        direction = 1.0 + 0j
    direction /= abs(direction)
    om, vec = s1.omega, s1.vector
    best = None
    for _ in range(max_iter):
        right, _, samp = _rho(k, om, config, vec)
        om, vec = samp.omega, samp.vector
        u = (right * np.conj(direction)).real
        if best is None or abs(u) < best[0]:
            best = (abs(u), k, samp)
        if abs(u) < 1e-15:
            break
        h = 1e-7 * (1.0 + abs(k))
        rp, _, _ = _rho(k + h, om, config, vec)
        rm, _, _ = _rho(k - h, om, config, vec)
        du = ((rp - rm) * np.conj(direction)).real / (2.0 * h)
        if abs(du) < 1e-13:
            break
        step = float(np.clip(u / du, -0.05, 0.05))
        k = k - step
        if abs(step) < 1e-13 * (1.0 + abs(k)):
            break
    _, k, _ = best
    right, left, samp = _rho(k, om, config, vec)
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
                   n_kappa: int = 200) -> GuidedMode | None:
    """Scan a kappa grid, trace omega(kappa), return the real point if any.

    The branch is traced from seeds found at the first kappa; the grid
    minimizer of |Im omega| is refined by the radiating-amplitude polisher.
    Returns None when no point reaches |Im omega| < 1e-9.  A seed whose
    branch cannot be traced is skipped; a polisher failure is a solver
    failure and propagates (ConvergenceError / DispersionSignError).
    """
    kappas = np.linspace(kappa_range[0], kappa_range[1], n_kappa)
    best = None
    for seed in branch_seeds(config, kappas[0], omega_window):
        try:
            samples = trace_branch(config, kappas, seed)
        except (ConvergenceError, DispersionSignError):
            continue
        ims = np.array([abs(s.omega.imag) for s in samples])
        i = int(np.argmin(ims))
        if best is None or ims[i] < best[0]:
            best = (ims[i], samples[i])
    if best is None:
        return None
    _, samp0 = best
    kappa0, samp = polish_real_point(config, samp0.kappa, samp0.omega,
                                     samp0.vector)
    if abs(samp.omega.imag) > IM_OMEGA_TOL:
        return None
    mode = _mode_from_sample(kappa0, samp, config)
    if mode.radiating_component > RADIATING_TOL:
        return None
    return mode


def _min_im_on_grid(config, kappas, omega_seed):
    """min |Im omega| along a branch on a kappa grid; inf if untraceable."""
    try:
        samples = trace_branch(config, kappas, omega_seed)
    except (ConvergenceError, DispersionSignError):
        return np.inf, None
    ims = [abs(s.omega.imag) for s in samples]
    i = int(np.argmin(ims))
    return ims[i], samples[i]


def tune_structure(config: LatticeConfig, kappa_target_range,
                   omega_window, param_range=None, n_scan: int = 13,
                   n_kappa: int = 60):
    """Drive the tunable parameter until a real point appears.

    Two stages.  Stage 1 scans the parameter on ``n_scan`` points and picks
    the one minimizing s -> min_kappa |Im omega(kappa; s)| (the minimum
    touches zero quadratically, so a sign-based bisection does not apply).
    Stage 2 starts from that scan point and runs a 2D Gauss-Newton on the
    null field's complex order-0 amplitude over (kappa, s), which converges
    to machine precision.  Returns (tuned_config, GuidedMode).
    """
    if config.tunable is None:
        raise ConvergenceError("tune_structure needs config.tunable")
    s0 = config.tunable_value
    if param_range is None:
        span = 0.5 * (1.0 + abs(s0))
        param_range = (s0 - span, s0 + span)

    kappas = np.linspace(kappa_target_range[0], kappa_target_range[1], n_kappa)

    # a mode may already exist at the current parameter (tuning is a no-op)
    existing = find_real_mode(config, kappa_target_range, omega_window,
                              n_kappa=n_kappa)
    if existing is not None:
        return config, existing

    # stage 1: coarse scan of the parameter
    svals = np.linspace(param_range[0], param_range[1], n_scan)
    fvals = []
    samps = []
    for s in svals:
        cfg_s = config.with_tunable(s)
        seeds = branch_seeds(cfg_s, kappas[0], omega_window)
        f_best, samp_best = np.inf, None
        for seed in seeds[:3]:
            f, samp = _min_im_on_grid(cfg_s, kappas, seed)
            if f < f_best:
                f_best, samp_best = f, samp
        fvals.append(f_best)
        samps.append(samp_best)
    i = int(np.argmin(fvals))
    if not np.isfinite(fvals[i]) or samps[i] is None:
        raise ConvergenceError("tuner: no traceable branch in the scan interval")

    # stage 2: Gauss-Newton on (Re rho, Im rho)(kappa, s) from the scan minimum
    k, s = float(samps[i].kappa), float(svals[i])
    om, vec = samps[i].omega, samps[i].vector

    def rho_of(kv, sv, omg, anc):
        cfg = config.with_tunable(sv)
        samp = omega_root(kv, omg, cfg, anc)
        right, _ = null_order0_amplitudes(kv, samp.omega, cfg, samp.vector)
        return right, samp

    converged = False
    for _ in range(40):
        r0, samp = rho_of(k, s, om, vec)
        om, vec = samp.omega, samp.vector
        if abs(r0) < 5e-14:
            converged = True
            break
        hk = 1e-7 * (1.0 + abs(k))
        hs = 1e-7 * (1.0 + abs(s))
        rk1, _ = rho_of(k + hk, s, om, vec)
        rk2, _ = rho_of(k - hk, s, om, vec)
        rs1, _ = rho_of(k, s + hs, om, vec)
        rs2, _ = rho_of(k, s - hs, om, vec)
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

    tuned = config.with_tunable(s)
    kappa0, samp = polish_real_point(tuned, k, om, vec)
    if abs(samp.omega.imag) > IM_OMEGA_TOL:
        raise ConvergenceError(
            f"tuner: polished point keeps Im omega = {samp.omega.imag:.2e}"
        )
    mode = _mode_from_sample(kappa0, samp, tuned)
    return tuned, mode


def decay_profile(mode: GuidedMode, config: LatticeConfig, n_lo=5, n_hi=20):
    """Null-field amplitude per row n and the slowest active decay rate."""
    from .scattering import scattered_field_at

    point = SpectralPoint(mode.kappa0, mode.omega0)
    kappa_p, eta, tp = order_arrays(mode.kappa0, mode.omega0, config.period)
    weighted = effective_potential(mode.omega0, config) * mode.nullvector
    # per-order amplitudes of the null field on the transmitted side
    amps = np.array([
        order_amplitude(point, config, weighted, p, +1)
        for p in range(config.period)
    ])
    rates = np.array([eta[p].imag for p in range(config.period)])
    # evanescent orders carrying a nonnegligible share of the null field
    active = (np.abs(amps) > 1e-9 * max(np.max(np.abs(amps)), 1e-300)) & (
        rates > 1e-9
    )
    slow_rate = float(np.min(rates[active])) if np.any(active) else np.nan

    ns = np.arange(n_lo, n_hi + 1) + int(np.max(config.zs))
    vals = np.empty(len(ns))
    for i, n in enumerate(ns):
        vals[i] = max(
            abs(scattered_field_at(point, config, mode.nullvector, m, int(n)))
            for m in range(config.period)
        )
    return ns, vals, slow_rate


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
