"""Scattering solves, far fields, and the tracked eigenvalue branch.

The far field is extracted analytically from the order-0 coefficient of the
Green's function, which is exact in the lattice model.  The triple formed by
the tracked eigenvalue and the eigenvalue-scaled reflection/transmission
amplitudes is analytic near a guided mode and vanishes there together with
the eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCollisionError,
    NearSingularError,
    NoPropagatingOrderError,
    PendantPoleError,
    WoodAnomalyError,
)
from .lattice import (
    NO_PROPAGATING_ORDER,
    OK,
    PENDANT_POLE,
    WOOD_ANOMALY,
    LatticeConfig,
    SpectralPoint,
    _only_order_zero,
    evaluate_point,
    grid_status,
    interaction_matrix,
    propagating_orders,
)

COND_LIMIT = 1e12
COND_MARGIN = 10.0  # see _solve_sites
# rows per batched evaluation: every README and benchmark grid is one block,
# and a huge grid still bounds the (rows, orders, k, k) temporaries
BLOCK = 512

SKIP_ERRORS = {
    WOOD_ANOMALY: WoodAnomalyError,
    NO_PROPAGATING_ORDER: NoPropagatingOrderError,
    PENDANT_POLE: PendantPoleError,
}


@dataclass(frozen=True)
class ScatteringSolution:
    """Field on defect sites plus order-0 far-field amplitudes.

    ``reflection`` and ``transmission`` are the complex amplitudes for a
    unit-amplitude incident order-0 wave from the left; ``transmission``
    includes the incident contribution.
    """

    psi: np.ndarray
    reflection: complex
    transmission: complex
    sigma_min: float = np.inf


@dataclass(frozen=True)
class GridSolution:
    """Unit-incidence solves on a real frequency grid at one real kappa.

    ``status[i]`` is ``OK`` or why row i was skipped (see
    ``lattice.grid_status``); ``psi`` (rows x sites), ``reflection`` and
    ``transmission`` are as in ``ScatteringSolution`` and NaN on skipped rows.
    """

    omega: np.ndarray
    status: np.ndarray
    psi: np.ndarray
    reflection: np.ndarray
    transmission: np.ndarray

    def raise_skipped(self, rows=None):
        """Raise the error of the first skipped row of ``rows`` (default all)."""
        for i in range(len(self.status)) if rows is None else rows:
            if self.status[i] != OK:
                raise SKIP_ERRORS[self.status[i]](
                    f"{self.status[i]} at omega={self.omega[i]}"
                )


@dataclass(frozen=True)
class CoefficientTriple:
    """Tracked eigenvalue and scaled amplitudes (eigval, refl, trans).

    refl = eigval * reflection and trans = eigval * transmission are analytic
    in (kappa, omega) near the mode and satisfy
    |eigval|^2 = |refl|^2 + |trans|^2 at real regime points.
    """

    eigval: complex
    refl: complex
    trans: complex


def _solve_sites(a, rhs, strict):
    """Site field solving A psi = rhs, and sigma_min of A, per leading row.

    Each row is decided alone: one with sigma_min < sigma_max / COND_LIMIT is
    refused with ``strict`` and otherwise gets the minimum-norm least-squares
    solution; the other rows share one batched LU solve.  A single matrix is
    decomposed, so its sigma_min is exact; ``strict`` comes with a single
    matrix only (``solve_scattering``).  A row of a stack is decomposed only
    where the bound ||A||_F ||A^-1||_F >= sigma_max / sigma_min (inf if A is
    singular) is not below COND_LIMIT / COND_MARGIN; elsewhere sigma_min is
    NaN.  A row so skipped has cond_2 below 1e11, where rounding moves the
    bound and the SVD's ratio by about cond_2 * eps (< 1e-4) relative, far
    inside the margin: its verdict is the SVD's.
    """
    if a.ndim == 2:
        svals = np.linalg.svd(a, compute_uv=False)
        sigma_min = svals[..., -1]
        singular = sigma_min < svals[..., 0] / COND_LIMIT
    else:
        check = ~(np.linalg.cond(a, "fro") < COND_LIMIT / COND_MARGIN)  # NaN too
        singular = np.zeros(check.shape, dtype=bool)
        sigma_min = np.full(check.shape, np.nan)
        if check.any():
            svals = np.linalg.svd(a[check], compute_uv=False)
            sigma_min[check] = svals[:, -1]
            singular[check] = svals[:, -1] < svals[:, 0] / COND_LIMIT
    if not singular.any():
        return np.linalg.solve(a, rhs[..., None])[..., 0], sigma_min
    if strict:
        worst = float(np.min(sigma_min[singular]))
        raise NearSingularError(
            f"interaction matrix nearly singular (sigma_min={worst:.3e})",
            sigma_min=worst,
        )
    k = rhs.shape[-1]
    a, psi, near = a.reshape(-1, k, k), rhs.reshape(-1, k).copy(), singular.ravel()
    psi[~near] = np.linalg.solve(a[~near], psi[~near, :, None])[..., 0]
    for i in np.flatnonzero(near):
        # minimum-norm solution: the physical field up to a null component
        psi[i] = np.linalg.lstsq(a[i], psi[i], rcond=None)[0]
    return psi.reshape(rhs.shape), sigma_min


def _product(a, b):
    """a * b, for arrays rounded row by row as the product of scalars.

    numpy's vectorised complex multiply may fuse multiply-adds, so a batch
    row could differ in its last bit from the single-point call's product.
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return a * b
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def order_amplitude(orders, config, weighted_field, p: int, side: int):
    """Order-p far-field amplitude of sum_j G(. - site_j) V_j psi_j.

    ``orders`` is the ``order_arrays`` triple at the point, ``weighted_field``
    is V_eff * psi on the defect sites; ``side`` is +1 for z -> +inf
    (transmitted direction), -1 for z -> -inf.  A complex for a single point,
    an array over a leading frequency axis otherwise.
    """
    kappa_p, eta, tp = orders
    phase = np.exp(-1j * kappa_p[p] * config.xs
                   - np.multiply.outer(1j * side * eta.T[p], config.zs))
    amp = _product(tp.T[p] / config.period,
                   np.sum(phase * weighted_field, axis=-1))
    return complex(amp) if np.ndim(amp) == 0 else amp


def _require_one_order(point, config):
    """At real rows of a point, far fields need exactly order 0 propagating."""
    omega = np.asarray(point.omega)
    real = SpectralPoint(point.kappa, omega[np.imag(omega) == 0].real)
    if np.imag(point.kappa) == 0 and real.omega.size and not all(
            _only_order_zero(propagating_orders(real, config.period))):
        raise NoPropagatingOrderError(
            "need exactly order 0 propagating for far-field extraction"
        )


def _scatter(evaluation, config, strict):
    """Unit order-0 incidence from the left, solved on an evaluated point.

    Returns ``(psi, reflection, transmission, sigma_min)``, each with the
    evaluation's leading frequency axis if it has one.
    """
    orders, v, a = evaluation
    kappa_p, eta, _ = orders
    phi = np.exp(1j * kappa_p[0] * config.xs
                 + np.multiply.outer(1j * eta.T[0], config.zs))
    psi, sigma_min = _solve_sites(a, phi, strict)
    weighted = v * psi
    refl = order_amplitude(orders, config, weighted, 0, -1)
    trans = 1.0 + order_amplitude(orders, config, weighted, 0, +1)
    return psi, refl, trans, sigma_min


def solve_scattering(point: SpectralPoint, config: LatticeConfig,
                     strict: bool = True) -> ScatteringSolution:
    """Solve A psi = phi_inc and extract R and T for unit incidence.

    With ``strict`` the solve refuses near-singular A (resonance proximity);
    otherwise it falls back to the minimum-norm least-squares solution, which
    stays finite at the guided-mode point itself.  ``point`` is one (kappa,
    omega) pair: an array entry raises ValueError (``solve_grid`` solves a
    frequency grid).
    """
    if np.ndim(point.kappa) or np.ndim(point.omega):
        raise ValueError("solve_scattering takes one (kappa, omega) point; "
                         "solve a frequency grid with solve_grid")
    _require_one_order(point, config)
    psi, refl, trans, sigma_min = _scatter(evaluate_point(point, config), config,
                                           strict)
    return ScatteringSolution(psi, refl, trans, float(sigma_min))


def solve_grid(kappa: float, omegas, config: LatticeConfig) -> GridSolution:
    """``solve_scattering(strict=False)`` on a real frequency grid, batched.

    Each solved row equals the single-point solve bit for bit.  A row where
    that would raise WoodAnomalyError, NoPropagatingOrderError or
    PendantPoleError is skipped and its reason kept in ``status``.  Rows are
    evaluated BLOCK at a time, so a grid of up to 512 rows is one evaluation.
    Each row gets its own verdict, LU or least squares, from an SVD taken
    only where a norm bound cannot clear the row (see ``_solve_sites``).
    """
    kappa, omegas = float(kappa), np.asarray(omegas, dtype=float)
    status = grid_status(kappa, omegas, config)
    psi = np.full((len(omegas), len(config.defects)), np.nan, dtype=complex)
    refl = np.full(len(omegas), np.nan, dtype=complex)
    trans = refl.copy()
    rows = np.flatnonzero(status == OK)
    for start in range(0, len(rows), BLOCK):
        block = rows[start:start + BLOCK]
        evaluation = evaluate_point(SpectralPoint(kappa, omegas[block]), config)
        psi[block], refl[block], trans[block], _ = _scatter(evaluation, config,
                                                            strict=False)
    return GridSolution(omegas, status, psi, refl, trans)


def _modulus(z):
    """|z| with the bits of the scalar ``abs`` (array ``np.abs`` may differ)."""
    return np.hypot(np.real(z), np.imag(z))


def _take(values, index):
    """values[..., index] with one index per leading row."""
    flat = values.reshape(-1, values.shape[-1])
    return flat[np.arange(len(flat)), index.ravel()].reshape(index.shape)


def _rowdot(a, b):
    """a . b (no conjugation) per leading row, with the bits of a 1-D dot.

    A stacked matmul reproduces the BLAS dot row by row; one pair of vectors
    takes the dot itself, which costs less.
    """
    if a.ndim == 1 and b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pick(evals, evecs, anchor):
    """Index of the tracked eigenpair, per leading row of ``evals``/``evecs``.

    Without an anchor, the eigenvalue of smallest modulus; with one (a vector
    per row, or one vector for all rows), the eigenvector of maximal overlap,
    where an ambiguous overlap (< 0.5) between distinct eigenvalues raises
    BranchCollisionError for the first such row.
    """
    if anchor is None:
        return np.abs(evals).argmin(axis=-1)
    conj = anchor.conj()
    if conj.ndim == 1:
        overlaps = np.abs(conj @ evecs)
    else:
        overlaps = np.abs((conj[..., None, :] @ evecs)[..., 0, :])
    order = (-overlaps).argsort(axis=-1)
    i = order[..., 0][()]  # a scalar for one matrix, so indexing takes a view
    # the smallest best squared overlap over the rows, in Python floats: on
    # a few rows that costs less than numpy reductions (max(x^2) = max(x)^2)
    squares = (overlaps * overlaps).reshape(-1, overlaps.shape[-1]).tolist()
    if evals.shape[-1] > 1 and min(map(max, squares), default=1.0) < 0.5:
        j = order[..., 1]
        top = np.maximum.reduce(overlaps, axis=-1)
        ambiguous = (top**2 < 0.5) & (
            _modulus(_take(evals, i) - _take(evals, j)) > 1e-10)
        if ambiguous.any():
            r = np.unravel_index(np.argmax(ambiguous), ambiguous.shape)
            raise BranchCollisionError(
                f"branch overlap {top[r]**2:.3f} ambiguous "
                f"between {evals[r][i[r]]:.6g} and {evals[r][j[r]]:.6g}"
            )
    return i


def _gauged(vec, anchor):
    """Unit eigenvector in a fixed phase gauge, per leading row of ``vec``."""
    if anchor is not None:
        # overlap-phase gauge: continuous along anchored continuation paths
        # (the largest-entry gauge jumps when two entries tie in magnitude)
        ref = _rowdot(anchor.conj(), vec)
    else:
        ref = _take(vec, np.abs(vec).argmax(axis=-1))
    vec = vec * np.exp(-1j * np.arctan2(ref.imag, ref.real))[..., None]
    # the squared norm summed as np.linalg.norm sums it
    re, im = vec.real, vec.imag
    return vec / np.sqrt(_rowdot(re, re) + _rowdot(im, im))[..., None]


def eigen_branch(point: SpectralPoint, config: LatticeConfig,
                 anchor: np.ndarray | None = None, tunable_values=None):
    """Eigenvalue of A on the tracked branch, with its unit eigenvector.

    Without an anchor, the eigenvalue of smallest modulus is returned.  With
    an anchor vector, the eigenvector of maximal overlap continues the branch;
    an ambiguous overlap (< 0.5) between distinct eigenvalues raises
    BranchCollisionError so the caller can refine the continuation path.

    ``point.omega`` may be an array of (complex) frequencies: then A is
    built and eigendecomposed once for all rows, which form traces of runs,
    a run being a trace's rows at one kappa.  A run's first row is tracked
    from the trace's anchor, or from the previous run's first vector, and
    its other rows from its first row's vector.  The result is (eigenvalue
    per row, each run's first vector, stacked).  A 1-D array is one trace:
    a run per kappa where ``point.kappa`` has one per row, else one run,
    whose vector alone is returned.  A 2-D ``anchor`` with a row per
    frequency makes it several traces, each from a row with an anchor (a
    NaN row goes on).  A 2-D array holds a trace per leading row, each with
    its own row of ``anchor`` (or all with one, or none).  ``tunable_values``
    has an entry per leading row (see ``lattice.effective_potential``).
    Each row has the bits of a single-point call with that anchor and value.
    """
    evals, evecs = np.linalg.eig(interaction_matrix(point, config,
                                                    tunable_values))
    if evals.ndim == 1:
        i = _pick(evals, evecs, anchor)
        return evals[i], _gauged(evecs[:, i], anchor)
    kappa = np.asarray(point.kappa)
    if evals.ndim == 2 and (anchor is None or anchor.ndim == 1):  # one trace
        picks, vecs, ks = np.empty(len(evals), dtype=int), [], np.ravel(kappa).tolist()
        starts = [i for i in range(1, len(ks)) if ks[i] != ks[i - 1]]
        for s, e in zip([0, *starts], [*starts, len(evals)]):
            picks[s] = first = _pick(evals[s], evecs[s], anchor)
            anchor = _gauged(evecs[s][:, first], anchor)
            if e > s + 1:
                picks[s + 1:e] = _pick(evals[s + 1:e], evecs[s + 1:e], anchor)
            vecs.append(anchor)
        return _take(evals, picks), np.array(vecs) if kappa.ndim else anchor
    shape, n = evals.shape[:-1], evals.shape[-1]
    evals, evecs = evals.reshape(-1, n), evecs.reshape(-1, n, n)
    start = (np.arange(len(evals)) % shape[-1] == 0 if len(shape) == 2
             else ~np.isnan(anchor[:, 0]))
    anchor = anchor if len(shape) == 2 else anchor[start]
    head = start | np.append(True, kappa[1:] != kappa[:-1]) if kappa.ndim else start
    run = np.cumsum(head) - 1
    place = run - run[start][np.cumsum(start) - 1]  # of a row's run in its trace
    picks, vecs = np.empty(len(run), dtype=int), np.empty((run[-1] + 1, n), complex)
    for j in range(place.max() + 1):  # a loop over places, not traces
        rows = np.flatnonzero(head & (place == j))
        ref = anchor if j == 0 else vecs[run[rows] - 1]
        picks[rows] = first = _pick(evals[rows], evecs[rows], ref)
        vecs[run[rows]] = _gauged(evecs[rows, :, first], ref)
    tails = np.flatnonzero(~head)
    picks[tails] = _pick(evals[tails], evecs[tails], vecs[run[tails]])
    return _take(evals, picks).reshape(shape), vecs


def coefficient_triple(point: SpectralPoint, config: LatticeConfig,
                       anchor: np.ndarray | None = None) -> CoefficientTriple:
    """(eigval, eigval*R, eigval*T) at a spectral point.

    The eig and the unit-incidence solve share one evaluation of A.  Scaling
    by the eigenvalue after the solve is equivalent to scaling the source,
    by linearity, and avoids 0/0 at the mode.

    ``point.omega`` may be an array of (complex) frequencies at one kappa:
    each field is then an array, every row tracked from ``anchor``, checked
    like a point if real and equal to a single-point call bit for bit.
    """
    evaluation = evaluate_point(point, config)
    evals, evecs = np.linalg.eig(evaluation[2])
    ell = _take(evals, _pick(evals, evecs, anchor))[()]
    # a BranchCollisionError of the pick comes before the far-field check
    _require_one_order(point, config)
    _, refl, trans, _ = _scatter(evaluation, config, strict=False)
    return CoefficientTriple(ell, _product(ell, refl), _product(ell, trans))


def pendant_amplitudes(point, config, psi) -> np.ndarray:
    """Field on pendant sites recovered from the host-site field.

    One row per pendant; a leading frequency axis of ``psi`` follows it.
    """
    om2 = np.asarray(point.omega, dtype=complex) ** 2
    return np.array([p.g * psi.T[p.host] / (om2 - p.mu) for p in config.pendants])


def peak_field(point, config, psi):
    """Max |field| over defect and pendant sites, per leading frequency row."""
    peak = np.abs(psi).max(axis=-1)
    if config.pendants:
        pendant = np.abs(pendant_amplitudes(point, config, psi)).max(axis=0)
        peak = np.maximum(peak, pendant)
    return peak
