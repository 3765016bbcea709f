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

from .errors import BranchCollisionError, NearSingularError, NoPropagatingOrderError
from .lattice import (
    LatticeConfig,
    SpectralPoint,
    effective_potential,
    evaluate_point,
    greens_function,
    interaction_matrix,
    propagating_orders,
)

COND_LIMIT = 1e12


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
    svals = np.linalg.svd(a, compute_uv=False)
    sigma_min = float(svals[-1])
    if strict and sigma_min < svals[0] / COND_LIMIT:
        raise NearSingularError(
            f"interaction matrix nearly singular (sigma_min={sigma_min:.3e})",
            sigma_min=sigma_min,
        )
    if sigma_min < svals[0] / COND_LIMIT:
        # minimum-norm solution: the physical field up to a null component
        psi = np.linalg.lstsq(a, rhs, rcond=None)[0]
    else:
        psi = np.linalg.solve(a, rhs)
    return psi, sigma_min


def order_amplitude(orders, config, weighted_field, p: int, side: int) -> complex:
    """Order-p far-field amplitude of sum_j G(. - site_j) V_j psi_j.

    ``orders`` is the ``order_arrays`` triple at the point, ``weighted_field``
    is V_eff * psi on the defect sites; ``side`` is +1 for z -> +inf
    (transmitted direction), -1 for z -> -inf.
    """
    kappa_p, eta, tp = orders
    phase = np.exp(-1j * kappa_p[p] * config.xs - 1j * side * eta[p] * config.zs)
    return complex(tp[p] / config.period * np.sum(phase * weighted_field))


def _require_one_order(point, config):
    """At a real point, far fields need exactly order 0 propagating."""
    if np.imag(point.kappa) == 0 and np.imag(point.omega) == 0:
        spec = propagating_orders(point, config.period)
        if not spec.propagating[0] or np.sum(spec.propagating) != 1:
            raise NoPropagatingOrderError(
                "need exactly order 0 propagating for far-field extraction"
            )


def _scatter(evaluation, config, strict) -> ScatteringSolution:
    """Unit order-0 incidence from the left, solved on an evaluated point."""
    orders, v, a = evaluation
    kappa_p, eta, _ = orders
    phi = np.exp(1j * kappa_p[0] * config.xs + 1j * eta[0] * config.zs)
    psi, sigma_min = _solve_sites(a, phi, strict)
    weighted = v * psi
    refl = order_amplitude(orders, config, weighted, 0, -1)
    trans = 1.0 + order_amplitude(orders, config, weighted, 0, +1)
    return ScatteringSolution(psi, refl, trans, sigma_min)


def solve_scattering(point: SpectralPoint, config: LatticeConfig,
                     strict: bool = True) -> ScatteringSolution:
    """Solve A psi = phi_inc and extract R and T for unit incidence.

    With ``strict`` the solve refuses near-singular A (resonance proximity);
    otherwise it falls back to the minimum-norm least-squares solution, which
    stays finite at the guided-mode point itself.
    """
    _require_one_order(point, config)
    return _scatter(evaluate_point(point, config), config, strict)


def _tracked_eigenpair(a, anchor):
    evals, evecs = np.linalg.eig(a)
    if anchor is None:
        i = int(np.argmin(np.abs(evals)))
    else:
        overlaps = np.abs(anchor.conj() @ evecs)
        order = np.argsort(-overlaps)
        i = int(order[0])
        if len(evals) > 1 and overlaps[i] ** 2 < 0.5:
            j = int(order[1])
            if abs(evals[i] - evals[j]) > 1e-10:
                raise BranchCollisionError(
                    f"branch overlap {overlaps[i]**2:.3f} ambiguous "
                    f"between {evals[i]:.6g} and {evals[j]:.6g}"
                )
    vec = evecs[:, i]
    if anchor is not None:
        # overlap-phase gauge: continuous along anchored continuation paths
        # (the largest-entry gauge jumps when two entries tie in magnitude)
        phase = np.angle(anchor.conj() @ vec)
    else:
        phase = np.angle(vec[int(np.argmax(np.abs(vec)))])
    vec = vec * np.exp(-1j * phase)
    vec = vec / np.linalg.norm(vec)
    return evals[i], vec


def eigen_branch(point: SpectralPoint, config: LatticeConfig,
                 anchor: np.ndarray | None = None):
    """Eigenvalue of A on the tracked branch, with its unit eigenvector.

    Without an anchor, the eigenvalue of smallest modulus is returned.  With
    an anchor vector, the eigenvector of maximal overlap continues the branch;
    an ambiguous overlap (< 0.5) between distinct eigenvalues raises
    BranchCollisionError so the caller can refine the continuation path.
    """
    return _tracked_eigenpair(interaction_matrix(point, config), anchor)


def coefficient_triple(point: SpectralPoint, config: LatticeConfig,
                       anchor: np.ndarray | None = None) -> CoefficientTriple:
    """(eigval, eigval*R, eigval*T) at one spectral point.

    The eig and the unit-incidence solve share one evaluation of A.  Scaling
    by the eigenvalue after the solve is equivalent to scaling the source,
    by linearity, and avoids 0/0 at the mode.
    """
    evaluation = evaluate_point(point, config)
    ell, _ = _tracked_eigenpair(evaluation[2], anchor)
    _require_one_order(point, config)
    sol = _scatter(evaluation, config, strict=False)
    return CoefficientTriple(ell, ell * sol.reflection, ell * sol.transmission)


def pendant_amplitudes(point, config, psi) -> np.ndarray:
    """Field on pendant sites recovered from the host-site field."""
    om2 = np.asarray(point.omega, dtype=complex) ** 2
    return np.array([p.g * psi[p.host] / (om2 - p.mu) for p in config.pendants])


def field_enhancement(point: SpectralPoint, config: LatticeConfig) -> float:
    """Max |field| over defect and pendant sites for unit incidence.

    Finite at the guided-mode point itself: the minimum-norm solution is used
    there (the scattering problem remains solvable, just not unique).
    """
    sol = solve_scattering(point, config, strict=False)
    peak = float(np.max(np.abs(sol.psi)))
    if config.pendants:
        pvals = pendant_amplitudes(point, config, sol.psi)
        peak = max(peak, float(np.max(np.abs(pvals))))
    return peak


def scattered_field_at(point, config, psi, m: int, n: int) -> complex:
    """Scattered field at an arbitrary lattice site from the site field psi."""
    weighted = effective_potential(point.omega, config) * psi
    val = 0j
    for j in range(len(config.defects)):
        val += greens_function(
            point, config.period, m - int(config.xs[j]), n - int(config.zs[j])
        ) * weighted[j]
    return complex(val)
