"""Local expansion coefficients of the analytic triple about a guided mode.

Each of the three analytic functions (tracked eigenvalue, scaled reflection,
scaled transmission) has a zero curve ``omega = omega0 - c1*kt - c2*kt^2 - ...``
through the mode, where ``kt = kappa - kappa0``.  Sampling those curves at
complex kt on two circles and least-squares fitting recovers the coefficients
together with empirical error bars; the background amplitudes r0, t0 and the
unit-factor slopes come from transmission limits at the mode.  All quantities
verified here are invariant under the common analytic rescaling freedom of
the triple.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .lattice import LatticeConfig, SpectralPoint, wood_distance
from .modes import GuidedMode, _omega_newton
# eigen_branch is unused here, but perfbench/selftest.py wraps it in this module
from .scattering import coefficient_triple, eigen_branch, solve_scattering  # noqa: F401

MEMBERS = ("eigval", "refl", "trans")  # the triple, in zero-curve column order
N_ANGLES = 6
ZERO_TOL = 5e-13
ZERO_MAX_ITER = 60
MAX_RADIUS = 0.02
EPS = np.finfo(float).eps
# offsets of the two-sided background probes in omega and in kappa: a
# half-step ladder for _richardson
PROBE_STEPS = tuple(0.004 / 2**i for i in range(4))


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Fitted local coefficients with per-coefficient error estimates.

    l1..l3 belong to the eigenvalue zero curve, r1, r2 to the scaled
    reflection, t1, t2 to the scaled transmission; r0, t0 are the background
    moduli and eta1, eta2 (case 1) or eta (case 2) the measurable real parts
    of the background slope factors.
    """

    kappa0: float
    omega0: float
    l1: complex
    l2: complex
    r1: complex
    r2: complex
    t1: complex
    t2: complex
    r0: float
    t0: float
    l3: complex = 0j
    eta1: float = 0.0
    eta2: float = 0.0
    eta: float = 0.0
    case: int = 1
    fit_errors: dict = field(default_factory=dict)

    def error(self, name: str) -> float:
        return self.fit_errors.get(name, np.inf)

    def to_dict(self) -> dict:
        def c(z):
            z = complex(z)
            return [z.real, z.imag]

        return {
            "kappa0": self.kappa0,
            "omega0": self.omega0,
            "case": self.case,
            "l1": c(self.l1), "l2": c(self.l2), "l3": c(self.l3),
            "r1": c(self.r1), "r2": c(self.r2),
            "t1": c(self.t1), "t2": c(self.t2),
            "r0": self.r0, "t0": self.t0,
            "eta1": self.eta1, "eta2": self.eta2, "eta": self.eta,
            # infinite error marks a deliberately dropped coefficient
            "fit_errors": {
                k: (float(v) if np.isfinite(v) else None)
                for k, v in sorted(self.fit_errors.items())
            },
        }


def sample_radius(config: LatticeConfig, mode: GuidedMode) -> float:
    """Fit-circle radius: inside the analyticity domain with margin.

    Half the distance to the nearest branch point, measured through the
    larger of the kappa- and omega-sensitivities of the order variable w.
    """
    dist_w = wood_distance(SpectralPoint(mode.kappa0, mode.omega0), config.period)
    sens = max(abs(mode.omega0) / 2.0, 1.0)
    return float(min(MAX_RADIUS, 0.5 * dist_w / sens))


def _fit(kts, oms, omega0, degree):
    cols = [kts**j for j in range(1, degree + 1)]
    design = np.vstack(cols).T
    coef, *_ = np.linalg.lstsq(design, omega0 - oms, rcond=None)
    resid = float(np.max(np.abs(design @ coef - (omega0 - oms))))
    return coef, resid


def _sample_curves(config: LatticeConfig, mode: GuidedMode, radius: float):
    """Zero curves of the three members of the triple, on two circles.

    At each kt on circles of ``radius`` and ``radius / 2`` (N_ANGLES points
    each) the eigval, refl and trans zeros are three rows of one
    ``modes._omega_newton`` call from omega0: each step is one
    ``coefficient_triple`` call on the live rows' stencils, anchored at the
    mode null vector, and row i reads member i.  Returns (kts, oms), oms
    holding one column per member; a failed row raises ConvergenceError.
    """
    def triple(kappa, stencils, rows):
        values = coefficient_triple(SpectralPoint(kappa, stencils.ravel()),
                                    config, mode.nullvector)
        return [getattr(values, MEMBERS[r])[3 * j:3 * j + 3]
                for j, r in enumerate(rows)]

    angles = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    kts, oms = [], []
    for rad in (radius, radius / 2.0):
        for th in angles:
            kt = rad * np.exp(1j * th)
            roots, _, errors = _omega_newton(triple, mode.kappa0 + kt,
                                             np.full(3, mode.omega0),
                                             ZERO_TOL, ZERO_MAX_ITER)
            for member, err in zip(MEMBERS, errors):
                if err is not None:
                    # one raising call stops all its rows with the same error
                    what = ("zero curves" if errors.count(err) > 1
                            else f"{member} zero curve")
                    raise ConvergenceError(f"{what} at kt={kt:.6g}: "
                                           f"{type(err).__name__}: {err}") from err
            kts.append(kt)
            oms.append(roots)
    return np.array(kts), np.array(oms)


def _fit_with_errors(kts, oms, omega0, degree, radius):
    coef, resid = _fit(kts, oms, omega0, degree)
    # guard against non-analytic samples; the bound sits above the honest
    # Taylor tail |c_{d+1}| rho^{d+1} of a healthy curve with O(10) coefficients
    if resid > 50.0 * radius ** (degree + 1):
        raise ConvergenceError(
            f"zero-curve fit residual {resid:.2e} too large for radius {radius}:"
            " analyticity suspect"
        )
    # circle-consistency error bars: outer-only vs inner-only vs joint
    c_out, _ = _fit(kts[:N_ANGLES], oms[:N_ANGLES], omega0, degree)
    c_in, _ = _fit(kts[N_ANGLES:], oms[N_ANGLES:], omega0, degree)
    errors = np.maximum(np.abs(c_out - coef), np.abs(c_in - coef)) + resid
    return coef, errors, resid


def _richardson(values):
    """Neville ladder for a half-step sequence with an h^2 error series."""
    rows = [[float(v) for v in values]]
    k = 1
    while len(rows[-1]) > 1:
        prev = rows[-1]
        w = 4.0**k
        rows.append([(w * prev[i + 1] - prev[i]) / (w - 1.0)
                     for i in range(len(prev) - 1)])
        k += 1
    est = rows[-1][0]
    err = abs(est - rows[-2][-1]) if len(rows) >= 2 else np.inf
    return est, float(err)


def _transmission_probes(config, mode):
    """Two-sided |T| and |R| at omega0 +- PROBE_STEPS (kappa fixed)."""
    tsym, rsym, tslope = [], [], []
    for d in PROBE_STEPS:
        sp = solve_scattering(SpectralPoint(mode.kappa0, mode.omega0 + d), config)
        sm = solve_scattering(SpectralPoint(mode.kappa0, mode.omega0 - d), config)
        tp, tm = abs(sp.transmission), abs(sm.transmission)
        tsym.append(0.5 * (tp + tm))
        rsym.append(0.5 * (abs(sp.reflection) + abs(sm.reflection)))
        tslope.append((tp - tm) / (2.0 * d))
    return tsym, rsym, tslope


def extract_background(mode: GuidedMode, config: LatticeConfig,
                       l1=None, l2=None, t2=None, case: int = 1):
    """Background amplitudes r0, t0 and unit-factor slopes at the mode.

    t0 is the limit of |T| along the frequency direction at kappa0 (two-sided
    Richardson ladder, which avoids the zero curves); r0 is measured the same
    way from |R| rather than derived from t0, so the first energy relation
    retains independent content.  Case 1 yields (eta1, eta2) from the
    transmission slopes in omega and kappa; case 2 yields the single eta.
    """
    tsym, rsym, tslope = _transmission_probes(config, mode)
    t0, t0_err = _richardson(tsym)
    r0, r0_err = _richardson(rsym)
    slope_om, slope_om_err = _richardson(tslope)
    if not 0.0 < t0 < 1.0 + 1e-6:
        raise ConvergenceError(f"background transmission t0={t0} outside (0, 1)")
    out = {"t0": t0, "r0": r0, "t0_err": t0_err, "r0_err": r0_err}
    if case == 1:
        if any(v is None for v in (l1, l2, t2)):
            raise ValueError("case-1 background needs l1, l2, t2")
        kslope = []
        for d in PROBE_STEPS:
            sp = solve_scattering(SpectralPoint(mode.kappa0 + d, mode.omega0), config)
            sm = solve_scattering(SpectralPoint(mode.kappa0 - d, mode.omega0), config)
            kslope.append((abs(sp.transmission) - abs(sm.transmission)) / (2.0 * d))
        slope_k, slope_k_err = _richardson(kslope)
        out["eta1"] = slope_om / t0
        out["eta1_err"] = slope_om_err / t0 + t0_err * abs(slope_om) / t0**2
        out["eta2"] = slope_k / t0 - ((t2 - l2) / l1).real
        out["eta2_err"] = slope_k_err / t0
    else:
        out["eta"] = slope_om / (t0 * r0**2)
        out["eta_err"] = slope_om_err / (t0 * r0**2)
    return out


def _classify_linear(l1: complex, l1_error: float) -> int:
    """Case 2 iff the linear coefficient is zero within 10x its fit error."""
    mag = abs(l1)
    if mag < 3.0 * l1_error:
        return 2
    if mag < 10.0 * l1_error:
        warnings.warn(
            f"|l1| = {mag:.3e} in the ambiguous zone (3-10x error "
            f"{l1_error:.3e}); classifying as case 2",
            stacklevel=2,
        )
        return 2
    return 1


def extract_coefficients(config: LatticeConfig, mode: GuidedMode,
                         radius: float | None = None) -> ExpansionCoefficients:
    """Full coefficient extraction: three zero curves plus background."""
    if radius is None:
        radius = sample_radius(config, mode)
    kts, oms = _sample_curves(config, mode, radius)
    cl, el, resid2 = _fit_with_errors(kts, oms[:, 0], mode.omega0, 2, radius)
    cl, el = np.append(cl, 0j), np.append(el, np.inf)
    # keep the cubic only when it passes its own guard and improves the
    # quadratic residual 10-fold
    try:
        cubic = _fit_with_errors(kts, oms[:, 0], mode.omega0, 3, radius)
        if cubic[2] <= 0.1 * resid2:
            cl, el, _ = cubic
    except ConvergenceError:
        pass
    ca, ea, _ = _fit_with_errors(kts, oms[:, 1], mode.omega0, 2, radius)
    cb, eb, _ = _fit_with_errors(kts, oms[:, 2], mode.omega0, 2, radius)

    errors = {
        "l1": float(el[0]), "l2": float(el[1]), "l3": float(el[2]),
        "r1": float(ea[0]), "r2": float(ea[1]),
        "t1": float(eb[0]), "t2": float(eb[1]),
    }
    case = _classify_linear(cl[0], errors["l1"])
    bg = extract_background(mode, config, l1=cl[0], l2=cl[1], t2=cb[1], case=case)
    errors["r0"] = bg["r0_err"]
    errors["t0"] = bg["t0_err"]
    if case == 1:
        errors["eta1"] = bg["eta1_err"]
        errors["eta2"] = bg["eta2_err"]
    else:
        errors["eta"] = bg["eta_err"]
    return ExpansionCoefficients(
        kappa0=mode.kappa0,
        omega0=mode.omega0,
        l1=complex(cl[0]), l2=complex(cl[1]), l3=complex(cl[2]),
        r1=complex(ca[0]), r2=complex(ca[1]),
        t1=complex(cb[0]), t2=complex(cb[1]),
        r0=bg["r0"], t0=bg["t0"],
        eta1=bg.get("eta1", 0.0), eta2=bg.get("eta2", 0.0),
        eta=bg.get("eta", 0.0),
        case=case,
        fit_errors=errors,
    )


@dataclass(frozen=True)
class Relation:
    name: str
    residual: float
    combined_error: float

    @property
    def ratio(self) -> float:
        if self.combined_error == 0:
            return np.inf if self.residual else 0.0
        return self.residual / self.combined_error

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "combined_error": self.combined_error,
            "ratio": self.ratio,
        }


def verify_relations(coeffs: ExpansionCoefficients) -> list[Relation]:
    """Residuals of the energy-conservation coefficient relations.

    Case 1: the three relations tying (l1, r1, t1) to (r0, t0), plus the
    conclusions Im r1 = Im t1 = 0 and r1 = t1 = l1.  Case 2: the relations
    tying (l2, r2, t2) to (r0, t0).  Residuals are reported alongside
    combined errors: the first-order-propagated fit errors plus the rounding
    floor of evaluating the relation, 4 eps times the sum of its terms'
    magnitudes.
    """
    c = coeffs
    e = c.error
    out = []

    def add(name, residual, fit_error, *terms):
        # rounding floor: evaluating the relation costs a few ulps of its terms
        floor = 4 * EPS * sum(abs(t) for t in terms)
        out.append(Relation(name, residual, fit_error + floor))

    r0s, t0s = c.r0**2, c.t0**2
    add("r0^2 + t0^2 = 1", abs(1.0 - (r0s + t0s)),
        2 * c.r0 * e("r0") + 2 * c.t0 * e("t0"), 1.0, r0s, t0s)
    if c.case == 1:
        l1r = c.l1.real
        sq_r, sq_t = r0s * abs(c.r1) ** 2, t0s * abs(c.t1) ** 2
        add("l1^2 = r0^2 |r1|^2 + t0^2 |t1|^2",
            abs(l1r**2 - (sq_r + sq_t)),
            2 * abs(l1r) * e("l1")
            + 2 * c.r0 * abs(c.r1) ** 2 * e("r0")
            + 2 * c.t0 * abs(c.t1) ** 2 * e("t0")
            + 2 * r0s * abs(c.r1) * e("r1")
            + 2 * t0s * abs(c.t1) * e("t1"),
            l1r**2, sq_r, sq_t)
        lin_r, lin_t = r0s * c.r1.real, t0s * c.t1.real
        add("l1 = r0^2 Re r1 + t0^2 Re t1",
            abs(l1r - (lin_r + lin_t)),
            e("l1")
            + 2 * c.r0 * abs(c.r1) * e("r0")
            + 2 * c.t0 * abs(c.t1) * e("t0")
            + r0s * e("r1")
            + t0s * e("t1"),
            l1r, lin_r, lin_t)
        add("Im r1 = 0", abs(c.r1.imag), e("r1") + e("l1"), c.r1)
        add("Im t1 = 0", abs(c.t1.imag), e("t1") + e("l1"), c.t1)
        add("r1 = l1", abs(c.r1 - c.l1), e("r1") + e("l1"), c.r1, c.l1)
        add("t1 = l1", abs(c.t1 - c.l1), e("t1") + e("l1"), c.t1, c.l1)
    else:
        lin_r, lin_t = r0s * c.r2.real, t0s * c.t2.real
        add("Re l2 = r0^2 Re r2 + t0^2 Re t2",
            abs(c.l2.real - (lin_r + lin_t)),
            e("l2")
            + 2 * c.r0 * abs(c.r2) * e("r0")
            + 2 * c.t0 * abs(c.t2) * e("t0")
            + r0s * e("r2")
            + t0s * e("t2"),
            c.l2.real, lin_r, lin_t)
        sq_r, sq_t = r0s * abs(c.r2) ** 2, t0s * abs(c.t2) ** 2
        add("|l2|^2 = r0^2 |r2|^2 + t0^2 |t2|^2",
            abs(abs(c.l2) ** 2 - (sq_r + sq_t)),
            2 * abs(c.l2) * e("l2")
            + 2 * c.r0 * abs(c.r2) ** 2 * e("r0")
            + 2 * c.t0 * abs(c.t2) ** 2 * e("t0")
            + 2 * r0s * abs(c.r2) * e("r2")
            + 2 * t0s * abs(c.t2) * e("t2"),
            abs(c.l2) ** 2, sq_r, sq_t)
    return out

