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
from .modes import GuidedMode
from .scattering import coefficient_triple, eigen_branch, solve_scattering

N_ANGLES = 6
MAX_RADIUS = 0.02
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Fitted local coefficients with per-coefficient error estimates.

    l1..l3 belong to the eigenvalue zero curve, r1, r2 to the scaled
    reflection, t1, t2 to the scaled transmission; r0, t0 are the background
    moduli and eta1, eta2 (case 1) or eta (case 2) the measurable real parts
    of the background slope factors.  theta1..theta3 are the unit-factor
    phases at the center; they are stored but enter no downstream formula.
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
    theta1: float = 0.0
    theta2: float = 0.0
    theta3: float = 0.0
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
            "theta": [self.theta1, self.theta2, self.theta3],
            # infinite error marks a deliberately dropped coefficient
            "fit_errors": {
                k: (float(v) if np.isfinite(v) else None)
                for k, v in sorted(self.fit_errors.items())
            },
        }


def eigval_sampler(config: LatticeConfig, mode: GuidedMode):
    """Sampler for the tracked eigenvalue, anchored at the mode null vector."""
    anchor = mode.nullvector

    def f(kappa, omega):
        ell, _ = eigen_branch(SpectralPoint(kappa, omega), config, anchor)
        return ell

    return f


def refl_sampler(config: LatticeConfig, mode: GuidedMode):
    anchor = mode.nullvector

    def f(kappa, omega):
        return coefficient_triple(SpectralPoint(kappa, omega), config, anchor).refl

    return f


def trans_sampler(config: LatticeConfig, mode: GuidedMode):
    anchor = mode.nullvector

    def f(kappa, omega):
        return coefficient_triple(SpectralPoint(kappa, omega), config, anchor).trans

    return f


def _omega_zero(f, kappa, omega_start, tol=5e-13, max_iter=60):
    """Complex Newton on omega for f(kappa, omega) = 0."""
    om = complex(omega_start)
    for _ in range(max_iter):
        val = f(kappa, om)
        if abs(val) < tol:
            return om
        h = 1e-6 * (1.0 + abs(om))
        deriv = (f(kappa, om + h) - f(kappa, om - h)) / (2.0 * h)
        if deriv == 0:
            break
        om = om - val / deriv
    raise ConvergenceError(
        f"zero-curve Newton failed at kappa={kappa} (|f|={abs(val):.2e})"
    )


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


def _sample_curve(f, mode: GuidedMode, radius: float):
    angles = 2.0 * np.pi * np.arange(N_ANGLES) / N_ANGLES
    kts, oms = [], []
    for rad in (radius, radius / 2.0):
        for th in angles:
            kt = rad * np.exp(1j * th)
            om = _omega_zero(f, mode.kappa0 + kt, mode.omega0)
            kts.append(kt)
            oms.append(om)
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


def fit_zero_curve(f, mode: GuidedMode, degree: int = 2,
                   radius: float | None = None, config: LatticeConfig = None):
    """Fit omega(kt) = omega0 - c1*kt - c2*kt^2 (- c3*kt^3) on two circles.

    Returns (coefs, errors, resid): arrays of fitted coefficients c1..c_degree
    and per-coefficient error estimates from circle consistency plus the max
    fit residual.  Twelve samples on circles of radius rho and rho/2.
    """
    if radius is None:
        if config is None:
            raise ValueError("need radius or config")
        radius = sample_radius(config, mode)
    kts, oms = _sample_curve(f, mode, radius)
    return _fit_with_errors(kts, oms, mode.omega0, degree, radius)


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


def _transmission_probes(config, mode, delta0=0.004, n=4):
    """Two-sided |T| and |R| at omega0 +- delta ladders (kappa fixed)."""
    tsym, rsym, tslope = [], [], []
    for i in range(n):
        d = delta0 / 2**i
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
        for i in range(4):
            d = 0.004 / 2**i
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


def classify_case(coeffs: ExpansionCoefficients) -> int:
    """Case 2 iff the linear coefficient is zero within 10x its fit error."""
    return _classify_linear(coeffs.l1, coeffs.error("l1"))


def _unit_phases(config, mode, r0, t0, delta=5e-4):
    """arg of each unit factor at the center, from f ~ e^(i theta) * varpi."""
    anchor = mode.nullvector
    point = SpectralPoint(mode.kappa0, mode.omega0 + delta)
    trip = coefficient_triple(point, config, anchor)
    return (
        float(np.angle(trip.eigval / delta)),
        float(np.angle(trip.refl / (r0 * delta))),
        float(np.angle(trip.trans / (t0 * delta))),
    )


def extract_coefficients(config: LatticeConfig, mode: GuidedMode,
                         radius: float | None = None) -> ExpansionCoefficients:
    """Full coefficient extraction: three zero curves plus background."""
    if radius is None:
        radius = sample_radius(config, mode)
    kts, oms = _sample_curve(eigval_sampler(config, mode), mode, radius)
    cl, el, resid3 = _fit_with_errors(kts, oms, mode.omega0, 3, radius)
    cl2, el2, resid2 = _fit_with_errors(kts, oms, mode.omega0, 2, radius)
    # keep the cubic only when it improves the quadratic residual 10-fold
    if resid3 > 0.1 * resid2:
        cl = np.append(cl2, 0j)
        el = np.append(el2, np.inf)
    ca, ea, _ = fit_zero_curve(refl_sampler(config, mode), mode, 2, radius)
    cb, eb, _ = fit_zero_curve(trans_sampler(config, mode), mode, 2, radius)

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
    th1, th2, th3 = _unit_phases(config, mode, bg["r0"], bg["t0"])
    return ExpansionCoefficients(
        kappa0=mode.kappa0,
        omega0=mode.omega0,
        l1=complex(cl[0]), l2=complex(cl[1]), l3=complex(cl[2]),
        r1=complex(ca[0]), r2=complex(ca[1]),
        t1=complex(cb[0]), t2=complex(cb[1]),
        r0=bg["r0"], t0=bg["t0"],
        eta1=bg.get("eta1", 0.0), eta2=bg.get("eta2", 0.0),
        eta=bg.get("eta", 0.0),
        theta1=th1, theta2=th2, theta3=th3,
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


def convexity_gap(r0, t0, r1, t1) -> float:
    """r0^2 (Re r1)^2 + t0^2 (Re t1)^2 - (r0^2 Re r1 + t0^2 Re t1)^2.

    Nonnegative whenever r0^2 + t0^2 = 1, zero iff Re r1 = Re t1.
    """
    mean = r0**2 * np.real(r1) + t0**2 * np.real(t1)
    return float(r0**2 * np.real(r1) ** 2 + t0**2 * np.real(t1) ** 2 - mean**2)
