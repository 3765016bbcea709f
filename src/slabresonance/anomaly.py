"""Closed-form anomaly lineshapes compared against exact scattering.

The transmission near a guided mode follows a ratio of the fitted zero-curve
polynomials times a slowly varying background.  Case 1 (traveling mode,
nonzero linear coefficient) uses the quotient formula with a linearized
background; case 2 (standing mode) uses the energy-split ratio form, which is
bounded in [0, 1] by construction and reduces to the classic two-parameter
Fano shape when the background is flat and the quadratic coefficients are
real and balanced.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .expansion import ExpansionCoefficients
from .lattice import LatticeConfig, SpectralPoint
from .modes import GuidedMode, omega_root
from .scattering import peak_field, solve_grid

FANO_CONDITION_TOL = 1e-3
# anomaly_window's half-width in units of the largest quadratic coefficient kt^2
WINDOW_FACTOR = 20.0
# enhancement_scaling: rows per zoom level, and levels per kt
ZOOM_POINTS = 81
ZOOM_LEVELS = 3


def formula_case1(coeffs: ExpansionCoefficients, kappa: float, omega) -> np.ndarray:
    """Case-1 transmission model, clipped to [0, 1].

    t0 * |vp + l1 kt + t2 kt^2| / |vp + l1 kt + l2 kt^2|
       * (1 + eta1 vp + eta2 kt),   vp = omega - omega0, kt = kappa - kappa0.

    The linear background factor can exceed 1 far from the expansion center;
    clipping confines the formula to its asymptotic domain.
    """
    c = coeffs
    kt = kappa - c.kappa0
    vp = np.asarray(omega, dtype=float) - c.omega0
    l1 = c.l1.real
    num = np.abs(vp + l1 * kt + c.t2 * kt * kt)
    den = np.abs(vp + l1 * kt + c.l2 * kt * kt)
    if np.any(den < 1e-14):
        raise ConvergenceError(
            "case-1 denominator vanished: expansion center on the zero curve"
        )
    val = c.t0 * num / den * (1.0 + c.eta1 * vp + c.eta2 * kt)
    return np.clip(val, 0.0, 1.0)


def formula_case2(coeffs: ExpansionCoefficients, kappa: float, omega) -> np.ndarray:
    """Case-2 transmission model: square root of the energy-split ratio."""
    c = coeffs
    kt = kappa - c.kappa0
    vp = np.asarray(omega, dtype=float) - c.omega0
    num = c.t0**2 * np.abs(vp + c.t2 * kt * kt) ** 2 * (1.0 + c.eta * vp) ** 2
    den = c.r0**2 * np.abs(vp + c.r2 * kt * kt) ** 2 + num
    with np.errstate(invalid="ignore"):
        out = np.sqrt(num / den)
    # exactly at the mode both terms vanish; continuity gives t0
    out = np.where(den < 1e-28, c.t0, out)
    return out if out.ndim else float(out)


def model_transmission(coeffs: ExpansionCoefficients, kappa: float, omega):
    if coeffs.case == 2:
        return formula_case2(coeffs, kappa, omega)
    return formula_case1(coeffs, kappa, omega)


def peak_dip_locations(coeffs: ExpansionCoefficients, kappa: float):
    """Predicted full-transmission and zero-transmission frequencies.

    The peak rides the zero curve of the scaled reflection, the dip that of
    the scaled transmission; both share the linear coefficient l1.
    """
    c = coeffs
    kt = kappa - c.kappa0
    l1 = c.l1.real
    omega_peak = c.omega0 - l1 * kt - c.r2.real * kt * kt
    omega_dip = c.omega0 - l1 * kt - c.t2.real * kt * kt
    return float(omega_peak), float(omega_dip)


def anomaly_window(coeffs: ExpansionCoefficients, kappa: float):
    """Frequency window centered on the moving anomaly, width ~ kt^2."""
    c = coeffs
    kt = kappa - c.kappa0
    center = c.omega0 - c.l1.real * kt
    half = WINDOW_FACTOR * max(abs(c.l2), abs(c.r2), abs(c.t2)) * kt * kt
    return center - half, center + half


def fano_reduce(coeffs: ExpansionCoefficients, kappa_tilde: float) -> dict:
    """Reduction of the case-2 form to the two-parameter Fano shape.

    Conditions: (1) r2 and t2 real, (2) flat background, (3) balanced
    quadratic coefficients r0^2 r2 + t0^2 t2 = 0.  When all three residuals
    pass the tolerance the width Gamma (at the supplied kt) and asymmetry q
    are returned; otherwise only the residuals are reported.
    """
    c = coeffs
    scale2 = max(abs(c.r2), abs(c.t2), 1e-300)
    residuals = (
        max(abs(c.r2.imag), abs(c.t2.imag)) / scale2,
        abs(c.eta),
        abs(c.r0**2 * c.r2.real + c.t0**2 * c.t2.real) / scale2,
    )
    report = {
        "condition_residuals": residuals,
        "conditions_met": all(r < FANO_CONDITION_TOL for r in residuals),
    }
    if report["conditions_met"]:
        root = np.hypot(c.r2.real * c.r0, c.t2.real * c.t0)
        report["gamma"] = float(2.0 * kappa_tilde**2 * root)
        report["q"] = float(c.t2.real / root)
        report["sigma_const"] = float(c.t0**2)
        report["omega_res"] = c.omega0
    return report


def fano_shape(omega, omega_res: float, gamma: float, q: float,
               const: float = 1.0):
    """Classic two-parameter resonance profile const*(q+f)^2/(1+f^2)."""
    f = (np.asarray(omega, dtype=float) - omega_res) / (gamma / 2.0)
    return const * (q + f) ** 2 / (1.0 + f**2)


def exact_transmission(config: LatticeConfig, kappa: float, omegas):
    """Exact |T|, |R| and transmission phase on a frequency grid.

    One batched solve; a grid point without a unit-incidence solution raises
    its error (WoodAnomalyError, NoPropagatingOrderError, PendantPoleError).
    """
    sol = solve_grid(kappa, omegas, config)
    sol.raise_skipped()
    t, r = sol.transmission, sol.reflection
    # hypot is what abs() of a single complex computes
    return np.hypot(t.real, t.imag), np.hypot(r.real, r.imag), np.angle(t)


def phase_curve(t_abs, raw) -> np.ndarray:
    """Unwrapped transmission phase arg(trans/eigval) = arg T over a grid.

    ``t_abs`` and ``raw`` are the |T| and wrapped phase that
    ``exact_transmission`` returns for the grid.  A near-pi step is genuine
    when the transmission passes through zero between the two samples (the
    phase flips at a real transmission zero); anywhere else it means the grid
    is too coarse to unwrap and raises.
    """
    wrapped = np.angle(np.exp(1j * np.diff(raw)))
    big = np.abs(wrapped) > 0.9 * np.pi
    if np.any(big):
        # inside a notch (transmission well below its background) a near-pi
        # step is the genuine zero-crossing flip; elsewhere it is aliasing
        floor = 0.35 * np.max(t_abs)
        in_notch = np.minimum(t_abs[:-1], t_abs[1:]) < floor
        if np.any(big & ~in_notch):
            raise ConvergenceError(
                "phase unwrapping unsafe: refine the omega grid"
            )
    return np.concatenate([[raw[0]], raw[0] + np.cumsum(wrapped)])


def enhancement_scaling(config: LatticeConfig, mode: GuidedMode, kappa_list):
    """log-log slope of the peak field enhancement against |kt|.

    For each kt the enhancement is maximized by zooming a ``solve_grid`` of
    ZOOM_POINTS frequencies: the first level spans a window around the
    complex resonance (center at its real part, half-width 8 |Im omega|),
    each later one the grid steps on either side of the previous level's
    best row.  The peak is the largest value any of the ZOOM_LEVELS levels
    sampled.  Raises on non-monotone peak data, which indicates a window
    problem rather than a scaling violation.  ``kappa_list`` needs at least
    two |kt|, each nonzero and none repeated; other input raises ValueError.
    """
    kts = np.abs(np.asarray(kappa_list, dtype=float))
    if len(kts) < 2 or not kts.all() or len(set(kts.tolist())) < len(kts):
        raise ValueError("enhancement_scaling needs at least two distinct, "
                         f"nonzero |kt|, got {list(kappa_list)}")
    peaks = []
    om_seed = complex(mode.omega0)
    anchor = mode.nullvector
    for kt in kappa_list:
        kappa = mode.kappa0 + kt
        samp = omega_root(kappa, om_seed, config, anchor)
        width = max(abs(samp.omega.imag), 1e-12)
        grid = samp.omega.real + np.linspace(-8.0 * width, 8.0 * width, ZOOM_POINTS)
        peak = -np.inf
        for _ in range(ZOOM_LEVELS):
            sol = solve_grid(kappa, grid, config)
            sol.raise_skipped()
            vals = peak_field(SpectralPoint(kappa, grid), config, sol.psi)
            i = int(np.argmax(vals))
            peak = max(peak, vals[i])
            grid = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, ZOOM_POINTS - 1)],
                               ZOOM_POINTS)
        peaks.append(peak)
    order = np.argsort(kts)
    sorted_peaks = np.asarray(peaks)[order]
    # the resonant peak must grow as |kt| shrinks
    if np.any(np.diff(sorted_peaks) >= 0):
        raise ConvergenceError(
            "enhancement peaks not monotone in |kt|: refine the omega window"
        )
    slope = float(np.polyfit(np.log(kts), np.log(peaks), 1)[0])
    return slope, list(zip([float(k) for k in kappa_list], [float(p) for p in peaks]))

