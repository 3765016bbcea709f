"""Discrete wave model: uniform 2D lattice with a periodic defect strip.

The ambient medium is the square lattice with equation
``omega^2 u(m,n) = 4 u(m,n) - u(m+-1,n) - u(m,n+-1)``, so plane waves
``exp(i kappa m + i eta n)`` obey ``omega^2 = 4 sin^2(kappa/2) + 4 sin^2(eta/2)``.
The slab is an x-periodic strip of on-site potential defects, optionally
dressed with pendant sites that are eliminated exactly into a real rational
effective potential.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, PendantPoleError, SlabError, WoodAnomalyError

DISPERSION_TOL = 1e-12
WOOD_GUARD = 1e-9
PENDANT_POLE_TOL = 1e-9


@dataclass(frozen=True)
class Defect:
    """On-site potential shift d at lattice site (x, z), 0 <= x < period."""

    x: int
    z: int
    d: float


@dataclass(frozen=True)
class Pendant:
    """Extra site coupled to defect ``host`` with on-site term mu, coupling g."""

    host: int
    mu: float
    g: float


def _number(data, key, where, integer=False):
    """``data[key]`` as an int or a float; a bool, a string or a fractional
    int, which a cast would quietly turn into one, is refused."""
    value = data[key]
    if isinstance(value, (bool, str)) or integer and value != int(value):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{where}: {key} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


@dataclass(frozen=True)
class LatticeConfig:
    """Periodic slab: cell period, defect sites, pendant sites.

    All potentials and couplings are real (lossless structure).  ``tunable``
    optionally names one scalar parameter by a dotted path such as
    ``"defects.2.d"``, ``"pendants.0.g"`` or ``"pendants.0.mu"``.
    """

    period: int
    defects: tuple[Defect, ...]
    pendants: tuple[Pendant, ...] = ()
    tunable: str | None = None

    def __post_init__(self):
        if self.period < 1:
            raise ConfigError(f"period must be >= 1, got {self.period}")
        if not self.defects:
            raise ConfigError("config needs at least one defect site")
        seen = set()
        for j, df in enumerate(self.defects):
            if not 0 <= df.x < self.period:
                raise ConfigError(f"defect {j}: x={df.x} outside [0, {self.period})")
            if (df.x, df.z) in seen:
                raise ConfigError(f"defect {j}: duplicate site ({df.x}, {df.z})")
            seen.add((df.x, df.z))
            if not np.isfinite(df.d) or isinstance(df.d, complex):
                raise ConfigError(f"defect {j}: potential must be real and finite")
        for j, pn in enumerate(self.pendants):
            if not 0 <= pn.host < len(self.defects):
                raise ConfigError(f"pendant {j}: host index {pn.host} invalid")
            if not (np.isfinite(pn.mu) and np.isfinite(pn.g)):
                raise ConfigError(f"pendant {j}: mu and g must be finite")
        if self.tunable is not None:
            self.tunable_value  # validates the path

    # -- tunable parameter handle -------------------------------------------

    def _tunable_parts(self):
        if self.tunable is None:
            raise ConfigError("config has no tunable parameter")
        try:
            kind, idx, attr = self.tunable.split(".")
            idx = int(idx)
        except ValueError as exc:
            raise ConfigError(f"bad tunable path {self.tunable!r}") from exc
        if kind == "defects" and attr == "d" and 0 <= idx < len(self.defects):
            return kind, idx, attr
        if kind == "pendants" and attr in ("mu", "g") and 0 <= idx < len(self.pendants):
            return kind, idx, attr
        raise ConfigError(f"tunable path {self.tunable!r} does not resolve")

    @property
    def tunable_value(self) -> float:
        kind, idx, attr = self._tunable_parts()
        return getattr(getattr(self, kind)[idx], attr)

    def with_tunable(self, value: float) -> "LatticeConfig":
        """Copy of the config with the tunable parameter set to ``value``."""
        kind, idx, attr = self._tunable_parts()
        items = list(getattr(self, kind))
        items[idx] = replace(items[idx], **{attr: float(value)})
        return replace(self, **{kind: tuple(items)})

    # -- JSON interface -------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "LatticeConfig":
        try:
            defects = tuple(
                Defect(*(_number(d, key, f"defect {j}", key != "d") for key in "xzd"))
                for j, d in enumerate(data["defects"])
            )
            pendants = tuple(
                Pendant(*(_number(p, key, f"pendant {j}", key == "host")
                          for key in ("host", "mu", "g")))
                for j, p in enumerate(data.get("pendants", []))
            )
            tunable = data.get("tunable")
            if tunable is not None:
                tunable = tunable["path"] if isinstance(tunable, dict) else str(tunable)
            return cls(_number(data, "period", "config", True), defects, pendants,
                       tunable)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config data: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "LatticeConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out = {
            "period": self.period,
            "defects": [{"x": d.x, "z": d.z, "d": d.d} for d in self.defects],
            "pendants": [{"host": p.host, "mu": p.mu, "g": p.g} for p in self.pendants],
        }
        if self.tunable is not None:
            out["tunable"] = {"path": self.tunable}
        return out

    # -- convenience views, built once per config and read-only --------------

    @cached_property
    def xs(self) -> np.ndarray:
        return _read_only([d.x for d in self.defects])

    @cached_property
    def zs(self) -> np.ndarray:
        return _read_only([d.z for d in self.defects])

    @cached_property
    def ds(self) -> np.ndarray:
        return _read_only([d.d for d in self.defects])

    @cached_property
    def _identity(self) -> np.ndarray:
        return _read_only(np.eye(len(self.defects), dtype=complex))

    @cached_property
    def _site_offsets(self):
        """x_j - x_k and |z_j - z_k| over all pairs of defect sites."""
        return (_read_only(self.xs[:, None] - self.xs[None, :]),
                _read_only(np.abs(self.zs[:, None] - self.zs[None, :])))


def _read_only(values) -> np.ndarray:
    arr = np.array(values)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpectralPoint:
    """A (kappa, omega) pair; either entry may be complex.

    ``omega`` may also be an array of frequencies at one kappa, complex ones
    too: the arrays ``evaluate_point`` derives then carry its leading axis.
    For ``evaluate_point`` and what is built on it (``interaction_matrix``,
    ``scattering.eigen_branch``), ``kappa`` may be an array too, one entry
    per frequency of a 1-D ``omega``.
    """

    kappa: complex
    omega: complex


def order_wavenumber(kappa_p, omega):
    """z-wavenumber eta for diffraction orders; array arguments broadcast.

    Solves ``4 sin^2(kappa_p/2) + 4 sin^2(eta/2) = omega^2`` on the branch
    that is outgoing for propagating orders and decaying (Im eta > 0) for
    evanescent ones, with the propagating sign fixed by the omega + i0 limit.
    The three regions of w = omega^2/4 - sin^2(kappa_p/2) get separate
    closed forms so that each is analytic across the real axis.  The squares
    go through ``np.power``, which rounds like scalar complex arithmetic, so
    an entry of an array comes out with the same bits as a single value.
    """
    w = (np.power(np.divide(omega, 2.0, dtype=complex), 2)
         - np.power(np.sin(np.divide(kappa_p, 2.0, dtype=complex)), 2))
    root = np.sqrt(w)
    eta = np.where(w.real <= 0.0, 2j * np.arcsinh(np.sqrt(-w)), 2.0 * np.arcsin(root))
    above = w.real >= 1.0
    if any(above.flat):
        eta[above] = np.pi + 2j * np.arccosh(root[above])
    half = np.sin(eta / 2.0)
    # relative to max(1, |w|), as rounding leaves a few ulp of w; NaN fails
    resid = 4.0 * (np.abs(half * half - w) / np.maximum(1.0, np.abs(w))).max()
    if not resid <= DISPERSION_TOL:
        raise SlabError(
            f"dispersion residual {resid:.2e} exceeds {DISPERSION_TOL:.0e}"
        )
    return eta[()]


def order_arrays(kappa: complex, omega, period: int):
    """kappa_p, eta_p and 1/(2i sin eta_p) for all orders p in 0..period-1.

    An array of frequencies gives ``eta`` and the last entry a leading axis;
    ``kappa_p`` depends on kappa alone and has shape (period,), or a leading
    axis too where kappa has one entry per frequency.
    """
    p = np.arange(period)
    kappa_p = np.asarray(kappa, dtype=complex)[..., None] + 2.0 * np.pi * p / period
    eta = order_wavenumber(kappa_p, np.asarray(omega)[..., None])
    sin_eta = np.sin(eta)
    if any(abs(sin_eta.ravel()) < 1e-14):
        raise WoodAnomalyError("sin(eta_p) vanishes: order at a branch point")
    return kappa_p, eta, 1.0 / (2j * sin_eta)


def _order_variable(kappa, omega, period):
    """Real kappa_p and w_p = omega^2/4 - sin^2(kappa_p/2) at real points.

    An array of frequencies gives ``w`` a leading axis.
    """
    kappa_p = np.real(kappa) + 2.0 * np.pi * np.arange(period) / period
    w = (np.real(np.asarray(omega))[..., None] / 2.0) ** 2 - np.sin(kappa_p / 2.0) ** 2
    return kappa_p, w


def _near_branch_point(w):
    """True where some order's w is within WOOD_GUARD of a branch point."""
    return ((np.abs(w) < WOOD_GUARD) | (np.abs(w - 1.0) < WOOD_GUARD)).any(axis=-1)


def _only_order_zero(propagating):
    return propagating[..., 0] & (propagating.sum(axis=-1) == 1)


def _hits_pole(denom, mu):
    """True where omega^2 - mu = ``denom`` puts omega on a pendant's pole."""
    return abs(denom) < PENDANT_POLE_TOL * (1.0 + abs(mu))


def propagating_orders(point: SpectralPoint, period: int) -> np.ndarray:
    """Mask of the propagating orders p = 0..period-1 at a real point.

    An array of real frequencies gives the mask a leading axis.  Raises
    WoodAnomalyError when any order is within 1e-9 of a branch point
    (w in {0, 1}); the analysis assumes a fixed number of propagating orders.
    """
    kappa, omega = point.kappa, point.omega
    if np.imag(kappa) != 0 or np.any(np.imag(omega)):
        raise ValueError("propagating_orders expects real kappa and omega")
    _, w = _order_variable(kappa, omega, period)
    near = _near_branch_point(w)
    if near.any():
        raise WoodAnomalyError(
            f"order within {WOOD_GUARD:.0e} of its branch point at "
            f"kappa={kappa}, omega={np.asarray(omega)[near].flat[0]}"
        )
    return (w > 0) & (w < 1)


OK = "ok"
WOOD_ANOMALY = "wood-anomaly"
NO_PROPAGATING_ORDER = "no-propagating-order"
PENDANT_POLE = "pendant-pole"


def grid_status(kappa: float, omegas, config: LatticeConfig) -> np.ndarray:
    """Status of each real frequency at one real kappa, before any solve.

    ``OK``, or why the point has no unit-incidence solution: an order within
    1e-9 of its branch point (``WOOD_ANOMALY``), not exactly order 0
    propagating (``NO_PROPAGATING_ORDER``) or omega^2 on a pendant resonance
    (``PENDANT_POLE``).  The first reason in that list wins, as in the order
    ``solve_scattering`` checks them.
    """
    omegas = np.asarray(omegas, dtype=float)
    _, w = _order_variable(kappa, omegas, config.period)
    status = np.full(omegas.shape, OK, dtype=object)
    om2 = np.asarray(omegas, dtype=complex) ** 2
    for pn in config.pendants:
        status[_hits_pole(om2 - pn.mu, pn.mu)] = PENDANT_POLE
    status[~_only_order_zero((w > 0) & (w < 1))] = NO_PROPAGATING_ORDER
    status[_near_branch_point(w)] = WOOD_ANOMALY
    return status


def wood_distance(point: SpectralPoint, period: int) -> float:
    """Smallest distance of any order's w to a branch point {0, 1}."""
    _, w = _order_variable(point.kappa, point.omega, period)
    return float(min(np.min(np.abs(w)), np.min(np.abs(w - 1.0))))


def greens_function(orders, period: int, m: int, n: int) -> complex:
    """Quasi-periodic lattice Green's function G(m, n).

    Kernel of ``(omega^2 - L0)^(-1)`` with outgoing/decaying orders, for the
    quasi-periodic delta source at the origin:

        G(m, n) = (1/N) sum_p exp(i kappa_p m) exp(i eta_p |n|) / (2i sin eta_p)

    ``orders`` is the ``order_arrays`` triple at the spectral point.
    """
    kappa_p, eta, tp = orders
    return complex(
        np.sum(np.exp(1j * kappa_p * m) * np.exp(1j * eta * abs(n)) * tp) / period
    )


def effective_potential(omega, config: LatticeConfig,
                        tunable_values=None) -> np.ndarray:
    """Diagonal V_eff(omega) on defect sites; pendants eliminated exactly.

    Each pendant contributes ``g^2 / (omega^2 - mu)`` to its host, which keeps
    V_eff real on the real axis (lossless) and rational in omega^2.  An array
    of frequencies gives the result a leading axis.

    ``tunable_values``, one per entry of omega's leading axis, sets the
    config's tunable parameter row by row: each row has the bits of
    ``config.with_tunable(s)`` at its frequencies.
    """
    om2 = np.asarray(omega, dtype=complex) ** 2
    v = np.empty(om2.shape + config.ds.shape, dtype=complex)
    v[...] = config.ds
    pendants = config.pendants
    if tunable_values is not None:
        kind, idx, attr = config._tunable_parts()
        values = np.reshape(np.asarray(tunable_values, dtype=float),
                            (-1,) + (1,) * (om2.ndim - 1))
        if kind == "defects":
            v[..., idx] = values
        else:
            pendants = list(pendants)
            pendants[idx] = replace(pendants[idx], **{attr: values})
    for pn in pendants:
        denom = om2 - pn.mu
        hit = _hits_pole(denom, pn.mu)
        if np.count_nonzero(hit):
            mu = np.broadcast_to(pn.mu, hit.shape)[hit].flat[0]
            raise PendantPoleError(
                f"omega^2 = {om2[hit].flat[0]} hits pendant resonance mu = {mu}"
            )
        v[..., pn.host] += pn.g**2 / denom
    return v


def greens_matrix(orders, config: LatticeConfig) -> np.ndarray:
    """Matrix of Green's values between all defect-site pairs.

    ``orders`` is the ``(kappa_p, eta, 1/(2i sin eta))`` triple of
    ``order_arrays`` at the spectral point; a leading frequency axis of
    ``eta``, and of ``kappa_p`` if it has one, carries through.
    """
    kappa_p, eta, tp = orders
    dx, dz = config._site_offsets
    # in place: a batch's (rows, orders, k, k) temporaries exist once
    phases = 1j * eta[..., :, None, None] * dz
    phases += 1j * kappa_p[..., :, None, None] * dx
    np.exp(phases, out=phases)
    return np.einsum("...p,...pjk->...jk", tp, phases) / config.period


def evaluate_point(point: SpectralPoint, config: LatticeConfig,
                   tunable_values=None):
    """Everything a spectral point yields, each piece computed once.

    Returns ``(orders, v_eff, a)``: the order arrays of ``order_arrays``,
    the diagonal V_eff on the defect sites and A = I - G V_eff.  With an
    array of frequencies every piece but ``kappa_p`` has a leading axis, and
    ``kappa_p`` too where kappa has one entry per frequency.
    ``tunable_values`` are as in ``effective_potential``; G does not depend
    on them and is built once for all rows.
    """
    orders = order_arrays(point.kappa, point.omega, config.period)
    g = greens_matrix(orders, config)
    v = effective_potential(point.omega, config, tunable_values)
    return orders, v, config._identity - g * v[..., None, :]


def interaction_matrix(point: SpectralPoint, config: LatticeConfig,
                       tunable_values=None) -> np.ndarray:
    """Finite interaction matrix A = I - G V_eff on the defect sites.

    The total field psi on defect sites solves ``A psi = phi_inc``; A is
    analytic in (kappa, omega) away from branch points and pendant poles.
    ``tunable_values`` are as in ``effective_potential``.
    """
    return evaluate_point(point, config, tunable_values)[2]
