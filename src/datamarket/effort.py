"""Effort-to-variance models for strategic data sources.

A source controls the standard deviation of its reported sample through
costly effort e via a function sigma(e) that is strictly decreasing, convex,
and twice continuously differentiable.  Quadratic-penalty contracts make the
source's optimal effort depend only on the *total* quality weight a_total it
receives across all buyers, through the first-order condition

    2 * a_total * sigma(e) * sigma'(e) + 1 = 0.

This module provides the two concrete families below, an extension seam for
custom families, the induced effort map, its derivative, and the incentive
range [a_lower, a_upper] on which the map is meaningful.

    exponential:    sigma(e) = sigma0 * exp(-lam * e)
    inverse_power:  sigma(e) = sigma0 * (1 + e) ** -k

Each family is written once, as its entry in `_CLOSED_FORMS`; `EffortMap`
evaluates it for many sources at once, from columns of their parameters, and
the scalar API gives the same bits.

All functions are pure and the model values immutable, so unrestricted
concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, IncentiveRangeError

#: Relative tolerance of the bracketed root-finder on the effort variable.
ROOT_RTOL = 1e-12

_VALIDATION_GRID = 33  # sample points used to vet custom families


@dataclass(frozen=True)
class EffortSet:
    """Feasible efforts: [0, inf) when unbounded, [0, e_max] when bounded."""

    kind: str
    e_max: float | None = None

    def __post_init__(self):
        if self.kind not in ("unbounded", "bounded"):
            raise DomainError(f"unknown effort-set kind {self.kind!r}")
        if self.kind == "bounded":
            if self.e_max is None or not math.isfinite(self.e_max) or self.e_max <= 0:
                raise DomainError("bounded effort set requires finite e_max > 0")
        elif self.e_max is not None:
            raise DomainError("unbounded effort set must not carry e_max")

    @property
    def bounded(self) -> bool:
        return self.kind == "bounded"

    def contains(self, effort: float) -> bool:
        if not math.isfinite(effort) or effort < 0:
            return False
        return not self.bounded or effort <= self.e_max


UNBOUNDED = EffortSet("unbounded")


class _ClosedFormVariance:
    """A family's methods, read from its _CLOSED_FORMS entry (sigma0, rate)."""

    def __post_init__(self):
        form = _CLOSED_FORMS[type(self)]
        for name, value in zip(("sigma0", form.rate), vars(self).values()):
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"{form.name} family requires {name} > 0")

    def sigma(self, e: float) -> float:
        return float(_CLOSED_FORMS[type(self)].sigma(e, *vars(self).values()))

    def sigma_prime(self, e: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as Python floats give
            return float(_CLOSED_FORMS[type(self)].sigma_prime(e, *vars(self).values()))

    def sigma_second(self, e: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(_CLOSED_FORMS[type(self)].sigma_second(e, *vars(self).values()))


@dataclass(frozen=True)
class ExponentialVariance(_ClosedFormVariance):
    """sigma(e) = sigma0 * exp(-lam * e)."""

    sigma0: float
    lam: float


@dataclass(frozen=True)
class InversePowerVariance(_ClosedFormVariance):
    """sigma(e) = sigma0 * (1 + e) ** -k."""

    sigma0: float
    k: float


def _incentive(sigma, sigma_prime):
    """-1/(2*sigma*sigma'): by the first-order condition, the total weight
    at which an effort of these sigma and sigma' is optimal, on floats or on
    arrays alike.  Where 2*sigma*sigma' is 0, floats raise ZeroDivisionError
    and arrays give +-inf (under the caller's errstate)."""
    return -1.0 / (2.0 * sigma * sigma_prime)


@dataclass(frozen=True)
class _ClosedForm:
    """A family's class, its document name and rate-field name, and sigma,
    sigma', sigma'', the effort map and the incentive bound over (e or
    a_total, sigma0, rate), each on floats or on arrays alike.  All are numpy
    ufuncs: on floats these run the array loops, so scalar and array
    evaluations agree bit for bit."""

    cls: type
    name: str
    rate: str
    sigma: Callable
    sigma_prime: Callable
    sigma_second: Callable
    effort: Callable

    def incentive(self, e, sigma0, rate):
        return _incentive(self.sigma(e, sigma0, rate), self.sigma_prime(e, sigma0, rate))


#: Every closed-form family, by class.
_CLOSED_FORMS = {form.cls: form for form in (
    _ClosedForm(
        ExponentialVariance, "exponential", "lambda",
        sigma=lambda e, sigma0, lam: sigma0 * np.exp(-lam * e),
        sigma_prime=lambda e, sigma0, lam: -lam * (sigma0 * np.exp(-lam * e)),
        sigma_second=lambda e, sigma0, lam: lam * lam * (sigma0 * np.exp(-lam * e)),
        # root of 2*a*sigma*sigma' + 1 = 0:  exp(-2*lam*e) = 1/(2*a*lam*sigma0^2)
        effort=lambda a, sigma0, lam: np.log(2.0 * a * lam * np.square(sigma0)) / (2.0 * lam)),
    _ClosedForm(
        InversePowerVariance, "inverse_power", "k",
        sigma=lambda e, sigma0, k: sigma0 * np.power(1.0 + e, -k),
        sigma_prime=lambda e, sigma0, k: -k * sigma0 * np.power(1.0 + e, -k - 1.0),
        sigma_second=lambda e, sigma0, k: k * (k + 1.0) * sigma0 * np.power(1.0 + e, -k - 2.0),
        # (1 + e) ** (2k + 1) = 2 * a * k * sigma0^2
        effort=lambda a, sigma0, k: np.power(2.0 * a * k * np.square(sigma0),
                                             1.0 / (2.0 * k + 1.0)) - 1.0),
)}
#: The closed forms in family-code order: EffortMap's code of a source's
#: family is its position here, and _CUSTOM marks a custom family.
_FORMS = tuple(_CLOSED_FORMS.values())
_CODES = {form.cls: code for code, form in enumerate(_FORMS)}
_CUSTOM = len(_FORMS)


@dataclass(frozen=True)
class CustomVariance:
    """Extension seam: a family given by callables sigma, sigma', sigma''.

    No closed-form effort map; `effort_response` uses the bracketed
    root-finder.  The callables are vetted numerically at model construction
    (positivity, strict decrease, convexity on a sample grid).
    """

    sigma_fn: Callable[[float], float]
    sigma_prime_fn: Callable[[float], float]
    sigma_second_fn: Callable[[float], float] = field(repr=False, default=None)

    def sigma(self, e: float) -> float:
        return float(self.sigma_fn(e))

    def sigma_prime(self, e: float) -> float:
        return float(self.sigma_prime_fn(e))

    def sigma_second(self, e: float) -> float:
        return float(self.sigma_second_fn(e))


@dataclass(frozen=True)
class EffortVarianceModel:
    """A source's sigma family, its feasible effort set, and the incentive
    range [a_lower, a_upper] they imply, set once at construction: the
    first-order condition gives a_lower = -1/(2*sigma(0)*sigma'(0)) and, for
    bounded sets, a_upper at e_max (+inf otherwise).  A bound that is not
    finite (2*sigma*sigma' underflowing to 0, or NaN) raises DomainError."""

    family: ExponentialVariance | InversePowerVariance | CustomVariance
    effort_set: EffortSet = UNBOUNDED
    incentive_bounds: IncentiveBounds = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.family, CustomVariance):
            _vet_custom_family(self.family, self.effort_set)
        object.__setattr__(self, "incentive_bounds", IncentiveBounds(
            _incentive_at(self, 0.0), _incentive_at(self, self.effort_set.e_max)))

    def sigma(self, e: float) -> float:
        return self.family.sigma(e)

    def sigma_prime(self, e: float) -> float:
        return self.family.sigma_prime(e)

    def sigma_second(self, e: float) -> float:
        return self.family.sigma_second(e)

    @property
    def family_name(self) -> str:
        form = _CLOSED_FORMS.get(type(self.family))
        return form.name if form else "custom"


def _incentive_at(model: EffortVarianceModel, e: float | None) -> float:
    """The model's _incentive at effort e: +inf at e None (no cap),
    DomainError where it is not finite."""
    if e is None:
        return math.inf
    try:
        bound = _incentive(model.sigma(e), model.sigma_prime(e))
    except ZeroDivisionError:  # 2*sigma*sigma' underflowed to 0
        bound = math.inf
    if not math.isfinite(bound):
        raise DomainError(f"incentive bound {bound} at effort {e} is not finite")
    return bound


def exponential_model(sigma0: float, lam: float,
                      effort_set: EffortSet = UNBOUNDED) -> EffortVarianceModel:
    return EffortVarianceModel(ExponentialVariance(sigma0, lam), effort_set)


def inverse_power_model(sigma0: float, k: float,
                        effort_set: EffortSet = UNBOUNDED) -> EffortVarianceModel:
    return EffortVarianceModel(InversePowerVariance(sigma0, k), effort_set)


def _vet_custom_family(family: CustomVariance, effort_set: EffortSet) -> None:
    if family.sigma_second_fn is None:
        raise DomainError("custom family requires sigma'' callable")
    hi = effort_set.e_max if effort_set.bounded else 8.0
    for i in range(_VALIDATION_GRID):
        e = hi * i / (_VALIDATION_GRID - 1)
        s, sp, spp = family.sigma(e), family.sigma_prime(e), family.sigma_second(e)
        if not (s > 0 and math.isfinite(s)):
            raise DomainError(f"custom sigma must be positive and finite (sigma({e})={s})")
        if not sp < 0:
            raise DomainError(f"custom sigma must be strictly decreasing (sigma'({e})={sp})")
        if spp < -1e-12 * abs(sp):
            raise DomainError(f"custom sigma must be convex (sigma''({e})={spp})")


@dataclass(frozen=True)
class IncentiveBounds:
    """Range of total quality weights over which the effort map is meaningful.

    a_lower is the weight at which a source is just willing to exert zero
    effort; a_upper (finite only for bounded effort sets) is the weight at
    which the maximum effort is reached.
    """

    a_lower: float
    a_upper: float

    def __post_init__(self):
        if not (self.a_lower > 0 and math.isfinite(self.a_lower)):
            raise DomainError("a_lower must be positive and finite")
        if not self.a_upper > self.a_lower:
            raise DomainError("a_upper must exceed a_lower")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.a_upper)


def incentive_bounds(model: EffortVarianceModel) -> IncentiveBounds:
    """[a_lower, a_upper] for a model (see EffortVarianceModel)."""
    return model.incentive_bounds


def _foc(model: EffortVarianceModel, a_total: float, e: float) -> float:
    return 2.0 * a_total * model.sigma(e) * model.sigma_prime(e) + 1.0


def _foc_prime(model: EffortVarianceModel, a_total: float, e: float) -> float:
    sp = model.sigma_prime(e)
    return 2.0 * a_total * (sp * sp + model.sigma(e) * model.sigma_second(e))


def _solve_foc(model: EffortVarianceModel, a_total: float) -> float:
    """Bracketed bisection refined by Newton steps; the residual is strictly
    increasing in e, so the bracket is safe."""
    lo = 0.0
    if model.effort_set.bounded:
        hi = model.effort_set.e_max
    else:
        hi = 1.0
        while _foc(model, a_total, hi) < 0.0:
            hi *= 2.0
            if hi > 1e12:  # unreachable for in-range a_total
                raise DomainError("failed to bracket the effort response")
    e = 0.5 * (lo + hi)
    for _ in range(200):
        r = _foc(model, a_total, e)
        if r > 0.0:
            hi = e
        else:
            lo = e
        step = r / _foc_prime(model, a_total, e)
        candidate = e - step
        if lo < candidate < hi:
            e_next = candidate
        else:
            e_next = 0.5 * (lo + hi)
        if abs(e_next - e) <= ROOT_RTOL * max(1.0, abs(e_next)):
            return e_next
        e = e_next
    return e


class EffortMap:
    """The effort map and sigma of n sources, over columns of their
    parameters: `family` codes (positions in _FORMS, _CUSTOM for a custom
    family), `sigma0`, `rate` and `e_max` (inf for an unbounded set), and
    `custom`, each custom row's model.  The incentive bounds `a_lower` and
    `a_upper` are computed at construction with the models' own _incentive,
    in one pass per family over the arrays and through each custom row's
    callables, so they equal the models' bits; a row whose model would raise
    DomainError raises it.  An evaluation takes values and the indices of
    their sources (all, in order, when None).  Custom families go through
    the bracketed root-finder, the only per-point loop.  The six columns are
    read-only, the four given ones copied from the caller's arrays."""

    def __init__(self, family, sigma0, rate, e_max, custom=None):
        self.family = np.array(family, dtype=np.int8)
        self.sigma0, self.rate, self.e_max = (np.array(v, dtype=float)
                                              for v in (sigma0, rate, e_max))
        self.custom = dict(custom or {})
        # the checks of the family, its EffortSet and IncentiveBounds
        ok = (self.family == _CUSTOM) | ((self.sigma0 > 0) & (self.rate > 0) & (self.e_max > 0)
                        & np.isfinite(self.sigma0) & np.isfinite(self.rate))
        # a_lower at effort 0 of every row, a_upper at each finite e_max
        n, capped = len(self.family), np.flatnonzero(np.isfinite(self.e_max))
        with np.errstate(all="ignore"):  # a bound that is not finite fails the check below
            bounds = self._each(np.concatenate((np.zeros(n), self.e_max[capped])),
                                np.concatenate((np.arange(n), capped)), "incentive", _incentive_at)
        self.a_lower, self.a_upper = bounds[:n], np.where(np.isinf(self.e_max), math.inf, np.nan)
        self.a_upper[capped] = bounds[n:]
        ok &= (np.isfinite(self.a_lower) & (self.a_lower > 0) & (self.a_upper > self.a_lower)
               & (np.isfinite(self.a_upper) | np.isinf(self.e_max)))
        if not ok.all():
            k = int(np.argmin(ok))
            self.model(k)  # raises the DomainError of source k
            raise DomainError(f"effort parameters of source {k} are out of range")
        for column in (self.family, self.sigma0, self.rate, self.e_max, self.a_lower, self.a_upper):
            column.flags.writeable = False

    @classmethod
    def of(cls, models) -> EffortMap:
        """The map of a sequence of models (each custom one kept as it is)."""
        models = tuple(models)
        codes = [_CODES.get(type(m.family), _CUSTOM) for m in models]
        params = [tuple(vars(m.family).values()) if code != _CUSTOM else (1.0, 1.0)
                  for m, code in zip(models, codes)]
        return cls(codes, [p[0] for p in params], [p[1] for p in params],
                   [m.effort_set.e_max if m.effort_set.bounded else math.inf for m in models],
                   {k: m for k, (m, code) in enumerate(zip(models, codes)) if code == _CUSTOM})

    def model(self, k: int) -> EffortVarianceModel:
        """Source k's model: a custom family's own, else built from the columns."""
        if k in self.custom:
            return self.custom[k]
        e_max = float(self.e_max[k])
        return EffortVarianceModel(
            _FORMS[self.family[k]].cls(float(self.sigma0[k]), float(self.rate[k])),
            UNBOUNDED if e_max == math.inf else EffortSet("bounded", e_max=e_max))

    def _each(self, values: np.ndarray, index, form: str, custom) -> np.ndarray:
        """The closed forms' `form` ("sigma", "effort" or "incentive"), or custom(model, value)."""
        index = np.arange(len(self.family)) if index is None else np.asarray(index)
        families = self.family[index]
        out = np.empty(len(values))
        for code, forms in enumerate(_FORMS):
            rows = np.flatnonzero(families == code)
            at = index[rows]
            out[rows] = getattr(forms, form)(values[rows], self.sigma0[at], self.rate[at])
        for k in np.flatnonzero(families == _CUSTOM).tolist():
            out[k] = custom(self.custom[int(index[k])], float(values[k]))
        return out

    def sigma(self, efforts, index=None) -> np.ndarray:
        return self._each(np.asarray(efforts, dtype=float), index, "sigma",
                          EffortVarianceModel.sigma)

    def _snap(self, a_total, index, clamp: bool, slack: float):
        """(totals, in range, a_lower, a_upper) over `index`: totals within
        slack * max(1, a_lower) outside an incentive bound snapped onto it,
        or, with clamp (the bounded solver's projection), all projected onto
        [a_lower, a_upper]; in range where then positive, finite and inside."""
        values = np.array(a_total, dtype=float, ndmin=1)
        at = slice(None) if index is None else np.asarray(index)
        lower, upper = self.a_lower[at], self.a_upper[at]
        margin = slack * np.maximum(1.0, lower)
        values = np.where((lower - margin <= values) & (values < lower), lower, values)
        values = np.where((upper < values) & (values <= upper + margin), upper, values)
        if clamp:
            values = np.minimum(np.maximum(values, lower), upper)
        ok = np.isfinite(values) & (values > 0) & (values >= lower) & (values <= upper)
        return values, ok, lower, upper

    def in_range(self, a_total, index=None, *, clamp: bool = False,
                 slack: float = 0.0) -> np.ndarray:
        """Whether efforts() evaluates each total (False where it raises)."""
        return self._snap(a_total, index, clamp, slack)[1]

    def efforts(self, a_total, index=None, *, clamp: bool = False,
                slack: float = 0.0) -> np.ndarray:
        """Efforts induced by totals a_total (see effort_response).  Totals
        within slack * max(1, a_lower) outside an incentive bound snap onto
        it; clamp (the bounded solver's projection) projects all onto
        [a_lower, a_upper].  Then the first total out of range raises."""
        values, ok, lower, upper = self._snap(a_total, index, clamp, slack)
        if not ok.all():
            k = int(np.argmin(ok))
            _raise_out_of_range(float(values[k]), float(lower[k]), float(upper[k]))
        efforts = self._each(values, index, "effort", _solve_foc)
        # guard round-off at the ends of the range: a tiny negative at
        # a_total == a_lower, an overshoot past e_max at a_total == a_upper
        efforts[(-1e-15 < efforts) & (efforts < 0.0)] = 0.0
        return np.minimum(efforts, self.e_max if index is None else self.e_max[index])


def _raise_out_of_range(a_total: float, a_lower: float, a_upper: float):
    if not (math.isfinite(a_total) and a_total > 0):
        raise DomainError(f"a_total must be positive and finite, got {a_total}")
    if a_total < a_lower:
        raise IncentiveRangeError(f"a_total={a_total} is below the minimum incentive "
                                  f"a_lower={a_lower}", bound="lower", limit=a_lower, value=a_total)
    raise IncentiveRangeError(f"a_total={a_total} exceeds the saturation incentive "
                              f"a_upper={a_upper}", bound="upper", limit=a_upper, value=a_total)


def effort_response(model: EffortVarianceModel, a_total: float) -> float:
    """Effort induced by total quality weight a_total.

    Returns the unique root e of 2*a_total*sigma(e)*sigma'(e) + 1 = 0 on the
    feasible effort set.  Calls outside [a_lower, a_upper] raise
    IncentiveRangeError; there is no silent clamping here (only the bounded
    equilibrium solver clamps, explicitly).
    """
    return float(EffortMap.of((model,)).efforts(a_total)[0])


def effort_response_derivative(model: EffortVarianceModel, a_total: float) -> float:
    """d(effort)/d(a_total), strictly positive on the incentive range.

    Implicit differentiation of the first-order condition gives
    1 / (2 * a_total^2 * (sigma'(e)^2 + sigma(e) * sigma''(e))) at e = effort_response.
    """
    return 1.0 / (a_total * _foc_prime(model, a_total, effort_response(model, a_total)))


def variance_at(model: EffortVarianceModel, effort: float) -> float:
    """sigma(effort)^2, for effort inside the feasible set."""
    if not model.effort_set.contains(effort):
        raise DomainError(
            f"effort {effort} outside the feasible set {model.effort_set}")
    s = model.sigma(effort)
    return s * s
