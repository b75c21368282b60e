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

Each closed form is written once, as numpy ufuncs; `EffortMap` evaluates it
for many sources at once, and the scalar API gives the same bits.

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


@dataclass(frozen=True)
class ExponentialVariance:
    """sigma(e) = sigma0 * exp(-lam * e)."""

    sigma0: float
    lam: float

    def __post_init__(self):
        if not (self.sigma0 > 0 and math.isfinite(self.sigma0)):
            raise DomainError("exponential family requires sigma0 > 0")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise DomainError("exponential family requires lambda > 0")

    def sigma(self, e: float) -> float:
        return _sigma_at(self, e)

    def sigma_prime(self, e: float) -> float:
        return -self.lam * self.sigma(e)

    def sigma_second(self, e: float) -> float:
        return self.lam * self.lam * self.sigma(e)


@dataclass(frozen=True)
class InversePowerVariance:
    """sigma(e) = sigma0 * (1 + e) ** -k."""

    sigma0: float
    k: float

    def __post_init__(self):
        if not (self.sigma0 > 0 and math.isfinite(self.sigma0)):
            raise DomainError("inverse_power family requires sigma0 > 0")
        if not (self.k > 0 and math.isfinite(self.k)):
            raise DomainError("inverse_power family requires k > 0")

    def sigma(self, e: float) -> float:
        return _sigma_at(self, e)

    def sigma_prime(self, e: float) -> float:
        return -self.k * self.sigma0 * (1.0 + e) ** (-self.k - 1.0)

    def sigma_second(self, e: float) -> float:
        return self.k * (self.k + 1.0) * self.sigma0 * (1.0 + e) ** (-self.k - 2.0)


#: sigma(e) and the effort map of each closed-form family, written once over
#: its two fields (sigma0, then lam or k), as numpy ufuncs: on floats these
#: run the array loops, so a scalar and an array evaluation agree bit for bit
#: (a scalar ** is a different routine, off in the last bit on some inputs).
_CLOSED_FORMS = {
    ExponentialVariance: (
        lambda e, sigma0, lam: sigma0 * np.exp(-lam * e),
        # root of 2*a*sigma*sigma' + 1 = 0:  exp(-2*lam*e) = 1/(2*a*lam*sigma0^2)
        lambda a, sigma0, lam: np.log(2.0 * a * lam * np.square(sigma0)) / (2.0 * lam)),
    InversePowerVariance: (
        lambda e, sigma0, k: sigma0 * np.power(1.0 + e, -k),
        # (1 + e) ** (2k + 1) = 2 * a * k * sigma0^2
        lambda a, sigma0, k: np.power(2.0 * a * k * np.square(sigma0), 1.0 / (2.0 * k + 1.0))
        - 1.0),
}


def _sigma_at(family: ExponentialVariance | InversePowerVariance, e: float) -> float:
    return float(_CLOSED_FORMS[type(family)][0](e, *vars(family).values()))


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
        return {
            ExponentialVariance: "exponential",
            InversePowerVariance: "inverse_power",
            CustomVariance: "custom",
        }[type(self.family)]


def _incentive_at(model: EffortVarianceModel, e: float | None) -> float:
    """-1/(2*sigma(e)*sigma'(e)), the total weight at which effort e is
    optimal: +inf at e None (no cap), DomainError where it is not finite."""
    if e is None:
        return math.inf
    slope = 2.0 * model.sigma(e) * model.sigma_prime(e)
    bound = -1.0 / slope if slope else math.inf
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
    """The effort map and sigma of a sequence of models, over numpy arrays
    of their parameters, gathered once (a_upper and e_max are inf for
    unbounded sets).  An evaluation takes values and the indices of their
    models (all models, in order, when None).  Custom families go through
    the bracketed root-finder, the only per-point loop."""

    def __init__(self, models):
        self.models = tuple(models)
        params = [tuple(vars(m.family).values()) if type(m.family) in _CLOSED_FORMS
                  else (1.0, 1.0) for m in self.models]
        bounds = [m.incentive_bounds for m in self.models]
        self.family = np.array([type(m.family) for m in self.models], dtype=object)
        self.sigma0 = np.array([p[0] for p in params], dtype=float)
        self.rate = np.array([p[1] for p in params], dtype=float)
        self.a_lower = np.array([b.a_lower for b in bounds], dtype=float)
        self.a_upper = np.array([b.a_upper for b in bounds], dtype=float)
        self.e_max = np.array([m.effort_set.e_max if m.effort_set.bounded else math.inf
                               for m in self.models], dtype=float)

    def _each(self, values: np.ndarray, index, form: int, custom) -> np.ndarray:
        """Closed form `form` (0: sigma, 1: effort map), or custom(model, value)."""
        index = np.arange(len(self.models)) if index is None else np.asarray(index)
        families = self.family[index]
        out = np.empty(len(values))
        for family, forms in _CLOSED_FORMS.items():
            rows = np.flatnonzero(families == family)
            at = index[rows]
            out[rows] = forms[form](values[rows], self.sigma0[at], self.rate[at])
        for k in np.flatnonzero(families == CustomVariance).tolist():
            out[k] = custom(self.models[index[k]], float(values[k]))
        return out

    def sigma(self, efforts, index=None) -> np.ndarray:
        return self._each(np.asarray(efforts, dtype=float), index, 0, EffortVarianceModel.sigma)

    def efforts(self, a_total, index=None, *, clamp: bool = False,
                slack: float = 0.0) -> np.ndarray:
        """Efforts induced by totals a_total (see effort_response).  Totals
        within slack * max(1, a_lower) outside an incentive bound snap onto
        it; clamp (the bounded solver's projection) projects all onto
        [a_lower, a_upper].  Then the first total out of range raises."""
        values = np.array(a_total, dtype=float, ndmin=1)
        at = slice(None) if index is None else np.asarray(index)
        lower, upper = self.a_lower[at], self.a_upper[at]
        margin = slack * np.maximum(1.0, lower)
        values = np.where((lower - margin <= values) & (values < lower), lower, values)
        values = np.where((upper < values) & (values <= upper + margin), upper, values)
        if clamp:
            values = np.minimum(np.maximum(values, lower), upper)
        bad = ~(np.isfinite(values) & (values > 0)) | (values < lower) | (values > upper)
        if bad.any():
            k = int(np.argmax(bad))
            _raise_out_of_range(float(values[k]), float(lower[k]), float(upper[k]))
        efforts = self._each(values, index, 1, _solve_foc)
        # guard round-off at the ends of the range: a tiny negative at
        # a_total == a_lower, an overshoot past e_max at a_total == a_upper
        efforts[(-1e-15 < efforts) & (efforts < 0.0)] = 0.0
        return np.minimum(efforts, self.e_max[at])


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
    return float(EffortMap((model,)).efforts(a_total)[0])


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
