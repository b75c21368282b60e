"""Effort-to-variance models for strategic data sources.

A source controls the standard deviation of its reported sample through
costly effort e via a function sigma(e) that is strictly decreasing, convex,
and twice continuously differentiable.  Quadratic-penalty contracts make the
source's optimal effort depend only on the *total* quality weight a_total it
receives across all buyers, through the first-order condition

    2 * a_total * sigma(e) * sigma'(e) + 1 = 0.

This module provides the two concrete families below, an extension seam for
custom families, the induced effort map (`effort_response`), its derivative,
and the incentive range [a_lower, a_upper] on which the map is meaningful.

    exponential:    sigma(e) = sigma0 * exp(-lam * e)
    inverse_power:  sigma(e) = sigma0 * (1 + e) ** -k

All functions are pure and the model values immutable, so unrestricted
concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
        return self.sigma0 * math.exp(-self.lam * e)

    def sigma_prime(self, e: float) -> float:
        return -self.lam * self.sigma(e)

    def sigma_second(self, e: float) -> float:
        return self.lam * self.lam * self.sigma(e)

    def closed_form_effort(self, a_total: float) -> float:
        # root of 2*a*sigma*sigma' + 1 = 0:  exp(-2*lam*e) = 1/(2*a*lam*sigma0^2)
        return math.log(2.0 * a_total * self.lam * self.sigma0**2) / (2.0 * self.lam)


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
        return self.sigma0 * (1.0 + e) ** (-self.k)

    def sigma_prime(self, e: float) -> float:
        return -self.k * self.sigma0 * (1.0 + e) ** (-self.k - 1.0)

    def sigma_second(self, e: float) -> float:
        return self.k * (self.k + 1.0) * self.sigma0 * (1.0 + e) ** (-self.k - 2.0)

    def closed_form_effort(self, a_total: float) -> float:
        # (1 + e) ** (2k + 1) = 2 * a * k * sigma0^2
        base = 2.0 * a_total * self.k * self.sigma0**2
        return base ** (1.0 / (2.0 * self.k + 1.0)) - 1.0


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
    """A source's sigma family together with its feasible effort set."""

    family: ExponentialVariance | InversePowerVariance | CustomVariance
    effort_set: EffortSet = UNBOUNDED
    _incentive_bounds: IncentiveBounds | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.family, CustomVariance):
            _vet_custom_family(self.family, self.effort_set)

    def sigma(self, e: float) -> float:
        return self.family.sigma(e)

    def sigma_prime(self, e: float) -> float:
        return self.family.sigma_prime(e)

    def sigma_second(self, e: float) -> float:
        return self.family.sigma_second(e)

    @property
    def incentive_bounds(self) -> IncentiveBounds:
        """[a_lower, a_upper], computed on first use and kept (the model is
        immutable).

        The first-order condition at effort 0 gives
        a_lower = -1/(2*sigma(0)*sigma'(0)); for bounded sets the same identity
        at e_max gives a_upper, otherwise +inf.  Kept in a declared field,
        not with functools.cached_property: writing to an instance's
        __dict__ slows every later attribute read on it (CPython 3.11).
        """
        bounds = self._incentive_bounds
        if bounds is None:
            a_lower = -1.0 / (2.0 * self.sigma(0.0) * self.sigma_prime(0.0))
            if self.effort_set.bounded:
                e_max = self.effort_set.e_max
                a_upper = -1.0 / (2.0 * self.sigma(e_max) * self.sigma_prime(e_max))
            else:
                a_upper = math.inf
            bounds = IncentiveBounds(a_lower, a_upper)
            object.__setattr__(self, "_incentive_bounds", bounds)
        return bounds

    @property
    def family_name(self) -> str:
        return {
            ExponentialVariance: "exponential",
            InversePowerVariance: "inverse_power",
            CustomVariance: "custom",
        }[type(self.family)]


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

    def contains(self, a_total: float) -> bool:
        return self.a_lower <= a_total <= self.a_upper


def incentive_bounds(model: EffortVarianceModel) -> IncentiveBounds:
    """[a_lower, a_upper] for a model (see EffortVarianceModel.incentive_bounds)."""
    return model.incentive_bounds


def _check_in_range(model: EffortVarianceModel, a_total: float) -> IncentiveBounds:
    if not (math.isfinite(a_total) and a_total > 0):
        raise DomainError(f"a_total must be positive and finite, got {a_total}")
    bounds = model.incentive_bounds
    if a_total < bounds.a_lower:
        raise IncentiveRangeError(
            f"a_total={a_total} is below the minimum incentive a_lower={bounds.a_lower}",
            bound="lower", limit=bounds.a_lower, value=a_total)
    if a_total > bounds.a_upper:
        raise IncentiveRangeError(
            f"a_total={a_total} exceeds the saturation incentive a_upper={bounds.a_upper}",
            bound="upper", limit=bounds.a_upper, value=a_total)
    return bounds


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


def effort_response(model: EffortVarianceModel, a_total: float) -> float:
    """Effort induced by total quality weight a_total.

    Returns the unique root e of 2*a_total*sigma(e)*sigma'(e) + 1 = 0 on the
    feasible effort set.  Calls outside [a_lower, a_upper] raise
    IncentiveRangeError; there is no silent clamping here (only the bounded
    equilibrium solver clamps, explicitly).
    """
    _check_in_range(model, a_total)
    family = model.family
    if isinstance(family, (ExponentialVariance, InversePowerVariance)):
        e = family.closed_form_effort(a_total)
        # guard round-off at the ends of the range: a tiny negative at
        # a_total == a_lower, an overshoot past e_max at a_total == a_upper
        if -1e-15 < e < 0.0:
            return 0.0
        return min(e, model.effort_set.e_max) if model.effort_set.bounded else e
    return _solve_foc(model, a_total)


def effort_response_derivative(model: EffortVarianceModel, a_total: float) -> float:
    """d(effort)/d(a_total), strictly positive on the incentive range.

    Implicit differentiation of the first-order condition gives
    1 / (2 * a_total^2 * (sigma'(e)^2 + sigma(e) * sigma''(e))) at e = effort_response.
    """
    e = effort_response(model, a_total)
    sp = model.sigma_prime(e)
    denom = 2.0 * a_total * a_total * (sp * sp + model.sigma(e) * model.sigma_second(e))
    return 1.0 / denom


def variance_at(model: EffortVarianceModel, effort: float) -> float:
    """sigma(effort)^2, for effort inside the feasible set."""
    if not model.effort_set.contains(effort):
        raise DomainError(
            f"effort {effort} outside the feasible set {model.effort_set}")
    s = model.sigma(effort)
    return s * s
