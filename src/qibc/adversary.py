"""Adversary lower bounds: fooling pairs and quadrature foiling.

An adversary answering queries at design points ``t_1..t_n`` with all zeros
leaves two extreme candidates standing:

    f_plus(x)  = +L * min_i |x - t_i|
    f_minus(x) = -L * min_i |x - t_i|

Both are Lipschitz-``L``, both vanish at every design point — so no method
seeing only the data can tell them apart — yet their integrals differ by
``2 * worst_radius(d, L)``. Any fixed answer is therefore off by at least the
radius on one of them. For a linear quadrature ``phi(f) = sum_j a_j f(t_j)``
the data is zero, ``phi = 0``, and the certified error bound is exactly the
worst-case radius, whatever the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .functions import FunctionSpec, Promise, exact_integral, negate, pwl
from .information import Design, _spike, worst_radius

__all__ = ["FoolingPair", "Quadrature", "fooling_pair", "foil"]


@dataclass(frozen=True)
class FoolingPair:
    """Two data-indistinguishable functions realizing the radius."""

    f_plus: FunctionSpec
    f_minus: FunctionSpec
    gap: float

    def __post_init__(self) -> None:
        g = float(self.gap)
        if not math.isfinite(g) or g < 0.0:
            raise ValidationError(f"gap must be finite and >= 0, got {g!r}")
        object.__setattr__(self, "gap", g)


@dataclass(frozen=True)
class Quadrature:
    """A linear rule ``phi(f) = sum_j weights[j] * f(design.points[j])``."""

    design: Design
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        ws = tuple(float(w) for w in self.weights)
        if len(ws) != self.design.n:
            raise ValidationError(
                f"{len(ws)} weights for a {self.design.n}-point design"
            )
        if any(not math.isfinite(w) for w in ws):
            raise ValidationError("weights must be finite")
        object.__setattr__(self, "weights", ws)

    def apply(self, values: tuple[float, ...]) -> float:
        """Evaluate the rule on observed values."""
        if len(values) != len(self.weights):
            raise ValidationError(
                f"{len(values)} values for a {len(self.weights)}-weight rule"
            )
        return math.fsum(w * v for w, v in zip(self.weights, values))


def _fooling_bound(L: float) -> float:
    L = float(L)
    if not math.isfinite(L) or L <= 0.0:
        raise ValidationError(f"fooling pairs need L > 0, got {L!r}")
    return L


def fooling_pair(d: Design, L: float) -> FoolingPair:
    """The extreme pair ``+/- L * min_i |x - t_i|`` for design ``d``.

    Both members are returned as serializable piecewise-linear functions with
    an embedded promise (bound ``L``, symmetric range covering the spikes), so
    they can be fed back into simulator runs. ``f_plus`` is the zero-data
    upper envelope, built from the same breakpoints :func:`envelopes` gives,
    and ``f_minus`` is its :func:`negate`.
    """
    L = _fooling_bound(L)
    points = _spike(d, L)
    peak = float(np.abs(points[:, 1]).max())
    promise = Promise(L, -peak, peak) if peak > 0.0 else None
    f_plus = pwl(points, promise)  # exact_integral(negate(f)) is -exact_integral(f) bitwise
    return FoolingPair(f_plus=f_plus, f_minus=negate(f_plus), gap=2.0 * exact_integral(f_plus))


def foil(q: Quadrature, L: float) -> float:
    """Certified worst-case error lower bound for the rule ``q``.

    Both fooling-pair members observe as the zero vector, so the rule answers
    ``phi(0) = 0`` on each regardless of weights; the larger deviation of the
    two true integrals from that answer equals ``worst_radius(q.design, L)``.
    That radius is bitwise the integral of ``f_plus``, and ``f_minus``'s is its negation.
    """
    radius = worst_radius(q.design, _fooling_bound(L))
    phi0 = q.apply((0.0,) * q.design.n)
    return max(abs(radius - phi0), abs(-radius - phi0))
