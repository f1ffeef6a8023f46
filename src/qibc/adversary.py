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
from typing import Any

import numpy as np

from .exceptions import ValidationError, _float_array, _real, _real_array
from .functions import FunctionSpec, _Value
from .information import Design, _spike, worst_radius

__all__ = ["FoolingPair", "Quadrature", "fooling_pair", "foil"]


@dataclass(frozen=True)
class FoolingPair:
    """Two data-indistinguishable functions realizing the radius."""

    f_plus: FunctionSpec
    f_minus: FunctionSpec
    gap: float

    def __post_init__(self) -> None:
        gap = _real(self.gap, "gap must be finite and >= 0", at_least=0.0)
        object.__setattr__(self, "gap", gap)


@dataclass(frozen=True, eq=False, repr=False)
class Quadrature(_Value):
    """A linear rule ``phi(f) = sum_j weights[j] * f(design.points[j])``.

    ``weights`` is a read-only float array, seen by ``==``, hash and repr as a tuple.
    """

    design: Design
    weights: np.ndarray

    def __post_init__(self) -> None:
        ws = _real_array(self.weights, "weights")
        if len(ws) != self.design.n:
            raise ValidationError(
                f"{len(ws)} weights for a {self.design.n}-point design"
            )
        object.__setattr__(self, "weights", ws)

    def apply(self, values: Any) -> float:
        """Evaluate the rule on observed values: the ``fsum`` of the products ``w_j * v_j``.

        An infinite or NaN value or product is summed as ``fsum`` sums it; a
        sum ``fsum`` cannot form (``inf - inf``, or an overflow of the
        partial sums) raises :class:`ValidationError`.
        """
        vs = _float_array(values, "observed values")
        if len(vs) != len(self.weights):
            raise ValidationError(f"{len(vs)} values for a {len(self.weights)}-weight rule")
        with np.errstate(over="ignore", invalid="ignore"):  # fsum takes inf and nan products
            products = self.weights * vs
        try:
            return math.fsum(memoryview(products))
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"the weighted values have no float sum: {exc}") from exc


def _fooling_bound(L: float) -> float:
    return _real(L, "fooling pairs need L > 0", above=0.0)


def fooling_pair(d: Design, L: float) -> FoolingPair:
    """The extreme pair ``+/- L * min_i |x - t_i|`` for design ``d``.

    Both members are returned as serializable piecewise-linear functions with
    an embedded promise (bound ``L``, symmetric range covering the spikes), so
    they can be fed back into simulator runs. ``f_plus`` is the zero-data
    upper envelope, built from the same breakpoints :func:`envelopes` gives,
    and ``f_minus`` is its :func:`negate`. The pair and the gap are the
    spike the design keeps, shared with :func:`worst_radius` and :func:`foil`.
    """
    f_plus, f_minus, integral = _spike(d, _fooling_bound(L))
    # exact_integral(negate(f)) is -exact_integral(f) bitwise
    return FoolingPair(f_plus=f_plus, f_minus=f_minus, gap=2.0 * integral)


def foil(q: Quadrature, L: float) -> float:
    """Certified worst-case error lower bound for the rule ``q``.

    Both fooling-pair members observe as the zero vector, so the rule answers
    ``phi(0) = 0`` on each regardless of weights; the larger deviation of the
    two true integrals from that answer equals ``worst_radius(q.design, L)``.
    That radius is bitwise the integral of ``f_plus``, and ``f_minus``'s is its negation.
    """
    radius = worst_radius(q.design, _fooling_bound(L))
    phi0 = q.apply(np.zeros(q.design.n))
    return max(abs(radius - phi0), abs(-radius - phi0))
