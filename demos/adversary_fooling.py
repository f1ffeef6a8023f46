"""Two functions a quadrature rule cannot tell apart.

For any rule that samples at design points t_1..t_n, the spike pair
f_± = ± L * min_i |x - t_i| vanishes at every t_i, so the rule necessarily
answers the same number on both -- yet their true integrals differ by twice
the worst-case radius. This certifies a lower bound on the rule's error that
no choice of weights can evade, and it is exactly tight: foil(q, L) equals
worst_radius(design, L) bit for bit.
"""

from qibc import (
    Design,
    Quadrature,
    exact_integral,
    fooling_pair,
    foil,
    observe,
    optimal_design,
    worst_radius,
)

L = 1.0

# the composite trapezoid rule on 5 equispaced nodes
nodes = Design((0.0, 0.25, 0.5, 0.75, 1.0))
weights = (0.125, 0.25, 0.25, 0.25, 0.125)
q = Quadrature(design=nodes, weights=weights)

pair = fooling_pair(q.design, L)
print("observations of f_plus :", tuple(observe(pair.f_plus, q.design).values.tolist()))
print("observations of f_minus:", tuple(observe(pair.f_minus, q.design).values.tolist()))
print()

# same data, same answer -- but the truths sit gap apart
answer = q.apply(observe(pair.f_plus, q.design).values)
print("rule's answer on both:", answer)
print("true integral of f_plus :", exact_integral(pair.f_plus))
print("true integral of f_minus:", exact_integral(pair.f_minus))
print("gap:", pair.gap)
print()

# the certified lower bound equals the design's radius exactly
print("foil(trapezoid, L)      :", foil(q, L))
print("worst_radius(its design):", worst_radius(q.design, L))
assert foil(q, L) == worst_radius(q.design, L)

# even the optimal design cannot beat its own radius; the fooling pair
# shows the midpoint rule's guarantee L/(4n) is not pessimism but equality
opt = optimal_design(4)
q_opt = Quadrature(design=opt, weights=(0.25,) * 4)
print()
print("midpoint rule, n=4: foil =", foil(q_opt, L), "= L/16 =", L / 16)
