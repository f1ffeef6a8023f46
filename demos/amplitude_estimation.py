"""Estimating a mean by phase estimation on a Grover iterate.

The fraction a of grid points whose value bit is 1 is an average -- exactly
the quantity a midpoint rule estimates -- and amplitude estimation reads it
out quadratically faster in the precision: t readout qubits cost
2(2^t - 1) oracle calls and concentrate the outcome on phi = sin^2(pi j/2^t)
within ~2^-t of a. For f(x) = x on an 8-point grid the marked fraction is
exactly 1/2, the Grover phase is dyadic, and the distribution collapses onto
the exact answer.
"""

from qibc import best_cluster, build_ae_mean, distribution, local_error, pwl

ramp = pwl([(0.0, 0.0), (1.0, 1.0)])
truth = 0.5  # fraction of the 8 midpoints with f >= 1/2

print(" t   qubits   queries   local error      cluster mass near 1/2")
for t in (4, 5, 6):
    alg = build_ae_mean(3, t, 0.0, 1.0)
    dist = distribution(alg, ramp)
    err = local_error(dist, truth)
    cluster = best_cluster(dist, eps=2.0 ** -t)
    print(
        f" {t}   {alg.nu:<6d}   {alg.num_queries:<7d}   {err:<14.6g}   {cluster.mass:.12f}"
    )
print()

# the heavy outcomes sit where sin^2(pi j / 2^t) = 1/2: j = 2^t/4 and 3*2^t/4
alg = build_ae_mean(3, 4, 0.0, 1.0)
dist = distribution(alg, ramp)
print("outcomes with mass > 0.01 at t=4:")
for j, p, phi in dist.entries:
    if p > 0.01:
        print(f"  j={j:2d}  p={p:.12f}  phi={phi}")
