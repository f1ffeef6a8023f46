"""Golden digest of the classical layer's outputs, bit for bit.

One sha256 over the ``float.hex`` of ``worst_radius``, the ``fooling_pair``
members, gap and promise, ``foil``, both ``envelopes`` members and
``interval_H``. Inputs are the optimal designs of size 1..60, 1000 and 2000
and seeded random designs with random-walk data, each at L = 0.5, 1 and 3.
The seeds drive ``random.Random``, whose stream is fixed across Python and
numpy versions, and nothing hashed is a Python ``hash()``, so the digest does
not depend on ``PYTHONHASHSEED``. A change that moves any output by one ulp,
or flips the sign of a zero, changes the digest.
"""

from __future__ import annotations

import hashlib
import random

from qibc import (
    DataVector,
    Design,
    Quadrature,
    envelopes,
    foil,
    fooling_pair,
    interval_H,
    optimal_design,
    worst_radius,
)

DIGEST = "c00048e2629530fac17c46e150aa1d3edb5c210478e353de8ece460fea584bc2"

LS = (0.5, 1.0, 3.0)


def random_walk_case(seed: int) -> tuple[Design, DataVector]:
    """A random design of 1..400 points with data whose slopes stay within 0.9 L
    for L = 0.5, the smallest bound used, so it is consistent for every L."""
    rng = random.Random(seed)
    n = rng.randint(1, 400)
    ts = sorted({rng.random() for _ in range(n)})
    if seed % 4 == 0:
        ts[0] = 0.0
    if seed % 4 == 1:
        ts[-1] = 1.0
    ys = [rng.uniform(-1.0, 1.0)]
    for t0, t1 in zip(ts, ts[1:]):
        ys.append(ys[-1] + rng.uniform(-0.45, 0.45) * (t1 - t0))
    return Design(tuple(ts)), DataVector(tuple(ys))


def hex_lines(label: str, values) -> str:
    return label + " " + " ".join(float(v).hex() for v in values) + "\n"


def points_lines(label: str, f) -> str:
    return hex_lines(label, [c for p in f.points for c in p])


def case_text(d: Design, y: DataVector, L: float) -> str:
    pair = fooling_pair(d, L)
    promise = pair.f_plus.promise
    quad = Quadrature(d, tuple(1.0 / d.n for _ in range(d.n)))
    env = envelopes(d, y, L)
    H = interval_H(env)
    return "".join((
        hex_lines("radius", [worst_radius(d, L)]),
        points_lines("f_plus", pair.f_plus),
        points_lines("f_minus", pair.f_minus),
        hex_lines("gap", [pair.gap]),
        hex_lines("promise", [] if promise is None else
                  [promise.lipschitz_bound, promise.range_lo, promise.range_hi]),
        hex_lines("foil", [foil(quad, L)]),
        points_lines("upper", env.upper),
        points_lines("lower", env.lower),
        hex_lines("H", [H.h_lo, H.h_hi, H.radius, H.center]),
    ))


def cases():
    for n in (*range(1, 61), 1000, 2000):
        d = optimal_design(n)
        walk = random.Random(n)
        ys = [0.0]
        for _ in range(n - 1):
            ys.append(ys[-1] + walk.uniform(-0.45, 0.45) / n)
        yield f"optimal n={n}", d, DataVector(tuple(ys))
    for seed in range(40):
        d, y = random_walk_case(seed)
        yield f"random seed={seed}", d, y


def classical_digest() -> str:
    h = hashlib.sha256()
    for label, d, y in cases():
        for L in LS:
            h.update(f"{label} L={L!r}\n".encode())
            h.update(case_text(d, y, L).encode())
    return h.hexdigest()


def test_classical_outputs_match_the_golden_digest():
    assert classical_digest() == DIGEST
