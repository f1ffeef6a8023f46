"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test is self-contained and prints as a single pass/fail line under
``pytest -v``. Wall-clock budgets from the criteria are asserted directly;
every randomized sweep is seeded, so reruns are bit-reproducible.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from qibc import (
    CapacityError,
    Design,
    OutcomeDistribution,
    QState,
    Quadrature,
    QuerySpec,
    algorithm_to_json,
    apply_gate,
    best_cluster,
    bit_query,
    build_ae_mean,
    build_bound_fixture,
    build_reversible_midpoint,
    check_promise,
    constant,
    eval as feval,
    extract,
    foil,
    fooling_pair,
    function_to_json,
    local_error,
    local_error_setform,
    m_eps,
    measure,
    midpoint_algorithm,
    optimal_design,
    pwl,
    qubit_lower_bound,
    query_complexity,
    query_table,
    run,
    verify_bound,
    worst_radius,
    zero_state,
)
from qibc.cli import main as cli_main
from qibc.serialize import dump_json_file
from helpers import (
    planted_distribution,
    random_design,
    random_gate,
    random_lipschitz_pwl,
    riemann_min_dist_integral,
)


def test_criterion_01_radius_closed_form():
    """worst_radius(optimal_design(n), L) = L/(4n), Riemann-checked, < 1 s."""
    t0 = time.monotonic()
    for n in range(1, 65):
        d = optimal_design(n)
        for L in (0.5, 1.0, 2.0):
            got = worst_radius(d, L)
            want = L / (4.0 * n)
            # closed form holds to <= 2 ulps (breakpoint ordinates round once)
            assert abs(got - want) <= 5e-16 * want, (n, L, got, want)
    for n in (1, 3, 8, 64):
        d = optimal_design(n)
        for L in (0.5, 1.0, 2.0):
            oracle = riemann_min_dist_integral(d.points, L, panels=1_000_000)
            assert abs(worst_radius(d, L) - oracle) < 1e-9, (n, L)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_midpoint_design_optimality():
    """Midpoint design beats 200 random designs per n in 1..8, < 5 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240901)
    for n in range(1, 9):
        best = worst_radius(optimal_design(n), 1.0)
        for _ in range(200):
            d = random_design(rng, n)
            assert worst_radius(d, 1.0) >= best - 1e-12, (n, d.points)
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_adversary_indistinguishability():
    """Fooling pairs vanish on designs, pass the promise exactly, foil 50 rules, < 1 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240902)
    for _ in range(50):
        d = random_design(rng, int(rng.integers(1, 9)))
        L = float(rng.uniform(0.25, 4.0))
        pair = fooling_pair(d, L)
        for f in (pair.f_plus, pair.f_minus):
            for t in d.points:
                assert feval(f, t) == 0.0
            assert check_promise(f, f.promise, 4096) is True
        weights = tuple(float(w) for w in rng.uniform(-2.0, 2.0, size=d.n))
        q = Quadrature(d, weights)
        assert foil(q, L) == worst_radius(d, L)
    assert time.monotonic() - t0 < 1.0


def test_criterion_04_m_eps_minimality_bracket():
    """L/(4m) <= eps < L/(4(m-1)) over a 10^3-point (L, eps) sweep, < 1 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240903)
    for _ in range(1000):
        L = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
        eps = float(np.exp(rng.uniform(math.log(1e-5), math.log(1.0))))
        m = m_eps(L, eps)
        assert L / (4.0 * m) <= eps, (L, eps, m)
        if m > 1:
            assert L / (4.0 * (m - 1)) > eps, (L, eps, m)
        assert query_complexity(L, eps, 1.0) == float(m)
    assert time.monotonic() - t0 < 1.0


def test_criterion_05_simulator_soundness():
    """Norm to 1e-12 over 10^3 random ops at nu <= 12; query involution; locality; < 30 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240904)
    nu = 12
    s = zero_state(nu)
    for _ in range(1000):
        s = apply_gate(s, random_gate(rng, nu))
    arr = np.asarray(s.amplitudes)
    assert abs(float(np.vdot(arr, arr).real) - 1.0) < 1e-12

    for _ in range(25):
        m_prime = int(rng.integers(1, 5))
        m_dp = int(rng.integers(1, 5))
        workspace = int(rng.integers(0, 3))
        reg = m_prime + m_dp + workspace
        q = QuerySpec(m_prime, m_dp, -1.0, 1.0, "midpoint")
        f = random_lipschitz_pwl(rng, 1.0, k=5, scale=0.9)
        z = rng.normal(size=1 << reg) + 1j * rng.normal(size=1 << reg)
        z /= np.linalg.norm(z)
        state = QState(reg, z)
        once = bit_query(state, f, q)
        twice = bit_query(once, f, q)
        assert (np.asarray(twice.amplitudes) == z).all()  # involution, bitwise

        table = query_table(f, q)
        assert len(table) == 1 << m_prime  # touches exactly 2^m' grid points
        assert len({tau for tau, _ in table}) == 1 << m_prime
        # the query must not move probability between index-register blocks
        blocks = 1 << m_prime
        rest = 1 << (reg - m_prime)
        before = (np.abs(z.reshape(blocks, rest)) ** 2).sum(axis=1)
        after = (np.abs(np.asarray(once.amplitudes).reshape(blocks, rest)) ** 2).sum(axis=1)
        assert np.abs(before - after).max() < 1e-14
    assert time.monotonic() - t0 < 30.0


def test_criterion_06_greedy_equals_setform():
    """Greedy prefix equals exhaustive subset minimum, 10^3 cases, M <= 12, < 30 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240905)
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        truth = float(rng.uniform(-3.0, 3.0))
        if m == 1:
            dist = OutcomeDistribution(((0, 1.0, truth + float(rng.uniform(-1, 1))),))
        else:
            dist = planted_distribution(rng, float(rng.uniform(0.05, 1.0)), truth, m)
        a = local_error(dist, truth)
        b = local_error_setform(dist, truth)
        assert abs(a - b) <= 1e-12, (m, truth, a, b)
    assert time.monotonic() - t0 < 30.0


def test_criterion_07_extraction_guarantee():
    """10^4 planted-truth distributions: extract exists, lands within 3 eps, < 10 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240906)
    failures = 0
    for _ in range(10_000):
        eps = float(rng.uniform(0.001, 2.0))
        truth = float(rng.uniform(-10.0, 10.0))
        dist = planted_distribution(rng, eps, truth)
        assert local_error(dist, truth) <= eps  # premise holds by construction
        value = extract(dist, eps)
        if abs(value - truth) > 3.0 * eps:
            failures += 1
    assert failures == 0
    assert time.monotonic() - t0 < 10.0


def test_criterion_08_end_to_end_bound_check():
    """eps in {1/40, 1/400}: circuit yields satisfied=true, evals accounting holds, < 60 s."""
    t0 = time.monotonic()
    for eps in (1.0 / 40.0, 1.0 / 400.0):
        fx = build_bound_fixture(eps, 1.0)
        assert fx.algorithm.nu <= 16
        rep = verify_bound(fx.algorithm, fx.family, 1.0, eps, 1.0)
        assert rep.status == "ok", (eps, rep)
        assert rep.satisfied is True, (eps, rep)
        assert rep.achieved_error <= eps + 1e-12
        assert rep.rhs == math.log2(query_complexity(1.0, 3.0 * eps, 1.0)) - 1.0
        assert rep.nu >= rep.rhs - 1e-12
        assert 2 * rep.n_eps >= m_eps(1.0, 3.0 * eps)
        assert rep.evals_ok is True
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_amplitude_estimation_example():
    """f(x)=x, m'=3, t in {4,5,6}: cluster mass >= 3/4, error nonincreasing, < 60 s."""
    t0 = time.monotonic()
    ramp = pwl(((0.0, 0.0), (1.0, 1.0)))
    errors = []
    for t in (4, 5, 6):
        alg = build_ae_mean(3, t, 0.0, 1.0)
        dist = measure(run(alg, ramp), alg)
        cluster = best_cluster(dist, 2.0**-t)
        assert cluster.mass >= 0.75, (t, cluster.mass)
        errors.append(local_error(dist, 0.5))
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] <= 2.0**-4
    assert time.monotonic() - t0 < 60.0


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Rerunning any CLI command with identical config reproduces artifacts bytewise."""
    alg, _ = build_reversible_midpoint(2, 3, constant(0.5), 0.0, 1.0)
    alg_path = tmp_path / "alg.json"
    dump_json_file(str(alg_path), algorithm_to_json(alg))
    f_path = tmp_path / "f.json"
    dump_json_file(str(f_path), function_to_json(constant(0.5)))
    fx = build_bound_fixture(1.0 / 40.0)
    fx_alg = tmp_path / "fx_alg.json"
    dump_json_file(str(fx_alg), algorithm_to_json(fx.algorithm))
    fam_dir = tmp_path / "family"
    fam_dir.mkdir()
    for i, fn in enumerate(fx.family):
        dump_json_file(str(fam_dir / f"f{i}.json"), function_to_json(fn))
    quad = tmp_path / "quad.json"
    quad.write_text('{"design": [0.25, 0.75], "weights": [0.5, 0.5]}')
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("j,p,phi\n0,0.5,1.1\n1,0.3,1.2\n2,0.2,2.0\n")

    commands = [
        ["radius", "--design", "0.25,0.75", "--L", "1"],
        ["radius", "--design", "0.25,0.75", "--y", "0.1,0.2", "--L", "1",
         "--format", "json"],
        ["design", "--n", "5", "--out", "OUT:design.json"],
        ["meps", "--L", "2", "--eps", "0.01"],
        ["complexity-table", "--L", "0.5,1,2", "--eps", "0.05,0.005",
         "--out", "OUT:table.csv"],
        ["fooling-pair", "--design", "0.2,0.8", "--L", "1.5", "--out", "OUT:pair.json"],
        ["foil", "--quadrature", str(quad), "--L", "1"],
        ["simulate", "--alg", str(alg_path), "--f", str(f_path), "--out", "OUT:dist.csv"],
        ["error", "--dist", str(tiny), "--truth", "1.0"],
        ["error", "--dist", str(tiny), "--truth", "1.0", "--brute-force"],
        ["extract", "--dist", str(tiny), "--eps", "0.2"],
        ["verify-bound", "--alg", str(fx_alg), "--family", str(fam_dir),
         "--L", "1", "--eps", "0.025", "--out", "OUT:report.json"],
    ]
    for template in commands:
        outputs = []
        for attempt in ("first", "second"):
            artifacts = []
            argv = []
            for token in template:
                if token.startswith("OUT:"):
                    path = tmp_path / f"{attempt}_{token[4:]}"
                    artifacts.append(path)
                    argv.append(str(path))
                else:
                    argv.append(token)
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            stdout = captured.out
            # file summaries name the attempt-specific path; normalize it away
            for path in artifacts:
                stdout = stdout.replace(str(path), "ARTIFACT")
            outputs.append((stdout, tuple(p.read_bytes() for p in artifacts)))
        assert outputs[0] == outputs[1], template


def test_invariant_tiny_eps_bound_holds_without_simulation():
    """eps=1/4000 exceeds the qubit cap but the register count still beats the bound."""
    fx = build_bound_fixture(1.0 / 4000.0, 1.0)
    assert fx.algorithm.nu == 22
    assert fx.algorithm.nu >= qubit_lower_bound(1.0, 3.0 / 4000.0, 1.0) - 1e-12
    assert 2 * fx.algorithm.n_eps >= m_eps(1.0, 3.0 / 4000.0)
    with pytest.raises(CapacityError):
        run(fx.algorithm, fx.family[0])


def test_invariant_registers_dominate_log_n_eps():
    """nu >= m' + m'' > log2(n_eps) by construction, so under-reporting nu is impossible."""
    for eps in (1.0 / 40.0, 1.0 / 400.0, 1.0 / 4000.0):
        fx = build_bound_fixture(eps, 1.0)
        assert fx.algorithm.nu > math.log2(fx.algorithm.n_eps)
