"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line
per criterion.  Defaults: 100_000 samples per comparison row, tolerance
4/sqrt(N) per row, fixed seeds throughout.
"""

import cmath
import json
import math
import subprocess
import sys
import time

import numpy as np

from widlaws import (
    EMPTY_LEVY,
    LevyMeasure,
    PadicCharacter,
    PadicInt,
    PadicIntegers,
    PadicSubgroup,
    Quadruplet,
    Solenoid,
    SolenoidCharacter,
    SolenoidPoint,
    SolenoidSubgroup,
    Torus,
    TorusCharacter,
    TorusPoint,
    TorusSubgroup,
    canonical_angle,
    check_compare_inequality,
    check_compatibility,
    check_divisibility,
    circular_distance,
    ft_compound_poisson,
    ft_dirac,
    ft_gauss,
    ft_gen_poisson,
    ft_haar,
    make_rng,
    oracle_padic_arithmetic,
    padic_mul_nat,
    run_suite,
    solenoid_from_lift,
    solenoid_lift,
    quadruplet_sampler,
)

N = 100_000
TOL = 4.0 / math.sqrt(N)  # ~ 0.0126


def passed(number, title):
    print(f"ACCEPTANCE {number:>2} {title}: PASS")


# fixtures shared across criteria -------------------------------------------

TORUS_ETA = LevyMeasure(((TorusPoint(2.1), 0.7), (TorusPoint(-0.6), 0.5), (TorusPoint(1.3), 0.3)))
PADIC_ETA = LevyMeasure(
    ((PadicInt(2, (1, 0, 1, 0, 0)), 0.8), (PadicInt(2, (0, 1, 1, 0, 0)), 0.5))
)
SOL_ETA = LevyMeasure(((SolenoidPoint(2, 4, 0.9), 0.7), (SolenoidPoint(2, 4, -1.3), 0.4)))


def centered(group, levy, b=0.0, depth=4):
    if isinstance(group, Torus):
        return Quadruplet(group, TorusSubgroup.trivial(), TorusPoint.identity(), b, levy)
    if isinstance(group, PadicIntegers):
        return Quadruplet(group, PadicSubgroup(depth + 1), PadicInt.zero(group.p, depth), b, levy)
    return Quadruplet(
        group, SolenoidSubgroup.trivial(), SolenoidPoint.identity(group.p, depth), b, levy
    )


# ---------------------------------------------------------------------------

def test_criterion_01_padic_arithmetic_oracle():
    start = time.perf_counter()
    ok = oracle_padic_arithmetic(10_000, seed=1001, primes=(2, 3, 5), depth=15)
    elapsed = time.perf_counter() - start
    assert ok, "digit arithmetic disagrees with the big-integer oracle"
    assert elapsed < 5.0, f"oracle took {elapsed:.2f}s"
    passed(1, f"p-adic arithmetic oracle ({elapsed:.2f}s)")


def test_criterion_02_haar_constructions():
    start = time.perf_counter()
    for p in (2, 3):
        qp = Quadruplet(PadicIntegers(p), PadicSubgroup(0), PadicInt.zero(p, 3), 0.0, EMPTY_LEVY)
        rep = run_suite(qp, PadicIntegers(p).default_characters(3), N, seed=1100 + p, depth=3)
        assert rep.overall_pass
        for row in rep.rows:
            if row.label.endswith("l=0"):
                assert row.empirical == 1 + 0j, row.label
            else:
                assert abs(row.empirical) <= TOL, (p, row.label, abs(row.empirical))

        qs = Quadruplet(
            Solenoid(p), SolenoidSubgroup.full(), SolenoidPoint.identity(p, 3), 0.0, EMPTY_LEVY
        )
        rep = run_suite(qs, Solenoid(p).default_characters(3), N, seed=1200 + p, depth=3)
        assert rep.overall_pass
        for row in rep.rows:
            if row.label.endswith("l=0"):
                assert row.empirical == 1 + 0j, row.label
            else:
                assert abs(row.empirical) <= TOL, (p, row.label, abs(row.empirical))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"Haar suites took {elapsed:.2f}s"
    passed(2, f"Haar constructions on the p-adic integers and solenoid ({elapsed:.1f}s)")


def test_criterion_03_gauss_block():
    for b in (0.5, 2.0):
        q = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint.identity(), b, EMPTY_LEVY)
        rep = run_suite(q, Torus().default_characters(), N, seed=1300 + int(2 * b))
        assert rep.overall_pass
        for row, ell in zip(rep.rows, range(-8, 9)):
            want = math.exp(-b * ell**2 / 2)
            assert abs(row.theory - want) <= 1e-15
            assert abs(row.empirical - want) <= TOL
    for p in (2, 3):
        q = centered(Solenoid(p), EMPTY_LEVY, b=1.0, depth=3)
        rep = run_suite(q, Solenoid(p).default_characters(3), N, seed=1310 + p, depth=3)
        assert rep.overall_pass
        for row in rep.rows:
            d, ell = (int(v.split("=")[1]) for v in row.label.split(","))
            want = math.exp(-(ell**2) / (2 * p ** (2 * d)))
            assert abs(row.theory - want) <= 1e-15
            assert abs(row.empirical - want) <= TOL
    passed(3, "Gauss blocks match exp(-psi/2) on the circle and solenoid")


def test_criterion_04_compound_and_generalized_poisson():
    # (a) centered laws against the generalized-Poisson closed form
    cases = [
        (Torus(), TORUS_ETA, Torus().default_characters(), None),
        (PadicIntegers(2), PADIC_ETA, PadicIntegers(2).default_characters(3), 4),
        (Solenoid(2), SOL_ETA, Solenoid(2).default_characters(3), 4),
    ]
    for seed_off, (group, eta, chars, depth) in enumerate(cases):
        q = centered(group, eta, depth=depth or 4)
        rep = run_suite(q, chars, N, seed=1400 + seed_off, depth=depth)
        assert rep.overall_pass
        for row, chi in zip(rep.rows, sorted(chars, key=lambda c: (getattr(c, "d", 0), c.ell))):
            assert row.theory == ft_gen_poisson(group, eta, chi)

    # (b) shifting by the local mean realizes the plain compound law
    s_t = Torus().drift(TORUS_ETA)
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint(s_t), 0.0, TORUS_ETA)
    rep = run_suite(q, Torus().default_characters(), N, seed=1410)
    assert rep.overall_pass
    for row, ell in zip(rep.rows, range(-8, 9)):
        assert abs(row.theory - ft_compound_poisson(TORUS_ETA, TorusCharacter(ell))) <= 1e-12

    s_s = Solenoid(2).drift(SOL_ETA)
    assert abs(s_s) < math.pi
    m = solenoid_from_lift(2, 4, s_s, (0, 0, 0, 0))
    q = Quadruplet(Solenoid(2), SolenoidSubgroup.trivial(), m, 0.0, SOL_ETA)
    chars = Solenoid(2).default_characters(3)
    rep = run_suite(q, chars, N, seed=1411, depth=4)
    assert rep.overall_pass
    for row, chi in zip(rep.rows, sorted(chars, key=lambda c: (c.d, c.ell))):
        assert abs(row.theory - ft_compound_poisson(SOL_ETA, chi)) <= 1e-12

    # (c) the drift identity, exactly at transform level
    for ell in range(-8, 9):
        chi = TorusCharacter(ell)
        lhs = ft_gen_poisson(Torus(), TORUS_ETA, chi) * cmath.exp(1j * ell * s_t)
        assert abs(lhs - ft_compound_poisson(TORUS_ETA, chi)) <= 1e-12
    for d in range(4):
        for ell in range(-8, 9):
            chi = SolenoidCharacter(d, ell)
            lhs = ft_gen_poisson(Solenoid(2), SOL_ETA, chi) * cmath.exp(1j * ell * s_s / 2**d)
            assert abs(lhs - ft_compound_poisson(SOL_ETA, chi)) <= 1e-12
        for ell in range(2 ** (d + 1)):
            chi = PadicCharacter(d, ell)
            assert ft_gen_poisson(PadicIntegers(2), PADIC_ETA, chi) == ft_compound_poisson(
                PADIC_ETA, chi
            )
    passed(4, "compound and generalized Poisson blocks (incl. exact drift identity)")


def test_criterion_05_full_quadruplets():
    qt = Quadruplet(
        Torus(),
        TorusSubgroup.cyclic(3),
        TorusPoint(0.7),
        0.4,
        LevyMeasure(((TorusPoint(2.1), 1.1), (TorusPoint(-0.6), 0.5))),
    )
    qp = Quadruplet(PadicIntegers(2), PadicSubgroup(1), PadicInt(2, (1, 1, 0, 0, 0)), 0.0, PADIC_ETA)
    qs = Quadruplet(Solenoid(2), SolenoidSubgroup.trivial(), SolenoidPoint(2, 4, 0.5), 0.3, SOL_ETA)
    qs_full = Quadruplet(Solenoid(2), SolenoidSubgroup.full(), SolenoidPoint(2, 4, 0.5), 0.3, SOL_ETA)
    suites = [
        (qt, Torus().default_characters(), None, 1500),
        (qp, PadicIntegers(2).default_characters(3), 4, 1501),
        (qs, Solenoid(2).default_characters(3), 4, 1502),
        (qs_full, Solenoid(2).default_characters(3), 4, 1503),
    ]
    for q, chars, depth, seed in suites:
        rep = run_suite(q, chars, N, seed=seed, depth=depth)
        assert rep.overall_pass, [r.label for r in rep.rows if not r.passed]
        for row, chi in zip(rep.rows, sorted(chars, key=lambda c: (getattr(c, "d", 0), c.ell))):
            product = (
                ft_haar(q.group, q.subgroup, chi)
                * ft_dirac(q.shift, chi)
                * ft_gauss(q.group, q.gauss_b, chi)
                * ft_gen_poisson(q.group, q.levy, chi)
            )
            assert row.theory == product
    passed(5, "composite quadruplets match the product of factor transforms")


def test_criterion_06_divisibility():
    qt = centered(Torus(), TORUS_ETA, b=0.8)
    rep = check_divisibility(qt, 4, N, seed=1600)
    assert rep.overall_pass, [r.label for r in rep.rows if not r.passed]
    qp = centered(PadicIntegers(2), PADIC_ETA, depth=4)
    rep = check_divisibility(qp, 4, N, seed=1601, depth=4)
    assert rep.overall_pass
    qs = centered(Solenoid(2), SOL_ETA, b=0.5, depth=4)
    rep = check_divisibility(qs, 4, N, seed=1602, depth=4)
    assert rep.overall_pass
    passed(6, "4-fold convolution of scaled parameters matches the unscaled law")


def test_criterion_07_compatibility():
    qp = Quadruplet(PadicIntegers(2), PadicSubgroup(5), PadicInt(2, (1, 1, 0, 0, 0)), 0.0, PADIC_ETA)
    qs = Quadruplet(Solenoid(2), SolenoidSubgroup.trivial(), SolenoidPoint(2, 4, 0.3), 0.2, SOL_ETA)
    for q, base in ((qp, 1700), (qs, 1710)):
        for n in (1, 2, 3):
            rep = check_compatibility(q, n, N, seed=base + n)
            assert rep.overall_pass, [r.label for r in rep.rows if not r.passed]
    passed(7, "depth-n and depth-(n+1) marginals agree with the closed form")


def test_criterion_08_centering_bound_grids():
    res = check_compare_inequality(Torus(), Torus().default_characters())
    assert len(res) == 17 and all(ok for _, ok in res)
    for p in (2, 3):
        res = check_compare_inequality(Solenoid(p), Solenoid(p).default_characters(3))
        assert len(res) == 4 * 17 and all(ok for _, ok in res)
    passed(8, "two-sided centering bound holds pointwise on all grids")


def test_criterion_09_structural_exactness():
    rng = make_rng(1900)
    # canonical lift round-trip
    for p in (2, 3, 5):
        for deep in rng.uniform(-math.pi, math.pi, size=1000):
            x = SolenoidPoint(p, 3, float(deep))
            y0, ints = solenoid_lift(x)
            back = solenoid_from_lift(p, 3, y0, ints)
            for j in range(4):
                assert circular_distance(back.coordinate_angle(j), x.coordinate_angle(j)) <= 1e-12
    # multiplying by p clears the leading digit, exactly
    for p in (2, 3, 5):
        digits = rng.integers(0, p, size=(1000, 6))
        for row in digits:
            x = PadicInt(p, tuple(int(v) for v in row))
            assert padic_mul_nat(p, x).digits[0] == 0
    # tower relation under sampler outputs
    for p in (2, 3):
        haar = Quadruplet(
            Solenoid(p), SolenoidSubgroup.full(), SolenoidPoint.identity(p, 3), 0.0, EMPTY_LEVY
        )
        batch = quadruplet_sampler(haar, depth=3)(make_rng(1901 + p), 10_000)
        deeps = batch.group.coordinate(batch.real, batch.digits, 3)
        coords = [canonical_angle(p ** (3 - j) * deeps) for j in range(4)]
        for j in range(3):
            assert np.max(circular_distance(p * coords[j + 1], coords[j])) <= 1e-12
    q = Quadruplet(Solenoid(2), SolenoidSubgroup.trivial(), SolenoidPoint(2, 4, 0.5), 0.3, SOL_ETA)
    batch = quadruplet_sampler(q, depth=4)(make_rng(1910), 10_000)
    deeps = batch.group.coordinate(batch.real, batch.digits, 4)
    coords = [canonical_angle(2 ** (4 - j) * deeps) for j in range(5)]
    for j in range(4):
        assert np.max(circular_distance(2 * coords[j + 1], coords[j])) <= 1e-12
    passed(9, "lift round-trip, leading-digit kill, and tower relation hold")


def test_criterion_10_reproducibility(tmp_path):
    sol_cfg = {
        "group": "solenoid",
        "p": 2,
        "depth": 3,
        "quadruplet": {
            "H": {"kind": "trivial"},
            "a": 0.5,
            "b": 0.3,
            "eta": [{"point": 0.9, "mass": 0.7}],
        },
        "samples": 3000,
        "seed": 12,
    }
    padic_cfg = {
        "group": "padic",
        "p": 3,
        "depth": 2,
        "quadruplet": {
            "H": {"kind": "lambda", "r": 0},
            "a": [1, 0, 2],
            "b": 0,
            "eta": [{"point": [2, 1, 0], "mass": 0.6}],
        },
        "samples": 3000,
        "seed": 5,
    }
    cfg_a = tmp_path / "sol.json"
    cfg_a.write_text(json.dumps(sol_cfg))
    cfg_b = tmp_path / "pad.json"
    cfg_b.write_text(json.dumps(padic_cfg))

    commands = [
        ["verify", "--config", str(cfg_a)],
        ["sample", "--config", str(cfg_b), "--count", "200"],
        ["haar-demo", "--group", "solenoid", "--p", "2", "--depth", "2", "--samples", "3000", "--seed", "6"],
        ["selftest", "--samples", "3000", "--seed", "3"],
    ]
    for cmd in commands:
        def run():
            return subprocess.run(
                [sys.executable, "-m", "widlaws"] + cmd, capture_output=True, check=False
            )

        r1, r2 = run(), run()
        assert r1.returncode == r2.returncode
        assert r1.stdout == r2.stdout, cmd
        assert len(r1.stdout) > 0
    passed(10, "fixed seeds give byte-identical machine output")
