"""Verification engine: suites, compatibility, divisibility, oracles."""

import math

import pytest

import widlaws.groups
from widlaws import (
    EMPTY_LEVY,
    LevyMeasure,
    PadicCharacter,
    PadicInt,
    PadicIntegers,
    PadicSubgroup,
    Quadruplet,
    Solenoid,
    SolenoidPoint,
    SolenoidSubgroup,
    Torus,
    TorusCharacter,
    TorusPoint,
    TorusSubgroup,
    check_compare_inequality,
    check_compatibility,
    check_divisibility,
    default_characters,
    empirical_cf,
    ft_compound_poisson,
    make_rng,
    oracle_padic_arithmetic,
    quadruplet_sampler,
    run_suite,
    trivial_quadruplet,
)

N = 100_000
PI = math.pi


def test_empirical_cf_dirac_and_trivial_character():
    a = TorusPoint(0.8)
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), a, 0.0, EMPTY_LEVY)
    sampler = quadruplet_sampler(q)
    # trivial character: every summand is exactly 1
    assert empirical_cf(sampler, TorusCharacter(0), 1234, make_rng(1)) == 1 + 0j
    # deterministic draw: zero statistical error, only mean rounding
    from widlaws import eval_torus_char

    for n in (1, 7, 1000):
        emp = empirical_cf(sampler, TorusCharacter(3), n, make_rng(2))
        assert abs(emp - eval_torus_char(TorusCharacter(3), a)) <= 5e-16


def test_empirical_cf_haar_bound():
    q = Quadruplet(Torus(), TorusSubgroup.full(), TorusPoint.identity(), 0.0, EMPTY_LEVY)
    emp = empirical_cf(quadruplet_sampler(q), TorusCharacter(1), N, make_rng(3))
    assert abs(emp) <= 4 / math.sqrt(N)


def test_run_suite_trivial_quadruplet_rows_exact():
    rep = run_suite(trivial_quadruplet(Torus()), default_characters(Torus()), 2000, seed=5)
    assert rep.overall_pass
    for row in rep.rows:
        assert row.theory == 1 + 0j
        assert row.empirical == 1 + 0j
        assert row.abs_error == 0.0


def test_run_suite_cyclic_two_exact_on_annihilating_character():
    q = Quadruplet(Torus(), TorusSubgroup.cyclic(2), TorusPoint.identity(), 0.0, EMPTY_LEVY)
    rep = run_suite(q, [TorusCharacter(ell) for ell in (-2, 0, 2, 4)], 5000, seed=7)
    assert rep.overall_pass
    for row in rep.rows:
        assert row.theory == 1 + 0j
        assert row.empirical == 1 + 0j, row.label


def test_run_suite_cyclic_non_power_of_two_near_exact():
    # the 3rd roots of unity are irrational float angles, so the
    # annihilating rows carry ~1 ulp of noise instead of exact equality
    q = Quadruplet(Torus(), TorusSubgroup.cyclic(3), TorusPoint.identity(), 0.0, EMPTY_LEVY)
    rep = run_suite(q, [TorusCharacter(ell) for ell in (-3, 3, 6)], 5000, seed=9)
    assert rep.overall_pass
    for row in rep.rows:
        assert row.abs_error <= 1e-14


def test_run_suite_reports_are_reproducible():
    eta = LevyMeasure(((TorusPoint(2.1), 1.1),))
    q = Quadruplet(Torus(), TorusSubgroup.cyclic(2), TorusPoint(0.3), 0.5, eta)
    rep1 = run_suite(q, default_characters(Torus()), 20000, seed=11)
    rep2 = run_suite(q, default_characters(Torus()), 20000, seed=11)
    assert [r.label for r in rep1.rows] == [r.label for r in rep2.rows]
    for a, b in zip(rep1.rows, rep2.rows):
        assert a.empirical == b.empirical and a.theory == b.theory
    # rows are sorted by character index
    labels = [r.label for r in rep1.rows]
    assert labels == [f"l={ell}" for ell in range(-8, 9)]


def test_run_suite_rejects_shallow_depth():
    q = trivial_quadruplet(PadicIntegers(2), depth=1)
    with pytest.raises(ValueError, match="shift carries digits"):
        run_suite(q, default_characters(PadicIntegers(2), depth=3), 100, seed=1, depth=3)


def test_check_compatibility_padic_and_solenoid():
    p = 2
    eta = LevyMeasure(((PadicInt(p, (1, 0, 1, 0, 0)), 0.8), (PadicInt(p, (0, 1, 1, 0, 0)), 0.5)))
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(5), PadicInt(p, (1, 1, 0, 0, 0)), 0.0, eta)
    for n in (1, 2, 3):
        rep = check_compatibility(q, n, 20000, seed=13 + n)
        assert rep.overall_pass, [r.label for r in rep.rows if not r.passed]

    eta_s = LevyMeasure(((SolenoidPoint(p, 4, 0.7), 0.6), (SolenoidPoint(p, 4, -1.2), 0.4)))
    qs = Quadruplet(Solenoid(p), SolenoidSubgroup.trivial(), SolenoidPoint(p, 4, 0.3), 0.2, eta_s)
    for n in (1, 2, 3):
        rep = check_compatibility(qs, n, 20000, seed=17 + n)
        assert rep.overall_pass


def test_check_compatibility_exact_for_deterministic_factors():
    # empty eta: both depths draw the same deterministic point
    q = Quadruplet(PadicIntegers(2), PadicSubgroup(5), PadicInt(2, (1, 0, 1, 1, 0)), 0.0, EMPTY_LEVY)
    rep = check_compatibility(q, 2, 500, seed=19)
    assert rep.overall_pass
    by_char = {}
    for row in rep.rows:
        label, depth_tag = row.label.split(" @depth=")
        by_char.setdefault(label, {})[depth_tag] = row.empirical
    for label, vals in by_char.items():
        assert vals["2"] == vals["3"], label
        assert abs(vals["2"] - dict_theory(rep, label)) <= 1e-15


def dict_theory(rep, label):
    for row in rep.rows:
        if row.label.startswith(label + " "):
            return row.theory
    raise KeyError(label)


def test_check_compatibility_rejects_torus():
    with pytest.raises(ValueError, match="compatibility"):
        check_compatibility(trivial_quadruplet(Torus()), 1, 100, seed=0)


def test_check_divisibility_trivial_exact():
    q = trivial_quadruplet(Torus())
    rep = check_divisibility(q, 4, 1000, seed=23)
    assert rep.overall_pass
    for row in rep.rows:
        assert row.theory == 1 + 0j and row.empirical == 1 + 0j


def test_check_divisibility_torus_gauss():
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint.identity(), 1.0, EMPTY_LEVY)
    rep = check_divisibility(q, 4, N, seed=29, characters=[TorusCharacter(1)])
    assert rep.overall_pass
    (row,) = rep.rows
    assert abs(row.theory - math.exp(-0.5)) <= 1e-15
    assert row.abs_error <= 4 / math.sqrt(N)


def test_check_divisibility_padic_single_atom():
    p = 2
    eta = LevyMeasure(((PadicInt(p, (1, 0, 0, 0)), 2.0),))
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(4), PadicInt.zero(p, 3), 0.0, eta)
    rep = check_divisibility(q, 2, N, seed=31, characters=[PadicCharacter(1, 1)])
    assert rep.overall_pass
    (row,) = rep.rows
    assert row.theory == ft_compound_poisson(eta, PadicCharacter(1, 1))


def test_check_divisibility_requires_centered_measure():
    q = Quadruplet(Torus(), TorusSubgroup.cyclic(2), TorusPoint.identity(), 1.0, EMPTY_LEVY)
    with pytest.raises(ValueError, match="centered"):
        check_divisibility(q, 4, 100, seed=0)
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint(0.5), 1.0, EMPTY_LEVY)
    with pytest.raises(ValueError, match="centered"):
        check_divisibility(q, 4, 100, seed=0)
    with pytest.raises(ValueError):
        check_divisibility(trivial_quadruplet(Torus()), 1, 100, seed=0)


def test_every_check_rejects_zero_samples():
    qp = Quadruplet(PadicIntegers(2), PadicSubgroup(4), PadicInt.zero(2, 3), 0.0, EMPTY_LEVY)
    with pytest.raises(ValueError, match="samples"):
        run_suite(qp, [PadicCharacter(0, 1)], 0, seed=0)
    with pytest.raises(ValueError, match="samples"):
        check_compatibility(qp, 1, 0, seed=0)
    with pytest.raises(ValueError, match="samples"):
        check_divisibility(trivial_quadruplet(Torus()), 2, 0, seed=0)


def test_compare_inequality_worked_example():
    # circle, frequency 1, angle 0.1: g = 0.1 and 1 - cos(0.1) ~ 0.0049958
    g = 0.1
    one_minus_re = 2 * math.sin(0.05) ** 2
    assert 0.25 * g**2 <= one_minus_re <= 0.5 * g**2
    assert one_minus_re == pytest.approx(0.0049958, abs=1e-7)


def test_compare_inequality_grids():
    res = check_compare_inequality(Torus(), default_characters(Torus()), 1000)
    assert len(res) == 17 and all(ok for _, ok in res)
    # spec'd example: frequency 2 over |theta| < pi/12
    res = check_compare_inequality(Torus(), [TorusCharacter(2)], 1000)
    assert res == [("l=2", True)]
    for p in (2, 3):
        res = check_compare_inequality(
            Solenoid(p), default_characters(Solenoid(p), depth=3), 1000
        )
        assert all(ok for _, ok in res)
    with pytest.raises(ValueError):
        check_compare_inequality(PadicIntegers(2), [PadicCharacter(0, 1)], 100)


def test_oracle_padic_arithmetic_passes():
    assert oracle_padic_arithmetic(300, seed=37)


def test_oracle_padic_arithmetic_catches_injected_bug(monkeypatch):
    real_add = widlaws.groups.padic_add

    def broken_add(x, y):
        out = real_add(x, y)
        if sum(out.digits) % 7 == 3:  # corrupt a slice of results
            digits = list(out.digits)
            digits[0] = (digits[0] + 1) % x.p
            return PadicInt(x.p, tuple(digits))
        return out

    monkeypatch.setattr(widlaws.groups, "padic_add", broken_add)
    assert not oracle_padic_arithmetic(300, seed=37)
