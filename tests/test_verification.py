"""Verification engine: suites, compatibility, divisibility, oracles."""

import cmath
import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import widlaws.cli
import widlaws.groups
import widlaws.sampling
import widlaws.verification
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
    char_mean,
    check_compare_inequality,
    check_compatibility,
    check_divisibility,
    combine_samples,
    ft_compound_poisson,
    ft_dirac,
    ft_quadruplet,
    make_rng,
    oracle_padic_arithmetic,
    quadruplet_sampler,
    run_suite,
    trivial_quadruplet,
)
from widlaws.verification import ComparisonRow

N = 100_000
PI = math.pi


def test_char_mean_dirac_and_trivial_character():
    a = TorusPoint(0.8)
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), a, 0.0, EMPTY_LEVY)
    sampler = quadruplet_sampler(q)
    # trivial character: every summand is exactly 1
    assert char_mean(sampler(make_rng(1), 1234), TorusCharacter(0)) == 1 + 0j
    # deterministic draw: zero statistical error, only mean rounding
    for n in (1, 7, 1000):
        emp = char_mean(sampler(make_rng(2), n), TorusCharacter(3))
        assert abs(emp - TorusCharacter(3)(a)) <= 5e-16


def test_char_mean_haar_bound():
    q = Quadruplet(Torus(), TorusSubgroup.full(), TorusPoint.identity(), 0.0, EMPTY_LEVY)
    emp = char_mean(quadruplet_sampler(q)(make_rng(3), N), TorusCharacter(1))
    assert abs(emp) <= 4 / math.sqrt(N)


def test_run_suite_trivial_quadruplet_rows_exact():
    rep = run_suite(trivial_quadruplet(Torus()), Torus().default_characters(), 2000, seed=5)
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
    rep1 = run_suite(q, Torus().default_characters(), 20000, seed=11)
    rep2 = run_suite(q, Torus().default_characters(), 20000, seed=11)
    assert [r.label for r in rep1.rows] == [r.label for r in rep2.rows]
    for a, b in zip(rep1.rows, rep2.rows):
        assert a.empirical == b.empirical and a.theory == b.theory
    # rows are sorted by character index
    labels = [r.label for r in rep1.rows]
    assert labels == [f"l={ell}" for ell in range(-8, 9)]


def test_run_suite_rejects_shallow_depth():
    q = trivial_quadruplet(PadicIntegers(2), depth=1)
    with pytest.raises(ValueError, match="shift carries digits"):
        run_suite(q, PadicIntegers(2).default_characters(3), 100, seed=1, depth=3)


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


def test_check_divisibility_refuses_n_below_2():
    with pytest.raises(ValueError, match="n must be >= 2"):
        check_divisibility(trivial_quadruplet(Torus()), 1, 100, seed=0)


@pytest.mark.parametrize("doc", widlaws.cli._DIVISIBILITY_LAWS, ids=["torus", "padic", "solenoid"])
def test_divisibility_of_a_centered_law_draws_the_scaled_law_n_times(doc):
    # on a centered law the root's shifted first factor and its other
    # n - 1 factors are one law, so the rows are those of n draws of
    # (H, a, b/n, eta/n) on stream 0, carried into the first
    n, samples = 4, 2000
    q = widlaws.cli._selftest_law(doc, samples)
    report = check_divisibility(q, n, samples, 0)
    scaled = Quadruplet(q.group, q.subgroup, q.shift, q.gauss_b / n, q.levy.scaled(1.0 / n))
    sampler, rng = quadruplet_sampler(scaled), make_rng(0, 0)
    batch = sampler(rng, samples)
    for _ in range(n - 1):
        combine_samples(batch, sampler(rng, samples))
    chars = q.group.default_characters(q.shift.depth)
    assert report.rows == _rows_read_in_order(q, batch, chars, samples)


def _rows_read_in_order(q, batch, chars, samples):
    """The rows of chars read one by one, in (d, ell) order, off batch."""
    rows, tol = [], 4.0 / math.sqrt(samples)
    for chi in sorted(chars, key=lambda chi: (chi.d, chi.ell)):
        theory = ft_quadruplet(q, chi)
        empirical = char_mean(batch, chi, abs(abs(theory) - 1.0) <= 1e-12)
        err = abs(theory - empirical)
        rows.append(ComparisonRow(chi.label, theory, empirical, err, tol, err <= tol))
    return rows


_ROOT_PADIC_ETA = LevyMeasure(((PadicInt(2, (1, 0, 1, 0, 0)), 0.8), (PadicInt(2, (0, 1, 1, 0, 0)), 0.5)))
_ROOT_SOLENOID_ETA = LevyMeasure(((SolenoidPoint(2, 4, 0.9), 0.7), (SolenoidPoint(2, 4, -1.3), 0.4)))
# Laws with a Haar layer or a shift: the acceptance suite's Delta_2 and
# S_2 laws, and a circle law whose shift, unlike the acceptance suite's
# a = 0.7 (3 * 3 * 0.7 is within 0.02 of 2 pi), moves the rows that its
# Haar layer keeps when every factor takes it
_ROOTED = {
    "torus": Quadruplet(
        Torus(),
        TorusSubgroup.cyclic(3),
        TorusPoint(0.5),
        0.4,
        LevyMeasure(((TorusPoint(2.1), 1.1), (TorusPoint(-0.6), 0.5))),
    ),
    "padic": Quadruplet(
        PadicIntegers(2), PadicSubgroup(1), PadicInt(2, (1, 1, 0, 0, 0)), 0.0, _ROOT_PADIC_ETA
    ),
    "solenoid": Quadruplet(
        Solenoid(2), SolenoidSubgroup.trivial(), SolenoidPoint(2, 4, 0.5), 0.3, _ROOT_SOLENOID_ETA
    ),
    "solenoid-whole": Quadruplet(
        Solenoid(2), SolenoidSubgroup.full(), SolenoidPoint(2, 4, 0.5), 0.3, _ROOT_SOLENOID_ETA
    ),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", _ROOTED)
def test_divisibility_holds_for_laws_with_a_haar_layer_or_a_shift(name, seed):
    report = check_divisibility(_ROOTED[name], 4, N, seed)
    assert report.overall_pass, [r.label for r in report.rows if not r.passed]


@pytest.mark.parametrize("name", _ROOTED)
def test_the_root_draws_the_haar_layer_in_its_first_factor_only(name):
    # Haar(H)^{*n} = Haar(H): the other n - 1 factors draw the trivial
    # subgroup at the identity
    q, n, samples = _ROOTED[name], 4, 2000
    report = check_divisibility(q, n, samples, 0)
    trivial, identity = q.group.point_mass(q.shift.depth)
    b, eta = q.gauss_b / n, q.levy.scaled(1.0 / n)
    rng = make_rng(0, 0)
    batch = quadruplet_sampler(Quadruplet(q.group, q.subgroup, q.shift, b, eta))(rng, samples)
    rest = quadruplet_sampler(Quadruplet(q.group, trivial, identity, b, eta))
    for _ in range(n - 1):
        combine_samples(batch, rest(rng, samples))
    chars = q.group.default_characters(q.shift.depth)
    assert report.rows == _rows_read_in_order(q, batch, chars, samples)


def test_every_check_rejects_zero_samples():
    qp = Quadruplet(PadicIntegers(2), PadicSubgroup(4), PadicInt.zero(2, 3), 0.0, EMPTY_LEVY)
    with pytest.raises(ValueError, match="samples"):
        run_suite(qp, [PadicCharacter(0, 1)], 0, seed=0)
    with pytest.raises(ValueError, match="samples"):
        check_compatibility(qp, 1, 0, seed=0)
    with pytest.raises(ValueError, match="samples"):
        check_divisibility(trivial_quadruplet(Torus()), 2, 0, seed=0)


_NO_ROWS = {
    "run_suite": lambda q: run_suite(q, [], 100, seed=0),
    "run_suite_of_an_empty_iterator": lambda q: run_suite(q, iter([]), 100, seed=0),
    "check_divisibility": lambda q: check_divisibility(q, 2, 100, seed=0, characters=[]),
}


@pytest.mark.parametrize("check", _NO_ROWS.values(), ids=_NO_ROWS.keys())
def test_a_verdict_over_no_characters_is_refused(check):
    # each passed with no rows: a vacuous verdict
    with pytest.raises(ValueError, match="no rows"):
        check(trivial_quadruplet(Torus()))


def test_run_suite_reports_characters_given_in_reverse_in_depth_then_frequency_order():
    q = trivial_quadruplet(PadicIntegers(3), depth=3)
    chars = q.group.default_characters(3)
    report = run_suite(q, reversed(chars), 200, seed=3)
    want = sorted(chars, key=lambda chi: (chi.d, chi.ell))
    assert [r.label for r in report.rows] == [chi.label for chi in want]
    assert report.rows == run_suite(q, chars, 200, seed=3).rows


def _count_mean_work(monkeypatch, group_type):
    """The depths of every mean_work call on group_type, in call order."""
    depths, real_mean_work = [], group_type.mean_work

    def mean_work(self, real, digits, d):
        depths.append(d)
        return real_mean_work(self, real, digits, d)

    monkeypatch.setattr(group_type, "mean_work", mean_work)
    return depths


@pytest.mark.parametrize("group", [PadicIntegers(2), Solenoid(3)], ids=["padic", "solenoid"])
def test_each_run_works_each_depth_of_its_batch_once(group, monkeypatch):
    # the characters come shuffled across depths; the engine sorts each
    # run, so the batch's one-depth mean cache builds every depth once
    depths = _count_mean_work(monkeypatch, type(group))
    q = trivial_quadruplet(group, depth=4)
    chars = group.default_characters(3)
    shuffled = chars[1::2] + chars[::2]
    assert len(run_suite(q, shuffled, 200, seed=5).rows) == len(chars)
    assert depths == [0, 1, 2, 3]
    depths.clear()
    check_compatibility(q, 3, 200, seed=5)
    assert depths == [0, 1, 2] * 2
    depths.clear()
    check_divisibility(q, 2, 200, seed=5, characters=shuffled)
    assert depths == [0, 1, 2, 3]


def test_each_depth_sweeps_its_powers_once_when_its_frequencies_rise(monkeypatch):
    # rows asked in rising ell would extend the power means once per row;
    # read largest |ell| first, each depth builds z = exp(i theta) once
    q, samples = _ROOTED["solenoid"], 2000
    chars = [SolenoidCharacter(d, ell) for d in (0, 1, 2) for ell in range(1, 9)]
    assert all(abs(ft_quadruplet(q, chi)) < 1 - 1e-12 for chi in chars)
    want = _rows_read_in_order(q, quadruplet_sampler(q)(make_rng(3, 0), samples), chars, samples)
    calls, real_unit_phases = [], widlaws.groups._unit_phases

    def unit_phases(theta):
        calls.append(len(theta))
        return real_unit_phases(theta)

    monkeypatch.setattr(widlaws.groups, "_unit_phases", unit_phases)
    report = run_suite(q, chars, samples, seed=3)
    assert calls == [samples] * 3
    assert report.rows == want


def test_check_compatibility_labels_name_each_run_depth():
    q = trivial_quadruplet(PadicIntegers(2), depth=3)
    labels = [r.label for r in check_compatibility(q, 1, 100, seed=0).rows]
    assert labels == ["d=0,l=0 @depth=1", "d=0,l=1 @depth=1", "d=0,l=0 @depth=2", "d=0,l=1 @depth=2"]
    labels = [r.label for r in check_compatibility(q, 2, 100, seed=0).rows]
    row = ["d=0,l=0", "d=0,l=1", "d=1,l=0", "d=1,l=1", "d=1,l=2", "d=1,l=3"]
    assert labels == [f"{label} @depth={d}" for d in (2, 3) for label in row]


def test_compare_inequality_worked_example():
    # circle, frequency 1, angle 0.1: g = 0.1 and 1 - cos(0.1) ~ 0.0049958
    g = 0.1
    one_minus_re = 2 * math.sin(0.05) ** 2
    assert 0.25 * g**2 <= one_minus_re <= 0.5 * g**2
    assert one_minus_re == pytest.approx(0.0049958, abs=1e-7)


def test_compare_inequality_grids():
    res = check_compare_inequality(Torus(), Torus().default_characters())
    assert len(res) == 17 and all(ok for _, ok in res)
    # spec'd example: frequency 2 over |theta| < pi/12
    res = check_compare_inequality(Torus(), [TorusCharacter(2)])
    assert res == [("l=2", True)]
    for p in (2, 3):
        res = check_compare_inequality(Solenoid(p), Solenoid(p).default_characters(3))
        assert all(ok for _, ok in res)
    with pytest.raises(ValueError):
        check_compare_inequality(PadicIntegers(2), [PadicCharacter(0, 1)])


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


def test_oracle_padic_arithmetic_catches_bug_in_the_shared_carry_routine(monkeypatch):
    # the oracle carries every trial's rows through the private
    # _carry_digits, the digit loop of the _carry that padic_from_ints,
    # add, neg and mul_nat share; a carry that loses the last digit agrees
    # with itself, not with the integers
    real_carry = widlaws.groups._carry_digits

    def drops_last_digit(p, entries):
        return real_carry(p, entries)[:-1] + (0,)

    monkeypatch.setattr(widlaws.groups, "_carry_digits", drops_last_digit)
    assert not oracle_padic_arithmetic(300, seed=37)


def test_oracle_catches_a_carry_wrapper_that_reverses_the_digits(monkeypatch):
    # the per-trial carries go through _carry_digits and never build the
    # element; _carry's wrapper is checked by the scalar law, which runs on
    # the first block of each prime, through padic_add, padic_neg and
    # padic_mul_nat
    real_block, blocks = widlaws.verification._oracle_block, []

    def reversed_digits(p, entries):
        return PadicInt._normalized(p, widlaws.groups._carry_digits(p, entries)[::-1])

    def recorded(*args):
        blocks.append((args, real_block(*args)))
        return blocks[-1][1]

    monkeypatch.setattr(widlaws.groups, "_carry", reversed_digits)
    monkeypatch.setattr(widlaws.verification, "_oracle_block", recorded)
    assert not oracle_padic_arithmetic(300, seed=37)
    [(args, ok)] = blocks
    assert args[0] == 2 and args[-1] is True and not ok
    # the same block passes its per-trial carries: the scalar law failed it
    assert real_block(*args[:-1], False)


def test_oracle_padic_arithmetic_catches_add_that_misses_zero(monkeypatch):
    # all digits p-1 is -1, not 0: only the x + (-x) = 0 check sees it,
    # since no random pair x, y sums to 0
    real_add = widlaws.groups.padic_add

    def minus_one_for_zero(x, y):
        out = real_add(x, y)
        return PadicInt(x.p, (x.p - 1,) * len(out.digits)) if out.is_identity() else out

    monkeypatch.setattr(widlaws.groups, "padic_add", minus_one_for_zero)
    assert not oracle_padic_arithmetic(300, seed=37)


def test_oracle_padic_arithmetic_catches_p_multiple_with_a_leading_digit(monkeypatch):
    # the leading digit of p*x is 0; at seed 37 the check on p*x for
    # every x sees this before any random k equals p
    real_mul = widlaws.groups.padic_mul_nat

    def leading_one(k, x):
        out = real_mul(k, x)
        if k == x.p and not x.is_identity():
            return PadicInt(x.p, (1,) + out.digits[1:])
        return out

    monkeypatch.setattr(widlaws.groups, "padic_mul_nat", leading_one)
    assert not oracle_padic_arithmetic(300, seed=37)


@pytest.mark.parametrize("block", [128, 1, 10_000])
def test_oracle_checks_every_trial_in_blocks_of_any_size(block, monkeypatch):
    # a _carry_digits wrong on one row only: the entrywise x+y of the last
    # of the selftest's 10,000 trials of p = 2.  Every block size reaches
    # it, so no trial goes unchecked.  The per-trial carries run before the
    # scalar law, so the row is carried once even when the first block is
    # every trial, and no other path carries it past the first block.
    rng = widlaws.verification.make_rng(0, stream=0)
    xs = rng.integers(0, 2, size=(10_000, 16))
    ys = rng.integers(0, 2, size=(10_000, 16))
    ks = rng.integers(0, 1000, size=10_000)
    rows = np.concatenate([xs + ys, -xs, ks[:, None] * xs]).tolist()
    target = rows[9_999]
    assert rows.count(target) == 1
    real_carry, wrong = widlaws.groups._carry_digits, []

    def wrong_on_one_row(p, entries):
        entries = list(entries)
        out = real_carry(p, entries)
        if p == 2 and entries == target:
            wrong.append(entries)
            return ((out[0] + 1) % p,) + out[1:]
        return out

    monkeypatch.setattr(widlaws.groups, "_carry_digits", wrong_on_one_row)
    monkeypatch.setattr(widlaws.verification, "_ORACLE_BLOCK", block)
    assert not oracle_padic_arithmetic(10_000, 0)
    assert len(wrong) == 1


def test_oracle_refuses_a_depth_past_the_int64_envelope():
    # the expected digits of k*x, k < 1000, are int64: 1000 * p**(depth+1)
    # must stay below 2**63, which p = 2 meets up to depth 52
    assert oracle_padic_arithmetic(10, seed=37, primes=(2,), depth=52)
    for primes, depth in (((5,), 30), ((2,), 53), ((2, 3, 5), 30)):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            oracle_padic_arithmetic(10, seed=37, primes=primes, depth=depth)


def _corrupt_slice(out):
    """out with its last digit shifted, on a slice of results."""
    if sum(out.digits) % 7 != 3:
        return out
    digits = list(out.digits)
    digits[-1] = (digits[-1] + 1) % out.p
    return PadicInt(out.p, tuple(digits))


@pytest.mark.parametrize("routine", ["padic_neg", "padic_mul_nat"])
def test_oracle_padic_arithmetic_catches_bug_in_neg_and_mul_nat(routine, monkeypatch):
    real = getattr(widlaws.groups, routine)
    monkeypatch.setattr(widlaws.groups, routine, lambda *args: _corrupt_slice(real(*args)))
    assert not oracle_padic_arithmetic(300, seed=37)


def test_oracle_padic_arithmetic_catches_batched_carry_one_digit_late(monkeypatch):
    # the samplers carry through padic_digit_matrix, not padic_from_ints
    monkeypatch.setattr(widlaws.groups, "padic_digit_matrix", _late_carry)
    assert not oracle_padic_arithmetic(300, seed=37)


def test_oracle_expected_digits_match_integer_arithmetic():
    rng = np.random.default_rng(71)
    for p, depth in ((2, 15), (3, 15), (5, 15), (7, 4), (2, 52)):
        xs = rng.integers(0, p, size=(200, depth + 1))
        ys = rng.integers(0, p, size=(200, depth + 1))
        ks = rng.integers(0, 1000, size=200)
        expected = widlaws.verification._expected_digits(p, depth, xs, ys, ks)
        assert expected.shape == (3, 200, depth + 1) and expected.dtype == np.int64
        sums, negs, mults = (list(map(tuple, block)) for block in expected.tolist())
        modulus = p ** (depth + 1)

        def digits(v):
            return tuple(v % modulus // p**j % p for j in range(depth + 1))

        for i, (x, y, k) in enumerate(zip(xs.tolist(), ys.tolist(), ks.tolist())):
            xv = sum(d * p**j for j, d in enumerate(x))
            yv = sum(d * p**j for j, d in enumerate(y))
            assert (sums[i], negs[i], mults[i]) == (digits(xv + yv), digits(-xv), digits(k * xv))


@pytest.mark.parametrize("tolerance_c", [math.inf, math.nan, 0.0, -1.0])
def test_engine_rejects_non_finite_or_non_positive_tolerance(tolerance_c):
    q = trivial_quadruplet(Torus())
    with pytest.raises(ValueError, match="tolerance_c"):
        run_suite(q, [TorusCharacter(1)], 10, seed=1, tolerance_c=tolerance_c)


# ---------------------------------------------------------------------------
# one batch per check

def test_annihilated_padic_rows_are_exact_at_every_depth():
    # Haar of 9Z_3 at depth 3: every (d, ell) with d < 2 or 3**(d-1) | ell
    # is annihilated; at 50 samples d = 3 (81 possible residues) holds
    # fewer residues than it could, and its rows must still be exact
    p = 3
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(2), PadicInt.zero(p, 3), 0.0, EMPTY_LEVY)
    rep = run_suite(q, q.group.default_characters(3), 50, seed=53)
    exact = [r for r in rep.rows if r.theory == 1 + 0j]
    assert {r.label.split(",")[0] for r in exact} == {"d=0", "d=1", "d=2", "d=3"}
    for row in exact:
        assert row.empirical == 1 + 0j, row.label


@pytest.fixture
def draw_log(monkeypatch):
    """Records (batch size) per sampler call and one entry per RNG stream
    the engine opens."""
    log = {"draws": [], "streams": []}
    real_factory, real_rng = widlaws.verification.quadruplet_sampler, widlaws.verification.make_rng

    def factory(*args, **kwargs):
        sampler = real_factory(*args, **kwargs)

        def draw(rng, n):
            log["draws"].append(n)
            return sampler(rng, n)

        return draw

    def make_rng_logged(seed, stream=0):
        log["streams"].append(stream)
        return real_rng(seed, stream)

    monkeypatch.setattr(widlaws.verification, "quadruplet_sampler", factory)
    monkeypatch.setattr(widlaws.verification, "make_rng", make_rng_logged)
    return log


def test_each_check_draws_once_per_sampler(draw_log):
    p = 2
    eta = LevyMeasure(((PadicInt(p, (1, 0, 1, 0)), 0.8),))
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(4), PadicInt.zero(p, 3), 0.0, eta)
    assert len(run_suite(q, q.group.default_characters(3), 300, seed=1).rows) == 30
    assert draw_log == {"draws": [300], "streams": [0]}

    for entries in draw_log.values():
        entries.clear()
    assert len(check_compatibility(q, 2, 300, seed=1).rows) == 12
    assert draw_log == {"draws": [300, 300], "streams": [0, 1]}

    for entries in draw_log.values():
        entries.clear()
    assert len(check_divisibility(q, 3, 300, seed=1).rows) == 30
    assert draw_log == {"draws": [300, 300, 300], "streams": [0]}


def test_compatibility_takes_one_closed_form_per_character(monkeypatch):
    # selftest's solenoid compatibility fixture reads each character on
    # two batches; its closed form is taken once, and the rows are those
    # of one closed form per row
    q = widlaws.cli._selftest_law(widlaws.cli._COMPATIBILITY_LAWS[1], 2000)
    calls = []

    def counted(law, chi):
        calls.append(chi)
        return ft_quadruplet(law, chi)

    monkeypatch.setattr(widlaws.verification, "ft_quadruplet", counted)
    report = check_compatibility(q, 3, 2000, 0)
    monkeypatch.undo()
    chars = sorted(q.group.default_characters(2), key=lambda chi: (chi.d, chi.ell))
    assert sorted(calls, key=lambda chi: (chi.d, chi.ell)) == chars
    assert len(report.rows) == 2 * len(chars) == 102
    want, tol = [], 4.0 / math.sqrt(2000)
    for stream, depth in enumerate((3, 4)):
        batch = quadruplet_sampler(q, depth)(make_rng(0, stream), 2000)
        for chi in chars:
            theory = ft_quadruplet(q, chi)
            empirical = char_mean(batch, chi, abs(abs(theory) - 1.0) <= 1e-12)
            err = abs(theory - empirical)
            label = f"{chi.label} @depth={depth}"
            want.append(ComparisonRow(label, theory, empirical, err, tol, err <= tol))
    assert report.rows == want


def test_selftest_solenoid_divisibility_fixture_holds_one_column_at_a_time():
    # selftest's solenoid fixture at its default 100,000 draws: four
    # batches multiplied, then 68 rows read one depth column at a time.
    # The traced peak was 8.73 MB with every depth's column cached, every
    # run's batch alive into the next draw and np.where temporaries in
    # the angle kernels, and 5.34 MB with the column kept through each
    # power sweep; it is 4.54 MB now that a sweep holds the batch beside
    # z and the running power alone (1.6 MB each)
    p = 2
    eta = LevyMeasure(((SolenoidPoint(p, 5, 0.7), 0.6), (SolenoidPoint(p, 5, -1.2), 0.4)))
    q = Quadruplet(Solenoid(p), SolenoidSubgroup.trivial(), SolenoidPoint.identity(p, 5), 0.5, eta)
    check_divisibility(q, 4, 1000, seed=0)
    tracemalloc.start()
    try:
        report = check_divisibility(q, 4, 100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall_pass and len(report.rows) == 68
    assert peak < 5.0e6


def test_selftest_solenoid_compatibility_fixture_holds_one_column_at_a_time():
    # selftest's S_2 compatibility fixture at its default 100,000 draws:
    # a batch of depth n, then one of depth n + 1, each read one depth at
    # a time.  The traced peak at n = 3 was 5.24 MB with the column kept
    # through each power sweep, and is 4.44 MB without it
    q = widlaws.cli._selftest_law(widlaws.cli._COMPATIBILITY_LAWS[1], 100_000)
    check_compatibility(q, 3, 1000, 0)
    tracemalloc.start()
    try:
        report = check_compatibility(q, 3, 100_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall_pass and len(report.rows) == 2 * 51
    assert peak < 5.0e6


_ALONE_CASES = {
    "torus": Quadruplet(
        Torus(),
        TorusSubgroup.cyclic(3),
        TorusPoint(0.4),
        0.3,
        LevyMeasure(((TorusPoint(2.1), 0.7),)),
    ),
    "padic": Quadruplet(
        PadicIntegers(3),
        PadicSubgroup(2),
        PadicInt(3, (1, 2, 0, 0)),
        0.0,
        LevyMeasure(((PadicInt(3, (2, 1, 0, 0)), 0.9),)),
    ),
    "solenoid": Quadruplet(
        Solenoid(2),
        SolenoidSubgroup.trivial(),
        SolenoidPoint(2, 3, 0.2),
        0.4,
        LevyMeasure(((SolenoidPoint(2, 3, -0.5), 0.6),)),
    ),
}


@pytest.mark.parametrize("q", _ALONE_CASES.values(), ids=_ALONE_CASES.keys())
def test_row_value_does_not_depend_on_the_other_characters(q):
    # every row of a suite reads the stream-0 batch, so a character
    # verified alone gets the bits it gets inside the default set
    chars = q.group.default_characters(3)
    full = {r.label: r.empirical for r in run_suite(q, chars, 3000, seed=59).rows}
    for chi in chars[:: max(1, len(chars) // 9)]:
        (row,) = run_suite(q, [chi], 3000, seed=59).rows
        assert row.empirical == full[row.label], row.label


@pytest.mark.parametrize("group", ["padic", "solenoid"])
def test_compatibility_drops_the_first_batch_before_the_second_draw(group, monkeypatch):
    # the depth-n batch is gone when the depth-(n+1) sampler starts drawing
    refs, alive_at_draw = [], []
    real_factory = widlaws.verification.quadruplet_sampler

    def factory(*args, **kwargs):
        sampler = real_factory(*args, **kwargs)

        def draw(rng, n):
            alive_at_draw.append([ref() is not None for ref in refs])
            batch = sampler(rng, n)
            refs.append(weakref.ref(batch))
            return batch

        return draw

    monkeypatch.setattr(widlaws.verification, "quadruplet_sampler", factory)
    check_compatibility(_ALONE_CASES[group], 2, 300, seed=1)
    assert alive_at_draw == [[], [False]]


# ---------------------------------------------------------------------------
# the default-N gate catches broken samplers

def test_gate_catches_solenoid_sampler_without_drift_centering(monkeypatch):
    p, depth = 2, 2
    # one atom at base angle 1.0: the drift is 0.5, so the uncentered
    # sampler rotates coordinate d by 0.5 ell / p**d
    eta = LevyMeasure(((SolenoidPoint(p, depth, 0.25), 0.5),))
    origin = SolenoidPoint.identity(p, depth)
    q = Quadruplet(Solenoid(p), SolenoidSubgroup.trivial(), origin, 0.0, eta)
    chars = q.group.default_characters(depth)
    drift = q.group.drift(eta)
    defect = max(
        abs(ft_quadruplet(q, chi)) * abs(1 - cmath.exp(1j * chi.ell * drift / p**chi.d))
        for chi in chars
    )
    assert defect > 10 * 4 / math.sqrt(N)
    assert run_suite(q, chars, N, seed=61).overall_pass

    real = widlaws.verification.quadruplet_sampler

    def uncentered(q, depth=None):
        sampler = real(q, depth)

        def draw(rng, n):
            with monkeypatch.context() as m:
                m.setattr(Solenoid, "drift", lambda self, eta: 0.0)
                return sampler(rng, n)

        return draw

    monkeypatch.setattr(widlaws.verification, "quadruplet_sampler", uncentered)
    assert not run_suite(q, chars, N, seed=61).overall_pass


def _sample_instead(monkeypatch, mutate):
    """Make the engine's sampler draw the law mutate(q) in place of q."""
    real = widlaws.verification.quadruplet_sampler
    monkeypatch.setattr(
        widlaws.verification, "quadruplet_sampler", lambda q, depth=None: real(mutate(q), depth)
    )


def test_gate_catches_torus_gauss_layer_with_std_b(monkeypatch):
    # b is the Gauss layer's variance; the broken sampler draws N(0, b**2),
    # whose law is the quadruplet with b**2 in place of b
    b = 0.3
    eta = LevyMeasure(((TorusPoint(2.1), 0.4),))
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint(0.5), b, eta)
    chars = q.group.default_characters()
    broken_q = Quadruplet(q.group, q.subgroup, q.shift, b**2, q.levy)
    defect = max(abs(ft_quadruplet(broken_q, chi) - ft_quadruplet(q, chi)) for chi in chars)
    assert defect > 10 * 4 / math.sqrt(N)
    assert run_suite(q, chars, N, seed=83).overall_pass

    _sample_instead(monkeypatch, lambda q: dataclasses.replace(q, gauss_b=q.gauss_b**2))
    assert not run_suite(q, chars, N, seed=83).overall_pass


def test_gate_catches_padic_haar_layer_one_digit_late(monkeypatch):
    p, r = 3, 1
    eta = LevyMeasure(((PadicInt(p, (1, 2, 0, 0)), 0.5),))
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(r), PadicInt.zero(p, 3), 0.0, eta)
    chars = q.group.default_characters(3)
    # theory: Haar of 3Z_3 kills (1, ell) for 3 not dividing ell; the late
    # sampler fixes digit 1, so those rows keep the Poisson factor's modulus
    late_q = Quadruplet(q.group, PadicSubgroup(r + 1), q.shift, q.gauss_b, q.levy)
    defect = max(abs(ft_quadruplet(late_q, chi) - ft_quadruplet(q, chi)) for chi in chars)
    assert defect > 10 * 4 / math.sqrt(N)
    assert run_suite(q, chars, N, seed=67).overall_pass

    def late(q):
        return dataclasses.replace(q, subgroup=PadicSubgroup(q.subgroup.zero_digits + 1))

    _sample_instead(monkeypatch, late)
    assert not run_suite(q, chars, N, seed=67).overall_pass


_WHOLE_WITH_EVERY_LAYER = {
    "torus": Quadruplet(
        Torus(),
        TorusSubgroup.full(),
        TorusPoint(0.7),
        0.4,
        LevyMeasure(((TorusPoint(2.1), 0.6), (TorusPoint(-0.9), 0.5))),
    ),
    "padic": Quadruplet(
        PadicIntegers(3),
        PadicSubgroup(0),
        PadicInt(3, (1, 2, 0, 1)),
        0.0,
        LevyMeasure(((PadicInt(3, (2, 1, 0, 0)), 0.8), (PadicInt(3, (0, 1, 2, 0)), 0.5))),
    ),
    "solenoid": Quadruplet(
        Solenoid(3),
        SolenoidSubgroup.full(),
        SolenoidPoint(3, 3, 0.4),
        0.3,
        LevyMeasure(((SolenoidPoint(3, 3, 0.9), 0.7), (SolenoidPoint(3, 3, -2.2), 0.5))),
    ),
}


@pytest.mark.parametrize("q", _WHOLE_WITH_EVERY_LAYER.values(), ids=_WHOLE_WITH_EVERY_LAYER.keys())
def test_whole_group_with_every_layer_is_still_haar(q, monkeypatch):
    # Haar(G) * mu = Haar(G): a shift, a Gauss layer where the group has
    # one and two jump atoms leave the law of the whole group unchanged
    depth = q.shift.depth
    chars = q.group.default_characters(depth)
    assert all(ft_quadruplet(q, chi) == (chi.ell == 0) for chi in chars)
    assert run_suite(q, chars, N, seed=89).overall_pass

    trivial, _ = q.group.point_mass(depth)
    _sample_instead(monkeypatch, lambda q: dataclasses.replace(q, subgroup=trivial))
    assert not run_suite(q, chars, N, seed=89).overall_pass


def _late_carry(p, values, carry=0, out=None):
    """Carry normalization whose carry out of digit j lands on j+2; carry
    is added to digit 0 and out, when given, receives the digits, as in
    padic_digit_matrix."""
    values = np.array(values, dtype=np.int64)
    if values.shape[1]:
        values[:, 0] += carry
    digits = np.mod(values, p)
    for j in range(values.shape[1] - 2):
        values[:, j + 2] += values[:, j] // p
        digits[:, j + 2] = np.mod(values[:, j + 2], p)
    if out is None:
        return digits
    out[...] = digits
    return out


def test_gate_catches_padic_carry_one_digit_late(monkeypatch):
    # a point mass at a plus Poisson(lam) copies of one atom: every draw
    # is a + n*atom, so the broken law is a Poisson-weighted sum over n
    p, depth, lam = 3, 3, 0.9
    a, atom = (1, 2, 0, 0), (2, 1, 0, 0)
    eta = LevyMeasure(((PadicInt(p, atom), lam),))
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(depth + 1), PadicInt(p, a), 0.0, eta)
    chars = q.group.default_characters(depth)

    counts = np.arange(60)
    weights = [math.exp(-lam) * lam**n / math.factorial(n) for n in counts.tolist()]
    broken = _late_carry(p, np.array(a) + counts[:, None] * np.array(atom)).tolist()

    exact = widlaws.groups.padic_digit_matrix(p, np.array(a) + counts[:, None] * np.array(atom))

    def series(rows, chi):
        return sum(w * chi(PadicInt(p, tuple(row))) for w, row in zip(weights, rows))

    # the truncated series reproduces the closed form with the real carry
    assert max(abs(series(exact.tolist(), chi) - ft_quadruplet(q, chi)) for chi in chars) < 1e-12
    defect = max(abs(series(broken, chi) - ft_quadruplet(q, chi)) for chi in chars)
    assert defect > 10 * 4 / math.sqrt(N)
    assert run_suite(q, chars, N, seed=73).overall_pass

    monkeypatch.setattr(widlaws.groups, "padic_digit_matrix", _late_carry)
    assert not run_suite(q, chars, N, seed=73).overall_pass


def test_gate_catches_solenoid_gauss_scale_p_to_the_d(monkeypatch):
    p, depth = 2, 3
    eta = LevyMeasure(((SolenoidPoint(p, depth, 0.9), 0.4),))
    origin = SolenoidPoint.identity(p, depth)
    q = Quadruplet(Solenoid(p), SolenoidSubgroup.trivial(), origin, 0.5, eta)
    chars = q.group.default_characters(depth)
    theory = [ft_quadruplet(q, chi) for chi in chars]
    assert run_suite(q, chars, N, seed=79).overall_pass

    # b*ell**2 / p**d in place of b*ell**2 / p**(2d): the closed form is
    # wrong for d >= 1 while the sampler still draws the true law
    monkeypatch.setattr(
        Solenoid, "quadratic_form", lambda self, b, chi: b * chi.ell**2 / self.scale(chi)
    )
    defect = max(abs(ft_quadruplet(q, chi) - t) for chi, t in zip(chars, theory))
    assert defect > 10 * 4 / math.sqrt(N)
    assert not run_suite(q, chars, N, seed=79).overall_pass


# The three wrong n-th roots: each is injected into every factor of the
# root as a change of the factor's law, and each product has a closed
# form.  n = 4.
_ROOT_MUTANTS = {
    # a root without Haar(H): the product lacks it too
    "drop-haar": (
        lambda q, law: dataclasses.replace(law, subgroup=q.group.point_mass(q.shift.depth)[0]),
        lambda q, chi: ft_quadruplet(
            dataclasses.replace(q, subgroup=q.group.point_mass(q.shift.depth)[0]), chi
        ),
    ),
    # a root that applies the shift in every factor: the product is shifted by a**4
    "shift-every-factor": (
        lambda q, law: dataclasses.replace(law, shift=q.shift),
        lambda q, chi: ft_quadruplet(q, chi) * ft_dirac(q.shift, chi) ** 3,
    ),
    # a root that scales b by 1/n**2: the product's Gauss scale is b/n
    "b-over-n-squared": (
        lambda q, law: dataclasses.replace(law, gauss_b=law.gauss_b / 4),
        lambda q, chi: ft_quadruplet(dataclasses.replace(q, gauss_b=q.gauss_b / 4), chi),
    ),
}


# each mutant on every law of _ROOTED whose rows can see it: Haar(H) with
# H trivial hides the first, and Haar(S_2) hides the other two, as Delta_2,
# which has no Gauss layer, hides the third
@pytest.mark.parametrize(
    "mutant, name",
    [
        ("drop-haar", "torus"),
        ("drop-haar", "padic"),
        ("drop-haar", "solenoid-whole"),
        ("shift-every-factor", "torus"),
        ("shift-every-factor", "padic"),
        ("shift-every-factor", "solenoid"),
        ("b-over-n-squared", "torus"),
        ("b-over-n-squared", "solenoid"),
    ],
)
def test_gate_catches_a_wrong_divisibility_root(mutant, name, monkeypatch):
    q = _ROOTED[name]
    mutate, broken = _ROOT_MUTANTS[mutant]
    chars = q.group.default_characters(q.shift.depth)
    defect = max(abs(broken(q, chi) - ft_quadruplet(q, chi)) for chi in chars)
    assert defect > 10 * 4 / math.sqrt(N)
    # the unmutated root passes at this seed (see the test above)
    _sample_instead(monkeypatch, lambda law: mutate(q, law))
    assert not check_divisibility(q, 4, N, seed=0).overall_pass
