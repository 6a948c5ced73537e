"""Group arithmetic: angle reduction, p-adic carries, solenoid towers."""

import copy
import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import widlaws.groups
from widlaws import (
    EMPTY_LEVY,
    LevyMeasure,
    PadicInt,
    PadicIntegers,
    PadicSubgroup,
    Quadruplet,
    Solenoid,
    SolenoidPoint,
    SolenoidSubgroup,
    TorusPoint,
    canonical_angle,
    circular_distance,
    is_prime,
    make_rng,
    padic_add,
    padic_from_ints,
    padic_in_subgroup,
    padic_mul_nat,
    padic_neg,
    quadruplet_sampler,
    solenoid_from_lift,
    solenoid_inverse,
    solenoid_lift,
    solenoid_mul,
    solenoid_project,
    torus_inverse,
    torus_mul,
    trivial_quadruplet,
)
from widlaws import Samples
from widlaws.groups import (
    padic_digit_matrix,
    solenoid_coordinate,
    solenoid_lift_matrix,
    validate_prime,
)

TWO_PI = 2.0 * math.pi


def reduce_oracle(x):
    """Independent reduction oracle: x - 2*pi*round(x/(2*pi)), adjusted
    into [-pi, pi)."""
    r = x - TWO_PI * round(x / TWO_PI)
    if r < -math.pi:
        r += TWO_PI
    if r >= math.pi:
        r -= TWO_PI
    return r


# ---------------------------------------------------------------------------
# circle

def test_torus_point_angle_examples():
    assert TorusPoint(0.0).angle == 0.0
    assert TorusPoint(3 * math.pi).angle == -math.pi
    assert reduce_oracle(5.5) == 5.5 - TWO_PI
    assert TorusPoint(5.5).angle == pytest.approx(-0.7831853071795862, abs=1e-15)
    assert TorusPoint(5.5).angle == pytest.approx(reduce_oracle(5.5), abs=1e-15)


def test_torus_point_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite angle"):
        TorusPoint(float("nan"))
    with pytest.raises(ValueError, match="non-finite angle"):
        TorusPoint(float("inf"))


def test_torus_mul_examples():
    theta = TorusPoint(1.234)
    assert torus_mul(TorusPoint(0.0), theta) == theta
    assert torus_mul(TorusPoint(math.pi / 2), TorusPoint(math.pi / 2)).angle == -math.pi
    got = torus_mul(TorusPoint(2.0), TorusPoint(2.5)).angle
    assert got == pytest.approx(-1.7831853071795862, abs=1e-15)
    assert got == pytest.approx(reduce_oracle(4.5), abs=1e-15)


def test_torus_group_laws():
    rng = np.random.default_rng(20240101)
    for x in rng.uniform(-50, 50, size=200):
        a = TorusPoint(x)
        assert -math.pi <= a.angle < math.pi
        assert torus_mul(a, torus_inverse(a)).angle == 0.0
        assert torus_mul(a, TorusPoint.identity()) == a


def test_canonical_angle_idempotent_and_array():
    xs = np.array([0.0, 3 * math.pi, 5.5, -9.7, 2.1, -math.pi, math.pi])
    out = canonical_angle(xs)
    assert np.array_equal(canonical_angle(out), out)
    assert np.all((out >= -math.pi) & (out < math.pi))
    for x, o in zip(xs, out):
        assert canonical_angle(float(x)) == o


@given(st.floats(min_value=-1e8, max_value=1e8))
def test_canonical_angle_property(x):
    out = canonical_angle(x)
    assert -math.pi <= out < math.pi
    k = (x - out) / TWO_PI
    assert abs(k - round(k)) < 1e-6


def _array_path(x):
    return canonical_angle(np.array([x], dtype=float))[0]


def test_canonical_angle_scalar_path_is_bit_identical_to_the_array_path():
    rng = np.random.default_rng(2024)
    specials = [math.pi, -math.pi, TWO_PI, -TWO_PI, 3 * math.pi, -3 * math.pi, 0.0, -0.0]
    specials += [1e300, -1e300, 5e-324, math.nextafter(math.pi, 0.0)]
    # a few ulps around odd multiples of pi, where the mod can land on 2pi
    for k in range(-9, 11, 2):
        x = k * math.pi
        for _ in range(4):
            specials += [x, -x]
            x = math.nextafter(x, -math.inf)
    samples = np.concatenate(
        [rng.uniform(-10, 10, 500), rng.uniform(-1e6, 1e6, 500), rng.normal(0, 1e15, 200)]
    )
    for x in specials + samples.tolist():
        out = canonical_angle(x)
        assert type(out) is float
        assert np.float64(out).view(np.int64) == _array_path(x).view(np.int64), x
    for x in (np.float32(7.25), np.float32(-1e30), np.float64(-9.5), np.int64(-7), np.int32(3)):
        assert canonical_angle(x) == _array_path(x) and type(canonical_angle(x)) is float
    for x in (0, 7, -1000003, 2**62):
        assert np.float64(canonical_angle(x)).view(np.int64) == _array_path(x).view(np.int64)
    assert canonical_angle(True) == 1.0


def _where_formula(arr):
    """The array path as three np.where temporaries: the reference the
    in-place reduction must match bit for bit."""
    inside = (arr >= -np.pi) & (arr < np.pi)
    out = np.mod(arr + np.pi, TWO_PI) - np.pi
    out = np.where(out >= np.pi, out - TWO_PI, out)
    return np.where(inside, arr, out)


def test_canonical_angle_array_path_matches_the_where_formula_bit_for_bit():
    specials = [math.pi, -math.pi, math.nextafter(math.pi, 0.0), -0.0, 0.0, 1e300, -1e300]
    specials += [k * TWO_PI for k in range(-4, 5)] + [3 * math.pi, -3 * math.pi, 5.5]
    # just below an odd multiple of pi the mod lands on 2pi and folds
    specials += [math.nextafter(k * math.pi, -math.inf) for k in (-5, -3, -1, 3)]
    rng = np.random.default_rng(2025)
    xs = np.concatenate([specials, rng.uniform(-1e6, 1e6, 300), rng.normal(0, 1e15, 100)])
    matrix = np.stack([xs, -xs, 2 * xs])
    # a whole array, a strided view of it, and 0-d arrays
    cases = [xs, matrix[:, ::3], matrix.T[::2]] + [np.array(x) for x in specials]
    for arr in cases:
        before = arr.copy()
        out = canonical_angle(arr)
        assert np.array_equal(arr.view(np.int64), before.view(np.int64))
        want = _where_formula(before)
        assert np.shape(out) == want.shape
        assert np.array_equal(np.asarray(out).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_canonical_angle_scalar_path_rejects_non_finite_like_the_array_path(x):
    with pytest.raises(ValueError, match="non-finite angle"):
        canonical_angle(x)
    with pytest.raises(ValueError, match="non-finite angle"):
        _array_path(x)


def test_canonical_angle_returns_an_in_range_array_as_a_new_equal_array():
    xs = np.array([[-math.pi, -0.0, 0.0], [1.5, -3.0, math.nextafter(math.pi, 0.0)]])
    out = canonical_angle(xs)
    assert out is not xs and out.shape == xs.shape
    assert np.array_equal(out.view(np.int64), xs.view(np.int64))
    out[0, 0] = 1.0
    assert xs[0, 0] == -math.pi
    assert canonical_angle(np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_canonical_angle_refuses_non_finite_entries_among_in_range_ones(bad):
    for xs in ([bad], [0.5, bad, -1.0], [bad, 7.0]):
        with pytest.raises(ValueError, match="non-finite angle"):
            canonical_angle(np.array(xs))


def test_canonical_angle_of_a_0d_array_is_a_python_float():
    for x in (0.5, -math.pi, 5.5, 3 * math.pi):
        out = canonical_angle(np.array(x))
        assert type(out) is float and out == canonical_angle(x)


# ---------------------------------------------------------------------------
# p-adic integers

def test_prime_validation():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(4) and not is_prime(91)
    with pytest.raises(ValueError):
        PadicInt(4, (1, 0))
    with pytest.raises(ValueError):
        PadicInt(3, (3, 0))


def test_is_prime_is_false_for_non_integers():
    for p in (2.5, 3.5, 3.0, 2.0, True, "3", None, [3]):
        assert not is_prime(p), p
        with pytest.raises(ValueError):
            validate_prime(p)
    assert is_prime(np.int64(3)) and is_prime(np.int32(97))


@pytest.mark.parametrize("float_first,q", [(True, 7919), (False, 7927)])
def test_is_prime_answers_by_type_in_either_call_order(float_first, q):
    # a prime no other test asks about, so each order starts from a cold
    # cache: the float must not share an answer with the integer
    def as_float():
        assert not is_prime(float(q))

    def as_integer():
        validate_prime(np.int64(q))
        assert is_prime(q)

    for check in (as_float, as_integer) if float_first else (as_integer, as_float):
        check()


def test_is_prime_decides_large_integers_at_once():
    assert is_prime(2**61 - 1)
    # strong pseudoprimes: to bases 2, 3, 5 and 7, and to the first 12 primes
    assert not is_prime(3215031751)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)


def test_is_prime_agrees_with_trial_division_below_10_to_5():
    def trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial_division(n) for n in range(10**5))


@pytest.mark.parametrize(
    "build",
    [
        lambda p: PadicInt(p, (1,)),
        lambda p: SolenoidPoint(p, 0, 0.0),
        lambda p: solenoid_from_lift(p, 0, 0.0, ()),
    ],
    ids=["PadicInt", "SolenoidPoint", "solenoid_from_lift"],
)
def test_constructors_refuse_p_of_2_to_32_or_more_before_the_primality_test(build, monkeypatch):
    def primality_test(p):
        raise AssertionError(f"primality test ran on p={p}")

    monkeypatch.setattr(widlaws.groups, "_is_prime_int", primality_test)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        build(2**61 - 1)


def test_padic_add_examples():
    assert padic_add(PadicInt(2, (1, 0, 0)), PadicInt(2, (1, 0, 0))).digits == (0, 1, 0)
    # big-integer oracle: 124 + 1 = 125 = 0 mod 125
    assert (124 + 1) % 5**3 == 0
    assert padic_add(PadicInt(5, (4, 4, 4)), PadicInt(5, (1, 0, 0))).digits == (0, 0, 0)
    x = PadicInt(3, (2, 1, 0))
    assert padic_add(x, PadicInt.zero(3, 2)) == x


def test_padic_add_rejects_mismatch():
    with pytest.raises(ValueError, match="primes"):
        padic_add(PadicInt(2, (1, 0)), PadicInt(3, (1, 0)))
    with pytest.raises(ValueError, match="lengths"):
        padic_add(PadicInt(2, (1, 0)), PadicInt(2, (1, 0, 0)))


def test_padic_neg_examples():
    assert padic_neg(PadicInt(2, (0, 0, 0))).digits == (0, 0, 0)
    # oracle: 2**3 - 1 = 7 = (1,1,1) base 2
    assert PadicInt.from_int(2, 8 - 1, 2).digits == (1, 1, 1)
    assert padic_neg(PadicInt(2, (1, 0, 0))).digits == (1, 1, 1)
    # oracle: 5**3 - 2 = 123 = 3 + 4*5 + 4*25
    assert 3 + 4 * 5 + 4 * 25 == 123
    assert padic_neg(PadicInt(5, (2, 0, 0))).digits == (3, 4, 4)


def test_padic_mul_nat_examples():
    x = PadicInt(3, (1, 2, 1))
    assert padic_mul_nat(0, x).digits == (0, 0, 0)
    assert padic_mul_nat(3, PadicInt(3, (1, 0, 0))).digits == (0, 1, 0)
    # oracle: 3 * 3 = 9 = 1 mod 8
    assert (3 * 3) % 8 == 1
    assert padic_mul_nat(3, PadicInt(2, (1, 1, 0))).digits == (1, 0, 0)
    with pytest.raises(ValueError):
        padic_mul_nat(-1, x)


@pytest.mark.parametrize("k", [2.5, 2.0])
def test_padic_mul_nat_refuses_a_non_integer_k(k):
    with pytest.raises(TypeError):
        padic_mul_nat(k, PadicInt(3, (2, 1, 0, 0)))


@pytest.mark.parametrize("k", [0, 5, 2**62, 2**63 - 1])
def test_padic_mul_nat_reads_a_numpy_k_as_the_same_integer(k):
    # a numpy k must not multiply the digits in int64 and wrap
    x = PadicInt(3, (2, 1, 0, 0))
    want = _expansion(3, k * x.to_int(), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert padic_mul_nat(k, x).digits == want
        assert padic_mul_nat(np.int64(k), x).digits == want
        assert padic_mul_nat(np.uint64(k), x).digits == want


def _expansion(p, value, n):
    """Base-p digits of value mod p**n, straight from the integers."""
    value %= p**n
    return tuple(value // p**j % p for j in range(n))


def test_padic_scalar_ops_match_the_integers_at_p_2_to_31_minus_1():
    # a prime no oracle trial uses; its digit products pass 2**62
    p, n = 2**31 - 1, 6
    rng = np.random.default_rng(109)
    xs = rng.integers(0, p, size=(300, n)).tolist()
    ys = rng.integers(0, p, size=(300, n)).tolist()
    ks = rng.integers(0, 2**62, size=300).tolist()
    for xd, yd, k in zip(xs, ys, ks):
        x, y = PadicInt(p, tuple(xd)), PadicInt(p, tuple(yd))
        u = sum(d * p**j for j, d in enumerate(xd))
        v = sum(d * p**j for j, d in enumerate(yd))
        assert padic_add(x, y).digits == _expansion(p, u + v, n)
        assert padic_neg(x).digits == _expansion(p, -u, n)
        assert padic_mul_nat(k, x).digits == _expansion(p, k * u, n)
        assert padic_add(x, padic_neg(x)).is_identity()


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_padic_mul_nat_matches_the_integers_for_k_past_int64(p):
    # the scalar carry holds k * digit as a Python int: k near 2**62, where
    # k * (p - 1) passes int64, and k in 2**64..2**100, which no int64 holds
    rng = np.random.default_rng(p)
    for i in range(200):
        n = 1 + i % 40
        x = PadicInt(p, tuple(rng.integers(0, p, size=n).tolist()))
        if i % 2:
            k = 2**62 + int(rng.integers(-(2**20), 2**20))
        else:
            k = 2 ** int(rng.integers(64, 100)) + int(rng.integers(0, 2**62))
        assert padic_mul_nat(k, x).digits == _expansion(p, k * x.to_int(), n)


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_carry_is_its_digit_loop_wrapped_in_an_element(p):
    # _carry only wraps the tuple of _carry_digits, which the selftest
    # oracle checks trial by trial; entries of either sign past int64
    # included: k * digit for k near 2**62 and in 2**64..2**100
    from widlaws.groups import _carry, _carry_digits

    rng = np.random.default_rng(p + 1)
    rows = [rng.integers(-3 * p, 3 * p, size=1 + i % 20).tolist() for i in range(200)]
    for k in (2**62 - 7, 2**62 + 12_345, 2**64, 2**64 + 1, 2**100 - 1, 2**100):
        digits = rng.integers(0, p, size=8).tolist()
        rows += [[k * d for d in digits], [-k * d for d in digits]]
    for row in rows:
        x = _carry(p, iter(row))
        value = sum(e * p**j for j, e in enumerate(row))
        assert type(x) is PadicInt and x.p == p
        assert x.digits == _carry_digits(p, iter(row)) == _expansion(p, value, len(row))
    for carry in (_carry, _carry_digits):
        with pytest.raises(ValueError, match="at least one digit"):
            carry(p, [])


def test_padic_mul_by_p_kills_leading_digit():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        for _ in range(1000):
            x = PadicInt(p, tuple(int(d) for d in rng.integers(0, p, size=6)))
            assert padic_mul_nat(p, x).digits[0] == 0


def test_padic_bigint_oracle_random_triples():
    # add agrees with big-integer arithmetic and is commutative/associative
    rng = np.random.default_rng(101)
    depth = 15
    for p in (2, 3, 5):
        modulus = p ** (depth + 1)
        digits = rng.integers(0, p, size=(10000, 3, depth + 1))
        for row in digits:
            x, y, z = (PadicInt(p, tuple(int(v) for v in r)) for r in row)
            s = padic_add(x, y)
            assert s == PadicInt.from_int(p, (x.to_int() + y.to_int()) % modulus, depth)
            assert s == padic_add(y, x)
            assert padic_add(s, z) == padic_add(x, padic_add(y, z))


def test_phi_padic_examples():
    assert padic_from_ints(3, (0, 0, 0)).digits == (0, 0, 0)
    # brute-force congruence oracle: -1 = 26 mod 27 = 2 + 2*3 + 2*9
    assert (-1) % 27 == 26 and 2 + 2 * 3 + 2 * 9 == 26
    assert padic_from_ints(3, (-1, 0, 0)).digits == (2, 2, 2)
    assert padic_from_ints(2, (3, 0, 0)).digits == (1, 1, 0)


def test_phi_padic_congruences_and_homomorphism():
    rng = np.random.default_rng(55)
    for p in (2, 3, 5):
        lo, hi = -(10**6), 10**6
        ys = rng.integers(lo, hi, size=(10000, 6))
        zs = rng.integers(lo, hi, size=(10000, 6))
        for y, z in zip(ys, zs):
            fy = padic_from_ints(p, y)
            # prefix congruences against exact integers
            for d in range(6):
                lhs = sum(int(fy.digits[j]) * p**j for j in range(d + 1))
                rhs = sum(int(y[j]) * p**j for j in range(d + 1))
                assert (lhs - rhs) % p ** (d + 1) == 0
            assert padic_from_ints(p, y + z) == padic_add(fy, padic_from_ints(p, z))


@given(
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=1, max_size=8),
)
def test_phi_padic_matches_bigint(prime_idx, entries):
    p = (2, 3, 5)[prime_idx]
    depth = len(entries) - 1
    value = sum(e * p**j for j, e in enumerate(entries))
    assert padic_from_ints(p, entries) == PadicInt.from_int(p, value, depth)


def test_padic_from_ints_equals_the_checked_constructor():
    rng = np.random.default_rng(101)
    for p in (2, 3, 5, 7):
        for entries in rng.integers(-(10**6), 10**6, size=(50, 6)):
            x = padic_from_ints(p, entries)
            checked = PadicInt(p, x.digits)
            assert x == checked and hash(x) == hash(checked)
            assert all(type(d) is int for d in x.digits)
    # a numpy prime still gives Python-int digits
    x = padic_from_ints(np.int64(3), [-1, 0, 0])
    assert x == PadicInt(3, (2, 2, 2)) and all(type(d) is int for d in x.digits)


def test_normalized_padic_int_is_the_checked_element():
    for p, digits in ((2, (1, 0, 1)), (3, (2, 2, 0, 1)), (4294967291, (4294967290, 7))):
        x = PadicInt._normalized(p, digits)
        checked = PadicInt(p, digits)
        assert x == checked and hash(x) == hash(checked) and x.depth == checked.depth
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.digits = (0,) * len(digits)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.p = 5
        assert x.digits == digits
        for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert copied == checked and hash(copied) == hash(checked)


def test_padic_from_ints_reads_any_iterable_like_a_list():
    rng = np.random.default_rng(103)
    for p in (2, 3, 7):
        for row in rng.integers(-(10**9), 10**9, size=(40, 8)):
            want = padic_from_ints(p, row.tolist())
            assert padic_from_ints(p, (int(e) for e in row)) == want
            assert padic_from_ints(p, list(row)) == want  # numpy-int entries
            assert padic_from_ints(p, row) == want
            assert all(type(d) is int for d in padic_from_ints(p, row).digits)
    with pytest.raises(ValueError):
        padic_from_ints(3, iter(()))


def _agrees_with_exact_expansion(from_ints):
    """from_ints(p, entries) is the base-p expansion of sum(e_j * p**j)
    mod p**len(entries), on Python-int, numpy-int and negative entries."""
    rng = np.random.default_rng(107)
    for p in (2, 3, 5, 7, 2**31 - 1):
        for row in rng.integers(-(10**12), 10**12, size=(40, 6)):
            for entries in (row.tolist(), list(row), -np.abs(row)):
                ints = [int(e) for e in entries]
                want = _expansion(p, sum(e * p**j for j, e in enumerate(ints)), len(ints))
                if from_ints(p, entries).digits != want:
                    return False
    return True


def test_padic_from_ints_is_the_exact_expansion_of_its_entries():
    assert _agrees_with_exact_expansion(padic_from_ints)

    def drops_last_digit(p, entries):
        return PadicInt(p, padic_from_ints(p, entries).digits[:-1] + (0,))

    assert not _agrees_with_exact_expansion(drops_last_digit)


def test_padic_constructors_refuse_non_integer_digits():
    # int() would truncate 1.7 to 1 and -0.5 to 0 and give a wrong element
    with pytest.raises(TypeError):
        PadicInt(3, (1.7, 2.2))
    with pytest.raises(TypeError):
        PadicInt(3, (1.0, 2))
    with pytest.raises(TypeError):
        padic_from_ints(3, [2.5, -0.5])
    with pytest.raises(TypeError):
        padic_from_ints(3, np.array([2.0, 1.0]))
    # numpy integers are still read as the same Python ints
    assert PadicInt(3, tuple(np.array([1, 2], dtype=np.int64))).digits == (1, 2)
    assert padic_from_ints(3, np.array([2, -1], dtype=np.int64)).digits == (2, 2)


@pytest.mark.parametrize("p,entries", [(4, [1, 2]), (1, [0]), (2.0, [1]), (True, [1]), (3, [])])
def test_padic_from_ints_rejects_non_prime_and_empty_entries(p, entries):
    with pytest.raises(ValueError):
        padic_from_ints(p, entries)


def test_padic_to_int_is_the_digit_sum():
    for p, digits in ((2, (1, 0, 1, 1)), (5, (4,) * 31), (3, (0, 2, 1))):
        x = PadicInt(p, digits)
        assert x.to_int() == sum(d * p**j for j, d in enumerate(digits))


def test_padic_digit_matrix_matches_scalar():
    rng = np.random.default_rng(99)
    for p in (2, 3, 5):
        vals = rng.integers(-500, 500, size=(200, 5))
        out = padic_digit_matrix(p, vals)
        for row_in, row_out in zip(vals, out):
            assert padic_from_ints(p, row_in).digits == tuple(int(v) for v in row_out)


# the carry's primes: the smallest, two small odd ones, the largest below
# 2**16 and the largest below 2**32 (validate_prime's bound)
CARRY_PRIMES = (2, 3, 5, 65521, 4294967291)
_ENTRIES = st.integers(min_value=-(2**40), max_value=2**40)


def _carried_rows(p, values, carry):
    """padic_from_ints row by row, each row's carry added to its entry 0."""
    carries = np.broadcast_to(carry, len(values)).tolist()
    rows = values.tolist()
    return [padic_from_ints(p, [row[0] + c, *row[1:]]).digits for row, c in zip(rows, carries)]


def _digit_rows(digits):
    return [tuple(row) for row in digits.tolist()]


@given(
    st.sampled_from(CARRY_PRIMES),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_padic_digit_matrix_is_the_prefix_carry_in_every_layout(p, n, width, data):
    rows = st.lists(_ENTRIES, min_size=width, max_size=width)
    values = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.int64)
    per_row = np.array(data.draw(st.lists(_ENTRIES, min_size=n, max_size=n)), dtype=np.int64)
    for carry in (0, data.draw(_ENTRIES), per_row):
        for v in (np.ascontiguousarray(values), np.asfortranarray(values)):
            want = _carried_rows(p, v, carry)
            got = padic_digit_matrix(p, v, carry)
            assert got.flags.f_contiguous and _digit_rows(got) == want
            inplace = v.copy(order="K")
            assert padic_digit_matrix(p, inplace, carry, out=inplace) is inplace
            assert _digit_rows(inplace) == want
        view = np.broadcast_to(values[0], (n, width))
        assert _digit_rows(padic_digit_matrix(p, view, carry)) == _carried_rows(p, view, carry)


def test_padic_digit_matrix_of_no_digits_is_an_empty_matrix():
    out = padic_digit_matrix(3, np.zeros((4, 0), dtype=np.int64), np.arange(4))
    assert out.shape == (4, 0) and out.dtype == np.int64


def test_sampled_digit_matrices_are_column_major():
    # one contiguous column per digit is what the carry, the residues and
    # the solenoid tower read
    p, depth, n = 3, 4, 50
    eta = LevyMeasure(((PadicInt(p, (1, 2, 0, 0, 1)), 0.7),))
    zero = PadicInt.zero(p, depth)
    for zero_digits, levy in ((0, EMPTY_LEVY), (2, eta), (depth + 1, EMPTY_LEVY)):
        q = Quadruplet(PadicIntegers(p), PadicSubgroup(zero_digits), zero, 0.0, levy)
        digits = quadruplet_sampler(q, depth)(make_rng(5), n).digits
        assert digits.shape == (n, depth + 1) and digits.flags.f_contiguous
    # the lift is carried in place, so the sampler's column-major work
    # block stays column-major
    ints = np.asfortranarray(np.arange(n * depth, dtype=np.int64).reshape(n, depth))
    _, digits = solenoid_lift_matrix(p, np.linspace(-9.0, 9.0, n), ints)
    assert digits is ints
    assert digits.shape == (n, depth) and digits.flags.f_contiguous
    sol_eta = LevyMeasure(((SolenoidPoint(p, depth, 0.9), 0.5),))
    shift = SolenoidPoint(p, depth, 0.3)
    jumps = Quadruplet(Solenoid(p), SolenoidSubgroup.trivial(), shift, 0.2, sol_eta)
    haar = Quadruplet(Solenoid(p), SolenoidSubgroup.full(), shift, 0.0, EMPTY_LEVY)
    for q in (jumps, haar, trivial_quadruplet(Solenoid(p), depth=depth)):
        digits = quadruplet_sampler(q, depth)(make_rng(6), n).digits
        assert digits.shape == (n, depth) and digits.flags.f_contiguous


def test_padic_in_subgroup():
    x = PadicInt(2, (0, 1, 0))
    assert padic_in_subgroup(x, 0)
    assert padic_in_subgroup(x, 1)
    assert not padic_in_subgroup(PadicInt(2, (1, 0, 0)), 1)
    with pytest.raises(ValueError):
        padic_in_subgroup(x, 4)


# ---------------------------------------------------------------------------
# solenoid

def test_phi_solenoid_examples():
    s = solenoid_from_lift(3, 2, 0.0, (0, 0))
    assert s.is_identity() and all(s.coordinate_angle(j) == 0.0 for j in range(3))

    s = solenoid_from_lift(2, 1, math.pi, (0,))
    assert s.coordinate_angle(0) == -math.pi
    assert s.coordinate_angle(1) == pytest.approx(math.pi / 2, abs=1e-15)

    s = solenoid_from_lift(2, 1, 0.0, (1,))
    assert s.coordinate_angle(0) == 0.0
    assert s.coordinate_angle(1) == -math.pi


def test_solenoid_mul_examples():
    x = SolenoidPoint(5, 2, 0.77)
    e = SolenoidPoint.identity(5, 2)
    assert solenoid_mul(x, e) == x
    got = solenoid_mul(SolenoidPoint(2, 1, 0.3), SolenoidPoint(2, 1, 0.4))
    assert got.deep_angle == pytest.approx(0.7, abs=1e-15)
    got = solenoid_mul(SolenoidPoint(2, 1, 3.0), SolenoidPoint(2, 1, 1.0))
    assert got.deep_angle == pytest.approx(reduce_oracle(4.0), abs=1e-15)
    with pytest.raises(ValueError):
        solenoid_mul(SolenoidPoint(2, 1, 0.1), SolenoidPoint(3, 1, 0.1))
    with pytest.raises(ValueError):
        solenoid_mul(SolenoidPoint(2, 1, 0.1), SolenoidPoint(2, 2, 0.1))


def test_solenoid_project_examples():
    x = SolenoidPoint(2, 2, math.pi / 4)
    assert solenoid_project(x, 2).angle == math.pi / 4
    assert solenoid_project(x, 0).angle == -math.pi
    assert solenoid_project(SolenoidPoint(3, 1, 1.0), 0).angle == 3.0
    with pytest.raises(ValueError):
        solenoid_project(x, 3)


def test_tau_examples():
    e = SolenoidPoint.identity(2, 3)
    assert solenoid_lift(e) == (0.0, (0, 0, 0))

    y0, ints = solenoid_lift(SolenoidPoint(2, 1, math.pi / 2))
    assert y0 == -math.pi
    assert ints == (1,)


def test_tau_detects_incoherent_tower():
    class Broken(SolenoidPoint):
        def coordinate_angle(self, j):
            return 0.3 if j == 0 else 0.1

    with pytest.raises(ValueError, match="not a solenoid point"):
        solenoid_lift(Broken(2, 1, 0.1))


def test_phi_tau_roundtrip_random_points():
    rng = np.random.default_rng(2718)
    for p in (2, 3, 5):
        deeps = rng.uniform(-math.pi, math.pi, size=1000)
        for deep in deeps:
            x = SolenoidPoint(p, 3, float(deep))
            y0, ints = solenoid_lift(x)
            back = solenoid_from_lift(p, 3, y0, ints)
            for j in range(4):
                assert circular_distance(back.coordinate_angle(j), x.coordinate_angle(j)) <= 1e-12


def test_solenoid_tower_relation():
    rng = np.random.default_rng(31415)
    for p in (2, 3, 5):
        for deep in rng.uniform(-math.pi, math.pi, size=200):
            x = SolenoidPoint(p, 3, float(deep))
            for j in range(1, 4):
                assert (
                    circular_distance(p * x.coordinate_angle(j), x.coordinate_angle(j - 1))
                    <= 1e-12
                )


# ---------------------------------------------------------------------------
# solenoid batches: a base angle plus base-p digits

_PI = Fraction(math.pi)


def _exact_coordinate(p, y0, ints, j):
    """Coordinate j of the lift (y0, ints), (y0 + 2pi*sum(k_i p**i, i<j))
    / p**j reduced into [-pi, pi), in exact rationals (pi is the float pi,
    as in the library)."""
    value = (Fraction(y0) + 2 * _PI * sum(k * p**i for i, k in enumerate(ints[:j]))) / p**j
    turns = math.floor((value + _PI) / (2 * _PI))
    return float(value - 2 * _PI * turns)


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(25, 60),
    st.data(),
)
def test_deep_solenoid_batch_coordinates_match_exact_rationals(p, depth, data):
    rows = data.draw(st.integers(1, 3))
    y0 = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=rows, max_size=rows))
    entry = st.integers(-3 * p, 3 * p)
    ints = data.draw(
        st.lists(st.lists(entry, min_size=depth, max_size=depth), min_size=rows, max_size=rows)
    )
    # the lift is carried in place, into a copy of the reference rows
    base, digits = solenoid_lift_matrix(p, y0, np.array(ints, dtype=np.int64))
    assert np.all((base >= -math.pi) & (base < math.pi))
    assert digits.shape == (rows, depth) and np.all((digits >= 0) & (digits < p))
    batch = Samples(Solenoid(p), base, digits)
    deep, *coords = batch.columns(0, rows)
    assert deep is coords[-1]
    for i in range(rows):
        for j, column in enumerate(coords):
            want = _exact_coordinate(p, y0[i], ints[i], j)
            assert circular_distance(column[i], want) <= 1e-12, (i, j)


def test_solenoid_batch_reads_one_sweep_for_every_view():
    # the deep coordinate, the char_mean column and the dump columns agree
    # bit for bit
    rng = np.random.default_rng(1414)
    p, depth = 3, 45
    base, digits = solenoid_lift_matrix(
        p, rng.uniform(-9.0, 9.0, size=200), rng.integers(-5, 5, size=(200, depth))
    )
    batch = Samples(Solenoid(p), base, digits)
    columns = batch.columns(0, 200)
    assert np.array_equal(batch.group.coordinate(base, digits, depth), columns[0])
    for d in (0, 1, 17, depth):
        assert np.array_equal(solenoid_coordinate(p, base, digits, d), columns[d + 1])


def test_solenoid_samples_refuse_mismatched_shapes():
    # a batch's depth is its digit count, so a digit row stands for one
    # draw: a flat digit vector, a base that is not one column, a base of
    # another length, and a solenoid batch without a base are refused
    with pytest.raises(ValueError, match="shape"):
        Samples(Solenoid(2), np.array([0.5]), np.array([1, 0, 1]))
    with pytest.raises(ValueError, match="shape"):
        Samples(Solenoid(2), np.zeros((2, 1)), np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        Samples(Solenoid(2), np.zeros(3), np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        Samples(Solenoid(2), None, np.zeros((2, 1), dtype=np.int64))


# ---------------------------------------------------------------------------
# solenoid points: one batch row (base, digits)

def _digit_value(x):
    """The digits of x as the integer sum(x_i * p**i), without the carry."""
    return sum(d * x.p**i for i, d in enumerate(x.digits))


@pytest.mark.parametrize("p,depth", [(3, 25), (3, 40), (2, 60)])
def test_solenoid_from_lift_keeps_coordinate_0_bit_for_bit(p, depth):
    # a float deep angle in between read coordinate 0 as -0.93 at (3, 40)
    rng = np.random.default_rng(depth)
    for _ in range(20):
        digits = rng.integers(0, p, size=depth).tolist()
        x = solenoid_from_lift(p, depth, 0.4, digits)
        assert x.coordinate_angle(0) == 0.4
        assert x.digits == tuple(digits)


def test_solenoid_point_reads_its_coordinates_as_a_batch_row_does():
    rng = np.random.default_rng(4545)
    p, depth, n = 3, 45, 40
    base, digits = rng.uniform(-math.pi, math.pi, size=n), rng.integers(0, p, size=(n, depth))
    columns = Samples(Solenoid(p), base, digits).columns(0, n)
    for i in range(n):
        x = solenoid_from_lift(p, depth, base[i], digits[i])
        assert x.deep_angle == columns[0][i]
        coords = [x.coordinate_angle(j) for j in range(depth + 1)]
        assert all(type(c) is float for c in coords)
        assert coords == [c[i] for c in columns[1:]]


def test_solenoid_from_lift_carries_whole_turns_as_python_ints():
    # about 1.6e299 turns: an int64 holds none of them
    x = solenoid_from_lift(3, 40, 1e300, [0] * 40)
    assert x.base == canonical_angle(1e300)
    assert _digit_value(x) == round((1e300 - x.base) / TWO_PI) % 3**40
    x = solenoid_from_lift(3, 2, 0.5 - TWO_PI, [2**70, 0])
    assert x.base == canonical_angle(0.5 - TWO_PI)
    assert _digit_value(x) == (2**70 - 1) % 9
    with pytest.raises(ValueError, match="integer entries"):
        solenoid_from_lift(3, 2, 0.0, [1])
    with pytest.raises(ValueError, match="depth >= 0"):
        solenoid_from_lift(3, -1, 0.0, [])


@pytest.mark.parametrize("p,depth,angle", [(3, 600, 1.0), (2, 1000, -2.5), (5, 400, 0.3)])
def test_deep_solenoid_point_digits_are_its_turn_count(p, depth, angle):
    # coordinate 0 is y0 = p**depth * angle, about 2**930 to 2**1000: its
    # whole turns reach the digits through the scalar carry as one Python
    # int, far past int64
    y0 = p**depth * canonical_angle(angle)
    x = SolenoidPoint(p, depth, angle)
    assert x.base == canonical_angle(y0)
    turns = round((y0 - x.base) / TWO_PI)
    assert turns.bit_length() > 900
    assert x.digits == _expansion(p, turns, depth)


def test_solenoid_mul_and_inverse_are_exact_at_depth_60():
    rng = np.random.default_rng(60)
    p, depth = 3, 60

    def point(base):
        return solenoid_from_lift(p, depth, base, rng.integers(0, p, size=depth).tolist())

    bases = [-math.pi, 0.0, *rng.uniform(-math.pi, math.pi, size=30)]
    for b0, b1 in zip(bases, reversed(bases)):
        x, y = point(b0), point(b1)
        assert solenoid_mul(x, solenoid_inverse(x)).is_identity()
        # the digit sum, plus the turn that wrapping base + base may carry
        total = x.base + y.base
        turns = round((total - canonical_angle(total)) / TWO_PI)
        got = solenoid_mul(x, y)
        assert got.base == canonical_angle(total)
        assert _digit_value(got) == (_digit_value(x) + _digit_value(y) + turns) % p**depth


def test_solenoid_point_refuses_a_depth_past_the_float_range():
    # coordinate 0 of a deep angle is the float p**depth * deep_angle
    x = SolenoidPoint(2, 1020, 3.0)
    assert math.isfinite(x.coordinate_angle(0))
    for p, depth in ((2, 1021), (3, 700), (2, 10**9)):
        with pytest.raises(ValueError, match="not a finite float"):
            SolenoidPoint(p, depth, 0.0)
