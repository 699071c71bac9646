import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from series_oracle import (
    oracle_from_ratio,
    oracle_from_recurrence,
    oracle_is_linear_recurrence,
    oracle_recurrence_columns,
    oracle_wronskian,
)
from veq.errors import (
    AllZeroCoefficients,
    EmptyList,
    InvariantError,
    PrecisionExhausted,
    VeqError,
)
from veq.series import (
    _recurrence_columns,
    OP_D,
    OP_ID,
    DiffOpExpr,
    Nonzero,
    TruncatedSeries,
    ZeroWithinPrecision,
    apply_op,
    classify,
    constant,
    derivative,
    from_ratio,
    from_recurrence,
    is_linear_recurrence,
    op_const,
    op_mul,
    recurrence_equivalence_check,
    series,
    shift_x,
    wronskian,
    wronskian_monotonicity_check,
)

FIB = from_recurrence([0, 1], [1, 1], 64)


def op_add(left: DiffOpExpr, right: DiffOpExpr) -> DiffOpExpr:
    return DiffOpExpr("add", (left, right))


def op_compose(outer: DiffOpExpr, inner: DiffOpExpr) -> DiffOpExpr:
    return DiffOpExpr("compose", (outer, inner))


def rand_series(rng, precision):
    return series([Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                   for _ in range(precision)])


def test_constructors_and_invariants():
    f = series([1, 2, 3])
    assert f.precision == 3
    assert all(isinstance(c, Fraction) for c in f.coeffs)
    with pytest.raises(InvariantError):
        TruncatedSeries(())
    assert constant(5, 4).coeffs == (Fraction(5), 0, 0, 0)
    assert f.truncate(2).coeffs == (1, 2)
    with pytest.raises(PrecisionExhausted):
        f.truncate(4)


def test_fibonacci_recurrence_values():
    assert FIB.coeffs[:10] == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34)
    assert FIB.precision == 64
    with pytest.raises(InvariantError):
        from_recurrence([0], [1, 1], 8)


def test_ratio_expansion():
    geo = from_ratio([1], [1, -1], 12)
    assert geo.coeffs == (1,) * 12
    half = from_ratio([1], [2, 1], 6)
    assert half.coeffs == (
        Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8),
        Fraction(-1, 16), Fraction(1, 32), Fraction(-1, 64))
    assert from_ratio([0, 1], [1, -1, -1], 20) == FIB.truncate(20)
    with pytest.raises(InvariantError):
        from_ratio([1], [0, 1], 5)


def test_arithmetic_windows():
    f = series([1, 2, 3, 4, 5])
    g = series([1, 1, 1])
    assert (f + g).coeffs == (2, 3, 4)
    assert (f - g).coeffs == (0, 1, 2)
    assert (f * g).coeffs == (1, 3, 6)
    assert (-g).coeffs == (-1, -1, -1)
    assert g.scale(Fraction(1, 2)).coeffs == (
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    geo = from_ratio([1], [1, -1], 9)
    sq = geo * geo
    assert sq.coeffs == tuple(n + 1 for n in range(9))


def test_derivative_and_shift():
    f = series([7, 0, 3, 0, 1])
    assert derivative(f).coeffs == (0, 6, 0, 4)
    assert derivative(f).precision == 4
    with pytest.raises(PrecisionExhausted):
        derivative(series([1]))
    assert shift_x(f).coeffs == (0, 7, 0, 3, 0, 1)
    assert shift_x(f).precision == 6


def test_derivative_is_linear_and_leibniz():
    rng = random.Random(7)
    for _ in range(25):
        f = rand_series(rng, 8)
        g = rand_series(rng, 8)
        assert derivative(f + g) == derivative(f) + derivative(g)
        assert derivative(f * g) == derivative(f) * g + f * derivative(g)


def test_operator_expressions():
    x_sq = series([0, 0, 1, 0, 0])
    twice = apply_op(op_compose(OP_D, OP_D), x_sq)
    assert twice == constant(2, 3)
    f = series([1, 2, 3, 4])
    assert apply_op(OP_ID, f) == f
    assert apply_op(op_mul(OP_ID, OP_ID), f) == f * f
    combo = apply_op(op_add(op_mul(op_const(3), OP_ID), OP_D), f)
    assert combo == f.scale(3).truncate(3) + derivative(f)
    assert apply_op(op_const(Fraction(1, 3)), f) == constant(Fraction(1, 3), 4)
    with pytest.raises(InvariantError):
        DiffOpExpr("const")
    with pytest.raises(InvariantError):
        DiffOpExpr("add", (OP_ID,))
    with pytest.raises(InvariantError):
        DiffOpExpr("frob")


def test_wronskian_small_cases():
    f = series([2, 5, 1, 4])
    assert wronskian([f]) == f
    doubled = wronskian([f, f])
    assert doubled.first_nonzero() is None
    assert doubled.precision == 3
    one = constant(1, 8)
    x = series([0, 1, 0, 0, 0, 0, 0, 0])
    assert wronskian([one, x]) == constant(1, 7)
    with pytest.raises(EmptyList):
        wronskian([])
    with pytest.raises(PrecisionExhausted):
        wronskian([series([1]), series([2])])


def test_recurrence_check_leaves_no_cyclic_garbage():
    # the cofactor expansion's recursive closure must not outlive the call
    gc.collect()
    gc.disable()
    try:
        is_linear_recurrence(FIB, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_wronskian_alternating_and_multilinear():
    rng = random.Random(11)
    for _ in range(15):
        f = rand_series(rng, 7)
        g = rand_series(rng, 7)
        h = rand_series(rng, 7)
        assert wronskian([f, g]) == -wronskian([g, f])
        a, b = Fraction(2), Fraction(-3, 2)
        left = wronskian([f.scale(a) + g.scale(b), h])
        right = wronskian([f, h]).scale(a) + wronskian([g, h]).scale(b)
        assert left == right


def test_wronskian_matches_permutation_expansion():
    rng = random.Random(13)
    for _ in range(8):
        fs = [rand_series(rng, 8) for _ in range(3)]
        rows = [fs, [derivative(f) for f in fs]]
        rows.append([derivative(f) for f in rows[1]])
        total = None
        for perm in itertools.permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = rows[0][perm[0]] * rows[1][perm[1]] * rows[2][perm[2]]
            if sign < 0:
                term = -term
            total = term if total is None else total + term
        assert wronskian(fs) == total


def test_recurrence_detection_frozen_outcomes():
    assert is_linear_recurrence(FIB, 2) == ZeroWithinPrecision(60)
    assert is_linear_recurrence(FIB, 1) == Nonzero(0)
    ones = series([1] * 16)
    assert is_linear_recurrence(ones, 1) == ZeroWithinPrecision(14)
    squares = series([Fraction(2) ** (k * k) for k in range(32)])
    assert isinstance(is_linear_recurrence(squares, 1), Nonzero)
    assert isinstance(is_linear_recurrence(squares, 2), Nonzero)
    geo = from_ratio([1], [1, -1], 10)
    assert is_linear_recurrence(geo, 1) == ZeroWithinPrecision(8)
    with pytest.raises(PrecisionExhausted):
        is_linear_recurrence(FIB.truncate(5), 2)
    with pytest.raises(InvariantError):
        is_linear_recurrence(FIB, -1)


def test_recurrence_detection_order_zero():
    assert is_linear_recurrence(constant(0, 6), 0) == ZeroWithinPrecision(6)
    assert is_linear_recurrence(series([0, 0, 1, 0]), 0) == Nonzero(2)


def test_recurrence_detection_is_conservative():
    for precision in (16, 32, 64):
        verdict = is_linear_recurrence(FIB.truncate(precision), 2)
        assert verdict == ZeroWithinPrecision(precision - 4)


def test_equivalence_check():
    assert recurrence_equivalence_check(FIB, [1, 1, -1]) is True
    assert recurrence_equivalence_check(FIB, [1, 0, -1]) is False
    geo = from_ratio([1], [1, -1], 10)
    assert recurrence_equivalence_check(geo, [1, -1]) is True
    with pytest.raises(AllZeroCoefficients):
        recurrence_equivalence_check(FIB, [0, 0, 0])
    with pytest.raises(PrecisionExhausted):
        recurrence_equivalence_check(FIB.truncate(3), [1, 1, -1])


def test_equivalence_check_random_agreement():
    rng = random.Random(17)
    for _ in range(40):
        order = rng.randint(1, 3)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(order)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        inits = [Fraction(rng.randint(-3, 3)) for _ in range(order)]
        f = from_recurrence(inits, coeffs, 12)
        vec = [Fraction(rng.randint(-3, 3)) for _ in range(order + 1)]
        if all(c == 0 for c in vec):
            vec[-1] = Fraction(1)
        got = recurrence_equivalence_check(f, vec)
        expect = all(
            sum((vec[i] * f.coeffs[k + i] for i in range(order + 1)), Fraction(0)) == 0
            for k in range(f.precision - order))
        assert got is expect
        true_vec = list(coeffs) + [Fraction(-1)]
        assert recurrence_equivalence_check(f, true_vec) is True


def test_monotonicity_report():
    geo = from_ratio([1], [1, -1], 12)
    doubled = wronskian_monotonicity_check(
        [OP_ID, op_mul(op_const(2), OP_ID), OP_D], geo)
    assert doubled["antecedent"] == ZeroWithinPrecision(11)
    assert isinstance(doubled["consequent"], ZeroWithinPrecision)
    assert doubled["counterexample_at_precision"] is False
    pair = wronskian_monotonicity_check([OP_ID, OP_D], geo)
    assert pair["antecedent"] == Nonzero(0)
    assert pair["consequent"] == Nonzero(0)
    assert pair["counterexample_at_precision"] is False
    with pytest.raises(EmptyList):
        wronskian_monotonicity_check([OP_ID], geo)


def outcome(fn, *args):
    """The result, or the type of the package error raised instead."""
    try:
        return fn(*args)
    except VeqError as e:
        return type(e)


RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def zero_heavy(low, high):
    """Rational coefficients behind a run of zeros of random length, at a
    precision in [low, high]: low coefficients are often zero, and
    denominators and precisions differ between entries."""
    return st.builds(
        lambda zeros, rest, precision: series(([0] * zeros + rest)[:precision]),
        st.integers(0, 3), st.lists(RATIONAL, min_size=high, max_size=high),
        st.integers(low, high))


def recurrent(low, high):
    """A window of a rational recurrence of order 1-3, at a precision in
    [low, high]."""
    return st.integers(1, 3).flatmap(lambda m: st.builds(
        from_recurrence, st.lists(RATIONAL, min_size=m, max_size=m),
        st.lists(RATIONAL, min_size=m, max_size=m), st.integers(low, high)))


# n entries at precisions from n to n + 6, or from n - 1 (one short) to n.
WRONSKIAN_INPUTS = st.integers(1, 5).flatmap(lambda n: st.one_of(
    st.lists(zero_heavy(n, n + 6), min_size=n, max_size=n),
    st.lists(zero_heavy(max(1, n - 1), n), min_size=n, max_size=n)))
# An order from -1 (invalid) to 5 and a window from one short of the
# 2 * order + 2 coefficients the test needs to six over.
RECURRENCE_INPUTS = st.integers(-1, 5).flatmap(lambda order: st.tuples(
    st.one_of(zero_heavy(max(1, 2 * order + 1), 2 * order + 8),
              recurrent(max(1, 2 * order + 1), 2 * order + 8)),
    st.just(order)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(WRONSKIAN_INPUTS)
def test_wronskian_matches_fraction_oracle(entries):
    got, expect = outcome(wronskian, entries), outcome(oracle_wronskian, entries)
    if isinstance(expect, type):
        assert got is expect
    else:
        assert got.coeffs == expect.coeffs
        assert got.precision == expect.precision
    assert outcome(wronskian, []) is outcome(oracle_wronskian, []) is EmptyList


@settings(derandomize=True, max_examples=150, deadline=None)
@given(RECURRENCE_INPUTS)
def test_recurrence_detection_matches_fraction_oracle(case):
    f, order = case
    got = outcome(is_linear_recurrence, f, order)
    assert got == outcome(oracle_is_linear_recurrence, f, order)
    if 0 <= order < f.precision:
        assert _recurrence_columns(f, order) == oracle_recurrence_columns(f, order)


# Initials, coefficients, numerators and denominators: integers and
# non-integer rationals of either sign, zero among them.
DECL_VALUE = st.one_of(
    st.integers(-9, 9), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))
SAME_LENGTH_PAIR = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(DECL_VALUE, min_size=n, max_size=n),
    st.lists(DECL_VALUE, min_size=n, max_size=n)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(SAME_LENGTH_PAIR, st.integers(1, 80))
def test_from_recurrence_matches_fraction_oracle(pair, precision):
    initials, coeffs = pair
    got = from_recurrence(initials, coeffs, precision)
    assert got == oracle_from_recurrence(initials, coeffs, precision)
    assert all(type(c) is Fraction for c in got.coeffs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(DECL_VALUE, max_size=6), st.lists(DECL_VALUE, min_size=1, max_size=6),
       st.integers(1, 80))
def test_from_ratio_matches_fraction_oracle(numerator, denominator, precision):
    got = outcome(from_ratio, numerator, denominator, precision)
    assert got == outcome(oracle_from_ratio, numerator, denominator, precision)
    assert got is InvariantError or all(type(c) is Fraction for c in got.coeffs)


@pytest.mark.parametrize("fn,oracle,args", [
    (from_recurrence, oracle_from_recurrence, ([], [], 3)),
    (from_recurrence, oracle_from_recurrence, ([1], [1, 2], 3)),
    (from_recurrence, oracle_from_recurrence, ([1], [1], 0)),
    (from_ratio, oracle_from_ratio, ([1], [], 3)),
    (from_ratio, oracle_from_ratio, ([1], [0, 1], 3)),
    (from_ratio, oracle_from_ratio, ([1], [1], 0)),
], ids=["rec-empty", "rec-lengths", "rec-precision", "ratio-empty", "ratio-zero",
        "ratio-precision"])
def test_series_decl_errors_match_fraction_oracle(fn, oracle, args):
    assert outcome(fn, *args) is outcome(oracle, *args) is InvariantError


def test_seven_series_wronskian_pins_precision():
    rng = random.Random(19)
    entries = [rand_series(rng, precision) for precision in (15, 11, 13, 12, 16, 14, 17)]
    got = wronskian(entries)
    assert got.precision == 11 - 6
    assert got == oracle_wronskian(entries)
    assert isinstance(classify(got), Nonzero)
