"""Truncated formal power series over exact rationals.

Every value carries an explicit precision: the number of leading
coefficients actually known. Binary operations keep the minimum of the two
precisions, each derivative consumes exactly one coefficient, and
multiplying by x gains one (the new window is fully determined). Zero is
only ever reported as zero-within-precision.

Coefficients are `Fraction` at every boundary. Inside, the Wronskian (the
costly step of recurrence detection) is integer arithmetic: each column is
scaled by the common denominator of its coefficients, the cofactor expansion
runs on integer coefficient lists, and one division comes at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, perm
from operator import mul

from .errors import (
    AllZeroCoefficients,
    EmptyList,
    InternalEquivalenceViolation,
    InvariantError,
    PrecisionExhausted,
)


@dataclass(frozen=True)
class TruncatedSeries:
    """Known coefficients c0..c(N-1); the precision is their count N >= 1."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise InvariantError("a series needs at least one known coefficient")
        if any(not isinstance(c, Fraction) for c in self.coeffs):
            object.__setattr__(
                self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def truncate(self, precision: int) -> "TruncatedSeries":
        if precision < 1 or precision > len(self.coeffs):
            raise PrecisionExhausted(
                f"cannot truncate a precision-{len(self.coeffs)} series to {precision}")
        return TruncatedSeries(self.coeffs[:precision])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        p = min(self.precision, other.precision)
        return TruncatedSeries(tuple(
            self.coeffs[i] + other.coeffs[i] for i in range(p)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        p = min(self.precision, other.precision)
        return TruncatedSeries(tuple(
            self.coeffs[i] - other.coeffs[i] for i in range(p)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        p = min(self.precision, other.precision)
        out = []
        for k in range(p):
            out.append(sum(
                (self.coeffs[i] * other.coeffs[k - i] for i in range(k + 1)),
                Fraction(0)))
        return TruncatedSeries(tuple(out))

    def scale(self, r) -> "TruncatedSeries":
        r = Fraction(r)
        return TruncatedSeries(tuple(r * c for c in self.coeffs))

    def first_nonzero(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None


def series(coeffs) -> TruncatedSeries:
    return TruncatedSeries(tuple(Fraction(c) for c in coeffs))


def constant(value, precision: int) -> TruncatedSeries:
    if precision < 1:
        raise InvariantError("precision must be at least 1")
    return TruncatedSeries((Fraction(value),) + (Fraction(0),) * (precision - 1))


def _integers(values) -> tuple[list[int], int]:
    """Integer numerators of `values` over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def from_recurrence(initials, coeffs, precision: int) -> TruncatedSeries:
    """The series whose k-th coefficient obeys
    f(k+n) = coeffs[0]*f(k) + ... + coeffs[n-1]*f(k+n-1).

    Runs on integers: with the initials over their common denominator s and
    the coefficients over theirs, d, g(k) = f(k) * s * d^k is an integer
    sequence with g(k+n) = sum of (d*coeffs[i]) * d^(n-1-i) * g(k+i)."""
    initials = [Fraction(c) for c in initials]
    coeffs = [Fraction(c) for c in coeffs]
    if len(initials) != len(coeffs) or not coeffs:
        raise InvariantError("need as many initial terms as recurrence coefficients")
    if precision < 1:
        raise InvariantError("precision must be at least 1")
    g, s = _integers(initials)
    c, d = _integers(coeffs)
    g = [gk * d ** k for k, gk in enumerate(g)]
    n = len(c)
    weights = [ci * d ** (n - 1 - i) for i, ci in enumerate(c)]
    while len(g) < precision:
        g.append(sum(map(mul, weights, g[-n:])))
    out = []
    scale = s
    for k in range(precision):
        out.append(Fraction(g[k], scale))
        scale *= d
    return TruncatedSeries(tuple(out))


def from_ratio(numerator, denominator, precision: int) -> TruncatedSeries:
    """Expansion of p(x)/q(x) with q(0) != 0, by long division.

    Runs on integers: with p = P/a and q = Q/b over common denominators,
    h(j) = (P/Q)(j) * Q(0)^(j+1) obeys
    h(j) = P(j) * Q(0)^j - sum over i >= 1 of Q(i) * Q(0)^(i-1) * h(j-i),
    and the j-th coefficient is b * h(j) / (a * Q(0)^(j+1))."""
    num = [Fraction(c) for c in numerator]
    den = [Fraction(c) for c in denominator]
    if not den or den[0] == 0:
        raise InvariantError("denominator needs a nonzero constant term")
    if precision < 1:
        raise InvariantError("precision must be at least 1")
    p, a = _integers(num)
    q, b = _integers(den)
    q0 = q[0]
    # weights[i-1] = Q(i) * Q(0)^(i-1), for i = 1 .. len(q)-1
    weights = [qi * q0 ** (i - 1) for i, qi in enumerate(q) if i]
    h: list[int] = []
    out = []
    power = 1  # Q(0)^j
    for j in range(precision):
        acc = p[j] * power if j < len(p) else 0
        for i in range(1, min(j, len(weights)) + 1):
            acc -= weights[i - 1] * h[j - i]
        h.append(acc)
        power *= q0
        out.append(Fraction(b * acc, a * power))
    return TruncatedSeries(tuple(out))


def derivative(f: TruncatedSeries) -> TruncatedSeries:
    if f.precision < 2:
        raise PrecisionExhausted("derivative needs precision at least 2")
    return TruncatedSeries(tuple(
        (n + 1) * f.coeffs[n + 1] for n in range(f.precision - 1)))


def shift_x(f: TruncatedSeries) -> TruncatedSeries:
    """Multiply by x; the whole longer window is determined, so precision
    goes up by one."""
    return TruncatedSeries((Fraction(0),) + f.coeffs)


# --- differential operator expressions -------------------------------------

_OP_KINDS = {"const": 0, "id": 0, "D": 0, "add": 2, "mul": 2, "compose": 2}


@dataclass(frozen=True)
class DiffOpExpr:
    """Expression tree over constants, the identity, and the derivative,
    closed under pointwise sums, pointwise products, and composition."""

    kind: str
    children: tuple["DiffOpExpr", ...] = ()
    value: Fraction | None = None

    def __post_init__(self):
        if self.kind not in _OP_KINDS:
            raise InvariantError(f"unknown operator node {self.kind!r}")
        if len(self.children) != _OP_KINDS[self.kind]:
            raise InvariantError(f"{self.kind} takes {_OP_KINDS[self.kind]} children")
        if self.kind == "const":
            if self.value is None:
                raise InvariantError("const node needs a rational value")
            object.__setattr__(self, "value", Fraction(self.value))
        elif self.value is not None:
            raise InvariantError(f"{self.kind} node carries no value")


OP_ID = DiffOpExpr("id")
OP_D = DiffOpExpr("D")


def op_const(value) -> DiffOpExpr:
    return DiffOpExpr("const", (), Fraction(value))


def op_mul(left: DiffOpExpr, right: DiffOpExpr) -> DiffOpExpr:
    return DiffOpExpr("mul", (left, right))


def apply_op(op: DiffOpExpr, f: TruncatedSeries) -> TruncatedSeries:
    if op.kind == "const":
        return constant(op.value, f.precision)
    if op.kind == "id":
        return f
    if op.kind == "D":
        return derivative(f)
    left, right = op.children
    if op.kind == "add":
        return apply_op(left, f) + apply_op(right, f)
    if op.kind == "mul":
        return apply_op(left, f) * apply_op(right, f)
    return apply_op(left, apply_op(right, f))


# --- Wronskians and the recurrence criterion --------------------------------


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer coefficient lists of one length, truncated
    to that length."""
    return [sum(map(mul, a[:k + 1], b[k::-1])) for k in range(len(a))]


def wronskian(entries) -> TruncatedSeries:
    """Determinant of the matrix whose row i holds the i-th derivatives of
    the inputs, expanded by exact cofactors (the truncated window has zero
    divisors) on integer coefficient vectors: column j is scaled by the
    common denominator d_j of its coefficients, whose derivatives stay
    integer, and the result is divided by d_1...d_n at the end. Its precision
    is the lowest input precision minus n - 1, the precision of the last
    row."""
    entries = list(entries)
    if not entries:
        raise EmptyList("wronskian of nothing")
    n = len(entries)
    low = min(f.precision for f in entries)
    if low < n:
        raise PrecisionExhausted(
            f"wronskian of {n} series needs precision at least {n}, have {low}")
    p = low - (n - 1)
    scale, columns = 1, []
    for f in entries:
        window = f.coeffs[:low]
        d = lcm(*(c.denominator for c in window))
        scale *= d
        columns.append([c.numerator * (d // c.denominator) for c in window])
    # coefficient k of the r-th derivative of v is (k+1)(k+2)...(k+r) v[k+r]
    rows = [[[perm(k + r, r) * v[k + r] for k in range(p)] for v in columns]
            for r in range(n)]
    memo: dict[tuple[int, tuple[int, ...]], list[int]] = {}

    def minor(r: int, cols: tuple[int, ...]) -> list[int]:
        if len(cols) == 1:
            return rows[r][cols[0]]
        key = (r, cols)
        if key in memo:
            return memo[key]
        acc = [0] * p
        for j, c in enumerate(cols):
            term = _convolve(rows[r][c], minor(r + 1, cols[:j] + cols[j + 1:]))
            if j % 2 == 1:
                acc = [s - t for s, t in zip(acc, term)]
            else:
                acc = [s + t for s, t in zip(acc, term)]
        memo[key] = acc
        return acc

    determinant = minor(0, tuple(range(n)))
    # minor refers to itself through its cell: clear it, so that rows and
    # memo are freed now, not by the cyclic collector
    del minor
    return TruncatedSeries(tuple(Fraction(c, scale) for c in determinant))


@dataclass(frozen=True)
class ZeroWithinPrecision:
    precision: int


@dataclass(frozen=True)
class Nonzero:
    index: int


def classify(f: TruncatedSeries):
    idx = f.first_nonzero()
    if idx is None:
        return ZeroWithinPrecision(f.precision)
    return Nonzero(idx)


def _recurrence_columns(f: TruncatedSeries, order: int) -> list[TruncatedSeries]:
    """D^order(x^i f) for i = 0..order, each in one pass: coefficient k is
    (k+1)(k+2)...(k+order) f[k+order-i], at precision f.precision+i-order."""
    rises = [perm(k + order, order) for k in range(f.precision)]
    zero = Fraction(0)
    return [
        TruncatedSeries(tuple(
            rises[k] * f.coeffs[k + order - i] if k + order >= i else zero
            for k in range(f.precision + i - order)))
        for i in range(order + 1)]


def is_linear_recurrence(f: TruncatedSeries, order: int):
    """Wronskian criterion: f satisfies some linear recurrence of order at
    most n exactly when the n-th derivatives of f, xf, ..., x^n f are
    linearly dependent over the window."""
    if order < 0:
        raise InvariantError("order must be non-negative")
    if f.precision < 2 * order + 2:
        raise PrecisionExhausted(
            f"order-{order} test needs precision {2 * order + 2}, have {f.precision}")
    return classify(wronskian(_recurrence_columns(f, order)))


def recurrence_equivalence_check(f: TruncatedSeries, coeff_vector) -> bool:
    """Both readings of "f obeys the recurrence with these coefficients":
    directly on the coefficient window, and as vanishing of the n-th
    derivative of (a0*x^n + a1*x^(n-1) + ... + an) * f. Returns the shared
    verdict; the two sides disagreeing is an internal error."""
    vec = [Fraction(c) for c in coeff_vector]
    if not vec or all(c == 0 for c in vec):
        raise AllZeroCoefficients("recurrence coefficients must not all vanish")
    order = len(vec) - 1
    if f.precision < order + 2:
        raise PrecisionExhausted(
            f"need precision {order + 2} for an order-{order} check, have {f.precision}")
    direct = all(
        sum((vec[i] * f.coeffs[k + i] for i in range(order + 1)), Fraction(0)) == 0
        for k in range(f.precision - order))
    poly_times = [Fraction(0)] * f.precision
    for j in range(f.precision):
        acc = Fraction(0)
        for i in range(order + 1):
            # coefficient of x^(order - i) in the polynomial is vec[i]
            deg = order - i
            if 0 <= j - deg < f.precision:
                acc += vec[i] * f.coeffs[j - deg]
        poly_times[j] = acc
    g = TruncatedSeries(tuple(poly_times))
    for _ in range(order):
        g = derivative(g)
    transformed = g.first_nonzero() is None
    if direct != transformed:
        raise InternalEquivalenceViolation(
            f"window says {direct}, derivative form says {transformed}")
    return direct


def wronskian_monotonicity_check(ops, f: TruncatedSeries) -> dict:
    """Evaluate the operators on f and compare the Wronskian of all but the
    last against the Wronskian of all of them. A zero antecedent with a
    nonzero consequent is flagged as a diagnostic: it means the precision
    was too small (or a bug), never a refutation."""
    ops = list(ops)
    if len(ops) < 2:
        raise EmptyList("need at least two operators to compare Wronskians")
    values = [apply_op(op, f) for op in ops]
    antecedent = classify(wronskian(values[:-1]))
    consequent = classify(wronskian(values))
    flag = isinstance(antecedent, ZeroWithinPrecision) and isinstance(consequent, Nonzero)
    return {
        "antecedent": antecedent,
        "consequent": consequent,
        "counterexample_at_precision": flag,
    }
