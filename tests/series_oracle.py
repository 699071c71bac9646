"""The Fraction cofactor Wronskian and the chained-derivative recurrence
columns that veq.series replaced, and the `Fraction` loops of
`from_recurrence` and `from_ratio`, kept as oracles.

veq.series now runs the cofactor expansion on integer coefficient lists, each
column scaled by the common denominator of its coefficients, and builds each
recurrence column D^n(x^i f) in one pass. These are the earlier versions,
unchanged apart from their names: every product in the expansion is a
`TruncatedSeries` product over `Fraction`, and each column is `n` chained
`derivative` calls on `shift_x` powers of f.
"""

from fractions import Fraction

from veq.errors import EmptyList, InvariantError, PrecisionExhausted
from veq.series import TruncatedSeries, classify, derivative, shift_x


def oracle_wronskian(entries) -> TruncatedSeries:
    """Determinant of the matrix whose row i holds the i-th derivatives of
    the inputs. Expanded by exact cofactors: the truncated window has zero
    divisors, so pivot-division schemes are out."""
    entries = list(entries)
    if not entries:
        raise EmptyList("wronskian of nothing")
    n = len(entries)
    low = min(f.precision for f in entries)
    if low < n:
        raise PrecisionExhausted(
            f"wronskian of {n} series needs precision at least {n}, have {low}")
    rows = [entries]
    for _ in range(n - 1):
        rows.append([derivative(f) for f in rows[-1]])
    memo: dict[tuple[int, tuple[int, ...]], TruncatedSeries] = {}

    def minor(r: int, cols: tuple[int, ...]) -> TruncatedSeries:
        if len(cols) == 1:
            return rows[r][cols[0]]
        key = (r, cols)
        if key in memo:
            return memo[key]
        acc = None
        for j, c in enumerate(cols):
            rest = cols[:j] + cols[j + 1:]
            term = rows[r][c] * minor(r + 1, rest)
            if j % 2 == 1:
                term = -term
            acc = term if acc is None else acc + term
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def oracle_recurrence_columns(f: TruncatedSeries, order: int) -> list[TruncatedSeries]:
    """The n-th derivatives of f, xf, ..., x^n f, for n = order."""
    columns = []
    g = f
    for i in range(order + 1):
        h = g
        for _ in range(order):
            h = derivative(h)
        columns.append(h)
        g = shift_x(g)
    return columns


def oracle_is_linear_recurrence(f: TruncatedSeries, order: int):
    if order < 0:
        raise InvariantError("order must be non-negative")
    if f.precision < 2 * order + 2:
        raise PrecisionExhausted(
            f"order-{order} test needs precision {2 * order + 2}, have {f.precision}")
    return classify(oracle_wronskian(oracle_recurrence_columns(f, order)))


def oracle_from_recurrence(initials, coeffs, precision: int) -> TruncatedSeries:
    """The `Fraction` loop that veq.series.from_recurrence replaced."""
    initials = [Fraction(c) for c in initials]
    coeffs = [Fraction(c) for c in coeffs]
    if len(initials) != len(coeffs) or not coeffs:
        raise InvariantError("need as many initial terms as recurrence coefficients")
    if precision < 1:
        raise InvariantError("precision must be at least 1")
    out = list(initials[:precision])
    while len(out) < precision:
        out.append(sum(
            (c * out[len(out) - len(coeffs) + i] for i, c in enumerate(coeffs)),
            Fraction(0)))
    return TruncatedSeries(tuple(out))


def oracle_from_ratio(numerator, denominator, precision: int) -> TruncatedSeries:
    """The `Fraction` long division that veq.series.from_ratio replaced."""
    num = [Fraction(c) for c in numerator]
    den = [Fraction(c) for c in denominator]
    if not den or den[0] == 0:
        raise InvariantError("denominator needs a nonzero constant term")
    if precision < 1:
        raise InvariantError("precision must be at least 1")
    out = []
    for j in range(precision):
        acc = num[j] if j < len(num) else Fraction(0)
        for i in range(1, min(j, len(den) - 1) + 1):
            acc -= den[i] * out[j - i]
        out.append(acc / den[0])
    return TruncatedSeries(tuple(out))
