"""Truncated power series, named series, and Riordan arrays.

A TruncatedSeries keeps exact coefficients (int, Fraction, or Polynomial)
through x^order.  Arithmetic tracks the truncation: sums and products carry
the smaller order of the operands, multiplying by x raises it.  Asking for
a coefficient beyond the order raises instead of silently returning junk.

The named series are defined by their defining equations, coefficientwise,
never by expanding a radical:

    C = 1 + x C^2            Catalan
    S = 1 + x S + x S^2      large Schroder (both weights 1)
    s = 1 + x S s            little Schroder (no horizontal step on the axis)

A Riordan array (d, h) with d(0) = 1, h(0) = 0 has entries
[x^n] d(x) h(x)^i; matrices are certified integral on extraction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TruncationExceeded, ZeroConstantTerm

DEFAULT_ORDER = 24


class TruncatedSeries:
    """Coefficients c_0 .. c_order of a power series, exactly."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("series order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs.extend([0] * (order + 1 - len(coeffs)))
        self.coeffs = tuple(coeffs[: order + 1])
        self.order = order

    def coeff(self, n: int):
        if n < 0:
            return 0
        if n > self.order:
            raise TruncationExceeded(
                f"coefficient {n} requested from a series truncated at {self.order}"
            )
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise TruncationExceeded(
                f"cannot extend a series truncated at {self.order} to {order}"
            )
        return TruncatedSeries(self.coeffs[: order + 1], order)

    @staticmethod
    def _coerce(other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return None  # scalar
        return NotImplemented

    def __add__(self, other):
        kind = self._coerce(other)
        if kind is NotImplemented:
            return NotImplemented
        if kind is None:
            out = list(self.coeffs)
            out[0] = out[0] + other
            return TruncatedSeries(out, self.order)
        order = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[n] + other.coeffs[n] for n in range(order + 1)], order
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if self._coerce(other) is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product through the smaller order.  Each sum starts at the
        operands' valuations va, vb (first nonzero indices): [x^n] is the zero
        a_0 b_0 for n < va + vb, else the sum of a_k b_(n-k) over k = va..n-vb.
        Each coefficient keeps its type if each operand's coefficients share
        one (int, Fraction or Polynomial)."""
        kind = self._coerce(other)
        if kind is NotImplemented:
            return NotImplemented
        if kind is None:
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        va, vb = (next((k for k in range(order + 1) if c[k]), order + 1) for c in (a, b))
        low = min(va + vb, order + 1)
        out = [a[0] * b[0]] * low if low else []
        for n in range(low, order + 1):
            total = a[va] * b[n - va]
            for k in range(va + 1, n - vb + 1):
                total = total + a[k] * b[n - k]
            out.append(total)
        return TruncatedSeries(out, order)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Binary powering that neither multiplies by the series 1 nor
        squares self past the highest set bit of n."""
        if n < 0:
            raise ValueError("negative series power; use recip")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return TruncatedSeries([1], self.order) if result is None else result

    def xmul(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by x^k; the truncation order grows with the shift."""
        return TruncatedSeries([0] * k + list(self.coeffs), self.order + k)

    def recip(self) -> "TruncatedSeries":
        s0 = self.coeffs[0]
        if s0 == 0:
            raise ZeroConstantTerm("series has no reciprocal: constant term is 0")
        inv0 = 1 if s0 == 1 else Fraction(1, 1) / Fraction(s0)
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = 0
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out.append(-acc * inv0 if s0 != 1 else -acc)
        return TruncatedSeries(out, self.order)

    def __eq__(self, other):
        """Coefficientwise equality up to the smaller truncation order."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return all(self.coeffs[n] == other.coeffs[n] for n in range(order + 1))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[: min(8, self.order + 1)])
        more = " ..." if self.order >= 8 else ""
        return f"TruncatedSeries([{head}{more}], order={self.order})"


# ---------------------------------------------------------------------------
# named series
# ---------------------------------------------------------------------------


def catalan_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    c = [1]
    for n in range(1, order + 1):
        c.append(sum(c[k] * c[n - 1 - k] for k in range(n)))
    return TruncatedSeries(c, order)


def big_schroder_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    s = [1]
    for n in range(1, order + 1):
        s.append(s[n - 1] + sum(s[k] * s[n - 1 - k] for k in range(n)))
    return TruncatedSeries(s, order)


def little_schroder_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    # s = 1 + x S s, coefficientwise
    big = big_schroder_series(order).coeffs
    s = [1]
    for n in range(1, order + 1):
        s.append(sum(big[k] * s[n - 1 - k] for k in range(n)))
    return TruncatedSeries(s, order)


def one_over_1px_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    return TruncatedSeries([(-1) ** n for n in range(order + 1)], order)


def _guvu_series(order: int) -> TruncatedSeries:
    from .enumeration import guvu_coeffs

    return TruncatedSeries(guvu_coeffs(order), order)


def _gfull_series(order: int) -> TruncatedSeries:
    from .enumeration import gfull_coeffs

    return TruncatedSeries(gfull_coeffs(order), order)


# name -> builder, in `gpaths series --name` order; C, S, s and one_over_1px
# have integer coefficients, guvu and gfull polynomials in the weights a, b, c
_NAMED = {
    "C": catalan_series,
    "S": big_schroder_series,
    "s": little_schroder_series,
    "one_over_1px": one_over_1px_series,
    "guvu": _guvu_series,
    "gfull": _gfull_series,
}


def named_series(name: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The series `name` of _NAMED, truncated at x^order."""
    if name not in _NAMED:
        raise ValueError(f"unknown series name {name!r}")
    return _NAMED[name](order)


# closed vocabulary for Riordan d/h expressions: the named series with integer
# coefficients and three polynomials, each with an optional power, joined by '*'
_ATOMS = {
    **{name: _NAMED[name] for name in ("C", "S", "s", "one_over_1px")},
    "x": lambda order: TruncatedSeries([0, 1], order),
    "one_minus_x": lambda order: TruncatedSeries([1, -1], order),
    "one_plus_x2": lambda order: TruncatedSeries([1, 0, 1], order),
}


def parse_series_expr(expr: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The product of the `*`-separated atoms, each raised to the power
    given by the ASCII digits after an optional `^`; the first atom starts
    the product."""
    result = None
    for token in expr.split("*"):
        token = token.strip()
        name, caret, power = token.partition("^")
        if name not in _ATOMS:
            raise ValueError(
                f"unknown series atom {name!r}; choose from "
                + ", ".join(sorted(_ATOMS))
            )
        factor = _ATOMS[name](order)
        if caret:
            if not (power.isascii() and power.isdigit()):
                raise ValueError(
                    f"malformed power in series token {token!r}: '^' must be "
                    "followed by ASCII digits only"
                )
            factor = factor ** int(power)
        result = factor if result is None else result * factor
    return result


# ---------------------------------------------------------------------------
# Riordan arrays
# ---------------------------------------------------------------------------


class RiordanArray:
    """(d, h) with d(0) = 1 and h(0) = 0; entry (n, i) is [x^n] d h^i.

    Column i is the series d h^i.  Columns are built on demand, in a loop,
    each as the previous column times h (column 0 is d), and kept.
    """

    def __init__(self, d: TruncatedSeries, h: TruncatedSeries):
        if d.coeff(0) != 1:
            raise ValueError("Riordan d-series must have constant term 1")
        if h.coeff(0) != 0:
            raise ValueError("Riordan h-series must have constant term 0")
        self.d = d
        self.h = h
        self.order = min(d.order, h.order)
        self._columns: list[TruncatedSeries] = [d.truncate(self.order)]

    def _column(self, i: int) -> TruncatedSeries:
        columns = self._columns
        while len(columns) <= i:
            columns.append(columns[-1] * self.h)
        return columns[i]

    def entry(self, n: int, i: int) -> int:
        if n > self.order:
            raise TruncationExceeded(
                f"entry ({n}, {i}) beyond truncation order {self.order}"
            )
        if i < 0 or i > n:
            return 0
        return _as_int(self._column(i).coeff(n))

    def matrix(self, n_max: int) -> list[list[int]]:
        return [[self.entry(n, i) for i in range(n + 1)] for n in range(n_max + 1)]


def _as_int(value) -> int:
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError(f"non-integer Riordan entry {value}")
        return int(value)
    if isinstance(value, int):
        return value
    raise ValueError(f"non-numeric Riordan entry {value!r}")


# ---------------------------------------------------------------------------
# the weighted generating function as a series in x at rational weights
# ---------------------------------------------------------------------------


def guvu_series_at(a, b, c, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """G(a,b,c;x) through (1/(1-ax)) C(x (b+cx) / ((1-ax)^2 (1+bx))), with
    Fraction coefficients.

    Solves F = 1 + t F^2 for the Catalan composite coefficientwise: t has
    positive valuation, so F_n = sum_{k>=1} t_k [x^(n-k)] F^2, and
    [x^m] F^2 needs only F_0 .. F_m.  Each [x^m] F^2 is computed once.
    Integer weights stay ints until the result: (1-ax)^2 (1+bx) and 1-ax
    have constant term 1, so t, F and G are integral.  Only a weight that is
    not an int becomes a Fraction.
    """
    a, b, c = (w if isinstance(w, int) else Fraction(w) for w in (a, b, c))
    one_minus_ax = TruncatedSeries([1, -a], order)
    one_plus_bx = TruncatedSeries([1, b], order)
    numer = TruncatedSeries([0, b, c], order)
    t = numer * (one_minus_ax**2 * one_plus_bx).recip()
    f = [1]
    f_squared = []
    for n in range(1, order + 1):
        f_squared.append(square_coeff(f, n - 1))
        f.append(sum(t.coeffs[k] * f_squared[n - k] for k in range(1, n + 1)))
    g = one_minus_ax.recip() * TruncatedSeries(f, order)
    return TruncatedSeries(map(Fraction, g.coeffs), order)


def square_coeff(f, m: int):
    """[x^m] F^2 from the coefficients f_0 .. f_m of F (numbers or
    polynomials); each unordered pair of distinct indices is multiplied
    once and doubled."""
    total = 0
    for k in range((m + 1) // 2):
        total = total + f[k] * f[m - k]
    total = total + total
    if m % 2 == 0:
        total = total + f[m // 2] * f[m // 2]
    return total
