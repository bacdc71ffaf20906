"""Sparse integer polynomials in a, b, c and the step weightings.

A Polynomial maps exponent triples (ea, eb, ec) to nonzero integer
coefficients.  Every weighted count the package returns is one: exact, no
floats anywhere.  Evaluation keeps int arguments as ints and makes the
others Fractions, so an integer point gives an int.

A weighting assigns each step a monomial weight; the weight of a path is
the product over its steps, so it is always a single monomial, and a
weighted count is a plain sum of monomials.  Peak rules (a down step
immediately after an up step) are the only position-dependent case.

This module alone decides whether a weighting applies to a family and
what each step weighs: `step_exponents` raises the weighting faults and
gives the walks and the counting DP their per-step table; `weight`
validates through it.  It alone decides the packed encoding of an exponent
triple as one int (pack_exponents), the keys of the {packed exponents:
coeff} dicts that the counting DP and the two recurrences of `enumeration`
sum and multiply before they become Polynomials (Polynomial._from_packed).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import FamilyMismatch
from .paths import Path, PathFamily

_ZERO = (0, 0, 0)


class Polynomial:
    """Integer polynomial in a, b, c: {(ea, eb, ec): nonzero coeff}.

    The constructor refuses a key that is not a triple and a non-int or
    negative exponent, also under a zero coefficient.  `terms` is a fresh dict on each read, so a hashed
    value cannot be changed through it.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int, int], int] | None = None):
        terms = terms or {}
        for triple in terms:
            if len(triple) != 3:
                raise ValueError(f"exponents {triple!r} are not a triple")
            for e in triple:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"exponent {e!r} of {triple!r} is not an int >= 0")
        self._terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def _from_terms(cls, terms: dict[tuple[int, int, int], int]) -> "Polynomial":
        """The polynomial of {(ea, eb, ec): coeff}, zeros dropped, its
        exponents trusted."""
        poly = object.__new__(cls)
        poly._terms = {e: c for e, c in terms.items() if c != 0}
        return poly

    @classmethod
    def _from_packed(cls, packed: dict[int, int]) -> "Polynomial":
        """The polynomial of a {packed exponents: coeff} dict, zeros dropped."""
        return cls._from_terms({unpack_exponents(e): c for e, c in packed.items()})

    @property
    def terms(self) -> dict[tuple[int, int, int], int]:
        """{(ea, eb, ec): coeff}, a fresh dict on each read."""
        return dict(self._terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, n: int) -> "Polynomial":
        return cls._from_terms({_ZERO: n})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        e = [0, 0, 0]
        e["abc".index(name)] = 1
        return cls._from_terms({tuple(e): 1})

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial.const(other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial._from_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_terms({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int, int], int] = {}
        get = out.get
        for (a1, b1, c1), k1 in self._terms.items():
            for (a2, b2, c2), k2 in other._terms.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                out[e] = get(e, 0) + k1 * k2
        return Polynomial._from_terms(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        terms = self._terms
        if not terms.keys() - {_ZERO}:
            # a constant equals its int, so it hashes as that int
            return hash(terms.get(_ZERO, 0))
        return hash(frozenset(terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- queries ------------------------------------------------------------

    def eval_at(self, a, b, c=0) -> int | Fraction:
        """The exact value at (a, b, c); an argument that is not an int
        becomes a Fraction, so int arguments give an int."""
        a, b, c = (w if isinstance(w, int) else Fraction(w) for w in (a, b, c))
        total = 0
        for (ea, eb, ec), coeff in self._terms.items():
            total += coeff * a**ea * b**eb * c**ec
        return total

    def subs(self, a: "Polynomial", b: "Polynomial", c: "Polynomial") -> "Polynomial":
        """Substitute polynomials for the three variables."""
        total = Polynomial()
        for (ea, eb, ec), coeff in self._terms.items():
            total = total + coeff * a**ea * b**eb * c**ec
        return total

    # -- text form ----------------------------------------------------------

    def _sorted_terms(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        # degree-lexicographic, highest first
        return iter(
            sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self._sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip("abc", exps)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


A = Polynomial.var("a")
B = Polynomial.var("b")
C = Polynomial.var("c")
ZERO = Polynomial()


# ---------------------------------------------------------------------------
# weightings
# ---------------------------------------------------------------------------

# exponent triple contributed by a step; the one peak rule (a d right after
# a u weighs a, under dyck_peak_ab on plain dyck paths) is in packed_weight
_U = (0, 0, 0)
_A1 = (1, 0, 0)
_B1 = (0, 1, 0)
_C1 = (0, 0, 1)
_B2 = (0, 2, 0)
_AB = (1, 1, 0)

WEIGHTINGS: dict[str, tuple[frozenset[str], dict[str, tuple[int, int, int]]]] = {
    # u -> 1, h -> a, v -> b, d -> c
    "gmotzkin_abc": (
        frozenset({"gmotzkin"}),
        {"u": _U, "h": _A1, "v": _B1, "d": _C1},
    ),
    # the c = b^2 specialization used by the bijections
    "gmotzkin_ab_bsq": (
        frozenset({"gmotzkin"}),
        {"u": _U, "h": _A1, "v": _B1, "d": _B2},
    ),
    # h -> a, d -> b on plain Motzkin paths
    "motzkin_ab": (
        frozenset({"motzkin"}),
        {"u": _U, "h": _A1, "d": _B1},
    ),
    # H -> a, d -> b on (little) Schroder paths
    "schroder_ab": (
        frozenset({"schroder"}),
        {"u": _U, "H": _A1, "d": _B1},
    ),
    # peak down steps weigh a, the rest b; on colored paths D marks the
    # a-weighted peaks and d is always b
    "dyck_peak_ab": (
        frozenset({"dyck", "colored_dyck"}),
        {"u": _U, "d": _B1, "D": _A1},
    ),
    # the two horizontal colors weigh a and b, down steps ab
    "bicolored_motzkin_ab": (
        frozenset({"bicolored_motzkin"}),
        {"u": _U, "a": _A1, "b": _B1, "d": _AB},
    ),
    "hstring_ab": (
        frozenset({"hstring"}),
        {"a": _A1, "b": _B1},
    ),
    # flavored image alphabet: a/A are the two flavors of the marked
    # horizontal step (weights a and b), d/D the two down flavors (ab, b^2)
    "psi_image_ab": (
        frozenset({"psi_image"}),
        {"u": _U, "a": _A1, "A": _B1, "b": _B1, "d": _AB, "D": _B2},
    ),
}

# the weighting `count` uses for each base family
DEFAULT_WEIGHTING = {
    "gmotzkin": "gmotzkin_abc",
    "dyck": "dyck_peak_ab",
    "motzkin": "motzkin_ab",
    "schroder": "schroder_ab",
    "bicolored_motzkin": "bicolored_motzkin_ab",
    "hstring": "hstring_ab",
    "colored_dyck": "dyck_peak_ab",
    "psi_image": "psi_image_ab",
}


@lru_cache(maxsize=None)
def step_exponents(family: PathFamily, weighting: str) -> dict[str, dict[str, int]]:
    """The packed exponent triple of each letter of the family after each
    possible previous letter ("" for the first step), as {previous:
    {letter: packed triple}}: the one step table the walks of `enumeration`
    read.

    The one place that decides whether a weighting applies: it raises
    FamilyMismatch for an unknown weighting, for a letter of the family the
    weighting gives no weight, and for a family of another base.  A step's
    weight may depend on the letter before it (a peak), so it is the packed
    weight of prev+letter less that of prev.
    """
    try:
        bases, letters = WEIGHTINGS[weighting]
    except KeyError:
        raise FamilyMismatch(
            f"unknown weighting {weighting!r}; choose from "
            + ", ".join(sorted(WEIGHTINGS))
        ) from None
    base = family.base
    missing = sorted(set(family.alphabet) - set(letters))
    if missing:
        raise FamilyMismatch(
            f"weighting {weighting!r} gives no weight to step {missing[0]!r} "
            f"of family {base!r}"
        )
    if base not in bases:
        raise FamilyMismatch(
            f"weighting {weighting!r} does not apply to family {base!r}"
        )
    return {
        prev: {
            letter: packed_weight(prev + letter, weighting, base)
            - packed_weight(prev, weighting, base)
            for letter in family.alphabet
        }
        for prev in ("", *family.alphabet)
    }


def weight(path: Path, weighting: str) -> Polynomial:
    """Product of the step weights: always a single monomial."""
    step_exponents(path.family, weighting)
    return Polynomial._from_packed(
        {packed_weight(path.steps, weighting, path.family.base): 1}
    )


# Exponent triples packed into one int, ea + eb R + ec R^2 with R = 2**32,
# so adding packed triples adds the triples: the step table above and
# packed_weight give packed weights to code that sums them, and
# Polynomial._from_packed unpacks the sums.
_DIGIT = 32
_DIGIT_MASK = (1 << _DIGIT) - 1


def pack_exponents(triple: tuple[int, int, int]) -> int:
    ea, eb, ec = triple
    return ea + (eb << _DIGIT) + (ec << 2 * _DIGIT)


def unpack_exponents(packed: int) -> tuple[int, int, int]:
    return (packed & _DIGIT_MASK, (packed >> _DIGIT) & _DIGIT_MASK, packed >> 2 * _DIGIT)


# A letter raises each exponent by at most 2 (tests pin that), so a word of
# fewer than 2**31 letters never carries one digit into the next.
_MAX_LETTERS = 1 << (_DIGIT - 1)

# each weighting's letters as packed triples, and what a peak changes: its d
# weighs a, not b
_PACKED = {
    name: {letter: pack_exponents(e) for letter, e in letters.items()}
    for name, (_, letters) in WEIGHTINGS.items()
}
_PEAK = pack_exponents(_A1) - pack_exponents(_B1)


def packed_weight(steps: str, weighting: str, base: str) -> int:
    """The packed exponent triple of the monomial weight of a step string:
    the sum of its letters' packed triples, in C.

    On plain dyck paths the peak rule is structural (a d right after a u
    weighs a, one per "ud"); on colored paths the color letter alone
    decides.  A letter the weighting does not weigh raises KeyError.
    """
    if len(steps) >= _MAX_LETTERS:
        raise ValueError(
            f"a word of {len(steps)} letters is past the {_MAX_LETTERS - 1} "
            "whose exponents fit the packed triple"
        )
    packed = sum(map(_PACKED[weighting].__getitem__, steps))
    if weighting == "dyck_peak_ab" and base == "dyck":
        packed += steps.count("ud") * _PEAK
    return packed
