"""Lattice path families, parsing, and the matching of up and down steps.

All paths run from the origin to a point on the x-axis and never dip below
it.  A path is stored as a string of step letters; the geometry of each
letter is global across families:

    u (1,1)   d (1,-1)   h (1,0)    v (0,-1)
    H (2,0)   D (1,-1)   a (1,0)    b (1,0)   A (1,0)

x_length counts horizontal displacement, so v steps are free.  The *level*
of a step is the ordinate of its endpoint; the matching step of a u at
level k is the first later down step (d, D or v) at level k-1.

Families restrict the alphabet and may add constraints: a tuple of
forbidden contiguous letter patterns, a no-horizontal-step-on-the-axis
rule, and a set of allowed prefixes.  `colored_dyck` uses D for a peak
down-step carrying the first color; D is only legal immediately after u.
`psi_image` refines bicolored Motzkin paths: a/A are the two flavors of
the marked horizontal step, d/D the two flavors of the down step, b the
plain horizontal step, and the path must open with a or A.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    ConstraintViolation,
    DomainViolation,
    GeometryViolation,
    UnknownSymbol,
)

# (dx, dy) per letter; identical in every family that uses the letter.
STEP_GEOMETRY = {
    "u": (1, 1),
    "d": (1, -1),
    "h": (1, 0),
    "v": (0, -1),
    "H": (2, 0),
    "D": (1, -1),
    "a": (1, 0),
    "b": (1, 0),
    "A": (1, 0),
}

ALPHABETS = {
    "gmotzkin": "uhvd",
    "dyck": "ud",
    "motzkin": "uhd",
    "schroder": "uHd",
    "bicolored_motzkin": "uabd",
    "hstring": "ab",
    "colored_dyck": "udD",
    "psi_image": "uaAbdD",
}

DOWN_LETTERS = frozenset("dDv")


@dataclass(frozen=True)
class PathFamily:
    """A base alphabet plus optional constraints."""

    base: str
    avoid: tuple[str, ...] = ()
    no_h_on_axis: bool = False
    prefixes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.base not in ALPHABETS:
            raise ValueError(f"unknown family base {self.base!r}")

    @property
    def alphabet(self) -> str:
        return ALPHABETS[self.base]

    def avoiding(self, *patterns: str) -> "PathFamily":
        return replace(self, avoid=tuple(sorted(set(self.avoid) | set(patterns))))

    def restricted(self) -> "PathFamily":
        """The same family with horizontal steps banned on the x-axis."""
        return replace(self, no_h_on_axis=True)

    def describe(self) -> str:
        parts = [self.base]
        if self.avoid:
            parts.append("avoid=" + ",".join(self.avoid))
        if self.no_h_on_axis:
            parts.append("no-h-on-axis")
        if self.prefixes:
            parts.append("prefix in {" + ",".join(self.prefixes) + "}")
        return " ".join(parts)


GMOTZKIN = PathFamily("gmotzkin")
GMOTZKIN_UVU = GMOTZKIN.avoiding("uvu")
DYCK = PathFamily("dyck")
MOTZKIN = PathFamily("motzkin")
SCHRODER = PathFamily("schroder")
LITTLE_SCHRODER = SCHRODER.restricted()
BICOLORED_MOTZKIN = PathFamily("bicolored_motzkin")
HSTRING = PathFamily("hstring")
COLORED_DYCK = PathFamily("colored_dyck")
PSI_IMAGE = PathFamily("psi_image", prefixes=("a", "A"))

BASE_FAMILIES = {
    "gmotzkin": GMOTZKIN,
    "dyck": DYCK,
    "motzkin": MOTZKIN,
    "schroder": SCHRODER,
    "bicolored_motzkin": BICOLORED_MOTZKIN,
    "hstring": HSTRING,
    "colored_dyck": COLORED_DYCK,
    "psi_image": PSI_IMAGE,
}


@dataclass(frozen=True)
class Path:
    """A validated path.  Construct through `parse`."""

    family: PathFamily
    steps: str

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return self.steps


def validate_steps(steps: str, family: PathFamily) -> None:
    alphabet = family.alphabet
    level = 0
    for pos, letter in enumerate(steps):
        if letter not in alphabet:
            raise UnknownSymbol(letter, pos)
        dx, dy = STEP_GEOMETRY[letter]
        if (
            letter == "D"
            and family.base == "colored_dyck"
            and (pos == 0 or steps[pos - 1] != "u")
        ):
            raise ConstraintViolation(
                f"colored peak step D at position {pos} does not follow u"
            )
        if family.no_h_on_axis and dy == 0 and level == 0:
            raise ConstraintViolation(
                f"horizontal step on the x-axis at position {pos}"
            )
        level += dy
        if level < 0:
            raise GeometryViolation("path dips below the x-axis", pos)
    if level != 0:
        raise GeometryViolation("path does not end on the x-axis", len(steps))
    for pattern in family.avoid:
        at = steps.find(pattern)
        if at >= 0:
            raise ConstraintViolation(
                f"forbidden pattern {pattern!r} at position {at}"
            )
    if family.prefixes and not any(steps.startswith(p) for p in family.prefixes):
        raise ConstraintViolation(
            "path must start with one of " + ", ".join(map(repr, family.prefixes))
        )


def parse(text: str, family: PathFamily) -> Path:
    validate_steps(text, family)
    return Path(family, text)


def x_length(path: Path) -> int:
    return sum(STEP_GEOMETRY[c][0] for c in path.steps)


# ---------------------------------------------------------------------------
# matching (string level, reused by the bijections)
# ---------------------------------------------------------------------------


def match_table(steps: str) -> list[int]:
    """Partner index of every u and every down step, in one stack pass.

    Entry i is the index of the step matched with the u or down step at i
    (for a u, the first later down step one level below its endpoint), and
    -1 for a horizontal step.  The partners inside any balanced factor of
    `steps` are the same as in that factor on its own.  sigma's inverse
    reads it; sigma's forward map, theta and varphi's passes match their
    steps with a stack as they read them, and vartheta's with a level.
    """
    partner = [-1] * len(steps)
    open_us = []
    for i, c in enumerate(steps):
        if c == "u":
            open_us.append(i)
        elif c in DOWN_LETTERS:
            if not open_us:
                raise DomainViolation(f"down step at index {i} has no matching u")
            j = open_us.pop()
            partner[i] = j
            partner[j] = i
    if open_us:
        raise DomainViolation(f"u at index {open_us[-1]} has no matching step")
    return partner
