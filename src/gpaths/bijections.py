"""The weight-preserving bijections between the path families.

Every map is a case analysis on the head or tail of the word (labels
"C1".."C5" and "base"): a case writes a few letters and maps one or two
factors of the word, such as the inside of an arch and what follows it.
A trace list records them in the order of the recursive definition.
Nothing is sliced, rescanned or recursed into: paths of any length map in
linear time.  The underscore forms work on raw step strings.

A map records labels only when it is given a trace: without one it
stores none and calls nothing (`note` is None).  theta's maps and varphi
name their cases after the pass, from each letter and what it wrote.

sigma's forward map and theta's two maps are one left-to-right pass each:
each u pushes its position, and its arch's closer fills in what the u
writes, once the case is known.  theta reads one letter ahead;
sigma resolves its case u^i core v^i at the outermost v of the run.
sigma's inverse loops over a work stack of index ranges and reads the
partner of a range's first letter from `paths.match_table`.  vartheta's two
maps each make one scan of levels (`_axis_scan`).

varphi is one pair of one-pass maps (`_varphi_passes`), built once for
plain varphi and once for colored varphi, the last stage of psi.  psi and
varphi_theta are declared as a `Composite(first, second)`, the string map
second(first(word)).  psi forward is sigma, then colored varphi's inverse
(`_psi_mark`); psi inverse is colored varphi (`_psi_unmark`), then sigma's
inverse.  Those passes read or write the Schroder word's H and ud as the
marked peaks uD and ud of the colored Dyck word, so no colored Dyck word
is built.  Every trace, psi's too, is in the order of the recursive
definitions, a Composite's first part's cases then its second's.  Without
a trace every string map is pure, a function of its word alone:
certification relies on that when it answers a Composite's part with the
images of the same call made for another row (`verification._certify`).

On a word with a letter outside its alphabet or an unmatched step, a
string map raises DomainViolation and no other error, so certification
reports a broken map as a counterexample.  Only phi_peak's two maps may
give back a word instead: each rewrites one factor.

Maps and their domains:

  sigma        uvu-avoiding gmotzkin  <->  schroder        (v,d) -> (d, dd)
  phi_peak     colored dyck           <->  schroder        colored peak <-> H
  vartheta     ud-prefixed schroder with an H on the axis
                                      <->  H-prefixed little schroder
  theta        {uvu,uu}-avoiding gmotzkin  <->  bicolored motzkin
  rho          {uvu,uu,hu}-avoiding gmotzkin  <->  two-letter strings
  varphi       a-prefixed bicolored motzkin  <->  dyck
  psi          uvu-avoiding gmotzkin  <->  flavored-image paths
               (varphi^-1 after phi_peak^-1 after sigma, two passes
               per direction; tests compose the three rows as reference)
  varphi_theta h-prefixed {uvu,uu}-avoiding gmotzkin  <->  dyck

In psi's image the two flavors of the marked horizontal letter (a/A) and
of the down step (d/D) remember which summand of the composite weight each
step carries, which is exactly the information needed to invert.

Each map's domain and codomain are declared once, in its `BIJECTIONS` row
beside its two string maps (`forward_steps`, `inverse_steps`).  One
builder makes each row's public forward and inverse maps on Path objects
from those same string maps: they check the input's base (FamilyMismatch)
and the factors its family avoids and the prefixes it requires
(DomainViolation), refuse the empty path where the map has no image of
it, and return a Path of the other family.  Certification
(`verification`) calls the string maps of the row, a Composite part by
part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .errors import DomainViolation, EmptyPath, FamilyMismatch
from .paths import (
    BICOLORED_MOTZKIN,
    COLORED_DYCK,
    DYCK,
    GMOTZKIN,
    GMOTZKIN_UVU,
    HSTRING,
    PSI_IMAGE,
    SCHRODER,
    Path,
    PathFamily,
    match_table,
)

GMOTZKIN_UVU_UU = GMOTZKIN.avoiding("uvu", "uu")
GMOTZKIN_UVU_UU_HU = GMOTZKIN.avoiding("uvu", "uu", "hu")
VARPHI_DOMAIN = PathFamily("bicolored_motzkin", prefixes=("a",))
VARPHI_THETA_DOMAIN = replace(GMOTZKIN_UVU_UU, prefixes=("h",))

Trace = Optional[list]
StringMap = Callable[[str, Trace], str]


@dataclass(frozen=True)
class Composite:
    """The string map second(first(word)), both parts noting in one trace.

    A map declared this way shows certification its parts
    (`verification._certify`): a part that another row of the same walk
    also runs is called through a memo of the chunk's calls, so it is not
    run twice on one word.
    """

    first: StringMap
    second: StringMap

    def __call__(self, word: str, trace: Trace = None) -> str:
        return self.second(self.first(word, trace), trace)


def _malformed(name: str) -> DomainViolation:
    return DomainViolation(f"{name} got a letter outside its alphabet or an unmatched step")


def _close_pass(name: str, out: list, labels: Trace, opens: list, trace: Trace) -> str:
    """The image of a one-pass map: out[i] is what the letter at i writes,
    and labels, None without a trace, what each letter notes ("" for none),
    left to right; the word's end notes base."""
    if opens:
        raise _malformed(name)
    if labels is not None:
        trace += filter(None, labels)
        trace.append("base")
    return "".join(out)


# ---------------------------------------------------------------------------
# sigma: uvu-avoiding gmotzkin -> schroder
# ---------------------------------------------------------------------------


def _sigma_fwd(q: str, trace: Trace = None) -> str:
    n = len(q)
    out = [""] * n
    labels = None if trace is None else [""] * n
    opens: list[int] = []  # the u's of the open arches
    run = 0  # v-closed arches of the run u^run ... v^run the next letter closes
    prim = False  # the inside of that run is one arch, which closes with d
    i = 0
    try:
        while i < n:
            c = q[i]
            if c == "h":
                out[i] = "H"
                if labels:
                    labels[i] = "C1"
                i += 1
            elif c == "v":
                o = opens.pop()
                if labels and not run:
                    labels[i] = "base"  # the end of the run's core
                run += 1
                if not (opens and opens[-1] == o - 1 and q[i + 1] == "v"):
                    # the outermost arch of the run u^i core v^i: by the
                    # maximality of i a one-arch core closes with d (C3),
                    # and C3 writes what C4 writes for i - 1, then ud
                    j, odd = divmod(run - prim, 2)
                    out[o], out[i] = "u" * odd + "udu" * j + "ud" * prim, "d" * (j + odd)
                    if labels:
                        labels[o] = "C3" if prim else "C4"
                    run, prim = 0, False
                i += 1
            elif c == "d":
                # the u is matched by a d: its weight c = b^2 splits in two
                o = opens.pop()
                out[o], out[i] = "uu", "dd"
                if labels:
                    labels[o], labels[i] = "C5", "base"
                prim = bool(opens) and opens[-1] == o - 1 and q[i + 1] == "v"
                i += 1
            elif c != "u":
                raise _malformed("sigma")
            elif q[i + 1] != "v" or opens and opens[-1] == i - 1 and q[i + 2] == "v":
                # an arch, or the empty innermost arch of a run
                opens.append(i)
                i += 1
            elif q.startswith("h", i + 2):
                out[i] = "udH"
                if labels:
                    labels[i] = "C2"
                i += 3
            else:
                # a bare uv ends its range, and the range's end notes its base
                out[i] = "ud"
                i += 2
    except IndexError:
        raise _malformed("sigma") from None
    return _close_pass("sigma", out, labels, opens, trace)


# str.translate deleting these leaves exactly the letters outside the
# Schroder alphabet (one C-level pass, faster than str.strip on long words)
_SCHRODER_LETTERS_DELETED = dict.fromkeys(map(ord, SCHRODER.alphabet))


def _sigma_inv(p: str, trace: Trace = None) -> str:
    if p.translate(_SCHRODER_LETTERS_DELETED):
        # match_table pairs any down letter, and no case reads a closer
        raise _malformed("sigma_inv")
    note = None if trace is None else trace.append
    match = match_table(p)
    out: list[str] = []
    work = [("", 0, len(p))]
    while work:
        lead, lo, hi = work.pop()
        out.append(lead)
        while True:
            if lo == hi:
                note and note("base")
                break
            if p[lo] == "H":
                note and note("C1")
                out.append("h")
                lo += 1
                continue
            m = match[lo]
            if m < 0:
                raise _malformed("sigma_inv")
            if m == lo + 1:
                # empty arch ud, then the rest
                if m + 1 == hi:
                    note and note("base")
                    out.append("uv")
                    break
                if p[m + 1] == "H":
                    note and note("C2")
                    out.append("uvh")
                    lo = m + 2
                else:
                    note and note("C3")
                    m2 = match[m + 1]
                    out.append("u")
                    work.append(("v", m2 + 1, hi))
                    lo, hi = m + 1, m2 + 1
            elif match[lo + 1] == m - 1:
                # the arch's inside is itself one arch
                note and note("C5")
                out.append("u")
                work.append(("d", m + 1, hi))
                lo, hi = lo + 2, m - 1
            else:
                note and note("C4")
                out.append("u")
                work.append(("v", m + 1, hi))
                lo, hi = lo + 1, m
    return "".join(out)


# ---------------------------------------------------------------------------
# phi_peak: colored dyck <-> schroder
# ---------------------------------------------------------------------------


def _phi_fwd(p: str, trace: Trace = None) -> str:
    if trace is not None:
        trace.append("base")
    # occurrences of uD cannot overlap, so one left-to-right pass is exact
    return p.replace("uD", "H")


def _phi_inv(p: str, trace: Trace = None) -> str:
    if trace is not None:
        trace.append("base")
    return p.replace("H", "uD")


# ---------------------------------------------------------------------------
# vartheta: moves the leading ud past the first axis-level H
# ---------------------------------------------------------------------------


def _axis_scan(name: str, p: str, start: int) -> tuple[int, int]:
    """(the first H on the axis, the last u that leaves it) in p[start:],
    read from the axis, -1 for none, in one scan that refuses a word that
    goes below the axis or does not end on it."""
    level, h, u = 0, -1, -1
    i = start
    for c in p[start:]:
        if c == "u":
            if not level:
                u = i
            level += 1
        elif c == "d":
            level -= 1
            if level < 0:
                raise _malformed(name)
        elif h < 0 and not level:
            h = i
        i += 1
    if level:
        raise _malformed(name)
    return h, u


def _vartheta_fwd(p: str, trace: Trace = None) -> str:
    if trace is not None:
        trace.append("C1")
    if p.translate(_SCHRODER_LETTERS_DELETED):
        raise _malformed("vartheta")
    if not p.startswith("ud"):
        raise DomainViolation("vartheta needs a path opening with ud")
    split = _axis_scan("vartheta", p, 2)[0]
    if split < 0:
        raise DomainViolation("vartheta needs a horizontal step on the axis")
    return "H" + p[2:split] + "u" + p[split + 1 :] + "d"


def _vartheta_inv(p: str, trace: Trace = None) -> str:
    if trace is not None:
        trace.append("C1")
    if p.translate(_SCHRODER_LETTERS_DELETED):
        raise _malformed("vartheta_inv")
    if not p.startswith("H"):
        raise DomainViolation("vartheta_inv needs a path opening with H")
    if p[-1] != "d":
        raise DomainViolation("path ends with a horizontal step on the axis")
    # the last arch opens with the partner of the final d
    h, split = _axis_scan("vartheta_inv", p, 1)
    if h >= 0:
        raise DomainViolation("vartheta_inv needs no horizontal axis step after the first")
    return "ud" + p[1:split] + "H" + p[split + 1 : -1]


# ---------------------------------------------------------------------------
# theta: {uvu,uu}-avoiding gmotzkin <-> bicolored motzkin
# ---------------------------------------------------------------------------


# theta's case at a letter, by the piece it writes (b, a bare uv, has none)
_THETA_CASES = {"a": "C1", "bb": "C2", "bu": "C3", "ba": "C4", "u": "C5", "d": "base"}


def _theta_fwd(q: str, trace: Trace = None) -> str:
    n = len(q)
    out = [""] * n
    opens: list[int] = []  # the u's of the open uh arches
    i = 0
    try:
        while i < n:
            c = q[i]
            if c == "h":
                out[i] = "a"
                i += 1
            elif c == "d" or c == "v":
                out[opens.pop()] = "bu" if c == "d" else "u"
                out[i] = "d"
                i += 1
            elif c != "u":
                raise _malformed("theta")
            elif q[i + 1] == "h":
                # uu is forbidden, so the arch's inside starts after the h
                opens.append(i)
                i += 2
            elif q[i + 1] == "d":
                out[i] = "bb"
                i += 2
            elif q[i + 1] != "v":
                raise _malformed("theta")
            elif q.startswith("h", i + 2):
                # uvu is forbidden and a down step after uv ends the range
                out[i] = "ba"
                i += 3
            else:
                # a bare uv ends its range, and the range's end notes its base
                out[i] = "b"
                i += 2
    except IndexError:
        raise _malformed("theta") from None
    labels = None if trace is None else list(map(_THETA_CASES.get, out))
    return _close_pass("theta", out, labels, opens, trace)


# theta_inv's pieces for b and the letter after it, when that letter is not d
_THETA_INV_OF_B = {"b": "ud", "a": "uvh", "u": "uh"}
# theta_inv's case at a letter, by the letter and the piece it writes
_THETA_INV_CASES = {
    ("a", "h"): "C1", ("b", "ud"): "C2", ("b", "uh"): "C3", ("b", "uvh"): "C4",
    ("u", "uh"): "C5", ("d", "d"): "base", ("d", "v"): "base",
}


def _theta_inv(p: str, trace: Trace = None) -> str:
    n = len(p)
    out = [""] * n
    closers: list[str] = []  # per open arch, the closer of its preimage
    i = 0
    try:
        while i < n:
            c = p[i]
            if c == "a":
                out[i] = "h"
                i += 1
            elif c == "u":
                # the image of a v-closed arch; its inside may be empty
                out[i] = "uh"
                closers.append("v")
                i += 1
            elif c == "d":
                out[i] = closers.pop()
                i += 1
            elif c != "b":
                raise _malformed("theta_inv")
            elif i + 1 == n or p[i + 1] == "d":
                # a bare b ends its range, and the range's end notes its base
                out[i] = "uv"
                i += 1
            else:
                out[i] = _THETA_INV_OF_B[p[i + 1]]
                if p[i + 1] == "u":
                    closers.append("d")
                i += 2
    except (IndexError, KeyError):
        raise _malformed("theta_inv") from None
    labels = None if trace is None else list(map(_THETA_INV_CASES.get, zip(p, out)))
    return _close_pass("theta_inv", out, labels, closers, trace)


# ---------------------------------------------------------------------------
# rho: {uvu,uu,hu}-avoiding gmotzkin <-> words on two letters
# ---------------------------------------------------------------------------


def _rho_fwd(q: str, trace: Trace = None) -> str:
    note = None if trace is None else trace.append
    out: list[str] = []
    n = len(q)
    h_run = len(q.rstrip("h"))  # q[lo:] is all h exactly when lo >= h_run
    lo = 0
    while lo < h_run:
        if q.startswith("uv", lo):
            # hu-avoidance leaves only horizontal steps after a uv at the end
            if lo + 2 != h_run:
                raise DomainViolation("rho needs blocks u h^i v, u h^j d or h^n")
            note and note("C2")
            out.append("b" + "a" * (n - lo - 2))
            return "".join(out)
        if q[lo] != "u":
            raise DomainViolation("rho needs blocks u h^i v, u h^j d or h^n")
        i = lo + 1
        while i < n and q[i] == "h":
            i += 1
        if q.startswith("v", i):
            note and note("C3")
            out.append("a" * (i - lo - 1) + "b")
        elif q.startswith("d", i):
            note and note("C4")
            out.append("b" + "a" * (i - lo - 1) + "b")
        else:
            raise DomainViolation("rho needs blocks u h^i v, u h^j d or h^n")
        lo = i + 1
    note and note("C1")
    out.append("a" * (n - lo))
    return "".join(out)


def _rho_inv(s: str, trace: Trace = None) -> str:
    if s.strip(HSTRING.alphabet):
        raise _malformed("rho_inv")
    note = None if trace is None else trace.append
    out: list[str] = []
    n = len(s)
    last_b = s.rfind("b")
    lo = 0
    while lo <= last_b:
        if s[lo] == "a":
            note and note("C3")
            i = s.index("b", lo)
            out.append("u" + "h" * (i - lo) + "v")
            lo = i + 1
        elif lo == last_b:
            note and note("C2")
            out.append("uv" + "h" * (n - lo - 1))
            return "".join(out)
        else:
            note and note("C4")
            j = s.index("b", lo + 1)
            out.append("u" + "h" * (j - lo - 1) + "d")
            lo = j + 1
    note and note("C1")
    out.append("h" * (n - lo))
    return "".join(out)


# ---------------------------------------------------------------------------
# varphi: a-prefixed bicolored motzkin <-> dyck, plain and colored
# ---------------------------------------------------------------------------

# the down letter of an arch u w closer, by the mark that w opens with
_CLOSER_OF = {"a": "d", "A": "D"}


def _in_definition_order(labels: list) -> list:
    """varphi's labels, one per letter of its right-to-left reading and base
    for the word's start, in the order of its definition: C3 opens an arch's range and base closes one, and each
    range gives its own labels, then its arches' ranges from left to right."""
    top: tuple[list, list] = ([], [])  # a range's own labels, its arches' ranges
    enclosing = []
    for label in labels:
        top[0].append(label)
        if label == "C3":
            arch: tuple[list, list] = ([], [])
            top[1].append(arch)
            enclosing.append(top)
            top = arch
        elif label == "base" and enclosing:
            top = enclosing.pop()
    ordered, todo = [], [top]
    while todo:
        own, arches = todo.pop()
        ordered += own
        todo += arches  # read right to left, so the leftmost arch pops first
    return ordered


def _varphi_passes(peak_of: dict[str, str]) -> tuple[StringMap, StringMap]:
    """varphi and its inverse, one pass each, for the marks of peak_of: a
    mark of the source word is the peak peak_of[mark] of the image.  The
    inverse refuses a letter of no peak and no arch.

    Plain varphi has the one mark a, the peak ud.  Colored varphi has a for
    uD and A for ud; psi runs it on the Schroder word, where phi_peak reads
    H for uD, so no colored Dyck word is built.  The image of an arch's
    inner word w opens with a mark, and _CLOSER_OF that mark closes the arch.

    Each trace is in the order of the recursive definitions.  The inverse
    maps the last peak or arch of a range (the word, or an arch's inside)
    first, and an arch's inside before the rest of its range: that is the
    word read right to left, so the inverse notes C2 or C3 at each arch's
    closer and C1 or base at each mark, left to right, and hands the labels
    back reversed.  varphi's case at a letter is the letter's own
    (case_of), read right to left, but its definition maps a range's own
    letters before its arches' inner words, so only with a trace are its
    labels read and put in that order (_in_definition_order).
    """
    mark_of_closer = {_CLOSER_OF[mark]: mark for mark in peak_of}
    # varphi's case at each letter it reads
    case_of = dict.fromkeys(peak_of, "C1") | dict.fromkeys(mark_of_closer, "C3")
    case_of.update(b="C2", u="base")
    # str.translate deleting these leaves the letters of no peak and no arch
    image_letters_deleted = dict.fromkeys(map(ord, "ud" + "".join(peak_of.values())))

    def varphi(p: str, trace: Trace = None) -> str:
        """One right-to-left pass.  A range starts at index 0 or at a u,
        whose arch's closer names the range's first mark.  Each b of a range
        wraps the range's image so far in an arch: it writes d, and the
        range's start writes one u for it, after the u of the range's own
        arch and before the peak of its first mark."""
        if p[:1] not in peak_of:
            raise DomainViolation("varphi needs a path opening with the marked letter")
        out: list[str] = []  # the image, last piece first
        ranges: list[tuple[str, int]] = []  # the enclosing ranges' (first mark, u's)
        first, ups = p[0], 0
        for c in p[:0:-1]:
            if c == "b":
                out.append("d")
                ups += 1
            elif c == "u":
                if not ranges:
                    raise DomainViolation("u has no matching down step")
                out += (peak_of[first], "u" * ups)
                first, ups = ranges.pop()
            elif c in peak_of:
                out.append(peak_of[c])
            elif c in mark_of_closer:
                out.append("d")
                ranges.append((first, ups))
                first, ups = mark_of_closer[c], 1
            else:
                raise _malformed("varphi")
        if ranges:
            raise DomainViolation("down step has no matching u")
        out += (peak_of[first], "u" * ups)
        if trace is not None:
            trace += _in_definition_order([*map(case_of.get, p[:0:-1]), "base"])
        return "".join(reversed(out))

    def varphi_inv(blocks: str, trace: Trace = None) -> str:
        """One left-to-right pass.  With the peaks marked and the word as
        blocks B1...Bk on the axis, the image is f(B1) g(B2)...g(Bk): a peak
        gives its mark, f(u w d) = image(w) b and g(u w d) = u image(w)[1:]
        closer, where the closer is _CLOSER_OF the mark image(w)[0].  So a
        later arch writes u and holds its closer open until the first mark
        of its range is read."""
        if not blocks:
            raise DomainViolation("varphi_inv needs a nonempty path")
        if blocks.translate(image_letters_deleted):
            raise _malformed("varphi_inv")
        for mark, peak in peak_of.items():
            blocks = blocks.replace(peak, mark)
        labels: list[str] | None = None if trace is None else []
        note = None if labels is None else labels.append
        out: list[str] = []
        closers: list[str] = []  # per open arch: b, or a later arch's closer
        later = -1  # the later arch whose range's first mark is unread, -1 the word's
        start = True  # the next letter opens its range's first block
        try:
            for c in blocks:
                if c == "u":
                    if start:
                        closers.append("b")
                    else:
                        out.append("u")
                        later = len(closers)
                        closers.append("")
                        start = True
                elif c == "d":
                    closer = closers.pop()
                    note and note("C2" if closer == "b" else "C3")
                    out.append(closer)
                elif start:
                    note and note("base")
                    if later < 0:
                        out.append(c)
                    else:
                        closers[later] = _CLOSER_OF[c]
                    start = False
                else:
                    note and note("C1")
                    out.append(c)
        except IndexError:
            raise _malformed("varphi_inv") from None
        if closers:
            raise _malformed("varphi_inv")
        if labels is not None:
            trace += reversed(labels)
        return "".join(out)

    return varphi, varphi_inv


_varphi_fwd, _varphi_inv = _varphi_passes({"a": "ud"})


# ---------------------------------------------------------------------------
# psi and the composite varphi_theta
# ---------------------------------------------------------------------------

# psi's second pass in each direction is colored varphi on the Schroder
# word: phi_peak reads H for the peak uD, which the mark a stands for
_psi_unmark, _psi_mark = _varphi_passes({"a": "H", "A": "ud"})
_psi_fwd = Composite(_sigma_fwd, _psi_mark)
_psi_inv = Composite(_psi_unmark, _sigma_inv)
_varphi_theta_fwd = Composite(_theta_fwd, _varphi_fwd)
_varphi_theta_inv = Composite(_varphi_inv, _theta_inv)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


PathMap = Callable[[Path, Trace], Path]

# the maps with no image of the empty path, and what each raises for it
_NO_EMPTY_IMAGE = {
    "psi": (DomainViolation, "psi needs x-length at least 1"),
    "varphi_inv": (EmptyPath, "varphi_inv needs a nonempty path"),
    "varphi_theta_inv": (EmptyPath, "varphi_theta_inv needs a nonempty path"),
}


def _checked(
    name: str, string_map: StringMap, domain: PathFamily, codomain: PathFamily
) -> PathMap:
    """The public map `name`: string_map on the steps of a path of `domain`,
    checked against what that family declares, its image a `codomain` path."""
    base, avoid, prefixes = domain.base, domain.avoid, domain.prefixes
    opening = " or ".join(map(repr, prefixes))
    empty = _NO_EMPTY_IMAGE.get(name)

    def path_map(path: Path, trace: Trace = None) -> Path:
        if path.family.base != base:
            raise FamilyMismatch(f"{name} needs a {base} path, got {path.family.base}")
        steps = path.steps
        for pattern in avoid:
            if pattern in steps:
                raise DomainViolation(f"{name} needs a path avoiding {pattern!r}")
        if prefixes and not steps.startswith(prefixes):
            raise DomainViolation(f"{name} needs a path opening with {opening}")
        if empty is not None and not steps:
            raise empty[0](empty[1])
        return Path(codomain, string_map(steps, trace))

    path_map.__name__ = path_map.__qualname__ = name
    return path_map


@dataclass(frozen=True)
class BijectionSpec:
    forward: PathMap
    inverse: PathMap
    domain: PathFamily
    codomain: PathFamily
    # the string maps that forward and inverse apply to a checked path's steps
    forward_steps: StringMap
    inverse_steps: StringMap


BIJECTIONS: dict[str, BijectionSpec] = {
    name: BijectionSpec(
        _checked(name, fwd, dom, cod), _checked(name + "_inv", inv, cod, dom),
        dom, cod, fwd, inv,
    )
    for name, fwd, inv, dom, cod in (
        ("sigma", _sigma_fwd, _sigma_inv, GMOTZKIN_UVU, SCHRODER),
        ("phi_peak", _phi_fwd, _phi_inv, COLORED_DYCK, SCHRODER),
        ("vartheta", _vartheta_fwd, _vartheta_inv, SCHRODER, SCHRODER),
        ("theta", _theta_fwd, _theta_inv, GMOTZKIN_UVU_UU, BICOLORED_MOTZKIN),
        ("rho", _rho_fwd, _rho_inv, GMOTZKIN_UVU_UU_HU, HSTRING),
        ("varphi", _varphi_fwd, _varphi_inv, VARPHI_DOMAIN, DYCK),
        ("psi", _psi_fwd, _psi_inv, GMOTZKIN_UVU, PSI_IMAGE),
        ("varphi_theta", _varphi_theta_fwd, _varphi_theta_inv, VARPHI_THETA_DOMAIN, DYCK),
    )
}

# the public maps: each is the very object its registry row dispatches to
sigma, sigma_inv = BIJECTIONS["sigma"].forward, BIJECTIONS["sigma"].inverse
phi_peak, phi_peak_inv = BIJECTIONS["phi_peak"].forward, BIJECTIONS["phi_peak"].inverse
vartheta, vartheta_inv = BIJECTIONS["vartheta"].forward, BIJECTIONS["vartheta"].inverse
theta, theta_inv = BIJECTIONS["theta"].forward, BIJECTIONS["theta"].inverse
rho, rho_inv = BIJECTIONS["rho"].forward, BIJECTIONS["rho"].inverse
varphi, varphi_inv = BIJECTIONS["varphi"].forward, BIJECTIONS["varphi"].inverse
psi, psi_inv = BIJECTIONS["psi"].forward, BIJECTIONS["psi"].inverse
varphi_theta, varphi_theta_inv = (
    BIJECTIONS["varphi_theta"].forward, BIJECTIONS["varphi_theta"].inverse
)
