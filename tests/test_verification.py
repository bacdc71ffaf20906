"""Every criterion catches a broken route and names its first counterexample;
criterion 3 certifies the registered maps and catches a broken one."""

import dataclasses
from collections import Counter
from types import MappingProxyType

import pytest

from gpaths import bijections as bij
from gpaths import verification
from gpaths.enumeration import _prefix_blocks, count_paths, iter_step_strings, prop21
from gpaths.paths import GMOTZKIN_UVU
from gpaths.stats import stat_brute, stat_riordan, stat_table
from gpaths.verification import (
    CATALAN,
    CERTIFICATIONS,
    check_ballot,
    check_bijections,
    check_identities,
    check_restricted_stats,
    check_stat_identities,
    check_stat_tables,
    check_weighted_counts,
    run_suite,
)
from gpaths.weights import B, Polynomial, packed_weight


def _corrupt_last_letter(s, trace=None):
    steps = bij._rho_inv(s, trace)
    if steps:
        steps = steps[:-1] + ("v" if steps[-1] == "h" else "h")
    return steps


def _merge_uvh_into_uhv(q, trace=None):
    # uvh and uhv share the weight a*b, so only the round trip can tell the
    # two apart, and onto is not shown where it fails
    return bij._rho_fwd("uhv" if q == "uvh" else q, trace)


def _psi_opening_with_b(q, trace=None):
    # b is a letter of psi's codomain, but no path of it opens with b
    return "b" + bij._psi_fwd(q, trace)[1:]


def _sigma_with_first_ud_turned(q, trace=None):
    # du dips below the axis, where the inverse's match_table raises
    return bij._sigma_fwd(q, trace).replace("ud", "du", 1)


def _rho_reading_vu_for_uv(q, trace=None):
    # the forward map itself raises on a word of its domain
    return bij._rho_fwd(q.replace("uv", "vu"), trace)


def _psi_unmark_with_H_as_ud(s, trace=None):
    # still a Schroder word, and psi's sigma inverse runs on it: the shared
    # walk must not answer that call with sigma's own call on sigma's images
    return bij._psi_unmark(s, trace).replace("H", "ud", 1)


def _theta_writing_H_for_a(q, trace=None):
    # H is no letter of theta's codomain, so its inverse refuses the image
    # with a DomainViolation, which certification reports
    return bij._theta_fwd(q, trace).replace("a", "H")


ROUND = "rho round trip is the identity up to n=3"
IMAGE = "rho maps onto its codomain up to n=3"


# certification maps a chunk of words per call and checks word by word only
# in a chunk that fails: every chunk size gives the same results
CHUNKS = pytest.mark.parametrize(
    "chunk", [1, 3, verification._CHUNK], ids=lambda c: f"chunk{c}"
)


@CHUNKS
@pytest.mark.parametrize(
    "name, field, broken, failures",
    [
        (
            "rho",
            "inverse_steps",
            _corrupt_last_letter,
            {
                ROUND: "round trip fails at 'uv' -> 'b' -> 'uh'",
                IMAGE: "not shown at n=1: a round trip fails",
            },
        ),
        (
            "rho",
            "forward_steps",
            _merge_uvh_into_uhv,
            {
                ROUND: "round trip fails at 'uvh' -> 'ab' -> 'uhv'",
                IMAGE: "not shown at n=2: a round trip fails",
            },
        ),
        (
            "rho",
            "forward_steps",
            _rho_reading_vu_for_uv,
            {
                ROUND: "forward map raises at 'uv': rho needs blocks u h^i v, u h^j d or h^n",
                IMAGE: "image count differs at n=1: 1 accepted, 2 in the codomain",
            },
        ),
        (
            "psi",
            "forward_steps",
            _psi_opening_with_b,
            {
                "psi round trip is the identity up to n=3": (
                    "round trip fails at 'uv' -> 'b': "
                    "varphi needs a path opening with the marked letter"
                ),
                "psi maps onto its codomain up to n=3": (
                    "image not in the codomain at 'uv' -> 'b'"
                ),
            },
        ),
        (
            "psi",
            "inverse_steps",
            bij.Composite(_psi_unmark_with_H_as_ud, bij._sigma_inv),
            {
                "psi round trip is the identity up to n=3": (
                    "round trip fails at 'h' -> 'a' -> 'uv'"
                ),
                "psi maps onto its codomain up to n=3": (
                    "not shown at n=1: a round trip fails"
                ),
            },
        ),
        (
            "sigma",
            "forward_steps",
            _sigma_with_first_ud_turned,
            {
                "sigma round trip is the identity up to n=3": (
                    "round trip fails at 'uv' -> 'du': "
                    "down step at index 0 has no matching u"
                ),
                "sigma maps onto its codomain up to n=3": (
                    "image not in the codomain at 'uv' -> 'du'"
                ),
            },
        ),
        (
            "theta",
            "forward_steps",
            _theta_writing_H_for_a,
            {
                "theta round trip is the identity up to n=3": (
                    "round trip fails at 'h' -> 'H': "
                    "theta_inv got a letter outside its alphabet or an unmatched step"
                ),
                "theta maps onto its codomain up to n=3": (
                    "image not in the codomain at 'h' -> 'H'"
                ),
            },
        ),
    ],
)
def test_certification_catches_a_broken_registered_map(
    monkeypatch, chunk, name, field, broken, failures
):
    # certification calls the row's string maps; a GPathError one of them
    # raises is a counterexample, not a crash
    monkeypatch.setattr(verification, "_CHUNK", chunk)
    spec = dataclasses.replace(bij.BIJECTIONS[name], **{field: broken})
    monkeypatch.setitem(bij.BIJECTIONS, name, spec)
    results = check_bijections(n_max=3, theta_n_max=3)
    assert len(results) == 32
    assert {r.name: r.detail for r in results if not r.ok} == failures


_SWAP_AB = str.maketrans("ab", "ba")


def _theta_with_colors_swapped(q, trace=None):
    return bij._theta_fwd(q, trace).translate(_SWAP_AB)


def _theta_inv_with_colors_swapped(s, trace=None):
    return bij._theta_inv(s.translate(_SWAP_AB), trace)


@CHUNKS
def test_certification_catches_a_weight_only_fault(monkeypatch, chunk):
    # swapping the two colors is a bijection of bicolored Motzkin paths, so
    # the round trip and onto checks pass; only the weights tell
    monkeypatch.setattr(verification, "_CHUNK", chunk)
    spec = dataclasses.replace(
        bij.BIJECTIONS["theta"],
        forward_steps=_theta_with_colors_swapped,
        inverse_steps=_theta_inv_with_colors_swapped,
    )
    monkeypatch.setitem(bij.BIJECTIONS, "theta", spec)
    results = check_bijections(n_max=3, theta_n_max=3)
    assert len(results) == 32
    assert {r.name: r.detail for r in results if not r.ok} == {
        "theta preserves the step weights up to n=3": (
            "weight not preserved at 'uv' -> 'a': (0, 1, 0) != (1, 0, 0)"
        ),
    }


@CHUNKS
def test_a_fault_in_the_middle_of_a_chunk_names_its_word(monkeypatch, chunk):
    # sigma sends one word of the largest size, the middle one of its single
    # default chunk, to the image of the next word of the same weight: only
    # that word's round trip fails
    words = list(iter_step_strings(GMOTZKIN_UVU, 4))
    assert 3 < len(words) < verification._CHUNK
    monkeypatch.setattr(verification, "_CHUNK", chunk)
    word = words[len(words) // 2]
    neighbor = next(
        q for q in words[len(words) // 2 + 1:]
        if packed_weight(q, "gmotzkin_ab_bsq", "gmotzkin")
        == packed_weight(word, "gmotzkin_ab_bsq", "gmotzkin")
    )
    image = bij._sigma_fwd(neighbor)

    def sigma_fwd(q, trace=None):
        return bij._sigma_fwd(neighbor if q == word else q, trace)

    spec = dataclasses.replace(bij.BIJECTIONS["sigma"], forward_steps=sigma_fwd)
    monkeypatch.setitem(bij.BIJECTIONS, "sigma", spec)
    results = check_bijections(n_max=4, theta_n_max=4)
    assert len(results) == 32
    assert {r.name: r.detail for r in results if not r.ok} == {
        "sigma round trip is the identity up to n=4": (
            f"round trip fails at {word!r} -> {image!r} -> {neighbor!r}"
        ),
        "sigma maps onto its codomain up to n=4": "not shown at n=4: a round trip fails",
    }


def test_every_registered_bijection_is_certified():
    assert set(CERTIFICATIONS) == set(bij.BIJECTIONS)


def test_psi_reuses_sigma_calls_in_the_shared_walk(monkeypatch):
    # one counting wrapper per sigma map, as sigma's row map and as the part
    # of psi's Composite: each runs once per sigma domain word, so psi's
    # sigma parts are all answered by sigma's own calls
    calls = Counter()

    def counted(string_map):
        def call(word, trace=None):
            calls[string_map] += 1
            return string_map(word, trace)

        return call

    fwd, inv = counted(bij._sigma_fwd), counted(bij._sigma_inv)
    sigma, psi = bij.BIJECTIONS["sigma"], bij.BIJECTIONS["psi"]
    monkeypatch.setitem(
        bij.BIJECTIONS, "sigma",
        dataclasses.replace(sigma, forward_steps=fwd, inverse_steps=inv),
    )
    monkeypatch.setitem(
        bij.BIJECTIONS, "psi",
        dataclasses.replace(
            psi,
            forward_steps=bij.Composite(fwd, psi.forward_steps.second),
            inverse_steps=bij.Composite(psi.inverse_steps.first, inv),
        ),
    )
    results = check_bijections(n_max=4, theta_n_max=4)
    words = sum(count_paths(GMOTZKIN_UVU, n) for n in CERTIFICATIONS["sigma"].sizes(4, 4))
    assert calls == {bij._sigma_fwd: words, bij._sigma_inv: words}
    assert len(results) == 32
    assert all(r.ok for r in results)


def test_shared_walk_gives_the_results_of_one_walk_per_row(monkeypatch):
    shared = check_bijections(n_max=4, theta_n_max=4)
    certify = verification._certify

    def one_walk_per_row(rows):
        return {name: certify({name: sizes})[name] for name, sizes in rows.items()}

    monkeypatch.setattr(verification, "_certify", one_walk_per_row)
    alone = check_bijections(n_max=4, theta_n_max=4)
    assert len(alone) == 32
    assert alone == shared


def test_a_failing_size_is_walked_once(monkeypatch):
    # the faults of a failed size come from the walk that certified it: no
    # side of rho's is enumerated again to word them
    walked = []

    def recorded(family, *args):
        walked.append(family)
        return iter_step_strings(family, *args)

    monkeypatch.setattr(verification, "iter_step_strings", recorded)
    rho = dataclasses.replace(bij.BIJECTIONS["rho"], inverse_steps=_corrupt_last_letter)
    monkeypatch.setitem(bij.BIJECTIONS, "rho", rho)
    assert set(_failures(check_bijections(3, 3))) == {ROUND, IMAGE}
    # vartheta's filtered codomain is still counted through it
    assert walked
    assert rho.domain not in walked
    assert rho.codomain not in walked


@pytest.mark.parametrize("n_max, theta_n_max", [(0, 0), (0, 10), (-1, 3), (3, -1)])
def test_sizes_below_the_smallest_are_one_value_error(n_max, theta_n_max):
    with pytest.raises(ValueError) as raised:
        check_bijections(n_max, theta_n_max)
    message = str(raised.value)
    assert "\n" not in message
    assert "n_max >= 1 and theta_n_max >= 0" in message
    assert f"got n_max={n_max}, theta_n_max={theta_n_max}" in message


def test_smallest_sizes_are_certified():
    results = check_bijections(1, 0)
    assert len(results) == 32
    assert all(r.ok for r in results)


def _failures(results):
    return {r.name: r.detail for r in results if not r.ok}


def test_a_claim_stops_at_its_first_difference():
    read = []

    def cases():
        for n in range(5):
            read.append(n)
            yield n, n * n, n

    assert verification._claim("squares are fixed", cases()) == verification.CheckResult(
        "squares are fixed", False, "at 2: got 4, want 2"
    )
    assert read == [0, 1, 2]
    assert verification._claim("nothing to check", iter(())).ok


# each closed form's family, its x-length per size and weighting, and the
# weighted family criterion 2 enumerates
_WEIGHED = [(f, x, w) for _, f, x, w in verification._ANCHORS]
_WEIGHED.append((GMOTZKIN_UVU, 1, "gmotzkin_abc"))


@pytest.mark.parametrize(
    "family, x_per_n, weighting",
    _WEIGHED,
    ids=[f"{f.describe()} {w}" for f, _, w in _WEIGHED],
)
def test_enumerated_weight_equals_a_per_word_sum(family, x_per_n, weighting):
    # the sizes of check_identities, n <= 8
    top = 8 * x_per_n
    for m in range(0, top + 1, x_per_n):
        words = iter_step_strings(family, m, top)
        want = Counter(packed_weight(s, weighting, family.base) for s in words)
        got = verification._enumerated_weight(family, m, weighting)
        assert got == Polynomial._from_packed(want), m
    if weighting == "dyck_peak_ab":
        # a block's word ends in u and a tail of its key starts with d: the
        # peak between them is weighed only with the word's last letter
        assert any(
            word.endswith("u") and any(tail.startswith("d") for tail in tails)
            for word, _, tails, _, _ in _prefix_blocks(family, top)
        )


def test_criterion_1_names_the_first_differing_row(monkeypatch):
    h = verification.GOLDEN_TABLES["H"]
    monkeypatch.setitem(
        verification.GOLDEN_TABLES, "H", h[:3] + ((68, 48, 13, 1),) + h[4:]
    )
    detail = "at 3: got (68, 48, 12, 1), want (68, 48, 13, 1)"
    assert _failures(check_stat_tables()) == {
        f"stat table H via {method} matches reference rows 0..6": detail
        for method in ("brute", "riordan", "formula")
    }


def test_criterion_1_fails_a_table_short_of_its_last_row(monkeypatch):
    def short_p_riordan(stat, method, n_max):
        table = stat_table(stat, method, n_max)
        if (stat, method) == ("P", "riordan"):
            table = dataclasses.replace(table, rows=table.rows[:-1])
        return table

    monkeypatch.setattr(verification, "stat_table", short_p_riordan)
    assert _failures(check_stat_tables(4)) == {
        "stat table P via riordan matches reference rows 0..4": (
            "at 4: got None, want (279, 230, 86, 15, 1)"
        ),
    }


def test_criterion_2_names_the_first_differing_size(monkeypatch):
    monkeypatch.setattr(verification, "CATALAN", CATALAN[:5] + (41,) + CATALAN[6:])
    assert _failures(check_weighted_counts()) == {
        "brute Dyck counts match the Catalan numbers up to n=10": "at 5: got 42, want 41",
        "recurrence at (0,1,1) gives the Catalan numbers": "at 5: got 42, want 41",
    }


def test_second_triple_sum_is_a_route_of_its_own(monkeypatch):
    # the literal sum gives prop21's polynomials, and a sign flipped in it
    # fails the second check alone, which prop21 no longer answers
    for n in range(13):
        assert verification._second_triple_sum(n) == prop21(n, "second")
    gbinom = verification.gbinom
    monkeypatch.setattr(verification, "gbinom", lambda r, m: (-1) ** m * gbinom(r, m))
    assert _failures(check_weighted_counts()) == {
        "second explicit triple sum equals the recurrence up to n=10": (
            "at 2: got a^2 + 3*a*b + 3*b^2 + c, want a^2 + 3*a*b + b^2 + c"
        ),
    }


def test_criterion_4_names_the_first_differing_size(monkeypatch):
    closed_form = verification.closed_form

    def c3_plus_b(name, n):
        return closed_form(name, n) + (B if (name, n) == ("dyck_ab", 3) else 0)

    monkeypatch.setattr(verification, "closed_form", c3_plus_b)
    c3 = "Polynomial(a^3 + 3*a^2*b + a*b^2)"
    broken = "Polynomial(a^3 + 3*a^2*b + a*b^2 + b)"
    assert _failures(check_identities(2)) == {
        "a M_n(a+b,ab) = C_(n+1)(a,b), also as the marked-prefix count, up to n=2": (
            f"at 2: got ({c3}, {c3}), want ({broken}, {broken})"
        ),
    }


def test_criterion_5_names_the_first_differing_entry(monkeypatch):
    def v31_plus_one(stat, n, i):
        return stat_brute(stat, n, i) + ((stat, n, i) == ("V", 3, 1))

    monkeypatch.setattr(verification, "stat_brute", v31_plus_one)
    assert _failures(check_stat_identities(4)) == {
        "v-step counts are the difference of consecutive u-step rows up to n=4": (
            "at (3, 1): got 53, want 52"
        ),
        "every u-step is closed by a v or a d: U = V + D-shift up to n=4": (
            "at (3, 1): got 61, want 62"
        ),
    }


def test_criterion_6_names_the_first_differing_entry(monkeypatch):
    def h_r42_plus_one(stat, n, i):
        return stat_riordan(stat, n, i) + ((stat, n, i) == ("h_r", 4, 2))

    monkeypatch.setattr(verification, "stat_riordan", h_r42_plus_one)
    assert _failures(check_restricted_stats()) == {
        "restricted h_r brute equals Riordan up to n=6": "at (4, 2): got 127, want 128",
    }


def test_criterion_7_names_the_first_differing_entry(monkeypatch):
    ballot_closed_form = verification.ballot_closed_form

    def b23_minus_one(m, k):
        return ballot_closed_form(m, k) - ((m, k) == (2, 3))

    monkeypatch.setattr(verification, "ballot_closed_form", b23_minus_one)
    assert _failures(check_ballot()) == {
        "series and closed-form ballot numbers agree for m<=12, k<=15": (
            "at (2, 3): got 9, want 8"
        ),
    }


def test_a_failed_worked_example_names_its_input(monkeypatch):
    rho = dataclasses.replace(
        CERTIFICATIONS["rho"],
        examples=(("rho reproduces the worked examples", (
            ("rho", "hh", "aa"), ("rho", "uv", "b"), ("rho", "uhd", "bba"),
        )),),
    )
    monkeypatch.setattr(
        verification, "CERTIFICATIONS", MappingProxyType({**CERTIFICATIONS, "rho": rho})
    )
    assert _failures(check_bijections(1, 0)) == {
        "rho reproduces the worked examples": "at uhd: got bab, want bba",
    }


@pytest.mark.parametrize("suite, checks", [("counts", 15), ("stats", 23), ("identities", 6)])
def test_the_smallest_sizes_pass(suite, checks):
    # empty ranges such as range(1, 1), and rows n - 1 = -1
    results = run_suite(suite, 0)
    assert len(results) == checks
    assert all(r.ok for r in results)
