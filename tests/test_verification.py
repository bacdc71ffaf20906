"""Criterion 3 certifies the registered maps and catches a broken one."""

import dataclasses
from collections import Counter

import pytest

from gpaths import bijections as bij
from gpaths import verification
from gpaths.enumeration import count_paths, iter_step_strings
from gpaths.paths import GMOTZKIN_UVU
from gpaths.verification import CERTIFICATIONS, check_bijections
from gpaths.weights import packed_weight


def _corrupt_last_letter(s, trace=None):
    steps = bij._rho_inv(s, trace)
    if steps:
        steps = steps[:-1] + ("v" if steps[-1] == "h" else "h")
    return steps


def _merge_uvh_into_uhv(q, trace=None):
    # uvh and uhv share the weight a*b, so only the round trip and the
    # image set can tell the two apart
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
            {ROUND: "round trip fails at 'uv' -> 'b' -> 'uh'"},
        ),
        (
            "rho",
            "forward_steps",
            _merge_uvh_into_uhv,
            {
                ROUND: "round trip fails at 'uvh' -> 'ab' -> 'uhv'",
                IMAGE: "forward map not injective at n=2",
            },
        ),
        (
            "rho",
            "forward_steps",
            _rho_reading_vu_for_uv,
            {
                ROUND: "forward map raises at 'uv': rho needs blocks u h^i v, u h^j d or h^n",
                IMAGE: "image set differs at n=1: missing ['b'], extra []",
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
                    "forward map not injective at n=1"
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
                    "image set differs at n=1: missing ['ud'], extra ['du']"
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
                    "image set differs at n=1: missing ['a'], extra ['H']"
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
        "sigma maps onto its codomain up to n=4": "forward map not injective at n=4",
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
