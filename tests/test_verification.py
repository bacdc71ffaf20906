"""Criterion 3 certifies the registered maps and catches a broken one."""

import dataclasses

import pytest

from gpaths import bijections as bij
from gpaths.paths import Path
from gpaths.verification import CERTIFICATIONS, check_bijections


def _corrupt_last_letter(path, trace=None):
    back = bij.rho_inv(path, trace)
    steps = back.steps
    if steps:
        steps = steps[:-1] + ("v" if steps[-1] == "h" else "h")
    return Path(back.family, steps)


def _merge_uvh_into_uhv(path, trace=None):
    # uvh and uhv share the weight a*b, so only the round trip and the
    # image set can tell the two apart
    if path.steps == "uvh":
        path = Path(path.family, "uhv")
    return bij.rho(path, trace)


ROUND = "rho round trip is the identity up to n=3"
IMAGE = "rho maps onto its codomain up to n=3"


@pytest.mark.parametrize(
    "field, broken, failures",
    [
        (
            "inverse",
            _corrupt_last_letter,
            {ROUND: "round trip fails at 'uv' -> 'b' -> 'uh'"},
        ),
        (
            "forward",
            _merge_uvh_into_uhv,
            {
                ROUND: "round trip fails at 'uvh' -> 'ab' -> 'uhv'",
                IMAGE: "forward map not injective at n=2",
            },
        ),
    ],
)
def test_certification_catches_a_broken_registered_map(
    monkeypatch, field, broken, failures
):
    spec = dataclasses.replace(bij.BIJECTIONS["rho"], **{field: broken})
    monkeypatch.setitem(bij.BIJECTIONS, "rho", spec)
    results = check_bijections(n_max=3, theta_n_max=3)
    assert len(results) == 32
    assert {r.name: r.detail for r in results if not r.ok} == failures


def test_every_registered_bijection_is_certified():
    assert set(CERTIFICATIONS) == set(bij.BIJECTIONS)

