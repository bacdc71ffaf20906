"""Path families, validation, and the matching of up and down steps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpaths.bijections import vartheta_inv
from gpaths.errors import (
    ConstraintViolation,
    DomainViolation,
    GeometryViolation,
    UnknownSymbol,
)
from gpaths.paths import (
    BASE_FAMILIES,
    COLORED_DYCK,
    DYCK,
    GMOTZKIN,
    GMOTZKIN_UVU,
    LITTLE_SCHRODER,
    PSI_IMAGE,
    SCHRODER,
    PathFamily,
    match_table,
    parse,
    validate_steps,
    x_length,
)

# the 11-step weight example path: levels 1,1,2,1,2,3,2,1,0,0,0
EXAMPLE = "uhuduuvvdhh"
DY = {"u": 1, "h": 0, "v": -1, "d": -1, "D": -1}


def _scan_match(steps, u_index):
    """Reference matching: the first later down step one level below the
    endpoint of the u at u_index, found by a plain level scan."""
    level = 0
    for j in range(u_index + 1, len(steps)):
        level += DY[steps[j]]
        if level == -1:
            return j
    return None


def test_parse_render_round_trip():
    path = parse(EXAMPLE, GMOTZKIN)
    assert path.steps == EXAMPLE
    assert str(path) == EXAMPLE
    assert len(path) == 11


def test_x_length_ignores_v_steps():
    assert x_length(parse(EXAMPLE, GMOTZKIN)) == 9
    assert x_length(parse("uuvv", GMOTZKIN)) == 2
    assert x_length(parse("uHd", SCHRODER)) == 4
    assert x_length(parse("", GMOTZKIN)) == 0


def test_unknown_symbol():
    with pytest.raises(UnknownSymbol) as exc:
        parse("uxd", GMOTZKIN)
    assert exc.value.symbol == "x"
    assert exc.value.position == 1
    with pytest.raises(UnknownSymbol):
        parse("uv", DYCK)


def test_geometry_violations():
    with pytest.raises(GeometryViolation):
        parse("ud" + "v", GMOTZKIN)
    with pytest.raises(GeometryViolation):
        parse("du", GMOTZKIN)
    with pytest.raises(GeometryViolation):
        parse("uu", GMOTZKIN)


def test_avoid_patterns():
    parse("uvh", GMOTZKIN_UVU)
    with pytest.raises(ConstraintViolation):
        parse("uvud", GMOTZKIN_UVU)
    fam = GMOTZKIN.avoiding("uu", "uvu")
    with pytest.raises(ConstraintViolation):
        parse("uuvv", fam)


def test_no_h_on_axis():
    parse("uHd", LITTLE_SCHRODER)
    with pytest.raises(ConstraintViolation):
        parse("H", LITTLE_SCHRODER)
    with pytest.raises(ConstraintViolation):
        parse("udH", LITTLE_SCHRODER)


def test_prefix_constraint():
    fam = PathFamily("bicolored_motzkin", prefixes=("a",))
    parse("aud", fam)
    with pytest.raises(ConstraintViolation):
        parse("bud", fam)
    with pytest.raises(ConstraintViolation):
        parse("", fam)


def test_colored_peak_must_follow_u():
    parse("uduD", COLORED_DYCK)
    with pytest.raises(ConstraintViolation):
        parse("uudD", COLORED_DYCK)
    # the flavored-image family carries D as a free letter instead
    validate_steps("auuDD", PSI_IMAGE)


def test_avoiding_is_idempotent_and_sorted():
    fam = GMOTZKIN.avoiding("uu").avoiding("uvu", "uu")
    assert fam.avoid == ("uu", "uvu")
    assert GMOTZKIN_UVU.avoiding("uvu") == GMOTZKIN_UVU


def test_unknown_base_rejected():
    with pytest.raises(ValueError):
        PathFamily("delannoy")


def test_contains_pattern():
    path = parse("uvhud", GMOTZKIN)
    assert "hu" in path.steps
    assert "uvu" not in path.steps


def test_matching_step_is_leftmost_down_one_level():
    # u at 0 ends at level 1; first later d-or-v ending at level 0 is index 8
    assert match_table(EXAMPLE)[0] == 8
    assert match_table(EXAMPLE)[2] == 3
    assert match_table(EXAMPLE)[4] == 7
    assert match_table(EXAMPLE)[5] == 6
    path = parse(EXAMPLE, GMOTZKIN)
    assert match_table(path.steps)[0] == 8
    assert match_table(EXAMPLE)[1] == -1


@given(st.text(alphabet="uhvd", max_size=9))
def test_validation_agrees_with_reference_walk(steps):
    level = 0
    ok = True
    for c in steps:
        level += {"u": 1, "h": 0, "v": -1, "d": -1}[c]
        if level < 0:
            ok = False
            break
    ok = ok and level == 0
    try:
        validate_steps(steps, GMOTZKIN)
        assert ok
    except GeometryViolation:
        assert not ok


@given(st.text(alphabet="uhvd", max_size=9))
def test_matching_steps_partition_the_openers(steps):
    try:
        validate_steps(steps, GMOTZKIN)
    except GeometryViolation:
        return
    matches = {}
    for idx, c in enumerate(steps):
        if c == "u":
            matches[idx] = match_table(steps)[idx]
    # every match closes exactly one opener, one level below its endpoint
    assert len(set(matches.values())) == len(matches)
    levels = [0]
    for c in steps:
        levels.append(levels[-1] + {"u": 1, "h": 0, "v": -1, "d": -1}[c])
    for u_idx, m_idx in matches.items():
        assert steps[m_idx] in "dv"
        assert m_idx > u_idx
        assert levels[m_idx + 1] == levels[u_idx + 1] - 1


@given(st.text(alphabet="uhvdD", max_size=12))
def test_match_table_agrees_with_the_scan(steps):
    try:
        validate_steps(steps.replace("D", "d"), GMOTZKIN)
    except GeometryViolation:
        with pytest.raises(DomainViolation):
            match_table(steps)
        return
    table = match_table(steps)
    for idx, c in enumerate(steps):
        if c == "u":
            assert table[table[idx]] == idx == table[_scan_match(steps, idx)]
        elif c == "h":
            assert table[idx] == -1


@st.composite
def gmotzkin_paths(draw):
    """A G-Motzkin path: random letters, dropping any that would dip below
    the axis, closed with d steps."""
    level, steps = 0, []
    for c in draw(st.text(alphabet="uhvd", max_size=16)):
        if level + DY[c] >= 0:
            steps.append(c)
            level += DY[c]
    return "".join(steps) + "d" * level


@given(gmotzkin_paths())
def test_match_table_closes_each_arch_at_its_first_return(steps):
    # random text is rarely a path; this strategy reaches long valid ones
    table = match_table(steps)
    level, start = 0, 0
    for idx, c in enumerate(steps):
        level += DY[c]
        if level == 0:
            # a block ends at each return to the axis: an h alone, or an
            # arch whose opening u is matched by the step that returns
            if c == "h":
                assert (idx == start, table[idx]) == (True, -1)
            else:
                assert (steps[start], table[start], table[idx]) == ("u", idx, start)
            start = idx + 1
    assert start == len(steps)


def test_match_table_names_the_unmatched_step():
    assert match_table(EXAMPLE)[0] == 8
    with pytest.raises(DomainViolation, match="u at index 0 has no matching step"):
        match_table("uud")
    with pytest.raises(DomainViolation, match="down step at index 1 has no matching u"):
        match_table("hdu")


def test_last_primitive_suffix():
    # vartheta_inv splits its input at the last arch
    assert vartheta_inv(parse("Hud", SCHRODER)).steps == "udH"
    assert vartheta_inv(parse("HuHdud", SCHRODER)).steps == "uduHdH"
    for steps in ("HudH", "H"):
        with pytest.raises(
            DomainViolation, match="path ends with a horizontal step on the axis"
        ):
            vartheta_inv(parse(steps, SCHRODER))


def test_base_families_cover_every_alphabet():
    assert set(BASE_FAMILIES) == {
        "gmotzkin",
        "dyck",
        "motzkin",
        "schroder",
        "bicolored_motzkin",
        "hstring",
        "colored_dyck",
        "psi_image",
    }
    for family in BASE_FAMILIES.values():
        assert family.alphabet


def test_paths_hashable_and_equal_by_value():
    a = parse("ud", DYCK)
    b = parse("ud", DYCK)
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse("ud", GMOTZKIN)


def test_describe_mentions_constraints():
    text = GMOTZKIN_UVU.restricted().describe()
    assert "uvu" in text and "gmotzkin" in text
