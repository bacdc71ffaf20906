"""Level statistics over uvu-avoiding paths, three routes against literals."""

import pytest

from gpaths import RiordanArray, parse_series_expr, stats
from gpaths.enumeration import closed_form, iter_step_strings
from gpaths.errors import DomainViolation, SizeLimitExceeded
from gpaths.paths import GMOTZKIN_UVU, STEP_GEOMETRY
from gpaths.stats import (
    FORMULA_STATS,
    GMOTZKIN_UVU_RESTRICTED,
    STAT_IDS,
    StatTable,
    methods_for,
    stat_brute,
    stat_formula,
    stat_riordan,
    stat_table,
)

# row n holds levels i = 0..n; u/v/h count steps over x-length n+1,
# d over n+2, points over n
GOLDEN = {
    "U": (
        (1,),
        (5, 1),
        (25, 9, 1),
        (121, 61, 13, 1),
        (593, 369, 113, 17, 1),
        (2941, 2121, 825, 181, 21, 1),
        (14777, 11881, 5489, 1553, 265, 25, 1),
    ),
    "V": (
        (1,),
        (4, 1),
        (20, 8, 1),
        (96, 52, 12, 1),
        (472, 308, 100, 16, 1),
        (2348, 1752, 712, 164, 20, 1),
        (11836, 9760, 4664, 1372, 244, 24, 1),
    ),
    "H": (
        (1,),
        (4, 1),
        (16, 8, 1),
        (68, 48, 12, 1),
        (304, 264, 96, 16, 1),
        (1412, 1408, 652, 160, 20, 1),
        (6752, 7432, 4080, 1296, 240, 24, 1),
    ),
    "P": (
        (1,),
        (4, 1),
        (15, 7, 1),
        (63, 42, 11, 1),
        (279, 230, 86, 15, 1),
        (1291, 1226, 578, 146, 19, 1),
        (6159, 6470, 3598, 1166, 222, 23, 1),
    ),
    "u_r": ((1,), (3, 1), (14, 7, 1), (62, 42, 11, 1), (291, 234, 86, 15, 1)),
    "v_r": ((1,), (2, 1), (11, 6, 1), (48, 35, 10, 1), (229, 192, 75, 14, 1)),
    "h_r": ((1,), (6, 1), (31, 10, 1), (156, 71, 14, 1), (785, 444, 127, 18, 1)),
    "p_r": ((1,), (2, 1), (6, 5, 1), (25, 27, 9, 1), (107, 135, 63, 13, 1)),
}
GOLDEN["D"] = GOLDEN["U"]
GOLDEN["d_r"] = GOLDEN["u_r"]


@pytest.mark.parametrize("stat", sorted(GOLDEN))
def test_every_method_reproduces_the_golden_rows(stat):
    rows = GOLDEN[stat]
    for method in methods_for(stat):
        table = stat_table(stat, method, len(rows) - 1)
        assert table.rows == rows, f"{stat}/{method}"


def test_brute_spot_values():
    assert stat_brute("U", 1, 0) == 5
    assert stat_brute("V", 2, 0) == 20
    assert stat_brute("P", 0, 0) == 1
    assert stat_brute("p_r", 4, 0) == 107
    assert stat_brute("U", 2, 5) == 0
    assert stat_brute("U", -1, 0) == 0
    assert stat_brute("P", 3, -1) == 0


def test_riordan_spot_values():
    assert stat_riordan("U", 6, 2) == 5489
    assert stat_riordan("H", 5, 1) == 1408
    assert stat_riordan("P", 6, 3) == 1166
    assert stat_riordan("u_r", 3, 1) == 42
    assert stat_riordan("D", 6, 2) == stat_riordan("U", 6, 2)
    assert stat_riordan("V", 4, 0) == 472
    assert stat_riordan("U", 8, 0) == 385889
    assert stat_riordan("U", -1, 0) == 0
    assert stat_riordan("U", 2, 5) == 0


@pytest.mark.parametrize("d", sorted(stats._ARRAY_EXPRS.values()))
def test_triangle_equals_the_column_products(d):
    # the stencil of h's equation against d h^i built column by column
    h = parse_series_expr("x*S^2", 60)
    assert stats._array(d, 60) == RiordanArray(parse_series_expr(d, 60), h).matrix(60)


@pytest.mark.parametrize("stat", FORMULA_STATS)
def test_riordan_matches_formula_past_the_default_order(stat):
    # two independent routes; rows past 24 need a rebuilt, larger triangle
    assert stat_table(stat, "riordan", 60).rows == stat_table(stat, "formula", 60).rows


def test_riordan_entries_do_not_depend_on_request_order():
    requests = [(s, n, i) for n, i in ((40, 3), (5, 2)) for s in STAT_IDS]
    stats._BUILT.clear()
    large_first = [stat_riordan(*r) for r in requests]
    stats._BUILT.clear()
    small_first = [stat_riordan(*r) for r in reversed(requests)][::-1]
    assert large_first == small_first
    assert large_first[0] == stat_formula("U", 40, 3)
    assert large_first[len(STAT_IDS)] == GOLDEN["U"][5][2]
    # row 30 builds every triangle to 31 rows, row 90 must rebuild them
    stats._BUILT.clear()
    for n in (30, 90):
        grown = {s: [stat_riordan(s, n, i) for i in range(n + 1)] for s in STAT_IDS}
    stats._BUILT.clear()
    fresh = {s: [stat_riordan(s, 90, i) for i in range(91)] for s in STAT_IDS}
    assert grown == fresh
    assert grown["U"][3] == stat_formula("U", 90, 3)


def test_formula_entries_do_not_depend_on_request_order():
    # each column of inner sums grows on demand; a later, smaller request
    # must read its own entry, and a larger one must extend the column
    requests = [(s, n, i) for n, i in ((30, 3), (30, 0), (12, 11), (5, 2)) for s in FORMULA_STATS]
    stats._INNER.clear()
    large_first = [stat_formula(*r) for r in requests]
    stats._INNER.clear()
    small_first = [stat_formula(*r) for r in reversed(requests)][::-1]
    assert large_first == small_first
    assert large_first == [stat_riordan(*r) for r in requests]


U_D = "S^3*one_over_1px"


@pytest.fixture
def built_triangles(monkeypatch):
    """The order of each triangle stats builds, from an empty cache."""
    built = []
    array = stats._array

    def counting(d, order):
        built.append(order)
        return array(d, order)

    monkeypatch.setattr(stats, "_array", counting)
    stats._BUILT.clear()
    return built


@pytest.mark.parametrize(
    "stat, n_max, orders",
    [
        ("U", 60, {U_D: 61}),
        (
            "P",
            40,
            {
                "one_plus_x2*S^2*one_over_1px": 41,
                ("S", "x*S^3*one_over_1px", "x*S^2"): 41,
            },
        ),
    ],
)
def test_a_table_builds_each_riordan_array_once(built_triangles, stat, n_max, orders):
    stat_table(stat, "riordan", n_max)
    assert {key: len(value) - 1 for key, value in stats._BUILT.items()} == orders
    assert built_triangles == [n_max + 1]


def test_d_reads_the_array_u_built(built_triangles):
    stat_table("U", "riordan", 60)
    stat_table("D", "riordan", 60)
    assert built_triangles == [61]
    assert list(stats._BUILT) == [U_D]


def test_riordan_pairs_encode_the_level_identities():
    # past the golden rows: each statistic's one (d, h) against the
    # identities that tie it to U, u_r, H and the paper's point arrays
    n_max = 40
    rows = {stat: stat_table(stat, "riordan", n_max).rows for stat in STAT_IDS}

    def at(stat, n, i):
        return rows[stat][n][i] if 0 <= i <= n else 0

    h = parse_series_expr("x*S^2", n_max)
    paper = {
        "P": RiordanArray(parse_series_expr("one_plus_x2*S^4*one_over_1px", n_max), h),
        "p_r": RiordanArray(
            parse_series_expr("one_plus_x2*one_over_1px*s^2*S^2", n_max), h
        ),
    }
    for n in range(n_max + 1):
        for i in range(n + 1):
            assert at("V", n, i) == at("U", n, i) - at("U", n - 1, i), (n, i)
            assert at("v_r", n, i) == at("u_r", n, i) - at("u_r", n - 1, i), (n, i)
            assert at("D", n, i) == at("U", n, i), (n, i)
            assert at("d_r", n, i) == at("u_r", n, i), (n, i)
            for stat, array in paper.items():
                if i:
                    assert at(stat, n, i) == array.entry(n - 1, i - 1), (stat, n, i)
        big = closed_form("schroder_ab", n).eval_at(1, 1)
        little = closed_form("little_schroder_ab", n).eval_at(1, 1)
        assert at("P", n, 0) == big + at("U", n - 1, 0) + at("H", n - 1, 0), n
        assert at("p_r", n, 0) == little + at("u_r", n - 1, 0), n


def test_formula_spot_values():
    assert stat_formula("U", 3, 1) == 61
    assert stat_formula("H", 2, 0) == 16
    assert stat_formula("P", 5, 2) == 578
    assert stat_formula("U", 4, 7) == 0
    for stat in FORMULA_STATS:
        for n in range(7):
            for i in range(n + 1):
                assert stat_formula(stat, n, i) == GOLDEN[stat][n][i]


def test_methods_for():
    assert methods_for("U") == ("brute", "riordan", "formula")
    assert methods_for("V") == ("brute", "riordan")
    assert methods_for("p_r") == ("brute", "riordan")
    assert set(STAT_IDS) == set(GOLDEN)


def test_table_shape():
    table = stat_table("H", "riordan", 4)
    assert isinstance(table, StatTable)
    assert table.stat == "H" and table.method == "riordan" and table.n_max == 4
    assert len(table.rows) == 5
    assert [len(row) for row in table.rows] == [1, 2, 3, 4, 5]


def test_stat_errors():
    with pytest.raises(DomainViolation):
        stat_brute("Q", 3, 0)
    with pytest.raises(DomainViolation):
        stat_riordan("peaks", 3, 0)
    with pytest.raises(DomainViolation):
        stat_formula("V", 3, 0)
    with pytest.raises(DomainViolation):
        stat_table("U", "oracle", 3)
    with pytest.raises(DomainViolation):
        stat_table("v_r", "formula", 3)


def test_brute_counts_follow_a_changed_size_cap(monkeypatch):
    assert stat_brute("U", 6, 0) == 14777
    # x-length 7 is past the new cap, even though it was counted above
    monkeypatch.setenv("GPATHS_MAX_N", "5")
    with pytest.raises(SizeLimitExceeded) as info:
        stat_brute("U", 6, 0)
    # stat_brute takes no override, so its refusal suggests none
    assert str(info.value).endswith("; raise GPATHS_MAX_N")


def test_brute_table_past_the_cap_fails_before_enumerating(monkeypatch):
    monkeypatch.setenv("GPATHS_MAX_N", "9")
    stats._brute_counts.cache_clear()
    with pytest.raises(SizeLimitExceeded, match="x-length 10 exceeds"):
        stat_table("U", "brute", 9)
    with pytest.raises(SizeLimitExceeded, match="x-length 11 exceeds"):
        stat_table("h_r", "brute", 9)
    assert stats._brute_counts.cache_info().misses == 0


def _recount(family, m):
    """(step counts, point counts) path by path, letter by letter."""
    step_counts, point_counts = {}, {}
    for steps in iter_step_strings(family, m):
        level = 0
        point_counts[0] = point_counts.get(0, 0) + 1
        for c in steps:
            level += STEP_GEOMETRY[c][1]
            key = (c, level)
            step_counts[key] = step_counts.get(key, 0) + 1
            point_counts[level] = point_counts.get(level, 0) + 1
    return step_counts, point_counts


@pytest.mark.parametrize(
    "family, m_max",
    [
        pytest.param(family, m_max, id=family.describe())
        for family, m_max in ((GMOTZKIN_UVU, 8), (GMOTZKIN_UVU_RESTRICTED, 9))
    ],
)
def test_brute_counts_equal_a_per_word_recount(family, m_max):
    # sizes on both sides of the walk's completion split, up to the largest
    # the bench's exhaustive workload counts (h_r's last row at n = 7), whose
    # prefixes are folded through the most layers
    for m in range(-1, m_max + 1):
        assert stats._brute_counts(family, m) == _recount(family, m)
