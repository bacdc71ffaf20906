"""Reference values the benchmark checks the program's outputs against.

Nothing here imports gpaths.  Two kinds of reference live in this module:

* values frozen in the benchmark: the names of the 76 checks `gpaths verify`
  runs, the SHA-256 of one streamed enumeration, and the first rows of the
  statistic tables and sequences as printed in the source paper;
* values computed with the benchmark's own stdlib integer arithmetic from
  the paper's defining equations: Catalan and Schroder numbers, the
  closed-form weighted Schroder count, the two generating-function
  recurrences at integer weights, and the Riordan arrays of the statistics.

The self-test checks the computed references against the frozen ones.
"""

from __future__ import annotations

from math import comb

# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

_VERIFY_ALL = (
    "brute Dyck counts match the Catalan numbers up to n=10",
    "brute Motzkin counts match the Motzkin numbers up to n=10",
    "brute Schroder counts match the Schroder numbers up to n=10",
    "recurrence at (0,1,1) gives the Catalan numbers",
    "recurrence at (1,0,1) gives the Motzkin numbers",
    "recurrence at (1,1,1) gives the Schroder numbers",
    "recurrence at (1,0,2) gives the A025235 sequence",
    "recurrence at (-3,4,16) gives the A059231 sequence",
    "recurrence equals the enumerated weight polynomial up to n=8",
    "first explicit triple sum equals the recurrence up to n=10",
    "second explicit triple sum equals the recurrence up to n=10",
    "composite-series route agrees at weights (1, 0, 2)",
    "composite-series route agrees at weights (-3, 4, 16)",
    "series and closed-form ballot numbers agree for m<=12, k<=15",
    "the alternating ballot sum reproduces the u-step reference table",
    "sigma round trip is the identity up to n=8",
    "sigma preserves the step weights up to n=8",
    "sigma maps onto its codomain up to n=8",
    "sigma reproduces the worked 15-step example",
    "theta round trip is the identity up to n=10",
    "theta preserves the step weights up to n=10",
    "theta maps onto its codomain up to n=10",
    "theta reproduces the worked 30-step example",
    "phi_peak round trip is the identity up to n=16",
    "phi_peak preserves the step weights up to n=16",
    "phi_peak maps onto its codomain up to n=16",
    "phi_peak reproduces the worked example",
    "vartheta round trip is the identity up to n=8",
    "vartheta preserves the step weights up to n=8",
    "vartheta maps onto its codomain up to n=8",
    "vartheta reproduces the three worked examples",
    "rho round trip is the identity up to n=8",
    "rho preserves the step weights up to n=8",
    "rho maps onto its codomain up to n=8",
    "rho reproduces the worked examples",
    "varphi round trip is the identity up to n=8",
    "varphi preserves the step weights up to n=8",
    "varphi maps onto its codomain up to n=8",
    "varphi reproduces its base cases and the worked example",
    "theta then varphi reproduces the worked 15-step pipeline",
    "psi round trip is the identity up to n=8",
    "psi preserves the step weights up to n=8",
    "psi maps onto its codomain up to n=8",
    "psi sends the length-1 paths to the two flavored marks",
    "varphi_theta round trip is the identity up to n=8",
    "varphi_theta preserves the step weights up to n=8",
    "varphi_theta maps onto its codomain up to n=8",
    "stat table U via brute matches reference rows 0..6",
    "stat table U via riordan matches reference rows 0..6",
    "stat table U via formula matches reference rows 0..6",
    "stat table V via brute matches reference rows 0..6",
    "stat table V via riordan matches reference rows 0..6",
    "stat table D via brute matches reference rows 0..6",
    "stat table D via riordan matches reference rows 0..6",
    "stat table H via brute matches reference rows 0..6",
    "stat table H via riordan matches reference rows 0..6",
    "stat table H via formula matches reference rows 0..6",
    "stat table P via brute matches reference rows 0..6",
    "stat table P via riordan matches reference rows 0..6",
    "stat table P via formula matches reference rows 0..6",
    "d-step counts equal u-step counts up to n=6",
    "v-step counts are the difference of consecutive u-step rows up to n=6",
    "every u-step is closed by a v or a d: U = V + D-shift up to n=6",
    "axis h-step counts are Schroder differences up to n=6",
    "axis point counts decompose over returns up to n=6",
    "restricted u_r brute equals Riordan up to n=6",
    "restricted v_r brute equals Riordan up to n=6",
    "restricted d_r brute equals Riordan up to n=6",
    "restricted h_r brute equals Riordan up to n=6",
    "restricted p_r brute equals Riordan up to n=6",
    "closed forms equal the enumerated weight polynomials up to n=8",
    "S_n(a,b) = C_n(a+b,b) = (a+b) M_(n-1)(a+2b,(a+b)b) up to n=8",
    "b S_n(a,b) = (a+b) s_n(a,b) up to n=8",
    "s_n(1,1) equals the axis-horizontal-free Schroder count up to n=8",
    "both tau-restricted weighted counts equal (a+b)^n up to n=8",
    "a M_n(a+b,ab) = C_(n+1)(a,b), also as the marked-prefix count, up to n=8",
)

# `gpaths verify --suite identities --nmax 2`, the self-test's tiny verify op
_VERIFY_IDENTITIES_2 = (
    "closed forms equal the enumerated weight polynomials up to n=2",
    "S_n(a,b) = C_n(a+b,b) = (a+b) M_(n-1)(a+2b,(a+b)b) up to n=2",
    "b S_n(a,b) = (a+b) s_n(a,b) up to n=2",
    "s_n(1,1) equals the axis-horizontal-free Schroder count up to n=2",
    "both tau-restricted weighted counts equal (a+b)^n up to n=2",
    "a M_n(a+b,ab) = C_(n+1)(a,b), also as the marked-prefix count, up to n=2",
)

# check names printed by `gpaths <argv>`, in order
VERIFY_CHECK_NAMES = {
    ("verify",): _VERIFY_ALL,
    ("verify", "--suite", "identities", "--nmax", "2"): _VERIFY_IDENTITIES_2,
}

# SHA-256 over the uvu-avoiding G-Motzkin step strings of x-length n, each
# followed by a newline, in the documented depth-first order.
STREAM_SHA256 = {
    4: "bfa5df78d12c8fd521feda999e04e4e27b42da1315cada3c5ca751c06c465ca0",
    9: "fd305fd95f95e735041212995b8a2f91e08d6e7b5e1d23fd7eaa3a9f8c523fca",
}

CATALAN_10 = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
SCHRODER_10 = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718)
# weighted uvu-avoiding counts at (a,b,c) = (1,0,2) and (-3,4,16)
A025235_10 = (1, 1, 3, 7, 21, 61, 191, 603, 1961, 6457, 21595)
A059231_10 = (1, 1, 5, 29, 185, 1257, 8925, 65445, 491825, 3768209, 29324405)

GOLDEN_ROWS = {
    "U": (
        (1,),
        (5, 1),
        (25, 9, 1),
        (121, 61, 13, 1),
        (593, 369, 113, 17, 1),
        (2941, 2121, 825, 181, 21, 1),
        (14777, 11881, 5489, 1553, 265, 25, 1),
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
}

# ---------------------------------------------------------------------------
# numbers and polynomials
# ---------------------------------------------------------------------------


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def schroder(n: int) -> int:
    """Large Schroder number r_n = S_n(1,1)."""
    return sum(comb(n + k, 2 * k) * catalan(k) for k in range(n + 1))


def schroder_ab(n: int) -> dict[tuple[int, int, int], int]:
    """S_n(a,b) = sum_k binom(n+k, 2k) Cat(k) a^(n-k) b^k as exponent terms."""
    return {(n - k, k, 0): comb(n + k, 2 * k) * catalan(k) for k in range(n + 1)}


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1, c1), x in p.items():
        for (a2, b2, c2), y in q.items():
            e = (a1 + a2, b1 + b2, c1 + c2)
            out[e] = out.get(e, 0) + x * y
    return {e: x for e, x in out.items() if x}


def _padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, x in q.items():
        out[e] = out.get(e, 0) + x
    return {e: x for e, x in out.items() if x}


def gfull_poly(n: int) -> dict[tuple[int, int, int], int]:
    """[x^n] of G = 1 + a x G + b x G^2 + c x^2 G^2 (u=1, h=a, v=b, d=c)."""
    a, b, c = {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}
    g = [{(0, 0, 0): 1}]
    for m in range(1, n + 1):
        total = _pmul(a, g[m - 1])
        for k in range(m):
            total = _padd(total, _pmul(b, _pmul(g[k], g[m - 1 - k])))
        for k in range(m - 1):
            total = _padd(total, _pmul(c, _pmul(g[k], g[m - 2 - k])))
        g.append(total)
    return g[n]


def guvu_at(a: int, b: int, c: int, n_max: int) -> list[int]:
    """Weighted uvu-avoiding counts at integer weights, from
    G = 1 + bx + (a-b+abx) x G + (b+cx) x G^2."""
    g = [1]
    for n in range(1, n_max + 1):
        total = (a - b) * g[n - 1] + (b if n == 1 else 0)
        if n >= 2:
            total += a * b * g[n - 2]
            total += c * sum(g[k] * g[n - 2 - k] for k in range(n - 1))
        total += b * sum(g[k] * g[n - 1 - k] for k in range(n))
        g.append(total)
    return g


def gfull_at(a: int, b: int, c: int, n_max: int) -> list[int]:
    """Weighted unrestricted counts at integer weights."""
    g = [1]
    for n in range(1, n_max + 1):
        total = a * g[n - 1] + b * sum(g[k] * g[n - 1 - k] for k in range(n))
        total += c * sum(g[k] * g[n - 2 - k] for k in range(n - 1))
        g.append(total)
    return g


def poly_at(terms, a: int, b: int, c: int) -> int:
    """Evaluate [[ea, eb, ec, coeff], ...] at integer weights."""
    return sum(x * a**ea * b**eb * c**ec for ea, eb, ec, x in terms)


# ---------------------------------------------------------------------------
# Riordan arrays of the level statistics, on truncated integer series
# ---------------------------------------------------------------------------


def _smul(f: list[int], g: list[int]) -> list[int]:
    n = min(len(f), len(g))
    return [sum(f[k] * g[m - k] for k in range(m + 1)) for m in range(n)]


def _spow(f: list[int], k: int, order: int) -> list[int]:
    out = [1] + [0] * order
    for _ in range(k):
        out = _smul(out, f)
    return out


def _series(order: int) -> dict[str, list[int]]:
    big = [1]  # S = 1 + x S + x S^2
    for n in range(1, order + 1):
        big.append(big[n - 1] + sum(big[k] * big[n - 1 - k] for k in range(n)))
    little = [1]  # s = 1 + x S s
    for n in range(1, order + 1):
        little.append(sum(big[k] * little[n - 1 - k] for k in range(n)))
    return {
        "S": big,
        "s": little,
        "inv1px": [(-1) ** n for n in range(order + 1)],
        "1px2": ([1, 0, 1] + [0] * order)[: order + 1],
    }


def _riordan_rows(d: list[int], h: list[int], n_max: int) -> list[list[int]]:
    """Entries [x^n] d h^i for 0 <= i <= n <= n_max."""
    rows = [[0] * (n + 1) for n in range(n_max + 1)]
    col = d
    for i in range(n_max + 1):
        for n in range(i, n_max + 1):
            rows[n][i] = col[n]
        col = _smul(col, h)
    return rows


def stat_rows(stat: str, n_max: int) -> list[list[int]]:
    """Rows 0..n_max of a level-statistic table (U, H, P, u_r, h_r).

    d and h series as in the source paper; h = x S^2 for every table.
    """
    order = n_max + 1
    ser = _series(order)
    big, little, inv1px = ser["S"], ser["s"], ser["inv1px"]
    h = [0] + _spow(big, 2, order)[:order]
    if stat == "U":
        return _riordan_rows(_smul(_spow(big, 3, order), inv1px), h, n_max)
    if stat == "H":
        return _riordan_rows(_spow(big, 2, order), h, n_max)
    if stat == "u_r":
        d = _smul(_smul(_spow(little, 2, order), big), inv1px)
        return _riordan_rows(d, h, n_max)
    if stat == "h_r":
        return _riordan_rows(_smul(_spow(little, 2, order), _spow(big, 2, order)), h, n_max)
    if stat == "P":
        # level >= 1: [x^(n-1)] (1+x^2) S^4/(1+x) (x S^2)^(i-1); the axis
        # column counts every path once plus its axis u- and h-steps
        d = _smul(_smul(ser["1px2"], _spow(big, 4, order)), inv1px)
        inner = _riordan_rows(d, h, max(n_max - 1, 0))
        u0 = [row[0] for row in stat_rows("U", n_max)]
        h0 = [row[0] for row in stat_rows("H", n_max)]
        rows = [[1]]
        for n in range(1, n_max + 1):
            rows.append([big[n] + u0[n - 1] + h0[n - 1]] + inner[n - 1])
        return rows
    raise ValueError(f"no reference for statistic {stat!r}")
