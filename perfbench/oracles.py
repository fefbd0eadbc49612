"""Answer checks for the benchmark, written without any slicerank code.

Each check takes the text a command printed and returns None when the
answer is right, or a one-line reason when it is not.  The expected
answers come from the paper's golden values, closed forms, ranks that
numpy computes on flattenings built here, and a certified bracket from
a small entropy maximizer (`symmetric_log_value_bracket`) for table
rows past the golden range.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Golden values of the paper's tables, at printed precision.
CW_SLICE = {1: 2.7551, 2: 3.57165, 3: 4.34413, 4: 5.07744,
            5: 5.77629, 6: 6.44493, 7: 7.08706, 8: 7.70581}
CW_OMEGA = {1: 2.16805, 2: 2.17794, 3: 2.19146, 4: 2.20550,
            5: 2.21912, 6: 2.23200, 7: 2.24404, 8: 2.25525}
CW_SMALL_OMEGA = {1: 2.17795, 2: 2.0, 3: 2.02538, 4: 2.06244,
                  5: 2.09627, 6: 2.12549, 7: 2.15064}
TQ_SLICE = {2: 1.88988, 3: 2.75510, 4: 3.61071, 5: 4.46157}
TQ_OMEGA = {2: 2.17795, 3: 2.16805, 4: 2.15949, 5: 2.15237}
FLOOR_GOLDEN = {"v_8": 0.017732422, "f_v8": 2.07389, "relaxed_at_9": 2.18562}
FLOOR_VALUE = 2.16805

TABLE_TOL = 1e-4  # printed values carry 5 decimals

# Asymptotic rank R of each table family, for omega >= 2 log R / log s.
FAMILY_RANK = {"cw": lambda q: q + 2, "cw-small": lambda q: q + 1,
               "tq-lower": lambda q: q}
FAMILY_QMIN = {"cw": 1, "cw-small": 1, "tq-lower": 2}


def cw_small_closed_form(q: int) -> float:
    return 3.0 * q ** (2.0 / 3.0) / 2.0 ** (2.0 / 3.0)


def t112_closed_form(q: int) -> float:
    return (4.0 * q * q * (q * q + 2)) ** (1.0 / 3.0)


# Mirror ascent in `symmetric_log_value_bracket` stops once the bracket
# is this narrow, or after MAX_ITER steps; the bracket holds either way.
GAP_TOL = 1e-10
MAX_ITER = 200000


def symmetric_log_value_bracket(keys, part_sizes):
    """Certified bracket (lo, hi) on max log value_x over rotation-symmetric
    block distributions.

    keys are the nonzero block indices (i, j, k) of a rotation-symmetric
    block support, part_sizes the common part sizes.  The distribution
    puts mass w_o on each rotation orbit o, spread evenly over it, so
    the x marginal is m = sum_o w_o v_o, and log value_x(m) =
    sum_i m_i (log s_i - log m_i) is concave in w.  Mirror ascent
    w_o <- w_o exp(g_o) (the Blahut-Arimoto step) is run until the
    concavity gap max_o g_o - <g, w> is at most GAP_TOL or MAX_ITER steps
    are done.  lo is the value at the last iterate, and since the gap
    bounds the distance to the optimum, hi = lo + gap: the optimum lies
    in [lo, hi] however the loop ended.
    """
    keyset = set(keys)
    orbits = sorted({tuple(sorted({(i, j, k), (j, k, i), (k, i, j)}))
                     for (i, j, k) in keyset})
    n = len(part_sizes)
    v = np.zeros((len(orbits), n))
    for o, orbit in enumerate(orbits):
        for (i, _, _) in orbit:
            v[o, i] += 1.0 / len(orbit)
    log_s = np.log(np.asarray(part_sizes, dtype=float))
    w = np.full(len(orbits), 1.0 / len(orbits))
    for _ in range(MAX_ITER):
        m = w @ v
        with np.errstate(divide="ignore"):
            log_m = np.where(m > 0, np.log(np.where(m > 0, m, 1.0)), -np.inf)
        g = v @ (log_s - log_m)          # partial derivatives, up to a constant
        gap = float(np.max(g) - w @ g)
        if gap <= GAP_TOL:
            break
        w = w * np.exp(g - np.max(g))
        w /= w.sum()
    pos = m > 0
    lo = float(np.sum(m[pos] * (log_s[pos] - log_m[pos])))
    return lo, lo + gap


def tq_lower_bracket(q: int):
    """Bracket on the slice rank value of the lower triangular cyclic
    tensor (singleton parts)."""
    keys = [(i, j, q - 1 - i - j) for i in range(q) for j in range(q - i)]
    lo, hi = symmetric_log_value_bracket(keys, [1] * q)
    return math.exp(lo), math.exp(hi)


def _near(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def check_table(family: str, qmax: int, out: str):
    rows = [line.split() for line in out.splitlines() if line.strip()]
    want_qs = list(range(FAMILY_QMIN[family], qmax + 1))
    if [int(r[0]) for r in rows if r] != want_qs:
        return f"rows are not q = {want_qs[0]}..{qmax}"
    golden_slice = {"cw": CW_SLICE, "tq-lower": TQ_SLICE}.get(family, {})
    golden_omega = {"cw": CW_OMEGA, "cw-small": CW_SMALL_OMEGA,
                    "tq-lower": TQ_OMEGA}[family]
    for row in rows:
        if len(row) != 4:
            return f"malformed row {' '.join(row)!r}"
        q, s, omega, status = int(row[0]), float(row[1]), float(row[2]), row[3]
        if family == "cw-small":
            lo = hi = cw_small_closed_form(q)
        elif q in golden_slice:
            lo = hi = golden_slice[q]
        else:
            lo, hi = tq_lower_bracket(q)
        if not lo - TABLE_TOL <= s <= hi + TABLE_TOL:
            return f"q={q}: slice rank {s} not in [{lo:.6f}, {hi:.6f}]"
        want_s = min(max(s, lo), hi)
        want_omega = max(2.0, 2.0 * math.log(FAMILY_RANK[family](q)) / math.log(want_s))
        if not _near(omega, want_omega, TABLE_TOL):
            return f"q={q}: omega {omega} != {want_omega:.6f}"
        if q in golden_omega and not _near(omega, golden_omega[q], TABLE_TOL):
            return f"q={q}: omega {omega} != golden {golden_omega[q]}"
        has_golden = q in golden_omega
        if status != ("PASS" if has_golden else "--"):
            return f"q={q}: status {status!r}"
    return None


def check_appendix(out: str):
    found = {}
    for key in FLOOR_GOLDEN:
        m = re.search(rf"^{key} = (\S+)\s+\(PASS\)$", out, re.M)
        if not m:
            return f"{key} line missing or not PASS"
        found[key] = float(m.group(1))
    for key, want in FLOOR_GOLDEN.items():
        tol = 1e-8 if key == "v_8" else TABLE_TOL
        if not _near(found[key], want, tol):
            return f"{key} = {found[key]} != {want}"
    if not re.search(r"^relaxed bound increasing on q=9\.\.\d+: PASS$", out, re.M):
        return "relaxed bound not reported increasing"
    m = re.search(r"^floor over q<=\d+ = (\S+) >= \S+ PASS$", out, re.M)
    if not m or float(m.group(1)) < FLOOR_VALUE - 1e-6:
        return "floor line missing or below the floor"
    return None


def check_t112(q: int, out: str):
    m = re.search(r"rotation_product_optimum=(\S+)\s+closed_form=(\S+)", out)
    v = re.search(r"^V_2/3 = (\S+)\s+PASS$", out, re.M)
    if not m or not v:
        return "t112 output missing fields or not PASS"
    cube = 4.0 * q * q * (q * q + 2)
    if not _near(float(m.group(1)), cube, 1e-6 * cube):
        return f"rotation product optimum {m.group(1)} != {cube}"
    want = t112_closed_form(q)
    if not _near(float(v.group(1)), want, 1e-5 * want):
        return f"V_2/3 {v.group(1)} != {want:.6f}"
    return None


def check_laser(cw_q: int, out: str):
    m = re.fullmatch(r"S~ = Q~ = (\S+) \(tight\)\n", out)
    if not m:
        return "laser output malformed"
    root = float(m.group(1)) ** (1.0 / 3.0)
    if not _near(root, CW_SLICE[cw_q], TABLE_TOL):
        return f"cube root {root:.6f} != CW_{cw_q} value {CW_SLICE[cw_q]}"
    return None


def _report(out: str):
    """Split a BoundReport line into (value, {certificate key: text})."""
    fields = out.split()
    if len(fields) < 4:
        return None, {}
    cert = dict(kv.split("=", 1) for kv in fields[3].split(",") if "=" in kv)
    return float(fields[1]), cert


def block_supports(entries, parts):
    """Nonzero blocks as {part key: (x support, y support, z support)}."""
    where = [{i: p for p, (_, idx) in enumerate(parts[ax]) for i in idx} for ax in "xyz"]
    out = {}
    for key in entries:
        bkey = tuple(where[a][key[a]] for a in range(3))
        sup = out.setdefault(bkey, (set(), set(), set()))
        for a in range(3):
            sup[a].add(key[a])
    return out


def mu_sum_expected(entries, parts):
    sups = block_supports(entries, parts)
    return sum((len(a) * len(b) * len(c)) ** (1.0 / 3.0)
               for a, b, c in sups.values()), len(sups)


def check_mu_sum(expected, out: str):
    value, cert = _report(out)
    want, nparts = expected
    if value is None or not _near(value, want, 1e-8 * want):
        return f"mu-sum value {value} != {want:.9f}"
    if cert.get("parts") != str(nparts):
        return f"mu-sum parts {cert.get('parts')} != {nparts}"
    return None


def flattening_ranks(entries, shape):
    """numpy ranks of the x, y and z flattenings of an entry map."""
    ranks = []
    for rp, c1, c2 in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        mat = np.zeros((shape[rp], shape[c1] * shape[c2]))
        for key, c in entries.items():
            mat[key[rp], key[c1] * shape[c2] + key[c2]] = float(c)
        ranks.append(int(np.linalg.matrix_rank(mat)))
    return ranks


def remove_x_expected(entries, shape, parts):
    """x_rank_A, m_A, x_rank_B for the split on the first x part."""
    first = set(parts["x"][0][1])
    a = {k: c for k, c in entries.items() if k[0] in first}
    b = {k: c for k, c in entries.items() if k[0] not in first}
    ranks_a = flattening_ranks(a, shape)
    ranks_b = flattening_ranks(b, shape)
    return {"x_rank_A": ranks_a[0], "m_A": max(ranks_a), "x_rank_B": ranks_b[0]}


def check_remove_x(expected, out: str):
    value, cert = _report(out)
    if value is None or not math.isfinite(value) or value <= 0:
        return "remove-x output malformed"
    for key, want in expected.items():
        if cert.get(key) != str(want):
            return f"remove-x {key}={cert.get(key)} != {want}"
    return None


def check_partition_value(want: float, out: str):
    value, _ = _report(out)
    if value is None or not _near(value, want, 1e-6 * want):
        return f"partition bound {value} != {want}"
    return None


def check_verified(out: str):
    return None if out.startswith("OK") else f"not verified: {out.strip()[:80]!r}"
