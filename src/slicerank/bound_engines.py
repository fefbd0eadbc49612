"""Upper and lower bounds on asymptotic slice rank and exponent limits.

Three upper-bound tools are implemented for the asymptotic slice rank
of a tensor T:

* `sum_of_measures_bound` -- if T = T_1 + ... + T_k then the asymptotic
  slice rank is at most sum_i measure(T_i)^(1/3); `block_measures_bound`
  sums over the nonzero blocks of a partition, as `blocks` holds them;
* `partition_bound` -- for any partition of the variables into parts,
  it is at most max over block distributions p of
  min(value_x(p), value_y(p), value_z(p)); on symmetric partitions the
  maximization is carried out over symmetric distributions, which gives
  the same value;
* `split_bound` -- if T = A + B and the x-rank of A is small compared
  with its other flattening ranks, a bound combining the flattening
  data of A with an asymptotic bound for B.

For laser-ready partitions (maximal matmul blocks supported on an
integer hyperplane of part grades, symmetric), the partition bound is
tight: `laser_lower_bound` certifies equality and that the asymptotic
subrank agrees.  Exponent lower bounds (`omega_lower_bound`) convert a
slice rank upper bound plus an asserted asymptotic rank into a lower
bound on the exponent achievable from the tensor by degeneration
methods; asserted rank values always travel with their source.

Table builders reproduce the standard families (CW_q, cw_q, lower
triangular cyclic tensors) and `cw_family_floor` verifies the uniform
floor of the CW exponent bounds over all q.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import exact_linalg, optimizer, rank_tools
from .tensor_core import (
    CW_RANK_SOURCE,
    BlockSet,
    RankFact,
    Tensor,
    VariablePartition,
    blocks,
    cw_partition,
    cw_small_partition,
    direct_sum,
    make_cw,
    make_cw_small,
    make_cyclic_lower,
    make_t112,
    partition_sum,
    singleton_partition,
    t112_partition,
    tensor_add,
    trimmed,
)

THEOREM_SUM = "sum-of-measures"
THEOREM_PARTITION = "block-distribution-minmax"
THEOREM_PARTITION_SYM = "block-distribution-symmetric"
THEOREM_SPLIT = "low-x-rank-split"
THEOREM_OMEGA_SYM = "symmetric-omega"
THEOREM_OMEGA_GEN = "general-omega"
THEOREM_LASER = "laser-equality"
THEOREM_VALUE = "rotation-product-value"
THEOREM_FLOOR = "cw-family-floor"

KKT_LIMIT = 1e-6  # beyond this an optimizer result is not trusted


class Inapplicable(RuntimeError):
    """The requested bound is undefined for these inputs."""


class NotLaserReady(ValueError):
    """The partition fails a laser condition; `readiness` holds the verdict."""

    def __init__(self, readiness: "LaserReadiness"):
        super().__init__("partition is not laser-ready: " + "; ".join(readiness.failures))
        self.readiness = readiness


class TrivialSplit(Inapplicable):
    """remove-x: the first x part carries all of the tensor's terms or none."""


@dataclass
class BoundReport:
    """A computed bound with its certificate and asserted inputs.

    quantity is one of slice_rank_upper, slice_rank_lower, omega_lower,
    value_V.  inputs_asserted lists (name, value, source) facts that
    were supplied rather than computed.
    """

    quantity: str
    value: float
    theorem: str
    certificate: dict = field(default_factory=dict)
    inputs_asserted: tuple = ()

    def to_line(self) -> str:
        parts = []
        for key in sorted(self.certificate):
            val = self.certificate[key]
            if isinstance(val, float):
                parts.append(f"{key}={val:.9g}")
            elif isinstance(val, (int, bool, str)):
                parts.append(f"{key}={val}")
        cert = ",".join(parts) if parts else "-"
        cites = ";".join(f"{name}={value} [{source}]"
                         for name, value, source in self.inputs_asserted) or "-"
        return f"{self.quantity} {self.value:.9f} {self.theorem} {cert} {cites}"


def _xlogx(t: float) -> float:
    return t * math.log(t) if t > 0.0 else 0.0


# -- tool one: sum of measures ----------------------------------------------


def sum_of_measures_bound(total: Tensor, parts: Sequence[Tensor]) -> BoundReport:
    """Upper bound sum_i measure(T_i)^(1/3) for any exact sum T = sum T_i."""
    report = _measures_bound(map(rank_tools.measure, parts))  # refuses an empty sum first
    if any(part.labels != total.labels for part in parts):
        raise ValueError("parts are not over the tensor's variables")
    acc = tensor_add(*parts).entries
    if acc != total.entries:
        diff = sorted(set(acc.items()) ^ set(total.entries.items()))
        key = diff[0][0]
        raise ValueError(
            f"parts do not sum to the tensor; first differing entry {key}: "
            f"sum has {acc.get(key, 0)}, tensor has {total.coefficient(*key)}")
    return report


def block_measures_bound(t: Tensor, p: VariablePartition) -> BoundReport:
    """`sum_of_measures_bound` for t as the sum of its nonzero blocks under
    p, in key order (`blocks`), read off the split's arrays: a block's
    measure multiplies, over the three axes, the number of distinct
    (block, variable) pairs among the entries that fall in it."""
    bs = blocks(t, p)
    ent = t.key_array
    counts = [np.bincount(bs.entry_block[np.unique(bs.entry_block * n + ent[:, a],
                                                   return_index=True)[1]],
                          minlength=len(bs)).tolist() for a, n in enumerate(t.shape)]
    return _measures_bound(map(math.prod, zip(*counts)))


def _measures_bound(measures) -> BoundReport:
    """Tool one's report on the parts' measures; refuses an empty sum."""
    measures = tuple(measures)
    if not measures:
        raise ValueError("need at least one part")
    return BoundReport(
        "slice_rank_upper", sum(m ** (1.0 / 3.0) for m in measures), THEOREM_SUM,
        certificate={"part_measures": measures, "parts": len(measures)},
    )


# -- tool two: block distributions -------------------------------------------


def partition_bound(t: Tensor, p: VariablePartition) -> BoundReport:
    """Partition upper bound on the asymptotic slice rank.

    Symmetric partitions use the symmetric maximization (equal value:
    orbit averaging never decreases the min); otherwise the max-min
    over the full block simplex is solved.  Either maximum is reported by
    its weak-duality bound exp(sum_a w_a f_a + gap) at the returned weights.
    """
    bs = blocks(t, p)
    if not len(bs):
        raise Inapplicable("the block set is empty: the tensor has no terms")
    if bs.symmetric:
        opt, theorem, method = optimizer.maximize_symmetric(bs), THEOREM_PARTITION_SYM, "symmetric"
        own = {"optimality_gap": opt.optimality_gap}
    else:
        opt, theorem, method = optimizer.maximize_minmax(bs), THEOREM_PARTITION, "minmax"
        own = {"active_axes": "".join(opt.active_axes)}
    cert = {"method": method, "kkt_residual": opt.kkt_residual, **own, "distribution": opt.masses}
    dual = sum(w * f for w, f in zip(opt.axis_weights.values(), opt.log_values))
    return BoundReport("slice_rank_upper", math.exp(dual + opt.optimality_gap), theorem,
                       certificate=cert)


# -- tool three: removing a low x-rank part ----------------------------------


def split_bound(a: Tensor, b: Tensor, b_value_upper: float,
                total: Optional[Tensor] = None) -> BoundReport:
    """Upper bound for T = A + B given an asymptotic bound for B.

    With x_A = x_rank(A), m_A = m(A), x_B = x_rank(B) and
    S_B = min(b_value_upper, x_B), the asymptotic slice rank of T is at most

        max_p e^(H(p)) min(x_A^p x_B^(1-p), m_A^p S_B^(1-p)),

    H the binary entropy:

    * T^n is the sum over subsets S of A^S (x) B^(S^c); a term with
      |S| = k has x-rank at most x_A^k x_B^(n-k).
    * Its slice rank is also at most m_A^k S(B^(n-k)), because
      S(X (x) Y) <= m(X) S(Y): tensor each slice of Y with X, and the
      result's flattening rank in that slice's axis is at most m(X).
    * Sum over k, with C(n, k) terms for each k.

    e^(H(p)) u^p v^(1-p) peaks at p = u/(u+v) with value u + v, and the
    first branch is the smaller one for p >= p* = log(x_B/S_B) /
    (log(m_A/x_A) + log(x_B/S_B)).  So the value is x_A + x_B if
    x_A/(x_A+x_B) >= p* (always when both logs are 0), m_A + S_B if
    m_A/(m_A+S_B) <= p*, and otherwise the value at p*.  `weight` in the
    certificate is the maximizing p.
    """
    if a.labels != b.labels:
        raise ValueError("split parts must share variable lists")
    if total is not None:
        sum_of_measures_bound(total, (a, b))  # for its check that A + B is total
    sxa, sya, sza = (rank_tools.flattening_rank(a, ax) for ax in "xyz")
    ma = max(sxa, sya, sza)
    sxb = rank_tools.x_rank(b)
    if not 0 < b_value_upper < math.inf:
        raise ValueError("b_value_upper must be positive and finite")
    capped = min(float(b_value_upper), float(sxb))
    log_ra = math.log(ma / sxa)
    log_rb = math.log(sxb / capped)
    # p >= p* is compared as p (log_ra + log_rb) >= log_rb, which holds at 0/0
    if sxa * (log_ra + log_rb) >= (sxa + sxb) * log_rb:
        pw, value = sxa / (sxa + sxb), sxa + sxb
    elif ma * (log_ra + log_rb) <= (ma + capped) * log_rb:
        pw, value = ma / (ma + capped), ma + capped
    else:
        pw = log_rb / (log_ra + log_rb)
        value = math.exp(pw * math.log(sxa) + (1.0 - pw) * math.log(sxb)
                         - _xlogx(pw) - _xlogx(1.0 - pw))
    return BoundReport(
        "slice_rank_upper", float(value), THEOREM_SPLIT,
        certificate={
            "x_rank_A": sxa, "m_A": ma, "x_rank_B": sxb,
            "B_bound": float(b_value_upper), "B_bound_used": capped,
            "weight": pw,
        },
    )


def remove_x_bound(t: Tensor, p: VariablePartition) -> tuple[BoundReport, BoundReport]:
    """`split_bound` for A, the terms in p's first x part, and B, the rest,
    bounded by `partition_bound` on B trimmed to its used variables and
    split into singletons.  Returns the split report and B's report."""
    in_a = np.array(p.where[0], np.intp).reshape(-1, 2)[t.key_array[:, 0], 0] == 0
    if in_a.all() or not in_a.any():
        raise TrivialSplit("remove-x needs a nontrivial first x part")
    a, b = (Tensor._from_arrays(*t.labels, t.key_array[m], t.coef_array[m]) for m in (in_a, ~in_a))
    bt = trimmed(b)
    solved = partition_bound(bt, singleton_partition(bt))
    return split_bound(a, b, solved.value), solved


# -- exponent lower bounds ----------------------------------------------------


def omega_lower_bound(rank: RankFact, s_upper: float,
                      symmetric: bool) -> BoundReport:
    """Exponent lower bound from a slice rank upper bound.

    Symmetric tensors: omega >= 2 log(R) / log(s).  General tensors:
    omega >= 6 log(R) / (log(s) + 2 log(R)).  R is the asserted
    asymptotic rank (a lower bound on R suffices: both formulas are
    nondecreasing in R).  Result is clamped to >= 2.
    """
    r = float(rank.value)
    s = float(s_upper)
    if not (1.0 < r < math.inf and 1.0 < s < math.inf):
        raise ValueError("need finite rank and slice rank bound, both > 1")
    if s > r * (1.0 + 1e-9):
        raise ValueError(
            f"slice rank bound {s} exceeds asymptotic rank {r}; "
            "slice rank never exceeds asymptotic rank")
    if symmetric:
        value = 2.0 * math.log(r) / math.log(s)
        theorem = THEOREM_OMEGA_SYM
    else:
        value = 6.0 * math.log(r) / (math.log(s) + 2.0 * math.log(r))
        theorem = THEOREM_OMEGA_GEN
    value = max(2.0, value)
    fact = ("asymptotic_rank" + ("" if rank.exact else "_lower_bound"),
            rank.value, rank.source)
    return BoundReport("omega_lower", value, theorem,
                       certificate={"slice_rank_upper": s, "symmetric": symmetric},
                       inputs_asserted=(fact,))


# -- laser readiness and the matching lower bound -----------------------------


@dataclass
class LaserReadiness:
    """Verdict of the three laser conditions for a tensor partition.

    ok requires: every nonzero block is a maximal matmul tensor for its
    parts (1), the block support lies on an integer hyperplane of part
    grades (2), and tensor plus partition are symmetric (3).  `grades`
    holds the per-axis part grades that certify (2); these are the
    literal part indices whenever those already work.  `block_shapes`
    maps each block key, in key order, to its matmul shape (a, b, c), and
    leaves out the blocks that are not matmul; it is a read-only mapping
    built when first read from the block set's key rows and the shapes of
    the blocks off three one-variable parts (`BlockShapes`).  `block_set`
    is the split the verdict was reached on: the row's own, also when it
    was read off the split of a run of rows.
    """

    ok: bool
    ell: Optional[int]
    grades: Optional[dict]
    block_shapes: Mapping
    failures: list
    conditions: dict
    block_set: BlockSet


class BlockShapes(optimizer.ArrayMap):
    """`LaserReadiness.block_shapes`, held as the key rows of a block set
    and `values`, {key: (a, b, c) or None} of its blocks off three
    one-variable parts: every other block is <1,1,1>, and a None block is
    not matmul, so it is left out."""

    __slots__ = ()

    def _build(self) -> dict:
        shapes = dict.fromkeys(zip(*self._rows.T.tolist()), (1, 1, 1)) | self._values
        return {key: d for key, d in shapes.items() if d}


def _support_trifunctional(keys: np.ndarray) -> bool:
    """Each coordinate of a block key is determined by the other two, on
    distinct keys (the rows of a `key_array`): so exactly when no two keys
    share their coordinates on any two axes."""
    base = int(keys.max(initial=0)) + 1
    return all(len(np.unique(keys[:, a] * base + keys[:, b], return_index=True)[1]) == len(keys)
               for a, b in ((1, 2), (0, 2), (0, 1)))


def _solve_block_grading(keys, counts):
    """Integer part grades putting the block support on a hyperplane.

    Unknowns: grades per x part, per y part, per z part, and the level.
    The system is homogeneous; per-axis constant shifts always solve it,
    so a certificate requires a solution outside that trivial space.
    Returns (grades dict, ell) or None.
    """
    kx, ky, kz = counts
    n = kx + ky + kz + 1
    rows = [{i: 1, kx + j: 1, kx + ky + k: 1, n - 1: -1} for (i, j, k) in keys]
    basis = exact_linalg.nullspace(rows, n)
    if len(basis) <= 3:
        # only the constant-shift directions: no informative grading
        return None

    cuts = ((0, kx), (kx, kx + ky), (kx + ky, n - 1))

    def candidate(t):
        # sum_e t^e basis[e], by Horner's rule on whole vectors
        vec = basis[-1]
        for b in reversed(basis[:-1]):
            vec = [v * t + w for v, w in zip(vec, b)]
        return vec

    # the first candidate with the most distinct grades
    vec = max(map(candidate, (1, 2, 3, 5, 7, 11, 13)),
              key=lambda v: sum(len(set(v[a:b])) for a, b in cuts))
    denom = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    g = math.gcd(*ints)  # nonzero: the basis vectors are independent
    # every vector of the nullspace solves each key's equation, so the
    # grades put every key on the level ell, its last coordinate
    gx, gy, gz = ([v // g for v in ints[a:b]] for a, b in cuts)
    return {"x": tuple(gx), "y": tuple(gy), "z": tuple(gz)}, ints[-1] // g


def laser_readiness(t: Tensor, p: VariablePartition) -> LaserReadiness:
    """Check the three conditions for the classical laser analysis.

    Condition (1) asks for a degeneration of every block onto a maximal
    matmul tensor; deciding that in general is open, so blocks are
    checked by exact matmul recognition, which covers every structured
    family here.  Recognition reads each block's slot-keyed entries
    (`BlockSet._block`) with its part sizes as the shape, so no block is
    built as a tensor; a block on three one-variable parts is one term,
    <1,1,1> whatever its coefficient, and is not recognized at all.
    Under a symmetric partition only the first block of each rotation
    orbit is recognized: the others are its rotations.
    Condition (2) scans the block indices for a hyperplane i+j+k = ell
    and falls back to solving for integer part grades (needed for
    product partitions of rotation products, whose nonzero blocks still
    determine one another coordinatewise).
    Condition (3) is decided by `blocks`.  This is the one-row case of
    `_readiness`, which reads a run of rows off one split.
    """
    return _readiness([(t, p)])[0][0]


def _readiness(rows) -> tuple[list, BlockSet]:
    """The `LaserReadiness` of each (tensor, partition) row, and the one
    split they are read off: `blocks` of the rows' direct sum under the
    direct sum of their partitions (`partition_sum`), or of the one row.
    A row's verdict reads its summand's keys, symmetry and orbits, and its
    `block_set` is its own, sliced from the split.  A row whose partition
    is a `partition_sum` is all of its summands only when read alone (in a
    run they would count as one), so `_tight_rows` reads it alone.
    Matmul recognition runs once per orbit (`BlockSet.group`) that has a
    part of size > 1, on its first block in key order."""
    if len(rows) == 1:
        bs = blocks(*rows[0])
    else:
        bs = blocks(direct_sum(*(t for t, _ in rows)), partition_sum(*(p for _, p in rows)))
    counts = np.array([list(map(len, p.axis_parts)) for _, p in rows])
    part_off = counts.cumsum(axis=0) - counts
    cuts = np.searchsorted(bs.key_array[:, 0], part_off[:, 0]).tolist() + [len(bs)]
    local = bs.key_array - part_off.repeat(np.diff(cuts), axis=0)
    sums = local.sum(axis=1).tolist()
    # the first block of each orbit, if it is off three one-variable parts
    # (blocks on three such parts are <1,1,1>): its key, part sizes and
    # orbit size, and where each row's first such block is
    parts, _, part_size, _ = bs.part_rows
    sizes = part_size[parts]
    firsts = np.unique(bs.group, return_index=True)[1]
    firsts = firsts[(sizes[firsts] != 1).any(axis=1)]
    at = np.searchsorted(firsts, cuts).tolist()
    keys = list(zip(*local[firsts].T.tolist()))
    shape, orbit = sizes[firsts].tolist(), np.bincount(bs.group)[bs.group[firsts]].tolist()
    firsts, first_group = firsts.tolist(), np.append(bs.group, 0)[cuts[:-1]]
    readies, entry_at = [], 0
    for r, (t, p) in enumerate(rows):
        lo, hi = cuts[r], cuts[r + 1]
        # (1) maximal matmul blocks.  Under a symmetric partition the block
        # at (j,k,i) is the block at (i,j,k) rotated, and <a,b,c> rotates
        # to <b,c,a>, so the first block of each orbit is recognized.
        shapes = {}                                       # (a, b, c), or None if not matmul
        for i in range(at[r], at[r + 1]):
            witness = rank_tools._recognize(bs._block(firsts[i]), shape[i])
            key, d = keys[i], None if witness is None else (witness.a, witness.b, witness.c)
            for _ in range(orbit[i]):
                shapes[key] = d
                key, d = (key[1], key[2], key[0]), d and (d[1], d[2], d[0])
        own = bs
        if len(rows) > 1:
            own = BlockSet(t, p, local[lo:hi], bs.entry_block[entry_at:entry_at + len(t)] - lo,
                           bs.group[lo:hi] - first_group[r], bs.symmetry[r:r + 1])
            entry_at += len(t)
        readies.append(_verdict(own, sums[lo:hi], dict(sorted(shapes.items()))))
    return readies, bs


def _verdict(bs: BlockSet, sums, shapes) -> LaserReadiness:
    """The laser verdict on one row's block set, given the sum i+j+k of
    each key and, in key order, the matmul shape (or None) of each block
    off three one-variable parts."""
    p = bs.partition
    failures = []
    conditions = {}

    # (3) symmetry, decided by `blocks`
    if not bs.symmetric:
        failures.append("tensor is not variable-symmetric"
                        if not all(var for var, _ in bs.symmetry)
                        else "partition is not symmetric for the tensor")
    conditions["symmetric"] = bs.symmetric

    # (2) hyperplane support
    ell = grades = None
    if not sums:
        failures.append("the block set is empty: the tensor has no terms")
    elif min(sums) == max(sums):
        ell = sums[0]
        grades = {ax: tuple(range(len(own))) for ax, own in zip("xyz", p.axis_parts)}
    elif not _support_trifunctional(bs.key_array):
        failures.append("block coordinates do not determine one another")
    elif solved := _solve_block_grading(bs.keys(), tuple(map(len, p.axis_parts))):
        grades, ell = solved
    else:
        failures.append("block support admits no informative hyperplane grading")
    conditions["hyperplane_support"] = grades is not None

    failures += [f"block {key} is not a matmul tensor" for key, d in shapes.items() if d is None]
    conditions["maximal_matmul_blocks"] = None not in shapes.values()

    return LaserReadiness(all(conditions.values()), ell, grades,
                          BlockShapes(bs.key_array, shapes), failures, conditions, bs)


def laser_lower_bound(t: Tensor, p: VariablePartition) -> BoundReport:
    """Tight slice rank value for a laser-ready partition.

    The symmetric partition optimum is simultaneously an upper bound
    (block distribution tool) and, through the laser construction, a
    lower bound on the asymptotic slice rank; the certificate records
    the equality and that the asymptotic subrank coincides.  Refuses
    with `NotLaserReady`, which carries the verdict, when the partition
    is not laser-ready.
    """
    ready = laser_readiness(t, p)
    return _laser_reports([ready], ready.block_set)[0]


def _laser_reports(readies: Sequence[LaserReadiness], bs: BlockSet) -> list[BoundReport]:
    """`laser_lower_bound`'s reports for laser-ready verdicts, from one
    symmetric solve on `bs`, the split they were read off (the direct sum
    of their block sets): the optimum of the sum splits into each
    summand's (`optimizer.summand_optima`).  One verdict takes the whole
    optimum, also when its partition is a sum."""
    for ready in readies:
        if not ready.ok:
            raise NotLaserReady(ready)
    opt = optimizer.maximize_symmetric(bs)
    optima = optimizer.summand_optima(bs, opt) if len(readies) > 1 else [opt]
    return [BoundReport("slice_rank_lower", opt.value, THEOREM_LASER, certificate={
        "tight": True,
        "asymptotic_subrank_equal": True,
        "ell": ready.ell,
        "kkt_residual": opt.kkt_residual,
        "distribution": opt.masses,
        "block_shapes": ready.block_shapes,
    }) for ready, opt in zip(readies, optima)]


# -- the CW objective in one variable -----------------------------------------


def cw_profile_log(v: float) -> float:
    """log of 1 / (v^v (2/3-2v)^(2/3-2v) (1/3+v)^(1/3+v)) on [0, 1/3]."""
    return -(_xlogx(v) + _xlogx(2.0 / 3.0 - 2.0 * v) + _xlogx(1.0 / 3.0 + v))


def cw_objective_log(q: int, v: float) -> float:
    """log of the CW_q symmetric block objective at corner mass v."""
    return (2.0 / 3.0 - 2.0 * v) * math.log(q) + cw_profile_log(v)


def cw_slice_rank_1d(q: int) -> tuple[float, float]:
    """(argmax v, log slice rank value) of the one-variable CW_q problem.

    The objective is concave on [0, 1/3] with stationarity condition
    (2/3 - 2v)^2 = q^2 v (1/3 + v), a quadratic with discriminant
    9 q^2 (q^2 + 32).  Its root in [0, 1/3], written with the conjugate,
    has no cancellation and no branch at q = 2, where the quadratic is linear.
    """
    v = 8.0 / (3.0 * (8.0 + q * q + q * math.sqrt(q * q + 32.0)))
    return v, cw_objective_log(q, v)


# -- t_112 value ---------------------------------------------------------------


def t112_value(q: int) -> BoundReport:
    """Tight 2/3-value of t_112: 2^(2/3) q^(2/3) (q^2 + 2)^(1/3).

    The one-variable objective for the rotation product of t_112 over
    its standard partition is concave on [0, 1/2] and stationary at
    v = q^2 / (2 q^2 + 4), with value 4 q^2 (q^2 + 2), the cube of the
    2/3-value.  The certificate checks that closed form against the
    Newton solver's product optimum on t_112's blocks
    (`cube_simplex_*`), which shares no code with it.

    The rotation product is not built: the value needs only that it is
    variable-symmetric with (2q * 2q * (q^2 + 2))^3 variables, which
    `symmetric_cube` gives for every input by construction (see its
    docstring; tested against a reference and on t_112 itself).
    """
    if q < 1:
        raise ValueError("q must be positive")
    cube_value = 4.0 * q * q * (q * q + 2.0)
    product = optimizer.maximize_product(blocks(make_t112(q), t112_partition(q)))
    cert = {
        "argmax_v": q * q / (2.0 * q * q + 4.0),
        "cube_closed_form": cube_value,
        "cube_simplex_optimum": product.value,
        "cube_simplex_relative_error": abs(product.value - cube_value) / cube_value,
    }
    return BoundReport("value_V", cube_value ** (1.0 / 3.0), THEOREM_VALUE,
                       certificate=cert)


# -- tables --------------------------------------------------------------------


@dataclass
class TableRow:
    """A table row; `omega` is None when the solve's residual exceeds
    KKT_LIMIT, as the value is then not trusted."""

    q: int
    slice_rank: float
    omega: Optional[float]
    slice_report: BoundReport
    omega_report: Optional[BoundReport]


# A run of rows is split once and solved as one direct sum, which saves the
# fixed cost of a split and a solve per row, but holds all its rows at
# once: rows of more than SUM_ROW entries (which bound their blocks) are
# solved alone, and a run holds at most SUM_BLOCKS entries.  With every
# row in one run, `table tq-lower --qmax 100` took more time and 2.9x
# the peak memory.  The solve pads every summand of a run to its largest
# (`optimizer._Problem._layout`), so SUM_ROW also bounds the padding:
# without it, `--qmax` 32 to 64 peaked 1.9 to 2.4 MB higher.
SUM_ROW = 256
SUM_BLOCKS = 4096


def _tight_rows(rows) -> list[TableRow]:
    """The table rows of laser-ready (q, tensor, partition) triples, in
    order, in runs of consecutive rows (see SUM_ROW): each run is split
    once and its verdicts read off (`_readiness`), then solved as one
    direct sum.  A row whose partition is a `partition_sum` is a run of
    its own.  A ready row whose tensor asserts no asymptotic rank is
    refused, as its exponent floor has none to rest on."""
    out, run, size = [], [], 0

    def solve():
        nonlocal size
        readies, bs = _readiness([(t, p) for _, t, p in run])
        for (q, t, _), tight in zip(run, _laser_reports(readies, bs)):
            if t.rank_fact() is None:
                raise ValueError(f"row q={q}: its tensor asserts no asymptotic rank")
            omega = (None if tight.certificate["kkt_residual"] > KKT_LIMIT
                     else omega_lower_bound(t.rank_fact(), tight.value, symmetric=True))
            out.append(TableRow(q, tight.value, omega and omega.value, tight, omega))
        run.clear()
        size = 0

    for q, t, p in rows:
        n = len(t)
        alone = n > SUM_ROW or len(p.summands) > 1
        if run and (alone or size + n > SUM_BLOCKS):
            solve()
        run.append((q, t, p))
        size += n
        if alone:
            solve()
    if run:
        solve()
    return out


def cw_table(q_max: int) -> list[TableRow]:
    """Tight slice rank and exponent floor rows for CW_q, q = 1..q_max."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    return _tight_rows((q, make_cw(q), cw_partition(q)) for q in range(1, q_max + 1))


def cw_small_table(q_max: int) -> list[TableRow]:
    """Rows for cw_q; the slice rank value has closed form 3 q^(2/3) / 2^(2/3)."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    return _tight_rows((q, make_cw_small(q), cw_small_partition(q)) for q in range(1, q_max + 1))


def tq_lower_table(q_max: int) -> list[TableRow]:
    """Rows for the lower triangular cyclic tensors, q = 2..q_max."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    tensors = ((q, make_cyclic_lower(q)) for q in range(2, q_max + 1))
    return _tight_rows((q, t, singleton_partition(t)) for q, t in tensors)


# -- uniform floor over the CW family -----------------------------------------


FLOOR_TARGET = 2.16805


def cw_family_floor(q_max: int) -> BoundReport:
    """Verify the uniform exponent floor over every CW_q.

    CW_q gives omega >= 2 log(q+2) / log S_q, where
    log S_q = (2/3 - 2 v_q) log q + log f(v_q), v_q is `cw_slice_rank_1d`'s
    root and log f is `cw_profile_log`.  This is computed for q <= 8.  For
    q > 8 the profile is frozen at v_8, giving the relaxed bound
    R(q) = 2 log(q+2) / ((2/3) log q + L) with L = log f(v_8).  The value
    is the minimum of omega_q on q <= 8 and R(9), and it bounds every q:

    * v_q decreases in q, because its denominator increases.
    * log f is concave and its stationarity condition is the q = 1
      equation, so it increases on [0, v_1].  For q >= 8, f(v_q) <= f(v_8),
      so log S_q <= (2/3) log q + L and omega_q >= R(q).
    * R increases for real q >= 9: R' has the sign of
      g(q) = q ((2/3) log q + L) - (2/3) (q+2) log(q+2), and
      q log(1 + 2/q) <= 2 gives g(q) >= h(q) = q L - 4/3 - (4/3) log(q+2),
      which increases for q >= 9 once L > 4/33 and is ~2.03 at q = 9.

    The certificate's flags are the proof's hypotheses, evaluated once in
    floats: `relaxed_increasing` is L > 4/33 and h(9) > 0,
    `relaxed_above_floor` is R(9) > FLOOR_TARGET, and `v_nonincreasing`
    checks v_q on q <= 8.  `q_max` only names the range reported.  Floats
    suffice: the smallest margin, R(9) - FLOOR_TARGET ~ 0.0176, is some
    10^13 ulps.  The tests check L > 4/33, g(9) > 0, h(9) > 0 and
    R(9) > FLOOR_TARGET in interval arithmetic too.
    """
    if q_max < 9:
        raise ValueError("q_max must be >= 9")
    vs = []
    omegas = []
    for q in range(1, 9):
        v, logval = cw_slice_rank_1d(q)
        vs.append(v)
        omegas.append(2.0 * math.log(q + 2) / logval)
    v_monotone = all(vs[i + 1] <= vs[i] + 1e-9 for i in range(7))
    f_v8 = math.exp(cw_profile_log(vs[7]))
    L = math.log(f_v8)
    relaxed_9 = 2.0 * math.log(11) / ((2.0 / 3.0) * math.log(9) + L)
    cert = {
        "v_8": vs[7],
        "f_v8": f_v8,
        "relaxed_at_9": relaxed_9,
        "v_values": tuple(vs),
        "table_omegas": tuple(omegas),
        "v_nonincreasing": v_monotone,
        "relaxed_increasing": L > 4.0 / 33.0 and 9.0 * L - (4.0 / 3.0) * (1.0 + math.log(11)) > 0.0,
        "relaxed_above_floor": relaxed_9 > FLOOR_TARGET,
        "q_max": q_max,
    }
    return BoundReport("omega_lower", min(*omegas, relaxed_9), THEOREM_FLOOR, certificate=cert,
                       inputs_asserted=(("asymptotic_rank", "q+2", CW_RANK_SOURCE),))
