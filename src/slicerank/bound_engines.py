"""Upper and lower bounds on asymptotic slice rank and exponent limits.

Three upper-bound tools are implemented for the asymptotic slice rank
of a tensor T:

* `sum_of_measures_bound` -- if T = T_1 + ... + T_k then the asymptotic
  slice rank is at most sum_i measure(T_i)^(1/3);
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
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import exact_linalg, optimizer, rank_tools
from .tensor_core import (
    BlockSet,
    RankFact,
    Tensor,
    VariablePartition,
    blocks,
    cw_partition,
    cw_small_partition,
    is_variable_symmetric,
    make_cw,
    make_cw_small,
    make_cyclic_lower,
    make_t112,
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
    if not parts:
        raise ValueError("need at least one part")
    labels = (total.x_labels, total.y_labels, total.z_labels)
    acc = {}
    for part in parts:
        if (part.x_labels, part.y_labels, part.z_labels) != labels:
            raise ValueError("parts are not over the tensor's variables")
        for key, c in part.entries.items():
            acc[key] = acc.get(key, 0) + c
    acc = {key: c for key, c in acc.items() if c != 0}
    if acc != total.entries:
        diff = sorted(set(acc.items()) ^ set(total.entries.items()))
        key = diff[0][0]
        raise ValueError(
            f"parts do not sum to the tensor; first differing entry {key}: "
            f"sum has {acc.get(key, 0)}, tensor has {total.coefficient(*key)}")
    measures = [rank_tools.measure(part) for part in parts]
    value = sum(m ** (1.0 / 3.0) for m in measures)
    return BoundReport(
        "slice_rank_upper", value, THEOREM_SUM,
        certificate={"part_measures": tuple(measures), "parts": len(parts)},
    )


# -- tool two: block distributions -------------------------------------------


def partition_bound(t: Tensor, p: VariablePartition) -> BoundReport:
    """Partition upper bound on the asymptotic slice rank.

    Symmetric partitions use the symmetric maximization (equal value:
    orbit averaging never decreases the min); otherwise the max-min
    over the full block simplex is solved.
    """
    bs = blocks(t, p)
    if not bs.blocks:
        raise Inapplicable("the block set is empty: the tensor has no terms")
    if bs.symmetric:
        opt = optimizer.maximize_symmetric(bs)
        cert = {
            "method": "symmetric",
            "kkt_residual": opt.kkt_residual,
            "optimality_gap": opt.optimality_gap,
            "distribution": opt.masses,
        }
        return BoundReport("slice_rank_upper", opt.value, THEOREM_PARTITION_SYM,
                           certificate=cert)
    opt = optimizer.maximize_minmax(bs)
    cert = {
        "method": "minmax",
        "kkt_residual": opt.kkt_residual,
        "active_axes": "".join(opt.active_axes),
        "distribution": opt.masses,
    }
    return BoundReport("slice_rank_upper", opt.value, THEOREM_PARTITION,
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
    if (a.x_labels, a.y_labels, a.z_labels) != (b.x_labels, b.y_labels, b.z_labels):
        raise ValueError("split parts must share variable lists")
    if total is not None:
        s = tensor_add(a, b)
        if s.entries != total.entries:
            diff = sorted(set(s.entries.items()) ^ set(total.entries.items()))
            key = diff[0][0]
            raise ValueError(f"A + B differs from the tensor at entry {key}")
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
    a, b = {}, {}
    for key, c in t.entries.items():
        (a if p.where[0][key[0]][0] == 0 else b)[key] = c
    if not a or not b:
        raise TrivialSplit("remove-x needs a nontrivial first x part")
    a, b = (Tensor(t.x_labels, t.y_labels, t.z_labels, e) for e in (a, b))
    bt = trimmed(b)
    solved = partition_bound(bt, singleton_partition(bt))
    return split_bound(a, b, solved.value, total=t), solved


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
    literal part indices whenever those already work.  `block_set` is
    the split the verdict was reached on.
    """

    ok: bool
    ell: Optional[int]
    grades: Optional[dict]
    block_shapes: dict
    failures: list
    conditions: dict
    block_set: BlockSet


def _support_trifunctional(keys) -> bool:
    """Each coordinate of a block key is determined by the other two."""
    seen = [{}, {}, {}]
    for key in keys:
        pairs = [((key[1], key[2]), key[0]),
                 ((key[0], key[2]), key[1]),
                 ((key[0], key[1]), key[2])]
        for pos, (pair, val) in enumerate(pairs):
            if seen[pos].setdefault(pair, val) != val:
                return False
    return True


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
    # the first candidate with the most distinct grades
    vec = max(([sum(t ** e * b[idx] for e, b in enumerate(basis)) for idx in range(n)]
               for t in (1, 2, 3, 5, 7, 11, 13)),
              key=lambda v: sum(len(set(v[a:b])) for a, b in cuts))
    denom = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    g = math.gcd(*ints)  # nonzero: the basis vectors are independent
    gx, gy, gz = ([v // g for v in ints[a:b]] for a, b in cuts)
    ell = gx[keys[0][0]] + gy[keys[0][1]] + gz[keys[0][2]]
    for (i, j, k) in keys:
        if gx[i] + gy[j] + gz[k] != ell:
            return None
    return {"x": tuple(gx), "y": tuple(gy), "z": tuple(gz)}, ell


def laser_readiness(t: Tensor, p: VariablePartition) -> LaserReadiness:
    """Check the three conditions for the classical laser analysis.

    Condition (1) asks for a degeneration of every block onto a maximal
    matmul tensor; deciding that in general is open, so blocks are
    checked by exact matmul recognition, which covers every structured
    family here.  A block on three one-variable parts is one term,
    <1,1,1> whatever its coefficient, and is not built as a tensor.
    Condition (2) scans the block indices for a hyperplane i+j+k = ell
    and falls back to solving for integer part grades (needed for
    product partitions of rotation products, whose nonzero blocks still
    determine one another coordinatewise).
    """
    bs = blocks(t, p)
    keys = bs.keys()
    failures = []
    conditions = {}

    # (3) symmetry, decided by `blocks`; the tensor is checked again only
    # to word a failure
    if not bs.symmetric:
        failures.append("tensor is not variable-symmetric" if not is_variable_symmetric(t)
                        else "partition is not symmetric for the tensor")
    conditions["symmetric"] = bs.symmetric

    # (2) hyperplane support
    ell = None
    grades = None
    sums = {i + j + k for (i, j, k) in keys}
    if not keys:
        hyper = False
        failures.append("the block set is empty: the tensor has no terms")
    elif len(sums) == 1:
        ell = sums.pop()
        grades = {ax: tuple(range(p.part_count(ax))) for ax in "xyz"}
        hyper = True
    elif _support_trifunctional(keys):
        counts = tuple(p.part_count(ax) for ax in "xyz")
        solved = _solve_block_grading(keys, counts)
        if solved is None:
            hyper = False
            failures.append("block support admits no informative hyperplane grading")
        else:
            grades, ell = solved
            hyper = True
    else:
        hyper = False
        failures.append("block coordinates do not determine one another")
    conditions["hyperplane_support"] = hyper

    # (1) maximal matmul blocks
    shapes = {}
    matmul_ok = True
    sx, sy, sz = (p.part_sizes(ax) for ax in "xyz")
    for key in keys:
        i, j, k = key
        parts = (sx[i], sy[j], sz[k])
        if parts == (1, 1, 1):
            shapes[key] = parts
            continue
        witness = rank_tools.recognize_matmul(bs[key])
        if witness is None:
            matmul_ok = False
            failures.append(f"block {key} is not a matmul tensor")
            continue
        a, b, c = witness.a, witness.b, witness.c
        shapes[key] = (a, b, c)
        if (a * b, b * c, c * a) != parts:
            matmul_ok = False
            failures.append(f"block {key} is <{a},{b},{c}>, not maximal for its parts")
    conditions["maximal_matmul_blocks"] = matmul_ok

    ok = conditions["symmetric"] and conditions["hyperplane_support"] \
        and conditions["maximal_matmul_blocks"]
    return LaserReadiness(ok, ell if hyper else None, grades if hyper else None,
                          shapes, failures, conditions, bs)


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
    if not ready.ok:
        raise NotLaserReady(ready)
    opt = optimizer.maximize_symmetric(ready.block_set)
    cert = {
        "tight": True,
        "asymptotic_subrank_equal": True,
        "ell": ready.ell,
        "kkt_residual": opt.kkt_residual,
        "distribution": opt.masses,
        "block_shapes": dict(sorted(ready.block_shapes.items())),
    }
    return BoundReport("slice_rank_lower", opt.value, THEOREM_LASER,
                       certificate=cert)


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
    q: int
    slice_rank: float
    omega: Optional[float]
    slice_report: BoundReport
    omega_report: Optional[BoundReport]


def _tight_row(t: Tensor, p: VariablePartition, q: int) -> TableRow:
    tight = laser_lower_bound(t, p)
    omega_report = omega_lower_bound(t.rank_fact(), tight.value, symmetric=True)
    return TableRow(q, tight.value, omega_report.value, tight, omega_report)


def cw_table(q_max: int) -> list[TableRow]:
    """Tight slice rank and exponent floor rows for CW_q, q = 1..q_max."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    return [_tight_row(make_cw(q), cw_partition(q), q) for q in range(1, q_max + 1)]


def cw_small_table(q_max: int) -> list[TableRow]:
    """Rows for cw_q; the slice rank value has closed form 3 q^(2/3) / 2^(2/3)."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    return [_tight_row(make_cw_small(q), cw_small_partition(q), q)
            for q in range(1, q_max + 1)]


def tq_lower_table(q_max: int) -> list[TableRow]:
    """Rows for the lower triangular cyclic tensors, q = 2..q_max."""
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    rows = []
    for q in range(2, q_max + 1):
        t = make_cyclic_lower(q)
        rows.append(_tight_row(t, singleton_partition(t), q))
    return rows


# -- uniform floor over the CW family -----------------------------------------


FLOOR_TARGET = 2.16805


def cw_family_floor(q_max: int) -> BoundReport:
    """Verify the uniform exponent floor over all CW_q up to q_max.

    CW_q gives omega >= 2 log(q+2) / log S_q, where
    log S_q = (2/3 - 2 v_q) log q + log f(v_q), v_q is `cw_slice_rank_1d`'s
    root and log f is `cw_profile_log`.  This is computed for q <= 8.  For
    q > 8 the profile is frozen at v_8, giving the relaxed bound
    R(q) = 2 log(q+2) / ((2/3) log q + L) with L = log f(v_8).  The value
    is the minimum over the range, and it bounds every q:

    * v_q decreases in q, because its denominator increases.
    * log f is concave and its stationarity condition is the q = 1
      equation, so it increases on [0, v_1].  For q >= 8, f(v_q) <= f(v_8),
      so log S_q <= (2/3) log q + L and omega_q >= R(q).
    * R increases for real q >= 9: R' has the sign of
      g(q) = q ((2/3) log q + L) - (2/3) (q+2) log(q+2), and
      q log(1 + 2/q) <= 2 gives g(q) >= h(q) = q L - 4/3 - (4/3) log(q+2),
      which increases for q >= 9 once L > 4/33 and is ~2.03 at q = 9.

    The tests check L > 4/33, g(9) > 0, h(9) > 0 and R(9) > FLOOR_TARGET
    in interval arithmetic; the certificate's flags re-check v_q on q <= 8
    and R on 9..q_max in floats.
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
    relaxed = {}
    prev = None
    relaxed_monotone = True
    relaxed_above = True
    floor = min(omegas)
    for q in range(9, q_max + 1):
        rb = 2.0 * math.log(q + 2) / ((2.0 / 3.0) * math.log(q) + math.log(f_v8))
        if prev is not None and rb <= prev:
            relaxed_monotone = False
        if rb <= FLOOR_TARGET:
            relaxed_above = False
        prev = rb
        floor = min(floor, rb)
        if q <= 12 or q == q_max:
            relaxed[q] = rb
    cert = {
        "v_8": vs[7],
        "f_v8": f_v8,
        "relaxed_at_9": relaxed[9],
        "v_values": tuple(vs),
        "table_omegas": tuple(omegas),
        "v_nonincreasing": v_monotone,
        "relaxed_increasing": relaxed_monotone,
        "relaxed_above_floor": relaxed_above,
        "q_max": q_max,
    }
    fact = ("asymptotic_rank", "q+2",
            "CW border rank construction (1990) with matching flattening lower bound")
    return BoundReport("omega_lower", floor, THEOREM_FLOOR, certificate=cert,
                       inputs_asserted=(fact,))
