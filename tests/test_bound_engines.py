"""The bounding tools, laser machinery, tables, and family floor."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import slicerank as sr
from slicerank import bound_engines as be
from slicerank import rank_tools
from slicerank.tensor_core import Tensor

from helpers import (random_partition, random_tensor, search_zeroing_independent,
                     t112_objective_log, t112_value_lower_formula,
                     t112_value_power_mean_upper)


def cw_single_variable_slices(q):
    """Split CW_q into its x_0 slice, the y_0 slice of the rest, and the
    remaining z_0 slice; each part has one variable on some axis."""
    t = sr.make_cw(q)
    s1 = {k: c for k, c in t.entries.items() if k[0] == 0}
    s2 = {k: c for k, c in t.entries.items() if k[0] != 0 and k[1] == 0}
    s3 = {k: c for k, c in t.entries.items() if k[0] != 0 and k[1] != 0}
    return t, [Tensor(t.x_labels, t.y_labels, t.z_labels, s) for s in (s1, s2, s3)]


# -- sum of measures -------------------------------------------------------------

def test_sum_of_measures_trivial():
    t = sr.make_matmul(2, 3, 4)
    rep = be.sum_of_measures_bound(t, [t])
    assert rep.value == pytest.approx(sr.measure(t) ** (1 / 3), rel=1e-12)


def test_sum_of_measures_two():
    two = sr.make_independent(2)
    parts = [Tensor(two.x_labels, two.y_labels, two.z_labels, {(i, i, i): 1})
             for i in range(2)]
    rep = be.sum_of_measures_bound(two, parts)
    assert rep.value == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("q", [1, 2, 4])
def test_sum_of_measures_cw_slices(q):
    t, parts = cw_single_variable_slices(q)
    rep = be.sum_of_measures_bound(t, parts)
    want = (q + 2) ** (2 / 3) + (q + 1) ** (2 / 3) + q ** (2 / 3)
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert sorted(rep.certificate["part_measures"], reverse=True) == [
        (q + 2) ** 2, (q + 1) ** 2, q ** 2]
    # demonstrably looser than the partition bound
    tight = be.partition_bound(t, sr.cw_partition(q))
    assert rep.value > tight.value


def test_sum_of_measures_mismatch():
    t = sr.make_independent(2)
    part = Tensor(t.x_labels, t.y_labels, t.z_labels, {(0, 0, 0): 1})
    with pytest.raises(ValueError) as err:
        be.sum_of_measures_bound(t, [part])
    assert "(1, 1, 1)" in str(err.value)


# -- partition bound --------------------------------------------------------------

def test_partition_bound_cw1():
    rep = be.partition_bound(sr.make_cw(1), sr.cw_partition(1))
    assert abs(rep.value - 2.7551) < 1e-4
    assert rep.certificate["method"] == "symmetric"


def test_partition_bound_cw_small_closed_form():
    for q in (1, 3, 6):
        rep = be.partition_bound(sr.make_cw_small(q), sr.cw_small_partition(q))
        closed = 3.0 * q ** (2 / 3) / 2 ** (2 / 3)
        assert abs(rep.value - closed) < 1e-9 * closed


def test_partition_bound_tq5():
    t = sr.make_cyclic_lower(5)
    rep = be.partition_bound(t, sr.singleton_partition(t))
    assert abs(rep.value - 4.46157) < 1e-4


def test_partition_bound_asymmetric_uses_minmax():
    t = sr.make_t112(2)
    rep = be.partition_bound(t, sr.t112_partition(2))
    assert rep.certificate["method"] == "minmax"
    # upper bounded by min axis size = 2q
    assert rep.value <= 4.0 + 1e-9


# -- split bound -------------------------------------------------------------------

def cw_x0_split(q):
    t = sr.make_cw(q)
    a = {k: c for k, c in t.entries.items() if k[0] == 0}
    b = {k: c for k, c in t.entries.items() if k[0] != 0}
    return (t,
            Tensor(t.x_labels, t.y_labels, t.z_labels, a),
            Tensor(t.x_labels, t.y_labels, t.z_labels, b))


def test_split_bound_cw2_dominates_tight_value():
    t, a, b = cw_x0_split(2)
    bt = sr.trimmed(b)
    inner = be.partition_bound(bt, sr.singleton_partition(bt))
    rep = be.split_bound(a, b, inner.value, total=t)
    assert rep.value >= 3.57165 - 1e-9
    assert rep.certificate["x_rank_A"] == 1
    assert rep.certificate["m_A"] == 4
    assert rep.certificate["x_rank_B"] == 3
    assert 0.0 < rep.certificate["weight"] < 1.0


def test_split_bound_ranks_each_flattening_once(monkeypatch):
    t, a, b = cw_x0_split(2)
    calls = []
    rank = sr.rank_tools.flattening_rank
    monkeypatch.setattr(sr.rank_tools, "flattening_rank",
                        lambda t, axis: calls.append(axis) or rank(t, axis))
    rep = be.split_bound(a, b, 3.0, total=t)
    assert sorted(calls) == ["x", "x", "y", "z"]
    assert (rep.certificate["x_rank_A"], rep.certificate["m_A"]) == (1, 4)


def test_split_bound_specialization_shape():
    # the single-x-variable specialization: x_rank(A) = 1, m(A) = q+2 and
    # x_rank(B) = q+1, where (m/(1-p))^(1-p) / p^p at the crossover weight p
    # is a bound; the value at the crossover, e^(H(p)) x_rank(B)^(1-p), is
    # at most that
    t, a, b = cw_x0_split(3)
    rep = be.split_bound(a, b, 2.0, total=t)
    c = rep.certificate
    m, xb = c["m_A"], c["x_rank_B"]
    p = math.log(xb / 2.0) / (math.log(m) + math.log(xb / 2.0))
    assert (c["x_rank_A"], m, xb) == (1, 5, 4)
    assert c["weight"] == pytest.approx(p, rel=1e-12)
    assert rep.value == pytest.approx(xb ** (1 - p) / (p ** p * (1 - p) ** (1 - p)),
                                      rel=1e-12)
    assert rep.value <= (m / (1 - p)) ** (1 - p) / p ** p


def test_split_bound_p_zero_limit():
    t, a, b = cw_x0_split(2)
    rep = be.split_bound(a, b, 3.0, total=t)  # bound(B) = x_rank(B): p* = 0
    # the first branch peaks at p = x_rank(A) / (x_rank(A) + x_rank(B)) > p*
    assert rep.certificate["weight"] == 0.25
    assert rep.value == pytest.approx(4.0, rel=1e-12)  # x_rank(A) + x_rank(B)


def test_split_bound_inapplicable():
    """m(A) = x_rank(A) and bound(B) = x_rank(B) make the crossover weight
    0/0; the two branches then coincide and give x_rank(A) + x_rank(B)."""
    two = sr.make_independent(2)
    a = Tensor(two.x_labels, two.y_labels, two.z_labels, {(0, 0, 0): 1})
    b = Tensor(two.x_labels, two.y_labels, two.z_labels, {(1, 1, 1): 1})
    rep = be.split_bound(a, b, 1.0)
    assert rep.value == 2.0
    assert rep.certificate["weight"] == 0.5


def entropy(p):
    return -sum(v * math.log(v) for v in (p, 1.0 - p) if v > 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_remove_x_between_zeroing_out_and_x_rank_sum(seed):
    """remove-x bounds the asymptotic slice rank from above, so it is at
    least the subrank a zeroing out of T reaches, and the square root of
    the one of T^2; it is at most x_rank(A) + x_rank(B), the peak of its
    first branch, and it is the maximum over p of its formula."""
    rng = random.Random(seed)
    shape = [rng.randint(1, 3) for _ in range(3)]
    cells = list(itertools.product(*map(range, shape)))
    # at most 7 terms keep the exhaustive search on T^2 fast
    keys = rng.sample(cells, min(len(cells), rng.randint(2, 7)))
    t = Tensor(*map(range, shape), {key: 1 for key in keys})
    p = random_partition(rng, t)
    first = set(p.parts_x[0][1])
    assume(0 < sum(key[0] in first for key in t.entries) < len(t.entries))
    rep, _ = be.remove_x_bound(t, p)
    c = rep.certificate
    lower = max(search_zeroing_independent(t).size,
                math.sqrt(search_zeroing_independent(t, n=2).size))
    assert lower <= rep.value * (1 + 1e-12)
    assert rep.value <= (c["x_rank_A"] + c["x_rank_B"]) * (1 + 1e-12)
    xa, ma, xb, sb = c["x_rank_A"], c["m_A"], c["x_rank_B"], c["B_bound_used"]
    grid = max(math.exp(entropy(w)) * min(xa ** w * xb ** (1 - w), ma ** w * sb ** (1 - w))
               for w in (g / 2000 for g in range(2001)))
    assert grid <= rep.value * (1 + 1e-12)
    assert rep.value <= grid * (1 + 1e-2)


def test_split_bound_sum_mismatch():
    t, a, b = cw_x0_split(1)
    with pytest.raises(ValueError):
        be.split_bound(a, a, 1.5, total=t)


@pytest.mark.parametrize("bound", [0.0, -1.0, math.nan, math.inf])
def test_split_bound_rejects_non_positive_or_non_finite_b_bound(bound):
    t, a, b = cw_x0_split(1)
    with pytest.raises(ValueError, match="positive and finite"):
        be.split_bound(a, b, bound, total=t)


def test_remove_x_bound_splits_off_the_first_x_part():
    t, a, b = cw_x0_split(2)
    assert sr.cw_partition(2).parts_x[0][1] == (0,)
    bt = sr.trimmed(b)
    inner = be.partition_bound(bt, sr.singleton_partition(bt))
    rep, solved = be.remove_x_bound(t, sr.cw_partition(2))
    assert solved.value == inner.value
    assert rep.to_line() == be.split_bound(a, b, inner.value, total=t).to_line()


def test_remove_x_bound_trivial_split():
    t = sr.make_cw(2)
    with pytest.raises(be.TrivialSplit, match="nontrivial first x part"):
        be.remove_x_bound(t, sr.trivial_partition(t))
    assert issubclass(be.TrivialSplit, be.Inapplicable)


# -- omega lower bounds ---------------------------------------------------------------

def test_omega_cw1():
    rep = be.omega_lower_bound(sr.RankFact(3, True, "test"), 2.7551, True)
    assert abs(rep.value - 2.16805) < 1e-4


def test_omega_cw_small_2_exact_two():
    s = be.partition_bound(sr.make_cw_small(2), sr.cw_small_partition(2)).value
    rep = be.omega_lower_bound(sr.RankFact(3, False, "test"), s, True)
    assert abs(rep.value - 2.0) < 1e-12


def test_omega_tq2():
    rep = be.omega_lower_bound(sr.RankFact(2, True, "test"), 1.88988, True)
    assert abs(rep.value - 2.17795) < 1e-4


def test_omega_general_formula():
    rep = be.omega_lower_bound(sr.RankFact(4, True, "test"), 3.0, False)
    want = 6 * math.log(4) / (math.log(3) + 2 * math.log(4))
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert rep.theorem == be.THEOREM_OMEGA_GEN


def test_omega_monotonicity():
    # antitone in the slice rank bound, isotone in the rank
    lo = be.omega_lower_bound(sr.RankFact(5, True, "t"), 3.0, True).value
    hi = be.omega_lower_bound(sr.RankFact(5, True, "t"), 4.0, True).value
    assert lo > hi
    small = be.omega_lower_bound(sr.RankFact(5, True, "t"), 4.0, True).value
    large = be.omega_lower_bound(sr.RankFact(6, True, "t"), 4.0, True).value
    assert large > small


def test_omega_input_errors():
    with pytest.raises(ValueError):
        be.omega_lower_bound(sr.RankFact(3, True, "t"), 3.5, True)
    with pytest.raises(ValueError):
        be.omega_lower_bound(sr.RankFact(1, True, "t"), 1.0, True)


@pytest.mark.parametrize("s_upper", [math.nan, math.inf])
def test_omega_rejects_non_finite_slice_rank_bound(s_upper):
    with pytest.raises(ValueError, match="finite"):
        be.omega_lower_bound(sr.RankFact(3, True, "t"), s_upper, True)


def test_omega_carries_citation():
    fact = sr.make_cw(2).rank_fact()
    rep = be.omega_lower_bound(fact, 3.5, True)
    name, value, source = rep.inputs_asserted[0]
    assert value == 4 and "border rank" in source
    assert name == "asymptotic_rank"
    line = rep.to_line()
    assert "omega_lower" in line and "border rank" in line


# -- laser readiness -------------------------------------------------------------------

def test_laser_ready_cw():
    r = be.laser_readiness(sr.make_cw(2), sr.cw_partition(2))
    assert r.ok and r.ell == 2
    assert r.block_shapes[(0, 1, 1)] == (1, 1, 2)
    assert r.block_shapes[(1, 0, 1)] == (2, 1, 1)
    assert r.block_shapes[(1, 1, 0)] == (1, 2, 1)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_laser_ready_cw_scaled_per_index(q):
    """CW_q with x_i, y_i and z_i all scaled by one random lambda_i stays
    variable-symmetric, and its blocks are matmul tensors up to scaling."""
    rng = random.Random(q)
    lam = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
           for _ in range(q + 2)]
    cw = sr.make_cw(q)
    t = Tensor(cw.x_labels, cw.y_labels, cw.z_labels,
               {(i, j, k): c * lam[i] * lam[j] * lam[k] for (i, j, k), c in cw.entries.items()})
    p = sr.cw_partition(q)
    r = be.laser_readiness(t, p)
    assert r.ok and r.failures == []
    assert r.block_shapes[(1, 1, 0)] == (1, q, 1)
    assert abs(be.laser_lower_bound(t, p).value - CW_SLICE[q - 1]) < 1e-4


def test_laser_ready_cw_small():
    r = be.laser_readiness(sr.make_cw_small(3), sr.cw_small_partition(3))
    assert r.ok and r.ell == 2


def test_laser_ready_tq_lower():
    t = sr.make_cyclic_lower(4)
    r = be.laser_readiness(t, sr.singleton_partition(t))
    assert r.ok and r.ell == 3


def test_laser_ready_t112_fails_symmetry_only():
    r = be.laser_readiness(sr.make_t112(2), sr.t112_partition(2))
    assert not r.ok
    assert not r.conditions["symmetric"]
    assert r.conditions["hyperplane_support"]
    assert r.conditions["maximal_matmul_blocks"]
    assert any("variable-symmetric" in f for f in r.failures)


def test_laser_ready_rotation_product():
    t = sr.make_t112(1)
    ts = sr.symmetric_cube(t)
    cp = sr.cube_partition(t, sr.t112_partition(1))
    r = be.laser_readiness(ts, cp)
    assert r.ok
    assert len(r.block_shapes) == 64


def test_laser_ready_independent_needs_solved_grading():
    # support {(0,0,0),(1,1,1)} fails the literal scan (sums 0 and 3) but
    # re-grading the parts puts it on a hyperplane, e.g. z graded (2,0)
    t = sr.make_independent(2)
    r = be.laser_readiness(t, sr.singleton_partition(t))
    assert r.ok


# Grades of the CW_2 cube's product partition, as solved before the
# grading nullspace moved to sparse row reduction; the RREF is unique, so
# the basis, the chosen combination and the grades must not change.
CW2_CUBE_GRADES = {
    "x": (569, 641, 713, 647, 719, 791, 725, 797, 869, 623, 695, 767, 701, 773,
          845, 779, 851, 923, 677, 749, 821, 755, 827, 899, 833, 905, 977),
    "y": (-407, -329, -251, -353, -275, -197, -299, -221, -143, -335, -257, -179,
          -281, -203, -125, -227, -149, -71, -263, -185, -107, -209, -131, -53,
          -155, -77, 1),
    "z": (-327, -273, -219, -255, -201, -147, -183, -129, -75, -249, -195, -141,
          -177, -123, -69, -105, -51, 3, -171, -117, -63, -99, -45, 9, -27, 27, 81),
}


def test_laser_ready_relabeled_cw2_cube_grading_unchanged():
    cw = sr.make_cw(2)
    cube = sr.symmetric_cube(cw)
    part = sr.cube_partition(cw, sr.cw_partition(2))
    perm = list(range(64))
    random.Random(3).shuffle(perm)
    entries = {(perm[i], perm[j], perm[k]): c for (i, j, k), c in cube.entries.items()}
    parts = [[(label, [perm[i] for i in idx]) for label, idx in part.parts(ax)]
             for ax in "xyz"]
    t = Tensor(range(64), range(64), range(64), entries)
    r = be.laser_readiness(t, sr.VariablePartition(*parts, t.shape))
    assert r.ok
    assert (r.ell, r.grades) == (243, CW2_CUBE_GRADES)


def test_laser_ready_parity_support_fails():
    # blocks on {i+j+k even} are trifunctional but admit only constant
    # gradings, which certify nothing
    entries = {(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    t = Tensor(range(2), range(2), range(2), entries)
    p = sr.singleton_partition(t)
    r = be.laser_readiness(t, p)
    assert not r.conditions["hyperplane_support"]
    assert not r.ok


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), singletons=st.booleans(), sparse=st.booleans())
def test_laser_ready_matmul_verdict_matches_recognition_of_every_block(seed, singletons,
                                                                        sparse):
    """One-term 1 x 1 x 1 blocks skip matmul recognition; the verdict on
    condition (1) equals the one recognition gives when run on every
    block, on random tensors with coefficients other than 1 under random
    or singleton partitions, with one-term blocks over larger parts."""
    rng = random.Random(seed)
    t = random_tensor(rng, max_dim=4, density=0.2 if sparse else 0.5)
    p = sr.singleton_partition(t) if singletons else random_partition(rng, t)
    r = be.laser_readiness(t, p)
    shapes, failures = {}, []
    for key in r.block_set.keys():
        witness = rank_tools.recognize_matmul(r.block_set[key])
        if witness is None:
            failures.append(f"block {key} is not a matmul tensor")
            continue
        shapes[key] = (witness.a, witness.b, witness.c)
        if (witness.a * witness.b, witness.b * witness.c, witness.c * witness.a) != tuple(
                p.part_sizes(ax)[i] for ax, i in zip("xyz", key)):
            failures.append(f"block {key} is <{witness.a},{witness.b},{witness.c}>, "
                            "not maximal for its parts")
    assert r.block_shapes == shapes
    assert r.conditions["maximal_matmul_blocks"] == (not failures)
    assert [f for f in r.failures if f.startswith("block (")] == failures


# -- laser lower bound ------------------------------------------------------------------

@pytest.mark.parametrize("q", [1, 2, 4])
def test_laser_equals_partition_cw(q):
    t = sr.make_cw(q)
    p = sr.cw_partition(q)
    tight = be.laser_lower_bound(t, p)
    upper = be.partition_bound(t, p)
    assert abs(tight.value - upper.value) < 1e-6
    assert tight.certificate["tight"]
    assert tight.certificate["asymptotic_subrank_equal"]


def test_laser_refuses_unready():
    with pytest.raises(ValueError) as err:
        be.laser_lower_bound(sr.make_t112(2), sr.t112_partition(2))
    assert "laser-ready" in str(err.value)
    assert isinstance(err.value, be.NotLaserReady)
    ready = err.value.readiness
    assert not ready.ok and not ready.conditions["symmetric"]
    assert str(err.value) == "partition is not laser-ready: " + "; ".join(ready.failures)


# -- t112 value ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [1, 2, 3])
def test_t112_value(q):
    rep = be.t112_value(q)
    want = 2 ** (2 / 3) * q ** (2 / 3) * (q * q + 2) ** (1 / 3)
    assert rep.value == pytest.approx(want, rel=1e-12)
    c = rep.certificate
    assert c["cube_simplex_relative_error"] < 1e-6


def test_t112_stated_argmax_is_suboptimal():
    # the one-variable objective strictly prefers q^2/(2q^2+4) over the
    # often-quoted q^2/(2q^2+2); at q=1 the values are 12 vs 2^3.5
    h = t112_objective_log
    assert math.exp(h(1, 1.0 / 6.0)) == pytest.approx(12.0, rel=1e-12)
    assert math.exp(h(1, 0.25)) == pytest.approx(2 ** 3.5, rel=1e-12)
    assert h(1, 1.0 / 6.0) > h(1, 0.25)


def test_t112_value_formulas_sandwich():
    for q in (1, 2, 3, 5):
        v23 = be.t112_value(q).value
        for tau in (2 / 3, 0.75, 0.8, 0.9, 1.0):
            lower = t112_value_lower_formula(q, tau)
            upper = t112_value_power_mean_upper(q, tau)
            assert lower <= upper * (1 + 1e-12)
            if tau == 2 / 3:
                assert lower == pytest.approx(upper, rel=1e-12)
                assert lower == pytest.approx(v23, rel=1e-12)


# -- closed-form one-variable optima ----------------------------------------------------

def test_cw_root_cw8():
    v8, logval = be.cw_slice_rank_1d(8)
    assert abs(v8 - 0.017732422) < 1e-8
    assert abs(math.exp(logval) - 7.70581) < 1e-4


def test_closed_form_roots_beat_grid():
    grid = [g / 100000 for g in range(100001)]
    for q in range(1, 12):
        v, logval = be.cw_slice_rank_1d(q)
        assert 0.0 < v < 1.0 / 3.0
        assert logval == be.cw_objective_log(q, v)
        assert logval >= max(be.cw_objective_log(q, g / 3.0) for g in grid)
    for q in range(1, 7):
        best = t112_objective_log(q, be.t112_value(q).certificate["argmax_v"])
        assert best >= max(t112_objective_log(q, g / 2.0) for g in grid)


@pytest.mark.parametrize("q,root", [(2, Fraction(1, 9)), (7, Fraction(1, 45))])
def test_cw_root_solves_the_quadratic_exactly(q, root):
    # the discriminant 9 q^2 (q^2 + 32) is a square at q = 2 and q = 7
    assert be.cw_slice_rank_1d(q)[0] == float(root)
    assert (Fraction(2, 3) - 2 * root) ** 2 - q * q * root * (Fraction(1, 3) + root) == 0


def test_cw_root_decreasing():
    vs = [be.cw_slice_rank_1d(q)[0] for q in range(1, 1001)]
    assert all(b < a for a, b in zip(vs, vs[1:]))


# -- tables -----------------------------------------------------------------------------

CW_SLICE = [2.7551, 3.57165, 4.34413, 5.07744, 5.77629, 6.44493, 7.08706, 7.70581]
CW_OMEGA = [2.16805, 2.17794, 2.19146, 2.20550, 2.21912, 2.23200, 2.24404, 2.25525]
CW_SMALL_OMEGA = [2.17795, 2.0, 2.02538, 2.06244, 2.09627, 2.12549, 2.15064]
TQ_SLICE = [1.88988, 2.75510, 3.61071, 4.46157]
TQ_OMEGA = [2.17795, 2.16805, 2.15949, 2.15237]


def test_cw_table():
    rows = be.cw_table(8)
    for row, s, o in zip(rows, CW_SLICE, CW_OMEGA):
        assert abs(row.slice_rank - s) < 1e-4
        assert abs(row.omega - o) < 1e-4
    omegas = [row.omega for row in rows]
    assert omegas == sorted(omegas)  # strictly increasing in q
    assert all(b > a for a, b in zip(omegas, omegas[1:]))


def test_cw_small_table():
    rows = be.cw_small_table(7)
    for row, o in zip(rows, CW_SMALL_OMEGA):
        assert abs(row.omega - o) < 1e-4


def test_tq_lower_table():
    rows = be.tq_lower_table(5)
    assert [row.q for row in rows] == [2, 3, 4, 5]
    for row, s, o in zip(rows, TQ_SLICE, TQ_OMEGA):
        assert abs(row.slice_rank - s) < 1e-4
        assert abs(row.omega - o) < 1e-4


def test_any_upper_bound_dominates_tight_value():
    # all three tools upper bound the same quantity, so each is at least
    # the laser value on laser-ready inputs
    q = 2
    t = sr.make_cw(q)
    tight = be.laser_lower_bound(t, sr.cw_partition(q)).value
    _, parts = cw_single_variable_slices(q)
    assert be.sum_of_measures_bound(t, parts).value >= tight - 1e-9
    assert be.partition_bound(t, sr.cw_partition(q)).value >= tight - 1e-9
    _, a, b = cw_x0_split(q)
    bt = sr.trimmed(b)
    inner = be.partition_bound(bt, sr.singleton_partition(bt))
    assert be.split_bound(a, b, inner.value).value >= tight - 1e-9


# -- family floor ------------------------------------------------------------------------

def test_cw_family_floor():
    rep = be.cw_family_floor(1000)
    c = rep.certificate
    assert abs(c["v_8"] - 0.017732422) < 1e-8
    assert abs(c["f_v8"] - 2.07389) < 1e-4
    assert abs(c["relaxed_at_9"] - 2.18562) < 1e-4
    assert c["v_nonincreasing"]
    assert c["relaxed_increasing"]
    assert c["relaxed_above_floor"]
    assert rep.value >= 2.16805 - 1e-9
    assert rep.value == pytest.approx(min(c["table_omegas"]), rel=1e-12)


def test_family_floor_proof_constants_in_interval_arithmetic():
    # the constants cw_family_floor's docstring needs for every q >= 9,
    # with L = log f(v_8) enclosed from the exact root v_8
    iv = pytest.importorskip("mpmath").iv
    third = iv.mpf(1) / 3
    v8 = 8 / (3 * (8 + 64 + 8 * iv.sqrt(96)))
    L = -(v8 * iv.log(v8) + (2 * third - 2 * v8) * iv.log(2 * third - 2 * v8)
          + (third + v8) * iv.log(third + v8))
    g9 = 9 * (2 * third * iv.log(9) + L) - 2 * third * 11 * iv.log(11)
    h9 = 9 * L - 4 * third - 4 * third * iv.log(11)
    relaxed9 = 2 * iv.log(11) / (2 * third * iv.log(9) + L)
    assert (L - iv.mpf(4) / 33).a > 0
    assert g9.a > 0 and h9.a > 0
    assert (relaxed9 - be.FLOOR_TARGET).a > 0


def test_cw_family_floor_requires_nine():
    with pytest.raises(ValueError):
        be.cw_family_floor(5)


def test_floor_consistent_with_table():
    rows = be.cw_table(8)
    floor = be.cw_family_floor(9)
    for row, omega_1d in zip(rows, floor.certificate["table_omegas"]):
        assert abs(row.omega - omega_1d) < 1e-9
