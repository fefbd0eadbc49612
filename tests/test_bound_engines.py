"""The bounding tools, laser machinery, tables, and family floor."""

import gc
import itertools
import math
import os
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import slicerank as sr
from slicerank import bound_engines as be
from slicerank import optimizer, rank_tools
from slicerank.tensor_core import Tensor

from helpers import (ROUND_TRIPS, random_partition, random_tensor, reference_block_grading,
                     reference_support_trifunctional, relabeled_cw2_cube, relabeled_cw_cube,
                     search_zeroing_independent,
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


def test_block_measures_bound_is_the_sum_over_the_blocks():
    """On random tensors and partitions, and on direct sums of 2-4 of them
    under the sums of their partitions, the report of the blocks' measures
    is that of `sum_of_measures_bound` on the blocks as tensors over the
    tensor's variables, keyed by their part triples in sorted order."""
    rng = random.Random(17)
    for rows in [1] * 40 + [2, 3, 4] * 10:
        pairs = [(t, random_partition(rng, t))
                 for t in (random_tensor(rng, max_dim=4) for _ in range(rows))]
        t, p = pairs[0]
        if rows > 1:
            t = sr.direct_sum(*(t for t, _ in pairs))
            p = sr.partition_sum(*(p for _, p in pairs))
        split = {}
        for (i, j, k), c in t.entries.items():
            key = (p.where[0][i][0], p.where[1][j][0], p.where[2][k][0])
            split.setdefault(key, {})[(i, j, k)] = c
        parts = [Tensor(t.x_labels, t.y_labels, t.z_labels, split[key]) for key in sorted(split)]
        want = be.sum_of_measures_bound(t, parts)
        got = be.block_measures_bound(t, p)
        assert got == want and got.to_line() == want.to_line()


def test_block_measures_bound_builds_no_block(monkeypatch):
    """The blocks' measures are read off the split's arrays: no block's
    slot-keyed entries are built."""
    monkeypatch.setattr(sr.tensor_core.BlockSet, "_block",
                        lambda bs, b: pytest.fail("BlockSet._block called"))
    rep = be.block_measures_bound(*relabeled_cw2_cube(7))
    assert rep.certificate["parts"] == 216


def test_sums_of_no_parts_are_refused():
    t = sr.Tensor(range(2), range(2), range(2), {})
    for bound in (lambda: be.sum_of_measures_bound(t, []),
                  lambda: be.block_measures_bound(t, sr.trivial_partition(t))):
        with pytest.raises(ValueError, match="^need at least one part$"):
            bound()


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


@pytest.mark.parametrize("tensor", [f"cw{q}" for q in range(1, 9)] + ["cw1-cube", "cw2-cube"])
def test_symmetric_partition_bound_is_the_dual_bound(tensor):
    """The symmetric branch reports exp(f_x + gap), which is not below the
    objective at the returned orbit masses and, as those are optimal to
    float noise, matches the laser value (a lower bound) to 1e-12."""
    q = int(tensor[2])
    t, p = sr.make_cw(q), sr.cw_partition(q)
    if tensor.endswith("cube"):
        t, p = sr.symmetric_cube(t), sr.cube_partition(t, p)
    rep = be.partition_bound(t, p)
    opt = sr.maximize_symmetric(sr.blocks(t, p))
    assert rep.certificate["method"] == "symmetric"
    assert rep.value >= opt.value
    assert rep.value == pytest.approx(be.laser_lower_bound(t, p).value, rel=1e-12)


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


def test_remove_x_bound_checks_no_sub_map_again(monkeypatch):
    """A and B are sub-maps of the checked tensor's entries and B trimmed
    to its used variables is a remap of B's, so `remove_x_bound` checks
    no tensor again."""
    t = sr.make_cw(2)
    built, init = [], Tensor.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Tensor, "__init__", counted)
    be.remove_x_bound(t, sr.cw_partition(2))
    assert built == []


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
    r = be.laser_readiness(*relabeled_cw2_cube(3))
    assert r.ok
    assert (r.ell, r.grades) == (243, CW2_CUBE_GRADES)


def grading_problem(t, p):
    """The sorted block keys and part counts `laser_readiness` grades."""
    return sr.blocks(t, p).keys(), tuple(p.part_count(ax) for ax in "xyz")


@pytest.mark.parametrize("q, seed", [(1, 5), (2, 3), (2, 17)])
def test_block_grading_pick_unchanged_on_cw_cubes(q, seed):
    keys, counts = grading_problem(*relabeled_cw_cube(q, seed))
    want = reference_block_grading(keys, counts)
    assert want is not None
    assert be._solve_block_grading(keys, counts) == want


def test_block_grading_pick_unchanged_with_fraction_basis():
    keys, counts = [(0, 0, 3), (0, 3, 0), (1, 0, 0), (1, 2, 1), (1, 3, 1)], (2, 4, 4)
    want = reference_block_grading(keys, counts)
    assert want is not None
    assert be._solve_block_grading(keys, counts) == want


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), level_set=st.booleans())
def test_block_grading_pick_unchanged_on_random_supports(seed, level_set):
    """Supports drawn from the level set of random integer part grades, or
    any few blocks (most of which admit a grading): the Horner-built
    candidates pick the grades and level the sums of powers picked."""
    rng = random.Random(seed)
    counts = tuple(rng.randint(1, 5) for _ in range(3))
    grades = [[rng.randint(-3, 3) for _ in range(n)] for n in counts]
    level = rng.randint(-4, 4)
    support = [(i, j, k) for i in range(counts[0]) for j in range(counts[1])
               for k in range(counts[2])
               if not level_set or grades[0][i] + grades[1][j] + grades[2][k] == level]
    assume(support)
    keys = sorted(rng.sample(support, rng.randint(1, min(len(support), 12))))
    assert be._solve_block_grading(keys, counts) == reference_block_grading(keys, counts)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), planted=st.booleans())
def test_block_grading_puts_every_key_on_its_level(seed, planted):
    """Any few blocks, or blocks drawn from the level set of planted
    integer part grades: every grading returned puts each key on the
    hyperplane of its level, and a planted grading that is not constant
    on every axis is found."""
    rng = random.Random(seed)
    counts = tuple(rng.randint(1, 5) for _ in range(3))
    grades = [[rng.randint(-3, 3) for _ in range(n)] for n in counts]
    level = rng.randint(-4, 4)
    support = [key for key in itertools.product(*map(range, counts))
               if not planted or sum(g[i] for g, i in zip(grades, key)) == level]
    assume(support)
    keys = sorted(rng.sample(support, rng.randint(1, min(len(support), 12))))
    solved = be._solve_block_grading(keys, counts)
    if planted and any(len(set(g)) > 1 for g in grades):
        assert solved is not None
    if solved is not None:
        found, ell = solved
        gx, gy, gz = found["x"], found["y"], found["z"]
        assert (len(gx), len(gy), len(gz)) == counts
        assert all(gx[i] + gy[j] + gz[k] == ell for i, j, k in keys)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=20),
       st.data())
def test_support_trifunctional_matches_the_key_loop(keys, data):
    """The check on the key rows agrees with the loop over key tuples on
    distinct keys, also where two keys share their coordinates on two axes."""
    keys = sorted(keys)
    if data.draw(st.booleans()):
        # a key sharing two coordinates with a drawn key, off the third
        i, j, k = data.draw(st.sampled_from(keys))
        axis = data.draw(st.integers(0, 2))
        other = [i, j, k]
        other[axis] += 4
        keys = sorted({*keys, tuple(other)})
    expected = reference_support_trifunctional(keys)
    assert be._support_trifunctional(np.array(keys, np.intp)) is expected


def test_laser_ready_parity_support_fails():
    # blocks on {i+j+k even} are trifunctional but admit only constant
    # gradings, which certify nothing
    entries = {(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    t = Tensor(range(2), range(2), range(2), entries)
    p = sr.singleton_partition(t)
    r = be.laser_readiness(t, p)
    assert not r.conditions["hyperplane_support"]
    assert not r.ok


def recognition_of_every_block(r, p):
    """Block shapes and failures of condition (1) from `recognize_matmul`
    run on every block `r.block_set[key]` as a checked tensor."""
    shapes, failures = {}, []
    for key in r.block_set.keys():
        witness = rank_tools.recognize_matmul(r.block_set[key])
        if witness is None:
            failures.append(f"block {key} is not a matmul tensor")
            continue
        shapes[key] = (witness.a, witness.b, witness.c)
    return shapes, failures


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), singletons=st.booleans(), sparse=st.booleans(),
       cube=st.booleans())
def test_laser_ready_matmul_verdict_matches_recognition_of_every_block(seed, singletons,
                                                                        sparse, cube):
    """One-term 1 x 1 x 1 blocks skip matmul recognition; the verdict on
    condition (1) equals the one recognition gives when run on every
    block, on random tensors with coefficients other than 1 under random
    or singleton partitions, with one-term blocks over larger parts, and
    on the rotation cubes of small ones under the product partitions,
    which are symmetric, so one block per orbit is recognized."""
    rng = random.Random(seed)
    t = random_tensor(rng, max_dim=2 if cube else 4, density=0.2 if sparse else 0.5)
    p = sr.singleton_partition(t) if singletons else random_partition(rng, t)
    if cube:
        t, p = sr.symmetric_cube(t), sr.cube_partition(t, p)
    r = be.laser_readiness(t, p)
    shapes, failures = recognition_of_every_block(r, p)
    assert r.block_shapes == shapes
    assert r.conditions["maximal_matmul_blocks"] == (not failures)
    assert [f for f in r.failures if f.startswith("block (")] == failures


def test_laser_ready_relabeled_cw2_cube_matches_recognition_of_every_block():
    t, p = relabeled_cw2_cube(29)
    r = be.laser_readiness(t, p)
    shapes, failures = recognition_of_every_block(r, p)
    assert r.ok and r.failures == failures == []
    assert r.block_shapes == shapes and len(shapes) == 216


@pytest.mark.parametrize("base, part", [
    (sr.make_cw_small(2), sr.cw_small_partition(2)),
    (sr.make_t112(2), sr.t112_partition(2)),
    (sr.make_cw(2, (2, 1)), sr.cw_partition(2)),
], ids=["cw_small2", "t112_2", "cw2_twisted"])
def test_laser_ready_cube_shapes_match_recognition_of_every_block(base, part):
    """Rotation cubes whose orbits hold blocks of unequal dimensions: each
    block's shape is the one recognition gives on that block itself."""
    t, p = sr.symmetric_cube(base), sr.cube_partition(base, part)
    r = be.laser_readiness(t, p)
    shapes, failures = recognition_of_every_block(r, p)
    assert r.block_set.symmetric and r.failures == failures == []
    assert r.block_shapes == shapes
    assert any(len(set(dims)) > 1 for dims in shapes.values())


def test_laser_readiness_builds_no_block_tensor(monkeypatch):
    """Recognition reads each block's slot-keyed entries: on the CW_2 cube
    under its product partition no block is built as a tensor, checked or
    not, and `bs[key]` is never called."""
    cw = sr.make_cw(2)
    cube = sr.symmetric_cube(cw)
    part = sr.cube_partition(cw, sr.cw_partition(2))
    built = []
    init, unchecked = Tensor.__init__, Tensor._unchecked
    getitem = sr.tensor_core.BlockSet.__getitem__
    monkeypatch.setattr(Tensor, "__init__",
                        lambda self, *args, **kw: built.append("init") or init(self, *args, **kw))
    monkeypatch.setattr(Tensor, "_unchecked", classmethod(
        lambda cls, *args: built.append("unchecked") or unchecked(*args)))
    monkeypatch.setattr(sr.tensor_core.BlockSet, "__getitem__",
                        lambda bs, key: built.append("getitem") or getitem(bs, key))
    r = be.laser_readiness(cube, part)
    assert r.ok and len(r.block_shapes) == 216
    assert built == []


def test_laser_readiness_recognizes_once_per_orbit(monkeypatch):
    """Matmul recognition runs once per orbit with a part of size > 1: 65
    times on the relabeled CW_2 cube (76 orbits of 216 blocks), once on
    each orbit's first block, and never on a T_q table, whose parts all
    hold one variable."""
    calls = []
    recognize = rank_tools._recognize
    monkeypatch.setattr(rank_tools, "_recognize",
                        lambda entries, shape: calls.append(shape) or recognize(entries, shape))
    r = be.laser_readiness(*relabeled_cw2_cube(13))
    sizes = [r.block_set.part_sizes(ax) for ax in "xyz"]
    shapes = [[s[i] for s, i in zip(sizes, orbit[0])] for orbit in r.block_set.orbits]
    assert r.ok and len(r.block_set.orbits) == 76
    assert calls == [shape for shape in shapes if shape != [1, 1, 1]] and len(calls) == 65
    calls.clear()
    be.tq_lower_table(16)
    assert calls == []


def readiness_row(kind, n):
    """A (tensor, partition) row of a table run: laser-ready CW_q, cw_q and
    T_q rows, and rows that are not ready: t_112 (not variable-symmetric),
    CW_q and T_q under partitions relabeled on the z axis (the rotation
    identity fails), a parity support (no hyperplane grading), a tangled
    support (block coordinates do not determine one another), the cyclic
    group tensor in one block (not matmul), an empty tensor, and the
    rotation cube of a small random tensor (seed n), ready or not."""
    if kind == "cw":
        return sr.make_cw(n), sr.cw_partition(n)
    if kind == "cw-small":
        return sr.make_cw_small(n), sr.cw_small_partition(n)
    if kind == "tq":
        t = sr.make_cyclic_lower(n + 1)
        return t, sr.singleton_partition(t)
    if kind == "t112":
        return sr.make_t112(n), sr.t112_partition(n)
    if kind == "cw-z":
        p = sr.cw_partition(n)
        return sr.make_cw(n), sr.VariablePartition(p.parts_x, p.parts_y, p.parts_z[::-1], p.sizes)
    if kind == "tq-z":
        t = sr.make_cyclic_lower(n + 2)
        order = [1, 0] + list(range(2, n + 2))
        return t, sr.VariablePartition(*(sr.singleton_partition(t).parts(ax) for ax in "xy"),
                                       [(str(i), (j,)) for i, j in enumerate(order)], t.shape)
    if kind in ("parity", "tangled"):
        keys = ([(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)] if kind == "parity"
                else [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
        t = Tensor(range(2), range(2), range(2), dict.fromkeys(keys, n))
        return t, sr.singleton_partition(t)
    if kind == "cyclic":
        t = sr.make_cyclic(3)
        return t, sr.trivial_partition(t)
    if kind == "empty":
        t = Tensor(range(n), range(n), range(n), {})
        return t, sr.trivial_partition(t)
    rng = random.Random(n)
    t = random_tensor(rng, max_dim=2)
    p = sr.singleton_partition(t) if rng.random() < 0.5 else random_partition(rng, t)
    return sr.symmetric_cube(t), sr.cube_partition(t, p)


READINESS_FIELDS = ("ok", "ell", "grades", "block_shapes", "failures", "conditions")

run_rows = st.lists(st.one_of(
    st.tuples(st.sampled_from(["cw", "cw-small", "tq", "cw-z", "tq-z"]), st.integers(1, 5)),
    st.tuples(st.sampled_from(["t112"]), st.integers(1, 2)),
    st.tuples(st.sampled_from(["parity", "tangled", "empty"]), st.integers(1, 3)),
    st.tuples(st.just("cyclic"), st.just(0)),
    st.tuples(st.just("cube"), st.integers(0, 10 ** 6))), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(run_rows)
def test_run_readiness_equals_each_rows(kinds):
    """Each row's `LaserReadiness` read off the one split of a run equals
    `laser_readiness` on that row alone, its block set included, and
    `_tight_rows` on a run with a row that is not ready refuses with the
    verdict of the first such row; a ready run's values are each row's own."""
    rows = [readiness_row(*kind) for kind in kinds]
    readies, split = be._readiness(rows)
    assert len(readies) == len(rows) and len(split) == sum(len(r.block_set) for r in readies)
    for (t, p), got in zip(rows, readies):
        want = be.laser_readiness(t, p)
        for name in READINESS_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        assert repr(got.block_shapes) == repr(want.block_shapes)
        bs, ref = got.block_set, want.block_set
        assert bs.tensor is t and bs.partition is p
        assert bs.keys() == ref.keys() and bs.blocks == ref.blocks
        assert bs.orbits == ref.orbits and bs.symmetry == ref.symmetry
    failed = [got for got in readies if not got.ok]
    table = [(q, t, p) for q, (t, p) in enumerate(rows)]
    if failed:
        with pytest.raises(be.NotLaserReady) as exc:
            be._tight_rows(table)
        for name in READINESS_FIELDS:
            assert getattr(exc.value.readiness, name) == getattr(failed[0], name), name
    else:
        solved = ([row.slice_report for row in be._tight_rows(table)]
                  if all(t.rank_fact() for t, _ in rows) else be._laser_reports(readies, split))
        for report, (t, p) in zip(solved, rows):
            assert report.value == pytest.approx(be.laser_lower_bound(t, p).value, rel=1e-9)


def eager_block_shapes(bs):
    """The block shapes and matmul failures of a one-row verdict as the
    eager code built them, a dict of every key: each key at (1, 1, 1), the
    first block off three one-variable parts of each orbit recognized and
    its shape rotated over the orbit, the blocks that are not matmul
    named in key order and then dropped."""
    keys = list(zip(*bs.key_array.T.tolist()))
    sizes = np.column_stack([np.array(bs.part_sizes(ax))[bs.key_array[:, a]]
                             for a, ax in enumerate("xyz")])
    size, seen = np.bincount(bs.group).tolist(), set()
    shapes = dict.fromkeys(keys, (1, 1, 1))
    for b in np.flatnonzero((sizes != 1).any(axis=1)).tolist():
        g = int(bs.group[b])
        if g in seen:
            continue
        seen.add(g)
        witness = rank_tools._recognize(bs._block(b), sizes[b].tolist())
        key, d = keys[b], None if witness is None else (witness.a, witness.b, witness.c)
        for _ in range(size[g]):
            shapes[key] = d
            key, d = (key[1], key[2], key[0]), d and (d[1], d[2], d[0])
    failures = [f"block {key} is not a matmul tensor" for key, d in shapes.items() if d is None]
    return {key: d for key, d in shapes.items() if d}, failures


def eager_masses(d, key_array):
    """The positive block masses d as the eager code keyed them."""
    pos = (d > 0).nonzero()[0]
    return dict(zip(zip(*key_array[pos].T.tolist()), d[pos].tolist()))


def eager_summand_masses(union, opt):
    """Each summand's renormalized positive masses of the optimum of a
    sum, keyed by its own part triples, as the eager code built them."""
    counts = np.array(union.summands)
    first = np.cumsum(counts, axis=0) - counts
    parts = union.key_array
    summand = first[:, 0].searchsorted(parts[:, 0], "right") - 1
    d = opt.block_mass / np.bincount(summand, opt.block_mass, len(counts))[summand]
    pos = (d > 0.0).nonzero()[0]
    keys = list(zip(*(parts - first[summand])[pos].T.tolist()))
    masses = d[pos].tolist()
    ends = summand[pos].searchsorted(np.arange(len(counts)), "right").tolist()
    return [dict(zip(keys[a:b], masses[a:b])) for a, b in zip([0] + ends, ends)]


def assert_reads_as(view, want, value_type):
    """A map built when read equals the eager dict once read: the same
    items in the same order, int triple keys, values of `value_type`,
    equality both ways and the same repr."""
    assert isinstance(view, optimizer.ArrayMap) and view._dict is None
    assert list(view.items()) == list(want.items())
    assert view == want and want == view and repr(view) == repr(want)
    assert len(view) == len(want) and list(view) == list(want)
    for key, value in view.items():
        assert type(key) is tuple and all(type(i) is int for i in key)
        assert type(value) is value_type


def cw2_with_cyclic():
    """CW_2 next to the cyclic group tensor of order 3, one part per axis
    for the latter, under one plain partition: one block is not matmul."""
    cyclic = sr.make_cyclic(3)
    t = sr.direct_sum(sr.make_cw(2), cyclic)
    p = sr.partition_sum(sr.cw_partition(2), sr.trivial_partition(cyclic))
    return t, sr.VariablePartition(p.parts_x, p.parts_y, p.parts_z, p.sizes)


@pytest.mark.parametrize("case", ["cw2-cube", "not-matmul", "t112-cube"])
def test_maps_read_as_the_eager_dicts(case):
    """`block_shapes` and `masses`, built when first read, equal the dicts
    the eager code built, in key order, on the relabeled CW_2 cube, on a
    block set with a block that is not matmul and on the t_112 cube
    (orbits of unequal shapes); so do the certificate's maps and, on a
    run of T_q rows, each row's distribution read off the one solve."""
    if case == "cw2-cube":
        t, p = relabeled_cw2_cube(31)
    elif case == "not-matmul":
        t, p = cw2_with_cyclic()
    else:
        t, p = sr.symmetric_cube(sr.make_t112(1)), sr.cube_partition(sr.make_t112(1),
                                                                      sr.t112_partition(1))
    r = be.laser_readiness(t, p)
    shapes, failures = eager_block_shapes(r.block_set)
    assert [f for f in r.failures if f.startswith("block (")] == failures
    assert r.conditions["maximal_matmul_blocks"] == (not failures) == (case != "not-matmul")
    assert_reads_as(r.block_shapes, shapes, tuple)
    opt = optimizer.maximize_symmetric(r.block_set)
    assert_reads_as(opt.masses, eager_masses(opt.block_mass, r.block_set.key_array), float)
    if r.ok:
        cert = be.laser_lower_bound(t, p).certificate
        assert_reads_as(cert["block_shapes"], shapes, tuple)
        assert_reads_as(cert["distribution"], opt.masses, float)
    rows = [(t, sr.singleton_partition(t)) for t in map(sr.make_cyclic_lower, range(2, 12))]
    readies, split = be._readiness(rows)
    opt = optimizer.maximize_symmetric(split)
    for got, want in zip(optimizer.summand_optima(split, opt), eager_summand_masses(split, opt)):
        assert_reads_as(got.masses, want, float)
    for ready in readies:
        assert_reads_as(ready.block_shapes, eager_block_shapes(ready.block_set)[0], tuple)


def test_laser_on_a_partition_sum_reads_every_summand():
    """A partition built by `partition_sum` is one row: its verdict reads
    the blocks of every summand, and its tight value is that of the whole
    sum, as under the same partition built plainly."""
    t, plain = cw2_with_cyclic()
    summed = sr.partition_sum(sr.cw_partition(2), sr.trivial_partition(sr.make_cyclic(3)))
    got, want = be.laser_readiness(t, summed), be.laser_readiness(t, plain)
    assert not got.ok and got.failures == ["block (3, 3, 3) is not a matmul tensor"]
    for name in READINESS_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    t = sr.direct_sum(sr.make_cw(1), sr.make_cw(2))
    summed = sr.partition_sum(sr.cw_partition(1), sr.cw_partition(2))
    plain = sr.VariablePartition(summed.parts_x, summed.parts_y, summed.parts_z, summed.sizes)
    value = be.laser_lower_bound(t, plain).value
    assert be.laser_lower_bound(t, summed).value == pytest.approx(value, rel=1e-12)
    assert value == pytest.approx(CW_SLICE[0] + CW_SLICE[1], rel=1e-4)


def test_a_partition_sum_row_is_read_alone(monkeypatch):
    """A table row whose partition is a `partition_sum` gets the verdict it
    gets alone: in a run the sum of the rows' partitions would count its
    summands as one, so `_tight_rows` reads and solves it in a run of its
    own."""
    a = Tensor(range(2), range(1), range(1), {(0, 0, 0): 1})
    b = Tensor(range(1), range(2), range(2), {(0, 1, 1): 1})
    t = sr.direct_sum(a, b)
    p = sr.partition_sum(sr.singleton_partition(a), sr.singleton_partition(b))
    alone = be.laser_readiness(t, p)
    assert not alone.ok and alone.failures == ["tensor is not variable-symmetric"]
    cw1 = (sr.make_cw(1), sr.cw_partition(1))
    with pytest.raises(be.NotLaserReady) as exc:
        be._tight_rows([(1, *cw1), (2, t, p)])
    assert exc.value.readiness.failures == alone.failures
    # a ready sum row between plain rows: three runs of one row each, the
    # sum row's value that of `laser_lower_bound` on it
    summed = sr.partition_sum(sr.cw_partition(1), sr.cw_partition(2))
    both = sr.direct_sum(sr.make_cw(1), sr.make_cw(2))
    both = Tensor(*both.labels, both.entries, {"asymptotic_rank": sr.RankFact(7, True, "t")})
    runs, readiness = [], be._readiness
    monkeypatch.setattr(be, "_readiness", lambda rows: runs.append(len(rows)) or readiness(rows))
    table = be._tight_rows([(1, *cw1), (2, both, summed), (3, sr.make_cw(2), sr.cw_partition(2))])
    assert runs == [1, 1, 1]
    assert table[1].slice_rank == be.laser_lower_bound(both, summed).value


def assert_same_block_set(got, want):
    assert got.tensor == want.tensor and got.partition == want.partition
    assert got.partition.summands == want.partition.summands
    for name in ("key_array", "entry_block", "group"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.symmetry == want.symmetry
    assert got.keys() == want.keys() and got.blocks == want.blocks


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_results_copy_and_pickle(how, read):
    """Block sets, laser verdicts, optima and table rows survive pickling,
    copying and deep-copying, with their maps read or not: each copy
    equals its original."""
    t, p = sr.make_cw(2), sr.cw_partition(2)
    ready = be.laser_readiness(t, p)
    opt = optimizer.maximize_symmetric(ready.block_set)
    row = be.cw_table(3)[2]
    if read:
        for view in (ready.block_shapes, opt.masses, row.slice_report.certificate["distribution"],
                     row.slice_report.certificate["block_shapes"]):
            assert view._dict is None and len(dict(view)) == 6
    for value in (ready.block_set, ready, opt, row):
        got = ROUND_TRIPS[how](value)
        assert type(got) is type(value)
        if isinstance(value, sr.BlockSet):
            assert_same_block_set(got, value)
        elif isinstance(value, be.LaserReadiness):
            for name in READINESS_FIELDS:
                assert getattr(got, name) == getattr(value, name), name
            assert_same_block_set(got.block_set, value.block_set)
        else:
            assert got == value
    assert np.array_equal(ROUND_TRIPS[how](opt).block_mass, opt.block_mass)


def test_first_read_of_a_map_is_safe_across_threads():
    """More threads than cores read one unread `masses` map and one unread
    `block_shapes` map at once, half of them in each order, with the
    interpreter switching threads every microsecond: every thread gets
    the eager dicts."""
    t, p = relabeled_cw2_cube(37)
    report = be.laser_lower_bound(t, p)
    bs = be.laser_readiness(t, p).block_set
    maps = [report.certificate["distribution"], report.certificate["block_shapes"]]
    want = [list(eager_masses(optimizer.maximize_symmetric(bs).block_mass, bs.key_array).items()),
            list(eager_block_shapes(bs)[0].items())]
    assert [m._dict for m in maps] == [None, None]
    count = 4 * (os.cpu_count() or 1) + 2
    start = threading.Barrier(count, timeout=30)
    got = [None] * count

    def read(i):
        start.wait()
        order = (0, 1) if i % 2 else (1, 0)
        got[i] = {j: list(maps[j].items()) for j in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        alive = [thread for thread in threads if thread.is_alive()]
    finally:
        sys.setswitchinterval(switch)
    assert alive == []
    assert all(g == {0: want[0], 1: want[1]} for g in got)


def test_tq_lower_rows_hold_little_memory():
    """The rows `tq_lower_table(64)` returns hold under 4 MB, by tracemalloc:
    each certificate keeps its distribution and block shapes as key and
    mass arrays, 10.2 MB when it held them as dicts."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = be.tq_lower_table(64)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [row.q for row in rows] == list(range(2, 65))
    assert held < 4e6


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


def kss_slice_rank(q, mp):
    """min over gamma > 0 of sum_{i<q} gamma^i / gamma^((q-1)/3), the
    asymptotic slice rank of the lower triangular T_q in the closed form of
    Kleinberg, Sawin and Speyer (arXiv 1607.00047), at 40 digits.  The
    minimizer is the one positive root of sum_{i<q} (i - (q-1)/3)
    gamma^i (one sign change), in (0, 1), where the sum goes from
    -(q-1)/3 to q(q-1)/6."""
    with mp.workdps(40):
        c = mp.mpf(q - 1) / 3
        gamma = mp.findroot(lambda g: mp.fsum((i - c) * g ** i for i in range(q)),
                            (mp.mpf(0), mp.mpf(1)), solver="anderson")
        return mp.fsum(gamma ** i for i in range(q)) / gamma ** c


def test_tq_lower_table_is_the_closed_form():
    """Every row of `tq_lower_table(40)`, the run T_2..T_22 solved as one
    sum and each later row alone, is the closed form to 1e-12 relative,
    which shares no code with the solver."""
    mp = pytest.importorskip("mpmath").mp
    rows = be.tq_lower_table(40)
    assert [row.q for row in rows] == list(range(2, 41))
    for row in rows:
        assert row.slice_rank == pytest.approx(float(kss_slice_rank(row.q, mp)), rel=1e-12)


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


def test_cw_family_floor_is_the_proof_at_nine(monkeypatch):
    """The floor and its flags are the proof's inequalities at q = 9, so
    q_max changes neither, and a target at R(9) fails the strict
    R(9) > FLOOR_TARGET."""
    rep = be.cw_family_floor(9)
    far = be.cw_family_floor(10 ** 12)
    assert far.value == rep.value and {**far.certificate, "q_max": 9} == rep.certificate
    monkeypatch.setattr(be, "FLOOR_TARGET", rep.certificate["relaxed_at_9"])
    assert not be.cw_family_floor(9).certificate["relaxed_above_floor"]


def test_floor_consistent_with_table():
    rows = be.cw_table(8)
    floor = be.cw_family_floor(9)
    for row, omega_1d in zip(rows, floor.certificate["table_omegas"]):
        assert abs(row.omega - omega_1d) < 1e-9
