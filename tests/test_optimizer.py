"""Block distribution objectives and the simplex maximizers."""

import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import slicerank as sr
from slicerank import optimizer
from slicerank.bound_engines import KKT_LIMIT, tq_lower_table
from slicerank.cli import main
from slicerank.optimizer import (
    MARGINAL_CLAMP,
    _Problem,
    _weights_step,
    objective_values,
)

from helpers import (
    random_partition,
    random_symmetric_tensor,
    random_tensor,
    reference_colour_classes,
    reference_labels,
    reference_newton_step,
    remove_x_b_part,
    scan_cube,
    shared_index_partition,
    symmetrize,
)


def cw_blocks(q):
    return sr.blocks(sr.make_cw(q), sr.cw_partition(q))


def cw_small_blocks(q):
    return sr.blocks(sr.make_cw_small(q), sr.cw_small_partition(q))


def axis_data(bs, masses):
    """(block masses d, axis values f_a(d), block gradients of each f_a)
    for masses {block key: mass}, computed from the partition's part
    sizes alone; a gradient is +inf on blocks of parts without mass."""
    keys = sorted(bs.blocks)
    d = np.array([masses.get(k, 0.0) for k in keys])
    values, grads = [], []
    for pos, axis in enumerate("xyz"):
        idx = np.array([k[pos] for k in keys])
        log_sizes = np.log(np.array(bs.partition.part_sizes(axis), dtype=float))
        m = np.bincount(idx, weights=d, minlength=len(log_sizes))
        with np.errstate(divide="ignore"):
            per_part = log_sizes - np.log(m)
        used = m > 0
        values.append(float(m[used] @ per_part[used]))
        grads.append(per_part[idx] - 1.0)
    return d, np.array(values), grads


def assert_minmax_certified(bs, opt, tol=1e-9):
    """The concavity gap at the returned weights closes on the returned
    distribution: sum_a w_a f_a(d) + max_i g_i - <g, d>, with g the
    gradient of sum_a w_a f_a, bounds the max-min from above and
    min_a f_a(d) bounds it from below."""
    d, f, grads = axis_data(bs, opt.masses)
    w = np.array([opt.axis_weights.get(ax, 0.0) for ax in "xyz"])
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) < 1e-12
    g = sum(wa * ga for wa, ga in zip(w, grads) if wa > 0.0)
    upper = w @ f + g.max() - g @ d
    assert abs(upper - f.min()) < tol
    assert abs(f.min() - opt.log_value) < 1e-12


# -- objective evaluation -----------------------------------------------------

def test_uniform_cw_small_closed_form():
    for q in (1, 2, 5):
        bs = cw_small_blocks(q)
        vx, vy, vz = map(math.exp, objective_values(bs, {k: 1.0 / 3.0 for k in bs.keys()}))
        closed = 3.0 * q ** (2.0 / 3.0) / 2.0 ** (2.0 / 3.0)
        assert abs(vx - closed) < 1e-12 * closed
        assert abs(vx - vy) < 1e-12 and abs(vy - vz) < 1e-12


def test_point_mass_unit_part():
    bs = cw_blocks(2)
    # all three marginals concentrate on singleton parts
    assert objective_values(bs, {(0, 0, 2): 1.0}) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)


def test_cw_corner_only_distribution():
    # all symmetric mass on the corner blocks (v = 1/3): the middle parts
    # get zero marginal, exercising the 0^0 = 1 convention
    bs = cw_blocks(3)
    third = 1.0 / 3.0
    log_x = objective_values(bs, {(0, 0, 2): third, (0, 2, 0): third, (2, 0, 0): third})[0]
    want = 3.0 / 2.0 ** (2.0 / 3.0)
    assert abs(math.exp(log_x) - want) < 1e-12
    assert abs(math.exp(log_x) - 1.8899) < 1e-4


def test_distribution_validation():
    bs = cw_blocks(1)
    with pytest.raises(ValueError, match="sum to"):
        objective_values(bs, {(0, 0, 2): 0.7})
    with pytest.raises(ValueError, match="nonexistent"):
        objective_values(bs, {(1, 1, 1): 1.0})
    with pytest.raises(ValueError, match="negative"):
        objective_values(bs, {(0, 0, 2): 1.2, (0, 2, 0): -0.2})


def test_objective_values_off_the_classes():
    """`objective_values` evaluates distributions that are not constant on
    the colour classes, so it must not solve on them.  On the CW_1 cube's
    B part (singleton parts) a point mass on one block of a class of six
    puts mass 1 on three parts of size 1, so every f_a is 0 (the class
    average would give log 6 and more), and a random distribution has the
    values of the part-size formula."""
    bs = cube_b_part(1)
    prob = _Problem(bs)
    key = tuple(prob.key_array[np.flatnonzero(prob.count[prob.group] == 6)[0]].tolist())
    assert objective_values(bs, {key: 1.0}) == (0.0, 0.0, 0.0)
    rng = random.Random(3)
    masses = {k: rng.random() for k in bs.keys()}
    total = sum(masses.values())
    masses = {k: v / total for k, v in masses.items()}
    assert objective_values(bs, masses) == pytest.approx(axis_data(bs, masses)[1], abs=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_objective_values_rejects_non_finite_mass(bad):
    bs = cw_blocks(1)
    with pytest.raises(ValueError, match="not finite"):
        objective_values(bs, {(0, 0, 2): bad, (0, 2, 0): 1.0})


# -- the result ----------------------------------------------------------------

@pytest.mark.parametrize("solver, weights, objective", [
    (sr.maximize_symmetric, (1.0, 0.0, 0.0), lambda f: f[0]),
    (sr.maximize_product, (1.0, 1.0, 1.0), sum),
    (sr.maximize_minmax, None, min)])
def test_optimum_fields(solver, weights, objective):
    """Every solver returns positive masses sorted by key and summing to
    1, their axis values, the maximized objective, the weights of its
    last solve and a closed concavity gap."""
    bs = cw_blocks(2)
    opt = solver(bs)
    assert list(opt.masses) == sorted(opt.masses)
    assert min(opt.masses.values()) > 0.0
    assert sum(opt.masses.values()) == pytest.approx(1.0, abs=1e-12)
    assert opt.log_values == pytest.approx(objective_values(bs, opt.masses), abs=1e-12)
    assert opt.log_value == objective(opt.log_values)
    assert opt.value == math.exp(opt.log_value)
    if weights is not None:
        assert tuple(opt.axis_weights.values()) == weights
    assert list(opt.axis_weights) == ["x", "y", "z"]
    assert opt.active_axes == tuple(ax for ax, wa in opt.axis_weights.items() if wa > 0.0)
    assert abs(opt.optimality_gap) < 1e-9
    assert opt.iterations > 0 and opt.kkt_residual <= 1e-10


# -- symmetric maximization ----------------------------------------------------

CW_TABLE = {1: 2.7551, 2: 3.57165, 3: 4.34413, 4: 5.07744,
            5: 5.77629, 6: 6.44493, 7: 7.08706, 8: 7.70581}


@pytest.mark.parametrize("q", [1, 2, 5, 8])
def test_maximize_symmetric_cw(q):
    opt = sr.maximize_symmetric(cw_blocks(q))
    assert abs(opt.value - CW_TABLE[q]) < 1e-4
    assert opt.kkt_residual < 1e-8
    assert opt.optimality_gap < 1e-8
    for (i, j, k), mass in opt.masses.items():
        assert opt.masses.get((j, k, i), 0.0) == pytest.approx(mass, abs=1e-10)


def test_maximize_symmetric_cw_small_unique():
    for q in (1, 2, 4):
        opt = sr.maximize_symmetric(cw_small_blocks(q))
        closed = 3.0 * q ** (2.0 / 3.0) / 2.0 ** (2.0 / 3.0)
        assert abs(opt.value - closed) < 1e-9 * closed
        bs = cw_small_blocks(q)
        for k in bs.keys():
            assert opt.masses[k] == pytest.approx(1 / 3, abs=1e-12)


def test_maximize_symmetric_rejects_asymmetric():
    t = sr.make_t112(2)
    bs = sr.blocks(t, sr.t112_partition(2))
    with pytest.raises(ValueError):
        sr.maximize_symmetric(bs)


def test_symmetric_certificate_gradients():
    # support gradients equal, off-support not larger
    bs = cw_blocks(4)
    opt = sr.maximize_symmetric(bs)
    d, _, grads = axis_data(bs, opt.masses)
    g = sum(grads) / 3.0
    support = d > 1e-12
    mu = g[support].mean()
    assert abs(g[support] - mu).max() < 1e-8
    if (~support).any():
        assert (g[~support] - mu).max() < 1e-8


# -- max-min maximization --------------------------------------------------------

def test_minmax_matches_symmetric():
    cases = [cw_blocks(2), cw_small_blocks(3)]
    t = sr.make_cyclic_lower(3)
    cases.append(sr.blocks(t, sr.singleton_partition(t)))
    for bs in cases:
        mm = sr.maximize_minmax(bs)
        sym = sr.maximize_symmetric(bs)
        assert abs(mm.value - sym.value) < 1e-6
        assert mm.kkt_residual < 1e-8


def test_minmax_single_block():
    t = sr.make_matmul(2, 3, 4)
    bs = sr.blocks(t, sr.trivial_partition(t))
    mm = sr.maximize_minmax(bs)
    assert mm.value == pytest.approx(min(6, 12, 8), abs=1e-12)
    # the weights sit on axis x alone
    assert mm.axis_weights == {"x": 1.0, "y": 0.0, "z": 0.0}
    assert mm.active_axes == ("x",)
    assert_minmax_certified(bs, mm)


def cube_b_part(q):
    cw = sr.make_cw(q)
    return remove_x_b_part(sr.symmetric_cube(cw), sr.cube_partition(cw, sr.cw_partition(q)))


def cw_b_part(q):
    return remove_x_b_part(sr.make_cw(q), sr.cw_partition(q))


def test_minmax_cw1_cube_b_part_certified():
    bs = cube_b_part(1)
    mm = sr.maximize_minmax(bs)
    assert abs(mm.log_value - 2.984548001552) < 1e-9
    # pinned: a different step would change the Newton path, and with it this
    # count (18, then 8, when trial weights were scored by inner solves of x
    # to TOL)
    assert mm.iterations == 4
    assert mm.kkt_residual <= 1e-10
    assert_minmax_certified(bs, mm)


def test_minmax_cw2_cube_b_part_memory():
    """The max-min on the 665 blocks and 189 parts of the CW_2 cube's B
    holds no dense blocks x parts array: its traced peak stays under
    4 MB, where dense incidences and a dense blocks x rank basis per
    step peak above 7 MB."""
    bs = cube_b_part(2)
    assert len(bs) == 665
    tracemalloc.start()
    try:
        mm = sr.maximize_minmax(bs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mm.iterations == 5
    assert mm.log_value == pytest.approx(3.785454180742906, rel=1e-12)
    assert peak < 4e6
    assert_minmax_certified(bs, mm)


def test_minmax_basis_once_per_support_and_axes(monkeypatch):
    """On the CW_2 cube's B the max-min takes joint steps only, each asking
    `newton_step` for four right-hand columns; the span basis, one eigh,
    is computed once per support and set of active axes.  It is solved on
    its 18 part classes, not its 189 parts, so no eigh is larger than 18 x
    18.  On a fresh problem, a four-column and a one-column step reuse
    one basis, and agree on their common column."""
    keys, columns, eighs = set(), set(), []
    eigh, step = np.linalg.eigh, _Problem.newton_step

    def recorded(self, x, m, w, rhs):
        keys.add(((x > 0.0).tobytes(), tuple(w > 0.0)))
        columns.add(rhs.shape[1])
        return step(self, x, m, w, rhs)

    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    monkeypatch.setattr(_Problem, "newton_step", recorded)
    bs = cube_b_part(2)
    mm = sr.maximize_minmax(bs)
    assert mm.kkt_residual <= 1e-10
    assert columns == {4}
    assert len(eighs) == len(keys)
    assert max(max(shape) for shape in eighs) <= 18

    prob, eighs[:] = _Problem(bs), []
    x = prob.count / prob.count.sum()
    m, w = prob.marginals(x), np.array([0.5, 0.5, 0.0])
    rhs = np.random.default_rng(5).normal(size=(prob.size, 4))
    four, one = step(prob, x, m, w, rhs), step(prob, x, m, w, rhs[:, :1])
    assert len(eighs) == 1 and max(eighs[0]) <= 18
    assert np.allclose(one[:, 0], four[:, 0], rtol=0.0, atol=1e-12 * np.abs(four).max())


def test_minmax_cw4_remove_x_b_part_converges():
    """B of remove-x on CW_4 has all three axes tied at log 4; dropping
    coordinates at every boundary step and regrowing them from GROW_MASS
    stalled it at the step cap with residual 6e-8, and weight steps nested
    in the joint loop took 70 steps.  One joint step with w on its simplex
    edge, w = (0, 1/2, 1/2), reaches the saddle point."""
    bs = cw_b_part(4)
    mm = sr.maximize_minmax(bs)
    assert mm.iterations == 1
    assert mm.kkt_residual <= 1e-10
    assert mm.value == pytest.approx(4.0, rel=1e-9)
    assert_minmax_certified(bs, mm)


def test_minmax_step_cap_is_exact(monkeypatch):
    """The max-min's `iterations` counts joint steps alone, so a capped
    solve stops at exactly MAX_STEPS and reports itself unconverged by its
    residual.  On the 339 blocks of the shared-Random(116) scan cube's B
    (27 steps uncapped), a cap of 5 returned 203 steps while weight steps
    nested in the loop ran an inner solve per trial and added its steps."""
    monkeypatch.setattr(optimizer, "MAX_STEPS", 5)
    bs = remove_x_b_part(*scan_cube(116, shared=True))
    assert len(bs) == 339
    mm = sr.maximize_minmax(bs)
    assert mm.iterations == 5
    assert mm.kkt_residual > optimizer.TOL


@pytest.mark.parametrize("q, budget", [(5, 8), (6, 3), (7, 3), (8, 3)])
def test_minmax_cw_remove_x_b_part_drops_axis_x(q, budget):
    """On B of remove-x on CW_5..CW_8 the weight of axis x must leave:
    the max-min is 2 sqrt(q), attained on y and z alone."""
    mm = sr.maximize_minmax(cw_b_part(q))
    assert mm.value == pytest.approx(2.0 * math.sqrt(q), rel=1e-12)
    assert mm.active_axes == ("y", "z")
    assert mm.kkt_residual <= 1e-10
    assert mm.iterations <= budget


@pytest.mark.filterwarnings("error")
def test_minmax_returns_when_the_weight_system_is_nan():
    """On B of remove-x on the cube of this 2x3x3 tensor, a weight loop
    nested in the joint one once left a weight at 2e-18, where the
    weights' Newton system is NaN (and an IndexError on NaN weights, then
    an unconverged end, followed).  The joint steps hold a weight the step
    would drive below 0 at 0 exactly, and take a NaN weight step as none:
    the solve certifies, with no numpy warning.
    `test_weights_step_nan_on_a_non_positive_diagonal` covers the NaN
    system itself."""
    t = sr.Tensor(range(2), range(3), range(3),
                  dict.fromkeys([(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 2, 0)], 1))
    p = sr.VariablePartition([("0", [1]), ("1", [0])], [("0", [0]), ("1", [1, 2])],
                             [("0", [0, 1, 2])], t.shape)
    bs = remove_x_b_part(sr.symmetric_cube(t), sr.cube_partition(t, p))
    mm = sr.maximize_minmax(bs)
    w = np.array(list(mm.axis_weights.values()))
    assert np.isfinite(w).all() and w.min() >= 0.0 and abs(w.sum() - 1.0) < 1e-12
    assert mm.kkt_residual <= 1e-10
    assert_minmax_certified(bs, mm)


# The draws of seeds 0-5999 (`tests/scan_minmax.py random`) on which, at
# some step, no joint trial at sigma = 1, 1/2 or 1/4 lowers the gap: the
# nonmonotone acceptance, a more damped trial or the weight-edge trial
# carries them.
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), singletons=st.booleans())
@example(seed=1608642901, singletons=False)
@example(seed=853, singletons=True)
@example(seed=1002, singletons=False)
@example(seed=1802, singletons=False)
@example(seed=1846, singletons=True)
@example(seed=2252, singletons=True)
@example(seed=2619, singletons=False)
@example(seed=3236, singletons=False)
@example(seed=4076, singletons=True)
@example(seed=4266, singletons=False)
@example(seed=4293, singletons=False)
@example(seed=4582, singletons=False)
@example(seed=4826, singletons=False)
@example(seed=5309, singletons=True)
@example(seed=5324, singletons=True)
@example(seed=5718, singletons=False)
def test_minmax_certified_on_random_tensors(seed, singletons):
    """The max-min certifies on random tensors under random and singleton
    partitions, where the joint steps on masses and weights, clipped to
    their simplices, carry the solve.  The first example's y weight falls
    to 6e-18 and leaves the Newton system singular before it reaches 0."""
    rng = random.Random(seed)
    t = random_tensor(rng, max_dim=6)
    bs = sr.blocks(t, sr.singleton_partition(t) if singletons else random_partition(rng, t))
    mm = sr.maximize_minmax(bs)
    assert mm.kkt_residual <= 1e-10
    assert_minmax_certified(bs, mm)


# Seeds of the scan below where the weight loop once nested in the joint
# one, which took joint steps only after a first inner solve, ended
# unconverged (residual 6.6e-6 to 0.27, after up to 1,849 steps); 136, 406
# and 424, where joint loops that held every axis driven below weight 0 at
# once, instead of minimizing the weights' model on the simplex, stalled;
# and 271 and 424, where at some step no joint trial at sigma = 1, 1/2 or
# 1/4 lowers the gap (271 stops after 2 steps at residual 0.22 without the
# nonmonotone acceptance and the weight-edge trial).
SCAN_SEEDS = [116, 129, 136, 151, 219, 271, 291, 307, 329, 376, 386, 406, 424, 454, 487, 493,
              497]


@pytest.mark.parametrize("seed", SCAN_SEEDS)
def test_minmax_certified_on_random_cube_b_parts(seed):
    """B of remove-x on the cube of a random tensor under a random
    partition (both drawn from Random(seed)) certifies: the joint steps
    on masses and weights reach the saddle point."""
    bs = remove_x_b_part(*scan_cube(seed))
    mm = sr.maximize_minmax(bs)
    assert mm.kkt_residual <= 1e-10
    assert_minmax_certified(bs, mm)


# The `product` scan's seeds where the product solve, when its steps kept
# only trials on which the objective did not drop, ended unconverged after
# 200 steps (residual 0.0046 to 0.52).
@pytest.mark.parametrize("seed", [219, 329, 376, 386, 487, 497])
def test_product_converges_on_random_cube_b_parts(seed):
    assert sr.maximize_product(remove_x_b_part(*scan_cube(seed))).kkt_residual <= KKT_LIMIT


def test_minmax_certified_on_shared_random_cube_b_part():
    """The same with the tensor and the partition drawn from one
    Random(116): 339 blocks, where at some step no joint trial at sigma =
    1, 1/2 or 1/4 lowers the gap.  Pinned at 27 steps."""
    bs = remove_x_b_part(*scan_cube(116, shared=True))
    mm = sr.maximize_minmax(bs)
    assert mm.iterations == 27
    assert mm.kkt_residual <= 1e-10
    assert_minmax_certified(bs, mm)


def test_minmax_certified_on_random_partitions():
    rng = random.Random(45)
    for _ in range(100):
        t = random_tensor(rng, max_dim=5)
        bs = sr.blocks(t, random_partition(rng, t))
        mm = sr.maximize_minmax(bs)
        assert mm.kkt_residual <= 1e-10
        assert_minmax_certified(bs, mm)


def test_minmax_beats_user_distributions():
    rng = random.Random(12)
    bs = cw_blocks(2)
    mm = sr.maximize_minmax(bs)
    keys = bs.keys()
    for _ in range(50):
        w = [rng.random() for _ in keys]
        tot = sum(w)
        logs = objective_values(bs, {k: v / tot for k, v in zip(keys, w)})
        assert mm.value >= math.exp(min(logs)) - 1e-9


def test_minmax_deterministic():
    bs = cw_blocks(3)
    a = sr.maximize_minmax(bs)
    b = sr.maximize_minmax(bs)
    assert a.value == b.value
    assert a.masses == b.masses


# The Newton steps of the tq-lower table rows q = 2..16 and of q = 18, 19
# and 150, pinned, like the CW_1-cube count above.  q = 150 took 28 steps
# when a step meeting the simplex boundary tried only `_line_start`'s sigma
# and points short of it.
TQ_LOWER_STEPS = dict(zip(range(2, 20), [0, 3, 4, 4, 4, 4, 4] + [5] * 11)) | {150: 7}


@pytest.mark.parametrize("q", [15, 18, 19, 150] + [q for q in range(2, 17) if q != 15])
def test_symmetric_residual_tq_lower(q):
    t = sr.make_cyclic_lower(q)
    opt = sr.maximize_symmetric(sr.blocks(t, sr.singleton_partition(t)))
    assert opt.kkt_residual <= 1e-10
    assert opt.iterations == TQ_LOWER_STEPS[q]


# Steps that meet the simplex boundary with the optimum inside go to the
# line maximum before the edge: the counts here were 13 and 14 when such
# steps dropped the coordinates reaching zero and regrew them.


# The Newton steps of the rows of `table cw` (CW_1..8) and `table cw-small`
# (cw_1..7, at the uniform optimum from the start), pinned.
@pytest.mark.parametrize("blocks, q, steps", [
    pytest.param(cw_blocks, 7, 1, id="7"), pytest.param(cw_blocks, 8, 1, id="8"),
    *(pytest.param(cw_blocks, q, n, id=f"cw{q}") for q, n in zip(range(1, 7), [3, 3, 4, 5, 6, 7])),
    *(pytest.param(cw_small_blocks, q, 0, id=f"cw-small{q}") for q in range(1, 8))])
def test_symmetric_cw_step_budget(blocks, q, steps):
    opt = sr.maximize_symmetric(blocks(q))
    assert opt.iterations == steps
    assert opt.kkt_residual <= 1e-10


@pytest.mark.parametrize("q", [4, 6])
@pytest.mark.parametrize("solver, budget", [(sr.maximize_minmax, 4), (sr.maximize_product, 3)])
def test_t112_step_budget(q, solver, budget):
    opt = solver(sr.blocks(sr.make_t112(q), sr.t112_partition(q)))
    assert opt.iterations <= budget
    assert opt.kkt_residual <= 1e-10


NOISE = 64 * np.finfo(float).eps  # float noise of an objective, relative


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       weights=st.sampled_from(["product", "x only", "random"]))
@example(seed=1290, weights="random")
@example(seed=681, weights="product")
def test_boundary_steps_keep_the_edge_value(seed, weights):
    """On random block sets the loop with w held certifies (gap <= 1e-9),
    and the first trial of a step that meets the simplex boundary, from
    `_line_start`'s sigma, has an F no lower than at its edge trial, the
    point where the first coordinates reach zero, unless F drops there."""
    rng = random.Random(seed)
    t = random_tensor(rng, max_dim=5)
    prob = _Problem(sr.blocks(t, random_partition(rng, t)))
    w = {"product": np.ones(3), "x only": np.array([1.0, 0.0, 0.0]),
         "random": np.array([rng.uniform(0.1, 1.0) for _ in range(3)])}[weights]
    steps, trial = [], optimizer._trial

    def recorded(v, dv, start=None):
        if start is None:                    # `_line_start` reading the edge trial
            return trial(v, dv)
        steps.append((v, dv, [trial(v, dv, start)]))
        return steps[-1][2][0]

    with mock.patch.object(optimizer, "_trial", recorded):
        x, _, m, _, _ = optimizer._maximize(prob, w, False)
    g = prob.grads(m) @ w
    assert g.max() - g @ x <= 1e-9
    big_f = lambda v: w @ prob.values(prob.marginals(v))
    for v, dv, tried in steps:
        f0 = big_f(v)
        accepted = next((u for u in tried if big_f(u) >= f0 - NOISE * abs(f0)), None)
        if accepted is not None and (v[dv < 0.0] / -dv[dv < 0.0]).min(initial=1.0) < 1.0:
            edge = big_f(trial(v, dv))
            assert big_f(accepted) >= edge - NOISE * abs(edge)


def test_symmetric_span_basis_uses_one_axis(monkeypatch):
    """On orbit masses the three axes' incidence rows are equal, so the
    symmetric solve's Gram matrix holds the P rows of one axis: a stack of
    one summand's P x P matrix, as a block set that is not a direct sum is
    one summand."""
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    t = sr.make_cyclic_lower(15)
    bs = sr.blocks(t, sr.singleton_partition(t))
    sr.maximize_symmetric(bs)
    parts = bs.partition.part_count("x")
    assert shapes and set(shapes) == {(1, parts, parts)}


def test_symmetric_residual_cw2_cube():
    cw = sr.make_cw(2)
    bs = sr.blocks(sr.symmetric_cube(cw), sr.cube_partition(cw, sr.cw_partition(2)))
    opt = sr.maximize_symmetric(bs)
    assert opt.kkt_residual <= 1e-10
    assert abs(opt.value - 3.57165 ** 3) < 1e-2


# -- direct sums ----------------------------------------------------------------


def symmetric_block_set(kind, n):
    """A symmetric block set: CW_q or cw_q under its partition, T_q under
    singletons, or the symmetric cube of a small random tensor (seed n)
    under the cube of a random partition."""
    if kind == "cw":
        return cw_blocks(n)
    if kind == "cw-small":
        return cw_small_blocks(n)
    if kind == "tq":
        t = sr.make_cyclic_lower(n)
        return sr.blocks(t, sr.singleton_partition(t))
    rng = random.Random(n)
    t = random_tensor(rng, max_dim=2)
    return sr.blocks(sr.symmetric_cube(t), sr.cube_partition(t, random_partition(rng, t)))


def x_marginals(bs, masses):
    m = np.zeros(bs.partition.part_count("x"))
    for key, v in masses.items():
        m[key[0]] += v
    return m


summand = st.one_of(st.tuples(st.just("cw"), st.integers(1, 8)),
                    st.tuples(st.just("cw-small"), st.integers(1, 7)),
                    st.tuples(st.just("tq"), st.integers(2, 20)),
                    st.tuples(st.just("cube"), st.integers(0, 10 ** 6)))


@settings(max_examples=60, deadline=None)
@given(summands=st.lists(summand, min_size=2, max_size=4))
@example(summands=[("cw", 1), ("tq", 20)])
@example(summands=[("cube", 27), ("cw-small", 1)])
def test_direct_sum_splits_into_summand_optima(summands):
    """One symmetric solve on a `block_sum` gives each summand's own
    optimum: its log value to 1e-12 relative, its part marginals (always
    unique) to 1e-9, its masses to 1e-9 where the maximizer is unique (the
    orbit incidence has full column rank; T_q for q >= 7 has more orbits
    than parts, and every distribution with the optimal marginals is
    optimal), a residual of at most 1e-10 from its own per-block
    gradient; and the sum's log value is log sum_r exp(max f_r).  The
    examples pad a summand of 3 parts to 20, and one of 2 to a cube's 8."""
    sets = [symmetric_block_set(*s) for s in summands]
    own = [sr.maximize_symmetric(bs) for bs in sets]
    assume(all(o.kkt_residual <= 1e-10 for o in own))
    union = sr.block_sum(sets)
    opt = sr.maximize_symmetric(union)
    split = sr.summand_optima(union, opt)
    assert len(split) == len(sets)
    for bs, got, ref in zip(sets, split, own):
        assert got.log_value == pytest.approx(ref.log_value, rel=1e-12, abs=1e-15)
        assert got.kkt_residual <= 1e-10
        marginals = x_marginals(bs, got.masses) - x_marginals(bs, ref.masses)
        assert np.abs(marginals).max() <= 1e-9
        inc = np.zeros((bs.partition.part_count("x"), len(bs.orbits)))
        for g, orbit in enumerate(bs.orbits):
            for key in orbit:
                inc[key[0], g] += 1.0 / len(orbit)
        if np.linalg.matrix_rank(inc) == len(bs.orbits):
            for key in set(got.masses) | set(ref.masses):
                assert abs(got.masses.get(key, 0.0) - ref.masses.get(key, 0.0)) <= 1e-9
        assert set(got.masses) <= set(bs.blocks)
    total = math.log(sum(math.exp(o.log_value) for o in own))
    assert opt.log_value == pytest.approx(total, rel=1e-12)


def test_one_block_set_is_its_own_sum():
    bs = cw_blocks(3)
    opt = sr.maximize_symmetric(bs)
    assert sr.block_sum([bs]) is bs and sr.summand_optima(bs, opt) == [opt]


def test_tq_lower_run_is_one_stack(monkeypatch):
    """`tq_lower_table(23)` solves T_2..T_22 as one run, 21 summands of 2
    to 22 parts per axis, and T_23 alone: each basis is one eigh, of shape
    (21, 22, 22) on the run, every summand padded to 22 rows, and (1, 23,
    23) on T_23."""
    shapes, bases = [], []
    eigh, basis = np.linalg.eigh, _Problem._basis
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    monkeypatch.setattr(_Problem, "_basis",
                        lambda self, on, pos: bases.append(on) or basis(self, on, pos))
    assert [row.q for row in tq_lower_table(23)] == list(range(2, 24))
    assert len(shapes) == len(bases) and set(shapes) == {(21, 22, 22), (1, 23, 23)}


def test_shifted_summand_fails_the_certificate(capsys, monkeypatch):
    """Shifting the second summand's part range of `table cw --qmax 3`'s
    sum by one row (CW_1 gets one part more, CW_3 one fewer) splits the
    problem wrongly: the summand's residual from its own per-block gradient
    exceeds KKT_LIMIT, and `table` exits 2 instead of printing a value."""
    def shifted(bs):
        counts = [list(c) for c in bs.summands]
        counts[0] = [c + 1 for c in counts[0]]
        counts[2] = [c - 1 for c in counts[2]]
        p = bs.partition
        moved = sr.VariablePartition._unchecked((p.parts_x, p.parts_y, p.parts_z), p.where,
                                                tuple(map(tuple, counts)))
        return sr.BlockSet(bs.tensor, moved, bs.key_array, bs.entry_block, bs.group, bs.symmetry)

    bs = shifted(sr.block_sum([cw_blocks(q) for q in (1, 2, 3)]))
    assert sr.summand_optima(bs, sr.maximize_symmetric(bs))[1].kkt_residual > KKT_LIMIT
    real = optimizer.summand_optima
    monkeypatch.setattr(optimizer, "summand_optima", lambda bs, opt: real(shifted(bs), opt))
    assert main(["table", "cw", "--qmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("convergence failure at q=")


# -- colour classes ---------------------------------------------------------------


def relabel(t, p, rng):
    """t and p under one random permutation of each axis."""
    perms = [rng.sample(range(n), n) for n in t.shape]
    entries = {tuple(perm[i] for perm, i in zip(perms, key)): c for key, c in t.entries.items()}
    parts = [[(label, sorted(perm[i] for i in idx)) for label, idx in p.parts(ax)]
             for ax, perm in zip("xyz", perms)]
    return sr.Tensor(*(range(n) for n in t.shape), entries), sr.VariablePartition(*parts, t.shape)


def planted(seed, kind):
    """The blocks of a random tensor under a random partition ("plain"), or
    of its direct sum or tensor product with itself under the sum or
    product partition, relabeled: the copies, resp. the factors, can be
    swapped, a symmetry the relabeling hides."""
    rng = random.Random(seed)
    t = random_tensor(rng, max_dim=3)
    p = random_partition(rng, t)
    if kind == "sum":
        s = sr.direct_sum(t, t)
        parts = [[(f"{c}{label}", [c * n + i for i in idx]) for c in range(2)
                  for label, idx in p.parts(ax)] for ax, n in zip("xyz", t.shape)]
    elif kind == "product":
        s = sr.tensor_product(t, t)
        parts = [[(f"{l1},{l2}", [i * n + j for i in i1 for j in i2])
                  for l1, i1 in p.parts(ax) for l2, i2 in p.parts(ax)]
                 for ax, n in zip("xyz", t.shape)]
    else:
        s, parts = t, [p.parts(ax) for ax in "xyz"]
    return sr.blocks(*relabel(s, sr.VariablePartition(*parts, s.shape), rng))


def singletons(parts, axis, sizes):
    """`colour_classes` with every block and part its own class."""
    return np.arange(len(parts)), np.arange(len(axis))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-3, 3), min_size=1, max_size=800),
       width=st.sampled_from([1, 2, 3]))
def test_labels_as_np_unique_gives_them(values, width):
    """`_labels` numbers the classes in sorted order and finds each one's
    first entry as `np.unique` does, on ints and (width 2, 3) on rows
    read as voids, as `colour_classes` reads them."""
    a = np.array(values, np.intp)
    if width > 1:
        a = np.resize(a, (max(len(a) // width, 1), width))
        a = a.view(np.dtype((np.void, a.itemsize * width))).ravel()
    labels, first = optimizer._labels(a)
    ref_labels, ref_first = reference_labels(a)
    assert labels.tolist() == ref_labels.tolist() and first.tolist() == ref_first.tolist()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["plain", "sum", "product"]))
def test_colour_classes_are_equitable(seed, kind):
    """The parts of a class have one axis and one size and meet equally
    many blocks of each block class, the blocks of a class meet one part
    class per axis, and the classes are those of colour refinement on
    Python tuples, the coarsest such partition, numbered alike."""
    bs = planted(seed, kind)
    keys = sorted(bs.keys())
    sizes = [bs.part_sizes(ax) for ax in "xyz"]
    offsets = np.cumsum([0] + [len(s) for s in sizes])[:3]
    parts = np.array(keys).reshape(-1, 3) + offsets
    axis = np.repeat(np.arange(3), [len(s) for s in sizes])
    block, row = optimizer.colour_classes(parts, axis, np.concatenate(sizes))
    flat_sizes = np.concatenate(sizes)
    for c in range(row.max() + 1):
        members = np.flatnonzero(row == c)
        assert len(set(axis[members])) == 1 and len(set(flat_sizes[members])) == 1
        for b in range(block.max() + 1):
            meets = np.bincount(parts[block == b].ravel(), minlength=len(axis))[members]
            assert len(set(meets)) == 1
    for b in range(block.max() + 1):
        assert all(len(set(row[parts[block == b, a]])) == 1 for a in range(3))
    ref_block, ref_part = reference_colour_classes(bs)
    assert block.tolist() == [ref_block[k] for k in keys]
    assert row.tolist() == list(ref_part.values())
    if kind == "sum":
        assert block.max() + 1 <= len(keys) // 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["sum", "product"]))
def test_reduced_optima_match_unreduced(seed, kind):
    """On relabeled direct sums and tensor products, whose copies or factors
    can be swapped, the product and max-min solved on the colour classes
    equal those solved on single blocks (`colour_classes` replaced by
    singleton classes), and both certify."""
    bs = planted(seed, kind)
    reduced = _Problem(bs).size
    assert reduced < len(bs) or kind == "product"
    for solver in (sr.maximize_product, sr.maximize_minmax):
        opt = solver(bs)
        with mock.patch.object(optimizer, "colour_classes", singletons):
            ref = solver(bs)
        assert opt.kkt_residual <= 1e-10 and abs(opt.optimality_gap) <= 1e-9
        if ref.kkt_residual <= 1e-10:
            assert opt.log_value == pytest.approx(ref.log_value, abs=1e-9)
        if reduced == len(bs):
            assert opt == ref


def test_unreduced_problem_is_the_singleton_classes():
    """An input whose classes are all singletons, here a random tensor
    under a random partition, builds the unreduced problem bit for bit."""
    bs = planted(11, "plain")
    prob, ref = _Problem(bs), _Problem(bs, np.arange(len(bs)))
    assert prob.size == len(bs) == ref.size
    for name in ("key_array", "group", "share", "axis", "log_sizes", "col", "row", "val", "count"):
        assert np.array_equal(getattr(prob, name), getattr(ref, name)), name


@pytest.mark.parametrize("solver", [sr.maximize_product, sr.maximize_minmax])
def test_merged_classes_fail_the_certificate(solver, capsys, tmp_path):
    """Merging the first two block classes of the CW_1 cube's B part, whose
    blocks carry different masses at the optimum, solves a wrong reduction:
    the residual of the full per-block gradient then exceeds KKT_LIMIT, and
    `bound --mode remove-x` reports a convergence failure instead of a
    value."""
    bs = cube_b_part(1)
    real = optimizer.colour_classes

    def merged(parts, axis, sizes):
        block, row = real(parts, axis, sizes)
        return np.where(block == 1, 0, np.where(block > 1, block - 1, block)), row

    opt = solver(bs)
    prob = _Problem(bs)
    first = [tuple(prob.key_array[list(prob.group).index(c)].tolist()) for c in (0, 1)]
    assert abs(opt.masses[first[0]] - opt.masses[first[1]]) > 1e-3
    with mock.patch.object(optimizer, "colour_classes", merged):
        assert solver(bs).kkt_residual > KKT_LIMIT
        cw = sr.make_cw(1)
        tensor, partition = tmp_path / "cube.tensor", tmp_path / "cube.partition"
        tensor.write_text(sr.write_tensor(sr.symmetric_cube(cw)))
        partition.write_text(sr.write_partition(sr.cube_partition(cw, sr.cw_partition(1))))
        assert main(["bound", "--mode", "remove-x", str(tensor), str(partition)]) == 2
    assert capsys.readouterr().err == "convergence failure\n"


# -- the Newton step ------------------------------------------------------------


def orbit_set(rng, parts, twin):
    """A random rotation-closed block set on `parts` singleton parts per
    axis, holding the orbits of (0, 1, 2) and (0, 2, 1) if `twin`."""
    cells = list(itertools.product(range(parts), repeat=3))
    picked = rng.choice(len(cells), rng.integers(1, len(cells) + 1), replace=False)
    keys = {cells[i] for i in picked}
    keys |= {(0, 1, 2), (0, 2, 1)} if twin else set()
    keys |= {(j, k, i) for (i, j, k) in keys} | {(k, i, j) for (i, j, k) in keys}
    t = sr.Tensor(range(parts), range(parts), range(parts), dict.fromkeys(keys, 1))
    return sr.blocks(t, sr.singleton_partition(t))


@pytest.mark.parametrize("size, factor", [
    ("identity", "incidence"), ("qr", "incidence"), ("qr", "general"),
    ("identity", "orbit"), ("qr", "orbit"), ("identity", "sum"), ("qr", "sum")])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), zero=st.sampled_from([None, 0, 1, 2]),
       twin=st.booleans())
def test_newton_step_matches_dense_reference(size, factor, seed, zero, twin):
    """`_Problem.newton_step` equals the dense bordered step on random block
    sets: single blocks (0/1 part incidences) or rotation orbits (shares
    1/3 and 2/3, the three axes' rows equal), masses spanning three orders
    of magnitude, axis weights with one weight 0 as the max-min dual
    produces, and supports of at most rows + 1 coordinates ("identity")
    or more ("qr"), rows the number of parts of the axes with w_a > 0
    (the ids are the names of the bases that once served each case).
    With `twin`, two support coordinates share their incidence column on
    those axes (blocks that differ only on an axis of weight 0, or the
    orbits of (0, 1, 2) and (0, 2, 1)), which makes the bordered system
    singular even on small supports.  On a sum, the orbits of a
    `block_sum` of 2-4 orbit sets with distinct part counts, the first
    with the twin orbits if `twin`: each summand has its own basis, the
    summands are stacked and padded, and the step joins them through the
    simplex row.  The general factor drives the dense step of the max-min
    weights instead, on h = c^T c for Gaussian c, its diagonal spread over
    three orders of magnitude.

    Agreement is measured against the step's norm, or against |D^2 r|,
    the step for the Hessian's diagonal alone, where the minimum-norm
    step vanishes (one support coordinate, or r the projected Hessian
    cannot see)."""
    rng = np.random.default_rng(seed)
    if factor == "general":
        k = int(rng.integers(1, 40))
        c = rng.normal(size=(k + int(rng.integers(0, 3)), k)) * 10.0 ** rng.uniform(-1.5, 0.0, size=k)
        h = c.T @ c
        rhs = rng.normal(size=(k, 3))
        ref = reference_newton_step(-h, np.ones(k, bool), rhs)
        w = np.full(k, np.abs(ref).max() + 1.0)           # no axis reaches weight 0
        step = np.column_stack([_weights_step(h, r, w) for r in rhs.T])
        diagonal_step = rhs / np.diag(h)[:, None]
    else:
        if twin and zero is None:
            zero = int(rng.integers(3))
        parts = rng.integers(1, 7, size=3)
        if factor == "orbit":
            parts[:] = max(parts[0], 3 if twin else 1)
        elif twin:
            parts[zero] = max(parts[zero], 2)
        if factor == "sum":
            counts = rng.choice(np.arange(1, 8), size=rng.integers(2, 5), replace=False)
            if twin:            # the twin orbits on the first summand, of 3 parts or more
                counts[[0, counts.argmax()]] = counts[[counts.argmax(), 0]]
                counts[0] = max(counts[0], 3)
            bs = sr.block_sum([orbit_set(rng, c, twin and i == 0) for i, c in enumerate(counts)])
            parts[:] = counts.sum()
        w = rng.uniform(0.05, 1.0, size=3)
        if zero is not None:
            w[zero] = 0.0
        rows = int(parts[w > 0.0].sum())
        if factor == "orbit":
            bs = orbit_set(rng, parts[0], twin)
        elif factor == "incidence":
            cells = list(itertools.product(*(range(p) for p in parts)))
            keys = {cells[i] for i in rng.choice(len(cells), rng.integers(1, len(cells) + 1),
                                                 replace=False)}
            keys |= {(0, 0, 0), tuple(int(a == zero) for a in range(3))} if twin else set()
            t = sr.Tensor(*(range(p) for p in parts), dict.fromkeys(keys, 1))
            bs = sr.blocks(t, sr.singleton_partition(t))
        groups = [(key,) for key in bs.blocks] if factor == "incidence" else bs.orbits
        twins = ([(0, 0, 0), tuple(int(a == zero) for a in range(3))] if factor == "incidence"
                 else [(0, 1, 2), (0, 2, 1)])
        prob = _Problem(bs, np.arange(len(bs)) if factor == "incidence" else bs.group)
        n = len(groups)
        inc = np.zeros((3, max(parts), n))
        for g, group in enumerate(groups):
            for key in group:
                inc[range(3), key, g] += 1.0 / len(group)
        lo = rows + 2 if size == "qr" else 1
        hi = rows + 1 if size == "identity" else n
        assume(lo <= hi and n >= lo)
        on = np.zeros(n, bool)
        on[rng.choice(n, rng.integers(lo, min(hi, n) + 1), replace=False)] = True
        if twin:
            on[[g for g, group in enumerate(groups) if group[0] in twins]] = True
        x = np.where(on, 10.0 ** rng.uniform(-3.0, 0.0, size=n), 0.0)
        x /= x.sum()
        marg = np.maximum(inc @ x, MARGINAL_CLAMP)
        h = -sum(wa * (b.T / m) @ b for b, m, wa in zip(inc, marg, w))
        rhs = rng.normal(size=(n, 3))
        step = prob.newton_step(x, prob.marginals(x), w, rhs)
        ref = reference_newton_step(h, on, rhs)
        diagonal_step = rhs[on] / np.abs(np.diag(h)[on])[:, None]
        assert not step[~on].any()
    norm = np.maximum(np.linalg.norm(ref, axis=0), np.linalg.norm(diagonal_step, axis=0))
    assert np.all(np.linalg.norm(step - ref, axis=0) <= 1e-9 * norm)
    assert np.all(np.abs(step.sum(axis=0)) <= 1e-9 * norm)


def check_weights_step(h, r, w, dw):
    """dw is the minimizer of r dw + dw h dw / 2 over sum(dw) = 0 and w +
    dw >= 0: held axes end exactly at weight 0, the free axes' predicted
    values r + h dw are equal, and no held axis predicts a lower value."""
    assert abs(dw.sum()) <= 1e-12
    held = w + dw == 0.0
    pred = r + h @ dw
    free = ~held
    assert free.any() and (w + dw)[free].min() > 0.0
    nu = pred[free].mean()
    scale = 1.0 + np.abs(pred).max()
    assert np.abs(pred[free] - nu).max() <= 1e-9 * scale
    assert pred[held].min(initial=np.inf) >= nu - 1e-9 * scale
    return held


def test_weights_step_holds_an_axis_at_zero():
    """The step with no axis held moves the weight of x by -2/3, which from
    w = (0.1, 0.45, 0.45) would leave the simplex; x is held at 0 exactly,
    and y and z, solved again, split its weight so that their predicted
    values agree."""
    h = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
    r = np.array([1.5, 0.2, 0.0])
    w = np.array([0.1, 0.45, 0.45])
    free = _weights_step(h, r, np.full(3, 10.0))       # weights no step can empty
    assert free == pytest.approx([-2.0 / 3.0, 5.0 / 9.0, 1.0 / 9.0], abs=1e-12)
    dw = _weights_step(h, r, w)
    assert (w + dw)[0] == 0.0
    assert list(check_weights_step(h, r, w, dw)) == [True, False, False]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 2))
def test_weights_step_minimizes_over_the_simplex(seed, zeros):
    """On random positive definite h, values r and weights w (some at 0),
    the step meets the conditions of `check_weights_step`, and no feasible
    step has a lower model value."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(4, 3))
    h = c.T @ c + 1e-3 * np.eye(3)
    r = rng.normal(size=3)
    w = rng.dirichlet(np.ones(3))
    w[rng.choice(3, zeros, replace=False)] = 0.0
    w /= w.sum()
    dw = _weights_step(h, r, w)
    check_weights_step(h, r, w, dw)
    model = lambda d: r @ d + d @ h @ d / 2.0
    for v in rng.dirichlet(np.ones(3), size=50):
        assert model(dw) <= model(v - w) + 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diagonal", [0.0, -1e-3, np.nan])
def test_weights_step_nan_on_a_non_positive_diagonal(diagonal):
    """A diagonal entry of h that is not positive (or NaN) gives a NaN step,
    with no numpy warning, which the max-min reads as no descent."""
    h = np.eye(3)
    h[1, 1] = diagonal
    dw = _weights_step(h, np.array([0.3, 0.1, 0.2]), np.full(3, 1.0 / 3.0))
    assert np.isnan(dw).all()


# -- symmetrize ------------------------------------------------------------------

def test_symmetrize_fixed_point():
    bs = cw_blocks(2)
    opt = sr.maximize_symmetric(bs)
    again = symmetrize(bs, opt.masses)
    for k in bs.keys():
        assert again[k] == pytest.approx(opt.masses.get(k, 0.0), abs=1e-14)


def test_symmetrize_point_mass_on_corner():
    bs = cw_blocks(2)
    sym = symmetrize(bs, {(0, 0, 2): 1.0})
    third = 1.0 / 3.0
    for k in ((0, 0, 2), (0, 2, 0), (2, 0, 0)):
        assert sym[k] == pytest.approx(third, abs=1e-14)
    for k in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        assert sym[k] == 0.0


def test_symmetrize_never_decreases_value():
    rng = random.Random(44)
    for _ in range(50):
        t = random_symmetric_tensor(rng, rng.randint(2, 4))
        p = shared_index_partition(rng, t)
        bs = sr.blocks(t, p)
        if not bs.symmetric:
            continue
        keys = bs.keys()
        w = [rng.random() + 1e-3 for _ in keys]
        tot = sum(w)
        dist = {k: v / tot for k, v in zip(keys, w)}
        geo = sum(objective_values(bs, dist)) / 3.0
        assert geo <= objective_values(bs, symmetrize(bs, dist))[0] + 1e-12
