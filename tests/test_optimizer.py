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
from slicerank.optimizer import (
    MARGINAL_CLAMP,
    NOISE,
    _newton_step,
    _Problem,
    objective_values,
)

from helpers import (
    random_partition,
    random_symmetric_tensor,
    random_tensor,
    reference_newton_step,
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


def remove_x_b_part(t, p):
    """The blocks of what remove-x bounds on t under p: x part 0 dropped,
    trimmed, singleton partition."""
    b = sr.trimmed(sr.Tensor(t.x_labels, t.y_labels, t.z_labels,
                             {k: c for k, c in t.entries.items() if p.where[0][k[0]][0] != 0}))
    return sr.blocks(b, sr.singleton_partition(b))


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
    # count (18 when every trial of the weights ran an inner solve to TOL)
    assert mm.iterations == 8
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
    assert mm.iterations == 8
    assert mm.log_value == pytest.approx(3.785454180742906, rel=1e-12)
    assert peak < 4e6
    assert_minmax_certified(bs, mm)


def test_minmax_basis_once_per_support_and_axes(monkeypatch):
    """On the CW_2 cube's B the max-min asks `newton_step` for one-column
    (inner) and four-column (joint) right-hand sides; the span basis, one
    eigh, is computed once per support and set of active axes, whatever
    the number of columns."""
    keys, columns, eighs = set(), set(), []
    eigh, step = np.linalg.eigh, _Problem.newton_step

    def recorded(self, x, m, w, rhs):
        keys.add(((x > 0.0).tobytes(), tuple(w > 0.0)))
        columns.add(rhs.shape[1])
        return step(self, x, m, w, rhs)

    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    monkeypatch.setattr(_Problem, "newton_step", recorded)
    mm = sr.maximize_minmax(cube_b_part(2))
    assert mm.kkt_residual <= 1e-10
    assert columns == {1, 4}
    assert len(eighs) == len(keys)


def test_minmax_cw4_remove_x_b_part_converges():
    """B of remove-x on CW_4 has all three axes tied at log 4; dropping
    coordinates at every boundary step and regrowing them from GROW_MASS
    stalled it at the step cap with residual 6e-8."""
    bs = cw_b_part(4)
    mm = sr.maximize_minmax(bs)
    assert mm.iterations <= 100
    assert mm.kkt_residual <= 1e-10
    assert mm.value == pytest.approx(4.0, rel=1e-9)
    assert_minmax_certified(bs, mm)


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
    """On B of remove-x on the cube of this 2x3x3 tensor, a weight left at
    2e-18 makes the weights' Newton system NaN.  The nested step then
    takes the Frank-Wolfe step, so the solver returns (with a residual the
    command line reports) instead of raising IndexError on NaN weights."""
    t = sr.Tensor(range(2), range(3), range(3),
                  dict.fromkeys([(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 2, 0)], 1))
    p = sr.VariablePartition([("0", [1]), ("1", [0])], [("0", [0]), ("1", [1, 2])],
                             [("0", [0, 1, 2])], t.shape)
    bs = remove_x_b_part(sr.symmetric_cube(t), sr.cube_partition(t, p))
    mm = sr.maximize_minmax(bs)
    w = np.array(list(mm.axis_weights.values()))
    assert np.isfinite(w).all() and w.min() >= 0.0 and abs(w.sum() - 1.0) < 1e-12
    if mm.kkt_residual <= 1e-10:
        assert_minmax_certified(bs, mm)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), singletons=st.booleans())
def test_minmax_certified_on_random_tensors(seed, singletons):
    """The max-min certifies on random tensors under random and singleton
    partitions, where the joint step on masses and weights is tried and
    nearly always leaves a simplex, so the nested weight step takes over."""
    rng = random.Random(seed)
    t = random_tensor(rng, max_dim=6)
    bs = sr.blocks(t, sr.singleton_partition(t) if singletons else random_partition(rng, t))
    mm = sr.maximize_minmax(bs)
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


# The Newton steps of the tq-lower table rows q = 2..16 and of q = 18, 19,
# pinned, like the CW_1-cube count above.
TQ_LOWER_STEPS = dict(zip(range(2, 20), [0, 3, 4, 4, 4, 4, 4] + [5] * 11))


@pytest.mark.parametrize("q", [15, 18, 19] + [q for q in range(2, 17) if q != 15])
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       weights=st.sampled_from(["product", "x only", "random"]))
@example(seed=1290, weights="random")
@example(seed=681, weights="product")
def test_boundary_steps_keep_the_edge_value(seed, weights):
    """On random block sets `_solve` certifies (gap <= 1e-9), and a step
    that meets the simplex boundary is accepted at an F no lower than at
    its edge trial, the point where the first coordinates reach zero."""
    rng = random.Random(seed)
    t = random_tensor(rng, max_dim=5)
    prob = _Problem(sr.blocks(t, random_partition(rng, t)))
    w = {"product": np.ones(3), "x only": np.array([1.0, 0.0, 0.0]),
         "random": np.array([rng.uniform(0.1, 1.0) for _ in range(3)])}[weights]
    steps, trials = [], optimizer._trials

    def recorded(v, dv, start=None):
        if start is None:                    # `_line_start` reading the edge trial
            return trials(v, dv)
        steps.append((v, dv, list(trials(v, dv, start))))
        return iter(steps[-1][2])

    with mock.patch.object(optimizer, "_trials", recorded):
        x, m, _, _ = optimizer._solve(prob, w)
    g = prob.grads(m) @ w
    assert g.max() - g @ x <= 1e-9
    big_f = lambda v: w @ prob.values(prob.marginals(v))
    for v, dv, tried in steps:
        f0 = big_f(v)
        accepted = next((u for u in tried if big_f(u) >= f0 - NOISE * abs(f0)), None)
        if accepted is not None and (v[dv < 0.0] / -dv[dv < 0.0]).min(initial=1.0) < 1.0:
            edge = big_f(next(trials(v, dv)))
            assert big_f(accepted) >= edge - NOISE * abs(edge)


def test_symmetric_span_basis_uses_one_axis(monkeypatch):
    """On orbit masses the three axes' incidence rows are equal, so the
    symmetric solve's Gram matrix holds the P rows of one axis."""
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    t = sr.make_cyclic_lower(15)
    bs = sr.blocks(t, sr.singleton_partition(t))
    sr.maximize_symmetric(bs)
    parts = bs.partition.part_count("x")
    assert shapes and set(shapes) == {(parts, parts)}


def test_symmetric_residual_cw2_cube():
    cw = sr.make_cw(2)
    bs = sr.blocks(sr.symmetric_cube(cw), sr.cube_partition(cw, sr.cw_partition(2)))
    opt = sr.maximize_symmetric(bs)
    assert opt.kkt_residual <= 1e-10
    assert abs(opt.value - 3.57165 ** 3) < 1e-2


# -- the Newton step ------------------------------------------------------------


@pytest.mark.parametrize("size, factor", [
    ("identity", "incidence"), ("qr", "incidence"), ("qr", "general"),
    ("identity", "orbit"), ("qr", "orbit")])
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
    singular even on small supports.  The general factor drives the
    dense step of the max-min weights instead, on h = c^T c for Gaussian
    c, its diagonal spread over three orders of magnitude.

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
        step, ref = _newton_step(h, rhs), reference_newton_step(-h, np.ones(k, bool), rhs)
        diagonal_step = rhs / np.diag(h)[:, None]
    else:
        if twin and zero is None:
            zero = int(rng.integers(3))
        parts = rng.integers(1, 7, size=3)
        if factor == "orbit":
            parts[:] = max(parts[0], 3 if twin else 1)
        elif twin:
            parts[zero] = max(parts[zero], 2)
        w = rng.uniform(0.05, 1.0, size=3)
        if zero is not None:
            w[zero] = 0.0
        rows = int(parts[w > 0.0].sum())
        cells = list(itertools.product(*(range(p) for p in parts)))
        keys = {cells[i] for i in rng.choice(len(cells), rng.integers(1, len(cells) + 1), replace=False)}
        twins = [(0, 1, 2), (0, 2, 1)] if factor == "orbit" else [
            (0, 0, 0), tuple(int(a == zero) for a in range(3))]
        keys |= set(twins) if twin else set()
        if factor == "orbit":
            keys |= {(j, k, i) for (i, j, k) in keys} | {(k, i, j) for (i, j, k) in keys}
        t = sr.Tensor(*(range(p) for p in parts), dict.fromkeys(keys, 1))
        bs = sr.blocks(t, sr.singleton_partition(t))
        groups = bs.orbits if factor == "orbit" else [(key,) for key in sorted(keys)]
        prob = _Problem(bs, groups)
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
