"""Block distribution objectives and the simplex maximizers."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slicerank as sr
from slicerank.optimizer import (
    MARGINAL_CLAMP,
    BlockDistribution,
    _newton_step,
    objective_values,
)

from helpers import (
    random_partition,
    random_symmetric_tensor,
    random_tensor,
    reference_newton_step,
    shared_index_partition,
)


def cw_blocks(q):
    return sr.blocks(sr.make_cw(q), sr.cw_partition(q))


def cw_small_blocks(q):
    return sr.blocks(sr.make_cw_small(q), sr.cw_small_partition(q))


def axis_data(dist):
    """(block masses d, axis values f_a(d), block gradients of each f_a),
    computed from the partition's part sizes alone; a gradient is +inf on
    blocks of parts without mass."""
    bs = dist.block_set
    keys = sorted(bs.blocks)
    d = np.array([dist.probability(k) for k in keys])
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


def assert_minmax_certified(opt, tol=1e-9):
    """The concavity gap at the returned weights closes on the returned
    distribution: sum_a w_a f_a(d) + max_i g_i - <g, d>, with g the
    gradient of sum_a w_a f_a, bounds the max-min from above and
    min_a f_a(d) bounds it from below."""
    d, f, grads = axis_data(opt.distribution)
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
        dist = BlockDistribution(bs, {k: 1.0 / 3.0 for k in bs.keys()})
        obj = objective_values(dist)
        closed = 3.0 * q ** (2.0 / 3.0) / 2.0 ** (2.0 / 3.0)
        assert abs(obj.x - closed) < 1e-12 * closed
        assert abs(obj.x - obj.y) < 1e-12 and abs(obj.y - obj.z) < 1e-12


def test_point_mass_unit_part():
    bs = cw_blocks(2)
    dist = BlockDistribution(bs, {(0, 0, 2): 1.0})
    obj = objective_values(dist)
    # all three marginals concentrate on singleton parts
    assert obj.x == pytest.approx(1.0, abs=1e-14)
    assert obj.y == pytest.approx(1.0, abs=1e-14)
    assert obj.z == pytest.approx(1.0, abs=1e-14)


def test_cw_corner_only_distribution():
    # all symmetric mass on the corner blocks (v = 1/3): the middle parts
    # get zero marginal, exercising the 0^0 = 1 convention
    bs = cw_blocks(3)
    third = 1.0 / 3.0
    dist = BlockDistribution(
        bs, {(0, 0, 2): third, (0, 2, 0): third, (2, 0, 0): third})
    obj = objective_values(dist)
    want = 3.0 / 2.0 ** (2.0 / 3.0)
    assert abs(obj.x - want) < 1e-12
    assert abs(obj.x - 1.8899) < 1e-4


def test_distribution_validation():
    bs = cw_blocks(1)
    with pytest.raises(ValueError):
        BlockDistribution(bs, {(0, 0, 2): 0.7})
    with pytest.raises(ValueError):
        BlockDistribution(bs, {(1, 1, 1): 1.0})  # nonexistent block
    with pytest.raises(ValueError):
        BlockDistribution(bs, {(0, 0, 2): 1.2, (0, 2, 0): -0.2})


# -- symmetric maximization ----------------------------------------------------

CW_TABLE = {1: 2.7551, 2: 3.57165, 3: 4.34413, 4: 5.07744,
            5: 5.77629, 6: 6.44493, 7: 7.08706, 8: 7.70581}


@pytest.mark.parametrize("q", [1, 2, 5, 8])
def test_maximize_symmetric_cw(q):
    opt = sr.maximize_symmetric(cw_blocks(q))
    assert abs(opt.value - CW_TABLE[q]) < 1e-4
    assert opt.kkt_residual < 1e-8
    assert opt.optimality_gap < 1e-8
    assert opt.distribution.is_symmetric()


def test_maximize_symmetric_cw_small_unique():
    for q in (1, 2, 4):
        opt = sr.maximize_symmetric(cw_small_blocks(q))
        closed = 3.0 * q ** (2.0 / 3.0) / 2.0 ** (2.0 / 3.0)
        assert abs(opt.value - closed) < 1e-9 * closed
        for k in opt.distribution.block_set.keys():
            assert opt.distribution.probability(k) == pytest.approx(1 / 3, abs=1e-12)


def test_maximize_symmetric_rejects_asymmetric():
    t = sr.make_t112(2)
    bs = sr.blocks(t, sr.t112_partition(2))
    with pytest.raises(ValueError):
        sr.maximize_symmetric(bs)


def test_symmetric_certificate_gradients():
    # support gradients equal, off-support not larger
    opt = sr.maximize_symmetric(cw_blocks(4))
    d, _, grads = axis_data(opt.distribution)
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
    mm = sr.maximize_minmax(sr.blocks(t, sr.trivial_partition(t)))
    assert mm.value == pytest.approx(min(6, 12, 8), abs=1e-12)
    # the weights sit on axis x alone
    assert mm.axis_weights == {"x": 1.0, "y": 0.0, "z": 0.0}
    assert mm.active_axes == ("x",)
    assert_minmax_certified(mm)


def cw1_cube_b_part():
    """The blocks of what remove-x bounds on the CW_1 cube: x part 0
    dropped, trimmed, singleton partition."""
    cw = sr.make_cw(1)
    cube = sr.symmetric_cube(cw)
    first = set(sr.cube_partition(cw, sr.cw_partition(1)).parts_x[0][1])
    b = sr.Tensor(cube.x_labels, cube.y_labels, cube.z_labels,
                  {k: c for k, c in cube.entries.items() if k[0] not in first})
    bt = sr.trimmed(b)
    return sr.blocks(bt, sr.singleton_partition(bt))


def test_minmax_cw1_cube_b_part_certified():
    mm = sr.maximize_minmax(cw1_cube_b_part())
    assert abs(mm.log_value - 2.984548001552) < 1e-9
    assert mm.kkt_residual <= 1e-10
    assert_minmax_certified(mm)


def test_minmax_certified_on_random_partitions():
    rng = random.Random(45)
    for _ in range(100):
        t = random_tensor(rng, max_dim=5)
        mm = sr.maximize_minmax(sr.blocks(t, random_partition(rng, t)))
        assert mm.kkt_residual <= 1e-10
        assert_minmax_certified(mm)


def test_minmax_beats_user_distributions():
    rng = random.Random(12)
    bs = cw_blocks(2)
    mm = sr.maximize_minmax(bs)
    keys = bs.keys()
    for _ in range(50):
        w = [rng.random() for _ in keys]
        tot = sum(w)
        dist = BlockDistribution(bs, {k: v / tot for k, v in zip(keys, w)})
        assert mm.value >= objective_values(dist).min_value - 1e-9


def test_minmax_deterministic():
    bs = cw_blocks(3)
    a = sr.maximize_minmax(bs)
    b = sr.maximize_minmax(bs)
    assert a.value == b.value
    assert a.distribution.probs == b.distribution.probs


@pytest.mark.parametrize("q", [15, 18, 19])
def test_symmetric_residual_tq_lower(q):
    t = sr.make_cyclic_lower(q)
    opt = sr.maximize_symmetric(sr.blocks(t, sr.singleton_partition(t)))
    assert opt.kkt_residual <= 1e-10


def test_symmetric_residual_cw2_cube():
    cw = sr.make_cw(2)
    bs = sr.blocks(sr.symmetric_cube(cw), sr.cube_partition(cw, sr.cw_partition(2)))
    opt = sr.maximize_symmetric(bs)
    assert opt.kkt_residual <= 1e-10
    assert abs(opt.value - 3.57165 ** 3) < 1e-2


# -- the Newton step ------------------------------------------------------------


@pytest.mark.parametrize("basis, factor", [
    ("identity", "incidence"), ("qr", "incidence"), ("qr", "general")])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), zero=st.sampled_from([None, 0, 1, 2]))
def test_newton_step_matches_dense_reference(basis, factor, seed, zero):
    """The low-rank step equals the dense bordered step on random 0/1 part
    incidences B_a, masses spanning three orders of magnitude, supports on
    either side of the rows(c) + 1 switch, and axis weights with one
    weight 0 as the max-min dual produces.  In the QR basis a general
    factor (Gaussian rows) also stands in for one whose row space misses
    the constraint row: part incidences contain it, their rows summing
    to 1^T on each axis.

    Agreement is measured against the step's norm, or against |D^2 r|,
    the step for the Hessian's diagonal alone, where the minimum-norm
    step vanishes (one support coordinate, or r the projected Hessian
    cannot see)."""
    rng = np.random.default_rng(seed)
    parts = rng.integers(1, 7, size=3)
    w = rng.uniform(0.05, 1.0, size=3)
    if zero is not None:
        w[zero] = 0.0
    rows = int(parts[w > 0.0].sum())
    k = rng.integers(1, rows + 2) if basis == "identity" else rng.integers(rows + 2, rows + 40)
    n = k + rng.integers(0, 8)
    x = np.zeros(n)
    x[rng.choice(n, k, replace=False)] = 10.0 ** rng.uniform(-3.0, 0.0, size=k)
    x /= x.sum()
    if factor == "general":
        c = rng.normal(size=(rows, n)) / np.sqrt(np.maximum(x, MARGINAL_CLAMP))
        h = -(c.T @ c)
    else:
        inc = []
        for p in parts:
            b = np.zeros((p, n))
            b[rng.integers(p, size=n), np.arange(n)] = 1.0
            inc.append(b)
        marg = [np.maximum(b @ x, MARGINAL_CLAMP) for b in inc]
        c = np.vstack([b * np.sqrt(wa / m)[:, None] for b, m, wa in zip(inc, marg, w) if wa > 0.0])
        h = -sum(wa * (b.T / m) @ b for b, m, wa in zip(inc, marg, w))
    assert len(c) == rows and (k > rows + 1) == (basis == "qr")
    on = x > 0.0
    rhs = rng.normal(size=(n, 3))
    step = _newton_step(c, on, rhs)
    ref = reference_newton_step(h, on, rhs)
    diagonal_step = rhs[on] / np.abs(np.diag(h)[on])[:, None]
    norm = np.maximum(np.linalg.norm(ref, axis=0), np.linalg.norm(diagonal_step, axis=0))
    assert np.all(np.linalg.norm(step - ref, axis=0) <= 1e-9 * norm)
    assert not step[~on].any()
    assert np.all(np.abs(step.sum(axis=0)) <= 1e-9 * norm)


# -- symmetrize ------------------------------------------------------------------

def test_symmetrize_fixed_point():
    bs = cw_blocks(2)
    opt = sr.maximize_symmetric(bs)
    again = sr.symmetrize(opt.distribution)
    for k in bs.keys():
        assert again.probability(k) == pytest.approx(
            opt.distribution.probability(k), abs=1e-14)


def test_symmetrize_point_mass_on_corner():
    bs = cw_blocks(2)
    dist = BlockDistribution(bs, {(0, 0, 2): 1.0})
    sym = sr.symmetrize(dist)
    third = 1.0 / 3.0
    for k in ((0, 0, 2), (0, 2, 0), (2, 0, 0)):
        assert sym.probability(k) == pytest.approx(third, abs=1e-14)
    for k in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        assert sym.probability(k) == 0.0


def test_symmetrize_never_decreases_value():
    rng = random.Random(44)
    for _ in range(50):
        t = random_symmetric_tensor(rng, rng.randint(2, 4))
        p = shared_index_partition(rng, t)
        if not sr.is_t_symmetric_partition(t, p):
            continue
        bs = sr.blocks(t, p)
        keys = bs.keys()
        w = [rng.random() + 1e-3 for _ in keys]
        tot = sum(w)
        dist = BlockDistribution(bs, {k: v / tot for k, v in zip(keys, w)})
        obj = objective_values(dist)
        sym_obj = objective_values(sr.symmetrize(dist))
        geo = (obj.log_x + obj.log_y + obj.log_z) / 3.0
        assert geo <= sym_obj.log_x + 1e-12
