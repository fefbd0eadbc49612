"""Block distribution objectives and the simplex maximizers."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slicerank as sr
from slicerank.optimizer import (
    MARGINAL_CLAMP,
    _newton_step,
    _span_basis,
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
    bs = cw1_cube_b_part()
    mm = sr.maximize_minmax(bs)
    assert abs(mm.log_value - 2.984548001552) < 1e-9
    # pinned: a different step would change the Newton path, and with it this count
    assert mm.iterations == 18
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


@pytest.mark.parametrize("q", [15, 18, 19])
def test_symmetric_residual_tq_lower(q):
    t = sr.make_cyclic_lower(q)
    opt = sr.maximize_symmetric(sr.blocks(t, sr.singleton_partition(t)))
    assert opt.kkt_residual <= 1e-10
    assert opt.iterations == 5  # pinned, like the CW_1-cube count above


def test_symmetric_span_basis_uses_one_axis(monkeypatch):
    """On orbit masses the three axes' incidence rows are equal, so the
    symmetric solve factors the P rows of one axis plus the ones row."""
    from slicerank import optimizer
    rows = []
    basis = optimizer._span_basis
    monkeypatch.setattr(optimizer, "_span_basis",
                        lambda r: rows.append(len(r) + 1) or basis(r))
    t = sr.make_cyclic_lower(15)
    bs = sr.blocks(t, sr.singleton_partition(t))
    sr.maximize_symmetric(bs)
    parts = bs.partition.part_count("x")
    assert rows and set(rows) == {parts + 1}


def test_symmetric_residual_cw2_cube():
    cw = sr.make_cw(2)
    bs = sr.blocks(sr.symmetric_cube(cw), sr.cube_partition(cw, sr.cw_partition(2)))
    opt = sr.maximize_symmetric(bs)
    assert opt.kkt_residual <= 1e-10
    assert abs(opt.value - 3.57165 ** 3) < 1e-2


# -- the Newton step ------------------------------------------------------------


@pytest.mark.parametrize("basis, factor", [
    ("identity", "incidence"), ("qr", "incidence"), ("qr", "general"),
    ("identity", "orbit"), ("qr", "orbit")])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), zero=st.sampled_from([None, 0, 1, 2]),
       twin=st.booleans())
def test_newton_step_matches_dense_reference(basis, factor, seed, zero, twin):
    """The step in the range basis equals the dense bordered step on random
    0/1 part incidences B_a, masses spanning three orders of magnitude,
    supports on either side of rows(c) + 1 ("identity": at most, "qr":
    more), and axis weights with one weight 0 as the max-min dual
    produces.  The step gets its basis from the incidence rows of the
    axes with w_a > 0, as `_Problem.basis` does, or from c itself for a
    general factor (Gaussian rows, whose row space misses the constraint
    row that part incidences contain).  Orbit factors are the incidences
    of rotation orbits, with shares 1/3 and 2/3 and the three axes' rows
    equal, so their span has rank at most parts + 1.  With `twin`, two
    support coordinates share their incidence column, which makes the
    bordered system singular even on small supports.

    Agreement is measured against the step's norm, or against |D^2 r|,
    the step for the Hessian's diagonal alone, where the minimum-norm
    step vanishes (one support coordinate, or r the projected Hessian
    cannot see)."""
    rng = np.random.default_rng(seed)
    parts = rng.integers(1, 7, size=3)
    w = rng.uniform(0.05, 1.0, size=3)
    if zero is not None:
        w[zero] = 0.0
    if factor == "orbit":
        parts[:] = parts[0]
    rows = int(parts[w > 0.0].sum())
    k = rng.integers(1, rows + 2) if basis == "identity" else rng.integers(rows + 2, rows + 40)
    n = k + rng.integers(0, 8)
    x = np.zeros(n)
    support = rng.choice(n, k, replace=False)
    x[support] = 10.0 ** rng.uniform(-3.0, 0.0, size=k)
    x /= x.sum()
    on = x > 0.0
    if factor == "general":
        c = rng.normal(size=(rows, n)) / np.sqrt(np.maximum(x, MARGINAL_CLAMP))
        if twin and k > 1:
            c[:, support[1]] = c[:, support[0]]
        h = -(c.T @ c)
        u = _span_basis(c[:, on])
    else:
        if factor == "orbit":
            # orbit {(i,j,k), (j,k,i), (k,i,j)} puts 1/3 on each of parts i, j, k
            b = np.zeros((parts[0], n))
            np.add.at(b, (rng.integers(parts[0], size=(3, n)), np.arange(n)), 1.0 / 3.0)
            inc = [b] * 3
        else:
            inc = []
            for p in parts:
                b = np.zeros((p, n))
                b[rng.integers(p, size=n), np.arange(n)] = 1.0
                inc.append(b)
        if twin and k > 1:
            for b in inc:
                b[:, support[1]] = b[:, support[0]]
        marg = [np.maximum(b @ x, MARGINAL_CLAMP) for b in inc]
        c = np.vstack([b * np.sqrt(wa / m)[:, None] for b, m, wa in zip(inc, marg, w) if wa > 0.0])
        h = -sum(wa * (b.T / m) @ b for b, m, wa in zip(inc, marg, w))
        u = _span_basis(np.vstack([b[:, on] for b, wa in zip(inc, w) if wa > 0.0]))
    assert len(c) == rows and (k > rows + 1) == (basis == "qr")
    assert (u is None) == (np.linalg.matrix_rank(np.vstack([c[:, on], np.ones(k)])) == k)
    if twin and k > 1:
        assert u is not None
    rhs = rng.normal(size=(n, 3))
    step = _newton_step(c, on, rhs, u)
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
