"""Randomized property suite; every block runs on >= 200 seeded cases."""

import math
import random

import numpy as np
import pytest

import slicerank as sr
from slicerank.optimizer import objective_values

from helpers import (
    random_partition,
    random_symmetric_tensor,
    random_tensor,
    shared_index_partition,
    symmetrize,
)

CASES = 200


def test_flattening_rank_kronecker_multiplicativity():
    rng = random.Random(1001)
    for _ in range(CASES):
        a = random_tensor(rng, max_dim=3)
        b = random_tensor(rng, max_dim=3)
        prod = sr.tensor_product(a, b)
        assert sr.x_rank(prod) == sr.x_rank(a) * sr.x_rank(b)


def test_rank_rotation_relations():
    rng = random.Random(1002)
    for _ in range(CASES):
        t = random_tensor(rng, max_dim=4)
        r = sr.rotate(t)
        assert sr.x_rank(r) == sr.y_rank(t)
        assert sr.y_rank(r) == sr.z_rank(t)
        assert sr.z_rank(r) == sr.x_rank(t)


def test_flattening_rank_subadditivity():
    rng = random.Random(1003)
    from slicerank.tensor_core import Tensor
    for _ in range(CASES):
        a = random_tensor(rng, max_dim=3)
        nx, ny, nz = a.shape
        entries = {}
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    if rng.random() < 0.4:
                        entries[(i, j, k)] = rng.choice((-2, -1, 1, 2))
        b = Tensor(a.x_labels, a.y_labels, a.z_labels, entries)
        s = sr.tensor_add(a, b)
        assert sr.x_rank(s) <= sr.x_rank(a) + sr.x_rank(b)


def test_block_reconstruction():
    rng = random.Random(1004)
    for _ in range(CASES):
        t = random_tensor(rng, max_dim=4)
        p = random_partition(rng, t)
        parts = sr.tensor_core.split_by_blocks(t, p)
        acc = None
        for part in parts.values():
            acc = part if acc is None else sr.tensor_add(acc, part)
        assert acc.entries == t.entries


def test_rotate_three_times_identity():
    rng = random.Random(1005)
    for _ in range(CASES):
        t = random_tensor(rng, max_dim=4)
        assert sr.rotate(sr.rotate(sr.rotate(t))) == t


def test_measure_multiplicative():
    # entry keys of a product are in bijection with entry pairs, so no
    # cancellation occurs and products of minimal tensors stay minimal
    rng = random.Random(1006)
    for _ in range(CASES):
        a = random_tensor(rng, max_dim=3)
        b = random_tensor(rng, max_dim=3)
        assert sr.measure(sr.tensor_product(a, b)) == sr.measure(a) * sr.measure(b)


def test_log_objective_concavity():
    rng = random.Random(1007)
    checked = 0
    while checked < CASES:
        t = random_tensor(rng, max_dim=4)
        p = random_partition(rng, t)
        bs = sr.blocks(t, p)
        keys = bs.keys()
        if len(keys) < 2:
            continue

        def rand_dist():
            w = [rng.random() + 1e-6 for _ in keys]
            tot = sum(w)
            return {k: v / tot for k, v in zip(keys, w)}

        d1, d2 = rand_dist(), rand_dist()
        lam = rng.random()
        mix = {k: lam * d1[k] + (1 - lam) * d2[k] for k in keys}
        f = lambda d: objective_values(bs, d)[0]
        assert f(mix) >= lam * f(d1) + (1 - lam) * f(d2) - 1e-12
        checked += 1


def test_entropy_power_grid_inequality():
    # a^a b^b c^c >= d^(3d) with d = (a+b+c)/3, on a 50^3 grid over [0,1]
    grid = np.linspace(0.0, 1.0, 50)

    def xlx(t):
        return np.where(t > 0, t * np.log(np.maximum(t, 1e-300)), 0.0)

    a = grid[:, None, None]
    b = grid[None, :, None]
    c = grid[None, None, :]
    d = (a + b + c) / 3.0
    lhs = xlx(a) + xlx(b) + xlx(c)
    rhs = 3.0 * xlx(d)
    assert np.all(lhs >= rhs - 1e-12)


def test_flattening_bound_per_axis_sizes():
    rng = random.Random(1010)
    for _ in range(CASES):
        t = random_tensor(rng, max_dim=4)
        assert sr.slice_rank_flattening_bound(t) <= min(t.shape)


def test_axis_value_bounded_by_axis_size():
    # value_x <= |X| always, with equality iff the marginals are
    # proportional to the part sizes
    rng = random.Random(1011)
    for _ in range(CASES):
        t = random_tensor(rng, max_dim=4)
        p = random_partition(rng, t)
        bs = sr.blocks(t, p)
        keys = bs.keys()
        w = [rng.random() + 1e-9 for _ in keys]
        tot = sum(w)
        dist = {k: v / tot for k, v in zip(keys, w)}
        value_x = math.exp(objective_values(bs, dist)[0])
        nx = t.shape[0]
        assert value_x <= nx * (1 + 1e-12)
        sizes = p.part_sizes("x")
        marg = [0.0] * len(sizes)
        for k, mass in dist.items():
            marg[k[0]] += mass
        proportional = all(abs(m - s / nx) < 1e-9 for m, s in zip(marg, sizes))
        if proportional:
            assert value_x == pytest.approx(nx, rel=1e-9)
        elif max(abs(m - s / nx) for m, s in zip(marg, sizes)) > 1e-3:
            assert value_x < nx - 1e-12


def test_symmetric_distributions_equal_axis_values():
    rng = random.Random(1008)
    checked = 0
    while checked < CASES:
        t = random_symmetric_tensor(rng, rng.randint(2, 4))
        p = shared_index_partition(rng, t)
        bs = sr.blocks(t, p)
        if not bs.symmetric:
            continue
        orbits = sr.block_orbits(bs)
        masses = [rng.random() + 1e-6 for _ in orbits]
        tot = sum(m * len(o) for m, o in zip(masses, orbits))
        probs = {}
        for m, orbit in zip(masses, orbits):
            for k in orbit:
                probs[k] = m / tot
        vx, vy, vz = map(math.exp, objective_values(bs, probs))
        assert abs(vx - vy) < 1e-10
        assert abs(vy - vz) < 1e-10
        checked += 1


def test_symmetrization_inequality():
    rng = random.Random(1009)
    checked = 0
    while checked < CASES:
        t = random_symmetric_tensor(rng, rng.randint(2, 4))
        p = shared_index_partition(rng, t)
        bs = sr.blocks(t, p)
        if not bs.symmetric:
            continue
        keys = bs.keys()
        w = [rng.random() + 1e-6 for _ in keys]
        tot = sum(w)
        dist = {k: v / tot for k, v in zip(keys, w)}
        logs = objective_values(bs, dist)
        sym_x = objective_values(bs, symmetrize(bs, dist))[0]
        assert sum(logs) / 3.0 <= sym_x + 1e-12
        # the symmetrized distribution therefore never decreases the min
        assert min(logs) <= sym_x + 1e-12
        checked += 1
