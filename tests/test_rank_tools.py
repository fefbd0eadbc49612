"""Flattening ranks, measures, and matmul recognition."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import slicerank as sr
from slicerank import rank_tools
from slicerank.tensor_core import Tensor

from helpers import is_matmul_by_search, oracle_rank, random_tensor, scramble


@pytest.mark.parametrize("a,b,c", [(1, 1, 1), (2, 3, 4), (3, 3, 3), (1, 4, 2)])
def test_matmul_flattening_ranks(a, b, c):
    t = sr.make_matmul(a, b, c)
    assert sr.x_rank(t) == a * b
    assert sr.y_rank(t) == b * c
    assert sr.z_rank(t) == c * a


@pytest.mark.parametrize("q", [1, 3, 5])
def test_independent_ranks(q):
    t = sr.make_independent(q)
    assert sr.x_rank(t) == sr.y_rank(t) == sr.z_rank(t) == q
    assert oracle_rank(t, "x") == q
    rows = sr.flattening(t, "x")
    assert len(rows) == q and all(col < q * q for row in rows for col in row)
    assert rows == [{i * q + i: 1} for i in range(q)]


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_cw_ranks(q):
    t = sr.make_cw(q)
    assert sr.x_rank(t) == q + 2
    assert oracle_rank(t, "x") == q + 2


def test_cw_small_rank():
    t = sr.make_cw_small(2)
    assert sr.x_rank(t) == 3
    assert oracle_rank(t, "x") == 3


def test_rank_against_oracles_random():
    rng = random.Random(101)
    for _ in range(100):
        t = random_tensor(rng, max_dim=4)
        for axis in "xyz":
            assert sr.flattening_rank(t, axis) == oracle_rank(t, axis)


def test_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(55)
    from helpers import flattening_dense
    for _ in range(15):
        t = random_tensor(rng, max_dim=3)
        rows = flattening_dense(t, "x")
        mat = sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])
        assert sr.x_rank(t) == mat.rank()


def test_max_flattening_rank():
    assert sr.max_flattening_rank(sr.make_independent(4)) == 4
    assert sr.max_flattening_rank(sr.make_matmul(2, 3, 4)) == 12
    assert sr.max_flattening_rank(sr.make_cw(2)) == 4


@pytest.mark.parametrize("t,mu", [
    (sr.make_independent(3), 27),
    (sr.make_cw(2), 64),
    (sr.make_t112(2), 96),
])
def test_measure(t, mu):
    assert sr.measure(t) == mu


def test_measure_trims():
    from slicerank.tensor_core import Tensor
    t = Tensor(range(5), range(2), range(2), {(0, 0, 0): 1, (1, 1, 1): 1})
    assert sr.measure(t) == 2 * 2 * 2


def test_slice_rank_flattening_bound():
    assert sr.slice_rank_flattening_bound(sr.make_matmul(2, 3, 4)) == 6
    assert sr.slice_rank_flattening_bound(sr.make_independent(4)) == 4
    assert sr.slice_rank_flattening_bound(sr.make_cw(1)) == 3


# -- recognition ---------------------------------------------------------------

@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (1, 1, 5), (2, 2, 2),
                                  (4, 1, 2)])
def test_recognize_matmul_scrambled(dims):
    rng = random.Random(sum(dims))
    for _ in range(10):
        t = scramble(sr.make_matmul(*dims), rng)
        w = sr.recognize_matmul(t)
        assert w is not None and (w.a, w.b, w.c) == dims


def test_recognize_rotation():
    w = sr.recognize_matmul(sr.rotate(sr.make_matmul(2, 3, 4)))
    assert (w.a, w.b, w.c) == (3, 4, 2)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 1)])
def test_recognize_no_entries(shape):
    """An empty entry map is no matmul tensor, whatever its shape."""
    assert rank_tools._recognize({}, shape) is None


def test_recognize_rejects_non_matmul():
    for q in (1, 2, 3):
        assert sr.recognize_matmul(sr.make_cw(q)) is None
    assert sr.recognize_matmul(sr.make_cw_small(2)) is None
    assert sr.recognize_matmul(sr.make_t112(2)) is None
    # sized like <2,2,2> with 2 rows, 2 columns and 2 depths by partner
    # sets, yet two terms share a cell (the first), or a y resp. z variable
    # gets two coordinates as well
    for terms in ([(0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 3, 3),
                   (2, 0, 3), (2, 3, 0), (3, 1, 2), (3, 2, 1)],
                  [(0, 3, 3), (1, 0, 1), (1, 1, 1), (1, 2, 1),
                   (1, 3, 0), (1, 3, 2), (2, 3, 3), (3, 3, 3)],
                  [(0, 0, 2), (0, 1, 2), (0, 2, 2), (1, 3, 2),
                   (2, 3, 0), (2, 3, 1), (2, 3, 3), (3, 3, 2)]):
        assert sr.recognize_matmul(Tensor(range(4), range(4), range(4),
                                          dict.fromkeys(terms, 1))) is None


def test_recognize_cw_blocks():
    q = 3
    bs = sr.blocks(sr.make_cw(q), sr.cw_partition(q))
    expect = {(0, 0, 2): (1, 1, 1), (0, 2, 0): (1, 1, 1), (2, 0, 0): (1, 1, 1),
              (0, 1, 1): (1, 1, q), (1, 0, 1): (q, 1, 1), (1, 1, 0): (1, q, 1)}
    for key, dims in expect.items():
        w = sr.recognize_matmul(bs[key])
        assert (w.a, w.b, w.c) == dims


def test_recognize_handles_sign_scalings():
    from fractions import Fraction
    from slicerank.tensor_core import Tensor
    t = sr.make_matmul(2, 1, 2)
    entries = dict(t.entries)
    # flip the sign of one x variable's row: fixable by scaling
    for key in list(entries):
        if key[0] == 0:
            entries[key] = Fraction(-1)
    w = sr.recognize_matmul(Tensor(t.x_labels, t.y_labels, t.z_labels, entries))
    assert w is not None and (w.a, w.b, w.c) == (2, 1, 2)


def test_recognize_rejects_unscalable_coefficients():
    from fractions import Fraction
    from slicerank.tensor_core import Tensor
    t = sr.make_matmul(2, 2, 2)
    entries = dict(t.entries)
    # a single flipped term in <2,2,2> is not a coboundary
    entries[(0, 0, 0)] = Fraction(-1)
    assert sr.recognize_matmul(
        Tensor(t.x_labels, t.y_labels, t.z_labels, entries)) is None


@pytest.mark.parametrize("c", [Fraction(-3, 2), 5])
def test_recognize_constant_coefficients(c):
    """A matmul tensor with one coefficient c throughout (both sides of
    every cell identity are c^4) is recognized with the unit tensor's
    witness."""
    t = scramble(sr.make_matmul(2, 2, 2), random.Random(7))
    scaled = Tensor(t.x_labels, t.y_labels, t.z_labels, dict.fromkeys(t.entries, c))
    assert sr.recognize_matmul(scaled) == sr.recognize_matmul(t) is not None


def random_scale(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.tuples(*[st.integers(1, 3)] * 3))
def test_recognize_scaled_matmul(seed, dims):
    """A relabeled <a,b,c> with random rational scalings of every variable
    is recognized.  One coefficient changed by a factor other than 1 is
    rejected when every dimension is at least 2 (the cell identity at a
    cell with no zero coordinate that shares the changed cell's nonzero
    coordinates holds the changed cell once), and accepted when some
    dimension is 1 (the identity then holds for any coefficients)."""
    rng = random.Random(seed)
    t = scramble(sr.make_matmul(*dims), rng)
    sx, sy, sz = ([random_scale(rng) for _ in range(n)] for n in t.shape)
    entries = {(i, j, k): c * sx[i] * sy[j] * sz[k] for (i, j, k), c in t.entries.items()}
    scaled = Tensor(t.x_labels, t.y_labels, t.z_labels, entries)
    w = sr.recognize_matmul(scaled)
    assert w is not None and (w.a, w.b, w.c) == dims
    factor = random_scale(rng)
    if factor == 1:
        factor = Fraction(-1)
    cell = rng.choice(sorted(entries))
    entries[cell] *= factor
    w = sr.recognize_matmul(Tensor(t.x_labels, t.y_labels, t.z_labels, entries))
    if min(dims) >= 2:
        assert w is None
    else:
        assert w is not None and (w.a, w.b, w.c) == dims


def test_recognize_requires_minimal():
    from slicerank.tensor_core import Tensor
    t = sr.make_matmul(2, 2, 2)
    padded = Tensor(range(5), t.y_labels, t.z_labels, t.entries)
    assert sr.recognize_matmul(padded) is None


def test_matmul_witness_lines_up():
    rng = random.Random(11)
    for _ in range(200):
        dims = tuple(rng.randint(1, 3) for _ in range(3))
        a, b, c = dims
        t = scramble(sr.make_matmul(*dims), rng)
        w = sr.recognize_matmul(t)
        assert w is not None and (w.a, w.b, w.c) == dims
        for coords, n1, n2 in ((w.x_coords, a, b), (w.y_coords, b, c),
                               (w.z_coords, c, a)):
            assert sorted(coords.values()) == [(u, v) for u in range(n1)
                                               for v in range(n2)]
        for (i, j, k) in t.entries:
            r, s = w.x_coords[i]
            s2, d = w.y_coords[j]
            d2, r2 = w.z_coords[k]
            assert (s, d, r) == (s2, d2, r2)


def perturbed_matmuls(rng, dims):
    """Relabeled <a,b,c> and copies with one term moved, dropped or added."""
    t = scramble(sr.make_matmul(*dims), rng)
    nx, ny, nz = t.shape
    cells = [(i, j, k) for i in range(nx) for j in range(ny) for k in range(nz)]
    free = [cell for cell in cells if cell not in t.entries]
    terms = sorted(t.entries)
    out = [t]
    for _ in range(10):
        drop = rng.choice(terms)
        variants = [{key: 1 for key in terms if key != drop}]
        if free:
            add = rng.choice(free)
            variants += [{**t.entries, add: 1}, {**variants[0], add: 1}]
        out += [Tensor(t.x_labels, t.y_labels, t.z_labels, e) for e in variants if e]
    return out


def test_recognize_matmul_matches_search():
    rng = random.Random(5)
    seen = set()
    for dims in itertools.product((1, 2), repeat=3):
        for t in perturbed_matmuls(rng, dims):
            w = sr.recognize_matmul(t)
            found = is_matmul_by_search(t, *dims)
            assert (w is not None and (w.a, w.b, w.c) == dims) == found
            seen.add(found)
    assert seen == {True, False}
