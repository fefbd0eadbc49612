"""Tensor constructors, algebra, partitions, and text formats."""

import itertools
import random
import time
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import slicerank as sr
from slicerank.degeneration import DegenerationMap, LambdaPoly
from slicerank.formats import ParseError, parse_degeneration_map
from slicerank.tensor_core import PartitionError, Tensor

from helpers import (ROUND_TRIPS, block_entries, random_index_partition, random_partition,
                     random_symmetric_tensor, random_tensor, reference_blocks,
                     reference_coefficient, reference_orbits,
                     reference_parse_tensor, reference_restriction, reference_rotation_orbits,
                     reference_symmetric_cube, reference_t_symmetric_partition,
                     reference_tensor_product, reference_variable_symmetric,
                     shared_index_partition)

# halves, thirds and quarters multiply with 2, 3 and 4 to integral values
PRODUCT_COEFFS = [-2, -1, 1, 2, 3, 4, Fraction(1, 2), Fraction(-3, 2),
                  Fraction(2, 3), Fraction(1, 4)]


@st.composite
def small_tensors(draw, max_entries=8):
    shape = [draw(st.integers(1, 3)) for _ in range(3)]
    entries = draw(st.dictionaries(
        st.tuples(*(st.integers(0, n - 1) for n in shape)),
        st.sampled_from(PRODUCT_COEFFS), min_size=1, max_size=max_entries))
    return Tensor(*(range(n) for n in shape), entries)


def assert_integer_first(t):
    assert all(type(c) is int or c.denominator != 1 for c in t.entries.values())


# -- constructors -----------------------------------------------------------

@pytest.mark.parametrize("a,b,c", [(1, 1, 1), (2, 2, 2), (2, 3, 4), (1, 1, 5)])
def test_matmul_counts(a, b, c):
    t = sr.make_matmul(a, b, c)
    assert t.shape == (a * b, b * c, c * a)
    assert len(t.entries) == a * b * c
    assert all(coef == 1 for coef in t.entries.values())
    # labels carry the index pairs
    assert t.x_labels[0] == (0, 0)
    # oracle: enumerate the defining triple loop directly
    expected = {(i * b + j, j * c + k, k * a + i)
                for i in range(a) for j in range(b) for k in range(c)}
    assert set(t.entries) == expected


def test_matmul_identity_case():
    assert sr.make_matmul(1, 1, 1).entries == {(0, 0, 0): 1}


def test_independent():
    t = sr.make_independent(3)
    assert t.shape == (3, 3, 3)
    assert set(t.entries) == {(i, i, i) for i in range(3)}
    assert sr.make_independent(1).entries == sr.make_matmul(1, 1, 1).entries


@pytest.mark.parametrize("q,entries", [(0, 3), (2, 9), (5, 18)])
def test_cw_counts(q, entries):
    t = sr.make_cw(q)
    assert t.shape == (q + 2, q + 2, q + 2)
    assert len(t.entries) == entries == 3 * q + 3
    fact = t.rank_fact()
    assert fact.value == q + 2 and fact.exact


def test_cw_twisted():
    t = sr.make_cw(2, sigma=(2, 1))
    assert len(t.entries) == 9
    # direct expansion: middle wiring goes through the swapped permutation
    assert (1, 2, 0) in t.entries and (2, 1, 0) in t.entries
    assert (1, 1, 0) not in t.entries
    with pytest.raises(ValueError):
        sr.make_cw(2, sigma=(1, 1))


@pytest.mark.parametrize("q", [1, 2, 7])
def test_cw_small_counts(q):
    t = sr.make_cw_small(q)
    assert t.shape == (q + 1, q + 1, q + 1)
    assert len(t.entries) == 3 * q
    fact = t.rank_fact()
    assert fact.value == q + 1 and not fact.exact


@pytest.mark.parametrize("q", range(1, 7))
@pytest.mark.parametrize("twisted", [False, True])
def test_cw_is_cw_small_with_corners(q, twisted):
    """CW_{q,sigma} less its three corner terms is cw_{q,sigma}, entry for
    entry in one insertion order, with one sigma in the meta."""
    sigma = tuple(range(2, q + 1)) + (1,) if twisted else None
    big, small = sr.make_cw(q, sigma), sr.make_cw_small(q, sigma)
    corners = [(0, 0, q + 1), (0, q + 1, 0), (q + 1, 0, 0)]
    assert list(big.entries)[:3] == corners
    assert list(big.entries.items())[3:] == list(small.entries.items())
    assert big.meta["sigma"] == small.meta["sigma"] == (sigma or tuple(range(1, q + 1)))


@pytest.mark.parametrize("q", [1, 3, 4])
def test_cyclic_counts(q):
    t = sr.make_cyclic(q)
    assert len(t.entries) == q * q
    low = sr.make_cyclic_lower(q)
    assert len(low.entries) == q * (q + 1) // 2
    assert low.rank_fact().value == q


def assert_same_tensor(t, checked):
    assert type(t.x_labels) is tuple and t.x_labels == checked.x_labels
    assert t.y_labels == checked.y_labels and t.z_labels == checked.z_labels
    assert list(t.entries.items()) == list(checked.entries.items())
    assert all(type(c) is int for c in t.entries.values())
    assert t.meta == checked.meta


def assert_same_partition(p, checked):
    assert p == checked
    for name in ("parts_x", "parts_y", "parts_z", "where", "sizes", "summands"):
        assert getattr(p, name) == getattr(checked, name), name


@pytest.mark.parametrize("q", range(0, 31))
def test_table_families_built_unchecked_match_checked(q):
    """CW_q, cw_q, T_q and the CW partitions skip the checks of `Tensor`
    and `VariablePartition`: they equal what the checked constructors
    build from the same labels, entries, meta and parts."""
    rng = random.Random(q)
    sigma = rng.sample(range(1, q + 1), q)
    for t in (sr.make_cw(q), sr.make_cw(q, sigma)) + (
            (sr.make_cw_small(q), sr.make_cw_small(q, sigma), sr.make_cyclic_lower(q)) if q else ()):
        assert_same_tensor(t, Tensor(t.x_labels, t.y_labels, t.z_labels, t.entries, t.meta))
    for p, corner in ((sr.cw_partition, [("2", (q + 1,))]), (sr.cw_small_partition, [])):
        parts = [("0", (0,)), ("1", tuple(range(1, q + 1)))] + corner
        if q == 0:
            with pytest.raises(PartitionError, match="empty part '1' on axis x"):
                sr.VariablePartition(parts, parts, parts, sizes=(len(corner) + 1,) * 3)
            with pytest.raises(PartitionError, match="empty part '1' on axis x"):
                p(q)
            continue
        n = q + 1 + len(corner)
        assert_same_partition(p(q), sr.VariablePartition(parts, parts, parts, sizes=(n, n, n)))


def test_cyclic_lower_expansion():
    # q=3: entries on index pairs with i+j <= 2
    low = sr.make_cyclic_lower(3)
    assert len(low.entries) == 6
    assert {(i, j) for (i, j, _) in low.entries} == {
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    # the cyclic tensors are restrictions of each other
    full = sr.make_cyclic(3)
    assert set(low.entries) <= set(full.entries)


@pytest.mark.parametrize("q,nz,entries", [(1, 3, 4), (2, 6, 12), (3, 11, 24)])
def test_t112_counts(q, nz, entries):
    t = sr.make_t112(q)
    assert t.shape == (2 * q, 2 * q, q * q + 2)
    assert t.shape[2] == nz
    assert len(t.entries) == entries == 2 * q + 2 * q * q


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("value", [
    Tensor(range(2), "ab", range(1), {(1, 0, 0): Fraction(1, 3)}, {"family": "t"}),
    sr.cw_partition(3),
    sr.partition_sum(sr.cw_partition(1), sr.singleton_partition(sr.make_cyclic_lower(2))),
    LambdaPoly({0: 1, 2: Fraction(-1, 2)}),
    DegenerationMap({(0, 1): LambdaPoly({1: 2})}, {(1, 0): 1}, {}, 2),
], ids=["tensor", "partition", "partition-sum", "lambda-poly", "degeneration-map"])
def test_immutable_values_copy_and_pickle(value, how):
    """Pickling, copying and deep-copying restore every slot, the copy
    equals the original where its type defines equality, and it is as
    immutable as the original: setting any slot raises, and so does
    deleting one, on the original and on the copy."""
    got = ROUND_TRIPS[how](value)
    kind = type(value)
    assert type(got) is kind
    for slot in kind.__slots__:
        assert getattr(got, slot) == getattr(value, slot), slot
        with pytest.raises(AttributeError, match=f"{kind.__name__} is immutable"):
            setattr(got, slot, getattr(value, slot))
        for either in (value, got):
            with pytest.raises(AttributeError, match=f"{kind.__name__} is immutable"):
                delattr(either, slot)
    if kind.__eq__ is not object.__eq__:
        assert got == value


# -- algebra ----------------------------------------------------------------

def test_product_counts_multiply():
    rng = random.Random(11)
    for _ in range(25):
        a = random_tensor(rng, unit=True)
        b = random_tensor(rng, unit=True)
        prod = sr.tensor_product(a, b)
        assert len(prod.entries) == len(a.entries) * len(b.entries)


def test_product_of_matmuls_is_matmul():
    # <2,2,2> x <2,2,2> is isomorphic to <4,4,4>
    prod = sr.tensor_product(sr.make_matmul(2, 2, 2), sr.make_matmul(2, 2, 2))
    witness = sr.recognize_matmul(prod)
    assert (witness.a, witness.b, witness.c) == (4, 4, 4)


def test_product_identity_and_associativity():
    rng = random.Random(5)
    one = sr.make_independent(1)
    for _ in range(10):
        a = random_tensor(rng)
        assert sr.tensor_product(a, one).entries == a.entries
        b = random_tensor(rng)
        c = random_tensor(rng)
        left = sr.tensor_product(sr.tensor_product(a, b), c)
        right = sr.tensor_product(a, sr.tensor_product(b, c))
        assert left.entries == right.entries


@settings(max_examples=100, deadline=None)
@given(small_tensors(max_entries=27), small_tensors(max_entries=27))
def test_tensor_product_matches_accumulating_reference(a, b):
    prod = sr.tensor_product(a, b)
    ref = reference_tensor_product(a, b)
    assert prod == ref and list(prod.entries) == list(ref.entries)
    assert len(prod) == len(a) * len(b)
    assert_integer_first(prod)


@settings(max_examples=60, deadline=None)
@given(small_tensors())
def test_symmetric_cube_matches_accumulating_reference(t):
    cube = sr.symmetric_cube(t)
    ref = reference_symmetric_cube(t)
    assert cube == ref and list(cube.entries) == list(ref.entries)
    assert len(cube) == len(t) ** 3
    assert_integer_first(cube)


def test_products_of_fractions_come_out_int():
    half = Tensor([0], [0], [0, 1], {(0, 0, 0): Fraction(1, 2), (0, 0, 1): 4})
    two = Tensor([0], [0], [0], {(0, 0, 0): 2})
    assert sr.tensor_product(half, two).entries == {(0, 0, 0): 1, (0, 0, 1): 8}
    cube = sr.symmetric_cube(half)
    assert cube.entries[(0, 0, 0)] == Fraction(1, 8)
    assert cube.entries[(0, 1, 0)] == 1  # 1/2 * 1/2 * 4
    for t in (sr.tensor_product(half, two), cube):
        assert_integer_first(t)


def test_tensor_power_cap():
    t = sr.make_independent(2)
    assert len(sr.tensor_power(t, 3).entries) == 8
    with pytest.raises(ValueError, match="exceeds cap 3"):
        sr.tensor_power(t, 4)


def test_direct_sum_and_copies():
    two = sr.direct_sum(sr.make_independent(1), sr.make_independent(1))
    assert two.entries == sr.make_independent(2).entries
    many = sr.n_copies(3, sr.make_independent(2))
    assert many.entries == sr.make_independent(6).entries
    a = sr.make_matmul(2, 1, 3)
    b = sr.make_matmul(1, 2, 2)
    s = sr.direct_sum(a, b)
    assert s.shape == tuple(x + y for x, y in zip(a.shape, b.shape))
    summands = (a, b, sr.make_cw(1))
    three = sr.direct_sum(*summands)
    entries, offset = {}, (0, 0, 0)
    for t in summands:
        entries.update({(i + offset[0], j + offset[1], k + offset[2]): c
                        for (i, j, k), c in t.entries.items()})
        offset = tuple(o + n for o, n in zip(offset, t.shape))
    assert three.entries == entries and three.shape == offset
    assert three.y_labels == tuple((r, label) for r, t in enumerate(summands)
                                   for label in t.y_labels)
    assert sr.n_copies(3, summands[2]) == sr.direct_sum(*[summands[2]] * 3)


def test_tensor_add_cancellation():
    t = sr.make_independent(2)
    neg = Tensor(t.x_labels, t.y_labels, t.z_labels,
                 {(0, 0, 0): Fraction(-1)})
    s = sr.tensor_add(t, neg)
    assert s.entries == {(1, 1, 1): 1}
    with pytest.raises(ValueError):
        sr.tensor_add(t, sr.make_independent(3))


def test_tensor_add_of_many_is_the_pairwise_sum():
    """One call over several tensors equals the two-tensor calls chained,
    cancellations included; a summand over other variables raises."""
    rng = random.Random(5)
    for _ in range(100):
        a = random_tensor(rng)
        parts = [a] + [Tensor(a.x_labels, a.y_labels, a.z_labels,
                              {key: rng.choice((-c, c, 1)) for key, c in a.entries.items()
                               if rng.random() < 0.5})
                       for _ in range(rng.randint(1, 4))]
        pairwise = parts[0]
        for part in parts[1:]:
            pairwise = sr.tensor_add(pairwise, part)
        assert sr.tensor_add(*parts) == pairwise
    with pytest.raises(ValueError, match="identical variable lists"):
        sr.tensor_add(a, a, sr.make_independent(4))


def test_rotate():
    t = sr.make_matmul(2, 3, 4)
    r = sr.rotate(t)
    for (i, j, k), c in t.entries.items():
        assert r.entries[(j, k, i)] == c
    assert sr.rotate(sr.rotate(r)) == t
    q = sr.make_independent(4)
    assert sr.rotate(q) == q


def test_minimal_and_trimmed():
    t = sr.make_cw(1)
    assert sr.is_minimal(t)
    bigger = Tensor(range(4), range(3), range(3), t.entries)
    assert not sr.is_minimal(bigger)
    assert sr.trimmed(bigger).shape == (3, 3, 3)


def test_trimmed_equals_the_checked_construction():
    """`trimmed` builds its tensor unchecked; on random tensors padded with
    unused variables it equals the tensor `Tensor(...)` builds from the
    used variables, with tuple labels, the same coefficient types and a
    copy of the meta."""
    rng = random.Random(23)
    for _ in range(40):
        small = random_tensor(rng, max_dim=3, density=0.3)
        n = [size + rng.randint(0, 2) for size in small.shape]
        spots = [sorted(rng.sample(range(m), size)) for m, size in zip(n, small.shape)]
        t = Tensor(*([f"{ax}{v}" for v in range(m)] for ax, m in zip("xyz", n)),
                   {tuple(spot[v] for spot, v in zip(spots, key)): c
                    for key, c in small.entries.items()}, meta={"family": "padded"})
        used = [sorted(t.used_indices(ax)) for ax in "xyz"]
        got = sr.trimmed(t)
        want = Tensor(*([labels[v] for v in u] for labels, u in
                        zip((t.x_labels, t.y_labels, t.z_labels), used)),
                      {tuple(u.index(v) for u, v in zip(used, key)): c
                       for key, c in t.entries.items()}, meta=t.meta)
        assert got == want and sr.is_minimal(got)
        assert all(type(labels) is tuple for labels in (got.x_labels, got.y_labels, got.z_labels))
        assert [type(c) for c in got.entries.values()] == [type(c) for c in want.entries.values()]
        assert got.meta == t.meta and got.meta is not t.meta
        if sr.is_minimal(t):
            assert got is t


# -- symmetry ---------------------------------------------------------------

def test_variable_symmetric():
    assert sr.is_variable_symmetric(sr.make_cw(3))
    assert sr.is_variable_symmetric(sr.make_cw_small(2))
    assert sr.is_variable_symmetric(sr.make_cyclic(4))
    assert sr.is_variable_symmetric(sr.make_cyclic_lower(5))
    assert not sr.is_variable_symmetric(sr.make_matmul(2, 3, 4))
    assert not sr.is_variable_symmetric(sr.make_t112(2))


def test_symmetric_cube_of_t112():
    # the rotation product t112_value relies on without building it
    for q in range(1, 6):
        t = sr.make_t112(q)
        ts = sr.symmetric_cube(t)
        assert sr.is_variable_symmetric(ts)
        side = 2 * q * 2 * q * (q * q + 2)
        assert ts.shape == (side, side, side)
        assert len(ts.entries) == len(t.entries) ** 3


def test_symmetric_cube_arbitrary_tensor():
    rng = random.Random(23)
    for _ in range(10):
        t = random_tensor(rng)
        assert sr.is_variable_symmetric(sr.symmetric_cube(t))


@st.composite
def rotation_candidates(draw):
    """A tensor with axes of size 0 to 3, square in most draws; a square
    one's entries are closed under (i,j,k) -> (j,k,i) in most draws, and
    then one coefficient may be changed."""
    n = draw(st.integers(0, 3))
    shape = [n] * 3 if draw(st.booleans()) else [draw(st.integers(0, 3)) for _ in range(3)]
    entries = draw(st.dictionaries(
        st.tuples(*(st.integers(0, max(m - 1, 0)) for m in shape)),
        st.sampled_from(PRODUCT_COEFFS), max_size=8)) if all(shape) else {}
    if len(set(shape)) == 1 and draw(st.booleans()):
        for (i, j, k), c in list(entries.items()):
            entries[(j, k, i)] = entries[(k, i, j)] = c
        if entries and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(entries)))
            entries[key] = draw(st.sampled_from([c for c in PRODUCT_COEFFS if c != entries[key]]))
    return Tensor(*(range(m) for m in shape), entries)


@settings(max_examples=300, deadline=None)
@given(rotation_candidates())
@example(Tensor((), (), (), {}))
@example(Tensor(range(2), range(2), range(2), {(0, 1, 1): 1, (1, 1, 0): 1, (1, 0, 1): 2}))
def test_variable_symmetry_matches_the_entry_loop(t):
    """`is_variable_symmetric`, decided by `blocks` on the trivial
    partition, agrees with one lookup of t[j,k,i] per entry."""
    assert sr.is_variable_symmetric(t) == reference_variable_symmetric(t)


def test_constructor_keys_become_int_triples():
    Key = namedtuple("Key", "i j k")
    key = (1, 1, 0)
    t = Tensor(range(2), range(3), range(2), {
        key: 3, (True, np.int64(2), False): 1, Key(0, 1, 1): Fraction(1, 2),
        (np.int64(0), 0, 0): 0, (1, 0, 1): Fraction(0)})
    assert t.entries == {(1, 1, 0): 3, (1, 2, 0): 1, (0, 1, 1): Fraction(1, 2)}
    for k in t.entries:
        assert type(k) is tuple and all(type(i) is int for i in k)
    assert next(iter(t.entries)) is key
    with pytest.raises(ValueError, match=r"^entry index \(2, 0, 0\) out of range$"):
        Tensor(range(2), range(2), range(2), {(2, 0, 0): 1})
    with pytest.raises(ValueError, match=r"^entry index \(0, -1, 0\) out of range$"):
        Tensor(range(2), range(2), range(2), {(0, -1, 0): Fraction(1, 2)})
    # a zero coefficient is dropped before its index is checked
    assert Tensor(range(2), range(2), range(2), {(5, 0, 0): 0}).entries == {}
    with pytest.raises(ValueError, match="^duplicate y variable labels$"):
        Tensor([0], [1, 1], [0], {})


def test_indices_must_be_integers():
    """An index that is not an integer is refused with a ValueError, not
    truncated: a float entry index or part index, even an integral one, a
    string entry index (which failed its range check with a TypeError),
    and a float sigma, which `make_cw` would otherwise store in its keys,
    so that `write_tensor` wrote a file `parse_tensor` refuses.  Integers
    of any type are read as `int`."""
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        Tensor(range(3), range(3), range(3), {(1.5, 0, 0): 1})
    with pytest.raises(ValueError, match=r"^2\.0 is not an integer$"):
        Tensor(range(3), range(3), range(3), {(0, 2.0, 0): 1})
    with pytest.raises(ValueError, match="^'a' is not an integer$"):
        Tensor(range(3), range(3), range(3), {(0, 0, "a"): 1})
    with pytest.raises(ValueError, match=r"^1\.7 is not an integer$"):
        sr.VariablePartition([("a", [0, 1.7])], [("a", [0, 1])], [("a", [0, 1])], sizes=(2, 2, 2))
    for make in (sr.make_cw, sr.make_cw_small):
        with pytest.raises(ValueError, match=r"^2\.0 is not an integer$"):
            make(2, sigma=(2.0, 1.0))
        t = make(2, sigma=(np.int64(2), np.int64(1)))
        assert t == make(2, sigma=(2, 1)) and t.meta["sigma"] == (2, 1)
        assert all(type(i) is int for key in t.entries for i in key)
        assert sr.parse_tensor(sr.write_tensor(t)).entries == t.entries
    p = sr.VariablePartition([("a", [np.int64(1), 0])], [("a", [0, 1])], [("a", [0, 1])],
                             sizes=(2, 2, 2))
    assert p.parts_x == (("a", (0, 1)),) and all(type(i) is int for i in p.parts_x[0][1])


# -- partitions and blocks ----------------------------------------------------

def test_partition_validation():
    with pytest.raises(ValueError):
        sr.VariablePartition([("a", (0,)), ("b", (0, 1))],
                             [("a", (0, 1))], [("a", (0, 1))], sizes=(2, 2, 2))
    with pytest.raises(ValueError):
        sr.VariablePartition([("a", (0,))], [("a", (0, 1))], [("a", (0, 1))],
                             sizes=(2, 2, 2))
    with pytest.raises(ValueError):
        sr.VariablePartition([("a", ())], [("a", (0,))], [("a", (0,))],
                             sizes=(0, 1, 1))


def test_trivial_partition_single_block():
    t = sr.make_cw(2)
    bs = sr.blocks(t, sr.trivial_partition(t))
    assert bs.keys() == [(0, 0, 0)]
    assert bs[(0, 0, 0)].entries == t.entries


def test_part_rows_follow_the_partition():
    """`part_rows` numbers the x parts, then the y parts, then the z parts:
    each block's rows are its key plus each axis's offset, and each row has
    its part's axis and size and its summand's number, on a plain split
    and on a `block_sum` whose summands have unequal part counts."""
    plain = sr.blocks(sr.make_t112(2), sr.t112_partition(2))
    cyclic = sr.make_cyclic(3)
    summed = sr.block_sum([plain, sr.blocks(sr.make_cw(2), sr.cw_partition(2)),
                           sr.blocks(cyclic, sr.trivial_partition(cyclic))])
    assert summed.summands == ((2, 2, 3), (3, 3, 3), (1, 1, 1))
    for bs in (plain, summed):
        p = bs.partition
        want = []
        for a, ax in enumerate("xyz"):
            first = 0
            for r, counts in enumerate(bs.summands):
                want += [(a, len(idx), r) for _, idx in p.parts(ax)[first:first + counts[a]]]
                first += counts[a]
        parts, axis, size, summand = bs.part_rows
        assert list(zip(axis.tolist(), size.tolist(), summand.tolist())) == want
        kx, ky = p.part_count("x"), p.part_count("y")
        assert parts.tolist() == [[i, kx + j, kx + ky + k] for i, j, k in bs.keys()]


def test_cw_blocks():
    t = sr.make_cw(3)
    bs = sr.blocks(t, sr.cw_partition(3))
    assert bs.keys() == [(0, 0, 2), (0, 1, 1), (0, 2, 0),
                         (1, 0, 1), (1, 1, 0), (2, 0, 0)]


def test_t112_blocks():
    t = sr.make_t112(2)
    bs = sr.blocks(t, sr.t112_partition(2))
    assert bs.keys() == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 2)]


def test_block_reconstruction_families():
    for t, p in [(sr.make_cw(2), sr.cw_partition(2)),
                 (sr.make_t112(2), sr.t112_partition(2))]:
        entries = block_entries(sr.blocks(t, p))
        assert len(entries) == len(t.entries) and dict(entries) == t.entries


def test_is_t_symmetric_partition():
    assert sr.blocks(sr.make_cw(2), sr.cw_partition(2)).symmetric
    assert sr.blocks(sr.make_cw_small(3), sr.cw_small_partition(3)).symmetric
    t = sr.make_cyclic_lower(4)
    assert sr.blocks(t, sr.singleton_partition(t)).symmetric
    # merging {x0, x2} but not the matching y parts breaks the size condition
    q = 2
    lop = sr.VariablePartition(
        [("02", (0, q + 1)), ("1", tuple(range(1, q + 1)))],
        sr.cw_partition(q).parts_y,
        sr.cw_partition(q).parts_z,
        sizes=(q + 2, q + 2, q + 2))
    assert not sr.blocks(sr.make_cw(q), lop).symmetric


def test_is_t_symmetric_partition_checks_sizes():
    # a partition of the wrong axis sizes is refused, not judged
    with pytest.raises(ValueError, match="partition sizes"):
        sr.blocks(sr.make_cw(1), sr.cw_partition(2))
    with pytest.raises(ValueError, match="partition sizes"):
        sr.blocks(sr.make_cw(2), sr.cw_partition(1))


@st.composite
def symmetric_partitioned(draw):
    """A rotation-invariant tensor with the same random partition on all axes."""
    n = draw(st.integers(1, 4))
    idx = st.integers(0, n - 1)
    entries = {}
    for i, j, k, c in draw(st.lists(st.tuples(idx, idx, idx, st.sampled_from(PRODUCT_COEFFS)),
                                    min_size=1, max_size=2 * n)):
        entries.update({(i, j, k): c, (j, k, i): c, (k, i, j): c})
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    parts = [(str(pos), order[lo:hi])
             for pos, (lo, hi) in enumerate(zip([0] + cuts, cuts + [n]))]
    return (Tensor(range(n), range(n), range(n), entries),
            [list(parts), list(parts), list(parts)])


@settings(max_examples=150, deadline=None)
@given(symmetric_partitioned(), st.sampled_from(["none", "permute", "reorder", "coefficient"]),
       st.integers(0, 2), st.data())
def test_block_symmetry_matches_entry_map_reference(case, perturb, axis, data):
    t, parts = case
    n = t.shape[0]
    entries = dict(t.entries)
    if perturb == "permute":
        # relabel one axis of the tensor, keeping the partition
        perm = data.draw(st.permutations(range(n)))
        entries = {tuple(perm[v] if a == axis else v for a, v in enumerate(key)): c
                   for key, c in entries.items()}
    elif perturb == "reorder":
        parts[axis] = data.draw(st.permutations(parts[axis]))
    elif perturb == "coefficient":
        key = data.draw(st.sampled_from(sorted(entries)))
        entries[key] = entries[key] + 1 or 5
    t = Tensor(range(n), range(n), range(n), entries)
    p = sr.VariablePartition(*parts, sizes=t.shape)
    verdict = sr.blocks(t, p).symmetric
    assert verdict == reference_t_symmetric_partition(t, p)
    if perturb == "none":
        assert verdict
    if perturb == "coefficient" and len(set(key)) > 1:
        assert not verdict


@st.composite
def rotation_partitioned(draw):
    """A variable-symmetric tensor under a partition built from one random
    partition of its indices: on each axis the parts may be put in one
    shared new order and the indices relabeled by one shared permutation,
    so the axes' part sizes often agree while the blocks do not rotate."""
    t, parts = draw(symmetric_partitioned())
    order = draw(st.permutations(range(len(parts[0]))))
    perm = draw(st.permutations(range(t.shape[0])))
    axes = []
    for own in parts:
        if draw(st.booleans()):
            own = [own[pos] for pos in order]
        if draw(st.booleans()):
            own = [(label, [perm[i] for i in idx]) for label, idx in own]
        axes.append(own)
    return t, sr.VariablePartition(*axes, sizes=t.shape)


# variable-symmetric, equal part sizes, rotation-closed keys, blocks that do
# not rotate: the entry identity alone refuses it
_CLOSED_UNROTATED = (
    Tensor(range(3), range(3), range(3), dict.fromkeys([(0, 2, 1), (1, 0, 2), (2, 1, 0)], 1)),
    sr.VariablePartition([("0", (1, 2)), ("1", (0,))], [("0", (0, 1)), ("1", (2,))],
                         [("0", (0, 2)), ("1", (1,))], sizes=(3, 3, 3)))


@settings(max_examples=200, deadline=None)
@given(rotation_partitioned())
@example(_CLOSED_UNROTATED)
def test_rotation_orbits_match_block_reference(case):
    """The orbits `blocks` reads off the entry identity equal those of the
    blockwise reference (None when the blocks do not rotate)."""
    t, p = case
    assert sr.blocks(t, p).orbits == reference_rotation_orbits(t, p)


@st.composite
def blocks_inputs(draw):
    """A tensor and a partition for `blocks`: a rotation-closed tensor with
    int and Fraction coefficients, or one whose coefficients break the
    rotation on one entry, or an empty one; under one random partition on
    every axis, relabeled on a random subset of axes (part order and
    indices), or under independent partitions of unequal part sizes."""
    kind = draw(st.sampled_from(["symmetric", "coefficient", "empty", "single"]))
    n = draw(st.integers(1, 4))
    idx = st.integers(0, n - 1)
    coeffs = st.sampled_from([1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])
    entries = {}
    if kind == "single":
        entries[(draw(idx), draw(idx), draw(idx))] = draw(coeffs)
    elif kind != "empty":
        for i, j, k, c in draw(st.lists(st.tuples(idx, idx, idx, coeffs), min_size=1,
                                        max_size=2 * n)):
            entries.update({(i, j, k): c, (j, k, i): c, (k, i, j): c})
    if kind == "coefficient":
        key = draw(st.sampled_from(sorted(entries)))
        entries[key] = draw(coeffs.filter(lambda c: c != entries[key]))
    t = Tensor(range(n), range(n), range(n), entries)
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    parts = [(str(pos), order[lo:hi]) for pos, (lo, hi) in enumerate(zip([0] + cuts, cuts + [n]))]
    if draw(st.booleans()):
        axes = [random_index_partition(random.Random(draw(st.integers(0, 10 ** 6))), n)
                for _ in range(3)]
        return t, sr.VariablePartition(*([(str(i), own) for i, own in enumerate(ax)]
                                         for ax in axes), sizes=t.shape)
    reorder = draw(st.permutations(range(len(parts))))
    perm = draw(st.permutations(range(n)))
    axes = []
    for _ in range(3):
        own = list(parts)
        if draw(st.booleans()):
            own = [own[pos] for pos in reorder]
        if draw(st.booleans()):
            own = [(label, [perm[i] for i in idx]) for label, idx in own]
        axes.append(own)
    return t, sr.VariablePartition(*axes, sizes=t.shape)


# the support rotates under the z relabeling, the coefficient of (1, 1, 1) does not
_SUPPORT_ROTATES = (
    Tensor(range(2), range(2), range(2),
           {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 1): Fraction(1, 2)}),
    sr.VariablePartition([("0", (0,)), ("1", (1,))], [("0", (0,)), ("1", (1,))],
                         [("0", (1,)), ("1", (0,))], sizes=(2, 2, 2)))


@settings(max_examples=300, deadline=None)
@given(blocks_inputs())
@example(_SUPPORT_ROTATES)
@example(_CLOSED_UNROTATED)
@example((Tensor(range(2), range(1), range(3), {}),
          sr.VariablePartition([("a", (0, 1))], [("a", (0,))], [("a", (2,)), ("b", (0, 1))],
                               sizes=(2, 1, 3))))
@example((Tensor(range(1), range(1), range(1), {(0, 0, 0): Fraction(7, 2)}),
          sr.VariablePartition([("a", (0,))], [("a", (0,))], [("a", (0,))], sizes=(1, 1, 1))))
def test_blocks_match_the_bucket_loop(case):
    """The array-backed `blocks` equals the bucket loop over the entries
    (`reference_blocks`): the same keys in sorted order, the same
    slot-keyed entry maps and `bs[key]`, and the same orbits and verdict."""
    t, p = case
    bs = sr.blocks(t, p)
    want, orbits = reference_blocks(t, p)
    assert bs.keys() == list(want) and len(bs) == len(want)
    assert list(bs.blocks.items()) == list(want.items())
    for key in want:
        assert bs[key] == reference_restriction(t, p, key)
    assert bs.orbits == orbits and bs.symmetric == (orbits is not None)


def test_orbits_match_key_reference():
    """`blocks` decides the rotation orbits with the verdict; they equal the
    orbits rebuilt from the keys alone."""
    rng = random.Random(1016)
    cases = []
    for _ in range(40):
        t = random_symmetric_tensor(rng, rng.randint(2, 4))
        cases.append(sr.blocks(t, shared_index_partition(rng, t)))
    cw = sr.make_cw(2)
    cases.append(sr.blocks(sr.symmetric_cube(cw), sr.cube_partition(cw, sr.cw_partition(2))))
    t = sr.make_cyclic_lower(16)
    cases.append(sr.blocks(t, sr.singleton_partition(t)))
    for bs in cases:
        assert bs.symmetric and bs.orbits == reference_orbits(bs)
    assert (len(cases[-2].orbits), len(cases[-1].orbits)) == (76, 46)


def test_orbits_none_unless_symmetric():
    """Unequal part sizes, a tensor that is not variable-symmetric, and
    rotation-closed keys whose rotated blocks differ each give no orbits,
    and `maximize_symmetric` refuses the block set."""
    q = 2
    unequal = sr.VariablePartition(
        [("02", (0, q + 1)), ("1", tuple(range(1, q + 1)))],
        sr.cw_partition(q).parts_y, sr.cw_partition(q).parts_z, sizes=(q + 2,) * 3)
    cw = sr.make_cw(q)
    cube = sr.symmetric_cube(cw)
    entries = dict(cube.entries)
    key = next(key for key in sorted(entries) if len(set(key)) > 1)
    entries[key] *= 2
    doubled = Tensor(cube.x_labels, cube.y_labels, cube.z_labels, entries)
    rotated, closed = _CLOSED_UNROTATED
    for t, p in [(cw, unequal), (doubled, sr.cube_partition(cw, sr.cw_partition(q))),
                 (rotated, closed)]:
        bs = sr.blocks(t, p)
        assert bs.orbits is None and not bs.symmetric
        with pytest.raises(ValueError, match="^partition is not symmetric for this tensor$"):
            sr.maximize_symmetric(bs)
    assert sr.is_variable_symmetric(rotated)
    assert reference_orbits(bs) == [((0, 0, 0),), ((1, 1, 1),)]


def test_blocks_random_reconstruction():
    """Every entry of random tensors under random partitions falls in
    exactly one block, with its coefficient unchanged."""
    rng = random.Random(7)
    for _ in range(30):
        t = random_tensor(rng, max_dim=4)
        entries = block_entries(sr.blocks(t, random_partition(rng, t)))
        assert len(entries) == len(t.entries) and dict(entries) == t.entries


def test_blocks_match_reference_restriction():
    """bs[key] against the definition, on random tensors with rational
    coefficients and random partitions."""
    rng = random.Random(11)
    for _ in range(60):
        t = random_tensor(rng, max_dim=4)
        p = random_partition(rng, t)
        bs = sr.blocks(t, p)
        nonzero = []
        for key in itertools.product(*(range(p.part_count(ax)) for ax in "xyz")):
            ref = reference_restriction(t, p, key)
            if not ref.entries:
                continue
            nonzero.append(key)
            assert bs[key] == ref
        assert bs.keys() == nonzero


def test_blocks_builds_no_tensor(monkeypatch):
    """`blocks` keeps slot-keyed entry maps; only bs[key] builds a Tensor."""
    t = sr.make_cyclic_lower(24)
    p = sr.singleton_partition(t)
    built = []
    init = Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    bs = sr.blocks(t, p)
    assert len(built) == 0
    assert len(bs) == len(t.entries) and bs.symmetric
    assert bs[(0, 0, 23)] == reference_restriction(t, p, (0, 0, 23))
    assert len(built) == 2


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4), symmetric=st.booleans())
def test_block_sum_is_the_blocks_of_the_direct_sum(seeds, symmetric):
    """`block_sum` equals `blocks` of the direct sum of the tensors, labels
    tagged (r, label), under the direct sum of the partitions: the same
    keys in the same sorted order, slot-keyed entries, orbits (None unless
    every summand is symmetric) and `bs[key]`; `summands` holds each
    summand's part counts, and one block set is its own sum, its one
    summand's counts those of its partition."""
    sets = []
    for seed in seeds:
        rng = random.Random(seed)
        if symmetric:
            t = random_symmetric_tensor(rng, rng.randint(1, 4))
            sets.append(sr.blocks(t, shared_index_partition(rng, t)))
        else:
            t = random_tensor(rng)
            sets.append(sr.blocks(t, random_partition(rng, t)))
    got = sr.block_sum(sets)
    counts = tuple(tuple(bs.partition.part_count(ax) for ax in "xyz") for bs in sets)
    if len(sets) == 1:
        assert got is sets[0] and got.summands == got.partition.summands == counts
        return
    labels, entries, parts, offset = ([], [], []), {}, ([], [], []), [0, 0, 0]
    for r, bs in enumerate(sets):
        t = bs.tensor
        for a, own in enumerate((t.x_labels, t.y_labels, t.z_labels)):
            labels[a].extend((r, label) for label in own)
            parts[a].extend((f"{r}:{label}", [i + offset[a] for i in idx])
                            for label, idx in bs.partition.parts("xyz"[a]))
        for (i, j, k), c in t.entries.items():
            entries[(i + offset[0], j + offset[1], k + offset[2])] = c
        offset = [o + n for o, n in zip(offset, t.shape)]
    t = Tensor(*labels, entries)
    p = sr.VariablePartition(*parts, sizes=t.shape)
    ref = sr.blocks(t, p)
    assert t == sr.direct_sum(*(bs.tensor for bs in sets))
    assert got.tensor == t and got.partition == p and got.partition.where == p.where
    assert list(got.blocks.items()) == list(ref.blocks.items())
    assert got.orbits == ref.orbits
    assert got.symmetric == all(bs.symmetric for bs in sets)
    assert got.summands == got.partition.summands == counts
    for key in got.keys():
        assert got[key] == ref[key]


# -- text formats --------------------------------------------------------------

def test_tensor_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        t = random_tensor(rng)
        back = sr.parse_tensor(sr.write_tensor(t))
        assert back.shape == t.shape and back.entries == t.entries


def test_tensor_parse_errors():
    with pytest.raises(ParseError) as err:
        sr.parse_tensor("xvars 2\nyvars 2\nzvars 2\n0 0 0 1/0\n")
    assert err.value.line_no == 4
    with pytest.raises(ParseError):
        sr.parse_tensor("0 0 0 1/1\n")
    with pytest.raises(ParseError) as err:
        sr.parse_tensor("xvars 1\nyvars 1\nzvars 1\n0 0 2 1/1\n")
    assert "out of range" in str(err.value)


COEFFICIENT_TOKENS = ["7", "-3/6", "+3", "-0", "0/5", "1.5", "1e3", "1_000", "\u0663",
                      "3/+4", "-3/-4", "1/0", "0/0", "3/", "x"]


@settings(max_examples=300, deadline=None)
# at the 4,300-digit limit `int` sets by default: 10^4299 fits, 10^4300 does
# not, and 5e-4300 = 1/(2 10^4299) fits once reduced
@example(tok="1e4299")
@example(tok="1e4300")
@example(tok="-1e-4300")
@example(tok="5e-4300")
@example(tok="0e99999")
@example(tok="2e-99999")
@given(tok=st.one_of(
    st.sampled_from(COEFFICIENT_TOKENS),
    st.from_regex(r"[+-]?[0-9]{1,20}(/[0-9]{1,3})?", fullmatch=True),
    st.text(st.sampled_from("0123456789+-/._eE\u0663\u0666"), min_size=1, max_size=8)))
def test_coefficients_read_as_fraction_reads_them(tok):
    """Both parsers read a coefficient to the value `Fraction(tok)` gives,
    the tensor parser as an `int` when it is integral, and reject the
    tokens `Fraction` rejects at the same line with the same message."""
    want = reference_coefficient(tok)
    tensor_text = f"xvars 1\nyvars 1\nzvars 1\n0 0 0 {tok}\n"
    map_text = f"alpha 0 0 0 1\nbeta 0 0 1 {tok}\n"
    if isinstance(want, Exception):
        for parse, text, message in (
                (sr.parse_tensor, tensor_text, f"bad entry '0 0 0 {tok}'"),
                (parse_degeneration_map, map_text, f"bad polynomial in 'beta 0 0 1 {tok}'")):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == f"line {text.count(chr(10))}: {message}"
        return
    entries = sr.parse_tensor(tensor_text).entries
    assert entries == ({(0, 0, 0): want} if want else {})
    if want:
        assert (type(entries[(0, 0, 0)]) is int) == (want.denominator == 1)
    poly = parse_degeneration_map(map_text).beta.get((0, 0), LambdaPoly())
    assert poly.coefficient(1) == want


def test_coefficient_exponent_checked_before_its_power():
    """An exponent that leaves only 0 within the digit limit is read
    without building its power of ten: 0 stays 0, any other value is
    refused at its line."""
    header = "xvars 1\nyvars 1\nzvars 1\n"
    start = time.perf_counter()
    assert sr.parse_tensor(header + "0 0 0 -0.0E99999999\n").entries == {}
    for tok in ("1e10000000", "-0.5e-99999999", "1e" + "9" * 4300):
        with pytest.raises(ParseError) as err:
            sr.parse_tensor(header + f"0 0 0 {tok}\n")
        assert str(err.value) == f"line 4: bad entry '0 0 0 {tok}'"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text, line, message", [
    ("xvars 2\nyvars 2\nzvars 2\n1 0 0 1/1\nxvars 1\n", 5,
     "xvars header after the entries"),
    ("xvars 2\nyvars 2\nxvars 3\nzvars 2\n0 0 0 1/1\n", 3, "repeated xvars header"),
    ("xvars 2\nyvars 2\nzvars 2\n# c\nzvars 2\n0 0 0 1/1\n", 5,
     "repeated zvars header"),
])
def test_tensor_headers_once_before_entries(text, line, message):
    with pytest.raises(ParseError) as err:
        sr.parse_tensor(text)
    assert err.value.line_no == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("entry, message", [
    ("2 0 0 1", "x index 2 out of range"),
    ("0 5 0 1", "y index 5 out of range"),
    ("0 0 3 1/2", "z index 3 out of range"),
    ("0 -1 0 1", "y index -1 out of range"),
    ("-1 9 9 1", "x index -1 out of range"),
    ("1 2 9 1  # comment", "z index 9 out of range"),
    ("0 0 0 1", "duplicate entry for (0, 0, 0)"),
    ("0 0 0 3 # again", "duplicate entry for (0, 0, 0)"),
])
def test_tensor_entry_errors_name_their_line(entry, message):
    """Bad indices and repeated entries are reported at their own line,
    the first bad axis first, with or without a trailing comment."""
    text = f"xvars 2\nzvars 3  # z\nyvars 3\n# entries\n0 0 0 2\n{entry}\n1 1 1 1\n"
    with pytest.raises(ParseError) as err:
        sr.parse_tensor(text)
    assert err.value.line_no == 6
    assert str(err.value) == f"line 6: {message}"


def test_parse_tensor_checks_each_entry_once(monkeypatch):
    """The parser's own index, range and duplicate checks are the only
    ones: it builds its result without `Tensor.__init__`, with the labels
    and entries `Tensor(...)` gives (zeros dropped, integral values as
    `int`), and a repeated zero entry is still a duplicate."""
    rows = [((0, 0, 0), "-0"), ((0, 1, 0), "1e3"), ((1, 2, 0), "4/2"),
            ((1, 1, 0), "-3/6"), ((0, 2, 0), "0/5"), ((1, 0, 0), "2.50")]
    text = "xvars 2\nyvars 3\nzvars 1\n" + "".join(
        f"{i} {j} {k} {tok}\n" for (i, j, k), tok in rows)
    want = Tensor(range(2), range(3), range(1), {key: Fraction(tok) for key, tok in rows})

    def checked(*args, **kwargs):
        raise AssertionError("parse_tensor ran the checks of Tensor(...)")

    monkeypatch.setattr(Tensor, "__init__", checked)
    t = sr.parse_tensor(text)
    assert t == want and t.meta == {}
    assert [type(c) for c in t.entries.values()] == [type(c) for c in want.entries.values()]
    with pytest.raises(ParseError) as err:
        sr.parse_tensor(text + "0 0 0 0\n")
    assert str(err.value) == "line 10: duplicate entry for (0, 0, 0)"


def test_tensor_format_comments_and_plain_ints():
    text = "# a comment\nxvars 1\nyvars 1\nzvars 1\n0 0 0 2  # inline\n"
    t = sr.parse_tensor(text)
    assert t.entries == {(0, 0, 0): 2}


def test_integer_first_coefficients():
    assert all(type(c) is int for c in sr.make_cw(3).entries.values())
    assert sr.make_cw(1).coefficient(1, 1, 1) == 0
    text = ("xvars 2\nyvars 1\nzvars 1\n"
            "0 0 0 4/2\n1 0 0 1/2\n")
    t = sr.parse_tensor(text)
    assert type(t.entries[(0, 0, 0)]) is int and t.entries[(0, 0, 0)] == 2
    assert t.entries[(1, 0, 0)] == Fraction(1, 2)
    assert type(t.coefficient(1, 0, 0)) is Fraction and t.coefficient(0, 0, 0) == 2
    assert sr.write_tensor(t) == "xvars 2\nyvars 1\nzvars 1\n0 0 0 2/1\n1 0 0 1/2\n"
    assert sr.write_tensor(sr.make_cw(1)) == (
        "xvars 3\nyvars 3\nzvars 3\n"
        "0 0 2 1/1\n0 1 1 1/1\n0 2 0 1/1\n1 0 1 1/1\n1 1 0 1/1\n2 0 0 1/1\n")
    assert type(Tensor([0], [0], [0], {(0, 0, 0): Fraction(3, 1)}).entries[(0, 0, 0)]) is int
    cube = sr.symmetric_cube(sr.make_cw(1))
    assert all(type(c) is int for c in cube.entries.values())


@pytest.mark.parametrize("text, line, message", [
    ("x a 0\nx b 2 9\ny a 0 1 2\nz a 0 1 2\n", 2, "index 9 out of range on axis x"),
    ("x a 0 1 2\n# comment\ny a 0 1\n\ny b 1 2\nz a 0 1 2\n", 5,
     "index 1 in two parts on axis y"),
    ("x a 0 1 2\ny a 0 1 2\nz a 0\nz b 1\n", 4, "parts do not cover axis z"),
    ("x a 0 0 1\nx b 2\ny a 0 1 2\nz a 0 1 2\n", 1, "index 0 listed twice in part 'a' on axis x"),
    ("x a 0 1 2\ny a 0\n\ny b 2 1 2\nz a 0 1 2\n", 4,
     "index 2 listed twice in part 'b' on axis y"),
])
def test_partition_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        sr.parse_partition(text, sizes=(3, 3, 3))
    assert err.value.line_no == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("count", [2 ** 62, 2 ** 64])
def test_variable_count_too_large_is_a_parse_error(count):
    """A header count whose labels cannot be held is refused at its line.
    CPython refuses a tuple of 2**62 items before allocating it, and a range
    of 2**64 has no length, so neither allocates anything."""
    with pytest.raises(ParseError) as err:
        sr.parse_tensor(f"xvars 1\n# wide\nyvars {count}\nzvars 1\n0 0 0 1\n")
    assert str(err.value) == f"line 3: variable count {count} too large"


def test_partition_roundtrip():
    p = sr.cw_partition(3)
    back = sr.parse_partition(sr.write_partition(p))
    assert back == p
    with pytest.raises(ParseError):
        sr.parse_partition("x onlylabel\n")


# -- the tensor parser against its per-line reference ---------------------------

# equal values under different spellings, so the parser's per-file token
# reading meets repeated, equivalent and zero tokens
INDEX_SPELLINGS = {0: ["0", "00", "+0", "-0"], 1: ["1", "01", "+1"], 2: ["2", "+2"]}
COEFFICIENT_SPELLINGS = ["1/1", "1", "2/2", "-3/6", "-1/2", "5", "+5", "0", "0/4", "1.5",
                         "2/3"]
FAULTS = ["malformed header", "header after entries", "repeated header", "bad count",
          "entry before headers", "token count", "bad index", "bad coefficient",
          "duplicate", "out of range", "missing header"]


@st.composite
def tensor_files(draw):
    """`write_tensor` output with its tokens respelled, comments, blank
    lines and extra blanks added, and at most one fault injected."""
    shape = [draw(st.integers(0, 3)) for _ in range(3)]
    keys = draw(st.lists(st.tuples(*(st.integers(0, max(n - 1, 0)) for n in shape)),
                         max_size=8, unique=True)) if all(shape) else []
    coeffs = draw(st.lists(st.sampled_from(COEFFICIENT_SPELLINGS),
                           min_size=len(keys), max_size=len(keys)))
    t = Tensor(range(shape[0]), range(shape[1]), range(shape[2]),
               {key: 1 for key in keys})
    lines = [line.split() for line in sr.write_tensor(t).split("\n") if line]
    for toks, tok in zip(lines[3:], coeffs):
        toks[:3] = [draw(st.sampled_from(INDEX_SPELLINGS.get(int(v), [v]))) for v in toks[:3]]
        toks[3] = tok
    fault = draw(st.sampled_from([None] + FAULTS))
    at = draw(st.integers(3, len(lines)))  # after the headers
    header = draw(st.sampled_from(["xvars", "yvars", "zvars"]))
    if fault == "malformed header":
        lines.insert(draw(st.integers(0, len(lines))), [header, "1", "2"])
    elif fault == "header after entries":
        lines.append([header, "2"])
    elif fault == "repeated header":
        lines.insert(at, [header, "3"])
    elif fault == "bad count":
        lines[draw(st.integers(0, 2))][1] = draw(st.sampled_from(["-1", "x", "1.0"]))
    elif fault == "entry before headers":
        lines.insert(draw(st.integers(0, 2)), ["0", "0", "0", "1"])
    elif fault == "token count":
        lines.insert(at, draw(st.sampled_from([["0", "0", "1"], ["0", "0", "0", "1", "1"],
                                               ["w"]])))
    elif fault == "bad index":
        lines.insert(at, ["0", draw(st.sampled_from(["a", "1.0", "1/1", "-"])), "0", "1"])
    elif fault == "bad coefficient":
        lines.insert(at, ["0", "0", "0", draw(st.sampled_from(["1/0", "x", "3/", "/2"]))])
    elif fault == "duplicate" and len(lines) > 3:
        lines.insert(at, list(lines[draw(st.integers(3, len(lines) - 1))]))
    elif fault == "out of range":
        axis = draw(st.integers(0, 2))
        entry = ["0", "0", "0", "1"]
        entry[axis] = draw(st.sampled_from([str(shape[axis]), "-1", "7"]))
        lines.insert(at, entry)
    elif fault == "missing header":
        del lines[draw(st.integers(0, 2))]
    out = []
    for toks in lines:
        for _ in range(draw(st.integers(0, 1))):
            out.append(draw(st.sampled_from(["", "# a comment", "   ", "#", "\t# x y"])))
        gap = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        line = draw(st.sampled_from(["", " ", "\t"])) + gap.join(toks)
        out.append(line + draw(st.sampled_from(["", "  ", " # note", "#0 0 0 1"])))
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=400, deadline=None)
@given(text=tensor_files())
def test_parse_tensor_matches_its_per_line_reference(text):
    """The parser and its per-line reference give equal tensors, with
    equal coefficient types, or the same error at the same line."""
    try:
        want = reference_parse_tensor(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            sr.parse_tensor(text)
        assert (str(err.value), err.value.line_no) == (str(exc), exc.line_no)
        return
    got = sr.parse_tensor(text)
    assert got == want
    assert [type(c) for c in got.entries.values()] == [type(c) for c in want.entries.values()]


# Characters `str.splitlines` breaks a line at, besides "\n" and "\r".
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", OTHER_LINE_BREAKS)
def test_lines_end_at_newline_only(brk):
    """A line-break character other than "\\n" inside a comment stays part
    of that comment in all three formats, and a bad line after it is
    reported at its real line."""
    tensor = f"xvars 2\nyvars 2\nzvars 2\n# page{brk}break\n0 0 0 1\n"
    assert sr.parse_tensor(tensor).entries == {(0, 0, 0): 1}
    partition = f"x a 0 1\n# page{brk}break\ny a 0 1\nz a 0\nz b 1\n"
    assert sr.parse_partition(partition, sizes=(2, 2, 2)).part_count("z") == 2
    dmap = f"alpha 0 0 1 1/1\n# page{brk}break\norder 1\n"
    assert parse_degeneration_map(dmap).order == 1
    for parse, text, message in (
            (sr.parse_tensor, tensor + "1 1 q 1\n", "bad entry '1 1 q 1'"),
            (lambda s: sr.parse_partition(s, sizes=(2, 2, 2)), partition + "w c 0\n",
             "expected 'axis label idx...', got 'w c 0'"),
            (parse_degeneration_map, dmap + "delta 0 0 1 1\n", "unknown directive 'delta'")):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line {text.count(chr(10))}: {message}"


# Guards that no other test reaches: a call, the exception it raises and
# its message.
CW_1 = sr.make_cw(1)
OTHER_VARIABLES = sr.Tensor(("a", "b"), ("a", "b"), ("a", "b"), {(0, 0, 0): 1})
REFUSALS = {
    "make_matmul": (lambda: sr.make_matmul(0, 1, 1), "matmul dimensions must be positive"),
    "make_independent": (lambda: sr.make_independent(0), "q must be positive"),
    "make_cw": (lambda: sr.make_cw(-1), "q must be nonnegative"),
    "make_cw_small": (lambda: sr.make_cw_small(0), "q must be positive"),
    "make_cyclic": (lambda: sr.make_cyclic(0), "q must be positive"),
    "make_cyclic_lower": (lambda: sr.make_cyclic_lower(0), "q must be positive"),
    "make_t112": (lambda: sr.make_t112(0), "q must be positive"),
    "tensor_power": (lambda: sr.tensor_power(CW_1, 0), "power must be >= 1"),
    "n_copies": (lambda: sr.n_copies(0, CW_1), "m must be positive"),
    "cube_partition": (lambda: sr.cube_partition(CW_1, sr.cw_partition(2)),
                       "partition does not match tensor"),
    "flattening": (lambda: sr.flattening(CW_1, "w"), "axis must be one of x/y/z, got 'w'"),
    "DegenerationMap": (lambda: DegenerationMap({}, {}, {}, -1), "order must be nonnegative"),
    "cw_small_table": (lambda: sr.cw_small_table(0), "q_max must be >= 1"),
    "split_bound": (lambda: sr.split_bound(CW_1, OTHER_VARIABLES, 1.0),
                    "split parts must share variable lists"),
    "sum_of_measures_bound": (lambda: sr.sum_of_measures_bound(CW_1, [OTHER_VARIABLES]),
                              "parts are not over the tensor's variables"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_guards_refuse_with_their_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


def test_tensor_and_partition_dunders():
    """Equality against another type defers to it (so `==` is False), two
    equal tensors hash alike, `trimmed` returns a minimal tensor itself,
    and a block set prints its block count and tensor."""
    t, twin = sr.make_cw(1), sr.make_cw(1)
    p = sr.cw_partition(1)
    assert t is not twin and hash(t) == hash(twin) and len({t, twin}) == 1
    assert t.__eq__(1) is NotImplemented and (t == 1) is False
    assert p.__eq__("p") is NotImplemented and (p == "p") is False
    assert sr.trimmed(t) is t
    assert repr(sr.blocks(t, p)) == "BlockSet(6 blocks of Tensor(3x3x3, 6 entries))"
