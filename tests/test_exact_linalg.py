"""The sparse exact row reduction behind flattening ranks and gradings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import slicerank as sr
from slicerank import exact_linalg

sympy = pytest.importorskip("sympy")

matrices = st.integers(1, 6).flatmap(lambda ncols: st.lists(
    st.lists(st.sampled_from([0, 0, 0, -3, -2, -1, 1, 2, 3]),
             min_size=ncols, max_size=ncols),
    min_size=1, max_size=6))


def sparse(dense_rows):
    return [{c: v for c, v in enumerate(row) if v} for row in dense_rows]


def as_fraction(v):
    return Fraction(int(v.p), int(v.q))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_rank_and_nullspace_match_sympy(dense_rows):
    ncols = len(dense_rows[0])
    mat = sympy.Matrix(dense_rows)
    assert len(exact_linalg.row_reduce(sparse(dense_rows))) == mat.rank()
    want = [[as_fraction(v) for v in vec] for vec in mat.nullspace()]
    assert exact_linalg.nullspace(sparse(dense_rows), ncols) == want


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_row_reduce_is_the_rref(dense_rows):
    ncols = len(dense_rows[0])
    rref, pivots = sympy.Matrix(dense_rows).rref()
    reduced = exact_linalg.row_reduce(sparse(dense_rows))
    assert tuple(reduced) == pivots
    for r, row in enumerate(reduced.values()):
        assert [row.get(c, 0) for c in range(ncols)] == \
            [as_fraction(v) for v in rref.row(r)]


def test_values_stay_integral_under_unit_pivots():
    reduced = exact_linalg.row_reduce([{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1}])
    assert all(type(v) is int for row in reduced.values() for v in row.values())
    half = exact_linalg.row_reduce([{0: 2, 1: 1}])
    assert half == {0: {0: 1, 1: Fraction(1, 2)}}
    negated = exact_linalg.row_reduce([{0: -1, 1: 2}, {1: Fraction(3, 2), 2: 3}])
    assert negated == {0: {0: 1, 2: 4}, 1: {1: 1, 2: 2}}
    assert all(type(v) is int for row in negated.values() for v in row.values())


def test_grading_and_flattening_reduce_without_fractions(monkeypatch):
    """Pivots of 1 are not scaled, pivots dividing their row give ints, and
    integral sums are stored as ints: the CW_2 cube's grading rows (pivots
    1 and -1) and the CW_1 cube's x-flattening build no `Fraction`."""
    built = []
    monkeypatch.setattr(exact_linalg, "Fraction",
                        lambda *args: built.append(args) or Fraction(*args))
    cw = sr.make_cw(2)
    keys = sr.blocks(sr.symmetric_cube(cw), sr.cube_partition(cw, sr.cw_partition(2))).keys()
    rows = [{i: 1, 27 + j: 1, 54 + k: 1, 81: -1} for (i, j, k) in keys]
    assert len(exact_linalg.row_reduce(rows)) == 76
    flat = sr.rank_tools.flattening(sr.symmetric_cube(sr.make_cw(1)), "x")
    assert len(exact_linalg.row_reduce(flat)) == 27
    assert built == []


def test_input_rows_are_not_modified():
    rows = [{0: 2, 1: 1}, {0: 1, 1: 1}]
    exact_linalg.row_reduce(rows)
    assert rows == [{0: 2, 1: 1}, {0: 1, 1: 1}]


@pytest.mark.parametrize("q,want", [(2, 96), (3, 396)])
def test_rotation_product_rank_is_kronecker(q, want):
    # flattening ranks multiply under the tensor product, and the x axis of
    # the rotation product pairs the x, y and z axes of t_112
    t = sr.make_t112(q)
    assert sr.x_rank(t) * sr.y_rank(t) * sr.z_rank(t) == want
    assert sr.x_rank(sr.symmetric_cube(t)) == want
