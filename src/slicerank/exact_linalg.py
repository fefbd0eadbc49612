"""Exact sparse row reduction over the rationals.

Rows are dicts column -> nonzero `int` or `Fraction`.  `row_reduce`
gives the reduced row echelon form; the rank is its number of pivots and
`nullspace` reads a basis off it.  Integral values are kept as `int`, so
0/1 matrices reduce in integer arithmetic until a pivot that does not
divide its row forces a `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction


def _exact(v):
    """A `Fraction` as an `int` when integral: the normal form of every
    exact value, `Tensor` coefficients and parsed ones included (the loops
    below keep an `int` as it is without the call)."""
    return v.numerator if v.denominator == 1 else v


def row_reduce(rows) -> dict:
    """The reduced row echelon form as {pivot column: row}, by column.

    Rows are inserted one at a time: reduced against the pivot rows so
    far, then given their lowest remaining column as pivot, which is
    cleared from the other pivot rows.  Each pivot is thus the leading
    column of a vector of the row space, so the pivots and rows are
    those of the unique RREF.  The input rows are not modified.
    """
    pivots: dict = {}
    for given in rows:
        row = {c: v for c, v in given.items() if v != 0}
        for c in [c for c in row if c in pivots]:
            f = row.pop(c)
            for c2, v in pivots[c].items():
                if c2 != c:
                    s = row.get(c2, 0) - f * v
                    if s:
                        row[c2] = s if type(s) is int else _exact(s)
                    else:
                        del row[c2]
        if not row:
            continue
        col = min(row)
        lead = row[col]
        if lead != 1:
            row = {c: Fraction(v, lead) if v % lead else v // lead
                   for c, v in row.items()}
        for other in pivots.values():
            f = other.pop(col, 0)
            if f:
                for c2, v in row.items():
                    if c2 != col:
                        s = other.get(c2, 0) - f * v
                        if s:
                            other[c2] = s if type(s) is int else _exact(s)
                        else:
                            del other[c2]
        pivots[col] = row
    return dict(sorted(pivots.items()))


def nullspace(rows, ncols: int) -> list:
    """Nullspace basis: for each free column f in order, the dense vector
    with 1 at f, minus the RREF entry of column f at each pivot column."""
    reduced = row_reduce(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in reduced):
        vec = [0] * ncols
        vec[free] = 1
        for pc, row in reduced.items():
            vec[pc] = -row.get(free, 0)
        basis.append(vec)
    return basis
