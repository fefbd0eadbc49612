"""Exact flattening ranks and structural recognition of matmul tensors.

The x-rank of a tensor (minimum number of summands of the form
x-vector tensor yz-matrix) equals the rank of its x-flattening, the
matrix whose rows are x-variables and whose columns are (y, z) pairs.
Ranks are computed exactly over the rationals by sparse row reduction
(`exact_linalg.row_reduce`) of the flattening's nonzero entries.

The exact slice rank S(T) of a general tensor is not computed here: no
general algorithm is available.  This module supplies the computable
proxies used by the bounding machinery: the three flattening ranks,
their max m(T), their min (an upper bound on S(T)), and the measure
mu(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import exact_linalg
from .tensor_core import Tensor

_FLATTEN = {
    # axis -> (row position, first col position, second col position)
    "x": (0, 1, 2),
    "y": (1, 2, 0),
    "z": (2, 0, 1),
}


def flattening(t: Tensor, axis: str) -> list:
    """The rows of t's flattening along `axis`, one {column: coefficient}
    dict per variable of that axis; the pair (a, b) of the next two axes,
    in cyclic order, is column a * n2 + b, n2 the size of the second."""
    if axis not in _FLATTEN:
        raise ValueError(f"axis must be one of x/y/z, got {axis!r}")
    rp, cp1, cp2 = _FLATTEN[axis]
    shape = t.shape
    n2 = shape[cp2]
    rows = [dict() for _ in range(shape[rp])]
    for key, c in t.entries.items():
        rows[key[rp]][key[cp1] * n2 + key[cp2]] = c
    return rows


def flattening_rank(t: Tensor, axis: str) -> int:
    return len(exact_linalg.row_reduce(flattening(t, axis)))


def x_rank(t: Tensor) -> int:
    return flattening_rank(t, "x")


def y_rank(t: Tensor) -> int:
    return flattening_rank(t, "y")


def z_rank(t: Tensor) -> int:
    return flattening_rank(t, "z")


def max_flattening_rank(t: Tensor) -> int:
    """m(T): the largest of the three flattening ranks."""
    return max(x_rank(t), y_rank(t), z_rank(t))


def measure(t: Tensor) -> int:
    """mu(T): product of the numbers of variables used on each axis, the
    distinct indices of the entries per axis (0 for the zero tensor)."""
    return math.prod(map(len, map(set, zip(*t.entries)))) if t.entries else 0


def slice_rank_flattening_bound(t: Tensor) -> int:
    """Upper bound on the slice rank: min of the three flattening ranks."""
    return min(x_rank(t), y_rank(t), z_rank(t))


# -- matmul recognition ----------------------------------------------------


@dataclass
class MatmulWitness:
    """Isomorphism of a tensor with <a,b,c> = sum x_(r,s) y_(s,d) z_(d,r).

    `x_coords[i]` is the (row, column) of x variable i, `y_coords[j]` the
    (column, depth) of y variable j and `z_coords[k]` the (depth, row) of
    z variable k; every term (i, j, k) reads x = (r, s), y = (s, d),
    z = (d, r), and each map is a bijection onto its grid.
    """

    a: int
    b: int
    c: int
    x_coords: dict
    y_coords: dict
    z_coords: dict


def _number_by_partners(partners, count):
    """Number variables by their partner sets, or None unless `count` sets occur."""
    ids = {}
    out = [ids.setdefault(frozenset(s), len(ids)) for s in partners]
    return out if len(ids) == count else None


def recognize_matmul(t: Tensor) -> Optional[MatmulWitness]:
    """Recognize t as a matmul tensor <a,b,c> up to relabeling, or None.

    The tensor must be minimal; that is checked on the partner sets the
    recognition builds anyway.  Its terms must be those of <a,b,c> under
    some labeling, and its coefficients e(r,s,d), read off that labeling's
    cells, must satisfy e(r,s,d) e(r,0,0) e(0,s,0) e(0,0,d) = e(r,s,0)
    e(r,0,d) e(0,s,d) e(0,0,0) on every cell: exactly when per-variable
    scalings make every coefficient 1.
    """
    return _recognize(t.entries, t.shape)


def _recognize(entries, shape) -> Optional[MatmulWitness]:
    """`recognize_matmul` on a nonzero entry map {(i, j, k): coefficient}
    with every index inside `shape`, such as a block of a `BlockSet`."""
    n = len(entries)
    if n == 0:
        return None
    nx, ny, nz = shape
    # Dimensions are forced: |X| = ab, |Y| = bc, |Z| = ca, abc = #terms.
    a, b, c = n // ny, n // nz, n // nx
    if (a * b, b * c, c * a, a * b * c) != (nx, ny, nz, n):
        return None

    # In <a,b,c> the z-partners of x_(r,s) are exactly {z_(d,r)}, so x
    # variables with equal z-partner sets share a row; likewise equal
    # y-partner sets of x mean one column and equal z-partner sets of y
    # one depth.  Numbering the partner sets gives each term a cell
    # (row, column, depth).  With a rows, b columns, c depths and one term
    # per cell, counting alone (every variable has partners, by minimality)
    # makes this a matmul labeling.  The abc terms fill the grid once.  Two
    # x's with one (row, col) share a y-partner and collide in a cell, so
    # x -> (row, col) is a bijection and each x has exactly c terms.  So
    # each column's y-partner set has <= c of the bc y's; the b sets cover
    # them all, so they are disjoint and col is constant on each y's terms.
    # Likewise row is constant on each z's terms.  Each y's terms lie in
    # distinct cells of one (col, dep) line, so at most a, and the bc y's
    # hold all abc terms: exactly a.  Each depth's z-partner set then has
    # <= a of the ca z's, and dep is constant on each z's terms.  So
    # y -> (col, dep) and z -> (dep, row) are well defined and onto, hence
    # bijections, and the terms are exactly those of <a,b,c>.
    #
    # Scalings u of x_(r,s), v of y_(s,d), w of z_(d,r) with e(r,s,d) u v w
    # = 1 exist iff the cell identity holds.  Necessity: both sides carry
    # the same twelve scalings.  Sufficiency: u = 1/e(r,s,0), v = e(0,s,0)
    # / e(0,s,d), w = e(r,0,0) e(0,0,d) / (e(r,0,d) e(0,0,0)) solve every term.
    x_zs = [set() for _ in range(nx)]
    x_ys = [set() for _ in range(nx)]
    y_zs = [set() for _ in range(ny)]
    for i, j, k in entries:
        x_zs[i].add(k)
        x_ys[i].add(j)
        y_zs[j].add(k)
    if not (all(x_zs) and all(y_zs) and len(set().union(*y_zs)) == nz):
        return None  # not minimal
    row = _number_by_partners(x_zs, a)
    col = _number_by_partners(x_ys, b)
    dep = _number_by_partners(y_zs, c)
    if row is None or col is None or dep is None:
        return None
    y_coords, z_coords, e = {}, {}, {}
    for (i, j, k), coef in entries.items():
        r, s, d = row[i], col[i], dep[j]
        if (r, s, d) in e:
            return None
        e[r, s, d] = coef
        y_coords[j] = (s, d)
        z_coords[k] = (d, r)
    # with one coefficient c throughout, both sides are c^4
    if len(set(e.values())) > 1 and any(
            v * e[r, 0, 0] * e[0, s, 0] * e[0, 0, d]
            != e[r, s, 0] * e[r, 0, d] * e[0, s, d] * e[0, 0, 0]
            for (r, s, d), v in e.items()):
        return None
    x_coords = {i: (row[i], col[i]) for i in range(nx)}
    return MatmulWitness(a, b, c, x_coords, y_coords, z_coords)
