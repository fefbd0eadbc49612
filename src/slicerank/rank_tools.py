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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import exact_linalg
from .tensor_core import Tensor, is_minimal, trimmed

_FLATTEN = {
    # axis -> (row position, first col position, second col position)
    "x": (0, 1, 2),
    "y": (1, 2, 0),
    "z": (2, 0, 1),
}


@dataclass
class FlatteningMatrix:
    """One-axis flattening: rows are that axis's variables, columns pairs."""

    axis: str
    row_labels: tuple
    n_cols: int  # pair (a, b) of the two column axes is column a*n2 + b
    rows: list  # list of dict col_index -> int or Fraction coefficient


def flattening(t: Tensor, axis: str) -> FlatteningMatrix:
    if axis not in _FLATTEN:
        raise ValueError(f"axis must be one of x/y/z, got {axis!r}")
    rp, cp1, cp2 = _FLATTEN[axis]
    axis_labels = [t.x_labels, t.y_labels, t.z_labels]
    n1, n2 = len(axis_labels[cp1]), len(axis_labels[cp2])
    rows = [dict() for _ in axis_labels[rp]]
    for key, c in t.entries.items():
        rows[key[rp]][key[cp1] * n2 + key[cp2]] = c
    return FlatteningMatrix(axis, tuple(axis_labels[rp]), n1 * n2, rows)


def flattening_rank(t: Tensor, axis: str) -> int:
    return len(exact_linalg.row_reduce(flattening(t, axis).rows))


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
    """mu(T): product of the three axis sizes after trimming unused variables."""
    t = trimmed(t)
    nx, ny, nz = t.shape
    return nx * ny * nz


def slice_rank_flattening_bound(t: Tensor) -> int:
    """Upper bound on the slice rank: min of the three flattening ranks."""
    return min(x_rank(t), y_rank(t), z_rank(t))


# -- matmul recognition ----------------------------------------------------


@dataclass
class MatmulWitness:
    """Isomorphism of a tensor with <a,b,c>.

    row_of/col_of etc. assign grid coordinates to variable positions:
    x variable p represents x_(row_of[p], col_of[p]), and similarly the
    y variables carry (col, depth) and the z variables (depth, row).
    """

    a: int
    b: int
    c: int
    x_coords: dict
    y_coords: dict
    z_coords: dict


def _co_occurrence_classes(pairs, n):
    """Partition 0..n-1 into connected classes of the given pair relation."""
    parent = list(range(n))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    classes = {}
    for u in range(n):
        classes.setdefault(find(u), []).append(u)
    return [sorted(c) for c in classes.values()]


def recognize_matmul(t: Tensor) -> Optional[MatmulWitness]:
    """Recognize t as a matmul tensor <a,b,c> up to relabeling, or None.

    The tensor must be minimal.  Coefficients may differ from 1 only if
    they can be normalized away by scaling individual variables (checked
    by constraint propagation); a matmul tensor never has coefficient
    cancellations, so the incidence structure is matched first and the
    candidate assignment is verified entry by entry.
    """
    if len(t.entries) == 0 or not is_minimal(t):
        return None
    nx, ny, nz = t.shape
    nterms = len(t.entries)
    # Dimensions are forced: |X| = ab, |Y| = bc, |Z| = ca, abc = #terms.
    if nx * ny * nz != nterms * nterms:
        return None
    a, rem = divmod(nterms, ny)
    if rem:
        return None
    b, rem = divmod(nterms, nz)
    if rem:
        return None
    c, rem = divmod(nterms, nx)
    if rem:
        return None
    if a * b != nx or b * c != ny or c * a != nz:
        return None

    by_x = {}
    by_y = {}
    by_z = {}
    for e in t.entries:
        by_x.setdefault(e[0], []).append(e)
        by_y.setdefault(e[1], []).append(e)
        by_z.setdefault(e[2], []).append(e)
    if any(len(v) != c for v in by_x.values()) or len(by_x) != nx:
        return None
    if any(len(v) != a for v in by_y.values()) or len(by_y) != ny:
        return None
    if any(len(v) != b for v in by_z.values()) or len(by_z) != nz:
        return None

    # Two x vars share a z var iff they have the same row index; they
    # share a y var iff they have the same column index.  Analogously on
    # the other axes.  Build those classes and number them.
    def shares(by_first, pos):
        pairs = []
        for terms in by_first.values():
            for s in range(1, len(terms)):
                pairs.append((terms[0][pos], terms[s][pos]))
        return pairs

    x_row = _co_occurrence_classes(shares(by_z, 0), nx)   # share a z => same row
    x_col = _co_occurrence_classes(shares(by_y, 0), nx)   # share a y => same col
    y_col = _co_occurrence_classes(shares(by_x, 1), ny)
    y_dep = _co_occurrence_classes(shares(by_z, 1), ny)
    z_dep = _co_occurrence_classes(shares(by_y, 2), nz)
    z_row = _co_occurrence_classes(shares(by_x, 2), nz)
    if (len(x_row), len(x_col)) != (a, b):
        return None
    if (len(y_col), len(y_dep)) != (b, c):
        return None
    if (len(z_dep), len(z_row)) != (c, a):
        return None

    def class_of(classes):
        out = {}
        for ci, members in enumerate(classes):
            for m in members:
                out[m] = ci
        return out

    xr, xc = class_of(x_row), class_of(x_col)
    yc, yd = class_of(y_col), class_of(y_dep)
    zd, zr = class_of(z_dep), class_of(z_row)

    # Align the independently numbered classes through shared terms.
    col_map = {}   # x-col class -> y-col class
    dep_map = {}   # y-dep class -> z-dep class
    row_map = {}   # z-row class -> x-row class
    for (i, j, k) in t.entries:
        col_map.setdefault(xc[i], yc[j])
        dep_map.setdefault(yd[j], zd[k])
        row_map.setdefault(zr[k], xr[i])
        if col_map[xc[i]] != yc[j] or dep_map[yd[j]] != zd[k] or row_map[zr[k]] != xr[i]:
            return None

    x_coords = {i: (xr[i], xc[i]) for i in range(nx)}
    y_coords = {j: (yc[j], yd[j]) for j in range(ny)}
    z_coords = {k: (zd[k], zr[k]) for k in range(nz)}

    # Verify the full grid: exactly one term per (row, col, dep) triple.
    seen = set()
    for (i, j, k) in t.entries:
        row, col = x_coords[i]
        col2, dep = y_coords[j]
        dep2, row2 = z_coords[k]
        if col_map[col] != col2 or dep_map[dep] != dep2 or row_map[row2] != row:
            return None
        cell = (row, col, dep)
        if cell in seen:
            return None
        seen.add(cell)
    if len(seen) != nterms:
        return None

    # Coefficients must normalize to 1 by per-variable scalings.
    if not _unit_scalable(t):
        return None
    return MatmulWitness(a, b, c, x_coords, y_coords, z_coords)


def _unit_scalable(t: Tensor) -> bool:
    """Can per-variable scalings make every coefficient 1?

    Propagates scale assignments over the term hypergraph; a term with
    one undetermined variable fixes that variable's scale.  Sound and
    complete here because the final pass re-checks every term.
    """
    if all(c == 1 for c in t.entries.values()):
        return True
    scale_x: dict[int, Fraction] = {}
    scale_y: dict[int, Fraction] = {}
    scale_z: dict[int, Fraction] = {}
    pending = list(t.entries.items())
    progress = True
    while progress:
        progress = False
        rest = []
        for (i, j, k), coef in pending:
            known = []
            missing = []
            for store, key in ((scale_x, i), (scale_y, j), (scale_z, k)):
                if key in store:
                    known.append(store[key])
                else:
                    missing.append((store, key))
            if len(missing) == 0:
                rest.append(((i, j, k), coef))
                continue
            if len(missing) == 1:
                prod = coef
                for s in known:
                    prod *= s
                store, key = missing[0]
                store[key] = Fraction(1) / prod
                progress = True
            else:
                # Gauge freedom: pin the first missing scale to 1.
                store, key = missing[0]
                store[key] = Fraction(1)
                progress = True
                rest.append(((i, j, k), coef))
        pending = rest
    for (i, j, k), coef in t.entries.items():
        sx = scale_x.get(i, Fraction(1))
        sy = scale_y.get(j, Fraction(1))
        sz = scale_z.get(k, Fraction(1))
        if coef * sx * sy * sz != 1:
            return False
    return True
