"""Exact sparse 3-tensors (trilinear forms) over the rationals.

A tensor lives over three ordered variable lists X, Y, Z and is stored as a
sparse map from index triples (i, j, k) to nonzero exact coefficients:
`int` when integral, `Fraction` otherwise, so the integer families run
in integer arithmetic.
Tensors are immutable after construction: every operation returns a new
tensor, so values can be shared freely across threads.

Besides the generic algebra (product, direct sum, rotation, addition) this
module provides the standard structured families used in matrix
multiplication exponent work -- matrix multiplication tensors <a,b,c>,
independent (diagonal) tensors <q>, Coppersmith-Winograd tensors CW_q and
cw_q with an optional permutation twist, cyclic group tensors and their
lower triangular part, and the t_112 tensor -- together with their
conventional variable partitions.

Convention: the cyclic family constructors index the z axis so that the
term set is invariant under rotating the three axes.  This is an
isomorphic relabeling of the usual presentation (see the constructor
docstrings) and makes the rotation symmetry of these tensors visible to
the positional `is_variable_symmetric` check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

Entry = tuple[int, int, int]

AXES = ("x", "y", "z")

# Tensor powers are materialized eagerly; this cap keeps an accidental
# T**n from exhausting memory.  Asymptotic statements never need powers.
POWER_CAP = 3


@dataclass(frozen=True)
class RankFact:
    """An externally asserted asymptotic rank value with its provenance.

    `exact` False means the value is only a lower bound on the asymptotic
    rank (still usable in exponent bounds, which are monotone in it).
    """

    value: int
    exact: bool
    source: str


class Tensor:
    """Sparse trilinear form with exact rational coefficients.

    `x_labels`, `y_labels`, `z_labels` are the ordered variable lists;
    entries map positional index triples to nonzero coefficients.
    """

    __slots__ = ("x_labels", "y_labels", "z_labels", "entries", "meta")

    def __init__(self, x_labels, y_labels, z_labels, entries, meta=None):
        x_labels = tuple(x_labels)
        y_labels = tuple(y_labels)
        z_labels = tuple(z_labels)
        for name, labels in (("x", x_labels), ("y", y_labels), ("z", z_labels)):
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate {name} variable labels")
        clean = {}
        nx, ny, nz = len(x_labels), len(y_labels), len(z_labels)
        for key, c in entries.items():
            i, j, k = key
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c == 0:
                continue
            if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
                raise ValueError(f"entry index {(i, j, k)} out of range")
            if not (type(key) is tuple and type(i) is int and type(j) is int
                    and type(k) is int):
                key = (int(i), int(j), int(k))
            clean[key] = c
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "y_labels", y_labels)
        object.__setattr__(self, "z_labels", z_labels)
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "meta", dict(meta) if meta else {})

    @classmethod
    def _unchecked(cls, x_labels, y_labels, z_labels, entries, meta=None) -> Tensor:
        """A tensor taken as given, `meta` too, for label tuples and entries
        that pass every check of `Tensor(...)` as they stand: a checked
        tensor's and a sub-map of its entries, `direct_sum`'s of checked
        tensors, `parse_tensor`'s, or the table families' builders'."""
        t = object.__new__(cls)
        object.__setattr__(t, "x_labels", x_labels)
        object.__setattr__(t, "y_labels", y_labels)
        object.__setattr__(t, "z_labels", z_labels)
        object.__setattr__(t, "entries", entries)
        object.__setattr__(t, "meta", meta or {})
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- basic views ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.x_labels), len(self.y_labels), len(self.z_labels))

    def coefficient(self, i: int, j: int, k: int):
        return self.entries.get((i, j, k), 0)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.x_labels == other.x_labels
            and self.y_labels == other.y_labels
            and self.z_labels == other.z_labels
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(
            (self.x_labels, self.y_labels, self.z_labels, frozenset(self.entries.items()))
        )

    def __repr__(self):
        nx, ny, nz = self.shape
        return f"Tensor({nx}x{ny}x{nz}, {len(self.entries)} entries)"

    def used_indices(self, axis: str) -> set[int]:
        pos = AXES.index(axis)
        return {e[pos] for e in self.entries}

    def rank_fact(self) -> Optional[RankFact]:
        return self.meta.get("asymptotic_rank")


def is_minimal(t: Tensor) -> bool:
    """True when every variable of every axis occurs in some entry."""
    nx, ny, nz = t.shape
    return (
        len(t.used_indices("x")) == nx
        and len(t.used_indices("y")) == ny
        and len(t.used_indices("z")) == nz
    )


def trimmed(t: Tensor) -> Tensor:
    """Drop unused variables so the result is minimal for its axes."""
    if is_minimal(t):
        return t
    keep = [sorted(t.used_indices(ax)) for ax in AXES]
    remap = [{old: new for new, old in enumerate(kp)} for kp in keep]
    return Tensor(
        [t.x_labels[i] for i in keep[0]],
        [t.y_labels[j] for j in keep[1]],
        [t.z_labels[k] for k in keep[2]],
        {
            (remap[0][i], remap[1][j], remap[2][k]): c
            for (i, j, k), c in t.entries.items()
        },
        meta=t.meta,
    )


# -- constructors ---------------------------------------------------------


def make_matmul(a: int, b: int, c: int) -> Tensor:
    """The matrix multiplication tensor <a,b,c> = sum x_ij y_jk z_ki."""
    if min(a, b, c) < 1:
        raise ValueError("matmul dimensions must be positive")
    x = [(i, j) for i in range(a) for j in range(b)]
    y = [(j, k) for j in range(b) for k in range(c)]
    z = [(k, i) for k in range(c) for i in range(a)]
    entries = {}
    for i in range(a):
        for j in range(b):
            for k in range(c):
                entries[(i * b + j, j * c + k, k * a + i)] = 1
    return Tensor(x, y, z, entries, meta={"family": "matmul", "dims": (a, b, c)})


def make_independent(q: int) -> Tensor:
    """The independent (diagonal) tensor <q> = sum_i x_i y_i z_i."""
    if q < 1:
        raise ValueError("q must be positive")
    idx = list(range(q))
    return Tensor(idx, idx, idx, {(i, i, i): 1 for i in idx},
                  meta={"family": "independent", "q": q})


def _check_permutation(q: int, sigma) -> tuple[int, ...]:
    if sigma is None:
        return tuple(range(1, q + 1))
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, q + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{q}")
    return sigma


def make_cw(q: int, sigma: Optional[Sequence[int]] = None) -> Tensor:
    """Coppersmith-Winograd tensor CW_{q,sigma} on q+2 variables per axis.

    x_0 y_0 z_{q+1} + x_0 y_{q+1} z_0 + x_{q+1} y_0 z_0
      + sum_{i=1..q} (x_i y_{sigma(i)} z_0 + x_i y_0 z_i + x_0 y_i z_i)

    The default sigma is the identity, giving the classical CW_q.  The
    asymptotic rank q+2 is recorded as asserted metadata, not computed.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    sigma = _check_permutation(q, sigma)
    idx = tuple(range(q + 2))
    entries = {(0, 0, q + 1): 1, (0, q + 1, 0): 1, (q + 1, 0, 0): 1}
    for i in range(1, q + 1):
        entries[(i, sigma[i - 1], 0)] = 1
        entries[(i, 0, i)] = 1
        entries[(0, i, i)] = 1
    return Tensor._unchecked(idx, idx, idx, entries, {
        "family": "CW", "q": q, "sigma": sigma,
        "asymptotic_rank": RankFact(q + 2, True,
                                    "CW border rank construction (1990) with matching flattening lower bound"),
    })


def make_cw_small(q: int, sigma: Optional[Sequence[int]] = None) -> Tensor:
    """Simple Coppersmith-Winograd tensor cw_{q,sigma} (no corner terms):

    sum_{i=1..q} (x_i y_{sigma(i)} z_0 + x_i y_0 z_i + x_0 y_i z_i)
    """
    if q < 1:
        raise ValueError("q must be positive")
    sigma = _check_permutation(q, sigma)
    idx = tuple(range(q + 1))
    entries = {}
    for i in range(1, q + 1):
        entries[(i, sigma[i - 1], 0)] = 1
        entries[(i, 0, i)] = 1
        entries[(0, i, i)] = 1
    return Tensor._unchecked(idx, idx, idx, entries, {
        "family": "cw", "q": q, "sigma": sigma,
        "asymptotic_rank": RankFact(q + 1, False, "x-flattening rank lower bound"),
    })


def make_cyclic(q: int) -> Tensor:
    """Structural tensor of the cyclic group C_q, in rotation-invariant form.

    Constructed as sum over i+j+k = q-1 (mod q) of x_i y_j z_k, which is
    the usual sum_{i,j} x_i y_j z_{i+j mod q} with the z axis relabeled by
    the reflection k -> q-1-k mod q.  The asymptotic rank q (group algebra
    diagonalization) is recorded as asserted metadata.
    """
    if q < 1:
        raise ValueError("q must be positive")
    idx = list(range(q))
    entries = {(i, j, (q - 1 - i - j) % q): 1 for i in range(q) for j in range(q)}
    return Tensor(idx, idx, idx, entries, meta={
        "family": "cyclic", "q": q,
        "asymptotic_rank": RankFact(q, True, "cyclic group algebra diagonalization"),
    })


def make_cyclic_lower(q: int) -> Tensor:
    """Lower triangular part of the cyclic group tensor, rotation-invariant form.

    Constructed as sum over i+j+k = q-1 (i,j,k >= 0) of x_i y_j z_k, i.e.
    the usual sum_{i+j <= q-1} x_i y_j z_{i+j} with z_k relabeled to
    z_{q-1-k}.  Shares the asserted asymptotic rank q of the full tensor.
    """
    if q < 1:
        raise ValueError("q must be positive")
    idx = tuple(range(q))
    entries = {
        (i, j, q - 1 - i - j): 1
        for i in range(q) for j in range(q - i)
    }
    return Tensor._unchecked(idx, idx, idx, entries, {
        "family": "cyclic_lower", "q": q,
        "asymptotic_rank": RankFact(q, True, "restriction of the cyclic group tensor"),
    })


def make_t112(q: int) -> Tensor:
    """The t_112 tensor on 2q x-vars, 2q y-vars and q^2+2 z-vars:

    sum_i x_(i,0) y_(i,0) z_(0,q+1) + sum_k x_(0,k) y_(0,k) z_(q+1,0)
      + sum_{i,k} x_(i,0) y_(0,k) z_(i,k) + sum_{i,k} x_(0,k) y_(i,0) z_(i,k)
    """
    if q < 1:
        raise ValueError("q must be positive")
    xy = [(i, 0) for i in range(1, q + 1)] + [(0, k) for k in range(1, q + 1)]
    z = [(i, k) for i in range(1, q + 1) for k in range(1, q + 1)]
    z += [(0, q + 1), (q + 1, 0)]
    zpos = lambda i, k: (i - 1) * q + (k - 1)
    entries = {}
    for i in range(1, q + 1):
        entries[(i - 1, i - 1, q * q)] = 1            # x_(i,0) y_(i,0) z_(0,q+1)
    for k in range(1, q + 1):
        entries[(q + k - 1, q + k - 1, q * q + 1)] = 1  # x_(0,k) y_(0,k) z_(q+1,0)
    for i in range(1, q + 1):
        for k in range(1, q + 1):
            entries[(i - 1, q + k - 1, zpos(i, k))] = 1
            entries[(q + k - 1, i - 1, zpos(i, k))] = 1
    return Tensor(xy, xy, z, entries, meta={"family": "t112", "q": q})


# -- algebra --------------------------------------------------------------


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Tensor product; variables are pairs, ordered with `a`'s index major."""
    bx, by, bz = b.shape
    entries = {}
    for (i1, j1, k1), c1 in a.entries.items():
        # distinct term pairs give distinct keys, so each key is written once
        x, y, z = i1 * bx, j1 * by, k1 * bz
        for (i2, j2, k2), c2 in b.entries.items():
            entries[(x + i2, y + j2, z + k2)] = c1 * c2
    return Tensor(
        [(p, q) for p in a.x_labels for q in b.x_labels],
        [(p, q) for p in a.y_labels for q in b.y_labels],
        [(p, q) for p in a.z_labels for q in b.z_labels],
        entries,
    )


def tensor_power(t: Tensor, n: int) -> Tensor:
    """n-th tensor power, refused above `POWER_CAP` to bound memory."""
    if n < 1:
        raise ValueError("power must be >= 1")
    if n > POWER_CAP:
        raise ValueError(f"tensor power {n} exceeds cap {POWER_CAP}")
    out = t
    for _ in range(n - 1):
        out = tensor_product(out, t)
    return out


def direct_sum(*tensors: Tensor) -> Tensor:
    """Disjoint sum; the labels of the r-th tensor are tagged (r, label)."""
    labels, entries = ([], [], []), {}
    for r, t in enumerate(tensors):
        ox, oy, oz = (len(axis) for axis in labels)
        for axis, own in zip(labels, (t.x_labels, t.y_labels, t.z_labels)):
            axis.extend(zip(repeat(r), own))
        entries.update({(i + ox, j + oy, k + oz): c for (i, j, k), c in t.entries.items()})
    return Tensor._unchecked(*map(tuple, labels), entries)


def n_copies(m: int, t: Tensor) -> Tensor:
    """Disjoint sum of m copies of t."""
    if m < 1:
        raise ValueError("m must be positive")
    return direct_sum(*repeat(t, m))


def tensor_add(a: Tensor, b: Tensor) -> Tensor:
    """Coefficient-wise sum of two tensors over identical variable lists."""
    if (a.x_labels, a.y_labels, a.z_labels) != (b.x_labels, b.y_labels, b.z_labels):
        raise ValueError("tensor_add requires identical variable lists")
    entries = dict(a.entries)
    for key, c in b.entries.items():
        s = entries.get(key, 0) + c
        if s == 0:
            entries.pop(key, None)
        else:
            entries[key] = s
    return Tensor(a.x_labels, a.y_labels, a.z_labels, entries)


def rotate(t: Tensor) -> Tensor:
    """Rotation: the coefficient of y_j z_k x_i in rot(T) is that of x_i y_j z_k."""
    return Tensor(
        t.y_labels, t.z_labels, t.x_labels,
        {(j, k, i): c for (i, j, k), c in t.entries.items()},
        meta=t.meta,
    )


def symmetric_cube(t: Tensor) -> Tensor:
    """T (x) rot(T) (x) rot(rot(T)), ordered to be rotation symmetric.

    Each axis of the result is the full product X x Y x Z of the three
    axes of T; on every axis the variables are listed by their
    (x-component, y-component, z-component) triple in lexicographic
    order.  Under this alignment the result passes the positional
    `is_variable_symmetric` check for every input tensor.  (The plain
    `tensor_product` ordering does not: its y axis is ordered
    (y, z, x)-major.)
    """
    nx, ny, nz = t.shape
    labels = [
        (t.x_labels[a], t.y_labels[b], t.z_labels[c])
        for a in range(nx) for b in range(ny) for c in range(nz)
    ]
    # Variable (a, b, c) sits at a*ny*nz + b*nz + c, so each factor entry
    # contributes one fixed offset per component.  The key spells out all
    # three factor entries, so each key is written exactly once.
    offsets = [(i * ny * nz, j * nz, k, c) for (i, j, k), c in t.entries.items()]
    entries = {}
    for x1, y1, z1, c1 in offsets:
        for x2, y2, z2, c2 in offsets:
            c12, u, v, w = c1 * c2, x1 + y2, y1 + z2, x2 + z1
            for x3, y3, z3, c3 in offsets:
                entries[(u + z3, x3 + v, w + y3)] = c12 * c3
    return Tensor(labels, list(labels), list(labels), entries)


# -- symmetry predicates --------------------------------------------------


def is_variable_symmetric(t: Tensor) -> bool:
    """Equal axis sizes and coefficient(i,j,k) == coefficient(j,k,i).

    This is a positional check under the constructor's index order, not a
    search over relabelings; isomorphism testing in general is out of
    scope.
    """
    nx, ny, nz = t.shape
    if not (nx == ny == nz):
        return False
    get = t.entries.get
    return all(get((j, k, i)) == c for (i, j, k), c in t.entries.items())


# -- partitions and blocks ------------------------------------------------


class PartitionError(ValueError):
    """An invalid partition; `axis` and `part` locate the fault.

    `part` is the position of the offending part on that axis, or None
    when the parts of the axis are fine on their own but do not cover it.
    """

    def __init__(self, axis: str, part: Optional[int], message: str):
        super().__init__(message)
        self.axis = axis
        self.part = part


class VariablePartition:
    """A partition of each axis into labeled, ordered parts.

    Each part is (label, indices); indices are stored sorted.  Parts must
    be nonempty, disjoint, and cover 0..n-1 for the axis sizes given.
    `where[axis position][i]` is (part, slot): index i is the slot-th
    index of that part.  `summands` is None, or for a `partition_sum` the
    (x, y, z) part counts of each summand; equality ignores it.
    """

    __slots__ = ("parts_x", "parts_y", "parts_z", "sizes", "where", "summands")

    def __init__(self, parts_x, parts_y, parts_z, sizes):
        def normalize(parts, n, axis):
            out = []
            where = [None] * n
            for pos, (label, idx) in enumerate(parts):
                idx = tuple(sorted(int(i) for i in idx))
                if not idx:
                    raise PartitionError(axis, pos, f"empty part {label!r} on axis {axis}")
                for slot, i in enumerate(idx):
                    if not 0 <= i < n:
                        raise PartitionError(axis, pos, f"index {i} out of range on axis {axis}")
                    if where[i] is not None:
                        raise PartitionError(axis, pos, f"index {i} in two parts on axis {axis}")
                    where[i] = (pos, slot)
                out.append((str(label), idx))
            if None in where:
                raise PartitionError(axis, None, f"parts do not cover axis {axis}")
            return tuple(out), tuple(where)

        nx, ny, nz = sizes
        px, wx = normalize(parts_x, nx, "x")
        py, wy = normalize(parts_y, ny, "y")
        pz, wz = normalize(parts_z, nz, "z")
        object.__setattr__(self, "sizes", (nx, ny, nz))
        object.__setattr__(self, "parts_x", px)
        object.__setattr__(self, "parts_y", py)
        object.__setattr__(self, "parts_z", pz)
        object.__setattr__(self, "where", (wx, wy, wz))
        object.__setattr__(self, "summands", None)

    @classmethod
    def _unchecked(cls, parts, where, summands=None) -> VariablePartition:
        """A partition taken as given: per axis its normalized parts and
        `where` map, as a checked partition's (or `partition_sum`'s) stand."""
        p = object.__new__(cls)
        for axis, own in zip(AXES, parts):
            object.__setattr__(p, f"parts_{axis}", tuple(own))
        object.__setattr__(p, "where", tuple(map(tuple, where)))
        object.__setattr__(p, "sizes", tuple(len(w) for w in p.where))
        object.__setattr__(p, "summands", summands)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("VariablePartition is immutable")

    def parts(self, axis: str):
        return {"x": self.parts_x, "y": self.parts_y, "z": self.parts_z}[axis]

    def part_sizes(self, axis: str) -> list[int]:
        return [len(idx) for _, idx in self.parts(axis)]

    def part_count(self, axis: str) -> int:
        return len(self.parts(axis))

    def __eq__(self, other):
        if not isinstance(other, VariablePartition):
            return NotImplemented
        return (self.sizes == other.sizes and self.parts_x == other.parts_x
                and self.parts_y == other.parts_y and self.parts_z == other.parts_z)

    def __repr__(self):
        kx, ky, kz = (len(self.parts_x), len(self.parts_y), len(self.parts_z))
        return f"VariablePartition({kx}/{ky}/{kz} parts, sizes {self.sizes})"


def trivial_partition(t: Tensor) -> VariablePartition:
    """One part per axis."""
    nx, ny, nz = t.shape
    return VariablePartition(
        [("all", range(nx))], [("all", range(ny))], [("all", range(nz))],
        sizes=t.shape,
    )


def singleton_partition(t: Tensor) -> VariablePartition:
    """Every variable in its own part, parts ordered by position; valid as
    built, so not checked again."""
    return VariablePartition._unchecked(
        [[(str(i), (i,)) for i in range(n)] for n in t.shape],
        [[(i, 0) for i in range(n)] for n in t.shape])


def cw_partition(q: int) -> VariablePartition:
    """Standard 0-indexed CW_q partition: {0}, {1..q}, {q+1} on each axis."""
    return _cw_partition(q, [("2", (q + 1,))])


def cw_small_partition(q: int) -> VariablePartition:
    """Standard cw_q partition: {0}, {1..q} on each axis."""
    return _cw_partition(q, [])


def _cw_partition(q, corner):
    """{0}, {1..q} and `corner` on each axis; valid for q >= 1, so not checked."""
    if q < 1:
        raise PartitionError("x", 1, "empty part '1' on axis x")
    parts = [("0", (0,)), ("1", tuple(range(1, q + 1))), *corner]
    where = [(0, 0), *((1, i) for i in range(q))] + [(2, 0)] * len(corner)
    return VariablePartition._unchecked([parts] * 3, [where] * 3)


def t112_partition(q: int) -> VariablePartition:
    """Standard t_112 partition: two x/y parts, three z parts."""
    half = [("0", tuple(range(q))), ("1", tuple(range(q, 2 * q)))]
    zparts = [("0", tuple(range(q * q))), ("1", (q * q,)), ("2", (q * q + 1,))]
    return VariablePartition(half, list(half), zparts,
                             sizes=(2 * q, 2 * q, q * q + 2))


def cube_partition(t: Tensor, p: VariablePartition) -> VariablePartition:
    """Product partition on symmetric_cube(t) induced by a partition of t.

    Parts on every cube axis are indexed by (x-part, y-part, z-part)
    triples of the base partition, in lexicographic order, matching the
    variable ordering used by `symmetric_cube`.
    """
    nx, ny, nz = t.shape
    if p.sizes != t.shape:
        raise ValueError("partition does not match tensor")
    flat = lambda a, b, c: (a * ny + b) * nz + c
    parts = []
    for lx, ix in p.parts_x:
        for ly, iy in p.parts_y:
            for lz, iz in p.parts_z:
                idx = [flat(a, b, c) for a in ix for b in iy for c in iz]
                parts.append((f"{lx},{ly},{lz}", idx))
    n = nx * ny * nz
    return VariablePartition(parts, list(parts), list(parts), sizes=(n, n, n))


@dataclass(frozen=True, eq=False)
class BlockSet:
    """The nonzero blocks of a tensor under a partition, decided by `blocks`.

    The block set is held in int arrays: `key_array` lists the part index
    triples (i, j, k) of the nonzero blocks in sorted order, `entry_block`
    the block of each entry of the tensor (in `entries` order), and `group`
    each block's rotation orbit on a symmetric summand, or the block alone
    on any other, numbered in key order of their first blocks.
    `symmetry` holds, per summand, whether its tensor is variable-symmetric
    and whether its partition is symmetric for it (see `blocks`).

    The public views are built from the arrays when first read: `keys()`
    lists the keys as tuples; `blocks` maps each key, in sorted order, to
    the entries of the parent tensor on those parts, keyed by within-part
    slots: {(slot_x, slot_y, slot_z): coefficient}.  `bs[key]` builds that
    block as a standalone, checked tensor over its parts' variables (in
    part order), anew on every call.  `orbits` lists the key orbits under
    (i,j,k) -> (j,k,i), sorted tuples in sorted order, or is None unless
    every summand is `symmetric`.  `summands` is None, or for the blocks
    of a direct sum (`partition_sum`) the (x, y, z) part counts of each
    summand, in order.
    """

    tensor: Tensor
    partition: VariablePartition
    key_array: np.ndarray
    entry_block: np.ndarray
    group: np.ndarray
    symmetry: tuple
    summands: Optional[tuple] = None

    symmetric = property(lambda self: all(sym for _, sym in self.symmetry))

    @cached_property
    def _keys(self) -> list:
        return list(zip(*self.key_array.T.tolist()))

    def keys(self):
        return list(self._keys)

    def __len__(self):
        return len(self.key_array)

    @cached_property
    def _members(self):
        """The entries, their positions in block order, and where the
        positions of each block begin."""
        order = np.argsort(self.entry_block, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.entry_block, minlength=len(self))).tolist()
        return list(self.tensor.entries.items()), order, [0] + ends

    def _block(self, b: int) -> dict:
        """The slot-keyed entries of the block numbered b."""
        items, order, ends = self._members
        wx, wy, wz = self.partition.where
        return {(wx[i][1], wy[j][1], wz[k][1]): c
                for (i, j, k), c in map(items.__getitem__, order[ends[b]:ends[b + 1]])}

    @cached_property
    def blocks(self) -> dict:
        return {key: self._block(b) for b, key in enumerate(self._keys)}

    @cached_property
    def orbits(self) -> Optional[list]:
        if not self.symmetric:
            return None
        out = [[] for _ in range(int(self.group.max(initial=-1)) + 1)]
        for key, g in zip(self._keys, self.group.tolist()):
            out[g].append(key)
        return list(map(tuple, out))

    @cached_property
    def _index(self) -> dict:
        return {key: b for b, key in enumerate(self._keys)}

    def __getitem__(self, key) -> Tensor:
        i, j, k = key
        t, p = self.tensor, self.partition
        return Tensor(
            [t.x_labels[v] for v in p.parts_x[i][1]],
            [t.y_labels[v] for v in p.parts_y[j][1]],
            [t.z_labels[v] for v in p.parts_z[k][1]],
            self._block(self._index[(i, j, k)]),
        )

    def part_sizes(self, axis: str) -> list[int]:
        return self.partition.part_sizes(axis)

    def __repr__(self):
        return f"BlockSet({len(self)} blocks of {self.tensor!r})"


def blocks(t: Tensor, p: VariablePartition) -> BlockSet:
    """Split t into its nonzero blocks under p, in int arrays (see
    `BlockSet`), and decide per summand of p (the whole of p unless it is
    a `partition_sum`) whether p is symmetric for t; builds no block `Tensor`.

    Summand r is symmetric when its part sizes agree on the three axes, its
    tensor is variable-symmetric (t[a,b,c] == t[b,c,a]) and each block
    (i,j,k), rotated positionally, equals the block at (j,k,i).  With equal
    part sizes, phi sends an x variable to the z variable of the same part
    and slot, psi y to x and chi z to y; the blocks then rotate exactly when
    t[a,b,c] == t[psi(b), chi(c), phi(a)] on every entry.  Both identities
    are checked on all entries at once, in the summand's own numbering, by
    looking up the coded image of each entry among the sorted entry codes
    and comparing coefficients exactly.  The orbits of a symmetric summand
    are the classes of the least rotation of each key.
    """
    if p.sizes != t.shape:
        raise ValueError("partition sizes do not match tensor axes")
    n, shape = len(t.entries), t.shape
    sizes = [p.part_sizes(ax) for ax in AXES]
    k = [len(s) for s in sizes]

    # per summand: its part and index offsets, and whether its part sizes,
    # and its axis sizes, agree on the three axes
    layout = p.summands or (k,)
    part_off, index_off, equal, square = [], [], [], []
    parts_at, index_at = [0, 0, 0], [0, 0, 0]
    for counts in layout:
        here = [s[a:a + c] for s, a, c in zip(sizes, parts_at, counts)]
        spans = list(map(sum, here))
        part_off.append(parts_at)
        index_off.append(index_at)
        equal.append(here[0] == here[1] == here[2])
        square.append(spans[0] == spans[1] == spans[2])
        parts_at = [a + c for a, c in zip(parts_at, counts)]
        index_at = [a + c for a, c in zip(index_at, spans)]
    part_off, index_off = np.array(part_off, np.intp), np.array(index_off, np.intp)
    rows = len(layout)
    row_of = np.repeat(np.arange(rows), [c[0] for c in layout])     # of each x part

    # the part of each entry's index on each axis (variables of the three
    # axes numbered one after the other), and the keys in sorted order
    start = np.array([0, shape[0], shape[0] + shape[1]])
    where = np.fromiter(chain.from_iterable(chain.from_iterable(p.where)), np.intp,
                        2 * sum(shape)).reshape(-1, 2)
    ent = np.fromiter(chain.from_iterable(t.entries), np.intp, 3 * n).reshape(n, 3)
    var = ent + start
    pk = where[var, 0]
    key_code = [k[1] * k[2], k[2], 1]
    codes, firsts, entry_block = np.unique(pk @ key_code, return_index=True,
                                           return_inverse=True)
    keys = pk[firsts]
    row = row_of[pk[:, 0]]
    io = index_off[row]

    # the entry identities, on entries coded (a ny + b) nz + c; read only on
    # summands of equal axis sizes, so skipped when there is none
    var_holds = rot_holds = np.zeros(n, bool)
    if any(square):
        values = list(t.entries.values())
        ids = {c: i for i, c in enumerate(dict.fromkeys(values))}
        coef = np.fromiter(map(ids.__getitem__, values), np.intp, n)
        entry_code = [shape[1] * shape[2], shape[2], 1]
        entry_codes = ent @ entry_code
        order = np.argsort(entry_codes, kind="stable")
        sorted_codes = entry_codes[order]

        def holds(image):
            """Whether each entry's image (one index triple per row) is an
            entry with the same coefficient."""
            image = image @ entry_code
            pos = np.minimum(np.searchsorted(sorted_codes, image), max(n - 1, 0))
            return (sorted_codes[pos] == image) & (coef[order[pos]] == coef)

        var_holds = rot_holds = holds(ent[:, (1, 2, 0)] - io[:, (1, 2, 0)] + io)
        # phi, psi and chi are the identity when the three axes share p
        if any(equal) and not p.where[0] == p.where[1] == p.where[2]:
            # each index's position in its axis's (part, slot) order: with
            # equal part sizes, psi(b) is the x index at b's position, both
            # counted from the summand's first index (clipped where none is)
            members = np.fromiter(chain.from_iterable(idx for ax in AXES
                                                      for _, idx in p.parts(ax)),
                                  np.intp, sum(shape))
            axis_start = np.repeat(start, shape)
            position = np.empty(sum(shape), np.intp)
            position[members + axis_start] = np.arange(sum(shape)) - axis_start
            at = position[var][:, (1, 2, 0)] - io[:, (1, 2, 0)] + io
            rot_holds = holds(members[np.clip(at, 0, np.array(shape) - 1) + start])
    var_sym = np.array(square) & (np.bincount(row, ~var_holds, rows) == 0)
    sym = var_sym & np.array(equal) & (np.bincount(row, ~rot_holds, rows) == 0)

    # orbits: each key of a symmetric summand grouped by its least rotation
    if sym.any():
        brow = row_of[keys[:, 0]]
        po = part_off[brow]
        local = keys - po
        turned = np.minimum((local[:, (1, 2, 0)] + po) @ key_code,
                            (local[:, (2, 0, 1)] + po) @ key_code)
        least = np.where(sym[brow], np.minimum(codes, turned), codes)
        group = np.unique(least, return_index=True, return_inverse=True)[2]
    else:
        group = np.arange(len(keys))
    return BlockSet(t, p, keys, entry_block, group, tuple(zip(var_sym.tolist(), sym.tolist())),
                    p.summands)


def partition_sum(*partitions: VariablePartition) -> VariablePartition:
    """The direct sum of partitions, over `direct_sum`'s variables: summand
    r's parts, labelled "r:label", and indices come after those of the
    summands before it, and `summands` holds each summand's part counts."""
    parts, where = ([], [], []), ([], [], [])
    for r, p in enumerate(partitions):
        for axis, ax in enumerate(AXES):
            offset, first = len(where[axis]), len(parts[axis])
            parts[axis].extend((f"{r}:{label}", tuple(map(offset.__add__, idx)))
                               for label, idx in p.parts(ax))
            where[axis].extend((part + first, slot) for part, slot in p.where[axis])
    return VariablePartition._unchecked(parts, where, tuple(
        (len(p.parts_x), len(p.parts_y), len(p.parts_z)) for p in partitions))


def block_sum(block_sets: Sequence[BlockSet]) -> BlockSet:
    """The direct sum of block sets: `blocks` of the direct sum of their
    tensors (`direct_sum`) under the direct sum of their partitions
    (`partition_sum`).  Summand r's parts, keys and orbits come after those
    of the summands before it, as its variables do.  The sum is symmetric
    when every summand is, and one block set is its own sum."""
    if len(block_sets) == 1:
        return block_sets[0]
    return blocks(direct_sum(*(bs.tensor for bs in block_sets)),
                  partition_sum(*(bs.partition for bs in block_sets)))


def split_by_blocks(t: Tensor, p: VariablePartition) -> dict:
    """The nonzero blocks as tensors over the parent's full variable lists.

    Unlike `blocks`, the returned tensors keep the ambient axes, so they
    sum (entrywise) to the parent tensor.  They share the parent's label
    tuples and hold sub-maps of its entries, so they are not checked again.
    """
    if p.sizes != t.shape:
        raise ValueError("partition sizes do not match tensor axes")
    wx, wy, wz = p.where
    buckets: dict[Entry, dict] = {}
    for (i, j, k), c in t.entries.items():
        buckets.setdefault((wx[i][0], wy[j][0], wz[k][0]), {})[(i, j, k)] = c
    return {
        key: Tensor._unchecked(t.x_labels, t.y_labels, t.z_labels, buckets[key])
        for key in sorted(buckets)
    }


# -- text formats ---------------------------------------------------------


class ParseError(ValueError):
    """Input file syntax error; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_lines(text: str):
    """(1-based line number, tokens) of each line with tokens; a line ends
    at "\n" only, and `#` starts a comment."""
    for n, raw in enumerate(text.split("\n"), start=1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if toks:
            yield n, toks


_INTEGER_RATIO = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _coefficient(tok: str):
    """The value `Fraction(tok)` reads (or the error it raises), as an
    `int` when integral; a `[+-]n[/d]` token builds no `Fraction` then."""
    match = _INTEGER_RATIO.fullmatch(tok)
    if match is None:
        c = Fraction(tok)
        return c.numerator if c.denominator == 1 else c
    num, den = int(match[1]), int(match[2] or 1)
    return Fraction(num, den) if num % den else num // den


class _TokenValues(dict):
    """token -> `read(token)`, reading each distinct token once; the
    errors of `read` pass through and nothing is stored for them."""

    __slots__ = ("read",)

    def __init__(self, read):
        super().__init__()
        self.read = read

    def __missing__(self, tok):
        value = self[tok] = self.read(tok)
        return value


def parse_tensor(text: str) -> Tensor:
    """Parse the line-oriented tensor format.

    Header lines `xvars n`, `yvars n`, `zvars n` (n >= 0, any order, each
    once, before the entries), then one entry per line: `i j k num/den` with
    0-based indices.  `#` starts a comment; a line ends at "\n" only.
    """
    sizes = {}
    entries = {}
    # a file repeats few index and coefficient tokens (a cube file's 729
    # entries use 27 indices and one coefficient), so each is read once
    indices, values = _TokenValues(int), _TokenValues(_coefficient)
    for n, raw in enumerate(text.split("\n"), start=1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not toks:
            continue
        if toks[0] in ("xvars", "yvars", "zvars"):
            if len(toks) != 2:
                raise ParseError(n, f"malformed header {' '.join(toks)!r}")
            if entries:
                raise ParseError(n, f"{toks[0]} header after the entries")
            if toks[0][0] in sizes:
                raise ParseError(n, f"repeated {toks[0]} header")
            try:
                count = int(toks[1])
            except ValueError:
                count = -1
            if count < 0:
                raise ParseError(n, f"bad variable count {toks[1]!r}")
            sizes[toks[0][0]] = count
            if len(sizes) == 3:
                nx, ny, nz = sizes["x"], sizes["y"], sizes["z"]
            continue
        if len(sizes) != 3:
            raise ParseError(n, "entry before xvars/yvars/zvars headers")
        if len(toks) != 4:
            raise ParseError(n, f"expected 'i j k coeff', got {' '.join(toks)!r}")
        try:
            key = (indices[toks[0]], indices[toks[1]], indices[toks[2]])
            c = values[toks[3]]
        except (ValueError, ZeroDivisionError):
            raise ParseError(n, f"bad entry {' '.join(toks)!r}")
        if key in entries:
            raise ParseError(n, f"duplicate entry for {key}")
        i, j, k = key
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            for idx, ax in zip(key, "xyz"):
                if not 0 <= idx < sizes[ax]:
                    raise ParseError(n, f"{ax} index {idx} out of range")
        entries[key] = c
    if len(sizes) != 3:
        raise ParseError(1, "missing xvars/yvars/zvars headers")
    return Tensor._unchecked(*(tuple(range(sizes[ax])) for ax in "xyz"),
                             {key: c for key, c in entries.items() if c})


def write_tensor(t: Tensor) -> str:
    nx, ny, nz = t.shape
    lines = [f"xvars {nx}", f"yvars {ny}", f"zvars {nz}"]
    for (i, j, k) in sorted(t.entries):
        c = t.entries[(i, j, k)]
        lines.append(f"{i} {j} {k} {c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


def parse_partition(text: str, sizes=None) -> VariablePartition:
    """Parse the partition format: one `axis label index index ...` per line.

    If `sizes` is omitted the axis sizes are taken to be the total index
    counts seen per axis.
    """
    parts = {"x": [], "y": [], "z": []}
    line_of = {"x": [], "y": [], "z": []}
    last = 1
    for n, toks in _content_lines(text):
        if toks[0] not in parts or len(toks) < 3:
            raise ParseError(n, f"expected 'axis label idx...', got {' '.join(toks)!r}")
        try:
            idx = [int(tok) for tok in toks[2:]]
        except ValueError:
            raise ParseError(n, f"bad index in {' '.join(toks)!r}")
        parts[toks[0]].append((toks[1], idx))
        line_of[toks[0]].append(n)
        last = n
    if sizes is None:
        sizes = tuple(sum(len(idx) for _, idx in parts[ax]) for ax in AXES)
    try:
        return VariablePartition(parts["x"], parts["y"], parts["z"], sizes)
    except PartitionError as exc:
        # a missing index is reported at the axis's last part, or at the
        # end of the input when the axis has no parts
        lines = line_of[exc.axis]
        at = lines[-1 if exc.part is None else exc.part] if lines else last
        raise ParseError(at, str(exc))


def write_partition(p: VariablePartition) -> str:
    lines = []
    for ax in AXES:
        for label, idx in p.parts(ax):
            lines.append(f"{ax} {label} " + " ".join(str(i) for i in idx))
    return "\n".join(lines) + "\n"
