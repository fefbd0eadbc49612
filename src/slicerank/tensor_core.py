"""Exact sparse 3-tensors (trilinear forms) over the rationals.

A tensor lives over three ordered variable lists X, Y, Z and is stored as a
sparse map from index triples (i, j, k) to nonzero exact coefficients:
`int` when integral, `Fraction` otherwise, so the integer families run
in integer arithmetic.
Tensors are immutable after construction: every operation returns a new
tensor, so values can be shared freely across threads.  A tensor holds
its entries as an n x 3 key array and a coefficient array from
construction; the entries dict is the one it was built from, or is
derived from the arrays once, when first read.

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

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product, repeat
from typing import Optional, Sequence

import numpy as np

from .exact_linalg import _exact

AXES = ("x", "y", "z")

# Tensor powers are materialized eagerly; this cap keeps an accidental
# T**n from exhausting memory.  Asymptotic statements never need powers.
POWER_CAP = 3

# where CW_q's asserted asymptotic rank q+2 comes from, for every q
CW_RANK_SOURCE = "CW border rank construction (1990) with matching flattening lower bound"


@dataclass(frozen=True)
class RankFact:
    """An externally asserted asymptotic rank value with its provenance.

    `exact` False means the value is only a lower bound on the asymptotic
    rank (still usable in exponent bounds, which are monotone in it).
    """

    value: int
    exact: bool
    source: str


def _index(i) -> int:
    """i as an int, for an integer of any type (a numpy one too); a
    ValueError otherwise, where `int` would truncate 1.5 to 1."""
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"{i!r} is not an integer") from None


class Frozen:
    """Base of the immutable value types.  `_set` fills the slots once, in
    `__slots__` order, through the slot setters collected per class;
    setting or deleting an attribute raises, and `__setstate__` restores
    for pickle and copy the state (None, {slot: value}) a slotted object
    saves."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values):
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value=None):  # `__delattr__` passes no value
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class _Entries(dict):
    """A tensor's entries: a dict that refuses every change, so reads run
    at dict speed."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("tensor entries are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Entries, (dict(self),)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _coefficients(values: list) -> np.ndarray:
    """`values` as a read-only array: int64 when all of them are ints that
    fit, objects otherwise."""
    coefs = np.array(values) if values else np.zeros(0, np.int64)
    if coefs.dtype != np.int64:  # a Fraction, or an int past int64
        coefs = np.array(values, object)
    return _read_only(coefs)


def _arrays(entries: dict) -> tuple:
    """The read-only n x 3 key array and the coefficient array of `entries`,
    in its order."""
    n = len(entries)
    keys = np.fromiter(chain.from_iterable(entries), np.intp, 3 * n).reshape(n, 3)
    return _read_only(keys), _coefficients(list(entries.values()))


class Tensor(Frozen):
    """Sparse trilinear form with exact rational coefficients.

    `x_labels`, `y_labels`, `z_labels` are the ordered variable lists, and
    `labels` reads the three of them as a triple.  `key_array` (n x 3) and
    `coef_array`, held from construction and read-only, list the nonzero
    entries: the coefficients as int64 when all of them are ints that fit,
    as objects otherwise.  `entries`, a read-only dict, maps the same index
    triples to the same coefficients in the same order; it is the dict the
    tensor was built from, or is derived from the arrays on first read
    (threads that race to it derive equal values).
    """

    __slots__ = ("x_labels", "y_labels", "z_labels", "meta", "key_array", "coef_array",
                 "_entries")

    labels = property(lambda self: (self.x_labels, self.y_labels, self.z_labels))

    def __init__(self, x_labels, y_labels, z_labels, entries, meta=None):
        labels = tuple(map(tuple, (x_labels, y_labels, z_labels)))
        for name, own in zip(AXES, labels):
            if len(set(own)) != len(own):
                raise ValueError(f"duplicate {name} variable labels")
        clean = {}
        nx, ny, nz = map(len, labels)
        for key, c in entries.items():
            i, j, k = key
            if type(c) is not int:
                c = _exact(Fraction(c))
            if c == 0:
                continue
            if not (type(key) is tuple and type(i) is int and type(j) is int
                    and type(k) is int):
                key = i, j, k = _index(i), _index(j), _index(k)
            if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
                raise ValueError(f"entry index {(i, j, k)} out of range")
            clean[key] = c
        self._set(*labels, dict(meta) if meta else {}, *_arrays(clean), _Entries(clean))

    @classmethod
    def _unchecked(cls, x_labels, y_labels, z_labels, entries, meta=None) -> Tensor:
        """A tensor taken as given, `meta` too, for label tuples and entries
        that pass every check of `Tensor(...)` as they stand:
        `parse_tensor`'s, or the table families' builders'."""
        t = object.__new__(cls)
        t._set(x_labels, y_labels, z_labels, meta or {}, *_arrays(entries),
               entries if type(entries) is _Entries else _Entries(entries))
        return t

    @classmethod
    def _from_arrays(cls, x_labels, y_labels, z_labels, keys, coefs, meta=None) -> Tensor:
        """`_unchecked` for entries given as an n x 3 int key array and a
        coefficient array, nonzero, with distinct keys in range.  An int64
        array is kept; any other, such as the object array of `direct_sum`
        or of remove-x's split of a tensor that holds a Fraction, is read
        again by `_coefficients`, since a part of it may hold only ints that
        fit.  Both arrays end read-only; `entries` is derived on first read."""
        coefs = _read_only(coefs) if coefs.dtype == np.int64 else _coefficients(coefs.tolist())
        t = object.__new__(cls)
        t._set(x_labels, y_labels, z_labels, meta or {}, _read_only(keys), coefs, None)
        return t

    def __reduce__(self):
        return Tensor._from_arrays, (*self.labels, self.key_array, self.coef_array, self.meta)

    @property
    def entries(self) -> dict:
        entries = self._entries
        if entries is None:
            entries = _Entries(zip(zip(*self.key_array.T.tolist()), self.coef_array.tolist()))
            object.__setattr__(self, "_entries", entries)
        return entries

    # -- basic views ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(map(len, self.labels))

    def coefficient(self, i: int, j: int, k: int):
        return self.entries.get((i, j, k), 0)

    def __len__(self) -> int:
        return len(self.key_array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.labels == other.labels and self.entries == other.entries

    def __hash__(self):
        return hash((*self.labels, frozenset(self.entries.items())))

    def __repr__(self):
        nx, ny, nz = self.shape
        return f"Tensor({nx}x{ny}x{nz}, {len(self)} entries)"

    def used_indices(self, axis: str) -> set[int]:
        pos = AXES.index(axis)
        return {e[pos] for e in self.entries}

    def rank_fact(self) -> Optional[RankFact]:
        return self.meta.get("asymptotic_rank")


def is_minimal(t: Tensor) -> bool:
    """True when every variable of every axis occurs in some entry."""
    return tuple(len(t.used_indices(ax)) for ax in AXES) == t.shape


def trimmed(t: Tensor) -> Tensor:
    """Drop unused variables so the result is minimal for its axes."""
    keys = t.key_array
    # not `np.unique`, whose plain form imports `numpy.ma` on first use
    used = [np.flatnonzero(np.bincount(keys[:, a], minlength=n)) for a, n in enumerate(t.shape)]
    if tuple(map(len, used)) == t.shape:
        return t
    return Tensor._from_arrays(
        *(tuple(map(own.__getitem__, kp.tolist())) for own, kp in zip(t.labels, used)),
        np.column_stack([np.searchsorted(kp, keys[:, a]) for a, kp in enumerate(used)]),
        t.coef_array, dict(t.meta))


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


def _cw_terms(q: int, sigma, entries: dict) -> tuple:
    """sigma checked (None is the identity) and `entries` with the terms
    x_i y_sigma(i) z_0 + x_i y_0 z_i + x_0 y_i z_i, i = 1..q, added in
    that order."""
    sigma = tuple(range(1, q + 1)) if sigma is None else tuple(map(_index, sigma))
    if sorted(sigma) != list(range(1, q + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{q}")
    for i in range(1, q + 1):
        entries[(i, sigma[i - 1], 0)] = 1
        entries[(i, 0, i)] = 1
        entries[(0, i, i)] = 1
    return sigma, entries


def make_cw(q: int, sigma: Optional[Sequence[int]] = None) -> Tensor:
    """Coppersmith-Winograd tensor CW_{q,sigma} on q+2 variables per axis.

    x_0 y_0 z_{q+1} + x_0 y_{q+1} z_0 + x_{q+1} y_0 z_0
      + sum_{i=1..q} (x_i y_{sigma(i)} z_0 + x_i y_0 z_i + x_0 y_i z_i)

    The default sigma is the identity, giving the classical CW_q.  The
    asymptotic rank q+2 is recorded as asserted metadata, not computed.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    sigma, entries = _cw_terms(q, sigma, {(0, 0, q + 1): 1, (0, q + 1, 0): 1, (q + 1, 0, 0): 1})
    idx = tuple(range(q + 2))
    return Tensor._unchecked(idx, idx, idx, entries, {
        "family": "CW", "q": q, "sigma": sigma,
        "asymptotic_rank": RankFact(q + 2, True, CW_RANK_SOURCE),
    })


def make_cw_small(q: int, sigma: Optional[Sequence[int]] = None) -> Tensor:
    """Simple Coppersmith-Winograd tensor cw_{q,sigma} (no corner terms):

    sum_{i=1..q} (x_i y_{sigma(i)} z_0 + x_i y_0 z_i + x_0 y_i z_i)
    """
    if q < 1:
        raise ValueError("q must be positive")
    sigma, entries = _cw_terms(q, sigma, {})
    idx = tuple(range(q + 1))
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
    return Tensor(*([(p, q) for p in own for q in other] for own, other in zip(a.labels, b.labels)),
                  entries)


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
    """Disjoint sum, built from the summands' arrays; the labels of the r-th
    tensor are tagged (r, label)."""
    labels, keys = ([], [], []), [np.zeros((0, 3), np.intp)]
    for r, t in enumerate(tensors):
        keys.append(t.key_array + tuple(map(len, labels)))
        for axis, own in zip(labels, t.labels):
            axis.extend(zip(repeat(r), own))
    return Tensor._from_arrays(*map(tuple, labels), np.concatenate(keys), np.concatenate(
        [np.zeros(0, np.int64), *(t.coef_array for t in tensors)]))


def n_copies(m: int, t: Tensor) -> Tensor:
    """Disjoint sum of m copies of t."""
    if m < 1:
        raise ValueError("m must be positive")
    return direct_sum(*repeat(t, m))


def tensor_add(a: Tensor, *rest: Tensor) -> Tensor:
    """Coefficient-wise sum of tensors over identical variable lists, in
    one pass over their entries however many there are."""
    if any(t.labels != a.labels for t in rest):
        raise ValueError("tensor_add requires identical variable lists")
    entries = dict(a.entries)
    for t in rest:
        for key, c in t.entries.items():
            entries[key] = entries.get(key, 0) + c
    return Tensor(*a.labels, entries)  # the constructor drops the entries that cancel


def rotate(t: Tensor) -> Tensor:
    """Rotation: the coefficient of y_j z_k x_i in rot(T) is that of x_i y_j z_k."""
    return Tensor._from_arrays(t.y_labels, t.z_labels, t.x_labels, t.key_array[:, [1, 2, 0]],
                               t.coef_array, dict(t.meta))


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
    """Equal axis sizes and coefficient(i,j,k) == coefficient(j,k,i), as
    `blocks` decides it on the trivial partition (an axis of size 0 has no
    part, and no entry to check).

    This is a positional check under the constructor's index order, not a
    search over relabelings; isomorphism testing in general is out of
    scope.
    """
    if not all(t.shape):
        return t.shape == (0, 0, 0)
    return blocks(t, trivial_partition(t)).symmetry[0][0]


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


class VariablePartition(Frozen):
    """A partition of each axis into labeled, ordered parts.

    Each part is (label, indices); indices are stored sorted.  Parts must
    be nonempty, disjoint, and cover 0..n-1 for the axis sizes given.
    `where[axis position][i]` is (part, slot): index i is the slot-th
    index of that part.  `summands` holds the (x, y, z) part counts of each
    summand: one entry, unless built by `partition_sum`; equality ignores it.
    `axis_parts` reads the parts of x, y and z as a triple.
    """

    __slots__ = ("parts_x", "parts_y", "parts_z", "sizes", "where", "summands")

    def __init__(self, parts_x, parts_y, parts_z, sizes):
        def normalize(parts, n, axis):
            # `where` holds the indices listed, so an axis whose parts do not
            # cover it costs no storage per variable
            out, where = [], {}
            for pos, (label, idx) in enumerate(parts):
                idx = tuple(sorted(map(_index, idx)))
                if not idx:
                    raise PartitionError(axis, pos, f"empty part {label!r} on axis {axis}")
                for slot, i in enumerate(idx):
                    if not 0 <= i < n:
                        raise PartitionError(axis, pos, f"index {i} out of range on axis {axis}")
                    if i in where:
                        twice = (f"listed twice in part {label!r}" if where[i][0] == pos
                                 else "in two parts")
                        raise PartitionError(axis, pos, f"index {i} {twice} on axis {axis}")
                    where[i] = (pos, slot)
                out.append((str(label), idx))
            if len(where) < n:  # n distinct indices in range cover it
                raise PartitionError(axis, None, f"parts do not cover axis {axis}")
            return tuple(out), tuple(map(where.__getitem__, range(n)))

        nx, ny, nz = sizes
        px, wx = normalize(parts_x, nx, "x")
        py, wy = normalize(parts_y, ny, "y")
        pz, wz = normalize(parts_z, nz, "z")
        self._set(px, py, pz, (nx, ny, nz), (wx, wy, wz), ((len(px), len(py), len(pz)),))

    @classmethod
    def _unchecked(cls, parts, where, summands=None) -> VariablePartition:
        """A partition taken as given: per axis its normalized parts and
        `where` map, as a checked partition's (or `partition_sum`'s) stand,
        and its `summands`, by default one of all its parts."""
        p = object.__new__(cls)
        where = tuple(map(tuple, where))
        p._set(*map(tuple, parts), tuple(map(len, where)), where,
               summands or (tuple(map(len, parts)),))
        return p

    axis_parts = property(lambda self: (self.parts_x, self.parts_y, self.parts_z))

    def parts(self, axis: str):
        return dict(zip(AXES, self.axis_parts))[axis]

    def part_sizes(self, axis: str) -> list[int]:
        return [len(idx) for _, idx in self.parts(axis)]

    def part_count(self, axis: str) -> int:
        return len(self.parts(axis))

    def __eq__(self, other):
        if not isinstance(other, VariablePartition):
            return NotImplemented
        return self.sizes == other.sizes and self.axis_parts == other.axis_parts

    def __repr__(self):
        kx, ky, kz = map(len, self.axis_parts)
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
    parts = [(f"{lx},{ly},{lz}", [flat(a, b, c) for a in ix for b in iy for c in iz])
             for (lx, ix), (ly, iy), (lz, iz) in product(*p.axis_parts)]
    n = nx * ny * nz
    return VariablePartition(parts, list(parts), list(parts), sizes=(n, n, n))


@dataclass(frozen=True, eq=False)
class BlockSet:
    """The nonzero blocks of a tensor under a partition, decided by `blocks`.

    The block set is held in read-only int arrays, in copies too:
    `key_array` lists the part index triples (i, j, k) of the nonzero
    blocks in sorted order, `entry_block` the block of each entry of the
    tensor (in `entries` order), and `group`
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
    every summand is `symmetric`.  `summands` reads the partition's: the
    (x, y, z) part counts of each summand, in order.

    `part_rows`, built when first read, numbers the parts of x, then y,
    then z one after the other, as rows: it holds each block's three part
    rows in key order (`key_array` plus each axis's offset), and each
    row's axis (0, 1, 2), size and summand.
    """

    tensor: Tensor
    partition: VariablePartition
    key_array: np.ndarray
    entry_block: np.ndarray
    group: np.ndarray
    symmetry: tuple

    symmetric = property(lambda self: all(sym for _, sym in self.symmetry))
    summands = property(lambda self: self.partition.summands)

    def __post_init__(self):
        self.key_array.setflags(write=False)
        self.entry_block.setflags(write=False)
        self.group.setflags(write=False)

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    @cached_property
    def _keys(self) -> list:
        return list(zip(*self.key_array.T.tolist()))

    def keys(self):
        return list(self._keys)

    def __len__(self):
        return len(self.key_array)

    @cached_property
    def part_rows(self) -> tuple:
        sizes = [self.partition.part_sizes(ax) for ax in AXES]
        n, counts = list(map(len, sizes)), np.array(self.summands)
        return (self.key_array + np.array([0, n[0], n[0] + n[1]]), np.arange(3).repeat(n),
                np.array(sizes[0] + sizes[1] + sizes[2]),
                (np.arange(counts.size) % len(counts)).repeat(counts.T.ravel()))

    @cached_property
    def _members(self):
        """The slot triples and the coefficients of the entries in block
        order, as lists, and where the run of each block begins."""
        order = np.argsort(self.entry_block, kind="stable")
        ends = np.cumsum(np.bincount(self.entry_block, minlength=len(self))).tolist()
        t, shape = self.tensor, self.tensor.shape
        slot = np.fromiter(chain.from_iterable(chain.from_iterable(self.partition.where)),
                           np.intp, 2 * sum(shape))[1::2]
        slots = slot[t.key_array[order] + np.array([0, shape[0], shape[0] + shape[1]])]
        return list(zip(*slots.T.tolist())), t.coef_array[order].tolist(), [0] + ends

    def _block(self, b: int) -> dict:
        """The slot-keyed entries of the block numbered b."""
        slots, coefs, ends = self._members
        return dict(zip(slots[ends[b]:ends[b + 1]], coefs[ends[b]:ends[b + 1]]))

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
        return Tensor(*([own[v] for v in parts[b][1]] for own, parts, b in
                        zip(self.tensor.labels, self.partition.axis_parts, key)),
                      self._block(self._index[(i, j, k)]))

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
    n, shape = len(t), t.shape
    sizes = [p.part_sizes(ax) for ax in AXES]
    k = [len(s) for s in sizes]

    # per summand: its part and index offsets, and whether its part sizes,
    # and its axis sizes, agree on the three axes
    part_off, index_off, equal, square = [], [], [], []
    parts_at, index_at = [0, 0, 0], [0, 0, 0]
    for counts in p.summands:
        here = [s[a:a + c] for s, a, c in zip(sizes, parts_at, counts)]
        spans = list(map(sum, here))
        part_off.append(parts_at)
        index_off.append(index_at)
        equal.append(here[0] == here[1] == here[2])
        square.append(spans[0] == spans[1] == spans[2])
        parts_at = [a + c for a, c in zip(parts_at, counts)]
        index_at = [a + c for a, c in zip(index_at, spans)]
    part_off, index_off = np.array(part_off, np.intp), np.array(index_off, np.intp)
    rows = len(p.summands)
    row_of = np.repeat(np.arange(rows), [c[0] for c in p.summands])  # of each x part

    # the part of each entry's index on each axis (variables of the three
    # axes numbered one after the other), and the keys in sorted order
    start = np.array([0, shape[0], shape[0] + shape[1]])
    where = np.fromiter(chain.from_iterable(chain.from_iterable(p.where)), np.intp,
                        2 * sum(shape)).reshape(-1, 2)
    ent = t.key_array
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
        coef = t.coef_array
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
            members = np.fromiter(chain.from_iterable(idx for own in p.axis_parts
                                                      for _, idx in own),
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
    return BlockSet(t, p, keys, entry_block, group, tuple(zip(var_sym.tolist(), sym.tolist())))


def partition_sum(*partitions: VariablePartition) -> VariablePartition:
    """The direct sum of partitions, over `direct_sum`'s variables: summand
    r's parts, labelled "r:label", and indices come after those of the
    summands before it, and `summands` holds each summand's part counts."""
    parts, where = ([], [], []), ([], [], [])
    for r, p in enumerate(partitions):
        for axis, own in enumerate(p.axis_parts):
            offset, first = len(where[axis]), len(parts[axis])
            parts[axis].extend((f"{r}:{label}", tuple(map(offset.__add__, idx)))
                               for label, idx in own)
            where[axis].extend((part + first, slot) for part, slot in p.where[axis])
    return VariablePartition._unchecked(parts, where, tuple(
        tuple(map(len, p.axis_parts)) for p in partitions))


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
