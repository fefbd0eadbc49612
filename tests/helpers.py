"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import numpy as np

from slicerank.tensor_core import Tensor, VariablePartition, make_matmul

COEFFS = [Fraction(n) for n in (-2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-3, 2)]


def random_tensor(rng: random.Random, max_dim: int = 3, density: float = 0.5,
                  unit: bool = False) -> Tensor:
    """A random sparse tensor with at least one entry."""
    nx = rng.randint(1, max_dim)
    ny = rng.randint(1, max_dim)
    nz = rng.randint(1, max_dim)
    entries = {}
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                if rng.random() < density:
                    entries[(i, j, k)] = 1 if unit else rng.choice(COEFFS)
    if not entries:
        entries[(rng.randrange(nx), rng.randrange(ny), rng.randrange(nz))] = \
            1 if unit else rng.choice(COEFFS)
    return Tensor(range(nx), range(ny), range(nz), entries)


def random_symmetric_tensor(rng: random.Random, n: int) -> Tensor:
    """Random tensor on n vars per axis whose term set is rotation closed."""
    entries = {}
    for _ in range(rng.randint(1, 2 * n)):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        c = rng.choice(COEFFS)
        for key in ((i, j, k), (j, k, i), (k, i, j)):
            entries[key] = c
    return Tensor(range(n), range(n), range(n), entries)


def random_index_partition(rng: random.Random, n: int):
    """Random ordered partition of range(n) into 1..n parts."""
    idx = list(range(n))
    rng.shuffle(idx)
    nparts = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), nparts - 1)) if nparts > 1 else []
    parts = []
    prev = 0
    for c in cuts + [n]:
        parts.append(sorted(idx[prev:c]))
        prev = c
    return parts


def random_partition(rng: random.Random, t: Tensor) -> VariablePartition:
    nx, ny, nz = t.shape
    return VariablePartition(
        [(str(i), p) for i, p in enumerate(random_index_partition(rng, nx))],
        [(str(i), p) for i, p in enumerate(random_index_partition(rng, ny))],
        [(str(i), p) for i, p in enumerate(random_index_partition(rng, nz))],
        sizes=t.shape,
    )


def shared_index_partition(rng: random.Random, t: Tensor) -> VariablePartition:
    """The same random index partition on all three axes (for symmetric tensors)."""
    n = t.shape[0]
    parts = [(str(i), p) for i, p in enumerate(random_index_partition(rng, n))]
    return VariablePartition(parts, list(parts), list(parts), sizes=t.shape)


def scramble(t: Tensor, rng: random.Random) -> Tensor:
    """Relabel/permute the variables of each axis uniformly at random."""
    nx, ny, nz = t.shape
    px = list(range(nx))
    py = list(range(ny))
    pz = list(range(nz))
    rng.shuffle(px)
    rng.shuffle(py)
    rng.shuffle(pz)
    inv = [{old: new for new, old in enumerate(perm)} for perm in (px, py, pz)]
    return Tensor(
        [t.x_labels[i] for i in px],
        [t.y_labels[j] for j in py],
        [t.z_labels[k] for k in pz],
        {(inv[0][i], inv[1][j], inv[2][k]): c for (i, j, k), c in t.entries.items()},
    )


def reference_tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Tensor product accumulating each term into its key with `get`."""
    bx, by, bz = b.shape
    entries = {}
    for (i1, j1, k1), c1 in a.entries.items():
        for (i2, j2, k2), c2 in b.entries.items():
            key = (i1 * bx + i2, j1 * by + j2, k1 * bz + k2)
            entries[key] = entries.get(key, 0) + c1 * c2
    return Tensor(
        [(p, q) for p in a.x_labels for q in b.x_labels],
        [(p, q) for p in a.y_labels for q in b.y_labels],
        [(p, q) for p in a.z_labels for q in b.z_labels],
        entries,
    )


def reference_symmetric_cube(t: Tensor) -> Tensor:
    """T (x) rot T (x) rot^2 T accumulating each term into its key with `get`."""
    nx, ny, nz = t.shape
    flat = lambda a, b, c: (a * ny + b) * nz + c
    labels = [(a, b, c) for a in t.x_labels for b in t.y_labels for c in t.z_labels]
    entries = {}
    items = list(t.entries.items())
    for (i1, j1, k1), c1 in items:
        for (i2, j2, k2), c2 in items:
            for (i3, j3, k3), c3 in items:
                key = (flat(i1, j2, k3), flat(i3, j1, k2), flat(i2, j3, k1))
                entries[key] = entries.get(key, 0) + c1 * c2 * c3
    return Tensor(labels, labels, labels, entries)


def gauss_rank(rows) -> int:
    """Plain fraction Gaussian elimination; independent of the Bareiss path."""
    m = [list(map(Fraction, row)) for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def flattening_dense(t: Tensor, axis: str):
    """Dense flattening rows built directly from the definition."""
    nx, ny, nz = t.shape
    if axis == "x":
        rows = [[Fraction(0)] * (ny * nz) for _ in range(nx)]
        for (i, j, k), c in t.entries.items():
            rows[i][j * nz + k] = c
    elif axis == "y":
        rows = [[Fraction(0)] * (nz * nx) for _ in range(ny)]
        for (i, j, k), c in t.entries.items():
            rows[j][k * nx + i] = c
    else:
        rows = [[Fraction(0)] * (nx * ny) for _ in range(nz)]
        for (i, j, k), c in t.entries.items():
            rows[k][i * ny + j] = c
    return rows


def oracle_rank(t: Tensor, axis: str) -> int:
    return gauss_rank(flattening_dense(t, axis))


def reference_t_symmetric_partition(t: Tensor, p: VariablePartition) -> bool:
    """Entry-map rotation check of a symmetric partition.

    t must be positionally rotation invariant and the three axes must
    have equal part sizes; then every entry, moved to the rotated block
    (x part j, y part k, z part i for an entry of block (i, j, k)) at the
    same within-part slots, must reproduce t's entry map.
    """
    if not (t.shape[0] == t.shape[1] == t.shape[2]):
        return False
    if any(t.entries.get((j, k, i)) != c for (i, j, k), c in t.entries.items()):
        return False
    axes = (p.parts_x, p.parts_y, p.parts_z)
    if not ([len(idx) for _, idx in p.parts_x] == [len(idx) for _, idx in p.parts_y]
            == [len(idx) for _, idx in p.parts_z]):
        return False
    locate = [{i: (part, slot) for part, (_, idx) in enumerate(parts)
               for slot, i in enumerate(idx)} for parts in axes]
    rotated = {}
    for (a, b, c), coef in t.entries.items():
        (i, wa), (j, wb), (k, wc) = locate[0][a], locate[1][b], locate[2][c]
        rotated[(p.parts_x[j][1][wb], p.parts_y[k][1][wc], p.parts_z[i][1][wa])] = coef
    return rotated == t.entries


def is_matmul_by_search(t: Tensor, a: int, b: int, c: int) -> bool:
    """Whether permuting t's axes turns it into <a,b,c> with unit coefficients.

    Tries every permutation of the x and y variables; in <a,b,c> an x and
    a y variable share at most one term, so the z permutation is forced.
    """
    target = make_matmul(a, b, c)
    if t.shape != target.shape or len(t.entries) != len(target.entries):
        return False
    if any(coef != 1 for coef in t.entries.values()):
        return False
    z_of = {(i, j): k for (i, j, k) in target.entries}
    nx, ny, _ = t.shape
    for px in permutations(range(nx)):
        for py in permutations(range(ny)):
            zmap = {}
            for (i, j, k) in t.entries:
                zk = z_of.get((px[i], py[j]))
                if zk is None or zmap.setdefault(k, zk) != zk:
                    break
            else:
                if len(set(zmap.values())) == len(zmap):
                    return True
    return False


def reference_newton_step(h, on, rhs):
    """The dense bordered Newton step: for each column r of rhs, the
    minimum-norm s with h s + nu 1 = r and sum(s) = 0 on the coordinates
    `on`, and s = 0 off them, from an SVD least-squares solve of the whole
    (n+1)-square system with h scaled to a unit diagonal."""
    d = np.zeros(len(on))
    d[on] = 1.0 / np.sqrt(np.abs(np.diag(h)[on]))
    k = len(d)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = d[:, None] * h * d
    kkt[:k, k] = kkt[k, :k] = d
    rhs = np.vstack([d[:, None] * rhs, np.zeros((1, rhs.shape[1]))])
    return d[:, None] * np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
