"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from slicerank.optimizer import block_orbits
from slicerank.tensor_core import Tensor, VariablePartition, make_matmul, tensor_power

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


def reference_restriction(t: Tensor, p: VariablePartition, key) -> Tensor:
    """Block `key` of t under p, from the definition: the coefficient of
    every variable triple of the three parts, over those parts' variables
    in part order."""
    xs, ys, zs = (parts[part][1] for parts, part in zip((p.parts_x, p.parts_y, p.parts_z), key))
    entries = {}
    for a, i in enumerate(xs):
        for b, j in enumerate(ys):
            for c, k in enumerate(zs):
                if t.coefficient(i, j, k) != 0:
                    entries[(a, b, c)] = t.coefficient(i, j, k)
    return Tensor([t.x_labels[i] for i in xs], [t.y_labels[j] for j in ys],
                  [t.z_labels[k] for k in zs], entries)


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


def symmetrize(block_set, probs: dict) -> dict:
    """Orbit-average a distribution {block key: mass} on a symmetric
    block partition; every block gets a mass, 0 included."""
    out = {}
    for orbit in block_orbits(block_set):
        avg = sum(probs.get(k, 0.0) for k in orbit) / len(orbit)
        for k in orbit:
            out[k] = avg
    return out


def _xlogx(t: float) -> float:
    return t * math.log(t) if t > 0.0 else 0.0


def t112_objective_log(q: int, v: float) -> float:
    """log of (2q)^2 (q^2)^(2v) / ((2v)^(2v) (1/2-v)^(1-2v)) on [0, 1/2]."""
    return (2.0 * math.log(2 * q) + 4.0 * v * math.log(q)
            - _xlogx(2.0 * v) - 2.0 * _xlogx(0.5 - v))


def t112_value_lower_formula(q: int, tau: float) -> float:
    """Classical lower bound 2^(2/3) q^tau (q^(3 tau) + 2)^(1/3)."""
    return 2.0 ** (2.0 / 3.0) * q ** tau * (q ** (3.0 * tau) + 2.0) ** (1.0 / 3.0)


def t112_value_power_mean_upper(q: int, tau: float) -> float:
    """Power mean upper bound V_(2/3)^(3 tau / 2) = 2^tau q^tau (q^2+2)^(tau/2)."""
    return 2.0 ** tau * q ** tau * (q * q + 2.0) ** (tau / 2.0)


DEFAULT_SEARCH_CAP = 12


@dataclass
class ZeroingSearchResult:
    """Largest independent tensor found by zeroing out.

    `size` terms, witnessed by the kept variable index sets per axis and
    the list of surviving entry triples.
    """

    size: int
    kept_x: tuple
    kept_y: tuple
    kept_z: tuple
    terms: tuple


def search_zeroing_independent(t: Tensor, n: int = 1,
                               cap: int = DEFAULT_SEARCH_CAP) -> ZeroingSearchResult:
    """Exhaustive search for the largest diagonal zeroing out of t^(x)n.

    Finds the maximum set of pairwise variable-disjoint unit-coefficient
    terms whose variable sets contain no further term of the tensor, so
    that restricting to exactly those variables leaves an independent
    tensor.  Branch and bound over terms; exact, so usable as an oracle.

    n is limited to 1 or 2 and every axis of the power must have at most
    `cap` variables.
    """
    if n not in (1, 2):
        raise ValueError("only first and second powers are searchable")
    base = t if n == 1 else tensor_power(t, 2)
    nx, ny, nz = base.shape
    if max(nx, ny, nz) > cap:
        raise ValueError(
            f"axis sizes {base.shape} exceed search cap {cap}; pass a larger cap to force")
    terms = sorted(key for key, c in base.entries.items() if c == 1)
    all_terms = sorted(base.entries)

    best: list = [0, ()]

    def closure_ok(chosen):
        xs = {e[0] for e in chosen}
        ys = {e[1] for e in chosen}
        zs = {e[2] for e in chosen}
        for e in all_terms:
            if e[0] in xs and e[1] in ys and e[2] in zs and e not in chosen:
                return False
        return True

    def extend(candidates, chosen):
        if len(chosen) > best[0] and closure_ok(chosen):
            best[0] = len(chosen)
            best[1] = tuple(chosen)
        for idx, term in enumerate(candidates):
            remaining = candidates[idx + 1:]
            if len(chosen) + 1 + len(remaining) <= best[0]:
                break
            compatible = [
                e for e in remaining
                if e[0] != term[0] and e[1] != term[1] and e[2] != term[2]
            ]
            chosen.append(term)
            extend(compatible, chosen)
            chosen.pop()

    extend(terms, [])
    witness = set(best[1])
    return ZeroingSearchResult(
        size=best[0],
        kept_x=tuple(sorted({e[0] for e in witness})),
        kept_y=tuple(sorted({e[1] for e in witness})),
        kept_z=tuple(sorted({e[2] for e in witness})),
        terms=tuple(sorted(witness)),
    )
