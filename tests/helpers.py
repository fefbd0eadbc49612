"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import copy
import math
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from slicerank import exact_linalg
from slicerank.degeneration import LambdaPoly, _check_domains, _substitute
from slicerank.formats import ParseError
from slicerank.tensor_core import (Tensor, VariablePartition, blocks, cube_partition,
                                    cw_partition, make_cw, make_matmul, singleton_partition,
                                    symmetric_cube, tensor_power, trimmed)

COEFFS = [Fraction(n) for n in (-2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-3, 2)]

# the ways a value is copied: a pickle round trip, a copy and a deep copy
ROUND_TRIPS = {"pickle": lambda value: pickle.loads(pickle.dumps(value)),
               "copy": copy.copy, "deepcopy": copy.deepcopy}


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


def scan_cube(seed: int, shared: bool = False):
    """The cube of the max-min robustness scans and its product partition:
    `symmetric_cube(t)` under `cube_partition(t, p)`, for t =
    `random_tensor(Random(seed), max_dim=3, density=0.4)` and p a
    `random_partition` of t drawn from a second Random(seed), or from the
    same generator when `shared`."""
    rng = random.Random(seed)
    t = random_tensor(rng, max_dim=3, density=0.4)
    p = random_partition(rng if shared else random.Random(seed), t)
    return symmetric_cube(t), cube_partition(t, p)


def remove_x_b_part(t: Tensor, p: VariablePartition):
    """The blocks of what remove-x bounds on t under p: x part 0 dropped,
    trimmed, singleton partition; None when the split is trivial (x part
    0 carries every term or none)."""
    b = {k: c for k, c in t.entries.items() if p.where[0][k[0]][0] != 0}
    if not b or len(b) == len(t.entries):
        return None
    b = trimmed(Tensor(t.x_labels, t.y_labels, t.z_labels, b))
    return blocks(b, singleton_partition(b))


def relabeled(t: Tensor, p: VariablePartition, seed: int, shared: bool = False):
    """t and p under one seeded permutation of each axis's indices, drawn
    from Random(seed) by `shuffle` in axis order, or under the first one
    on all three axes when `shared`."""
    rng = random.Random(seed)
    perms = []
    for n in t.shape:
        perms.append(list(range(n)))
        rng.shuffle(perms[-1])
    if shared:
        perms = [perms[0]] * 3
    entries = {tuple(perm[i] for perm, i in zip(perms, key)): c for key, c in t.entries.items()}
    parts = [[(label, [perm[i] for i in idx]) for label, idx in p.parts(ax)]
             for ax, perm in zip("xyz", perms)]
    u = Tensor(*(range(n) for n in t.shape), entries)
    return u, VariablePartition(*parts, u.shape)


def relabeled_cw_cube(q: int, seed: int):
    """The CW_q cube and its product partition under one seeded permutation
    shared by the three axes."""
    cw = make_cw(q)
    return relabeled(symmetric_cube(cw), cube_partition(cw, cw_partition(q)), seed, shared=True)


def relabeled_cw2_cube(seed: int):
    return relabeled_cw_cube(2, seed)


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
    """Rank by plain fraction Gaussian elimination on dense rows, column by
    column; independent of `exact_linalg.row_reduce`, which inserts sparse
    rows one at a time."""
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


def reference_variable_symmetric(t: Tensor) -> bool:
    """Equal axis sizes and t[i,j,k] == t[j,k,i], by one lookup per entry."""
    nx, ny, nz = t.shape
    if not (nx == ny == nz):
        return False
    get = t.entries.get
    return all(get((j, k, i)) == c for (i, j, k), c in t.entries.items())


def reference_t_symmetric_partition(t: Tensor, p: VariablePartition) -> bool:
    """Entry-map rotation check of a symmetric partition.

    t must be positionally rotation invariant and the three axes must
    have equal part sizes; then every entry, moved to the rotated block
    (x part j, y part k, z part i for an entry of block (i, j, k)) at the
    same within-part slots, must reproduce t's entry map.
    """
    if not reference_variable_symmetric(t):
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


def block_entries(block_set) -> list:
    """Every entry of every block of `block_set`, as ((i, j, k),
    coefficient) in the tensor's own indices: slot s of part P on an axis
    is read back as the s-th index of P."""
    p = block_set.partition
    out = []
    for (i, j, k), block in block_set.blocks.items():
        xs, ys, zs = p.parts_x[i][1], p.parts_y[j][1], p.parts_z[k][1]
        out += [((xs[a], ys[b], zs[c]), coef) for (a, b, c), coef in block.items()]
    return out


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


def reference_coefficient(tok: str):
    """A coefficient token as `Fraction` reads it: the value, or the
    ValueError or ZeroDivisionError it raises, or the ValueError `str`
    raises on a numerator or denominator of more digits than
    `sys.get_int_max_str_digits()`."""
    try:
        c = Fraction(tok)
        str(c)
        return c
    except (ValueError, ZeroDivisionError) as exc:
        return exc


def reference_labels(a):
    """`optimizer._labels` by `np.unique`: the class of each entry of a,
    classes numbered in sorted order, and the first entry of each class."""
    _, first, labels = np.unique(a, return_index=True, return_inverse=True)
    return labels, first


def reference_parse_tensor(text: str) -> Tensor:
    """The tensor parser as it was before its line scan was inlined and
    its tokens read once per file: a per-line generator over
    `splitlines()`, `int` and `Fraction` on every token, and the checked
    `Tensor(...)` for the result.  Equal to `parse_tensor` on text whose
    lines end at "\\n"."""
    def content_lines():
        for n, raw in enumerate(text.splitlines(), start=1):
            toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if toks:
                yield n, toks

    sizes = {}
    entries = {}
    for n, toks in content_lines():
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
            continue
        if len(sizes) != 3:
            raise ParseError(n, "entry before xvars/yvars/zvars headers")
        if len(toks) != 4:
            raise ParseError(n, f"expected 'i j k coeff', got {' '.join(toks)!r}")
        try:
            i, j, k = int(toks[0]), int(toks[1]), int(toks[2])
            c = Fraction(toks[3])
        except (ValueError, ZeroDivisionError):
            raise ParseError(n, f"bad entry {' '.join(toks)!r}")
        key = (i, j, k)
        if key in entries:
            raise ParseError(n, f"duplicate entry for {key}")
        for idx, ax in zip(key, "xyz"):
            if not 0 <= idx < sizes[ax]:
                raise ParseError(n, f"{ax} index {idx} out of range")
        entries[key] = c
    if len(sizes) != 3:
        raise ParseError(1, "missing xvars/yvars/zvars headers")
    return Tensor(*(range(sizes[ax]) for ax in "xyz"), entries)


def reference_verify_degeneration(t1: Tensor, t2: Tensor, d) -> tuple:
    """`degeneration.verify_degeneration` as it was before it read
    `apply_degeneration`, as (ok, detail): every polynomial of the
    substitution walked for its lowest bad degree, then the coefficients
    at the order compared with t2 entry by entry."""
    _check_domains(t1, t2, d)
    h = d.order
    image = _substitute(t1, d)
    low_bad = None
    at_h = {}
    for key in sorted(image):
        poly = image[key]
        for e in sorted(poly.coeffs):
            if e < h and (low_bad is None or (e, key) < low_bad):
                low_bad = (e, key)
        c = poly.coefficient(h)
        if c != 0:
            at_h[key] = c
    if low_bad is not None:
        e, key = low_bad
        return False, f"nonzero lambda^{e} coefficient at entry {key}"
    if not at_h and t2.entries:
        return False, f"lambda^{h} coefficient is the zero tensor"
    for key in sorted(set(at_h) | set(t2.entries)):
        got = at_h.get(key, Fraction(0))
        want = t2.entries.get(key, Fraction(0))
        if got != want:
            return False, f"lambda^{h} coefficient at entry {key} is {got}, expected {want}"
    return True, f"degeneration of order {h} verified ({d.kind})"


def reference_kind(maps) -> str:
    """`DegenerationMap.kind` as it was decided before one pass over the
    values: each map's targets counted per source, and two flags cleared
    along the way, `monomial` by a polynomial of more than one term or a
    source with two targets, `zeroing` by a value other than 1."""
    one = LambdaPoly.one()
    zeroing = True
    monomial = True
    for mapping in maps:
        sources = {}
        for (src, dst), poly in mapping.items():
            sources[src] = sources.get(src, 0) + 1
            if not poly.is_monomial():
                monomial = False
            if poly != one:
                zeroing = False
        if any(cnt > 1 for cnt in sources.values()):
            monomial = False
    if not monomial:
        return "general"
    return "zeroing" if zeroing else "monomial"


def reference_block_grading(keys, counts):
    """`bound_engines._solve_block_grading` with its candidate vectors
    built entry by entry as sums of powers, as it was before Horner's
    rule: the first of t = 1, 2, 3, 5, 7, 11, 13 whose vector
    sum_e t^e basis[e] has the most distinct grades per axis."""
    kx, ky, kz = counts
    n = kx + ky + kz + 1
    rows = [{i: 1, kx + j: 1, kx + ky + k: 1, n - 1: -1} for (i, j, k) in keys]
    basis = exact_linalg.nullspace(rows, n)
    if len(basis) <= 3:
        return None
    cuts = ((0, kx), (kx, kx + ky), (kx + ky, n - 1))
    vec = max(([sum(t ** e * b[idx] for e, b in enumerate(basis)) for idx in range(n)]
               for t in (1, 2, 3, 5, 7, 11, 13)),
              key=lambda v: sum(len(set(v[a:b])) for a, b in cuts))
    denom = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    g = math.gcd(*ints)
    gx, gy, gz = ([v // g for v in ints[a:b]] for a, b in cuts)
    ell = gx[keys[0][0]] + gy[keys[0][1]] + gz[keys[0][2]]
    if any(gx[i] + gy[j] + gz[k] != ell for (i, j, k) in keys):
        return None
    return {"x": tuple(gx), "y": tuple(gy), "z": tuple(gz)}, ell


def reference_support_trifunctional(keys) -> bool:
    """`bound_engines._support_trifunctional` as a loop over key tuples:
    each coordinate of a key is determined by the other two."""
    seen = [{}, {}, {}]
    for key in keys:
        pairs = [((key[1], key[2]), key[0]),
                 ((key[0], key[2]), key[1]),
                 ((key[0], key[1]), key[2])]
        for pos, (pair, val) in enumerate(pairs):
            if seen[pos].setdefault(pair, val) != val:
                return False
    return True


def reference_orbits(block_set) -> list[tuple]:
    """Orbits of the block keys under the rotation (i,j,k) -> (j,k,i),
    rebuilt from the keys alone.

    Raises if the key set is not closed under rotation (the partition is
    then not symmetric).
    """
    keys = set(block_set.blocks)
    orbits = set()
    for (i, j, k) in sorted(keys):
        orbit = {(i, j, k), (j, k, i), (k, i, j)}
        missing = sorted(orbit - keys)
        if missing:
            raise ValueError(f"block set not rotation closed: {missing[0]} "
                             f"missing for orbit of {(i, j, k)}")
        orbits.add(tuple(sorted(orbit)))
    return sorted(orbits)


def reference_rotation_orbits(t: Tensor, p: VariablePartition):
    """Rotation orbits of t's block keys under p, or None unless p is
    symmetric for t, by comparing blocks as slot-keyed entry maps: equal
    part sizes, t variable-symmetric, and each block (i,j,k), rotated
    positionally, equal to the block at (j,k,i)."""
    axes = (p.parts_x, p.parts_y, p.parts_z)
    if not ([len(idx) for _, idx in p.parts_x] == [len(idx) for _, idx in p.parts_y]
            == [len(idx) for _, idx in p.parts_z]):
        return None
    if any(t.entries.get((j, k, i)) != c for (i, j, k), c in t.entries.items()):
        return None
    locate = [{i: (part, slot) for part, (_, idx) in enumerate(parts)
               for slot, i in enumerate(idx)} for parts in axes]
    blocks = {}
    for (a, b, c), coef in t.entries.items():
        (i, u), (j, v), (k, w) = locate[0][a], locate[1][b], locate[2][c]
        blocks.setdefault((i, j, k), {})[(u, v, w)] = coef
    orbits = set()
    for (i, j, k), block in blocks.items():
        image = blocks.get((j, k, i))
        if image is None or image != {(v, w, u): c for (u, v, w), c in block.items()}:
            return None
        orbits.add(tuple(sorted({(i, j, k), (j, k, i), (k, i, j)})))
    return sorted(orbits)


def reference_blocks(t: Tensor, p: VariablePartition):
    """The blocks of t under p by one bucket loop over the entries, as
    slot-keyed entry maps {key: {(slot_x, slot_y, slot_z): coefficient}}
    in sorted key order, and their rotation orbits by
    `reference_rotation_orbits` (None unless p is symmetric for t)."""
    wx, wy, wz = p.where
    buckets = {}
    for (i, j, k), c in t.entries.items():
        (bi, si), (bj, sj), (bk, sk) = wx[i], wy[j], wz[k]
        buckets.setdefault((bi, bj, bk), {})[(si, sj, sk)] = c
    return dict(sorted(buckets.items())), reference_rotation_orbits(t, p)


def reference_colour_classes(block_set):
    """The coarsest equitable partition of a block set's blocks and parts,
    by colour refinement on Python tuples: ({block key: class}, {(axis,
    part): class}), classes numbered by their first block in key order,
    resp. first part in (axis, part) order."""
    keys = sorted(block_set.blocks)
    colour = {(a, i): (a, s) for a, ax in enumerate("xyz")
              for i, s in enumerate(block_set.partition.part_sizes(ax))}
    while True:
        block = {k: tuple(colour[(a, i)] for a, i in enumerate(k)) for k in keys}
        seen = {part: [] for part in colour}
        for k in keys:
            for a, i in enumerate(k):
                seen[(a, i)].append(block[k])
        refined = {part: (colour[part], tuple(sorted(seen[part]))) for part in colour}
        if len(set(refined.values())) == len(set(colour.values())):
            break
        colour = refined

    def numbered(labels):
        first = {}
        return {item: first.setdefault(label, len(first)) for item, label in labels.items()}

    return numbered(block), numbered(dict(sorted(colour.items())))


def symmetrize(block_set, probs: dict) -> dict:
    """Orbit-average a distribution {block key: mass} on a symmetric
    block partition; every block gets a mass, 0 included."""
    out = {}
    for orbit in block_set.orbits:
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
