"""Seeded inputs and command lists of the three benchmark workloads.

Inputs are built here from their definitions, not with slicerank, so
the program under test receives only generated files.  A workload
turns a random generator and a directory into one pass: a list of
`Command`s, each with its latency limit and its answer check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import oracles

# Per-command latency limits, in seconds at the reference speed (see
# run.speed_factor): about twice the seed's median time for the command
# on a 2-core x86-64 container, and at least 2 s.  A failed command is
# charged its limit in wall_s (or its scaled time, if longer), so a new
# crash never reads as a speed-up and a fix never reads as a slowdown.
# A command is stopped, and fails, at STOP_FACTOR times its limit in
# real seconds: the machine's speed drifted by up to 1.9x within one
# run, and tracing adds to that, so a stop this far out is reached by a
# hung command, not a slow machine.  The charge stays at the limit, not
# the stop, because the number of remove-x relabelings that crash in a
# run, times the charge, is already the larger part of wall_s's spread
# on asymmetric-split.
LIMIT_S = {
    "table-cw": 2.0, "table-cw-small": 2.0, "table-tq-lower": 11.0,
    "appendix": 2.0, "t112-2": 2.0, "t112-4": 2.0,
    "laser-cw2-cube": 15.0, "mu-sum-cw2-cube": 2.0,
    "remove-x-cw1-cube": 2.0,
    "partition-t112": 2.0, "verify-degeneration": 2.0, "self-check": 5.0,
}
STOP_FACTOR = 3


@dataclass
class Command:
    kind: str
    argv: list
    check: Callable[[str], Optional[str]]
    note: dict = field(default_factory=dict)

    @property
    def limit_s(self) -> float:
        return LIMIT_S[self.kind]

    @property
    def timeout_s(self) -> float:
        return STOP_FACTOR * self.limit_s


# -- tensors as ({(i, j, k): coefficient}, shape) and partitions as
#    {axis: [(label, [index, ...]), ...]} -------------------------------------


def cw_tensor(q):
    """CW_q: x0 y0 z(q+1) + x0 y(q+1) z0 + x(q+1) y0 z0 + sum_i (xi yi z0 + xi y0 zi + x0 yi zi)."""
    entries = {(0, 0, q + 1): 1, (0, q + 1, 0): 1, (q + 1, 0, 0): 1}
    for i in range(1, q + 1):
        entries.update({(i, i, 0): 1, (i, 0, i): 1, (0, i, i): 1})
    return entries, (q + 2,) * 3


def cw_parts(q):
    parts = [("0", [0]), ("1", list(range(1, q + 1))), ("2", [q + 1])]
    return {ax: list(parts) for ax in "xyz"}


def cube(entries, shape):
    """T (x) rot T (x) rot^2 T, each axis indexed by (x, y, z) triples of T.

    Entry (i1 j1 k1)(i2 j2 k2)(i3 j3 k3) goes to x = (i1, j2, k3),
    y = (i3, j1, k2), z = (i2, j3, k1), so the cube is unchanged by the
    rotation (i, j, k) -> (j, k, i) of its own indices.
    """
    nx, ny, nz = shape
    flat = lambda a, b, c: (a * ny + b) * nz + c
    out = {}
    items = list(entries.items())
    for (i1, j1, k1), c1 in items:
        for (i2, j2, k2), c2 in items:
            for (i3, j3, k3), c3 in items:
                key = (flat(i1, j2, k3), flat(i3, j1, k2), flat(i2, j3, k1))
                out[key] = out.get(key, 0) + c1 * c2 * c3
    n = nx * ny * nz
    return out, (n, n, n)


def cube_parts(shape, parts):
    """Product partition on the cube: one part per (x, y, z) part triple."""
    nx, ny, nz = shape
    flat = lambda a, b, c: (a * ny + b) * nz + c
    cparts = []
    for lx, ix in parts["x"]:
        for ly, iy in parts["y"]:
            for lz, iz in parts["z"]:
                cparts.append((f"{lx},{ly},{lz}",
                               [flat(a, b, c) for a in ix for b in iy for c in iz]))
    return {ax: list(cparts) for ax in "xyz"}


def t112_tensor(q):
    """t_112 on 2q x, 2q y and q^2 + 2 z variables (x = (i,0) then (0,k))."""
    entries = {}
    for i in range(q):
        entries[(i, i, q * q)] = 1
        entries[(q + i, q + i, q * q + 1)] = 1
    for i in range(q):
        for k in range(q):
            entries[(i, q + k, i * q + k)] = 1
            entries[(q + k, i, i * q + k)] = 1
    return entries, (2 * q, 2 * q, q * q + 2)


def t112_parts(q):
    half = [("0", list(range(q))), ("1", list(range(q, 2 * q)))]
    zparts = [("0", list(range(q * q))), ("1", [q * q]), ("2", [q * q + 1])]
    return {"x": half, "y": list(half), "z": zparts}


def relabel(entries, parts, perms):
    """Apply one permutation per axis to the indices of a tensor and partition."""
    px, py, pz = perms
    new_entries = {(px[i], py[j], pz[k]): c for (i, j, k), c in entries.items()}
    new_parts = {ax: [(label, [perm[i] for i in idx]) for label, idx in parts[ax]]
                 for ax, perm in zip("xyz", perms)}
    return new_entries, new_parts


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def write_tensor(path: Path, entries, shape):
    lines = [f"xvars {shape[0]}", f"yvars {shape[1]}", f"zvars {shape[2]}"]
    lines += [f"{i} {j} {k} {entries[(i, j, k)]}/1" for (i, j, k) in sorted(entries)]
    path.write_text("\n".join(lines) + "\n")


def write_parts(path: Path, parts):
    lines = [f"{ax} {label} " + " ".join(map(str, idx))
             for ax in "xyz" for label, idx in parts[ax]]
    path.write_text("\n".join(lines) + "\n")


def largest_block_degeneration(entries, parts):
    """A degeneration of the tensor onto its largest block, as file texts.

    The map composes three steps: undo the relabeling, zero out every
    variable outside the block's parts, and scale the x variables by
    lambda.  Its order is therefore 1.  Returns (target text, map text).
    """
    counts = {}
    where = [{i: p for p, (_, idx) in enumerate(parts[ax]) for i in idx} for ax in "xyz"]
    for key in entries:
        bkey = tuple(where[a][key[a]] for a in range(3))
        counts[bkey] = counts.get(bkey, 0) + 1
    bkey = min(counts, key=lambda k: (-counts[k], k))
    idx = [parts[ax][bkey[a]][1] for a, ax in enumerate("xyz")]
    pos = [{v: w for w, v in enumerate(ix)} for ix in idx]
    block = {(pos[0][i], pos[1][j], pos[2][k]): c for (i, j, k), c in entries.items()
             if i in pos[0] and j in pos[1] and k in pos[2]}
    lines = [f"xvars {len(idx[0])}", f"yvars {len(idx[1])}", f"zvars {len(idx[2])}"]
    lines += [f"{i} {j} {k} {block[(i, j, k)]}/1" for (i, j, k) in sorted(block)]
    target = "\n".join(lines) + "\n"
    maps = []
    for name, ix, exponent in zip(("alpha", "beta", "gamma"), idx, (1, 0, 0)):
        maps += [f"{name} {src} {w} {exponent} 1/1" for w, src in enumerate(ix)]
    maps.append("order 1")
    return target, "\n".join(maps) + "\n"


# -- workloads -----------------------------------------------------------------


# Each workload's make_pass(rng, workdir) draws the next pass from the
# seeded generator: its input files, written to workdir, and its commands.
# pass_s is a pass's time at the reference speed, from which a run's
# number of passes is set.  Why each workload was chosen is in README.md.


class PaperTables:
    name = "paper-tables"
    pass_s = 4.8

    def make_pass(self, rng, workdir):
        cmds = [
            Command("table-cw", ["table", "cw", "--qmax", "8"],
                    lambda out: oracles.check_table("cw", 8, out)),
            Command("table-cw-small", ["table", "cw-small", "--qmax", "7"],
                    lambda out: oracles.check_table("cw-small", 7, out)),
            Command("table-tq-lower", ["table", "tq-lower", "--qmax", "16"],
                    lambda out: oracles.check_table("tq-lower", 16, out)),
            Command("appendix", ["appendix", "--qmax", "1000"], oracles.check_appendix),
            Command("t112-2", ["t112", "2"], lambda out: oracles.check_t112(2, out)),
        ]
        rng.shuffle(cmds)
        return cmds


class CubeLaser:
    name = "cube-laser"
    pass_s = 6.6

    def __init__(self):
        base, shape = cw_tensor(2)
        self.entries, self.shape = cube(base, shape)
        self.parts = cube_parts(shape, cw_parts(2))

    def make_pass(self, rng, workdir):
        perm = _perm(rng, self.shape[0])
        entries, parts = relabel(self.entries, self.parts, (perm, perm, perm))
        tensor, partition = workdir / "cw2cube.tensor", workdir / "cw2cube.partition"
        write_tensor(tensor, entries, self.shape)
        write_parts(partition, parts)
        mu = oracles.mu_sum_expected(entries, parts)
        files = [str(tensor), str(partition)]
        cmds = [
            Command("laser-cw2-cube", ["bound", "--mode", "laser", *files],
                    lambda out: oracles.check_laser(2, out)),
            Command("mu-sum-cw2-cube", ["bound", "--mode", "mu-sum", *files],
                    lambda out: oracles.check_mu_sum(mu, out)),
            Command("t112-4", ["t112", "4"], lambda out: oracles.check_t112(4, out)),
        ]
        rng.shuffle(cmds)
        return cmds


class AsymmetricSplit:
    """remove-x on relabeled CW_1 cubes, asymmetric t_112 partitions, and a
    degeneration check on a relabeled CW_2 cube.

    remove-x on the CW_2 cube is left out: its time ranges from 4 to 10 s
    over relabelings and about a third of them crash, so the two or three
    that fit in a run made wall_s spread by 0.22 of its median over seeds.
    """

    name = "asymmetric-split"
    pass_s = 3.4
    CW1_RELABELINGS = 2

    def __init__(self):
        self.cubes = {}
        for q in (1, 2):
            base, shape = cw_tensor(q)
            entries, cshape = cube(base, shape)
            self.cubes[q] = (entries, cshape, cube_parts(shape, cw_parts(q)))

    def _relabeled_cube(self, rng, workdir, q, tag):
        entries, shape, parts = self.cubes[q]
        perm = _perm(rng, shape[0])
        entries, parts = relabel(entries, parts, (perm, perm, perm))
        tensor, partition = workdir / f"{tag}.tensor", workdir / f"{tag}.partition"
        write_tensor(tensor, entries, shape)
        write_parts(partition, parts)
        return entries, shape, parts, tensor, partition

    def make_pass(self, rng, workdir):
        cmds = []
        for r in range(self.CW1_RELABELINGS):
            tag = f"cw1cube-{r}"
            entries, shape, parts, tensor, partition = self._relabeled_cube(rng, workdir, 1, tag)
            want = oracles.remove_x_expected(entries, shape, parts)
            cmds.append(Command(
                "remove-x-cw1-cube", ["bound", "--mode", "remove-x", str(tensor), str(partition)],
                lambda out, want=want: oracles.check_remove_x(want, out), {"input": tag}))
        entries, _, parts, tensor, _ = self._relabeled_cube(rng, workdir, 2, "cw2cube")
        target_text, map_text = largest_block_degeneration(entries, parts)
        target, dmap = workdir / "cw2block.tensor", workdir / "cw2block.map"
        target.write_text(target_text)
        dmap.write_text(map_text)
        cmds.append(Command("verify-degeneration",
                            ["verify-degeneration", str(tensor), str(target), str(dmap)],
                            oracles.check_verified))
        for q in (3, 4, 6):
            entries, shape = t112_tensor(q)
            perms = tuple(_perm(rng, n) for n in shape)
            entries, parts = relabel(entries, t112_parts(q), perms)
            tensor, partition = workdir / f"t112-{q}.tensor", workdir / f"t112-{q}.partition"
            write_tensor(tensor, entries, shape)
            write_parts(partition, parts)
            cmds.append(Command(
                "partition-t112", ["bound", "--mode", "partition", str(tensor), str(partition)],
                lambda out, q=q: oracles.check_partition_value(2.0 * q, out), {"q": q}))
        rng.shuffle(cmds)
        return cmds


WORKLOADS = {w.name: w for w in (PaperTables, CubeLaser, AsymmetricSplit)}
