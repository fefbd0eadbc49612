"""A digest of every solver output on a fixed list of inputs.

pytest does not collect this file (its name does not start with
`test_`).  Run it from the repository root:

    python tests/solve_digest.py [--small] [PACKAGE]
    python tests/solve_digest.py [--small] BEFORE AFTER

PACKAGE is a directory holding the package's modules, by default this
checkout's `src/slicerank`.  Each tree is imported in its own Python
subprocess, which runs the inputs below and records every `Optimum` that
`maximize_symmetric`, `maximize_product`, `maximize_minmax` and
`summand_optima` return, called directly or from the bound engines'
tables:

- `cw_table(8)`, `cw_small_table(7)`, `tq_lower_table(150)` and
  `t112_value(q)` for q = 1..6;
- `maximize_symmetric` on CW_q (q = 1..8) and T_q (q = 2..100) rows
  alone, on the cubes of CW_1 and CW_2 relabeled, and on the cube of
  t_112(1);
- 300 random block sets (`helpers.random_tensor` under
  `helpers.random_partition`), each by `maximize_product` and
  `maximize_minmax`, and 100 random symmetric ones by
  `maximize_symmetric`;
- the B parts of remove-x on `helpers.scan_cube(seed)`, seeds 80-199,
  each by `maximize_minmax` and `maximize_product`.

`--small` takes a short list instead.  A solve's digest is a SHA-256
over its iterations, residual, gap, log values, axis weights and block
masses, the floats as their bytes.  With one package the script prints
the number of solves and a SHA-256 over their digests in order.  Given
BEFORE AFTER it prints both, then the solves whose digests differ (or
that only one tree made), and exits 1 when there is any.
`--lines PACKAGE`, what each subprocess runs, prints one line per solve
instead: its name and digest.
"""

from __future__ import annotations

import hashlib
import random
import struct
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slicerank"
SOLVERS = ("maximize_symmetric", "maximize_product", "maximize_minmax", "summand_optima")


def inputs(small: bool):
    """(label, call) pairs; each call runs solvers whose outputs are recorded."""
    import slicerank as sr
    from helpers import (random_partition, random_symmetric_tensor, random_tensor,
                         relabeled_cw_cube, remove_x_b_part, scan_cube,
                         shared_index_partition)
    from slicerank import optimizer

    def alone(t, p):
        return lambda: optimizer.maximize_symmetric(sr.blocks(t, p))

    yield "cw_table", lambda: sr.cw_table(3 if small else 8)
    yield "cw_small_table", lambda: sr.cw_small_table(3 if small else 7)
    yield "tq_lower_table", lambda: sr.tq_lower_table(12 if small else 150)
    for q in range(1, 3 if small else 7):
        yield f"t112_value({q})", lambda q=q: sr.t112_value(q)
    for q in range(1, 3 if small else 9):
        yield f"cw({q})", alone(sr.make_cw(q), sr.cw_partition(q))
    for q in range(2, 6 if small else 101):
        t = sr.make_cyclic_lower(q)
        yield f"tq({q})", alone(t, sr.singleton_partition(t))
    for q in (1,) if small else (1, 2):
        yield f"cw_cube({q})", alone(*relabeled_cw_cube(q, 0))
    t112 = sr.make_t112(1)
    yield "t112_cube", alone(sr.symmetric_cube(t112), sr.cube_partition(t112, sr.t112_partition(1)))
    for seed in range(5 if small else 300):
        rng = random.Random(seed)
        t = random_tensor(rng, max_dim=5)
        bs = sr.blocks(t, random_partition(rng, t))
        yield f"random({seed})", lambda bs=bs: (optimizer.maximize_product(bs),
                                                optimizer.maximize_minmax(bs))
    for seed in range(3 if small else 100):
        rng = random.Random(seed)
        t = random_symmetric_tensor(rng, rng.randint(1, 5))
        yield f"random_symmetric({seed})", alone(t, shared_index_partition(rng, t))
    for seed in range(80, 90 if small else 200):
        bs = remove_x_b_part(*scan_cube(seed))
        if bs is not None and len(bs) <= 400:
            yield f"cube_b({seed})", lambda bs=bs: (optimizer.maximize_minmax(bs),
                                                    optimizer.maximize_product(bs))


def optimum_digest(opt) -> str:
    floats = [opt.kkt_residual, opt.optimality_gap, opt.log_value, *opt.log_values,
              *opt.axis_weights.values()]
    h = hashlib.sha256(struct.pack(f"<q{len(floats)}d", opt.iterations, *floats))
    for key, mass in sorted(opt.masses.items()):
        h.update(struct.pack("<3qd", *key, mass))
    if opt.block_mass is not None:
        h.update(opt.block_mass.astype("<f8").tobytes())
    return h.hexdigest()


def solve_lines(package: Path, small: bool) -> None:
    """Print one line per solve of the package directory's tree, its name
    and digest (run in a process of its own)."""
    sys.path.insert(0, str(package.resolve().parent))
    from slicerank import optimizer

    solves = []
    for name in SOLVERS:
        def recorded(*args, _real=getattr(optimizer, name), _name=name):
            result = _real(*args)
            solves.extend((_name, opt) for opt in (result if isinstance(result, list) else [result]))
            return result
        setattr(optimizer, name, recorded)
    for label, call in inputs(small):
        start = len(solves)
        call()
        for i, (name, opt) in enumerate(solves[start:]):
            print(f"{label}:{name}#{i} {optimum_digest(opt)}")


def run(package: Path, small: bool) -> list:
    """[(solve name, digest)] of the package directory's tree."""
    out = subprocess.run([sys.executable, __file__, "--lines", *["--small"] * small, str(package)],
                         capture_output=True, text=True, check=True).stdout
    return [tuple(line.split()) for line in out.splitlines()]


def show(package, solves) -> None:
    total = hashlib.sha256("".join(d for _, d in solves).encode()).hexdigest()
    print(f"{package}: {len(solves)} solves, sha256 {total}")


def main(argv: list[str]) -> int:
    small = "--small" in argv
    argv = [a for a in argv if a != "--small"]
    if argv[:1] == ["--lines"]:
        solve_lines(Path(argv[1]), small)
        return 0
    if len(argv) > 2:
        sys.exit("usage: python tests/solve_digest.py [--small] [PACKAGE | BEFORE AFTER]")
    packages = list(map(Path, argv)) or [PACKAGE]
    runs = [run(package, small) for package in packages]
    for package, solves in zip(packages, runs):
        show(package, solves)
    if len(runs) < 2:
        return 0
    before, after = map(dict, runs)
    names = list(before) + [name for name in after if name not in before]
    differ = [name for name in names if before.get(name) != after.get(name)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} differing solves")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
