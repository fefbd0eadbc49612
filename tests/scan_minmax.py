"""Robustness scans of the max-min and product solvers on random inputs.

pytest does not collect this file (its name does not start with
`test_`).  Run it from the repository root:

    PYTHONPATH=src python tests/scan_minmax.py [scan ...]

with no scan named to run all four:

- `cubes`: `maximize_minmax` on B of remove-x on `helpers.scan_cube(seed)`
  (tensor and partition from two `Random(seed)`), seeds 80-499, skipping
  trivial splits and B parts of more than 400 blocks: 162 solves.
- `shared`: the same with one shared generator (`scan_cube(seed,
  shared=True)`), seeds 0-499: 211 solves.
- `random`: `maximize_minmax` on the draw of
  `test_optimizer.test_minmax_certified_on_random_tensors`, seeds
  0-5999, each under its random and its singleton partition: 12,000
  solves.
- `product`: `maximize_product` on the `cubes` B parts: 162 solves.

Each scan prints its number of solves, the solves whose `kkt_residual`
exceeds `bound_engines.KKT_LIMIT` (unconverged, as the CLI reads them;
listed by seed), the median, 90th percentile and largest step count,
the largest residual, and its seconds.  The script exits with status 1
when any scan has an unconverged solve, and 0 otherwise, so it can gate
a change to the solvers.
"""

from __future__ import annotations

import random
import sys
import time

import numpy as np

import slicerank as sr
from slicerank.bound_engines import KKT_LIMIT

from helpers import random_partition, random_tensor, remove_x_b_part, scan_cube

MAX_BLOCKS = 400


def cube_b_parts(seeds, shared):
    for seed in seeds:
        bs = remove_x_b_part(*scan_cube(seed, shared))
        if bs is not None and len(bs) <= MAX_BLOCKS:
            yield seed, bs


def random_block_sets():
    for seed in range(6000):
        for singletons in (False, True):
            rng = random.Random(seed)
            t = random_tensor(rng, max_dim=6)
            p = sr.singleton_partition(t) if singletons else random_partition(rng, t)
            yield (seed, singletons), sr.blocks(t, p)


SCANS = {
    "cubes": (sr.maximize_minmax, lambda: cube_b_parts(range(80, 500), False)),
    "shared": (sr.maximize_minmax, lambda: cube_b_parts(range(500), True)),
    "random": (sr.maximize_minmax, random_block_sets),
    "product": (sr.maximize_product, lambda: cube_b_parts(range(80, 500), False)),
}


def scan(name):
    solver, inputs = SCANS[name]
    steps, resid, failed = [], [], []
    start = time.perf_counter()
    for label, bs in inputs():
        opt = solver(bs)
        steps.append(opt.iterations)
        resid.append(opt.kkt_residual)
        if not opt.kkt_residual <= KKT_LIMIT:
            failed.append(label)
    seconds = time.perf_counter() - start
    median, p90 = np.percentile(steps, [50, 90])
    print(f"{name}: {len(steps)} solves, {len(failed)} unconverged, steps median {median:g} "
          f"p90 {p90:g} max {max(steps)}, residual max {max(resid):.2g}, {seconds:.1f} s")
    if failed:
        print(f"  unconverged: {failed}")
    return len(failed)


if __name__ == "__main__":
    unconverged = [scan(name) for name in sys.argv[1:] or SCANS]
    sys.exit(1 if any(unconverged) else 0)
