"""The command-line output corpus: a fixed list of command lines, their
input files built from the package's constructors, and the exit code,
stdout and stderr each one printed, kept in `cli_corpus.json`.

`test_corpus.py` runs every case in process through `cli.main` and
compares.  After a change meant to alter output, regenerate the file
from the repository root and list each changed case, with its reason,
in CHANGES.md:

    PYTHONPATH=src python tests/corpus.py

Two masks, and no other (`MASKS`), both on printed solver noise:
- the values of `kkt_residual=` and `optimality_gap=` in a `bound`
  line: float noise of the solve path, which flips between 0 and
  2.2e-16 and moves in its last digits when a step's rounding changes;
- the fields of `table --format tsv`, compared to 1e-12 relative: tsv
  prints every float with all 17 digits (`str`), whose last ones
  depend on the solve path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import slicerank as sr
from slicerank.cli import main

from helpers import relabeled, scan_cube

CORPUS = Path(__file__).with_name("cli_corpus.json")
MASKS = ["kkt_residual= and optimality_gap= values in bound lines (solve-path float noise)",
         "table --format tsv fields compared to 1e-12 relative (17 printed digits)"]
NOISE = re.compile(r"((?:kkt_residual|optimality_gap)=)[^,\s]*")
TSV_RTOL = 1e-12


def bound_inputs():
    """{name: (tensor, partition)} of the `bound` cases."""
    inputs = {f"cw{q}": (sr.make_cw(q), sr.cw_partition(q)) for q in range(1, 6)}
    inputs.update({f"cw-small{q}": (sr.make_cw_small(q), sr.cw_small_partition(q))
                   for q in range(1, 4)})
    inputs.update({f"t112-{q}": relabeled(sr.make_t112(q), sr.t112_partition(q), 112 + q)
                   for q in (2, 3, 4, 6)})
    for q in (1, 2):
        cw = sr.make_cw(q)
        cube = (sr.symmetric_cube(cw), sr.cube_partition(cw, sr.cw_partition(q)))
        inputs[f"cw{q}-cube-axes"] = relabeled(*cube, 7 + q)
        inputs[f"cw{q}-cube-shared"] = relabeled(*cube, 7 + q, shared=True)
    return inputs


def write_inputs(directory: Path):
    """Write every input file into `directory`; return the argv of every case."""
    cases = []
    for family, golden in (("cw", 8), ("cw-small", 7), ("tq-lower", 5), ("tq-lower", 40)):
        for fmt in ("plain", "tsv"):
            cases.append(["table", family, "--qmax", str(golden), "--format", fmt])
    cases += [["t112", str(q)] for q in range(1, 9)]
    cases += [["appendix", "--qmax", q] for q in ("9", "1000", str(10 ** 12))]
    files = bound_inputs()
    for seed in (271, 424):
        files[f"scan{seed}-cube"] = scan_cube(seed)
    for name, (t, p) in files.items():
        (directory / f"{name}.tensor").write_text(sr.write_tensor(t))
        (directory / f"{name}.partition").write_text(sr.write_partition(p))
        modes = ("remove-x",) if name.startswith("scan") else (
            "partition", "mu-sum", "remove-x", "laser")
        cases += [["bound", "--mode", mode, f"{name}.tensor", f"{name}.partition"]
                  for mode in modes]
    cw2 = sr.make_cw(2)
    bs = sr.blocks(cw2, sr.cw_partition(2))
    (directory / "block.tensor").write_text(sr.write_tensor(bs[(0, 1, 1)]))
    (directory / "zeroing.map").write_text(
        sr.write_degeneration_map(sr.zeroing_to_block(bs, (0, 1, 1))))
    (directory / "one.tensor").write_text(sr.write_tensor(sr.make_independent(1)))
    (directory / "empty.map").write_text("order 0\n")
    (directory / "malformed.tensor").write_text("xvars 2\nyvars 1\nzvars 1\n0 0 0 x\n")
    (directory / "empty.tensor").write_text("xvars 1\nyvars 1\nzvars 1\n")
    (directory / "empty.partition").write_text("x 0 0\ny 0 0\nz 0 0\n")
    cases += [["verify-degeneration", "cw2.tensor", "block.tensor", "zeroing.map"],
              ["verify-degeneration", "cw1.tensor", "one.tensor", "empty.map"],
              ["verify-degeneration", "cw2.tensor", "one.tensor", "zeroing.map"],
              ["bound", "--mode", "partition", "malformed.tensor", "cw1.partition"],
              ["bound", "--mode", "partition", "empty.tensor", "empty.partition"]]
    return cases


def run(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def masked(text: str) -> str:
    return NOISE.sub(r"\1*", text)


def tsv_equal(a: str, b: str) -> bool:
    """Whether two tsv outputs agree field by field, numbers to TSV_RTOL."""
    rows_a, rows_b = ([row.split("\t") for row in text.splitlines()] for text in (a, b))
    return [len(r) for r in rows_a] == [len(r) for r in rows_b] and all(
        _field_equal(u, v) for ra, rb in zip(rows_a, rows_b) for u, v in zip(ra, rb))


def _field_equal(u: str, v: str) -> bool:
    try:
        return u == v or math.isclose(float(u), float(v), rel_tol=TSV_RTOL)
    except ValueError:
        return False


def generate():
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            cases = [dict(zip(("argv", "exit", "stdout", "stderr"), (" ".join(argv), *run(argv))))
                     for argv in write_inputs(Path(tmp))]
        finally:
            os.chdir(here)
    CORPUS.write_text(json.dumps({"masks": MASKS, "cases": cases}, indent=1) + "\n")
    print(f"{len(cases)} cases written to {CORPUS}")


if __name__ == "__main__":
    generate()
