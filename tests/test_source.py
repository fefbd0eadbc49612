"""Limits on the package's own source."""

import shutil
import tokenize
from pathlib import Path

import pytest

import solve_digest
import src_lines

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "slicerank").glob("*.py"))

# Compiling a module peaks about 0.45 MB higher once it has more than
# 8,192 tokens (by tracemalloc around `compile` on Python 3.11, a padded
# `tensor_core.py` peaks at 2.98 MB with 8,170 tokens and 3.45 MB with
# 8,202), and a process run without a bytecode cache, as under
# PYTHONDONTWRITEBYTECODE=1, compiles every module it imports.
TOKEN_STEP = 8192


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_stays_under_the_compile_token_step(path):
    """The tokens the parser reads, so neither comments nor NL tokens."""
    with tokenize.open(path) as f:
        count = sum(1 for tok in tokenize.generate_tokens(f.readline)
                    if tok.type not in (tokenize.COMMENT, tokenize.NL))
    assert count < TOKEN_STEP


def test_src_lines_prints_the_change_between_two_trees(tmp_path, capsys):
    """Given two package directories, `tests/src_lines.py` prints each
    tree's table and then each module's change, a module missing from one
    tree counting zero there."""
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    (before / "a.py").write_text('"""Doc."""\n\nx = 1\n')
    (before / "gone.py").write_text("y = 2\n")
    (after / "a.py").write_text('"""Doc."""\n\nx = 1\n# a comment\nz = x\n')
    src_lines.main([str(before), str(after)])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == str(before) and str(after) in out
    change = [line.split() for line in out[out.index("change") + 2:]]
    assert change == [["a.py", "+2", "+1", "+4"], ["gone.py", "-1", "-1", "-5"],
                      ["total", "+1", "+0", "-1"]]


def test_solve_digest_lists_the_solves_that_differ(tmp_path, capsys):
    """`tests/solve_digest.py BEFORE AFTER` on its short input list finds
    no differing solve between this package and a copy of it, and lists
    the solves of a copy whose solver stops after one step."""
    same, capped = tmp_path / "same" / "slicerank", tmp_path / "capped" / "slicerank"
    shutil.copytree(solve_digest.PACKAGE, same)
    shutil.copytree(solve_digest.PACKAGE, capped)
    optimizer = capped / "optimizer.py"
    text = optimizer.read_text()
    assert "\nMAX_STEPS = 200 " in text
    optimizer.write_text(text.replace("\nMAX_STEPS = 200 ", "\nMAX_STEPS = 1 "))
    assert solve_digest.main(["--small", str(solve_digest.PACKAGE), str(same)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "0 differing solves"
    assert out[0].split(":", 1)[1] == out[1].split(":", 1)[1]
    assert solve_digest.main(["--small", str(same), str(capped)]) == 1
    out = capsys.readouterr().out.splitlines()
    differ = [line.split()[1] for line in out if line.startswith("differs: ")]
    assert differ and out[-1] == f"{len(differ)} differing solves"
    assert "tq_lower_table:maximize_symmetric#0" in differ
