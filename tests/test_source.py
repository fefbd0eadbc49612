"""Limits on the package's own source."""

import tokenize
from pathlib import Path

import pytest

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
