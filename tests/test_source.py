"""Limits on the package's own source."""

import ast
import re
import shutil
import tokenize
from pathlib import Path

import pytest

import solve_digest
import src_lines

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slicerank"
MODULES = sorted(PACKAGE.glob("*.py"))

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


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def unread_constants(package: Path) -> list:
    """(module, name) of each module-level ALL_CAPS constant of the
    modules in `package` that nothing reads: not its own module, not an
    attribute read anywhere (`optimizer.MAX_STEPS`), and not a module that
    imports it by name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    loads = {module: [node for node in ast.walk(tree)
                      if isinstance(getattr(node, "ctx", None), ast.Load)]
             for module, tree in trees.items()}
    attributes = {node.attr for nodes in loads.values() for node in nodes
                  if isinstance(node, ast.Attribute)}
    names = {module: {node.id for node in nodes if isinstance(node, ast.Name)}
             for module, nodes in loads.items()}
    imports = {(module, node.module, alias.name) for module, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    defined = [(module, n.id) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in getattr(node, "targets", None) or [node.target]
               for n in ast.walk(target) if isinstance(n, ast.Name) and CONSTANT.match(n.id)]
    return [(module, name) for module, name in defined
            if name not in names[module] | attributes
            and not any((other, module, name) in imports and name in names[other] for other in trees)]


def test_every_module_constant_is_read(tmp_path):
    """Every module-level ALL_CAPS constant of the package is read
    somewhere in it, so deleting its last reader cannot leave a dead knob
    behind; a constant added to a copy of the package and read nowhere is
    found, and so is one that another module imports but never reads."""
    assert unread_constants(PACKAGE) == []
    copy = tmp_path / "slicerank"
    shutil.copytree(PACKAGE, copy)
    optimizer = copy / "optimizer.py"
    optimizer.write_text(optimizer.read_text() + "\nDEAD_KNOB = 3\nIMPORTED_ONLY: int = 4\n")
    (copy / "extra.py").write_text("from .optimizer import IMPORTED_ONLY\n")
    assert unread_constants(copy) == [("optimizer", "DEAD_KNOB"), ("optimizer", "IMPORTED_ONLY")]
