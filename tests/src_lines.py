"""Line and token counts of the package's modules.

pytest does not collect this file (its name does not start with
`test_`).  Run it from the repository root:

    python tests/src_lines.py [package directory]
    python tests/src_lines.py BEFORE AFTER

The directory defaults to this checkout's `src/slicerank`.  For each
module, and in total, it prints:

- `lines`: lines of the file, as `wc -l` counts them;
- `code`: lines that hold a token of code, so neither blank lines nor
  comment-only lines, less the lines of docstrings (a string expression
  first in a module, class or function body, found by `ast`);
- `tokens`: the tokens the parser reads, neither comments nor NL tokens,
  as `tests/test_source.py` counts them.

Given two package directories, it prints the table of each, headed by
its directory, then each module's change from BEFORE to AFTER, and the
total's (a module missing from one tree counts zero there).
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slicerank"
# tokens that hold no code: a line with only these is blank or a comment
LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER)


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int, int]:
    text = path.read_text()
    with tokenize.open(path) as f:
        tokens = [tok for tok in tokenize.generate_tokens(f.readline)
                  if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    code = set()
    for tok in tokens:
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return text.count("\n"), len(code), len(tokens)


def table(package: Path) -> dict:
    """{module file name: (lines, code, tokens)} of a package directory."""
    return {path.name: counts(path) for path in sorted(package.glob("*.py"))}


def show(rows: dict, sign: str = "") -> None:
    total = [0, 0, 0]
    print(f"{'module':<20} {'lines':>7} {'code':>7} {'tokens':>7}")
    for name, row in rows.items():
        total = [a + b for a, b in zip(total, row)]
        print(f"{name:<20} " + " ".join(f"{v:>{sign}7,}" for v in row))
    print(f"{'total':<20} " + " ".join(f"{v:>{sign}7,}" for v in total))


def main(argv: list[str]) -> None:
    if len(argv) > 2:
        sys.exit("usage: python tests/src_lines.py [PACKAGE | BEFORE AFTER]")
    if len(argv) < 2:
        show(table(Path(argv[0]) if argv else PACKAGE))
        return
    before, after = map(table, map(Path, argv))
    for package, rows in zip(argv, (before, after)):
        print(package)
        show(rows)
        print()
    print("change")
    show({name: tuple(a - b for a, b in zip(after.get(name, (0, 0, 0)),
                                            before.get(name, (0, 0, 0))))
          for name in sorted(before.keys() | after.keys())}, "+")


if __name__ == "__main__":
    main(sys.argv[1:])
