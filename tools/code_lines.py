"""Count the code lines of a Python package: lines that are not blank, a
comment or part of a docstring.

A docstring is the string-literal statement that opens a module, class or
function body.  A line counts when it holds any token other than a comment
or a line break and lies outside every docstring.

Usage: python3 tools/code_lines.py [DIR]   (default: src/asianmc)
Prints the total; with -v, one count per file first.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: Path) -> int:
    text = source.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    with source.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    verbose = "-v" in argv
    args = [a for a in argv if a != "-v"]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "asianmc"
    total = 0
    for source in sorted(root.glob("*.py")):
        n = code_lines(source)
        total += n
        if verbose:
            print(f"{n:6d}  {source.name}")
    print(total)


if __name__ == "__main__":
    main(sys.argv[1:])
