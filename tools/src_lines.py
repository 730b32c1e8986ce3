"""Count the lines of each ``src/gf2synth`` module: its ``wc -l`` and its
code lines, then the totals.

A code line holds a token that is not a comment (``tokenize``) and lies
outside every module, class and function docstring (``ast``); blank lines,
comment lines and docstrings are not code. Run from anywhere:

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gf2synth"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    total_lines = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        n, code = source.count("\n"), code_lines(source)
        total_lines += n
        total_code += code
        print(f"{n:6d} {code:6d}  {path.name}")
    print(f"{total_lines:6d} {total_code:6d}  total (wc -l, code lines)")


if __name__ == "__main__":
    main()
