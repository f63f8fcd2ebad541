"""Count the code lines of ``src/summakit``, per module and in total.

    python tools/code_lines.py [SRC_DIR]

A code line is a line that is not blank, not a comment alone and not part
of a docstring (the string a module, class or function body opens with).
SRC_DIR defaults to this tree's ``src/summakit``.  Needs the standard library alone.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "summakit"


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code: not blank, not a comment alone, not in a docstring."""
    lines = {t.start[0] for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in _NOT_CODE}
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


# a multi-line expression counts on each line that holds one of its tokens, a docstring on none
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:12} {count:6,}")
    print(f"{'total':12} {sum(counts.values()):6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
