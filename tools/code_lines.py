"""Count the code lines of each module of src/perfproj.

    python3 tools/code_lines.py [DIR]

A code line is a non-blank line that carries code: a line covered by some
token other than a comment or a line break, outside every docstring (the
first statement of a module, class or function, when it is a string).  Prints
one "<lines> <module>" line per module in name order, then "<total> total".
DIR defaults to the src/perfproj of the checkout this script lives in.
"""

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    text_lines = source.splitlines()
    covered = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                covered.update(range(tok.start[0], tok.end[0] + 1))
    covered -= docstring_lines(ast.parse(source))
    return sum(1 for n in covered if text_lines[n - 1].strip())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else ROOT / "src" / "perfproj"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count} {path.stem}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
