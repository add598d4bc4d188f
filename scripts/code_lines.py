"""Count code lines: non-blank, non-comment, non-docstring.

A line counts when a token other than a comment or a line break starts,
ends or continues on it (a multi-line string or bracket counts every
line it spans), unless it lies inside a module, class or function
docstring (found with :mod:`ast`).  This is the "code lines" figure
ROADMAP.md quotes for ``src/``.

    python scripts/code_lines.py              # src/ total
    python scripts/code_lines.py --files 10   # and its ten largest files
    python scripts/code_lines.py src tests    # several trees, one total
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(paths: list[Path]) -> dict[Path, int]:
    """Code lines per ``.py`` file under ``paths`` (files or trees)."""
    files = sorted(
        f
        for path in paths
        for f in ([path] if path.is_file() else path.rglob("*.py"))
    )
    return {f: code_lines(f.read_text(encoding="utf-8")) for f in files}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src")])
    parser.add_argument(
        "--files", type=int, default=0, metavar="N",
        help="also list the N largest files",
    )
    args = parser.parse_args()
    counts = count(args.paths)
    for path, n in sorted(counts.items(), key=lambda kv: -kv[1])[: args.files]:
        print(f"{n:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total ({len(counts)} files)")


if __name__ == "__main__":
    main()
