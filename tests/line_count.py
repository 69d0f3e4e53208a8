"""Line counts of the ``latshell`` package, per module.

``python tests/line_count.py [DIR]`` prints, for each ``*.py`` file of DIR
(default: ``src/latshell`` beside this directory), its number of lines in
all and its number of code lines, then the totals.  A code line holds at
least one token that is neither a comment nor part of a docstring, so
blank lines, comment lines and docstring lines do not count.  Docstrings
are the string statements ``ast.get_docstring`` reads: the first statement
of a module, class or function.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(HERE, os.pardir, "src", "latshell")

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: str) -> tuple[int, int]:
    """(all lines, code lines) of one source file."""
    with open(path, "rb") as fh:
        source = fh.read()
    text = source.decode("utf-8")
    docs = _docstring_lines(ast.parse(text))
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _SKIP:
                continue
            code.update(k for k in range(tok.start[0], tok.end[0] + 1)
                        if k not in docs)
    return len(text.splitlines()), len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else PACKAGE
    total_all = total_code = 0
    for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
        n_all, n_code = count(os.path.join(root, name))
        total_all += n_all
        total_code += n_code
        print(f"{name:16} {n_all:5} {n_code:5}")
    print(f"{'total':16} {total_all:5} {total_code:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
