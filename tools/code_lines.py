"""Code lines of each module of src/affseg, beside its `wc -l` count.

A code line holds a token other than a comment, newline, indent or dedent,
and lies outside every module, class and function docstring (found with
`ast`).  Run from anywhere: ``python tools/code_lines.py``.
"""

import ast
import pathlib
import tokenize

SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    docs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in SKIP]
    return len({i for t in tokens for i in range(t.start[0], t.end[0] + 1)} - docs)


if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "affseg"
    code = lines = 0
    print(f"{'module':<16}{'code':>6}{'wc -l':>7}")
    for path in sorted(root.glob("*.py")):
        c, n = code_lines(path), len(path.read_text().splitlines())
        code, lines = code + c, lines + n
        print(f"{path.name:<16}{c:>6}{n:>7}")
    print(f"{'total':<16}{code:>6}{lines:>7}")
