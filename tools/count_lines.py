"""Count code, docstring, comment and blank lines of Python files.

    python tools/count_lines.py [PATH ...]

Each PATH is a file or a directory, searched for *.py files; the default is
src/relconj.  Prints one row per file and a total.  Lines are classed by
the standard library's tokenize:

- docstring: a line of a string that stands alone in statement position,
  that is a logical line of nothing but string literals, wherever it is;
- code: a line with any other token on it, a line inside a string that is
  part of code included;
- comment: a line with a comment and no token of the two kinds above;
- blank: any other line.
"""

import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path):
    """{kind: number of lines} for the Python file at path."""
    data = Path(path).read_bytes()
    lines = {kind: set() for kind in KINDS}
    statement = []  # the significant tokens of the current logical line
    for tok in tokenize.tokenize(io.BytesIO(data).readline):
        if tok.type == tokenize.COMMENT:
            lines["comment"].add(tok.start[0])
        elif tok.type not in LAYOUT:
            statement.append(tok)
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            alone = all(t.type == tokenize.STRING for t in statement)
            kind = lines["docstring" if alone else "code"]
            for t in statement:
                kind.update(range(t.start[0], t.end[0] + 1))
            statement = []
    out = dict.fromkeys(KINDS, 0)
    for number in range(1, len(data.decode("utf-8").splitlines()) + 1):
        kind = next((k for k in KINDS[:3] if number in lines[k]), "blank")
        out[kind] += 1
    return out


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    paths = argv or ["src/relconj"]
    total = dict.fromkeys(KINDS, 0)
    print("%-40s %6s %9s %7s %6s" % (("file",) + KINDS))
    for path in python_files(paths):
        row = count(path)
        print("%-40s %6d %9d %7d %6d" % ((str(path),) + tuple(row.values())))
        for kind in KINDS:
            total[kind] += row[kind]
    print("%-40s %6d %9d %7d %6d" % (("total",) + tuple(total.values())))


if __name__ == "__main__":
    main(sys.argv[1:])
