"""Count the code lines of the modules under a source directory.

A code line is a line that holds a token outside comments and docstrings.
Blank lines and comment lines do not count, even inside brackets, nor do
the lines of a docstring, here any statement that is one string literal
alone; every line of any other multi-line string does.

    python tests/code_lines.py                 # src/settower
    python tests/code_lines.py path/to/pkg

prints one line per module, `name count`, largest first, and then the
total.
"""

import sys
import tokenize
from pathlib import Path

# Tokens that are not code: comments, line structure and the file's ends.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(readline) -> int:
    """The number of code lines in the source that readline returns, line
    by line, as str."""
    lines = set()
    statement = []
    for tok in tokenize.generate_tokens(readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if len(statement) != 1 or statement[0].type != tokenize.STRING:
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def count_modules(root: Path) -> dict:
    """{module name: code lines} for every .py file under root."""
    counts = {}
    for path in sorted(root.rglob("*.py")):
        with tokenize.open(path) as f:
            counts[path.relative_to(root).with_suffix("").as_posix()] = code_lines(f.readline)
    return counts


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).parent.parent / "src" / "settower")
    counts = count_modules(root)
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
