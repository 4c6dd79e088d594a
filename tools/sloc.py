"""Count the code lines of the proxy's modules.

A code line is a line that holds a token other than a comment or a
docstring; blank lines, comment lines and the lines of a docstring (a
string literal standing alone as a statement) are left out. Only the
standard library is used.

    python3 tools/sloc.py [FILE ...]    # default: src/rosproxy/*.py

Prints one "count path" line per file and a "count total" line.
"""

from __future__ import annotations

import glob
import io
import os
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    previous = tokenize.NEWLINE
    for index, token in enumerate(tokens):
        docstring = (
            token.type == tokenize.STRING
            and previous in _STATEMENT_START
            and tokens[index + 1].type == tokenize.NEWLINE
        )
        if token.type not in _LAYOUT and not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
        previous = token.type
    return len(lines)


def main(argv) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = argv or sorted(glob.glob(os.path.join(root, "src", "rosproxy", "*.py")))
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        total += count
        print("%5d %s" % (count, os.path.relpath(path)))
    print("%5d total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
