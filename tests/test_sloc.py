"""tools/sloc.py counts the lines that hold code: not blank lines,
comment lines or the lines of a docstring."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment line
import os  # code with a trailing comment


def f(x):
    """A function docstring."""
    text = """a string that is
    assigned, not a docstring"""
    "%d".join(text)
    return (x +
            1)
'''


def test_sloc_counts_code_lines_only():
    # import, def, two lines of text =, "%d".join, two lines of return
    assert sloc.code_lines(SNIPPET) == 7
