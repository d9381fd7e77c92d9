"""tools/code_lines.py, the code-line count of the library."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# A comment on its own line.
import math


def area(r):
    """A function docstring."""
    x = math.pi * (  # a trailing comment
        r * r)
    return x
'''


def test_code_lines_counts_lines_with_a_token_and_no_docstring_or_comment(tmp_path):
    # import, def, x = ..., r * r), return: the docstrings, the comment
    # line and the blank lines are not counted.
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(MODULE)
    (tmp_path / "pkg" / "empty.py").write_text("")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines() == [
        f"     0  {tmp_path / 'pkg' / 'empty.py'}",
        f"     5  {tmp_path / 'pkg' / 'm.py'}",
        "     5  total",
    ]
