"""scripts/code_lines.py: a code line holds a token of code; blank lines,
comment lines and docstring lines are not counted."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
class Box:
    """A class docstring."""

    size = 2

    def area(self):
        """A function docstring,

        over three lines."""
        text = """a string that is not a docstring
spans two lines"""
        return (self.size
                * math.pi), text
'''


def test_code_lines_counts_each_line_of_code_once(tmp_path, capsys):
    # import, class, size, def, the two lines of text and the two of return
    assert code_lines.code_lines(FIXTURE) == 8
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "1", "b.py", "8", "total", "9"]
