"""The line counter of ``tools/src_lines.py`` on a module with known counts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

MODULE = '''"""Module docstring,

two lines and a blank one."""

# A comment line.
import os  # code with a comment


class Thing:
    """One-line class docstring."""

    def method(self):
        """Method docstring
        on two lines.
        """
        text = """a multi-line string
        that is code"""
        return text

    async def run(self):
        x = 1
        "not a docstring"
        return x
'''


def test_counts_of_a_known_module():
    assert src_lines.count_lines(MODULE) == {
        "lines": 23, "code": 10, "docstring": 7, "comment": 1, "blank": 5}


def test_each_line_has_one_kind():
    counts = src_lines.count_lines(MODULE)
    assert sum(counts[kind] for kind in src_lines.KINDS) == counts["lines"]


def test_main_prints_a_total_row(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", "lines", "code", "docstring", "comment", "blank"]
    assert rows[1:] == [["a.py", "23", "10", "7", "1", "5"], ["b.py", "3", "1", "0", "1", "1"],
                        ["total", "26", "11", "7", "2", "6"]]
