"""tools/src_lines.py counts code lines without docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_counts_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    p = tmp_path / "m.py"
    p.write_text('"""Module\n\ndocstring."""\n\n# a comment\nX = """a string\nof two lines"""\n\n\n'
                 'class C:\n    """Class docstring."""\n\n    def f(self):  # trailing comment\n'
                 '        """Function\n        docstring."""\n        return (1,\n'
                 '                2)\n')
    # code: X's two lines, class C, def f and the return's two lines
    assert src_lines.counts(p) == (17, 6)


def test_every_file_of_the_package_counts(capsys):
    assert src_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[-1][0] == "total"
    assert [sum(int(r[k]) for r in rows[:-1]) for k in (1, 2)] == list(map(int, rows[-1][1:]))
    assert {r[0] for r in rows[:-1]} >= {"io.py", "pipeline.py", "cli.py"}
