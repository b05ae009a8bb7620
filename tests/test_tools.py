import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# one line or more of each kind count_lines tells apart
SOURCE = '''"""A module docstring
of two lines."""

# a comment line
x = 1  # code, with a comment after it
y = """a string that is
part of code"""


def f():
    """A docstring in a function."""
    return x
'''


def load_count_lines():
    spec = importlib.util.spec_from_file_location(
        "count_lines", ROOT / "tools" / "count_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_lines_classes_each_kind_of_line(tmp_path, capsys):
    # docstring: lines 1, 2 and 11; code: 5, 6, 7 (the string that is part
    # of code), 10 and 12; comment: 4; blank: 3, 8 and 9
    count_lines = load_count_lines()
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    want = {"code": 5, "docstring": 3, "comment": 1, "blank": 3}
    assert count_lines.count(path) == want
    count_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[-1].split() == [
        "total", "5", "3", "1", "3"]
