import ast
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


def unused_private_names(directory):
    """(module, name) for each private top-level function, class or
    constant of the modules in directory that no module loads, by name or
    as an attribute, or imports, outside the name's own definition."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(directory).glob("*.py"))}
    private = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets
                         if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    private[module, name] = node

    def uses(statements):
        for node in statements:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    yield sub.id
                elif isinstance(sub, ast.Attribute):
                    yield sub.attr
                elif isinstance(sub, ast.alias):
                    yield sub.name

    return sorted(
        (module, name) for (module, name), definition in private.items()
        if not any(name in uses(statement for statement in tree.body
                                if statement is not definition)
                   for tree in trees.values()))


def test_every_private_library_name_has_a_use():
    # a private helper of src/relconj that nothing in the library reads is
    # dead code, such as a fast path left behind when its caller moved on
    assert unused_private_names(ROOT / "src" / "relconj") == []


def test_an_unused_private_name_is_reported(tmp_path):
    # a recursive call or a read inside its own definition is no use
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n_SPARE = 4\n\n\ndef _helper(n):\n"
        "    return _helper(n - 1) if n else _SPARE\n\n\n"
        "def _used():\n    return _LIMIT\n")
    (tmp_path / "b.py").write_text("from .a import _used\n")
    assert unused_private_names(tmp_path) == [("a.py", "_helper")]


def unread_properties(library, readers):
    """(module, class, name) for each property or cached_property defined
    in a class of the modules in library that no module of library or
    readers reads as an attribute outside the property's own definition."""
    trees = {path: ast.parse(path.read_text())
             for directory in (library, *readers)
             for path in sorted(Path(directory).glob("*.py"))}
    defined = {}
    for path, tree in trees.items():
        if path.parent != Path(library):
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and any(
                        ast.unparse(d) in ("property", "cached_property",
                                           "functools.cached_property")
                        for d in node.decorator_list):
                    defined[path.name, cls.name, node.name] = node

    def read_outside(name, definition):
        for tree in trees.values():
            skip = set(map(id, ast.walk(definition)))
            for sub in ast.walk(tree):
                if (isinstance(sub, ast.Attribute) and sub.attr == name
                        and isinstance(sub.ctx, ast.Load)
                        and id(sub) not in skip):
                    return True
        return False

    return sorted(key for key, definition in defined.items()
                  if not read_outside(key[2], definition))


def test_every_library_property_is_read():
    # a derived table of src/relconj that neither the library nor a demo
    # reads is dead code, such as a fast path's test left behind when the
    # path went
    assert unread_properties(ROOT / "src" / "relconj",
                             [ROOT / "demos"]) == []


def test_an_unread_property_is_reported(tmp_path):
    # a read inside the property's own definition is no read; a demo's is
    (tmp_path / "lib").mkdir()
    (tmp_path / "demos").mkdir()
    (tmp_path / "lib" / "a.py").write_text(
        "from functools import cached_property\n\n\nclass P:\n"
        "    @cached_property\n    def table(self):\n"
        "        return self.table\n\n"
        "    @property\n    def size(self):\n        return 2\n\n"
        "    @cached_property\n    def shown(self):\n        return 3\n")
    (tmp_path / "lib" / "b.py").write_text(
        "def f(p):\n    return p.size\n")
    (tmp_path / "demos" / "d.py").write_text("print(P().shown)\n")
    assert unread_properties(tmp_path / "lib", [tmp_path / "demos"]) == [
        ("a.py", "P", "table")]
