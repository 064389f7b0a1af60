"""Every named definition in the package is used somewhere: a module-level
function or class, or a method that is not a dunder, whose name no code in
src/, tests/, perfbench/ or pyproject.toml mentions is dead code.

A mention is a Name, an Attribute, an import alias, or an identifier inside
a string that is not a docstring (perfbench names what it traces by string).
Comments and docstrings do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "newtongraph"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
# a basic TOML string, as pyproject.toml writes its entry points
TOML_STRING = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


def _mentions(tree: ast.Module) -> set[str]:
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.update(IDENTIFIER.findall(node.value))
    return names


def all_mentions() -> set[str]:
    names = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            names |= _mentions(ast.parse(path.read_text(), str(path)))
    for text in TOML_STRING.findall((ROOT / "pyproject.toml").read_text()):
        names.update(IDENTIFIER.findall(text))
    return names


def package_definitions():
    """(qualified name, name) of every module-level function and class of the
    package and every method that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, defs)
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                    ):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


class TestNoDeadDefinitions:
    def test_every_definition_is_mentioned(self):
        mentioned = all_mentions()
        definitions = list(package_definitions())
        assert len(definitions) > 100
        unused = [qualified for qualified, name in definitions if name not in mentioned]
        assert unused == []

    def test_docstrings_and_comments_do_not_count(self):
        tree = ast.parse(
            '"""module_doc"""\n'
            "def f():\n"
            '    """function_doc"""\n'
            "    return g.attr_use  # comment_use\n"
            'SPANS = ("string_use.dotted_use",)\n'
        )
        found = _mentions(tree)
        assert {"g", "attr_use", "string_use", "dotted_use"} <= found
        assert not found & {"module_doc", "function_doc", "comment_use"}
