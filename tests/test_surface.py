"""The package exports what its commands and studies read, and pyproject.toml
gives the package's own version."""

import ast
import re
from pathlib import Path

import darcyperturb

ROOT = Path(__file__).resolve().parent.parent


def _names_read(path: Path) -> set[str]:
    """Every name that the module at `path` reads, alone or as an attribute.
    A def or class line binds its name without reading it, and docstrings
    and comments read none."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_read_by_the_package_or_named_in_the_readme():
    modules = [p for p in Path(darcyperturb.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    read = set().union(*map(_names_read, modules))
    readme = (ROOT / "README.md").read_text()
    unread = [name for name in darcyperturb.__all__
              if name not in read and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unread == []


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib, which Python 3.10 lacks
    match = re.search(r'^version\s*=\s*"([^"]+)"', (ROOT / "pyproject.toml").read_text(), flags=re.MULTILINE)
    assert match is not None and match.group(1) == darcyperturb.__version__
