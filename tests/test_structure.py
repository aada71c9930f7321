"""Module boundaries in the package: a module reads only the public names of
its siblings, so a private name has one owner, the module defining it."""

import ast
import textwrap
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuxi_alpha"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(source: str) -> list[str]:
    """Each single-underscore name of a sibling module that source reads, as
    'line: module._name': `from .x import _y`, or `X._y` after
    `from . import x as X`."""
    tree = ast.parse(source)
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if _private(node.attr):
                found.append(f"{node.lineno}: {modules[node.value.id]}.{node.attr}")
    return sorted(found)


def test_no_module_reads_a_siblings_private_name():
    reads = {path.name: _private_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_check_sees_both_import_forms():
    source = textwrap.dedent(
        """
        from . import __version__
        from . import tensor as T
        from .bench import _setters, tps_benchmark
        x = T._TILE_ROWS + T.matmul + T.__name__
        self._own = 1
        """
    )
    assert _private_reads(source) == ["4: bench._setters", "5: tensor._TILE_ROWS"]
