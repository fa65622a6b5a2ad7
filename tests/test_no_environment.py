"""Guard: the package reads no environment variable.

A run's settings are its command-line flags, each with one source: no
module in ``src/cubespec`` names ``os.environ``, ``os.environb`` or
``os.getenv``, whether as an attribute, a bare name or an import.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubespec"
READERS = {"environ", "environb", "getenv", "getenvb"}


def _names(tree):
    """(line, name) for every name, attribute and imported name in a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name


def test_no_module_reads_the_environment():
    seen, found = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name in _names(tree):
            seen.add(name)
            if name in READERS:
                found.append(f"{path.relative_to(PACKAGE)}:{line}: {name}")
    assert {"argv", "stdout"} <= seen  # the scan reads attributes
    assert found == []
