"""Guard: the package imports nothing outside the standard library.

Every import statement in ``src/cubespec`` must name a module of the
standard library or of ``cubespec`` itself.  A third-party import would
add a dependency, and a large one such as numpy would also cost most of
the start-up time of a command.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubespec"


def _imports(path: Path):
    """(line, top-level module) for every import statement in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            yield node.lineno, "cubespec" if node.level else node.module.partition(".")[0]


def test_imports_are_stdlib_or_cubespec():
    seen, foreign = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, module in _imports(path):
            seen.add(module)
            if module != "cubespec" and module not in sys.stdlib_module_names:
                foreign.append(f"{path.relative_to(PACKAGE)}:{line}: {module}")
    assert {"json", "cubespec"} <= seen  # the scan reads the package
    assert foreign == []


def test_no_module_imports_dataclasses():
    # a frozen record is a NamedTuple: importing dataclasses loads inspect,
    # ast, dis and tokenize into every command's start-up
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, module in _imports(path)
        if module == "dataclasses"
    ]
    assert found == []
