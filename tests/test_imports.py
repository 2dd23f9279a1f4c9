"""No poselift module imports a name that it never uses."""

import ast
from pathlib import Path

import poselift

# imported only so that bench/spans.py can wrap them under these names; each
# entry goes once the bench stops naming it
BENCH_PINNED = {"cli.generate_frames", "inference.normalize_pose"}


def unused_imports(path):
    """The names that the module at `path` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_import_is_used():
    package = Path(poselift.__file__).parent
    found = {
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for name in unused_imports(path)
    }
    assert found == BENCH_PINNED
