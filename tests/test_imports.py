"""No poselift module imports a name that it never uses, or anything but
the standard library, numpy and its own modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import poselift

PACKAGE = Path(poselift.__file__).parent

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


def imported_packages(path):
    """The top-level packages that the module at `path` imports by absolute
    name, function-local imports included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_every_import_is_used():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unused_imports(path)
    }
    assert found == BENCH_PINNED


def test_imports_only_the_standard_library_and_numpy():
    allowed = sys.stdlib_module_names | {"numpy"}
    found = {
        f"{path.stem}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in imported_packages(path) - allowed
    }
    assert not found


# with scipy blocked: `import poselift` loads none of its modules, every
# module imports, and infer runs its NMS generator on a tiny synth set
WITHOUT_SCIPY = """
import importlib, sys
sys.modules["scipy"] = None
import poselift
print(sorted(m for m in sys.modules if m.startswith("poselift.")))
for name in sys.argv[2:]:
    importlib.import_module("poselift." + name)
from poselift.cli import main
data, model = sys.argv[1] + "/data", sys.argv[1] + "/model.bin"
for argv in (
    ["synth", "--out-dir", data, "--frames", "2", "--grid-size", "16",
     "--distractor-prob", "0.4", "--noise-floor", "0.02"],
    ["train-lifter", "--poses-2d", data + "/poses_2d.jsonl",
     "--poses-3d", data + "/poses_3d.jsonl", "--out", model,
     "--epochs", "1", "--hidden-sizes", "8"],
    ["infer", "--manifest", data + "/manifest.txt", "--model", model,
     "--camera", data + "/camera.json", "--out-dir", sys.argv[1] + "/out",
     "--num-candidates", "4", "--generator", "nms"],
):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def test_runs_without_scipy(tmp_path):
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    env = dict(os.environ)  # a fresh interpreter, this checkout
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path), *modules],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "[]"
    assert (tmp_path / "out" / "selection.jsonl").exists()
