"""No poselift module imports a name that it never uses, anything but the
standard library, numpy and its own modules, or a module above its layer;
and the package holds only what the pipeline, the CLI and the bench read."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import poselift

PACKAGE = Path(poselift.__file__).parent

# imported only so that bench/spans.py can wrap them under these names; each
# entry goes once the bench stops naming it
BENCH_PINNED = {"cli.generate_frames", "inference.normalize_pose"}

# the bench's own code, its smoke tests left out
BENCH = [
    path
    for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    if not path.name.startswith("test_")
]

# the poselift modules that each module may import: the synthetic data sits
# beside the file formats, on the heat maps and geometry, below the pipeline
ALLOWED_IMPORTS = {
    "__init__": set(),
    "geometry": set(),
    "heatmaps": {"geometry"},
    "nbest": {"geometry"},
    "fileio": {"geometry", "heatmaps"},
    "synth": {"geometry", "heatmaps"},
    "lifter": {"fileio", "geometry"},
    "inference": {"geometry", "heatmaps", "lifter", "nbest"},
    "cli": {"fileio", "geometry", "inference", "lifter", "synth"},
}

DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


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


def package_imports(path):
    """The poselift modules that the module at `path` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import fileio
                found.update(a.name for a in node.names)
    return found


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, node) of each module-level function, class and constant, and
    of each non-dunder method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not is_dunder(item.name):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not is_dunder(name.id):
                        yield name.id, node


def reads(node):
    """How often each name is read under `node`: as a variable, as an
    attribute, or as a part of a dotted string, the form in which
    bench/spans.py names what it wraps."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and DOTTED_NAME.fullmatch(sub.value)
        ):
            found.update(sub.value.split("."))
    return found


def test_package_keeps_only_what_runs():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*sorted(PACKAGE.glob("*.py")), *BENCH]
    }
    read = sum((reads(tree) for tree in trees.values()), Counter())
    unread = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in definitions(trees[path])
        if read[name] - reads(node)[name] <= 0
    }
    assert not unread


def test_modules_import_only_their_layers():
    found = {path.stem: package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert set(found) == set(ALLOWED_IMPORTS)
    above = {
        f"{module}: {name}"
        for module, names in found.items()
        for name in names - ALLOWED_IMPORTS[module]
    }
    assert not above


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
