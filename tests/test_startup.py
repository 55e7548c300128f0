"""Importing the package builds no dataclass, and imports no module, that it
does not need.

``dataclasses`` generates and compiles the methods of each decorated class
while its module is imported: about 0.5 ms a class in CPython 3.11, where a
``NamedTuple`` costs about a sixth of that and a plain class almost nothing.
Every command imports the package first, so this cost is paid by each short
CLI job. Each dataclass of the package is named here with the caller that
needs what only a dataclass gives. These tests count; they do not time.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import sw_sentinel

DATACLASSES = {
    "forensics.PercentileSummary": "bench/workloads.py passes it to dataclasses.asdict",
    "forensics.BehaviorReport": "analyze writes report.json by its dataclasses.fields, the "
                                "bench rebuilds reports by BehaviorReport(**fields), and tests "
                                "build reports by keyword and compare them by value",
}


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(target, "attr", None) or getattr(target, "id", None)) == "dataclass"


def _decorated():
    """``module.Class`` of each class in the package's source decorated with
    ``dataclass`` or ``dataclasses.dataclass``, called or not."""
    for path in sorted(Path(sw_sentinel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                yield f"{path.stem}.{node.name}"


def test_only_the_named_classes_are_dataclasses():
    assert sorted(_decorated()) == sorted(DATACLASSES)
    assert all(DATACLASSES.values())


def test_the_source_walk_sees_every_dataclass_the_modules_define():
    """No dataclass escapes the walk by another spelling, such as an alias
    of the decorator or ``make_dataclass``."""
    found = set()
    for info in pkgutil.iter_modules(sw_sentinel.__path__):
        module = importlib.import_module(f"sw_sentinel.{info.name}")
        found |= {f"{info.name}.{name}" for name, value in vars(module).items()
                  if inspect.isclass(value) and value.__module__ == module.__name__
                  and dataclasses.is_dataclass(value)}
    assert found == set(_decorated())


def test_importing_the_cli_leaves_out_importlib_resources():
    """``importlib.resources`` pulls in ``tempfile``, ``shutil``, ``zipfile``,
    ``bz2``, ``lzma`` and ``random``, several ms of every command's start; the
    shipped defaults are read without it. ``-S`` keeps site packages from
    importing it first."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, sw_sentinel.cli\n"
         "sw_sentinel.cli.load_policies(None)\n"
         "print(sw_sentinel.cli.__file__)\n"
         "print('importlib.resources' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [str(src / "sw_sentinel" / "cli.py"), "False"]
