"""Importing the package builds no dataclass that it does not need.

``dataclasses`` generates and compiles the methods of each decorated class
while its module is imported: about 0.5 ms a class in CPython 3.11, where a
``NamedTuple`` costs about a sixth of that and a plain class almost nothing.
Every command imports the package first, so this cost is paid by each short
CLI job. Each dataclass of the package is named here with the caller that
needs what only a dataclass gives. This test counts; it does not time.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
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
