"""The model holds only what a command runs.

Runs every CLI command of the golden cases under ``sys.setprofile`` and
checks that each lifecycle row reaches ``apply_lifecycle_event`` and that
every function or method defined in ``model.py`` is called. A part that no
command runs should become a real path or be deleted, so that the model
keeps one definition of each concept. The allow-list is the registry API
that the acceptance criteria call directly.
"""

import ast
import inspect
import sys

from sw_sentinel import model

from test_golden_outputs import produce

# Called by the acceptance criteria's registry checks, not by a command.
ALLOWED_UNCALLED = {"SwRegistry.__init__", "SwRegistry.records", "SwRegistry.register_sw",
                    "SwRegistry.match_scope", "_script_dir_scope", "Origin.is_secure",
                    "Scope.contains", "Scope.__str__"}


def _model_functions():
    """Every function and method whose code lives in model.py, by code object."""
    found = []
    for value in vars(model).values():
        members = [value]
        if inspect.isclass(value) and value.__module__ == model.__name__:
            members = list(vars(value).values())
        for member in members:
            if isinstance(member, property):
                member = member.fget
            member = inspect.unwrap(getattr(member, "__func__", member))
            code = getattr(member, "__code__", None)
            if code is not None and code.co_filename == model.__file__:
                found.append(code)
    return set(found)


def test_the_walk_finds_every_def_in_the_model():
    with open(model.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    defs = [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert len(_model_functions()) == len(defs)


def test_the_commands_run_every_part_of_the_model(tmp_path):
    apply_code = model.apply_lifecycle_event.__code__
    called, rows = set(), set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == model.__file__:
            called.add(frame.f_code)
            if frame.f_code is apply_code:
                rows.add(frame.f_locals["event_kind"])

    for value in vars(model).values():  # a warm cache answers without a call
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        produce(str(tmp_path))
    finally:
        sys.setprofile(previous)
    assert sorted(model.LIFECYCLE_EVENTS - rows) == []
    functions = _model_functions()
    assert {code.co_qualname for code in functions} >= ALLOWED_UNCALLED
    uncalled = {code.co_qualname for code in functions - called}
    assert sorted(uncalled - ALLOWED_UNCALLED) == []
