"""The model holds only what a command runs.

The model is the whole package: every module of ``src/sw_sentinel``. Each
module's source is compiled and its code objects are walked through
``co_consts``, so nested defs and lambdas count, and the walk builds each
one's qualified name as it goes (``co_qualname`` exists only from Python
3.11 on, and the package supports 3.10). Every CLI command of the golden
cases, plus an ``enforce`` of a malformed trace, then runs under
``sys.setprofile``. Each def and lambda must be called, and each lifecycle
row must reach ``apply_lifecycle_event``.

A part that no command runs should become a real path or be deleted, so that
each concept keeps one definition. An entry of ``ALLOWED_UNCALLED`` is a
function that no command runs and that stays because the caller its reason
names needs it.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
import types

import sw_sentinel
from sw_sentinel import model
from sw_sentinel.cli import run

from test_golden_outputs import produce

ACCEPTANCE = "the acceptance criteria call it directly"
RANK_BANDS = "the rank-band summary: the bench and demo 05 call it (ROADMAP, Not in this round)"
ALLOWED_UNCALLED = {
    "model.SwRegistry.records": ACCEPTANCE,
    "model.SwRegistry.register_sw": ACCEPTANCE,
    "model.SwRegistry.match_scope": ACCEPTANCE,
    "model.Scope.contains": ACCEPTANCE,
    "model.Scope.__str__": ACCEPTANCE,
    "policy.PolicyEngine.register_record": ACCEPTANCE,
    "policy.PolicyEngine.record": ACCEPTANCE,
    "policy.PolicyEngine.states": ACCEPTANCE,
    "policy.PolicyEngine.window_counts": ACCEPTANCE,
    "policy.SimulationResult.running_ms": ACCEPTANCE,
    "policy.SimulationResult.max_continuous_ms": ACCEPTANCE,
    "policy.Decision.__eq__": "tests compare decisions by value",
    "policy.SimulationResult.__eq__": "tests compare a run's results by value",
    "forensics.percentile": RANK_BANDS,
    "forensics._summary": RANK_BANDS,
    "forensics.summarize": RANK_BANDS,
    "forensics.summarize.<locals>.collect": RANK_BANDS,
    "forensics.RankBand.holds": RANK_BANDS,
    "forensics.PercentileSummary.affected_sw_count_at": RANK_BANDS,
    "cli.main": "the console script: it only passes sys.argv to cli.run",
    "scenarios._admits": "it runs at import time, before any command, to build PARAM_TYPES",
}


def _modules():
    """Every module of the package by its name in it, the package's own as __init__."""
    modules = {"__init__": sw_sentinel}
    for info in pkgutil.iter_modules(sw_sentinel.__path__):
        modules[info.name] = importlib.import_module(f"{sw_sentinel.__name__}.{info.name}")
    return modules


def _walk(code, prefix=""):
    """(qualified name, code) of each def and lambda under ``code``, named as
    ``co_qualname`` names them: a function's children sit under its
    ``<locals>``, a class body's under the class. A comprehension is walked
    but is no def."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        name = prefix + const.co_name
        is_function = bool(const.co_flags & inspect.CO_OPTIMIZED)  # not a class body
        if is_function and (const.co_name == "<lambda>" or not const.co_name.startswith("<")):
            yield name, const
        yield from _walk(const, name + (".<locals>." if is_function else "."))


def _defs(module):
    """(qualified name, code) of each def and lambda in ``module``'s source."""
    with open(module.__file__, encoding="utf-8") as fh:
        source = fh.read()
    return list(_walk(compile(source, module.__file__, "exec", dont_inherit=True)))


def _key(code):
    """What tells one def from another among the codes a profile sees."""
    return code.co_filename, code.co_firstlineno, code.co_name


def test_the_walk_finds_every_def_in_the_model():
    for name, module in _modules().items():
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        walked = _defs(module)
        assert len(walked) == len(defs), name
        assert len({_key(code) for _qualname, code in walked}) == len(walked), name
        for qualname, code in walked:  # the names built are the interpreter's own
            assert getattr(code, "co_qualname", qualname) == qualname


def test_the_commands_run_every_part_of_the_model(tmp_path):
    modules = _modules()
    defs = {_key(code): f"{name}.{qualname}"
            for name, module in modules.items() for qualname, code in _defs(module)}
    files = {module.__file__ for module in modules.values()}
    apply_code = model.apply_lifecycle_event.__code__
    called, rows = set(), set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename in files:
            called.add(_key(frame.f_code))
            if frame.f_code is apply_code:
                rows.add(frame.f_locals["event_kind"])

    for module in modules.values():  # a warm cache answers without a call
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text('{"ts":0,"kind":"push"\n', encoding="utf-8")
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        produce(str(tmp_path / "golden"))
        code = run(["enforce", "--trace", str(malformed), "--out", str(tmp_path / "malformed")])
    finally:
        sys.setprofile(previous)
    assert code == 2
    assert sorted(model.LIFECYCLE_EVENTS - rows) == []
    assert all(ALLOWED_UNCALLED.values())
    uncalled = {qualname for key, qualname in defs.items() if key not in called}
    assert sorted(uncalled - ALLOWED_UNCALLED.keys()) == []
    # Every entry names a def that exists and that no command runs.
    assert sorted(ALLOWED_UNCALLED.keys() - uncalled) == []
