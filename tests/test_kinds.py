"""One table of event kinds: ``trace.KINDS``.

What each of the 18 kinds means (its payload, its capability, its lifecycle
row, whether it shows the worker executing, whether it opens or closes a
fetch-handler bracket, whether it is the origin's event) has one home. These
tests guard against a module keeping its own list of kinds again, against an
engine handler for a kind the table does not know, and against an engine
that treats other kinds as the origin's than the table does.
"""

import ast
from pathlib import Path

import sw_sentinel
from sw_sentinel.policy import PolicyEngine
from sw_sentinel.trace import EVENT_KINDS, KINDS, TraceEvent

PACKAGE_DIR = Path(sw_sentinel.__file__).parent
# The model's rows are its own vocabulary (install_done, event_arrived, ...),
# a few of which share a kind's name.
EXEMPT = ("trace.py", "model.py")


def _kind_displays(path):
    """Line numbers where ``path`` holds a set, dict or tuple display of two
    or more event-kind strings."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Dict):
            items = node.keys
        elif isinstance(node, (ast.Set, ast.Tuple)):
            items = node.elts
        else:
            continue
        kinds = [item for item in items
                 if isinstance(item, ast.Constant) and item.value in EVENT_KINDS]
        if len(kinds) >= 2:
            found.append(node.lineno)
    return found


def test_only_the_kind_table_lists_event_kinds():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 2
    offenders = {
        path.name: lines for path in modules
        if path.name not in EXEMPT and (lines := _kind_displays(path))
    }
    assert offenders == {}, "read what a kind means from trace.KINDS"


def test_guard_sees_the_kind_table():
    assert _kind_displays(PACKAGE_DIR / "trace.py")


def test_every_engine_handler_is_a_row_of_kinds():
    handlers = [name for name in dir(PolicyEngine) if name.startswith("_on_")]
    assert handlers
    assert [name for name in handlers if name[4:] not in KINDS] == []


def test_the_engine_makes_no_worker_for_exactly_the_origins_kinds():
    """The engine handles the ``of_origin`` kinds before it looks at sw_id,
    as forensics does by the column."""
    values = {str: "x", int: 2, bool: True}
    for kind, row in KINDS.items():
        payload = {key: values[typ] for key, typ in row.payload}
        if kind == "fetch_request":
            payload["url"] = "https://a.example/x"
        event = TraceEvent(0, kind, "https://a.example", "s9", "/", payload)
        run = PolicyEngine(mode="simulate").run([event])
        assert ("s9" in run.final_states) is not row.of_origin, kind


def test_the_origins_kinds_go_to_the_engines_own_handlers():
    """No worker's dispatch table holds an ``of_origin`` kind, not even a
    worker restricted to some capabilities, and ``on_event`` sends each of
    them, with a sw_id or without, to the engine's handler of its name."""
    origin_kinds = {kind for kind, row in KINDS.items() if row.of_origin}
    seen = []

    def recording(self, event, out):
        seen.append(event)

    engine_cls = type("Recording", (PolicyEngine,),
                      {"_on_" + kind: recording for kind in origin_kinds})
    engine = engine_cls(mode="enforce")
    origin = "https://a.example"
    events = [TraceEvent(0, "register", origin, "s1", "/"),
              TraceEvent(0, "register", origin, "s2", "/", {"capabilities": ["push"]})]
    offered = [TraceEvent(1, kind, origin, sw_id, sw_id and "/", {"permission": "push"})
               for kind in sorted(origin_kinds) for sw_id in ("s1", None)]
    engine.run(events + offered)
    assert seen == offered
    assert sorted(engine.states()) == ["s1", "s2"]
    for sw_id in ("s1", "s2"):
        assert origin_kinds.isdisjoint(engine._states[sw_id].handlers), sw_id
