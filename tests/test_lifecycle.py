"""One lifecycle: worker state changes only in ``model.apply_lifecycle_event``.

The engine wakes and stops workers through that state machine, so
"running" has one definition: the record's process is RUNNING. These tests
check that a stopped worker wakes on exactly the events ``trace.KINDS``
marks as activity, which forensics counts too, and guard against code outside ``model.py`` assigning a
``state``, ``phase`` or ``process`` attribute.
"""

import ast
from pathlib import Path

import pytest

import sw_sentinel
from sw_sentinel.model import SwState
from sw_sentinel.policy import PolicyEngine, default_policies
from sw_sentinel.trace import EVENT_KINDS, TraceEvent, emit_trace, is_activity, parse_trace

ORIGIN = "https://p.example"
LIFECYCLE_FIELDS = ("state", "phase", "process")
PACKAGE_DIR = Path(sw_sentinel.__file__).parent

# The smallest payload each kind needs to pass ``parse_trace``.
PAYLOADS = {
    "push": {"push_id": "p1"},
    "fetch_request": {"url": "https://cdn.other.example/x.js", "initiator_is_sw": True},
    "notification_show": {"notif_id": "n1", "title": "t"},
    "notification_close": {"notif_id": "n1"},
    "notification_click": {"notif_id": "n1"},
    "permission_grant": {"permission": "notifications"},
    "update_found": {"version": 2},
    "code_tampered": {"source": "https://p.example/sw.js"},
}

PROBES = [pytest.param(kind, PAYLOADS.get(kind, {}), id=kind) for kind in sorted(EVENT_KINDS)]
PROBES.append(pytest.param(
    "fetch_request", {"url": "https://cdn.other.example/x.js", "initiator_is_sw": False},
    id="fetch_request_by_page",
))


def _event(ts, kind, payload=None):
    return TraceEvent(ts=ts, kind=kind, origin=ORIGIN, sw_id="sw-1", scope="/",
                      payload=payload or {})


@pytest.mark.parametrize("kind,payload", PROBES)
def test_stopped_worker_wakes_exactly_on_activity(kind, payload):
    events = [_event(1_000, "sync")]
    if kind == "fetch_event_end":
        events.append(_event(1_500, "fetch_event_start"))  # the end closes it
    events += [_event(2_000, "terminate"), _event(3_000, kind, payload)]
    events = parse_trace(emit_trace(events))
    engine = PolicyEngine(default_policies(), "chrome", mode="enforce")
    for event in events[:-1]:
        engine.on_event(event)
    assert engine.record("sw-1").state is SwState.TERMINATED
    probe = events[-1]
    engine.on_event(probe)
    woke = engine.record("sw-1").state is SwState.RUNNING
    assert woke == is_activity(probe)


def test_an_install_with_no_new_version_keeps_the_active_one():
    """A running worker's install or activation needs a new version as a
    stopped one's does: without one, ``simulate`` refuses it."""
    engine, phases, delivered = PolicyEngine(mode="simulate"), [], []
    for index, kind in enumerate(("sync", "install", "install", "activate")):
        delivered.append(engine.on_event(_event(1_000 * index, kind)).deliver)
        phases.append(engine.record("sw-1").phase)
    assert phases == [SwState.ACTIVATED] * 4
    assert delivered == [True, False, False, False]


def _state_assignments(path):
    """Line numbers where ``path`` assigns an attribute named ``state``,
    ``phase`` or ``process``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            arg = node.args[1]
            if (name in ("setattr", "__setattr__") and isinstance(arg, ast.Constant)
                    and arg.value in LIFECYCLE_FIELDS):
                found.append(node.lineno)
            continue
        else:
            continue
        for target in targets:
            found.extend(sub.lineno for sub in ast.walk(target)
                         if isinstance(sub, ast.Attribute) and sub.attr in LIFECYCLE_FIELDS)
    return found


def test_only_the_lifecycle_assigns_state():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 1
    offenders = {
        path.name: lines for path in modules
        if path.name != "model.py" and (lines := _state_assignments(path))
    }
    assert offenders == {}, "assign state through model.apply_lifecycle_event"


def test_guard_sees_the_lifecycle_assignments():
    assert _state_assignments(PACKAGE_DIR / "model.py")
