"""One set of Register rules: the engine admits a worker as the registry does.

``model.SwRegistry.admit`` holds the Register rules of the Service Workers
spec: an ``https`` origin, a script hosted on it, and one worker per (origin,
scope) that is not deregistered. ``SwRegistry.register_sw`` raises the error
it returns, and the engine admits the first event of each unknown ``sw_id``
by it: ``simulate`` suppresses a refused event, ``enforce`` notes the refusal
and judges the worker as recorded. A seeded oracle checks that the engine
refuses exactly what the registry raises on, an ``ast`` guard keeps the rules
in ``model.py``, and a count shows each admission costs one scope lookup.
"""

import ast
import json
import random
from pathlib import Path

import pytest

from sw_sentinel import model
from sw_sentinel.cli import run
from sw_sentinel.model import (DuplicateScope, InsecureOrigin, ModelError, Origin, Scope,
                               SwRegistry, SwState)
from sw_sentinel.policy import PolicyConfig, PolicyEngine, PolicySpec, Severity
from sw_sentinel.scenarios import simulate
from sw_sentinel.trace import TraceEvent, emit_trace

REFUSED = "registration_refused"
ITEM_3 = [TraceEvent(0, "register", "http://i.example", "sw-http", "/"),
          TraceEvent(1, "register", "https://d.example", "sw-d1", "/"),
          TraceEvent(2, "register", "https://d.example", "sw-d2", "/")]


def test_the_engine_refuses_the_registrations_the_model_refuses(tmp_path):
    """An ``http://`` register and a second worker at a taken scope: the
    model's registry refuses both, so ``simulate`` suppresses both and
    ``enforce`` writes a notice for each and exits 0."""
    registry = SwRegistry()

    def register(origin):
        registry.register_sw(Origin.parse(origin), Scope("/"), f"{origin}/sw.js")

    with pytest.raises(InsecureOrigin):
        register("http://i.example")
    register("https://d.example")
    with pytest.raises(DuplicateScope):
        register("https://d.example")
    assert simulate(ITEM_3).suppressed_events == [ITEM_3[0], ITEM_3[2]]
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(emit_trace(ITEM_3)) + "\n", encoding="utf-8")
    assert run(["enforce", "--trace", str(trace), "--out", str(tmp_path / "out")]) == 0
    rows = [json.loads(line) for line in
            (tmp_path / "out" / "notices.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(row["sw_id"], row["kind"]) for row in rows] == [("sw-http", REFUSED),
                                                             ("sw-d2", REFUSED)]


def _random_trace(rng):
    """Up to 30 events of 3-6 workers over 2-3 origins, one of them
    ``http://``, and 2-3 scopes. Each worker keeps one origin and scope, and
    its first event may be a ``register`` or a mid-life push or terminate."""
    origins = ["http://h.example", "https://s0.example", "https://s1.example"]
    origins = origins[:rng.randint(2, 3)]
    scopes = ["/", "/app/", "/app/v2/"][:rng.randint(2, 3)]
    workers = [(f"sw-{i}", rng.choice(origins), rng.choice(scopes))
               for i in range(rng.randint(3, 6))]
    events = []
    for ts in range(0, 1_000 * rng.randint(3, 30), 1_000):
        sw_id, origin, scope = rng.choice(workers)
        kind = rng.choice(("register", "register", "push", "terminate"))
        payload = {"push_id": f"p{ts}"} if kind == "push" else {}
        events.append(TraceEvent(ts, kind, origin, sw_id, scope, payload))
    return events


def _registry_refusals(trace, again):
    """(index, error) for each event that ``register_sw`` raises on: every
    first sight of a worker, and with ``again`` every later event of a worker
    it refused, as ``simulate`` judges it afresh."""
    registry, admitted, refused = SwRegistry(), set(), []
    for index, event in enumerate(trace):
        if event.sw_id in admitted:
            continue
        origin = Origin.parse(event.origin)
        try:
            registry.register_sw(origin, Scope(event.scope), f"{origin}/sw.js")
        except ModelError as error:
            refused.append((index, type(error), str(error)))
            if again:
                continue
        admitted.add(event.sw_id)
    return refused


def _engine_refusals(trace, mode):
    """(index, detail) of each event the engine notes a refused registration
    for; ``simulate`` must suppress each of them."""
    engine, refused = PolicyEngine(PolicyConfig(()), "chrome", mode=mode), []
    for index, event in enumerate(trace):
        decision = engine.on_event(event)
        details = [notice.detail for notice in decision.notices if notice.kind == REFUSED]
        if details:
            assert not decision.deliver if mode == "simulate" else decision.deliver
            refused += [(index, detail) for detail in details]
    return refused


def test_the_engine_refuses_exactly_what_the_registry_raises_on():
    """With no policies nothing deregisters, so a refusal holds for the rest
    of the trace. The notices name the registry's errors by their text."""
    rng, kinds = random.Random(2700), set()
    for _ in range(400):
        trace = _random_trace(rng)
        for mode, again in (("simulate", True), ("enforce", False)):
            expected = _registry_refusals(trace, again)
            assert _engine_refusals(trace, mode) == [
                (index, text) for index, _kind, text in expected], (mode, trace)
            kinds |= {(kind, trace[index].kind) for index, kind, _text in expected}
    # Both errors the engine can meet, on a register and on a mid-life first sight.
    assert {(InsecureOrigin, "register"), (DuplicateScope, "register"),
            (InsecureOrigin, "push"), (DuplicateScope, "terminate")} <= kinds


def test_a_scope_freed_by_policy_admits_a_new_worker():
    """``simulate`` deregisters sw-1 on its second push in an hour (a high
    violation, no engagement); sw-2, refused at sw-1's scope before, is then
    admitted there."""
    config = PolicyConfig((PolicySpec("push_per_hour", Severity.HIGH, 1, 60),))
    engine = PolicyEngine(config, "chrome", mode="simulate")

    def judge(ts, kind, sw_id):
        payload = {"push_id": f"p{ts}"} if kind == "push" else {}
        event = TraceEvent(ts, kind, "https://f.example", sw_id, "/", payload)
        decision = engine.on_event(event)
        return decision.deliver, [notice.kind for notice in decision.notices]

    assert judge(0, "push", "sw-1") == (True, [])
    assert judge(100, "register", "sw-2") == (False, [REFUSED])
    assert judge(200, "push", "sw-1")[0] is False
    assert engine.record("sw-1").state is SwState.DEREGISTERED
    assert judge(300, "register", "sw-2") == (True, [])
    assert engine.record("sw-2").phase is SwState.INSTALLING


_REGISTER_ERRORS = frozenset({"InsecureOrigin", "CrossOriginScript", "DuplicateScope"})


def _register_rule_reads(path):
    """Line numbers where ``path`` reads an attribute ``is_secure`` or names
    one of the Register errors, as a name or an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and (node.attr == "is_secure" or node.attr in _REGISTER_ERRORS)
            or isinstance(node, ast.Name) and node.id in _REGISTER_ERRORS]


def test_only_the_model_judges_a_registration():
    """The package's re-export of the errors in ``__init__`` is an import,
    which names nothing the guard looks for."""
    modules = sorted(Path(model.__file__).parent.glob("*.py"))
    assert len(modules) > 2
    offenders = {path.name: lines for path in modules
                 if path.name != "model.py" and (lines := _register_rule_reads(path))}
    assert offenders == {}, "judge a registration through model.SwRegistry.admit"


def test_register_guard_sees_the_rules():
    assert _register_rule_reads(Path(model.__file__))


class _CountedScopes(dict):
    """A registry's scope table that counts the entries each read looks at."""

    looked = 0

    def get(self, key, default=None):
        self.looked += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.looked += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.looked += 1
        return super().__contains__(key)

    def __iter__(self):
        self.looked += len(self)
        return super().__iter__()

    def values(self):
        self.looked += len(self)
        return super().values()

    def items(self):
        self.looked += len(self)
        return super().items()


@pytest.mark.parametrize("workers", [100, 400])
def test_each_admission_looks_up_one_scope(workers):
    """N workers at N scopes of one origin cost N lookups in all, not a scan
    of the origin's workers per admission. The registry's own scan, which
    the counter must see, costs one read per worker."""
    engine = PolicyEngine(PolicyConfig(()), "chrome", mode="enforce")
    engine._registry._records = scopes = _CountedScopes()
    engine.run([TraceEvent(i, "register", "https://n.example", f"sw-{i}", f"/s{i}/")
                for i in range(workers)])
    assert (len(scopes), scopes.looked) == (workers, workers)
    assert len(engine._registry.records()) == workers
    assert scopes.looked == 2 * workers
