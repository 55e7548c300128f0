"""A repeated throttled background fetch is judged by one count.

``PolicyEngine.on_event`` replays the throttle of a background fetch that
repeats the event before it object for object: kind, origin, sw_id, scope
and read-only payload. The oracle is the same engine on the same events
with every payload copied into a fresh read-only mapping. No two events then
share a payload, so no repeat is replayed and every fetch takes the full
path: dispatch, the handler, ``trace.background_third_party`` and ``_count``.
Both must judge alike, on the generator traces, on seeded fleets and on
hand-made floods that meet a deadline, a stop, a bracket or a new record.
"""

import random
from types import MappingProxyType

import pytest

from sw_sentinel import policy
from sw_sentinel.model import Origin, Scope, SwRecord, SwState
from sw_sentinel.policy import (DAY_MS, PROFILES, EnforcementAction, PolicyEngine,
                                default_policies)
from sw_sentinel.scenarios import Scenario, generate
from sw_sentinel.trace import TraceEvent, new_record

from test_policy_clock import ALL_GENERATORS, CONFIGS, TIGHT, _params, merged_fleet

ORIGIN = "https://flood.example"
FETCH = MappingProxyType({"url": "https://victim.example/hit", "initiator_is_sw": True})
MODES = ("enforce", "simulate")


def event(ts, kind, payload=MappingProxyType({}), sw_id="sw-a"):
    return new_record(TraceEvent, (ts, kind, ORIGIN, sw_id, "/", payload))


def fetches(start, count, step=100, payload=FETCH):
    """``count`` background fetches from ``start`` that share one payload."""
    return [event(start + i * step, "fetch_request", payload) for i in range(count)]


def fresh_payloads(events):
    """The events, each with its payload copied into a mapping of its own."""
    return [new_record(TraceEvent, (*e[:5], MappingProxyType(dict(e.payload)))) for e in events]


@pytest.fixture
def classified(monkeypatch):
    """The ts of every fetch ``background_third_party`` classifies."""
    seen = []
    classify = policy.background_third_party

    def counted(activity, ts, payload):
        seen.append(ts)
        return classify(activity, ts, payload)

    monkeypatch.setattr(policy, "background_third_party", counted)
    return seen


def assert_judged_alike(events, config, profile, mode, classified):
    """The engine judges ``events`` as it judges them with fresh payloads; the
    number of fetches the replay spared the full path."""
    start = len(classified)
    replayed = PolicyEngine(config, profile, mode=mode).run(events)
    middle = len(classified)
    oracle = PolicyEngine(config, profile, mode=mode).run(fresh_payloads(events))
    assert replayed.actions == oracle.actions, (profile, mode)
    assert replayed == oracle, (profile, mode)
    return (len(classified) - middle) - (middle - start)


@pytest.mark.parametrize("name", ALL_GENERATORS)
def test_generator_traces_judge_as_with_fresh_payloads(name, classified):
    rng = random.Random(f"flood-replay-{name}")
    spared = 0
    for seed in range(3):
        events = generate(Scenario(name, seed, _params(name, rng)))
        for config in CONFIGS.values():
            for profile in PROFILES:
                for mode in MODES:
                    spared += assert_judged_alike(events, config, profile, mode, classified)
    if name == "ddos":  # a flood: most of its repeats are replayed
        assert spared > 100


@pytest.mark.parametrize("seed", range(4))
def test_fleets_judge_as_with_fresh_payloads(seed, classified):
    events = merged_fleet(seed, workers=5, names=ALL_GENERATORS)
    for config in CONFIGS.values():
        for profile in PROFILES:
            for mode in MODES:
                assert_judged_alike(events, config, profile, mode, classified)


def _across_deadlines():
    """A flood that runs past the exec cap and across the first virtual
    midnight, where the day budget and the clock key move."""
    return ([event(0, "page_visit"), event(DAY_MS - 200_000, "push", MappingProxyType(
        {"push_id": "p1"}))] + fetches(DAY_MS - 199_000, 1_200, step=500))


def _stop_and_wake():
    """A flood, a stop, and a flood in the next activation."""
    return ([event(0, "push", MappingProxyType({"push_id": "p1"}))] + fetches(100, 40)
            + [event(10_000, "terminate"), event(20_000, "push", MappingProxyType(
                {"push_id": "p2"}))] + fetches(20_100, 40))


def _bracket_inside():
    """A flood into which a fetch bracket opens, with repeats inside it, at
    the ts where it closes, and after it."""
    return ([event(0, "push", MappingProxyType({"push_id": "p1"}))] + fetches(100, 20)
            + [event(2_100, "fetch_event_start")] + fetches(2_100, 5, step=0)
            + fetches(2_100, 10) + [event(3_000, "fetch_event_end")]
            + fetches(3_000, 3, step=0) + fetches(3_100, 20))


def _repeat_at_bracket_end():
    """A flood whose repeats fall at the ts where a bracket closed, then past it."""
    return ([event(0, "push", MappingProxyType({"push_id": "p1"})),
             event(50, "fetch_event_start"), event(60, "fetch_event_end")]
            + fetches(60, 12, step=0) + fetches(61, 12, step=0) + fetches(62, 12))


@pytest.mark.parametrize("build", [_across_deadlines, _stop_and_wake, _bracket_inside,
                                   _repeat_at_bracket_end])
def test_hand_made_floods_judge_as_with_fresh_payloads(build, classified):
    events = build()
    for config in CONFIGS.values():
        for profile in PROFILES:
            for mode in MODES:
                assert_judged_alike(events, config, profile, mode, classified)


def _record(sw_id="sw-a"):
    return SwRecord(sw_id=sw_id, origin=Origin.parse(ORIGIN), scope=Scope("/"),
                    script_url=f"{ORIGIN}/sw.js", state=SwState.ACTIVATED)


def _stepwise(events, mode, between):
    """Each event's Decision, with ``between(engine, i)`` called after event i."""
    engine = PolicyEngine(TIGHT, "chrome", mode=mode)
    decisions = []
    for i, e in enumerate(events):
        decision = engine.on_event(e)
        decisions.append((decision.deliver, decision.actions, decision.violations,
                          decision.notices))
        between(engine, i)
    return decisions


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("sw_id", ["sw-a", "sw-b"])
def test_register_record_between_two_repeats(mode, sw_id, classified):
    """A record registered between two repeats replaces the flood's worker
    (or adds another): the next repeat is judged afresh."""
    events = [event(0, "push", MappingProxyType({"push_id": "p1"}))] + fetches(100, 30)

    def register(engine, i):
        if i == 20:
            engine.register_record(_record(sw_id))

    replayed = _stepwise(events, mode, register)
    assert replayed == _stepwise(fresh_payloads(events), mode, register)
    if sw_id == "sw-a":  # a fresh worker: the next repeat opens its activation or is refused
        assert replayed[21][1] == []
    else:  # the flood goes on, but its next repeat takes the full path
        assert classified.count(events[21].ts) == 2


@pytest.mark.parametrize("mode", MODES)
def test_an_advance_between_two_repeats_that_finds_a_worker_due(mode, classified):
    """The clock, advanced between two repeats, stops the flood's worker at
    its exec cap in the closed loop: the next repeat is judged afresh."""
    events = [event(0, "push", MappingProxyType({"push_id": "p1"}))] + fetches(100, 300, 500)

    def advance(engine, i):
        if i + 1 < len(events):
            engine.advance(events[i + 1].ts)

    replayed = _stepwise(events, mode, advance)
    assert len(classified) < len(events) // 10  # the flood's other repeats were replayed
    assert replayed == _stepwise(fresh_payloads(events), mode, advance)


@pytest.mark.parametrize("mode", MODES)
def test_a_shared_dict_payload_changed_between_two_calls_is_judged_afresh(mode):
    """The memo arms only on a read-only payload, as ``emit_trace`` reuses
    only a read-only payload's text: a dict may change between two events."""
    payload = dict(FETCH)
    engine = PolicyEngine(TIGHT, "chrome", mode=mode)
    engine.on_event(event(0, "push", MappingProxyType({"push_id": "p1"})))
    for e in fetches(100, 20, payload=payload):
        engine.on_event(e)
    throttled = engine.on_event(event(2_100, "fetch_request", payload))
    assert [a.action for a in throttled.actions] == [EnforcementAction.THROTTLE_EVENT]
    payload["url"] = f"{ORIGIN}/own.js"  # first party: no background third-party fetch
    decision = engine.on_event(event(2_200, "fetch_request", payload))
    assert decision.deliver and decision.actions == []


class FetchRecordingEngine(PolicyEngine):
    """An override of the fetch handler, which must see every fetch."""

    def _on_fetch_request(self, st, event, out):
        self.fetches.append(event.ts)
        super()._on_fetch_request(st, event, out)


@pytest.mark.parametrize("mode", MODES)
def test_an_overriding_fetch_handler_sees_every_fetch(mode):
    events = generate(Scenario("ddos", 0, {"req_per_s": 20, "burst_minutes": 2}))
    engine = FetchRecordingEngine(default_policies(), "chrome", mode=mode)
    engine.fetches = []
    result = engine.run(events)
    assert engine.fetches == [e.ts for e in events if e.kind == "fetch_request"]
    assert result == PolicyEngine(default_policies(), "chrome", mode=mode).run(events)
