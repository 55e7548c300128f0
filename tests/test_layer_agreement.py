"""The engine and forensics agree about one trace.

Forensics is a second implementation that checks the engine: it shares
definitions with it, never state. Both keep each worker in a
``trace.Activity`` of their own, and forensics imports nothing from the
engine's module. On every generator trace and on seeded
fleets, per worker, the ``enforce`` engine's running intervals must last as
long as forensics' activations, and under the default config the engine's
push and background-fetch counters must equal forensics' hour-slot pushes
and background third-party fetches per activation.

The engine judges a fetch when it arrives, with no look at later events of
the same ts, and a wake starts a new activation there; forensics sees the
whole trace. So on hand-made traces whose worker fetch shares its ts with a
later bracket start, or with an earlier terminate, the background counts
differ (``test_same_ts_fetches_are_where_the_layers_part``). No generator
trace and no fleet below holds such a fetch.

Both layers take a worker's notifications through the one visibility rule,
``trace.Activity.show`` and ``hide``: a notification is visible from its show until a click or a
close of its ``notif_id``, or a later show with its tag. Only a programmatic
close of a visible notification counts, so on seeded random traces of shows,
clicks and closes every close the ``notif_min_visible`` rule judges is a
close delta forensics measures, with the same value, in order. A worker that
lacks the notifications capability still parts them: the engine refuses its
notification events, forensics, which knows no capabilities, folds them.

Both layers take a worker's fetch-handler brackets through the one bracket
step, ``trace.Activity.step``, so they reject the same traces for an end
with no open start, with the same message: ``enforce`` takes the step before
the capability gate, and an event with no sw_id belongs to no worker in
either layer. Only a trace that ends inside a bracket still parts them:
``analyze`` rejects it and ``enforce`` accepts it. On a trace both accept,
both see the same workers: a ``page_visit`` or ``permission_grant`` is the
origin's event, and its sw_id makes a worker in neither layer.
"""

import random

import pytest

from sw_sentinel.cli import run as cli_run
from sw_sentinel.forensics import analyze_trace
from sw_sentinel.model import Capability
from sw_sentinel.policy import (PROFILES, PolicyConfig, PolicyEngine, PolicySpec, Severity,
                                default_policies)
from sw_sentinel.scenarios import Scenario, generate
from sw_sentinel.trace import KINDS, TraceEvent, UnbalancedBrackets, emit_trace, parse_trace

from test_forensics_fold import _ev, _fetch
from test_policy_clock import ALL_GENERATORS, _params, merged_fleet


def disagreements(events, profile):
    """Per worker, each figure where the engine and forensics differ."""
    engine = PolicyEngine(default_policies(), profile, mode="enforce")
    run = engine.run(events)
    found = []
    for sw_id, report in analyze_trace(events).items():
        minutes = [(end - start) / 60_000 for start, end in run.running_intervals[sw_id]]
        if minutes != report.exec_minutes_per_activation:
            found.append((sw_id, "exec_minutes_per_activation", minutes,
                          report.exec_minutes_per_activation))
        # the engine keys pushes by hour slot and fetches by activation number
        for policy, series, first in (
                ("push_per_hour", report.pushes_per_hour_slots, 0),
                ("bg_fetch_per_activation", report.bg_third_party_fetches_per_activation, 1)):
            counted = {key: n for key, n in enumerate(series, start=first) if n}
            if engine.window_counts(sw_id, policy) != counted:
                found.append((sw_id, policy, engine.window_counts(sw_id, policy), counted))
    return found


@pytest.mark.parametrize("name", ALL_GENERATORS)
def test_engine_and_forensics_agree_on_generator_traces(name):
    rng = random.Random(name)
    for seed in range(3):
        events = generate(Scenario(name, seed, _params(name, rng)))
        for profile in PROFILES:
            assert disagreements(events, profile) == [], (seed, profile)


@pytest.mark.parametrize("seed", range(8))
def test_engine_and_forensics_agree_on_seeded_fleets(seed):
    events = merged_fleet(seed, workers=random.Random(seed).randint(3, 8), names=ALL_GENERATORS)
    for profile in PROFILES:
        assert disagreements(events, profile) == [], profile


def test_agreement_covers_both_counters():
    """The equivalence is only as strong as what the traces count."""
    rng = random.Random("cover")
    pushes = fetches = 0
    for name in ALL_GENERATORS:
        for report in analyze_trace(generate(Scenario(name, 0, _params(name, rng)))).values():
            pushes += sum(report.pushes_per_hour_slots)
            fetches += sum(report.bg_third_party_fetches_per_activation)
    assert pushes > 20 and fetches > 20


@pytest.mark.parametrize("events,engine_counts,forensics_counts", [
    # a fetch, then a bracket start at its ts: background when the engine
    # judges it, inside the bracket for forensics
    ([_ev(0, "sync"), _fetch(10), _ev(10, "fetch_event_start"), _ev(20, "fetch_event_end")],
     {1: 1}, [0]),
    # a terminate, then a fetch at its ts: the engine wakes a second
    # activation; forensics counts the fetch toward the one that just ended
    ([_ev(0, "sync"), _ev(10, "terminate"), _fetch(10), _fetch(20)], {2: 2}, [1, 1]),
    # a bracket end, a terminate, a fetch at one ts: the wake forgets the
    # bracket's end, forensics keeps it
    ([_ev(0, "fetch_event_start"), _ev(10, "fetch_event_end"), _ev(10, "terminate"),
      _fetch(10)], {2: 1}, [0, 0]),
])
def test_same_ts_fetches_are_where_the_layers_part(events, engine_counts, forensics_counts):
    engine = PolicyEngine(default_policies(), "chrome", mode="enforce")
    engine.run(events)
    assert engine.window_counts("sw-a", "bg_fetch_per_activation") == engine_counts
    report = analyze_trace(events)["sw-a"]
    assert report.bg_third_party_fetches_per_activation == forensics_counts


# -- close deltas -------------------------------------------------------------

# Every programmatic close of a visible notification is a violation of it.
JUDGE_EVERY_CLOSE = PolicyConfig((PolicySpec("notif_min_visible", Severity.LOW, 1e12, 0),))
NOTIFICATION_KINDS = ["notification_show"] * 3 + ["notification_click"] + [
    "notification_close"] * 3 + ["push", "terminate"]


def random_notification_trace(rng):
    """1-3 workers with every capability, each showing 2-3 notif_ids, some
    tagged from a pool of two tags, then clicking and closing them by user
    or not, among pushes and terminates; events crowd onto few timestamps."""
    workers = rng.sample(["s1", "s2", "s3"], rng.randint(1, 3))
    ids = {sw_id: [f"{sw_id}-n{i}" for i in range(rng.randint(2, 3))] for sw_id in workers}
    events, ts = [], 0
    for _ in range(rng.randint(1, 40)):
        ts += rng.choice([0, 1, 250, 5_000])
        sw_id = rng.choice(workers)
        kind = rng.choice(NOTIFICATION_KINDS)
        payload = {"notif_id": rng.choice(ids[sw_id])}
        if kind == "notification_show":
            payload["title"] = "t"
            if rng.random() < 0.5:
                payload["tag"] = rng.choice(["a", "b"])
        elif kind == "notification_close":
            payload["by_user"] = rng.random() < 0.3
        elif kind == "push":
            payload = {"push_id": f"p{len(events)}"}
        elif kind == "terminate":
            payload = {}
        events.append(TraceEvent(ts, kind, f"https://{sw_id}.example", sw_id, "/", payload))
    return parse_trace(emit_trace(events))


def close_delta_disagreements(events):
    """Per worker, the values the engine judges and the close deltas
    forensics measures, where they differ."""
    run = PolicyEngine(JUDGE_EVERY_CLOSE, "chrome", mode="enforce").run(events)
    judged = {}
    for violation in run.violations:
        judged.setdefault(violation.sw_id, []).append(violation.observed)
    return [(sw_id, judged.get(sw_id, []), report.notification_close_deltas_s)
            for sw_id, report in analyze_trace(events).items()
            if judged.get(sw_id, []) != report.notification_close_deltas_s]


def test_enforce_judges_every_close_delta_analyze_measures():
    """On seeded random traces the engine judges exactly the closes whose
    deltas forensics measures. The traces hold the closes the rule leaves
    out although their notif_id was shown before: after a click, a tag
    replacement, a close or a user close."""
    rng = random.Random(25)
    measured = left_out = 0
    for _ in range(1_500):
        events = random_notification_trace(rng)
        assert close_delta_disagreements(events) == [], events
        measured += sum(len(r.notification_close_deltas_s)
                        for r in analyze_trace(events).values())
        for index, event in enumerate(events):
            if event.kind == "notification_close" and not event.get("by_user"):
                left_out += any(e.kind == "notification_show" and e.get("notif_id")
                                == event.get("notif_id") for e in events[:index])
    left_out -= measured
    assert measured > 1_000 and left_out > 1_000, (measured, left_out)


# -- which traces the layers accept ------------------------------------------

TRACE_ORIGINS = ("https://a.example", "https://b.example", "https://c.example")
CAPABILITIES = sorted(cap.value for cap in Capability)
UNMATCHED_END = "has no open start"


def _payload(kind, rng):
    """A payload that passes the reader's checks for ``kind``."""
    if kind == "fetch_request":
        return {"url": rng.choice(["https://victim.example/x", "https://a.example/own"]),
                "initiator_is_sw": rng.random() < 0.7}
    if kind == "register" and rng.random() < 0.3:
        return {"capabilities": rng.sample(CAPABILITIES, rng.randint(0, 3))}
    values = {str: "x", int: 2, bool: True}
    return {key: values[typ] for key, typ in KINDS[kind].payload}


def random_kinds_trace(rng):
    """1-25 well-formed events of every kind for two workers on three
    origins: a register carries ``capabilities`` now and then, and a bracket
    event names no worker now and then."""
    events, ts = [], 0
    for _ in range(rng.randint(1, 25)):
        ts += rng.choice([0, 1, 1_000, 60_000])
        kind = rng.choice(sorted(KINDS))
        sw_id = rng.choice(["s1", "s2"])
        if KINDS[kind].bracket and rng.random() < 0.15:
            sw_id = None
        events.append(TraceEvent(ts, kind, rng.choice(TRACE_ORIGINS), sw_id, "/",
                                 _payload(kind, rng)))
    return parse_trace(emit_trace(events))


def _error(judge, events):
    """The message of the UnbalancedBrackets ``judge`` raises, or None."""
    try:
        judge(events)
    except UnbalancedBrackets as exc:
        return str(exc)
    return None


def _enforce(events):
    return PolicyEngine(default_policies(), "chrome", mode="enforce").run(events)


def _gated_end(events, message):
    """Whether the unmatched end of ``message`` comes from a worker whose
    capabilities lack fetch_intercept."""
    first = {}
    for event in events:
        first.setdefault(event.sw_id, event)
    return any(f"for {sw_id!r} {UNMATCHED_END}" in message
               and "fetch_intercept" not in event.get("capabilities", ["fetch_intercept"])
               for sw_id, event in first.items())


def test_enforce_rejects_an_unmatched_end_exactly_when_analyze_does():
    """``enforce`` raises UnbalancedBrackets, with the same message, exactly
    when ``analyze`` raises it for an end with no open start; a trace that
    only ends inside a bracket is the one disagreement left. The closed
    loop refuses such an end and never raises. On a trace both accept, both
    see the same workers."""
    rng = random.Random(11)
    seen = dict.fromkeys(["both accept", "both reject", "left open", "gated end",
                          "accepted bracket with no sw_id"], 0)
    for _ in range(3_000):
        events = random_kinds_trace(rng)
        analyzed, enforced = _error(analyze_trace, events), _error(_enforce, events)
        if analyzed is not None and UNMATCHED_END not in analyzed:
            assert enforced is None, events
            seen["left open"] += 1
            continue
        assert enforced == analyzed, events
        PolicyEngine(default_policies(), "chrome", mode="simulate").run(events)
        if analyzed is None:
            assert set(analyze_trace(events)) == set(_enforce(events).final_states), events
            seen["both accept"] += 1
            seen["accepted bracket with no sw_id"] += any(
                KINDS[e.kind].bracket and e.sw_id is None for e in events)
        else:
            seen["both reject"] += 1
            seen["gated end"] += _gated_end(events, analyzed)
    assert min(seen.values()) >= 10, seen
    assert min(seen["both accept"], seen["both reject"], seen["left open"]) > 300, seen


REGISTER_PUSH_ONLY = TraceEvent(0, "register", "https://a.example", "s1", "/",
                                {"capabilities": ["push"]})
END = TraceEvent(1, "fetch_event_end", "https://a.example", "s1", "/")


@pytest.mark.parametrize("events,error", [
    # a worker lacking fetch_intercept: the bracket step comes before the gate
    ([REGISTER_PUSH_ONLY, END], "fetch_event_end at ts 1 for 's1' has no open start"),
    # an event with no sw_id belongs to no worker, nor do its brackets
    ([END._replace(ts=0, sw_id=None, scope=None)], None),
    ([END._replace(ts=0, kind="fetch_event_start", sw_id=None, scope=None),
      END._replace(sw_id=None, scope=None)], None),
], ids=["gated_unmatched_end", "end_with_no_sw_id", "pair_with_no_sw_id"])
def test_both_commands_judge_the_brackets_alike(tmp_path, capsys, events, error):
    events = parse_trace(emit_trace(events))
    assert _error(analyze_trace, events) == _error(_enforce, events) == error
    trace = tmp_path / "t.jsonl"
    trace.write_text("".join(line + "\n" for line in emit_trace(events)), "utf-8")
    for command in ("enforce", "analyze"):
        code = cli_run([command, "--trace", str(trace), "--out", str(tmp_path / command)])
        assert code == (0 if error is None else 2), command
    if error is not None:
        assert capsys.readouterr().err.count(error) == 2


@pytest.mark.parametrize("events", [
    [TraceEvent(0, "page_visit", "https://a.example", "s9", "/")],
    [TraceEvent(0, "permission_grant", "https://a.example", "s9", "/",
                {"permission": "notifications"})],
], ids=["page_visit", "permission_grant"])
def test_the_origins_events_make_no_worker_in_either_layer(events):
    events = parse_trace(emit_trace(events))
    assert analyze_trace(events) == {} and _enforce(events).final_states == {}
