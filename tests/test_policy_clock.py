"""The engine clock wakes only the workers that are due.

``PolicyEngine.advance`` keeps a min-heap of wake-up times. ``ScanEngine``
below is the clock it replaced: every advance visits every worker. On seeded
random multi-worker traces both must judge alike, in both modes, under every
profile; and on a large fleet the heap must visit far fewer workers than
events × workers.
"""

import random

import pytest

from sw_sentinel.model import Origin, Scope, SwRecord, SwState
from sw_sentinel.policy import (
    DAY_MS,
    Decision,
    PROFILES,
    SILENT_PUSH_GRACE_MS,
    PolicyEngine,
    default_policies,
    load_policies,
)
from sw_sentinel.scenarios import Scenario, generate
from sw_sentinel.trace import TraceEvent

MINUTE = 60_000


class ScanEngine(PolicyEngine):
    """Oracle: the full per-event scan over every registered worker. The
    inherited handlers still fill the heap; this clock never reads it. Like
    the heap clock it fills the ``out`` it is given and sorts by ts only the
    records it appended."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # ``on_event`` advances only when the heap's head is due: a head that
        # always is makes it call this clock on every event.
        self._heap.append((float("-inf"),))

    def advance(self, now: int, out=None) -> Decision:
        if out is None:
            out = Decision(deliver=True)
        if self._t0 is None:
            return out
        mark = len(out.actions), len(out.violations), len(out.notices)
        for st in list(self._states.values()):
            self._advance_sw(st, now, out)
        for records, start in zip((out.actions, out.violations, out.notices), mark):
            records[start:] = sorted(records[start:], key=lambda record: record.ts)
        return out


TIGHT = load_policies("""[
  {"name": "push_per_hour", "severity": "low", "threshold": 3, "duration_in_minutes": 60},
  {"name": "exec_per_activation", "severity": "medium", "threshold": 1, "duration_in_minutes": 0},
  {"name": "exec_per_day", "severity": "low", "threshold": 3, "duration_in_minutes": 1440},
  {"name": "bg_fetch_per_activation", "severity": "low", "threshold": 5, "duration_in_minutes": 0},
  {"name": "notif_min_visible", "severity": "low", "threshold": 30, "duration_in_minutes": 0},
  {"name": "tag_reuse", "severity": "low", "threshold": 3, "duration_in_minutes": 60}
]""")
CONFIGS = {"default": default_policies(), "tight": TIGHT}


def _params(name, rng):
    """Small generator parameters: a few minutes of one worker."""
    minutes = rng.randint(2, 8)
    if name == "push_flood":
        return {"pushes_per_hour": rng.randint(20, 90), "silent": rng.random() < 0.5,
                "renew_after": rng.choice([None, 2, 4]), "duration_ms": minutes * MINUTE}
    if name == "ddos":
        return {"req_per_s": 1, "burst_minutes": rng.randint(1, 3)}
    if name == "tag_reuser":
        return {"n_pushes": rng.randint(2, 6)}
    if name == "tracking_library":
        return {"page_visits": rng.randint(2, 8)}
    if name == "benign":
        return {"push_rate": rng.randint(2, 30), "duration_ms": minutes * MINUTE}
    return {"duration_ms": minutes * MINUTE}  # webbot, notification_hider


def _relabel(event, old_origin, origin, sw_id, offset):
    payload = event.payload
    url = payload.get("url")
    if isinstance(url, str) and url.startswith(old_origin):
        payload = {**payload, "url": origin + url[len(old_origin):]}
    return TraceEvent(ts=event.ts + offset, kind=event.kind, origin=origin,
                      sw_id=sw_id if event.sw_id is not None else None,
                      scope=event.scope, payload=payload)


def merged_fleet(seed, workers, names, near_midnight=True):
    """Merge ``workers`` generated workers in ts order. Some share an origin,
    so one permission grant renews several; with ``near_midnight`` most
    start within minutes of one of the first three virtual midnights, so
    their activations and daily budgets straddle day boundaries. Half the
    workers keep their events on the 1 s tick grid, so that events land on
    the very tick a crossing fires."""
    rng = random.Random(seed)
    # A first event at ts 0 pins the virtual clock's origin.
    merged = [(0, -1, 0, TraceEvent(ts=0, kind="page_visit", origin="https://anchor.example"))]
    for i in range(workers):
        name = rng.choice(names)
        events = generate(Scenario(name, rng.randrange(1 << 16), _params(name, rng)))
        origin = f"https://site{rng.randrange(max(1, workers - 2))}.example"
        if near_midnight and rng.random() < 0.7:
            offset = rng.randint(1, 3) * DAY_MS - rng.randint(0, 600) * 1_000
        else:
            offset = rng.randint(0, 2 * DAY_MS // 1_000 + DAY_MS // 2_000) * 1_000
        if rng.random() < 0.5:
            offset += rng.randrange(1_000)  # off the 1 s tick grid
        for seq, event in enumerate(events):
            merged.append((event.ts + offset, i, seq,
                           _relabel(event, events[0].origin, origin, f"sw{i:03d}", offset)))
    merged.sort(key=lambda item: item[:3])
    return [item[3] for item in merged]


def _judge(engine_cls, events, config, profile, mode):
    run = engine_cls(config, profile, mode=mode).run(events)
    return {
        "delivered": run.delivered_events,
        "suppressed": run.suppressed_events,
        "actions": run.actions,
        "violations": run.violations,
        "notices": run.notices,
        "states": run.final_states,
        "intervals": run.running_intervals,
    }


ALL_GENERATORS = ["benign", "ddos", "notification_hider", "push_flood",
                  "tag_reuser", "tracking_library", "webbot"]


@pytest.mark.parametrize("seed", range(12))
def test_heap_clock_judges_like_full_scan(seed):
    events = merged_fleet(seed, workers=random.Random(seed).randint(3, 6),
                          names=ALL_GENERATORS)
    assert events[-1].ts - events[0].ts >= 2 * DAY_MS - 10 * MINUTE
    for config_name, config in CONFIGS.items():
        for profile in PROFILES:
            for mode in ("simulate", "enforce"):
                expected = _judge(ScanEngine, events, config, profile, mode)
                actual = _judge(PolicyEngine, events, config, profile, mode)
                for key in expected:
                    assert actual[key] == expected[key], (config_name, profile, mode, key)


def test_deadlines_on_event_timestamps_judge_like_full_scan():
    """Silent pushes exactly one grace period apart, from two workers, so
    each grace deadline falls on the timestamp of a later event."""
    events = []
    for i in range(12):
        for sw_id, origin, lag in (("sw-a", "https://a.example", 0),
                                   ("sw-b", "https://b.example", SILENT_PUSH_GRACE_MS // 2)):
            ts = 1_000 + i * SILENT_PUSH_GRACE_MS + lag
            events.append(TraceEvent(ts=ts, kind="push", origin=origin, sw_id=sw_id,
                                     scope="/", payload={"push_id": f"p{i}"}))
            if i == 5:
                events.append(TraceEvent(ts=ts, kind="permission_grant", origin=origin,
                                         payload={"permission": "notifications"}))
    events.sort(key=lambda event: event.ts)
    for profile in PROFILES:
        for mode in ("simulate", "enforce"):
            expected = _judge(ScanEngine, events, default_policies(), profile, mode)
            assert _judge(PolicyEngine, events, default_policies(), profile, mode) == expected


def _record(sw_id, origin):
    return SwRecord(sw_id=sw_id, origin=Origin.parse(origin), scope=Scope("/"),
                    script_url=f"{origin}/sw.js", state=SwState.ACTIVATED,
                    push_subscribed=False)


def test_permission_grant_renews_its_origin_in_registration_order():
    engine = PolicyEngine(default_policies(), "chrome", mode="enforce")
    for sw_id, origin in (("sw-a", "https://x.example"), ("sw-b", "https://y.example"),
                          ("sw-c", "https://x.example"), ("sw-d", "https://y.example")):
        engine.register_record(_record(sw_id, origin))
    # A re-registration keeps its worker's place, even on another origin.
    engine.register_record(_record("sw-c", "https://y.example"))
    grant = TraceEvent(ts=1_000, kind="permission_grant", origin="https://y.example",
                       payload={"permission": "notifications"})
    renewed = [notice.sw_id for notice in engine.on_event(grant).notices]
    assert renewed == ["sw-b", "sw-c", "sw-d"]


def test_replaced_worker_leaves_no_deadline_behind():
    events = [TraceEvent(ts=1_000, kind="push", origin="https://x.example", sw_id="sw-a",
                         scope="/", payload={"push_id": "p1"})]
    done = {}
    for engine_cls in (ScanEngine, PolicyEngine):
        engine = engine_cls(default_policies(), "edge", mode="enforce")
        engine.on_event(events[0])
        engine.register_record(_record("sw-a", "https://x.example"))
        done[engine_cls] = engine.advance(1_000 + 2 * SILENT_PUSH_GRACE_MS)
    assert done[PolicyEngine] == done[ScanEngine]
    assert done[PolicyEngine].notices == []


def test_due_workers_run_in_registration_order():
    """sw-a's silent-push deadline keys it before sw-b, but both cross
    exec_per_activation on the same tick: their actions must come out in
    registration order, which a re-registration does not change."""
    by_engine = {}
    for engine_cls in (ScanEngine, PolicyEngine):
        engine = engine_cls(TIGHT, "edge", mode="enforce")
        for sw_id in ("sw-b", "sw-a", "sw-b"):
            engine.register_record(_record(sw_id, f"https://{sw_id}.example"))
        engine.on_event(TraceEvent(ts=0, kind="page_visit", origin="https://x.example"))
        engine.on_event(TraceEvent(ts=100, kind="sync", origin="https://sw-b.example",
                                   sw_id="sw-b", scope="/"))
        engine.on_event(TraceEvent(ts=200, kind="push", origin="https://sw-a.example",
                                   sw_id="sw-a", scope="/", payload={"push_id": "p1"}))
        by_engine[engine_cls] = engine.advance(2 * MINUTE).actions
    assert [(entry.ts, entry.sw_id) for entry in by_engine[ScanEngine]] == [
        (61_000, "sw-b"), (61_000, "sw-a")]
    assert by_engine[PolicyEngine] == by_engine[ScanEngine]


def test_oracle_sees_every_crossing_kind():
    """The equivalence above is only as strong as what the traces exercise:
    the tight config must reach every clock-driven decision."""
    reasons = set()
    notices = set()
    for seed in range(12):
        events = merged_fleet(seed, workers=random.Random(seed).randint(3, 6),
                              names=ALL_GENERATORS)
        for profile in ("chrome", "edge"):
            for mode in ("simulate", "enforce"):
                result = _judge(PolicyEngine, events, TIGHT, profile, mode)
                reasons |= {entry.reason for entry in result["actions"]}
                notices |= {notice.kind for notice in result["notices"]}
    assert {"exec_per_activation", "exec_per_day", "self_update_cap"} <= reasons
    assert {"default_notification", "revoke_subscription", "subscription_renewed"} <= notices


def test_advance_visits_scale_with_events_not_workers(monkeypatch):
    events = merged_fleet(1, workers=220, names=["benign", "push_flood", "tag_reuser"],
                          near_midnight=False)
    workers = {event.sw_id for event in events if event.sw_id is not None}
    assert len(workers) >= 200
    calls = 0
    advance_sw = PolicyEngine._advance_sw

    def counted(self, st, now, out):
        nonlocal calls
        calls += 1
        return advance_sw(self, st, now, out)

    monkeypatch.setattr(PolicyEngine, "_advance_sw", counted)
    PolicyEngine(default_policies(), "edge", mode="enforce").run(events)
    assert 0 < calls < len(events)


@pytest.mark.parametrize("mode", ["simulate", "enforce"])
def test_run_reaches_on_event_and_finish_through_the_instance(monkeypatch, mode):
    """``run`` calls ``on_event`` once per event and ``finish`` once, looked
    up on the instance: the clock oracles override them, and a wrapper put on
    the class, as the benchmark's tracer puts one, must see every call. The
    Decision each call returns holds that call's records alone."""
    events = merged_fleet(3, workers=5, names=ALL_GENERATORS)
    seen = {"on_event": 0, "finish": 0, "actions": 0, "violations": 0, "notices": 0,
            "refused": 0}
    on_event, finish = PolicyEngine.on_event, PolicyEngine.finish

    def tally(decision):
        for name in ("actions", "violations", "notices"):
            seen[name] += len(getattr(decision, name))
        seen["refused"] += not decision.deliver
        return decision

    def counted_on_event(self, event, out=None):
        seen["on_event"] += 1
        return tally(on_event(self, event, out))

    def counted_finish(self, end_ts, out=None):
        seen["finish"] += 1
        return tally(finish(self, end_ts, out))

    monkeypatch.setattr(PolicyEngine, "on_event", counted_on_event)
    monkeypatch.setattr(PolicyEngine, "finish", counted_finish)
    run = PolicyEngine(TIGHT, "edge", mode=mode).run(events)
    assert seen == {"on_event": len(events), "finish": 1, "actions": len(run.actions),
                    "violations": len(run.violations), "notices": len(run.notices),
                    "refused": len(run.suppressed_events)}
    assert run.actions and run.violations and run.notices
    assert (mode == "simulate") == bool(run.suppressed_events)


class _CountingSet(set):
    """A worker's ``violated`` set that counts its membership tests: the day
    scan makes one per day it visits."""

    def __init__(self):
        super().__init__()
        self.tests = 0

    def __contains__(self, key):
        self.tests += 1
        return super().__contains__(key)


class _CountingEngine(PolicyEngine):
    def _add_state(self, record):
        st = super()._add_state(record)
        st.violated = _CountingSet()
        return st


# No exec_per_activation stop, and a day's whole length as its budget: the
# closed loop keeps the worker running and no day ever crosses.
NEVER_CROSSES = load_policies(
    '[{"name": "exec_per_day", "severity": "low", "threshold": 1440,'
    ' "duration_in_minutes": 1440}]')


def _day_scan_work(mode, days):
    """Membership tests of one activation that runs for ``days`` days. In
    ``enforce`` it is a push and a terminate, and every day crosses its
    budget. In ``simulate`` a sync each day has the clock judge the
    activation again."""
    origin = "https://long.example"
    events = [TraceEvent(0, "push", origin, "sw-long", "/", {"push_id": "p1"})]
    config = default_policies()
    if mode == "simulate":
        config = NEVER_CROSSES
        events += [TraceEvent(day * DAY_MS + DAY_MS // 2, "sync", origin, "sw-long", "/")
                   for day in range(days)]
    events.append(TraceEvent(days * DAY_MS, "terminate", origin, "sw-long", "/"))
    engine = _CountingEngine(config, "chrome", mode=mode)
    run = engine.run(events)
    assert run.running_intervals["sw-long"] == [(0, days * DAY_MS)]
    if mode == "enforce":
        assert len(run.violations) == days + 1  # every day, and the activation once
    return engine._states["sw-long"].violated.tests


@pytest.mark.parametrize("mode", ["simulate", "enforce"])
def test_day_scan_work_grows_linearly_with_the_activation(mode):
    """Work is counted, not timed: when the span doubles, the day scan may do
    at most twice the work plus a constant. A scan that restarted at the
    activation's first day would grow with the square of the span."""
    work = {days: _day_scan_work(mode, days) for days in (200, 400, 800)}
    for days in (200, 400):
        assert work[2 * days] <= 2 * work[days] + 50, work
