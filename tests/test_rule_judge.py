"""A brute-force judge for ``enforce`` runs.

The open loop applies no decision, so every rule's verdicts are a pure
function of the whole trace. ``judge`` recounts each rule from scratch:
pushes per window slot counted from the trace's first ts, same-tag
replacements per (tag, slot), background third-party fetches per
activation, every programmatic close faster than the visibility floor, and
execution per activation and per virtual day over activations rebuilt from
the trace (a stopped worker wakes on ``trace.is_activity``, which
``test_lifecycle`` pins to the engine kind by kind). It then replays the
severity ladder over each worker's violations in the order the engine meets
them. On seeded random fleets from the real generators, and on seeded
traces whose events fall on each rule's boundaries, ``PolicyEngine(mode=
"enforce")`` must report the same violation rows and the same rule-driven
actions under every profile (differential testing: McKeeman, Digital Tech.
J. 10(1), 1998).
"""

import random
from collections import Counter

import pytest

from sw_sentinel.domains import registrable_domain, url_registrable_domain
from sw_sentinel.model import Origin
from sw_sentinel.policy import (
    DAY_MS,
    PROFILES,
    PROMOTE_AFTER,
    TICK_MS,
    EngagementScore,
    PolicyEngine,
    Severity,
    load_policies,
)
from sw_sentinel.trace import TraceEvent, is_activity

from test_policy_clock import ALL_GENERATORS, CONFIGS, merged_fleet

RULE_NAMES = ("push_per_hour", "tag_reuse", "bg_fetch_per_activation",
              "notif_min_visible", "exec_per_activation", "exec_per_day")
CLOCK, EVENT = 0, 1  # at one ts, clock crossings fire before the event's own rules


def _activations(events):
    """Per event index, the activation number of its worker just after the
    event's wake (0: not yet woken); per worker, its activations as
    (start, end), the last one right-censored at the end of the trace."""
    number, running, spans, act_of = {}, {}, {}, []
    for event in events:
        sw = event.sw_id
        if sw is not None:
            if sw not in running and is_activity(event):
                number[sw] = number.get(sw, 0) + 1
                running[sw] = event.ts
            elif sw in running and event.kind == "terminate":
                spans.setdefault(sw, []).append((running.pop(sw), event.ts))
        act_of.append(number.get(sw, 0))
    for sw, start in running.items():
        spans.setdefault(sw, []).append((start, events[-1].ts))
    return act_of, spans


def _first_tick_after(t0, ts):
    return t0 + ((ts - t0) // TICK_MS + 1) * TICK_MS


def _event_rules(events, config, act_of):
    """(order key, policy, sw_id, ts, observed, threshold) for the rules an
    event triggers, plus the throttled (ts, sw_id, policy)."""
    t0 = events[0].ts
    found, throttled = [], []
    counts, reported = Counter(), set()
    visible = {}  # (sw_id, notif_id) -> (shown ts, tag)
    depth = Counter()
    closed_at = {}  # sw_id -> (ts, activation) of the end that closed its brackets
    first_party = {}
    spec = config.get

    def count(policy, key, event, index):
        counts[policy, key] += 1
        observed = counts[policy, key]
        if observed <= spec(policy).threshold:
            return False
        if (policy, key) not in reported:
            reported.add((policy, key))
            found.append(((event.ts, EVENT, index), policy, event.sw_id, event.ts,
                          observed, spec(policy).threshold))
        return True

    for index, event in enumerate(events):
        sw, kind = event.sw_id, event.kind
        if sw is None:
            continue
        first_party.setdefault(sw, registrable_domain(Origin.parse(event.origin).host))
        if kind == "push" and spec("push_per_hour") and event.origin not in config.allow_list:
            slot = (event.ts - t0) // (spec("push_per_hour").duration_in_minutes * 60_000)
            if count("push_per_hour", (sw, slot), event, index):
                throttled.append((event.ts, sw, "push_per_hour"))
        elif kind == "fetch_event_start":
            depth[sw] += 1
        elif kind == "fetch_event_end":
            depth[sw] -= 1
            if depth[sw] == 0:
                closed_at[sw] = (event.ts, act_of[index])
        elif kind == "fetch_request" and event.get("initiator_is_sw"):
            foreground = depth[sw] > 0 or closed_at.get(sw) == (event.ts, act_of[index])
            third_party = url_registrable_domain(event.get("url", "")) != first_party[sw]
            if not foreground and third_party and spec("bg_fetch_per_activation"):
                if count("bg_fetch_per_activation", (sw, act_of[index]), event, index):
                    throttled.append((event.ts, sw, "bg_fetch_per_activation"))
        elif kind == "notification_show":
            tag = event.get("tag")
            replaced = [key for key, (_ts, seen) in visible.items()
                        if key[0] == sw and tag is not None and seen == tag]
            for key in replaced:
                del visible[key]
            if replaced and spec("tag_reuse"):
                slot = (event.ts - t0) // (spec("tag_reuse").duration_in_minutes * 60_000)
                count("tag_reuse", (sw, tag, slot), event, index)
            visible[sw, event.get("notif_id", "")] = (event.ts, tag)
        elif kind in ("notification_click", "notification_close"):
            shown = visible.pop((sw, event.get("notif_id", "")), None)
            floor = spec("notif_min_visible")
            if (kind == "notification_close" and shown is not None and floor
                    and not event.get("by_user", False)):
                delta_s = (event.ts - shown[0]) / 1_000
                if delta_s < floor.threshold:
                    found.append(((event.ts, EVENT, index), "notif_min_visible", sw,
                                  event.ts, delta_s, floor.threshold))
    return found, throttled


def _clock_rules(events, config, spans):
    """Execution caps: the first 1 s tick past the cap, within the
    activation (or the virtual day) it caps, once per activation (day)."""
    t0 = events[0].ts
    found = []
    per_act, per_day = config.get("exec_per_activation"), config.get("exec_per_day")
    for sw, acts in spans.items():
        if per_act:
            for start, end in acts:
                tick = _first_tick_after(t0, start + int(per_act.threshold * 60_000))
                if tick <= end:
                    found.append(((tick, CLOCK, "exec_per_activation"), "exec_per_activation",
                                  sw, tick, (tick - start) / 60_000, per_act.threshold))
        if not per_day:
            continue
        budget = int(per_day.threshold * 60_000)
        last_day = (acts[-1][1] - t0) // DAY_MS
        for day in range(last_day + 1):
            day_start = t0 + day * DAY_MS
            done = 0  # ms run on this day by the worker's earlier activations
            for start, end in acts:
                live = max(start, day_start)
                if live <= end and (start - t0) // DAY_MS <= day:
                    tick = _first_tick_after(t0, live + max(budget - done, 0))
                    if tick <= min(end, day_start + DAY_MS):
                        found.append(((tick, CLOCK, "exec_per_day"), "exec_per_day", sw, tick,
                                      (done + tick - live) / 60_000, per_day.threshold))
                        break
                done += max(0, min(end, day_start + DAY_MS) - live)
    return found


def _engagement(events, origin, before):
    """The origin's engagement after the page visits that precede ``before``."""
    score = EngagementScore()
    for index, event in enumerate(events):
        if (event.ts, EVENT, index) >= before:
            break
        if event.kind == "page_visit" and str(Origin.parse(event.origin)) == origin:
            score.visit(event.ts)
    return score.value_at(before[0])


def _ladder_actions(events, config, violations):
    """Replay each worker's severity ladder over its violations in order."""
    t0 = events[0].ts
    origin_of = {}
    for event in events:
        if event.sw_id is not None:
            origin_of.setdefault(event.sw_id, str(Origin.parse(event.origin)))
    actions = []
    ladder = {}  # sw_id -> (day, lows, mediums)
    for order, policy, sw, ts, _observed, _threshold in sorted(
            violations, key=lambda row: (row[2], row[0])):
        day, lows, mediums = ladder.get(sw, (None, 0, 0))
        if day != (ts - t0) // DAY_MS:
            day, lows, mediums = (ts - t0) // DAY_MS, 0, 0
        severity = config.get(policy).severity
        if severity is Severity.LOW:
            lows += 1
            if lows >= PROMOTE_AFTER:
                lows, severity = 0, Severity.MEDIUM
        if severity is Severity.MEDIUM:
            mediums += 1
            if mediums >= PROMOTE_AFTER:
                mediums, severity = 0, Severity.HIGH
        ladder[sw] = (day, lows, mediums)
        if severity is Severity.LOW:
            steps = ["log_only"]
        elif (severity is Severity.HIGH and _engagement(events, origin_of[sw], order)
              < config.deregister_engagement_threshold):
            steps = ["terminate_sw", "deregister_sw"]
        else:
            steps = ["terminate_sw"]
        if policy.startswith("exec_per_") and "terminate_sw" not in steps:
            steps.append("terminate_sw")  # execution caps always stop the worker
        actions.extend((ts, sw, step, policy) for step in steps)
    return actions


def judge(events, config):
    """Expected violation rows and rule-driven actions of an enforce run."""
    act_of, spans = _activations(events)
    found, throttled = _event_rules(events, config, act_of)
    found += _clock_rules(events, config, spans)
    actions = [(ts, sw, "throttle_event", policy) for ts, sw, policy in throttled]
    actions += _ladder_actions(events, config, found)
    return sorted(row[1:] for row in found), sorted(actions)


def engine_verdicts(events, config, profile):
    run = PolicyEngine(config, profile, mode="enforce").run(events)
    violations = sorted((v.policy_name, v.sw_id, v.ts, v.observed, v.threshold)
                        for v in run.violations)
    actions = sorted((a.ts, a.sw_id, a.action.value, a.reason) for a in run.actions
                     if a.reason in RULE_NAMES)
    return violations, actions


def _fleet(seed):
    return merged_fleet(seed, workers=random.Random(seed).randint(3, 6), names=ALL_GENERATORS)


SEEDS = range(10)


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_the_judge(seed):
    events = _fleet(seed)
    for config_name, config in CONFIGS.items():
        expected = judge(events, config)
        for profile in PROFILES:
            assert engine_verdicts(events, config, profile) == expected, (config_name, profile)


# Small thresholds and one-minute windows, so that short traces reach them.
EDGE = load_policies("""[
  {"name": "push_per_hour", "severity": "low", "threshold": 2, "duration_in_minutes": 1},
  {"name": "exec_per_activation", "severity": "medium", "threshold": 1, "duration_in_minutes": 0},
  {"name": "exec_per_day", "severity": "low", "threshold": 2, "duration_in_minutes": 1440},
  {"name": "bg_fetch_per_activation", "severity": "low", "threshold": 1, "duration_in_minutes": 0},
  {"name": "notif_min_visible", "severity": "low", "threshold": 30, "duration_in_minutes": 0},
  {"name": "tag_reuse", "severity": "low", "threshold": 1, "duration_in_minutes": 1}
]""")
EDGE_KINDS = ("sync", "push", "push", "terminate", "terminate", "fetch_event_start",
              "fetch_event_end", "fetch_request", "fetch_request", "notification_show",
              "notification_show", "notification_close", "notification_click")
# Gaps on and off the 1 s tick grid, at the distances where EDGE's
# comparisons flip (a 30 s close, a 1 min activation and its 61 s crossing).
EDGE_STEPS = (0, 0, 500, 1_000, 1_000, 29_000, 30_000, 31_000, 60_000, 61_000)


def _edge_trace(seed):
    """Two workers whose events fall on the boundaries of every rule: same-ts
    fetches and bracket ends, first- and third-party fetches, tags reused
    across window slots, and now and then a jump to just before midnight."""
    rng = random.Random(seed)
    origins = {"sw-a": "https://a.example", "sw-b": "https://b.example"}
    events = [TraceEvent(ts=0, kind="page_visit", origin=origins["sw-a"])]
    ts, depth = 0, Counter()
    for _ in range(rng.randint(10, 60)):
        ts += rng.choice(EDGE_STEPS)
        if rng.random() < 0.03:
            ts = max(ts, (ts // DAY_MS + 1) * DAY_MS - rng.choice((60_000, 120_500, 121_000)))
        sw, kind = rng.choice(sorted(origins)), rng.choice(EDGE_KINDS)
        if kind == "fetch_event_end" and depth[sw] == 0:
            kind = "fetch_event_start"
        depth[sw] += {"fetch_event_start": 1, "fetch_event_end": -1}.get(kind, 0)
        payload = {}
        if kind == "push":
            payload = {"push_id": "p"}
        elif kind == "fetch_request":
            payload = {"url": rng.choice((origins[sw] + "/x", "https://cdn.other.example/x")),
                       "initiator_is_sw": rng.random() < 0.9}
        elif kind.startswith("notification_"):
            payload = {"notif_id": f"n{rng.randrange(4)}", "title": "t",
                       "tag": rng.choice("xy"), "by_user": rng.random() < 0.3}
        events.append(TraceEvent(ts=ts, kind=kind, origin=origins[sw], sw_id=sw, scope="/",
                                 payload=payload))
        if kind == "fetch_event_end" and rng.random() < 0.5:
            # Fetches at the very ts a handler ended, perhaps after a stop.
            fetch = {"url": "https://cdn.other.example/y", "initiator_is_sw": True}
            for then, body in ([("terminate", {})] * rng.randrange(2)
                               + [("fetch_request", fetch)] * rng.randint(1, 2)):
                events.append(TraceEvent(ts=ts, kind=then, origin=origins[sw], sw_id=sw,
                                         scope="/", payload=body))
    return events


@pytest.mark.parametrize("chunk", range(4))
def test_engine_matches_the_judge_on_rule_boundaries(chunk):
    for seed in range(chunk * 100, chunk * 100 + 100):
        events = _edge_trace(seed)
        assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))
        expected = judge(events, EDGE)
        for profile in ("chrome", "edge"):
            assert engine_verdicts(events, EDGE, profile) == expected, (seed, profile)


def test_judge_sees_every_rule_and_action():
    """The agreement above is only as strong as what the fleets exercise."""
    policies, steps = set(), set()
    for seed in SEEDS:
        events = _fleet(seed)
        for config in CONFIGS.values():
            violations, actions = judge(events, config)
            policies |= {row[0] for row in violations}
            steps |= {(action[2], action[3]) for action in actions}
    assert policies == set(RULE_NAMES)
    assert {("throttle_event", "push_per_hour"), ("throttle_event", "bg_fetch_per_activation"),
            ("log_only", "tag_reuse"), ("terminate_sw", "exec_per_day"),
            ("deregister_sw", "notif_min_visible")} <= steps


def test_budget_spent_in_the_last_second_before_midnight(monkeypatch):
    """The day's budget runs out 500 ms before midnight, so the crossing
    falls on the midnight tick itself. It is the day before midnight's
    violation: reported once, with that day's execution as observed."""
    config = load_policies('[{"name": "exec_per_day", "severity": "low", "threshold": 3, '
                           '"duration_in_minutes": 1440}]')
    origin = "https://a.example"
    events = [TraceEvent(ts=0, kind="page_visit", origin=origin)] + [
        TraceEvent(ts=ts, kind=kind, origin=origin, sw_id="sw-1", scope="/")
        for ts, kind in ((DAY_MS - 3 * 60_000 - 500, "sync"), (DAY_MS + 10_000, "terminate"))]
    violate, calls = PolicyEngine._violate, []

    def bounded(self, *args):
        calls.append(args)
        assert len(calls) < 20, "the crossing keeps firing"
        return violate(self, *args)

    monkeypatch.setattr(PolicyEngine, "_violate", bounded)
    expected = judge(events, config)
    assert expected[0] == [("exec_per_day", "sw-1", DAY_MS, 180_500 / 60_000, 3.0)]
    for mode in ("simulate", "enforce"):
        run = PolicyEngine(config, "chrome", mode=mode).run(events)
        assert [(v.policy_name, v.sw_id, v.ts, v.observed, v.threshold)
                for v in run.violations] == expected[0], mode
    assert engine_verdicts(events, config, "chrome") == expected
