"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a pytest FAILED line is the corresponding fail signal.
"""

import random
import time

from sw_sentinel.csp import audit_headers, check_eval, check_import
from sw_sentinel.forensics import analyze_trace, percentile
from sw_sentinel.model import Capability, Origin, Scope, SwRecord, SwState
from sw_sentinel.model import SwRegistry, check_capability
from sw_sentinel.policy import (
    DAY_MS,
    EnforcementAction,
    PolicyConfig,
    PolicyEngine,
    PolicySpec,
    REQUIRED_CAPABILITY,
    Severity,
    ViolationRecord,
    default_policies,
)
from sw_sentinel.scenarios import Scenario, generate, simulate
from sw_sentinel.trace import EVENT_KINDS, TraceEvent, emit_trace

HOUR = 3_600_000
MINUTE = 60_000
_MODULE_T0 = time.perf_counter()


def _ok(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_push_throttling():
    started = time.perf_counter()
    result = simulate(
        Scenario("push_flood", 1, {"pushes_per_hour": 50}, 3 * HOUR),
        default_policies(), "chrome",
    )
    elapsed = time.perf_counter() - started
    per_slot = {}
    for event in result.delivered_events:
        if event.kind == "push":
            per_slot[event.ts // HOUR] = per_slot.get(event.ts // HOUR, 0) + 1
    assert per_slot == {0: 14, 1: 14, 2: 14}
    push_violations = [v for v in result.violations if v.policy_name == "push_per_hour"]
    slots_with_violation = {v.ts // HOUR for v in push_violations}
    assert slots_with_violation == {0, 1, 2}
    assert elapsed < 1.0
    _ok(1, f"exactly 14 pushes delivered per slot, violation in every slot, "
           f"{elapsed * 1000:.0f} ms")


def test_criterion_02_execution_caps():
    # A worker that would stay active 22 minutes is cut at 5 min (+1 s tick).
    exec_only = PolicyConfig((PolicySpec("exec_per_activation", Severity.MEDIUM, 5, 0),))
    unmitigated = analyze_trace(generate(Scenario("webbot", 2, {}, 44 * MINUTE)))
    assert any(abs(m - 22.0) < 0.1
               for m in unmitigated["sw-webbot"].exec_minutes_per_activation)
    result = simulate(Scenario("webbot", 2, {}, 44 * MINUTE), exec_only, "firefox")
    terminations = [a for a in result.actions
                    if a.action is EnforcementAction.TERMINATE_SW]
    assert terminations
    first_interval_start = result.running_intervals["sw-webbot"][0][0]
    cut_after = terminations[0].ts - first_interval_start
    assert abs(cut_after - 5 * MINUTE) <= 1_000  # 5 min +/- one 1 s tick
    assert result.max_continuous_ms("sw-webbot") <= 5 * MINUTE + 1_000

    # The 90-minute daily budget fires on a day with >6h of attempted running.
    day_only = PolicyConfig((PolicySpec("exec_per_day", Severity.MEDIUM, 90, 1440),))
    raw_day = analyze_trace(generate(Scenario("webbot", 2, {}, 12 * HOUR)))
    assert raw_day["sw-webbot"].exec_minutes_per_day[0] > 6 * 60
    daily = simulate(Scenario("webbot", 2, {}, 12 * HOUR), day_only, "firefox")
    day_violations = [v for v in daily.violations if v.policy_name == "exec_per_day"]
    assert len(day_violations) == 1
    assert day_violations[0].observed > 90
    assert abs(day_violations[0].ts - 90 * MINUTE) <= 1_000
    assert daily.running_ms("sw-webbot") <= 91 * MINUTE
    _ok(2, "22-min activation cut at 5 min +/- 1 tick; daily 90-min budget fires")


def test_criterion_03_webbot_self_update_cap():
    duration = 10 * MINUTE
    no_policies = PolicyConfig(())
    capped = simulate(Scenario("webbot", 3, {}, duration), no_policies, "chrome")
    assert capped.max_continuous_ms("sw-webbot") <= 3 * MINUTE + 25_000
    assert any(a.reason == "self_update_cap" for a in capped.actions)

    free = simulate(Scenario("webbot", 3, {}, duration), no_policies, "firefox")
    assert free.running_ms("sw-webbot") >= duration - 26_000
    assert not free.actions
    _ok(3, "chrome profile caps the update chain at 3 min; cap-free profile runs on")


def test_criterion_04_ddos_throttling():
    started = time.perf_counter()
    result = simulate(
        Scenario("ddos", 7, {"req_per_s": 50, "burst_minutes": 30}),
        default_policies(), "chrome",
    )
    elapsed = time.perf_counter() - started
    generated_fetches = 50 * 60 * 30
    delivered = [e for e in result.delivered_events if e.kind == "fetch_request"]
    suppressed = [e for e in result.suppressed_events if e.kind == "fetch_request"]
    assert generated_fetches == 90_000
    assert len(delivered) + len(suppressed) == generated_fetches
    assert len(delivered) <= 5
    assert len(suppressed) / generated_fetches >= 0.999
    assert elapsed < 5.0
    _ok(4, f"{len(delivered)} of 90,000 background fetches delivered "
           f"({len(suppressed) / generated_fetches:.4%} suppressed), {elapsed:.2f} s")


def test_criterion_05_silent_push_profiles():
    no_policies = PolicyConfig(())
    flood = {"pushes_per_hour": 16, "silent": True}

    edge = simulate(Scenario("push_flood", 5, flood, HOUR), no_policies, "edge")
    edge_revokes = [n for n in edge.notices if n.kind == "revoke_subscription"]
    delivered_pushes = sum(1 for e in edge.delivered_events if e.kind == "push")
    assert len(edge_revokes) == 1 and delivered_pushes == 3

    firefox = simulate(Scenario("push_flood", 5, flood, HOUR), no_policies, "firefox")
    ff_revokes = [n for n in firefox.notices if n.kind == "revoke_subscription"]
    assert len(ff_revokes) == 1
    assert sum(1 for e in firefox.delivered_events if e.kind == "push") == 15

    renewing = simulate(
        Scenario("push_flood", 5, dict(flood, renew_after=10), 3 * HOUR),
        default_policies(), "firefox",
    )
    assert not [n for n in renewing.notices if n.kind == "revoke_subscription"]
    push_violations = [v for v in renewing.violations if v.policy_name == "push_per_hour"]
    assert push_violations  # the frequency policy still catches the renewal evasion
    _ok(5, "edge revokes at 3 silent pushes, firefox at 15; renewal evades revocation "
           "but not the push-frequency policy")


def test_criterion_06_severity_ladder():
    rng = random.Random(606)
    low_policies = ["push_per_hour", "bg_fetch_per_activation",
                    "notif_min_visible", "tag_reuse"]
    medium_policies = ["exec_per_activation", "exec_per_day"]
    config = default_policies()
    for _trial in range(1_000):
        engine = PolicyEngine(config, "chrome", mode="simulate")
        record = SwRecord("sw-l", Origin.parse("https://l.example"), Scope("/"),
                          "https://l.example/sw.js", state=SwState.ACTIVATED)
        engine.register_record(record)
        engine._t0 = 0
        engagement = rng.choice([0.0, 1.2, 4.9, 5.0, 7.0, 60.0])
        # No last_visit anchor: the score is held constant at decision time.
        engine.engagement_for("https://l.example").score = engagement

        lows = mediums = 0
        ts = 0
        for _ in range(rng.randint(1, 12)):
            ts += rng.randint(0, 2 * HOUR)
            if ts >= DAY_MS:
                break
            policy = rng.choice(low_policies + medium_policies)
            severity = config.get(policy).severity
            actions = engine.escalate(
                record, ViolationRecord(policy, "sw-l", ts, 100, 1)
            )
            effective = severity
            if effective is Severity.LOW:
                lows += 1
                if lows == 3:
                    lows = 0
                    effective = Severity.MEDIUM
            if effective is Severity.MEDIUM:
                mediums += 1
                if mediums == 3:
                    mediums = 0
                    effective = Severity.HIGH
            if effective is Severity.LOW:
                assert actions == (EnforcementAction.LOG_ONLY,)
            elif effective is Severity.MEDIUM:
                assert actions == (EnforcementAction.TERMINATE_SW,)
                assert record.state is not SwState.DEREGISTERED  # still registered
            else:
                assert actions[0] is EnforcementAction.TERMINATE_SW
                if engagement < 5.0:
                    assert actions == (EnforcementAction.TERMINATE_SW,
                                       EnforcementAction.DEREGISTER_SW)
                else:
                    assert EnforcementAction.DEREGISTER_SW not in actions
            if engagement >= 5.0:
                assert EnforcementAction.DEREGISTER_SW not in actions
            if EnforcementAction.DEREGISTER_SW in actions:
                break  # a deregistered worker produces no further violations
    _ok(6, "1,000 random violation sequences follow the ladder; deregistration "
           "is gated on engagement < 5.0")


def test_criterion_07_csp_defaults():
    rng = random.Random(707)
    origin = "https://site.example"
    for _ in range(500):
        host = ".".join(
            "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3))
        ) + ".example"
        same_origin = rng.random() < 0.3
        url = f"https://{'site.example' if same_origin else host}/lib.js"
        verdict = check_import(None, origin, url)
        assert verdict.allowed == (same_origin or host == "site.example")
    assert not check_eval(None).allowed

    corpus = []
    for i in range(1_000):
        headers = {"Service-Worker": "script"}
        if i < 8:
            headers["Content-Security-Policy"] = "script-src 'self'"
        elif i < 48:
            headers["Content-Security-Policy"] = "default-src 'self'"
        corpus.append((f"https://s{i}.example/sw.js", headers))
    summary = audit_headers(corpus)
    assert (summary.total, summary.with_csp, summary.with_script_src) == (1000, 48, 8)
    assert summary.csp_fraction == 0.048
    assert summary.script_src_fraction == 0.008
    _ok(7, "no-header imports deny third parties over 500 random URLs; eval denied; "
           "audit reports 4.8% / 0.8% exactly")


def _gate_probe(engine, sw_id, kind, ts):
    payloads = {
        "push": {"push_id": "p"},
        "fetch_request": {"url": "https://x.example/r", "initiator_is_sw": True},
        "notification_show": {"notif_id": "n", "title": "t"},
        "notification_close": {"notif_id": "n"},
        "notification_click": {"notif_id": "n"},
        "permission_grant": {"permission": "notifications"},
        "update_found": {"version": 2},
        "code_tampered": {"source": "extension"},
    }
    if kind == "fetch_event_end":  # needs an open handler bracket to be legal
        engine.on_event(TraceEvent(ts - 1, "fetch_event_start", "https://cap.example",
                                   sw_id, "/"))
    event = TraceEvent(ts, kind, "https://cap.example",
                       None if kind in ("page_visit", "permission_grant") else sw_id,
                       "/", payloads.get(kind, {}))
    decision = engine.on_event(event)
    return any(a.reason.startswith("capability:") for a in decision.actions)


def test_criterion_08_capability_gating():
    kinds = sorted(EVENT_KINDS)
    assert len(Capability) == 7 and len(kinds) == 18

    # Registration-time restriction to push+notifications.
    registry = SwRegistry()
    record = registry.register_sw(
        Origin.parse("https://cap.example"), Scope("/"), "https://cap.example/sw.js",
        capabilities=frozenset({Capability.PUSH, Capability.NOTIFICATIONS}),
    )
    assert not check_capability(record, Capability.CACHE)
    assert not check_capability(record, Capability.COOKIES)
    assert not check_capability(record, Capability.FETCH_INTERCEPT)
    assert check_capability(record, Capability.PUSH)
    assert check_capability(record, Capability.NOTIFICATIONS)

    engine = PolicyEngine(PolicyConfig(()), "chrome", mode="enforce")
    engine.register_record(SwRecord(
        "sw-pn", Origin.parse("https://cap.example"), Scope("/"),
        "https://cap.example/sw.js", state=SwState.ACTIVATED,
        capabilities=frozenset({Capability.PUSH, Capability.NOTIFICATIONS}),
        push_subscribed=True,
    ))
    ts = 0
    for kind in kinds:
        ts += 1_000
        gated = _gate_probe(engine, "sw-pn", kind, ts)
        needs = REQUIRED_CAPABILITY.get(kind)
        if needs in (Capability.PUSH, Capability.NOTIFICATIONS):
            assert not gated, f"{kind} should be admitted"
        elif needs is not None:
            assert gated, f"{kind} should be denied"

    # Exhaustive grid: every capability subset x every event kind.
    caps = sorted(Capability, key=lambda c: c.value)
    for subset_bits in range(128):
        subset = frozenset(c for i, c in enumerate(caps) if subset_bits >> i & 1)
        engine = PolicyEngine(PolicyConfig(()), "chrome", mode="enforce")
        engine.register_record(SwRecord(
            f"sw-{subset_bits}", Origin.parse("https://cap.example"), Scope("/"),
            "https://cap.example/sw.js", state=SwState.ACTIVATED,
            capabilities=subset, push_subscribed=True,
        ))
        ts = 0
        for kind in kinds:
            ts += 1_000
            gated = _gate_probe(engine, f"sw-{subset_bits}", kind, ts)
            needs = REQUIRED_CAPABILITY.get(kind)
            assert gated == (needs is not None and needs not in subset), (
                subset, kind
            )
    _ok(8, "capability gate exact on the full subset x event-kind grid "
           "(128 x 18 incl. the 7x18 singletons)")


def test_criterion_09_notification_visibility_and_tags():
    config = default_policies()
    events = generate(Scenario("notification_hider", 9, {}, 10 * MINUTE))
    engine = PolicyEngine(config, "chrome", mode="enforce")
    violations = []
    for event in events:
        violations.extend(engine.on_event(event).violations)
    violations.extend(engine.finish(events[-1].ts).violations)
    fast_closes = [v for v in violations if v.policy_name == "notif_min_visible"]
    programmatic_closes = [e for e in events if e.kind == "notification_close"]
    assert len(fast_closes) == len(programmatic_closes) == 10
    assert all(v.observed < 30 for v in fast_closes)

    by_user = [
        TraceEvent(e.ts, e.kind, e.origin, e.sw_id, e.scope,
                   dict(e.payload, by_user=True))
        if e.kind == "notification_close" else e
        for e in events
    ]
    engine = PolicyEngine(config, "chrome", mode="enforce")
    user_violations = []
    for event in by_user:
        user_violations.extend(engine.on_event(event).violations)
    assert not [v for v in user_violations if v.policy_name == "notif_min_visible"]

    tag_events = generate(Scenario("tag_reuser", 9, {"n_pushes": 5}))
    engine = PolicyEngine(config, "chrome", mode="enforce")
    tag_violations = []
    for event in tag_events:
        tag_violations.extend(
            v for v in engine.on_event(event).violations if v.policy_name == "tag_reuse"
        )
    shows = [e for e in tag_events if e.kind == "notification_show"]
    assert len(tag_violations) == 1
    assert tag_violations[0].observed == 4  # fires at the 4th replacement
    assert tag_violations[0].ts == shows[4].ts
    _ok(9, "one violation per sub-30s programmatic close; user closes clean; "
           "tag reuse flagged at the 4th replacement")


def test_criterion_10_oracle_equivalence():
    rng = random.Random(1010)

    # Window counters vs recount.
    for _ in range(100):
        engine = PolicyEngine(default_policies(), "chrome", mode="enforce")
        engine.register_record(SwRecord(
            "sw-w", Origin.parse("https://w.example"), Scope("/"),
            "https://w.example/sw.js", state=SwState.ACTIVATED, push_subscribed=True,
        ))
        times = sorted(rng.randint(0, 4 * HOUR) for _ in range(rng.randint(1, 90)))
        for i, ts in enumerate(times):
            engine.on_event(TraceEvent(ts, "push", "https://w.example", "sw-w", "/",
                                       {"push_id": f"p{i}"}))
        recount = {}
        for ts in times:
            slot = (ts - times[0]) // HOUR
            recount[slot] = recount.get(slot, 0) + 1
        assert engine.window_counts("sw-w", "push_per_hour") == recount

    # Background classification vs depth oracle.
    from test_forensics_fold import bracket_intervals, classify_background_fetch

    for _ in range(100):
        ts = 0
        depth = 0
        events = []
        for i in range(rng.randint(5, 120)):
            ts += rng.randint(0, 100)
            roll = rng.random()
            if roll < 0.3:
                events.append(TraceEvent(ts, "fetch_event_start",
                                         "https://o.example", "sw-o", "/"))
                depth += 1
            elif roll < 0.55 and depth:
                events.append(TraceEvent(ts, "fetch_event_end",
                                         "https://o.example", "sw-o", "/"))
                depth -= 1
            else:
                url = rng.choice(["https://a.example/x", "https://o.example/y"])
                events.append(TraceEvent(ts, "fetch_request", "https://o.example",
                                         "sw-o", "/",
                                         {"url": url, "initiator_is_sw": True}))
        while depth:
            ts += 1
            events.append(TraceEvent(ts, "fetch_event_end", "https://o.example",
                                     "sw-o", "/"))
            depth -= 1
        intervals = bracket_intervals(events)
        starts = [e.ts for e in events if e.kind == "fetch_event_start"]
        ends = [e.ts for e in events if e.kind == "fetch_event_end"]
        for event in events:
            if event.kind != "fetch_request":
                continue
            inside = (sum(1 for s in starts if s <= event.ts)
                      - sum(1 for e in ends if e < event.ts)) > 0
            got = classify_background_fetch(events, event, {"o.example"},
                                            intervals=intervals)
            assert (got == "foreground") == inside

    # Scope matching vs longest-prefix enumeration.
    segments = ["a", "b", "push", "app"]
    for _ in range(100):
        registry = SwRegistry()
        origin = Origin.parse("https://s.example")
        for _ in range(rng.randint(1, 40)):
            path = "/" + "/".join(rng.choice(segments)
                                  for _ in range(rng.randint(0, 3)))
            try:
                registry.register_sw(origin, Scope(path if path.endswith("/")
                                                   else path + "/"),
                                     "https://s.example/sw.js")
            except Exception:
                continue
        page = "/" + "/".join(rng.choice(segments) for _ in range(rng.randint(0, 4)))
        matches = [r for r in registry.records() if r.scope.contains(page)]
        expected = max(matches, key=lambda r: len(r.scope.path_prefix), default=None)
        got = registry.match_scope(origin, page)
        assert (got is None) == (expected is None)
        if expected is not None:
            assert got.scope.path_prefix == expected.scope.path_prefix

    # Percentiles vs the smallest-value-reaching-q oracle.
    assert percentile(list(range(1, 101)), 90) == 90
    for _ in range(150):
        values = [rng.randint(0, 40) for _ in range(rng.randint(1, 50))]
        q = rng.choice([5, 25, 50, 90, 95, 99, 100])
        expected = next(v for v in sorted(values)
                        if sum(1 for x in values if x <= v) / len(values) >= q / 100)
        assert percentile(values, q) == expected
    _ok(10, "window counters, fetch classification, scope matching, and "
            "percentiles all match brute-force oracles (100+ instances each)")


def test_criterion_11_determinism_and_runtime():
    scenarios = [
        Scenario("webbot", 11, {}, 6 * MINUTE),
        Scenario("push_flood", 11, {"pushes_per_hour": 33, "silent": True}, 2 * HOUR),
        Scenario("ddos", 11, {"req_per_s": 5, "burst_minutes": 1}),
        Scenario("notification_hider", 11, {}, 5 * MINUTE),
        Scenario("tag_reuser", 11, {"n_pushes": 7}),
        Scenario("tracking_library", 11, {"page_visits": 9}),
        Scenario("benign", 11, {}),
    ]
    for scenario in scenarios:
        assert list(emit_trace(generate(scenario))) == list(emit_trace(generate(scenario)))
        r1 = simulate(scenario, default_policies(), "edge")
        r2 = simulate(scenario, default_policies(), "edge")
        assert list(emit_trace(r1.delivered_events)) == list(emit_trace(r2.delivered_events))
        assert list(emit_trace(r1.suppressed_events)) == list(emit_trace(r2.suppressed_events))
        assert [(a.ts, a.action, a.reason) for a in r1.actions] == \
               [(a.ts, a.action, a.reason) for a in r2.actions]
        assert r1.final_states == r2.final_states
    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 60.0
    _ok(11, f"gen/simulate byte-identical across runs; acceptance module took "
            f"{elapsed:.1f} s (< 60 s budget)")
