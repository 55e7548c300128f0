import json
import random

import pytest

from sw_sentinel.model import SwState
from sw_sentinel.policy import (
    EnforcementAction,
    PolicyConfig,
    PolicyEngine,
    PolicySpec,
    Severity,
    default_policies,
)
from sw_sentinel.scenarios import (
    GENERATORS,
    HANDLER_MS,
    IDLE_TIMEOUT_MS,
    Scenario,
    SplitMix64,
    gen_ddos,
    gen_notification_hider,
    gen_push_flood,
    gen_tag_reuser,
    gen_tracking_library,
    gen_webbot,
    generate,
    simulate,
)
from sw_sentinel.trace import _NO_PAYLOAD, emit_trace

from test_policy_clock import _params

HOUR = 3_600_000
EMPTY = PolicyConfig(())


class TestSplitMix:
    def test_known_stability(self):
        rng = SplitMix64(1)
        first = [SplitMix64(1).next_u64() for _ in range(3)]
        again = [SplitMix64(1).next_u64() for _ in range(3)]
        assert first == again
        assert rng.below(10) in range(10)


class TestWebbot:
    def test_unmitigated_runs_continuously(self):
        result = simulate(Scenario("webbot", 1, {}, 10 * 60_000), EMPTY, "firefox")
        total = result.running_ms("sw-webbot")
        assert total >= 9 * 60_000  # ~10 min across update generations
        assert not result.suppressed_events

    def test_deterministic(self):
        a = list(emit_trace(gen_webbot(1, 10 * 60_000)))
        b = list(emit_trace(gen_webbot(1, 10 * 60_000)))
        assert a == b

    def test_cap_profile_bounds_running_time(self):
        result = simulate(Scenario("webbot", 1, {}, 10 * 60_000), EMPTY, "chrome")
        assert result.max_continuous_ms("sw-webbot") <= 3 * 60_000 + 25_000


class TestPushFlood:
    def test_event_counts(self):
        events = gen_push_flood(1, 50, silent=False, duration_ms=3 * HOUR)
        assert sum(1 for e in events if e.kind == "push") == 150
        assert sum(1 for e in events if e.kind == "notification_show") == 150

    def test_fourteen_per_hour_never_violates_defaults(self):
        result = simulate(
            Scenario("push_flood", 5, {"pushes_per_hour": 14}, 3 * HOUR),
            default_policies(), "chrome",
        )
        assert not result.violations
        assert not result.suppressed_events

    def test_renewal_evades_firefox_revocation(self):
        result = simulate(
            Scenario("push_flood", 5,
                     {"pushes_per_hour": 16, "silent": True, "renew_after": 10},
                     3 * HOUR),
            EMPTY, "firefox",
        )
        assert not [n for n in result.notices if n.kind == "revoke_subscription"]

    def test_silent_flood_has_no_shows(self):
        events = gen_push_flood(2, 20, silent=True, duration_ms=HOUR)
        assert not [e for e in events if e.kind == "notification_show"]


class TestDdos:
    def test_one_per_second_for_a_minute(self):
        events = gen_ddos(1, 1, 1)
        assert sum(1 for e in events if e.kind == "fetch_request") == 60

    def test_requests_target_and_are_background(self):
        events = gen_ddos(1, 2, 1, target="https://victim.example/hit")
        fetches = [e for e in events if e.kind == "fetch_request"]
        assert len(fetches) == 120
        assert all(e.get("url") == "https://victim.example/hit" for e in fetches)
        assert all(e.get("initiator_is_sw") for e in fetches)

    def test_default_policy_delivers_at_most_five_per_activation(self):
        result = simulate(Scenario("ddos", 7, {"req_per_s": 10, "burst_minutes": 2}),
                          default_policies(), "chrome")
        delivered = [e for e in result.delivered_events if e.kind == "fetch_request"]
        assert len(delivered) <= 5


class TestNotificationHider:
    def test_ten_pushes_ten_fast_close_pairs(self):
        events = gen_notification_hider(1, 10 * 60_000)
        pushes = [e for e in events if e.kind == "push"]
        shows = {e.get("notif_id"): e.ts for e in events if e.kind == "notification_show"}
        closes = [e for e in events if e.kind == "notification_close"]
        assert len(pushes) == len(shows) == len(closes) == 10
        for close in closes:
            assert close.ts - shows[close.get("notif_id")] < 30_000
            assert close.get("by_user") is False

    def test_zero_duration_has_no_pushes(self):
        events = gen_notification_hider(1, 500)
        assert not [e for e in events if e.kind == "push"]


class TestTagReuser:
    def test_five_shows_one_tag(self):
        events = gen_tag_reuser(1, 5)
        shows = [e for e in events if e.kind == "notification_show"]
        assert len(shows) == 5
        assert {e.get("tag") for e in shows} == {"notification-update-tag"}

    def test_single_push_no_violation(self):
        engine = PolicyEngine(default_policies(), "chrome", mode="enforce")
        violations = []
        for event in gen_tag_reuser(1, 1):
            violations.extend(engine.on_event(event).violations)
        assert not violations


class TestTrackingLibrary:
    def test_twenty_visits_twenty_tracking_fetches(self):
        events = gen_tracking_library(1, 20)
        tracking = [
            e for e in events
            if e.kind == "fetch_request" and "tracking.example" in e.get("url", "")
        ]
        assert len(tracking) == 20

    def test_zero_visits(self):
        events = gen_tracking_library(1, 0)
        assert not [e for e in events if e.kind == "fetch_request"]

    def test_single_activation_partition_under_fetch_policy(self):
        result = simulate(Scenario("tracking_library", 0, {"page_visits": 20}),
                          default_policies(), "chrome")
        delivered = [e for e in result.delivered_events
                     if "tracking.example" in e.get("url", "")]
        suppressed = [e for e in result.suppressed_events
                      if "tracking.example" in e.get("url", "")]
        assert (len(delivered), len(suppressed)) == (5, 15)


class TestBenign:
    def test_below_thresholds_no_violations(self):
        result = simulate(
            Scenario("benign", 0,
                     {"push_rate": 2, "exec_min_per_day": 10, "fetches_per_activation": 1}),
            default_policies(), "chrome",
        )
        assert not result.violations
        assert not result.suppressed_events

    def test_exactly_at_thresholds_no_violations(self):
        result = simulate(
            Scenario("benign", 0,
                     {"push_rate": 14, "exec_min_per_day": 90, "fetches_per_activation": 5}),
            default_policies(), "chrome",
        )
        assert not result.violations

    def test_high_push_rate_violates_push_policy_only(self):
        result = simulate(
            Scenario("benign", 0,
                     {"push_rate": 20, "exec_min_per_day": 10, "fetches_per_activation": 1}),
            default_policies(), "chrome",
        )
        assert result.violations
        assert {v.policy_name for v in result.violations} == {"push_per_hour"}


class TestSimulate:
    def test_webbot_cap_final_state_terminated(self):
        result = simulate(Scenario("webbot", 1, {}, 10 * 60_000),
                          default_policies(), "chrome")
        assert result.final_states["sw-webbot"] in (SwState.TERMINATED, SwState.IDLE)
        assert result.max_continuous_ms("sw-webbot") <= 3 * 60_000 + 25_000

    def test_benign_suppresses_nothing(self):
        result = simulate(Scenario("benign", 0, {}), default_policies(), "chrome")
        assert result.suppressed_events == []

    def test_partition_is_exact(self):
        for scenario in (
            Scenario("push_flood", 3, {"pushes_per_hour": 30}, HOUR),
            Scenario("webbot", 1, {}, 5 * 60_000),
            Scenario("notification_hider", 2, {}, 5 * 60_000),
            Scenario("tracking_library", 0, {"page_visits": 12}),
        ):
            events = generate(scenario)
            result = simulate(events, default_policies(), "chrome")
            merged, d_i, s_i = [], 0, 0
            delivered, suppressed = result.delivered_events, result.suppressed_events
            for event in events:
                if d_i < len(delivered) and delivered[d_i] is event:
                    merged.append(event)
                    d_i += 1
                elif s_i < len(suppressed) and suppressed[s_i] is event:
                    merged.append(event)
                    s_i += 1
            assert merged == events
            assert d_i == len(delivered) and s_i == len(suppressed)

    def test_determinism_across_runs(self):
        scenario = Scenario("push_flood", 9, {"pushes_per_hour": 40, "silent": True},
                            2 * HOUR)
        r1 = simulate(scenario, default_policies(), "firefox")
        r2 = simulate(scenario, default_policies(), "firefox")
        assert list(emit_trace(r1.delivered_events)) == list(emit_trace(r2.delivered_events))
        assert list(emit_trace(r1.suppressed_events)) == list(emit_trace(r2.suppressed_events))
        assert [(a.ts, a.action, a.reason) for a in r1.actions] == [
            (a.ts, a.action, a.reason) for a in r2.actions
        ]
        assert r1.final_states == r2.final_states

    def test_generator_determinism_all_scenarios(self):
        cases = {
            "webbot": Scenario("webbot", 4, {}, 6 * 60_000),
            "push_flood": Scenario("push_flood", 4, {"pushes_per_hour": 25}, HOUR),
            "ddos": Scenario("ddos", 4, {"req_per_s": 3, "burst_minutes": 1}),
            "notification_hider": Scenario("notification_hider", 4, {}, 3 * 60_000),
            "tag_reuser": Scenario("tag_reuser", 4, {"n_pushes": 4}),
            "tracking_library": Scenario("tracking_library", 4, {"page_visits": 5}),
            "benign": Scenario("benign", 4, {}),
        }
        assert set(cases) == set(GENERATORS)
        for scenario in cases.values():
            assert list(emit_trace(generate(scenario))) == list(
                emit_trace(generate(scenario))
            )

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generated_payloads_are_read_only_and_shared_when_repeated(self, name):
        """Every payload a generator builds is read-only, an event without one
        gets the shared empty payload, and a payload that repeats is one
        object: ``emit_trace`` writes each (header, payload) body once."""
        events = generate(Scenario(name, 3, _params(name, random.Random(3))))
        assert events
        for event in events:
            with pytest.raises(TypeError):
                event.payload["injected"] = 1
            with pytest.raises(TypeError):
                del event.payload[next(iter(event.payload), "push_id")]
            if not event.payload:
                assert event.payload is _NO_PAYLOAD
        texts = {}
        for event in events:
            texts.setdefault(json.dumps(dict(event.payload), sort_keys=True), set()).add(
                id(event.payload))
        assert all(len(ids) == 1 for ids in texts.values()), name
        assert list(emit_trace(events)) == list(emit_trace(
            [event._replace(payload=dict(event.payload)) for event in events]))

    @pytest.mark.parametrize("name", ["push_flood", "notification_hider", "tag_reuser",
                                      "tracking_library"])
    def test_idle_terminates_follow_the_workers_activity(self, name):
        """A worker opens with its register at ts 0 and ends HANDLER_MS +
        IDLE_TIMEOUT_MS after each of its later events that the next does not
        follow within that time, and after its last. A worker's events are at
        scope "/", the origin's at none."""
        settle = HANDLER_MS + IDLE_TIMEOUT_MS
        gaps = 0
        for seed in range(5):
            events = generate(Scenario(name, seed, _params(name, random.Random(seed))))
            assert (events[0].ts, events[0].kind) == (0, "register")
            assert all((event.scope == "/") == (event.sw_id is not None) for event in events)
            activity = [event.ts for event in events[1:]
                        if event.sw_id is not None and event.kind != "terminate"]
            expected = [prev + settle for prev, nxt in zip(activity, activity[1:])
                        if nxt - prev > settle]
            gaps += len(expected)
            expected += [ts + settle for ts in activity[-1:]]
            assert [event.ts for event in events if event.kind == "terminate"] == expected
        assert gaps or name == "tracking_library"  # its visits are 10 s apart

    @pytest.mark.parametrize("value", [-1, -0.5, float("nan"), float("inf")])
    def test_negative_or_unbounded_params_rejected(self, value):
        with pytest.raises(ValueError, match="req_per_s"):
            generate(Scenario("ddos", 0, {"req_per_s": value, "burst_minutes": 1}))

    @pytest.mark.parametrize("where", ["field", "params"])
    @pytest.mark.parametrize("value", [3.6e6, True])
    def test_duration_must_be_an_int(self, where, value):
        """A trace's ts is an integer millisecond count: a float or bool
        duration would make float timestamps that no reader accepts."""
        for name in ("webbot", "push_flood", "benign"):
            params = {"pushes_per_hour": 20} if name == "push_flood" else {}
            if where == "field":
                scenario = Scenario(name, 0, params, value)
            else:
                scenario = Scenario(name, 0, {**params, "duration_ms": value})
            with pytest.raises(ValueError, match="duration_ms"):
                generate(scenario)
            assert generate(Scenario(name, 0, params, 3_600_000))

    def test_tightening_thresholds_never_delivers_more(self):
        rng = random.Random(31)
        for _ in range(8):
            seed = rng.randint(0, 10_000)
            scenario = Scenario("push_flood", seed, {"pushes_per_hour": 30}, 2 * HOUR)
            delivered = []
            for threshold in (20, 14, 8, 3):
                config = PolicyConfig(
                    (PolicySpec("push_per_hour", Severity.LOW, threshold, 60),)
                )
                result = simulate(scenario, config, "chrome")
                delivered.append(len(result.delivered_events))
            assert delivered == sorted(delivered, reverse=True)

    def test_throttle_bound_holds_for_random_seeds(self):
        rng = random.Random(17)
        for _ in range(6):
            seed = rng.randint(0, 100_000)
            rate = rng.randint(1, 80)
            result = simulate(
                Scenario("push_flood", seed, {"pushes_per_hour": rate}, 2 * HOUR),
                default_policies(), "chrome",
            )
            per_slot = {}
            for event in result.delivered_events:
                if event.kind == "push":
                    slot = event.ts // HOUR
                    per_slot[slot] = per_slot.get(slot, 0) + 1
            assert all(count <= 14 for count in per_slot.values())

    def test_deregister_only_under_low_engagement(self):
        # Same abusive close pattern, with and without recent page visits.
        base = generate(Scenario("notification_hider", 1, {}, 10 * 60_000))
        visits = [
            base[0].__class__(ts=0, kind="page_visit", origin=base[0].origin)
            for _ in range(4)
        ]
        engaged = sorted(visits + base, key=lambda e: e.ts)
        low = simulate(base, default_policies(), "chrome")
        high = simulate(engaged, default_policies(), "chrome")
        assert any(a.action is EnforcementAction.DEREGISTER_SW for a in low.actions)
        assert not any(a.action is EnforcementAction.DEREGISTER_SW for a in high.actions)
