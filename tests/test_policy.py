import random
import re
from pathlib import Path

import pytest

from sw_sentinel import policy
from sw_sentinel.model import Capability, Origin, Scope, SwRecord, SwState
from sw_sentinel.policy import (
    ActionEntry,
    BadThreshold,
    DEFAULT_NOTIFICATION_TITLE,
    Decision,
    DuplicateName,
    EnforcementAction,
    EngagementScore,
    Notice,
    PolicyConfig,
    PolicyConfigError,
    PolicyEngine,
    PolicySpec,
    PROFILES,
    RULES,
    Severity,
    UnknownPolicyName,
    ViolationRecord,
    default_policies,
    load_policies,
)
from sw_sentinel.trace import TraceEvent, UnbalancedBrackets

ORIGIN = "https://p.example"


def ev(ts, kind, sw_id="sw-1", origin=ORIGIN, **payload):
    return TraceEvent(ts=ts, kind=kind, origin=origin, sw_id=sw_id, scope="/",
                      payload=payload)


def page_visit(ts, origin=ORIGIN):
    return TraceEvent(ts=ts, kind="page_visit", origin=origin)


def grant(ts, origin=ORIGIN):
    return TraceEvent(ts=ts, kind="permission_grant", origin=origin,
                      payload={"permission": "notifications"})


def fresh_record(caps=None, sw_id="sw-1", subscribed=True):
    return SwRecord(
        sw_id=sw_id,
        origin=Origin.parse(ORIGIN),
        scope=Scope("/"),
        script_url=f"{ORIGIN}/sw.js",
        state=SwState.ACTIVATED,
        capabilities=caps,
        push_subscribed=subscribed,
    )


def engine_with(config=None, profile="chrome", mode="simulate", caps=None, subscribed=True):
    engine = PolicyEngine(config or default_policies(), profile, mode=mode)
    engine.register_record(fresh_record(caps=caps, subscribed=subscribed))
    return engine


class TestLoadPolicies:
    def test_template_shape(self):
        config = load_policies(
            '[{"name":"push_per_hour","severity":"low","threshold":14,'
            '"duration_in_minutes":60}]'
        )
        spec = config.get("push_per_hour")
        assert spec == PolicySpec("push_per_hour", Severity.LOW, 14.0, 60)

    def test_zero_threshold_rejected(self):
        with pytest.raises(BadThreshold):
            load_policies(
                '[{"name":"push_per_hour","severity":"low","threshold":0,'
                '"duration_in_minutes":60}]'
            )

    def test_duplicate_name_rejected(self):
        body = ('{"name":"push_per_hour","severity":"low","threshold":14,'
                '"duration_in_minutes":60}')
        with pytest.raises(DuplicateName):
            load_policies(f"[{body},{body}]")

    def test_unknown_policy_rejected(self):
        with pytest.raises(UnknownPolicyName):
            load_policies(
                '[{"name":"frobnicate","severity":"low","threshold":1,'
                '"duration_in_minutes":60}]'
            )

    @pytest.mark.parametrize("text", [
        "not json",
        "5",
        "[5]",
        '{"policies": 5}',
        '{"allow_list": 7}',
        '{"allow_list": [7]}',
        '{"deregister_engagement_threshold": "x"}',
        '{"deregister_engagement_threshold": true}',
        '[{"name": ["x"], "severity": "low", "threshold": 1, "duration_in_minutes": 60}]',
        '[{"name": "tag_reuse", "severity": ["x"], "threshold": 1, "duration_in_minutes": 60}]',
        '[{"name": "tag_reuse", "severity": "low", "threshold": 1, "duration_in_minutes": 0}]',
    ])
    def test_every_malformed_shape_is_a_config_error(self, text):
        with pytest.raises(PolicyConfigError):
            load_policies(text)

    @pytest.mark.parametrize("minutes", [1, 60, 1439, 1441, 2880])
    def test_exec_per_day_takes_only_the_virtual_day_as_window(self, minutes):
        """The daily budget is judged per virtual day, so no other window is read."""
        body = '{"name":"exec_per_day","severity":"medium","threshold":90,"duration_in_minutes":%d}'
        with pytest.raises(PolicyConfigError, match="exec_per_day"):
            load_policies(f"[{body % minutes}]")
        assert load_policies(f"[{body % 1440}]").get("exec_per_day").duration_in_minutes == 1440

    def test_object_form_with_allow_list(self):
        config = load_policies(
            '{"policies":[{"name":"push_per_hour","severity":"low","threshold":14,'
            '"duration_in_minutes":60}],"allow_list":["https://chat.example"],'
            '"deregister_engagement_threshold":7.5}'
        )
        assert "https://chat.example" in config.allow_list
        assert config.deregister_engagement_threshold == 7.5

    def test_defaults_cover_the_six_policies(self):
        six = {"push_per_hour", "exec_per_activation", "exec_per_day",
               "bg_fetch_per_activation", "notif_min_visible", "tag_reuse"}
        config = default_policies()  # defaults.json
        assert {spec.name for spec in config.specs} == six
        # The rule table and README's table name the same six.
        assert set(RULES) == six
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Default policies", 1)[1].split("\n## ", 1)[0]
        assert set(re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)) == six
        assert config.get("push_per_hour").threshold == 14
        assert config.get("exec_per_activation").threshold == 5
        assert config.get("exec_per_day").threshold == 90
        assert config.get("bg_fetch_per_activation").threshold == 5
        assert config.get("notif_min_visible").threshold == 30
        assert config.get("tag_reuse").threshold == 3


    def test_shipped_defaults_are_parsed_once_and_shared(self):
        text = (Path(policy.__file__).parent / "defaults.json").read_text(encoding="utf-8")
        shared = default_policies()
        assert load_policies(None) is shared is default_policies()
        assert shared == load_policies(text)
        assert load_policies(text) is not load_policies(text)  # explicit text: every call
        specs = shared.specs
        with pytest.raises(AttributeError):
            shared.specs = ()
        with pytest.raises(AttributeError):
            shared.specs[0].threshold = 1.0
        assert shared.specs is specs and shared == load_policies(text)
        assert isinstance(shared.specs, tuple) and isinstance(shared.allow_list, frozenset)

class TestProfiles:
    def test_vendor_constants(self):
        assert PROFILES["firefox"].silent_push_limit == 15
        assert PROFILES["edge"].silent_push_limit == 3
        assert PROFILES["chrome"].silent_push_limit is None
        assert PROFILES["chrome"].default_notification_on_silent_push
        assert PROFILES["chrome"].self_update_delay_cap_minutes == 3
        assert PROFILES["edge"].self_update_delay_cap_minutes == 3
        assert PROFILES["firefox"].self_update_delay_cap_minutes is None


class TestPushWindow:
    def test_fifteenth_push_violates_and_throttles(self):
        engine = engine_with()
        actions, violations = [], []
        for i in range(15):
            decision = engine.on_event(ev(i * 1_000, "push", push_id=f"p{i}"))
            actions.extend(decision.actions)
            violations.extend(decision.violations)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.policy_name == "push_per_hour"
        assert violation.observed == 15
        assert violation.threshold == 14
        assert any(a.action is EnforcementAction.THROTTLE_EVENT for a in actions)

    def test_benign_event_no_actions(self):
        engine = engine_with()
        decision = engine.on_event(ev(0, "push", push_id="p0"))
        assert decision.actions == [] and decision.violations == []
        assert decision.deliver

    def test_allow_list_exempts_push_policy(self):
        config = load_policies(
            '{"policies":[{"name":"push_per_hour","severity":"low","threshold":2,'
            f'"duration_in_minutes":60}}],"allow_list":["{ORIGIN}"]}}'
        )
        engine = engine_with(config)
        decisions = [engine.on_event(ev(i * 1000, "push", push_id=f"p{i}"))
                     for i in range(10)]
        assert all(d.deliver for d in decisions)

    def test_window_counts_match_brute_force_recount(self):
        rng = random.Random(8)
        hour = 3_600_000
        for _ in range(120):
            engine = engine_with(mode="enforce")
            times = sorted(rng.randint(0, 5 * hour) for _ in range(rng.randint(1, 120)))
            for i, ts in enumerate(times):
                engine.on_event(ev(ts, "push", push_id=f"p{i}"))
            t0 = times[0]
            recount = {}
            for ts in times:
                recount[(ts - t0) // hour] = recount.get((ts - t0) // hour, 0) + 1
            assert engine.window_counts("sw-1", "push_per_hour") == recount


class TestCapabilityGate:
    def test_fetch_with_cache_only_sw_throttled_without_violation(self):
        engine = engine_with(caps=frozenset({Capability.CACHE}))
        decision = engine.on_event(
            ev(0, "fetch_request", url="https://x.example/r", initiator_is_sw=True)
        )
        assert not decision.deliver
        assert [a.action for a in decision.actions] == [EnforcementAction.THROTTLE_EVENT]
        assert decision.violations == []

    def test_push_notifications_sw_can_push(self):
        engine = engine_with(caps=frozenset({Capability.PUSH, Capability.NOTIFICATIONS}))
        assert engine.on_event(ev(0, "push", push_id="p")).deliver


def terminations(decision):
    return [a for a in decision.actions if a.action is EnforcementAction.TERMINATE_SW]


class TestExecutionCaps:
    def test_terminated_at_five_minutes(self):
        engine = engine_with()
        engine.on_event(ev(0, "push", push_id="p"))
        [entry] = terminations(engine.advance(22 * 60_000))
        assert entry.ts == 301_000  # 5 min + one 1 s tick
        assert entry.reason == "exec_per_activation"

    def test_under_threshold_no_action(self):
        engine = engine_with()
        engine.on_event(ev(0, "push", push_id="p"))
        assert terminations(engine.advance(299_000)) == []

    def test_daily_budget_crosses_mid_activation(self):
        config = PolicyConfig((PolicySpec("exec_per_day", Severity.MEDIUM, 90, 1440),))
        engine = engine_with(config)
        minute = 60_000
        engine.on_event(ev(0, "push", push_id="a"))
        engine.on_event(ev(50 * minute, "terminate"))
        engine.on_event(ev(51 * minute, "push", push_id="b"))
        [entry] = terminations(engine.advance(120 * minute))
        assert entry.ts == 91 * minute + 1_000
        assert entry.reason == "exec_per_day"


class TestSilentPush:
    def _drive(self, profile, n, gap_ms=10_000, renew_every=None):
        engine = PolicyEngine(PolicyConfig(()), profile, mode="simulate")
        notices = []
        decision_count = 0
        events = [TraceEvent(0, "register", ORIGIN, "sw-1", "/"), grant(0)]
        for i in range(n):
            ts = 1_000 + i * gap_ms
            events.append(ev(ts, "push", push_id=f"p{i}"))
            if renew_every and (i + 1) % renew_every == 0:
                events.append(grant(ts + 100))
        for event in events:
            decision = engine.on_event(event)
            notices.extend(decision.notices)
            if event.kind == "push" and decision.deliver:
                decision_count += 1
        notices.extend(engine.finish(events[-1].ts + 60_000).notices)
        return engine, notices, decision_count

    def test_edge_revokes_at_third_silent_push(self):
        engine, notices, delivered = self._drive("edge", 6)
        revokes = [n for n in notices if n.kind == "revoke_subscription"]
        assert len(revokes) == 1
        assert delivered == 3
        assert engine.record("sw-1").silent_push_count == 3

    def test_chrome_shows_default_notification(self):
        _engine, notices, _ = self._drive("chrome", 1)
        defaults = [n for n in notices if n.kind == "default_notification"]
        assert defaults and defaults[0].detail == DEFAULT_NOTIFICATION_TITLE

    def test_firefox_renewal_resets_counter(self):
        engine, notices, delivered = self._drive("firefox", 28, renew_every=14)
        assert not [n for n in notices if n.kind == "revoke_subscription"]
        assert delivered == 28
        assert engine.record("sw-1").push_subscribed

    def test_firefox_revokes_at_fifteen_without_renewal(self):
        _engine, notices, delivered = self._drive("firefox", 20)
        assert [n for n in notices if n.kind == "revoke_subscription"]
        assert delivered == 15

    def test_shown_notification_is_not_silent(self):
        engine = PolicyEngine(PolicyConfig(()), "edge", mode="simulate")
        engine.on_event(TraceEvent(0, "register", ORIGIN, "sw-1", "/"))
        engine.on_event(grant(0))
        for i in range(6):
            ts = 1_000 + i * 10_000
            engine.on_event(ev(ts, "push", push_id=f"p{i}"))
            engine.on_event(ev(ts + 200, "notification_show",
                               notif_id=f"n{i}", title="hi"))
        final = engine.finish(100_000)
        assert engine.record("sw-1").silent_push_count == 0
        assert not [n for n in final.notices if n.kind == "revoke_subscription"]


class TestNotificationVisibility:
    def _close_violations(self, close_ts, by_user):
        engine = engine_with(mode="enforce")
        engine.on_event(ev(1_000, "notification_show", notif_id="n1", title="t"))
        close = ev(close_ts, "notification_close", notif_id="n1", by_user=by_user)
        return engine.on_event(close).violations

    def test_programmatic_fast_close_violates(self):
        [violation] = self._close_violations(1_100, by_user=False)
        assert violation.policy_name == "notif_min_visible"
        assert violation.observed == pytest.approx(0.1)

    def test_user_close_is_fine(self):
        assert self._close_violations(1_100, by_user=True) == []

    def test_slow_close_is_fine(self):
        assert self._close_violations(46_000, by_user=False) == []

    def test_engine_counts_each_fast_close(self):
        engine = engine_with(mode="enforce")
        violations = []
        for i in range(4):
            ts = 1_000 + i * 60_000
            engine.on_event(ev(ts, "push", push_id=f"p{i}"))
            engine.on_event(ev(ts + 40, "notification_show", notif_id=f"n{i}", title="x"))
            violations.extend(
                engine.on_event(
                    ev(ts + 140, "notification_close", notif_id=f"n{i}", by_user=False)
                ).violations
            )
        assert [v.policy_name for v in violations] == ["notif_min_visible"] * 4


class TestTagReuse:
    def _show(self, engine, ts, idx, tag):
        payload = {"notif_id": f"n{idx}", "title": "t"}
        if tag:
            payload["tag"] = tag
        engine.on_event(ev(ts, "push", push_id=f"p{idx}"))
        return engine.on_event(ev(ts + 40, "notification_show", **payload))

    def test_violation_at_fourth_replacement(self):
        engine = engine_with(mode="enforce")
        violations = []
        for i in range(5):
            violations.extend(
                self._show(engine, 1_000 + i * 30_000, i, "notification-update-tag").violations
            )
        tag_violations = [v for v in violations if v.policy_name == "tag_reuse"]
        assert len(tag_violations) == 1
        assert tag_violations[0].observed == 4

    def test_three_replacements_fine(self):
        engine = engine_with(mode="enforce")
        violations = []
        for i in range(4):  # 4 shows = 3 replacements
            violations.extend(
                self._show(engine, 1_000 + i * 30_000, i, "notification-update-tag").violations
            )
        assert not [v for v in violations if v.policy_name == "tag_reuse"]

    def test_distinct_tags_fine(self):
        engine = engine_with(mode="enforce")
        violations = []
        for i in range(8):
            violations.extend(
                self._show(engine, 1_000 + i * 30_000, i, f"tag-{i}").violations
            )
        assert not [v for v in violations if v.policy_name == "tag_reuse"]


class TestBgFetchLimit:
    def _bg(self, ts, i):
        return ev(ts, "fetch_request", url="https://victim.example/x",
                  initiator_is_sw=True)

    def test_sixth_fetch_violates_and_throttles(self):
        engine = engine_with()
        engine.on_event(ev(0, "push", push_id="p"))
        outcomes = [engine.on_event(self._bg(100 + i, i)) for i in range(6)]
        assert all(d.deliver for d in outcomes[:5])
        last = outcomes[5]
        assert not last.deliver
        assert [v.policy_name for v in last.violations] == ["bg_fetch_per_activation"]
        assert last.violations[0].observed == 6

    def test_five_fetches_fine(self):
        engine = engine_with()
        engine.on_event(ev(0, "push", push_id="p"))
        outcomes = [engine.on_event(self._bg(100 + i, i)) for i in range(5)]
        assert all(d.deliver and not d.violations for d in outcomes)

    def test_counter_resets_per_activation(self):
        engine = engine_with()
        engine.on_event(ev(0, "push", push_id="p1"))
        for i in range(5):
            engine.on_event(self._bg(100 + i, i))
        engine.on_event(ev(40_000, "terminate"))
        engine.on_event(ev(50_000, "push", push_id="p2"))
        decision = engine.on_event(self._bg(50_100, 9))
        assert decision.deliver and not decision.violations

    def test_foreground_and_first_party_not_counted(self):
        engine = engine_with()
        engine.on_event(ev(0, "fetch_event_start"))
        inside = engine.on_event(self._bg(10, 0))
        engine.on_event(ev(20, "fetch_event_end"))
        own = engine.on_event(
            ev(30, "fetch_request", url=f"{ORIGIN}/asset", initiator_is_sw=True)
        )
        assert inside.deliver and own.deliver
        for _ in range(10):
            assert engine.on_event(
                ev(40, "fetch_request", url=f"{ORIGIN}/a", initiator_is_sw=True)
            ).deliver


class TestSelfUpdateCap:
    def _loop_events(self, until_ms):
        events = [
            TraceEvent(0, "register", ORIGIN, "sw-1", "/"),
            ev(0, "install"),
            ev(0, "activate"),
        ]
        t, version = 0, 1
        while t + 25_000 < until_ms:
            t += 25_000
            version += 1
            events.append(ev(t, "update_check"))
            events.append(ev(t, "update_found", version=version))
            events.append(ev(t, "install"))
            events.append(ev(t, "activate"))
        return events

    def test_chrome_caps_update_chain_at_three_minutes(self):
        engine = PolicyEngine(PolicyConfig(()), "chrome", mode="simulate")
        actions = []
        for event in self._loop_events(10 * 60_000):
            actions.extend(engine.on_event(event).actions)
        caps = [a for a in actions if a.reason == "self_update_cap"]
        assert caps and caps[0].ts == 181_000

    def test_capless_profile_runs_on(self):
        engine = PolicyEngine(PolicyConfig(()), "firefox", mode="simulate")
        actions = []
        for event in self._loop_events(10 * 60_000):
            actions.extend(engine.on_event(event).actions)
        assert not actions

    def test_legitimate_update_outside_handlers_uncapped(self):
        engine = PolicyEngine(PolicyConfig(()), "chrome", mode="simulate")
        events = [
            TraceEvent(0, "register", ORIGIN, "sw-1", "/"),
            ev(0, "install"),
            ev(0, "activate"),
            ev(31_000, "terminate"),
            ev(7_200_000, "update_found", version=2),  # browser-scheduled check
            ev(7_200_000, "install"),
            ev(7_200_000, "activate"),
            ev(7_231_000, "terminate"),
        ]
        actions = []
        for event in events:
            decision = engine.on_event(event)
            actions.extend(decision.actions)
            assert decision.deliver
        assert not [a for a in actions if a.reason == "self_update_cap"]


class TestEscalation:
    def _violation(self, n, policy="push_per_hour", ts=0):
        return ViolationRecord(policy, "sw-1", ts, 100 + n, 1)

    def test_first_low_is_log_only(self):
        engine = engine_with()
        engine._t0 = 0
        record = engine.record("sw-1")
        assert engine.escalate(record, self._violation(1)) == (EnforcementAction.LOG_ONLY,)

    def test_three_lows_promote_to_medium_terminate_but_registered(self):
        engine = engine_with()
        engine._t0 = 0
        record = engine.record("sw-1")
        engine.escalate(record, self._violation(1))
        engine.escalate(record, self._violation(2))
        actions = engine.escalate(record, self._violation(3))
        assert actions == (EnforcementAction.TERMINATE_SW,)
        assert record.state is not SwState.DEREGISTERED

    def test_first_medium_terminates_only(self):
        engine = engine_with()
        engine._t0 = 0
        record = engine.record("sw-1")
        actions = engine.escalate(record, self._violation(1, "exec_per_day"))
        assert actions == (EnforcementAction.TERMINATE_SW,)

    def test_third_medium_with_low_engagement_deregisters(self):
        engine = engine_with()
        engine._t0 = 0
        record = engine.record("sw-1")
        engine.engagement_for(ORIGIN).score = 1.2
        engine.engagement_for(ORIGIN).last_visit = 0
        for n in range(2):
            engine.escalate(record, self._violation(n, "exec_per_day"))
        actions = engine.escalate(record, self._violation(3, "exec_per_day"))
        assert actions == (
            EnforcementAction.TERMINATE_SW, EnforcementAction.DEREGISTER_SW,
        )

    def test_high_engagement_never_deregisters(self):
        engine = engine_with()
        engine._t0 = 0
        record = engine.record("sw-1")
        engine.engagement_for(ORIGIN).score = 50.0
        engine.engagement_for(ORIGIN).last_visit = 0
        for n in range(6):
            actions = engine.escalate(record, self._violation(n, "exec_per_day"))
            assert EnforcementAction.DEREGISTER_SW not in actions

    def test_severity_comes_from_the_spec_resolved_for_its_rule(self):
        """Escalate reads the severity of the spec the engine resolved for
        each rule when it was built. A name with no resolved spec falls back
        to medium: one the config lacks, and one outside ``RULES``, which no
        rule of the engine judges even where a hand-built config names it."""
        config = PolicyConfig((PolicySpec("custom", Severity.LOW, 1, 0),
                               PolicySpec("tag_reuse", Severity.LOW, 1, 60)))
        engine = engine_with(config)
        engine._t0 = 0
        record = engine.record("sw-1")
        assert engine.escalate(record, self._violation(1, "tag_reuse")) == (
            EnforcementAction.LOG_ONLY,)
        for name in ("custom", "push_per_hour", "unnamed"):
            engine = engine_with(config)
            engine._t0 = 0
            assert engine.escalate(engine.record("sw-1"), self._violation(2, name)) == (
                EnforcementAction.TERMINATE_SW,)


class TestEngagement:
    def test_first_visit_scores_two(self):
        score = EngagementScore()
        score.visit(0)
        assert score.score == pytest.approx(2.0)

    def test_half_life_decay(self):
        score = EngagementScore()
        score.visit(0)
        seven_days = 7 * 86_400_000
        assert score.value_at(seven_days) == pytest.approx(1.0)

    def test_sixty_visits_cap_at_hundred(self):
        score = EngagementScore()
        for i in range(60):
            score.visit(i * 1_000)
        assert score.score == pytest.approx(100.0)

    def test_non_visit_event_only_decays(self):
        engine = engine_with()
        seven_days = 7 * 86_400_000
        engine.on_event(page_visit(0))
        engine.on_event(ev(seven_days, "push", push_id="p"))
        assert engine.engagement_for(ORIGIN).value_at(seven_days) == pytest.approx(1.0)


PUSH_CAP_ONE = PolicyConfig((PolicySpec("push_per_hour", Severity.LOW, 1, 60),))
BG_FETCH_CAP_ONE = PolicyConfig(
    (PolicySpec("bg_fetch_per_activation", Severity.LOW, 1, 0),)
)
THIRD_PARTY_URL = "https://tracker.example/t"


def refusal(site, event, prelude=(), config=None, subscribed=True, enforce_error=None):
    return pytest.param(config, subscribed, prelude, event, enforce_error, id=site)


# One row per closed-loop refusal site. The worker starts activated,
# subscribed and not running; ``prelude`` leads up to the refused event.
REFUSAL_SITES = [
    refusal("register_from_insecure_origin",
            ev(1_000, "register", sw_id="sw-2", origin="http://p.example")),
    refusal("register_at_taken_scope", ev(1_000, "register", sw_id="sw-2")),
    refusal("install_without_precursor", ev(1_000, "install")),
    refusal("activate_without_precursor", ev(1_000, "activate")),
    refusal("install_while_running_without_new_version", ev(1_100, "install"),
            prelude=[ev(1_000, "sync")]),
    refusal("activate_while_running_without_new_version", ev(1_100, "activate"),
            prelude=[ev(1_000, "sync")]),
    refusal("update_check_not_running", ev(1_000, "update_check")),
    refusal("update_found_after_refused_check", ev(1_000, "update_found", version=2),
            prelude=[ev(1_000, "update_check")]),
    refusal("notification_show_not_running",
            ev(1_000, "notification_show", notif_id="n1", title="t")),
    refusal("notification_close_not_running",
            ev(1_000, "notification_close", notif_id="n1", by_user=False)),
    refusal("notification_close_never_shown",
            ev(1_100, "notification_close", notif_id="zz", by_user=False),
            prelude=[ev(1_000, "push", push_id="p")]),
    refusal("notification_click_never_shown",
            ev(1_000, "notification_click", notif_id="zz")),
    refusal("fetch_request_not_running",
            ev(1_000, "fetch_request", url=THIRD_PARTY_URL, initiator_is_sw=True)),
    refusal("fetch_event_end_unmatched", ev(1_000, "fetch_event_end"),
            enforce_error=UnbalancedBrackets),
    refusal("fetch_event_end_after_terminate", ev(1_200, "fetch_event_end"),
            prelude=[ev(1_000, "fetch_event_start"), ev(1_100, "terminate")]),
    refusal("terminate_not_running", ev(1_000, "terminate")),
    refusal("push_after_revocation", ev(1_000, "push", push_id="p"), subscribed=False),
    refusal("push_per_hour_throttle", ev(2_000, "push", push_id="p2"),
            prelude=[ev(1_000, "push", push_id="p1")], config=PUSH_CAP_ONE),
    refusal("bg_fetch_throttle",
            ev(1_200, "fetch_request", url=THIRD_PARTY_URL, initiator_is_sw=True),
            prelude=[ev(1_000, "push", push_id="p"),
                     ev(1_100, "fetch_request", url=THIRD_PARTY_URL, initiator_is_sw=True)],
            config=BG_FETCH_CAP_ONE),
]


class TestModeContract:
    """simulate and enforce judge alike and differ only where a decision is
    applied: the closed loop refuses each event below, the open loop takes
    the recorded event as fact and delivers it."""

    @staticmethod
    def _judge(mode, config, subscribed, prelude, event):
        engine = engine_with(config, mode=mode, subscribed=subscribed)
        for earlier in prelude:
            engine.on_event(earlier)
        return engine.on_event(event)

    @pytest.mark.parametrize("config, subscribed, prelude, event, enforce_error",
                             REFUSAL_SITES)
    def test_simulate_refuses_enforce_delivers(
        self, config, subscribed, prelude, event, enforce_error
    ):
        assert not self._judge("simulate", config, subscribed, prelude, event).deliver
        if enforce_error is not None:
            with pytest.raises(enforce_error):
                self._judge("enforce", config, subscribed, prelude, event)
        else:
            assert self._judge("enforce", config, subscribed, prelude, event).deliver

    def test_an_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="'x'"):
            PolicyEngine(mode="x")

    def test_a_running_record_is_refused_before_the_registry_admits_it(self):
        """A record built running has no activation for the engine to stop:
        pre-registering it is a ValueError naming it, and neither the engine
        nor the registry keeps it, so its scope stays free."""
        engine = PolicyEngine(default_policies(), "chrome", mode="enforce")
        running = SwRecord("sw-run", Origin.parse(ORIGIN), Scope("/"), f"{ORIGIN}/sw.js",
                           state=SwState.RUNNING)
        with pytest.raises(ValueError, match="'sw-run'"):
            engine.register_record(running)
        assert engine.states() == {}
        engine.register_record(fresh_record())
        assert engine.states() == {"sw-1": SwState.ACTIVATED}
        assert engine.run([ev(0, "push", push_id="a")]).running_intervals == {"sw-1": [(0, 0)]}


class TestRecords:
    """Actions, violations and notices are immutable tuple records; a
    decision is a slotted record that compares by value."""

    RECORDS = {
        ActionEntry: ("ts", "sw_id", "action", "reason"),
        ViolationRecord: ("policy_name", "sw_id", "ts", "observed", "threshold"),
        Notice: ("ts", "sw_id", "kind", "detail"),
    }

    @pytest.mark.parametrize("record_type", list(RECORDS), ids=lambda t: t.__name__)
    def test_fields_keep_their_names_and_order(self, record_type):
        fields = self.RECORDS[record_type]
        assert record_type._fields == fields
        values = tuple(f"v{index}" for index in range(len(fields)))
        record = record_type(*values)
        assert record == record_type(**dict(zip(fields, values)))
        assert [getattr(record, name) for name in fields] == list(values)
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record == record_type(*values)

    def test_engine_records_are_built_with_their_types(self):
        engine = engine_with(PolicyConfig((PolicySpec("push_per_hour", Severity.LOW, 1, 60),)),
                             mode="enforce")
        result = engine.run([ev(0, "push", push_id="a"), ev(10, "push", push_id="b"),
                             ev(20_000, "sync")])
        assert {type(a) for a in result.actions} == {ActionEntry}
        assert result.actions[0] == ActionEntry(10, "sw-1", EnforcementAction.THROTTLE_EVENT,
                                                "push_per_hour")
        assert type(result.violations[0]) is ViolationRecord
        assert result.violations[0].observed == 2
        assert {type(n) for n in result.notices} == {Notice}

    def test_decision_compares_by_value(self):
        first, second = Decision(deliver=True), Decision(True)
        assert first == second and first.actions == [] and first.actions is not second.actions
        second.notices.append(Notice(0, "sw-1", "k", "d"))
        assert first != second
        assert Decision(deliver=False) != Decision(deliver=True)
        with pytest.raises(AttributeError):
            first.extra = 1  # slotted

    def test_a_subclass_handler_override_is_called(self):
        seen = []

        class CountingEngine(PolicyEngine):
            def _on_push(self, st, event, out):
                seen.append(event.ts)
                super()._on_push(st, event, out)

        engine = CountingEngine(default_policies(), "chrome", mode="enforce")
        engine.register_record(fresh_record())
        engine.run([ev(0, "push", push_id="a"), ev(5, "sync"), ev(9, "push", push_id="b")])
        assert seen == [0, 9]
