"""The open findings, as tests that fail while their bug stands.

Each case asserts the behaviour a ROADMAP item promises and is a strict
xfail: the PR that mends the item makes its case pass, strict turns that
into a failure, and the PR then makes the case a plain test. The cases
that ``tests/test_layer_agreement.py`` already tolerates (a bracket left
open at trace end, and the three same-ts orders) stay there. Every case
runs in process, on a few dozen events.
"""

import pytest

from sw_sentinel import scenarios
from sw_sentinel.forensics import analyze_trace
from sw_sentinel.policy import PolicyConfig, PolicyEngine, PolicySpec, Severity
from sw_sentinel.scenarios import Scenario, generate, simulate
from sw_sentinel.trace import Activity, TraceEvent, parse_trace

from test_golden_outputs import CLICK_AND_REFUSE


def _verdicts(events, sw_id):
    """The actions and violations ``enforce`` reports for ``sw_id``."""
    run = PolicyEngine(mode="enforce").run(events)
    return ([action for action in run.actions if action.sw_id == sw_id],
            [violation for violation in run.violations if violation.sw_id == sw_id])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the hour slots are anchored at the "
                                       "trace's first event, not at the worker's")
def test_an_unrelated_earlier_register_leaves_a_workers_verdicts_alone():
    origin = "https://a.example"
    alone = [TraceEvent(1_800_000, "register", origin, "a", "/")] + [
        TraceEvent(1_800_000 + 120_000 * i, "push", origin, "a", "/", {"push_id": f"p{i}"})
        for i in range(20)]
    beside = [TraceEvent(0, "register", "https://b.example", "b", "/"), *alone]
    assert _verdicts(beside, "a") == _verdicts(alone, "a")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: a stop caused by policy never "
                                       "appears in the delivered trace")
def test_an_enforce_replay_of_a_delivered_trace_adds_no_violation():
    run = simulate(Scenario("webbot", 1), browser_profile="chrome")
    assert run.violations == []
    replay = PolicyEngine(profile="chrome", mode="enforce").run(run.delivered_events)
    assert replay.violations == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: forensics folds the events a "
                                       "worker's capabilities refuse")
def test_analyze_gives_a_worker_no_activation_for_refused_events():
    reports = analyze_trace(parse_trace(CLICK_AND_REFUSE))
    assert reports["sw-push-only"].exec_minutes_per_activation == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: generate builds a trace of any "
                                       "count before the span bound can refuse it")
def test_generate_refuses_a_count_past_its_bound_before_building(monkeypatch):
    def build(*_args, **_kwargs):
        raise RuntimeError("the generator ran")

    monkeypatch.setitem(scenarios.GENERATORS, "tag_reuser", build)
    with pytest.raises(ValueError, match="n_pushes"):
        generate(Scenario("tag_reuser", 0, {"n_pushes": 10**8}))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 21: forensics sums a day's minutes "
                                       "segment by segment, 1 ulp below the day's ms / 60,000")
def test_enforce_violates_no_worker_at_forensics_day_peak():
    """Two activations of 180,000 and 175,000 ms in one day: forensics gives
    3.0 + 2.9166666666666665 = 5.916666666666666 minutes, below the day's
    355,000 ms / 60,000 = 5.916666666666667. At that peak as the threshold,
    forensics predicts no violation; the engine, whose day ledger sums
    milliseconds, finds the day over budget."""
    origin = "https://a.example"
    events = [TraceEvent(ts, kind, origin, "sw-a", "/") for ts, kind in (
        (0, "sync"), (180_000, "terminate"), (181_000, "sync"), (356_000, "terminate"))]
    peak = max(analyze_trace(events)["sw-a"].exec_minutes_per_day)
    config = PolicyConfig((PolicySpec("exec_per_day", Severity.LOW, peak, 1440),))
    assert PolicyEngine(config, mode="enforce").run(events).violations == []


class _CountingVisible(dict):
    """A worker's ``visible`` map that counts the entries its ``items()`` yields."""

    touched = 0

    def items(self):
        for item in super().items():
            self.touched += 1
            yield item


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: each tagged show scans every "
                                       "visible notification for its tag")
def test_tagged_shows_touch_a_bounded_number_of_visible_entries():
    """Work is counted, not timed: n shows with distinct tags and no close
    may touch at most 4n visible entries. A scan per show touches n²/2."""
    n = 2_000
    activity = Activity(frozenset())
    activity.visible = visible = _CountingVisible()
    for i in range(n):
        assert not activity.show(i, {"notif_id": f"n{i}", "title": "t", "tag": f"tag{i}"})
    assert len(visible) == n
    assert visible.touched <= 4 * n
