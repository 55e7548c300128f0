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
from sw_sentinel.policy import PolicyEngine
from sw_sentinel.scenarios import Scenario, generate, simulate
from sw_sentinel.trace import TraceEvent, parse_trace

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
