"""The engine and forensics agree about one trace.

Forensics is a second implementation that checks the engine: it shares
definitions with it, never state. On every generator trace and on seeded
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
"""

import random

import pytest

from sw_sentinel.forensics import analyze_trace
from sw_sentinel.policy import PROFILES, PolicyEngine, default_policies
from sw_sentinel.scenarios import Scenario, generate

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
