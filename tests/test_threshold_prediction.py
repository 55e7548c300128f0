"""Forensics' minutes predict ``enforce``'s verdicts on the clock rules.

The paper measures workers in the wild to tune enforcement thresholds, which
assumes that a worker's measured metric passes a threshold exactly when the
enforcer acts on it. Here forensics' per-worker peak of a metric predicts
the workers that ``enforce`` violates under a one-rule config, for the two
clock rules: ``exec_per_activation`` (the longest activation) and
``exec_per_day`` (the most execution in one virtual day, which the engine
books in its own day ledger and forensics sums segment by segment).

The engine judges a clock rule at the first ``TICK_MS`` tick after the
crossing, while forensics measures to the millisecond. So the one allowed
difference is a predicted worker that the engine does not violate because
its peak passes the threshold by less than one tick. The open loop applies
no decision, so one rule's verdicts do not depend on the others'.

The engine violates no worker that forensics does not predict, with one
exception, which ``tests/test_open_findings.py`` holds as an open finding:
forensics sums a day's minutes segment by segment in floats, which can fall
an ulp below the day's milliseconds over 60,000 that the engine's day ledger
judges. At a threshold equal to such a peak the engine violates the worker.

Thresholds sit at, just below and just above up to nine quantiles of the
observed peaks (a float apart, and half a tick below), on the generator traces and on seeded fleets whose workers
straddle virtual midnights.
"""

import math
import random

import pytest

from sw_sentinel.forensics import analyze_trace
from sw_sentinel.policy import TICK_MS, PolicyConfig, PolicyEngine, PolicySpec, Severity
from sw_sentinel.scenarios import Scenario, generate

from test_policy_clock import ALL_GENERATORS, _params, merged_fleet

# rule -> (its window, the report field whose per-worker peak it bounds)
CLOCK_RULES = {
    "exec_per_activation": (0, "exec_minutes_per_activation"),
    "exec_per_day": (1440, "exec_minutes_per_day"),
}


def _traces(group):
    """The generator traces, three seeds of each, or four seeded fleets."""
    if group == "generators":
        rng = random.Random("threshold-prediction")
        return [generate(Scenario(name, seed, _params(name, rng)))
                for name in ALL_GENERATORS for seed in range(3)]
    return [merged_fleet(seed, workers=random.Random(seed).randint(3, 8), names=ALL_GENERATORS)
            for seed in range(4)]


def _thresholds(peaks):
    """At, just below and just above up to nine quantiles of ``peaks``, all
    > 0: one float apart, and half a tick below, where the tick shows."""
    ordered = sorted(peak for peak in peaks if peak > 0)
    if not ordered:
        return []
    quantiles = {ordered[(len(ordered) - 1) * q // 8] for q in range(9)}
    half_tick = TICK_MS / 2 / 60_000
    near = {value for peak in quantiles
            for value in (peak - half_tick, math.nextafter(peak, 0), peak,
                          math.nextafter(peak, math.inf))}
    return sorted(value for value in near if value > 0)


@pytest.mark.parametrize("group", ["generators", "fleets"])
@pytest.mark.parametrize("rule", sorted(CLOCK_RULES))
def test_forensics_peaks_predict_clock_rule_violations(rule, group):
    window, field = CLOCK_RULES[rule]
    judged = agreed = missed = 0
    for events in _traces(group):
        peaks = {sw_id: max(getattr(report, field), default=0.0)
                 for sw_id, report in analyze_trace(events).items()}
        for threshold in _thresholds(peaks.values()):
            config = PolicyConfig((PolicySpec(rule, Severity.LOW, threshold, window),))
            run = PolicyEngine(config, "chrome", mode="enforce").run(events)
            violated = {violation.sw_id for violation in run.violations}
            predicted = {sw_id for sw_id, peak in peaks.items() if peak > threshold}
            for sw_id in violated - predicted:  # the open finding: a day's float sum
                assert rule == "exec_per_day" and math.isclose(
                    peaks[sw_id], threshold, rel_tol=1e-12), (sw_id, threshold)
            for sw_id in predicted - violated:  # passed by less than one tick
                assert (peaks[sw_id] - threshold) * 60_000 < TICK_MS, (sw_id, threshold)
            judged += 1
            agreed += len(violated & predicted)
            missed += len(predicted - violated)
    assert judged >= 20 and agreed >= 5 and missed >= 5  # real verdicts, and the tick
