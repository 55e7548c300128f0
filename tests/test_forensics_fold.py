"""``forensics.analyze_trace`` folds a trace in one forward pass.

Below is the analysis it replaced, kept as the reference, in the way
``ScanEngine`` keeps the old clock (its changes since: a bracket with no
sw_id belongs to no worker, as in both layers, and a programmatic close
counts a delta only while its notification is visible, by the browser's rule
the engine applies, written out here on its own): a whole-trace bracket pass
(``bracket_intervals``), a split by worker, then per-worker loops with one
``classify_background_fetch`` bisect per worker fetch. On every generator
trace, on the traces ``simulate`` delivers, on the benchmark's fleet and on
seeded random traces crowded onto few timestamps, the fold must return equal
reports or raise the same exception with the same message.
"""

import importlib.util
import json
import random
import sys
from bisect import bisect_right
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterable, Mapping, Optional, Sequence

import pytest

from sw_sentinel import forensics, scenarios, trace
from sw_sentinel.domains import registrable_domain, url_registrable_domain
from sw_sentinel.forensics import BehaviorReport, analyze_trace
from sw_sentinel.model import Origin
from sw_sentinel.policy import PROFILES
from sw_sentinel.scenarios import Scenario, generate, simulate
from sw_sentinel.trace import (DAY_MS, HOUR_MS, TraceEvent, UnbalancedBrackets, day_segments,
                               is_activity, read_trace)

from test_policy_clock import ALL_GENERATORS, _params, merged_fleet

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


# -- the reference: the parent's helpers and analysis, unchanged -------------

def bracket_intervals(
    events: Iterable[TraceEvent],
) -> dict[str, list[tuple[int, int]]]:
    """Merged [fetch_event_start, fetch_event_end] intervals per sw_id.

    Nested brackets for one worker collapse into a single interval (depth
    counting). Raises UnbalancedBrackets on an end without a start or a
    start left open at trace end.
    """
    depth: dict[str, int] = {}
    open_at: dict[str, int] = {}
    out: dict[str, list[tuple[int, int]]] = {}
    for event in events:
        if event.sw_id is None:
            continue
        if event.kind == "fetch_event_start":
            sw = event.sw_id
            if depth.get(sw, 0) == 0:
                open_at[sw] = event.ts
            depth[sw] = depth.get(sw, 0) + 1
        elif event.kind == "fetch_event_end":
            sw = event.sw_id
            if depth.get(sw, 0) == 0:
                raise UnbalancedBrackets(
                    f"fetch_event_end at ts {event.ts} for {sw!r} has no open start"
                )
            depth[sw] -= 1
            if depth[sw] == 0:
                out.setdefault(sw, []).append((open_at.pop(sw), event.ts))
    for sw, d in depth.items():
        if d:
            raise UnbalancedBrackets(f"fetch_event_start left open for {sw!r}")
    return out


_span_start = itemgetter(0)

FOREGROUND = "foreground"
BACKGROUND_FIRST_PARTY = "background_first_party"
BACKGROUND_THIRD_PARTY = "background_third_party"


def classify_background_fetch(
    events: Iterable[TraceEvent],
    fetch_event: TraceEvent,
    first_party_domains: frozenset[str] | set[str],
    intervals: Optional[dict[str, list[tuple[int, int]]]] = None,
) -> str:
    """Classify a worker-initiated fetch_request.

    Foreground when its timestamp lies inside any fetch-handler bracket of
    the same worker; otherwise background, split by whether the request URL's
    registrable domain belongs to the first-party set (worker origin plus
    importScripts domains). Pass precomputed ``intervals``, as
    bracket_intervals returns them, when classifying many fetches from one
    trace: a worker's intervals are sorted and disjoint, so only the last
    one starting at or before the fetch can hold it.
    """
    if fetch_event.kind != "fetch_request" or not fetch_event.get("initiator_is_sw"):
        raise ValueError("classify_background_fetch expects a worker-initiated fetch_request")
    if intervals is None:
        intervals = bracket_intervals(events)
    spans = intervals.get(fetch_event.sw_id or "", ())
    ts = fetch_event.ts
    index = bisect_right(spans, ts, key=_span_start)
    if index and ts <= spans[index - 1][1]:
        return FOREGROUND
    domain = url_registrable_domain(fetch_event.get("url", ""))
    if domain in first_party_domains:
        return BACKGROUND_FIRST_PARTY
    return BACKGROUND_THIRD_PARTY


def reference_analyze_trace(
    events: Sequence[TraceEvent],
    sw_metadata: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> dict[str, BehaviorReport]:
    """Per-worker BehaviorReport for a valid trace.

    ``sw_metadata`` maps sw_id to {origin, rank, import_domains}; import
    domains are treated as first-party when classifying background fetches.
    """
    sw_metadata = sw_metadata or {}
    if not events:
        return {}
    t0 = events[0].ts
    trace_end = events[-1].ts
    intervals = bracket_intervals(events)

    per_sw: dict[str, list[TraceEvent]] = {}
    for event in events:
        if event.sw_id is not None:
            per_sw.setdefault(event.sw_id, []).append(event)

    reports: dict[str, BehaviorReport] = {}
    for sw_id, sw_events in per_sw.items():
        meta = sw_metadata.get(sw_id, {})
        report = BehaviorReport(sw_id=sw_id)
        report.import_origin_count = len(meta.get("import_domains", ()))

        # Hour-slot push counts up to the worker's last push.
        push_slots = [(e.ts - t0) // HOUR_MS for e in sw_events if e.kind == "push"]
        if push_slots:
            report.pushes_per_hour_slots = [0] * (max(push_slots) + 1)
            for slot in push_slots:
                report.pushes_per_hour_slots[slot] += 1

        # Activations: first activity -> terminate (right-censored at end).
        activations: list[tuple[int, int]] = []
        start: Optional[int] = None
        for event in sw_events:
            if start is None and is_activity(event):
                start = event.ts
            elif start is not None and event.kind == "terminate":
                activations.append((start, event.ts))
                start = None
        if start is not None:
            activations.append((start, trace_end))
            report.right_censored_activation = True
        report.exec_minutes_per_activation = [
            (end - begin) / 60_000 for begin, end in activations
        ]

        # Execution split across virtual days, zero-filled over the trace span.
        day_totals = [0.0] * ((trace_end - t0) // DAY_MS + 1)
        for begin, end in activations:
            for day, ms in day_segments(begin, end, t0):
                day_totals[day] += ms / 60_000
        report.exec_minutes_per_day = day_totals

        # Background third-party fetches per activation.
        first_party = {registrable_domain(Origin.parse(sw_events[0].origin).host)}
        first_party |= set(meta.get("import_domains", ()))
        # A worker fetch is itself activity, so an activation holds it. The
        # fetches come in ts order, and so do the activations' ends, so one
        # forward pointer finds the first activation that holds each fetch.
        counts = [0] * len(activations)
        index = 0
        for event in sw_events:
            if event.kind != "fetch_request" or not event.get("initiator_is_sw"):
                continue
            verdict = classify_background_fetch(
                events, event, first_party, intervals=intervals
            )
            if verdict != BACKGROUND_THIRD_PARTY:
                continue
            while activations[index][1] < event.ts:
                index += 1
            counts[index] += 1
        report.bg_third_party_fetches_per_activation = counts

        # Programmatic close deltas of visible notifications: one is visible
        # from its show until a click or close of its notif_id, or a later
        # show of its tag.
        visible: dict[str, tuple[int, Optional[str]]] = {}
        for event in sw_events:
            notif_id = event.get("notif_id", "")
            if event.kind == "notification_show":
                tag = event.get("tag")
                visible = {other: shown for other, shown in visible.items()
                           if tag is None or shown[1] != tag}
                visible[notif_id] = (event.ts, tag)
            elif event.kind in ("notification_click", "notification_close"):
                shown = visible.pop(notif_id, None)
                if (shown is not None and event.kind == "notification_close"
                        and not event.get("by_user", False)):
                    report.notification_close_deltas_s.append(
                        (event.ts - shown[0]) / 1_000
                    )
        reports[sw_id] = report
    return reports


# -- the oracle --------------------------------------------------------------


def _outcome(analyze, events, meta):
    try:
        return analyze(events, meta)
    except Exception as exc:  # the class and message must match too
        return type(exc), str(exc)


def assert_fold_matches(events, meta=None):
    expected = _outcome(reference_analyze_trace, events, meta)
    assert _outcome(analyze_trace, events, meta) == expected
    return expected


def _meta(events, rng):
    """Import domains for some workers, among them domains the traces fetch."""
    workers = sorted({e.sw_id for e in events if e.sw_id is not None})
    pool = ["victim.example", "tracking.example", "imported.example", "cdn.example"]
    return {sw: {"import_domains": rng.sample(pool, rng.randint(1, 2))}
            for sw in workers if rng.random() < 0.5}


@pytest.mark.parametrize("name", ALL_GENERATORS)
def test_fold_matches_reference_on_generator_traces(name):
    rng = random.Random(name)
    for seed in range(3):
        events = generate(Scenario(name, seed, _params(name, rng)))
        meta = _meta(events, rng)
        assert_fold_matches(events)
        assert_fold_matches(events, meta)
        for profile in PROFILES:
            assert_fold_matches(simulate(events, None, profile).delivered_events, meta)


def load_bench_workloads(monkeypatch):
    """The benchmark's workload module, loaded from its file for one test."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_fold_matches_reference_on_the_bench_fleet(tmp_path, monkeypatch):
    workloads = load_bench_workloads(monkeypatch)
    fleet = workloads.build_fleet(SimpleNamespace(scenarios=scenarios, trace=trace),
                                  tmp_path, 0, "full")
    events = read_trace(str(fleet.trace))
    meta = json.loads(fleet.meta.read_text("utf-8"))
    reports = assert_fold_matches(events, meta)
    assert len(reports) == fleet.workers == 150
    assert sum(map(sum, (r.bg_third_party_fetches_per_activation
                         for r in reports.values()))) > 0


ORIGINS = {"sw-a": "https://a.example", "sw-b": "https://www.b.example", "": "https://c.example"}
URLS = ["https://victim.example/x", "https://a.example/own", "https://cdn.b.example/lib.js",
        "https://imported.example/i.js"]


def random_crowded_trace(rng):
    """Workers whose events crowd onto few timestamps: terminates, worker
    fetches and bracket starts and ends share a ts, activations start and end
    at one ts, brackets come with no sw_id, and now and then an end has no
    start or a start is left open."""
    workers = rng.sample(sorted(ORIGINS), rng.randint(1, 3))
    depth = {sw: 0 for sw in [*workers, None]}
    events = []
    ts = rng.choice([0, 5_000])
    for _ in range(rng.randint(0, 60)):
        roll = rng.random()
        if roll < 0.55:
            pass  # same ts
        elif roll < 0.85:
            ts += rng.choice([1, 10, 500])
        elif roll < 0.95:
            ts += rng.randint(1, 3 * HOUR_MS)
        else:
            ts += rng.randint(DAY_MS // 2, 2 * DAY_MS)
        sw = rng.choice(workers)
        origin = ORIGINS[sw]
        kind = rng.choice(["fetch_request"] * 5 + ["fetch_event_start", "fetch_event_end"] * 2
                          + ["terminate"] * 3 + ["push", "sync", "register",
                                                 "notification_show", "notification_close",
                                                 "page_visit"])
        payload = {}
        if kind in ("fetch_event_start", "fetch_event_end") and rng.random() < 0.15:
            sw = None  # a bracket that names no worker
        if kind == "fetch_event_start":
            depth[sw] += 1
        elif kind == "fetch_event_end":
            if depth[sw] == 0 and rng.random() < 0.97:
                kind = "fetch_event_start"  # mostly keep the brackets balanced
                depth[sw] += 1
            else:
                depth[sw] -= 1
        elif kind == "fetch_request":
            payload = {"url": rng.choice(URLS), "initiator_is_sw": rng.random() < 0.85}
        elif kind == "push":
            payload = {"push_id": f"p{len(events)}"}
        elif kind in ("notification_show", "notification_close"):
            payload = {"notif_id": rng.choice(["n1", "n2"]), "by_user": rng.random() < 0.3}
        elif kind == "page_visit":
            sw = None
        events.append(TraceEvent(ts, kind, origin, sw, "/", payload))
    for sw, open_brackets in depth.items():
        for _ in range(max(0, open_brackets)):
            if rng.random() < 0.97:
                ts += rng.choice([0, 0, 7])
                events.append(TraceEvent(ts, "fetch_event_end", ORIGINS[sw or ""], sw, "/"))
    return events


def _crowded_cases(events):
    """The same-ts orders a fold can get wrong that occur in ``events``."""
    found = set()
    for i, event in enumerate(events):
        same_ts = [e for e in events[i + 1:] if e.ts == event.ts and e.sw_id == event.sw_id]
        later = {e.kind for e in same_ts}
        if event.kind == "fetch_request" and "fetch_event_start" in later:
            found.add("fetch, then a bracket start")
        if event.kind == "terminate" and "fetch_request" in later:
            found.add("terminate, then a fetch")
        if event.kind == "terminate" and "terminate" in later and "fetch_request" in later:
            found.add("two activations at one ts")
        if event.kind.startswith("fetch_event") and event.sw_id is None:
            found.add("bracket with no sw_id")
    return found


def test_fold_matches_reference_on_crowded_random_traces():
    rng = random.Random(414)
    outcomes = {"reports": 0, "unbalanced": 0}
    cases = dict.fromkeys(["fetch, then a bracket start", "terminate, then a fetch",
                           "two activations at one ts", "bracket with no sw_id"], 0)
    for _ in range(3_000):
        events = random_crowded_trace(rng)
        expected = assert_fold_matches(events, _meta(events, rng))
        if isinstance(expected, dict):
            outcomes["reports"] += 1
            for case in _crowded_cases(events):
                cases[case] += 1
        else:
            outcomes["unbalanced"] += 1
    # both outcomes occur, and every crowded order occurs in many reported traces
    assert outcomes["unbalanced"] > 100 and outcomes["reports"] > 2 * outcomes["unbalanced"]
    assert min(cases.values()) > 100, cases


def _ev(ts, kind, sw_id="sw-a", **payload):
    return TraceEvent(ts, kind, ORIGINS.get(sw_id or "", "https://a.example"), sw_id, "/", payload)


def _fetch(ts, sw_id="sw-a"):
    return _ev(ts, "fetch_request", sw_id, url="https://victim.example/x", initiator_is_sw=True)


@pytest.mark.parametrize("events,counts", [
    # a fetch followed at its own ts by a bracket start is foreground
    ([_ev(0, "sync"), _fetch(10), _ev(10, "fetch_event_start"), _ev(20, "fetch_event_end")],
     [0]),
    # so is one at a bracket's end, while one just after it is background
    ([_ev(0, "fetch_event_start"), _ev(10, "fetch_event_end"), _fetch(10), _fetch(11)], [1]),
    # a fetch at the ts of a terminate counts toward the activation that just ended
    ([_ev(0, "sync"), _ev(10, "terminate"), _fetch(10), _fetch(20)], [1, 1]),
    # two zero-length activations at one ts: all three count toward the first
    ([_ev(0, "sync"), _fetch(10), _ev(10, "terminate"), _fetch(10), _ev(10, "terminate"),
      _fetch(10)], [3, 0, 0]),
    # a bracket with no sw_id belongs to no worker, not even the one named ""
    ([_ev(0, "fetch_event_start", None), _fetch(5, ""), _ev(9, "fetch_event_end", None),
      _fetch(9, ""), _fetch(10, "")], [3]),
])
def test_same_ts_fetches_count_where_the_reference_counts_them(events, counts):
    reports = assert_fold_matches(events)
    sw_id = events[1].sw_id
    assert reports[sw_id].bg_third_party_fetches_per_activation == counts


@pytest.mark.parametrize("events", [
    [],
    [_ev(0, "fetch_event_end")],
    [_ev(0, "fetch_event_start", None), _ev(0, "fetch_event_end", "sw-a")],
    [_ev(0, "fetch_event_start", "sw-b"), _ev(1, "fetch_event_start", "sw-a"), _ev(2, "sync")],
    [_ev(0, "sync", "sw-b"), _ev(1, "fetch_event_start", "sw-a"),
     _ev(2, "fetch_event_start", "sw-b")],
])
def test_unbalanced_and_empty_traces_raise_as_the_reference_does(events):
    expected = assert_fold_matches(events)
    assert expected == {} if not events else expected[0] is UnbalancedBrackets


def test_analyze_walks_each_activations_days_once(monkeypatch):
    """Work is counted, not timed: ``analyze_trace`` splits each closed
    activation over the virtual days once, for its minutes per day. Closing
    an ``Activity`` walks no days: the engine's day ledger is its own."""
    walks = 0

    def counted(start, end, t0):
        nonlocal walks
        walks += 1
        return day_segments(start, end, t0)

    monkeypatch.setattr(trace, "day_segments", counted)
    monkeypatch.setattr(forensics, "day_segments", counted)
    reports = analyze_trace(merged_fleet(2, workers=6, names=ALL_GENERATORS))
    closed = sum(len(report.exec_minutes_per_activation) for report in reports.values())
    assert closed > len(reports)
    assert any(sum(1 for minutes in report.exec_minutes_per_day if minutes) > 1
               for report in reports.values())  # some worker runs on two days
    assert walks == closed
