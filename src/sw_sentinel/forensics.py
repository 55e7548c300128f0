"""Offline trace analysis: per-worker behavior aggregates, cross-worker
percentiles, CDF export, and rank-band grouping.

The timeline is cut into tumbling slots (one hour) and virtual days (24 h)
anchored at the first trace event. An activation is the span from a
worker's first execution-implying event to its terminate event; a worker
still running at trace end contributes a right-censored duration.
``analyze_trace`` makes one forward pass in which each worker is a
``trace.Activity``, the record the engine keeps too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Sequence, TextIO

from .domains import registrable_domain
from .model import Origin, SwSentinelError
from .trace import (DAY_MS, HOUR_MS, KINDS, Activity, TraceEvent, UnbalancedBrackets,
                    background_third_party, day_segments, is_activity)


class EmptyInput(SwSentinelError):
    pass


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100*n)-th smallest value."""
    if not values:
        raise EmptyInput("percentile of empty values")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100]: {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


class RankBand(NamedTuple):
    label: str
    lo: int
    hi: int

    def holds(self, rank: int) -> bool:
        return self.lo <= rank <= self.hi


@dataclass
class BehaviorReport:
    """Aggregates for one worker, derived solely from one trace."""

    sw_id: str
    pushes_per_hour_slots: list[int] = field(default_factory=list)
    exec_minutes_per_activation: list[float] = field(default_factory=list)
    exec_minutes_per_day: list[float] = field(default_factory=list)
    bg_third_party_fetches_per_activation: list[int] = field(default_factory=list)
    import_origin_count: int = 0
    notification_close_deltas_s: list[float] = field(default_factory=list)
    right_censored_activation: bool = False


class _Worker(Activity):
    """What ``analyze_trace`` keeps of one worker while it folds the trace."""

    __slots__ = ("report", "end_ts", "end_index", "bg_ts", "bg_index", "bg_n")

    def __init__(self, report: BehaviorReport, first_party: frozenset[str]) -> None:
        super().__init__(first_party)
        self.report = report
        # the ts of the last activation's end, and the first activation that ended then
        self.end_ts: Optional[int] = None
        self.end_index = 0
        # the ts of the latest background third-party fetches, their activation, how many
        self.bg_ts: Optional[int] = None
        self.bg_index = self.bg_n = 0


def analyze_trace(
    events: Sequence[TraceEvent],
    sw_metadata: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> dict[str, BehaviorReport]:
    """Per-worker BehaviorReport for a valid trace, in one forward pass.

    ``sw_metadata`` maps sw_id to {origin, rank, import_domains}; the
    registrable domain of each import domain is first party to
    ``trace.background_third_party``, as the worker's own is. A background
    fetch counts toward the first activation that ends at or after it. A
    programmatic close yields a close delta only while the worker's
    ``trace.Activity``, by the engine's visibility rule, holds its
    notification visible. Raises UnbalancedBrackets on an end without a
    start or a start left open at trace end. An event with no sw_id belongs
    to no worker, and neither do its brackets. Nor does a ``page_visit`` or
    ``permission_grant``, the origin's events: as in the engine, its sw_id
    makes no worker and no report.
    """
    sw_metadata = sw_metadata or {}
    if not events:
        return {}
    t0 = ts = events[0].ts
    workers: dict[str, _Worker] = {}
    started: dict[str, _Worker] = {}  # workers in the order their first bracket opened
    for event in events:
        ts, kind, origin, sw_id, _scope, payload = event
        if sw_id is None or KINDS[kind].of_origin:
            continue
        w = workers.get(sw_id)
        if w is None:
            imports = sw_metadata.get(sw_id, {}).get("import_domains", ())
            w = workers[sw_id] = _Worker(
                BehaviorReport(sw_id=sw_id, import_origin_count=len(imports)),
                first_party=frozenset({registrable_domain(Origin.parse(origin).host),
                                       *map(registrable_domain, imports)}))
        if w.start is None and is_activity(event):
            w.wake(ts)
            w.report.bg_third_party_fetches_per_activation.append(0)
        if kind == "fetch_request":
            if not background_third_party(w, ts, payload):
                continue
            counts = w.report.bg_third_party_fetches_per_activation
            index = w.end_index if w.end_ts == ts else len(counts) - 1
            counts[index] += 1
            if w.bg_ts == ts:
                w.bg_n += 1
            else:
                w.bg_ts, w.bg_index, w.bg_n = ts, index, 1
        elif kind == "push":
            slots = w.report.pushes_per_hour_slots
            slot = (ts - t0) // HOUR_MS
            if slot >= len(slots):
                slots.extend([0] * (slot + 1 - len(slots)))
            slots[slot] += 1
        elif kind == "terminate":
            if w.start is not None:
                w.stop(ts)
                if ts != w.end_ts:  # the activations are numbered as their counts are
                    w.end_ts = ts
                    w.end_index = len(w.report.bg_third_party_fetches_per_activation) - 1
        elif KINDS[kind].bracket:
            # Background fetches counted at the ts where a span opens were inside it.
            if w.step(event):
                started.setdefault(sw_id, w)
                if w.bg_ts == ts and w.bg_n:
                    w.report.bg_third_party_fetches_per_activation[w.bg_index] -= w.bg_n
                    w.bg_n = 0
        elif kind == "notification_show":
            w.show(ts, payload)
        elif kind == "notification_click":
            w.hide(payload)
        elif kind == "notification_close":
            show_ts = w.hide(payload)
            if show_ts is not None and not payload.get("by_user", False):
                w.report.notification_close_deltas_s.append((ts - show_ts) / 1_000)
    for key, state in started.items():
        if state.depth:
            raise UnbalancedBrackets(f"fetch_event_start left open for {key!r}")
    days = (ts - t0) // DAY_MS + 1
    for w in workers.values():
        report = w.report
        if w.start is not None:  # still running at trace end: right-censored
            w.stop(ts)
            report.right_censored_activation = True
        report.exec_minutes_per_activation = [(end - begin) / 60_000 for begin, end in w.intervals]
        totals = report.exec_minutes_per_day = [0.0] * days
        for begin, end in w.intervals:  # minutes by segment: a per-day ms sum rounds differently
            for day, ms in day_segments(begin, end, t0):
                totals[day] += ms / 60_000
    return {sw_id: w.report for sw_id, w in workers.items()}


_METRIC_FIELDS = {
    "pushes_per_hour": "pushes_per_hour_slots",
    "exec_minutes_per_activation": "exec_minutes_per_activation",
    "exec_minutes_per_day": "exec_minutes_per_day",
    "bg_fetches_per_activation": "bg_third_party_fetches_per_activation",
    "notification_close_deltas_s": "notification_close_deltas_s",
}

METRICS = tuple(_METRIC_FIELDS)


@dataclass
class PercentileSummary:
    """Distribution summary of one metric over a group of workers."""

    metric: str
    count: int
    p50: float
    p90: float
    p95: float
    p99: float
    max: float
    sw_peaks: tuple[float, ...] = ()

    def affected_sw_count_at(self, threshold: float) -> int:
        """Workers with any window/activation value above the threshold."""
        return sum(1 for peak in self.sw_peaks if peak > threshold)


def _summary(metric: str, values: list[float], peaks: list[float]) -> PercentileSummary:
    if not values:
        raise EmptyInput(f"no values for metric {metric!r}")
    return PercentileSummary(
        metric=metric,
        count=len(values),
        p50=percentile(values, 50),
        p90=percentile(values, 90),
        p95=percentile(values, 95),
        p99=percentile(values, 99),
        max=max(values),
        sw_peaks=tuple(peaks),
    )


def pooled(reports: Iterable[BehaviorReport], metric: str) -> tuple[list[float], list[float]]:
    """The one pooling of a metric: every value of ``metric`` over ``reports``,
    in order, and the peak of each report that has a value."""
    if metric not in _METRIC_FIELDS:
        raise KeyError(f"unknown metric {metric!r}; one of {sorted(_METRIC_FIELDS)}")
    field_name = _METRIC_FIELDS[metric]
    values: list[float] = []
    peaks: list[float] = []
    for report in reports:
        series = getattr(report, field_name)
        values.extend(series)
        if series:
            peaks.append(max(series))
    return values, peaks


def summarize(
    reports: Mapping[str, BehaviorReport],
    metric: str,
    bands: Optional[Sequence[RankBand]] = None,
    sw_metadata: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> dict[str, PercentileSummary]:
    """Per-band and overall percentile summaries for one metric."""
    sw_metadata = sw_metadata or {}
    out = {"overall": _summary(metric, *pooled(reports.values(), metric))}
    for band in bands or ():
        members = [
            report
            for sw_id, report in reports.items()
            if band.holds(int(sw_metadata.get(sw_id, {}).get("rank", -1)))
        ]
        band_values, band_peaks = pooled(members, metric)
        if band_values:
            out[band.label] = _summary(metric, band_values, band_peaks)
    return out


def export_cdf(values: Sequence[float], out: TextIO) -> list[tuple[float, float]]:
    """Write (value, cumulative_fraction) CSV rows for the sorted unique
    values to the text file ``out``; the final fraction is exactly 1.0.
    Returns the rows. A NaN has no rank: it raises ValueError."""
    rows: list[tuple[float, float]] = []
    if values:
        ordered = sorted(values)
        n = len(ordered)
        seen = 0
        index = 0
        while index < n:
            value = ordered[index]
            if value != value:
                raise ValueError("a NaN has no rank in a CDF")
            while index < n and ordered[index] == value:
                index += 1
                seen += 1
            rows.append((value, seen / n))
    writer = csv.writer(out)
    writer.writerow(["value", "cumulative_fraction"])
    for value, fraction in rows:
        writer.writerow([repr(value) if isinstance(value, float) else value, repr(fraction)])
    return rows
