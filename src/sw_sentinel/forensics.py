"""Offline trace analysis: per-worker behavior aggregates, cross-worker
percentiles, CDF export, and rank-band grouping.

The timeline is cut into tumbling slots (one hour) and virtual days (24 h)
anchored at the first trace event. An activation is the span from a
worker's first execution-implying event to its terminate event; a worker
still running at trace end contributes a right-censored duration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, TextIO

from .domains import registrable_domain
from .model import Origin, SwSentinelError
from .policy import DAY_MS, HOUR_MS, day_segments
from .trace import (
    BACKGROUND_THIRD_PARTY,
    TraceEvent,
    bracket_intervals,
    classify_background_fetch,
)


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


@dataclass(frozen=True)
class RankBand:
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


# Events implying the worker is executing (used for activation boundaries).
_ACTIVITY_KINDS = frozenset(
    {"install", "activate", "update_found", "push", "sync", "periodicsync",
     "fetch_event_start", "notification_click", "notification_show"}
)


def _is_activity(event: TraceEvent) -> bool:
    if event.kind in _ACTIVITY_KINDS:
        return True
    return event.kind == "fetch_request" and bool(event.get("initiator_is_sw"))


def analyze_trace(
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
            if start is None and _is_activity(event):
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

        # Programmatic close deltas paired by notif_id.
        shown: dict[str, int] = {}
        for event in sw_events:
            if event.kind == "notification_show":
                shown[event.get("notif_id", "")] = event.ts
            elif event.kind == "notification_close" and not event.get("by_user", False):
                show_ts = shown.get(event.get("notif_id", ""))
                if show_ts is not None:
                    report.notification_close_deltas_s.append(
                        (event.ts - show_ts) / 1_000
                    )
        reports[sw_id] = report
    return reports


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


def summarize(
    reports: Mapping[str, BehaviorReport],
    metric: str,
    bands: Optional[Sequence[RankBand]] = None,
    sw_metadata: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> dict[str, PercentileSummary]:
    """Per-band and overall percentile summaries for one metric."""
    if metric not in _METRIC_FIELDS:
        raise KeyError(f"unknown metric {metric!r}; one of {sorted(_METRIC_FIELDS)}")
    field_name = _METRIC_FIELDS[metric]
    sw_metadata = sw_metadata or {}

    def collect(selected: Iterable[BehaviorReport]) -> tuple[list[float], list[float]]:
        values: list[float] = []
        peaks: list[float] = []
        for report in selected:
            series = list(getattr(report, field_name))
            values.extend(series)
            if series:
                peaks.append(max(series))
        return values, peaks

    out: dict[str, PercentileSummary] = {}
    values, peaks = collect(reports.values())
    out["overall"] = _summary(metric, values, peaks)
    for band in bands or ():
        members = [
            report
            for sw_id, report in reports.items()
            if band.holds(int(sw_metadata.get(sw_id, {}).get("rank", -1)))
        ]
        band_values, band_peaks = collect(members)
        if band_values:
            out[band.label] = _summary(metric, band_values, band_peaks)
    return out


def export_cdf(values: Sequence[float], out: TextIO) -> list[tuple[float, float]]:
    """Write (value, cumulative_fraction) CSV rows for the sorted unique
    values to the text file ``out``; the final fraction is exactly 1.0.
    Returns the rows."""
    rows: list[tuple[float, float]] = []
    if values:
        ordered = sorted(values)
        n = len(ordered)
        seen = 0
        index = 0
        while index < n:
            value = ordered[index]
            while index < n and ordered[index] == value:
                index += 1
                seen += 1
            rows.append((value, seen / n))
    writer = csv.writer(out)
    writer.writerow(["value", "cumulative_fraction"])
    for value, fraction in rows:
        writer.writerow([repr(value) if isinstance(value, float) else value, repr(fraction)])
    return rows
