"""Deterministic workload generators and the closed-loop simulator.

Each generator reproduces one abuse (or benign) workload as a canonical
trace on a virtual millisecond clock starting at 0. Generation is pure:
the same (name, params, seed, duration) always yields a byte-identical
trace. ``simulate`` then feeds a generated trace through the policy engine
so enforcement (throttle / terminate / deregister) suppresses the events a
real browser would never have let happen.

Worker termination is explicit in generated traces: after a worker's last
activity plus its handler time plus the 30 s idle timeout, a ``terminate``
event marks the process exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional, Sequence

from .policy import DAY_MS, HOUR_MS, PolicyConfig, PolicyEngine, SimulationResult
from .trace import _NO_PAYLOAD, TraceEvent, new_record

IDLE_TIMEOUT_MS = 30_000
# How long a generated worker's handler runs after its last activity.
HANDLER_MS = 500
TRACKING_SERVER = "https://tracking.example"


class SplitMix64:
    """Tiny splitmix64 PRNG: stable across platforms and Python versions."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n


def _mk(ts: int, kind: str, origin: str, sw_id: Optional[str] = None,
        scope: Optional[str] = None, payload: Mapping[str, Any] = _NO_PAYLOAD) -> TraceEvent:
    return new_record(TraceEvent, (ts, kind, origin, sw_id, scope, payload))


def _ro(**payload: Any) -> Mapping[str, Any]:
    return MappingProxyType(payload)  # read-only, over a dict nothing else holds


_GRANT = _ro(permission="notifications")


def _idle_terminates(activity_ts: Sequence[int], settle_ms: int, origin: str,
                     sw_id: str, scope: str) -> list[TraceEvent]:
    """Terminate events after every activity gap longer than settle_ms."""
    out = []
    for prev, nxt in zip(activity_ts, activity_ts[1:]):
        if nxt - prev > settle_ms:
            out.append(_mk(prev + settle_ms, "terminate", origin, sw_id, scope))
    if activity_ts:
        out.append(_mk(activity_ts[-1] + settle_ms, "terminate", origin, sw_id, scope))
    return out


def _sorted(events: list[TraceEvent]) -> list[TraceEvent]:
    events.sort(key=itemgetter(0))  # by ts; stable: same-ts events keep logical order
    return events


def gen_webbot(seed: int, duration_ms: int = 600_000) -> list[TraceEvent]:
    """Self-update loop: the activate handler waits 25 s, calls update, the
    server always has a "fresh" script, and the cycle repeats. A simulated
    browser restart at half time re-kindles the loop through a sync event.
    """
    del seed  # the loop is fully deterministic
    origin, sw, scope = "https://webbot.example", "sw-webbot", "/"
    events = [
        _mk(0, "register", origin, sw, scope),
        _mk(0, "install", origin, sw, scope),
        _mk(0, "activate", origin, sw, scope),
    ]
    half = duration_ms // 2
    version = 1

    def run_segment(start: int, end: int) -> None:
        nonlocal version
        t = start
        while t + 25_000 < end:
            t += 25_000
            version += 1
            events.append(_mk(t, "update_check", origin, sw, scope))
            events.append(_mk(t, "update_found", origin, sw, scope, _ro(version=version)))
            events.append(_mk(t, "install", origin, sw, scope))
            events.append(_mk(t, "activate", origin, sw, scope))

    run_segment(0, half)
    events.append(_mk(half, "terminate", origin, sw, scope))  # browser closed
    events.append(_mk(half + 1_000, "sync", origin, sw, scope))  # re-opened
    run_segment(half + 1_000, duration_ms)
    return _sorted(events)


def gen_push_flood(
    seed: int,
    pushes_per_hour: int,
    silent: bool = False,
    renew_after: Optional[int] = None,
    duration_ms: int = 3 * HOUR_MS,
) -> list[TraceEvent]:
    """Push events uniformly jittered within each hour slot.

    ``silent`` drops the notification_show that normally follows each push;
    ``renew_after`` emits a subscription renewal (permission_grant) after
    every n-th push, reproducing the silent-push counter reset evasion.
    """
    rng = SplitMix64(seed)
    origin, sw, scope = "https://pushmill.example", "sw-pushflood", "/"
    events = [
        _mk(0, "register", origin, sw, scope),
        _mk(0, "permission_grant", origin, payload=_GRANT),
    ]
    push_ts: list[int] = []
    slot_start = 0
    while slot_start < duration_ms:
        slot_len = min(HOUR_MS, duration_ms - slot_start)
        count = pushes_per_hour if slot_len == HOUR_MS else (
            pushes_per_hour * slot_len // HOUR_MS
        )
        push_ts.extend(sorted(slot_start + rng.below(slot_len) for _ in range(count)))
        slot_start += HOUR_MS

    activity: list[int] = []
    for idx, ts in enumerate(push_ts, start=1):
        events.append(_mk(ts, "push", origin, sw, scope, _ro(push_id=f"p{idx:05d}")))
        activity.append(ts)
        if not silent:
            events.append(_mk(ts + 200, "notification_show", origin, sw, scope,
                              _ro(notif_id=f"n{idx:05d}", title="Fresh update")))
            activity.append(ts + 200)
        if renew_after is not None and idx % renew_after == 0:
            events.append(_mk(ts + 350, "permission_grant", origin, payload=_GRANT))
    events.extend(
        _idle_terminates(activity, HANDLER_MS + IDLE_TIMEOUT_MS, origin, sw, scope)
    )
    return _sorted(events)


def gen_ddos(
    seed: int,
    req_per_s: int,
    burst_minutes: int,
    target: str = "https://victim.example/hit",
) -> list[TraceEvent]:
    """One push-triggered activation issuing req_per_s background fetches per
    second against the target for burst_minutes."""
    del seed  # evenly spaced requests; nothing to jitter
    origin, sw, scope = "https://stresser.example", "sw-ddos", "/"
    start = 1_000
    events = [
        _mk(0, "register", origin, sw, scope),
        _mk(0, "permission_grant", origin, payload=_GRANT),
        _mk(start, "push", origin, sw, scope, _ro(push_id="p00001")),
    ]
    fetch = _ro(url=target, initiator_is_sw=True)
    events += [new_record(TraceEvent, (start + second * 1_000 + (i * 1_000) // req_per_s,
                                       "fetch_request", origin, sw, scope, fetch))
               for second in range(burst_minutes * 60) for i in range(req_per_s)]
    last = start + burst_minutes * 60_000
    events.append(_mk(last + IDLE_TIMEOUT_MS, "terminate", origin, sw, scope))
    return _sorted(events)


def gen_notification_hider(seed: int, duration_ms: int = 600_000) -> list[TraceEvent]:
    """Each push shows a notification and programmatically closes it within
    100 ms, keeping the worker active while hiding the evidence."""
    del seed
    origin, sw, scope = "https://hushpush.example", "sw-hider", "/"
    events = [
        _mk(0, "register", origin, sw, scope),
        _mk(0, "permission_grant", origin, payload=_GRANT),
    ]
    activity = []
    idx = 0
    ts = 1_000
    while ts < duration_ms:
        idx += 1
        events.append(_mk(ts, "push", origin, sw, scope, _ro(push_id=f"p{idx:05d}")))
        events.append(_mk(ts + 40, "notification_show", origin, sw, scope,
                          _ro(notif_id=f"nh{idx:05d}", title="nothing to see")))
        events.append(_mk(ts + 140, "notification_close", origin, sw, scope,
                          _ro(notif_id=f"nh{idx:05d}", by_user=False)))
        activity.extend((ts, ts + 40, ts + 140))
        ts += 60_000
    events.extend(
        _idle_terminates(activity, HANDLER_MS + IDLE_TIMEOUT_MS, origin, sw, scope)
    )
    return _sorted(events)


def gen_tag_reuser(seed: int, n_pushes: int) -> list[TraceEvent]:
    """All notifications share one tag, so each new push replaces the
    previous notification instead of stacking up."""
    del seed
    origin, sw, scope = "https://samenote.example", "sw-tagreuse", "/"
    events = [
        _mk(0, "register", origin, sw, scope),
        _mk(0, "permission_grant", origin, payload=_GRANT),
    ]
    activity = []
    for idx in range(1, n_pushes + 1):
        ts = 1_000 + (idx - 1) * 60_000
        events.append(_mk(ts, "push", origin, sw, scope, _ro(push_id=f"p{idx:05d}")))
        events.append(_mk(ts + 40, "notification_show", origin, sw, scope,
                          _ro(notif_id=f"tr{idx:05d}", title="Same Notification!",
                              tag="notification-update-tag")))
        activity.extend((ts, ts + 40))
    events.extend(
        _idle_terminates(activity, HANDLER_MS + IDLE_TIMEOUT_MS, origin, sw, scope)
    )
    return _sorted(events)


def gen_tracking_library(seed: int, page_visits: int) -> list[TraceEvent]:
    """An imported push-service library hijacks the fetch handler: every page
    navigation is mirrored to a tracking endpoint via a background fetch."""
    del seed
    origin, sw, scope = "https://host-site.example", "sw-tracking", "/"
    events = [_mk(0, "register", origin, sw, scope)]
    tracking = _ro(url=f"{TRACKING_SERVER}/tracking_url", initiator_is_sw=True)
    activity = []
    for visit in range(page_visits):
        ts = 1_000 + visit * 10_000
        events.append(_mk(ts, "page_visit", origin))
        events.append(_mk(ts + 10, "fetch_event_start", origin, sw, scope))
        events.append(_mk(ts + 20, "fetch_request", origin, sw, scope,
                          _ro(url=f"{origin}/page{visit}.html", initiator_is_sw=True)))
        events.append(_mk(ts + 30, "fetch_event_end", origin, sw, scope))
        events.append(_mk(ts + 500, "fetch_request", origin, sw, scope, tracking))
        activity.extend((ts + 10, ts + 20, ts + 30, ts + 500))
    events.extend(
        _idle_terminates(activity, HANDLER_MS + IDLE_TIMEOUT_MS, origin, sw, scope)
    )
    return _sorted(events)


def gen_benign(
    seed: int,
    push_rate: int = 2,
    exec_min_per_day: float = 10,
    fetches_per_activation: int = 1,
    duration_ms: int = DAY_MS,
) -> list[TraceEvent]:
    """A worker whose statistics sit at or below the default thresholds.

    Pushes are evenly spaced within each hour; activation lengths are
    allocated so the daily execution total equals exec_min_per_day exactly.
    """
    del seed  # even spacing; deterministic by construction
    push_rate = int(push_rate)
    exec_min_per_day = float(exec_min_per_day)
    fetches = int(fetches_per_activation)

    origin, sw, scope = "https://goodapp.example", "sw-benign", "/"
    events = [
        _mk(0, "register", origin, sw, scope),
        _mk(0, "permission_grant", origin, payload=_GRANT),
        _mk(0, "page_visit", origin),
    ]
    beacon = _ro(url="https://cdn-assets.example/beacon", initiator_is_sw=True)
    push_ts: list[int] = []
    slot_start = 0
    while slot_start < duration_ms:
        slot_len = min(HOUR_MS, duration_ms - slot_start)
        count = push_rate if slot_len == HOUR_MS else push_rate * slot_len // HOUR_MS
        step = slot_len // max(count, 1)
        push_ts.extend(slot_start + step // 2 + i * step for i in range(count))
        slot_start += HOUR_MS

    pushes_per_day = push_rate * 24
    day_budget_ms = int(exec_min_per_day * 60_000)
    for idx, ts in enumerate(push_ts, start=1):
        # Exact cumulative allocation: each day's activations sum to budget.
        k = (idx - 1) % pushes_per_day
        alloc = (k + 1) * day_budget_ms // pushes_per_day - k * day_budget_ms // pushes_per_day
        events.append(_mk(ts, "push", origin, sw, scope, _ro(push_id=f"p{idx:05d}")))
        events.append(_mk(ts + 150, "notification_show", origin, sw, scope,
                          _ro(notif_id=f"nb{idx:05d}", title="Daily digest")))
        for j in range(fetches):
            events.append(_mk(ts + 300 + j * 50, "fetch_request", origin, sw, scope, beacon))
        events.append(_mk(ts + max(alloc, 1_000), "terminate", origin, sw, scope))
    return _sorted(events)


GENERATORS = {
    "webbot": gen_webbot,
    "push_flood": gen_push_flood,
    "ddos": gen_ddos,
    "notification_hider": gen_notification_hider,
    "tag_reuser": gen_tag_reuser,
    "tracking_library": gen_tracking_library,
    "benign": gen_benign,
}


@dataclass(frozen=True)
class Scenario:
    """Named workload with parameters; identical scenarios generate
    byte-identical traces."""

    name: str
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    duration_ms: Optional[int] = None


def generate(scenario: Scenario) -> list[TraceEvent]:
    if scenario.name not in GENERATORS:
        raise KeyError(f"unknown scenario {scenario.name!r}")
    kwargs = dict(scenario.params)
    if scenario.duration_ms is not None:
        kwargs["duration_ms"] = scenario.duration_ms
    for key, value in kwargs.items():
        if isinstance(value, (int, float)) and not 0 <= value < math.inf:
            raise ValueError(f"parameter {key} must be a finite number >= 0: {value!r}")
    return GENERATORS[scenario.name](scenario.seed, **kwargs)


def simulate(
    scenario: Scenario | Iterable[TraceEvent],
    policies: Optional[PolicyConfig] = None,
    browser_profile: str = "chrome",
) -> SimulationResult:
    """Closed loop: offer each generated event to the engine in order; events
    the engine refuses (throttled, or from a terminated/deregistered worker)
    land in ``suppressed_events`` and never affect later state."""
    events = generate(scenario) if isinstance(scenario, Scenario) else list(scenario)
    return PolicyEngine(policies, browser_profile, mode="simulate").run(events)
