"""Deterministic workload generators and the closed-loop simulator.

Each generator reproduces one abuse (or benign) workload as a canonical
trace on a virtual millisecond clock starting at 0. Generation is pure:
the same (name, params, seed, duration) always yields a byte-identical
trace. ``simulate`` then feeds a generated trace through the policy engine
so enforcement (throttle / terminate / deregister) suppresses the events a
real browser would never have let happen.

Worker termination is explicit in generated traces: a ``terminate`` marks
the process exit HANDLER_MS + IDLE_TIMEOUT_MS after each activity that the
next one does not follow within that time, and after the last. A generator's
signature is the one home of its parameters' types (``PARAM_TYPES``), and a
value rule that only one generator has lives in that generator.
"""

from __future__ import annotations

import inspect
import math
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, get_args

from .policy import PolicyConfig, PolicyEngine, SimulationResult
from .trace import (_NO_PAYLOAD, DAY_MS, HOUR_MS, MalformedLine, TraceEvent, _check_payload,
                    check_span, new_record)

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
        payload: Mapping[str, Any] = _NO_PAYLOAD) -> TraceEvent:
    """One event: a worker's events are at scope "/", the origin's have none."""
    return new_record(TraceEvent, (ts, kind, origin, sw_id, sw_id and "/", payload))


def _ro(**payload: Any) -> Mapping[str, Any]:
    return MappingProxyType(payload)  # read-only, over a dict nothing else holds


_GRANT = _ro(permission="notifications")


def _opening(origin: str, sw_id: str, grant: bool = True) -> list[TraceEvent]:
    """A worker's first events, at ts 0: its register, then the origin's
    notification grant where it has one."""
    events = [_mk(0, "register", origin, sw_id)]
    if grant:
        events.append(_mk(0, "permission_grant", origin, payload=_GRANT))
    return events


def _sorted(events: list[TraceEvent]) -> list[TraceEvent]:
    events.sort(key=itemgetter(0))  # by ts; stable: same-ts events keep logical order
    return events


def _with_idle_terminates(events: list[TraceEvent]) -> list[TraceEvent]:
    """``events``, which open with a register, sorted with the terminates
    their worker's activity implies: its events after the register, in the
    order they were added."""
    settle = HANDLER_MS + IDLE_TIMEOUT_MS
    origin, sw_id = events[0][2:4]
    activity = [event[0] for event in events[1:] if event[3] is not None]  # ts if sw_id
    for prev, nxt in zip(activity, activity[1:]):
        if nxt - prev > settle:
            events.append(_mk(prev + settle, "terminate", origin, sw_id))
    if activity:
        events.append(_mk(activity[-1] + settle, "terminate", origin, sw_id))
    return _sorted(events)


def _hour_slots(per_hour: int, duration_ms: int) -> Iterator[tuple[int, int, int]]:
    """(start, length, count) of each hour slot of [0, duration_ms): a whole
    hour holds per_hour events, a last, shorter slot its share of them."""
    for start in range(0, duration_ms, HOUR_MS):
        length = min(HOUR_MS, duration_ms - start)
        yield start, length, per_hour * length // HOUR_MS


def gen_webbot(seed: int, duration_ms: int = 600_000) -> list[TraceEvent]:
    """Self-update loop: the activate handler waits 25 s, calls update, the
    server always has a "fresh" script, and the cycle repeats. A simulated
    browser restart at half time re-kindles the loop through a sync event.
    """
    del seed  # the loop is fully deterministic
    origin, sw = "https://webbot.example", "sw-webbot"
    events = _opening(origin, sw, grant=False)
    events += [_mk(0, "install", origin, sw), _mk(0, "activate", origin, sw)]
    half = duration_ms // 2
    version = 1

    def run_segment(start: int, end: int) -> None:
        nonlocal version
        t = start
        while t + 25_000 < end:
            t += 25_000
            version += 1
            events.append(_mk(t, "update_check", origin, sw))
            events.append(_mk(t, "update_found", origin, sw, _ro(version=version)))
            events.append(_mk(t, "install", origin, sw))
            events.append(_mk(t, "activate", origin, sw))

    run_segment(0, half)
    events.append(_mk(half, "terminate", origin, sw))  # browser closed
    events.append(_mk(half + 1_000, "sync", origin, sw))  # re-opened
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
    every n-th push (n >= 1), reproducing the silent-push counter reset evasion.
    """
    if renew_after is not None and not renew_after >= 1:
        raise ValueError(f"parameter renew_after must be None or >= 1: {renew_after!r}")
    rng = SplitMix64(seed)
    origin, sw = "https://pushmill.example", "sw-pushflood"
    events = _opening(origin, sw)
    push_ts = [ts for start, length, count in _hour_slots(pushes_per_hour, duration_ms)
               for ts in sorted(start + rng.below(length) for _ in range(count))]
    for idx, ts in enumerate(push_ts, start=1):
        events.append(_mk(ts, "push", origin, sw, _ro(push_id=f"p{idx:05d}")))
        if not silent:
            events.append(_mk(ts + 200, "notification_show", origin, sw,
                              _ro(notif_id=f"n{idx:05d}", title="Fresh update")))
        if renew_after is not None and idx % renew_after == 0:
            events.append(_mk(ts + 350, "permission_grant", origin, payload=_GRANT))
    return _with_idle_terminates(events)


def gen_ddos(
    seed: int,
    req_per_s: int,
    burst_minutes: int,
    target: str = "https://victim.example/hit",
) -> list[TraceEvent]:
    """One push-triggered activation issuing req_per_s background fetches per
    second against the target for burst_minutes. A target the trace reader
    would reject raises ValueError with the reader's message."""
    del seed  # evenly spaced requests; nothing to jitter
    fetch = _ro(url=target, initiator_is_sw=True)
    try:
        _check_payload("fetch_request", fetch, 0)
    except MalformedLine as exc:
        raise ValueError(str(exc)) from exc
    origin, sw = "https://stresser.example", "sw-ddos"
    start = 1_000
    events = _opening(origin, sw) + [_mk(start, "push", origin, sw, _ro(push_id="p00001"))]
    events += [new_record(TraceEvent, (start + second * 1_000 + (i * 1_000) // req_per_s,
                                       "fetch_request", origin, sw, "/", fetch))
               for second in range(burst_minutes * 60) for i in range(req_per_s)]
    last = start + burst_minutes * 60_000
    events.append(_mk(last + IDLE_TIMEOUT_MS, "terminate", origin, sw))
    return _sorted(events)


def gen_notification_hider(seed: int, duration_ms: int = 600_000) -> list[TraceEvent]:
    """Each push shows a notification and programmatically closes it within
    100 ms, keeping the worker active while hiding the evidence."""
    del seed
    origin, sw = "https://hushpush.example", "sw-hider"
    events = _opening(origin, sw)
    for idx, ts in enumerate(range(1_000, duration_ms, 60_000), start=1):
        events.append(_mk(ts, "push", origin, sw, _ro(push_id=f"p{idx:05d}")))
        events.append(_mk(ts + 40, "notification_show", origin, sw,
                          _ro(notif_id=f"nh{idx:05d}", title="nothing to see")))
        events.append(_mk(ts + 140, "notification_close", origin, sw,
                          _ro(notif_id=f"nh{idx:05d}", by_user=False)))
    return _with_idle_terminates(events)


def gen_tag_reuser(seed: int, n_pushes: int) -> list[TraceEvent]:
    """All notifications share one tag, so each new push replaces the
    previous notification instead of stacking up."""
    del seed
    origin, sw = "https://samenote.example", "sw-tagreuse"
    events = _opening(origin, sw)
    for idx in range(1, n_pushes + 1):
        ts = 1_000 + (idx - 1) * 60_000
        events.append(_mk(ts, "push", origin, sw, _ro(push_id=f"p{idx:05d}")))
        events.append(_mk(ts + 40, "notification_show", origin, sw,
                          _ro(notif_id=f"tr{idx:05d}", title="Same Notification!",
                              tag="notification-update-tag")))
    return _with_idle_terminates(events)


def gen_tracking_library(seed: int, page_visits: int) -> list[TraceEvent]:
    """An imported push-service library hijacks the fetch handler: every page
    navigation is mirrored to a tracking endpoint via a background fetch."""
    del seed
    origin, sw = "https://host-site.example", "sw-tracking"
    events = _opening(origin, sw, grant=False)
    tracking = _ro(url=f"{TRACKING_SERVER}/tracking_url", initiator_is_sw=True)
    for visit in range(page_visits):
        ts = 1_000 + visit * 10_000
        events.append(_mk(ts, "page_visit", origin))
        events.append(_mk(ts + 10, "fetch_event_start", origin, sw))
        events.append(_mk(ts + 20, "fetch_request", origin, sw,
                          _ro(url=f"{origin}/page{visit}.html", initiator_is_sw=True)))
        events.append(_mk(ts + 30, "fetch_event_end", origin, sw))
        events.append(_mk(ts + 500, "fetch_request", origin, sw, tracking))
    return _with_idle_terminates(events)


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
    if not exec_min_per_day <= 1_440:
        raise ValueError(f"parameter exec_min_per_day must be <= 1440: {exec_min_per_day!r}")
    origin, sw = "https://goodapp.example", "sw-benign"
    events = _opening(origin, sw)
    events.append(_mk(0, "page_visit", origin))
    beacon = _ro(url="https://cdn-assets.example/beacon", initiator_is_sw=True)
    push_ts: list[int] = []
    for start, length, count in _hour_slots(push_rate, duration_ms):
        step = length // max(count, 1)
        push_ts.extend(start + step // 2 + i * step for i in range(count))

    pushes_per_day = push_rate * 24
    day_budget_ms = int(exec_min_per_day * 60_000)
    for idx, ts in enumerate(push_ts, start=1):
        # Exact cumulative allocation: each day's activations sum to budget.
        k = (idx - 1) % pushes_per_day
        alloc = (k + 1) * day_budget_ms // pushes_per_day - k * day_budget_ms // pushes_per_day
        events.append(_mk(ts, "push", origin, sw, _ro(push_id=f"p{idx:05d}")))
        events.append(_mk(ts + 150, "notification_show", origin, sw,
                          _ro(notif_id=f"nb{idx:05d}", title="Daily digest")))
        for j in range(fetches_per_activation):
            events.append(_mk(ts + 300 + j * 50, "fetch_request", origin, sw, beacon))
        events.append(_mk(ts + max(alloc, 1_000), "terminate", origin, sw))
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


_SIGNATURES = {name: inspect.signature(gen, eval_str=True).parameters
               for name, gen in GENERATORS.items()}

# A parameter admits its type only (a bool is no count), None too if Optional, int too if float.
PARAM_TYPES = {name: {key: (float, int) if param.annotation is float
                      else get_args(param.annotation) or (param.annotation,)
                      for key, param in params.items() if key != "seed"}
               for name, params in _SIGNATURES.items()}

# The most events (and hour slots) one ``generate`` call may make: far above
# every trace here, whose largest, the benchmark's ddos, has 30,004 events.
# A million tag_reuser events take about 330 MB.
MAX_EVENTS = 1_000_000
# Per generator, at most how many events and hour slots it makes, give or take
# a few, from the parameters they grow with: their names are the function's own.
_SIZES = {
    "webbot": lambda duration_ms: 4 * duration_ms // 25_000,
    "push_flood": lambda pushes_per_hour, duration_ms:
        (4 * pushes_per_hour + 1) * duration_ms // HOUR_MS,
    "ddos": lambda req_per_s, burst_minutes: req_per_s * burst_minutes * 60,
    "notification_hider": lambda duration_ms: 4 * duration_ms // 60_000,
    "tag_reuser": lambda n_pushes: 3 * n_pushes,
    "tracking_library": lambda page_visits: 5 * page_visits,
    "benign": lambda push_rate, fetches_per_activation, duration_ms:
        ((3 + fetches_per_activation) * push_rate + 1) * duration_ms // HOUR_MS,
}
_SIZE_PARAMS = {name: tuple(inspect.signature(size).parameters) for name, size in _SIZES.items()}


class Scenario(NamedTuple):
    """Named workload with parameters; identical scenarios generate
    byte-identical traces."""

    name: str
    seed: int = 0
    params: Mapping[str, Any] = _NO_PAYLOAD  # read-only and shared
    duration_ms: Optional[int] = None


def generate(scenario: Scenario) -> list[TraceEvent]:
    """The scenario's trace. A parameter missing, unknown, or of a wrong type or range is a
    ValueError naming it, and so are parameters that would make more than ``MAX_EVENTS``
    events, before any is made; a trace the reader would refuse for its span raises
    TraceSpanTooLong."""
    name = scenario.name
    if name not in GENERATORS:
        raise KeyError(f"unknown scenario {name!r}")
    kwargs = dict(scenario.params)
    if scenario.duration_ms is not None:
        kwargs["duration_ms"] = scenario.duration_ms
    for key, value in kwargs.items():
        types = PARAM_TYPES[name].get(key)
        if types is None:
            raise ValueError(f"parameter {key} is not a parameter of {name}")
        if type(value) not in types:
            raise ValueError(f"parameter {key} must be "
                             f"{' or '.join(t.__name__ for t in types)}: {value!r}")
        if type(value) in (int, float) and not 0 <= value < math.inf:
            raise ValueError(f"parameter {key} must be a finite number >= 0: {value!r}")
    for key, param in _SIGNATURES[name].items():
        if param.default is param.empty and key != "seed" and key not in kwargs:
            raise ValueError(f"parameter {key} is required")
    names = _SIZE_PARAMS[name]
    size = _SIZES[name](*(kwargs.get(key, _SIGNATURES[name][key].default) for key in names))
    if size > MAX_EVENTS:
        raise ValueError(f"too many events: {size} from {', '.join(names)}, "
                         f"more than {MAX_EVENTS}")
    events = GENERATORS[name](scenario.seed, **kwargs)
    check_span(events)
    return events


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
