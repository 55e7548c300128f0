"""Policy enforcement engine for service worker event streams.

Declarative count/time policies are evaluated over a virtual clock, with
browser-profile silent-push handling and a severity ladder that maps
accumulated violations to log / terminate / deregister decisions.

``RULES`` is the one table of policy names: it says which rules need a
window, which throttle the event past their threshold (``_count``) and which
stop the worker whatever the ladder says. Each rule is triggered by one event
kind or clock crossing and judged under one key: a window slot aligned to
trace start (``push_per_hour``), a (tag, slot) pair (``tag_reuse``), the
activation (``bg_fetch_per_activation``, ``exec_per_activation``), the
virtual day (``exec_per_day``), or none, judging every close
(``notif_min_visible``). ``_violate`` reports once per key, then climbs.

The engine runs in two modes that judge every event and deadline the same
way and differ only where a decision is applied. ``simulate`` is the closed
loop: it applies its decisions, so throttled or terminated workers stop
producing effects and events a browser would never have let happen are
suppressed. ``enforce`` is the open loop for recorded traces: every decision
is reported, none is applied, and worker state follows the trace itself.

Two methods hold that difference. ``_refuse`` is the one refusal point: a
handler that meets an event the closed loop would not let happen calls it,
and in ``simulate`` the event is suppressed and the handler stops, while in
``enforce`` the handler carries on with the recorded event as fact.
``_apply_action`` is the one applier of stops and deregistrations: it stops or
deregisters the worker in ``simulate`` and does nothing in ``enforce``. A
throttle stops nothing, so it is reported where its event is judged:
``_count`` appends a counting rule's throttle itself, one per event of a
flood, and the closed loop carries it out by ``_refuse``; the capability
gate's, which both modes carry out, goes through ``_apply_action``.
``PolicyEngine.run`` is the one loop that drives the engine over a whole
trace: it judges every event into one reused ``Decision`` (``on_event``,
``advance`` and ``finish`` fill the ``out`` they are given) and moves its
records into the result.

Two smaller differences follow from the same contract. Once a day's
execution budget is spent, only the closed loop keeps stopping the worker
(``_day_crossing``). And only the closed loop drops a worker's open fetch
brackets when it stops (``_stop``): its fetch handler dies with it. The open
loop keeps the recorded brackets in a worker's ``trace.Activity``, the record
forensics keeps too, and judges a fetch by forensics' rule
(``trace.background_third_party``), but before it sees later events of its ts.

Admission is a worker's first move: the first event of an unknown sw_id,
whatever its kind, is judged by the model's Register rules
(``model.SwRegistry.admit``), and a refusal goes through ``_refuse``. After
that both modes move a worker only by the rows of ``model.apply_lifecycle_event``.
Its process moves by ``_wake``, ``_stop`` and an applied deregistration, so it
runs exactly when its record's ``process`` is RUNNING; its registration's
``phase`` moves by ``_by_row``, which sends a move the model forbids to ``_refuse``.
"""

from __future__ import annotations

import heapq
import json
import os
import sys
from collections import deque
from enum import Enum
from functools import cache, partial
from operator import attrgetter
from typing import Any, NamedTuple, Optional, Sequence

from .domains import registrable_domain
from .model import (Capability, Origin, Scope, SwRecord, SwRegistry, SwSentinelError,
                    SwState, apply_lifecycle_event, check_capability, lifecycle_allows,
                    refuse_lifecycle_event)
from .trace import (DAY_MS, KINDS, Activity, TraceEvent, UnbalancedBrackets,
                    background_third_party, day_segments, is_activity, new_record)

TICK_MS = 1_000
SILENT_PUSH_GRACE_MS = 5_000
ENGAGEMENT_VISIT_POINTS = 2.0
ENGAGEMENT_CAP = 100.0
ENGAGEMENT_HALF_LIFE_DAYS = 7.0
# Violations of one severity within a virtual day that promote to the next.
PROMOTE_AFTER = 3
DEFAULT_NOTIFICATION_TITLE = "The site has been updated in the background."
# A worker runs exactly when its process is RUNNING. The per-event path compares
# states several times, and a member looked up on an Enum class costs 0.1 to
# 0.25 us in CPython 3.11, so the members it compares with are bound once.
_RUNNING, _DEREGISTERED = SwState.RUNNING, SwState.DEREGISTERED


class Rule(NamedTuple):
    """What the engine does with a policy beyond its spec."""

    windowed: bool  # counts in tumbling windows: needs duration_in_minutes >= 1
    throttles: bool  # an event past the threshold is throttled
    stops: bool  # a violation stops the worker whatever the ladder says


RULES: dict[str, Rule] = {
    "push_per_hour": Rule(windowed=True, throttles=True, stops=False),
    "exec_per_activation": Rule(windowed=False, throttles=False, stops=True),
    "exec_per_day": Rule(windowed=True, throttles=False, stops=True),
    "bg_fetch_per_activation": Rule(windowed=False, throttles=True, stops=False),
    "notif_min_visible": Rule(windowed=False, throttles=False, stops=False),
    "tag_reuse": Rule(windowed=True, throttles=False, stops=False),
}
_THROTTLES = {name: rule.throttles for name, rule in RULES.items()}  # read per counted event


class PolicyConfigError(SwSentinelError):
    pass


class BadThreshold(PolicyConfigError):
    pass


class DuplicateName(PolicyConfigError):
    pass


class UnknownPolicyName(PolicyConfigError):
    pass


class Severity(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class EnforcementAction(Enum):
    LOG_ONLY = "log_only"
    THROTTLE_EVENT = "throttle_event"
    TERMINATE_SW = "terminate_sw"
    DEREGISTER_SW = "deregister_sw"


# Bound once, as _RUNNING is: the action paths pass and compare these often.
_LOW, _MEDIUM, _HIGH = Severity.LOW, Severity.MEDIUM, Severity.HIGH
_LOG_ONLY, _THROTTLE = EnforcementAction.LOG_ONLY, EnforcementAction.THROTTLE_EVENT
_TERMINATE, _DEREGISTER = EnforcementAction.TERMINATE_SW, EnforcementAction.DEREGISTER_SW


class PolicySpec(NamedTuple):
    """One declarative policy in the count-based template shape."""

    name: str
    severity: Severity
    threshold: float
    duration_in_minutes: int


class ViolationRecord(NamedTuple):
    """A threshold transgression.

    For count/time ceilings ``observed > threshold`` holds. The notification
    visibility policy is a floor: there ``observed`` is the visible delta in
    seconds and lies below the threshold.
    """

    policy_name: str
    sw_id: str
    ts: int
    observed: float
    threshold: float


class ActionEntry(NamedTuple):
    ts: int
    sw_id: str
    action: EnforcementAction
    reason: str


class Notice(NamedTuple):
    """Profile-level side effect that is not an enforcement action proper
    (default notifications, subscription revocation/renewal)."""

    ts: int
    sw_id: str
    kind: str
    detail: str


class EngagementScore:
    """Per-origin user engagement on the 0-100 scale used by deregistration."""

    def __init__(self) -> None:
        self.score = 0.0
        self.last_visit: Optional[int] = None

    def value_at(self, now: int) -> float:
        if self.last_visit is None:
            return self.score
        elapsed_days = max(0, now - self.last_visit) / DAY_MS
        return self.score * 0.5 ** (elapsed_days / ENGAGEMENT_HALF_LIFE_DAYS)

    def visit(self, now: int) -> None:
        self.score = min(ENGAGEMENT_CAP, self.value_at(now) + ENGAGEMENT_VISIT_POINTS)
        self.last_visit = now


class BrowserProfile(NamedTuple):
    """Built-in mitigations that differ across browser vendors."""

    name: str
    silent_push_limit: Optional[int] = None
    default_notification_on_silent_push: bool = False
    self_update_delay_cap_minutes: Optional[int] = None


PROFILES: dict[str, BrowserProfile] = {
    "chrome": BrowserProfile("chrome", None, True, 3),
    "firefox": BrowserProfile("firefox", 15, False, None),
    "edge": BrowserProfile("edge", 3, True, 3),
    "opera": BrowserProfile("opera", None, True, 3),
    "safari": BrowserProfile("safari", None, False, None),
}


class PolicyConfig(NamedTuple):
    specs: tuple[PolicySpec, ...]
    allow_list: frozenset[str] = frozenset()
    deregister_engagement_threshold: float = 5.0

    def get(self, name: str) -> Optional[PolicySpec]:
        """The first spec named ``name``, or None."""
        return next((spec for spec in self.specs if spec.name == name), None)


_TEMPLATE_KEYS = {"name", "severity", "threshold", "duration_in_minutes"}


def _parse_spec(obj: Any) -> PolicySpec:
    if not isinstance(obj, dict) or set(obj) != _TEMPLATE_KEYS:
        raise PolicyConfigError(
            f"policy object must have exactly keys {sorted(_TEMPLATE_KEYS)}: {obj!r}"
        )
    name = obj["name"]
    rule = RULES.get(name) if isinstance(name, str) else None
    if rule is None:
        raise UnknownPolicyName(f"unknown policy {name!r}")
    try:
        severity = Severity(obj["severity"])
    except ValueError as exc:
        raise PolicyConfigError(f"bad severity {obj['severity']!r}") from exc
    threshold = obj["threshold"]
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise BadThreshold(f"threshold must be a number: {threshold!r}")
    # The clock rules read the threshold as minutes, in milliseconds: that
    # value must be a finite float too. NaN fails every comparison.
    if not 0 < threshold * 60_000 <= sys.float_info.max:
        raise BadThreshold(f"threshold must be > 0 and finite: {threshold!r}")
    duration = obj["duration_in_minutes"]
    if isinstance(duration, bool) or not isinstance(duration, int) or duration < 0:
        raise PolicyConfigError(f"bad duration_in_minutes: {duration!r}")
    if rule.windowed and duration < 1:
        raise PolicyConfigError(f"{name} needs a window of at least one minute")
    if name == "exec_per_day" and duration != DAY_MS // 60_000:  # the engine reads no other
        raise PolicyConfigError(f"exec_per_day needs the virtual day's window, 1440: {duration!r}")
    return PolicySpec(name, severity, float(threshold), duration)


def load_policies(config_text: str | bytes | None = None) -> PolicyConfig:
    """Parse a policy configuration; None gives the shipped defaults.

    Accepts either a bare JSON array of policy objects or an object with a
    ``policies`` array plus optional ``allow_list`` and
    ``deregister_engagement_threshold``.
    """
    if config_text is None:
        return default_policies()
    return _parse_config(config_text)


@cache
def default_policies() -> PolicyConfig:
    """The shipped defaults, read once per process by the module's loader, as
    pkgutil.get_data does but with no import, and parsed once: the config is frozen and shared."""
    path = os.path.join(os.path.dirname(__file__), "defaults.json")
    return _parse_config(__loader__.get_data(path))


def _parse_config(config_text: str | bytes) -> PolicyConfig:
    try:
        data = json.loads(config_text)
    except ValueError as exc:
        raise PolicyConfigError(f"config is not JSON: {exc}") from exc
    allow_list: Any = []
    threshold: Any = 5.0
    if isinstance(data, dict):
        items = data.get("policies", [])
        allow_list = data.get("allow_list", [])
        threshold = data.get("deregister_engagement_threshold", 5.0)
    elif isinstance(data, list):
        items = data
    else:
        raise PolicyConfigError("config must be an array or an object")
    if not isinstance(items, list):
        raise PolicyConfigError(f"policies must be an array: {items!r}")
    if not isinstance(allow_list, list) or not all(isinstance(o, str) for o in allow_list):
        raise PolicyConfigError(f"allow_list must be an array of origins: {allow_list!r}")
    if (isinstance(threshold, bool) or not isinstance(threshold, (int, float))
            or not abs(threshold) <= sys.float_info.max):
        raise PolicyConfigError(f"bad deregister_engagement_threshold: {threshold!r}")
    specs: list[PolicySpec] = []
    for spec in map(_parse_spec, items):
        if any(spec.name == seen.name for seen in specs):
            raise DuplicateName(f"duplicate policy {spec.name!r}")
        specs.append(spec)
    return PolicyConfig(tuple(specs), frozenset(allow_list), float(threshold))


# The capability each gated event kind consumes, as ``trace.KINDS`` says.
REQUIRED_CAPABILITY = {kind: row.capability for kind, row in KINDS.items() if row.capability}


class Decision:
    """Whether an event is delivered, and what judging it or the clock caused."""

    __slots__ = ("deliver", "actions", "violations", "notices")

    def __init__(self, deliver: bool = True) -> None:
        self.deliver = deliver
        self.actions: list[ActionEntry] = []
        self.violations: list[ViolationRecord] = []
        self.notices: list[Notice] = []

    def __eq__(self, other: object) -> bool:
        return type(other) is Decision and all(
            getattr(self, name) == getattr(other, name) for name in Decision.__slots__)


class SimulationResult:
    """A whole trace judged in order: the events partitioned by delivery,
    every decision's actions, violations and notices merged in order, and
    each worker's final state and running intervals."""

    def __init__(self) -> None:
        self.delivered_events: list[TraceEvent] = []
        self.suppressed_events: list[TraceEvent] = []
        self.actions: list[ActionEntry] = []
        self.violations: list[ViolationRecord] = []
        self.notices: list[Notice] = []
        self.final_states: dict[str, SwState] = {}
        self.running_intervals: dict[str, list[tuple[int, int]]] = {}

    def __eq__(self, other: object) -> bool:
        return type(other) is SimulationResult and vars(self) == vars(other)

    def running_ms(self, sw_id: str) -> int:
        return sum(end - start for start, end in self.running_intervals.get(sw_id, []))

    def max_continuous_ms(self, sw_id: str) -> int:
        intervals = self.running_intervals.get(sw_id, [])
        return max((end - start for start, end in intervals), default=0)


_Crossing = tuple[int, str, Any, float]  # see _next_crossing


class _SwEngineState(Activity):
    """What the engine keeps of one worker beyond its ``Activity``."""

    def __init__(self, record: SwRecord, handlers: dict[str, Any],
                 first_party: frozenset[str]) -> None:
        super().__init__(first_party)
        self.record = record
        self.handlers = handlers  # kind -> handler, its capability gate resolved
        self.day_ms: dict[int, int] = {}  # closed activations' ms per virtual day
        self.day_cursor: Optional[int] = None  # see _day_crossing
        # rule counters and the keys already reported, both by (policy, key)
        self.counts: dict[tuple[str, Any], int] = {}
        self.violated: set[tuple[str, Any]] = set()
        self.pending_silent: deque[int] = deque()  # grace deadlines
        # activations by ``number``, 0 for none: the one whose self-update chain
        # runs, anchored at its ``start``, and the one whose chain reached the cap
        self.chain = self.capped = 0
        self.lows_today = self.mediums_today = 0
        self.ladder_day = -1
        # clock heap bookkeeping: registration order, the stamp of the live heap
        # entry, that entry's key (None: no live entry), and whether an input of
        # the key has changed since it was computed
        self.order = self.stamp = 0
        self.wake_ts: Optional[int] = None
        self.dirty = False


class PolicyEngine:
    """Evaluates one trace / simulation; single-threaded, movable value."""

    def __init__(
        self,
        config: Optional[PolicyConfig] = None,
        profile: str = "chrome",
        mode: str = "simulate",
    ) -> None:
        if mode not in ("simulate", "enforce"):
            raise ValueError(f"unknown engine mode {mode!r}")
        self.config = config if config is not None else default_policies()
        self.profile = PROFILES[profile]
        self._closed_loop = mode == "simulate"
        self._specs = {name: self.config.get(name) for name in RULES}
        # Per kind, once per engine: its capability, its handler (a subclass's included;
        # unbound, so no cycle) and the refusal of a worker lacking the capability.
        cls = type(self)
        refusals = {cap: partial(cls._refuse_capability, reason=f"capability:{cap.value}")
                    for cap in Capability}
        self._handlers, self._origin_handlers = {}, {}
        for kind, row in KINDS.items():
            handler = getattr(cls, "_on_" + kind, cls._by_row)
            if row.of_origin:  # the origin's kind: it belongs to no worker's table
                self._origin_handlers[kind] = handler
                continue
            pair = handler, refusals.get(row.capability)
            if row.bracket:  # both behind the bracket step
                pair = tuple(partial(cls._bracket, handler=inner) for inner in pair)
            self._handlers[kind] = (row.capability, *pair)
        self._t0: Optional[int] = None
        self._states: dict[str, _SwEngineState] = {}
        # origin -> sw_id -> the state of each lapsed worker; see _on_permission_grant
        self._lapsed: dict[Origin, dict[str, _SwEngineState]] = {}
        self._registry = SwRegistry()  # the scopes held, by the model's Register rules
        # min-heap of (wake_ts, order, stamp, state); see ``advance``
        self._heap: list[tuple[int, int, int, _SwEngineState]] = []
        self._stamps = 0
        self.engagement: dict[str, EngagementScore] = {}

    # -- registry ---------------------------------------------------------

    def register_record(self, record: SwRecord) -> None:
        """Pre-register a worker (used by tests and the capability grid). As in
        ``enforce``, it holds its scope if the registry admits it."""
        self._registry.admit(record)
        self._add_state(record)

    def record(self, sw_id: str) -> SwRecord:
        return self._states[sw_id].record

    def states(self) -> dict[str, SwState]:
        return {sw: st.record.state for sw, st in self._states.items()}

    def window_counts(self, sw_id: str, policy_name: str) -> dict[int, int]:
        """Per-key event counts for one worker and counting policy."""
        counts = self._states[sw_id].counts
        return {key: count for (name, key), count in counts.items() if name == policy_name}

    def _add_state(self, record: SwRecord) -> _SwEngineState:
        """Insert a worker's state, or replace the state of its sw_id. A
        replacement keeps the registration order of the state it replaces,
        as ``_states`` keeps its key's position. A new state has no deadline
        until its first handler runs, so it is not put on the clock heap. Its
        table has no origin's kind, and maps a kind gated on a capability the
        record lacks to a refusal."""
        handlers = {kind: handler if needed is None or check_capability(record, needed) else refusal
                    for kind, (needed, handler, refusal) in self._handlers.items()}
        st = _SwEngineState(record=record, handlers=handlers,
                            first_party=frozenset({registrable_domain(record.origin.host)}))
        old = self._states.get(record.sw_id)
        st.order = len(self._states) if old is None else old.order
        if old is not None:
            old.stamp = -1  # its heap entries go stale
            self._lapsed.get(old.record.origin, {}).pop(record.sw_id, None)
        self._states[record.sw_id] = st
        if not record.push_subscribed or record.silent_push_count > 0:
            self._lapsed.setdefault(record.origin, {})[record.sw_id] = st
        return st

    def _first_sight(self, event: TraceEvent, out: Decision) -> Optional[_SwEngineState]:
        """Admit the worker of an event whose sw_id is not yet known, whatever
        its kind, by the model's Register rules. A refusal is noted and goes
        through ``_refuse``: ``simulate`` keeps no state, so the worker's next
        event is judged afresh, and ``enforce`` judges the worker as recorded."""
        origin, caps = Origin.parse(event.origin), event.get("capabilities")
        fresh = event.kind == "register"
        # Traces that begin mid-life imply the subscription exists;
        # fresh registrations wait for a permission grant.
        record = SwRecord(event.sw_id, origin, Scope(event.scope or "/"), f"{origin}/sw.js",
                          state=SwState.INSTALLING if fresh else SwState.ACTIVATED,
                          capabilities=None if caps is None else frozenset(map(Capability, caps)),
                          push_subscribed=not fresh)
        error = self._registry.admit(record)
        if error is not None:
            out.notices.append(Notice(event.ts, event.sw_id, "registration_refused", str(error)))
            if self._refuse(out):
                return None
        return self._add_state(record)

    # -- time -------------------------------------------------------------

    def _slot(self, ts: int, minutes: int) -> int:
        return (ts - (self._t0 or 0)) // (minutes * 60_000)

    def _day(self, ts: int) -> int:
        return (ts - (self._t0 or 0)) // DAY_MS

    def _tick_after(self, ts: int) -> int:
        t0 = self._t0 or 0
        return t0 + ((ts - t0) // TICK_MS + 1) * TICK_MS

    # -- engagement -------------------------------------------------------

    def engagement_for(self, origin: str) -> EngagementScore:
        return self.engagement.setdefault(origin, EngagementScore())

    # -- escalation ladder --------------------------------------------------

    def escalate(self, record: SwRecord, violation: ViolationRecord) -> tuple[EnforcementAction, ...]:
        """Map a violation to enforcement via the severity ladder.

        Three low violations within a virtual day promote to medium; a medium
        terminates but keeps the registration; a high (or the third medium of
        the day) terminates and deregisters when origin engagement is below
        the configured threshold.
        """
        st = self._states[record.sw_id]
        day = self._day(violation.ts)
        if day != st.ladder_day:
            st.ladder_day, st.lows_today, st.mediums_today = day, 0, 0
        spec = self._specs.get(violation.policy_name)
        effective = spec.severity if spec is not None else _MEDIUM
        if effective is _LOW:
            st.lows_today += 1
            if st.lows_today >= PROMOTE_AFTER:
                st.lows_today, effective = 0, _MEDIUM
        if effective is _MEDIUM:
            st.mediums_today += 1
            if st.mediums_today >= PROMOTE_AFTER:
                st.mediums_today, effective = 0, _HIGH
        if effective is _LOW:
            return (_LOG_ONLY,)
        if effective is _MEDIUM:
            return (_TERMINATE,)
        score = self.engagement_for(str(record.origin)).value_at(violation.ts)
        if score < self.config.deregister_engagement_threshold:
            return (_TERMINATE, _DEREGISTER)
        return (_TERMINATE,)

    def _violate(self, st: _SwEngineState, spec: PolicySpec, key: Any, ts: int,
                 observed: float, out: Decision) -> None:
        """The one path from a rule's transgression to its decisions: report
        it, mark (rule, key) reported unless ``key`` is None, then climb the
        ladder. Every caller skips a key already reported. A rule that
        ``stops`` terminates the worker whatever rung the ladder reaches."""
        name = spec.name
        if key is not None:
            st.violated.add((name, key))
        violation = new_record(ViolationRecord,
                               (name, st.record.sw_id, ts, observed, spec.threshold))
        out.violations.append(violation)
        actions = self.escalate(st.record, violation)
        if RULES[name].stops and _TERMINATE not in actions:
            actions += (_TERMINATE,)
        for action in actions:
            self._apply_action(st, ts, action, name, out)

    def _count(self, st: _SwEngineState, spec: PolicySpec, key: Any, ts: int,
               out: Decision) -> bool:
        """Count one event against a counting rule under ``key``. Past the
        threshold a throttling rule throttles the event, and the rule is
        violated once per key. True when the closed loop refuses the event."""
        name = spec.name
        counter = (name, key)
        counts = st.counts
        count = counts[counter] = counts.get(counter, 0) + 1
        if count <= spec.threshold:
            return False
        throttles = _THROTTLES[name]
        if throttles:  # a flood's every event: reported here, carried out by ``_refuse``
            out.actions.append(new_record(ActionEntry, (ts, st.record.sw_id, _THROTTLE, name)))
        if counter not in st.violated:  # a flood past the threshold skips the call
            self._violate(st, spec, key, ts, count, out)
        return throttles and self._refuse(out)

    def _apply_action(self, st: _SwEngineState, ts: int, action: EnforcementAction,
                      reason: str, out: Decision) -> None:
        """The one applier of stops and deregistrations: every action is
        reported, and only the closed loop stops or deregisters the worker. A
        throttle is carried out where its event is judged, through ``_refuse``."""
        out.actions.append(new_record(ActionEntry, (ts, st.record.sw_id, action, reason)))
        if not self._closed_loop:
            return
        if action is _TERMINATE:
            self._stop(st, ts)
        elif action is _DEREGISTER:
            self._stop(st, ts)
            apply_lifecycle_event(st.record, "deregister")

    # -- running intervals --------------------------------------------------

    def _wake(self, st: _SwEngineState, ts: int) -> None:
        record = st.record
        if record.process is _RUNNING or record.phase is _DEREGISTERED:
            return
        apply_lifecycle_event(record, "event_arrived")
        st.wake(ts)
        st.day_cursor = None
        st.last_end = None
        st.dirty = True

    def _stop(self, st: _SwEngineState, ts: int) -> None:
        if st.record.process is not _RUNNING:
            return
        for day, ms in day_segments(st.start, ts, self._t0 or 0):  # the day ledger
            st.day_ms[day] = st.day_ms.get(day, 0) + ms
        st.stop(ts)
        apply_lifecycle_event(st.record, "terminate")
        st.dirty = True
        if self._closed_loop:
            st.depth = 0  # the closed loop kills open fetch handlers

    # -- clock advance: execution caps and silent-push deadlines -----------

    def advance(self, now: int, out: Optional[Decision] = None) -> Decision:
        """Process virtual time up to ``now``: exec-limit checks at 1 s tick
        granularity plus silent-push grace deadlines. The records go into
        ``out`` when given, else into a fresh Decision; it is returned.

        Only the workers that are due are visited. A min-heap holds entries
        ``(wake_ts, order, stamp, state)``, at most one live entry per
        worker; an entry whose stamp is no longer its worker's is stale and
        skipped when popped. The invariant: a key is never later than the
        worker's next crossing (or silent-push deadline), so a worker whose
        key lies after ``now`` has nothing to do. A key may be earlier, which
        costs one ``_advance_sw`` call that does nothing. Due workers run in
        registration order, as a scan over every worker would.
        """
        if out is None:
            out = Decision(True)
        heap = self._heap
        due = []
        while heap and heap[0][0] <= now:
            _wake_ts, _order, stamp, st = heapq.heappop(heap)
            if stamp == st.stamp:
                st.wake_ts = None
                due.append(st)
        if due:
            due.sort(key=attrgetter("order"))
            mark = len(out.actions), len(out.violations), len(out.notices)
            for st in due:
                self._advance_sw(st, now, out)
                self._reschedule(st, now)
            # Due workers append one at a time: merge by ts what they appended.
            for records, start in zip((out.actions, out.violations, out.notices), mark):
                records[start:] = sorted(records[start:], key=attrgetter("ts"))
        return out

    def _wake_key(self, st: _SwEngineState, now: int) -> Optional[int]:
        """The earliest time ``_advance_sw`` may have work for ``st``: its
        first silent-push deadline and, while it runs, its next crossing up
        to the end of the virtual day of ``now``, or that day's end when
        there is none. None when it has neither."""
        wake = st.pending_silent[0] if st.pending_silent else None
        if st.record.process is _RUNNING:
            day_end = (self._t0 or 0) + (self._day(now) + 1) * DAY_MS
            crossing = self._next_crossing(st, day_end)
            tick = crossing[0] if crossing is not None else day_end
            wake = tick if wake is None else min(wake, tick)
        return wake

    def _reschedule(self, st: _SwEngineState, now: int) -> None:
        """Key ``st`` at ``_wake_key``. Call it after ``_advance_sw`` and
        after every handler that set ``st.dirty``, which every change to an
        input of the key does (``_wake``, ``_stop``, the start of a
        self-update chain, a pushed or popped silent-push deadline).

        Nothing else moves the key: it depends on ``now`` only through its
        day, and a key computed on an earlier day is at most that day's
        end, so it is due, popped and recomputed by ``advance`` before any
        later handler runs."""
        st.dirty = False
        wake = self._wake_key(st, now)
        if wake == st.wake_ts:
            return  # the live entry still holds
        self._stamps += 1
        st.stamp = self._stamps
        st.wake_ts = wake
        if wake is None:
            return
        heap = self._heap
        heapq.heappush(heap, (wake, st.order, st.stamp, st))
        # Stale entries leave only when their time comes; drop them at once
        # when they outnumber the live ones, so the heap stays O(workers).
        if len(heap) > 4 * len(self._states) + 64:
            heap[:] = [entry for entry in heap if entry[2] == entry[3].stamp]
            heapq.heapify(heap)

    def _advance_sw(self, st: _SwEngineState, now: int, out: Decision) -> None:
        while st.pending_silent and st.pending_silent[0] <= now:
            self._silent_push_detected(st, st.pending_silent.popleft(), out)
        while st.record.process is _RUNNING:
            crossing = self._next_crossing(st, now)
            if crossing is None:
                break
            ts, reason, key, observed = crossing
            if key is not None:
                self._violate(st, self._specs[reason], key, ts, observed, out)
                continue
            if reason == "self_update_cap":
                st.capped = st.number
            # A self-update chain reached its cap or, in the closed loop, a
            # worker woke after spending today's budget: stop it, but log no
            # further violation.
            self._apply_action(st, ts, _TERMINATE, reason, out)

    def _next_crossing(self, st: _SwEngineState, now: int) -> Optional[_Crossing]:
        """The earliest clock crossing of ``st`` up to ``now``, as (tick,
        reason, key, observed). The reason is a rule's name, whose key is
        None when the crossing only stops the worker, or the self-update cap."""
        candidates: list[_Crossing] = []
        spec = self._specs["exec_per_activation"]
        if spec is not None and (spec.name, st.number) not in st.violated:
            ts = self._tick_after(st.start + int(spec.threshold * 60_000))
            if ts <= now:
                candidates.append((ts, spec.name, st.number, (ts - st.start) / 60_000))
        crossing = self._day_crossing(st, now)
        if crossing is not None:
            candidates.append(crossing)
        cap = self.profile.self_update_delay_cap_minutes
        if cap is not None and st.chain == st.number != st.capped:
            ts = self._tick_after(st.start + cap * 60_000)
            if ts <= now:
                candidates.append((ts, "self_update_cap", None, 0.0))
        # Each reason appears once, so ties on a tick fall to the reason.
        return min(candidates) if candidates else None

    def _day_crossing(self, st: _SwEngineState, now: int) -> Optional[_Crossing]:
        """The running activation's first day-budget crossing up to ``now``. The
        scan starts at ``st.day_cursor`` (None: the activation's first day) and
        moves it past each day over by ``now`` with no crossing. Such a day never
        crosses later, in either mode: its crossing lies past its end, its
        ``done`` changes only in ``_stop``, which ends the activation, and only
        its own crossing marks it violated."""
        spec = self._specs["exec_per_day"]
        if spec is None:
            return None
        name, budget_ms = spec.name, int(spec.threshold * 60_000)
        t0 = self._t0 or 0
        day = (st.start - t0) // DAY_MS if st.day_cursor is None else st.day_cursor
        last_day = (now - t0) // DAY_MS
        while day <= last_day:
            day_start = t0 + day * DAY_MS
            day_end = day_start + DAY_MS
            live_start = max(st.start, day_start)
            if (name, day) in st.violated:
                # Only meaningful in closed loop; open loop reported already.
                if self._closed_loop:
                    crossing = self._tick_after(live_start)
                    if crossing <= min(now, day_end):
                        return crossing, name, None, 0.0
            else:
                done = st.day_ms.get(day, 0)
                crossing = self._tick_after(live_start + max(budget_ms - done, 0))
                if crossing <= min(now, day_end):
                    return crossing, name, day, (done + crossing - live_start) / 60_000
            day += 1
            if day_end <= now:
                st.day_cursor = day
        return None

    def _silent_push_detected(self, st: _SwEngineState, ts: int, out: Decision) -> None:
        st.record.silent_push_count += 1
        sw_id = st.record.sw_id
        if st.record.silent_push_count == 1:  # it lapses, if it has not yet
            self._lapsed.setdefault(st.record.origin, {})[sw_id] = st
        if self.profile.default_notification_on_silent_push:
            out.notices.append(Notice(ts, sw_id, "default_notification", DEFAULT_NOTIFICATION_TITLE))
        limit = self.profile.silent_push_limit
        if limit is not None and st.record.push_subscribed and st.record.silent_push_count >= limit:
            st.record.push_subscribed = False
            out.notices.append(Notice(ts, sw_id, "revoke_subscription",
                                      f"silent pushes reached {limit}"))

    # -- main event entry point --------------------------------------------

    def on_event(self, event: TraceEvent, out: Optional[Decision] = None) -> Decision:
        """Advance the clock to the event when a worker is due, then judge it:
        an origin's kind by the engine's own handler, any other by its
        worker's table. The records go into ``out`` when given, else into a
        fresh Decision; a refusal clears its ``deliver``. The Decision is
        returned."""
        ts, kind, _origin, sw_id, _scope, _payload = event
        if self._t0 is None:
            self._t0 = ts
        if out is None:
            out = Decision(True)
        heap = self._heap
        if heap and heap[0][0] <= ts:  # a worker is due: ``advance`` has work
            self.advance(ts, out)
        origin_handler = self._origin_handlers.get(kind)
        if origin_handler is not None:
            origin_handler(self, event, out)
            return out
        if sw_id is None:
            return out
        st = self._states.get(sw_id) or self._first_sight(event, out)
        if st is None or st.record.phase is _DEREGISTERED:
            out.deliver = False
            return out
        handler = st.handlers.get(kind)
        if handler is not None:
            handler(self, st, event, out)
            if st.dirty:
                self._reschedule(st, ts)
        return out

    def _refuse(self, out: Decision) -> bool:
        """The one refusal point, for an event the closed loop would not let
        happen. ``simulate`` suppresses it and returns True, so the handler
        stops; ``enforce`` returns False, and the handler carries on with the
        recorded event as fact."""
        if self._closed_loop:
            out.deliver = False
            return True
        return False

    # -- per-kind handlers ---------------------------------------------------

    def _on_page_visit(self, event: TraceEvent, out: Decision) -> None:
        self.engagement_for(str(Origin.parse(event.origin))).visit(event.ts)

    def _on_permission_grant(self, event: TraceEvent, out: Decision) -> None:
        """Renew the origin's lapsed workers in registration order: those in
        ``_lapsed``, which holds a worker exactly while it is not subscribed or
        has a silent push counted. Renewing any other would change nothing."""
        lapsed = self._lapsed.pop(Origin.parse(event.origin), {})
        for st in sorted(lapsed.values(), key=attrgetter("order")):
            record = st.record
            record.push_subscribed, record.silent_push_count = True, 0
            out.notices.append(Notice(event.ts, record.sw_id, "subscription_renewed",
                                      event.get("permission", "notifications")))

    def _refuse_capability(self, st: _SwEngineState, event: TraceEvent, out: Decision,
                           reason: str) -> None:
        """The handler of a kind gated on a capability the worker lacks: in
        both modes the event is refused and throttled."""
        out.deliver = False
        self._apply_action(st, event.ts, _THROTTLE, reason, out)

    def _by_row(self, st: _SwEngineState, event: TraceEvent, out: Decision) -> bool:
        """The handler of every kind with none of its own: move the registration
        by the kind's lifecycle row, then wake the worker on activity. A move
        the model forbids goes through ``_refuse``; True means it refused."""
        row, record = KINDS[event.kind], st.record
        if row.lifecycle is not None:
            if not lifecycle_allows(record, row.lifecycle) and self._refuse(out):
                refuse_lifecycle_event(record, row.lifecycle)
                return True
            apply_lifecycle_event(record, row.lifecycle, force=True)
        if row.activity:
            self._wake(st, event.ts)
        return False

    def _bracket(self, st: _SwEngineState, event: TraceEvent, out: Decision, handler: Any) -> None:
        """The bracket step, then ``handler``, which may be the capability gate.
        An end with no open start raises in the open loop, as in forensics; the
        closed loop refuses it, because its start was suppressed with the worker."""
        try:
            st.step(event)
        except UnbalancedBrackets:
            if not self._refuse(out):
                raise
        handler(self, st, event, out)

    def _on_update_found(self, st: _SwEngineState, event: TraceEvent, out: Decision) -> None:
        # A stopped worker wakes for a browser-scheduled update, with no
        # chain; a running one starts a self-update chain in the activation
        # it is extending, which ends with that activation.
        running = st.record.process is _RUNNING
        if not self._by_row(st, event, out) and running and st.chain != st.number:
            st.chain = st.number
            st.dirty = True

    def _on_push(self, st: _SwEngineState, event: TraceEvent, out: Decision) -> None:
        record = st.record
        if not record.push_subscribed and self._refuse(out):
            out.notices.append(Notice(event.ts, record.sw_id, "push_dropped",
                                      "subscription revoked"))
            return
        spec = self._specs["push_per_hour"]
        if (spec is not None and event.origin not in self.config.allow_list
                and self._count(st, spec, self._slot(event.ts, spec.duration_in_minutes),
                                event.ts, out)):
            return
        self._wake(st, event.ts)
        st.pending_silent.append(event.ts + SILENT_PUSH_GRACE_MS)
        st.dirty = True

    def _on_fetch_request(self, st: _SwEngineState, event: TraceEvent, out: Decision) -> None:
        # A page-initiated fetch is no execution of the worker: it neither wakes nor is refused.
        if st.record.process is not _RUNNING and is_activity(event):
            if self._refuse(out):
                return
            self._wake(st, event.ts)  # open loop: the recorded event shows it running
        spec = self._specs["bg_fetch_per_activation"]
        if spec is not None and background_third_party(st, event.ts, event.payload):
            self._count(st, spec, st.number, event.ts, out)

    def _on_notification_show(self, st: _SwEngineState, event: TraceEvent, out: Decision) -> None:
        if st.record.process is not _RUNNING and self._refuse(out):
            return
        self._wake(st, event.ts)  # open loop: the recorded event shows it running
        if st.pending_silent:
            st.pending_silent.popleft()  # this push did show a notification
            st.dirty = True
        spec = self._specs["tag_reuse"]
        if st.show(event.ts, event.payload) and spec is not None:
            key = (event.get("tag"), self._slot(event.ts, spec.duration_in_minutes))
            self._count(st, spec, key, event.ts, out)

    def _on_notification_click(self, st: _SwEngineState, event: TraceEvent, out: Decision) -> None:
        if st.hide(event.payload) is None and self._refuse(out):
            return  # cannot click a notification never shown
        self._wake(st, event.ts)

    def _on_notification_close(self, st: _SwEngineState, event: TraceEvent, out: Decision) -> None:
        by_user = bool(event.get("by_user", False))
        if not by_user and st.record.process is not _RUNNING and self._refuse(out):
            return
        show_ts = st.hide(event.payload)
        if show_ts is None:
            self._refuse(out)
            return
        spec = self._specs["notif_min_visible"]
        delta_s = (event.ts - show_ts) / 1_000
        if not by_user and spec is not None and delta_s < spec.threshold:
            self._violate(st, spec, None, event.ts, delta_s, out)

    def _on_terminate(self, st: _SwEngineState, event: TraceEvent, out: Decision) -> None:
        if st.record.process is not _RUNNING:
            self._refuse(out)  # already stopped by policy
            return
        self._stop(st, event.ts)

    def finish(self, end_ts: int, out: Optional[Decision] = None) -> Decision:
        """Flush deadlines/caps up to the end of the observed trace, into
        ``out`` when given."""
        return self.advance(end_ts, out)

    def run(self, events: Sequence[TraceEvent]) -> SimulationResult:
        """Judge each event in order into one Decision, whose records move
        into the result after each event that made any, then flush the clock
        to the last event, where a worker still running is right-censored.
        ``on_event`` and ``finish`` are looked up on the instance, so an
        override or a wrapper on the class sees every call."""
        result = SimulationResult()
        on_event = self.on_event
        out = Decision(True)
        actions, violations, notices = out.actions, out.violations, out.notices
        all_actions, all_violations, all_notices = result.actions, result.violations, result.notices
        delivered, suppressed = result.delivered_events, result.suppressed_events
        for event in events:
            on_event(event, out)
            if actions:
                all_actions += actions
                actions.clear()
            if violations:
                all_violations += violations
                violations.clear()
            if notices:
                all_notices += notices
                notices.clear()
            if out.deliver:
                delivered.append(event)
            else:
                suppressed.append(event)
                out.deliver = True
        end_ts = events[-1].ts if events else 0
        self.finish(end_ts, out)
        all_actions += actions
        all_violations += violations
        all_notices += notices
        for sw_id, st in self._states.items():
            result.final_states[sw_id] = st.record.state
            intervals = result.running_intervals[sw_id] = list(st.intervals)
            if st.record.process is _RUNNING:
                intervals.append((st.start, end_ts))
        return result
