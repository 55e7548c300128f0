"""Canonical service-worker event traces.

One event per line, UTF-8 JSON objects with required keys ``ts`` (integer
virtual milliseconds), ``kind``, ``origin``, optional ``sw_id`` / ``scope``,
plus kind-specific payload keys (``KINDS``). Unknown payload keys survive a
round-trip.
Timestamps are non-decreasing within a trace.
"""

from __future__ import annotations

import json
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .domains import url_registrable_domain
from .model import Capability, ModelError, Origin, Scope, SwSentinelError


class TraceError(SwSentinelError):
    """Base class for trace-format failures; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


class MalformedLine(TraceError):
    pass


class OutOfOrderTimestamp(TraceError):
    pass


class UnknownEventKind(TraceError):
    pass


class TraceSpanTooLong(TraceError):
    pass


class InvariantViolation(SwSentinelError):
    """Events handed to emit_trace broke a trace invariant."""


class UnbalancedBrackets(SwSentinelError):
    """A fetch_event_end came with no open fetch_event_start, or a start was left open."""


class Kind(NamedTuple):
    """What one event kind means to every layer: a row of ``KINDS``."""

    payload: tuple[tuple[str, type], ...] = ()  # required keys, json-typed as shown
    capability: Optional[Capability] = None  # a worker lacking it is refused the event
    lifecycle: Optional[str] = None  # the model's row that moves the registration
    activity: bool | str = False  # shows the worker executing; a str: when that flag is true
    bracket: int = 0  # 1 opens a fetch-handler bracket, -1 closes one
    of_origin: bool = False  # the origin's event: it belongs to no worker, sw_id or not


# The one table of event kinds: the reader's checks, the engine's handlers and
# capability gates, and forensics' activations, brackets and workers all read it.
KINDS: dict[str, Kind] = {
    "register": Kind(lifecycle="register"),
    "install": Kind(lifecycle="install_done", activity=True),
    "activate": Kind(lifecycle="activate", activity=True),
    "update_check": Kind(lifecycle="update_check"),
    "update_found": Kind((("version", int),), lifecycle="update_found", activity=True),
    "push": Kind((("push_id", str),), Capability.PUSH, activity=True),
    "notification_show": Kind((("notif_id", str), ("title", str)), Capability.NOTIFICATIONS,
                              activity=True),
    "notification_close": Kind((("notif_id", str),), Capability.NOTIFICATIONS),
    "notification_click": Kind((("notif_id", str),), Capability.NOTIFICATIONS, activity=True),
    "fetch_event_start": Kind(capability=Capability.FETCH_INTERCEPT, activity=True, bracket=1),
    "fetch_event_end": Kind(capability=Capability.FETCH_INTERCEPT, bracket=-1),
    "fetch_request": Kind((("url", str), ("initiator_is_sw", bool)), Capability.FETCH_INTERCEPT,
                          activity="initiator_is_sw"),
    "sync": Kind(capability=Capability.SYNC, activity=True),
    "periodicsync": Kind(capability=Capability.PERIODIC_SYNC, activity=True),
    "terminate": Kind(),
    "page_visit": Kind(of_origin=True),
    "permission_grant": Kind((("permission", str),), of_origin=True),
    "code_tampered": Kind((("source", str),)),
}
EVENT_KINDS = frozenset(KINDS)

_CAPABILITY_VALUES = frozenset(capability.value for capability in Capability)

# One encoder for the values emit_trace does not write itself: json.dumps
# with non-default arguments would build a new one per call.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_json_str = json.encoder.encode_basestring
# The header fields' names, which no payload key may reuse.
_HEADER_KEYS = frozenset({"ts", "kind", "origin", "sw_id", "scope"})

# One decoder's scanner decodes every line: a stripped line needs none of
# json.loads' whitespace skipping, and parse_trace words the scanner's
# failures as json.loads does.
_SCAN_ONCE = json.JSONDecoder().scan_once

HOUR_MS = 3_600_000
DAY_MS = 86_400_000
# The longest span from a trace's first ts to its last that parse_trace
# accepts: 366 days. The engine and forensics do work for each virtual day.
MAX_TRACE_SPAN_MS = 366 * DAY_MS

# How many distinct headers, and how many line bodies, one parse remembers as
# checked. Past it the memory is dropped and refilled from the lines that follow.
_HEADER_CACHE_SIZE = 4096


@lru_cache(maxsize=4096)
def _check_scope(scope: str) -> None:
    """Raise InvalidScope unless ``scope`` meets the Scope rules. Traces
    repeat a few scopes on every line, so each distinct one is checked once."""
    Scope(scope)


# The payload of an event built without one. It is shared, so it is read-only.
_NO_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


class TraceEvent(NamedTuple):
    """One timestamped occurrence; ``payload`` holds all kind-specific keys.

    An immutable record that costs a tuple to build: its fields cannot be
    assigned, and an event built without a payload gets the shared read-only
    empty mapping. Every payload the package makes, parsed or generated, is
    a read-only mapping over a dict nothing else holds, so it never changes:
    emit_trace writes the text of a repeated one once. A caller's own dict
    payload is written afresh on every line.
    """

    ts: int
    kind: str
    origin: str
    sw_id: Optional[str] = None
    scope: Optional[str] = None
    payload: Mapping[str, Any] = _NO_PAYLOAD

    def get(self, key: str, default: Any = None) -> Any:
        return self.payload.get(key, default)


def is_activity(event: TraceEvent) -> bool:
    """Whether ``event`` shows its worker executing, by its kind's row."""
    activity = KINDS[event.kind].activity
    return activity is True or (activity is not False and bool(event.payload.get(activity)))


def day_segments(start: int, end: int, t0: int) -> Iterator[tuple[int, int]]:
    """Split the span [start, end) at the virtual midnights counted from
    ``t0``: each virtual day it touches, with its milliseconds in that day."""
    day = (start - t0) // DAY_MS
    while start < end:
        day_end = t0 + (day + 1) * DAY_MS
        yield day, min(end, day_end) - start
        start = day_end
        day += 1


class Activity:
    """What the engine and forensics both keep of one worker, and the one
    home of the rules they share: its fetch-handler brackets, its visible
    notifications, and its activations, which only ``wake`` and ``stop``
    open and close. Each layer keeps in its own code who decides to wake
    (the engine by its record's process, after its capability refusals;
    forensics on ``is_activity`` while ``start`` is None), how it builds
    ``first_party``, its own resets (the engine's of ``last_end`` at a wake,
    the closed loop's of ``depth`` at a stop) and checks (forensics' same-ts
    take-back and bracket left open), and the engine's day ledger, day
    cursor, rule counters and ladder."""

    __slots__ = ("first_party", "depth", "last_end", "visible", "tags", "start", "number",
                 "intervals")

    def __init__(self, first_party: frozenset[str]) -> None:
        self.first_party = first_party  # registrable domains that are not third party
        self.depth = 0
        self.last_end: Optional[int] = None
        self.visible: dict[str, tuple[int, Optional[str]]] = {}
        self.tags: dict[str, str] = {}  # each tag shown, to the notif_id last shown with it
        self.start: Optional[int] = None  # the open activation's first ts; None while stopped
        self.number = 0  # the number of the open (or last) activation
        self.intervals: list[tuple[int, int]] = []  # the closed ones

    def step(self, event: TraceEvent) -> bool:
        """Open or close a bracket by ``event``'s kind; True when a span opens.
        Nested brackets merge into one span; ``last_end`` is the ts where the
        depth last fell to 0. An end with no open start raises UnbalancedBrackets."""
        if KINDS[event.kind].bracket > 0:
            self.depth += 1
            return self.depth == 1
        if not self.depth:
            raise UnbalancedBrackets(
                f"fetch_event_end at ts {event.ts} for {event.sw_id!r} has no open start")
        self.depth -= 1
        if not self.depth:
            self.last_end = event.ts
        return False

    def show(self, ts: int, payload: Mapping[str, Any]) -> bool:
        """Show the notification of ``payload`` at ``ts``; True when it
        replaced a visible notification with its tag. A notification stays
        visible until a click or a close of its ``notif_id``, or a later show
        with its ``tag``; a show of a visible ``notif_id`` shows it afresh. So only
        the notification ``tags`` names for a tag can hold it: no show scans ``visible``."""
        tag, visible, notif_id = payload.get("tag"), self.visible, payload.get("notif_id", "")
        held = self.tags.get(tag)
        replaced = tag is not None and held in visible and visible[held][1] == tag
        if replaced:
            del visible[held]
        if tag is not None:
            self.tags[tag] = notif_id
        visible[notif_id] = (ts, tag)
        return replaced

    def hide(self, payload: Mapping[str, Any]) -> Optional[int]:
        """Hide the notification a click or a close of ``payload`` names: the
        ts of its show, or None when no such notification is visible."""
        shown = self.visible.pop(payload.get("notif_id", ""), None)
        return None if shown is None else shown[0]

    def wake(self, ts: int) -> None:
        """Open the next activation at ``ts``."""
        self.start = ts
        self.number += 1

    def stop(self, ts: int) -> None:
        """Close the open activation at ``ts``: its interval."""
        self.intervals.append((self.start, ts))
        self.start = None


def background_third_party(activity: Activity, ts: int, payload: Mapping[str, Any]) -> bool:
    """The one rule of a background third-party fetch, which the engine and
    forensics share: a ``fetch_request`` at ``ts`` with ``payload`` is one when
    the worker initiated it, none of its ``activity``'s brackets holds ``ts``
    (a bracket's end counts as inside), and its URL's registrable domain is
    not among the worker's ``first_party`` domains."""
    if not payload.get("initiator_is_sw") or activity.depth or ts == activity.last_end:
        return False
    return url_registrable_domain(payload.get("url", "")) not in activity.first_party


# new_record(TraceEvent, (ts, kind, origin, sw_id, scope, payload)) builds a
# NamedTuple record without the Python frame of its generated __new__, at half
# its cost; the reader, the generators and the engine build many.
new_record = tuple.__new__


def _decode_error(line: str, exc: Exception, line_no: int) -> MalformedLine:
    """The MalformedLine for a line the scanner rejected, worded as json.loads
    words it."""
    if isinstance(exc, json.JSONDecodeError):
        msg = exc.msg
    elif isinstance(exc, ValueError):  # an integer past CPython's int-size limit
        msg = str(exc)
    elif isinstance(exc, RecursionError):
        msg = "nesting too deep"
    elif line.startswith("\ufeff"):
        msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
    else:  # StopIteration: no value starts the line
        msg = "Expecting value"
    return MalformedLine(f"invalid JSON ({msg})", line_no)


def _check_header(kind: Any, origin: Any, sw_id: Any, scope: Any, line_no: int) -> None:
    """Raise the first failure among a record's header fields, checked in the
    order kind, origin, sw_id, scope."""
    if not isinstance(kind, str):
        raise MalformedLine("'kind' must be a string", line_no)
    if kind not in KINDS:
        raise UnknownEventKind(f"unknown event kind {kind!r}", line_no)
    if not isinstance(origin, str) or "://" not in origin:
        raise MalformedLine("'origin' must look like scheme://host[:port]", line_no)
    try:
        Origin.parse(origin)
    except ModelError as exc:
        raise MalformedLine(f"bad origin {origin!r}: {exc}", line_no) from exc
    if sw_id is not None and not isinstance(sw_id, str):
        raise MalformedLine("'sw_id' must be a string", line_no)
    if scope is not None and not isinstance(scope, str):
        raise MalformedLine("'scope' must be a string", line_no)
    if scope:  # the engine reads an empty scope as "/"
        try:
            _check_scope(scope)
        except ModelError as exc:
            raise MalformedLine(f"bad scope {scope!r}: {exc}", line_no) from exc


def _check_payload(kind: str, payload: dict[str, Any], line_no: int) -> None:
    """Raise the first failure of a record's kind-specific keys."""
    caps = payload.get("capabilities")
    if caps is not None and not (
        isinstance(caps, list)
        and all(isinstance(cap, str) and cap in _CAPABILITY_VALUES for cap in caps)
    ):
        raise MalformedLine(
            f"'capabilities' must be a list of {sorted(_CAPABILITY_VALUES)}", line_no
        )
    for key, typ in KINDS[kind].payload:
        value = payload.get(key)
        if type(value) is typ:  # what every well-formed line holds
            continue
        if typ is int and isinstance(value, bool):
            raise MalformedLine(f"{kind}: '{key}' must be {typ.__name__}", line_no)
        if not isinstance(value, typ):
            raise MalformedLine(f"{kind}: missing/invalid '{key}'", line_no)
    if kind == "notification_show":
        tag = payload.get("tag")
        if tag is not None and not isinstance(tag, str):  # the engine keys on it
            raise MalformedLine("notification_show: 'tag' must be a string", line_no)
    elif kind == "fetch_request":
        url = payload["url"]
        if "://" not in url:
            raise MalformedLine("fetch_request: 'url' must carry scheme and host", line_no)
        try:
            url_registrable_domain(url)  # what the engine and forensics ask of it
        except ValueError as exc:
            raise MalformedLine(f"fetch_request: bad 'url' {url!r}: {exc}", line_no) from exc


def parse_trace(lines: Iterable[str]) -> list[TraceEvent]:
    """Parse line-delimited trace records, enforcing timestamp ordering.

    A line that starts ``{"ts":<canonical digits>,`` is split there; the rest
    of it, its body, is decoded and checked once per distinct text, and the
    events of one body share its header strings and its read-only payload.
    Other lines are decoded on their own: the header (kind, origin, sw_id,
    scope) is checked once per distinct value, the kind-specific keys on
    every line. A parse whose first lines rarely repeat a body stops
    remembering bodies. Every payload is a read-only mapping.

    A run of lines that repeat one body costs only its digits: once two
    adjacent lines find the same remembered body, the raw text after the
    second one's ts is the run's tail, and each following line that is
    ``{"ts":`` plus canonical digits, no smaller than the last ts, plus that
    tail is the run's next event. Any other line ends the run.

    A trace whose last ts is more than ``MAX_TRACE_SPAN_MS`` after its first
    raises TraceSpanTooLong.
    """
    events: list[TraceEvent] = []
    append = events.append
    headers: dict[tuple, tuple] = {}
    # Body text -> (kind, origin, sw_id, scope, payload); None once dropped.
    bodies: Optional[dict[str, tuple]] = {}
    hits = misses = 0
    last_ts: Optional[int] = None
    # The run: the raw text after its ts, or None, and where that text starts
    # counted from the line's end; the last hit's entry and line number.
    tail: Optional[str] = None
    cut = 0
    hit_entry: tuple = ()
    hit_no = 0
    for line_no, line in enumerate(lines, start=1):
        if tail is not None:
            if line.startswith('{"ts":') and line.endswith(tail):
                digits = line[6:cut]
                # The ts rule of a hit below; a ts of more than 18 digits,
                # which int() might refuse, is read there.
                if (digits.isdigit() and digits.isascii() and len(digits) < 19
                        and (digits[0] != "0" or digits == "0")
                        and (ts := int(digits)) >= last_ts):
                    hits += 1
                    last_ts = ts
                    append(new_record(TraceEvent, (ts,) + hit_entry))
                    continue
            tail = None
        text = line.strip()
        if not text:
            continue
        body = None
        if bodies is not None:
            head, _, body = text.partition(",")
            digits = head[6:]
            # A hit needs the ts JSON reads: canonical ASCII digits after
            # '{"ts":'. Other lines go to the decoder, as does a new body with
            # a second "ts" key, plain or escaped, since the last key wins.
            if not (head.startswith('{"ts":') and digits.isdigit() and digits.isascii()
                    and (digits[0] != "0" or digits == "0")):
                body = None
            elif (entry := bodies.get(body)) is not None:
                hits += 1
                try:
                    ts = int(digits)
                except ValueError as exc:  # more digits than int() converts
                    raise _decode_error(text, exc, line_no) from exc
                if last_ts is not None and ts < last_ts:
                    raise OutOfOrderTimestamp(f"ts {ts} precedes previous ts {last_ts}", line_no)
                last_ts = ts
                if entry is hit_entry and hit_no == line_no - 1 and line.startswith(head):
                    tail = line[len(head):]
                    cut = -len(tail)
                hit_entry, hit_no = entry, line_no
                append(new_record(TraceEvent, (ts,) + entry))
                continue
            elif '"ts"' in body or "\\" in body:
                body = None
            misses += 1
            if misses >= 256 and hits < misses:  # bodies rarely repeat here
                bodies = body = None
        try:
            obj, end = _SCAN_ONCE(text, 0)
        except (StopIteration, ValueError, RecursionError) as exc:
            raise _decode_error(text, exc, line_no) from exc
        if end != len(text):
            raise MalformedLine("invalid JSON (Extra data)", line_no)
        if type(obj) is not dict:
            raise MalformedLine("record is not an object", line_no)
        ts = obj.pop("ts", None)
        if type(ts) is not int:  # a bool is not a timestamp
            raise MalformedLine("'ts' must be an integer millisecond count", line_no)
        kind = obj.pop("kind", None)
        origin = obj.pop("origin", None)
        sw_id = obj.pop("sw_id", None)
        scope = obj.pop("scope", None)
        header = (kind, origin, sw_id, scope)
        # A remembered header holds only str and None, which no other JSON
        # value equals; a list or object field is unhashable.
        try:
            checked = headers.get(header)
        except TypeError:
            checked = None
        if checked is None:
            _check_header(kind, origin, sw_id, scope, line_no)
            if len(headers) >= _HEADER_CACHE_SIZE:
                headers.clear()
            checked = headers[header] = header
        kind, origin, sw_id, scope = checked
        _check_payload(kind, obj, line_no)
        if last_ts is not None and ts < last_ts:
            raise OutOfOrderTimestamp(f"ts {ts} precedes previous ts {last_ts}", line_no)
        last_ts = ts
        payload = MappingProxyType(obj) if obj else _NO_PAYLOAD
        if body is not None:
            if len(bodies) >= _HEADER_CACHE_SIZE:
                bodies.clear()
            bodies[body] = (kind, origin, sw_id, scope, payload)
        append(new_record(TraceEvent, (ts, kind, origin, sw_id, scope, payload)))
    check_span(events)
    return events


def check_span(events: Sequence[TraceEvent]) -> None:
    """Raise TraceSpanTooLong when the last ts of ``events`` is more than
    ``MAX_TRACE_SPAN_MS`` after the first: the one span bound of the reader
    and the generators."""
    if events and events[-1].ts - events[0].ts > MAX_TRACE_SPAN_MS:
        raise TraceSpanTooLong(
            f"ts {events[-1].ts} is more than {MAX_TRACE_SPAN_MS} ms "
            f"({MAX_TRACE_SPAN_MS // DAY_MS} days) after the first ts {events[0].ts}")


def _value_text(value: Any) -> str:
    """The text _LINE_ENCODER gives ``value``, written directly for the
    types a trace holds most."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return _LINE_ENCODER.encode(value)


def _header_text(kind: Any, origin: Any, sw_id: Any, scope: Any) -> str:
    text = ',"kind":' + _value_text(kind) + ',"origin":' + _value_text(origin)
    if sw_id is not None:
        text += ',"sw_id":' + _value_text(sw_id)
    if scope is not None:
        text += ',"scope":' + _value_text(scope)
    return text


def emit_trace(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Serialize events to canonical lines; inverse of parse_trace.

    Each line is the text ``_LINE_ENCODER`` gives an object of ``ts``,
    ``kind`` and ``origin``, then ``sw_id`` and ``scope`` when not None, then
    the payload's keys in sorted order. It is written from pieces made once
    per call: the text of each distinct header and payload key, and all
    after ``ts`` of a line whose header and read-only payload came before
    (a dict payload, which may change, is written every time; a call whose
    first bodies rarely repeat stops remembering them). Once a line finds
    the body of the line before it, each next line with an int ``ts`` whose
    payload and header fields are the very objects of that body reuses it
    (identity: 1, True and 1.0 are equal, with other texts). A payload key
    that is not a string, or that names a header field, would not parse
    back: it raises InvariantViolation.
    """
    headers: dict[tuple, str] = {}
    keys: dict[str, str] = {}
    # (id(payload), *header) -> (payload, text after ts), None once dropped.
    # Holding the payload keeps its id from going to another object.
    bodies: Optional[dict[tuple, tuple]] = {}
    hits = misses = 0
    last_ts: Optional[int] = None
    m_payload = forgotten = object()  # no event's payload
    m_kind = m_origin = m_sw_id = m_scope = m_body = last_entry = None
    for event in events:
        ts, kind, origin, sw_id, scope, payload = event
        if last_ts is not None and ts < last_ts:
            raise InvariantViolation(f"events out of order: ts {ts} after {last_ts}")
        last_ts = ts
        if (payload is m_payload and kind is m_kind and origin is m_origin
                and sw_id is m_sw_id and scope is m_scope and type(ts) is int):
            hits += 1
            yield f'{{"ts":{ts}{m_body}'
            continue
        line = f'{{"ts":{ts}' if type(ts) is int else '{"ts":' + _value_text(ts)
        body_key = None
        if bodies is not None and type(payload) is MappingProxyType:
            body_key = (id(payload), kind, origin, sw_id, scope)
            try:
                entry = bodies.get(body_key)
            except TypeError:  # an unhashable header field is never remembered
                entry = body_key = None
            if entry is not None:
                hits += 1
                if entry is last_entry:  # a run: its next line is one comparison
                    m_payload, m_kind, m_origin, m_sw_id, m_scope, m_body = (
                        payload, kind, origin, sw_id, scope, entry[1])
                last_entry = entry
                yield line + entry[1]
                continue
            misses += 1
            if misses >= 256 and hits < misses:  # bodies rarely repeat here
                bodies = body_key = None
                m_payload = forgotten
        header = (kind, origin, sw_id, scope)
        try:
            head = headers[header]
        except (KeyError, TypeError):  # not seen yet, or an unhashable field
            head = _header_text(kind, origin, sw_id, scope)
            # Only str/None fields, and bodies under them, are remembered:
            # 1 and True are equal keys with different texts.
            if (type(kind) is str and type(origin) is str
                    and (sw_id is None or type(sw_id) is str)
                    and (scope is None or type(scope) is str)):
                if len(headers) >= _HEADER_CACHE_SIZE:
                    headers.clear()
                headers[header] = head
            else:
                body_key = None
        # A line whose body is not remembered grows in place from its ts.
        body = head if body_key is not None else line + head
        if payload:
            try:
                payload_keys = sorted(payload)
            except TypeError:  # keys of types that do not compare: not all str
                raise InvariantViolation(f"payload keys of mixed types: {list(payload)!r}")
            for key in payload_keys:
                key_text = keys.get(key)
                if key_text is None:
                    if type(key) is not str or key in _HEADER_KEYS:
                        raise InvariantViolation(
                            f"payload key {key!r} is not a string or names a header field")
                    if len(keys) >= _HEADER_CACHE_SIZE:
                        keys.clear()
                    key_text = keys[key] = "," + _json_str(key) + ":"
                value = payload[key]
                body += key_text + (_json_str(value) if type(value) is str else _value_text(value))
        body += "}"
        if body_key is None:
            yield body
            continue
        if len(bodies) >= _HEADER_CACHE_SIZE:
            bodies.clear()
        last_entry = bodies[body_key] = (payload, body)
        yield line + body


def read_trace(path: str) -> list[TraceEvent]:
    with open(path, encoding="utf-8") as fh:
        return parse_trace(fh)

