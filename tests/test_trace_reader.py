"""The trace reader against line-by-line references, on seeded hostile input.

``parse_trace`` decodes and checks each distinct line body once and reads
the ``ts`` in front of it from the text. Two readers it replaced are kept as
references: ``reference_parse``, ``json.loads`` and every check on every
line, and ``onepass_parse``, one scanner pass per line with each distinct
header checked once. Mutated generator traces must give all three readers
the same events, or the same exception class, line number and message. A
sample of the mutated traces must also make ``enforce`` and ``analyze``
return 0, 1 or 2, never raise.
"""

import json
import random

import pytest

from sw_sentinel.cli import run
from sw_sentinel.domains import url_registrable_domain
from sw_sentinel.model import Capability, ModelError, Origin, Scope
from sw_sentinel.scenarios import GENERATORS, Scenario, generate
from sw_sentinel.trace import (
    _HEADER_CACHE_SIZE,
    _SCAN_ONCE,
    EVENT_KINDS,
    MAX_TRACE_SPAN_MS,
    MalformedLine,
    OutOfOrderTimestamp,
    TraceError,
    TraceEvent,
    TraceSpanTooLong,
    UnknownEventKind,
    _check_header,
    _check_payload,
    _decode_error,
    emit_trace,
    new_record,
    parse_trace,
    read_trace,
)

from test_policy_clock import _params, merged_fleet

_HEADER_KEYS = ("ts", "kind", "origin", "sw_id", "scope")
_CAPABILITY_VALUES = frozenset(capability.value for capability in Capability)
_REQUIRED_PAYLOAD = {
    "push": (("push_id", str),),
    "fetch_request": (("url", str), ("initiator_is_sw", bool)),
    "notification_show": (("notif_id", str), ("title", str)),
    "notification_close": (("notif_id", str),),
    "notification_click": (("notif_id", str),),
    "permission_grant": (("permission", str),),
    "update_found": (("version", int),),
    "code_tampered": (("source", str),),
}


def _reference_validate(obj, line_no):
    if not isinstance(obj, dict):
        raise MalformedLine("record is not an object", line_no)
    ts = obj.get("ts")
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise MalformedLine("'ts' must be an integer millisecond count", line_no)
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise MalformedLine("'kind' must be a string", line_no)
    if kind not in EVENT_KINDS:
        raise UnknownEventKind(f"unknown event kind {kind!r}", line_no)
    origin = obj.get("origin")
    if not isinstance(origin, str) or "://" not in origin:
        raise MalformedLine("'origin' must look like scheme://host[:port]", line_no)
    try:
        Origin.parse(origin)
    except ModelError as exc:
        raise MalformedLine(f"bad origin {origin!r}: {exc}", line_no) from exc
    sw_id = obj.get("sw_id")
    if sw_id is not None and not isinstance(sw_id, str):
        raise MalformedLine("'sw_id' must be a string", line_no)
    scope = obj.get("scope")
    if scope is not None and not isinstance(scope, str):
        raise MalformedLine("'scope' must be a string", line_no)
    if scope:
        try:
            Scope(scope)
        except ModelError as exc:
            raise MalformedLine(f"bad scope {scope!r}: {exc}", line_no) from exc
    payload = {k: v for k, v in obj.items() if k not in _HEADER_KEYS}
    caps = payload.get("capabilities")
    if caps is not None and not (
        isinstance(caps, list)
        and all(isinstance(cap, str) and cap in _CAPABILITY_VALUES for cap in caps)
    ):
        raise MalformedLine(
            f"'capabilities' must be a list of {sorted(_CAPABILITY_VALUES)}", line_no
        )
    for key, typ in _REQUIRED_PAYLOAD.get(kind, ()):
        value = payload.get(key)
        if typ is int and isinstance(value, bool):
            raise MalformedLine(f"{kind}: '{key}' must be {typ.__name__}", line_no)
        if not isinstance(value, typ):
            raise MalformedLine(f"{kind}: missing/invalid '{key}'", line_no)
    # Rule added with the one-pass reader: the engine keys on the tag.
    tag = payload.get("tag")
    if kind == "notification_show" and tag is not None and not isinstance(tag, str):
        raise MalformedLine("notification_show: 'tag' must be a string", line_no)
    if kind == "fetch_request":
        url = payload["url"]
        if "://" not in url:
            raise MalformedLine("fetch_request: 'url' must carry scheme and host", line_no)
        try:
            url_registrable_domain(url)
        except ValueError as exc:
            raise MalformedLine(f"fetch_request: bad 'url' {url!r}: {exc}", line_no) from exc
    return TraceEvent(ts=ts, kind=kind, origin=origin, sw_id=sw_id, scope=scope,
                      payload=payload)


def _check_span(events):
    """Rule added with the span bound: the last ts at most MAX_TRACE_SPAN_MS
    after the first."""
    if events and events[-1].ts - events[0].ts > MAX_TRACE_SPAN_MS:
        raise TraceSpanTooLong(
            f"ts {events[-1].ts} is more than {MAX_TRACE_SPAN_MS} ms (366 days) after the "
            f"first ts {events[0].ts}")


def reference_parse(lines):
    """Oracle: decode each line with json.loads and run every check on it."""
    events = []
    last_ts = None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(f"invalid JSON ({exc.msg})", line_no) from exc
        except RecursionError as exc:  # rule added with the one-pass reader
            raise MalformedLine("invalid JSON (nesting too deep)", line_no) from exc
        except ValueError as exc:  # rule added for integers past CPython's digit limit
            raise MalformedLine(f"invalid JSON ({exc})", line_no) from exc
        event = _reference_validate(obj, line_no)
        if last_ts is not None and event.ts < last_ts:
            raise OutOfOrderTimestamp(
                f"ts {event.ts} precedes previous ts {last_ts}", line_no
            )
        last_ts = event.ts
        events.append(event)
    _check_span(events)
    return events


def onepass_parse(lines):
    """Oracle: the reader before line bodies were remembered. Each line is
    decoded by the scanner and its kind-specific keys are checked; each
    distinct header is checked once. Payloads are dicts."""
    events = []
    append = events.append
    headers = {}
    last_ts = None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _SCAN_ONCE(line, 0)
        except (StopIteration, ValueError, RecursionError) as exc:
            raise _decode_error(line, exc, line_no) from exc
        if end != len(line):
            raise MalformedLine("invalid JSON (Extra data)", line_no)
        if type(obj) is not dict:
            raise MalformedLine("record is not an object", line_no)
        ts = obj.pop("ts", None)
        if type(ts) is not int:
            raise MalformedLine("'ts' must be an integer millisecond count", line_no)
        kind = obj.pop("kind", None)
        origin = obj.pop("origin", None)
        sw_id = obj.pop("sw_id", None)
        scope = obj.pop("scope", None)
        header = (kind, origin, sw_id, scope)
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
        if not obj:
            obj = {}
        append(new_record(TraceEvent, (ts, kind, origin, sw_id, scope, obj)))
    _check_span(events)
    return events


def outcome(reader, lines):
    """The events, or the class, line number and text of the TraceError.
    Any other exception escapes and fails the test."""
    try:
        return reader(lines)
    except TraceError as exc:
        return (type(exc), exc.line_no, str(exc))


def assert_readers_agree(lines):
    expected = outcome(reference_parse, lines)
    assert outcome(onepass_parse, lines) == expected, lines
    assert outcome(parse_trace, lines) == expected, lines
    return expected


# A line of each count-preserving shape: the three decode as a JSON array of
# exactly three objects, yet each is malformed on its own.
TRIO = ['{"a":[{}', '{}]}', '{"ts":1},{"ts":2}']
HOSTILE = [["x"], {"k": "v"}, [], {}, 0, 7, -1.5, True, False, None, "", "x"]


def base_traces():
    """Short traces of every generator, plus a merged fleet with many headers."""
    rng = random.Random(7)
    traces = []
    for name in sorted(GENERATORS):
        for _ in range(2):
            events = generate(Scenario(name, rng.randrange(1 << 16), _params(name, rng)))
            traces.append(list(emit_trace(events[:60])))
    traces.append(list(emit_trace(merged_fleet(3, workers=5, names=sorted(GENERATORS))[:120])))
    for lines in traces:
        for index, line in enumerate(lines):  # let some shows carry a tag
            if '"kind":"notification_show"' in line and index % 2 and '"tag"' not in line:
                lines[index] = line[:-1] + ',"tag":"t"}'
    return traces


BASES = base_traces()


def mutate(lines, rng):
    """One line-level mutation of a copy of ``lines``."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    line = lines[i]
    op = rng.choice(("drop", "dup", "swap", "join", "split", "trio", "retime"))
    if op == "swap":
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            key = rng.choice(sorted(obj) + ["tag", "capabilities"])
            obj[key] = rng.choice(HOSTILE)
            lines[i] = json.dumps(obj, separators=(",", ":"))
            return lines
        op = "drop"
    if op == "drop" and line:
        at = rng.randrange(len(line))
        lines[i] = line[:at] + line[at + 1:]
    elif op == "dup" and line:
        at = rng.randrange(len(line))
        lines[i] = line[:at] + line[at] + line[at:]
    elif op == "join" and i + 1 < len(lines):
        lines[i:i + 2] = [line + rng.choice(("", ",", " ")) + lines[i + 1]]
    elif op == "split" and len(line) > 1:
        at = rng.randrange(1, len(line))
        lines[i:i + 1] = [line[:at], line[at:]]
    elif op == "trio":
        lines[i:i] = TRIO
    elif op == "retime" and i:
        # An earlier line's body under the ts of the line it replaces (a hit
        # where the body was remembered), another ts, or a broken one.
        body = lines[rng.randrange(i)].partition(",")[2]
        ts = rng.choice((line.partition(",")[0][6:],) * 6 + (
            "0", str(rng.randrange(10**9)), "01", "-1", "-0", "1e3", "2.5", "\u00b2",
            "\u0663", " 7", "7 ", '"7"'))
        lines[i] = rng.choice(('{"ts":',) * 4 + ('{ "ts":', '{"ts" :')) + ts + "," + body
    return lines


def test_the_trio_is_three_malformed_lines():
    assert len(json.loads("[" + ",".join(TRIO) + "]")) == 3
    for index in range(3):
        lines = ['{"ts":0,"kind":"sync","origin":"https://a.example"}'] + TRIO[index:]
        assert assert_readers_agree(lines)[:2] == (MalformedLine, 2)


@pytest.mark.parametrize("text", [
    "\ufeff{}", "{", "}", "{}{}", "{} {}", "{},", "5", "[]", '"x"', "nul", "NaN",
    '{"ts":1', '{"ts":1,}', '{"ts":01}', '{"ts":1e3}', '{"ts":-0}', "\x0b{}", "{}\x1c",
    '{"ts":1,"kind":"sync","origin":"https://a.example","ts":"x"}',
])
def test_json_edge_lines_agree(text):
    head = '{"ts":0,"kind":"sync","origin":"https://a.example"}'
    assert_readers_agree([head, text, head.replace('"ts":0', '"ts":2')])


SEEN = ('{"ts":5,"kind":"push","origin":"https://a.example","sw_id":"sw-1","scope":"/",'
        '"push_id":"p1"}')
BODY = SEEN.partition(",")[2]


@pytest.mark.parametrize("line", [
    *('{"ts":' + ts + "," + BODY for ts in (
        "01", "00", "-1", "-0", "1e3", "6E0", "6.0", "²", "٣", "6 ", " 6", "6\t")),
    '{ "ts":6,' + BODY, '{"ts" :6,' + BODY, '{"tS":6,' + BODY, '  {"ts":6,' + BODY + " ",
    '{"kind":"push","ts":6,' + BODY.replace('"kind":"push",', ""),
    '{"ts":6,}', '{"ts":6,' + BODY[:-1] + ',}', '{"ts":6,' + BODY + ",",
    '{"ts":6,' + BODY[:-1] + ',"ts":5}', '{"ts":6,' + BODY[:-1] + ',"t\\u0073":5}',
    '{"ts":4,' + BODY, '{"ts":5,' + BODY, '{"ts":0,' + BODY, '{"ts":70000000000,' + BODY,
])
def test_a_remembered_body_under_a_hostile_prefix_or_tail_agrees(line):
    """The body of the first two lines is remembered; the third line brings
    it back behind a ts that JSON does not read as the canonical digits, with
    a tail that changes the object, or out of order."""
    assert_readers_agree([SEEN, SEEN, line, '{"ts":9,' + BODY])


@pytest.mark.parametrize("key", ['"ts"', '"t\\u0073"'])
def test_a_body_with_a_second_ts_key_is_never_remembered(key):
    body = BODY[:-1] + "," + key + ":7}"
    events = assert_readers_agree(['{"ts":5,' + body, '{"ts":8,' + body, '{"ts":6,' + body])
    assert [event.ts for event in events] == [7, 7, 7]


def test_an_out_of_order_ts_on_a_remembered_body_is_reported_as_before():
    result = assert_readers_agree([SEEN, '{"ts":6,' + BODY, '{"ts":4,' + BODY])
    assert result == (OutOfOrderTimestamp, 3, "line 3: ts 4 precedes previous ts 6")


@pytest.mark.parametrize("lines", [
    ['{"ts":' + "9" * 5_000 + "," + BODY],
    [SEEN, '{"ts":6,' + BODY, '{"ts":' + "9" * 5_000 + "," + BODY],
    [SEEN, '{"ts":6,' + BODY, '{"ts":-' + "9" * 5_000 + "," + BODY],
    [SEEN, '{"ts":7,' + BODY[:-1] + ',"n":' + "9" * 4_301 + "}"],
    [SEEN, '{"ts":6,"kind":"update_found","origin":"https://a.example","version":'
     + "1" * 5_000 + "}"],
    ['{"ts":' + "9" * 4_300 + "," + BODY] * 3,
], ids=["first_ts", "remembered_ts", "negative_ts", "payload", "version", "at_the_limit"])
def test_integers_past_the_digit_limit_are_malformed(lines):
    """CPython converts integers of at most 4,300 digits from text; a longer
    one makes its line malformed, whether the line is decoded or only its
    ts is read in front of a remembered body."""
    result = assert_readers_agree(lines)
    if lines[-1].startswith('{"ts":' + "9" * 4_300 + ","):
        assert [event.ts for event in result] == [int("9" * 4_300)] * 3
    else:
        assert result[:2] == (MalformedLine, len(lines))
        assert "4300 digits" in result[2]


def _line(ts, body=BODY, end=""):
    return f'{{"ts":{ts},{body}{end}'


OTHER = BODY.replace('"p1"', '"p2"')


def _share_one_payload(events):
    return len({id(event.payload) for event in events}) == 1


@pytest.mark.parametrize("end", ["", "\n", "\r\n"], ids=["item", "lf", "crlf"])
@pytest.mark.parametrize("ts", [
    "007", "-5", "+5", "1_000", " 5", "\u0663", "\u00b2", "9" * 4_301, "1" + "0" * 18,
    "6", "7",
], ids=["leading_zeros", "minus", "plus", "underscore", "space", "arabic_indic_digit",
        "superscript_digit", "past_the_digit_limit", "nineteen_digits", "smaller", "equal"])
def test_a_line_with_the_runs_tail_and_a_hostile_ts_agrees(ts, end):
    """Lines 2 and 3 repeat the body of line 1, so line 4 ends with the
    remembered tail; its ts is not canonical digits, or is not after line 3's."""
    lines = [_line(5, end=end), _line(6, end=end), _line(7, end=end), _line(ts, end=end),
             _line(9, end=end)]
    result = assert_readers_agree(lines)
    if ts == "7":
        assert [event.ts for event in result] == [5, 6, 7, 7, 9]
        assert _share_one_payload(parse_trace(lines))


def test_an_indented_repeat_starts_no_run():
    """A tail is taken only from a line that starts with its ts: after an
    indented repeat, a line that ends as its text does is decoded."""
    indented = "  " + _line(7)
    result = assert_readers_agree([_line(5), _line(6), indented, '{"ts":8' + indented[7:]])
    assert result[:2] == (MalformedLine, 4)


def test_a_run_broken_by_another_body_resumes():
    lines = [_line(ts) for ts in range(5, 10)] + [_line(10, OTHER), _line(10, OTHER)]
    lines += [_line(ts) for ts in range(11, 16)] + [_line(16, OTHER)] + [_line(17)]
    assert assert_readers_agree(lines)
    events = parse_trace(lines)
    assert [event.ts for event in events] == [*range(5, 10), 10, 10, *range(11, 18)]
    assert _share_one_payload([event for event in events if event.payload["push_id"] == "p1"])
    assert _share_one_payload([event for event in events if event.payload["push_id"] == "p2"])


def test_a_run_across_the_body_cache_clear():
    """A long run keeps the parse remembering bodies; distinct bodies then
    fill the cache until it is cleared, and the run's body comes back
    decoded afresh."""
    lines = [_line(ts) for ts in range(4_200)]
    lines += [_line(4_200 + i, BODY.replace('"p1"', f'"q{i}"'))
              for i in range(_HEADER_CACHE_SIZE)]
    lines += [_line(ts) for ts in range(9_000, 9_004)]
    assert assert_readers_agree(lines)
    events = parse_trace(lines)
    before, after = events[:4_200], events[-4:]
    assert _share_one_payload(before) and _share_one_payload(after)
    assert after[0].payload is not before[0].payload


@pytest.mark.parametrize("distinct", [290, 400])
def test_run_lines_count_as_hits_for_the_stop_remembering_switch(distinct):
    """300 lines of one body are 299 hits: 290 distinct bodies after them
    leave the parse remembering, so the body's return shares its payload;
    400 make it stop, and the body is decoded afresh."""
    lines = [_line(ts) for ts in range(300)]
    lines += [_line(300 + i, BODY.replace('"p1"', f'"q{i}"')) for i in range(distinct)]
    lines += [_line(1_000), _line(1_001)]
    assert assert_readers_agree(lines)
    events = parse_trace(lines)
    assert (events[-1].payload is events[0].payload) == (distinct == 290)
    assert _share_one_payload(events[:300])


def test_a_crlf_file_reads_as_its_lines(tmp_path):
    lines = [_line(ts) for ts in range(5, 12)] + [_line(12, OTHER), _line(13)]
    path = tmp_path / "t.jsonl"
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    events = read_trace(str(path))
    assert events == assert_readers_agree([line + "\r\n" for line in lines])
    assert _share_one_payload(events[:7] + events[8:])


def test_a_span_past_the_bound_is_refused():
    last = _line(5 + MAX_TRACE_SPAN_MS)
    assert len(assert_readers_agree([_line(5), _line(6), last])) == 3
    result = assert_readers_agree([_line(5), _line(6), _line(6 + MAX_TRACE_SPAN_MS)])
    assert result[:2] == (TraceSpanTooLong, 0)


def test_payloads_are_shared_read_only_mappings():
    miss, hit, unremembered = parse_trace(
        [SEEN, '{"ts":6,' + BODY, '{"ts":7,' + BODY[:-1] + ',"title":"\\"x\\""}'])
    assert hit.payload is miss.payload
    # No body repeats in the first lines, so the parse stops remembering
    # bodies: the last two lines no longer share a payload.
    distinct = [f'{{"ts":{i},"kind":"push","origin":"https://a.example","push_id":"p{i}"}}'
                for i in range(600)]
    stopped = parse_trace(distinct + distinct[-1:])
    assert stopped[-1].payload == stopped[-2].payload
    assert stopped[-1].payload is not stopped[-2].payload
    for event in (miss, hit, unremembered, stopped[0], stopped[-1]):
        with pytest.raises(TypeError):
            event.payload["push_id"] = "x"
        assert event == event._replace(payload=dict(event.payload))
    assert [miss, hit] == reference_parse([SEEN, '{"ts":6,' + BODY])


@pytest.mark.parametrize("base", range(len(BASES)))
def test_unmutated_traces_parse_alike(base):
    events = assert_readers_agree(BASES[base])
    assert isinstance(events, list) and len(events) == len(BASES[base])


def test_every_field_swap_agrees():
    """Each header and payload field of one line of every kind, swapped for
    each hostile JSON value, in a trace where its header was already seen."""
    samples = {}
    for lines in BASES:
        for index, line in enumerate(lines):
            kind = json.loads(line)["kind"]
            if index and (kind not in samples or '"tag"' in line):
                samples[kind] = (lines[index - 1], line)
    assert len(samples) >= 12
    rejected = 0
    for before, line in samples.values():
        obj = json.loads(line)
        for key in sorted(obj) + ["tag", "capabilities", "extra"]:
            for value in HOSTILE:
                swapped = json.dumps({**obj, key: value}, separators=(",", ":"))
                result = assert_readers_agree([before, line, swapped])
                rejected += not isinstance(result, list)
    assert rejected > 300


def test_seeded_mutations_agree(tmp_path, capsys):
    rng = random.Random(2024)
    outcomes = {"events": 0, "errors": 0}
    cli_runs = 0
    for round_no in range(1_500):
        lines = rng.choice(BASES)
        for _ in range(rng.randint(1, 2)):
            lines = mutate(lines, rng)
        result = assert_readers_agree(lines)
        outcomes["events" if isinstance(result, list) else "errors"] += 1
        if round_no % 30 == 0:
            trace = tmp_path / "t.jsonl"
            trace.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            for command in ("enforce", "analyze"):
                assert run([command, "--trace", str(trace),
                            "--out", str(tmp_path / command)]) in (0, 1, 2)
            cli_runs += 1
    capsys.readouterr()
    assert min(outcomes.values()) > 100, outcomes
    assert cli_runs == 50
