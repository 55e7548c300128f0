import ast
import json
import random
from pathlib import Path
from types import MappingProxyType

import pytest

from sw_sentinel import forensics, policy, trace
from sw_sentinel.policy import PolicyEngine
from sw_sentinel.scenarios import Scenario, generate
from sw_sentinel.trace import (
    EVENT_KINDS,
    Activity,
    InvariantViolation,
    MalformedLine,
    OutOfOrderTimestamp,
    TraceEvent,
    UnbalancedBrackets,
    UnknownEventKind,
    emit_trace,
    parse_trace,
)

from test_forensics_fold import (
    BACKGROUND_FIRST_PARTY,
    BACKGROUND_THIRD_PARTY,
    FOREGROUND,
    bracket_intervals,
    classify_background_fetch,
)
from test_policy_clock import ALL_GENERATORS, _params

ORIGIN = "https://t.example"


def ev(ts, kind, sw_id="sw-1", **payload):
    return TraceEvent(ts=ts, kind=kind, origin=ORIGIN, sw_id=sw_id, scope="/",
                      payload=payload)


class TestParse:
    def test_two_push_lines(self):
        lines = [
            '{"ts":0,"kind":"push","origin":"https://t.example","sw_id":"sw-1","push_id":"a"}',
            '{"ts":1000,"kind":"push","origin":"https://t.example","sw_id":"sw-1","push_id":"b"}',
        ]
        events = parse_trace(lines)
        assert len(events) == 2
        assert events[1].get("push_id") == "b"

    def test_out_of_order_reports_line(self):
        lines = [
            '{"ts":1000,"kind":"push","origin":"https://t.example","push_id":"a"}',
            '{"ts":0,"kind":"push","origin":"https://t.example","push_id":"b"}',
        ]
        with pytest.raises(OutOfOrderTimestamp) as err:
            parse_trace(lines)
        assert err.value.line_no == 2

    def test_unknown_kind(self):
        with pytest.raises(UnknownEventKind):
            parse_trace(['{"ts":0,"kind":"telepathy","origin":"https://t.example"}'])

    def test_malformed_json(self):
        with pytest.raises(MalformedLine):
            parse_trace(["{nope"])

    def test_missing_required_payload(self):
        with pytest.raises(MalformedLine):
            parse_trace(['{"ts":0,"kind":"push","origin":"https://t.example"}'])
        with pytest.raises(MalformedLine):
            parse_trace(
                ['{"ts":0,"kind":"fetch_request","origin":"https://t.example","url":"x"}']
            )

    def test_bool_is_not_a_timestamp(self):
        with pytest.raises(MalformedLine):
            parse_trace(['{"ts":true,"kind":"push","origin":"https://t.example","push_id":"a"}'])

    def test_event_kind_enumeration_is_closed(self):
        assert len(EVENT_KINDS) == 18

    @pytest.mark.parametrize("fields", [
        {"origin": "https://t.example:99999"},
        {"origin": "https://t.example:x"},
        {"origin": "https://[::1"},
        {"scope": "nope"},
        {"scope": "/a/../b/"},
        {"capabilities": ["telepathy"]},
        {"capabilities": "push"},
        {"capabilities": [1]},
        {"kind": "fetch_request", "url": "https://[x/a", "initiator_is_sw": True},
        {"kind": "notification_show", "notif_id": "n1", "title": "t", "tag": ["x"]},
        {"kind": "notification_show", "notif_id": "n1", "title": "t", "tag": 7},
        {"sw_id": ["x"]},
        {"scope": {"k": "/"}},
        {"kind": ["register"]},
        {"origin": ["https://t.example"]},
    ], ids=["port_range", "port_text", "brackets", "scope", "scope_dotdot",
            "cap_unknown", "cap_string", "cap_number", "fetch_url_brackets",
            "tag_list", "tag_number", "sw_id_list", "scope_object", "kind_list",
            "origin_list"])
    def test_bad_field_is_malformed(self, fields):
        obj = {"ts": 0, "kind": "register", "origin": ORIGIN, "sw_id": "sw-1",
               "scope": "/", **fields}
        for _ in range(2):  # a failed check is never remembered as passed
            with pytest.raises(MalformedLine) as err:
                parse_trace(["", json.dumps(obj)])
            assert err.value.line_no == 2

    def test_json_nested_past_the_recursion_limit_is_malformed(self):
        for text in ("[" * 100_000, '{"a":' * 100_000):
            with pytest.raises(MalformedLine) as err:
                parse_trace(['{"ts":0,"kind":"sync","origin":"https://t.example"}', text])
            assert err.value.line_no == 2 and "nesting too deep" in str(err.value)

    def test_good_header_fields_parse(self):
        obj = {"ts": 0, "kind": "register", "origin": "https://t.example:8443",
               "sw_id": "sw-1", "scope": "/app", "capabilities": ["push", "periodicsync"]}
        for scope in ("/app", "", None):
            line = json.dumps({**obj, "scope": scope})
            (event,) = parse_trace([line])
            assert event.scope == scope
            assert event.get("capabilities") == ["push", "periodicsync"]


class TestEmit:
    def test_empty(self):
        assert list(emit_trace([])) == []

    def test_unordered_input_rejected(self):
        events = [ev(1000, "push", push_id="a"), ev(0, "push", push_id="b")]
        with pytest.raises(InvariantViolation):
            list(emit_trace(events))

    def test_unknown_keys_preserved(self):
        line = ('{"ts":5,"kind":"terminate","origin":"https://t.example",'
                '"sw_id":"sw-1","cpu_ms":123,"zebra":"stripes"}')
        events = parse_trace([line])
        assert events[0].get("cpu_ms") == 123
        out = list(emit_trace(events))
        assert json.loads(out[0])["zebra"] == "stripes"

    def _random_trace(self, rng, n):
        kinds = sorted(EVENT_KINDS)
        ts = 0
        events = []
        for i in range(n):
            ts += rng.randint(0, 2000)
            kind = rng.choice(kinds)
            payload = {}
            if kind == "push":
                payload["push_id"] = f"p{i}"
            elif kind == "fetch_request":
                payload = {"url": "https://x.example/r", "initiator_is_sw": True}
            elif kind == "notification_show":
                payload = {"notif_id": f"n{i}", "title": "t"}
                if rng.random() < 0.5:
                    payload["tag"] = "tag-a"
            elif kind in ("notification_close", "notification_click"):
                payload = {"notif_id": f"n{i}"}
            elif kind == "permission_grant":
                payload = {"permission": "notifications"}
            elif kind == "update_found":
                payload = {"version": i}
            elif kind == "code_tampered":
                payload = {"source": "extension"}
            if rng.random() < 0.2:
                payload["extra_key"] = rng.randint(0, 9)
            events.append(
                TraceEvent(ts=ts, kind=kind, origin=ORIGIN,
                           sw_id=None if kind in ("page_visit", "permission_grant") else "sw-1",
                           scope="/", payload=payload)
            )
        return events

    def test_round_trip_identity_random_traces(self):
        rng = random.Random(21)
        for _ in range(100):
            events = self._random_trace(rng, rng.randint(0, 200))
            lines = list(emit_trace(events))
            parsed = parse_trace(lines)
            assert parsed == events
            assert list(emit_trace(parsed)) == lines  # byte-identical canonical form

    def test_large_round_trip(self):
        rng = random.Random(5)
        events = self._random_trace(rng, 10_000)
        assert parse_trace(emit_trace(events)) == events


def _obj(event):
    """The object of an event's canonical line: ts, kind and origin, sw_id and
    scope when set, then the payload's keys in sorted order."""
    obj = {"ts": event.ts, "kind": event.kind, "origin": event.origin}
    if event.sw_id is not None:
        obj["sw_id"] = event.sw_id
    if event.scope is not None:
        obj["scope"] = event.scope
    for key in sorted(event.payload):
        obj[key] = event.payload[key]
    return obj


def _dumps_line(event):
    """The canonical line as json.dumps writes it: the emit oracle."""
    return json.dumps(_obj(event), separators=(",", ":"), ensure_ascii=False)


HOSTILE_TEXT = ['caf\u00e9 \u2603 \U0001f600', 'tab\tnl\nnul\x00bell\x07del\x7f',
                'quote " and back\\slash', "\u2028\u2029\ud800", ""]


def _hostile_events():
    events = []
    ts = 0
    for text in HOSTILE_TEXT:
        for sw_id, scope in ((text, text), (None, None), (text, None), (None, "/" + text)):
            ts += 1
            events.append(TraceEvent(ts, "push", "https://" + text + ".example", sw_id, scope,
                                     {"push_id": text, text: text, "k\"\\": [text]}))
        events.append(TraceEvent(ts, text, text, text, text, {"push_id": text}))
    values = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1.5, 1e300,
              10**30, -(10**30), True, False, 1, 0, None, [], {}, [1, [True, None], {"a": 1}],
              {"z": {"y": [1.0, "x\n"]}, "a": None}, {1: "one", 2.5: "x", None: 0, True: 1}]
    for value in values:
        ts += 1
        events.append(TraceEvent(ts, "update_found", ORIGIN, "sw-1", "/", {"version": value}))
        events.append(TraceEvent(ts, "terminate", ORIGIN, "sw-1", "/", {"v": value, "a": 1}))
    ts += 1
    events.append(TraceEvent(ts, "terminate", ORIGIN, None, None, {}))
    events.append(TraceEvent(ts, "terminate", ORIGIN, "sw-1", "/", {}))
    # Equal but differently written header fields, emitted in one call.
    for header in ((1, 1, None, None), (True, True, None, None), (1.0, 1.0, None, None),
                   ("push", ORIGIN, 1, 0), ("push", ORIGIN, True, False),
                   (["push"], {"o": 1}, [None], {"s": [1.5]})):
        ts += 1
        events.append(TraceEvent(ts, *header, {"n": 1}))
    events.append(TraceEvent(True, "push", ORIGIN))  # a bool ts is written as true
    return sorted(events, key=lambda event: event.ts)


class TestEmitOracle:
    """emit_trace writes its lines from pieces; each must be the line
    json.dumps writes for the event's object."""

    def test_generator_traces(self):
        for name in ALL_GENERATORS:
            for seed in range(3):
                rng = random.Random(seed)
                events = generate(Scenario(name, seed, _params(name, rng)))
                assert list(emit_trace(events)) == [_dumps_line(e) for e in events]

    def test_hostile_events(self):
        events = _hostile_events()
        assert list(emit_trace(events)) == [_dumps_line(e) for e in events]
        # Once more in reverse header order: what one call remembers of a
        # header or key must not leak into an equal one written otherwise.
        events = [e._replace(ts=i) for i, e in enumerate(reversed(events))]
        assert list(emit_trace(events)) == [_dumps_line(e) for e in events]

    def test_one_read_only_payload_under_different_headers(self):
        """A remembered body is keyed by its payload and its header: the same
        payload under another header, or under an equal header written
        otherwise (1, True, 1.0), must get that header's own text."""
        payload = MappingProxyType({"push_id": "p1", "n": 1})
        headers = [("push", ORIGIN, "sw-1", "/"), ("push", ORIGIN, None, None),
                   ("push", "https://u.example", "sw-1", "/"), ("sync", ORIGIN, "sw-2", "/s"),
                   ("push", ORIGIN, 1, None), ("push", ORIGIN, True, None),
                   ("push", ORIGIN, 1.0, None), ("push", ORIGIN, "1", None),
                   ("push", ORIGIN, ["sw-1"], None)]
        events = [TraceEvent(ts, *headers[ts % len(headers)], payload) for ts in range(40)]
        assert list(emit_trace(events)) == [_dumps_line(e) for e in events]

    def test_repeats_interleaved_with_other_bodies(self):
        rng = random.Random(11)
        payloads = [MappingProxyType({"push_id": f"p{i}", "v": value})
                    for i, value in enumerate((1, True, 1.0, "1", None, [1], {"a": 1}))]
        payloads.append(trace._NO_PAYLOAD)
        events = []
        for ts in range(3_000):
            if rng.random() < 0.3:  # a body seen at most once
                payload = MappingProxyType({"push_id": f"q{ts}"})
            else:
                payload = rng.choice(payloads)
            events.append(TraceEvent(ts, "push", ORIGIN, rng.choice(("sw-1", "sw-2", None)),
                                     "/", payload))
        assert list(emit_trace(events)) == [_dumps_line(e) for e in events]

    def test_round_tripped_parsed_traces(self):
        for name in ALL_GENERATORS:
            generated = generate(Scenario(name, 1, _params(name, random.Random(1))))
            events = parse_trace(emit_trace(generated))
            lines = list(emit_trace(events))
            assert lines == [_dumps_line(e) for e in events]
            assert parse_trace(lines) == events

    def test_a_dict_payload_changed_between_events_is_written_in_both_states(self):
        payload = {"push_id": "p1"}
        first = TraceEvent(0, "push", ORIGIN, "sw-1", "/", payload)
        second = first._replace(ts=1)

        def events():
            yield first
            payload["push_id"] = "p2"
            payload["extra"] = [1]
            yield second

        assert list(emit_trace(events())) == [
            '{"ts":0,"kind":"push","origin":"https://t.example","sw_id":"sw-1","scope":"/",'
            '"push_id":"p1"}',
            '{"ts":1,"kind":"push","origin":"https://t.example","sw_id":"sw-1","scope":"/",'
            '"extra":[1],"push_id":"p2"}']

    def test_unwritable_values_raise_as_json_does(self):
        event = TraceEvent(0, "push", ORIGIN, payload={"v": object()})
        with pytest.raises(TypeError):
            _dumps_line(event)
        with pytest.raises(TypeError):
            list(emit_trace([event]))

    def test_keys_that_would_not_parse_back_raise(self):
        """A payload key that is not a string, or that names a header field,
        would parse back as another event: {"ts": 99} moves it in time,
        {"sw_id": ...} to another worker, {1: ...} comes back as {"1": ...}."""
        written = TraceEvent(0, "terminate", ORIGIN, payload={"aa": 1, "zz": 2})
        for payload in ({1: "int key"}, {None: "null key"}, {2.5: "x", 3.5: "y"},
                        {True: "true key"}, {"ts": 99, "kind": "x", "sw_id": "override"},
                        {"scope": "/s", "zz": 1}, {"origin": "o", "aa": 2},
                        {"a": 1, 2: "mixed keys"}):
            for sw_id, scope in ((None, None), ("sw-1", "/")):
                event = TraceEvent(1, "terminate", ORIGIN, sw_id, scope, payload)
                with pytest.raises(InvariantViolation):
                    list(emit_trace([written, event]))


class TestRecord:
    def test_fields_in_order(self):
        assert TraceEvent._fields == ("ts", "kind", "origin", "sw_id", "scope", "payload")

    def test_assignment_raises(self):
        event = ev(0, "push", push_id="a")
        for name in TraceEvent._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(event, name, None)
        assert event == ev(0, "push", push_id="a")

    def test_events_without_payload_share_no_mutable_dict(self):
        first = TraceEvent(0, "terminate", ORIGIN)
        second = TraceEvent(1, "terminate", ORIGIN, "sw-1", "/")
        with pytest.raises(TypeError):
            first.payload["leak"] = 1
        assert second.get("leak") is None and dict(second.payload) == {}
        assert _obj(second) == {"ts": 1, "kind": "terminate", "origin": ORIGIN,
                            "sw_id": "sw-1", "scope": "/"}

    def test_keyword_and_positional_construction_agree(self):
        payload = {"url": "https://x.example/", "initiator_is_sw": True}
        by_keyword = TraceEvent(ts=5, kind="fetch_request", origin=ORIGIN, sw_id="sw-1",
                                scope="/", payload=payload)
        assert by_keyword == TraceEvent(5, "fetch_request", ORIGIN, "sw-1", "/", payload)
        assert by_keyword.get("url") == "https://x.example/"
        assert TraceEvent(ts=0, kind="terminate", origin=ORIGIN) == TraceEvent(
            0, "terminate", ORIGIN, None, None, {})


class TestBrackets:
    def test_unbalanced_end(self):
        events = [ev(10, "fetch_event_end")]
        with pytest.raises(UnbalancedBrackets):
            bracket_intervals(events)

    def test_dangling_start(self):
        events = [ev(10, "fetch_event_start")]
        with pytest.raises(UnbalancedBrackets):
            bracket_intervals(events)

    def test_nested_brackets_merge(self):
        events = [
            ev(10, "fetch_event_start"),
            ev(20, "fetch_event_start"),
            ev(30, "fetch_event_end"),
            ev(40, "fetch_event_end"),
        ]
        assert bracket_intervals(events) == {"sw-1": [(10, 40)]}


class TestClassification:
    def _fetch(self, ts, url="https://victim.example/x"):
        return ev(ts, "fetch_request", url=url, initiator_is_sw=True)

    def test_inside_bracket_is_foreground(self):
        events = [ev(40, "fetch_event_start"), self._fetch(50), ev(60, "fetch_event_end")]
        assert classify_background_fetch(events, events[1], {"t.example"}) == FOREGROUND

    def test_import_domain_is_first_party(self):
        fetch = self._fetch(100, "https://cdn.push-provider.example/data")
        assert (
            classify_background_fetch([fetch], fetch, {"t.example", "push-provider.example"})
            == BACKGROUND_FIRST_PARTY
        )

    def test_third_party_outside_bracket(self):
        fetch = self._fetch(100)
        assert (
            classify_background_fetch([fetch], fetch, {"t.example"})
            == BACKGROUND_THIRD_PARTY
        )

    @staticmethod
    def _oracle(events, fetch, first_party):
        # Independent O(n^2) containment: depth at t from raw start/end counts.
        starts = [e.ts for e in events
                  if e.kind == "fetch_event_start" and e.sw_id == fetch.sw_id]
        ends = [e.ts for e in events
                if e.kind == "fetch_event_end" and e.sw_id == fetch.sw_id]
        depth = sum(1 for s in starts if s <= fetch.ts) - sum(
            1 for e in ends if e < fetch.ts
        )
        if depth > 0:
            return FOREGROUND
        host = fetch.get("url").split("//")[1].split("/")[0]
        labels = host.split(".")
        domain = ".".join(labels[-2:])
        if domain in first_party:
            return BACKGROUND_FIRST_PARTY
        return BACKGROUND_THIRD_PARTY

    def test_matches_oracle_on_random_traces(self):
        rng = random.Random(77)
        urls = [
            "https://victim.example/x",
            "https://cdn.ally.example/lib.js",
            "https://sub.t.example/own",
        ]
        first_party = {"t.example", "ally.example"}
        for round_no in range(120):
            ts = 0
            depth = 0
            events = []
            n = 10_000 if round_no == 0 else rng.randint(5, 300)
            for _ in range(n):
                ts += rng.randint(0, 50)
                roll = rng.random()
                if roll < 0.25:
                    events.append(ev(ts, "fetch_event_start"))
                    depth += 1
                elif roll < 0.5 and depth > 0:
                    events.append(ev(ts, "fetch_event_end"))
                    depth -= 1
                else:
                    events.append(self._fetch(ts, rng.choice(urls)))
            while depth > 0:
                ts += rng.randint(0, 50)
                events.append(ev(ts, "fetch_event_end"))
                depth -= 1
            intervals = bracket_intervals(events)
            fetches = [e for e in events if e.kind == "fetch_request"]
            if len(events) > 1_000:
                fetches = rng.sample(fetches, 200)  # keep the n^2 oracle tractable
            for event in fetches:
                got = classify_background_fetch(events, event, first_party,
                                                intervals=intervals)
                assert got == self._oracle(events, event, first_party)


class TestBackgroundThirdParty:
    """``trace.background_third_party`` is the one rule of a background
    third-party fetch: the engine and forensics both call it."""

    FIRST_PARTY = frozenset({"t.example", "ally.example"})
    THIRD_PARTY = "https://victim.example/x"

    @pytest.mark.parametrize("depth,last_end,url,by_sw,expected", [
        (0, None, THIRD_PARTY, False, False),
        (1, None, THIRD_PARTY, True, False),
        (0, 50, THIRD_PARTY, True, False),
        (0, 49, THIRD_PARTY, True, True),
        (0, None, "https://sub.t.example/own", True, False),
        (0, None, "https://cdn.ally.example/lib.js", True, False),
        (0, None, THIRD_PARTY, True, True),
    ], ids=["page_initiated", "inside_a_bracket", "at_a_brackets_end", "after_a_brackets_end",
            "first_party_subdomain", "domain_passed_as_first_party", "third_party"])
    def test_truth_table(self, depth, last_end, url, by_sw, expected):
        activity = Activity(first_party=self.FIRST_PARTY)
        activity.depth, activity.last_end = depth, last_end
        payload = {"url": url, "initiator_is_sw": by_sw}
        assert trace.background_third_party(activity, 50, payload) is expected

    def test_enforce_and_analyze_count_by_it(self, monkeypatch):
        """With the predicate answering False, neither layer counts a
        background fetch on a trace whose every tracking fetch is one."""
        events = generate(Scenario("tracking_library", 0, {"page_visits": 5}))

        def counts():
            engine = PolicyEngine(mode="enforce")
            engine.run(events)
            reports = forensics.analyze_trace(events)
            return (sum(engine.window_counts("sw-tracking", "bg_fetch_per_activation").values()),
                    sum(reports["sw-tracking"].bg_third_party_fetches_per_activation))

        assert counts() == (5, 5)
        for module in (policy, forensics):  # the name each layer calls it by
            monkeypatch.setattr(module, "background_third_party", lambda *args: False)
        assert counts() == (0, 0)


def _fetch_classifying_reads(path):
    """Line numbers where ``path`` holds the constant "initiator_is_sw", loads
    a ``last_end`` attribute, or names ``url_registrable_domain``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Constant) and node.value == "initiator_is_sw"
                or isinstance(node, ast.Attribute) and node.attr == "last_end"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Name) and node.id == "url_registrable_domain"
                or isinstance(node, ast.alias) and node.name == "url_registrable_domain"):
            found.append(node.lineno)
    return found


def test_only_the_trace_module_classifies_a_fetch():
    """A store such as the engine's reset of ``last_end`` is no read, and a
    generator's ``initiator_is_sw=`` keyword is no constant."""
    modules = sorted(Path(trace.__file__).parent.glob("*.py"))
    assert len(modules) > 2
    offenders = {path.name: lines for path in modules
                 if path.name != "trace.py" and (lines := _fetch_classifying_reads(path))}
    assert offenders == {}, "classify a fetch through trace.background_third_party"


def test_fetch_guard_sees_the_predicate():
    assert _fetch_classifying_reads(Path(trace.__file__))


class TestShown:
    """``trace.Activity`` holds the one visibility rule of notifications: the
    engine and forensics both show and hide through it."""

    @pytest.mark.parametrize("steps,expected", [
        ([("show", "A", None), ("close", "A", None)], [False, 0]),
        ([("show", "A", None), ("click", "A", None), ("close", "A", None)], [False, 0, None]),
        ([("show", "A", "t"), ("show", "B", "t"), ("close", "A", None), ("close", "B", None)],
         [False, True, None, 10]),
        ([("show", "A", None), ("show", "A", None), ("close", "A", None)], [False, False, 10]),
        ([("show", "A", "t"), ("show", "A", "t"), ("close", "A", None)], [False, True, 10]),
        ([("show", "A", None), ("close", "A", None), ("close", "A", None)], [False, 0, None]),
        ([("show", "A", None), ("close", "A", True), ("close", "A", False)], [False, 0, None]),
        ([("show", "A", None), ("show", "B", None), ("close", "A", None), ("close", "B", None)],
         [False, False, 0, 10]),
    ], ids=["show_close", "show_click_close", "tag_replacement", "same_id_shown_again",
            "same_id_shown_again_with_its_tag", "double_close", "user_close_then_programmatic",
            "no_tag"])
    def test_truth_table(self, steps, expected):
        """Each step, at ts 0, 10, 20, ...: a show of a notif_id with a tag,
        or a click or close of a notif_id (a close's third field is
        ``by_user``). Forensics measures a close delta exactly for each
        programmatic close that finds its notification visible."""
        shown, got, events = Activity(first_party=frozenset()), [], []
        for index, (step, notif_id, extra) in enumerate(steps):
            ts = 10 * index
            if step == "show":
                payload = {"notif_id": notif_id, "title": "t"}
                if extra is not None:
                    payload["tag"] = extra
                got.append(shown.show(ts, payload))
            else:
                payload = {"notif_id": notif_id}
                if extra is not None:
                    payload["by_user"] = extra
                got.append(shown.hide(payload))
            events.append(ev(ts, f"notification_{step}", **payload))
        assert got == expected
        measured = [(event.ts - show_ts) / 1_000 for event, show_ts in zip(events, got)
                    if event.kind == "notification_close" and show_ts is not None
                    and not event.get("by_user")]
        assert forensics.analyze_trace(events)["sw-1"].notification_close_deltas_s == measured

    def test_enforce_and_analyze_hide_by_it(self, monkeypatch):
        """With ``hide`` finding nothing visible, neither layer reports a
        close on a trace whose every notification is closed at once."""
        events = generate(Scenario("notification_hider", 0, {}))

        def closes():
            run = PolicyEngine(mode="enforce").run(events)
            reports = forensics.analyze_trace(events)
            return (sum(v.policy_name == "notif_min_visible" for v in run.violations),
                    len(reports["sw-hider"].notification_close_deltas_s))

        assert closes() == (10, 10)
        monkeypatch.setattr(trace.Activity, "hide", lambda self, payload: None)
        assert closes() == (0, 0)


def _notif_id_constants(path):
    """Line numbers where ``path`` holds the constant "notif_id"."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and node.value == "notif_id"]


def test_only_the_trace_module_reads_a_notif_id():
    """A generator's ``notif_id=`` keyword is no constant."""
    modules = sorted(Path(trace.__file__).parent.glob("*.py"))
    assert len(modules) > 2
    offenders = {path.name: lines for path in modules
                 if path.name != "trace.py" and (lines := _notif_id_constants(path))}
    assert offenders == {}, "show and hide a notification through trace.Activity"


def test_notif_id_guard_sees_the_rule():
    assert _notif_id_constants(Path(trace.__file__))


_ACTIVATION_FIELDS = frozenset({"start", "number", "intervals"})


def _activation_stores(path):
    """Line numbers where ``path`` stores an attribute named ``start``,
    ``number`` or ``intervals``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in _ACTIVATION_FIELDS
            and isinstance(node.ctx, ast.Store)]


def test_only_the_trace_module_opens_and_closes_an_activation():
    """An activation opens only by ``Activity.wake`` and closes only by
    ``Activity.stop``, in either layer. A load, such as the engine's read of
    ``start``, is no store."""
    modules = sorted(Path(trace.__file__).parent.glob("*.py"))
    assert len(modules) > 2
    offenders = {path.name: lines for path in modules
                 if path.name != "trace.py" and (lines := _activation_stores(path))}
    assert offenders == {}, "open and close an activation through trace.Activity"


def test_activation_guard_sees_the_record():
    assert _activation_stores(Path(trace.__file__))


def _policy_imports(path):
    """Line numbers where ``path`` imports the policy module or from it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):  # from .policy import x, or from . import policy
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.rpartition(".")[2] == "policy" for name in names):
            found.append(node.lineno)
    return found


def test_forensics_shares_definitions_with_the_engine_only_through_trace():
    """Forensics checks the engine, so it takes nothing from it: what the
    two layers share lives in ``trace``."""
    assert _policy_imports(Path(forensics.__file__)) == []


def test_import_guard_sees_an_import_from_the_engine():
    assert _policy_imports(Path(trace.__file__).parent / "scenarios.py")


def _day_ledger_names(path):
    """Line numbers where ``path`` names ``day_ms``, as an attribute, a
    variable or a constant."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Attribute) and node.attr == "day_ms")
            or (isinstance(node, ast.Name) and node.id == "day_ms")
            or (isinstance(node, ast.Constant) and node.value == "day_ms")]


def test_only_the_engine_keeps_the_day_ledger():
    """Only the engine's ``exec_per_day`` rule reads a worker's milliseconds
    per virtual day, so only ``policy.py`` books them. Forensics sums its
    minutes segment by segment, and the shared ``Activity`` keeps none."""
    modules = sorted(Path(trace.__file__).parent.glob("*.py"))
    assert len(modules) > 2
    offenders = {path.name: lines for path in modules
                 if path.name != "policy.py" and (lines := _day_ledger_names(path))}
    assert offenders == {}, "the day ledger is the engine's own state"
    assert _day_ledger_names(Path(trace.__file__).parent / "policy.py")
    assert not hasattr(trace.Activity(frozenset()), "day_ms")
