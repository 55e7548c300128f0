"""The per-event path derives each header, origin, domain and clock key once.

A trace repeats one header and a few URLs on every line, so ``parse_trace``
decodes each distinct line body and checks each distinct header once through
bounded caches (and stops remembering bodies that do not repeat),
``emit_trace`` writes the text of each distinct header and read-only payload
once under the same rules, ``Origin.parse`` and the registrable-domain
lookups are memoized with a fixed bound, and the engine re-keys a worker's
clock entry only after a handler changed an input of the key. These tests
count that work on a seeded DDoS trace, check that the caches neither keep
failures nor change an answer when they evict, check that the worst case of
each cache keeps pace with the code it replaced, and check the engine's clock
keys against a fresh computation after every event.
"""

import gc
import json
import random
import time
from types import MappingProxyType

import pytest

from sw_sentinel import domains, forensics, model, policy, trace
from sw_sentinel.domains import registrable_domain, url_registrable_domain
from sw_sentinel.model import Capability, ModelError, Origin, Scope, SwRecord, SwState
from sw_sentinel.policy import (PROFILES, RULES, ActionEntry, EnforcementAction, Notice,
                                PolicyConfig, PolicyEngine, default_policies)
from sw_sentinel.scenarios import Scenario, generate
from sw_sentinel.trace import (_HEADER_CACHE_SIZE, _HEADER_KEYS, InvariantViolation, TraceEvent,
                                _header_text, _json_str, _value_text, emit_trace, parse_trace)

from test_policy_clock import ALL_GENERATORS, CONFIGS, merged_fleet
from test_trace_reader import onepass_parse, reference_parse


@pytest.fixture(scope="module")
def ddos_events():
    """Two minutes at 50 background fetches a second from one worker."""
    return generate(Scenario("ddos", 0, {"req_per_s": 50, "burst_minutes": 2}))


@pytest.fixture
def checked_headers(monkeypatch):
    """Every header ``parse_trace`` hands to its check, in order."""
    checked = []
    check_header = trace._check_header

    def counted_check_header(kind, origin, sw_id, scope, line_no):
        checked.append((kind, origin, sw_id, scope))
        return check_header(kind, origin, sw_id, scope, line_no)

    monkeypatch.setattr(trace, "_check_header", counted_check_header)
    return checked


def test_parse_checks_each_distinct_header_once(ddos_events, checked_headers):
    model._parse_origin.cache_clear()
    events = parse_trace(emit_trace(ddos_events))
    headers = {(event.kind, event.origin, event.sw_id, event.scope) for event in events}
    assert len(checked_headers) == len(set(checked_headers)) == len(headers) < 10
    # Events with one header share its strings.
    assert len({id(event.origin) for event in events}) <= len(headers)
    PolicyEngine(default_policies(), "chrome", mode="enforce").run(events)
    forensics.analyze_trace(events)
    info = model._parse_origin.cache_info()
    assert info.misses == len({event.origin for event in events}) == 1


def _header_cycle(distinct, rounds):
    return [json.dumps({"ts": i, "kind": "sync", "origin": "https://a.example",
                        "sw_id": f"sw-{i % distinct}"}) for i in range(distinct * rounds)]


def test_header_cache_is_bounded(checked_headers, monkeypatch):
    monkeypatch.setattr(trace, "_HEADER_CACHE_SIZE", 8)
    assert len(parse_trace(_header_cycle(8, 3))) == 24
    assert len(checked_headers) == 8
    checked_headers.clear()
    events = parse_trace(_header_cycle(9, 3))
    assert len(checked_headers) > 9  # evicted headers are checked again
    assert [event.sw_id for event in events] == [f"sw-{i % 9}" for i in range(27)]


def test_parse_body_cache_is_bounded(monkeypatch):
    """Nine distinct bodies in turn, each on two lines in a row, under one
    header overflow a cache of eight: the parse clears it and decodes the
    evicted bodies again, but not their second lines, and reads every line as
    the reference does."""
    decoded = []
    scan_once = trace._SCAN_ONCE
    monkeypatch.setattr(trace, "_SCAN_ONCE",
                        lambda line, index: decoded.append(line) or scan_once(line, index))
    lines = [f'{{"ts":{i},"kind":"push","origin":"https://a.example","sw_id":"sw-1",'
             f'"scope":"/","push_id":"p{i // 2 % 9}"}}' for i in range(54)]
    monkeypatch.setattr(trace, "_HEADER_CACHE_SIZE", 8)
    assert parse_trace(lines) == reference_parse(lines)
    assert 9 < len(decoded) < 54


def _assert_keeps_pace(subject, reference, data, bound, pairs=9):
    """``subject(data)`` must take at most ``bound`` times as long as
    ``reference(data)``. The load on the machine varies and one slow run can
    land on either side, so the check judges the median of the per-pair
    ratios subject/reference over ``pairs`` pairs that alternate which runs
    first, with garbage collection off as in timeit. It stops as soon as more
    than half of the pairs fall on one side of the bound, which decides that
    median."""
    ratios = []
    for pair in range(pairs):
        order = (subject, reference) if pair % 2 == 0 else (reference, subject)
        times = {}
        for fn in order:
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = fn(data)
                times[fn] = time.perf_counter() - start
            finally:
                gc.enable()
            assert len(result) == len(data)
            del result  # freed here, not inside the next run's timing
        ratios.append(times[subject] / times[reference])
        within = sum(ratio <= bound for ratio in ratios)
        if within > pairs // 2:
            return
        if len(ratios) - within > pairs // 2:
            break
    pytest.fail(f"{subject.__name__} is more than {bound - 1:.0%} slower than "
                f"{reference.__name__} in the median of {pairs} pairs: "
                f"ratios {sorted(round(ratio, 3) for ratio in ratios)}")


def test_parse_with_a_new_origin_on_every_line_keeps_pace():
    """The worst case for the header cache: every line misses it, so the
    cache keeps evicting. The parse must stay within 10 % of the reader that
    checks every line."""
    lines = [f'{{"ts":{i},"kind":"sync","origin":"https://w{i}.example","sw_id":"sw-{i}"}}'
             for i in range(30_000)]
    _assert_keeps_pace(parse_trace, reference_parse, lines, 1.10)


@pytest.fixture(scope="module")
def new_body_lines():
    """The worst case for the body cache: a push flood whose every line
    holds a new push_id or notif_id, so no body repeats."""
    lines = list(emit_trace(generate(Scenario(
        "push_flood", 0, {"pushes_per_hour": 15_000, "duration_ms": 3_600_000}))))
    assert len({line.partition(",")[2] for line in lines}) == len(lines) == 30_003
    return lines


def test_parse_with_a_new_body_on_every_line_keeps_pace_with_the_one_pass_reader(new_body_lines):
    """The parse must stop remembering bodies and stay within 10 % of the
    reader that decodes every line and checks each distinct header once."""
    # The two readers differ by a few per cent here, so the median needs
    # more pairs than the other checks to stay clear of the bound.
    _assert_keeps_pace(parse_trace, onepass_parse, new_body_lines, 1.10, pairs=41)


def test_parse_with_a_new_body_on_every_line_decodes_each_line_once(new_body_lines, monkeypatch):
    decoded = []
    scan_once = trace._SCAN_ONCE
    monkeypatch.setattr(trace, "_SCAN_ONCE",
                        lambda line, index: decoded.append(line) or scan_once(line, index))
    assert parse_trace(new_body_lines) == onepass_parse(new_body_lines)
    assert decoded == new_body_lines


def test_parse_decodes_each_distinct_body_once(ddos_events, monkeypatch):
    decoded = []
    scan_once = trace._SCAN_ONCE

    def counted_scan_once(line, index):
        decoded.append(line)
        return scan_once(line, index)

    monkeypatch.setattr(trace, "_SCAN_ONCE", counted_scan_once)
    lines = list(emit_trace(ddos_events))
    events = parse_trace(lines)
    assert events == reference_parse(lines)
    bodies = {line.partition(",")[2] for line in lines}
    assert len(decoded) == len(bodies) < 10
    assert len({id(event.payload) for event in events}) < 10


def piecewise_emit(events):
    """The writer before line bodies were remembered: each line is written
    from the cached text of its header and payload keys."""
    headers = {}
    keys = {}
    last_ts = None
    for event in events:
        ts, kind, origin, sw_id, scope, payload = event
        if last_ts is not None and ts < last_ts:
            raise InvariantViolation(f"events out of order: ts {ts} after {last_ts}")
        last_ts = ts
        header = (kind, origin, sw_id, scope)
        try:
            head = headers[header]
        except (KeyError, TypeError):
            head = _header_text(kind, origin, sw_id, scope)
            if (type(kind) is str and type(origin) is str
                    and (sw_id is None or type(sw_id) is str)
                    and (scope is None or type(scope) is str)):
                if len(headers) >= _HEADER_CACHE_SIZE:
                    headers.clear()
                headers[header] = head
        line = '{"ts":' + _value_text(ts) + head
        if payload:
            try:
                payload_keys = sorted(payload)
            except TypeError:
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
                line += key_text + _value_text(payload[key])
        yield line + "}"


def emit_lines(events):
    return list(emit_trace(events))


def piecewise_emit_lines(events):
    return list(piecewise_emit(events))


@pytest.fixture
def rendered_payloads(monkeypatch):
    """Every non-empty payload ``emit_trace`` writes out as text, in order:
    writing one sorts its keys once."""
    rendered = []
    monkeypatch.setattr(trace, "sorted", raising=False,
                        value=lambda payload: rendered.append(payload) or sorted(payload))
    return rendered


def _distinct_bodies(events):
    return {(id(event.payload),) + event[1:5]: event.payload for event in events}


def test_emit_renders_each_distinct_body_once(ddos_events, rendered_payloads):
    """Each distinct (header, read-only payload) is written out once per
    call, for generated events and for the events parsed back from them."""
    for events in (ddos_events, parse_trace(emit_trace(ddos_events))):
        rendered_payloads.clear()
        lines = emit_lines(events)
        bodies = [payload for payload in _distinct_bodies(events).values() if payload]
        assert len(rendered_payloads) == len(bodies) < 10
        assert lines == piecewise_emit_lines(ddos_events)


def test_emit_renders_dict_payloads_on_every_line(ddos_events, rendered_payloads):
    events = [event._replace(payload=dict(event.payload)) for event in ddos_events]
    lines = emit_lines(events)
    assert len(rendered_payloads) == sum(bool(event.payload) for event in events)
    assert lines == emit_lines(ddos_events)


def test_emit_body_cache_is_bounded_and_stops_when_bodies_do_not_repeat(
        rendered_payloads, monkeypatch):
    origin = "https://a.example"
    payloads = [MappingProxyType({"push_id": f"p{i}"}) for i in range(300)]

    def pushes(order):
        return [TraceEvent(ts, "push", origin, "sw-1", "/", payloads[i])
                for ts, i in enumerate(order)]

    monkeypatch.setattr(trace, "_HEADER_CACHE_SIZE", 8)
    cycle = pushes([i % 9 for i in range(90)])
    assert emit_lines(cycle) == piecewise_emit_lines(cycle)
    assert len(rendered_payloads) > 9  # evicted bodies are written again
    monkeypatch.setattr(trace, "_HEADER_CACHE_SIZE", 4096)
    # 256 misses and no hit: the call stops remembering, and the repeats
    # that follow are written again.
    rendered_payloads.clear()
    events = pushes([*range(300), 0, 0, 299])
    assert emit_lines(events) == piecewise_emit_lines(events)
    assert len(rendered_payloads) == 303
    # Early repeats keep it remembering.
    rendered_payloads.clear()
    events = pushes([0] * 300 + [*range(300), 0, 299])
    assert emit_lines(events) == piecewise_emit_lines(events)
    assert len(rendered_payloads) == 300


def test_emit_header_cache_is_bounded(monkeypatch):
    """Nine distinct headers in turn, each on two lines in a row, overflow a
    cache of eight: the writer clears it and writes the evicted headers
    again, but not for their second lines, and writes every line as the
    piecewise writer does. A dict payload keeps the lines out of the body
    cache, so each line asks for its header's text."""
    written = []
    header_text = trace._header_text
    monkeypatch.setattr(trace, "_header_text",
                        lambda *header: written.append(header) or header_text(*header))
    monkeypatch.setattr(trace, "_HEADER_CACHE_SIZE", 8)
    events = [TraceEvent(i, "sync", "https://a.example", f"sw-{i // 2 % 9}", "/", {})
              for i in range(54)]
    assert emit_lines(events) == piecewise_emit_lines(events)
    assert 9 < len(written) < 54


def test_emit_payload_key_cache_is_bounded(monkeypatch):
    """Nine distinct payload keys in turn, each on two lines in a row,
    overflow a cache of eight: the writer clears it and writes the evicted
    keys again, but not for their second lines, and writes every line as the
    piecewise writer does. A dict payload is written out on every line, so
    each line asks for its key's text."""
    keys = {f"k{i}" for i in range(9)}
    written = []
    json_str = trace._json_str
    monkeypatch.setattr(trace, "_json_str",
                        lambda text: (text in keys and written.append(text)) or json_str(text))
    monkeypatch.setattr(trace, "_HEADER_CACHE_SIZE", 8)
    events = [TraceEvent(i, "sync", "https://a.example", "sw-1", "/", {f"k{i // 2 % 9}": i})
              for i in range(54)]
    assert emit_lines(events) == piecewise_emit_lines(events)
    assert 9 < len(written) < 54


def test_emit_with_a_new_body_on_every_line_keeps_pace_with_the_piecewise_writer():
    """The worst case for the body cache: a push flood whose every line
    holds a new push_id or notif_id. The writer must stop remembering bodies
    and stay within 3 % of the writer that builds every line from pieces."""
    events = generate(Scenario("push_flood", 0,
                               {"pushes_per_hour": 28_800, "duration_ms": 3_600_000}))
    assert len(_distinct_bodies(events)) == len(events) == 57_603
    _assert_keeps_pace(emit_lines, piecewise_emit_lines, events, 1.03)


def _written(writer, events):
    """The lines a writer yields, and the text of the InvariantViolation it
    raises after them (None when it raises none)."""
    lines = []
    try:
        for line in writer(events):
            lines.append(line)
    except InvariantViolation as exc:
        return lines, str(exc)
    return lines, None


def _flood_cases():
    """Runs of lines that repeat their objects, broken where a repeat must
    not reuse the previous line's body. The string constants are shared
    objects, as a parsed or generated flood's are."""
    one, true, one_float = (MappingProxyType({"v": v}) for v in (1, True, 1.0))
    push = MappingProxyType({"push_id": "p1"})

    def push_at(ts, payload=push, sw_id="sw-1"):
        return TraceEvent(ts, "push", "https://a.example", sw_id, "/", payload)

    def mutated_dict():
        payload = {"push_id": "p1"}
        yield push_at(0, payload)
        yield push_at(1, payload)
        payload["push_id"] = "p2"
        yield push_at(2, payload)

    return {
        "equal_payloads": lambda: [push_at(0, one), push_at(1, one), push_at(2, true),
                                   push_at(3, true), push_at(4, one_float),
                                   push_at(5, one_float), push_at(6, one)],
        "equal_sw_ids": lambda: [push_at(0), push_at(1), push_at(2, sw_id=1),
                                 push_at(3, sw_id=1), push_at(4, sw_id=True),
                                 push_at(5, sw_id=True), push_at(6, sw_id=1.0), push_at(7)],
        "mutated_dict": mutated_dict,
        "bool_and_float_ts": lambda: [push_at(0), push_at(1), push_at(True), push_at(1.5),
                                      push_at(2), push_at(2.0), push_at(3)],
        "out_of_order_int": lambda: [push_at(5), push_at(5), push_at(5), push_at(4)],
        "out_of_order_float": lambda: [push_at(5), push_at(5), push_at(4.5)],
        "sw_id_none": lambda: [push_at(0, sw_id=None), push_at(1, sw_id=None), push_at(2),
                               push_at(3, sw_id=None)],
    }


@pytest.mark.parametrize("case", sorted(_flood_cases()))
def test_emit_reuses_the_previous_body_only_for_the_same_objects(case):
    """A line may reuse the body of the line before only when its payload
    and header fields are the very same objects and its ts is an int: equal
    values of other types (1, True, 1.0) have other texts, a dict payload
    may have changed, and an out-of-order ts raises as before."""
    make = _flood_cases()[case]
    assert _written(emit_trace, make()) == _written(piecewise_emit, make())


def test_emit_writes_a_run_of_one_body_once(rendered_payloads):
    """A run of one read-only payload is written out once, and each of
    three equal payloads once."""
    events = _flood_cases()["equal_payloads"]()
    assert emit_lines(events) == piecewise_emit_lines(events)
    assert [dict(payload) for payload in rendered_payloads] == [{"v": 1}, {"v": True}, {"v": 1.0}]
    assert [type(payload["v"]) for payload in rendered_payloads] == [int, bool, float]


def test_emit_forgets_the_previous_body_when_it_stops_remembering(rendered_payloads):
    """The 256th miss without a hit drops the body cache, and with it the
    previous line's body: the line after it, which repeats the body before
    the drop, is written out again."""
    payloads = [MappingProxyType({"push_id": f"p{i}"}) for i in range(256)]
    events = [TraceEvent(ts, "push", "https://a.example", "sw-1", "/", payloads[i])
              for ts, i in enumerate([*range(256), 254])]
    assert emit_lines(events) == piecewise_emit_lines(events)
    assert len(rendered_payloads) == 257


@pytest.mark.parametrize("mode", ["enforce", "simulate"])
def test_handlers_rekey_the_clock_only_when_a_key_input_changed(
    ddos_events, monkeypatch, mode
):
    calls = {"reschedule": 0, "advance_sw": 0}
    reschedule, advance_sw = PolicyEngine._reschedule, PolicyEngine._advance_sw

    def counted_reschedule(self, st, now):
        calls["reschedule"] += 1
        return reschedule(self, st, now)

    def counted_advance_sw(self, st, now, out):
        calls["advance_sw"] += 1
        return advance_sw(self, st, now, out)

    monkeypatch.setattr(PolicyEngine, "_reschedule", counted_reschedule)
    monkeypatch.setattr(PolicyEngine, "_advance_sw", counted_advance_sw)
    PolicyEngine(default_policies(), "chrome", mode=mode).run(ddos_events)
    # ``advance`` re-keys once after each ``_advance_sw``; the rest come
    # from handlers that changed an input of the key, which few events do.
    from_handlers = calls["reschedule"] - calls["advance_sw"]
    assert 0 < from_handlers < len(ddos_events) // 100


@pytest.mark.parametrize("mode", ["enforce", "simulate"])
def test_rule_specs_are_looked_up_once_per_engine(monkeypatch, mode):
    """The engine asks the config for each rule's spec when it is built and
    never again: not per event, and not per violation, whose ``escalate``
    reads the spec resolved for its rule. A run over a trace ten times as
    long asks as often."""
    calls = []
    get = PolicyConfig.get
    monkeypatch.setattr(PolicyConfig, "get",
                        lambda self, name: calls.append(name) or get(self, name))
    per_engine = []
    for minutes in (1, 10):
        events = generate(Scenario("ddos", 0, {"req_per_s": 20, "burst_minutes": minutes}))
        calls.clear()
        result = PolicyEngine(default_policies(), "chrome", mode=mode).run(events)
        assert 0 < len(result.violations) < len(events) // 100
        per_engine.append(len(calls))
    assert per_engine == [len(RULES), len(RULES)]


@pytest.mark.parametrize("mode", ["enforce", "simulate"])
def test_a_flood_classifies_a_bounded_number_of_fetches(monkeypatch, mode):
    """Work is counted, not timed: a repeated throttled background fetch is
    judged by one count, so the classification runs for a few fetches of a
    flood, not for each. One call per fetch is 12,000 calls here."""
    calls = []
    classify = policy.background_third_party
    monkeypatch.setattr(policy, "background_third_party",
                        lambda *args: calls.append(args[1]) or classify(*args))
    events = generate(Scenario("ddos", 0, {"req_per_s": 20, "burst_minutes": 10}))
    result = PolicyEngine(default_policies(), "chrome", mode=mode).run(events)
    throttles = [a for a in result.actions if a.action is EnforcementAction.THROTTLE_EVENT]
    assert len(throttles) > len(events) // 4
    assert len(calls) < len(events) // 100


class KeyCheckEngine(PolicyEngine):
    """After every event, each worker's live clock key must equal a fresh
    computation: a handler that changed an input of the key without setting
    ``dirty`` leaves a stale key behind."""

    def on_event(self, event: TraceEvent, out=None):
        out = super().on_event(event, out)
        for st in self._states.values():
            assert st.wake_ts == self._wake_key(st, event.ts), (event, st.record.sw_id)
            assert not st.dirty
        return out


@pytest.mark.parametrize("seed", range(4))
def test_clock_keys_stay_fresh_after_every_event(seed):
    events = merged_fleet(seed, workers=random.Random(seed).randint(3, 6),
                          names=ALL_GENERATORS)
    for config in CONFIGS.values():
        for profile in PROFILES:
            for mode in ("simulate", "enforce"):
                KeyCheckEngine(config, profile, mode=mode).run(events)


def _worker(sw_id="sw-1", origin="https://a.example", caps=None, subscribed=True):
    return SwRecord(sw_id, Origin.parse(origin), Scope("/"), f"{origin}/sw.js",
                    state=SwState.ACTIVATED, capabilities=caps, push_subscribed=subscribed)


def _bg_fetch(ts):
    return TraceEvent(ts, "fetch_request", "https://a.example", "sw-1", "/",
                      MappingProxyType({"url": "https://victim.example/", "initiator_is_sw": True}))


@pytest.mark.parametrize("mode", ["enforce", "simulate"])
def test_a_worker_without_a_capability_is_throttled_on_each_gated_event(mode):
    engine = PolicyEngine(default_policies(), "chrome", mode=mode)
    engine.register_record(_worker(caps=frozenset({Capability.PUSH})))
    fetches = [_bg_fetch(ts) for ts in range(0, 5_000, 1_000)]
    result = engine.run(fetches)
    assert result.suppressed_events == fetches and not result.delivered_events
    assert result.actions == [ActionEntry(event.ts, "sw-1", EnforcementAction.THROTTLE_EVENT,
                                          "capability:fetch_intercept") for event in fetches]
    # One reason object per capability, so the action-row writer reuses its text.
    assert len({id(action.reason) for action in result.actions}) == 1


def test_register_record_with_other_capabilities_replaces_the_table():
    engine = PolicyEngine(default_policies(), "chrome", mode="enforce")
    engine.register_record(_worker(caps=frozenset({Capability.PUSH})))
    push = TraceEvent(0, "push", "https://a.example", "sw-1", "/",
                      MappingProxyType({"push_id": "p1"}))
    assert engine.on_event(push).deliver
    assert not engine.on_event(_bg_fetch(1_000)).deliver
    engine.register_record(_worker(caps=frozenset({Capability.FETCH_INTERCEPT})))
    decision = engine.on_event(push._replace(ts=2_000))
    assert not decision.deliver
    assert [action.reason for action in decision.actions] == ["capability:push"]
    decision = engine.on_event(_bg_fetch(3_000))
    assert decision.deliver and not decision.actions


class PushRecordingEngine(PolicyEngine):
    """An override of one handler, which the dispatch tables must call."""

    def _on_push(self, st, event, out):
        self.pushes.append(event.ts)
        super()._on_push(st, event, out)


@pytest.mark.parametrize("mode", ["enforce", "simulate"])
def test_an_overriding_handler_is_called(mode):
    events = generate(Scenario("push_flood", 0, {"pushes_per_hour": 60, "renew_after": 4,
                                                 "duration_ms": 3_600_000}))
    engine = PushRecordingEngine(default_policies(), "firefox", mode=mode)
    engine.pushes = []
    result = engine.run(events)
    assert engine.pushes == [event.ts for event in events if event.kind == "push"]
    assert result == PolicyEngine(default_policies(), "firefox", mode=mode).run(events)


class GrantScanEngine(PolicyEngine):
    """Oracle: a permission grant scans every worker and compares the text
    of its origin with the grant's."""

    def on_event(self, event: TraceEvent, out=None):
        if event.kind != "permission_grant":
            return super().on_event(event, out)
        if self._t0 is None:
            self._t0 = event.ts
        out = self.advance(event.ts, out)
        origin_key = str(Origin.parse(event.origin))
        for st in self._states.values():
            if str(st.record.origin) == origin_key:
                renewed = not st.record.push_subscribed or st.record.silent_push_count > 0
                st.record.push_subscribed = True
                st.record.silent_push_count = 0
                if renewed:
                    out.notices.append(Notice(event.ts, st.record.sw_id, "subscription_renewed",
                                              event.get("permission", "notifications")))
        return out


@pytest.mark.parametrize("seed", range(4))
def test_permission_grants_renew_as_the_scan_over_every_worker_does(seed):
    """Merged fleets whose workers share origins. Before the trace, some
    workers are registered, and some of those registered again on another
    origin, which must move them out of their first origin's grants."""
    rng = random.Random(seed)
    events = merged_fleet(seed, workers=rng.randint(4, 8), names=ALL_GENERATORS)
    sw_ids = sorted({event.sw_id for event in events if event.sw_id is not None})
    origins = sorted({event.origin for event in events})
    plan = [(sw_id, origin, rng.random() < 0.5) for sw_id in rng.sample(sw_ids, 3)
            for origin in rng.sample(origins, 2)]
    renewed = 0
    for config in CONFIGS.values():
        for profile in PROFILES:
            for mode in ("simulate", "enforce"):
                results = []
                for engine_cls in (PolicyEngine, GrantScanEngine):
                    engine = engine_cls(config, profile, mode=mode)
                    for sw_id, origin, subscribed in plan:
                        engine.register_record(_worker(sw_id, origin, subscribed=subscribed))
                    results.append(engine.run(events))
                assert results[0] == results[1], (profile, mode)
                renewed += sum(n.kind == "subscription_renewed" for n in results[0].notices)
    assert renewed > 0


def test_a_permission_grant_reads_only_the_workers_on_its_origin(monkeypatch):
    """The text of a worker's origin is made when it registers, not on each
    grant: a grant costs as much among 10 workers as among 1,000."""
    made = []
    origin_str = Origin.__str__
    monkeypatch.setattr(Origin, "__str__", lambda self: made.append(self) or origin_str(self))
    grant = TraceEvent(0, "permission_grant", "https://site0.example",
                       payload=MappingProxyType({"permission": "notifications"}))
    per_grant = []
    for workers in (10, 1_000):
        engine = PolicyEngine(default_policies(), "chrome", mode="enforce")
        for i in range(workers):
            engine.register_record(_worker(f"sw-{i}", f"https://site{i}.example",
                                           subscribed=False))
        made.clear()
        decision = engine.on_event(grant)
        per_grant.append(len(made))
        assert [(n.sw_id, n.kind) for n in decision.notices] == [("sw-0", "subscription_renewed")]
    assert per_grant[0] == per_grant[1] <= 1


def test_permission_grants_read_the_order_of_only_the_workers_they_renew(monkeypatch):
    """n unsubscribed workers of one origin, then n grants: the first renews
    them all and the rest find none to renew, so the grants read n sort keys
    in all, where a walk over every worker of the origin reads n * n."""
    reads = []

    class CountingState(policy._SwEngineState):
        @property
        def order(self):
            reads.append(self)
            return self.__dict__["order"]

        @order.setter
        def order(self, value):
            self.__dict__["order"] = value

    monkeypatch.setattr(policy, "_SwEngineState", CountingState)
    workers = 300
    engine = PolicyEngine(default_policies(), "chrome", mode="enforce")
    for i in range(workers):
        engine.register_record(SwRecord(f"sw-{i}", Origin.parse("https://g.example"),
                                        Scope(f"/s{i}/"), "https://g.example/sw.js",
                                        state=SwState.ACTIVATED, push_subscribed=False))
    reads.clear()
    renewed = [[n.sw_id for n in engine.on_event(TraceEvent(
        ts, "permission_grant", "https://g.example",
        payload=MappingProxyType({"permission": "notifications"}))).notices]
        for ts in range(workers)]
    assert renewed[0] == [f"sw-{i}" for i in range(workers)]
    assert not any(renewed[1:])
    assert len(reads) == workers


def test_bad_origin_raises_on_every_call():
    for text in ("https://a.example:99999", "https://a.example:x", "https://[::1",
                 "no-scheme.example"):
        for _ in range(3):
            with pytest.raises(ModelError):
                Origin.parse(text)
    assert Origin.parse("https://a.example:8443").port == 8443


def test_analyze_past_the_cache_bound_matches_uncached(monkeypatch):
    """More distinct fetch URLs than the cache holds, revisited in a random
    order, so entries are evicted and looked up again."""
    bound = url_registrable_domain.cache_info().maxsize
    rng = random.Random(5)
    hosts = [f"cdn{i}.shop.example" for i in range(40)]
    hosts += [f"t{i}.tracker{i % 7}.co.uk" for i in range(40)]
    hosts += [f"app{i}.github.io" for i in range(40)]
    urls = [f"https://{rng.choice(hosts)}/r/{i}" for i in range(bound + 500)]
    urls += rng.sample(urls, 2_000)
    events = [TraceEvent(ts=0, kind="register", origin="https://www.shop.example",
                         sw_id="sw-1", scope="/")]
    for i, url in enumerate(urls):
        events.append(TraceEvent(ts=1_000 + i * 100, kind="fetch_request",
                                 origin="https://www.shop.example", sw_id="sw-1",
                                 scope="/", payload={"url": url, "initiator_is_sw": True}))
        if i % 500 == 499:
            events.append(TraceEvent(ts=1_000 + i * 100, kind="terminate",
                                     origin="https://www.shop.example", sw_id="sw-1",
                                     scope="/"))
    url_registrable_domain.cache_clear()
    cached = forensics.analyze_trace(events)
    assert url_registrable_domain.cache_info().currsize <= bound
    assert url_registrable_domain.cache_info().misses > bound

    monkeypatch.setattr(domains, "registrable_domain", registrable_domain.__wrapped__)
    monkeypatch.setattr(forensics, "registrable_domain", registrable_domain.__wrapped__)
    monkeypatch.setattr(trace, "url_registrable_domain", url_registrable_domain.__wrapped__)
    uncached = forensics.analyze_trace(events)
    assert cached == uncached
    counts = cached["sw-1"].bg_third_party_fetches_per_activation
    assert 0 < sum(counts) < len(urls)  # both verdicts occur
