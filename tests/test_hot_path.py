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

from sw_sentinel import domains, forensics, model, trace
from sw_sentinel.domains import registrable_domain, url_registrable_domain
from sw_sentinel.model import ModelError, Origin
from sw_sentinel.policy import PROFILES, RULES, PolicyConfig, PolicyEngine, default_policies
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


def _assert_keeps_pace(subject, reference, data, bound):
    """``subject(data)`` must take at most ``bound`` times as long as
    ``reference(data)``. The load on the machine varies, so the fastest runs
    of each are compared, in pairs that alternate which runs first, with
    garbage collection off as in timeit. The check passes once it holds after
    three pairs or more, and fails if it still does not after nine."""
    times = {subject: [], reference: []}
    for pair in range(9):
        order = (subject, reference) if pair % 2 == 0 else (reference, subject)
        for fn in order:
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = fn(data)
                times[fn].append(time.perf_counter() - start)
            finally:
                gc.enable()
            assert len(result) == len(data)
            del result  # freed here, not inside the next run's timing
        if pair >= 2 and min(times[subject]) <= bound * min(times[reference]):
            return
    pytest.fail(f"{subject.__name__} is more than {bound - 1:.0%} slower than "
                f"{reference.__name__}: {times}")


def test_parse_with_a_new_origin_on_every_line_keeps_pace():
    """The worst case for the header cache: every line misses it, so the
    cache keeps evicting. The parse must stay within 10 % of the reader that
    checks every line."""
    lines = [f'{{"ts":{i},"kind":"sync","origin":"https://w{i}.example","sw_id":"sw-{i}"}}'
             for i in range(30_000)]
    _assert_keeps_pace(parse_trace, reference_parse, lines, 1.10)


def test_parse_with_a_new_body_on_every_line_keeps_pace_with_the_one_pass_reader():
    """The worst case for the body cache: a push flood whose every line
    holds a new push_id or notif_id, so no body repeats. The parse must stop
    remembering bodies and stay within 10 % of the reader that decodes every
    line and checks each distinct header once."""
    lines = list(emit_trace(generate(Scenario(
        "push_flood", 0, {"pushes_per_hour": 15_000, "duration_ms": 3_600_000}))))
    assert len({line.partition(",")[2] for line in lines}) == len(lines) == 30_003
    _assert_keeps_pace(parse_trace, onepass_parse, lines, 1.10)


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
    """The engine asks the config for each rule's spec when it is built, and
    ``escalate`` asks once per violation, never per event: beyond one call per
    violation, a run over a trace ten times as long asks as often."""
    calls = []
    get = PolicyConfig.get
    monkeypatch.setattr(PolicyConfig, "get",
                        lambda self, name: calls.append(name) or get(self, name))
    per_engine = []
    for minutes in (1, 10):
        events = generate(Scenario("ddos", 0, {"req_per_s": 20, "burst_minutes": minutes}))
        calls.clear()
        result = PolicyEngine(default_policies(), "chrome", mode=mode).run(events)
        assert len(result.violations) < len(events) // 100
        per_engine.append(len(calls) - len(result.violations))
    assert per_engine == [len(RULES), len(RULES)]


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
    monkeypatch.setattr(forensics, "url_registrable_domain", url_registrable_domain.__wrapped__)
    uncached = forensics.analyze_trace(events)
    assert cached == uncached
    counts = cached["sw-1"].bg_third_party_fetches_per_activation
    assert 0 < sum(counts) < len(urls)  # both verdicts occur
