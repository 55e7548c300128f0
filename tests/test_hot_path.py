"""The per-event path derives each origin, domain and clock key once.

A trace repeats one origin and a few URLs on every line, so ``Origin.parse``
and the registrable-domain lookups are memoized with a fixed bound, and the
engine re-keys a worker's clock entry only after a handler changed an input
of the key. These tests count that work on a seeded DDoS trace, check that
the caches neither keep failures nor change an answer when they evict, and
check the engine's clock keys against a fresh computation after every event.
"""

import random

import pytest

from sw_sentinel import domains, forensics, model, trace
from sw_sentinel.domains import registrable_domain, url_registrable_domain
from sw_sentinel.model import ModelError, Origin
from sw_sentinel.policy import PROFILES, PolicyEngine, default_policies
from sw_sentinel.scenarios import Scenario, generate
from sw_sentinel.trace import TraceEvent, emit_trace, parse_trace

from test_policy_clock import ALL_GENERATORS, CONFIGS, merged_fleet


@pytest.fixture(scope="module")
def ddos_events():
    """Two minutes at 50 background fetches a second from one worker."""
    return generate(Scenario("ddos", 0, {"req_per_s": 50, "burst_minutes": 2}))


def test_origin_parsed_once_per_distinct_origin(ddos_events):
    model._parse_origin.cache_clear()
    events = parse_trace(emit_trace(ddos_events))
    PolicyEngine(default_policies(), "chrome", mode="enforce").run(events)
    forensics.analyze_trace(events)
    info = model._parse_origin.cache_info()
    assert info.misses == len({event.origin for event in events}) == 1
    # Origin.parse is still called for every line; only its work is shared.
    assert info.hits + info.misses > len(events)


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


class KeyCheckEngine(PolicyEngine):
    """After every event, each worker's live clock key must equal a fresh
    computation: a handler that changed an input of the key without setting
    ``dirty`` leaves a stale key behind."""

    def on_event(self, event: TraceEvent):
        out = super().on_event(event)
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
    monkeypatch.setattr(trace, "url_registrable_domain", url_registrable_domain.__wrapped__)
    uncached = forensics.analyze_trace(events)
    assert cached == uncached
    counts = cached["sw-1"].bg_third_party_fetches_per_activation
    assert 0 < sum(counts) < len(urls)  # both verdicts occur
