"""The registration's phase lives in the model, not in engine flags.

``FlagEngine`` below is the engine the phase machine replaced: it kept the
phase in four flags of its own and never moved the record's phase, as
``ScanEngine`` keeps the old clock scan. On seeded random sequences of the
lifecycle events, mixed with the events that wake and stop a worker, both
must judge every event alike and end in the same states, in both modes,
under every profile.
"""

import random

import pytest

from sw_sentinel.model import SwState
from sw_sentinel.policy import PROFILES, PolicyEngine, default_policies, load_policies
from sw_sentinel.scenarios import Scenario, generate
from sw_sentinel.trace import TraceEvent

_RUNNING = SwState.RUNNING


class FlagEngine(PolicyEngine):
    """Oracle: the four phase flags and the five handlers that set them."""

    def _add_state(self, record):
        st = super()._add_state(record)
        st.expect_install = st.expect_activate = False
        st.update_check_delivered = st.update_check_suppressed = False
        return st

    def _on_register(self, st, event, out):
        st.expect_install = True

    def _on_install(self, st, event, out):
        if not st.expect_install and self._refuse(out):
            return
        st.expect_install = False
        st.expect_activate = True
        self._wake(st, event.ts)

    def _on_activate(self, st, event, out):
        if not st.expect_activate and self._refuse(out):
            return
        st.expect_activate = False
        self._wake(st, event.ts)

    def _on_update_check(self, st, event, out):
        if st.record.state is not _RUNNING and self._refuse(out):
            st.update_check_suppressed = True
            return
        st.update_check_delivered = True

    def _on_update_found(self, st, event, out):
        if (not st.update_check_delivered and st.update_check_suppressed
                and self._refuse(out)):
            st.update_check_suppressed = False
            return
        st.update_check_delivered = False
        if st.record.state is _RUNNING:
            if st.chain != st.number:
                st.chain = st.number
                st.dirty = True
        else:
            self._wake(st, event.ts)
        st.expect_install = True


TIGHT = load_policies("""[
  {"name": "push_per_hour", "severity": "low", "threshold": 3, "duration_in_minutes": 60},
  {"name": "exec_per_activation", "severity": "medium", "threshold": 1, "duration_in_minutes": 0},
  {"name": "exec_per_day", "severity": "high", "threshold": 3, "duration_in_minutes": 1440}
]""")
CONFIGS = (default_policies(), TIGHT)
KINDS = ("register", "install", "activate", "update_check", "update_found", "terminate",
         "sync", "push", "fetch_event_start", "fetch_event_end")
GAPS_MS = (0, 300, 1_000, 15_000, 45_000, 100_000, 400_000)


def _event(ts, kind, sw_id="sw-a"):
    payload = {"push_id": f"p{ts}"} if kind == "push" else {}
    if kind == "update_found":
        payload = {"version": 2}
    return TraceEvent(ts=ts, kind=kind, origin=f"https://{sw_id}.example", sw_id=sw_id,
                      scope="/", payload=payload)


def random_sequence(rng):
    """Up to 30 events of one or two workers, with fetch brackets balanced as
    recorded, so that ``enforce`` accepts every sequence."""
    workers = ("sw-a", "sw-b")[:rng.randint(1, 2)]
    depth = dict.fromkeys(workers, 0)
    events, ts = [], 0
    for _ in range(rng.randint(1, 30)):
        ts += rng.choice(GAPS_MS)
        sw_id, kind = rng.choice(workers), rng.choice(KINDS)
        if kind == "fetch_event_end" and depth[sw_id] == 0:
            kind = "fetch_event_start"
        depth[sw_id] += {"fetch_event_start": 1, "fetch_event_end": -1}.get(kind, 0)
        events.append(_event(ts, kind, sw_id))
    return events


def _judge(engine, events):
    decisions = [engine.on_event(event) for event in events]
    decisions.append(engine.finish(events[-1].ts))
    return decisions, engine.states()


CHUNKS, PER_CHUNK = 20, 100


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_phase_machine_judges_like_the_flags(chunk):
    rng = random.Random(1300 + chunk)
    for index in range(PER_CHUNK):
        events = random_sequence(rng)
        config = CONFIGS[index % 2]
        for profile in PROFILES:
            for mode in ("simulate", "enforce"):
                expected = _judge(FlagEngine(config, profile, mode=mode), events)
                actual = _judge(PolicyEngine(config, profile, mode=mode), events)
                assert actual == expected, (chunk, index, profile, mode, events)


def test_an_update_installs_beside_a_waiting_version():
    """After this prelude the flags expect an install and an activation at
    once, which one phase value cannot hold: the update installs beside the
    version still waiting, which the activation then makes active."""
    kinds = ["register", "install", "update_found", "terminate", "activate", "install",
             "activate", "update_check", "update_found", "install"]
    events = [_event(1_000 * (i + 1), kind) for i, kind in enumerate(kinds)]
    for mode in ("simulate", "enforce"):
        flags, engine = FlagEngine(mode=mode), PolicyEngine(mode=mode)
        for i, event in enumerate(events):
            assert engine.on_event(event) == flags.on_event(event), (mode, i)
            if i == 3:
                st = flags._states["sw-a"]
                assert st.expect_install and st.expect_activate
                record = engine.record("sw-a")
                assert (record.phase, record.predecessor) == (SwState.INSTALLING,
                                                              SwState.WAITING)
            if i == 4:
                assert engine.record("sw-a").predecessor is SwState.ACTIVATED
        assert engine.states() == flags.states()


def test_the_random_sequences_reach_every_refusal():
    """The equivalence above is only as strong as what the sequences hit:
    the closed loop must refuse each lifecycle kind, and the phase machine
    must hold a waiting version beside an installing one."""
    rng = random.Random(1300)
    refused, beside = set(), False
    for _ in range(PER_CHUNK):
        events = random_sequence(rng)
        engine = PolicyEngine(TIGHT, "chrome", mode="simulate")
        for event in events:
            if not engine.on_event(event).deliver:
                refused.add(event.kind)
            records = [engine.record(sw_id) for sw_id in engine.states()]
            beside |= any(record.predecessor is SwState.WAITING for record in records)
    assert {"install", "activate", "update_check", "update_found", "terminate"} <= refused
    assert beside


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_webbot_refusals_and_versions(profile):
    """Webbot seed 1 has 22 update_found events. The closed loop refuses a
    chain of 8 of each lifecycle kind where a profile caps self-updates,
    and the version counts the delivered updates in both modes."""
    events = generate(Scenario("webbot", 1))
    assert sum(event.kind == "update_found" for event in events) == 22
    for mode in ("simulate", "enforce"):
        flags = FlagEngine(default_policies(), profile, mode=mode).run(events)
        engine = PolicyEngine(default_policies(), profile, mode=mode)
        result = engine.run(events)
        assert result == flags
        suppressed = sorted(event.kind for event in result.suppressed_events)
        capped = mode == "simulate" and PROFILES[profile].self_update_delay_cap_minutes
        if capped:
            assert suppressed == sorted(["terminate"] + 8 * ["update_check", "update_found",
                                                             "install", "activate"])
        else:
            assert suppressed == []
        delivered = sum(event.kind == "update_found" for event in result.delivered_events)
        assert engine.record("sw-webbot").version == 1 + delivered == (15 if capped else 23)
