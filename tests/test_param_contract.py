"""The generators' parameter contract.

A generator's signature is the one home of its parameters' types. Every
parameter but the seed is an ``int``, ``float``, ``bool``, ``str`` or
``Optional[int]``; ``generate`` takes a value of exactly that type (a float
parameter also an int, an Optional one also None) that, as a number, is
finite and >= 0; it refuses by name, too, a parameter that has no default
and is missing, and one that is not in the signature. A seeded fuzz draws
parameters from small counts and type probes: each draw raises ``KeyError``,
``TypeError`` or ``ValueError``, or gives a trace that round-trips through
the writer and the reader and that ``enforce`` and ``analyze`` accept.
"""

import inspect
import math
import random
from typing import Optional

import pytest

from sw_sentinel.forensics import analyze_trace
from sw_sentinel.policy import PolicyEngine
from sw_sentinel.scenarios import GENERATORS, PARAM_TYPES, Scenario, generate
from sw_sentinel.trace import emit_trace, parse_trace

COUNTS = (0, 1, 2, 3, 7)  # every trace stays small
PROBES = (0.5, 2.5, True, False, "x", None, -1, math.inf, math.nan, "https://v.example/x")


def test_every_parameter_has_a_type_the_contract_knows():
    allowed = {int, float, bool, str, Optional[int]}
    for name, gen in GENERATORS.items():
        params = inspect.signature(gen, eval_str=True).parameters
        assert list(params)[0] == "seed", name
        for key, param in list(params.items())[1:]:
            assert param.annotation in allowed, (name, key, param.annotation)
        assert list(PARAM_TYPES[name]) == list(params)[1:], name


@pytest.mark.parametrize("name,params,key", [
    ("push_flood", {"pushes_per_hour": True}, "pushes_per_hour"),
    ("tag_reuser", {"n_pushes": True}, "n_pushes"),
    ("benign", {"exec_min_per_day": True}, "exec_min_per_day"),
    ("push_flood", {"pushes_per_hour": 5, "silent": "x"}, "silent"),
    ("push_flood", {"pushes_per_hour": 5, "silent": 1}, "silent"),
    ("ddos", {"req_per_s": 1, "burst_minutes": 1, "target": 5}, "target"),
    ("benign", {"exec_min_per_day": 1441}, "exec_min_per_day"),
    ("benign", {"exec_min_per_day": 1e308}, "exec_min_per_day"),
    ("push_flood", {}, "pushes_per_hour"),
    ("ddos", {"req_per_s": 1}, "burst_minutes"),
    ("ddos", {"req_per_s": 1, "burst_minutes": 1, "bogus": 3}, "bogus"),
    ("ddos", {"bogus": 3}, "bogus"),
    ("benign", {"seed": 1}, "seed"),
], ids=["bool_pushes_per_hour", "bool_n_pushes", "bool_exec_min_per_day", "text_silent",
        "int_silent", "int_target", "exec_min_per_day_1441", "exec_min_per_day_1e308",
        "missing_pushes_per_hour", "missing_burst_minutes", "unknown_bogus",
        "unknown_before_missing", "seed_as_a_parameter"])
def test_a_value_outside_the_contract_is_refused_by_name(name, params, key):
    with pytest.raises(ValueError, match=f"parameter {key} "):
        generate(Scenario(name, 0, params, 3_600_000 if "duration_ms" in PARAM_TYPES[name]
                          else None))


@pytest.mark.parametrize("value", [0, 1_440, 1_440.0, 0.5])
def test_exec_min_per_day_takes_up_to_a_whole_day(value):
    assert generate(Scenario("benign", 0, {"exec_min_per_day": value}, 3_600_000))


def _draw(rng, name):
    params = {}
    for key in PARAM_TYPES[name]:
        if rng.random() < 0.9:  # now and then a parameter is missing
            params[key] = rng.choice(COUNTS if rng.random() < 0.6 else PROBES)
    if rng.random() < 0.1:
        params["stray"] = rng.choice(COUNTS + PROBES)
    return params


def test_seeded_parameter_draws_are_refused_or_give_a_trace_every_layer_reads():
    rng = random.Random(2020)
    names = sorted(GENERATORS)
    outcomes = {"refused": 0, "generated": 0}
    for _ in range(3_000):
        name = rng.choice(names)
        params = _draw(rng, name)
        try:
            events = generate(Scenario(name, rng.randrange(1 << 32), params))
        except (KeyError, TypeError, ValueError):
            outcomes["refused"] += 1
            continue
        outcomes["generated"] += 1
        assert parse_trace(emit_trace(events)) == events, (name, params)
        PolicyEngine(mode="enforce").run(events)
        analyze_trace(events)
    assert min(outcomes.values()) > 500, outcomes
