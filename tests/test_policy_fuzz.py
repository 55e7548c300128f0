"""Seeded fuzzing of policy files.

Each input is the shipped ``defaults.json`` or a hand-made config with one
or two mutations: a character dropped or doubled, or any field (the whole
config, a top-level key's value, a policy object, one of its fields, an
allow-list entry) replaced by a hostile JSON value. Every input must load
or raise ``PolicyConfigError``; every 30th runs through ``enforce
--policies`` and ``simulate --policies``, which must exit 0, 1 or 2.
"""

import json
import random
from importlib import resources

from sw_sentinel.cli import run
from sw_sentinel.policy import PolicyConfigError, load_policies
from sw_sentinel.scenarios import GENERATORS, Scenario, generate
from sw_sentinel.trace import emit_trace

DEFAULTS = resources.files("sw_sentinel").joinpath("defaults.json").read_text("utf-8")


def _policy(name, severity="low", threshold=3, minutes=60):
    return {"name": name, "severity": severity, "threshold": threshold,
            "duration_in_minutes": minutes}


BASES = [
    DEFAULTS,
    "[]",
    json.dumps([_policy("push_per_hour", "high", 2), _policy("tag_reuse", "medium", 1, 1)]),
    json.dumps({"policies": [_policy("exec_per_activation", "medium", 0.5, 0),
                             _policy("exec_per_day", "high", 2, 1440),
                             _policy("notif_min_visible", "low", 30, 0)],
                "allow_list": ["https://pushmill.example"],
                "deregister_engagement_threshold": 0}),
    json.dumps({"policies": [_policy("bg_fetch_per_activation", "low", 1.5, 0)],
                "allow_list": []}),
]

# The text of each hostile value, as a file would hold it: a list, an object,
# NaN, a number past the float range, minus zero, true, a 400-digit integer,
# null, and strings.
HOSTILE = ['[]', '["x"]', '{}', '{"k": "v"}', 'NaN', '1e309', '-0', 'true',
           '9' * 400, 'null', '""', '"low"', '"push_per_hour"']


def _fields(obj, path=()):
    """Every path into ``obj``, the empty path (the whole config) included."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _fields(value, path + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _fields(value, path + (index,))


def _replace(text, rng):
    """``text`` with one field replaced by a hostile value, written as JSON
    text, so that NaN, 1e309 and the long integer reach the loader as such."""
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    path = rng.choice(list(_fields(obj)))
    marker = "\x00hostile\x00"
    if not path:
        return rng.choice(HOSTILE)
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = marker
    return json.dumps(obj).replace(json.dumps(marker), rng.choice(HOSTILE))


def mutate(text, rng):
    op = rng.choice(("drop", "double", "field", "field"))
    if op == "field":
        replaced = _replace(text, rng)
        if replaced is not None:
            return replaced
    if not text:
        return text
    at = rng.randrange(len(text))
    return text[:at] + (text[at] * 2 if op == "double" else "") + text[at + 1:]


# Small runs of each generator, as ``simulate --param`` arguments.
SIMULATE_PARAMS = {
    "benign": ["duration_ms=3600000", "push_rate=20"],
    "ddos": ["req_per_s=2", "burst_minutes=1"],
    "notification_hider": ["duration_ms=600000"],
    "push_flood": ["pushes_per_hour=60", "silent=true", "renew_after=4",
                   "duration_ms=1800000"],
    "tag_reuser": ["n_pushes=6"],
    "tracking_library": ["page_visits=8"],
    "webbot": ["duration_ms=400000"],
}


def _params(name):
    return {key: json.loads(value) for key, value in
            (pair.split("=") for pair in SIMULATE_PARAMS[name])}


def test_mutated_policy_files_load_or_raise_the_config_error(tmp_path, capsys):
    assert sorted(SIMULATE_PARAMS) == sorted(GENERATORS)
    names = sorted(GENERATORS)
    traces = {}
    for name in names:
        traces[name] = tmp_path / f"{name}.jsonl"
        events = generate(Scenario(name, 1, _params(name)))
        traces[name].write_text("".join(line + "\n" for line in emit_trace(events)))
    rng = random.Random(1990)
    outcomes = {"loaded": 0, "rejected": 0}
    codes = {0: 0, 1: 0, 2: 0}
    for round_no in range(1_500):
        text = rng.choice(BASES)
        for _ in range(rng.randint(1, 2)):
            text = mutate(text, rng)
        try:
            load_policies(text)
            outcomes["loaded"] += 1
        except PolicyConfigError:
            outcomes["rejected"] += 1
        if round_no % 30:
            continue
        policies = tmp_path / "policies.json"
        policies.write_text(text, encoding="utf-8")
        name = names[round_no // 30 % len(names)]
        params = [arg for pair in SIMULATE_PARAMS[name] for arg in ("--param", pair)]
        for argv in (["enforce", "--trace", str(traces[name])],
                     ["simulate", "--scenario", name, *params]):
            code = run(argv + ["--policies", str(policies), "--out", str(tmp_path / "out")])
            assert code in codes, (argv, text)
            codes[code] += 1
    capsys.readouterr()
    assert min(outcomes.values()) > 100, outcomes
    assert codes[0] and codes[2], codes  # files that load and files that do not
