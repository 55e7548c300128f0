"""Byte-identity of every CLI output file against a checked-in sha256 table.

Each case generates one small trace, runs ``simulate`` under all five
browser profiles, and runs ``enforce`` (all five profiles) plus
``analyze`` over the generated trace. A change that alters any output
byte fails here and names the files that moved.

After an intended output change, rewrite the table with
``PYTHONPATH=src python tests/test_golden_outputs.py --write``.
"""

import hashlib
import json
import os
import sys
import tempfile

from sw_sentinel.cli import run
from sw_sentinel.policy import PROFILES

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")
HOUR_MS = 3_600_000

# (case label, generator, params): small sizes that still reach every
# policy, the silent-push ladder and the exhausted daily budget.
CASES = (
    ("webbot", "webbot", {"duration_ms": 20 * 60_000}),
    ("push_flood", "push_flood", {"pushes_per_hour": 40, "duration_ms": HOUR_MS}),
    ("push_flood_silent", "push_flood",
     {"pushes_per_hour": 40, "silent": "true", "renew_after": 5, "duration_ms": HOUR_MS}),
    ("ddos", "ddos", {"req_per_s": 5, "burst_minutes": 2}),
    ("notification_hider", "notification_hider", {"duration_ms": 20 * 60_000}),
    ("tag_reuser", "tag_reuser", {"n_pushes": 20}),
    ("tracking_library", "tracking_library", {"page_visits": 30}),
    ("benign", "benign", {"push_rate": 4, "duration_ms": 2 * HOUR_MS}),
    ("benign_over_budget", "benign",
     {"push_rate": 1, "exec_min_per_day": 120, "duration_ms": 36 * HOUR_MS}),
)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(argv):
    code = run(argv)
    assert code == 0, f"exit {code}: {' '.join(argv)}"


def produce(root):
    """Run every case under ``root``; return {relative path: sha256}."""
    for label, scenario, params in CASES:
        case = os.path.join(root, label)
        param_args = [arg for key, value in params.items()
                      for arg in ("--param", f"{key}={value}")]
        trace = os.path.join(case, "trace.jsonl")
        _run(["gen", "--scenario", scenario, "--seed", "0", *param_args, "--out", trace])
        for profile in sorted(PROFILES):
            _run(["simulate", "--scenario", scenario, "--seed", "0", *param_args,
                  "--profile", profile, "--out", os.path.join(case, f"simulate-{profile}")])
            _run(["enforce", "--trace", trace, "--profile", profile,
                  "--out", os.path.join(case, f"enforce-{profile}")])
        _run(["analyze", "--trace", trace, "--out", os.path.join(case, "analyze")])
    digests = {}
    for directory, _subdirs, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            digests[os.path.relpath(path, root).replace(os.sep, "/")] = _sha256(path)
    return dict(sorted(digests.items()))


def test_outputs_match_pinned_digests(tmp_path):
    with open(TABLE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    actual = produce(str(tmp_path))
    changed = sorted(
        name for name in pinned.keys() | actual.keys()
        if pinned.get(name) != actual.get(name)
    )
    assert changed == [], f"{len(changed)} output files differ: {changed[:20]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_outputs.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        table = produce(tmp)
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(table)} files to {TABLE}")
