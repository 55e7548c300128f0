"""Byte-identity of every CLI output file against a checked-in sha256 table.

Each case generates one small trace, runs ``simulate`` under all five
browser profiles, and runs ``enforce`` (all five profiles) plus
``analyze`` over the generated trace. Four more cases run the paths that
no generated trace reaches: ``analyze --meta`` on the tracking library's
trace; a hand-written trace with a clicked notification and a worker
refused the fetch events it lacks the capability for, through ``enforce``
and ``analyze``; a hand-written trace of the open loop's refusals (an http
register, a second worker at a held scope, a never-run worker's own fetch,
and a close and a click of notifications never shown), through ``enforce``
and ``analyze``; and ``csp-check`` and ``csp-audit``, whose stdout is pinned.
A change that alters any output byte fails here and names the files that
moved.

After an intended output change, rewrite the table with
``PYTHONPATH=src python tests/test_golden_outputs.py --write``; it prints
the entries it added, changed and removed.
"""

import contextlib
import hashlib
import io
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


# Import domains for the tracking library's worker, so that its fetches to
# the tracking server count as first party in ``analyze --meta``.
TRACKING_META = {"sw-tracking": {"origin": "https://host-site.example", "rank": 1,
                                 "import_domains": ["tracking.example"]}}

# A notification the user clicks, and a worker registered with push alone
# whose fetch handler runs: each of its fetch events is refused and throttled.
CLICK_AND_REFUSE = (
    '{"ts":0,"kind":"register","origin":"https://clicks.example","sw_id":"sw-click",'
    '"scope":"/"}',
    '{"ts":0,"kind":"permission_grant","origin":"https://clicks.example",'
    '"permission":"notifications"}',
    '{"ts":1000,"kind":"push","origin":"https://clicks.example","sw_id":"sw-click",'
    '"scope":"/","push_id":"p1"}',
    '{"ts":1200,"kind":"notification_show","origin":"https://clicks.example",'
    '"sw_id":"sw-click","scope":"/","notif_id":"n1","title":"Hello"}',
    '{"ts":2000,"kind":"register","origin":"https://pushonly.example",'
    '"sw_id":"sw-push-only","scope":"/","capabilities":["push"]}',
    '{"ts":3000,"kind":"fetch_event_start","origin":"https://pushonly.example",'
    '"sw_id":"sw-push-only","scope":"/"}',
    '{"ts":3010,"kind":"fetch_request","origin":"https://pushonly.example",'
    '"sw_id":"sw-push-only","scope":"/","url":"https://pushonly.example/a.js",'
    '"initiator_is_sw":true}',
    '{"ts":3020,"kind":"fetch_event_end","origin":"https://pushonly.example",'
    '"sw_id":"sw-push-only","scope":"/"}',
    '{"ts":9000,"kind":"notification_click","origin":"https://clicks.example",'
    '"sw_id":"sw-click","scope":"/","notif_id":"n1"}',
    '{"ts":40000,"kind":"terminate","origin":"https://clicks.example","sw_id":"sw-click",'
    '"scope":"/"}',
)

# The open loop's refusals: an http register; a second sw_id at a scope that
# is held; a never-run worker's own fetch; a programmatic close and a click of
# notifications never shown, by a worker that has not run.
REFUSALS = (
    '{"ts":0,"kind":"register","origin":"https://held.example","sw_id":"sw-held","scope":"/"}',
    '{"ts":0,"kind":"register","origin":"https://held.example","sw_id":"sw-second",'
    '"scope":"/"}',
    '{"ts":0,"kind":"register","origin":"http://plain.example","sw_id":"sw-http","scope":"/"}',
    '{"ts":500,"kind":"register","origin":"https://idle.example","sw_id":"sw-idle","scope":"/"}',
    '{"ts":1000,"kind":"fetch_request","origin":"https://idle.example","sw_id":"sw-idle",'
    '"scope":"/","url":"https://tracker.example/t","initiator_is_sw":true}',
    '{"ts":2000,"kind":"notification_close","origin":"https://held.example",'
    '"sw_id":"sw-held","scope":"/","notif_id":"never","by_user":false}',
    '{"ts":3000,"kind":"notification_click","origin":"https://held.example",'
    '"sw_id":"sw-held","scope":"/","notif_id":"nor-this"}',
    '{"ts":40000,"kind":"terminate","origin":"https://held.example","sw_id":"sw-held",'
    '"scope":"/"}',
    '{"ts":40000,"kind":"terminate","origin":"https://idle.example","sw_id":"sw-idle",'
    '"scope":"/"}',
)

# A header whose host sources allow every import below, and eval.
CSP_HEADER = "script-src 'self' https://cdn.example *.push.example:* 'unsafe-eval'"
CSP_IMPORTS = ("/lib.js", "https://cdn.example/sdk.js", "https://a.push.example:8443/w.js")
CSP_CORPUS = (
    {"url": "https://a.example/sw.js",
     "headers": {"Service-Worker": "script", "Content-Security-Policy": "script-src 'self'"}},
    {"url": "https://b.example/sw.js",
     "headers": {"service-worker": "script", "content-security-policy": "default-src 'self'"}},
    {"url": "https://c.example/sw.js", "headers": {"Service-Worker": "script"}},
    {"url": "https://d.example/page.html", "headers": {"Content-Security-Policy": "img-src *"}},
)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(argv):
    code = run(argv)
    assert code == 0, f"exit {code}: {' '.join(argv)}"


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _run_to_file(path, argv):
    """Run a command whose output is its stdout, and write that to ``path``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        _run(argv)
    _write(path, stdout.getvalue())


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
    case = os.path.join(root, "tracking_library")
    meta = _write(os.path.join(case, "meta.json"), json.dumps(TRACKING_META))
    _run(["analyze", "--trace", os.path.join(case, "trace.jsonl"), "--meta", meta,
          "--out", os.path.join(case, "analyze-meta")])
    for label, lines in (("click_and_refuse", CLICK_AND_REFUSE), ("refusals", REFUSALS)):
        case = os.path.join(root, label)
        trace = _write(os.path.join(case, "trace.jsonl"), "\n".join(lines) + "\n")
        for profile in sorted(PROFILES):
            _run(["enforce", "--trace", trace, "--profile", profile,
                  "--out", os.path.join(case, f"enforce-{profile}")])
        _run(["analyze", "--trace", trace, "--out", os.path.join(case, "analyze")])
    case = os.path.join(root, "csp")
    _run_to_file(os.path.join(case, "check.txt"),
                 ["csp-check", "--header", CSP_HEADER, "--origin", "https://app.example",
                  *(arg for url in CSP_IMPORTS for arg in ("--import", url))])
    corpus = _write(os.path.join(case, "corpus.jsonl"),
                    "".join(json.dumps(entry) + "\n" for entry in CSP_CORPUS))
    _run_to_file(os.path.join(case, "audit.txt"), ["csp-audit", "--corpus", corpus])
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
    with open(TABLE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(table)} files to {TABLE}")
    for label, names in (("added", table.keys() - pinned.keys()),
                         ("changed", {name for name in table.keys() & pinned.keys()
                                      if table[name] != pinned[name]}),
                         ("removed", pinned.keys() - table.keys())):
        print(f"{len(names)} {label}")
        for name in sorted(names):
            print(f"  {name}")
