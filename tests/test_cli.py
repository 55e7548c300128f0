import csv
import errno
import gc
import json
import math
import os
import random

import pytest

from sw_sentinel import cli, scenarios
from sw_sentinel.cli import run
from sw_sentinel.policy import (ActionEntry, EnforcementAction, Notice, PolicyEngine,
                                ViolationRecord, load_policies)
from sw_sentinel.scenarios import Scenario, generate
from sw_sentinel.trace import MAX_TRACE_SPAN_MS, emit_trace, read_trace


def lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line]


class TestGen:
    def test_gen_writes_trace(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = run(["gen", "--scenario", "ddos", "--seed", "7",
                    "--param", "req_per_s=2", "--param", "burst_minutes=1",
                    "--out", str(out)])
        assert code == 0
        events = read_trace(str(out))
        assert sum(1 for e in events if e.kind == "fetch_request") == 120

    def test_gen_byte_identical_across_runs(self, tmp_path):
        args = ["gen", "--scenario", "push_flood", "--seed", "3",
                "--param", "pushes_per_hour=20", "--param", "duration_ms=3600000"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_scenario_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["gen", "--scenario", "nope", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_bad_param_exits_two(self, tmp_path):
        code = run(["gen", "--scenario", "benign", "--param", "oops",
                    "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("scenario,params,named", [
        ("push_flood", [], "parameter pushes_per_hour is required"),
        ("ddos", ["req_per_s=1", "burst_minutes=1", "bogus=3"],
         "parameter bogus is not a parameter of ddos"),
    ], ids=["missing", "unknown"])
    def test_a_missing_or_unknown_param_exits_two_naming_it(self, tmp_path, capsys, scenario,
                                                             params, named):
        out = tmp_path / "x.jsonl"
        code = run(["gen", "--scenario", scenario, *(arg for pair in params
                                                     for arg in ("--param", pair)),
                    "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: cannot generate scenario: {named}\n"

    def test_runs_share_one_parser_but_not_their_params(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "generate", lambda scenario: seen.append(scenario) or [])
        out = str(tmp_path / "x.jsonl")
        assert run(["gen", "--scenario", "ddos", "--param", "req_per_s=2",
                    "--param", "burst_minutes=1", "--out", out]) == 0
        assert run(["gen", "--scenario", "benign", "--param", "push_rate=3", "--out", out]) == 0
        assert run(["gen", "--scenario", "benign", "--out", out]) == 0
        assert [scenario.params for scenario in seen] == [
            {"req_per_s": 2, "burst_minutes": 1}, {"push_rate": 3}, {}]
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_outputs_take_their_mode_from_the_umask(self, tmp_path, umask):
        """Every output is created as open(path, "w") would create it, and
        no temporary file is left beside it."""
        trace, out = tmp_path / "t.jsonl", tmp_path / "out"
        old = os.umask(umask)
        try:
            assert run(["gen", "--scenario", "benign", "--out", str(trace)]) == 0
            assert run(["gen", "--scenario", "benign", "--out", str(trace)]) == 0  # replaced
            assert run(["simulate", "--scenario", "webbot", "--out", str(out / "sim")]) == 0
            assert run(["enforce", "--trace", str(trace), "--out", str(out / "enf")]) == 0
            assert run(["analyze", "--trace", str(trace), "--out", str(out / "ana")]) == 0
        finally:
            os.umask(old)
        written = [trace, *(path for path in out.rglob("*") if path.is_file())]
        assert len(written) == 1 + 6 + 3 + 6
        for path in written:
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path
        assert not [path for path in tmp_path.rglob(".sw-sentinel-*")]


class TestPipeline:
    def test_gen_enforce_analyze_chain(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert run(["gen", "--scenario", "benign", "--seed", "1",
                    "--out", str(trace)]) == 0
        out_dir = tmp_path / "enforced"
        assert run(["enforce", "--trace", str(trace), "--profile", "chrome",
                    "--out", str(out_dir)]) == 0
        assert lines(out_dir / "violations.jsonl") == []

        report_dir = tmp_path / "report"
        assert run(["analyze", "--trace", str(trace), "--out", str(report_dir)]) == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert "sw-benign" in report
        assert (report_dir / "cdf_pushes_per_hour.csv").exists()

    def test_enforce_fail_on_violation(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        run(["gen", "--scenario", "notification_hider", "--seed", "1",
             "--param", "duration_ms=300000", "--out", str(trace)])
        out_dir = tmp_path / "out"
        assert run(["enforce", "--trace", str(trace), "--out", str(out_dir)]) == 0
        assert run(["enforce", "--trace", str(trace), "--out", str(out_dir),
                    "--fail-on-violation"]) == 1
        rows = [json.loads(line) for line in lines(out_dir / "violations.jsonl")]
        assert all(row["policy"] == "notif_min_visible" for row in rows)

    def test_simulate_outputs_partition(self, tmp_path):
        out_dir = tmp_path / "sim"
        assert run(["simulate", "--scenario", "ddos", "--seed", "2",
                    "--param", "req_per_s=10", "--param", "burst_minutes=1",
                    "--profile", "chrome", "--out", str(out_dir)]) == 0
        delivered = read_trace(str(out_dir / "delivered.jsonl"))
        suppressed = read_trace(str(out_dir / "suppressed.jsonl"))
        assert len(delivered) + len(suppressed) == 600 + 4
        states = json.loads((out_dir / "final_states.json").read_text())
        assert states == {"sw-ddos": "terminated"}

    def test_policy_file_and_env_default(self, tmp_path, monkeypatch):
        policy_file = tmp_path / "p.json"
        policy_file.write_text(
            '[{"name":"push_per_hour","severity":"low","threshold":2,'
            '"duration_in_minutes":60}]'
        )
        trace = tmp_path / "t.jsonl"
        run(["gen", "--scenario", "push_flood", "--seed", "5",
             "--param", "pushes_per_hour=5", "--param", "duration_ms=3600000",
             "--out", str(trace)])
        out_dir = tmp_path / "o1"
        assert run(["enforce", "--trace", str(trace), "--policies", str(policy_file),
                    "--out", str(out_dir), "--fail-on-violation"]) == 1

        monkeypatch.setenv("SW_SENTINEL_CONFIG", str(policy_file))
        out_dir2 = tmp_path / "o2"
        assert run(["enforce", "--trace", str(trace), "--out", str(out_dir2),
                    "--fail-on-violation"]) == 1
        assert lines(out_dir / "violations.jsonl") == lines(out_dir2 / "violations.jsonl")

    def test_bad_config_exits_two_after_the_shipped_defaults_are_loaded(
            self, tmp_path, monkeypatch, capsys):
        """The shipped defaults are parsed once per process; an explicit
        config is read and checked on every run."""
        trace, bad = tmp_path / "t.jsonl", tmp_path / "bad.json"
        assert run(["gen", "--scenario", "benign", "--out", str(trace)]) == 0
        bad.write_text('[{"name":"push_per_hour","severity":"low","threshold":0,'
                       '"duration_in_minutes":60}]')
        enforce = ["enforce", "--trace", str(trace), "--out", str(tmp_path / "o")]
        assert run(enforce) == 0
        assert run(enforce + ["--policies", str(bad)]) == 2
        monkeypatch.setenv("SW_SENTINEL_CONFIG", str(bad))
        assert run(enforce) == 2
        assert capsys.readouterr().err.count("error: invalid policy config") == 2

    def test_missing_trace_exits_two(self, tmp_path):
        assert run(["enforce", "--trace", str(tmp_path / "absent.jsonl"),
                    "--out", str(tmp_path)]) == 2

    def test_enforce_and_analyze_byte_identical_across_runs(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        run(["gen", "--scenario", "push_flood", "--seed", "6",
             "--param", "pushes_per_hour=30", "--param", "duration_ms=7200000",
             "--out", str(trace)])
        outs = []
        for tag in ("x", "y"):
            enf = tmp_path / f"enf-{tag}"
            rep = tmp_path / f"rep-{tag}"
            assert run(["enforce", "--trace", str(trace), "--out", str(enf)]) == 0
            assert run(["analyze", "--trace", str(trace), "--out", str(rep)]) == 0
            outs.append((
                (enf / "violations.jsonl").read_bytes(),
                (enf / "actions.jsonl").read_bytes(),
                (rep / "report.json").read_bytes(),
                (rep / "cdf_pushes_per_hour.csv").read_bytes(),
            ))
        assert outs[0] == outs[1]

    def test_failed_cdf_write_leaves_previous_file_whole(self, tmp_path, monkeypatch):
        trace, rep = tmp_path / "t.jsonl", tmp_path / "rep"
        assert run(["gen", "--scenario", "benign", "--out", str(trace)]) == 0
        assert run(["analyze", "--trace", str(trace), "--out", str(rep)]) == 0
        before = {path.name: path.read_bytes() for path in rep.iterdir()}
        real_writer = csv.writer

        class FailingWriter:
            """Writes the header row, then fails as a full disk would."""

            def __init__(self, fh):
                self._writer = real_writer(fh)

            def writerow(self, row):
                self._writer.writerow(row)
                raise OSError("disk full")

        monkeypatch.setattr(csv, "writer", FailingWriter)
        with pytest.raises(OSError):
            run(["analyze", "--trace", str(trace), "--out", str(rep)])
        assert {path.name: path.read_bytes() for path in rep.iterdir()} == before


@pytest.fixture
def collector_state():
    """Gives the collector back to later tests in the state this one found."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """``run`` pauses the cyclic garbage collector for the span of one
    command and restores the caller's state however the command ends."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("ending", ["exit_0", "exit_2", "usage_error", "unexpected"])
    def test_restores_the_callers_state(self, tmp_path, monkeypatch, collector_state,
                                        enabled, ending):
        during = []

        def fake_generate(scenario):
            during.append(gc.isenabled())
            if ending == "exit_2":
                raise ValueError("bad param")  # a CliError in _generate
            if ending == "unexpected":
                raise RuntimeError("boom")
            return []

        monkeypatch.setattr(cli, "generate", fake_generate)
        scenario = "nope" if ending == "usage_error" else "benign"
        argv = ["gen", "--scenario", scenario, "--out", str(tmp_path / "t.jsonl")]
        (gc.enable if enabled else gc.disable)()
        if ending == "usage_error":
            with pytest.raises(SystemExit) as err:
                run(argv)
            assert err.value.code == 2
        elif ending == "unexpected":
            with pytest.raises(RuntimeError):
                run(argv)
        else:
            assert run(argv) == (0 if ending == "exit_0" else 2)
        assert gc.isenabled() is enabled
        assert during == ([] if ending == "usage_error" else [False])

    @pytest.mark.parametrize("command", ["gen", "enforce", "analyze", "simulate"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path, collector_state,
                                                         command):
        """The pause is safe because a command's records hold no cycles:
        what the collector finds after a command on a 1-minute and on a
        10-minute flood is the same."""
        def params(minutes):
            return ["--scenario", "ddos", "--param", "req_per_s=50",
                    "--param", f"burst_minutes={minutes}"]

        def argv(minutes):
            trace, out = str(tmp_path / f"{minutes}.jsonl"), str(tmp_path / f"out-{minutes}")
            return {"gen": ["gen", *params(minutes), "--out", out],
                    "enforce": ["enforce", "--trace", trace, "--out", out],
                    "analyze": ["analyze", "--trace", trace, "--out", out],
                    "simulate": ["simulate", *params(minutes), "--out", out]}[command]

        for minutes in (1, 10):  # the traces enforce and analyze read
            assert run(["gen", *params(minutes), "--out", str(tmp_path / f"{minutes}.jsonl")]) == 0
        found = []
        for minutes in (1, 10):
            gc.collect()
            gc.disable()
            assert run(argv(minutes)) == 0
            found.append(gc.collect())
        assert found[0] == found[1], found


def write_lines(path, objs):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))


def fetch_trace(*kinds):
    return [{"ts": 1_000 * i, "kind": kind, "origin": "https://a.example",
             "sw_id": "sw-1", "scope": "/"} for i, kind in enumerate(kinds)]


class TestBracketedTraces:
    # A recorded terminate, or a later wake, leaves the open bracket open.
    @pytest.mark.parametrize("kinds", [
        ("register", "fetch_event_start", "terminate", "fetch_event_end"),
        ("register", "fetch_event_start", "terminate", "fetch_event_start",
         "fetch_event_end", "fetch_event_end"),
    ], ids=["terminate", "terminate_then_wake"])
    def test_enforce_accepts_what_analyze_accepts(self, tmp_path, kinds):
        trace = tmp_path / "t.jsonl"
        write_lines(trace, fetch_trace(*kinds))
        assert run(["analyze", "--trace", str(trace), "--out", str(tmp_path / "rep")]) == 0
        assert run(["enforce", "--trace", str(trace), "--out", str(tmp_path / "enf"),
                    "--fail-on-violation"]) == 0

    def test_end_without_start_is_an_input_error(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        write_lines(trace, fetch_trace("register", "fetch_event_start", "fetch_event_end",
                                       "fetch_event_end"))
        for command in ("enforce", "analyze"):
            assert run([command, "--trace", str(trace), "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid trace") and "fetch_event_end" in err


class TestHostileFields:
    """A bad origin port, scope, capability list, fetch URL, notification tag
    or header type is a malformed line: both trace readers exit 2 with an
    ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("fields", [
        {"origin": "https://a.example:99999"},
        {"origin": "https://a.example:x"},
        {"scope": "nope"},
        {"capabilities": ["telepathy"]},
        {"capabilities": "push"},
        {"kind": "fetch_request", "url": "https://[x/a", "initiator_is_sw": True},
        {"kind": "notification_show", "notif_id": "n1", "title": "t", "tag": ["x"]},
        {"sw_id": ["x"]},
    ], ids=["port_range", "port_text", "scope", "cap_unknown", "cap_string",
            "fetch_url_brackets", "tag_list", "sw_id_list"])
    def test_enforce_and_analyze_exit_two(self, tmp_path, capsys, fields):
        trace = tmp_path / "t.jsonl"
        objs = fetch_trace("register", "install", "activate")
        objs[1].update(fields)
        write_lines(trace, objs)
        for command in ("enforce", "analyze"):
            assert run([command, "--trace", str(trace), "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid trace") and "line 2" in err

    @pytest.mark.parametrize("where", ["first_ts", "remembered_ts", "version"])
    def test_integers_past_the_digit_limit_exit_two(self, tmp_path, capsys, where):
        """CPython will not convert an integer of more than 4,300 digits; a
        trace line holding one is malformed, on the line the reader decodes
        and on one whose body it remembered."""
        huge = "9" * 5_000
        sync = ',"kind":"sync","origin":"https://a.example","sw_id":"sw-1","scope":"/"}'
        found = ',"kind":"update_found","origin":"https://a.example","version":'
        lines, bad_line = {
            "first_ts": (['{"ts":' + huge + sync], 1),
            "remembered_ts": (['{"ts":1' + sync, '{"ts":2' + sync, '{"ts":' + huge + sync], 3),
            "version": (['{"ts":1' + sync, '{"ts":2' + found + huge + "}"], 2),
        }[where]
        trace = tmp_path / "t.jsonl"
        trace.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        for command in ("enforce", "analyze"):
            assert run([command, "--trace", str(trace), "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid trace") and f"line {bad_line}:" in err
            assert "4300 digits" in err


POLICY = {"name": "push_per_hour", "severity": "low", "threshold": 2,
          "duration_in_minutes": 60}
EXEC = {"name": "exec_per_activation", "severity": "medium", "threshold": 5,
        "duration_in_minutes": 0}
DAY = {"name": "exec_per_day", "severity": "medium", "threshold": 90,
       "duration_in_minutes": 1440}


class TestHostileArguments:
    """A malformed policy, metadata or corpus file, or generator parameter, is
    a usage error: exit 2 with an ``error:`` line, never a traceback and
    exit 1."""

    # The option each command reads the row's file through.
    FILE_FLAG = {"analyze": "--meta", "csp-audit": "--corpus"}

    @pytest.mark.parametrize("argv,file_text", [
        (["enforce"], json.dumps([{**POLICY, "threshold": 0}])),
        (["enforce"], json.dumps([{**POLICY, "severity": "dire"}])),
        (["enforce"], json.dumps({"policies": [POLICY],
                                  "deregister_engagement_threshold": "x"})),
        (["enforce"], json.dumps({"policies": 5})),
        (["enforce"], json.dumps({"policies": [POLICY], "allow_list": 7})),
        (["enforce"], "[5]"),
        (["enforce"], "not json"),
        (["enforce"], json.dumps([{**EXEC, "threshold": math.inf}])),
        (["enforce"], json.dumps([{**DAY, "threshold": math.nan}])),
        (["enforce"], json.dumps([{**EXEC, "threshold": 1e308}])),
        (["enforce"], json.dumps([{**DAY, "duration_in_minutes": 60}])),
        (["enforce"], json.dumps([{**POLICY, "threshold": math.nan}])),
        (["enforce"], json.dumps({"policies": [POLICY],
                                  "deregister_engagement_threshold": math.nan})),
        (["simulate", "--scenario", "benign"], json.dumps([{**DAY, "threshold": math.inf}])),
        (["simulate", "--scenario", "benign"], json.dumps([{**EXEC, "threshold": math.nan}])),
        (["simulate", "--scenario", "benign"], json.dumps([{**DAY, "threshold": 1e308}])),
        (["simulate", "--scenario", "benign"], "[5]"),
        (["simulate", "--scenario", "push_flood", "--param", "pushes_per_hour=20",
          "--param", "bogus=3"], None),
        (["simulate", "--scenario", "ddos", "--param", "req_per_s=5"], None),
        (["simulate", "--scenario", "ddos", "--param", "req_per_s=-1",
          "--param", "burst_minutes=1"], None),
        (["gen", "--scenario", "ddos", "--param", "req_per_s=-1",
          "--param", "burst_minutes=1"], None),
        (["gen", "--scenario", "benign", "--param", "bogus=1"], None),
        (["analyze"], "[1]"),
        (["analyze"], json.dumps({"sw-1": {"import_domains": 5}})),
        (["analyze"], json.dumps({"sw-1": 3})),
        (["csp-audit"], "[1]\n"),
        (["csp-audit"], json.dumps({"url": "https://a.example", "headers": 5}) + "\n"),
        (["analyze"], '{"sw-1": {"rank": ' + "9" * 5_000 + "}}"),
        (["csp-audit"], '{"url": "https://a.example", "rank": ' + "9" * 5_000 + "}\n"),
        (["gen", "--scenario", "webbot", "--param", "duration_ms=6e5"], None),
        (["simulate", "--scenario", "push_flood", "--param", "pushes_per_hour=20",
          "--param", "duration_ms=3.6e6"], None),
        (["gen", "--scenario", "benign", "--param", "duration_ms=true"], None),
        (["gen", "--scenario", "push_flood", "--param", "pushes_per_hour=20",
          "--param", "renew_after=0"], None),
        (["simulate", "--scenario", "push_flood", "--param", "pushes_per_hour=20",
          "--param", "renew_after=0"], None),
        (["gen", "--scenario", "benign", "--param", "push_rate=2.7",
          "--param", "duration_ms=3600000"], None),
        (["gen", "--scenario", "benign", "--param", "fetches_per_activation=1.5",
          "--param", "duration_ms=3600000"], None),
        (["gen", "--scenario", "push_flood", "--param", "pushes_per_hour=true"], None),
        (["simulate", "--scenario", "push_flood", "--param", "pushes_per_hour=5",
          "--param", "silent=x"], None),
        (["gen", "--scenario", "benign", "--param", "exec_min_per_day=1e308"], None),
        (["simulate", "--scenario", "benign", "--param", "exec_min_per_day=1e308"], None),
        (["gen", "--scenario", "benign", "--param", "duration_ms=31708800000"], None),
        (["simulate", "--scenario", "benign", "--param", "duration_ms=31708800000"], None),
    ], ids=["threshold_zero", "severity", "engagement_text", "policies_number",
            "allow_list_number", "spec_number", "not_json", "threshold_infinity",
            "threshold_nan", "threshold_1e308", "day_window_60", "threshold_nan_counting",
            "engagement_nan",
            "simulate_threshold_infinity", "simulate_threshold_nan", "simulate_threshold_1e308",
            "simulate_policies", "simulate_unknown_param", "simulate_missing_param",
            "simulate_negative_param", "gen_negative_param", "gen_benign_unknown_param",
            "meta_list", "meta_import_domains_number", "meta_value_number",
            "corpus_line_list", "corpus_headers_number", "meta_int_past_digit_limit",
            "corpus_int_past_digit_limit", "gen_float_duration", "simulate_float_duration",
            "gen_bool_duration", "gen_renew_after_zero", "simulate_renew_after_zero",
            "gen_benign_float_push_rate", "gen_benign_float_fetches", "gen_bool_pushes_per_hour",
            "simulate_text_silent", "gen_exec_min_per_day_1e308",
            "simulate_exec_min_per_day_1e308", "gen_span_367_days", "simulate_span_367_days"])
    def test_exits_two_with_an_error_line(self, tmp_path, capsys, argv, file_text):
        if argv[0] in ("enforce", "analyze"):
            trace = tmp_path / "t.jsonl"
            write_lines(trace, fetch_trace("register", "install", "activate"))
            argv = argv + ["--trace", str(trace)]
        if file_text is not None:
            path = tmp_path / "input.json"
            path.write_text(file_text)
            argv = argv + [self.FILE_FLAG.get(argv[0], "--policies"), str(path)]
        out = tmp_path / ("out.jsonl" if argv[0] == "gen" else "out")
        if argv[0] != "csp-audit":
            argv = argv + ["--out", str(out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1  # one error line
        if argv[0] == "csp-audit":
            assert f"{path}:1: " in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["enforce", "simulate"])
    @pytest.mark.parametrize("config", ["directory", "not_utf8"])
    def test_an_unreadable_config_exits_two(self, tmp_path, capsys, command, config):
        path = tmp_path / "config"
        if config == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'[{"name": "\xff"}]')
        argv = [command, "--policies", str(path), "--out", str(tmp_path / "out")]
        if command == "enforce":
            trace = tmp_path / "t.jsonl"
            write_lines(trace, fetch_trace("register", "install", "activate"))
            argv += ["--trace", str(trace)]
        else:
            argv += ["--scenario", "benign"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read policy config {path}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,param", [
        ("gen", "pushes_per_hour=true"), ("simulate", "silent=x"), ("gen", "silent=1"),
        ("gen", "exec_min_per_day=1e308"), ("gen", "exec_min_per_day=true"),
        ("gen", "duration_ms=6e5"), ("simulate", "duration_ms=3.6e6"),
        ("gen", "renew_after=x"),
    ])
    def test_a_param_of_the_wrong_type_or_range_is_named(self, tmp_path, capsys, command,
                                                          param):
        """Each ``--param`` reads as the type its generator declares; text that
        does not read as one is refused with the parameter's name."""
        scenario = "benign" if param.startswith("exec_min") else "push_flood"
        argv = [command, "--scenario", scenario, "--param", param, "--out", str(tmp_path / "o")]
        if scenario == "push_flood" and not param.startswith("pushes_per_hour"):
            argv += ["--param", "pushes_per_hour=5"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot generate scenario: parameter {param.split('=')[0]} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target,reason", [
        ("5", "fetch_request: 'url' must carry scheme and host"),
        ("x", "fetch_request: 'url' must carry scheme and host"),
    ], ids=["number", "no_scheme"])
    def test_gen_ddos_refuses_a_target_the_reader_rejects(self, tmp_path, capsys, target,
                                                           reason):
        """``gen`` writes no ddos trace that ``enforce`` and ``analyze`` would
        reject: the reader's own message, one error line, exit 2."""
        out = tmp_path / "t.jsonl"
        assert run(["gen", "--scenario", "ddos", "--param", "req_per_s=1",
                    "--param", "burst_minutes=1", "--param", f"target={target}",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot generate scenario: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["enforce", "analyze"])
    def test_a_trace_past_the_span_bound_exits_two(self, tmp_path, capsys, command):
        """A push at ts 0 and a terminate at ts 1e17, 1.16e12 days later: both
        commands do work per day of a trace, so the reader refuses it."""
        trace = tmp_path / "t.jsonl"
        write_lines(trace, [
            {"ts": 0, "kind": "push", "origin": "https://a.example", "sw_id": "s1",
             "scope": "/", "push_id": "p"},
            {"ts": 10**17, "kind": "terminate", "origin": "https://a.example", "sw_id": "s1",
             "scope": "/"},
        ])
        out = tmp_path / "out"
        assert run([command, "--trace", str(trace), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid trace {trace}: ts 100000000000000000 is more than "
            f"{MAX_TRACE_SPAN_MS} ms (366 days) after the first ts 0\n")
        assert not out.exists()

    def test_a_generated_trace_past_the_span_bound_names_it(self, tmp_path, capsys):
        """``gen`` and ``simulate`` refuse the span the reader would refuse,
        however the generator's parameters reach it."""
        out = tmp_path / "out.jsonl"
        assert run(["gen", "--scenario", "benign", "--param", "duration_ms=31708800000",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot generate scenario: ts ")
        assert err.endswith(f"{MAX_TRACE_SPAN_MS} ms (366 days) after the first ts 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "simulate"])
    @pytest.mark.parametrize("scenario,params,named", [
        ("tag_reuser", ["n_pushes=100000000"], "n_pushes"),
        ("ddos", ["req_per_s=100000", "burst_minutes=1000"], "req_per_s, burst_minutes"),
        ("push_flood", ["pushes_per_hour=100000000"], "pushes_per_hour, duration_ms"),
        ("tracking_library", ["page_visits=100000000"], "page_visits"),
        ("benign", ["push_rate=100000000"], "push_rate, fetches_per_activation, duration_ms"),
        ("webbot", ["duration_ms=31622400000"], "duration_ms"),
    ], ids=["n_pushes", "req_per_s_x_burst_minutes", "pushes_per_hour", "page_visits",
            "push_rate", "duration_ms"])
    def test_a_count_past_the_bound_exits_two_before_generating(
            self, tmp_path, capsys, monkeypatch, command, scenario, params, named):
        """``gen`` and ``simulate`` refuse parameters that would make more than
        ``scenarios.MAX_EVENTS`` events, naming them, before the generator runs."""
        def generator_ran(*_args, **_kwargs):
            raise AssertionError("the generator ran")

        monkeypatch.setitem(scenarios.GENERATORS, scenario, generator_ran)
        out = tmp_path / "out"
        argv = [command, "--scenario", scenario, "--out", str(out)]
        for param in params:
            argv += ["--param", param]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot generate scenario: too many events: ")
        assert err.endswith(f" from {named}, more than {scenarios.MAX_EVENTS}\n")
        assert not out.exists()


    @pytest.mark.parametrize("command,flag", [
        ("analyze", "--meta"), ("csp-audit", "--corpus"),
        ("enforce", "--trace"), ("analyze", "--trace"),
    ], ids=["analyze", "csp-audit", "enforce_trace", "analyze_trace"])
    def test_undecodable_input_file_exits_two(self, tmp_path, capsys, command, flag):
        path = tmp_path / "input.json"
        if flag == "--trace":  # a one-line trace with byte 0xff in its sw_id
            path.write_bytes(b'{"ts":0,"kind":"register","origin":"https://a.example",'
                             b'"sw_id":"sw-\xff","scope":"/"}\n')
        else:
            path.write_bytes(b'{"url": "\xff"}\n')
        argv = [command, flag, str(path)]
        if flag == "--meta":
            trace = tmp_path / "t.jsonl"
            write_lines(trace, fetch_trace("register", "install", "activate"))
            argv += ["--trace", str(trace)]
        if command != "csp-audit":
            argv += ["--out", str(tmp_path / "out")]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        if flag == "--trace":
            assert captured.err.startswith(f"error: cannot read trace {path}: ")
            assert len(captured.err.splitlines()) == 1


class TestUnwritableOutput:
    """An output path that cannot be written is an IO error: exit 2 with one
    ``error: cannot write`` line, and no temporary file is left behind."""

    # The output each command writes whose name a directory takes.
    FIRST_OUTPUT = {"simulate": "delivered.jsonl", "enforce": "violations.jsonl",
                    "analyze": "report.json"}

    @pytest.mark.parametrize("blocker", ["file_as_directory", "directory_as_file"])
    @pytest.mark.parametrize("command", ["gen", "simulate", "enforce", "analyze"])
    def test_exits_two_and_leaves_no_temporary_file(self, tmp_path, capsys, command, blocker):
        trace = tmp_path / "t.jsonl"
        write_lines(trace, fetch_trace("register", "install", "activate"))
        argv = {"gen": ["gen", "--scenario", "benign"],
                "simulate": ["simulate", "--scenario", "benign"],
                "enforce": ["enforce", "--trace", str(trace)],
                "analyze": ["analyze", "--trace", str(trace)]}[command]
        work = tmp_path / "work"
        work.mkdir()
        if blocker == "file_as_directory":
            # --out, or the directory gen writes into, is a regular file.
            (work / "file").write_text("kept\n")
            out = work / "file" / "t.jsonl" if command == "gen" else work / "file"
        else:
            # A directory holds the name of the file to write.
            out = work / "t.jsonl" if command == "gen" else work / "out"
            (out if command == "gen" else out / self.FIRST_OUTPUT[command]).mkdir(parents=True)
        assert run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert not list(tmp_path.rglob(".sw-sentinel-*"))
        if blocker == "file_as_directory":
            assert (work / "file").read_text() == "kept\n"


class TestStreamingWriter:
    """Outputs go to disk in bounded chunks through one atomic writer: no
    write holds more than ``cli._CHUNK`` rows, the bytes are those of the
    whole output written at once, and a failure midway leaves no trace."""

    DDOS = ["--scenario", "ddos", "--param", "req_per_s=50", "--param", "burst_minutes=10"]

    def test_no_write_holds_more_than_a_chunk_of_rows(self, tmp_path, monkeypatch):
        trace, out = tmp_path / "t.jsonl", tmp_path / "enf"
        writes = []
        real_write = os.write

        def write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write)
        assert run(["gen", *self.DDOS, "--out", str(trace)]) == 0
        trace_writes = writes[:]
        assert run(["enforce", "--trace", str(trace), "--out", str(out)]) == 0
        monkeypatch.undo()
        assert cli._CHUNK == 1024
        assert max(data.count(b"\n") for data in writes) <= cli._CHUNK
        events = generate(Scenario(name="ddos", seed=0,
                                   params={"req_per_s": 50, "burst_minutes": 10}))
        text = "".join(line + "\n" for line in emit_trace(events))
        assert b"".join(trace_writes) == trace.read_bytes() == text.encode("utf-8")
        assert len(trace_writes) > len(events) // cli._CHUNK
        actions = PolicyEngine(load_policies(None), "chrome", mode="enforce").run(
            read_trace(str(trace))).actions
        assert len(actions) > 10 * cli._CHUNK
        assert (out / "actions.jsonl").read_text("utf-8") == cli._action_rows(actions)

    def test_a_failing_producer_leaves_the_target_as_it_was(self, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_bytes(b"kept\n")

        class Stop(Exception):
            pass

        stop = Stop("producer failed")

        def chunks():
            yield "first\n" * 10
            raise stop

        with pytest.raises(Stop) as err:
            cli._write_text(str(target), chunks())
        assert err.value is stop
        assert target.read_bytes() == b"kept\n"
        assert not list(tmp_path.rglob(".sw-sentinel-*"))

    def test_a_failing_write_exits_two(self, tmp_path, capsys, monkeypatch):
        def full(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full)
        out = tmp_path / "t.jsonl"
        assert run(["gen", "--scenario", "benign", "--out", str(out)]) == 2
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert "No space left on device" in captured.err
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert not out.exists() and not list(tmp_path.rglob(".sw-sentinel-*"))


class TestCspCommands:
    def test_check_denies_third_party_with_exit_one(self, capsys):
        code = run(["csp-check", "--header", "script-src 'self'",
                    "--origin", "https://a.example",
                    "--import", "https://evil.example/x.js"])
        assert code == 1
        assert "deny" in capsys.readouterr().out

    def test_check_allows_authorized_imports_but_eval_denied(self, capsys):
        code = run(["csp-check", "--header", "script-src 'self' https://cdn.example",
                    "--origin", "https://a.example",
                    "--import", "https://a.example/own.js",
                    "--import", "https://cdn.example/sdk.js"])
        assert code == 1  # eval denied without 'unsafe-eval'
        out = capsys.readouterr().out
        assert out.count("allow") == 2

    def test_check_enforces_every_policy_of_a_comma_joined_header(self, capsys):
        """The later policy does not widen the first: the import is denied,
        and no source is read as malformed."""
        code = run(["csp-check", "--header", "script-src 'self', script-src https://cdn.example",
                    "--origin", "https://a.example", "--import", "https://cdn.example/lib/x.js"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == ("import https://cdn.example/lib/x.js: deny "
                                                "(script-src has no source allowing "
                                                "https://cdn.example/lib/x.js)")
        assert captured.err == ""

    def test_check_all_allowed_exits_zero(self):
        code = run(["csp-check",
                    "--header", "script-src 'self' 'unsafe-eval'",
                    "--origin", "https://a.example",
                    "--import", "https://a.example/own.js"])
        assert code == 0

    def test_check_without_header_uses_fail_safe_default(self, capsys):
        code = run(["csp-check", "--origin", "https://a.example",
                    "--import", "https://a.example/fine.js",
                    "--import", "https://third.example/bad.js"])
        assert code == 1
        out = capsys.readouterr().out
        assert "fine.js: allow" in out and "bad.js: deny" in out

    @pytest.mark.parametrize("header,code", [
        ("script-src https://app.example", 1),
        ("script-src https://app.example 'unsafe-eval'", 0),
    ], ids=["eval_denied", "eval_allowed"])
    def test_check_resolves_a_path_only_import_against_the_origin(self, capsys, header, code):
        """A host source allows ``/lib.js`` from its own origin as it allows the
        absolute URL; only the eval verdict sets the exit code."""
        assert run(["csp-check", "--header", header, "--origin", "https://app.example",
                    "--import", "/lib.js", "--import", "https://app.example/lib.js"]) == code
        assert capsys.readouterr().out.splitlines()[:2] == [
            "import /lib.js: allow (https://app.example)",
            "import https://app.example/lib.js: allow (https://app.example)"]

    def test_self_allows_a_same_origin_import_at_an_ipv6_origin(self, capsys):
        assert run(["csp-check", "--origin", "https://[::1]:8443",
                    "--import", "/lib.js", "--import", "https://[::1]/lib.js"]) == 1
        assert capsys.readouterr().out.splitlines()[:2] == [
            "import /lib.js: allow ('self')",
            "import https://[::1]/lib.js: deny (script-src has no source allowing "
            "https://[::1]/lib.js)"]

    @pytest.mark.parametrize("import_url,status", [
        ("data:text/javascript,alert(1)", "deny"),
        ("blob:https://evil.example/x", "deny"),
        ("javascript:alert(1)", "deny"),
        ("/lib.js", "allow"),
        ("//a.example/x.js", "allow"),
    ], ids=["data", "blob", "javascript", "path_only", "scheme_relative"])
    def test_self_allows_only_an_import_that_resolves_to_the_origin(self, capsys, import_url,
                                                                     status):
        """An import resolves against the worker's origin; one with no host
        there, as a ``data:``, ``blob:`` or ``javascript:`` URL, is not 'self'."""
        run(["csp-check", "--header", "script-src 'self'", "--origin", "https://a.example",
             "--import", import_url])
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith(f"import {import_url}: {status} (")

    @pytest.mark.parametrize("origin,import_url", [
        ("https://a.example", "https://b.example:99999/x.js"),
        ("nope", "https://a.example/x.js"),
        ("https://a.example", "https://[x/a"),
    ], ids=["import_port_range", "origin", "import_brackets"])
    def test_check_unparsable_input_exits_two(self, capsys, origin, import_url):
        code = run(["csp-check", "--origin", origin, "--import", import_url])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_audit_counts(self, tmp_path, capsys):
        corpus = tmp_path / "headers.jsonl"
        rows = []
        for i in range(50):
            headers = {"Service-Worker": "script"}
            if i < 4:
                headers["Content-Security-Policy"] = (
                    "script-src 'self'" if i < 2 else "default-src 'self'"
                )
            rows.append(json.dumps(
                {"url": f"https://s{i}.example/sw.js", "headers": headers}
            ))
        corpus.write_text("\n".join(rows) + "\n")
        assert run(["csp-audit", "--corpus", str(corpus)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["total"], summary["with_csp"], summary["with_script_src"]) == (50, 4, 2)

    def test_audit_skips_blank_lines(self, tmp_path, capsys):
        row = json.dumps({"url": "https://s.example/sw.js",
                          "headers": {"Service-Worker": "script"}})
        corpus = tmp_path / "headers.jsonl"
        corpus.write_text(f"\n{row}\n  \n\n{row}\n")
        assert run(["csp-audit", "--corpus", str(corpus)]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 2

    def test_audit_missing_file_exits_two(self, tmp_path):
        assert run(["csp-audit", "--corpus", str(tmp_path / "none.jsonl")]) == 2


class TestDownstreamCompatibility:
    def test_every_gen_output_feeds_enforce_and_analyze(self, tmp_path):
        cases = [
            ("webbot", ["--param", "duration_ms=300000"]),
            ("push_flood", ["--param", "pushes_per_hour=5",
                            "--param", "duration_ms=3600000"]),
            ("ddos", ["--param", "req_per_s=2", "--param", "burst_minutes=1"]),
            ("notification_hider", ["--param", "duration_ms=120000"]),
            ("tag_reuser", ["--param", "n_pushes=3"]),
            ("tracking_library", ["--param", "page_visits=3"]),
            ("benign", []),
        ]
        for name, params in cases:
            trace = tmp_path / f"{name}.jsonl"
            assert run(["gen", "--scenario", name, "--out", str(trace)] + params) == 0
            assert run(["enforce", "--trace", str(trace),
                        "--out", str(tmp_path / f"{name}-enf")]) == 0
            assert run(["analyze", "--trace", str(trace),
                        "--out", str(tmp_path / f"{name}-rep")]) == 0


class TestRowWriter:
    """The JSONL outputs are written with fixed key order, byte for byte as
    json.dumps(row, sort_keys=True) writes each row."""

    VALUES = [0, -3, 2**70, 1.5, -0.0, 1e300, math.nan, math.inf, -math.inf, True,
              "", "plain", 'qu"ote\\', "tab\t", "caf\u00e9 \u2603 \U0001f600", None]

    def test_rows_match_json_dumps(self):
        rng = random.Random(3)
        texts = [value for value in self.VALUES if isinstance(value, str)]
        value, text = (lambda: rng.choice(self.VALUES)), (lambda: rng.choice(texts))
        actions = [ActionEntry(value(), value(), rng.choice(list(EnforcementAction)), text())
                   for _ in range(200)]
        violations = [ViolationRecord(text(), value(), value(), value(), value())
                      for _ in range(200)]
        notices = [Notice(value(), value(), text(), text()) for _ in range(200)]
        cases = [
            (cli._action_rows, actions, [{"ts": a.ts, "sw_id": a.sw_id,
                                          "action": a.action.value, "reason": a.reason}
                                         for a in actions]),
            (lambda rows: "".join(map(cli._violation_row, rows)), violations,
             [{"ts": v.ts, "sw_id": v.sw_id, "policy": v.policy_name, "observed": v.observed,
               "threshold": v.threshold} for v in violations]),
            (lambda rows: "".join(map(cli._notice_row, rows)), notices,
             [{"ts": n.ts, "sw_id": n.sw_id, "kind": n.kind, "detail": n.detail}
              for n in notices]),
        ]
        for write, records, objs in cases:
            assert write(records) == "".join(
                json.dumps(obj, sort_keys=True) + "\n" for obj in objs)
            assert write([]) == ""

    def test_action_rows_with_repeated_prefixes(self):
        """Action rows repeat all but their ts. A str or None sw_id may share
        the text before it; 1, True and 1.0 are equal keys with other texts,
        and a list is unhashable: each must still be written as json writes it."""
        throttle, terminate = EnforcementAction.THROTTLE_EVENT, EnforcementAction.TERMINATE_SW
        keys = [(throttle, "a", "sw-1"), (throttle, "a", None), (terminate, "a", "sw-1"),
                (throttle, "b", "sw-1"), (throttle, "a", "1"), (throttle, "a", 1),
                (throttle, "a", True), (throttle, "a", 1.0), (throttle, "a", ["sw-1"]),
                (throttle, "a", math.nan)]
        rng = random.Random(4)
        runs = [key for key in keys for _ in range(3)]
        for order in (keys * 3, [rng.choice(keys) for _ in range(500)], runs):
            actions = [ActionEntry(ts, sw_id, action, reason)
                       for ts, (action, reason, sw_id) in enumerate(order)]
            expected = "".join(
                json.dumps({"ts": a.ts, "sw_id": a.sw_id, "action": a.action.value,
                            "reason": a.reason}, sort_keys=True) + "\n" for a in actions)
            assert cli._action_rows(actions) == expected

    def test_action_rows_reuse_the_row_before_only_for_the_same_objects(self):
        """Runs of one (sw_id, action, reason), as a flood writes them,
        broken by another reason, another sw_id, a None sw_id, an equal
        reason that is another string object, and a bool or float ts."""
        throttle = EnforcementAction.THROTTLE_EVENT
        reason, other = "push_per_hour", "".join(["push_", "per_hour"])
        assert reason == other and reason is not other
        rows = [(0, "sw-1", reason), (1, "sw-1", reason), (2, "sw-1", "tag_reuse"),
                (3, "sw-1", reason), (4, "sw-2", reason), (5, "sw-2", reason),
                (6, None, reason), (7, None, reason), (8, "sw-1", reason), (9, "sw-1", other),
                (10, "sw-1", reason), (True, "sw-1", reason), (1.5, "sw-1", reason),
                (11, "sw-1", reason), (11.0, "sw-1", reason), (12, 1, reason),
                (13, True, reason), (14, True, reason), (15, "sw-1", reason)]
        actions = [ActionEntry(ts, sw_id, throttle, why) for ts, sw_id, why in rows]
        assert cli._action_rows(actions) == "".join(
            json.dumps({"ts": a.ts, "sw_id": a.sw_id, "action": a.action.value,
                        "reason": a.reason}, sort_keys=True) + "\n" for a in actions)
