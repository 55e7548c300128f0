import csv
import json
import math
import os
import random

import pytest

from sw_sentinel import cli
from sw_sentinel.cli import run
from sw_sentinel.policy import ActionEntry, EnforcementAction, Notice, ViolationRecord
from sw_sentinel.trace import read_trace


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
        (["csp-audit"], "[1]\n"),
        (["csp-audit"], json.dumps({"url": "https://a.example", "headers": 5}) + "\n"),
        (["analyze"], '{"sw-1": {"rank": ' + "9" * 5_000 + "}}"),
        (["csp-audit"], '{"url": "https://a.example", "rank": ' + "9" * 5_000 + "}\n"),
        (["gen", "--scenario", "webbot", "--param", "duration_ms=6e5"], None),
        (["simulate", "--scenario", "push_flood", "--param", "pushes_per_hour=20",
          "--param", "duration_ms=3.6e6"], None),
        (["gen", "--scenario", "benign", "--param", "duration_ms=true"], None),
    ], ids=["threshold_zero", "severity", "engagement_text", "policies_number",
            "allow_list_number", "spec_number", "not_json", "threshold_infinity",
            "threshold_nan", "threshold_1e308", "threshold_nan_counting", "engagement_nan",
            "simulate_threshold_infinity", "simulate_threshold_nan", "simulate_threshold_1e308",
            "simulate_policies", "simulate_unknown_param", "simulate_missing_param",
            "simulate_negative_param", "gen_negative_param", "gen_benign_unknown_param",
            "meta_list", "meta_import_domains_number",
            "corpus_line_list", "corpus_headers_number", "meta_int_past_digit_limit",
            "corpus_int_past_digit_limit", "gen_float_duration", "simulate_float_duration",
            "gen_bool_duration"])
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
        if argv[0] == "csp-audit":
            assert f"{path}:1: " in captured.err and captured.out == ""
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
            (cli._action_row, actions, [{"ts": a.ts, "sw_id": a.sw_id, "action": a.action.value,
                                         "reason": a.reason} for a in actions]),
            (cli._violation_row, violations, [{"ts": v.ts, "sw_id": v.sw_id,
                                               "policy": v.policy_name, "observed": v.observed,
                                               "threshold": v.threshold} for v in violations]),
            (cli._notice_row, notices, [{"ts": n.ts, "sw_id": n.sw_id, "kind": n.kind,
                                         "detail": n.detail} for n in notices]),
        ]
        for row, records, objs in cases:
            assert cli._jsonl(row, records) == "".join(
                json.dumps(obj, sort_keys=True) + "\n" for obj in objs)
            assert cli._jsonl(row, []) == ""

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
        for order in (keys * 3, [rng.choice(keys) for _ in range(500)]):
            actions = [ActionEntry(ts, sw_id, action, reason)
                       for ts, (action, reason, sw_id) in enumerate(order)]
            assert cli._jsonl(cli._action_row, actions) == "".join(
                json.dumps({"ts": a.ts, "sw_id": a.sw_id, "action": a.action.value,
                            "reason": a.reason}, sort_keys=True) + "\n" for a in actions)
