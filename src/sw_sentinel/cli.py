"""Command-line entry point: gen / simulate / enforce / analyze /
csp-check / csp-audit.

Exit codes: 0 success, 1 policy denial or violation found (csp-check,
enforce --fail-on-violation), 2 usage or IO errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
from functools import lru_cache
from typing import Any, Callable, Iterable, Optional

from . import csp as csp_mod
from . import forensics
from .model import ModelError, Origin, SwSentinelError
from .policy import (ActionEntry, Notice, PolicyConfig, PolicyConfigError, PolicyEngine, PROFILES,
                     ViolationRecord, load_policies)
from .scenarios import GENERATORS, Scenario, generate, simulate
from .trace import TraceError, TraceEvent, UnbalancedBrackets, emit_trace, read_trace

ENV_CONFIG = "SW_SENTINEL_CONFIG"


class CliError(SwSentinelError):
    """IO/validation failure reported as exit code 2."""


def _coerce(text: str) -> Any:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_params(pairs: Iterable[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"--param expects k=v, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key] = _coerce(value)
    return params


def _load_config(path: Optional[str]) -> PolicyConfig:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return load_policies(None)
    try:
        with open(path, encoding="utf-8") as fh:
            return load_policies(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read policy config {path}: {exc}") from exc
    except PolicyConfigError as exc:
        raise CliError(f"invalid policy config {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    """Write ``path`` atomically, with the mode open(path, "w") gives a file.
    A path that cannot be written is a CliError and leaves no temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".sw-sentinel-{os.urandom(8).hex()}")
    try:
        os.makedirs(directory, exist_ok=True)  # FileExistsError: a file holds the name
        fh = open(tmp, "x", encoding="utf-8")  # "x": never a file another writer made
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)  # IsADirectoryError: a directory holds the name
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_events(path: str, events) -> None:
    # The trailing "" ends the last line with a newline and leaves no text
    # for no events; the list is freed before the text is written.
    _write_text(path, "\n".join([*emit_trace(events), ""]))


# The JSONL outputs are written key by key in sorted order, in the text that
# json.dumps(row, sort_keys=True) gives, without a dict per row. Rule names,
# action values, notice kinds and details are always strings.
_json_str = json.encoder.encode_basestring_ascii
_VALUE_ENCODER = json.JSONEncoder()


def _json_text(value: Any) -> str:
    """json's text for a value: null for a missing sw_id, NaN/Infinity and
    float reprs for observed values and thresholds."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    return _VALUE_ENCODER.encode(value)


def _action_row(a: ActionEntry, prefixes: dict[tuple, str]) -> str:
    ts, sw_id, action, reason = a
    # A str or None sw_id only: 1 and True are equal keys with other texts.
    key = (action, reason, sw_id) if sw_id is None or type(sw_id) is str else None
    prefix = prefixes.get(key)
    if prefix is None:
        prefix = (f'{{"action": {_json_str(action.value)}, "reason": {_json_str(reason)}, '
                  f'"sw_id": {_json_text(sw_id)}, "ts": ')
        if key is not None:
            prefixes[key] = prefix
    return f"{prefix}{ts}}}\n" if type(ts) is int else prefix + _json_text(ts) + "}\n"


def _violation_row(v: ViolationRecord, prefixes: dict[tuple, str]) -> str:
    return (f'{{"observed": {_json_text(v.observed)}, "policy": {_json_str(v.policy_name)}, '
            f'"sw_id": {_json_text(v.sw_id)}, "threshold": {_json_text(v.threshold)}, '
            f'"ts": {_json_text(v.ts)}}}\n')


def _notice_row(n: Notice, prefixes: dict[tuple, str]) -> str:
    return (f'{{"detail": {_json_str(n.detail)}, "kind": {_json_str(n.kind)}, '
            f'"sw_id": {_json_text(n.sw_id)}, "ts": {_json_text(n.ts)}}}\n')


def _jsonl(row: Callable[[Any, dict], str], records: Iterable[Any]) -> str:
    """The rows of ``records``. The rows of one call share a dict in which a
    row writer may keep its text up to ``"ts": `` per distinct rest of a row:
    action rows do, as a flood repeats them; the few other rows are whole."""
    prefixes: dict[tuple, str] = {}
    return "".join([row(record, prefixes) for record in records])


def _generate(args: argparse.Namespace) -> list[TraceEvent]:
    """The one generation path of ``gen`` and ``simulate``."""
    params = _parse_params(args.param or [])
    duration = params.pop("duration_ms", None)
    try:
        return generate(Scenario(name=args.scenario, seed=args.seed, params=params,
                                 duration_ms=duration))
    except (KeyError, TypeError, ValueError) as exc:  # unknown, missing or bad params
        raise CliError(f"cannot generate scenario: {exc}") from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    events = _generate(args)
    _write_events(args.out, events)
    print(f"wrote {len(events)} events to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    events = _generate(args)
    result = simulate(events, _load_config(args.policies), args.profile)
    out = args.out
    _write_events(os.path.join(out, "delivered.jsonl"), result.delivered_events)
    _write_events(os.path.join(out, "suppressed.jsonl"), result.suppressed_events)
    _write_text(os.path.join(out, "actions.jsonl"), _jsonl(_action_row, result.actions))
    _write_text(os.path.join(out, "violations.jsonl"),
                _jsonl(_violation_row, result.violations))
    _write_text(os.path.join(out, "notices.jsonl"), _jsonl(_notice_row, result.notices))
    _write_text(
        os.path.join(out, "final_states.json"),
        json.dumps({sw: state.value for sw, state in result.final_states.items()},
                   sort_keys=True, indent=2) + "\n",
    )
    print(
        f"delivered {len(result.delivered_events)}, "
        f"suppressed {len(result.suppressed_events)}, "
        f"violations {len(result.violations)}"
    )
    return 0


def _read_trace_checked(path: str):
    try:
        return read_trace(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read trace {path}: {exc}") from exc
    except TraceError as exc:
        raise CliError(f"invalid trace {path}: {exc}") from exc


def _cmd_enforce(args: argparse.Namespace) -> int:
    events = _read_trace_checked(args.trace)
    config = _load_config(args.policies)
    try:
        result = PolicyEngine(config, args.profile, mode="enforce").run(events)
    except UnbalancedBrackets as exc:
        raise CliError(f"invalid trace {args.trace}: {exc}") from exc
    out = args.out
    _write_text(os.path.join(out, "violations.jsonl"),
                _jsonl(_violation_row, result.violations))
    _write_text(os.path.join(out, "actions.jsonl"), _jsonl(_action_row, result.actions))
    _write_text(os.path.join(out, "notices.jsonl"), _jsonl(_notice_row, result.notices))
    print(f"{len(result.violations)} violations, {len(result.actions)} actions")
    if args.fail_on_violation and result.violations:
        return 1
    return 0


def _check_metadata(path: str, metadata: Any) -> None:
    """Raise CliError unless ``metadata`` maps each sw_id to an object whose
    ``import_domains``, when present, is a list of strings."""
    if type(metadata) is not dict:
        raise CliError(f"invalid metadata {path}: expected an object keyed by sw_id")
    for sw_id, meta in metadata.items():
        if type(meta) is not dict:
            raise CliError(f"invalid metadata {path}: {sw_id!r} must map to an object")
        domains = meta.get("import_domains", [])
        if type(domains) is not list or not all(type(d) is str for d in domains):
            raise CliError(
                f"invalid metadata {path}: {sw_id!r}: 'import_domains' must be a list of strings"
            )


def _cmd_analyze(args: argparse.Namespace) -> int:
    events = _read_trace_checked(args.trace)
    metadata = {}
    if args.meta:
        try:
            with open(args.meta, encoding="utf-8") as fh:
                metadata = json.load(fh)
        except (OSError, ValueError) as exc:  # bad JSON or UTF-8, or a too long int
            raise CliError(f"cannot read metadata {args.meta}: {exc}") from exc
        _check_metadata(args.meta, metadata)
    try:
        reports = forensics.analyze_trace(events, metadata)
    except UnbalancedBrackets as exc:
        raise CliError(f"invalid trace {args.trace}: {exc}") from exc
    # Rows by field, as asdict writes them but without its deep copy of every list.
    names = [field.name for field in dataclasses.fields(forensics.BehaviorReport)]
    report_obj = {sw_id: {name: getattr(report, name) for name in names}
                  for sw_id, report in reports.items()}
    _write_text(os.path.join(args.out, "report.json"),
                json.dumps(report_obj, sort_keys=True, indent=2) + "\n")
    for metric, field_name in forensics._METRIC_FIELDS.items():
        values: list[float] = []
        for report in reports.values():
            values.extend(getattr(report, field_name))
        # csv ends rows with "\r\n"; a StringIO keeps them as written.
        text = io.StringIO()
        forensics.export_cdf(values, text)
        _write_text(os.path.join(args.out, f"cdf_{metric}.csv"), text.getvalue())
    print(f"analyzed {len(reports)} workers into {args.out}")
    return 0


def _cmd_csp_check(args: argparse.Namespace) -> int:
    policy = csp_mod.parse_csp(args.header) if args.header is not None else None
    try:
        origin = Origin.parse(args.origin)
        verdicts = [(url, csp_mod.check_import(policy, origin, url))
                    for url in args.imports or []]
    except (ModelError, ValueError) as exc:  # an unparsable origin or URL
        raise CliError(f"bad --origin or --import: {exc}") from exc
    denied = False
    for import_url, verdict in verdicts:
        status = "allow" if verdict.allowed else "deny"
        print(f"import {import_url}: {status} ({verdict.rule})")
        denied = denied or not verdict.allowed
    eval_verdict = csp_mod.check_eval(policy)
    print(f"eval: {'allow' if eval_verdict.allowed else 'deny'} ({eval_verdict.rule})")
    denied = denied or not eval_verdict.allowed
    return 1 if denied else 0


def _cmd_csp_audit(args: argparse.Namespace) -> int:
    corpus = []
    try:
        with open(args.corpus, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{args.corpus}:{line_no}"
                try:
                    obj = json.loads(line)
                except ValueError as exc:  # bad JSON, or an int past the digit limit
                    raise CliError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
                if type(obj) is not dict:
                    raise CliError(f"{where}: record is not an object")
                headers = obj.get("headers", {})
                if type(headers) is not dict or not all(
                        type(value) is str for value in headers.values()):
                    raise CliError(f"{where}: 'headers' must be an object of strings")
                corpus.append((obj.get("url", ""), headers))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read corpus {args.corpus}: {exc}") from exc
    summary = csp_mod.audit_headers(corpus)
    print(json.dumps(
        {
            "total": summary.total,
            "with_csp": summary.with_csp,
            "with_script_src": summary.with_script_src,
            "csp_fraction": summary.csp_fraction,
            "script_src_fraction": summary.script_src_fraction,
        },
        sort_keys=True,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sw-sentinel",
        description="Service worker abuse model: generate, enforce, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario trace")
    gen.add_argument("--scenario", required=True, choices=sorted(GENERATORS))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--param", action="append", metavar="K=V")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    sim = sub.add_parser("simulate", help="closed-loop scenario under policies")
    sim.add_argument("--scenario", required=True, choices=sorted(GENERATORS))
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--param", action="append", metavar="K=V")
    sim.add_argument("--policies", help=f"policy config (default ${ENV_CONFIG} or built-in)")
    sim.add_argument("--profile", default="chrome", choices=sorted(PROFILES))
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    enf = sub.add_parser("enforce", help="open-loop replay of a recorded trace")
    enf.add_argument("--trace", required=True)
    enf.add_argument("--policies")
    enf.add_argument("--profile", default="chrome", choices=sorted(PROFILES))
    enf.add_argument("--out", default=".", help="output directory")
    enf.add_argument("--fail-on-violation", action="store_true")
    enf.set_defaults(func=_cmd_enforce)

    ana = sub.add_parser("analyze", help="behavior aggregates and CDFs")
    ana.add_argument("--trace", required=True)
    ana.add_argument("--meta", help="sw_id -> {origin, rank, import_domains}")
    ana.add_argument("--out", required=True, help="output directory")
    ana.set_defaults(func=_cmd_analyze)

    chk = sub.add_parser("csp-check", help="verdicts for importScripts URLs")
    chk.add_argument("--header", help="CSP header value (omit for no header)")
    chk.add_argument("--origin", required=True)
    chk.add_argument("--import", dest="imports", action="append", metavar="URL")
    chk.set_defaults(func=_cmd_csp_check)

    aud = sub.add_parser("csp-audit", help="CSP adoption counts over a header corpus")
    aud.add_argument("--corpus", required=True)
    aud.set_defaults(func=_cmd_csp_audit)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``run`` in this process shares: parsing reads it and
    builds a fresh namespace, so one run's values cannot reach the next."""
    return build_parser()


def run(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
