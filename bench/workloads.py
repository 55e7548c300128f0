"""The benchmark's three workloads.

Each workload builds its inputs from a seed (the set-up), exposes the
chain of steps that the benchmark times, and checks every output the chain
wrote. A step is one operation: a ``sw-sentinel`` CLI invocation run
in-process through ``cli.run``, or one library call. Why each workload was
chosen is recorded in ``BENCHMARK.json`` and ``bench/DESIGN.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

HOUR_MS = 3_600_000
MINUTE_MS = 60_000

# Input sizes. "full" is what the benchmark measures; "tiny" keeps the same
# shape at a size small enough for the benchmark's own tests.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "ddos_single": {"req_per_s": 50, "burst_minutes": 10},
        "fleet_mixed": {"workers": 150, "duration_ms": 10 * MINUTE_MS},
        "closed_loop_sweep": {"scale": 3},
    },
    "tiny": {
        "ddos_single": {"req_per_s": 2, "burst_minutes": 2},
        "fleet_mixed": {"workers": 14, "duration_ms": 10 * MINUTE_MS},
        "closed_loop_sweep": {"scale": 1},
    },
}

PROFILES = ("chrome", "edge", "firefox", "opera", "safari")

# Rank bands the fleet's forensics summaries are grouped by.
RANK_BANDS = (
    ("top1k", 1, 1_000),
    ("1k-10k", 1_001, 10_000),
    ("10k-100k", 10_001, 100_000),
    ("100k-1m", 100_001, 1_000_000),
)


class Rng:
    """splitmix64, so that one seed gives the same inputs on every Python."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = (seed * 0x2545F4914F6CDD1D + 0x1234567) & self._MASK

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


# -- steps ------------------------------------------------------------------


@dataclass
class StepResult:
    rc: int = 0
    stdout: str = ""


@dataclass
class Step:
    """One timed operation and the check of what it wrote."""

    label: str
    run: Callable[[], StepResult]
    # Returns the problems found in the step's outputs ([] when correct).
    check: Callable[[StepResult], list[str]] = lambda result: []


def cli_step(pkg: SimpleNamespace, argv: list[str]) -> Callable[[], StepResult]:
    """Run ``sw-sentinel <argv>`` in this process, capturing what it prints."""

    def run() -> StepResult:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = pkg.cli.run(argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                rc = exc.code if isinstance(exc.code, int) else 2
        return StepResult(rc=rc, stdout=buf.getvalue())

    return run


def library_step(fn: Callable[[], str]) -> Callable[[], StepResult]:
    """Run a library call of the chain; ``fn`` returns a one-line summary."""

    def run() -> StepResult:
        return StepResult(stdout=fn())

    return run


def line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def printed_counts(
    result: StepResult, pattern: str, files: dict[str, Path]
) -> list[str]:
    """Problems where a count the CLI printed differs from the line count of
    the file it wrote; ``pattern`` names one regex group per file."""
    match = re.search(pattern, result.stdout)
    if match is None:
        return [f"output {result.stdout.strip()!r} does not match {pattern!r}"]
    problems = []
    for group, path in files.items():
        printed, lines = int(match.group(group)), line_count(path)
        if printed != lines:
            problems.append(f"printed {group}={printed} but {path.name} has {lines} lines")
    return problems


def analyze_check(out: Path) -> Callable[[StepResult], list[str]]:
    def check(result: StepResult) -> list[str]:
        match = re.search(r"analyzed (\d+) workers", result.stdout)
        if match is None:
            return [f"analyze printed {result.stdout.strip()!r}"]
        workers = len(json.loads((out / "report.json").read_text("utf-8")))
        if int(match.group(1)) != workers:
            return [f"analyze printed {match.group(1)} workers, report.json has {workers}"]
        return []

    return check


def roundtrip_problems(pkg: SimpleNamespace, path: Path) -> list[str]:
    """parse_trace(emit_trace(x)) must re-emit the file byte-identically."""
    text = path.read_text("utf-8")
    events = pkg.trace.parse_trace(text.splitlines())
    again = "".join(line + "\n" for line in pkg.trace.emit_trace(events))
    if again != text:
        return [f"{path.name}: parse/emit round trip is not byte-identical"]
    return []


# -- workloads ----------------------------------------------------------------


@dataclass
class Workload:
    """Inputs built at set-up, the timed chain, and its checks."""

    name: str
    work: Path
    steps: list[Step]
    # Input events of one pass of the chain, read from a step's result.
    count_events: Callable[[list[StepResult]], int]
    # Checks that need only run once per input (round trips, partitions).
    invariants: Callable[[], list[str]] = lambda: []
    # Outputs are every file under ``work``; these are inputs.
    inputs: tuple[str, ...] = ()


def ddos_single(pkg: SimpleNamespace, work: Path, seed: int, size: str) -> Workload:
    params = SIZES[size]["ddos_single"]
    target = f"https://victim{Rng(seed).below(1000):03d}.example/hit"
    trace = work / "ddos.jsonl"
    enforce_out, analyze_out = work / "enforce", work / "analyze"
    steps = [
        Step(
            "cli.gen",
            cli_step(pkg, [
                "gen", "--scenario", "ddos", "--seed", str(seed),
                "--param", f"req_per_s={params['req_per_s']}",
                "--param", f"burst_minutes={params['burst_minutes']}",
                "--param", f"target={target}", "--out", str(trace),
            ]),
            lambda r: printed_counts(r, r"wrote (?P<events>\d+) events", {"events": trace}),
        ),
        Step(
            "cli.enforce",
            cli_step(pkg, ["enforce", "--trace", str(trace), "--profile", "chrome",
                           "--out", str(enforce_out)]),
            lambda r: printed_counts(
                r, r"(?P<violations>\d+) violations, (?P<actions>\d+) actions",
                {"violations": enforce_out / "violations.jsonl",
                 "actions": enforce_out / "actions.jsonl"},
            ),
        ),
        Step(
            "cli.analyze",
            cli_step(pkg, ["analyze", "--trace", str(trace), "--out", str(analyze_out)]),
            analyze_check(analyze_out),
        ),
    ]
    return Workload(
        name="ddos_single",
        work=work,
        steps=steps,
        count_events=lambda results: int(re.search(r"wrote (\d+)", results[0].stdout).group(1)),
        invariants=lambda: roundtrip_problems(pkg, trace),
    )


# Seeds the parameters of the fleet's workers, which every seed shares.
FLEET_SHAPES_SEED = 0xF1EE7


# Per generator: the parameters of one fleet worker that runs for duration_ms.
def _fleet_params(name: str, rng: Rng, duration_ms: int) -> dict[str, Any]:
    minutes = duration_ms // MINUTE_MS
    if name == "webbot" or name == "notification_hider":
        return {"duration_ms": duration_ms}
    if name == "push_flood":
        return {"pushes_per_hour": 20 + rng.below(41), "silent": rng.below(2) == 1,
                "renew_after": (None, 5, 10)[rng.below(3)], "duration_ms": duration_ms}
    if name == "ddos":
        return {"req_per_s": 1 + rng.below(2),
                "burst_minutes": max(1, minutes // 15) + rng.below(3)}
    if name == "tag_reuser":
        return {"n_pushes": max(2, minutes // 3) + rng.below(minutes // 3 + 1)}
    if name == "tracking_library":
        return {"page_visits": max(2, minutes // 2) + rng.below(minutes // 2 + 1)}
    if name == "benign":
        return {"push_rate": 2 + rng.below(5), "duration_ms": duration_ms}
    raise KeyError(name)


def _relabel(pkg, event, old_origin: str, origin: str, sw_id: str, offset: int):
    payload = event.payload
    url = payload.get("url")
    if isinstance(url, str) and url.startswith(old_origin):
        payload = {**payload, "url": origin + url[len(old_origin):]}
    return pkg.trace.TraceEvent(
        ts=event.ts + offset, kind=event.kind, origin=origin,
        sw_id=sw_id if event.sw_id is not None else None,
        scope=event.scope, payload=payload,
    )


# Worker-script CSP header of the fleet, by kind: none, default-src only,
# script-src 'self', 'self' plus the import host ``imp``, and '*'. Kinds 2
# and up carry script-src.
def _csp_header(kind: int, imp: Optional[str]) -> Optional[str]:
    return (
        None,
        "default-src 'self'",
        "script-src 'self'",
        f"script-src 'self' https://{imp}" if imp else "script-src 'self' https://static.example",
        "script-src *",
    )[kind]


def _import_allowed(kind: int, allowed_domain: Optional[str], url: str, origin: str) -> bool:
    if url.startswith(origin + "/"):
        return True  # 'self', or '*' for kind 4
    if kind == 4:
        return True
    return kind == 3 and allowed_domain is not None and url.startswith(f"https://{allowed_domain}/")


@dataclass
class Fleet:
    """The fleet's input files plus what its CSP steps must find."""

    trace: Path
    meta: Path
    corpus: Path
    events: int
    workers: int
    # (sw_id, origin, header or None, import url, expected verdict)
    imports: list[tuple[str, str, Optional[str], str, bool]] = field(default_factory=list)
    audit: dict[str, int] = field(default_factory=dict)


def build_fleet(pkg: SimpleNamespace, out: Path, seed: int, size: str) -> Fleet:
    """Write a merged many-worker trace, its metadata and its CSP corpus.

    Every worker runs one of the seven generators on its own origin. The
    workers' generators and parameters form a fixed set, the same for
    every seed, so that the fleet's size does not depend on the seed. The
    seed decides which origin and rank each of them gets, its generator
    seed, start offset, import domains and CSP header.
    """
    params = SIZES[size]["fleet_mixed"]
    n, duration_ms = params["workers"], params["duration_ms"]
    names = sorted(pkg.scenarios.GENERATORS)
    shapes = Rng(FLEET_SHAPES_SEED)
    workers = [(names[i % len(names)], _fleet_params(names[i % len(names)], shapes, duration_ms))
               for i in range(n)]
    rng = Rng(seed)
    rng.shuffle(workers)
    suffixes = ("example", "example.co.uk", "github.io")

    merged: list[tuple[int, int, int, Any]] = []
    meta: dict[str, dict[str, Any]] = {}
    corpus: list[dict[str, Any]] = []
    fleet = Fleet(out / "fleet.jsonl", out / "meta.json", out / "corpus.jsonl", 0, n)
    audit = {"total": 0, "with_csp": 0, "with_script_src": 0}
    for i, (name, worker_params) in enumerate(workers):
        scenario = pkg.scenarios.Scenario(name=name, seed=rng.below(1 << 32), params=worker_params)
        events = pkg.scenarios.generate(scenario)
        origin = f"https://site{i:03d}.{suffixes[rng.below(len(suffixes))]}"
        sw_id = f"sw{i:03d}-{name}"
        offset = rng.below(duration_ms)
        for seq, event in enumerate(events):
            merged.append((event.ts + offset, i, seq,
                           _relabel(pkg, event, events[0].origin, origin, sw_id, offset)))

        pool = ["cdn-assets.example", "tracking.example", f"lib{i:03d}.example"]
        imports = [pool.pop(rng.below(len(pool))) for _ in range(rng.below(3))]
        rank = 1 + rng.below(10 ** (1 + rng.below(6)))  # 1 to 1M, spread over decades
        meta[sw_id] = {"origin": origin, "rank": rank, "import_domains": imports}

        csp_kind = rng.below(5)
        allowed = imports[0] if imports else None
        header = _csp_header(csp_kind, allowed)
        headers = {"Service-Worker": "script"}
        if header is not None:
            headers["Content-Security-Policy"] = header
        corpus.append({"url": f"{origin}/sw.js", "headers": headers})
        if i % 5 == 0:  # a page response, which the audit must ignore
            corpus.append({"url": f"{origin}/", "headers": {"Content-Security-Policy": "default-src 'self'"}})
        audit["total"] += 1
        audit["with_csp"] += header is not None
        audit["with_script_src"] += csp_kind >= 2
        for url in [f"{origin}/local.js"] + [f"https://{d}/lib.js" for d in imports]:
            fleet.imports.append(
                (sw_id, origin, header, url, _import_allowed(csp_kind, allowed, url, origin))
            )

    merged.sort(key=lambda item: item[:3])
    out.mkdir(parents=True, exist_ok=True)
    with open(fleet.trace, "w", encoding="utf-8") as fh:
        for line in pkg.trace.emit_trace(item[3] for item in merged):
            fh.write(line + "\n")
    fleet.meta.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n", "utf-8")
    fleet.corpus.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in corpus), "utf-8")
    fleet.events = len(merged)
    fleet.audit = audit
    return fleet


def fleet_mixed(pkg: SimpleNamespace, work: Path, seed: int, size: str) -> Workload:
    fleet = build_fleet(pkg, work / "input", seed, size)
    enforce_out, analyze_out = work / "enforce", work / "analyze"
    summary_path, imports_path = work / "summary.json", work / "imports.jsonl"
    bands = [pkg.forensics.RankBand(*band) for band in RANK_BANDS]
    meta = json.loads(fleet.meta.read_text("utf-8"))

    def summarize() -> str:
        raw = json.loads((analyze_out / "report.json").read_text("utf-8"))
        reports = {sw: pkg.forensics.BehaviorReport(**obj) for sw, obj in raw.items()}
        summaries = {
            metric: {band: dataclasses.asdict(s) for band, s in
                     pkg.forensics.summarize(reports, metric, bands, meta).items()}
            for metric in pkg.forensics.METRICS
        }
        summary_path.write_text(json.dumps(summaries, sort_keys=True, indent=1) + "\n", "utf-8")
        return f"summarized {len(reports)} workers"

    def check_summary(result: StepResult) -> list[str]:
        raw = json.loads((analyze_out / "report.json").read_text("utf-8"))
        summaries = json.loads(summary_path.read_text("utf-8"))
        problems = []
        for metric, field_name in pkg.forensics._METRIC_FIELDS.items():
            values = sum(len(obj[field_name]) for obj in raw.values())
            if summaries[metric]["overall"]["count"] != values:
                problems.append(f"summary of {metric} counts "
                                f"{summaries[metric]['overall']['count']} values, reports hold {values}")
        return problems

    def check_audit(result: StepResult) -> list[str]:
        try:
            printed = json.loads(result.stdout)
        except json.JSONDecodeError:
            return [f"csp-audit printed {result.stdout.strip()!r}"]
        got = {key: printed.get(key) for key in fleet.audit}
        return [] if got == fleet.audit else [f"csp-audit counted {got}, corpus holds {fleet.audit}"]

    def check_imports() -> str:
        with open(imports_path, "w", encoding="utf-8") as fh:
            for sw_id, origin, header, url, _expected in fleet.imports:
                policy = pkg.csp.parse_csp(header) if header is not None else None
                verdict = pkg.csp.check_import(policy, origin, url)
                fh.write(json.dumps({"sw_id": sw_id, "url": url, "allowed": verdict.allowed,
                                     "rule": verdict.rule}, sort_keys=True) + "\n")
        return f"checked {len(fleet.imports)} imports"

    def check_verdicts(result: StepResult) -> list[str]:
        rows = [json.loads(line) for line in imports_path.read_text("utf-8").splitlines()]
        wrong = [row["url"] for row, item in zip(rows, fleet.imports) if row["allowed"] != item[4]]
        if len(rows) != len(fleet.imports):
            wrong.append(f"{len(rows)} verdicts for {len(fleet.imports)} imports")
        return [f"unexpected import verdicts: {wrong[:3]}"] if wrong else []

    steps = [
        Step(
            "cli.enforce",
            cli_step(pkg, ["enforce", "--trace", str(fleet.trace), "--profile", "edge",
                           "--out", str(enforce_out)]),
            lambda r: printed_counts(
                r, r"(?P<violations>\d+) violations, (?P<actions>\d+) actions",
                {"violations": enforce_out / "violations.jsonl",
                 "actions": enforce_out / "actions.jsonl"},
            ),
        ),
        Step(
            "cli.analyze",
            cli_step(pkg, ["analyze", "--trace", str(fleet.trace), "--meta", str(fleet.meta),
                           "--out", str(analyze_out)]),
            analyze_check(analyze_out),
        ),
        Step("forensics.summarize", library_step(summarize), check_summary),
        Step("cli.csp_audit", cli_step(pkg, ["csp-audit", "--corpus", str(fleet.corpus)]),
             check_audit),
        Step("csp.check_import", library_step(check_imports), check_verdicts),
    ]
    return Workload(
        name="fleet_mixed",
        work=work,
        steps=steps,
        count_events=lambda results: fleet.events,
        invariants=lambda: roundtrip_problems(pkg, fleet.trace),
        inputs=("input/fleet.jsonl", "input/meta.json", "input/corpus.jsonl"),
    )


# Closed-loop configurations: (generator, parameters at scale 1). Parameters
# grow with the size's scale; the seed jitters them and seeds the generator.
_SWEEP = (
    ("webbot", {"duration_ms": 10 * MINUTE_MS}),
    ("push_flood", {"pushes_per_hour": 40, "duration_ms": HOUR_MS}),
    ("push_flood", {"pushes_per_hour": 40, "silent": True, "renew_after": 5,
                    "duration_ms": HOUR_MS}),
    ("ddos", {"req_per_s": 5, "burst_minutes": 2}),
    ("notification_hider", {"duration_ms": HOUR_MS}),
    ("tag_reuser", {"n_pushes": 80}),
    ("tracking_library", {"page_visits": 100}),
    ("benign", {"push_rate": 4, "duration_ms": 4 * HOUR_MS}),
)
_SCALED = {"duration_ms", "burst_minutes", "n_pushes", "page_visits"}


def _param_text(value: Any) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def closed_loop_sweep(pkg: SimpleNamespace, work: Path, seed: int, size: str) -> Workload:
    scale = SIZES[size]["closed_loop_sweep"]["scale"]
    rng = Rng(seed)
    steps: list[Step] = []
    jobs: list[tuple[Any, Path]] = []
    for index, (name, base) in enumerate(_SWEEP):
        params = {}
        for key, value in base.items():
            if key in _SCALED:
                value = value * scale
            if key in _SCALED or key == "pushes_per_hour":
                value += value * rng.below(11) // 100  # up to +10 %
            params[key] = value
        duration = params.pop("duration_ms", None)
        scenario = pkg.scenarios.Scenario(name=name, seed=rng.below(1 << 32),
                                          params=params, duration_ms=duration)
        argv_params = [f"{k}={_param_text(v)}" for k, v in params.items()]
        if duration is not None:
            argv_params.append(f"duration_ms={duration}")
        for profile in PROFILES:
            out = work / f"{index}-{name}-{profile}"
            jobs.append((scenario, out))
            argv = ["simulate", "--scenario", name, "--seed", str(scenario.seed),
                    "--profile", profile, "--out", str(out)]
            for text in argv_params:
                argv += ["--param", text]
            steps.append(Step(
                "cli.simulate",
                cli_step(pkg, argv),
                lambda r, out=out: printed_counts(
                    r, r"delivered (?P<delivered>\d+), suppressed (?P<suppressed>\d+), "
                       r"violations (?P<violations>\d+)",
                    {k: out / f"{k}.jsonl" for k in ("delivered", "suppressed", "violations")},
                ),
            ))
            steps.append(Step(
                "cli.analyze",
                cli_step(pkg, ["analyze", "--trace", str(out / "delivered.jsonl"),
                               "--out", str(out / "analyze")]),
                analyze_check(out / "analyze"),
            ))

    def offered(results: list[StepResult]) -> int:
        total = 0
        for result in results[::2]:
            match = re.search(r"delivered (\d+), suppressed (\d+)", result.stdout)
            total += int(match.group(1)) + int(match.group(2))
        return total

    def invariants() -> list[str]:
        problems = []
        for scenario, out in jobs:
            delivered = (out / "delivered.jsonl").read_text("utf-8").splitlines()
            suppressed = (out / "suppressed.jsonl").read_text("utf-8").splitlines()
            generated = list(pkg.trace.emit_trace(pkg.scenarios.generate(scenario)))
            if not _is_ordered_partition(generated, delivered, suppressed):
                problems.append(f"{out.name}: delivered and suppressed do not partition "
                                f"the generated trace in order")
            for part in ("delivered.jsonl", "suppressed.jsonl"):
                problems += roundtrip_problems(pkg, out / part)
        return problems

    return Workload(name="closed_loop_sweep", work=work, steps=steps,
                    count_events=offered, invariants=invariants)


def _is_ordered_partition(whole: list[str], left: list[str], right: list[str]) -> bool:
    """Whether ``whole`` interleaves ``left`` and ``right``, each in order.

    Tracks every count of ``left`` lines consumed that can explain the
    prefix read so far; identical lines are why there can be more than one.
    """
    if len(whole) != len(left) + len(right):
        return False
    reachable = {0}
    for k, line in enumerate(whole):
        following = set()
        for i in reachable:
            if i < len(left) and left[i] == line:
                following.add(i + 1)
            if k - i < len(right) and right[k - i] == line:
                following.add(i)
        if not following:
            return False
        reachable = following
    return len(left) in reachable


# Small files each calibration writes, so that it has the workload's mix:
# the sweep's 80 CLI jobs spend a large share of their time in the atomic
# writes of 480 small files; the others write a few large files.
CALIBRATION_FILES = {"ddos_single": 0, "fleet_mixed": 0, "closed_loop_sweep": 40}

WORKLOADS: dict[str, Callable[[SimpleNamespace, Path, int, str], Workload]] = {
    "ddos_single": ddos_single,
    "fleet_mixed": fleet_mixed,
    "closed_loop_sweep": closed_loop_sweep,
}
