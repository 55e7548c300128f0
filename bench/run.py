"""sw-sentinel benchmark: one workload, one process, one JSON result.

    python3 bench/run.py --workload ddos_single --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The package is imported from the
checkout's ``src`` directory; the run fails without printing a result when
it is missing. The workload's inputs are built from ``--seed`` (set-up,
repeated and reported as a median), then its chain of steps is timed
pass after pass for ``--seconds``, and every pass's outputs are checked.
The last line printed is the result:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; the spans
of the last traced pass are written to ``.bench_out/spans-<workload>.jsonl``.
Metric definitions and the reasons behind the workloads are in
``bench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from tracer import LAYER_UNITS, Tracer, layer_metrics
from workloads import CALIBRATION_FILES, SIZES, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 9
# The calibration that defines the reference speed: CALIBRATION_ROWS rows
# in CALIBRATION_REF_S seconds, about what a quiet 2-core VM takes. A pass
# calibrates after each stretch of at least SEGMENT_S seconds of steps.
CALIBRATION_ROWS = 8_000
CALIBRATION_REF_S = 0.08
SEGMENT_S = 0.8
MODULES = ("cli", "scenarios", "trace", "policy", "forensics", "csp", "model", "domains")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result."""


def import_package() -> SimpleNamespace:
    """Import sw_sentinel afresh from the checkout's ``src``."""
    if not (SRC / "sw_sentinel" / "__init__.py").is_file():
        raise BenchError(f"no sw_sentinel package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "sw_sentinel" or m.startswith("sw_sentinel.")]:
        del sys.modules[name]
    package = importlib.import_module("sw_sentinel")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"sw_sentinel was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"sw_sentinel.{m}") for m in MODULES})


def set_up(name: str, work: Path, seed: int, size: str,
           tracer: Tracer | None = None) -> tuple[float, SimpleNamespace, Workload]:
    """Import, load the policies and build the inputs; returns seconds taken.
    A tracer, when given, traces all but the import."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    start = time.perf_counter()
    pkg = import_package()
    if tracer is not None:
        tracer.install(pkg)
    try:
        pkg.policy.load_policies(None)
        workload = WORKLOADS[name](pkg, work, seed, size)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start, pkg, workload


def digests(workload: Workload) -> dict[str, str]:
    return {
        path.relative_to(workload.work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workload.work.rglob("*")) if path.is_file()
    }


def output_bytes(workload: Workload, table: dict[str, str]) -> int:
    return sum((workload.work / rel).stat().st_size for rel in table
               if rel not in workload.inputs)


class Run:
    """Passes of one workload's chain and what they found."""

    def __init__(self, pkg: SimpleNamespace, workload: Workload, pinned: dict[str, str] | None):
        self.pkg, self.workload, self.pinned = pkg, workload, pinned
        self.attempted = self.failed = 0
        self.first_digests: dict[str, str] | None = None

    def problem(self, message: str) -> None:
        print(f"[{self.workload.name}] {message}", file=sys.stderr)

    def one_pass(self, clock: SpeedClock, tracer: Tracer | None) -> tuple[Pass, dict[str, str]] | None:
        """Time one pass; returns it and its output digests, None if it failed.

        Every step is an operation. A step fails on an exception, a
        non-zero exit code or a failed check; all steps of a pass fail when
        its outputs differ from those of the run's first pass.
        """
        workload = self.workload
        gc.collect()
        results = []
        timed = Pass()
        segment = 0.0
        if tracer is not None:
            tracer.install(self.pkg)
        try:
            for step in workload.steps:
                start = time.perf_counter()
                try:
                    results.append(step.run())
                except Exception:
                    self.problem(f"{step.label} raised:\n{traceback.format_exc()}")
                    break
                finally:
                    segment += time.perf_counter() - start
                if segment >= SEGMENT_S:
                    timed.add(segment, clock.reference_s(segment))
                    segment = 0.0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if segment:
            timed.add(segment, clock.reference_s(segment))
        bad = len(workload.steps) - len(results)
        for step, result in zip(workload.steps, results):
            if result.rc != 0:
                problems = [f"exit code {result.rc}"]
            else:
                try:
                    problems = step.check(result)
                except Exception:
                    problems = [f"check raised:\n{traceback.format_exc()}"]
            if problems:
                bad += 1
                self.problem(f"{step.label}: {'; '.join(problems)}")
        self.attempted += len(workload.steps)
        if not bad:
            table = digests(workload)
            if self.first_digests is None:
                self.first_digests = table
            elif table != self.first_digests:
                self.problem("outputs differ from the first pass of this run")
                bad = len(workload.steps)
        self.failed += bad
        if bad:
            return None
        timed.events = workload.count_events(results)
        return timed, table

    def check_outputs(self) -> None:
        """One more operation: the outputs, equal in every passing pass,
        hold the workload's invariants and, at the reference seed, match
        the pinned digests."""
        if self.first_digests is None:
            return
        self.attempted += 1
        table = self.first_digests
        if digests(self.workload) != table:
            problems = ["outputs on disk are not those of the passing passes"]
        else:
            try:
                problems = self.workload.invariants()
            except Exception:
                problems = [f"invariants raised:\n{traceback.format_exc()}"]
        if self.pinned is not None and table != self.pinned:
            changed = sorted(k for k in table.keys() | self.pinned.keys()
                             if table.get(k) != self.pinned.get(k))
            problems.append(f"{len(changed)} outputs differ from the pinned digests: {changed[:5]}")
        for message in problems:
            self.problem(message)
        self.failed += bool(problems)


def calibration_s(directory: Path, files: int) -> float:
    """Seconds this machine takes, right now, for a fixed stdlib workload
    of the package's kind: JSON lines of small dicts, parsed back and
    picked apart, then ``files`` small files written and renamed into
    place in ``directory``. Garbage collection is off while it runs, so
    whatever the package leaves on the heap does not change its time."""
    rows = [{"ts": i, "kind": "fetch_request", "origin": "https://cal.example",
             "url": f"https://victim.example/{i % 97}", "initiator_is_sw": True}
            for i in range(CALIBRATION_ROWS)]
    directory.mkdir(parents=True, exist_ok=True)
    gc.disable()
    try:
        start = time.perf_counter()
        text = "\n".join(json.dumps(row, separators=(",", ":")) for row in rows)
        hosts = set()
        for line in text.splitlines():
            obj = json.loads(line)
            hosts.add(obj["url"].split("/")[2] + str(obj["ts"] % 7))
        for i in range(files):
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cal-")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text[:300])
            os.replace(tmp, directory / f"cal{i % 6}")
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedClock:
    """Scales chain time to the reference speed: a calibration runs after
    each timed segment, and a segment's slowdown is the mean of the
    calibrations on either side of it, over CALIBRATION_REF_S."""

    def __init__(self, directory: Path, files: int) -> None:
        self.directory, self.files = directory, files
        self.last = calibration_s(directory, files)

    def reference_s(self, seconds: float) -> float:
        """Reference-speed length of a segment of ``seconds`` that just ended."""
        after = calibration_s(self.directory, self.files)
        slowdown = (self.last + after) / 2 / CALIBRATION_REF_S
        self.last = after
        return seconds / slowdown


@dataclass
class Pass:
    """A timed pass (or set-up): wall and reference-speed seconds."""

    wall_s: float = 0.0
    reference_s: float = 0.0
    events: int = 0
    tracer: Tracer | None = None
    output_bytes: int = 0

    def add(self, wall_s: float, reference_s: float) -> None:
        self.wall_s += wall_s
        self.reference_s += reference_s


def measure(run: Run, clock: SpeedClock, seconds: float,
            trace: bool) -> tuple[list[Pass], list[Pass]]:
    """Alternate passes (untraced, then traced when tracing) until at least
    ``seconds`` have gone by. The first round warms up: it is checked but
    not timed. Each kind of pass is timed at least once."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < seconds:
        rounds += 1
        for tracer in ((None, Tracer()) if trace else (None,)):
            outcome = run.one_pass(clock, tracer)
            if outcome is None or rounds == 1:
                continue
            timed, table = outcome
            if tracer is not None:
                timed.tracer = tracer
                timed.output_bytes = output_bytes(run.workload, table)
                traced.append(timed)
            else:
                untraced.append(timed)
    return untraced, traced


def end_to_end(untraced: list[Pass], setups: list[Pass]) -> dict[str, dict]:
    """Times are scaled to the reference speed (see bench/DESIGN.md)."""
    rate = statistics.median(p.events / p.reference_s for p in untraced)
    setup = statistics.median(p.reference_s for p in setups)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "events_per_s": {"value": rate, "unit": "events/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MiB"},
    }


def per_layer(untraced: list[Pass], traced: list[Pass], setup_tracer: Tracer) -> dict[str, dict]:
    """Each metric's median_low over the traced passes, so that a count is
    one a pass really had. Times here are wall times, not scaled."""
    untraced_s = statistics.median(p.wall_s for p in untraced)
    passes = []
    for p in traced:
        total = setup_tracer.totals() + p.tracer.totals()
        total["policy.workers"] = max(setup_tracer.workers, p.tracer.workers)
        passes.append(layer_metrics(total, p.tracer.on_event_us(), p.output_bytes,
                                    p.wall_s, untraced_s))
    return {
        name: {"value": statistics.median_low(p[name] for p in passes), "unit": unit}
        for name, unit in LAYER_UNITS.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digests as the pinned ones "
                             f"(seed {REFERENCE_SEED} only)")
    args = parser.parse_args(argv)
    if args.pin and args.seed != REFERENCE_SEED:
        parser.error(f"--pin needs --seed {REFERENCE_SEED}")

    work = ROOT / ".bench_work" / args.workload
    key = f"{args.workload}/{args.size}"
    all_pins = json.loads(DIGESTS.read_text("utf-8")) if DIGESTS.is_file() else {}
    pinned = all_pins.get(key) if args.seed == REFERENCE_SEED and not args.pin else None
    if args.seed == REFERENCE_SEED and not args.pin and pinned is None:
        raise BenchError(f"no pinned digests for {key} in {DIGESTS.name}")
    clock = SpeedClock(work.parent / f"{args.workload}-calibration",
                       CALIBRATION_FILES[args.workload])
    try:
        setups = []
        # A traced run traces its one set-up, so input building shows in the layers.
        setup_tracer = Tracer() if args.trace else None
        for _ in range(1 if args.trace else SETUP_REPEATS):
            elapsed, pkg, workload = set_up(args.workload, work, args.seed, args.size,
                                            setup_tracer)
            setups.append(Pass(elapsed, clock.reference_s(elapsed)))
        run = Run(pkg, workload, pinned)
        untraced, traced = measure(run, clock, args.seconds, bool(args.trace))
        run.check_outputs()
        if args.pin and run.failed == 0:
            all_pins[key] = run.first_digests
            DIGESTS.write_text(json.dumps(all_pins, sort_keys=True, indent=1) + "\n", "utf-8")
        if not untraced or (args.trace and not traced):
            metrics = {}
        elif args.trace:
            metrics = per_layer(untraced, traced, setup_tracer)
            traced[-1].tracer.write_jsonl(ROOT / ".bench_out" / f"spans-{args.workload}.jsonl")
        else:
            metrics = end_to_end(untraced, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(clock.directory, ignore_errors=True)

    correct = run.failed == 0 and bool(metrics)
    failed_frac = run.failed / run.attempted
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes, failed_frac {failed_frac:.4f} ratio ({run.failed} of {run.attempted} operations)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if untraced:
        wall_rate = statistics.median(p.events / p.wall_s for p in untraced)
        speed = statistics.median(p.reference_s / p.wall_s for p in untraced)
        print(f"  unscaled wall rate {wall_rate:.6g} events/s; machine ran at "
              f"{speed:.3f} of the reference speed")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
