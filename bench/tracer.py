"""Span tracer for the benchmark's traced run.

It wraps the package's public entry points from outside, by replacing the
module and class attributes the package looks them up through, and puts
the originals back when the traced pass ends. Nothing in the package
changes. A span is (name, start, end, parent). Functions called several
times per event and calling nothing traced themselves (``Origin.parse``,
``registrable_domain``, ``parse_csp``) are leaves: each call adds its
count and duration to totals and to its parent span's covered time,
instead of making a span. ``PolicyConfig.get`` is only counted.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

perf = time.perf_counter

# Spans whose durations become ``<name>_s`` metrics.
SPAN_METRICS = {
    "scenarios.generate": "scenarios.generate_s",
    "scenarios.simulate": "scenarios.simulate_s",
    "trace.parse_trace": "trace.parse_s",
    "trace.emit_trace": "trace.emit_s",
    "policy.on_event": "policy.on_event_s",
    "policy.advance": "policy.advance_s",
    "policy.finish": "policy.finish_s",
    "policy.load_policies": "policy.load_policies_s",
    "forensics.analyze_trace": "forensics.analyze_s",
    "forensics.summarize": "forensics.summarize_s",
    "forensics.export_cdf": "forensics.export_cdf_s",
    "csp.audit_headers": "csp.audit_s",
    "csp.check_import": "csp.check_import_s",
    "cli.gen": "cli.gen_s",
    "cli.enforce": "cli.enforce_s",
    "cli.analyze": "cli.analyze_s",
    "cli.simulate": "cli.simulate_s",
    "cli.csp_audit": "cli.csp_audit_s",
}


class Tracer:
    """Spans and counters of one traced pass, between install and uninstall."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, seconds covered by children]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.workers = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0])
        self._stack.append(index)
        self.spans[index][1] = perf()
        return index

    def _close(self, index: int) -> None:
        end = perf()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(result, args)`` counts its result
        once the span is closed."""

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        counts, leaf_s, spans, stack = self.counts, self.leaf_s, self.spans, self._stack

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                counts[name] += 1
                leaf_s[name] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def emitter(self, fn: Callable) -> Callable:
        """Span over a generator's whole iteration, counting bytes it yields."""

        def wrapper(*args, **kwargs):
            index = self._open("trace.emit_trace")
            size = 0
            try:
                for line in fn(*args, **kwargs):
                    size += len(line.encode("utf-8")) + 1
                    yield line
            finally:
                self._close(index)
                self.counts["trace.bytes"] += size

        return wrapper

    def cli_run(self, fn: Callable) -> Callable:
        """Name each CLI span after its subcommand (``cli.enforce``, ...)."""

        def wrapper(argv=None):
            return self.span("cli." + argv[0].replace("-", "_"), fn)(argv)

        return wrapper

    # -- result counters --------------------------------------------------------

    def _count_parsed(self, events, args) -> None:
        self.counts["trace.parse_lines"] += len(events)

    def _count_decision(self, decision, args) -> None:
        self.counts["policy.actions"] += len(decision.actions)
        self.counts["policy.violations"] += len(decision.violations)

    def _count_finish(self, decision, args) -> None:
        self._count_decision(decision, args)
        self.workers = max(self.workers, len(args[0].states()))

    def _count_simulated(self, result, args) -> None:
        self.counts["scenarios.delivered"] += len(result.delivered_events)
        self.counts["scenarios.offered"] += (
            len(result.delivered_events) + len(result.suppressed_events)
        )

    # -- installing -------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, pkg: SimpleNamespace) -> None:
        cli, scenarios, trace, policy = pkg.cli, pkg.scenarios, pkg.trace, pkg.policy
        forensics, csp, model, domains = pkg.forensics, pkg.csp, pkg.model, pkg.domains
        self._patch(cli, "run", self.cli_run(cli.run))
        for module in (cli, scenarios):
            self._patch(module, "generate", self.span("scenarios.generate", scenarios.generate))
        self._patch(cli, "simulate",
                    self.span("scenarios.simulate", scenarios.simulate, self._count_simulated))
        self._patch(trace, "parse_trace",
                    self.span("trace.parse_trace", trace.parse_trace, self._count_parsed))
        for module in (cli, trace):
            self._patch(module, "emit_trace", self.emitter(trace.emit_trace))
        engine = policy.PolicyEngine
        self._patch(engine, "on_event",
                    self.span("policy.on_event", engine.on_event, self._count_decision))
        self._patch(engine, "advance", self.span("policy.advance", engine.advance))
        self._patch(engine, "finish",
                    self.span("policy.finish", engine.finish, self._count_finish))
        for module in (cli, policy):
            self._patch(module, "load_policies",
                        self.span("policy.load_policies", policy.load_policies))
        self._patch(policy.PolicyConfig, "get",
                    self.counted("policy.config_get", policy.PolicyConfig.get))
        self._patch(model.Origin, "parse",
                    classmethod(self.leaf("model.origin_parse", model.Origin.parse.__func__)))
        for module in (domains, policy, forensics):
            self._patch(module, "registrable_domain",
                        self.leaf("domains.registrable_domain", domains.registrable_domain))
        for name in ("analyze_trace", "summarize", "export_cdf"):
            self._patch(forensics, name, self.span(f"forensics.{name}", getattr(forensics, name)))
        self._patch(csp, "parse_csp", self.leaf("csp.parse_csp", csp.parse_csp))
        self._patch(csp, "check_import", self.span("csp.check_import", csp.check_import))
        self._patch(csp, "audit_headers", self.span("csp.audit_headers", csp.audit_headers))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def totals(self) -> Counter:
        """Additive totals: span seconds by metric, counts and leaf seconds."""
        out: Counter = Counter()
        for name, start, end, _parent, covered in self.spans:
            out[SPAN_METRICS[name]] += end - start
            if name.startswith("cli."):
                out["cli.self_s"] += end - start - covered
            elif name == "policy.advance":
                out["policy.advance_calls"] += 1
        out.update(self.counts)
        for name, seconds in self.leaf_s.items():
            out[name + "_s"] += seconds
        return out

    def on_event_us(self) -> list[float]:
        return [(end - start) * 1e6 for name, start, end, _p, _c in self.spans
                if name == "policy.on_event"]

    def write_jsonl(self, path: Path) -> None:
        """Write every span, then one record of the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, covered) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None,
                    "self_s": end - start - covered,
                }) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts),
                                 "leaf_s": dict(self.leaf_s)}, sort_keys=True) + "\n")


def nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


# Unit of every per-layer metric, in the order the result lists them.
LAYER_UNITS = {
    "trace.parse_s": "s",
    "trace.parse_lines_per_s": "lines/s",
    "model.origin_parse_calls": "count",
    "model.origin_parse_s": "s",
    "trace.emit_s": "s",
    "trace.bytes": "bytes",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
    "policy.on_event_s": "s",
    "policy.on_event_us_p50": "us",
    "policy.on_event_us_p99": "us",
    "policy.advance_s": "s",
    "policy.advance_calls": "count",
    "policy.advance_share": "ratio",
    "policy.finish_s": "s",
    "policy.workers": "count",
    "policy.config_get_calls": "count",
    "domains.registrable_domain_calls": "count",
    "domains.registrable_domain_s": "s",
    "policy.actions": "count",
    "policy.violations": "count",
    "scenarios.delivered_frac": "ratio",
    "scenarios.simulate_s": "s",
    "policy.load_policies_s": "s",
    "scenarios.generate_s": "s",
    "forensics.analyze_s": "s",
    "forensics.export_cdf_s": "s",
    "forensics.summarize_s": "s",
    "csp.audit_s": "s",
    "csp.parse_csp_calls": "count",
    "csp.check_import_s": "s",
    "cli.gen_s": "s",
    "cli.enforce_s": "s",
    "cli.analyze_s": "s",
    "cli.simulate_s": "s",
    "cli.csp_audit_s": "s",
    "bench.tracing_overhead_frac": "ratio",
}


def layer_metrics(total: Counter, on_event_us: list[float], output_bytes: int,
                  chain_s: float, untraced_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed as in LAYER_UNITS."""
    parse_s = total["trace.parse_s"]
    offered = total["scenarios.offered"]
    metrics = {
        "trace.parse_s": parse_s,
        "trace.parse_lines_per_s": total["trace.parse_lines"] / parse_s if parse_s else 0.0,
        "model.origin_parse_calls": total["model.origin_parse"],
        "model.origin_parse_s": total["model.origin_parse_s"],
        "trace.emit_s": total["trace.emit_s"],
        "trace.bytes": total["trace.bytes"],
        "cli.output_bytes": output_bytes,
        "cli.self_s": total["cli.self_s"],
        "policy.on_event_s": total["policy.on_event_s"],
        "policy.on_event_us_p50": nearest_rank(on_event_us, 50),
        "policy.on_event_us_p99": nearest_rank(on_event_us, 99),
        "policy.advance_s": total["policy.advance_s"],
        "policy.advance_calls": total["policy.advance_calls"],
        "policy.advance_share": total["policy.advance_s"] / chain_s,
        "policy.finish_s": total["policy.finish_s"],
        "policy.workers": total["policy.workers"],
        "policy.config_get_calls": total["policy.config_get"],
        "domains.registrable_domain_calls": total["domains.registrable_domain"],
        "domains.registrable_domain_s": total["domains.registrable_domain_s"],
        "policy.actions": total["policy.actions"],
        "policy.violations": total["policy.violations"],
        "scenarios.delivered_frac": total["scenarios.delivered"] / offered if offered else 0.0,
        "scenarios.simulate_s": total["scenarios.simulate_s"],
        "policy.load_policies_s": total["policy.load_policies_s"],
        "scenarios.generate_s": total["scenarios.generate_s"],
        "forensics.analyze_s": total["forensics.analyze_s"],
        "forensics.export_cdf_s": total["forensics.export_cdf_s"],
        "forensics.summarize_s": total["forensics.summarize_s"],
        "csp.audit_s": total["csp.audit_s"],
        "csp.parse_csp_calls": total["csp.parse_csp"],
        "csp.check_import_s": total["csp.check_import_s"],
        "cli.gen_s": total["cli.gen_s"],
        "cli.enforce_s": total["cli.enforce_s"],
        "cli.analyze_s": total["cli.analyze_s"],
        "cli.simulate_s": total["cli.simulate_s"],
        "cli.csp_audit_s": total["cli.csp_audit_s"],
        "bench.tracing_overhead_frac": (chain_s - untraced_s) / untraced_s,
    }
    return {name: metrics[name] for name in LAYER_UNITS}
