import io
import math
import random

import pytest

from sw_sentinel.forensics import (
    BehaviorReport,
    EmptyInput,
    RankBand,
    analyze_trace,
    export_cdf,
    percentile,
    summarize,
)
from sw_sentinel.policy import PolicyEngine, default_policies
from sw_sentinel.scenarios import (
    Scenario,
    gen_push_flood,
    gen_webbot,
    generate,
)
from sw_sentinel.domains import registrable_domain, url_registrable_domain
from sw_sentinel.model import Origin
from sw_sentinel.trace import TraceEvent

from test_forensics_fold import (
    BACKGROUND_FIRST_PARTY,
    BACKGROUND_THIRD_PARTY,
    FOREGROUND,
    bracket_intervals,
    classify_background_fetch,
)
from test_policy_clock import ALL_GENERATORS, merged_fleet

HOUR = 3_600_000
DAY = 86_400_000


class TestPercentile:
    def test_uniform_hundred(self):
        assert percentile(list(range(1, 101)), 90) == 90

    def test_small_sample_matches_sort_oracle(self):
        assert percentile([5, 1, 3], 50) == 3

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            percentile([], 50)

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 0)
        with pytest.raises(ValueError):
            percentile([1], 101)

    @staticmethod
    def _oracle(values, q):
        # Smallest v such that the fraction of values <= v reaches q/100.
        for v in sorted(values):
            if sum(1 for x in values if x <= v) / len(values) >= q / 100:
                return v
        return max(values)

    def test_matches_oracle_on_random_inputs(self):
        rng = random.Random(6)
        for _ in range(150):
            values = [rng.randint(0, 50) for _ in range(rng.randint(1, 60))]
            q = rng.choice([1, 10, 25, 50, 75, 90, 95, 99, 100])
            assert percentile(values, q) == self._oracle(values, q)

    def test_monotone_in_q_and_max_at_100(self):
        rng = random.Random(9)
        for _ in range(50):
            values = [rng.random() * 100 for _ in range(rng.randint(1, 40))]
            results = [percentile(values, q) for q in (10, 50, 90, 95, 99, 100)]
            assert results == sorted(results)
            assert percentile(values, 100) == max(values)


class TestAnalyzeTrace:
    def test_push_flood_slots(self):
        events = gen_push_flood(1, 50, duration_ms=3 * HOUR)
        report = analyze_trace(events)["sw-pushflood"]
        assert report.pushes_per_hour_slots == [50, 50, 50]

    def test_webbot_long_activation_observed(self):
        events = gen_webbot(1, 44 * 60_000)
        report = analyze_trace(events)["sw-webbot"]
        assert any(abs(m - 22.0) < 0.1 for m in report.exec_minutes_per_activation)

    def test_empty_trace(self):
        assert analyze_trace([]) == {}

    def test_import_domains_counted_first_party(self):
        origin = "https://site.example"
        events = [
            TraceEvent(0, "register", origin, "sw-1", "/"),
            TraceEvent(10, "push", origin, "sw-1", "/", {"push_id": "p"}),
            TraceEvent(20, "fetch_request", origin, "sw-1", "/",
                       {"url": "https://push-cdn.example/poll", "initiator_is_sw": True}),
            TraceEvent(30_000, "terminate", origin, "sw-1", "/"),
        ]
        plain = analyze_trace(events)["sw-1"]
        assert plain.bg_third_party_fetches_per_activation == [1]
        with_imports = analyze_trace(
            events, {"sw-1": {"import_domains": ["push-cdn.example"]}}
        )["sw-1"]
        assert with_imports.bg_third_party_fetches_per_activation == [0]
        assert with_imports.import_origin_count == 1

    @pytest.mark.parametrize("domain", ["tracking.example", "Tracking.Example",
                                        "cdn.tracking.example"])
    def test_import_domains_are_first_party_by_registrable_domain(self, domain):
        """An import domain joins the first party as its registrable domain,
        as each fetch URL's host does; the count keeps the entries as written."""
        events = generate(Scenario("tracking_library", 0, {"page_visits": 3}))
        plain = analyze_trace(events)["sw-tracking"]
        assert plain.bg_third_party_fetches_per_activation == [3]
        for imports in ([domain], [domain, domain.upper()]):
            report = analyze_trace(events, {"sw-tracking": {"import_domains": imports}})
            assert report["sw-tracking"].bg_third_party_fetches_per_activation == [0]
            assert report["sw-tracking"].import_origin_count == len(imports)

    @staticmethod
    def _brute_force(events, sw_id, import_domains=frozenset()):
        """Independent recomputation with plain nested scans."""
        sw_events = [e for e in events if e.sw_id == sw_id]
        t0, end = events[0].ts, events[-1].ts
        report = BehaviorReport(sw_id=sw_id)

        pushes = [e.ts for e in sw_events if e.kind == "push"]
        if pushes:
            n_slots = (max(pushes) - t0) // HOUR + 1
            report.pushes_per_hour_slots = [
                sum(1 for p in pushes if t0 + i * HOUR <= p < t0 + (i + 1) * HOUR)
                for i in range(n_slots)
            ]

        activity = {"install", "activate", "update_found", "push", "sync",
                    "periodicsync", "fetch_event_start", "notification_click",
                    "notification_show"}
        intervals = []
        start = None
        for e in sw_events:
            is_act = e.kind in activity or (
                e.kind == "fetch_request" and e.get("initiator_is_sw")
            )
            if start is None and is_act:
                start = e.ts
            elif start is not None and e.kind == "terminate":
                intervals.append((start, e.ts))
                start = None
        if start is not None:
            intervals.append((start, end))
            report.right_censored_activation = True
        report.exec_minutes_per_activation = [(b - a) / 60_000 for a, b in intervals]

        n_days = (end - t0) // DAY + 1
        report.exec_minutes_per_day = [
            sum(
                (min(b, t0 + (d + 1) * DAY) - max(a, t0 + d * DAY)) / 60_000
                for a, b in intervals
                if a < t0 + (d + 1) * DAY and b > t0 + d * DAY
            )
            for d in range(n_days)
        ]

        own = sw_events[0].origin.split("//")[1].split(":")[0]
        own_domain = ".".join(own.split(".")[-2:])
        first_party = {own_domain} | set(import_domains)
        starts = [e.ts for e in sw_events if e.kind == "fetch_event_start"]
        ends = [e.ts for e in sw_events if e.kind == "fetch_event_end"]
        counts = [0] * len(intervals)
        for e in sw_events:
            if e.kind != "fetch_request" or not e.get("initiator_is_sw"):
                continue
            depth = sum(1 for s in starts if s <= e.ts) - sum(1 for x in ends if x < e.ts)
            if depth > 0:
                continue
            host = e.get("url").split("//")[1].split("/")[0].split(":")[0]
            if ".".join(host.split(".")[-2:]) in first_party:
                continue
            for i, (a, b) in enumerate(intervals):
                if a <= e.ts <= b:
                    counts[i] += 1
                    break
        report.bg_third_party_fetches_per_activation = counts

        # A programmatic close measures from the latest show of its notif_id
        # before it, unless a click or close of that id, or a show of that
        # show's tag, came in between and hid the notification.
        for index, close in enumerate(sw_events):
            if close.kind != "notification_close" or close.get("by_user", False):
                continue
            notif_id = close.get("notif_id")
            for before in range(index - 1, -1, -1):
                show = sw_events[before]
                if show.kind != "notification_show" or show.get("notif_id") != notif_id:
                    continue
                tag = show.get("tag")
                hidden = any(
                    e.kind in ("notification_click", "notification_close")
                    and e.get("notif_id") == notif_id
                    or e.kind == "notification_show" and tag is not None and e.get("tag") == tag
                    for e in sw_events[before + 1:index]
                )
                if not hidden:
                    report.notification_close_deltas_s.append(
                        (close.ts - show.ts) / 1_000
                    )
                break
        return report

    def test_reports_match_brute_force_on_random_traces(self):
        rng = random.Random(44)
        origin = "https://rand.example"
        for round_no in range(110):
            n = 10_000 if round_no == 0 else rng.randint(5, 250)
            ts = 0
            depth = 0
            shown = []
            events = [TraceEvent(0, "register", origin, "sw-1", "/")]
            for i in range(n):
                ts += rng.randint(0, 400_000)
                roll = rng.random()
                if roll < 0.25:
                    events.append(TraceEvent(ts, "push", origin, "sw-1", "/",
                                             {"push_id": f"p{i}"}))
                elif roll < 0.4:
                    events.append(TraceEvent(ts, "fetch_event_start", origin, "sw-1", "/"))
                    depth += 1
                elif roll < 0.55 and depth:
                    events.append(TraceEvent(ts, "fetch_event_end", origin, "sw-1", "/"))
                    depth -= 1
                elif roll < 0.7:
                    url = rng.choice(["https://third.example/x",
                                      "https://rand.example/own",
                                      "https://imported.example/lib"])
                    events.append(TraceEvent(ts, "fetch_request", origin, "sw-1", "/",
                                             {"url": url, "initiator_is_sw": True}))
                elif roll < 0.8:
                    shown.append(i)
                    events.append(TraceEvent(ts, "notification_show", origin, "sw-1", "/",
                                             {"notif_id": f"n{i}", "title": "t"}))
                elif roll < 0.9 and shown:
                    target = rng.choice(shown)
                    events.append(TraceEvent(ts, "notification_close", origin, "sw-1", "/",
                                             {"notif_id": f"n{target}",
                                              "by_user": rng.random() < 0.3}))
                elif depth == 0:
                    events.append(TraceEvent(ts, "terminate", origin, "sw-1", "/"))
            while depth:
                ts += 10
                events.append(TraceEvent(ts, "fetch_event_end", origin, "sw-1", "/"))
                depth -= 1
            meta = {"sw-1": {"import_domains": ["imported.example"]}}
            got = analyze_trace(events, meta)["sw-1"]
            expected = self._brute_force(events, "sw-1", {"imported.example"})
            assert got.pushes_per_hour_slots == expected.pushes_per_hour_slots
            assert got.exec_minutes_per_activation == pytest.approx(
                expected.exec_minutes_per_activation
            )
            assert got.exec_minutes_per_day == pytest.approx(
                expected.exec_minutes_per_day
            )
            assert (got.bg_third_party_fetches_per_activation
                    == expected.bg_third_party_fetches_per_activation)
            assert got.notification_close_deltas_s == pytest.approx(
                expected.notification_close_deltas_s
            )
            assert got.right_censored_activation == expected.right_censored_activation


    @staticmethod
    def _with_edge_fetches(events, rng):
        """Add worker fetches on the very ts of bracket starts and ends and of
        terminates, where a bracket or an activation ends as the next begins."""
        out = []
        for event in events:
            out.append(event)
            if (event.kind in ("fetch_event_start", "fetch_event_end", "terminate")
                    and rng.random() < 0.5):
                url = rng.choice(["https://third.example/x", event.origin + "/own",
                                  "https://imported.example/lib"])
                out.append(TraceEvent(event.ts, "fetch_request", event.origin, event.sw_id,
                                      event.scope, {"url": url, "initiator_is_sw": True}))
        return out

    @staticmethod
    def _linear_verdict(intervals, fetch, first_party):
        """The classifier as a scan over every bracket of the worker."""
        for start, end in intervals.get(fetch.sw_id, []):
            if start <= fetch.ts <= end:
                return FOREGROUND
        if url_registrable_domain(fetch.get("url")) in first_party:
            return BACKGROUND_FIRST_PARTY
        return BACKGROUND_THIRD_PARTY

    def test_fetch_verdicts_and_counts_match_linear_scans_on_generator_traces(self):
        rng = random.Random(808)
        traces = [merged_fleet(seed, rng.randint(3, 12), ALL_GENERATORS, near_midnight=False)
                  for seed in range(8)]
        traces.append(generate(Scenario("tracking_library", 0, {"page_visits": 300})))
        for events in traces:
            events = self._with_edge_fetches(events, rng)
            workers = sorted({e.sw_id for e in events if e.sw_id is not None})
            meta = {sw: {"import_domains": ["imported.example"]}
                    for sw in workers if rng.random() < 0.5}
            intervals = bracket_intervals(events)
            reports = analyze_trace(events, meta)
            assert sorted(reports) == workers
            fetches = 0
            for sw in workers:
                sw_events = [e for e in events if e.sw_id == sw]
                imports = meta.get(sw, {}).get("import_domains", [])
                first_party = {registrable_domain(Origin.parse(sw_events[0].origin).host),
                               *imports}
                for event in sw_events:
                    if event.kind == "fetch_request" and event.get("initiator_is_sw"):
                        fetches += 1
                        assert (classify_background_fetch(events, event, first_party,
                                                          intervals=intervals)
                                == self._linear_verdict(intervals, event, first_party))
                expected = self._brute_force(events, sw, imports)
                assert (reports[sw].bg_third_party_fetches_per_activation
                        == expected.bg_third_party_fetches_per_activation)
                assert (reports[sw].exec_minutes_per_activation
                        == pytest.approx(expected.exec_minutes_per_activation))
            assert fetches


class TestSummarize:
    def _population(self):
        reports = {}
        metadata = {}
        for i in range(90):
            reports[f"sw-low-{i}"] = BehaviorReport(
                sw_id=f"sw-low-{i}", pushes_per_hour_slots=[(i % 14) + 1]
            )
            metadata[f"sw-low-{i}"] = {"rank": i + 1}
        for i in range(10):
            reports[f"sw-high-{i}"] = BehaviorReport(
                sw_id=f"sw-high-{i}", pushes_per_hour_slots=[50 + i]
            )
            metadata[f"sw-high-{i}"] = {"rank": 5_000 + i}
        return reports, metadata

    def test_p90_at_most_14_when_90pct_below(self):
        reports, _ = self._population()
        summary = summarize(reports, "pushes_per_hour")["overall"]
        assert summary.p90 <= 14

    def test_affected_count_zero_at_max(self):
        reports, _ = self._population()
        summary = summarize(reports, "pushes_per_hour")["overall"]
        assert summary.affected_sw_count_at(summary.max) == 0
        assert summary.affected_sw_count_at(14) == 10

    def test_band_p99s_ordered_for_disjoint_distributions(self):
        reports, metadata = self._population()
        bands = [RankBand("top", 1, 1_000), RankBand("tail", 1_001, 10_000)]
        out = summarize(reports, "pushes_per_hour", bands, metadata)
        assert out["top"].p99 <= 14 < out["tail"].p99

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            summarize({}, "nonsense")

    def test_reports_without_values_raise(self):
        reports = {"sw-1": BehaviorReport(sw_id="sw-1")}
        with pytest.raises(EmptyInput, match="pushes_per_hour"):
            summarize(reports, "pushes_per_hour")


class TestExportCdf:
    def test_basic_fractions(self):
        rows = export_cdf([1, 1, 2], io.StringIO())
        assert rows[0][0] == 1 and round(rows[0][1], 4) == 0.6667
        assert rows[1] == (2, 1.0)

    def test_single_value(self):
        assert export_cdf([7], io.StringIO()) == [(7, 1.0)]

    def test_empty_writes_header_only(self):
        buffer = io.StringIO()
        rows = export_cdf([], buffer)
        assert rows == []
        assert buffer.getvalue().strip() == "value,cumulative_fraction"

    def test_a_nan_has_no_rank(self):
        for values in ([1.0, math.nan], [math.nan], [math.nan, 2.0, math.nan]):
            with pytest.raises(ValueError):
                export_cdf(values, io.StringIO())

    def test_final_fraction_exactly_one_and_strictly_increasing(self):
        rng = random.Random(2)
        for _ in range(60):
            values = [rng.randint(0, 20) for _ in range(rng.randint(1, 100))]
            rows = export_cdf(values, io.StringIO())
            fractions = [f for _v, f in rows]
            assert fractions[-1] == 1.0
            assert all(a < b for a, b in zip(fractions, fractions[1:]))
            assert [v for v, _f in rows] == sorted(set(values))


class TestPolicyForensicsConsistency:
    PREDICTABLE = ("push_per_hour", "exec_per_activation", "exec_per_day",
                   "bg_fetch_per_activation", "notif_min_visible")

    @staticmethod
    def _predict(report, config):
        return {
            "push_per_hour": sum(
                1 for c in report.pushes_per_hour_slots
                if c > config.get("push_per_hour").threshold
            ),
            "exec_per_activation": sum(
                1 for m in report.exec_minutes_per_activation
                if m > config.get("exec_per_activation").threshold
            ),
            "exec_per_day": sum(
                1 for m in report.exec_minutes_per_day
                if m > config.get("exec_per_day").threshold
            ),
            "bg_fetch_per_activation": sum(
                1 for c in report.bg_third_party_fetches_per_activation
                if c > config.get("bg_fetch_per_activation").threshold
            ),
            "notif_min_visible": sum(
                1 for d in report.notification_close_deltas_s
                if d < config.get("notif_min_visible").threshold
            ),
        }

    def test_engine_violations_match_report_prediction(self):
        config = default_policies()
        scenarios = [
            Scenario("push_flood", 11, {"pushes_per_hour": 50}, 3 * HOUR),
            Scenario("push_flood", 12, {"pushes_per_hour": 9}, 2 * HOUR),
            Scenario("notification_hider", 13, {}, 10 * 60_000),
            Scenario("tracking_library", 14, {"page_visits": 20}),
            Scenario("benign", 15, {"push_rate": 20}),
            Scenario("webbot", 16, {}, 44 * 60_000),
            Scenario("tag_reuser", 17, {"n_pushes": 6}),
        ]
        for scenario in scenarios:
            events = generate(scenario)
            engine = PolicyEngine(config, "firefox", mode="enforce")
            violations = []
            for event in events:
                violations.extend(engine.on_event(event).violations)
            violations.extend(engine.finish(events[-1].ts).violations)
            reports = analyze_trace(events)
            (sw_id,) = reports.keys()
            predicted = self._predict(reports[sw_id], config)
            for policy in self.PREDICTABLE:
                got = sum(1 for v in violations if v.policy_name == policy)
                assert got == predicted[policy], (scenario.name, policy)
