"""
Trace forensics and threshold tuning
====================================

Offline analysis of traces: per-worker aggregates, cross-worker percentiles
with rank bands, and CDF export. This is the pipeline that justifies the
default thresholds (14 pushes/hour at p90, 5 min/activation and 5 background
fetches at p99, 90 min/day at p95).

    python3 demos/05_forensics_pipeline.py
"""

import io
import random

from sw_sentinel import RankBand, analyze_trace, export_cdf, percentile, summarize
from sw_sentinel.scenarios import gen_benign, gen_push_flood

HOUR = 3_600_000

# -- Build a small synthetic population: mostly benign, a few abusers -----------
rng = random.Random(1)
reports = {}
metadata = {}
for i in range(45):
    rate = rng.randint(1, 9)
    events = gen_benign(i, push_rate=rate, exec_min_per_day=rng.randint(5, 60),
                        fetches_per_activation=rng.randint(0, 3), duration_ms=6 * HOUR)
    report = analyze_trace(events)["sw-benign"]
    reports[f"sw-{i}"] = report
    metadata[f"sw-{i}"] = {"rank": 100 + i * 90}
for i in range(5):
    events = gen_push_flood(i, pushes_per_hour=rng.randint(30, 60),
                            duration_ms=6 * HOUR)
    reports[f"sw-hot-{i}"] = analyze_trace(events)["sw-pushflood"]
    metadata[f"sw-hot-{i}"] = {"rank": 90_000 + i}

# -- Percentiles over the pooled hour-slot counts --------------------------------
bands = [RankBand("top-5k", 1, 5_000), RankBand("tail", 5_001, 200_000)]
summaries = summarize(reports, "pushes_per_hour", bands, metadata)
for label, summary in summaries.items():
    print(f"{label:8s} p50={summary.p50:4.0f} p90={summary.p90:4.0f} "
          f"p99={summary.p99:4.0f} max={summary.max:4.0f}")

# How many workers would a 14/hour policy actually touch?
overall = summaries["overall"]
print("workers affected by a 14/hour limit:",
      overall.affected_sw_count_at(14), "of", len(reports))

# -- CDF export (the distribution behind each figure) ------------------------------
values = [c for r in reports.values() for c in r.pushes_per_hour_slots]
buffer = io.StringIO()
rows = export_cdf(values, buffer)
print("cdf points:", len(rows), "| first:", rows[0], "| last:", rows[-1])
print("p90 of pooled hour counts:", percentile(values, 90))
