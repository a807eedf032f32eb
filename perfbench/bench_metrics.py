"""Metric computation from a workload outcome.

The metric names, units, directions and bounds are those of
``BENCHMARK.json`` at the repository root; this module only computes
them.  What each end-to-end metric means on each workload, and which
end-to-end metric each layer should move, is stated in README.md.  The
workload's own names for the same numbers (``build_s``,
``first_visit_p50_ms``, ...) are printed alongside by
:func:`named_metrics`.
"""

from __future__ import annotations

import json
import os

from bench_stats import Summary, median_of, tail_of

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _ms(summary: Summary) -> Summary:
    return Summary(summary.value * 1000.0, summary.quantile, summary.n)


def _op_samples(workload: str, samples) -> tuple[list, int, float]:
    """(latencies for op_p50_ms, operations done, seconds busy)."""
    if workload == "static-org":
        rounds = samples["round_s"]
        return rounds, len(rounds), sum(rounds)
    if workload == "click-cold":
        visits = samples["first_visit_s"]
        return visits, len(visits), sum(visits)
    # The loop's operations overlap on two workers: busy time is the
    # time at least one of them was serving.
    return (samples["read_service_s"], sum(samples["loop_ops"]),
            sum(samples["loop_busy_s"]))


def _scaled(summary: Summary, factor: float) -> Summary:
    return Summary(summary.value * factor, summary.quantile, summary.n)


def end_to_end(workload: str, outcome, speed: float = 1.0
               ) -> dict[str, Summary]:
    """Every end-to-end metric of one untraced pass.

    Times are multiplied, and rates divided, by ``speed``: the
    calibration factor that brings them to the reference speed.
    """
    samples = outcome.samples
    cold_key = {"static-org": "build_s", "click-cold": "crawl_s",
                "serve-mixed": "cold_pass_s"}[workload]
    latencies, done, busy = _op_samples(workload, samples)
    return {
        "setup_s": _scaled(median_of(samples["setup_s"]), speed),
        "peak_rss_mb": Summary(outcome.peak_rss_mb, 1.0, 1),
        "cold_pass_s": _scaled(median_of(samples[cold_key]), speed),
        "op_p50_ms": _scaled(_ms(median_of(latencies)), speed),
        "ops_per_s": Summary(done / busy / speed, 1.0, done),
    }


def named_metrics(workload: str, outcome) -> dict[str, tuple[Summary, str]]:
    """The workload's own metrics, by the names the docs use."""
    samples = outcome.samples
    out = {
        "setup_s": (median_of(samples["setup_s"]), "s"),
        "peak_rss_mb": (Summary(outcome.peak_rss_mb, 1.0, 1), "MiB"),
        "ops_failed_frac": (Summary(outcome.tally.failed_frac, 1.0,
                                    outcome.tally.attempted), "ratio"),
    }
    if workload == "static-org":
        out["build_s"] = (median_of(samples["build_s"]), "s")
        out["rebuild_p50_s"] = (median_of(samples["rebuild_s"]), "s")
        for kind in ("rebuild_person", "rebuild_new_pub"):
            out[f"{kind}_p50_s"] = (median_of(samples[f"{kind}_s"]), "s")
    elif workload == "click-cold":
        visits = samples["first_visit_s"]
        out["first_visit_p50_ms"] = (_ms(median_of(visits)), "ms")
        out["first_visit_p95_ms"] = (_ms(tail_of(visits, 0.95)), "ms")
        out["first_visits_per_s"] = (
            Summary(len(visits) / sum(samples["crawl_s"]), 1.0,
                    len(visits)), "1/s")
    else:
        out["read_p50_ms"] = (_ms(median_of(samples["read_s"])), "ms")
        out["read_p95_ms"] = (_ms(tail_of(samples["read_s"], 0.95)), "ms")
        fresh = samples["update_fresh_s"]
        if fresh:
            out["update_fresh_p50_ms"] = (_ms(median_of(fresh)), "ms")
    return out


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(table: dict, traced, untraced, counts: dict) -> dict:
    """Every per-layer metric from a traced pass and its untraced twin.

    ``counts`` are the span recorder's result counters.
    """
    out: dict[str, float] = {}
    for layer, row in table["layers"].items():
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.self_s"] = row["self_s"]
    total = table["traced_total_s"]
    c = traced.counts
    rendered = counts.get("site.buildcache.pages_rendered", 0)
    skipped = counts.get("site.buildcache.pages_skipped", 0)
    queue = traced.samples.get("queue_wait_s") or []
    out.update({
        "struql.plan.rows_out": counts.get("struql.plan.rows_out", 0),
        "site.buildcache.pages_rendered": rendered,
        "site.buildcache.skip_ratio": _ratio(skipped, rendered),
        "site.incremental.page_cache_hit_ratio": _ratio(
            c.get("page_cache_hits", 0), c.get("page_cache_misses", 0)),
        "site.incremental.bindings_cache_hit_ratio": _ratio(
            c.get("bindings_cache_hits", 0),
            c.get("bindings_cache_misses", 0)),
        "struql.matview.hit_ratio": _ratio(
            c.get("matview_hits", 0), c.get("matview_misses", 0)),
        "struql.matview.views_dropped_per_update": (
            c.get("matview_views_dropped", 0) / c["updates"]
            if c.get("updates") else 0.0),
        "site.server.queue_wait_p95_ms": (
            1000.0 * tail_of(queue, 0.95).value if queue else 0.0),
        "unattributed.share": (table["layers"]["unattributed"]["self_s"]
                               / total if total else 0.0),
        "traced_total_s": total,
        "untraced_total_s": untraced.busy_s,
        "tracing_overhead_s": traced.busy_s - untraced.busy_s,
        "tracing_overhead_pct": (100.0 * (traced.busy_s - untraced.busy_s)
                                 / untraced.busy_s
                                 if untraced.busy_s else 0.0),
    })
    return out
