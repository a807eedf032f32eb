"""Tests for the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench_schedule import (bfs_depths, open_loop_schedule, rank_by,  # noqa: E402
                            tiered_order, update_slots, zipf_weights)
from bench_calibrate import REFERENCE_TASK_S, Calibrator  # noqa: E402
from bench_metrics import end_to_end  # noqa: E402
from bench_stats import (MIN_BEYOND, Tally, busy_union,  # noqa: E402
                         median_of, percentile, tail_of, tail_quantile)
from bench_trace import (END, NAME, PARENT, RESULT_HOOKS, START,  # noqa: E402
                         THREAD, SpanRecorder, layer_table, self_times,
                         tracing)

URLS = [f"page{i}.html" for i in range(40)]


# -- schedule and ranking ---------------------------------------------------

class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = open_loop_schedule(URLS, 50.0, 1000, 100, seed=7)
        b = open_loop_schedule(URLS, 50.0, 1000, 100, seed=7)
        assert a == b

    def test_other_seed_other_schedule(self):
        a = open_loop_schedule(URLS, 50.0, 1000, 100, seed=7)
        b = open_loop_schedule(URLS, 50.0, 1000, 100, seed=8)
        assert a != b

    def test_fixed_rate_and_one_update_per_block(self):
        ops = open_loop_schedule(URLS, 40.0, 1000, 100, seed=3)
        assert [op.index for op in ops] == list(range(1000))
        assert all(op.due == pytest.approx(op.index / 40.0) for op in ops)
        for block in range(10):
            kinds = [op.kind for op in ops[block * 100:(block + 1) * 100]]
            assert kinds.count("update") == 1
        updates = [op.update_no for op in ops if op.kind == "update"]
        assert updates == list(range(10))
        assert [op.index for op in ops if op.kind == "update"] == \
            list(update_slots(1000, 100))
        assert all(op.url in URLS for op in ops if op.kind == "read")

    def test_zipf_prefers_rank_one(self):
        ops = open_loop_schedule(URLS, 40.0, 5000, 100, seed=3)
        reads = [op.url for op in ops if op.kind == "read"]
        assert reads.count(URLS[0]) > reads.count(URLS[1]) \
            > reads.count(URLS[-1])
        weights = zipf_weights(5)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0 and weights[1] == 0.5

    def test_rank_by_keys_then_seeded_ties(self):
        keys = {f"d{d}-{i}": (d,) for d in range(3) for i in range(10)}
        ranked = rank_by(keys, seed=5)
        assert [keys[item] for item in ranked] == sorted(keys.values())
        assert rank_by(keys, seed=5) == ranked
        assert rank_by(keys, seed=6) != ranked

    def test_tiered_order(self):
        items = [f"x{i}" for i in range(30)]
        order = tiered_order(items, lambda item: int(item[1:]) % 3, seed=2)
        tiers = [int(item[1:]) % 3 for item in order]
        assert tiers == sorted(tiers)
        assert order == tiered_order(items, lambda i: int(i[1:]) % 3, 2)
        assert order != tiered_order(items, lambda i: int(i[1:]) % 3, 4)

    def test_bfs_depths(self):
        links = {"root": ["a", "b"], "a": ["c"], "b": ["c", "root"],
                 "c": []}
        assert bfs_depths(["root"], links.__getitem__) == {
            "root": 0, "a": 1, "b": 1, "c": 2}


# -- percentile rule --------------------------------------------------------

class TestPercentileRule:
    def test_tail_leaves_ten_samples_beyond(self):
        for n in range(2 * MIN_BEYOND, 700, 7):
            samples = [float(i) for i in range(n)]
            summary = tail_of(samples, 0.95)
            assert summary.n == n
            assert summary.quantile <= 0.95
            beyond = sum(1 for s in samples if s > summary.value)
            assert beyond >= MIN_BEYOND, (n, summary)

    def test_tail_is_p95_when_enough_samples(self):
        samples = [float(i) for i in range(1000)]
        summary = tail_of(samples, 0.95)
        assert summary.quantile == 0.95
        assert summary.value == pytest.approx(percentile(samples, 0.95))

    def test_too_few_samples_report_the_median(self):
        assert tail_quantile(2 * MIN_BEYOND - 1) is None
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        summary = tail_of(samples)
        assert (summary.value, summary.quantile, summary.n) == (3.0, 0.5, 5)

    def test_median_reports_count(self):
        assert median_of([1.0, 2.0, 10.0, 11.0]).n == 4
        assert median_of([1.0, 2.0, 10.0, 11.0]).value == 6.0

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5
        with pytest.raises(ValueError):
            percentile([], 0.5)


# -- self time --------------------------------------------------------------

def _span(name, start, end, parent=-1, thread=1):
    return [name, start, end, parent, thread]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            _span("op:visit", 0.0, 10.0),                          # 0
            _span("site.server:DynamicSiteServer.request", 1.0, 9.0, 0),
            _span("repository.stats:GraphStatistics.gather", 2.0, 5.0, 1),
            _span("struql.plan:Plan.execute", 6.0, 8.0, 1),
            _span("struql.plan:Plan.execute", 6.5, 7.0, 3),       # recursion
        ]
        assert self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 1.5, 0.5])
        table = layer_table(spans)
        layers = table["layers"]
        assert layers["unattributed"] == {"calls": 1, "self_s": 2.0}
        assert layers["struql.plan"]["calls"] == 2
        assert layers["struql.plan"]["self_s"] == pytest.approx(2.0)
        assert table["traced_total_s"] == 10.0
        assert table["accounted_s"] == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [_span("op:x", 0.0, 10.0), _span("a:f", 1.0, 6.0, 0),
                 _span("a:g", 4.0, 8.0, 0), _span("a:h", 9.0, 12.0, 0)]
        # children cover [1, 8] and [9, 10] of the parent
        assert self_times(spans)[0] == pytest.approx(2.0)

    def test_threaded_spans_have_per_thread_parents(self):
        recorder = SpanRecorder()
        barrier = threading.Barrier(2)

        def work():
            with recorder.span("op:read"):
                barrier.wait(timeout=10)
                with recorder.span("templates.generator:HtmlGenerator"
                                   ".render"):
                    with recorder.span("struql.plan:Plan.execute"):
                        barrier.wait(timeout=10)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
            assert not thread.is_alive()
        spans = recorder.spans
        assert len(spans) == 6
        for span in spans:
            if span[PARENT] >= 0:
                assert spans[span[PARENT]][THREAD] == span[THREAD]
                assert spans[span[PARENT]][START] <= span[START]
                assert span[END] <= spans[span[PARENT]][END]
        roots = [s for s in spans if s[PARENT] < 0]
        assert len(roots) == 2 and all(s[NAME] == "op:read" for s in roots)
        table = layer_table(spans)
        assert table["layers"]["unattributed"]["calls"] == 2
        assert table["accounted_s"] == pytest.approx(
            table["traced_total_s"])
        assert table["traced_total_s"] == pytest.approx(
            sum(s[END] - s[START] for s in roots))

    def test_build_plans_count_inside_rebuilds_only(self):
        class Plan:
            render = ["a", "b"]
            skipped = ["c", "d", "e"]

        hook = RESULT_HOOKS[("BuildCache", "plan")]
        recorder = SpanRecorder()
        assert recorder.root() is None
        with recorder.span("op:build"):
            hook(recorder, Plan())
        with recorder.span("op:rebuild"):
            with recorder.span("site.buildcache:BuildCache.plan"):
                assert recorder.root() == "op:rebuild"
            hook(recorder, Plan())
        assert recorder.counts == {"site.buildcache.pages_rendered": 2,
                                   "site.buildcache.pages_skipped": 3}

    def test_unclosed_span_is_an_error(self):
        recorder = SpanRecorder()
        recorder.open("op:x")
        with pytest.raises(ValueError):
            layer_table(recorder.spans)

    def test_tracing_wraps_and_restores_entry_points(self):
        from repro.graph.model import Graph
        from repro.repository.stats import GraphStatistics
        original = GraphStatistics.__dict__["gather"]
        recorder = SpanRecorder()
        with tracing(recorder):
            with recorder.span("op:x"):
                GraphStatistics.gather(Graph("g"))
        assert GraphStatistics.__dict__["gather"] is original
        assert [s[NAME] for s in recorder.spans] == [
            "op:x", "repository.stats:GraphStatistics.gather"]
        GraphStatistics.gather(Graph("g"))      # untraced again
        assert len(recorder.spans) == 2


# -- failure accounting -----------------------------------------------------

class TestTally:
    def test_counts_each_operation_once(self):
        tally = Tally()
        assert tally.record() is True
        assert tally.record("", "") is True
        assert tally.record("status 404", "stale read") is False
        assert (tally.attempted, tally.failed) == (3, 1)
        assert tally.reasons == {"status 404": 1, "stale read": 1}
        assert tally.failed_frac == pytest.approx(1 / 3)

    def test_fail_last_and_merge(self):
        tally = Tally()
        tally.record()
        tally.fail_last("differs from cold build")
        assert (tally.attempted, tally.failed) == (1, 1)
        with pytest.raises(ValueError):
            tally.fail_last("again")
        other = Tally()
        other.record()
        other.record("status 500")
        tally.merge(other)
        assert (tally.attempted, tally.failed) == (3, 2)
        assert tally.reasons["status 500"] == 1

    def test_empty_tally(self):
        assert Tally().failed_frac == 0.0



# -- busy time and calibration ----------------------------------------------

class TestBusyUnion:
    def test_overlaps_count_once(self):
        assert busy_union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0

    def test_nested_and_unsorted(self):
        assert busy_union([(4.0, 5.0), (0.0, 3.0), (1.0, 2.0)]) == 4.0

    def test_empty(self):
        assert busy_union([]) == 0.0


class TestCalibration:
    def test_trimmed_mean_and_factor(self):
        calibrator = Calibrator()
        # the slowest and fastest tenth (one sample each) are left out
        calibrator.samples = [0.001] + [0.02] * 4 + [0.04] * 4 + [9.0]
        assert calibrator.task_s == pytest.approx(0.03)
        assert calibrator.factor == pytest.approx(REFERENCE_TASK_S / 0.03)

    def test_sample_times_the_task(self):
        calibrator = Calibrator()
        calibrator.sample(2)
        assert len(calibrator.samples) == 2
        assert all(0 < t < 10 for t in calibrator.samples)
        calibrator.maybe_sample()   # too soon after the last sample
        assert len(calibrator.samples) == 2

    def test_scaling_leaves_memory_alone(self):
        class Outcome:
            samples = {"setup_s": [0.5], "crawl_s": [2.0],
                       "first_visit_s": [0.01, 0.03]}
            peak_rss_mb = 40.0
        plain = end_to_end("click-cold", Outcome())
        scaled = end_to_end("click-cold", Outcome(), 0.5)
        assert scaled["setup_s"].value == pytest.approx(0.25)
        assert scaled["cold_pass_s"].value == pytest.approx(1.0)
        assert scaled["op_p50_ms"].value == pytest.approx(10.0)
        assert scaled["ops_per_s"].value == pytest.approx(
            2 * plain["ops_per_s"].value)
        assert scaled["peak_rss_mb"].value == 40.0
