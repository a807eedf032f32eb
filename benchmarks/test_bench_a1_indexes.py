"""Experiment A1: the full-indexing design choice (section 2.2).

The paper: "maintaining these indexes is expensive, but they provide
many benefits to our query language".  We measure both halves — index
build cost, and query latency with and without indexes — across data
sizes, on a backward-anchored workload where the backward index is the
winning access path.
"""

import time

import pytest

from repro.datagen import generate_bibtex
from repro.repository import GraphIndex, GraphStatistics
from repro.struql import QueryEngine, parse_query
from repro.wrappers import BibTexWrapper

EXPERIMENT = "A1: indexing ablation"

#: Backward-anchored lookup: which publications appeared in 1995?  A
#: backward index answers directly; a scan walks every edge.
LOOKUP_QUERY = """
input BIBTEX
where p -> "year" -> 1995
create Hit(p)
collect Hits(Hit(p))
output O
"""


def _data(entries: int):
    return BibTexWrapper().wrap(generate_bibtex(entries, seed=3), "BIBTEX")


def _warm(data) -> None:
    """Build the graph's memoized index and statistics before timing,
    so timed evaluations measure lookups, not the one-off builds."""
    data.derived(GraphIndex.build)
    data.derived(GraphStatistics.gather)


@pytest.mark.parametrize("entries", [50, 200, 800])
@pytest.mark.parametrize("indexing", [True, False])
def test_lookup_with_and_without_indexes(benchmark, experiment, entries,
                                         indexing):
    data = _data(entries)
    engine = QueryEngine(indexing=indexing)
    _warm(data)
    query = parse_query(LOOKUP_QUERY)

    result = benchmark(lambda: engine.evaluate(query, data))
    hits = len(result.output.collection("Hits"))
    assert hits > 0
    experiment.row(entries=entries,
                   mode="indexed" if indexing else "scan",
                   edges=data.edge_count, hits=hits)


def test_index_build_cost(benchmark, experiment):
    """The 'maintaining these indexes is expensive' half of the claim."""
    data = _data(800)
    index = benchmark(GraphIndex.build, data)
    assert index.fresh
    experiment.row(entries=800, mode="index build",
                   edges=data.edge_count,
                   hits=f"{len(index.labels())} labels, "
                        f"{len(index.atoms())} values")


def test_speedup_shape(experiment, benchmark):
    """The paper's trade-off holds: indexed lookup latency grows far
    slower than scan latency as data grows."""
    warm = _data(100)
    _warm(warm)
    warm_engine = QueryEngine(indexing=True)
    warm_query = parse_query(LOOKUP_QUERY)
    benchmark(lambda: warm_engine.evaluate(warm_query, warm))
    timings = {}
    for entries in (100, 800):
        data = _data(entries)
        _warm(data)
        query = parse_query(LOOKUP_QUERY)
        for indexing in (True, False):
            engine = QueryEngine(indexing=indexing)
            started = time.perf_counter()
            for _ in range(20):
                engine.evaluate(query, data)
            timings[(entries, indexing)] = time.perf_counter() - started
    small_speedup = timings[(100, False)] / timings[(100, True)]
    large_speedup = timings[(800, False)] / timings[(800, True)]
    experiment.row(entries=100, mode="scan/indexed latency ratio",
                   edges="", hits=f"{small_speedup:.1f}x")
    experiment.row(entries=800, mode="scan/indexed latency ratio",
                   edges="", hits=f"{large_speedup:.1f}x")
    # Direction: indexed access wins clearly at the larger size (the
    # growth trend is reported above; exact ratios are noisy).
    assert large_speedup > 1.2
