"""The three benchmark workloads, driven through the public API.

Each ``run_*`` function makes its inputs from the seed, measures for
about ``seconds`` (or for a fixed amount of work when ``iterations`` is
given: the traced pass repeats exactly the untraced pass's work), runs
its correctness checks outside the timed regions, and returns a
:class:`Outcome`.  Given a :class:`~bench_calibrate.Calibrator`, it
samples the machine's speed between timed operations.

* ``static-org`` -- batch build of the organization site, then seeded
  small edits each followed by a cached rebuild.
* ``click-cold`` -- first visits to a fresh click-time server, one
  client, every page once by URL, leaves before hubs.
* ``serve-mixed`` -- an open loop of Zipf-ranked reads and 1% updates on
  two worker threads over a warmed click-time server.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import random
import resource
import shutil
import tempfile
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.datagen.bibtex import generate_bibtex
from repro.datagen.org import build_org_mediator
from repro.graph.model import Graph, Oid
from repro.graph.values import Atom
from repro.site.builder import Website
from repro.site.server import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig7_templates
from repro.sites.org import ORG_QUERY, org_templates
from repro.struql.evaluator import QueryEngine
from repro.struql.matview import ChangeSummary
from repro.wrappers.bibtex import BibTexWrapper

from bench_calibrate import EDGE_SAMPLES, maybe_sample
from bench_schedule import (bfs_depths, open_loop_schedule, rank_by,
                            tiered_order, update_slots)
from bench_stats import Tally, busy_union

# -- sizes and rates (fixed, stated inputs) --------------------------------

ORG_PEOPLE = 400
ORG_PROJECTS = ORG_PEOPLE // 20       # the A8 proportions
ORG_PUBLICATIONS = ORG_PEOPLE // 8
EDITS_PER_CYCLE = 2                   # one person edit, one new publication

CLICK_ENTRIES = 480                   # ~5.4k data edges, 500 pages
#: Visit order tiers of the Fig 3 site: leaf pages, then the pages
#: that embed many presentations, then the two hubs.  A hub visited
#: early precomputes the views of the pages it embeds, so later visits
#: to those pages would be cache hits rather than first visits.
CLICK_TIERS = {"AbstractPage": 0, "YearPage": 1, "CategoryPage": 1,
               "AbstractsPage": 2, "RootPage": 2}

SERVE_ENTRIES = 120                   # ~1.3k data edges, 140 pages
#: Arrivals per second: about a third of the closed-loop capacity
#: (~125 ops/s with two workers).  At half capacity the median read
#: falls on the edge between reads that wait behind a post-update
#: recompute and reads that do not, and flips between runs.
SERVE_RATE = 40.0
SERVE_UPDATE_EVERY = 100              # 1% of operations are updates
SERVE_WORKERS = 2
SERVE_SEGMENTS = 20                   # fresh server + cold pass + loop share
SERVE_VERIFY_SAMPLE = 24              # pages checked against a reference

SETUP_REPEATS = 9                     # least set-ups per run, for the median

#: The reference for click-time bodies: an uncached server whose engine
#: orders conditions without statistics.  An uncached server with the
#: default cost optimizer gathers statistics for every page compute
#: and takes ~20 s over the click-cold data; this one takes ~1 s and
#: also cross-checks two optimizers.
REFERENCE_OPTIMIZER = "heuristic"


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    tally: Tally = field(default_factory=Tally)
    counts: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    busy_s: float = 0.0          # summed duration of timed operations
    peak_rss_mb: float = 0.0


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op(recorder, kind: str):
    return recorder.span("op:" + kind) if recorder else nullcontext()


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8", "surrogatepass")).hexdigest()


def _reference_server(data: Graph, templates) -> DynamicSiteServer:
    server = DynamicSiteServer(
        FIG3_QUERY, data, templates, cache=False,
        engine=QueryEngine(optimizer=REFERENCE_OPTIMIZER))
    server.warm()
    return server


def _in_child(fn, *args):
    """``fn(*args)`` computed in a forked child process and returned.

    The benchmark's own preparation runs there, so the memory it needs
    never counts toward this process's ``peak_rss_mb``."""
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(fn, *args).result()


def _site_shape(text: str, new_pubs: tuple[str, ...] = ()):
    """The pages of the materialized Fig 3 site over ``text``.

    An independent enumeration: the server under test does not decide
    which pages exist.  Returns ``{url: (Skolem function, BFS depth from
    the root or None)}``, the YearPage URL of each year, and the
    AbstractPage URL that publication oids ``new_pubs`` will get.
    """
    data = BibTexWrapper().wrap(text, "BIBTEX")
    site = Website(data, FIG3_QUERY, fig7_templates())
    generator = site.generator()
    graph = site.site_graph
    pages = generator.pages()
    depths = bfs_depths(
        [n for n in graph.nodes() if n.skolem_fn == "RootPage"],
        lambda node: [e.target for e in graph.out_edges(node)
                      if isinstance(e.target, Oid)])
    shape = {generator.url_for(p): (p.skolem_fn, depths.get(p))
             for p in pages}
    year_url = {graph.get_one(p, "Year").value: generator.url_for(p)
                for p in pages if p.skolem_fn == "YearPage"}
    new_urls = [generator.url_for(Oid.skolem("AbstractPage", (Oid(name),)))
                for name in new_pubs]
    return shape, year_url, new_urls


# -- static-org ------------------------------------------------------------

def _edit_person(data: Graph, rng: random.Random) -> None:
    """Replace one attribute of one person (detach and re-add)."""
    person = rng.choice(sorted(data.collection("Persons"), key=str))
    label = rng.choice(("phone", "office", "title"))
    value = {"phone": f"973-555-{rng.randint(1000, 9999)}",
             "office": f"C{rng.randint(300, 399)}",
             "title": rng.choice(("principal researcher", "fellow",
                                  "visiting scientist"))}[label]
    edges = [(edge.label, edge.target) for edge in data.out_edges(person)]
    collections = data.collections_of(person)
    data.detach_node(person)
    replaced = False
    for edge_label, target in edges:
        if edge_label == label:
            if replaced:
                continue
            target, replaced = Atom.string(value), True
        data.add_edge(person, edge_label, target)
    if not replaced:
        data.add_edge(person, label, Atom.string(value))
    for name in collections:
        data.add_to_collection(name, person)


def _edit_new_publication(data: Graph, rng: random.Random, n: int) -> None:
    """Add one publication by an existing person."""
    person = rng.choice(sorted(data.collection("Persons"), key=str))
    author = data.get_one(person, "name")
    pub = Oid(f"BenchPublication{n}")
    data.add_to_collection("Publications", pub)
    data.add_edge(pub, "title", Atom.string(f"Benchmark Paper {n}"))
    if author is not None:
        data.add_edge(pub, "author", author)
    data.add_edge(pub, "year", Atom.int(rng.randint(1990, 1998)))
    data.add_edge(pub, "booktitle", Atom.string("Proc. of SIGMOD"))
    data.add_edge(pub, "postscript", Atom.file(f"papers/bench{n}.ps.gz"))


def _tree(root: str) -> dict[str, str]:
    """``{relative path: content hash}`` of every file under ``root``."""
    out = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = hashlib.sha1(
                    handle.read()).hexdigest()
    return out


def run_static_org(seed: int, seconds: float, workdir: str,
                   recorder=None, iterations: int | None = None,
                   calibrator=None) -> Outcome:
    """Cycles of: a cold build, seeded edits each followed by a cached
    rebuild, and a cold build of the edited data (which the cached
    output must equal byte for byte).

    Set-up (timed) is wrapping plus mediation (``Mediator.warehouse``);
    generating the raw sources is not.
    """
    outcome = Outcome()
    rng = random.Random(seed)
    templates = org_templates()
    new_pubs = itertools.count(1)

    def set_up() -> Graph:
        mediator = build_org_mediator(ORG_PEOPLE, ORG_PROJECTS,
                                      ORG_PUBLICATIONS, seed=seed)
        maybe_sample(calibrator)
        with _op(recorder, "setup"):
            started = time.perf_counter()
            data = mediator.warehouse()
            data.name = "ORGDATA"
            seconds_ = time.perf_counter() - started
        outcome.samples["setup_s"].append(seconds_)
        outcome.busy_s += seconds_
        return data

    def build(data: Graph, out: str, cache: str | None, kind: str):
        maybe_sample(calibrator)
        with _op(recorder, kind):
            started = time.perf_counter()
            report = Website(data, ORG_QUERY, templates).build_site(
                out, jobs=1, cache_dir=cache)
            seconds_ = time.perf_counter() - started
        outcome.busy_s += seconds_
        return report, seconds_

    deadline = time.perf_counter() + seconds
    cycle = 0
    while (cycle < iterations if iterations is not None
           else cycle == 0 or time.perf_counter() < deadline):
        data = set_up()
        out = tempfile.mkdtemp(prefix="out-", dir=workdir)
        cache = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        report, took = build(data, out, cache, "build")
        outcome.samples["build_s"].append(took)
        outcome.tally.record("" if report.pages_rendered else
                             "cold build rendered no pages")
        for step in range(EDITS_PER_CYCLE):
            if (step + cycle) % 2 == 0:
                _edit_person(data, rng)
                kind = "rebuild_person_s"
            else:
                _edit_new_publication(data, rng, next(new_pubs))
                kind = "rebuild_new_pub_s"
            report, took = build(data, out, cache, "rebuild")
            outcome.samples["rebuild_s"].append(took)
            outcome.samples[kind].append(took)
            if step % 2:   # a round: one edit of each kind, rebuilt
                outcome.samples["round_s"].append(
                    took + outcome.samples["rebuild_s"][-2])
            outcome.tally.record()
        # A second cold build, of the edited data, is both a build_s
        # sample and the check: the cached result must equal it.
        fresh = tempfile.mkdtemp(prefix="fresh-", dir=workdir)
        fresh_cache = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        report, took = build(data, fresh, fresh_cache, "build")
        outcome.samples["build_s"].append(took)
        if _tree(out) != _tree(fresh):
            outcome.tally.fail_last(
                "cached rebuild differs from a cold build")
        outcome.tally.record("" if report.pages_rendered else
                             "cold build rendered no pages")
        for path in (out, cache, fresh, fresh_cache):
            shutil.rmtree(path, ignore_errors=True)
        data = None   # set-ups must not stack on this cycle's data
        set_up()   # one more set-up sample, later in the run
        cycle += 1
    while len(outcome.samples["setup_s"]) < SETUP_REPEATS:
        set_up()
    outcome.iterations = cycle
    outcome.peak_rss_mb = peak_rss_mb()
    return outcome


# -- click-cold ------------------------------------------------------------

def run_click_cold(seed: int, seconds: float, workdir: str,
                   recorder=None, iterations: int | None = None,
                   calibrator=None) -> Outcome:
    """Crawls of a fresh server: every page once by URL, in tiers.

    Set-up (timed) is wrapping the BibTeX text, constructing the server
    and ``warm()``; generating the text is not.
    """
    outcome = Outcome()
    templates = fig7_templates()
    text = generate_bibtex(CLICK_ENTRIES, seed=seed)
    shape, _, _ = _in_child(_site_shape, text)
    # url -> Counter of (status, body digest), one count per visit
    visits: dict[str, Counter] = defaultdict(Counter)
    counts = defaultdict(float)

    def set_up() -> DynamicSiteServer:
        maybe_sample(calibrator)
        with _op(recorder, "setup"):
            started = time.perf_counter()
            data = BibTexWrapper().wrap(text, "BIBTEX")
            server = DynamicSiteServer(FIG3_QUERY, data, templates)
            server.warm()
            took = time.perf_counter() - started
        outcome.samples["setup_s"].append(took)
        outcome.busy_s += took
        return server

    deadline = time.perf_counter() + seconds
    crawl = 0
    while (crawl < iterations if iterations is not None
           else crawl == 0 or time.perf_counter() < deadline):
        server = set_up()
        order = tiered_order(
            shape, lambda url: CLICK_TIERS.get(shape[url][0], 1),
            seed * 7919 + crawl)
        crawl_s = 0.0
        for url in order:
            maybe_sample(calibrator)
            with _op(recorder, "visit"):
                started = time.perf_counter()
                response = server.request(url)
                took = time.perf_counter() - started
            crawl_s += took
            outcome.samples["first_visit_s"].append(took)
            visits[url][response.status, _digest(response.body)] += 1
        outcome.samples["crawl_s"].append(crawl_s)
        outcome.busy_s += crawl_s
        for key, value in _cache_counts(server).items():
            counts[key] += value
        server = None   # the next set-up must not stack on this server
        crawl += 1
    while len(outcome.samples["setup_s"]) < SETUP_REPEATS:
        set_up()
    outcome.iterations = crawl
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.counts.update(counts)

    # Checks (untimed): every body equals the uncached reference's.
    reference = _reference_server(BibTexWrapper().wrap(text, "BIBTEX"),
                                  templates)
    for url, seen in visits.items():
        response = reference.request(url)
        expected = (response.status, _digest(response.body))
        for (status, digest), times in seen.items():
            for _ in range(times):
                outcome.tally.record(
                    "" if status == 200 else f"status {status}",
                    "" if (200, digest) == expected or status != 200
                    else "body differs from uncached reference")
    return outcome


def _cache_counts(server: DynamicSiteServer) -> dict[str, int]:
    """The server's cumulative click-time cache counters."""
    snapshot = server.cache_snapshot()
    out = {key: snapshot[key] for key in (
        "page_cache_hits", "page_cache_misses",
        "bindings_cache_hits", "bindings_cache_misses")}
    for key in ("hits", "misses", "views_dropped"):
        out["matview_" + key] = server.matviews.stats[key]
    return out


# -- serve-mixed -----------------------------------------------------------

@dataclass
class _Update:
    """One scheduled data update and the fresh read that must show it.

    ``reads`` are the pages the fresh read visits, in order and by URL,
    each with the texts its body must contain; every later read of
    those pages must contain them too.  A new publication is read the
    way a visitor reaches it: its YearPage, which must list and link
    it, then that link.
    """

    mutate: object
    change: ChangeSummary
    reads: tuple[tuple[str, tuple[str, ...]], ...]
    new_url: str | None = None   # the page the update adds, if any


def _new_pub_name(n: int) -> str:
    return f"benchpub{n}"


def _plan_updates(count: int, rng: random.Random, data: Graph,
                  year_url: dict, abstract_url: dict) -> list[_Update]:
    """Alternate: an author added to an existing publication, then a
    new publication (``abstract_url`` maps its oid name to the URL of
    its page).  Each carries an honest :class:`ChangeSummary`."""
    pubs = sorted(data.collection("Publications"), key=str)
    years = sorted(year_url)
    categories = sorted({str(a.value) for p in pubs
                         for a in data.get(p, "category")}) or ["Misc"]
    updates = []
    for n in range(count):
        if n % 2 == 0:
            pub = rng.choice(pubs)
            author = f"Bench Author{n}"
            year = data.get_one(pub, "year").value

            def mutate(graph, pub=pub, author=author):
                graph.add_edge(pub, "author", Atom.string(author))

            updates.append(_Update(mutate, ChangeSummary.for_labels(
                "author"), ((year_url[year], (author,)),)))
        else:
            pub = Oid(_new_pub_name(n))
            new_url = abstract_url[pub.name]
            title = f"Benchmark Paper {n}"
            year = rng.choice(years)
            category = rng.choice(categories)

            def mutate(graph, pub=pub, title=title, year=year,
                       category=category):
                graph.add_to_collection("Publications", pub)
                graph.add_edge(pub, "title", Atom.string(title))
                graph.add_edge(pub, "author", Atom.string("Bench Writer"))
                graph.add_edge(pub, "year", Atom.int(year))
                graph.add_edge(pub, "category", Atom.string(category))
                graph.add_edge(pub, "postscript",
                               Atom.file(f"papers/{pub.name}.ps.gz"))

            updates.append(_Update(
                mutate,
                ChangeSummary(labels=frozenset({"title", "author", "year",
                                                "category", "postscript"}),
                              collections=frozenset({"Publications"})),
                ((year_url[year], (title, f'href="{new_url}"')),
                 (new_url, (title,))),
                new_url))
    return updates


def run_serve_mixed(seed: int, seconds: float, workdir: str,
                    recorder=None, iterations: int | None = None,
                    calibrator=None) -> Outcome:
    """Open loop at :data:`SERVE_RATE`, in :data:`SERVE_SEGMENTS` segments.

    Each segment sets up a fresh server (timed: wrapping, construction
    and ``warm()``), serves every page once (the timed cold pass), then
    runs its share of the open loop.  Spreading set-ups over the run
    keeps them from all landing in one phase of the machine's speed.
    ``iterations`` fixes the total operation count.
    """
    outcome = Outcome()
    templates = fig7_templates()
    text = generate_bibtex(SERVE_ENTRIES, seed=seed)
    n_ops = iterations if iterations is not None \
        else max(SERVE_SEGMENTS, int(SERVE_RATE * seconds))
    n_updates = len(update_slots(n_ops, SERVE_UPDATE_EVERY))
    new_pubs = tuple(_new_pub_name(n) for n in range(1, n_updates, 2))
    shape, year_url, new_urls = _in_child(_site_shape, text, new_pubs)
    # Popularity: Zipf over pages by BFS depth from the root, ties
    # shuffled by the seed.
    ranked = rank_by({url: depth for url, (_, depth) in shape.items()
                      if depth is not None}, seed)
    ops = open_loop_schedule(ranked, SERVE_RATE, n_ops,
                             SERVE_UPDATE_EVERY, seed)
    updates = _plan_updates(
        n_updates, random.Random(seed),
        BibTexWrapper().wrap(text, "BIBTEX"), year_url,
        dict(zip(new_pubs, new_urls)))
    counts = defaultdict(float)
    bounds = [n_ops * k // SERVE_SEGMENTS
              for k in range(SERVE_SEGMENTS + 1)]
    for segment in range(SERVE_SEGMENTS):
        server = data = None   # this set-up must not stack on the last
        maybe_sample(calibrator)
        with _op(recorder, "setup"):
            started = time.perf_counter()
            data = BibTexWrapper().wrap(text, "BIBTEX")
            server = DynamicSiteServer(FIG3_QUERY, data, templates)
            server.warm()
            took = time.perf_counter() - started
        outcome.samples["setup_s"].append(took)
        outcome.busy_s += took
        cold_s = 0.0
        for url in tiered_order(ranked, lambda url: 0, seed + segment):
            maybe_sample(calibrator)
            with _op(recorder, "touch"):
                started = time.perf_counter()
                response = server.request(url)
                took = time.perf_counter() - started
            cold_s += took
            outcome.tally.record("" if response.status == 200
                                 else f"status {response.status}")
        outcome.samples["cold_pass_s"].append(cold_s)
        outcome.busy_s += cold_s
        before = _cache_counts(server)
        _open_loop(server, ops[bounds[segment]:bounds[segment + 1]],
                   updates, outcome, recorder)
        if calibrator is not None:   # none is taken inside the loop
            calibrator.sample(EDGE_SAMPLES)
        for key, value in _cache_counts(server).items():
            counts[key] += value - before[key]
    outcome.iterations = n_ops
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.counts.update(counts)
    outcome.counts["updates"] = len(updates)

    # Checks (untimed): a seeded sample of pages, old and new, against
    # an uncached server over the last segment's final data.  The new
    # pages are those of the last segment's updates: the earlier
    # segments' servers, and their updates, are gone.
    reference = _reference_server(server.site.data, templates)
    candidates = sorted(ranked) + sorted(
        {updates[op.update_no].new_url for op in ops[bounds[-2]:]
         if op.kind == "update" and updates[op.update_no].new_url})
    for url in random.Random(seed + 1).sample(
            candidates, min(SERVE_VERIFY_SAMPLE, len(candidates))):
        got, want = server.request(url), reference.request(url)
        outcome.tally.record(
            "" if got.status == 200 else f"verify status {got.status}",
            "" if got.status != 200 or (got.status, got.body) ==
            (want.status, want.body) else "verify body differs")
    return outcome


def _open_loop(server: DynamicSiteServer, ops, updates, outcome: Outcome,
               recorder) -> None:
    """Run ``ops`` against ``server`` on :data:`SERVE_WORKERS` threads.

    Each worker takes the next operation, sleeps until it is due, and
    runs it; an operation is late when both workers were busy.  Reads
    are checked for status and staleness: once an update returns, every
    read of a page that must show it and starts later must show it.
    """
    if not ops:
        return
    records: list = [None] * len(ops)
    must_show: dict[str, list[tuple[float, str]]] = defaultdict(list)
    lock = threading.Lock()
    next_op = itertools.count()
    t0 = time.perf_counter() + 0.05 - ops[0].due

    def stale(url: str, started: float, body: str) -> str:
        with lock:
            needles = [needle for done, needle in must_show.get(url, ())
                       if started > done]
        return "stale read" if any(n not in body for n in needles) else ""

    def worker() -> None:
        while True:
            i = next(next_op)
            if i >= len(ops):
                return
            op = ops[i]
            due = t0 + op.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            started = time.perf_counter()
            if op.kind == "read":
                with _op(recorder, "read"):
                    response = server.request(op.url)
                ended = time.perf_counter()
                problems = ("" if response.status == 200
                            else f"status {response.status}",
                            stale(op.url, started, response.body))
            else:
                update = updates[op.update_no]
                with _op(recorder, "update"):
                    server.update(update.mutate, update.change)
                    done = time.perf_counter()
                    with lock:
                        for url, needles in update.reads:
                            must_show[url].extend(
                                (done, needle) for needle in needles)
                    problems = ()
                    for url, needles in update.reads:
                        response = server.request(url)
                        if response.status != 200:
                            problems = (
                                f"fresh read status {response.status}",)
                        elif any(n not in response.body for n in needles):
                            problems = ("fresh read misses the update",)
                        if problems:
                            break
                ended = time.perf_counter()
            records[i] = (op.kind, due, started, ended, problems)

    threads = [threading.Thread(target=worker, name=f"bench-worker-{k}")
               for k in range(SERVE_WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for kind, due, started, ended, problems in records:
        ok = outcome.tally.record(*problems)
        outcome.busy_s += ended - started
        outcome.samples["queue_wait_s"].append(started - due)
        if kind == "read":
            outcome.samples["read_s"].append(ended - due)
            outcome.samples["read_service_s"].append(ended - started)
        elif ok:
            outcome.samples["update_fresh_s"].append(ended - due)
    outcome.samples["loop_busy_s"].append(busy_union(
        (started, ended) for _, _, started, ended, _ in records))
    outcome.samples["loop_ops"].append(len(records))


WORKLOADS = {
    "static-org": run_static_org,
    "click-cold": run_click_cold,
    "serve-mixed": run_serve_mixed,
}
