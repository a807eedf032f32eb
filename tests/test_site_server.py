"""The dynamic page server: click-time rendering, crawling, caching."""

import pytest

from repro.graph import Atom, Oid
from repro.site import DynamicSiteServer
from repro.sites.homepage import FIG3_QUERY, fig7_templates
from repro.struql.matview import ChangeSummary


@pytest.fixture
def server(fig2_graph):
    return DynamicSiteServer(FIG3_QUERY, fig2_graph, fig7_templates())


class TestRequests:
    def test_root_served(self, server):
        root = server.roots()[0]
        response = server.request(root)
        assert response.status == 200
        assert "Publications" in response.body

    def test_request_by_path(self, server):
        response = server.request("RootPage__.html")
        assert response.status == 200

    def test_year_page_contains_presentation(self, server):
        response = server.request(
            Oid.skolem("YearPage", (Atom.int(1997),)))
        assert response.status == 200
        assert "Specifying Representations" in response.body

    def test_unknown_page_404(self, server):
        response = server.request("nope.html")
        assert response.status == 404
        assert server.log.errors == 1

    def test_latencies_recorded(self, server):
        server.request(server.roots()[0])
        server.request(server.roots()[0])
        assert server.log.requests == 2
        assert len(server.log.latencies) == 2
        assert server.log.mean_latency > 0

    def test_percentile_latencies(self, server):
        for _ in range(20):
            server.request(server.roots()[0])
        log = server.log
        assert log.p50_latency > 0
        assert log.p95_latency >= log.p50_latency
        assert log.histogram.count == 20

    def test_latency_samples_are_bounded(self):
        from repro.site.server import ServerLog
        log = ServerLog()
        for i in range(ServerLog.MAX_SAMPLES * 4):
            log.record(0.001 * (i % 10 + 1))
        assert len(log.latencies) == ServerLog.MAX_SAMPLES
        assert isinstance(log.latencies, tuple)
        assert log.requests == 0  # record() only accounts latency
        assert log.histogram.count == ServerLog.MAX_SAMPLES * 4

    def test_rendered_equals_materialized(self, server, fig4_site,
                                          fig2_graph):
        """Click-time HTML equals build-time HTML for every page."""
        from repro.templates import HtmlGenerator
        static = HtmlGenerator(fig4_site, fig7_templates())
        for page in static.pages():
            dynamic_body = server.request(page).body
            assert dynamic_body == static.render(page), str(page)


class TestCrawl:
    def test_crawl_visits_reachable_pages(self, server):
        responses = server.crawl()
        assert all(r.status == 200 for r in responses)
        # 9 pages: root, abstracts, 2 years, 3 categories, 2 abstracts.
        assert len(responses) == 9

    def test_crawl_limit(self, server):
        responses = server.crawl(limit=3)
        assert len(responses) == 3

    def test_crawl_from_specific_page(self, server):
        year = Oid.skolem("YearPage", (Atom.int(1997),))
        responses = server.crawl(start=year)
        urls = {r.oid for r in responses}
        assert year in urls

    def test_empty_roots(self, fig2_graph):
        server = DynamicSiteServer("""
            input BIBTEX
            where Publications(x)
            create P(x)
            link P(x) -> "of" -> x
            output O
        """, fig2_graph, fig7_templates())
        assert server.crawl() == []


class TestRouting:
    def test_resolve_path_matches_url_for(self, server):
        for page in server.crawl():
            url = server.generator.url_for(page.oid)
            assert server.resolve_path(url) == page.oid
            assert server.resolve_path("/" + url) == page.oid

    def test_resolve_unknown_path(self, server):
        assert server.resolve_path("nope.html") is None

    def test_url_map_tracks_lazy_materialization(self, server):
        root = server.roots()[0]
        root_url = server.generator.url_for(root)
        assert server.resolve_path(root_url) == root
        # Materialize more pages; the map must pick them up.
        year = Oid.skolem("YearPage", (Atom.int(1997),))
        server.request(year)
        assert server.resolve_path(server.generator.url_for(year)) == year

    def test_url_map_survives_invalidate(self, server):
        root = server.roots()[0]
        url = server.generator.url_for(root)
        assert server.resolve_path(url) == root
        server.invalidate()
        assert server.resolve_path(url) == root

    @pytest.mark.parametrize("change", [
        None,
        ChangeSummary(labels=frozenset({"title", "year", "category"}),
                      collections=frozenset({"Publications"}))])
    def test_page_added_by_update_routes_by_url(self, server, change):
        """Regression: the only links to a new publication's page live
        on pages the update dropped, so its URL 404'd until something
        re-served one of them."""
        server.crawl()
        newpub = Oid("newpub")

        def mutate(graph):
            graph.add_to_collection("Publications", newpub)
            graph.add_edge(newpub, "title", Atom.string("Fresh Result"))
            graph.add_edge(newpub, "year", Atom.int(1998))
            graph.add_edge(newpub, "category", Atom.string("Databases"))

        server.update(mutate, change)
        response = server.request("AbstractPage_newpub_.html")
        assert response.status == 200
        assert "Fresh Result" in response.body
        assert server.request("nope.html").status == 404


class TestStaleness:
    def test_invalidate_refreshes(self, server, fig2_graph):
        before = server.request(server.roots()[0]).body
        pub3 = Oid("pub3")
        fig2_graph.add_to_collection("Publications", pub3)
        fig2_graph.add_edge(pub3, "year", Atom.int(2001))
        fig2_graph.add_edge(pub3, "title", Atom.string("Late Addition"))
        stale = server.request(server.roots()[0]).body
        assert stale == before  # cache serves the stale page
        server.invalidate()
        fresh = server.request(server.roots()[0]).body
        assert "2001" in fresh


class TestServerLogSnapshot:
    def test_request_ids_are_stable(self, server):
        first = server.request(server.roots()[0])
        second = server.request(server.roots()[0])
        assert first.request_id == "req-1"
        assert second.request_id == "req-2"

    def test_snapshot_plain_dict(self, server):
        for _ in range(3):
            server.request(server.roots()[0])
        server.request("nope.html")
        snapshot = server.log.snapshot()
        assert isinstance(snapshot, dict)
        assert snapshot["requests"] == 4
        assert snapshot["errors"] == 1
        assert snapshot["p95_latency"] >= snapshot["p50_latency"] > 0
        assert snapshot["histogram"]["count"] == 4
        assert len(snapshot["samples"]) == 4

    def test_slowest_requests_ranked(self, server):
        from repro.site.server import SERVER_SLOWEST_KEPT, ServerLog
        log = ServerLog()
        for i in range(SERVER_SLOWEST_KEPT * 2):
            log.record(0.001 * (i + 1), request_id=f"req-{i + 1}",
                       page=f"p{i + 1}", status=200)
        slowest = log.slowest
        assert len(slowest) == SERVER_SLOWEST_KEPT
        seconds = [entry["seconds"] for entry in slowest]
        assert seconds == sorted(seconds, reverse=True)
        assert slowest[0]["id"] == f"req-{SERVER_SLOWEST_KEPT * 2}"
        assert slowest[0]["page"] == f"p{SERVER_SLOWEST_KEPT * 2}"

    def test_record_without_context_skips_slowest(self):
        from repro.site.server import ServerLog
        log = ServerLog()
        log.record(0.5)
        assert log.slowest == []
        assert log.histogram.count == 1

    def test_constants_documented(self):
        from repro.site import server as server_mod
        assert server_mod.ServerLog.MAX_SAMPLES == \
            server_mod.SERVER_RESERVOIR_SIZE
        assert server_mod.SERVER_SLOWEST_KEPT > 0
        assert server_mod.SERVER_LATENCY_BUCKETS

    def test_request_events_carry_request_id(self, server):
        from repro import obs
        with obs.recording() as rec:
            server.invalidate()  # fresh caches under the recorder
            response = server.request(server.roots()[0])
        events = [e for e in rec.events.records()
                  if e.name == "server.request"]
        assert events
        assert events[-1].attributes["request"] == response.request_id
        assert events[-1].trace_id
        obs.disable()


class TestRequestIdPassThrough:
    def test_front_end_id_wins(self, server):
        response = server.request(server.roots()[0], request_id="req-77")
        assert response.request_id == "req-77"
        assert server.log.slowest[0]["id"] == "req-77"

    def test_passed_id_reaches_span_and_events(self, server):
        from repro import obs
        with obs.recording() as rec:
            server.invalidate()
            response = server.request(server.roots()[0],
                                      request_id="req-ext")
        assert response.span.attributes["request"] == "req-ext"
        served = [e for e in rec.events.records()
                  if e.name == "server.request"]
        assert served[-1].attributes["request"] == "req-ext"


class TestErrorClassification:
    def test_classify_error(self):
        from repro.errors import PageNotFoundError, SiteError
        from repro.site.server import classify_error
        assert classify_error(PageNotFoundError("x")) == \
            (404, "not_found")
        assert classify_error(SiteError("x")) == (500, "SiteError")
        assert classify_error(ValueError("x")) == (500, "internal")

    def test_render_failure_is_500(self, server, monkeypatch):
        from repro import obs

        def explode(oid):
            raise ValueError("render blew up")

        with obs.recording() as rec:
            server.invalidate()
            monkeypatch.setattr(server.generator, "render", explode)
            response = server.request(server.roots()[0])
        assert response.status == 500
        assert "500 Internal Server Error" in response.body
        assert "internal" in response.body
        assert response.span.attributes["error"] == "internal"
        assert server.log.errors == 1
        assert rec.metrics.counter("server.errors").value == 1
        assert rec.metrics.counter("server.errors.internal").value == 1
        errors = [e for e in rec.events.records()
                  if e.name == "server.error"]
        assert errors and errors[-1].attributes["kind"] == "internal"

    def test_404_keeps_not_found_classification(self, server):
        from repro import obs
        with obs.recording() as rec:
            server.invalidate()
            response = server.request("nope.html")
        assert response.status == 404
        assert "error" not in response.span.attributes
        assert rec.metrics.counter(
            "server.errors.not_found").value == 1


class TestSlowRequestWarning:
    def test_slowest_heap_entry_warns(self):
        from repro import obs
        from repro.site.server import ServerLog
        with obs.recording() as rec:
            log = ServerLog()
            log.record(0.25, request_id="req-1", page="p", status=200)
        warns = [e for e in rec.events.records()
                 if e.name == "server.slow_request"]
        assert len(warns) == 1
        assert warns[0].level == "warning"
        assert warns[0].attributes["request"] == "req-1"
        assert rec.metrics.counter("server.slow_requests").value == 1

    def test_threshold_suppresses_fast_requests(self):
        from repro import obs
        from repro.site.server import ServerLog
        with obs.recording() as rec:
            log = ServerLog(slow_warn_seconds=0.1)
            log.record(0.001, request_id="req-1", page="p", status=200)
            log.record(0.5, request_id="req-2", page="p", status=200)
        warns = [e for e in rec.events.records()
                 if e.name == "server.slow_request"]
        assert [e.attributes["request"] for e in warns] == ["req-2"]

    def test_no_warning_without_heap_entry(self):
        from repro import obs
        from repro.site.server import ServerLog
        with obs.recording() as rec:
            log = ServerLog()
            log.record(0.5)  # no id/page: never enters the heap
        assert not [e for e in rec.events.records()
                    if e.name == "server.slow_request"]

    def test_counts_are_lock_guarded(self):
        import threading
        from repro.site.server import ServerLog
        log = ServerLog()

        def worker():
            for _ in range(500):
                log.count_request()
                log.count_error()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.requests == 8 * 500
        assert log.errors == 8 * 500
