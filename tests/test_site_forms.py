"""Form-driven dynamic pages: parameterized queries at click time."""

import pytest

from repro.errors import SiteError, UnboundVariableError
from repro.graph import Atom, Oid
from repro.site import FormHandler, register_string_predicates
from repro.struql import QueryEngine, default_registry, parse_query
from repro.templates import TemplateSet

SEARCH_QUERY = """
input BIBTEX
{ where Publications(x), x -> "title" -> t, contains(t, kw)
  create Results(kw), Hit(kw, x)
  link Hit(kw, x) -> "title" -> t,
       Results(kw) -> "Hit" -> Hit(kw, x),
       Results(kw) -> "term" -> kw }
output SearchSite
"""


def search_templates() -> TemplateSet:
    templates = TemplateSet()
    templates.add("Results", """<HTML><BODY>
<H1>Results for "<SFMT @term>"</H1>
<SFMTLIST @Hit FORMAT=EMBED DELIM="<BR>">
</BODY></HTML>""")
    templates.add("Hit", "<SFMT @title>", as_page=False)
    return templates


@pytest.fixture
def handler(fig2_graph):
    return FormHandler(SEARCH_QUERY, fig2_graph, search_templates(),
                       result_fn="Results", params=("kw",))


class TestParameterizedQueries:
    def test_params_assumed_bound_at_parse(self):
        query = parse_query(SEARCH_QUERY, params=("kw",))
        assert query.params == ("kw",)

    def test_undeclared_param_fails_at_evaluation(self, fig2_graph):
        # Without the declaration the query still parses (kw is
        # mentioned in a condition), but no execution order can bind
        # it: the runtime reports the unbound variable.
        query = parse_query(SEARCH_QUERY)
        registry = default_registry()
        register_string_predicates(registry)
        with pytest.raises(UnboundVariableError):
            QueryEngine(predicates=registry).evaluate(query, fig2_graph)

    def test_evaluate_requires_initial(self, fig2_graph):
        registry = default_registry()
        register_string_predicates(registry)
        engine = QueryEngine(predicates=registry)
        query = parse_query(SEARCH_QUERY, params=("kw",))
        with pytest.raises(UnboundVariableError):
            engine.evaluate(query, fig2_graph)
        result = engine.evaluate(query, fig2_graph,
                                 initial={"kw": Atom.string("Regular")})
        page = Oid.skolem("Results", (Atom.string("Regular"),))
        assert result.output.has_node(page)


class TestFormHandler:
    def test_submission_renders_matches(self, handler):
        response = handler.submit(kw="Regular")
        assert response.page == Oid.skolem(
            "Results", (Atom.string("Regular"),))
        assert "Optimizing Regular Path Expressions" in response.html
        assert "Specifying" not in response.html

    def test_case_insensitive_contains(self, handler):
        response = handler.submit(kw="optimizing")
        assert "Optimizing" in response.html

    def test_distinct_params_distinct_pages(self, handler):
        one = handler.submit(kw="Regular")
        two = handler.submit(kw="Machine")
        assert one.page != two.page
        assert "Machine Instructions" in two.html

    def test_caching(self, handler, fig2_graph):
        first = handler.submit(kw="Regular")
        second = handler.submit(kw="Regular")
        assert not first.from_cache and second.from_cache
        assert handler.stats["evaluations"] == 1
        fig2_graph.add_edge(Oid("pub1"), "note", Atom.string("x"))
        third = handler.submit(kw="Regular")
        assert not third.from_cache
        assert handler.stats["evaluations"] == 2

    def test_data_update_is_not_served_stale(self, handler, fig2_graph):
        """Regression: responses stayed cached across data updates, so
        a new matching publication was missing from a repeated search."""
        assert not handler.submit(kw="Regular").from_cache
        pub9 = Oid("pub9")
        fig2_graph.add_to_collection("Publications", pub9)
        fig2_graph.add_edge(pub9, "title",
                            Atom.string("Regular Languages Revisited"))
        again = handler.submit(kw="Regular")
        assert not again.from_cache
        assert "Regular Languages Revisited" in again.html
        assert "Optimizing Regular Path Expressions" in again.html

    def test_no_matches_is_still_a_page_problem(self, handler):
        # No publication contains "zzz": the Results page is never
        # created, which the handler reports cleanly.
        with pytest.raises(SiteError):
            handler.submit(kw="zzz")

    def test_missing_and_extra_params(self, handler):
        with pytest.raises(SiteError):
            handler.submit()
        with pytest.raises(SiteError):
            handler.submit(kw="x", other="y")

    def test_query_without_params_rejected(self, fig2_graph):
        with pytest.raises(SiteError):
            FormHandler("""
                input BIBTEX
                where Publications(x)
                create P(x)
                output O
            """, fig2_graph, search_templates(), result_fn="P")

    def test_string_predicates(self):
        registry = default_registry()
        register_string_predicates(registry)
        assert registry.lookup("startsWith")(Atom.string("Hello"), "he")
        assert registry.lookup("endsWith")(Atom.string("Hello"), "LO")
        assert registry.lookup("iequals")(Atom.string("AbC"), "aBc")
        assert not registry.lookup("contains")(Atom.string("x"), "y")
