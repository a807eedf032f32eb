"""The STRUDEL data repository (paper section 2.2).

The repository stores data graphs and site graphs uniformly and
persists them to disk via :mod:`repro.repository.storage`.  Each graph
owns its derived artefacts — the full schema/data index of
:mod:`repro.repository.indexes` and the optimizer's statistics — which
:meth:`~repro.graph.Graph.derived` memoizes per graph version.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import UnknownGraphError
from repro.graph.model import Database, Graph


class Repository:
    """A store of named graphs.

    Thin by design: a repository is a :class:`~repro.graph.Database` plus
    persistence.  Graph mutations go through the graph object itself,
    which also owns the graph's index and statistics.
    """

    def __init__(self, name: str = "strudel") -> None:
        self.database = Database(name)

    # -- graph management -------------------------------------------------------

    def store(self, graph: Graph) -> Graph:
        """Add or replace a named graph; returns it for chaining."""
        return self.database.add_graph(graph)

    def new_graph(self, name: str) -> Graph:
        """Create, store and return an empty graph."""
        return self.store(Graph(name))

    def graph(self, name: str) -> Graph:
        """Fetch a stored graph; raises :class:`UnknownGraphError`."""
        if not self.database.has_graph(name):
            raise UnknownGraphError(name)
        return self.database.graph(name)

    def has_graph(self, name: str) -> bool:
        """Whether a graph named ``name`` is stored."""
        return self.database.has_graph(name)

    def drop(self, name: str) -> None:
        """Remove a graph; missing names are ignored."""
        self.database.remove_graph(name)

    def graph_names(self) -> list[str]:
        """Sorted names of stored graphs."""
        return self.database.graph_names()

    def __iter__(self) -> Iterator[Graph]:
        for name in self.graph_names():
            yield self.database.graph(name)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.database.has_graph(name)

    def __repr__(self) -> str:
        return (f"Repository({self.database.name!r}, "
                f"graphs={self.graph_names()})")
