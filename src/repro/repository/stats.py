"""Graph statistics feeding the cost-based query optimizer.

The cost-based optimizer of [FLO 97] (paper section 2.4) chooses among
access paths using cardinalities of collections and attributes and
selectivities of value predicates.  :class:`GraphStatistics` gathers the
numbers a plan's cost formulas need:

* node/edge/atom counts;
* per-label edge counts, distinct source and target counts;
* per-collection sizes;
* fan-out (average targets per source, per label), used to cost forward
  traversals;
* fan-in, used to cost backward traversals;
* distinct-value counts, used to estimate equality selectivity.

The graph owns its statistics: ``graph.derived(GraphStatistics.gather)``
gathers them once per graph version and shares the snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.model import Graph, Oid
from repro.graph.values import Atom
from repro.obs.trace import get_recorder


@dataclass
class LabelStats:
    """Statistics for one attribute label."""

    edges: int = 0
    distinct_sources: int = 0
    distinct_targets: int = 0
    atom_targets: int = 0

    @property
    def fan_out(self) -> float:
        """Average number of targets per distinct source."""
        if self.distinct_sources == 0:
            return 0.0
        return self.edges / self.distinct_sources

    @property
    def fan_in(self) -> float:
        """Average number of sources per distinct target."""
        if self.distinct_targets == 0:
            return 0.0
        return self.edges / self.distinct_targets


@dataclass
class GraphStatistics:
    """Snapshot statistics for a graph, consumed by the cost model."""

    node_count: int = 0
    edge_count: int = 0
    atom_count: int = 0
    labels: dict[str, LabelStats] = field(default_factory=dict)
    collections: dict[str, int] = field(default_factory=dict)

    @classmethod
    def gather(cls, graph: Graph) -> "GraphStatistics":
        """Compute statistics from ``graph`` in one pass over its edges."""
        recorder = get_recorder()
        with recorder.span("stats.gather", graph=graph.name) as span:
            stats = cls(node_count=graph.node_count)
            sources: dict[str, set[Oid]] = {}
            targets: dict[str, set[object]] = {}
            atoms: set[int] = set()
            for edge in graph.edges():
                stats.edge_count += 1
                label = stats.labels.setdefault(edge.label, LabelStats())
                label.edges += 1
                sources.setdefault(edge.label, set()).add(edge.source)
                targets.setdefault(edge.label, set()).add(
                    edge.target if isinstance(edge.target, Oid)
                    else ("atom", str(edge.target.type),
                          str(edge.target.value)))
                if isinstance(edge.target, Atom):
                    label.atom_targets += 1
                    atoms.add(id(edge.target))
            for name, label in stats.labels.items():
                label.distinct_sources = len(sources[name])
                label.distinct_targets = len(targets[name])
            stats.atom_count = len(atoms)
            for cname in graph.collection_names():
                stats.collections[cname] = len(graph.collection(cname))
            span.set(edges=stats.edge_count, labels=len(stats.labels))
        recorder.metrics.counter("repository.stats.gathers").inc()
        return stats

    # -- estimates used by the cost model ------------------------------------

    def label_edges(self, label: str) -> int:
        """Edge count for ``label`` (0 when absent)."""
        stats = self.labels.get(label)
        return stats.edges if stats else 0

    def collection_size(self, name: str) -> int:
        """Member count for collection ``name`` (0 when absent)."""
        return self.collections.get(name, 0)

    def any_label_fan_out(self) -> float:
        """Average out-degree over all nodes; costs wildcard traversal."""
        if self.node_count == 0:
            return 0.0
        return self.edge_count / self.node_count

    def label_fan_out(self, label: str) -> float:
        """Average fan-out of ``label``; 0 when the label is unknown."""
        stats = self.labels.get(label)
        return stats.fan_out if stats else 0.0

    def label_fan_in(self, label: str) -> float:
        """Average fan-in of ``label``; 0 when the label is unknown."""
        stats = self.labels.get(label)
        return stats.fan_in if stats else 0.0

    def equality_selectivity(self, label: str) -> float:
        """Estimated fraction of ``label`` edges surviving ``target = c``.

        Uses the uniform-distribution assumption over distinct targets,
        the classic System-R ``1/V(A)`` estimate.
        """
        stats = self.labels.get(label)
        if not stats or stats.distinct_targets == 0:
            return 1.0
        return 1.0 / stats.distinct_targets
