"""Content-hash build cache + rebuild planner for site generation.

STRUDEL's core promise is cheap regeneration: "multiple versions of a
site can be generated from the same data".  Regenerating a large site
from scratch on every data edit throws that away, so this module makes
``Website.build_site`` / ``repro build`` *incremental*:

* :class:`BuildCache` — a persistent cache directory holding one
  manifest: per-page content fingerprints, a whole-site hash, the
  template-set hash and the generator options.  A page is skipped when
  its fingerprint, the templates, the options **and** its output file
  are all unchanged.
* the **rebuild planner** (:meth:`BuildCache.plan`) — hashes every
  site node once, fingerprints every page in one linear pass
  (:func:`node_fingerprints`) and compares the fingerprints with the
  manifest.  When the whole-site hash matches the manifest, the stored
  fingerprints are reused and the pass is skipped.  The plan carries
  the fingerprints to :meth:`BuildCache.record`, so no page is hashed
  twice in one build.
* :func:`cached_generate` — the one-call pipeline used by both
  :meth:`repro.site.builder.Website.build_site` and ``repro build
  --cache-dir/--incremental``: plan, render only the dirty pages
  (optionally in parallel), delete removed pages' files, persist the
  updated manifest.

A fingerprint is a Merkle hash over the strongly-connected-component
condensation of the site graph.  A node's *local* hash covers its
identity, its out-edges (labels, targets, atom values) and its
collection memberships.  A component's fingerprint hashes its members'
local hashes and the fingerprints of the components it links to, and a
page's fingerprint is that of its component.  So it is a function of
exactly the page's *forward-reachable* subgraph: every node, edge, atom
and collection membership its template can traverse, embed or select
on.  That makes it sound for the template language's forward-only
attribute paths, and a collection-membership change invalidates like
an edge change.  Tarjan's algorithm emits components in reverse
topological order, so the whole site costs one O(nodes + edges) pass
however much the pages' reachable subgraphs overlap.  Template edits
hash into ``templates_hash`` and invalidate everything — the safe
interpretation of "the same templates are used in both sites".

Known limitation: external file contents referenced through
``Atom.file`` and resolved by a :class:`~repro.templates.formats
.FileLoader` are not fingerprinted; touch the cache directory (or pass
a fresh one) after editing referenced files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.graph.model import Graph, Oid
from repro.obs.lineage import get_lineage, lineage_path
from repro.obs.trace import get_recorder
from repro.templates.generator import HtmlGenerator, TemplateSet

#: Manifest schema version; bump on incompatible layout changes or
#: when the fingerprint definition changes.
CACHE_SCHEMA = 2

#: File name of the manifest inside a cache directory.
MANIFEST_NAME = "manifest.json"

#: Schema-1 caches also stored the previous build's site graph here;
#: :meth:`BuildCache.record` deletes it.
_SCHEMA1_SITE_GRAPH = "site.json"

#: Default cache directory name when ``--incremental`` is given
#: without ``--cache-dir`` (created inside the output directory).
DEFAULT_CACHE_DIRNAME = ".buildcache"


def _sha(*parts: str) -> str:
    data = "\x00".join(parts) + "\x00"
    return hashlib.sha1(
        data.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def hash_templates(templates: TemplateSet) -> str:
    """A stable content hash of a whole template set.

    Covers names, sources and page-ness, so editing, adding, removing
    or re-flagging any template changes the hash (and invalidates the
    cache — templates select dynamically per object, so per-template
    dependency tracking would be unsound).
    """
    parts: list[str] = []
    for name in templates.names():
        template = templates.get(name)
        source = template.source if template is not None else ""
        parts.append(f"{name}\x01{int(templates.is_page_template(name))}"
                     f"\x01{source}")
    return _sha(*parts)


def hash_options(options: dict | None) -> str:
    """A stable hash of generator options (sorted-key JSON)."""
    return _sha(json.dumps(options or {}, sort_keys=True, default=str))


def _object_key(obj) -> str:
    """A collision-averse string form of a graph object (type-tagged)."""
    return f"{type(obj).__name__}:{obj!r}"


#: Per-node local hashes and node successors (see :func:`_node_hashes`).
NodeHashes = tuple[dict[Oid, str], dict[Oid, list[Oid]]]


def _node_hashes(graph: Graph) -> NodeHashes:
    """Every node's local hash and node successors, one read per node.

    The local hash covers one node's own content: its identity, its
    out-edges and its collection memberships.
    """
    memberships: dict[Oid, list[str]] = {}
    for name in graph.collection_names():           # sorted names
        for member in graph.collection(name):
            memberships.setdefault(member, []).append(name)
    local: dict[Oid, str] = {}
    successors: dict[Oid, list[Oid]] = {}
    for node in graph.nodes():
        out = graph.out_edges(node)
        local[node] = _sha(_object_key(node),
                           *sorted(f"{edge.label}\x01"
                                   f"{_object_key(edge.target)}"
                                   for edge in out),
                           *memberships.get(node, ()))
        successors[node] = [edge.target for edge in out
                            if isinstance(edge.target, Oid)]
    return local, successors


def node_fingerprints(graph: Graph,
                      hashes: NodeHashes | None = None) -> dict[Oid, str]:
    """Every node's fingerprint, in one O(nodes + edges) pass.

    An iterative Tarjan walk finds the strongly connected components
    and finishes each one after every component it links to.  A
    component's fingerprint hashes its members' sorted local hashes and
    its successor components' sorted fingerprints; each member gets
    the component's fingerprint.  ``hashes`` reuses a
    :func:`_node_hashes` result already computed for this graph.
    """
    local, successors = hashes or _node_hashes(graph)
    index: dict[Oid, int] = {}
    low: dict[Oid, int] = {}
    stack: list[Oid] = []
    fingerprints: dict[Oid, str] = {}
    for root in local:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    work.append((child, iter(successors[child])))
                    break
                # Indexed but unfinished means on the stack.
                if child not in fingerprints and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] != index[node]:
                    continue
                members = [stack.pop()]
                while members[-1] != node:
                    members.append(stack.pop())
                # Successors outside the component are finished; those
                # inside have no fingerprint yet.
                linked = {fingerprints[target] for member in members
                          for target in successors[member]
                          if target in fingerprints}
                fingerprint = _sha(*sorted(local[m] for m in members),
                                   "->", *sorted(linked))
                for member in members:
                    fingerprints[member] = fingerprint
    return fingerprints


def page_fingerprint(graph: Graph, page: Oid) -> str:
    """Content fingerprint of everything ``page``'s HTML can depend on.

    The rendered page is a function of the forward-reachable subgraph
    (templates only traverse outgoing attribute paths, embed successors,
    and select on collections), and so is this fingerprint.  One page's
    view of :func:`node_fingerprints`; a build fingerprints all its
    pages in one pass instead.
    """
    return node_fingerprints(graph)[page]


@dataclass
class BuildPlan:
    """What one cache-aware build will actually do."""

    #: Pages to render, in deterministic (sorted) order.
    render: list[Oid] = field(default_factory=list)
    #: Pages skipped because their fingerprints match the manifest.
    skipped: list[Oid] = field(default_factory=list)
    #: Output file names (relative to ``out_dir``) of removed pages.
    stale_files: list[str] = field(default_factory=list)
    #: Why the plan shaped up this way: ``cold``, ``templates-changed``,
    #: ``options-changed``, ``schema-changed`` or ``incremental``.
    reason: str = "cold"
    #: Every page's fingerprint, keyed by oid (persisted by record).
    fingerprints: dict[str, str] = field(default_factory=dict)
    #: The whole-site hash (persisted by record).
    site_hash: str = ""
    #: True when the site-hash fast path proved the cache state is
    #: already exact — recording would rewrite identical files.
    unchanged: bool = False

    @property
    def total_pages(self) -> int:
        return len(self.render) + len(self.skipped)

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of pages served from cache (0 when no pages)."""
        total = self.total_pages
        return len(self.skipped) / total if total else 0.0


class BuildCache:
    """A persistent, content-hash-keyed site build cache.

    One directory holds a JSON manifest: per-page fingerprints keyed by
    oid, the whole-site hash, the template-set hash and the
    generator-options hash.  Corrupt or mismatched state degrades to a
    full build, never to a wrong one.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.manifest_path = os.path.join(directory, MANIFEST_NAME)
        self.manifest: dict | None = None
        #: True when the last :meth:`load` found a manifest of another
        #: :data:`CACHE_SCHEMA`.
        self.schema_changed = False

    # -- persistence -----------------------------------------------------------

    def load(self) -> bool:
        """Read the manifest; ``False`` when absent, corrupt or stale.

        A manifest that parses but carries another schema also sets
        :attr:`schema_changed`.
        """
        self.manifest = None
        self.schema_changed = False
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return False
        if not isinstance(manifest, dict):
            return False
        if manifest.get("schema") != CACHE_SCHEMA:
            self.schema_changed = True
            return False
        if not isinstance(manifest.get("pages"), dict):
            return False
        self.manifest = manifest
        return True

    # -- planning --------------------------------------------------------------

    def _reason(self, templates: TemplateSet,
                options: dict | None) -> str:
        """Whether the manifest can be trusted page by page, and if
        not, why not."""
        if self.manifest is None:
            self.load()
        manifest = self.manifest
        if manifest is None:
            return "schema-changed" if self.schema_changed else "cold"
        if manifest.get("templates_hash") != hash_templates(templates):
            return "templates-changed"
        if manifest.get("options_hash") != hash_options(options):
            return "options-changed"
        return "incremental"

    def plan(self, site: Graph, generator: HtmlGenerator,
             templates: TemplateSet, out_dir: str,
             options: dict | None = None) -> BuildPlan:
        """Decide which pages must render and which can be skipped."""
        with get_recorder().span("site.build.plan",
                                 nodes=site.node_count) as span:
            pages = sorted(generator.pages(), key=str)
            plan = BuildPlan(reason=self._reason(templates, options))
            recorded: dict[str, dict] = \
                self.manifest["pages"] if self.manifest else {}
            # Stored fingerprints hold only under the same templates
            # and options; stored urls hold regardless.
            old_pages = recorded if plan.reason == "incremental" else {}
            hashes = _node_hashes(site)
            # The whole-site hash: local hashes already cover every
            # edge and collection membership.  When it matches the
            # manifest, every stored fingerprint is still exact.
            plan.site_hash = _sha(*sorted(hashes[0].values()))
            same_site = (bool(old_pages)
                         and self.manifest.get("site_hash")
                         == plan.site_hash
                         and all(str(page) in old_pages for page in pages))
            if same_site:
                plan.fingerprints = {
                    str(page): old_pages[str(page)]["fingerprint"]
                    for page in pages}
            else:
                by_node = node_fingerprints(site, hashes)
                plan.fingerprints = {str(page): by_node[page]
                                     for page in pages}
            for page in pages:
                entry = old_pages.get(str(page))
                if entry is not None \
                        and entry.get("fingerprint") \
                        == plan.fingerprints[str(page)] \
                        and os.path.exists(os.path.join(
                            out_dir, generator.url_for(page))):
                    plan.skipped.append(page)
                else:
                    plan.render.append(page)
            plan.stale_files = sorted(
                entry["url"] for key, entry in recorded.items()
                if key not in plan.fingerprints and entry.get("url"))
            plan.unchanged = (same_site and not plan.render
                              and not plan.stale_files)
            span.set(pages=len(pages), rendered=len(plan.render))
        return plan

    # -- recording -------------------------------------------------------------

    def record(self, site: Graph, generator: HtmlGenerator,
               templates: TemplateSet, plan: BuildPlan,
               options: dict | None = None) -> None:
        """Persist the post-build manifest from ``plan``'s
        fingerprints (``plan`` must come from :meth:`plan`)."""
        with get_recorder().span("site.build.record",
                                 pages=plan.total_pages,
                                 nodes=site.node_count,
                                 rendered=len(plan.render)):
            os.makedirs(self.directory, exist_ok=True)
            manifest = {
                "schema": CACHE_SCHEMA,
                "templates_hash": hash_templates(templates),
                "options_hash": hash_options(options),
                "site_hash": plan.site_hash,
                "pages": {str(page): {
                    "url": generator.url_for(page),
                    "fingerprint": plan.fingerprints[str(page)]}
                    for page in plan.render + plan.skipped},
            }
            with open(self.manifest_path, "w",
                      encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=1)
            try:
                os.unlink(os.path.join(self.directory,
                                       _SCHEMA1_SITE_GRAPH))
            except FileNotFoundError:
                pass
            self.manifest = manifest
            self.schema_changed = False


@dataclass
class BuildReport:
    """The outcome of one (possibly cached, possibly parallel) build."""

    written: dict[Oid, str]
    skipped: list[Oid] = field(default_factory=list)
    removed_files: list[str] = field(default_factory=list)
    reason: str = "full"
    jobs: int = 1
    seconds: float = 0.0

    @property
    def pages_rendered(self) -> int:
        return len(self.written)

    @property
    def pages_skipped(self) -> int:
        return len(self.skipped)

    @property
    def cache_hit_ratio(self) -> float:
        total = self.pages_rendered + self.pages_skipped
        return self.pages_skipped / total if total else 0.0

    def summary(self) -> str:
        """One-line human summary (the CLI's build report line)."""
        return (f"wrote {self.pages_rendered} pages "
                f"({self.pages_skipped} cached, jobs={self.jobs}, "
                f"{self.reason})")


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/0 means every core."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def cached_generate(site: Graph, generator: HtmlGenerator,
                    templates: TemplateSet, out_dir: str,
                    cache: BuildCache | str | None = None,
                    jobs: int | None = 1,
                    options: dict | None = None) -> BuildReport:
    """Plan, render (in parallel), clean up, and persist one build.

    Without ``cache`` this is a plain full build through
    :meth:`HtmlGenerator.generate_site`.  With one, only the pages the
    planner proves dirty are rendered, files of pages that left the
    site are deleted, and the manifest is updated for the next run.
    Emits the ``site.build.*`` metrics either way.
    """
    import time

    jobs = resolve_jobs(jobs)
    if isinstance(cache, str):
        cache = BuildCache(cache)
    recorder = get_recorder()
    started = time.perf_counter()
    with recorder.span("site.generate", out_dir=out_dir,
                       jobs=jobs) as span:
        if cache is None:
            written = generator.generate_site(out_dir, jobs=jobs)
            report = BuildReport(written, reason="full", jobs=jobs)
        else:
            plan = cache.plan(site, generator, templates, out_dir,
                              options=options)
            written = generator.generate_site(out_dir, jobs=jobs,
                                              pages=plan.render)
            removed: list[str] = []
            for name in plan.stale_files:
                path = os.path.join(out_dir, name)
                if os.path.exists(path):
                    os.unlink(path)
                    removed.append(path)
            if not plan.unchanged:  # a no-op plan leaves the exact state
                cache.record(site, generator, templates, plan,
                             options=options)
            report = BuildReport(written, skipped=list(plan.skipped),
                                 removed_files=removed,
                                 reason=plan.reason, jobs=jobs)
        report.seconds = time.perf_counter() - started
        span.set(pages=report.pages_rendered,
                 skipped=report.pages_skipped, reason=report.reason)
    metrics = recorder.metrics
    metrics.counter("site.build.pages_rendered").inc(
        report.pages_rendered)
    metrics.counter("site.build.pages_skipped").inc(
        report.pages_skipped)
    metrics.gauge("site.build.cache_hit_ratio").set(
        report.cache_hit_ratio)
    metrics.gauge("site.build.jobs").set(jobs)
    metrics.histogram("site.build.seconds").observe(report.seconds)
    metrics.counter("site.pages_built").inc(report.pages_rendered)
    lineage = get_lineage()
    if lineage.enabled and cache is not None:
        # Serialize lineage next to the manifest so provenance survives
        # incremental rebuilds: merge the previous build's file first
        # (fresh records win), then rewrite it.
        path = lineage_path(cache.directory)
        lineage.load(path)
        lineage.save(path)
    return report
