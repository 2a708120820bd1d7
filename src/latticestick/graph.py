"""Abstract spatial-graph model: components, attachments, census.

The cut decomposition is part of the input; this module only validates it.
Edges are never declared by the user: they are recovered by walking arcs
through the unlabeled (degree-2) binding points of each presentation, once
per component (``ComponentSpec.edges``).  ``census`` is the one analysis of
an input: it validates it and derives the edges, degrees, vertex holders and
component classes that every later stage reads.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .arcs import ArcPresentation, validate_presentation
from .errors import InvalidSpec, NoValidRoot, UnlabeledEndpoint


class ComponentClass(enum.Enum):
    ARC = "arc"
    THETA = "theta"
    BOUQUET = "bouquet"
    KNOT = "knot"
    GENERAL = "general"


@dataclass(frozen=True)
class ComponentSpec:
    id: str
    presentation: ArcPresentation

    @cached_property
    def edges(self) -> tuple[EdgeTrace, ...]:
        """The component's edges, walked once on first use."""
        return tuple(derive_edges(self))


@dataclass(frozen=True)
class CutAttachment:
    stem: str
    branch: str
    cut_vertex: str


@dataclass(frozen=True)
class SpatialGraphSpec:
    components: tuple[ComponentSpec, ...]
    attachments: tuple[CutAttachment, ...] = ()
    declared_crossings: int | None = None


@dataclass(frozen=True)
class EdgeTrace:
    """One edge as the ordered arcs it passes through, page numbers only."""

    comp: str
    index: int
    v_start: str
    v_end: str
    pages: tuple[int, ...]

    @property
    def edge_id(self) -> str:
        return f"{self.comp}/e{self.index}"

    @property
    def is_loop(self) -> bool:
        return self.v_start == self.v_end


@dataclass(frozen=True)
class CutTree:
    """Rooted forest over component ids, re-indexed depth first.

    ``order`` lists every component so that each stem precedes its branches
    and every subtree is contiguous.  ``parent`` maps a branch to its
    (stem id, cut vertex) pair in ``order``; roots are absent from it.  So
    ``children`` lists a stem's branches in ``order`` too.
    """

    order: tuple[str, ...]
    parent: dict[str, tuple[str, str]]
    roots: tuple[str, ...]

    def children(self, comp_id: str) -> list[tuple[str, str]]:
        return [(b, v) for b, (s, v) in self.parent.items() if s == comp_id]


@dataclass(frozen=True)
class GraphCensus:
    """Everything the build needs to know about a valid input, derived once.

    ``edges`` and ``classes`` are keyed by component id in input order;
    ``degrees`` maps each vertex label to its total degree, and ``points``
    maps it to the components holding it, each with its binding point there.
    """

    e: int
    v: int
    s: int
    b: int
    k: int
    alpha_total: int
    degrees: dict[str, int]
    points: dict[str, dict[str, int]]
    edges: dict[str, tuple[EdgeTrace, ...]]
    classes: dict[str, ComponentClass]


def derive_edges(comp: ComponentSpec) -> list[EdgeTrace]:
    """Recover edges by walking the incidence table through degree-2 unlabeled points."""
    pres = comp.presentation
    labels = pres.labels
    incidence = pres.incidence
    used: set[int] = set()
    edges: list[EdgeTrace] = []

    def walk(start_bp: int, arc):
        pages = [arc.page]
        bp = arc.hi if start_bp == arc.lo else arc.lo
        while bp not in labels:
            nxt = [a for a in incidence[bp] if a.page != arc.page]
            if len(nxt) != 1:
                raise UnlabeledEndpoint(
                    f"component {comp.id}: unlabeled binding point {bp} has "
                    f"{len(incidence[bp])} incident arcs"
                )
            arc = nxt[0]
            pages.append(arc.page)
            bp = arc.hi if bp == arc.lo else arc.lo
        return bp, pages

    for start_bp in sorted(labels):
        for first_arc in incidence.get(start_bp, ()):
            if first_arc.page in used:
                continue
            end_bp, pages = walk(start_bp, first_arc)
            used.update(pages)
            edges.append(
                EdgeTrace(
                    comp.id, len(edges), labels[start_bp], labels[end_bp], tuple(pages)
                )
            )
    if len(used) != pres.alpha:
        raise UnlabeledEndpoint(
            f"component {comp.id}: arcs {sorted(set(range(1, pres.alpha + 1)) - used)} "
            "form a closed walk with no vertex"
        )
    return edges


def _component_connected(pres: ArcPresentation) -> bool:
    if not pres.arcs:
        return False
    seen = {pres.arcs[0].lo}
    frontier = [pres.arcs[0].lo]
    while frontier:
        bp = frontier.pop()
        for a in pres.incidence[bp]:
            o = a.hi if bp == a.lo else a.lo
            if o not in seen:
                seen.add(o)
                frontier.append(o)
    return len(seen) == pres.beta


def total_degrees(spec: SpatialGraphSpec) -> dict[str, int]:
    """Vertex label -> total degree, summing arc ends over all components."""
    degrees: Counter[str] = Counter()
    for comp in spec.components:
        incidence = comp.presentation.incidence
        for bp, label in comp.presentation.labels.items():
            degrees[label] += len(incidence.get(bp, ()))
    return dict(degrees)


def classify_component(
    comp: ComponentSpec, edges: tuple[EdgeTrace, ...], degrees: dict[str, int]
) -> ComponentClass:
    """Classify one component from its derived edges and the total vertex
    degrees; the knot case requires total degree 2."""
    vertices = set(comp.presentation.labels.values())
    loops = [e for e in edges if e.is_loop]
    if len(edges) == 1 and not loops and len(vertices) == 2:
        return ComponentClass.ARC
    if len(vertices) == 1 and len(loops) == len(edges):
        if len(edges) == 1 and degrees[next(iter(vertices))] == 2:
            return ComponentClass.KNOT
        return ComponentClass.BOUQUET
    if len(vertices) == 2 and not loops and len(edges) >= 2:
        ends = {frozenset((e.v_start, e.v_end)) for e in edges}
        if len(ends) == 1:
            return ComponentClass.THETA
    return ComponentClass.GENERAL


def census(spec: SpatialGraphSpec) -> GraphCensus:
    """Validate the input and derive everything the build needs from it.

    This is the single analysis of the input: each component's edges are
    walked once, the vertex degrees summed once and each component classified
    once.  Validation stops at the first stage that finds a problem
    (presentations, attachments, shared labels, degree window) and raises
    InvalidSpec carrying every problem of that stage.
    """
    ids = [c.id for c in spec.components]
    if len(set(ids)) != len(ids):
        raise InvalidSpec(["component identifiers are not unique"])
    if not ids:
        raise InvalidSpec(["no components"])

    problems: list[str] = []
    comp_by_id = {c.id: c for c in spec.components}
    label_points: dict[str, dict[str, int]] = {}
    edges: dict[str, tuple[EdgeTrace, ...]] = {}
    for comp in spec.components:
        pres = comp.presentation
        # The binding-point law beta = alpha + v - e and the endpoint identity
        # 2*alpha = 2*(beta - v) + (vertex degrees) need no check of their own:
        # the structural checks give every unlabeled point degree 2 and put
        # every arc end in 1..beta, and a successful edge walk puts each
        # unlabeled point inside exactly one edge.
        pres_problems = validate_presentation(pres)
        if not pres_problems:
            if not pres.labels:
                pres_problems.append(f"component {comp.id} has no vertex-labeled binding point")
            elif not _component_connected(pres):
                pres_problems.append(f"component {comp.id} is not connected")
            else:
                try:
                    edges[comp.id] = comp.edges
                except UnlabeledEndpoint as exc:
                    pres_problems.append(str(exc))
        problems.extend(
            p if p.startswith("component") else f"component {comp.id}: {p}"
            for p in pres_problems
        )
        for bp, label in pres.labels.items():
            label_points.setdefault(label, {})[comp.id] = bp
    if problems:
        raise InvalidSpec(problems)

    # Attachment forest: each branch has one stem, no cycles, labels shared.
    stem_of: dict[str, str] = {}
    for att in spec.attachments:
        for cid in (att.stem, att.branch):
            if cid not in comp_by_id:
                problems.append(f"attachment references unknown component {cid}")
        if att.stem == att.branch:
            problems.append(f"attachment of {att.branch} to itself")
        if att.branch in stem_of:
            problems.append(f"component {att.branch} has more than one stem")
        stem_of[att.branch] = att.stem
        for cid in (att.stem, att.branch):
            if cid in comp_by_id and label_points.get(att.cut_vertex, {}).get(cid) is None:
                problems.append(
                    f"cut vertex {att.cut_vertex} not labeled in component {cid}"
                )
    if problems:
        raise InvalidSpec(problems)
    for att in spec.attachments:
        seen = {att.branch}
        cur = att.stem
        while cur in stem_of:
            if cur in seen:
                raise InvalidSpec(["attachments contain a cycle"])
            seen.add(cur)
            cur = stem_of[cur]

    # Siblings may not share a cut vertex; the problems come grouped by stem,
    # stems in the order of their first attachments.
    stems = list(dict.fromkeys(a.stem for a in spec.attachments))
    cuts = Counter((a.stem, a.cut_vertex) for a in spec.attachments)
    for stem_id, label in sorted(cuts, key=lambda pair: stems.index(pair[0])):
        if cuts[stem_id, label] > 1:
            problems.append(f"branches of {stem_id} share cut vertex {label}")

    # A label appearing in several components must be stitched together by
    # attachments at that very label (nested cut spheres form a chain).  Each
    # attachment joins two holders of its cut vertex and the attachments form
    # a forest, so those at a label join its n holders iff there are n - 1.
    joins = Counter(a.cut_vertex for a in spec.attachments)
    for label, comps in label_points.items():
        if joins[label] < len(comps) - 1:
            problems.append(
                f"vertex {label} appears in components {sorted(comps)} "
                "without attachments joining them there"
            )
    if problems:
        raise InvalidSpec(problems)

    # Degree window: 3..6 everywhere, 2 only on the vertex of a lone circle.
    degrees = total_degrees(spec)
    classes = {c.id: classify_component(c, edges[c.id], degrees) for c in spec.components}
    knot_vertices = {
        next(iter(comp.presentation.labels.values()))
        for comp in spec.components
        if classes[comp.id] is ComponentClass.KNOT
    }
    for label, d in sorted(degrees.items()):
        if d == 2 and label in knot_vertices:
            continue
        if not (3 <= d <= 6):
            problems.append(f"vertex {label} has degree {d} out of range")
    if problems:
        raise InvalidSpec(problems)

    b = sum(cls in (ComponentClass.BOUQUET, ComponentClass.KNOT) for cls in classes.values())
    k = sum(cls is ComponentClass.KNOT for cls in classes.values())
    return GraphCensus(
        e=sum(len(es) for es in edges.values()),
        v=len(degrees),
        s=len(spec.components),
        b=b,
        k=k,
        alpha_total=sum(c.presentation.alpha for c in spec.components),
        degrees=degrees,
        points=label_points,
        edges=edges,
        classes=classes,
    )


def validate_spec(spec: SpatialGraphSpec) -> list[str]:
    """Every problem ``census`` finds; an empty list means the input is buildable."""
    try:
        census(spec)
    except InvalidSpec as exc:
        return exc.problems
    return []


def build_cut_tree(spec: SpatialGraphSpec, cens: GraphCensus) -> CutTree:
    """Root each attachment tree at its lowest-index non-arc component and
    re-index depth first so stems always precede branches."""
    input_order = [c.id for c in spec.components]
    adj: dict[str, list[tuple[str, str]]] = {cid: [] for cid in input_order}
    for att in spec.attachments:
        adj[att.stem].append((att.branch, att.cut_vertex))
        adj[att.branch].append((att.stem, att.cut_vertex))

    seen: set[str] = set()
    trees: list[list[str]] = []
    for cid in input_order:
        if cid in seen:
            continue
        members = [cid]
        seen.add(cid)
        frontier = [cid]
        while frontier:
            cur = frontier.pop()
            for nxt, _ in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    members.append(nxt)
                    frontier.append(nxt)
        trees.append(members)

    order: list[str] = []
    parent: dict[str, tuple[str, str]] = {}
    roots: list[str] = []
    for members in trees:
        candidates = [cid for cid in members if cens.classes[cid] is not ComponentClass.ARC]
        if not candidates:
            raise NoValidRoot(f"every component in {sorted(members)} is an arc")
        root = min(candidates, key=input_order.index)
        roots.append(root)
        stack = [root]
        visited = {root}
        while stack:
            cur = stack.pop()
            order.append(cur)
            nbrs = sorted(
                (n for n in adj[cur] if n[0] not in visited),
                key=lambda n: input_order.index(n[0]),
                reverse=True,
            )
            for nxt, cv in nbrs:
                visited.add(nxt)
                parent[nxt] = (cur, cv)
                stack.append(nxt)
    return CutTree(tuple(order), {c: parent[c] for c in order if c in parent}, tuple(roots))
