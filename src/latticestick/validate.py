"""Certification of embeddings: self-avoidance, junctions, reconstruction.

The checks are independent of how the embedding was built: they look only
at the stick set and the vertex markers, so they catch construction bugs
rather than inheriting them.  This module belongs to the certification
kernel (``geom``, ``arcs``, ``graph``, ``bounds``, ``errors``, ``validate``,
``io`` and ``invariants``), which imports no build module.

Each fault has one judge.  ``check_self_avoiding`` judges contacts: a
crossing, an overlap or a T-contact; a shared end point always passes it.
``audit_junctions`` judges the points where stick ends meet: three or more
need a vertex marker, and a marker's incidence must equal its degree.

The full audit files the final sticks once, in ``file_sticks``: axes,
endpoint census, and line and plane buckets by ``geom.buckets``' rule, read
by the pair sweep, the run count, the junction check and the edge walk.  A
build's trial checks only the pairs it names; a straightening trial finds
them in one box scan, ``scan_changed``.  That decides the trial as the full
check does when every other pair is as it was in a state that passed the
same check.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import islice

from .bounds import arc_index_upper, construction_count, crossing_stick_bound
from .errors import BoundViolated, ReconstructionMismatch
from .geom import OTHER_AXES, Stick, Vec3, contact
from .graph import GraphCensus, SpatialGraphSpec


@dataclass(frozen=True)
class StickCounts:
    x: int
    y: int
    z: int

    @property
    def total(self) -> int:
        return self.x + self.y + self.z


@dataclass
class AuditReport:
    violations: list[tuple[str, Vec3]] = field(default_factory=list)
    unmarked_junctions: list[Vec3] = field(default_factory=list)
    marker_problems: list[str] = field(default_factory=list)
    reconstruction_ok: bool = False
    reconstruction_diff: list[str] = field(default_factory=list)
    counts: StickCounts | None = None

    @property
    def self_avoiding(self) -> bool:
        """No contact but shared end points; an unmarked junction is not a
        violation here but an entry of ``unmarked_junctions``."""
        return not self.violations

    @property
    def clean(self) -> bool:
        return (
            self.self_avoiding
            and not self.unmarked_junctions
            and not self.marker_problems
            and self.reconstruction_ok
        )


def endpoint_census(sticks: list[Stick]) -> dict[Vec3, list[int]]:
    ends: dict[Vec3, list[int]] = defaultdict(list)
    for i, s in enumerate(sticks):
        ends[s.a].append(i)
        ends[s.b].append(i)
    return ends


def file_sticks(sticks: Sequence[Stick]):
    """The filing pass: ``(axes, ends, lines, planes)``, the sticks' axes,
    their ``endpoint_census``, and positions by line key and by plane key
    and stick axis.  Each stick's end points are read once."""
    axes: list[int] = []
    ends: dict[Vec3, list[int]] = defaultdict(list)
    lines: dict[tuple, list[int]] = defaultdict(list)
    planes: dict[tuple, tuple[list[int], ...]] = defaultdict(lambda: ([], [], []))
    for i, s in enumerate(sticks):
        a, b = s.a, s.b
        (ax, ay, az), (bx, by, bz) = a, b
        if ax != bx:
            axis, line, plane_u, plane_w = 0, (0, ay, az), (1, ay), (2, az)
        elif ay != by:
            axis, line, plane_u, plane_w = 1, (1, ax, az), (0, ax), (2, az)
        else:
            axis, line, plane_u, plane_w = 2, (2, ax, ay), (0, ax), (1, ay)
        axes.append(axis)
        lines[line].append(i)
        planes[plane_u][axis].append(i)
        planes[plane_w][axis].append(i)
        ends[a].append(i)
        ends[b].append(i)
    return axes, ends, lines, planes


def touching_pairs(sticks: Sequence[Stick]) -> list[tuple[int, int]]:
    """Every position pair ``(i, j)``, ``i < j``, of sticks that meet, sorted."""
    return _sweep(sticks, *file_sticks(sticks)[2:])


def _sweep(sticks: Sequence[Stick], lines: dict, planes: dict) -> list[tuple[int, int]]:
    """The sorted pairs of filed sticks that meet.  Each line bucket is swept
    in order of start.  In each plane bucket the sticks along the earlier
    axis are sorted by their fixed coordinate on the later one, and each
    stick along the later axis takes the range its span covers, which keeps
    a vertical stick's range inside its own z-slab, where a horizontal stick
    would take the columns of every stacked component above and below it.
    """
    pairs: list[tuple[int, int]] = []
    for (ax, _, _), line in lines.items():
        if len(line) < 2:
            continue
        run = sorted([(sticks[i].a[ax], sticks[i].b[ax], i) for i in line])
        for k, (_, end, i) in enumerate(run):
            for start, _, j in islice(run, k + 1, None):
                if start > end:
                    break
                pairs.append((i, j) if i < j else (j, i))
    for (normal, _), by_axis in planes.items():
        u, w = OTHER_AXES[normal]
        if not (by_axis[u] and by_axis[w]):
            continue
        across = sorted([(sticks[j].a[w], j) for j in by_axis[u]])
        keys = [key for key, _ in across]
        for i in by_axis[w]:
            s = sticks[i]
            for _, j in across[bisect_left(keys, s.a[w]) : bisect_right(keys, s.b[w])]:
                if sticks[j].a[u] <= s.a[u] <= sticks[j].b[u]:
                    pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def scan_changed(sticks: Sequence[Stick], changed: Collection[int]) -> list[tuple[int, int]]:
    """The sorted position pairs ``(i, j)``, ``i < j``, holding a ``changed``
    stick whose sticks meet, found by comparing every stick's bounding box
    with each changed one's.

    A straightening trial takes no census at the changed sticks' ends: every
    stick it moves has both ends inside the branch's slab and every stick it
    keeps has both ends outside, so the move makes no end point newly
    shared, and the new vertical stick takes over the ends of the elbow and
    the run it replaces one for one.  Each point keeps its count of ends.
    """
    boxes = [(i, *sticks[i].a, *sticks[i].b) for i in sorted(changed)]
    pairs: list[tuple[int, int]] = []
    for j, t in enumerate(sticks):
        (tax, tay, taz), (tbx, tby, tbz) = t.a, t.b
        for i, sax, say, saz, sbx, sby, sbz in boxes:
            if (
                sax <= tbx and tax <= sbx and say <= tby and tay <= sby and saz <= tbz
                and taz <= sbz and i != j and (i < j or j not in changed)
            ):
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def check_self_avoiding(
    sticks: Sequence[Stick] | Mapping[int, Stick], pairs: list[tuple[int, int]] | None = None
) -> list[tuple[str, Vec3]]:
    """Every contact among ``pairs`` of sticks but a shared end point, in
    pair order: interior crossings, collinear overlaps and endpoint-in-
    interior contacts.  A shared end point always passes; whether it may
    join more than two stick ends is ``audit_junctions``' call.

    ``pairs`` holds sorted key pairs ``(i, j)``, ``i < j``, into ``sticks``:
    positions in a list, or slots of a mapping from slot to stick.  For a
    list it defaults to ``touching_pairs(sticks)``, so the result is the one
    an all-pairs loop over ``i < j`` gives, in that order.
    """
    if pairs is None:
        pairs = touching_pairs(sticks)
    return [c for i, j in pairs if (c := contact(sticks[i], sticks[j]))[0] != "endpoint"]


def audit_junctions(
    markers: dict[str, Vec3], degrees: dict[str, int], ends: dict[Vec3, list[int]]
) -> tuple[list[Vec3], list[str]]:
    """The sorted points where three or more stick ends meet without a
    vertex marker, and the marker problems: two markers on one point, a
    marker on no stick end, or one whose incidence differs from its degree.

    Two sticks leaving a marker in one direction overlap, so
    ``check_self_avoiding`` reports them.
    """
    marker_points = {p: label for label, p in markers.items()}
    if len(marker_points) != len(markers):
        return [], ["two vertex markers share one point"]

    unmarked = [
        p for p, incident in ends.items() if len(incident) > 2 and p not in marker_points
    ]
    problems: list[str] = []
    for label, p in sorted(markers.items()):
        incident = ends.get(p, [])
        if not incident:
            problems.append(f"marker {label} at {p} not on any stick endpoint")
        elif len(incident) != degrees.get(label):
            problems.append(
                f"marker {label} incidence {len(incident)} != degree {degrees.get(label)}"
            )
    return sorted(unmarked), problems


def count_sticks(
    axes: Sequence[int], markers: dict[str, Vec3], ends: dict[Vec3, list[int]]
) -> StickCounts:
    """Count maximal straight runs of the sticks with ``axes``: two sticks
    joined at an unmarked point are one run when their axes agree, as both
    then lie on one line; a vertex marker always ends a run."""
    marker_points = set(markers.values())
    parent = list(range(len(axes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p, incident in ends.items():
        if len(incident) != 2 or p in marker_points:
            continue
        i, j = incident
        if axes[i] == axes[j]:
            parent[find(i)] = find(j)

    by_axis = Counter(axis for i, axis in enumerate(axes) if parent[i] == i)
    return StickCounts(x=by_axis[0], y=by_axis[1], z=by_axis[2])


def walk_edges(
    sticks: list[Stick], markers: dict[str, Vec3], ends: dict[Vec3, list[int]]
) -> tuple[list[tuple[str, str, list[Vec3], list[int]]], list[str]]:
    """Trace maximal paths between markers through degree-2 points.

    Returns (edges, problems) where each edge is (start label, end label,
    polyline, stick indices).  Walk order is deterministic.
    """
    marker_points = {p: label for label, p in markers.items()}
    used = [False] * len(sticks)
    edges: list[tuple[str, str, list[Vec3], list[int]]] = []
    problems: list[str] = []

    for label, start in sorted(markers.items()):
        for i in sorted(ends.get(start, []), key=lambda i: (sticks[i].a, sticks[i].b)):
            if used[i]:
                continue
            polyline = [start]
            indices = []
            p, cur = start, i
            while True:
                used[cur] = True
                indices.append(cur)
                s = sticks[cur]
                p = s.b if p == s.a else s.a
                polyline.append(p)
                if p in marker_points:
                    break
                incident = ends.get(p, [])
                if len(incident) != 2:
                    problems.append(f"walk from {label} hit a bad point {p}")
                    break
                cur = incident[0] if incident[1] == cur else incident[1]
                if used[cur]:
                    problems.append(f"walk from {label} revisited a stick at {p}")
                    break
            if p in marker_points:
                edges.append((label, marker_points[p], polyline, indices))
    if not all(used):
        problems.append(f"{used.count(False)} sticks unreachable from any marker")
    return edges, problems


def reconstruct_graph(
    sticks: list[Stick],
    markers: dict[str, Vec3],
    spec: SpatialGraphSpec,
    ends: dict[Vec3, list[int]],
):
    """Read the abstract graph back from geometry and diff it against the input.

    Raises ReconstructionMismatch when vertex labels or the edge multiset
    (as unordered label pairs) disagree.  The expected edges are each
    component's ``edges``, walked once per input and shared with ``census``.
    """
    walked, problems = walk_edges(sticks, markers, ends)
    diff = list(problems)

    expected_vertices = set()
    expected_edges: Counter = Counter()
    for comp in spec.components:
        expected_vertices |= set(comp.presentation.labels.values())
        for tr in comp.edges:
            expected_edges[tuple(sorted((tr.v_start, tr.v_end)))] += 1
    got_vertices = set(markers)
    got_edges = Counter(tuple(sorted((a, b))) for a, b, _, _ in walked)

    if got_vertices != expected_vertices:
        diff.append(
            f"vertices differ: missing {sorted(expected_vertices - got_vertices)}, "
            f"extra {sorted(got_vertices - expected_vertices)}"
        )
    if got_edges != expected_edges:
        diff.append(f"edge multiset differs: expected {dict(expected_edges)}, got {dict(got_edges)}")
    if diff:
        raise ReconstructionMismatch("embedding does not realize the input graph", diff)
    return walked


@dataclass(frozen=True)
class BoundReport:
    total: int
    alpha_total: int
    construction_bound: int
    crossing_bound: int | None
    alpha_within_arc_bound: bool | None
    ok: bool


def check_bound(
    counts: StickCounts,
    cens: GraphCensus,
    alpha_total: int,
    declared_crossings: int | None = None,
) -> BoundReport:
    """Assert the built stick count against both closed-form bounds."""
    limit = construction_count(alpha_total, cens.e, cens.v, cens.s, cens.k)
    crossing_bound = None
    alpha_ok = None
    if declared_crossings is not None:
        alpha_ok = alpha_total <= arc_index_upper(declared_crossings, cens.e, cens.b)
        crossing_bound = crossing_stick_bound(
            declared_crossings, cens.e, cens.v, cens.s, cens.b, cens.k
        )
    report = BoundReport(
        total=counts.total,
        alpha_total=alpha_total,
        construction_bound=limit,
        crossing_bound=crossing_bound,
        alpha_within_arc_bound=alpha_ok,
        ok=counts.total <= limit
        and (crossing_bound is None or not alpha_ok or counts.total <= crossing_bound),
    )
    if not report.ok:
        raise BoundViolated(
            f"built {counts.total} sticks, bounds: construction {limit}, "
            f"crossing {crossing_bound}"
        )
    return report


def full_audit(
    sticks: list[Stick],
    markers: dict[str, Vec3],
    spec: SpatialGraphSpec,
    degrees: dict[str, int],
) -> AuditReport:
    """Every check of the final sticks, all reading one ``file_sticks``
    pass taken here from the sticks alone."""
    axes, ends, lines, planes = file_sticks(sticks)
    report = AuditReport()
    report.violations = check_self_avoiding(sticks, _sweep(sticks, lines, planes))
    report.unmarked_junctions, report.marker_problems = audit_junctions(markers, degrees, ends)
    report.counts = count_sticks(axes, markers, ends)
    try:
        reconstruct_graph(sticks, markers, spec, ends)
        report.reconstruction_ok = True
    except ReconstructionMismatch as exc:
        report.reconstruction_diff = exc.diff
    return report
