"""Certification of embeddings: self-avoidance, junctions, reconstruction.

The checks are independent of how the embedding was built: they look only
at the stick set and the vertex markers, so they catch construction bugs
rather than inheriting them.  This module belongs to the certification
kernel (``geom``, ``arcs``, ``graph``, ``bounds``, ``errors``, ``validate``,
``io`` and ``invariants``), which imports no build module.  A build's trial
narrows ``check_self_avoiding`` to the pairs it names; the full audit takes
its own census and pairs of the final sticks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import islice

from .bounds import arc_index_upper, construction_count, crossing_stick_bound
from .errors import BoundViolated, ReconstructionMismatch
from .geom import OTHER_AXES, Stick, Vec3, buckets, collinear, contact
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
    ends: dict[Vec3, list[int]] = {}
    for i, s in enumerate(sticks):
        for p in s.ends():
            ends.setdefault(p, []).append(i)
    return ends


def endpoint_census_at(sticks: list[Stick], changed: Collection[int]) -> dict[Vec3, list[int]]:
    """``endpoint_census`` at the end points of the ``changed`` sticks only:
    the one place a pair holding a changed stick can share an end, so all a
    restricted check reads."""
    ends: dict[Vec3, list[int]] = {p: [] for i in changed for p in sticks[i].ends()}
    for i, s in enumerate(sticks):
        if s.a in ends:
            ends[s.a].append(i)
        if s.b in ends:
            ends[s.b].append(i)
    return ends


def touching_pairs(
    sticks: Sequence[Stick], changed: set[int] | None = None
) -> list[tuple[int, int]]:
    """Every position pair ``(i, j)``, ``i < j``, of sticks that meet, sorted.

    Each stick is filed from one ``buckets`` call.  Parallel sticks can meet
    only on one line, so each line bucket of two or more sticks is swept in
    order of start.  Perpendicular sticks can meet only in the plane that
    fixes their common third coordinate.  In each plane bucket the sticks
    along the earlier axis are sorted by their fixed coordinate on the later
    one, as (key, slot) tuples; each stick along the later axis takes the
    range its span covers and keeps the sticks whose span contains its own
    fixed coordinate.  Ranging along the later axis keeps a vertical stick's
    range inside its own z-slab, where a horizontal stick would take the
    columns of every stacked component above and below it.

    With ``changed``, only the lines and planes a changed stick lies in are
    bucketed, and only the pairs holding a changed stick are kept: a pair
    meeting anywhere else holds no changed stick.  Checking only these
    pairs decides a trial as the full check does under one precondition:
    every other pair is as it was in a state that passed the same check, and
    where it shares an endpoint, that point kept its marker and gained no
    stick end but a changed stick's.  Then ``check_self_avoiding`` on them
    is empty exactly when the full check is, and its ``ends`` may be
    ``endpoint_census_at`` the changed sticks.
    """
    # None keeps every bucket
    wanted = None if changed is None else {k for i in changed for k in buckets(sticks[i])[1:]}
    lines: dict[tuple, list[int]] = defaultdict(list)
    planes: dict[tuple, tuple[list[int], ...]] = defaultdict(lambda: ([], [], []))
    for i, s in enumerate(sticks):
        ax, line, plane_u, plane_w = buckets(s)
        if wanted is None or line in wanted:
            lines[line].append(i)
        if wanted is None or plane_u in wanted:
            planes[plane_u][ax].append(i)
        if wanted is None or plane_w in wanted:
            planes[plane_w][ax].append(i)

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
    if changed is not None:
        pairs = [(i, j) for i, j in pairs if i in changed or j in changed]
    pairs.sort()
    return pairs


def check_self_avoiding(
    sticks: Sequence[Stick] | Mapping[int, Stick],
    markers: dict[str, Vec3] | None = None,
    ends: dict[Vec3, list[int]] | None = None,
    pairs: list[tuple[int, int]] | None = None,
) -> list[tuple[str, Vec3]]:
    """Every contact among ``pairs`` of sticks that is not legitimate, in
    pair order.

    Interior crossings, collinear overlaps and endpoint-in-interior contacts
    are always violations.  ``ends``, the ``endpoint_census`` of ``sticks``,
    judges shared endpoints: one is fine where a polyline bend joins exactly
    two sticks or a vertex marker sits.  Without it every shared endpoint
    passes, as mid-pipeline states need: they have no markers yet, and their
    binding columns legitimately carry degree-3 junction points.

    ``pairs`` holds sorted key pairs ``(i, j)``, ``i < j``, into
    ``sticks``: positions in a list, or slots of a mapping from slot to
    stick.  For a list it defaults to ``touching_pairs(sticks)``, every pair
    that can touch, so the result is the one an all-pairs loop over
    ``i < j`` gives, in that order.  A build's trial passes only the pairs
    holding its changed sticks; ``touching_pairs`` states when that decides
    the trial.
    """
    if pairs is None:
        pairs = touching_pairs(sticks)
    marker_points = set((markers or {}).values())
    violations: list[tuple[str, Vec3]] = []
    for i, j in pairs:
        kind, p = contact(sticks[i], sticks[j])
        if kind == "endpoint":
            if ends is None or p in marker_points or len(ends[p]) == 2:
                continue
            violations.append(("endpoint_junction_unmarked", p))
        else:
            violations.append((kind, p))
    return violations


def audit_junctions(
    sticks: list[Stick],
    markers: dict[str, Vec3],
    degrees: dict[str, int],
    ends: dict[Vec3, list[int]],
) -> tuple[list[Vec3], list[str]]:
    """Check that junction points and vertex markers agree.

    Every point where three or more stick ends meet must carry a marker;
    marker incidences must use pairwise distinct axis directions and match
    the expected degrees exactly.
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
            continue
        dirs = [sticks[i].direction_from(p) for i in incident]
        if len(set(dirs)) != len(dirs):
            problems.append(f"marker {label} has repeated incident directions")
        if len(incident) != degrees.get(label):
            problems.append(
                f"marker {label} incidence {len(incident)} != degree {degrees.get(label)}"
            )
    return sorted(unmarked), problems


def count_sticks(
    sticks: list[Stick], markers: dict[str, Vec3], ends: dict[Vec3, list[int]]
) -> StickCounts:
    """Count maximal straight runs; a vertex marker always ends a run.

    Collinear sticks joined end to end at an unmarked bend-free point are one
    stick; a marker in the middle of a straight line still separates two.
    """
    marker_points = set(markers.values())
    parent = list(range(len(sticks)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p, incident in ends.items():
        if len(incident) != 2 or p in marker_points:
            continue
        i, j = incident
        if collinear(sticks[i], sticks[j]):
            parent[find(i)] = find(j)

    by_axis = Counter(sticks[find(i)].axis for i in {find(i) for i in range(len(sticks))})
    return StickCounts(x=by_axis.get(0, 0), y=by_axis.get(1, 0), z=by_axis.get(2, 0))


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
        leftover = [i for i, u in enumerate(used) if not u]
        problems.append(f"{len(leftover)} sticks unreachable from any marker")
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
    """Every check of the final sticks, on one endpoint census taken here
    from the sticks alone."""
    ends = endpoint_census(sticks)
    report = AuditReport()
    report.violations = check_self_avoiding(sticks, markers, ends)
    report.unmarked_junctions, report.marker_problems = audit_junctions(
        sticks, markers, degrees, ends
    )
    report.counts = count_sticks(sticks, markers, ends)
    try:
        reconstruct_graph(sticks, markers, spec, ends)
        report.reconstruction_ok = True
    except ReconstructionMismatch as exc:
        report.reconstruction_diff = exc.diff
    return report
