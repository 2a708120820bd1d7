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
endpoint census and per-axis records, read by the pair sweep, the run
count, the junction check and the edge walk.  The sweep settles each pair
whose only contact is one shared end point, which the contact check always
passes, so it names only pairs that check can fault.  Filing also
certifies the stick contract, naming each stick that breaks it: ``Stick``
checks nothing, so sticks made in memory can, though no document can
carry one.  A merge trial checks only the pairs it names, settled by the
same rule, ``only_shared_end``.  That decides the trial as the full check
does when every other pair is as it was in a state that passed it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import islice

from .bounds import arc_index_upper, construction_count, crossing_stick_bound
from .errors import BoundViolated, ReconstructionMismatch
from .geom import Stick, Vec3, contact
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
    """The filing pass, reading each stick's ends once: ``(axes, ends,
    records, faults)``, the axes by ``Stick.axis``' rule, the
    ``endpoint_census``, per axis the records ``(f, g, lo, hi, i)`` of stick
    ``i``'s fixed coordinates and span, and ``(kind, a)`` for each stick
    that breaks the contract (axis-parallel, positive length, ends in
    order), which gets no record; its kind counts the coordinates that differ."""
    kinds = ("zero_length", "ends_out_of_order", "not_axis_parallel", "not_axis_parallel")
    axes: list[int] = []
    ends: dict[Vec3, list[int]] = defaultdict(list)
    records: tuple[list[tuple], ...] = ([], [], [])
    faults: list[tuple[str, Vec3]] = []
    for i, s in enumerate(sticks):
        a, b = s.a, s.b
        (ax, ay, az), (bx, by, bz) = a, b
        if ax != bx:
            axis, ok, record = 0, ax < bx and ay == by and az == bz, (ay, az, ax, bx, i)
        elif ay != by:
            axis, ok, record = 1, ay < by and az == bz, (ax, az, ay, by, i)
        else:
            axis, ok, record = 2, az < bz, (ax, ay, az, bz, i)
        axes.append(axis)
        if ok:
            records[axis].append(record)
        else:
            faults.append((kinds[(ax != bx) + (ay != by) + (az != bz)], a))
        ends[a].append(i)
        ends[b].append(i)
    return axes, ends, records, faults


def touching_pairs(sticks: Sequence[Stick]) -> list[tuple[int, int]]:
    """Every position pair ``(i, j)``, ``i < j``, of contract sticks that
    meet other than at one shared end point, sorted."""
    return _sweep(file_sticks(sticks)[2])


def _sweep(records) -> list[tuple[int, int]]:
    """The sorted pairs of ``file_sticks``' ``records`` that meet other than
    at one point that is an end of both, which ``contact`` would call
    ``"endpoint"``.  One sort per axis makes each line a run in order of
    start, and a stick's walk along it ends at a start that is not before
    its own end.  In a plane, a stick along the later axis, as (normal,
    earlier coordinate, span, i), bisects the earlier axis's records by
    (normal, later coordinate), re-sorting the x-records by (z, y) for
    y-sticks, and walks them while in its span, so a vertical stick's walk
    stays in its own z-slab of the stacked components; a pair meeting at an
    end of each is settled there."""
    xs, ys, zs = runs = [sorted(r) for r in records]
    pairs: list[tuple[int, int]] = []
    for run in runs:
        for k, ((f, g, _, end, i), (f2, g2, start, _, _)) in enumerate(zip(run, run[1:]), 1):
            if start >= end or g2 != g or f2 != f:
                continue
            for f2, g2, start, _, j in islice(run, k, None):
                if start >= end or g2 != g or f2 != f:
                    break
                pairs.append((i, j) if i < j else (j, i))
    xz = sorted([(z, y, lo, hi, i) for y, z, lo, hi, i in xs])
    ys_in_z = [(z, x, lo, hi, i) for x, z, lo, hi, i in ys]
    zs_in_y = [(y, x, lo, hi, i) for x, y, lo, hi, i in zs]
    for later, earlier in ((ys_in_z, xz), (zs_in_y, xs), (zs, ys)):
        n = len(earlier)
        for f, c, lo, hi, i in later:
            k = bisect_left(earlier, (f, lo))
            while k < n:
                g, h, clo, chi, j = earlier[k]
                if g != f or h > hi:
                    break
                if clo < c < chi or ((c == clo or c == chi) and lo < h < hi):
                    pairs.append((i, j) if i < j else (j, i))
                k += 1
    pairs.sort()
    return pairs


def only_shared_end(s: Stick, t: Stick) -> bool:
    """Whether contract sticks ``s`` and ``t``, whose boxes meet, meet only
    at one point that is an end of both, where ``contact`` gives
    ``"endpoint"``: the pairs that the sweep and a merge trial settle.
    Sticks meeting end to start meet only there; sticks sharing a start or
    an end meet beyond it only when collinear, and then their other ends
    differ in at most one coordinate."""
    sa, sb, ta, tb = s.a, s.b, t.a, t.b
    if sb == ta or sa == tb:
        return True
    if sa == ta or sb == tb:
        p, q = (sb, tb) if sa == ta else (sa, ta)
        return (p[0] != q[0]) + (p[1] != q[1]) + (p[2] != q[2]) > 1
    return False


def check_self_avoiding(
    sticks: Sequence[Stick] | Mapping[int, Stick], pairs: list[tuple[int, int]] | None = None
) -> list[tuple[str, Vec3]]:
    """Every contact among ``pairs`` of sticks but a shared end point, in
    pair order: interior crossings, collinear overlaps and endpoint-in-
    interior contacts.  A shared end point always passes; whether it may
    join more than two stick ends is ``audit_junctions``' call.

    ``pairs`` holds sorted key pairs ``(i, j)``, ``i < j``, into ``sticks``:
    positions in a list, or slots of a mapping from slot to stick.  For a
    list it defaults to ``touching_pairs(sticks)``, which leaves out only
    pairs meeting at one shared end point, so the result is the one an
    all-pairs loop over ``i < j`` of the contract sticks gives, in order.
    """
    if pairs is None:
        pairs = touching_pairs(sticks)
    return [c for i, j in pairs if (c := contact(sticks[i], sticks[j]))[0] != "endpoint"]


def audit_junctions(
    markers: dict[str, Vec3], degrees: dict[str, int], ends: dict[Vec3, list[int]]
) -> tuple[list[Vec3], list[str]]:
    """The sorted points where three or more stick ends meet without a
    vertex marker, and the marker problems: two markers on one point (then
    the only problem listed), a marker on no stick end, or one whose
    incidence differs from its degree.

    Two sticks leaving a marker in one direction overlap, so
    ``check_self_avoiding`` reports them.
    """
    marker_points = set(markers.values())
    unmarked = sorted(
        p for p, incident in ends.items() if len(incident) > 2 and p not in marker_points
    )
    if len(marker_points) != len(markers):
        return unmarked, ["two vertex markers share one point"]
    problems: list[str] = []
    for label, p in sorted(markers.items()):
        incident = ends.get(p, [])
        if not incident:
            problems.append(f"marker {label} at {p} not on any stick endpoint")
        elif len(incident) != degrees.get(label):
            problems.append(
                f"marker {label} incidence {len(incident)} != degree {degrees.get(label)}"
            )
    return unmarked, problems


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
    pass taken here from the sticks alone; the contract faults lead the
    violations, in stick order, before the contacts among the others."""
    axes, ends, records, faults = file_sticks(sticks)
    report = AuditReport()
    report.violations = faults + check_self_avoiding(sticks, _sweep(records))
    report.unmarked_junctions, report.marker_problems = audit_junctions(markers, degrees, ends)
    report.counts = count_sticks(axes, markers, ends)
    try:
        reconstruct_graph(sticks, markers, spec, ends)
        report.reconstruction_ok = True
    except ReconstructionMismatch as exc:
        report.reconstruction_diff = exc.diff
    return report
