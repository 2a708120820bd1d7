"""Whole-graph assembly: component stacking, vertex merging, straightening.

Components are stacked in depth-first tree order, each branch uniformly
scaled into a thin square prism around its cut-vertex column and joined to
its stem by one vertical connector collinear with both columns.  A vertex of
degree d >= 4 then exists as d-2 degree-3 junctions along one vertical run;
merging reroutes the junctions' horizontal sticks onto the pivot (the second
attachment from the bottom) through offset verticals, one extra stick per
merge, after which the run fuses and the pivot is the vertex.  Stacking
places every vertex once: a lone circle's marker on a bend of its knot, any
other vertex's at the second level of its run, which is the pivot, with the
run itself and each component's subtree z-slab.  Merging and straightening
read a vertex's axis from its marker, and only straightening moves markers.

All coordinates are integers on one grid per build.  Stacking sizes the
subtrees bottom-up, scaling each stem up by 8*2^k rather than shrinking its
branch, then puts every tree on the unit ``12 * max(root unit)`` and makes
each stick once at its component's composed scale and offset.  12 is
lcm(2, 3, 4), so the merge offsets m/(d-2) of a unit are grid points for
every degree d <= 6.  ``normalize`` maps each axis through the ranks of its
distinct values, so the output coordinates are small whatever the grid.

Merging works on one ``StickIndex`` of the stacked sticks and names every
stick by its slot there: the planner, each plan's steps and run, each
trial, staged in place over the index, and its pairs, and the kept trial's
commit all read or update it.  ``validate.check_self_avoiding`` only judges
the contacts of the pairs a trial names; the index and the final audit
both settle pairs meeting only at one shared end, which always pass.
Straightening needs no trial: a lemma shows that its moves make no contact.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain, product

from .build import ComponentBuild, build_component
from .errors import (
    AssemblyCollision,
    MergeCollision,
    NoFreeDirection,
    ReconstructionMismatch,
)
from .geom import LatticeEmbedding, Stick, Vec3, stick
from .graph import ComponentClass, CutTree, GraphCensus, SpatialGraphSpec, build_cut_tree, census
from .validate import (
    BoundReport,
    StickCounts,
    check_bound,
    check_self_avoiding,
    endpoint_census,
    full_audit,
    only_shared_end,
    walk_edges,
)

Axis2 = tuple[int, int]


@dataclass
class Assembly:
    sticks: list[Stick]
    # grid points per unit of each component's own arc diagram
    comp_scale: dict[str, int] = field(default_factory=dict)
    # each component's subtree z-slab: its own lowest level up to the top of
    # everything stacked on it
    slab: dict[str, tuple[int, int]] = field(default_factory=dict)
    # each vertex of degree >= 3: its run, the lowest to the highest level of
    # its arcs over all the components holding it
    vertex_zrange: dict[str, tuple[int, int]] = field(default_factory=dict)
    # every vertex's marker, placed once by ``assemble``; merging and
    # straightening read a vertex's axis from it, and only straightening
    # moves it
    markers: dict[str, Vec3] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    # the kept plans in merge order; their steps name slots of the merge
    # stage's ``StickIndex``, equal to positions in ``sticks`` only until
    # the first removal
    merge_plans: list[VertexPlan] = field(default_factory=list)


def _size_subtrees(builds: dict[str, ComponentBuild], tree: CutTree) -> tuple[dict, dict]:
    """Size every subtree on its own grid, without building it, branches
    before their stems (``tree.order`` reversed), so no call recurses
    however deep the tree.

    On that grid a component has ``unit`` grid points per unit, its origin
    at zero and so its lowest level, z = 1, at one unit.  A child whose
    extent around its cut-vertex column is at most ``2^k`` of its own units
    is placed at 1/(8*2^k) of a stem unit, so the stem's unit is the largest
    ``8 * 2^k * child unit``: every child scales up by a power of two.
    Returns ``sized``, each component's ``unit``, its subtree's top z and
    x/y box (xlo, xhi, ylo, yhi), and ``placed``, each branch's unit on its
    own grid and that grid's factor and offset in its stem's grid.
    Connectors stand on stem columns, so they never widen a box.
    """
    sized: dict[str, tuple[int, int, tuple[int, int, int, int]]] = {}
    placed: dict[str, tuple[int, int, Vec3]] = {}
    for comp_id in reversed(tree.order):
        b = builds[comp_id]
        subs = []
        for child_id, cut_vertex in tree.children(comp_id):
            u, ztop, (xlo, xhi, ylo, yhi) = sized[child_id]
            cb = builds[child_id]
            cx, cy = (u * c for c in cb.column_axis(cb.vertex_bp(cut_vertex)))
            extent = max(cx - xlo, xhi - cx, cy - ylo, yhi - cy)
            # 2^k * u: the least power of two covering max(1, extent / u) units
            width = 1 << (max(u, extent) - 1).bit_length()
            subs.append((child_id, cut_vertex, u, (cx, cy), ztop, (xlo, xhi, ylo, yhi), width))
        unit = max((8 * sub[-1] for sub in subs), default=1)
        # The columns span the component: every stick ends on a column axis
        # or on an elbow (hi, lo), which has column hi's x and column lo's
        # y, and every column holds a stick end.
        axes = [b.column_axis(bp) for bp in range(1, b.pres.beta + 1)]
        xs = {unit * x for x, _ in axes}
        ys = {unit * y for _, y in axes}
        top = unit * max(1, b.pres.alpha)
        for child_id, cut_vertex, u, (cx, cy), ztop, (xlo, xhi, ylo, yhi), width in subs:
            ax, ay = (unit * c for c in b.column_axis(b.vertex_bp(cut_vertex)))
            f = unit // (8 * width)
            # one child unit of clearance above ``top``: the child's z = 1
            # level lands at top + f * u, so its grid's origin sits at ``top``
            off = (ax - f * cx, ay - f * cy, top)
            placed[child_id] = (u, f, off)
            xs.update((f * xlo + off[0], f * xhi + off[0]))
            ys.update((f * ylo + off[1], f * yhi + off[1]))
            top += f * ztop
        sized[comp_id] = unit, top, (min(xs), max(xs), min(ys), max(ys))
    return sized, placed


def assemble(
    spec: SpatialGraphSpec, tree: CutTree, builds: dict[str, ComponentBuild]
) -> Assembly:
    """Stack every tree of the forest on one grid and place every vertex
    once; roots get no connector.

    ``_size_subtrees`` sizes each tree bottom-up.  Then one pass over
    ``tree.order`` composes each component's final scale and offset from its
    stem's, makes the component's sticks there, each once, and joins a branch
    to its stem by its connector.  A lone circle's marker sits on its knot
    corner, and no other component holds its vertex.  Any other vertex's
    holders are a chain of branches at that vertex, each stacked above the
    last, so its levels come in ascending order: its run spans them, its
    marker takes the second, the pivot of its merge, and each connector
    joins the top level so far to the branch's lowest.
    """
    sized, placed = _size_subtrees(builds, tree)
    unit = 12 * max(sized[root][0] for root in tree.roots)
    warnings = [w for comp in spec.components for w in builds[comp.id].warnings]
    asm = Assembly(sticks=[], warnings=warnings)
    # per component: final grid points per point of its subtree's grid, and
    # that grid's origin, which is also the component's own
    grid: dict[str, tuple[int, Vec3]] = {}
    axes: dict[str, Axis2] = {}
    levels: dict[str, list[int]] = {}
    top = 0
    for cid in tree.order:
        b = builds[cid]
        stem_id, cut_vertex = tree.parent.get(cid, (None, None))
        if stem_id is not None:
            g, o = grid[stem_id]
            u, f, off = placed[cid]
            g, o = g * f, tuple(g * c + oc for c, oc in zip(off, o))
        else:  # a root: every tree of the forest spans its own z-range
            u, ztop, _ = sized[cid]
            g, o = unit // u, (0, 0, top)
            top += g * ztop
        grid[cid] = (g, o)
        scale = asm.comp_scale[cid] = g * u
        asm.slab[cid] = (scale + o[2], g * sized[cid][1] + o[2])
        asm.sticks.extend(b.sticks(scale, o))
        corner = b.knot_corner()
        if corner is not None:  # a lone circle: its vertex sits on a bend
            label = next(iter(b.pres.labels.values()))
            asm.markers[label] = tuple(scale * c + oc for c, oc in zip(corner, o))
            continue
        for bp, label in b.pres.labels.items():
            ax, ay = b.column_axis(bp)
            axis = (scale * ax + o[0], scale * ay + o[1])
            if axes.setdefault(label, axis) != axis:
                raise AssemblyCollision(f"cut vertex {label} columns failed to align")
            zs = [scale * a.page + o[2] for a in b.pres.incidence[bp]]
            run = levels.setdefault(label, [])
            if label == cut_vertex:  # the connector: stem column top to branch column foot
                asm.sticks.append(Stick((*axis, run[-1]), (*axis, zs[0])))
            run += zs
    for label, run in levels.items():
        asm.vertex_zrange[label] = (run[0], run[-1])
        asm.markers[label] = (*axes[label], run[1])
    return asm


# --- vertex merging -------------------------------------------------------

class StickIndex:
    """One build state's sticks by slot, bucketed for the merge planner and
    for the pairs each trial's check compares, and updated in place by each
    committed trial.

    A slot names a stick while the index holds it: a replaced stick keeps
    its slot, a removed slot is never reused and an appended stick takes the
    next unused one, so ``sticks``, a dict from slot to stick, runs in state
    order.  ``stage`` lays a ``Trial`` over ``sticks``, copying nothing;
    ``commit`` applies it in place, and a trial never committed changes
    nothing.  Buckets hold slots under flat ``_keys``: ``lines`` by (axis,
    its two fixed coordinates), ``planes`` by (normal axis, coordinate,
    stick axis) and ``columns`` the horizontal sticks by the (x, y) of each
    end.  ``ending_at`` finds the sticks ending at a point in ``lines``.
    """

    def __init__(self, sticks: list[Stick]):
        self.sticks: dict[int, Stick] = dict(enumerate(sticks))
        self.lines: dict[tuple, set[int]] = defaultdict(set)
        self.planes: dict[tuple, set[int]] = defaultdict(set)
        self.columns: dict[tuple[int, int], set[int]] = defaultdict(set)
        self.trial: Trial | None = None
        self._next = len(sticks)  # the next unused slot
        self._file(self.sticks.items())

    def _file(self, items, bucket=set.add) -> None:
        """File each ``(slot, stick)`` of ``items`` under its ``_keys``;
        with ``bucket=set.discard``, take it out of them."""
        lines, planes, columns = self.lines, self.planes, self.columns
        for k, s in items:
            line, plane_u, plane_w, end_a, end_b = _keys(s)
            bucket(lines[line], k)
            bucket(planes[plane_u], k)
            bucket(planes[plane_w], k)
            if end_a:
                bucket(columns[end_a], k)
                bucket(columns[end_b], k)

    def state(self) -> list[Stick]:
        return list(self.sticks.values())

    def ending_at(self, p: Vec3) -> list[int]:
        """The slots of the sticks with an end at ``p``, which all lie on the
        three lines through it."""
        x, y, z = p
        sticks, lines = self.sticks, self.lines
        through = chain(lines.get((0, y, z), ()), lines.get((1, x, z), ()), lines.get((2, x, y), ()))
        return [k for k in through if sticks[k].a == p or sticks[k].b == p]

    def attachments(self, axis: tuple[int, int], zrange: tuple[int, int]):
        """Horizontal sticks with an end on the vertical line through
        ``axis`` inside ``zrange``, bottom to top: (level, slot, outward 2d
        direction).  A stick leaves its ``a`` end forward along its axis and
        its ``b`` end backward, since the contract orders the ends."""
        zlo, zhi = zrange
        found = []
        for k in self.columns.get(axis, ()):
            s = self.sticks[k]
            a, b = s.a, s.b
            p, sign = (a, 1) if (a[0], a[1]) == axis else (b, -1)
            if zlo <= p[2] <= zhi:
                found.append((p[2], k, (sign, 0) if a[0] != b[0] else (0, sign)))
        return sorted(found)

    def stage(
        self, replaced: dict[int, Stick], removed: Collection[int], appended: list[Stick]
    ) -> None:
        """Stage a trial as ``trial``: the state with the sticks of
        ``replaced`` in their slots, the ``removed`` slots dropped and
        ``appended`` after the rest, in the next unused slots."""
        new = dict(replaced)
        new.update(zip(range(self._next, self._next + len(appended)), appended))
        self.trial = Trial(self.sticks, new, removed)

    def commit(self) -> None:
        """Apply the staged trial in place.  A replaced slot moves only
        between the keys that differ, all discards first, since a kept end's
        column may change place: a drop or extend keeps its line and planes,
        so only the moved end's column key changes."""
        new, sticks = self.trial.new, self.sticks
        self._file([(k, sticks.pop(k)) for k in self.trial.removed], set.discard)
        buckets = (self.lines, self.planes, self.planes, self.columns, self.columns)
        appended = []
        for k, s in new.items():
            if k not in sticks:
                appended.append((k, s))
                continue
            moved = [
                (bucket, was, now)
                for bucket, was, now in zip(buckets, _keys(sticks[k]), _keys(s))
                if was != now
            ]
            for bucket, was, _ in moved:
                if was:
                    bucket[was].discard(k)
            for bucket, _, now in moved:
                if now:
                    bucket[now].add(k)
        self._file(appended)
        sticks.update(new)  # replaced slots keep their place, appended ones follow
        self._next += len(appended)
        self.trial = None

    def touching_pairs(self) -> list[tuple[int, int]]:
        """The ``pairs`` a check of ``trial`` takes, by the audit sweep's
        contract: each slot pair holding a new stick whose sticks meet other
        than at one point that is an end of both, sorted.  A new stick along
        ``u`` meets the sticks of its line that overlap it, the sticks along
        ``p`` of its plane fixing ``q`` that meet it inside one of the two,
        and the other new sticks whose boxes meet unless ``only_shared_end``."""
        new, removed = self.trial.new, self.trial.removed
        sticks, lines, planes = self.sticks, self.lines, self.planes
        pairs: list[tuple[int, int]] = []
        seen: list[tuple[int, Stick, Vec3, Vec3]] = []
        for i, s in new.items():
            a, b = s.a, s.b
            u, v, w = (0, 1, 2) if a[0] != b[0] else (1, 0, 2) if a[1] != b[1] else (2, 0, 1)
            lo, hi = a[u], b[u]
            for k in lines.get((u, a[v], a[w]), ()):
                if k not in new and k not in removed:
                    t = sticks[k]
                    if t.a[u] < hi and lo < t.b[u]:
                        pairs.append((i, k) if i < k else (k, i))
            for p, q in ((v, w), (w, v)):
                h = a[p]
                for k in planes.get((q, a[q], p), ()):
                    if k not in new and k not in removed:
                        t = sticks[k]
                        c, tlo, thi = t.a[u], t.a[p], t.b[p]
                        if lo <= c <= hi and tlo <= h <= thi and (lo < c < hi or tlo < h < thi):
                            pairs.append((i, k) if i < k else (k, i))
            (sax, say, saz), (sbx, sby, sbz) = a, b
            for j, t, (tax, tay, taz), (tbx, tby, tbz) in seen:
                if (
                    sax <= tbx and tax <= sbx and say <= tby and tay <= sby and saz <= tbz
                    and taz <= sbz and not only_shared_end(s, t)
                ):
                    pairs.append((i, j) if i < j else (j, i))
            seen.append((i, s, a, b))
        pairs.sort()
        return pairs


def _keys(s: Stick) -> tuple:
    """Stick ``s``'s keys in the index's line, two plane and two column
    buckets, a vertical stick's column keys ``None``."""
    (ax, ay, az), (bx, by, bz) = s.a, s.b
    if ax != bx:
        return (0, ay, az), (1, ay, 0), (2, az, 0), (ax, ay), (bx, by)
    if ay != by:
        return (1, ax, az), (0, ax, 1), (2, az, 1), (ax, ay), (bx, by)
    return (2, ax, ay), (0, ax, 2), (1, ay, 2), None, None


class Trial(Mapping):
    """A trial laid over an index's ``sticks``, which it leaves as they are:
    ``new`` maps each replaced and appended slot to its stick, ``removed``
    holds the dropped slots.  As a mapping it is the trial state by slot, in
    state order."""

    def __init__(self, sticks: dict[int, Stick], new: dict[int, Stick], removed: Collection[int]):
        self.sticks, self.new, self.removed = sticks, new, removed

    def __getitem__(self, k: int) -> Stick:
        if k in self.removed:
            raise KeyError(k)
        return self.new[k] if k in self.new else self.sticks[k]

    def __iter__(self):
        yield from (k for k in self.sticks if k not in self.removed)
        yield from (k for k in self.new if k not in self.sticks)

    def __len__(self) -> int:
        return len(self.sticks) - len(self.removed) + sum(k not in self.sticks for k in self.new)


@dataclass(frozen=True)
class MergeStep:
    level: int
    direction: tuple[int, int]
    move: str  # "drop" | "translate" | "extend"
    epsilon: int
    index: int  # the rerouted stick's slot
    partner: int | None = None  # the slot of a translate's far-end partner


@dataclass(frozen=True)
class VertexPlan:
    vertex: str
    axis: Axis2
    pivot_level: int
    pivot_direction: tuple[int, int]
    column_base: int
    old_top: int
    new_top: int
    steps: tuple[MergeStep, ...]


def _candidate_moves(index, axis, attachment, is_top) -> list[tuple]:
    """Options for merging one attachment, in preference order, as
    ``(level, direction, move, slot, partner)``: drop; translate
    perpendicular, "+" before "-", when the far end has a single partner
    lying along that perpendicular to absorb the shift; and for the top
    stick, extend the opposite way.  Slots are those of ``index``.  The plan
    sets each step's epsilon, which depends on its place there."""
    level, k, d = attachment
    s = index.sticks[k]
    far = s.b if s.a == (axis[0], axis[1], level) else s.a
    partners = [j for j in index.ending_at(far) if j != k]
    options = [(level, d, "drop", k, None)]
    if len(partners) == 1 and index.sticks[partners[0]].axis == (1 if d[0] else 0):
        perps = [(0, 1), (0, -1)] if d[0] else [(1, 0), (-1, 0)]
        options += [(level, w, "translate", k, partners[0]) for w in perps]
    if is_top:
        options.append((level, (-d[0], -d[1]), "extend", k, None))
    return options


def _vertex_plans(index: StickIndex, vertex, axis, zrange, degree, unit):
    """Yield candidate merge plans for one vertex in preference order.

    Targets are the attachments strictly between the pivot and the top,
    read with their far-end partners from ``index``.  When no direction
    works for the last interior target, that stick keeps its attachment as
    the new column top and the topmost stick is merged instead: reaching an
    opposite direction by extending a stick past the column is only safe at
    the top, where the shortened column no longer blocks the way.  (Degree
    6 forces this whenever the one remaining direction opposes the fifth
    stick; lower degrees only need it for degenerate presentations whose
    sticks join two columns.)
    """
    att = index.attachments(axis, zrange)
    if len(att) != degree:
        raise MergeCollision(f"vertex {vertex}: found {len(att)} attachments, expected {degree}")
    pivot_level, _, pivot_dir = att[1]
    *earlier, last = (_candidate_moves(index, axis, a, False) for a in att[2:-1])
    top: list[tuple] = []  # the top stick's options, found once the search reaches them

    def finals():  # the last slot also holds the swap: keep that stick, merge the top one
        yield from last
        if not top:
            top.extend(_candidate_moves(index, axis, att[-1], True))
        yield from top

    # degree - 2 directions meet at the pivot; it divides ``unit`` (a multiple of 12)
    n = degree - 2
    produced = False
    for chosen in ((*prefix, final) for prefix in product(*earlier) for final in finals()):
        # the pivot's and the merged sticks' directions must all differ
        if len({pivot_dir, *(c[1] for c in chosen)}) < n:
            continue
        produced = True
        steps = tuple(
            MergeStep(level, d, move, m * unit // n, k, j)
            for m, (level, d, move, k, j) in enumerate(chosen, start=1)
        )
        swapped = chosen[-1][3] == att[-1][1]
        new_top = att[-2][0] if swapped else att[-1][0]
        yield VertexPlan(
            vertex, axis, pivot_level, pivot_dir, att[0][0], att[-1][0], new_top, steps
        )
    if not produced:
        raise NoFreeDirection(f"vertex {vertex}: no merge assignment exists")


def _apply_vertex_plan(index: StickIndex, plan: VertexPlan) -> bool:
    """Stage one vertex's merges on ``index`` and return True, or return
    False, staging nothing, if a step would leave a stick of zero length: a
    drop or extend whose break point is the far end, or a translate that
    moves the far end onto its partner's other end.

    A step replaces only sticks at its own level (its own, and a translate's
    partner, which is horizontal there) and appends only sticks that end at
    its own level or at the pivot level, so no later step's attachment or
    far partner changes.  The run between the column base and the old top,
    read from the column's line bucket, fuses into two sticks meeting at
    the pivot.
    """
    ax, ay = plan.axis
    replaced: dict[int, Stick] = {}
    appended: list[Stick] = []
    for step in plan.steps:
        s = index.sticks[step.index]
        far = s.b if s.a == (ax, ay, step.level) else s.a
        wx, wy = step.direction
        bx, by = ax + step.epsilon * wx, ay + step.epsilon * wy
        break_pt = (bx, by, step.level)
        arm_end = (bx, by, plan.pivot_level)

        if step.move in ("drop", "extend"):
            if break_pt == far:
                return False
            replaced[step.index] = stick(break_pt, far, s.comp)
        else:  # translate: the stick shifts to the break point, its partner follows
            moved_far = (far[0] + step.epsilon * wx, far[1] + step.epsilon * wy, far[2])
            partner = index.sticks[step.partner]
            keep = partner.b if partner.a == far else partner.a
            if keep == moved_far:
                return False
            replaced[step.index] = stick(break_pt, moved_far, s.comp)
            replaced[step.partner] = stick(keep, moved_far, partner.comp)
        appended.append(Stick(arm_end, break_pt, s.comp))  # targets sit above the pivot
        appended.append(stick((ax, ay, plan.pivot_level), arm_end, s.comp))

    column = [(k, index.sticks[k]) for k in index.lines.get((2, ax, ay), ())]
    run = {k for k, s in column if s.a[2] >= plan.column_base and s.b[2] <= plan.old_top}
    # attachment levels ascend: the column base, the pivot, then the new top
    appended.append(Stick((ax, ay, plan.column_base), (ax, ay, plan.pivot_level)))
    appended.append(Stick((ax, ay, plan.pivot_level), (ax, ay, plan.new_top)))
    index.stage(replaced, run, appended)
    return True


def apply_merges(cens: GraphCensus, asm: Assembly) -> Assembly:
    """Merge every vertex of degree >= 4 at the pivot ``assemble`` marked.

    One ``StickIndex`` serves the whole stage, built only when some vertex
    has degree 4 or more.  Each vertex keeps its first candidate plan that
    leaves no stick of zero length and whose trial, checked against its new
    sticks' buckets only, stays intersection-free; that trial is committed
    and its plan goes to ``asm.merge_plans``.  Exhausting all of them raises
    MergeCollision.  A vertex's merge offsets divide the finest unit among
    the components holding it.  No marker moves: each plan fuses the run
    into two sticks meeting at the pivot, which stays where it was marked.
    """
    degrees = cens.degrees
    merged = sorted(label for label, d in degrees.items() if d >= 4)
    if not merged:
        return asm
    index = StickIndex(asm.sticks)
    for label in merged:
        x, y, _ = asm.markers[label]
        unit = min(asm.comp_scale[c] for c in cens.points[label])
        plans = _vertex_plans(index, label, (x, y), asm.vertex_zrange[label], degrees[label], unit)
        for plan in plans:
            if _apply_vertex_plan(index, plan) and not check_self_avoiding(
                index.trial, pairs=index.touching_pairs()
            ):
                index.commit()
                break
        else:
            raise MergeCollision(f"all merge moves collide at vertex {label}")
        asm.merge_plans.append(plan)
    asm.sticks = index.state()
    return asm


# --- arc straightening ----------------------------------------------------

def straighten_arcs(
    spec: SpatialGraphSpec,  # unread here; bench/tracing.py counts single-arc links from it
    tree: CutTree,
    builds: dict[str, ComponentBuild],
    asm: Assembly,
) -> Assembly:
    """Replace each single-arc link's elbow by one vertical stick on its
    stem's cut-vertex column, sliding the link's branch subtree over it.

    A link stays, noted in tree order, if it has more than one arc (it may
    be knotted), if its one branch does not hang at its far vertex, if a
    merge rerouted a stick of its elbow (its sticks at its page level ending
    on the near and far columns, found by ``comp`` tag), or if its far-axis
    run (the connector, or the fused run a merge rebuilt, from the elbow to
    the branch's slab, found by column) is gone.  Each other link shifts its
    branch's slab by near minus far.  Slabs nest or are disjoint, so a
    prefix sum over their sorted ends gives each height's shift, and every
    kept stick and marker moves once by it; the new sticks follow in tree
    order.  A kept stick with one end in a slab is a fault, and raises.

    Lemma, in place of a trial: the moves make no contact.  Each subtree
    reaches at most 1/8 of its stem's unit from the column it hangs over, so
    the branch lies within a quarter of a stem unit of the near column
    before and after the move, which is rigid inside the slab.  A stick
    crossing the heights from the link's page level to its branch's top is
    a connector, fused run or merge offset of a vertex held below and above
    them, so at some stem of the link (its own or an enclosing one) it lies
    on another column than the one the link's side hangs over: no holder of
    the near vertex lies above the link, as siblings never share a cut
    vertex and the branch hangs at the far vertex.  Columns are a whole
    stem unit apart and offsets at most the finest holder's unit, at most
    1/8 of the stem's, so each such stick is at least 7/8 of a stem unit
    away, beyond the branch's reach.  The new stick meets others only at its
    ends, where the elbow and the run it replaces ended: the top end of the
    near vertex's run, and the moved branch where the run's top was, so
    every point keeps its count of ends.
    """
    notes: dict[str, str] = {}
    links = {}  # in tree order: v_near, z_arc, the branch's slab, near and far (x, y)
    by_far = defaultdict(list)  # the links on each far column
    for comp_id in tree.order:
        b = builds[comp_id]
        if b.cls is not ComponentClass.ARC:
            continue
        if b.pres.alpha != 1:
            alpha = b.pres.alpha
            notes[comp_id] = f"{comp_id}: arc component with {alpha} arcs left unstraightened"
            continue
        v_near = tree.parent[comp_id][1]  # trees are rooted at non-arc components
        v_far = next(iter(set(b.pres.labels.values()) - {v_near}))
        children = tree.children(comp_id)
        if len(children) != 1 or children[0][1] != v_far:
            notes[comp_id] = f"{comp_id}: unexpected branch layout, not straightened"
            continue
        z_arc, (z_lo, z_hi) = asm.slab[comp_id][0], asm.slab[children[0][0]]
        far = asm.markers[v_far][:2]
        links[comp_id] = (v_near, z_arc, z_lo, z_hi, asm.markers[v_near][:2], far)
        by_far[far].append((comp_id, z_arc, z_lo))
    parts = {c: ([], [], []) for c in links}  # positions: elbow sticks ending near, far; the run
    for i, s in enumerate(asm.sticks):
        (ax, ay, az), (bx, by, bz) = s.a, s.b
        if az == bz and s.comp in links:
            _, z_arc, _, _, near, far = links[s.comp]
            ends = ((ax, ay), (bx, by))
            if az == z_arc and (near in ends or far in ends):
                parts[s.comp][far in ends].append(i)
        elif (ax, ay) == (bx, by):
            for c, z_arc, z_lo in by_far.get((ax, ay), ()):
                if z_arc <= az < z_lo:
                    parts[c][2].append(i)
    for c, (near, far, run) in parts.items():
        if (len(near), len(far)) != (1, 1):
            notes[c] = f"{c}: rerouted by merging, not straightened"
        elif not run:
            notes[c] = f"{c}: no branch run found, not straightened"
    asm.warnings += [notes[c] for c in tree.order if c in notes]
    straightened = {c: link for c, link in links.items() if c not in notes}
    if not straightened:
        return asm

    # a shift starts at its slab's bottom, (z, 0), and stops past its top, (z, 1)
    events = sorted(
        (z, top, sign * (nx - fx), sign * (ny - fy))
        for _, _, z_lo, z_hi, (nx, ny), (fx, fy) in straightened.values()
        for z, top, sign in ((z_lo, 0, 1), (z_hi, 1, -1))
    )
    keys = [e[:2] for e in events]
    sums = list(accumulate(events, lambda p, e: (p[0] + e[2], p[1] + e[3]), initial=(0, 0)))
    shift = cache(lambda z: sums[bisect_left(keys, (z, 1))])  # bottoms at or below z, tops below
    removed = {i for c in straightened for i in chain(*parts[c])}
    moved = []
    for i, s in enumerate(asm.sticks):
        if i in removed:
            continue
        (ax, ay, az), (bx, by, bz) = s.a, s.b
        dx, dy = shift(az)
        if shift(bz) != (dx, dy):  # one end in a slab, which only a fault makes
            slabs = ((c, lo, hi) for c, (_, _, lo, hi, _, _) in straightened.items())
            torn = next(c for c, lo, hi in slabs if az < lo <= bz or az <= hi < bz)
            raise AssemblyCollision(f"straightening {torn} would tear {s} at its slab")
        if dx or dy:
            s = Stick((ax + dx, ay + dy, az), (bx + dx, by + dy, bz), s.comp)
        moved.append(s)
    asm.markers = {k: (x + shift(z)[0], y + shift(z)[1], z) for k, (x, y, z) in asm.markers.items()}
    for c, (v_near, z_arc, *_) in straightened.items():
        nx, ny, _ = asm.markers[v_near]
        top = max(asm.sticks[i].b[2] for i in parts[c][2])
        moved.append(Stick((nx, ny, z_arc), (nx, ny, top), c))
    asm.sticks = moved
    return asm


# --- traces and normalization ---------------------------------------------

def _simplify(polyline: list[Vec3]) -> list[Vec3]:
    """The polyline's ends and each interior point where the sign step (-1,
    0 or 1 per axis) changes; each segment's step is taken once.  A walked
    polyline ends at its first marker, so no interior point is one."""
    steps = [
        ((bx > ax) - (bx < ax), (by > ay) - (by < ay), (bz > az) - (bz < az))
        for (ax, ay, az), (bx, by, bz) in zip(polyline, polyline[1:])
    ]
    kept = zip(polyline[1:], steps, steps[1:])
    return [polyline[0], *(p for p, s, t in kept if s != t), polyline[-1]]


def derive_traces(
    cens: GraphCensus, sticks: list[Stick], markers: dict[str, Vec3]
) -> dict[str, list[Vec3]]:
    """Walk the final geometry and assign each path its input edge id.

    A path's component is the one tag its sticks carry; with the end labels
    it picks the input edge, so loops of two components at one vertex keep
    their own ids.
    """
    walked, problems = walk_edges(sticks, markers, endpoint_census(sticks))
    if problems:
        raise ReconstructionMismatch("cannot trace edges", problems)
    pools: dict[tuple[str, tuple[str, str]], list[str]] = {}
    for comp_id, edges in cens.edges.items():
        for tr in edges:
            key = (comp_id, tuple(sorted((tr.v_start, tr.v_end))))
            pools.setdefault(key, []).append(tr.edge_id)
    traces: dict[str, list[Vec3]] = {}
    for va, vb, polyline, indices in walked:
        comps = {sticks[i].comp for i in indices if sticks[i].comp}
        if len(comps) != 1:
            raise ReconstructionMismatch(
                "edge path crosses components", [f"{va}-{vb}: {sorted(comps)}"]
            )
        key = (comps.pop(), tuple(sorted((va, vb))))
        if not pools.get(key):
            raise ReconstructionMismatch("edge path matches no input edge", [str(key)])
        traces[pools[key].pop(0)] = _simplify(polyline)
    return traces


def normalize(
    markers: dict[str, Vec3],
    traces: dict[str, list[Vec3]],
    warnings: tuple[str, ...] = (),
) -> LatticeEmbedding:
    """Map each axis through the ranks of its distinct values, taken over
    the trace points (the fused sticks' ends) and the markers, and fuse each
    trace into one ``Stick`` per straight run, its ends ordered: each kept
    run has one nonzero sign step and the ranks are injective per axis.

    An order-preserving map of each axis is an ambient isotopy: every stick
    keeps its axis and two sticks meet exactly where they met before, since
    contact is interval overlap per axis, so every count and knot type is
    kept.  Each output coordinate is below its axis's number of values."""
    points = [*chain.from_iterable(traces.values()), *markers.values()]
    rx, ry, rz = ({v: i for i, v in enumerate(sorted(set(axis)))} for axis in zip(*points))
    new_traces = {
        eid: [(rx[x], ry[y], rz[z]) for x, y, z in line] for eid, line in traces.items()
    }
    fused = tuple(
        Stick(a, b) if a < b else Stick(b, a)
        for eid in sorted(new_traces)
        for a, b in zip(new_traces[eid], new_traces[eid][1:])
    )
    return LatticeEmbedding(
        sticks=fused,
        markers={k: (rx[x], ry[y], rz[z]) for k, (x, y, z) in markers.items()},
        traces=new_traces,
        warnings=warnings,
    )


def build_full(spec: SpatialGraphSpec) -> tuple[LatticeEmbedding, StickCounts, BoundReport]:
    """Run the whole pipeline and certify the result before returning it.

    Raises on any validation failure: the returned embedding always passes
    the full audit and the closed-form stick bound, whose counts and report
    are returned with it.
    """
    cens = census(spec)
    tree = build_cut_tree(spec, cens)
    builds = {c.id: build_component(c, cens.classes[c.id]) for c in spec.components}
    asm = assemble(spec, tree, builds)
    asm = apply_merges(cens, asm)
    asm = straighten_arcs(spec, tree, builds, asm)
    traces = derive_traces(cens, asm.sticks, asm.markers)
    emb = normalize(asm.markers, traces, tuple(asm.warnings))

    report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
    if not report.clean:
        raise AssemblyCollision(
            "built embedding failed its audit: "
            f"violations={report.violations[:3]} junctions={report.unmarked_junctions[:3]} "
            f"markers={report.marker_problems[:3]} diff={report.reconstruction_diff[:3]}"
        )
    bounds = check_bound(report.counts, cens, cens.alpha_total, spec.declared_crossings)
    return emb, report.counts, bounds
