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
trial's staging and pairs, and the kept trial's commit all read or update
it.  ``validate.check_self_avoiding`` only judges the contacts of the pairs
a trial names.  Straightening finds its trial's pairs with
``validate.scan_changed``; the final audit finds its own.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection
from dataclasses import dataclass, field, replace
from itertools import chain, product

from .build import ComponentBuild, build_component
from .errors import (
    AssemblyCollision,
    MergeCollision,
    NoFreeDirection,
    ReconstructionMismatch,
)
from .geom import OTHER_AXES, LatticeEmbedding, Stick, Vec3, buckets, stick
from .graph import ComponentClass, CutTree, GraphCensus, SpatialGraphSpec, build_cut_tree, census
from .validate import (
    BoundReport,
    StickCounts,
    check_bound,
    check_self_avoiding,
    endpoint_census,
    full_audit,
    scan_changed,
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
    for the pairs each trial's check compares, and updated by each
    committed trial.

    A slot names a stick for as long as the index holds it: a replaced
    stick keeps its slot, a removed slot is never reused and an appended
    stick takes the next unused slot.  So ``sticks``, a dict from slot to
    stick, runs in the state's order, and slot order is position order in
    ``state()``.  ``stage`` proposes a trial: some slots' sticks replaced,
    some slots removed and new sticks appended.  ``commit`` makes the staged
    trial the state; a trial never committed leaves the index as it was.

    Buckets hold slots: ``lines`` by ``buckets``' line key, ``planes`` by
    plane key and then by stick axis, ``ends`` by end point, and
    ``columns`` the horizontal sticks by the (x, y) of each of their ends.
    """

    def __init__(self, sticks: list[Stick]):
        self.sticks: dict[int, Stick] = dict(enumerate(sticks))
        self.lines: dict[tuple, set[int]] = defaultdict(set)
        self.planes: dict[tuple, tuple[set[int], ...]] = defaultdict(lambda: (set(), set(), set()))
        self.ends: dict[Vec3, set[int]] = defaultdict(set)
        self.columns: dict[tuple[int, int], set[int]] = defaultdict(set)
        # the staged trial by slot, then its replaced sticks, removed slots
        # and appended slots
        self.trial: dict[int, Stick] | None = None
        self._staged: tuple[dict[int, Stick], Collection[int], range] | None = None
        self._next = len(sticks)  # the next unused slot
        for k in self.sticks:
            self._file(k)

    def _file(self, k: int, bucket=set.add) -> None:
        """File slot ``k`` under each key of its stick; with
        ``bucket=set.discard``, take it out of them."""
        s = self.sticks[k]
        ax, line, plane_u, plane_w = buckets(s)
        bucket(self.lines[line], k)
        bucket(self.planes[plane_u][ax], k)
        bucket(self.planes[plane_w][ax], k)
        for p in s.ends():
            bucket(self.ends[p], k)
            if ax != 2:
                bucket(self.columns[p[0], p[1]], k)

    def state(self) -> list[Stick]:
        return list(self.sticks.values())

    def attachments(self, axis: tuple[int, int], zrange: tuple[int, int]):
        """Horizontal sticks with an end on the vertical line through
        ``axis`` inside ``zrange``, bottom to top: (level, slot, outward 2d
        direction)."""
        zlo, zhi = zrange
        found = []
        for k in self.columns.get(axis, ()):
            s = self.sticks[k]
            p = s.a if (s.a[0], s.a[1]) == axis else s.b
            if zlo <= p[2] <= zhi:
                d = s.direction_from(p)
                found.append((p[2], k, (d[0], d[1])))
        return sorted(found)

    def stage(
        self, replaced: dict[int, Stick], removed: Collection[int], appended: list[Stick]
    ) -> None:
        """Stage a trial as ``trial``: the state with the sticks of
        ``replaced`` in their slots, the ``removed`` slots dropped and
        ``appended`` after the rest, in the next unused slots."""
        trial = dict(self.sticks)
        trial.update(replaced)
        for k in removed:
            del trial[k]
        added = range(self._next, self._next + len(appended))
        trial.update(zip(added, appended))
        self.trial = trial
        self._staged = (replaced, removed, added)

    def commit(self) -> None:
        """Make the staged trial the indexed state."""
        replaced, removed, added = self._staged
        for k in (*replaced, *removed):
            self._file(k, set.discard)
        self.sticks = self.trial
        for k in (*replaced, *added):
            self._file(k)
        self._next = added.stop
        self.trial = self._staged = None

    def touching_pairs(self) -> list[tuple[int, int]]:
        """The ``pairs`` a check of ``trial`` takes: every slot pair holding
        a new stick whose sticks meet, sorted, from each new stick's line,
        its two planes' perpendicular sticks and the other new sticks."""
        replaced, removed, added = self._staged
        trial = self.trial
        changed = [*sorted(replaced), *added]
        pairs: list[tuple[int, int]] = []
        for n, i in enumerate(changed):
            s = trial[i]
            ax, line, plane_u, plane_w = buckets(s)
            u, w = OTHER_AXES[ax]
            for k in chain(
                self.lines.get(line, ()),
                self.planes.get(plane_u, _NO_SLOTS)[w],
                self.planes.get(plane_w, _NO_SLOTS)[u],
            ):
                if k not in replaced and k not in removed and _meet(s, self.sticks[k]):
                    pairs.append((i, k) if i < k else (k, i))
            pairs.extend((i, j) for j in changed[n + 1 :] if _meet(s, trial[j]))
        pairs.sort()
        return pairs


_NO_SLOTS: tuple[tuple[int, ...], ...] = ((), (), ())


def _meet(s: Stick, t: Stick) -> bool:
    """Whether two sticks meet: whether their bounding boxes intersect."""
    (sax, say, saz), (sbx, sby, sbz) = s.a, s.b
    (tax, tay, taz), (tbx, tby, tbz) = t.a, t.b
    return (
        sax <= tbx and tax <= sbx and say <= tby and tay <= sby and saz <= tbz and taz <= sbz
    )


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


def _far_end(s: Stick, axis: Axis2, level: int) -> Vec3:
    """The end of an attachment stick away from the column through ``axis``."""
    return s.b if s.a == (axis[0], axis[1], level) else s.a


def _candidate_moves(index, axis, attachment, is_top) -> list[MergeStep]:
    """Options for merging one attachment, in preference order: drop;
    translate perpendicular, "+" before "-", when the far end has a single
    partner lying along that perpendicular to absorb the shift; and for the
    top stick, extend the opposite way.  Steps name sticks by slot in
    ``index``.  Epsilon is left 0: it depends on the step's place in the
    plan."""
    level, k, d = attachment
    options = [MergeStep(level, d, "drop", 0, k)]
    partners = index.ends[_far_end(index.sticks[k], axis, level)] - {k}
    if len(partners) == 1:
        (j,) = partners
        if index.sticks[j].axis == (1 if d[0] else 0):
            perps = [(0, 1), (0, -1)] if d[0] else [(1, 0), (-1, 0)]
            options += [MergeStep(level, w, "translate", 0, k, j) for w in perps]
    if is_top:
        options.append(MergeStep(level, (-d[0], -d[1]), "extend", 0, k))
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
        raise MergeCollision(
            f"vertex {vertex}: found {len(att)} attachments, expected {degree}"
        )
    pivot_level, _, pivot_dir = att[1]
    *earlier, last = (_candidate_moves(index, axis, a, False) for a in att[2:-1])
    # the last slot also holds the swap: keep that stick, merge the top one
    last += _candidate_moves(index, axis, att[-1], True)
    # degree - 2 directions meet at the pivot; it divides ``unit`` (a multiple of 12)
    n = degree - 2
    produced = False
    for chosen in product(*earlier, last):
        # the pivot's and the merged sticks' directions must all differ
        if len({pivot_dir, *(c.direction for c in chosen)}) < n:
            continue
        produced = True
        steps = tuple(replace(c, epsilon=m * unit // n) for m, c in enumerate(chosen, start=1))
        swapped = chosen[-1].index == att[-1][1]
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
        far = _far_end(s, plan.axis, step.level)
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
        appended.append(stick(arm_end, break_pt, s.comp))
        appended.append(stick((ax, ay, plan.pivot_level), arm_end, s.comp))

    run = {
        k
        for k in index.lines.get((2, ax, ay), ())
        if index.sticks[k].a[2] >= plan.column_base and index.sticks[k].b[2] <= plan.old_top
    }
    appended.append(stick((ax, ay, plan.column_base), (ax, ay, plan.pivot_level)))
    appended.append(stick((ax, ay, plan.pivot_level), (ax, ay, plan.new_top)))
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
        for plan in _vertex_plans(
            index,
            label,
            (x, y),
            asm.vertex_zrange[label],
            degrees[label],
            min(asm.comp_scale[c] for c in cens.points[label]),
        ):
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
    """Replace each single-arc component's elbow by one vertical stick,
    sliding its branch subtree sideways over the stem's cut-vertex column.

    One pass over the sticks per link sorts each stick into one group: the
    elbow (the link's sticks at its page level, one ending on the near
    column and one on the far, either way round; a merge that rerouted one
    leaves the link as it is); the far-axis run from the elbow to the
    bottom of the branch's z-slab (the connector, or the fused run a merge
    rebuilt); the sticks inside the slab, moved onto the near column;
    straddlers, with one end in the slab; and the rest, which stay.  The
    elbow and the run give way to one vertical stick on the near axis.  Only
    it and the unmoved sticks spanning the slab are checked, by
    ``scan_changed``, whose precondition holds: the branch moves rigidly in
    x and y, and every other unmoved stick has both ends outside the slab.
    The near and far axes are read from the two vertices' markers, the
    slabs from ``asm.slab``, and the markers inside the branch's slab move
    with it.  Components realising more than one arc stay untouched (they
    may be knotted); every skip is reported.
    """
    for comp_id in tree.order:
        b = builds[comp_id]
        if b.cls is not ComponentClass.ARC:
            continue
        if b.pres.alpha != 1:
            asm.warnings.append(
                f"{comp_id}: arc component with {b.pres.alpha} arcs left unstraightened"
            )
            continue
        v_near = tree.parent[comp_id][1]  # trees are rooted at non-arc components
        v_far = next(iter(set(b.pres.labels.values()) - {v_near}))
        children = tree.children(comp_id)
        if len(children) != 1 or children[0][1] != v_far:
            asm.warnings.append(f"{comp_id}: unexpected branch layout, not straightened")
            continue
        z_lo, z_hi = asm.slab[children[0][0]]
        z_arc = asm.slab[comp_id][0]
        nx, ny, _ = asm.markers[v_near]
        fx, fy, _ = asm.markers[v_far]
        dx, dy = nx - fx, ny - fy
        near, far = (nx, ny, z_arc), (fx, fy, z_arc)

        elbow = [0, 0]  # link sticks at z_arc ending at near, and at far
        run_top = None
        straddles = False
        moved: list[Stick] = []
        changed: set[int] = set()
        for s in asm.sticks:
            (ax, ay, az), (bx, by, bz) = s.a, s.b
            if s.comp == comp_id and az == bz and (s.has_end(near) or s.has_end(far)):
                elbow[s.has_end(far)] += 1
            elif z_arc <= az < z_lo and (ax, ay) == (bx, by) == (fx, fy):
                run_top = bz if run_top is None else max(run_top, bz)
            elif z_lo <= az and bz <= z_hi:
                moved.append(Stick((ax + dx, ay + dy, az), (bx + dx, by + dy, bz), s.comp))
            elif z_lo <= az <= z_hi or z_lo <= bz <= z_hi:
                straddles = True
            else:
                if az < z_lo and bz > z_hi:
                    changed.add(len(moved))
                moved.append(s)
        if elbow != [1, 1]:
            asm.warnings.append(f"{comp_id}: rerouted by merging, not straightened")
            continue
        if run_top is None:
            asm.warnings.append(f"{comp_id}: no branch run found, not straightened")
            continue
        if straddles:
            asm.warnings.append(f"{comp_id}: branch subtree not separable, not straightened")
            continue
        changed.add(len(moved))
        moved.append(stick(near, (nx, ny, run_top), comp_id))
        if check_self_avoiding(moved, scan_changed(moved, changed)):
            asm.warnings.append(f"{comp_id}: straightening collides, skipped")
            continue

        asm.sticks = moved
        asm.markers = {
            label: ((p[0] + dx, p[1] + dy, p[2]) if z_lo <= p[2] <= z_hi else p)
            for label, p in asm.markers.items()
        }
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
