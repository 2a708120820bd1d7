import copy
import random
import re
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from latticestick import assembly, build, validate
from latticestick.assembly import (
    StickIndex,
    _vertex_plans,
    apply_merges,
    assemble,
    build_full,
    derive_traces,
    normalize,
    straighten_arcs,
)
from latticestick.build import build_component
from latticestick.errors import (
    AssemblyCollision,
    BoundViolated,
    InvalidSpec,
    LatticeStickError,
    MergeCollision,
    NoFreeDirection,
    ReconstructionMismatch,
)
from latticestick.fixtures import CHAIN, DEMOS, LOOP_TREFOIL, SPLIT_PAIR
from latticestick.geom import Stick, contact, stick
from latticestick.graph import (
    ComponentClass,
    ComponentSpec,
    SpatialGraphSpec,
    build_cut_tree,
    census,
)
from latticestick.invariants import extract_knot_cycle, knot_determinant, project_generic
from latticestick.io import embedding_from_document, embedding_to_document, spec_from_document
from latticestick.validate import (
    audit_junctions,
    check_self_avoiding,
    count_sticks,
    endpoint_census,
    file_sticks,
    full_audit,
    walk_edges,
)
import oracles
from oracles import attachments as oracle_attachments, transform, transform_point
from test_build import presentations
from test_golden import INPUTS as GOLDEN_INPUTS, _bench_workloads, chain
from test_properties import (
    THETA5,
    WIDER_SHAPES,
    graph_component_specs,
    knot_specs,
    wider_branch_trees,
)
from test_validate import (
    GRID,
    _all_pairs_self_avoiding,
    _faultable_pairs,
    assert_audit_matches_oracle,
    grid_sticks,
    xs,
    ys,
    zs,
)


def connectors(asm):
    """Stacked sticks no component's build produced: each one leaves its
    stem's levels for its branch's, so its branch's subtree slab holds one
    of its ends only, where a component's stick lies in the same slabs at
    both ends."""
    return [
        s
        for s in asm.sticks
        if any((lo <= s.a[2] <= hi) != (lo <= s.b[2] <= hi) for lo, hi in asm.slab.values())
    ]


def fractions_made(monkeypatch):
    """The argument tuples of every ``Fraction`` constructed from now on."""
    original = Fraction.__dict__["__new__"]
    made = []

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original.__func__(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return made


def stages(doc, stack=assemble):
    """The build's stages up to stacking, by ``stack``: ``assemble`` or the
    earlier ``oracles.assemble``."""
    spec = spec_from_document(doc)
    cens = census(spec)
    tree = build_cut_tree(spec, cens)
    builds = {c.id: build_component(c, cens.classes[c.id]) for c in spec.components}
    asm = stack(spec, tree, builds)
    return spec, cens, tree, builds, asm


def _counts(sticks, markers):
    axes, ends, _, _ = file_sticks(sticks)
    return count_sticks(axes, markers, ends)


def _violations(sticks, markers):
    """The full oracle check, shared endpoints judged."""
    return oracles.check_self_avoiding(sticks, markers, endpoint_census(sticks))


class TestAssemble:
    def test_composite_connector_collinear(self):
        spec, cens, tree, builds, asm = stages(DEMOS["theta-composite"])
        (c,) = connectors(asm)
        assert c.axis == 2 and c.comp == ""
        assert (c.a[0], c.a[1]) == asm.markers["v2"][:2]

    def test_disjoint_component_slabs(self):
        """Each component's own levels, from the bottom of its slab at its
        scale, lie below the next one's in stacking order, and each branch's
        slab lies inside its stem's."""
        spec, cens, tree, builds, asm = stages(CHAIN)
        lows = [asm.slab[cid][0] for cid in tree.order]
        spans = [
            (lo, lo + asm.comp_scale[cid] * (builds[cid].pres.alpha - 1))
            for lo, cid in zip(lows, tree.order)
        ]
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert hi1 < lo2
        for cid, (stem_id, _) in tree.parent.items():
            (lo, hi), (stem_lo, stem_hi) = asm.slab[cid], asm.slab[stem_id]
            assert stem_lo < lo <= hi <= stem_hi

    def test_split_forest_has_no_connector(self):
        spec, cens, tree, builds, asm = stages(SPLIT_PAIR)
        assert connectors(asm) == []
        # each tree of the forest has its own slab; the lone circle's vertex
        # w gets no run
        (lo1, hi1), (lo2, hi2) = (asm.slab[root] for root in tree.roots)
        assert hi1 < lo2 or hi2 < lo1
        assert sorted(asm.vertex_zrange) == ["v1", "v2"]

    def test_branch_scales_nest(self):
        spec, cens, tree, builds, asm = stages(CHAIN)
        # the root's unit is the grid unit, the largest scale and a multiple
        # of 12; a branch is at most 1/8 of its stem
        assert asm.comp_scale["th1"] == max(asm.comp_scale.values())
        assert asm.comp_scale["th1"] % 12 == 0
        assert 8 * asm.comp_scale["mid"] <= asm.comp_scale["th1"]
        assert 4 * asm.comp_scale["th2"] < asm.comp_scale["mid"]


# The stacking that carried every subtree's sticks up the tree, transforming
# each stick once per ancestor level, kept as an oracle for ``assemble``.

def test_deep_tree_stacks_without_recursion():
    """Stacking sizes the subtrees in one loop, branches before stems, so
    its frames do not grow with the depth of the cut tree: a 16-theta chain,
    32 components deep, stacks with 20 frames to spare.  Sizing by recursion
    took a frame per level, and ``chain_input(520)``, 1,040 deep, ran out of
    the default 1,000 in ``build``."""
    spec = spec_from_document(_bench_workloads().chain_input(16))
    cens = census(spec)
    tree = build_cut_tree(spec, cens)
    builds = {c.id: build_component(c, cens.classes[c.id]) for c in spec.components}
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        asm = assemble(spec, tree, builds)
    finally:
        sys.setrecursionlimit(limit)
    levels = {}
    for c in tree.order:  # stems first
        levels[c] = levels[tree.parent[c][0]] + 1 if c in tree.parent else 1
    assert max(levels.values()) == 32
    assert asm.sticks == assemble(spec, tree, builds).sticks


@dataclass
class _OracleRealized:
    sticks: list
    scale: dict
    offset: dict
    zmax: int


def _oracle_realize(comp_id, builds, tree):
    b = builds[comp_id]
    children = sorted(tree.children(comp_id), key=lambda c: tree.order.index(c[0]))
    subs = []
    for child_id, cut_vertex in children:
        sub = _oracle_realize(child_id, builds, tree)
        cb = builds[child_id]
        cbp = cb.vertex_bp(cut_vertex)
        u = sub.scale[child_id]
        cx, cy = (u * c for c in cb.column_axis(cbp))
        extent = max(max(abs(p[0] - cx), abs(p[1] - cy)) for s in sub.sticks for p in s.ends())
        width = 1 << (max(u, extent) - 1).bit_length()
        subs.append((sub, cut_vertex, (cx, cy, u * oracles.column_zrange(cb, cbp)[0]), width))
    unit = max((8 * width for *_, width in subs), default=1)
    out = _OracleRealized(
        sticks=[transform(s, unit, (0, 0, 0)) for s in b.sticks(1, (0, 0, 0))],
        scale={comp_id: unit},
        offset={comp_id: (0, 0, 0)},
        zmax=unit * max(1, b.pres.alpha),
    )
    top = out.zmax
    for sub, cut_vertex, (cx, cy, cz), width in subs:
        bp = b.vertex_bp(cut_vertex)
        ax, ay = (unit * c for c in b.column_axis(bp))
        f = unit // (8 * width)
        off = (ax - f * cx, ay - f * cy, top)
        out.sticks.extend(transform(s, f, off) for s in sub.sticks)
        for cid in sub.scale:
            out.scale[cid] = f * sub.scale[cid]
            out.offset[cid] = transform_point(sub.offset[cid], f, off)
        pbar_z = unit * oracles.column_zrange(b, bp)[1]
        out.sticks.append(stick((ax, ay, pbar_z), (ax, ay, f * cz + top)))
        top += f * sub.zmax
    out.zmax = top
    return out


def oracle_assemble(spec, tree, builds):
    """The old stacking; lone circles' markers are returned as ``markers``."""
    subs = {root: _oracle_realize(root, builds, tree) for root in tree.roots}
    unit = 12 * max(sub.scale[root] for root, sub in subs.items())
    asm = SimpleNamespace(
        sticks=[], vertex_axis={}, vertex_zrange={}, comp_scale={},
        comp_zspan={}, markers={}, warnings=[],
    )
    top = 0
    offsets = {}
    tree_span = {}
    for root, sub in subs.items():
        f = unit // sub.scale[root]
        off = (0, 0, top)
        asm.sticks.extend(transform(s, f, off) for s in sub.sticks)
        for cid in sub.scale:
            asm.comp_scale[cid] = f * sub.scale[cid]
            offsets[cid] = transform_point(sub.offset[cid], f, off)
            tree_span[cid] = (top + unit, top + f * sub.zmax)
        top += f * sub.zmax

    for comp in spec.components:
        b = builds[comp.id]
        f = asm.comp_scale[comp.id]
        o = offsets[comp.id]
        asm.comp_zspan[comp.id] = (f + o[2], f * max(1, b.pres.alpha) + o[2])
        for bp, label in b.pres.labels.items():
            ax, ay = b.column_axis(bp)
            g = (f * ax + o[0], f * ay + o[1])
            if label in asm.vertex_axis and asm.vertex_axis[label] != g:
                raise AssemblyCollision(f"cut vertex {label} columns failed to align")
            asm.vertex_axis[label] = g
            asm.vertex_zrange[label] = tree_span[comp.id]
        corner = b.knot_corner()
        if corner is not None:
            label = next(iter(b.pres.labels.values()))
            asm.markers[label] = transform_point(corner, f, o)
        asm.warnings.extend(b.warnings)
    return asm


STACKING_GROUPS = {
    "golden": lambda: list(GOLDEN_INPUTS.values()),
    "chains": lambda: [chain(n) for n in range(2, 11)],
    "trees": lambda: [_bench_workloads().tree_input(random.Random(s)) for s in range(60)],
}


def placements_of(ref, tree, degrees):
    """The slabs, runs and markers that the old records ``ref`` give: a
    slab spans the own z-spans of a component and of everything stacked on
    it; the attachments on a vertex's axis inside its tree's z-range give
    its run, first to last, and its marker at the second, where merging and
    the degree-3 pass put it; a lone circle keeps its marker."""
    slabs = {}
    for cid in tree.order:
        spans = [ref.comp_zspan[c] for c in oracles.subtree(tree, cid)]
        slabs[cid] = (min(lo for lo, _ in spans), max(hi for _, hi in spans))
    runs, markers = {}, dict(ref.markers)
    for label, degree in degrees.items():
        if label in ref.markers:
            continue
        att = oracles.attachments(ref.sticks, ref.vertex_axis[label], ref.vertex_zrange[label])
        assert len(att) == degree, label
        runs[label] = (att[0][0], att[-1][0])
        markers[label] = (*ref.vertex_axis[label], att[1][0])
    return slabs, runs, markers


@pytest.mark.parametrize("group", sorted(STACKING_GROUPS))
def test_stacking_matches_oracle(group):
    for i, doc in enumerate(STACKING_GROUPS[group]()):
        spec, cens, tree, builds, asm = stages(doc)
        ref = oracle_assemble(spec, tree, builds)
        for key in ("comp_scale", "warnings"):
            assert getattr(asm, key) == getattr(ref, key), (group, i, key)
        placed = (asm.slab, asm.vertex_zrange, asm.markers)
        assert placed == placements_of(ref, tree, cens.degrees), (group, i)
        assert Counter(asm.sticks) == Counter(ref.sticks), (group, i)


def placed_as_before(spec):
    """Whether ``spec`` merges, after checking that ``assemble`` stacks the
    sticks of ``oracles.assemble`` in its order and places the slabs, runs
    and markers its records give (``placements_of``), that merging moves no
    marker, and that the markers after merging, and after straightening
    with their axes, are those of ``oracles.apply_merges`` and
    ``oracle_straighten``, or that both merge stages raise alike."""
    cens = census(spec)
    tree = build_cut_tree(spec, cens)
    builds = {c.id: build_component(c, cens.classes[c.id]) for c in spec.components}
    asm = assemble(spec, tree, builds)
    ref = oracles.assemble(spec, tree, builds)
    assert asm.sticks == ref.sticks
    assert (asm.slab, asm.vertex_zrange, asm.markers) == placements_of(ref, tree, cens.degrees)
    placed = dict(asm.markers)
    try:
        ref = oracles.apply_merges(cens, ref)
    except LatticeStickError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            apply_merges(cens, asm)
        return False
    asm = apply_merges(cens, asm)
    assert asm.markers == ref.markers == placed
    ref = oracle_straighten(spec, tree, builds, ref)
    asm = straighten_arcs(spec, tree, builds, asm)
    assert asm.markers == ref.markers
    assert {v: asm.markers[v][:2] for v in asm.vertex_zrange} == {
        v: ref.vertex_axis[v] for v in asm.vertex_zrange
    }
    return True


PLACEMENT_GROUPS = {
    "fixtures": lambda: [
        *GOLDEN_INPUTS.values(), *DEMOS.values(), CHAIN, SPLIT_PAIR, LOOP_TREFOIL, THETA5
    ],
    "chains": lambda: [chain(n) for n in range(2, 11)]
    + [_bench_workloads().chain_input(n) for n in (4, 6, 12)],
    "trees": lambda: [_bench_workloads().tree_input(random.Random(s)) for s in range(300)],
}


@pytest.mark.parametrize("group", sorted(PLACEMENT_GROUPS))
def test_vertices_placed_as_the_old_stages_placed(group):
    merged = [placed_as_before(spec_from_document(doc)) for doc in PLACEMENT_GROUPS[group]()]
    assert any(merged), group


@settings(max_examples=100, deadline=None)
@given(data=st.data(), source=st.sampled_from(["knot", "graph", "wide", "branch", "tree"]))
def test_drawn_vertices_placed_as_the_old_stages_placed(data, source):
    """``placed_as_before`` on knots, 3- and 4-edge thetas, 2-loop bouquets,
    K4s, the wider shapes alone and as cut-tree branches, and random cut
    trees beyond the pinned seeds; a draw ``census`` rejects is skipped."""
    if source == "knot":
        spec = data.draw(knot_specs())
    elif source == "graph":
        shape = data.draw(st.sampled_from(["theta3", "theta4", "bouquet2", "k4"]))
        spec = data.draw(graph_component_specs(shape))
    elif source == "wide":
        spec = data.draw(graph_component_specs(data.draw(st.sampled_from(WIDER_SHAPES))))
    elif source == "branch":
        spec = data.draw(wider_branch_trees(data.draw(st.sampled_from(WIDER_SHAPES))))
    else:
        seed = data.draw(st.integers(min_value=300, max_value=2**32 - 1))
        spec = spec_from_document(_bench_workloads().tree_input(random.Random(seed)))
    try:
        census(spec)
    except InvalidSpec:
        return
    placed_as_before(spec)


def test_each_stacked_stick_constructed_once(monkeypatch):
    """Every stick ``assemble`` stacks is constructed exactly once, at its
    final coordinates: component sticks and connectors alike."""
    original = Stick.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Stick, "__init__", counted)
    for n in (4, 5, 6):
        spec, cens, tree, builds, _ = stages(chain(n))
        calls.clear()
        asm = assemble(spec, tree, builds)
        assert len(calls) == len(asm.sticks), n


@settings(max_examples=200, deadline=None)
@given(
    pres=presentations(),
    slid=st.booleans(),
    scale=st.integers(1, 1000),
    origin=st.tuples(*[st.integers(-(10**6), 10**6)] * 3),
)
def test_sticks_in_place_match_the_rigid_map(pres, slid, scale, origin):
    """A component's sticks made at ``scale`` and ``origin`` are its local
    sticks mapped through the rigid map, in the same order."""
    b = build.build_arc_diagram(ComponentSpec("c", pres), ComponentClass.KNOT)
    if slid:
        b = build.side_slide(b)
    local = b.sticks(1, (0, 0, 0))
    assert b.sticks(scale, origin) == [transform(s, scale, origin) for s in local]


def synthetic_column(directions, partner_for=()):
    """A vertical run at (0,0) with one horizontal stick per level."""
    sticks = []
    levels = list(range(1, len(directions) + 1))
    for z1, z2 in zip(levels, levels[1:]):
        sticks.append(stick((0, 0, z1), (0, 0, z2)))
    for z, (dx, dy) in zip(levels, directions):
        far = (3 * dx, 3 * dy, z)
        sticks.append(stick((0, 0, z), far))
        if z in partner_for:
            tip = (3 * dx + (0 if dx == 0 else 0), 3 * dy + (3 if dy == 0 else 0), z)
            perp = (far[0] + (0 if dx else 3), far[1] + (3 if dx else 0), z)
            sticks.append(stick(far, perp))
    return sticks


def edited_column(directions, change):
    """``synthetic_column(directions)`` through a ``StickIndex``, with one
    attachment committed to it: a -y stick added at level 2, or the top
    attachment removed."""
    index = StickIndex(synthetic_column(directions))
    if change == "added":
        index.stage({}, (), [stick((0, -3, 2), (0, 0, 2))])
    else:
        index.stage({}, (index.attachments((0, 0), (0, 99))[-1][1],), [])
    index.commit()
    return index


class TestMergePlanner:
    @pytest.mark.parametrize("change,found", [("added", 5), ("removed", 3)])
    def test_attachment_count_guard(self, change, found):
        """A column whose attachments disagree with the vertex's degree
        yields no plan."""
        index = edited_column([(1, 0), (1, 0), (0, 1), (-1, 0)], change)
        plans = _vertex_plans(index, "v", (0, 0), (0, 99), 4, 12)
        with pytest.raises(
            MergeCollision, match=f"^vertex v: found {found} attachments, expected 4$"
        ):
            next(plans)

    def test_parallel_target_translates_perpendicular(self):
        # pivot along +x and the next stick also +x: first free move is a
        # translate in +y, absorbed by the far-end partner
        sticks = synthetic_column([(1, 0), (1, 0), (1, 0), (1, 0)], partner_for=(3,))
        plan = next(_vertex_plans(StickIndex(sticks), "v", (0, 0), (0, 99), 4, 12))
        (step,) = plan.steps
        assert (step.direction, step.move) == ((0, 1), "translate")
        assert step.epsilon == 6  # half a unit of 12 grid points

    def test_replayed_translate_moves_its_partner_and_no_other(self):
        sticks = synthetic_column([(1, 0), (1, 0), (1, 0), (1, 0)], partner_for=(3,))
        plan = next(_vertex_plans(StickIndex(sticks), "v", (0, 0), (0, 99), 4, 12))
        (step,) = plan.steps
        assert step.move == "translate"
        partner = sticks[step.partner]
        assert partner.axis == 1 and partner.has_end((3, 0, 3))
        index = StickIndex(sticks)
        assert assembly._apply_vertex_plan(index, plan)
        trial = list(index.trial.values())
        kept = {id(s) for s in trial}
        column = [s for s in sticks if s.axis == 2]
        gone = [s for s in sticks if id(s) not in kept and s not in column]
        assert gone == [sticks[step.index], partner]
        # the partner keeps its other end and follows the shifted far end
        assert stick((3, 3, 3), (3, 6, 3)) in trial

    def test_free_direction_drops_down(self):
        sticks = synthetic_column([(1, 0), (1, 0), (0, -1), (1, 0)])
        plan = next(_vertex_plans(StickIndex(sticks), "v", (0, 0), (0, 99), 4, 12))
        (step,) = plan.steps
        assert (step.direction, step.move) == ((0, -1), "drop")
        assert step.epsilon == 6

    def test_degree6_swap_assigns_leftover_direction_to_top(self):
        # after merging +x and -y, only -x remains; the fifth stick points +x
        # (opposite), so the sixth one is merged instead, reaching around
        directions = [(0, 1), (0, 1), (1, 0), (0, -1), (1, 0), (1, 0)]
        sticks = synthetic_column(directions)
        plan = next(_vertex_plans(StickIndex(sticks), "v", (0, 0), (0, 99), 6, 12))
        assert [s.level for s in plan.steps] == [3, 4, 6]
        assert [s.epsilon for s in plan.steps] == [3, 6, 9]  # quarters of the unit
        assert plan.steps[-1].direction == (-1, 0)
        assert plan.steps[-1].move == "extend"
        assert plan.new_top == 5 and plan.old_top == 6

    def test_drop_onto_the_far_end_is_no_plan(self):
        # the sticks are 3 long and the first offset of degree 6 is a
        # quarter of 12: dropping there would leave a zero-length stick
        directions = [(0, 1), (0, 1), (1, 0), (0, -1), (1, 0), (1, 0)]
        sticks = synthetic_column(directions)
        plan = next(_vertex_plans(StickIndex(sticks), "v", (0, 0), (0, 99), 6, 12))
        assert (plan.steps[0].move, plan.steps[0].epsilon) == ("drop", 3)
        index = StickIndex(sticks)
        assert assembly._apply_vertex_plan(index, plan) is False
        assert index.trial is None

    def test_translate_onto_the_partners_end_is_no_plan(self):
        # half of a unit of 6 moves the far end (3, 0, 3) by 3 in +y, onto
        # the far end of its 3-long partner; the -y translate is fine
        sticks = synthetic_column([(1, 0), (1, 0), (1, 0), (1, 0)], partner_for=(3,))
        up, down, _ = _vertex_plans(StickIndex(sticks), "v", (0, 0), (0, 99), 4, 6)
        assert [(s.move, s.direction, s.epsilon) for s in up.steps + down.steps] == [
            ("translate", (0, 1), 3), ("translate", (0, -1), 3)
        ]
        index = StickIndex(sticks)
        assert assembly._apply_vertex_plan(index, up) is False
        assert index.trial is None
        assert assembly._apply_vertex_plan(index, down) is True
        assert stick((3, -3, 3), (3, 3, 3)) in index.trial.values()

    def test_distinct_directions_and_offsets(self):
        for doc in (DEMOS["bouquet3"], DEMOS["theta-composite"], CHAIN):
            spec, cens, tree, builds, asm = stages(doc)
            for vp in apply_merges(cens, asm).merge_plans:
                dirs = {vp.pivot_direction} | {s.direction for s in vp.steps}
                assert len(dirs) == 1 + len(vp.steps)
                eps = [s.epsilon for s in vp.steps]
                assert len(set(eps)) == len(eps)
                unit = min(
                    asm.comp_scale[c.id]
                    for c in spec.components
                    if vp.vertex in c.presentation.labels.values()
                )
                assert all(type(e) is int and 0 < e < unit for e in eps)


# The recursive merge search the planner used before it enumerated
# assignments with itertools.product, kept as an oracle for its order.

def _oracle_perps(d):
    return [(0, 1), (0, -1)] if d[0] != 0 else [(1, 0), (-1, 0)]


def _oracle_candidate_moves(sticks, idx, near, direction, is_top):
    s = sticks[idx]
    far = s.b if near == s.a else s.a
    partners = [j for j, t in enumerate(sticks) if j != idx and t.has_end(far)]
    options = [(direction, "drop")]
    for w in _oracle_perps(direction):
        if len(partners) == 1:
            waxis = 0 if w[0] != 0 else 1
            if sticks[partners[0]].axis == waxis:
                options.append((w, "translate"))
    if is_top:
        options.append(((-direction[0], -direction[1]), "extend"))
    return options


def oracle_plans(sticks, axis, zrange, degree, unit):
    """Every plan as ([(level, direction, move, epsilon)], new_top, old_top),
    in preference order; empty where the planner raises NoFreeDirection."""
    att = oracles.attachments(sticks, axis, zrange)
    assert len(att) == degree
    pivot_dir = att[1][2]
    old_top = att[-1][0]
    interior = att[2:-1]
    top_att = att[-1]

    def assignments(pos, used, chosen):
        if pos == len(interior):
            yield chosen, False
            return
        level, idx, direction = interior[pos]
        near = (axis[0], axis[1], level)
        for w, move in _oracle_candidate_moves(sticks, idx, near, direction, False):
            if w not in used:
                yield from assignments(pos + 1, used | {w}, chosen + [(level, w, move)])
        if pos == len(interior) - 1:
            t_level, t_idx, t_dir = top_att
            t_near = (axis[0], axis[1], t_level)
            for w, move in _oracle_candidate_moves(sticks, t_idx, t_near, t_dir, True):
                if w not in used:
                    yield chosen + [(t_level, w, move)], True

    return [
        (
            [
                (level, w, move, m * unit // (len(chosen) + 1))
                for m, (level, w, move) in enumerate(chosen, start=1)
            ],
            interior[-1][0] if swapped else old_top,
            old_top,
        )
        for chosen, swapped in assignments(0, {pivot_dir}, [])
    ]


HORIZONTAL = [(1, 0), (-1, 0), (0, 1), (0, -1)]


@st.composite
def merge_columns(draw):
    """A synthetic column of degree 4-6 with random outward directions, a
    perpendicular far partner on some levels and a collinear one on others
    (two partners block a translate), in random stick order."""
    degree = draw(st.integers(4, 6))
    directions = draw(st.lists(st.sampled_from(HORIZONTAL), min_size=degree, max_size=degree))
    levels = range(1, degree + 1)
    sticks = synthetic_column(directions, partner_for=draw(st.sets(st.sampled_from(levels))))
    for z in sorted(draw(st.sets(st.sampled_from(levels)))):
        dx, dy = directions[z - 1]
        sticks.append(stick((3 * dx, 3 * dy, z), (6 * dx, 6 * dy, z)))
    return draw(st.permutations(sticks)), degree, 12 * draw(st.integers(1, 5))


@settings(max_examples=300, deadline=None)
@given(merge_columns())
def test_planner_matches_recursive_oracle(column):
    sticks, degree, unit = column
    expected = oracle_plans(sticks, (0, 0), (0, 99), degree, unit)
    plans = _vertex_plans(StickIndex(sticks), "v", (0, 0), (0, 99), degree, unit)
    if not expected:
        with pytest.raises(NoFreeDirection, match="no merge assignment exists"):
            list(plans)
        return
    assert [
        ([(s.level, s.direction, s.move, s.epsilon) for s in p.steps], p.new_top, p.old_top)
        for p in plans
    ] == expected


class TestApplyMerges:
    @pytest.mark.parametrize(
        "doc,n_merges",
        [
            (DEMOS["unknot"], 0),
            (DEMOS["theta-planar"], 0),
            (DEMOS["bouquet3"], 3),
            (DEMOS["theta-composite"], 2),
            (CHAIN, 2),
        ],
    )
    def test_count_increases_by_one_per_merge(self, doc, n_merges):
        spec, cens, tree, builds, asm = stages(doc)
        before = _counts(asm.sticks, {}).total
        merged = apply_merges(cens, asm)
        assert sum(len(vp.steps) for vp in merged.merge_plans) == n_merges
        after = _counts(merged.sticks, merged.markers).total
        assert after - before == n_merges

    def test_pivot_marker_incidence(self):
        spec, cens, tree, builds, asm = stages(DEMOS["bouquet3"])
        merged = apply_merges(cens, asm)
        ends = [s for s in merged.sticks if s.has_end(merged.markers["v"])]
        assert len(ends) == 6
        dirs = {s.direction_from(merged.markers["v"]) for s in ends}
        assert len(dirs) == 6


class TestStraighten:
    def test_chain_saves_at_least_two(self):
        spec, cens, tree, builds, asm = stages(CHAIN)
        merged = apply_merges(cens, asm)
        before = _counts(merged.sticks, merged.markers).total
        out = straighten_arcs(spec, tree, builds, merged)
        after = _counts(out.sticks, out.markers).total
        assert before - after >= 2
        # the straight stick is the one vertical stick tagged with its arc
        assert [s.axis for s in out.sticks if s.comp == "mid"] == [2]
        assert not out.warnings

    def test_multi_arc_component_skipped(self):
        doc = {
            "components": [
                CHAIN["components"][0],
                {
                    "id": "mid",
                    "binding_points": [
                        {"index": 1, "vertex": "v2"},
                        {"index": 2},
                        {"index": 3},
                        {"index": 4, "vertex": "v3"},
                    ],
                    "arcs": [
                        {"page": 1, "from": 1, "to": 2},
                        {"page": 2, "from": 2, "to": 3},
                        {"page": 3, "from": 3, "to": 4},
                    ],
                },
                CHAIN["components"][2],
            ],
            "attachments": CHAIN["attachments"],
        }
        spec, cens, tree, builds, asm = stages(doc)
        merged = apply_merges(cens, asm)
        out = straighten_arcs(spec, tree, builds, merged)
        assert any("unstraightened" in w for w in out.warnings)

    def test_identity_without_arc_components(self):
        spec, cens, tree, builds, asm = stages(DEMOS["theta-composite"])
        merged = apply_merges(cens, asm)
        before = list(merged.sticks)
        out = straighten_arcs(spec, tree, builds, merged)
        assert out.sticks == before


@st.composite
def grid_states(draw):
    """Traces along sticks on a small grid, at least one, and markers on
    the sticks' ends."""
    sticks = []
    for _ in range(draw(st.integers(1, 8))):
        a = tuple(draw(st.integers(-9, 9)) for _ in range(3))
        axis = draw(st.integers(0, 2))
        b = tuple(c + draw(st.integers(1, 9)) * (i == axis) for i, c in enumerate(a))
        sticks.append(stick(a, b))
    traced = draw(st.lists(st.booleans(), min_size=len(sticks), max_size=len(sticks)))
    traced[0] = True
    traces = {f"c/e{i}": [s.a, s.b] for i, s in enumerate(sticks) if traced[i]}
    ends = sorted({p for s in sticks for p in s.ends()})
    points = draw(st.lists(st.sampled_from(ends), max_size=3, unique=True))
    markers = {f"v{i}": p for i, p in enumerate(points)}
    return markers, traces


def rank_of_pre_change_build(spec):
    """``build_full`` gives the pre-change embedding mapped through the
    per-axis ranks, the same counts and the same determinant of every knot
    component, and normalizing its own traces and markers changes nothing."""
    emb, counts, bounds = build_full(spec)
    old, old_counts, old_bounds = oracles.gcd_build_full(spec)
    assert emb == oracles.normalize(old.markers, old.traces, old.warnings)
    assert (list(emb.traces), list(emb.markers), emb.warnings) == (
        list(old.traces), list(old.markers), old.warnings
    )
    assert (counts, bounds) == (old_counts, old_bounds)
    for comp_id, cls in census(spec).classes.items():
        if cls is ComponentClass.KNOT:
            det = [knot_determinant(extract_knot_cycle(project_generic(e, {comp_id}), comp_id))
                   for e in (emb, old)]
            assert det[0] == det[1], comp_id
    assert normalize(emb.markers, emb.traces, emb.warnings) == emb


def tree_is_rank_of_pre_change_build(seed):
    """``rank_of_pre_change_build`` on the random cut tree of ``seed``, or
    the same failure before the rank map; whether the tree built."""
    spec = spec_from_document(_bench_workloads().tree_input(random.Random(seed)))
    try:
        build_full(spec)
    except (NoFreeDirection, BoundViolated, MergeCollision) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            oracles.gcd_build_full(spec)
        return False
    rank_of_pre_change_build(spec)
    return True


class TestNormalize:
    def test_each_axis_maps_to_its_ranks(self):
        # uneven gaps close up: x takes 0, 3, 10 -> 0, 1, 2 and z 5, 7 -> 0, 1
        line = [(0, 4, 5), (3, 4, 5), (3, 4, 7), (10, 4, 7)]
        emb = normalize({"v": (3, 4, 5)}, {"c/e0": line})
        assert emb.traces == {"c/e0": [(0, 0, 0), (1, 0, 0), (1, 0, 1), (2, 0, 1)]}
        assert emb.markers == {"v": (1, 0, 0)}
        assert [(s.a, s.b) for s in emb.sticks] == [
            ((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (1, 0, 1)), ((1, 0, 1), (2, 0, 1))
        ]

    def test_counts_preserved(self):
        spec, cens, tree, builds, asm = stages(CHAIN)
        merged = apply_merges(cens, asm)
        out = straighten_arcs(spec, tree, builds, merged)
        before = _counts(out.sticks, out.markers)
        traces = derive_traces(cens, out.sticks, out.markers)
        emb = normalize(out.markers, traces)
        after = _counts(list(emb.sticks), emb.markers)
        assert (before.x, before.y, before.z) == (after.x, after.y, after.z)

    def test_nested_scales_cleared(self):
        spec, cens, tree, builds, asm = stages(CHAIN)
        deepest = min(asm.comp_scale.values())
        assert 128 * deepest == asm.comp_scale["th1"]
        emb, _, _ = build_full(spec)
        for s in emb.sticks:
            assert all(type(c) is int and c >= 0 for c in s.a + s.b)

    @pytest.mark.parametrize("n", [6, 12, 24, 48])
    def test_chain_coordinates_below_stick_count(self, n):
        """Nesting scales each branch up by 8*2^k, but the ranks leave every
        coordinate of a chain below its stick count."""
        emb, counts, _ = build_full(spec_from_document(_bench_workloads().chain_input(n)))
        assert max(c for s in emb.sticks for c in s.a + s.b) < counts.total

    @settings(max_examples=200, deadline=None)
    @given(state=grid_states(), data=st.data())
    def test_grid_scale_does_not_change_output(self, state, data):
        """Any strictly increasing map per axis, not only a common scale
        k*x, leaves the ranks and so the output as they are."""
        markers, traces = state
        k = data.draw(st.tuples(*[st.integers(1, 1000)] * 3))
        d = data.draw(st.tuples(*[st.integers(-1000, 1000)] * 3))

        def move(p):
            return tuple(ki * c + c**3 + di for ki, c, di in zip(k, p, d))

        moved = normalize(
            {label: move(p) for label, p in markers.items()},
            {eid: [move(p) for p in line] for eid, line in traces.items()},
        )
        assert moved == normalize(markers, traces)

    @settings(max_examples=300, deadline=None)
    @given(state=grid_states())
    def test_matches_point_by_point_oracle(self, state):
        """One rank map per axis gives the ranks that each coordinate's
        index among its axis's sorted values gives, with markers and
        without, and a second pass changes nothing."""
        markers, traces = state
        emb = normalize(markers, traces)
        assert emb == oracles.normalize(markers, traces)
        assert normalize({}, traces) == oracles.normalize({}, traces)
        assert normalize(emb.markers, emb.traces) == emb

    @pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
    def test_fixture_is_rank_of_pre_change_build(self, name):
        rank_of_pre_change_build(spec_from_document(GOLDEN_INPUTS[name]))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), source=st.sampled_from(["knot", "forest", "graph", "tree"]))
    def test_random_build_is_rank_of_pre_change_build(self, data, source):
        """Knots, split forests of two knots, 3- and 4-edge thetas, 2-loop
        bouquets and K4s, and random cut trees: a tree that fails to build
        fails the same way before the rank map, which runs only at the end."""
        if source == "knot":
            spec = data.draw(knot_specs())
        elif source == "forest":
            a, b = data.draw(knot_specs("a", 5)), data.draw(knot_specs("b", 5))
            spec = SpatialGraphSpec(a.components + b.components)
        elif source == "graph":
            shape = data.draw(st.sampled_from(["theta3", "theta4", "bouquet2", "k4"]))
            spec = data.draw(graph_component_specs(shape))
        else:
            seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
            tree_is_rank_of_pre_change_build(seed)
            return
        rank_of_pre_change_build(spec)

    def test_pinned_trees_are_rank_of_pre_change_build(self):
        built = sum(map(tree_is_rank_of_pre_change_build, range(300)))
        assert built == 37


@st.composite
def axis_walks(draw):
    """A polyline of axis-parallel steps of random axis, sign and length
    (zero included), so it doubles back and runs straight through points,
    and markers drawn from its points."""
    p = tuple(draw(st.integers(-3, 3)) for _ in range(3))
    line = [p]
    for _ in range(draw(st.integers(1, 12))):
        axis, sign = draw(st.integers(0, 2)), draw(st.sampled_from((-1, 1)))
        p = tuple(c + sign * draw(st.integers(0, 3)) * (i == axis) for i, c in enumerate(p))
        line.append(p)
    markers = draw(st.sets(st.sampled_from(line), max_size=3))
    return line, markers


@settings(max_examples=500, deadline=None)
@given(walk=axis_walks())
def test_simplify_matches_two_steps_per_point(walk):
    """One sign step per segment keeps the points that two steps per
    interior point keep, with every marker that is not an interior point:
    a walked polyline ends at its first marker."""
    line, markers = walk
    assert assembly._simplify(line) == oracles.simplify(line, markers - set(line[1:-1]))


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_walked_polylines_have_no_interior_marker(name):
    """The walk ends each polyline at its first marker, so ``_simplify``
    needs no marker test."""
    spec, cens, tree, builds, asm = stages(GOLDEN_INPUTS[name])
    asm = straighten_arcs(spec, tree, builds, apply_merges(cens, asm))
    walked, problems = walk_edges(asm.sticks, asm.markers, endpoint_census(asm.sticks))
    markers = set(asm.markers.values())
    assert walked and not problems
    assert not any(markers & set(line[1:-1]) for _, _, line, _ in walked)


def _parallel_edges_doc(n):
    return {
        "components": [
            {
                "id": f"t{n}",
                "binding_points": [
                    {"index": 1, "vertex": "v1"},
                    {"index": 2, "vertex": "v2"},
                ],
                "arcs": [{"page": p, "from": 1, "to": 2} for p in range(1, n + 1)],
            }
        ],
        "attachments": [],
    }


class TestDegenerateColumns:
    def test_flat_four_edges_build_in_a_plane(self):
        # both merge vertices resolve through the swapped-top move and the
        # whole embedding stays inside one coordinate plane
        spec = spec_from_document(_parallel_edges_doc(4))
        emb, _, _ = build_full(spec)
        assert len({p[0] for s in emb.sticks for p in s.ends()}) == 1
        cens = census(spec)
        assert full_audit(list(emb.sticks), emb.markers, spec, cens.degrees).clean

    def test_five_parallel_edges_report_the_deadlock(self):
        from latticestick.errors import NoFreeDirection

        with pytest.raises(NoFreeDirection):
            build_full(spec_from_document(_parallel_edges_doc(5)))

    def test_planar_theta_with_branch_reports_collision(self):
        # two stem sticks parallel to the pivot edge, both pinned between
        # columns: no merge move exists and the build says so
        from latticestick.errors import MergeCollision, NoFreeDirection

        doc = {
            "components": [
                {
                    "id": "th",
                    "binding_points": [
                        {"index": 1, "vertex": "v1"},
                        {"index": 2, "vertex": "v2"},
                    ],
                    "arcs": [{"page": p, "from": 1, "to": 2} for p in range(1, 4)],
                },
                {
                    "id": "loop",
                    "binding_points": [{"index": 1, "vertex": "v2"}, {"index": 2}],
                    "arcs": [
                        {"page": 1, "from": 1, "to": 2},
                        {"page": 2, "from": 1, "to": 2},
                    ],
                },
            ],
            "attachments": [{"stem": "th", "branch": "loop", "cut_vertex": "v2"}],
        }
        with pytest.raises((MergeCollision, NoFreeDirection)):
            build_full(spec_from_document(doc))


def _loop2(cid, vertex):
    return {
        "id": cid,
        "binding_points": [{"index": 1, "vertex": vertex}, {"index": 2}],
        "arcs": [{"page": 1, "from": 1, "to": 2}, {"page": 2, "from": 1, "to": 2}],
    }


def _loop3(cid, vertex):
    return {
        "id": cid,
        "binding_points": [{"index": 1, "vertex": vertex}, {"index": 2}, {"index": 3}],
        "arcs": [
            {"page": 1, "from": 1, "to": 2},
            {"page": 2, "from": 2, "to": 3},
            {"page": 3, "from": 1, "to": 3},
        ],
    }


THETA4_COMP = {
    "id": "th",
    "binding_points": [
        {"index": 1, "vertex": "v1"},
        {"index": 2, "vertex": "v2"},
        {"index": 3},
    ],
    "arcs": [
        {"page": 1, "from": 1, "to": 2},
        {"page": 2, "from": 1, "to": 3},
        {"page": 3, "from": 1, "to": 2},
        {"page": 4, "from": 2, "to": 3},
    ],
}


class TestMultiBranch:
    def test_two_branches_at_distinct_cut_vertices(self):
        doc = {
            "components": [THETA4_COMP, _loop2("a", "v1"), _loop2("b", "v2")],
            "attachments": [
                {"stem": "th", "branch": "a", "cut_vertex": "v1"},
                {"stem": "th", "branch": "b", "cut_vertex": "v2"},
            ],
        }
        spec = spec_from_document(doc)
        emb, _, _ = build_full(spec)
        cens = census(spec)
        assert cens.degrees == {"v1": 5, "v2": 5}
        assert full_audit(list(emb.sticks), emb.markers, spec, cens.degrees).clean
        # depth-first stacking: the second branch sits above the first
        tree = build_cut_tree(spec, cens)
        assert tree.order == ("th", "a", "b")

    def test_nested_loops_share_one_degree_six_vertex(self):
        # chained cut spheres through one vertex: the merge column spans
        # three components and two connectors
        doc = {
            "components": [_loop3("l1", "v"), _loop3("l2", "v"), _loop3("l3", "v")],
            "attachments": [
                {"stem": "l1", "branch": "l2", "cut_vertex": "v"},
                {"stem": "l2", "branch": "l3", "cut_vertex": "v"},
            ],
        }
        spec = spec_from_document(doc)
        emb, _, _ = build_full(spec)
        cens = census(spec)
        assert cens.degrees == {"v": 6}
        assert full_audit(list(emb.sticks), emb.markers, spec, cens.degrees).clean
        assert len([s for s in emb.sticks if s.has_end(emb.markers["v"])]) == 6

    def test_parallel_loop_attachments_saturate_honestly(self):
        from latticestick.errors import MergeCollision, NoFreeDirection

        doc = {
            "components": [_loop2("l1", "v"), _loop2("l2", "v"), _loop2("l3", "v")],
            "attachments": [
                {"stem": "l1", "branch": "l2", "cut_vertex": "v"},
                {"stem": "l2", "branch": "l3", "cut_vertex": "v"},
            ],
        }
        with pytest.raises((MergeCollision, NoFreeDirection)):
            build_full(spec_from_document(doc))


class TestKnottedBranch:
    DOC = {
        "components": [
            {
                "id": "th",
                "binding_points": [
                    {"index": 1, "vertex": "v1"},
                    {"index": 2, "vertex": "v2"},
                    {"index": 3},
                ],
                "arcs": [
                    {"page": 1, "from": 1, "to": 2},
                    {"page": 2, "from": 1, "to": 3},
                    {"page": 3, "from": 1, "to": 2},
                    {"page": 4, "from": 2, "to": 3},
                ],
            },
            {
                "id": "tref",
                "binding_points": [{"index": 1, "vertex": "v2"}]
                + [{"index": i} for i in range(2, 6)],
                "arcs": [
                    {"page": 1, "from": 1, "to": 3},
                    {"page": 2, "from": 2, "to": 4},
                    {"page": 3, "from": 3, "to": 5},
                    {"page": 4, "from": 1, "to": 4},
                    {"page": 5, "from": 2, "to": 5},
                ],
            },
        ],
        "attachments": [{"stem": "th", "branch": "tref", "cut_vertex": "v2"}],
    }

    def test_census_and_bound(self):
        spec = spec_from_document(self.DOC)
        cens = census(spec)
        assert (cens.e, cens.v, cens.s, cens.b, cens.k) == (4, 2, 2, 1, 0)
        emb, _, _ = build_full(spec)
        report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
        assert report.clean

    def test_branch_knot_type_survives_scaling(self):
        from latticestick.invariants import (
            extract_knot_cycle,
            knot_determinant,
            project_generic,
        )

        emb, _, _ = build_full(spec_from_document(self.DOC))
        gauss = extract_knot_cycle(project_generic(emb, {"tref"}), "tref")
        assert knot_determinant(gauss) == 3


class TestLoopsSharingAVertex:
    """Both loops run from v to v, so only the component tag on the sticks
    tells ``derive_traces`` which edge id a walked path carries; the audit
    compares label pairs only and would pass a swapped id."""

    def test_edge_ids_follow_their_components(self):
        from latticestick.invariants import (
            extract_knot_cycle,
            knot_determinant,
            project_generic,
        )

        emb, counts, bounds = build_full(spec_from_document(LOOP_TREFOIL))
        assert counts.total == bounds.construction_bound == 19
        assert sorted(emb.traces) == ["p/e0", "t/e0"]
        for comp, det in (("t", 3), ("p", 1)):
            gauss = extract_knot_cycle(project_generic(emb, {comp}), comp)
            assert knot_determinant(gauss) == det, comp


class TestBuildFull:
    def test_invalid_spec_raises(self):
        bad = {
            "components": [
                {
                    "id": "x",
                    "binding_points": [{"index": 1, "vertex": "v"}, {"index": 2}],
                    "arcs": [{"page": 1, "from": 1, "to": 2}],
                }
            ]
        }
        with pytest.raises(LatticeStickError):
            build_full(spec_from_document(bad))

    def test_all_fixtures_audit_clean(self):
        for name, doc in {**DEMOS, "chain": CHAIN, "split": SPLIT_PAIR}.items():
            spec = spec_from_document(doc)
            emb, counts, bounds = build_full(spec)
            cens = census(spec)
            report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
            assert report.clean, name
            assert (report.counts, bounds.total) == (counts, counts.total), name
            # the sticks built are the sticks a written document reloads to
            loaded, loaded_counts = embedding_from_document(
                embedding_to_document(emb, counts, bounds)
            )
            assert (loaded.sticks, loaded_counts) == (emb.sticks, counts), name

    def test_no_fraction_built(self, monkeypatch):
        """Builds run on one integer grid."""
        made = fractions_made(monkeypatch)
        for doc in (CHAIN, DEMOS["bouquet3"], DEMOS["theta-composite"]):
            build_full(spec_from_document(doc))
        assert made == []

    def test_no_fraction_projected(self, monkeypatch):
        """The shear projection and the invariants stay on the integer grid."""
        from test_golden import KNOT_INPUTS

        from latticestick.invariants import (
            extract_knot_cycle,
            knot_determinant,
            project_generic,
        )

        cases = [("trefoil", "t", 3), ("figure8", "f", 5), ("knot-40", "k", 419)]
        built = [
            (build_full(spec_from_document(KNOT_INPUTS[name]))[0], comp, det)
            for name, comp, det in cases
        ]
        made = fractions_made(monkeypatch)
        for emb, comp, det in built:
            gauss = extract_knot_cycle(project_generic(emb, {comp}), comp)
            assert knot_determinant(gauss) == det
        assert made == []

    def test_self_avoidance_checked_where_it_decides(self, monkeypatch):
        """Merge trials and the audit check self-avoidance; slides, decided
        from the column axes, straightening, decided by the lemma of
        ``straighten_arcs``, stacking and the finished component builds do
        not."""
        deciders = {
            "side_slide", "build_component", "assemble", "apply_merges",
            "straighten_arcs", "full_audit",
        }
        original = validate.check_self_avoiding
        calls = Counter()

        def counted(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code.co_name not in deciders:
                frame = frame.f_back
            calls[frame.f_code.co_name] += 1
            return original(*args, **kwargs)

        for module in (validate, build, assembly):
            monkeypatch.setattr(module, "check_self_avoiding", counted)
        expected = {
            "trefoil": (DEMOS["trefoil"], 1),
            "chain": (CHAIN, 3),
            "split": (SPLIT_PAIR, 1),
        }
        for name, (doc, total) in expected.items():
            calls.clear()
            build_full(spec_from_document(doc))
            assert sum(calls.values()) == total, (name, calls)
            assert calls["full_audit"] == 1, name
            assert calls["assemble"] == calls["side_slide"] == calls["build_component"] == 0, name
            assert calls["straighten_arcs"] == 0, name


def _crossing(s):
    """A stick of the same length crossing the interior of ``s`` at its middle
    (stacked coordinates are multiples of the grid unit, so halves are exact)."""
    length = s.b[s.axis] - s.a[s.axis]
    assert length % 2 == 0
    axis = (s.axis + 1) % 3
    mid = tuple((p + q) // 2 for p, q in zip(s.a, s.b))
    half = tuple(length // 2 if i == axis else 0 for i in range(3))
    return stick(
        tuple(m - h for m, h in zip(mid, half)), tuple(m + h for m, h in zip(mid, half))
    )


@pytest.mark.parametrize("fault", [_crossing, lambda s: s], ids=["crossing", "duplicate"])
@pytest.mark.parametrize(
    "doc",
    [*DEMOS.values(), CHAIN, SPLIT_PAIR, LOOP_TREFOIL],
    ids=[*DEMOS, "chain", "split", "loop-trefoil"],
)
def test_stacking_fault_never_certified(monkeypatch, doc, fault):
    """Stacking is not checked on its own; a stick it got wrong must still
    make the build raise, through merging, tracing or the audit."""
    original = assembly.assemble

    def faulty(spec, tree, builds):
        asm = original(spec, tree, builds)
        asm.sticks.append(fault(asm.sticks[0]))
        return asm

    monkeypatch.setattr(assembly, "assemble", faulty)
    with pytest.raises(LatticeStickError):
        build_full(spec_from_document(doc))


def _edit_degree3_column(asm, degrees, change):
    """Add a short stick at the marker of the first degree-3 vertex, along
    an outward direction none of its attachments takes, or remove the top
    attachment of its run."""
    label = min(v for v, d in degrees.items() if d == 3)
    x, y, z = asm.markers[label]
    top = asm.vertex_zrange[label][1]
    horizontal = [s for s in asm.sticks if s.axis != 2]
    if change == "added":
        taken = {s.direction_from((x, y, z)) for s in horizontal if s.has_end((x, y, z))}
        dx, dy = next(d for d in [(1, 0), (-1, 0), (0, 1), (0, -1)] if (*d, 0) not in taken)
        asm.sticks.append(stick((x, y, z), (x + dx, y + dy, z)))
    else:
        (s,) = [s for s in horizontal if s.has_end((x, y, top))]
        asm.sticks.remove(s)


DEGREE3_DOCS = {
    name: doc
    for name, doc in {**DEMOS, "chain": CHAIN, "loop-trefoil": LOOP_TREFOIL}.items()
    if 3 in census(spec_from_document(doc)).degrees.values()
}


@pytest.mark.parametrize("change", ["added", "removed"])
@pytest.mark.parametrize("name", sorted(DEGREE3_DOCS))
def test_degree3_column_fault_never_certified(monkeypatch, name, change):
    """A degree-3 column with a stick added at its marker or its top
    attachment removed, as stacking hands it on, ends the build in a named
    ``LatticeStickError``, judged by the trace walk or the audit, and no
    embedding is returned."""
    original = assembly.assemble
    spec = spec_from_document(DEGREE3_DOCS[name])

    def faulty(spec, tree, builds):
        asm = original(spec, tree, builds)
        _edit_degree3_column(asm, census(spec).degrees, change)
        return asm

    monkeypatch.setattr(assembly, "assemble", faulty)
    with pytest.raises(LatticeStickError) as raised:
        build_full(spec)
    assert type(raised.value) is not LatticeStickError and str(raised.value)


def test_no_index_below_degree_four(monkeypatch):
    """A theta's two vertices have degree 3: nothing merges, so its build
    indexes no sticks."""
    built = []

    class Counted(StickIndex):
        def __init__(self, sticks):
            built.append(len(sticks))
            super().__init__(sticks)

    monkeypatch.setattr(assembly, "StickIndex", Counted)
    spec = spec_from_document(DEMOS["theta-planar"])
    assert sorted(census(spec).degrees.values()) == [3, 3]
    build_full(spec)
    assert built == []


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_stacked_and_merged_states_are_clean(name):
    """The bases of the first merge trial and of the first straightening
    trial, which no build checks, pass the checks those trials make; the
    merged state also has no unmarked junction, by the junction check and
    by the oracle check that judged shared ends."""
    spec, cens, _, _, asm = stages(GOLDEN_INPUTS[name])
    assert check_self_avoiding(asm.sticks) == []
    merged = apply_merges(cens, asm)
    ends = endpoint_census(merged.sticks)
    assert check_self_avoiding(merged.sticks) == []
    assert audit_junctions(merged.markers, cens.degrees, ends)[0] == []
    assert oracles.check_self_avoiding(merged.sticks, merged.markers, ends) == []


@pytest.mark.parametrize("doc", [DEMOS["bouquet3"], CHAIN], ids=["bouquet3", "chain"])
def test_merge_trial_fault_rejected(monkeypatch, doc):
    """A stick crossing a kept stick, appended to every merge trial the
    index stages, makes every plan collide."""
    original = StickIndex.stage

    def faulty(index, replaced, removed, appended):
        original(index, replaced, removed, appended)
        first = next(iter(index.trial.values()))
        original(index, replaced, removed, [*appended, _crossing(first)])

    monkeypatch.setattr(StickIndex, "stage", faulty)
    with pytest.raises(MergeCollision, match="all merge moves collide"):
        build_full(spec_from_document(doc))


@pytest.mark.parametrize("aim", ["moved", "new"])
def test_straighten_trial_fault_rejected(monkeypatch, aim):
    """A stick clear of everything before the move that meets a moved stick
    after it (an unmoved stick crossing the branch's slab), or that meets the
    new vertical stick, is kept by straightening, which makes no trial: the
    full check of the straightened sticks finds the contact, and a build
    handed the stick after merging is never certified.  The stick is on no
    edge, so the edge trace rejects it before the audit would."""
    spec, cens, tree, builds, asm = stages(CHAIN)
    asm = apply_merges(cens, asm)
    before = list(asm.sticks)
    straight = straighten_arcs(spec, tree, builds, copy.deepcopy(asm))
    assert straight.warnings == asm.warnings
    zs = [p[2] for s in before for p in s.ends()]

    def faults():
        for s in straight.sticks:
            if s in before:
                continue
            x, y, z = ((p + q) // 2 for p, q in zip(s.a, s.b))
            if aim == "moved" and s.axis != 2:
                yield stick((x, y, min(zs) - 1), (x, y, max(zs) + 1))
            elif aim == "new" and s.axis == 2 and s.comp == "mid":
                yield stick((x - 1, y, z), (x + 1, y, z))

    fault = next(f for f in faults() if not _violations(before + [f], asm.markers))
    asm.sticks = before + [fault]
    out = straighten_arcs(spec, tree, builds, asm)
    assert fault in out.sticks and out.warnings == straight.warnings
    assert check_self_avoiding(out.sticks)
    merge = assembly.apply_merges

    def faulty(cens, asm):
        asm = merge(cens, asm)
        asm.sticks.append(fault)
        return asm

    monkeypatch.setattr(assembly, "apply_merges", faulty)
    with pytest.raises(ReconstructionMismatch, match="cannot trace edges"):
        build_full(spec)


def oracle_straighten(spec, tree, builds, asm, verdicts=None):
    """The old straightening: per link, two elbow scans, a run scan and a
    slab split over all sticks, moving the branch through ``transform``,
    and a trial judged with the full endpoint census and the trial's
    markers, its violations appended to ``verdicts`` if given."""
    for comp_id in tree.order:
        b = builds[comp_id]
        if b.cls is not ComponentClass.ARC:
            continue
        if b.pres.alpha != 1:
            asm.warnings.append(
                f"{comp_id}: arc component with {b.pres.alpha} arcs left unstraightened"
            )
            continue
        stem_id, v_near = tree.parent.get(comp_id, (None, None))
        if stem_id is None:
            continue
        labels = set(b.pres.labels.values())
        v_far = next(iter(labels - {v_near}))
        children = tree.children(comp_id)
        if len(children) != 1 or children[0][1] != v_far:
            asm.warnings.append(f"{comp_id}: unexpected branch layout, not straightened")
            continue
        branch_id = children[0][0]

        axis_near = asm.vertex_axis[v_near]
        axis_far = asm.vertex_axis[v_far]
        z_arc = asm.comp_zspan[comp_id][0]

        def _find(axis, end):
            hits = [
                i
                for i, s in enumerate(asm.sticks)
                if s.comp == comp_id and s.axis == axis and s.has_end(end)
            ]
            return hits[0] if len(hits) == 1 else None

        ix = _find(0, (axis_near[0], axis_near[1], z_arc))
        iy = _find(1, (axis_far[0], axis_far[1], z_arc))
        if ix is None or iy is None:
            asm.warnings.append(f"{comp_id}: rerouted by merging, not straightened")
            continue

        subtree = oracles.subtree(tree, branch_id)
        z_lo = min(asm.comp_zspan[c][0] for c in subtree)
        z_hi = max(asm.comp_zspan[c][1] for c in subtree)
        removed = {ix, iy}
        run_top = None
        for i, s in enumerate(asm.sticks):
            if (
                s.axis == 2
                and (s.a[0], s.a[1]) == (axis_far[0], axis_far[1])
                and z_arc <= s.a[2] < z_lo
            ):
                removed.add(i)
                run_top = s.b[2] if run_top is None else max(run_top, s.b[2])
        if run_top is None:
            asm.warnings.append(f"{comp_id}: no branch run found, not straightened")
            continue
        dx = axis_near[0] - axis_far[0]
        dy = axis_near[1] - axis_far[1]
        delta = (dx, dy, 0)

        moved = []
        changed = []
        ok = True
        for i, s in enumerate(asm.sticks):
            if i in removed:
                continue
            inside = [z_lo <= p[2] <= z_hi for p in s.ends()]
            if all(inside):
                moved.append(transform(s, 1, delta))
            elif any(inside):
                ok = False
                break
            else:
                if s.a[2] < z_lo and s.b[2] > z_hi:
                    changed.append(len(moved))
                moved.append(s)
        if not ok:
            asm.warnings.append(f"{comp_id}: branch subtree not separable, not straightened")
            continue
        changed.append(len(moved))
        moved.append(
            stick(
                (axis_near[0], axis_near[1], z_arc), (axis_near[0], axis_near[1], run_top), comp_id
            )
        )
        new_markers = {
            label: (transform_point(p, 1, delta) if z_lo <= p[2] <= z_hi else p)
            for label, p in asm.markers.items()
        }
        pairs = oracles.touching_pairs(moved, set(changed))
        verdict = oracles.check_self_avoiding(moved, new_markers, endpoint_census(moved), pairs)
        if verdicts is not None:
            verdicts.append(verdict)
        if verdict:
            asm.warnings.append(f"{comp_id}: straightening collides, skipped")
            continue

        asm.sticks = moved
        asm.markers = new_markers
        for label in {lab for c in subtree for lab in builds[c].pres.labels.values()}:
            ax, ay = asm.vertex_axis[label]
            asm.vertex_axis[label] = (ax + dx, ay + dy)
    return asm


def old_straightened(spec, tree, builds, verdicts=None):
    """The old stages through straightening: its stacking, which kept
    the vertex axes, the trees' z-ranges and the components' own z-spans,
    ``oracles.apply_merges`` and ``oracle_straighten``."""
    merged = oracles.apply_merges(census(spec), oracles.assemble(spec, tree, builds))
    return oracle_straighten(spec, tree, builds, merged, verdicts)


def assert_straightened_as_before(out, ref, where):
    """The same sticks in the same order, markers and warnings, and each
    run's marker on the old stages' vertex axis."""
    for key in ("sticks", "markers", "warnings"):
        assert getattr(out, key) == getattr(ref, key), (where, key)
    axes = {v: out.markers[v][:2] for v in out.vertex_zrange}
    assert axes == {v: ref.vertex_axis[v] for v in out.vertex_zrange}, where


@pytest.mark.parametrize("group", sorted(STACKING_GROUPS))
def test_straightening_matches_oracle(group):
    """Every input that merges straightens exactly as the old stages
    did: the same sticks in the same order, markers, axes and warnings."""
    reached = 0
    for i, doc in enumerate(STACKING_GROUPS[group]()):
        spec, cens, tree, builds, asm = stages(doc)
        try:
            asm = apply_merges(cens, asm)
        except (NoFreeDirection, MergeCollision):
            continue
        reached += 1
        ref = old_straightened(spec, tree, builds)
        out = straighten_arcs(spec, tree, builds, asm)
        assert_straightened_as_before(out, ref, (group, i))
    assert reached, group


def _flip_links(doc, ids):
    """``doc`` with the two vertex labels of each link in ``ids`` swapped:
    the same graph, with the link's near vertex on binding point 2."""
    doc = copy.deepcopy(doc)
    for comp in doc["components"]:
        if comp["id"] in ids:
            points = comp["binding_points"]
            points[0]["vertex"], points[1]["vertex"] = points[1]["vertex"], points[0]["vertex"]
    return doc


def test_flipped_links_straighten():
    """Links written either way round straighten: a 3-theta chain with both
    links flipped builds the 50 sticks of the chain as drawn, with no note."""
    doc = _bench_workloads().chain_input(3)
    drawn, _, _ = build_full(spec_from_document(doc))
    for ids in (["a2"], ["a3"], ["a2", "a3"]):
        emb, counts, _ = build_full(spec_from_document(_flip_links(doc, ids)))
        assert counts.total == len(drawn.sticks) == 50, ids
        assert emb.warnings == drawn.warnings, ids


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_flipped_links_build_as_drawn(n, seed, data):
    """A random chain with any of its links written the other way round
    builds a certified embedding with the stick count of the chain as
    drawn, and straightens every link it flips."""
    doc = _bench_workloads().chain_input(n, random.Random(seed))
    flipped = data.draw(st.sets(st.sampled_from([f"a{i}" for i in range(2, n + 1)])))
    _, drawn, _ = build_full(spec_from_document(doc))
    emb, counts, _ = build_full(spec_from_document(_flip_links(doc, flipped)))
    assert counts == drawn
    assert not any("rerouted by merging" in w for w in emb.warnings)


def _chain_link():
    """CHAIN merged, with the z-slab of the branch its link ``mid`` slides
    and an x clear of every stick before and after the slide."""
    spec, cens, tree, builds, asm = stages(CHAIN)
    asm = apply_merges(cens, asm)
    z_lo, z_hi = asm.slab["th2"]
    xs = [p[0] for s in asm.sticks for p in s.ends()]
    return spec, tree, builds, asm, (z_lo, z_hi), 2 * max(xs) - min(xs) + 1


@pytest.mark.parametrize("reach", ["into", "across"])
def test_straighten_splits_sticks_by_their_ends(reach):
    """A stick clear of everything with one end inside the branch's slab and
    one below it would be torn by the slide, which only a fault makes, so
    straightening raises, naming the link; one spanning the whole slab
    stays put while the link straightens."""
    spec, tree, builds, asm, (z_lo, z_hi), x = _chain_link()
    top = z_lo + 1 if reach == "into" else z_hi + 1
    extra = stick((x, 0, z_lo - 1), (x, 0, top))
    assert _violations(asm.sticks + [extra], asm.markers) == []
    asm.sticks = asm.sticks + [extra]
    before = list(asm.sticks)
    warnings = list(asm.warnings)
    if reach == "into":
        with pytest.raises(AssemblyCollision, match="^straightening mid would tear"):
            straighten_arcs(spec, tree, builds, asm)
    else:
        out = straighten_arcs(spec, tree, builds, asm)
        assert out.sticks != before and extra in out.sticks
        assert out.warnings == warnings


def test_straighten_without_branch_run():
    """With the far-axis run under the branch gone, nothing replaces it."""
    spec, tree, builds, asm, (z_lo, _), _ = _chain_link()
    fx, fy, _ = asm.markers["v3"]
    z_arc = asm.slab["mid"][0]
    run = [
        s for s in asm.sticks
        if s.axis == 2 and (s.a[0], s.a[1]) == (fx, fy) and z_arc <= s.a[2] < z_lo
    ]
    assert run
    asm.sticks = [s for s in asm.sticks if s not in run]
    before = list(asm.sticks)
    warnings = list(asm.warnings)
    out = straighten_arcs(spec, tree, builds, asm)
    assert out.sticks == before
    assert out.warnings == warnings + ["mid: no branch run found, not straightened"]


def _canonical(index):
    """The index with each slot read as its position in the state: equal
    for two indexes of one state however their slots were numbered."""
    slots = list(index.sticks)
    assert slots == sorted(slots)
    position = {k: i for i, k in enumerate(slots)}

    def positions(bucket):
        return sorted(position[k] for k in bucket)

    return (
        index.state(),
        {key: positions(slots) for key, slots in index.lines.items() if slots},
        {key: positions(slots) for key, slots in index.planes.items() if slots},
        {axis: positions(slots) for axis, slots in index.columns.items() if slots},
    )


def _oracle_layout(sticks):
    """``_canonical``'s layout of an index of ``sticks``, filed from the
    oracle's keys: each line, each plane by the axis of its sticks, and the
    (x, y) of each horizontal stick's ends."""
    lines, planes, columns = defaultdict(list), defaultdict(list), defaultdict(list)
    for i, s in enumerate(sticks):
        ax, line, *in_planes = oracles.buckets(s)
        lines[line].append(i)
        for normal, c in in_planes:
            planes[normal, c, ax].append(i)
        if ax != 2:
            for p in (s.a[:2], s.b[:2]):
                columns[p].append(i)
    return list(sticks), dict(lines), dict(planes), dict(columns)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_index_ends_match_far_partners(data):
    """Over random committed edits, the index files each stick under the
    oracle's keys, and the sticks it finds ending at each attachment's far
    end, from the three line buckets through it, are ``oracles.far_partners``';
    at every other end point they are the endpoint census's."""
    index = StickIndex(data.draw(st.lists(grid_sticks(), min_size=1, max_size=12)))
    for _ in range(data.draw(st.integers(1, 4))):
        live = list(index.sticks)
        picked = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        replaced = {k: data.draw(grid_sticks()) for k in picked if data.draw(st.booleans())}
        removed = [k for k in picked if k not in replaced]
        index.stage(replaced, removed, data.draw(st.lists(grid_sticks(), max_size=3)))
        index.commit()
        trial = index.state()
        assert _canonical(index) == _oracle_layout(trial)
        position = {k: i for i, k in enumerate(index.sticks)}

        def ending_at(p):
            return sorted(position[k] for k in index.ending_at(p))

        census = endpoint_census(trial)
        assert {p: ending_at(p) for p in census} == {p: sorted(js) for p, js in census.items()}
        for axis in {p[:2] for p in census}:
            targets = oracle_attachments(trial, axis, (min(GRID), max(GRID)))
            far = oracles.far_partners(trial, axis, targets)
            assert {p: ending_at(p) for p in far} == far


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_index_check_matches_bucketed_and_all_pairs(data):
    """Over random edits that replace, remove and append sticks, the index
    names, read through the trial's state-order view, the pairs the
    all-pairs contract names, and its check finds what the bucketed
    check and the all-pairs oracle find; the census-mode oracle on the
    bucketed pairs finds the same less what only a shared end judges.  A
    committed edit leaves the index equal to a fresh index of the trial; an
    edit never committed leaves it as it was."""
    index = StickIndex(data.draw(st.lists(grid_sticks(), min_size=1, max_size=12)))
    used = set(index.sticks)  # every slot the state has held
    for _ in range(data.draw(st.integers(1, 4))):
        live = list(index.sticks)
        picked = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        replaced, removed = {}, set()
        for k in picked:
            if data.draw(st.booleans()):
                replaced[k] = data.draw(grid_sticks())
            else:
                removed.add(k)
        appended = data.draw(st.lists(grid_sticks(), max_size=3))
        before = _canonical(index)
        assert index.stage(replaced, removed, appended) is None
        # slot order is position order, and no appended stick takes a slot
        # the state has held, removed ones included
        slots = list(index.trial)
        trial = list(index.trial.values())
        assert slots == sorted(slots)
        assert not used & set(slots[len(slots) - len(appended) :])
        changed = [i for i, k in enumerate(slots) if k in replaced or k not in live]
        kept = [index.sticks[k] for k in live if k not in replaced and k not in removed]
        unchanged = [s for i, s in enumerate(trial) if i not in changed]
        assert len(unchanged) == len(kept) and all(s is t for s, t in zip(unchanged, kept))
        assert [trial[i] for i in changed] == [replaced[k] for k in sorted(replaced)] + appended

        ends = endpoint_census(trial) if data.draw(st.booleans()) else None
        points = sorted({p for s in trial for p in s.ends()})
        marked = data.draw(
            st.lists(st.sampled_from(points), max_size=2, unique=True) if points else st.just([])
        )
        markers = {f"m{n}": p for n, p in enumerate(marked)}
        # the index names the pairs that meet other than at one shared end,
        # which the oracle's bucketed pairs keep
        index_pairs = index.touching_pairs()
        position = {k: i for i, k in enumerate(slots)}
        named = [(position[i], position[j]) for i, j in index_pairs]
        assert named == _faultable_pairs(trial, set(changed))
        kept = oracles.touching_pairs(trial, set(changed))
        indexed = check_self_avoiding(index.trial, index_pairs)
        assert indexed == check_self_avoiding(trial, kept)
        assert indexed == _all_pairs_self_avoiding(trial, interior_only=True, changed=set(changed))
        judged = oracles.check_self_avoiding(trial, markers, ends, kept)
        assert judged == _all_pairs_self_avoiding(trial, markers, ends is None, set(changed))
        assert oracles.check_self_avoiding(index.trial, markers, ends, index_pairs) == [
            v for v in judged if v[0] != "endpoint_junction_unmarked"
        ]
        assert _canonical(index) == before
        if data.draw(st.booleans()):
            index.commit()
            used.update(index.sticks)
            assert _canonical(index) == _canonical(StickIndex(trial))
            position = {k: i for i, k in enumerate(index.sticks)}
            axes = {(p[0], p[1]) for p in points}
            for axis in axes:
                zrange = (data.draw(st.sampled_from(GRID)), data.draw(st.sampled_from(GRID)))
                assert [
                    (z, position[k], d) for z, k, d in index.attachments(axis, zrange)
                ] == oracle_attachments(trial, axis, zrange)


# Trials whose contacts drawn edits can miss, as (base, replaced, removed,
# appended, the slot pairs the trial's check is given): a shared end of
# collinear sticks meeting end to start, or of perpendicular sticks, is
# settled; collinear sticks sharing a start or an end overlap and an end
# inside another stick is a T-contact, so they are named, for kept and new
# sticks alike.
INDEX_CASES = {
    "collinear end to start": ([xs(0, 0, 0, 2)], {}, [], [xs(0, 0, 2, 5)], []),
    "collinear start to end": ([xs(0, 0, 2, 5)], {}, [], [xs(0, 0, 0, 2)], []),
    "collinear equal starts": ([xs(0, 0, 0, 2)], {}, [], [xs(0, 0, 0, 3)], [(0, 1)]),
    "collinear equal ends": ([xs(0, 0, 1, 3)], {}, [], [xs(0, 0, 0, 3)], [(0, 1)]),
    "perpendicular shared end": ([xs(0, 0, 0, 2)], {}, [], [ys(2, 0, 0, 3), zs(2, 0, 0, 4)], []),
    "perpendicular shared start": ([xs(0, 0, 0, 2)], {}, [], [ys(0, 0, 0, 3)], []),
    "T-contact inside the kept stick": ([xs(0, 0, 0, 4)], {}, [], [ys(2, 0, 0, 3)], [(0, 1)]),
    "T-contact inside the new stick": ([ys(2, 0, 0, 3)], {}, [], [xs(0, 0, 0, 4)], [(0, 1)]),
    "new sticks sharing an end": ([zs(6, 6, 0, 1)], {}, [], [xs(0, 0, 0, 2), ys(2, 0, 0, 3)], []),
    "new sticks overlapping": (
        [zs(6, 6, 0, 1)], {}, [], [xs(0, 0, 0, 2), xs(0, 0, 1, 3)], [(1, 2)]
    ),
    "replaced into a T-contact": (
        [xs(0, 0, 0, 2), ys(2, 0, 0, 3)], {0: xs(0, 0, 0, 4)}, [], [], [(0, 1)]
    ),
    "removed stick unpaired": ([xs(0, 0, 0, 4), zs(1, 0, 0, 3)], {}, [0], [ys(1, 0, 0, 2)], []),
}


@pytest.mark.parametrize("case", sorted(INDEX_CASES))
def test_index_names_contacts_beyond_a_shared_end(case):
    """The index names each contact of a trial but a shared end, as the
    all-pairs contract of the same trial does, and the check reports each
    named contact."""
    base, replaced, removed, appended, named = INDEX_CASES[case]
    index = StickIndex(base)
    index.stage(replaced, removed, appended)
    assert index.touching_pairs() == named
    position = {k: i for i, k in enumerate(index.trial)}
    trial, changed = list(index.trial.values()), {position[k] for k in index.trial.new}
    assert [(position[i], position[j]) for i, j in named] == _faultable_pairs(trial, changed)
    contacts = [contact(index.trial[i], index.trial[j]) for i, j in named]
    assert check_self_avoiding(index.trial, named) == contacts


def _merge_stage_spies(monkeypatch):
    """Spies on the merge stage: the number of pairs each trial's check is
    given, and each ``contact`` call made while ``apply_merges`` runs."""
    named, contacts, merging = [], [], []
    pairs, judge, merge = StickIndex.touching_pairs, validate.contact, assembly.apply_merges

    def counted_pairs(index):
        found = pairs(index)
        named.append(len(found))
        return found

    def counted_contact(s, t):
        if merging:
            contacts.append((s, t))
        return judge(s, t)

    def watched(cens, asm):
        merging.append(True)
        try:
            return merge(cens, asm)
        finally:
            merging.clear()

    monkeypatch.setattr(StickIndex, "touching_pairs", counted_pairs)
    monkeypatch.setattr(validate, "contact", counted_contact)
    monkeypatch.setattr(assembly, "apply_merges", watched)
    return named, contacts


@pytest.mark.parametrize("n", [2, 5, 12])
def test_chain_merge_trials_name_no_pair(monkeypatch, n):
    """A theta chain's merge trials meet the state only at shared ends, so
    their checks are given no pair and the merge stage calls no
    ``contact``; random 6-theta chains do the same."""
    named, contacts = _merge_stage_spies(monkeypatch)
    workloads = _bench_workloads()
    for doc in [workloads.chain_input(n), workloads.chain_input(6, random.Random(n))]:
        trials = len(named)
        build_full(spec_from_document(doc))
        assert len(named) > trials
    assert not any(named) and contacts == []


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_staging_copies_nothing(data):
    """Staging a drawn edit writes nothing to the index: its slot dict and
    every bucket stay as they were and the trial reads each kept stick
    through them.  A trial never committed leaves the index's canonical
    form as it was; a committed one leaves the index equal to a fresh index
    of its state."""
    index = StickIndex(data.draw(st.lists(grid_sticks(), min_size=1, max_size=12)))
    for _ in range(data.draw(st.integers(1, 4))):
        live = list(index.sticks)
        picked = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        replaced = {k: data.draw(grid_sticks()) for k in picked if data.draw(st.booleans())}
        removed = [k for k in picked if k not in replaced]
        sticks, before = index.sticks, _canonical(index)
        held = dict(sticks), copy.deepcopy((index.lines, index.planes, index.columns))
        index.stage(replaced, removed, data.draw(st.lists(grid_sticks(), max_size=3)))
        index.touching_pairs()
        assert index.sticks is sticks and index.sticks == held[0]
        assert all(index.sticks[k] is s for k, s in held[0].items())
        assert (index.lines, index.planes, index.columns) == held[1]
        kept = [k for k in index.trial if k not in index.trial.new]
        assert all(index.trial[k] is sticks[k] for k in kept)
        assert _canonical(index) == before
        if data.draw(st.booleans()):
            index.commit()
            assert _canonical(index) == _canonical(StickIndex(index.state()))


def _index_states(sticks, plans):
    """The state, by slot, of the stick index each plan was applied to."""
    index = StickIndex(sticks)
    for plan in plans:
        yield dict(index.sticks)
        assembly._apply_vertex_plan(index, plan)
        index.commit()


def _list_states(sticks, plans):
    """The stick list each scanning-oracle plan was applied to."""
    for plan in plans:
        yield sticks
        sticks = oracles.apply_vertex_plan(sticks, plan)


def _merge_outcome(stack, merge, states, doc):
    """``merge(cens, asm)`` on ``doc`` stacked by ``stack``: its plans with each
    step's stick numbers read as the sticks they name in ``states`` (the
    states the plans were applied to), the sticks in order and the markers,
    or the class and message of what it raised."""
    spec, cens, tree, builds, asm = stages(doc, stack)
    stacked = list(asm.sticks)
    try:
        out = merge(cens, asm)
    except LatticeStickError as exc:
        return type(exc), str(exc)

    def named(step, state):
        partner = None if step.partner is None else state[step.partner]
        return replace(step, index=state[step.index], partner=partner)

    plans = [
        replace(plan, steps=tuple(named(step, state) for step in plan.steps))
        for plan, state in zip(out.merge_plans, states(stacked, out.merge_plans))
    ]
    return plans, out.sticks, out.markers


MERGE_GROUPS = {
    "fixtures": lambda: [*DEMOS.values(), CHAIN, SPLIT_PAIR, LOOP_TREFOIL, THETA5],
    "chains": lambda: [_bench_workloads().chain_input(n) for n in (4, 5, 6)],
    "trees": lambda: [_bench_workloads().tree_input(random.Random(s)) for s in range(300)],
}


@pytest.mark.parametrize("group", sorted(MERGE_GROUPS))
def test_merge_stage_matches_scanning_oracle(group):
    """Merging through the stick index gives the plans, each step naming
    the same sticks of the state it was applied to, the stick list in its
    order and the markers that scanning every stick gives, or the same
    error."""
    outcomes = Counter()
    for i, doc in enumerate(MERGE_GROUPS[group]()):
        got = _merge_outcome(assemble, apply_merges, _index_states, doc)
        ref = _merge_outcome(oracles.assemble, oracles.apply_merges, _list_states, doc)
        assert got == ref, (group, i)
        outcomes[got[0] if isinstance(got[0], type) else "merged"] += 1
    assert outcomes["merged"], outcomes


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=300, max_value=2**32 - 1))
def test_fresh_random_trees(seed):
    """Random cut trees beyond the pinned seeds 0-299: merging through the
    index gives what scanning every stick gives, and the build returns a
    certified embedding or raises one of the named build failures."""
    doc = _bench_workloads().tree_input(random.Random(seed))
    got = _merge_outcome(assemble, apply_merges, _index_states, doc)
    assert got == _merge_outcome(oracles.assemble, oracles.apply_merges, _list_states, doc)
    try:
        _, counts, bounds = build_full(spec_from_document(doc))
    except (NoFreeDirection, BoundViolated, MergeCollision):
        return
    assert bounds.ok and bounds.total == counts.total


def test_index_only_where_a_vertex_has_degree_three(monkeypatch):
    """Knots and split forests have only degree-2 vertices: their builds
    never index the sticks.  A chain's build indexes them once."""
    built = []

    class Counted(StickIndex):
        def __init__(self, sticks):
            built.append(len(sticks))
            super().__init__(sticks)

    monkeypatch.setattr(assembly, "StickIndex", Counted)
    workloads = _bench_workloads()
    for seed in range(3):
        rng = random.Random(seed)
        for doc in (workloads.knot_input(rng, 12), workloads.forest_input(rng, 3)):
            build_full(spec_from_document(doc))
    assert built == []
    build_full(spec_from_document(workloads.chain_input(4)))
    assert len(built) == 1


def test_straightening_needs_no_census(monkeypatch):
    """The lemma of ``straighten_arcs``, which replaced its trial: on the
    fixtures, chains of 2-24 thetas and tree seeds 0-299, every input that
    merges straightens exactly as the old per-link stage, each of whose
    trials, judged with the full endpoint census and the trial's markers,
    finds no contact, and the full check finds none in what it returns;
    every audit a build reaches matches the oracle audit and is clean."""
    straighten = assembly.straighten_arcs
    verdicts, audits = [], []

    def compared(spec, tree, builds, asm):
        ref = old_straightened(spec, tree, builds, verdicts)
        out = straighten(spec, tree, builds, asm)
        assert_straightened_as_before(out, ref, "build")
        assert check_self_avoiding(out.sticks) == []
        return out

    def audited(sticks, markers, spec, degrees):
        report, _ = assert_audit_matches_oracle(sticks, markers, spec, degrees)
        audits.append(report.clean)
        return report

    monkeypatch.setattr(assembly, "straighten_arcs", compared)
    monkeypatch.setattr(assembly, "full_audit", audited)
    workloads = _bench_workloads()
    docs = [*DEMOS.values(), CHAIN, SPLIT_PAIR, LOOP_TREFOIL]
    docs += [workloads.chain_input(n) for n in range(2, 25)]
    docs += [workloads.tree_input(random.Random(s)) for s in range(300)]
    for doc in docs:
        try:
            build_full(spec_from_document(doc))
        except (NoFreeDirection, MergeCollision, BoundViolated):
            continue
    assert len(verdicts) > 300 and not any(verdicts)
    assert len(audits) > 40 and all(audits)


@pytest.mark.parametrize("shape", WIDER_SHAPES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_drawn_trees_straighten_with_no_trial(shape, data):
    """The lemma on drawn wider-shape trees, hung from their root through a
    link or not: each that merges straightens as the old per-link stage,
    whose trial finds no contact, and the full check of the result finds
    none."""
    spec = data.draw(wider_branch_trees(shape))
    try:
        cens = census(spec)
    except InvalidSpec:
        return
    tree = build_cut_tree(spec, cens)
    builds = {c.id: build_component(c, cens.classes[c.id]) for c in spec.components}
    try:
        asm = apply_merges(cens, assemble(spec, tree, builds))
    except (NoFreeDirection, MergeCollision):
        return
    verdicts = []
    out = straighten_arcs(spec, tree, builds, asm)
    assert_straightened_as_before(out, old_straightened(spec, tree, builds, verdicts), shape)
    assert not any(verdicts) and check_self_avoiding(out.sticks) == []


def test_straightening_makes_each_stick_once(monkeypatch):
    """Straightening ``chain_input(48)`` makes at most one stick per stacked
    stick, each moved once, and one per link, so its work is linear: the
    old stage made each slab stick again for each link enclosing it."""
    spec, cens, tree, builds, asm = stages(_bench_workloads().chain_input(48))
    asm = apply_merges(cens, asm)
    links = sum(b.cls is ComponentClass.ARC for b in builds.values())
    stacked, made = len(asm.sticks), []
    for name in ("Stick", "stick"):
        make = getattr(assembly, name)
        monkeypatch.setattr(assembly, name, lambda *a, make=make: made.append(a) or make(*a))
    out = straighten_arcs(spec, tree, builds, asm)
    assert links == 47 and not [w for w in out.warnings if "straighten" in w]
    assert 0 < len(made) <= stacked + links
