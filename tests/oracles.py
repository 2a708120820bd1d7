"""Test-only reference implementations: the exhaustive coloring count, the
dense coloring matrix, the coloring rows made through strand triples and two
dicts per row where ``invariants`` makes each row once, the knot determinant
eliminated with no Reidemeister presolve, the algebraic agreement of the two
stick bounds, the binding-point law, stick construction and contact through
tuple comprehensions, the side-slide trial that regenerates and checks the
sticks where the build compares two column axes, the rigid map that carried
local sticks to their stacked place where the build makes them there, the
vertex-merging stage that scans every stick where the build reads its stick
index, with the earlier stacking records it read (each vertex's axis and
its tree's z-range, each component's own z-span, scanned per subtree) and
its marker writes and degree-3 pass where stacking places every vertex once,
the stick keys through ``Stick.axis``, the trace simplification that
takes two steps per point where the build takes each step once, the rank
normalization through list indices where the build reads one map per axis,
the gcd normalization and the whole build it ended before the rank map
replaced it, the document readers that check every key list, integer and
stick through generic helpers where ``io`` makes one test per object, the
frozen-dataclass stick that the slotted ``geom.Stick`` replaced, the
bucketed pair finder with its ``changed`` mode and the census at changed
ends where a straightening trial makes one box scan, the run count through
``collinear``'s two key lookups where the audit compares axes, the document
writer that takes ``embedding_to_document``'s dict where ``io`` writes
straight from the embedding, and the judges that reported some faults twice,
with the audit made of them: the contact check with its marker and census
modes, which also flagged an unmarked junction once per pair; the box scan
that also took the census at a trial's changed ends; and the junction check
that also flagged two sticks leaving a marker in one direction, which always
overlap; and the audit's filing into line and plane dicts with their sweep,
where the audit files by axis, sweeps one sorted run per axis and checks the
stick contract.

The package computes none of these; the tests check its results against
them.  The module name keeps pytest from collecting it.
"""

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field, replace
from itertools import islice, product
from json.encoder import encode_basestring_ascii
from math import gcd

from latticestick.arcs import Arc, ArcPresentation
from latticestick import assembly
from latticestick.assembly import MergeStep, VertexPlan, _far_end
from latticestick.bounds import arc_index_upper, construction_count, crossing_stick_bound
from latticestick.build import build_component
from latticestick.errors import (
    AssemblyCollision,
    DocumentError,
    InvalidCounts,
    MergeCollision,
    NoFreeDirection,
    ReconstructionMismatch,
    TooLarge,
)
from latticestick.geom import OTHER_AXES, LatticeEmbedding, Stick, Vec3, stick
from latticestick.geom import contact as geom_contact
from latticestick.graph import (
    ComponentSpec,
    CutAttachment,
    SpatialGraphSpec,
    build_cut_tree,
    census,
)
from latticestick.invariants import GaussData, _abs_det
from latticestick.validate import (
    AuditReport,
    StickCounts,
    check_bound,
    count_sticks as axis_count_sticks,
    reconstruct_graph,
)

MAX_STRANDS = 12


def binding_point_count(alpha: int, v: int, e: int) -> int:
    """Number of binding points forced by arc, vertex and edge counts."""
    beta = alpha + v - e
    if beta < 1:
        raise InvalidCounts(f"binding count {beta} < 1 for alpha={alpha} v={v} e={e}")
    return beta


def bounds_agree(c: int, e: int, v: int, s: int, b: int, k: int) -> bool:
    """Substituting alpha = c + e + b turns one bound into the other."""
    return construction_count(
        arc_index_upper(c, e, b), e, v, s, k
    ) == crossing_stick_bound(c, e, v, s, b, k)


def _strand_structure(gauss: GaussData):
    """Strand count plus (over, in, out) strand triple per crossing.

    Strands are the maximal runs between consecutive underpasses; the run
    ending at an underpass is that crossing's incoming strand.  So a visit
    lies on strand (underpasses before it) mod n, the last run wrapping
    round onto strand 0.
    """
    n_strands = sum(1 for _, over in gauss.visits if not over)
    over_strand: dict[int, int] = {}
    in_strand: dict[int, int] = {}
    under = 0
    for cid, over in gauss.visits:
        if over:
            over_strand[cid] = under % n_strands
        else:
            in_strand[cid] = under
            under += 1
    triples = [
        (over_strand[cid], in_strand[cid], (in_strand[cid] + 1) % n_strands)
        for cid in range(gauss.n_crossings)
    ]
    return n_strands, triples


def _coloring_rows(gauss: GaussData) -> list[dict[int, int]]:
    """One sparse row ``{strand: value}`` per crossing: 2*over - in - out."""
    _, triples = _strand_structure(gauss)
    rows = []
    for over, into, out in triples:
        row: dict[int, int] = {}
        for strand, v in ((over, 2), (into, -1), (out, -1)):
            row[strand] = row.get(strand, 0) + v
        rows.append(row)
    return rows


def minor_rows(gauss: GaussData) -> list[dict[int, int]]:
    """The coloring rows less crossing 0's row and strand 0's column, as
    ``knot_determinant`` took them before its rows were made in one pass:
    through the triples, a dict per row and a second dict per row."""
    return [
        {strand - 1: v for strand, v in row.items() if strand}
        for row in _coloring_rows(gauss)[1:]
    ]


def coloring_matrix(gauss: GaussData) -> list[list[int]]:
    """One row per crossing over the strands: 2*over - in - out."""
    n_strands, _ = _strand_structure(gauss)
    matrix = [[0] * n_strands for _ in range(gauss.n_crossings)]
    for dense, row in zip(matrix, _coloring_rows(gauss)):
        for strand, v in row.items():
            dense[strand] = v
    return matrix


def unreduced_knot_determinant(gauss: GaussData) -> int:
    """|det| of the coloring matrix with its first row and column deleted,
    eliminated as the code stands: no Reidemeister presolve."""
    if gauss.n_crossings == 0:
        return 1
    return _abs_det(minor_rows(gauss))


def p_coloring_count(gauss: GaussData, p: int) -> int:
    """Exhaustively count strand labelings over Z_p with 2*over = in + out.

    Depth-first over the strands, rejecting a partial assignment as soon as
    some crossing has all three strands labeled inconsistently; this visits
    exactly the assignments a plain product enumeration would accept.
    """
    if gauss.n_crossings == 0:
        return p
    n_strands, triples = _strand_structure(gauss)
    if n_strands > MAX_STRANDS:
        raise TooLarge(f"{n_strands} strands exceeds the enumeration bound {MAX_STRANDS}")
    by_last: dict[int, list[tuple[int, int, int]]] = {}
    for t in triples:
        by_last.setdefault(max(t), []).append(t)

    colors = [0] * n_strands

    def count(strand: int) -> int:
        if strand == n_strands:
            return 1
        total = 0
        for c in range(p):
            colors[strand] = c
            if all(
                (2 * colors[o] - colors[i] - colors[u]) % p == 0
                for o, i, u in by_last.get(strand, ())
            ):
                total += count(strand + 1)
        return total

    return count(0)


def listed_stick(a, b, comp=""):
    """``geom.stick`` through the list of differing coordinates."""
    diff = [i for i in range(3) if a[i] != b[i]]
    if len(diff) != 1:
        raise ValueError(f"not axis-parallel or zero length: {a} -> {b}")
    if a > b:
        a, b = b, a
    return Stick(a, b, comp)


def contact(s, t):
    """Classify the contact between two sticks, as ``geom.contact`` does."""
    lo = tuple(max(s.a[i], t.a[i]) for i in range(3))
    hi = tuple(min(s.b[i], t.b[i]) for i in range(3))
    if any(lo[i] > hi[i] for i in range(3)):
        return None
    if lo != hi:
        return ("overlap", lo)
    p = lo
    on_s_end = s.has_end(p)
    on_t_end = t.has_end(p)
    if on_s_end and on_t_end:
        return ("endpoint", p)
    if on_s_end or on_t_end:
        return ("t_contact", p)
    return ("cross", p)


def buckets(s):
    """``geom.buckets`` through ``Stick.axis``."""
    ax = s.axis
    u, w = OTHER_AXES[ax]
    return ax, (ax, s.a[u], s.a[w]), (u, s.a[u]), (w, s.a[w])


def slide_ok(build, moved_bp):
    """``build._slide_ok`` as a trial: regenerate the component's sticks and
    check the ones with an end on the moved column's axis against the rest.

    Only those sticks' geometry depends on the moved coordinate, and every
    other pair is as in the state before the move.
    """
    # Column i of 1 < i < beta stands still at (i, i), so only the first
    # and the last column can meet each other.
    if build.column_axis(1) == build.column_axis(build.pres.beta):
        return False
    axis = build.column_axis(moved_bp)
    sticks = build.sticks(1, (0, 0, 0))
    changed = {i for i, s in enumerate(sticks) if any(p[:2] == axis for p in s.ends())}
    return not check_self_avoiding(sticks, pairs=touching_pairs(sticks, changed))


def transform(s, scale, offset):
    """Scale ``s`` by a positive integer, then translate it by ``offset``."""
    return Stick(transform_point(s.a, scale, offset), transform_point(s.b, scale, offset), s.comp)


def transform_point(p, scale, offset):
    return tuple(scale * c + o for c, o in zip(p, offset))


# --- vertex placement as stacking, merging and straightening kept it -------

@dataclass
class StackingRecords:
    """The stacked state with the records each stage kept of the vertices:
    every vertex's axis, each vertex's tree's z-range, each component's own
    z-span and the lone circles' markers, which merging completed."""

    sticks: list
    vertex_axis: dict = field(default_factory=dict)
    vertex_zrange: dict = field(default_factory=dict)
    comp_scale: dict = field(default_factory=dict)
    comp_zspan: dict = field(default_factory=dict)
    markers: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    merge_plans: list = field(default_factory=list)


def assemble(spec, tree, builds):
    """``assembly.assemble`` as it was before it placed every vertex: the
    same sticks in the same order, a marker for lone circles only, and the
    records ``StackingRecords`` names."""
    sized, placed = assembly._size_subtrees(builds, tree)
    unit = 12 * max(sized[root][0] for root in tree.roots)
    warnings = [w for comp in spec.components for w in builds[comp.id].warnings]
    asm = StackingRecords(sticks=[], warnings=warnings)
    grid = {}
    top = 0
    for cid in tree.order:
        b = builds[cid]
        if cid in tree.parent:
            stem_id, cut_vertex = tree.parent[cid]
            g, o = grid[stem_id]
            u, f, off = placed[cid]
            g, o = g * f, tuple(g * c + oc for c, oc in zip(off, o))
        else:
            u, ztop, _ = sized[cid]
            g, o = unit // u, (0, 0, top)
            span = (top + unit, top + g * ztop)
            top = span[1]
        grid[cid] = (g, o)
        scale = asm.comp_scale[cid] = g * u
        asm.comp_zspan[cid] = (scale + o[2], scale * max(1, b.pres.alpha) + o[2])
        asm.sticks.extend(b.sticks(scale, o))
        for bp, label in b.pres.labels.items():
            ax, ay = b.column_axis(bp)
            axis = (scale * ax + o[0], scale * ay + o[1])
            if asm.vertex_axis.setdefault(label, axis) != axis:
                raise AssemblyCollision(f"cut vertex {label} columns failed to align")
            asm.vertex_zrange[label] = span
        if cid in tree.parent:
            stem = builds[stem_id]
            below = stem.column_zrange(stem.vertex_bp(cut_vertex))[1]
            above = b.column_zrange(b.vertex_bp(cut_vertex))[0]
            ax, ay = asm.vertex_axis[cut_vertex]
            asm.sticks.append(stick(
                (ax, ay, asm.comp_scale[stem_id] * below + grid[stem_id][1][2]),
                (ax, ay, scale * above + o[2]),
            ))
        corner = b.knot_corner()
        if corner is not None:
            label = next(iter(b.pres.labels.values()))
            asm.markers[label] = transform_point(corner, scale, o)
    return asm


def subtree(tree, comp_id):
    """``comp_id`` and every component stacked on it, by a scan of
    ``tree.order`` from it."""
    i = tree.order.index(comp_id)
    out = [comp_id]
    descendants = {comp_id}
    for other in tree.order[i + 1:]:
        p = tree.parent.get(other)
        if p and p[0] in descendants:
            out.append(other)
            descendants.add(other)
        else:
            break
    return out


# --- vertex merging by scans over every stick --------------------------------

def attachments(sticks, axis, zrange):
    """Horizontal sticks with an end on the vertical line through ``axis``
    inside ``zrange``, bottom to top: (level, stick index, outward 2d dir)."""
    zlo, zhi = zrange
    found = []
    for i, s in enumerate(sticks):
        if s.axis == 2:
            continue
        for p in s.ends():
            if (p[0], p[1]) == axis and zlo <= p[2] <= zhi:
                d = s.direction_from(p)
                found.append((p[2], i, (d[0], d[1])))
    return sorted(found)


def far_partners(sticks, axis, targets):
    """The sticks ending at each target attachment's far end, in one pass."""
    ends = {_far_end(sticks[i], axis, z): [] for z, i, _ in targets}
    for j, s in enumerate(sticks):
        for p in s.ends():
            if p in ends:
                ends[p].append(j)
    return ends


def _candidate_moves(sticks, ends, axis, attachment, is_top):
    level, idx, d = attachment
    far = _far_end(sticks[idx], axis, level)
    options = [MergeStep(level, d, "drop", 0, idx)]
    partners = [j for j in ends[far] if j != idx]
    if len(partners) == 1 and sticks[partners[0]].axis == (1 if d[0] else 0):
        perps = [(0, 1), (0, -1)] if d[0] else [(1, 0), (-1, 0)]
        options += [MergeStep(level, w, "translate", 0, idx, partners[0]) for w in perps]
    if is_top:
        options.append(MergeStep(level, (-d[0], -d[1]), "extend", 0, idx))
    return options


def vertex_plans(sticks, vertex, axis, zrange, degree, unit):
    att = attachments(sticks, axis, zrange)
    if len(att) != degree:
        raise MergeCollision(
            f"vertex {vertex}: found {len(att)} attachments, expected {degree}"
        )
    pivot_level, _, pivot_dir = att[1]
    ends = far_partners(sticks, axis, att[2:])
    *earlier, last = (_candidate_moves(sticks, ends, axis, a, False) for a in att[2:-1])
    last += _candidate_moves(sticks, ends, axis, att[-1], True)
    n = degree - 2
    produced = False
    for chosen in product(*earlier, last):
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


def fuse_run(sticks, plan):
    """Every stick but the vertical run from the column base to the old top,
    then the two sticks meeting at the pivot that replace the run."""
    ax, ay = plan.axis
    kept = [
        s
        for s in sticks
        if not (
            s.axis == 2
            and (s.a[0], s.a[1]) == plan.axis
            and s.a[2] >= plan.column_base
            and s.b[2] <= plan.old_top
        )
    ]
    kept.append(stick((ax, ay, plan.column_base), (ax, ay, plan.pivot_level)))
    kept.append(stick((ax, ay, plan.pivot_level), (ax, ay, plan.new_top)))
    return kept


def apply_vertex_plan(sticks, plan):
    sticks = list(sticks)
    ax, ay = plan.axis
    for step in plan.steps:
        s = sticks[step.index]
        far = _far_end(s, plan.axis, step.level)
        wx, wy = step.direction
        bx, by = ax + step.epsilon * wx, ay + step.epsilon * wy
        break_pt = (bx, by, step.level)
        arm_end = (bx, by, plan.pivot_level)
        if step.move in ("drop", "extend"):
            if break_pt == far:
                return None
            sticks[step.index] = stick(break_pt, far, s.comp)
        else:
            moved_far = (far[0] + step.epsilon * wx, far[1] + step.epsilon * wy, far[2])
            partner = sticks[step.partner]
            keep = partner.b if partner.a == far else partner.a
            if keep == moved_far:
                return None
            sticks[step.index] = stick(break_pt, moved_far, s.comp)
            sticks[step.partner] = stick(keep, moved_far, partner.comp)
        sticks.append(stick(arm_end, break_pt, s.comp))
        sticks.append(stick((ax, ay, plan.pivot_level), arm_end, s.comp))
    return fuse_run(sticks, plan)


def apply_merges(cens, asm):
    """``assembly.apply_merges`` with every read a scan of the stick list and
    each trial's changed sticks found by object identity."""
    degrees = cens.degrees
    sticks = asm.sticks
    for label in sorted(degrees):
        if degrees[label] < 4:
            continue
        committed = None
        kept = {id(s) for s in sticks}
        for plan in vertex_plans(
            sticks,
            label,
            asm.vertex_axis[label],
            asm.vertex_zrange[label],
            degrees[label],
            min(asm.comp_scale[c] for c in cens.points[label]),
        ):
            trial = apply_vertex_plan(sticks, plan)
            if trial is None:
                continue
            changed = {i for i, s in enumerate(trial) if id(s) not in kept}
            if not check_self_avoiding(trial, pairs=touching_pairs(trial, changed)):
                committed = (trial, plan)
                break
        if committed is None:
            raise MergeCollision(f"all merge moves collide at vertex {label}")
        sticks, plan = committed
        asm.merge_plans.append(plan)
        asm.markers[label] = (plan.axis[0], plan.axis[1], plan.pivot_level)
    asm.sticks = sticks
    for label, d in sorted(degrees.items()):
        if d != 3:
            continue
        att = attachments(asm.sticks, asm.vertex_axis[label], asm.vertex_zrange[label])
        if len(att) != 3:
            raise MergeCollision(f"vertex {label}: expected 3 attachments, got {len(att)}")
        ax, ay = asm.vertex_axis[label]
        asm.markers[label] = (ax, ay, att[1][0])
    return asm


# --- traces and normalization point by point ---------------------------------

def _sign_step(a, b):
    return tuple((b[i] > a[i]) - (b[i] < a[i]) for i in range(3))


def simplify(polyline, marker_points):
    """``assembly._simplify`` with two sign steps per interior point."""
    out = [polyline[0]]
    for prev, cur, nxt in zip(polyline, polyline[1:], polyline[2:]):
        if _sign_step(prev, cur) != _sign_step(cur, nxt) or cur in marker_points:
            out.append(cur)
    out.append(polyline[-1])
    return out


def _fused_embedding(shrink, markers, traces, warnings):
    new_traces = {eid: [shrink(p) for p in line] for eid, line in traces.items()}
    fused = tuple(
        stick(a, b)
        for eid in sorted(new_traces)
        for a, b in zip(new_traces[eid], new_traces[eid][1:])
    )
    return LatticeEmbedding(
        sticks=fused,
        markers={k: shrink(p) for k, p in markers.items()},
        traces=new_traces,
        warnings=warnings,
    )


def normalize(markers, traces, warnings=()):
    """``assembly.normalize`` with each coordinate's rank found by its index
    in the sorted distinct values of its axis, point by point."""
    points = [p for line in traces.values() for p in line] + list(markers.values())
    axes = [sorted(set(p[i] for p in points)) for i in range(3)]
    return _fused_embedding(
        lambda p: tuple(axis.index(c) for axis, c in zip(axes, p)), markers, traces, warnings
    )


def gcd_normalize(sticks, markers, traces, unit, warnings=()):
    """The normalization before the rank map: minima to the origin, then the
    grid shrunk by one gcd of ``unit`` and every coordinate of the
    construction ``sticks`` and the markers."""
    ends = [p for s in sticks for p in s.ends()]
    step = gcd(unit, *(c for p in ends + list(markers.values()) for c in p))
    mins = tuple(min(p[i] for p in ends) for i in range(3))
    return _fused_embedding(
        lambda p: tuple((c - m) // step for c, m in zip(p, mins)), markers, traces, warnings
    )


def gcd_build_full(spec):
    """``assembly.build_full`` as it was before the rank map: its stages up
    to the traces, ``gcd_normalize`` on the roots' unit, which is the
    largest component scale, then the audit and the bound."""
    cens = census(spec)
    tree = build_cut_tree(spec, cens)
    builds = {c.id: build_component(c, cens.classes[c.id]) for c in spec.components}
    asm = assembly.assemble(spec, tree, builds)
    asm = assembly.straighten_arcs(spec, tree, builds, assembly.apply_merges(cens, asm))
    traces = assembly.derive_traces(cens, asm.sticks, asm.markers)
    unit = max(asm.comp_scale.values())
    emb = gcd_normalize(asm.sticks, asm.markers, traces, unit, tuple(asm.warnings))
    report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
    if not report.clean:
        raise AssemblyCollision("built embedding failed its audit")
    bounds = check_bound(report.counts, cens, cens.alpha_total, spec.declared_crossings)
    return emb, report.counts, bounds


def _check_keys(obj, required, optional=(), where="document"):
    if not isinstance(obj, dict):
        raise DocumentError(f"{where} must be an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise DocumentError(f"unknown keys {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise DocumentError(f"missing keys {missing} in {where}")


def _is_int(value) -> bool:
    """JSON integers only: ``true`` and ``false`` are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list(value, where):
    if not isinstance(value, list):
        raise DocumentError(f"{where} must be a list")
    return value


def _label(value, where):
    if not isinstance(value, str) or not value:
        raise DocumentError(f"{where} must be a nonempty string")
    return value


def _int_triple(value, where):
    if not isinstance(value, list) or len(value) != 3 or not all(map(_is_int, value)):
        raise DocumentError(f"{where} must be a list of three integers")
    return tuple(value)


def spec_from_document(doc) -> SpatialGraphSpec:
    """``io.spec_from_document`` through the generic key, integer and label
    checks: set differences for every object, one test per arc integer."""
    _check_keys(doc, ["components"], ["attachments", "diagram_crossings"])
    components = []
    for c in _list(doc["components"], "components"):
        _check_keys(c, ["id", "binding_points", "arcs"], where="component")
        comp_id = _label(c["id"], "component id")
        labels = {}
        indices = set()
        for bp in _list(c["binding_points"], "binding_points"):
            _check_keys(bp, ["index"], ["vertex"], where="binding point")
            if not _is_int(bp["index"]) or bp["index"] < 1:
                raise DocumentError("binding point index must be a positive integer")
            if bp["index"] in indices:
                raise DocumentError(f"duplicate binding point index {bp['index']}")
            indices.add(bp["index"])
            if "vertex" in bp:
                labels[bp["index"]] = _label(bp["vertex"], "vertex label")
        if indices != set(range(1, len(indices) + 1)):
            raise DocumentError(
                f"component {comp_id}: binding points must cover 1..{len(indices)}"
            )
        arcs = []
        for a in _list(c["arcs"], "arcs"):
            _check_keys(a, ["page", "from", "to"], where="arc")
            for key in ("page", "from", "to"):
                if not _is_int(a[key]):
                    raise DocumentError(f"arc {key} must be an integer")
            if a["from"] == a["to"]:
                raise DocumentError("arc endpoints must differ")
            if not {a["from"], a["to"]} <= indices:
                raise DocumentError(f"arc references unlisted binding point in {comp_id}")
            arcs.append(Arc(a["page"], min(a["from"], a["to"]), max(a["from"], a["to"])))
        pres = ArcPresentation(tuple(arcs), labels, len(indices))
        components.append(ComponentSpec(comp_id, pres))
    attachments = []
    for att in _list(doc.get("attachments", []), "attachments"):
        keys = ("stem", "branch", "cut_vertex")
        _check_keys(att, keys, where="attachment")
        attachments.append(CutAttachment(*(_label(att[k], f"attachment {k}") for k in keys)))
    crossings = doc.get("diagram_crossings")
    if crossings is not None and (not _is_int(crossings) or crossings < 0):
        raise DocumentError("diagram_crossings must be a nonnegative integer")
    return SpatialGraphSpec(tuple(components), tuple(attachments), crossings)


def embedding_from_document(doc) -> tuple[LatticeEmbedding, StickCounts]:
    """``io.embedding_from_document`` through the generic checks, a generator
    count of differing coordinates and ``geom.stick`` for every stick."""
    _check_keys(doc, ["sticks", "vertices", "edges", "counts", "bounds_report"])
    markers: dict[str, Vec3] = {}
    for v in _list(doc["vertices"], "vertices"):
        _check_keys(v, ["id", "position"], where="vertex")
        if _label(v["id"], "vertex id") in markers:
            raise DocumentError(f"duplicate vertex id {v['id']}")
        markers[v["id"]] = _int_triple(v["position"], "vertex position")
    traces: dict[str, list[Vec3]] = {}
    polyline_pairs = set()
    for e in _list(doc["edges"], "edges"):
        _check_keys(e, ["id", "polyline"], where="edge")
        if _label(e["id"], "edge id") in traces:
            raise DocumentError(f"duplicate edge id {e['id']}")
        line = [_int_triple(p, "polyline point") for p in _list(e["polyline"], "polyline")]
        if len(line) < 2:
            raise DocumentError(f"edge {e['id']} polyline too short")
        traces[e["id"]] = line
        for a, b in zip(line, line[1:]):
            if sum(x != y for x, y in zip(a, b)) != 1:
                raise DocumentError(f"edge {e['id']} polyline is not axis-parallel")
            polyline_pairs.add((min(a, b), max(a, b)))
    doc_sticks = []
    stick_pairs = set()
    for s in _list(doc["sticks"], "sticks"):
        _check_keys(s, ["axis", "start", "end"], where="stick")
        a = _int_triple(s["start"], "stick start")
        b = _int_triple(s["end"], "stick end")
        if not a < b:
            raise DocumentError("stick start must be lexicographically before end")
        if sum(x != y for x, y in zip(a, b)) != 1:
            raise DocumentError(f"stick {s['start']}-{s['end']} is not axis-parallel")
        st = stick(a, b)
        if s["axis"] != "xyz"[st.axis]:
            raise DocumentError(f"stick axis {s['axis']} does not match endpoints")
        doc_sticks.append(st)
        stick_pairs.add((a, b))
    if not doc_sticks:
        raise DocumentError("embedding has no sticks")
    if stick_pairs != polyline_pairs:
        raise DocumentError("sticks and edge polylines are not mutually derivable")
    counts = doc["counts"]
    _check_keys(counts, ["x", "y", "z", "total"], where="counts")
    if not all(map(_is_int, counts.values())):
        raise DocumentError("counts must be integers")
    got = StickCounts(counts["x"], counts["y"], counts["z"])
    if got.total != counts["total"] or counts["total"] != len(doc_sticks):
        raise DocumentError("counts do not match the stick list")
    report = doc["bounds_report"]
    _check_keys(
        report,
        ["alpha_total", "construction_bound", "crossing_bound", "total_within_bounds"],
        where="bounds_report",
    )
    if not (
        _is_int(report["alpha_total"])
        and _is_int(report["construction_bound"])
        and (report["crossing_bound"] is None or _is_int(report["crossing_bound"]))
        and isinstance(report["total_within_bounds"], bool)
    ):
        raise DocumentError(
            "bounds_report must hold integers (crossing_bound may be null) "
            "and a boolean total_within_bounds"
        )
    return LatticeEmbedding(sticks=tuple(doc_sticks), markers=markers, traces=traces), got


# --- the stick as a frozen dataclass, and the replaced pair finders ---------

@dataclass(frozen=True)
class DataclassStick:
    """The frozen dataclass ``geom.Stick`` was before its fields moved into
    slots, named as it was named, so that reprs compare.

    Closed axis-parallel segment from ``a`` to ``b`` (ordered along its axis).

    ``comp`` names the component whose arcs the stick realises: an elbow
    stick, the vertical stick that replaces a straightened arc, or a piece a
    merge cut from one of them.  Columns, connectors and fused runs carry
    ``""``.  The tag is metadata and never affects geometry.
    """

    a: Vec3
    b: Vec3
    comp: str = ""

    @property
    def axis(self) -> int:
        a, b = self.a, self.b
        if a[0] != b[0]:
            return 0
        if a[1] != b[1]:
            return 1
        if a[2] != b[2]:
            return 2
        raise ValueError(f"zero-length stick at {a}")

    @property
    def length(self) -> int:
        i = self.axis
        return self.b[i] - self.a[i]

    def ends(self) -> tuple[Vec3, Vec3]:
        return (self.a, self.b)

    def has_end(self, p: Vec3) -> bool:
        return p == self.a or p == self.b

    def direction_from(self, p: Vec3) -> tuple[int, int, int]:
        """Unit direction pointing from endpoint ``p`` into the stick."""
        if p == self.a:
            other = self.b
        elif p == self.b:
            other = self.a
        else:
            raise ValueError(f"{p} is not an endpoint")
        return tuple(
            0 if other[i] == p[i] else (1 if other[i] > p[i] else -1) for i in range(3)
        )


DataclassStick.__name__ = DataclassStick.__qualname__ = "Stick"


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


def collinear(s: Stick, t: Stick) -> bool:
    """True when the two sticks lie on one axis-parallel line: share a line key."""
    return buckets(s)[1] == buckets(t)[1]


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


def embedding_document_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for a document of
    ``embedding_to_document``, written from its fixed shape: one template per
    stick, vertex and polyline point, one join per list, and strings through
    json's own escaper.  Any ``indent`` sends ``json.dumps`` through its
    pure-Python encoder, one generator step per token.
    """
    q = encode_basestring_ascii
    p6 = " " * 6

    def items(parts: list[str], pad: str) -> str:
        return f"[\n{pad}  " + f",\n{pad}  ".join(parts) + f"\n{pad}]" if parts else "[]"

    def triple(p, pad: str) -> str:
        return f"[\n{pad}  {p[0]},\n{pad}  {p[1]},\n{pad}  {p[2]}\n{pad}]"

    def scalar(v) -> str:
        return "null" if v is None else str(v).lower() if isinstance(v, bool) else int.__repr__(v)

    def scalars(d: dict) -> str:
        return "{\n    " + ",\n    ".join(f"{q(k)}: {scalar(v)}" for k, v in d.items()) + "\n  }"

    sticks = [
        f'{{\n{p6}"axis": {q(s["axis"])},\n{p6}"start": {triple(s["start"], p6)},\n'
        f'{p6}"end": {triple(s["end"], p6)}\n    }}'
        for s in doc["sticks"]
    ]
    vertices = [
        f'{{\n{p6}"id": {q(v["id"])},\n{p6}"position": {triple(v["position"], p6)}\n    }}'
        for v in doc["vertices"]
    ]
    edges = [
        f'{{\n{p6}"id": {q(e["id"])},\n{p6}"polyline": '
        f'{items([triple(p, " " * 8) for p in e["polyline"]], p6)}\n    }}'
        for e in doc["edges"]
    ]
    return (
        f'{{\n  "sticks": {items(sticks, "  ")},\n  "vertices": {items(vertices, "  ")},\n'
        f'  "edges": {items(edges, "  ")},\n  "counts": {scalars(doc["counts"])},\n'
        f'  "bounds_report": {scalars(doc["bounds_report"])}\n}}\n'
    )


# --- the judges that reported some faults twice -------------------------------

def check_self_avoiding(
    sticks: Sequence[Stick] | dict[int, Stick],
    markers: dict[str, Vec3] | None = None,
    ends: dict[Vec3, list[int]] | None = None,
    pairs: list[tuple[int, int]] | None = None,
) -> list[tuple[str, Vec3]]:
    """``validate.check_self_avoiding`` with its marker and census modes.

    Every contact among ``pairs`` that is not legitimate, in pair order.
    ``ends``, the ``endpoint_census`` of ``sticks``, judges shared endpoints
    too: one is fine where a polyline bend joins exactly two sticks or a
    vertex marker sits, and otherwise an ``endpoint_junction_unmarked``
    violation, once per pair.  Without it every shared endpoint passes.
    """
    if pairs is None:
        pairs = touching_pairs(sticks)
    marker_points = set((markers or {}).values())
    violations: list[tuple[str, Vec3]] = []
    for i, j in pairs:
        kind, p = geom_contact(sticks[i], sticks[j])
        if kind == "endpoint":
            if ends is None or p in marker_points or len(ends[p]) == 2:
                continue
            violations.append(("endpoint_junction_unmarked", p))
        else:
            violations.append((kind, p))
    return violations


def scan_changed(
    sticks: Sequence[Stick], changed: Collection[int]
) -> tuple[list[tuple[int, int]], dict[Vec3, list[int]]]:
    """``validate.scan_changed`` with its census: a trial's ``(pairs,
    ends)``, the pairs from the box scan and the ``endpoint_census`` at the
    changed sticks' end points, the only points where such a pair can share
    an end."""
    boxes = [(i, *sticks[i].a, *sticks[i].b) for i in sorted(changed)]
    ends: dict[Vec3, list[int]] = {p: [] for i in changed for p in sticks[i].ends()}
    pairs: list[tuple[int, int]] = []
    for j, t in enumerate(sticks):
        (tax, tay, taz), (tbx, tby, tbz) = ta, tb = t.a, t.b
        if ta in ends:
            ends[ta].append(j)
        if tb in ends:
            ends[tb].append(j)
        for i, sax, say, saz, sbx, sby, sbz in boxes:
            if (
                sax <= tbx and tax <= sbx and say <= tby and tay <= sby and saz <= tbz
                and taz <= sbz and i != j and (i < j or j not in changed)
            ):
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs, ends


def audit_junctions(
    sticks: list[Stick],
    markers: dict[str, Vec3],
    degrees: dict[str, int],
    ends: dict[Vec3, list[int]],
) -> tuple[list[Vec3], list[str]]:
    """``validate.audit_junctions`` with its direction test: marker
    incidences must also use pairwise distinct axis directions."""
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


def file_sticks(sticks: Sequence[Stick]):
    """The filing pass into dicts: ``(axes, ends, lines, planes)``, the
    sticks' axes, their ``endpoint_census``, and positions by line key and
    by plane key and stick axis.  Each stick's end points are read once,
    and no stick is checked against the stick contract."""
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


def _sweep(sticks: Sequence[Stick], lines: dict, planes: dict) -> list[tuple[int, int]]:
    """The sorted pairs of sticks filed by line and plane that meet.  Each
    line bucket is swept in order of start.  In each plane bucket the sticks
    along the earlier axis are sorted by their fixed coordinate on the later
    one, and each stick along the later axis takes the range its span
    covers.
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


def full_audit(
    sticks: list[Stick],
    markers: dict[str, Vec3],
    spec: SpatialGraphSpec,
    degrees: dict[str, int],
) -> AuditReport:
    """``validate.full_audit`` through the dict filing and sweep above and
    the two judges above them: the check in its census mode and the
    junction check with its direction test.  It checks no stick against the
    stick contract."""
    axes, ends, lines, planes = file_sticks(sticks)
    report = AuditReport()
    report.violations = check_self_avoiding(sticks, markers, ends, _sweep(sticks, lines, planes))
    report.unmarked_junctions, report.marker_problems = audit_junctions(
        sticks, markers, degrees, ends
    )
    report.counts = axis_count_sticks(axes, markers, ends)
    try:
        reconstruct_graph(sticks, markers, spec, ends)
        report.reconstruction_ok = True
    except ReconstructionMismatch as exc:
        report.reconstruction_diff = exc.diff
    return report
