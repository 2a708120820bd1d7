"""Test-only reference implementations: the exhaustive coloring count, the
dense coloring matrix, the algebraic agreement of the two stick bounds, the
binding-point law, stick construction and contact through tuple
comprehensions, the side-slide trial that regenerates and checks the sticks
where the build compares two column axes, the rigid map that carried local
sticks to their stacked place where the build makes them there, the
vertex-merging stage that scans every stick where the build reads its stick
index, the stick keys through ``Stick.axis``, and the trace simplification
and normalization that walk every point through generators where the build
takes each step once and works per axis.

The package computes none of these; the tests check its results against
them.  The module name keeps pytest from collecting it.
"""

from dataclasses import replace
from itertools import product
from math import gcd

from latticestick.assembly import MergeStep, VertexPlan, _far_end
from latticestick.bounds import arc_index_upper, construction_count, crossing_stick_bound
from latticestick.errors import InvalidCounts, MergeCollision, NoFreeDirection, TooLarge
from latticestick.geom import OTHER_AXES, LatticeEmbedding, Stick, stick
from latticestick.invariants import GaussData, _coloring_rows, _strand_structure
from latticestick.validate import check_self_avoiding, touching_pairs

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


def coloring_matrix(gauss: GaussData) -> list[list[int]]:
    """One row per crossing over the strands: 2*over - in - out."""
    n_strands, _ = _strand_structure(gauss)
    matrix = [[0] * n_strands for _ in range(gauss.n_crossings)]
    for dense, row in zip(matrix, _coloring_rows(gauss)):
        for strand, v in row.items():
            dense[strand] = v
    return matrix


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


def normalize(sticks, markers, traces, unit, warnings=()):
    """``assembly.normalize`` with one gcd over every coordinate of every
    point and one minimum per axis over every point."""
    ends = [p for s in sticks for p in s.ends()]
    step = gcd(unit, *(c for p in ends + list(markers.values()) for c in p))
    mins = tuple(min(p[i] for p in ends) for i in range(3))

    def shrink(p):
        return tuple((c - m) // step for c, m in zip(p, mins))

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
