"""Generic planar projection and knot invariants of embedded cycles.

The projection applies the shear ``x' = x + z/N, y' = y + z/N^2`` scaled by
N^2 onto the integer grid, ``X = N^2 x + N z, Y = N^2 y + z``, and drops z.
Any coincidence (collinear overlap, triple point, crossing at an endpoint)
only survives for finitely many N, so doubling N deterministically restores
genericity, unless the sticks touch in space: the first failure checks that
and names the contact.  Over/under data comes from the original z values.  The
fidelity invariant is the knot determinant, taken by one sparse elimination
of the coloring matrix modulo a Mersenne prime above twice its Hadamard
bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from .assembly import LatticeEmbedding
from .errors import NotACycle, TooLarge
from .geom import Vec3, stick
from .validate import check_self_avoiding

Vec2 = tuple[int, int]

MAX_RETRIES = 64
# Mersenne exponents (OEIS A000043): the determinant is taken modulo the
# smallest 2^e - 1 above twice the Hadamard bound.  6^(n/2) bounds an
# n-crossing minor, so the last one covers about 100,000 crossings.
MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049,
)


@dataclass(frozen=True)
class ProjSeg:
    a: Vec2
    b: Vec2
    a3: Vec3
    b3: Vec3


@dataclass(frozen=True)
class Crossing:
    over_seg: int
    under_seg: int
    at: Vec2


@dataclass(frozen=True)
class GraphDiagram:
    segments: tuple[ProjSeg, ...]
    paths: dict[str, tuple[int, ...]]
    crossings: tuple[Crossing, ...]
    shear_n: int


@dataclass(frozen=True)
class GaussData:
    """Cyclic crossing visits along one closed strandline."""

    visits: tuple[tuple[int, bool], ...]  # (crossing id, is_over)
    n_crossings: int


def _seg_intersection(a: Vec2, b: Vec2, c: Vec2, d: Vec2):
    """Exact intersection of two closed projected sticks.

    Returns None, ("overlap", None), or ("point", p, interior_ab, interior_cd).
    """
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    acx, acy = c[0] - a[0], c[1] - a[1]
    # t, u and lo are the parameters scaled by denom or rr.  Each // is
    # exact because the point is a grid point.  Images run along (1, 0),
    # (0, 1) or (N, 1); a vertical stick maps to (N^2 x + N z, N^2 y + z),
    # which Y = const meets at an integer z and X = N^2 x' + N z' at
    # z = N (x' - x) + z'.  Collinear images meeting in one point meet at an end.
    if denom == 0:
        if acx * r[1] - acy * r[0] != 0:
            return None
        rr = r[0] * r[0] + r[1] * r[1]
        t0 = acx * r[0] + acy * r[1]
        t1 = t0 + s[0] * r[0] + s[1] * r[1]
        lo, hi = max(min(t0, t1), 0), min(max(t0, t1), rr)
        if lo > hi:
            return None
        if lo == hi:
            p = (a[0] + lo * r[0] // rr, a[1] + lo * r[1] // rr)
            return ("point", p, 0 < lo < rr, p not in (c, d))
        return ("overlap", None)
    t = acx * s[1] - acy * s[0]
    u = acx * r[1] - acy * r[0]
    if denom < 0:
        denom, t, u = -denom, -t, -u
    if not (0 <= t <= denom and 0 <= u <= denom):
        return None
    p = (a[0] + t * r[0] // denom, a[1] + t * r[1] // denom)
    return ("point", p, 0 < t < denom, 0 < u < denom)


def _z_at(seg: ProjSeg, p: Vec2) -> int:
    za, zb = seg.a3[2], seg.b3[2]
    if za == zb:
        return za
    # z varies only along vertical sticks, where X = N^2 x + N z is strictly
    # monotone in z, so it recovers z exactly.
    return za + (p[0] - seg.a[0]) * (zb - za) // (seg.b[0] - seg.a[0])


def project_generic(emb: LatticeEmbedding, comps: set[str] | None = None) -> GraphDiagram:
    """Shear-project the embedding (optionally a subset of components)."""
    traces = {
        eid: line
        for eid, line in emb.traces.items()
        if comps is None or eid.rpartition("/")[0] in comps
    }
    if not traces:
        raise NotACycle(f"no edges for components {sorted(comps or [])}")
    span = max(c for line in traces.values() for p in line for c in p)
    n = 2 << span.bit_length()
    for retry in range(MAX_RETRIES):
        diagram = _try_project(traces, n)
        if diagram is not None:
            return diagram
        if retry == 0:
            # A contact in space survives every shear, so name it rather
            # than retry in vain.
            sticks = [stick(p, q) for line in traces.values() for p, q in zip(line, line[1:])]
            violations = check_self_avoiding(sticks)
            if violations:
                kind, p = violations[0]
                raise NotACycle(f"embedding is not self-avoiding: {kind} at {p}")
        n *= 2
    raise RuntimeError("projection failed to become generic")  # pragma: no cover


def _try_project(traces: dict[str, list[Vec3]], n: int) -> GraphDiagram | None:
    nsq = n * n

    def proj(p: Vec3) -> Vec2:
        return (nsq * p[0] + n * p[2], nsq * p[1] + p[2])

    segments: list[ProjSeg] = []
    paths: dict[str, tuple[int, ...]] = {}
    for eid in sorted(traces):
        line = traces[eid]
        idxs = []
        for p3, q3 in zip(line, line[1:]):
            idxs.append(len(segments))
            segments.append(ProjSeg(proj(p3), proj(q3), p3, q3))
        paths[eid] = tuple(idxs)

    # Candidate pairs share a grid cell of the bounding boxes.  Segments with
    # disjoint boxes share none, and _seg_intersection returns None for them,
    # which the loop skips; the rest run in sorted order, so the crossing ids
    # and the first non-generic pair are those of the all-pairs loop.  A cell
    # is one lattice unit (N^2) wide, or a sixteenth of the mean stick length
    # if that is wider, so a segment covers a few dozen cells at most on
    # average, however large the coordinates are.
    length = sum(abs(u - v) for seg in segments for u, v in zip(seg.a3, seg.b3))
    cell = nsq * max(1, length // (16 * len(segments) or 1))
    buckets: dict[Vec2, list[int]] = {}
    for i, seg in enumerate(segments):
        (x0, x1), (y0, y1) = sorted((seg.a[0], seg.b[0])), sorted((seg.a[1], seg.b[1]))
        for cx in range(x0 // cell, x1 // cell + 1):
            for cy in range(y0 // cell, y1 // cell + 1):
                buckets.setdefault((cx, cy), []).append(i)
    pairs = sorted({pair for idxs in buckets.values() for pair in combinations(idxs, 2)})

    crossings: list[Crossing] = []
    seen_points: set[Vec2] = set()
    for i, j in pairs:
        si, sj = segments[i], segments[j]
        shared3 = {si.a3, si.b3} & {sj.a3, sj.b3}
        hit = _seg_intersection(si.a, si.b, sj.a, sj.b)
        if hit is None:
            continue
        if hit[0] == "overlap":
            return None
        _, p, int_i, int_j = hit
        if shared3:
            if any(proj(q) == p for q in shared3) and not (int_i or int_j):
                continue
            return None
        if not (int_i and int_j):
            return None  # endpoint touches another segment: not generic
        if p in seen_points:
            return None  # triple point
        seen_points.add(p)
        zi, zj = _z_at(si, p), _z_at(sj, p)
        if zi == zj:  # the sticks meet in space
            return None
        over, under = (i, j) if zi > zj else (j, i)
        crossings.append(Crossing(over, under, p))
    return GraphDiagram(tuple(segments), paths, tuple(crossings), n)


def extract_knot_cycle(diagram: GraphDiagram, comp: str) -> GaussData:
    """Cyclic over/under sequence along one closed single-edge component."""
    edge_ids = [eid for eid in diagram.paths if eid.rpartition("/")[0] == comp]
    if len(edge_ids) != 1:
        raise NotACycle(f"component {comp} has {len(edge_ids)} edges, need one closed loop")
    path = diagram.paths[edge_ids[0]]
    first, last = diagram.segments[path[0]], diagram.segments[path[-1]]
    if first.a3 != last.b3:
        raise NotACycle(f"edge {edge_ids[0]} is not closed")
    cycle = set(path)

    hits: dict[int, list[tuple[int, int, bool]]] = {i: [] for i in path}
    for cid, c in enumerate(diagram.crossings):
        for seg_idx, over in ((c.over_seg, True), (c.under_seg, False)):
            if seg_idx not in cycle:
                if (c.over_seg in cycle) != (c.under_seg in cycle):
                    raise NotACycle("cycle crosses another component")
                continue
            seg = diagram.segments[seg_idx]
            axis = 0 if seg.a[0] != seg.b[0] else 1
            hits[seg_idx].append((abs(c.at[axis] - seg.a[axis]), cid, over))

    visits = [
        (cid, over)
        for seg_idx in path
        for _, cid, over in sorted(hits[seg_idx])
    ]
    counts: dict[int, int] = {}
    for cid, _ in visits:
        counts[cid] = counts.get(cid, 0) + 1
    if any(v != 2 for v in counts.values()):
        raise NotACycle("crossing does not appear exactly twice on the cycle")
    return GaussData(tuple(visits), len(counts))


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


def _abs_det(rows: list[dict[int, int]]) -> int:
    """|det| of the square matrix whose row i is ``{column: value}``.

    One elimination modulo P = 2^e - 1 > 2H, where H^2 is the product of
    the rows' squared norms (Hadamard: |det| <= H).  The result is exact:
    the pivots are entries that are nonzero mod P, so their product is
    +-det mod P whatever the pivot order; |det| <= H < P/2, so the symmetric
    residue of that product is +-det; and only |det| is returned, so the
    sign of the row and column permutation never matters.
    """
    h2 = 1
    for row in rows:
        h2 *= sum(v * v for v in row.values())
    e = next((e for e in MERSENNE_EXPONENTS if ((1 << e) - 1) ** 2 > 4 * h2), None)
    if e is None:
        raise TooLarge(
            f"the Hadamard bound of a {len(rows)}-row determinant exceeds half of "
            f"2^{MERSENNE_EXPONENTS[-1]} - 1, the largest listed Mersenne prime"
        )
    p = (1 << e) - 1
    half = p // 2

    def reduce(v: int) -> int:
        # Entries are symmetric residues, |v| <= P/2, so small ones stay small
        # ints.  For |v| <= P^2/4 + P/2, as below, 2^e = 1 (mod P) folds v
        # into [-P/4 - 1, 5P/4 + 1] and one subtraction brings it to at most
        # P/2; 0 is the only multiple of P left in that range.
        v = (v & p) + (v >> e)
        return v - p if v > half else v

    rows = [{c: m for c, v in row.items() if (m := (v + half) % p - half)} for row in rows]
    col_rows: dict[int, set[int]] = {c: set() for c in range(len(rows))}
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    # Pivot on the column with the fewest live rows (stale heap entries are
    # skipped), then on its row with the fewest entries.
    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapq.heapify(heap)
    det = 1
    while heap:
        count, c = heapq.heappop(heap)
        live = col_rows.get(c)
        if live is None or len(live) != count:
            continue
        if not live:
            return 0
        r = min(live, key=lambda s: (len(rows[s]), s))
        pivot_row = rows[r]
        pivot = pivot_row.pop(c)
        det = det * pivot % p
        inv = reduce(pow(pivot, -1, p))
        del col_rows[c]
        live.discard(r)
        for k in pivot_row:
            col_rows[k].discard(r)
        for s in live:
            row = rows[s]
            f = reduce(row.pop(c) * inv)
            for k, w in pivot_row.items():
                v = reduce(row.get(k, 0) - f * w)
                if v:
                    row[k] = v
                    col_rows[k].add(s)
                elif k in row:
                    del row[k]
                    col_rows[k].discard(s)
        for k in pivot_row:
            heapq.heappush(heap, (len(col_rows[k]), k))
    return min(det, p - det)


def knot_determinant(gauss: GaussData) -> int:
    """|det| of the coloring matrix with its first row and column deleted."""
    if gauss.n_crossings == 0:
        return 1
    return _abs_det([
        {strand - 1: v for strand, v in row.items() if strand}
        for row in _coloring_rows(gauss)[1:]
    ])
