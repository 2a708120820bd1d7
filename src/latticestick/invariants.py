"""Generic planar projection and knot invariants of embedded cycles.

The projection applies the shear ``x' = x + z/N, y' = y + z/N^2`` scaled by
N^2 onto the integer grid, ``X = N^2 x + N z, Y = N^2 y + z``, and drops z.
With N > 2 max|coordinate|, which exceeds the coordinate range R, the shear
is generic as soon as the sticks are self-avoiding.  An x-stick maps to a
horizontal segment and a y-stick to a vertical one.  Equate two image points
where one stick is a z-stick, or both run along the same axis: since the
fixed coordinates are integers and |z - z'| <= R < N, the points coincide in
space.  The one exception is an x-image and a y-image, which cross properly
wherever their heights differ.  So the sticks are checked for contacts first
(naming the first one), and the crossings are then exactly the proper
crossings of horizontal and vertical images.  Over/under data comes from the
original z values.  The fidelity invariant is the knot determinant, taken by
one sparse elimination of the coloring matrix modulo a Mersenne prime above
twice its Hadamard bound.  A presolve first removes the Gauss code's
Reidemeister I kinks and II bigons: each is a unit-pivot elimination, exact
for every code as long as crossing 0, whose row the minor deletes, stays;
the deleted column needs no guard, since every row sums to 0.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotACycle, TooLarge
from .geom import LatticeEmbedding, Vec3, stick
from .validate import check_self_avoiding

Vec2 = tuple[int, int]

# Mersenne exponents (OEIS A000043): the determinant is taken modulo the
# smallest 2^e - 1 above twice the Hadamard bound.  6^(n/2) bounds an
# n-crossing minor, so the last one covers about 100,000 crossings.
MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049,
)


class ProjSeg(NamedTuple):
    a: Vec2
    b: Vec2
    a3: Vec3
    b3: Vec3


class Crossing(NamedTuple):
    over_seg: int
    under_seg: int
    at: Vec2


@dataclass(frozen=True)
class GraphDiagram:
    segments: tuple[ProjSeg, ...]
    paths: dict[str, tuple[int, ...]]
    crossings: tuple[Crossing, ...]


@dataclass(frozen=True)
class GaussData:
    """Cyclic crossing visits along one closed strandline."""

    visits: tuple[tuple[int, bool], ...]  # (crossing id, is_over)
    n_crossings: int


def project_generic(emb: LatticeEmbedding, comps: set[str] | None = None) -> GraphDiagram:
    """Shear-project the embedding (optionally a subset of components):
    check its sticks for contacts, then sweep each y-stick's vertical image
    across the x-sticks' horizontal images sorted by row."""
    traces = {
        eid: line
        for eid, line in emb.traces.items()
        if comps is None or eid.rpartition("/")[0] in comps
    }
    if not traces:
        raise NotACycle(f"no edges for components {sorted(comps or [])}")
    sticks = [stick(p, q) for line in traces.values() for p, q in zip(line, line[1:])]
    violations = check_self_avoiding(sticks)
    if violations:
        kind, p = violations[0]
        raise NotACycle(f"embedding is not self-avoiding: {kind} at {p}")
    n = 2 << max(abs(c) for line in traces.values() for p in line for c in p).bit_length()
    nsq = n * n

    segments: list[ProjSeg] = []
    paths: dict[str, tuple[int, ...]] = {}
    rows: list[tuple[int, int, int, int]] = []  # x-images: (Y, X_lo, X_hi, index)
    columns: list[tuple[int, int, int, int]] = []  # y-images: (X, Y_lo, Y_hi, index)
    for eid in sorted(traces):
        line = traces[eid]
        idxs = []
        for p3, q3 in zip(line, line[1:]):
            i = len(segments)
            a = (nsq * p3[0] + n * p3[2], nsq * p3[1] + p3[2])
            b = (nsq * q3[0] + n * q3[2], nsq * q3[1] + q3[2])
            if p3[0] != q3[0]:
                rows.append((a[1], min(a[0], b[0]), max(a[0], b[0]), i))
            elif p3[1] != q3[1]:
                columns.append((a[0], min(a[1], b[1]), max(a[1], b[1]), i))
            idxs.append(i)
            segments.append(ProjSeg(a, b, p3, q3))
        paths[eid] = tuple(idxs)

    rows.sort()
    row_ys = [r[0] for r in rows]
    pairs = []
    for x, ylo, yhi, j in columns:
        for y, xlo, xhi, i in rows[bisect_right(row_ys, ylo):bisect_left(row_ys, yhi)]:
            if xlo < x < xhi:
                pairs.append((min(i, j), max(i, j), (x, y)))
    crossings = []
    for i, j, at in sorted(pairs):
        over, under = (i, j) if segments[i].a3[2] > segments[j].a3[2] else (j, i)
        crossings.append(Crossing(over, under, at))
    return GraphDiagram(tuple(segments), paths, tuple(crossings))


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


def _minor_rows(gauss: GaussData) -> list[dict[int, int]]:
    """The coloring matrix less crossing 0's row and strand 0's column, one
    sparse row ``{strand - 1: value}`` per crossing 1..n-1, made once from
    the visits: 2*over - in - out.  The strands are the n runs between
    consecutive underpasses; the run ending at an underpass is its
    crossing's incoming strand, so a visit lies on strand (underpasses
    before it) mod n, the last run wrapping round onto strand 0."""
    n = gauss.n_crossings
    over_strand, in_strand = [0] * n, [0] * n
    under = 0
    for cid, over in gauss.visits:
        if over:
            over_strand[cid] = under
        else:
            in_strand[cid] = under
            under += 1
    rows = []
    for c in range(1, n):
        into = in_strand[c]
        row: dict[int, int] = {}
        for strand, v in ((over_strand[c] % n, 2), (into, -1), ((into + 1) % n, -1)):
            if strand:
                row[strand - 1] = row.get(strand - 1, 0) + v
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


def _presolve(gauss: GaussData) -> GaussData:
    """The code less its Reidemeister I kinks and II bigons, but those
    through crossing 0 (see ``knot_determinant``), in one pass over a doubly
    linked list of the visits: the worklist holds the crossings next to a
    removal, the only ones that can newly form one.  The survivors keep
    their order and their ids' order, so crossing 0 stays 0."""
    visits = gauss.visits
    n, m = gauss.n_crossings, len(visits)
    nxt = [*range(1, m), 0]
    prv = [m - 1, *range(m - 1)]
    cid_at = [cid for cid, _ in visits]
    under, over = [0] * n, [0] * n
    for i, (cid, is_over) in enumerate(visits):
        (over if is_over else under)[cid] = i
    alive = [True] * m
    work = list(range(n - 1, 0, -1))
    while work:
        c = work.pop()
        u, o = under[c], over[c]
        if not (c and alive[u]):
            continue
        left, right = prv[u], nxt[u]
        drop = (u, o) if o == left or o == right else ()
        # a bigon: d's underpass is next to u and d's overpass next to o
        for v in () if drop else (left, right):
            d = cid_at[v]
            if d and under[d] == v and o in (prv[over[d]], nxt[over[d]]):
                drop = (u, o, v, over[d])
                break
        for p in drop:
            alive[p] = False
            nxt[prv[p]] = nxt[p]
            prv[nxt[p]] = prv[p]
        for p in drop:
            for q in (prv[p], nxt[p]):
                if alive[q]:
                    work.append(cid_at[q])
    new_id = {cid: k for k, cid in enumerate(j for j in range(n) if alive[under[j]])}
    kept = tuple((new_id[cid], is_over) for (cid, is_over), a in zip(visits, alive) if a)
    return GaussData(kept, len(new_id))


def knot_determinant(gauss: GaussData) -> int:
    """|det| of the coloring matrix with its first row and column deleted.

    The code is presolved first, exactly for any Gauss code, planar or not.
    Crossing c's row is 2 x_over - x_in - x_out, so every row sums to 0:
    each column is minus the sum of the others, and deleting any one column
    gives the same |det|.  If c's visits are adjacent (Reidemeister I),
    x_over is x_in or x_out, so the row is +-(x_in - x_out): a unit pivot
    that merges two strands and deletes the row.  If the over-visits of c1
    and c2 are adjacent and so are their under-visits (Reidemeister II), the
    strand b1 between the under-visits is in no other row, with -1 in both;
    subtracting row c1 from row c2 and pivoting on b1 leaves +-(b0 - b2),
    another merge.  Merging strands is deleting the underpass between them,
    so what is left is the reduced code's coloring matrix.  A pivot row may
    not be the deleted one, so crossing 0 is never removed and keeps its id
    (for a code that no plane diagram has, another row gives another |det|).
    A pivot column needs no such guard: where it would be the deleted strand,
    delete another column first.
    """
    if gauss.n_crossings == 0:
        return 1
    return _abs_det(_minor_rows(_presolve(gauss)))
