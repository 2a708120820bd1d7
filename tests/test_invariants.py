import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latticestick.assembly import build_full
from latticestick.errors import NotACycle, TooLarge
from latticestick.fixtures import CHAIN, DEMOS, LOOP_TREFOIL, SPLIT_PAIR
from latticestick.geom import LatticeEmbedding
from latticestick.invariants import (
    GaussData,
    _abs_det,
    _minor_rows,
    _presolve,
    extract_knot_cycle,
    knot_determinant,
    project_generic,
)
from latticestick.io import spec_from_document
from oracles import (
    _strand_structure,
    coloring_matrix,
    minor_rows,
    p_coloring_count,
    unreduced_knot_determinant,
)
from test_golden import _bench_workloads

# classic alternating three-crossing diagram
TREFOIL_GAUSS = GaussData(
    ((0, True), (1, False), (2, True), (0, False), (1, True), (2, False)), 3
)
KINK = GaussData(((0, True), (0, False)), 1)
EMPTY = GaussData((), 0)


def ref_int_det(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact over the integers."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def minor_dets(gauss):
    """|det| of every minor with one row and one column deleted."""
    matrix = coloring_matrix(gauss)
    n = len(matrix)
    def minor(r, c):
        return [
            [v for j, v in enumerate(row) if j != c]
            for i, row in enumerate(matrix)
            if i != r
        ]

    return {abs(ref_int_det(minor(r, c))) for r in range(n) for c in range(n)}


def built(name):
    emb, _, _ = build_full(spec_from_document(DEMOS[name]))
    return emb


def naive_coloring_count(gauss, p):
    """Plain product enumeration; the reference for the pruned search."""
    if gauss.n_crossings == 0:
        return p
    n, triples = _strand_structure(gauss)
    total = 0
    for colors in itertools.product(range(p), repeat=n):
        if all((2 * colors[o] - colors[i] - colors[u]) % p == 0 for o, i, u in triples):
            total += 1
    return total


def oracle_strand_structure(gauss):
    """Strands labeled by walking each run between consecutive underpasses
    round the cycle; the reference for the counting labeling."""
    visits = gauss.visits
    m = len(visits)
    under_pos = [i for i, (_, over) in enumerate(visits) if not over]
    n_strands = len(under_pos)
    strand_of = [0] * m
    # visits strictly after under_pos[k] up to and including under_pos[k+1]
    # belong to strand k+1 (cyclically).
    for k, start in enumerate(under_pos):
        end = under_pos[(k + 1) % n_strands]
        i = (start + 1) % m
        while True:
            strand_of[i] = (k + 1) % n_strands
            if i == end:
                break
            i = (i + 1) % m
    over_strand: dict[int, int] = {}
    in_strand: dict[int, int] = {}
    out_strand: dict[int, int] = {}
    for i, (cid, over) in enumerate(visits):
        if over:
            over_strand[cid] = strand_of[i]
        else:
            in_strand[cid] = strand_of[i]
            out_strand[cid] = (strand_of[i] + 1) % n_strands
    triples = [
        (over_strand[cid], in_strand[cid], out_strand[cid])
        for cid in range(gauss.n_crossings)
    ]
    return n_strands, triples


@st.composite
def gauss_codes(draw):
    """A valid Gauss code: every crossing visited once over and once under,
    the visits in any cyclic order."""
    n = draw(st.integers(0, 12))
    visits = draw(st.permutations([(c, over) for c in range(n) for over in (True, False)]))
    return GaussData(tuple(visits), n)


@settings(max_examples=400, deadline=None)
@given(gauss=gauss_codes())
def test_strand_structure_matches_oracle(gauss):
    assert _strand_structure(gauss) == oracle_strand_structure(gauss)


@settings(max_examples=400, deadline=None)
@given(gauss=gauss_codes())
def test_minor_rows_match_oracle_rows(gauss):
    """The rows made in one pass over the visits are the oracle's rows,
    made through the triples and two dicts per row."""
    assert _minor_rows(gauss) == minor_rows(gauss)


class TestGaussInvariants:
    def test_trefoil_determinant(self):
        assert knot_determinant(TREFOIL_GAUSS) == 3

    def test_kink_is_trivial(self):
        assert knot_determinant(KINK) == 1

    def test_empty_diagram(self):
        assert knot_determinant(EMPTY) == 1
        assert p_coloring_count(EMPTY, 3) == 3

    def test_trefoil_colorings(self):
        assert p_coloring_count(TREFOIL_GAUSS, 3) == 9
        assert p_coloring_count(TREFOIL_GAUSS, 5) == 5
        assert p_coloring_count(TREFOIL_GAUSS, 7) == 7

    @pytest.mark.parametrize("gauss", [TREFOIL_GAUSS, KINK])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_pruned_search_equals_product_enumeration(self, gauss, p):
        assert p_coloring_count(gauss, p) == naive_coloring_count(gauss, p)

    def test_strand_bound_enforced(self):
        visits = tuple(
            (i, over) for i in range(13) for over in (True, False)
        )
        with pytest.raises(TooLarge):
            p_coloring_count(GaussData(visits, 13), 3)

    def test_minor_choice_irrelevant(self):
        assert minor_dets(TREFOIL_GAUSS) == {knot_determinant(TREFOIL_GAUSS)} == {3}

    def test_determinant_bound_enforced(self):
        # |det| may reach 2^140000, past the largest listed Mersenne prime
        with pytest.raises(TooLarge):
            _abs_det([{0: 1 << 140000}])


@st.composite
def square_matrices(draw):
    """Square integer matrices of order 0-10: sparse rows of small entries
    (at most three nonzeros, like coloring rows) or dense rows of entries up
    to 2^40, so |det| can pass 2^61; some made singular by a duplicated or a
    zero row."""
    n = draw(st.integers(0, 10))
    bound = draw(st.sampled_from([3, 1 << 40]))
    per_row = 3 if bound == 3 else n
    matrix = [[0] * n for _ in range(n)]
    for row in matrix:
        for col in draw(st.lists(st.integers(0, n - 1), max_size=per_row)) if n else ():
            row[col] = draw(st.integers(-bound, bound))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        matrix[i] = list(matrix[j]) if draw(st.booleans()) else [0] * n
    return matrix


@settings(max_examples=400, deadline=None)
@given(matrix=square_matrices())
def test_sparse_determinant_matches_fraction_free_reference(matrix):
    rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
    assert _abs_det(rows) == abs(ref_int_det(matrix))


class TestProjection:
    def test_rectangle_has_no_crossings(self):
        emb = built("unknot")
        dia = project_generic(emb, {"u"})
        assert len(dia.crossings) == 0

    def test_sheared_parallels_stay_apart(self):
        traces = {
            "a/e0": [(0, 0, 0), (2, 0, 0)],
            "b/e0": [(0, 0, 1), (2, 0, 1)],
        }
        emb = LatticeEmbedding((), {}, traces)
        dia = project_generic(emb)
        assert len(dia.crossings) == 0
        assert dia.segments[0].a != dia.segments[1].a

    def test_trefoil_at_least_three_crossings(self):
        dia = project_generic(built("trefoil"), {"t"})
        assert len(dia.crossings) >= 3

    def test_planar_theta_projects_flat(self):
        dia = project_generic(built("theta-planar"), {"th"})
        assert len(dia.crossings) == 0

    def test_refining_the_shear_is_stable(self):
        """The reference at N, 2N and 4N finds the trefoil's crossings."""
        traces = built("trefoil").traces
        dia = assert_matches_reference(traces)
        assert knot_determinant(extract_knot_cycle(dia, "t")) == 3

    def test_translation_keeps_the_diagram(self):
        """Shifted copies of built 12- and 80-arc knots, one with every
        axis's maximum at 0, project to the same crossings and Gauss visits."""
        for arcs, expected in ((12, (21, 5)), (80, (927, 6432713697327))):
            doc = _bench_workloads().knot_input(random.Random(arcs), arcs)
            emb, _, _ = build_full(spec_from_document(doc))
            top = [max(p[a] for line in emb.traces.values() for p in line) for a in range(3)]
            found = set()
            for shift in ((0, 0, 0), tuple(-t for t in top), (5, -7, -100)):
                traces = {
                    eid: [tuple(c + d for c, d in zip(p, shift)) for p in line]
                    for eid, line in emb.traces.items()
                }
                moved = LatticeEmbedding((), {}, traces)
                dia = project_generic(moved, {"k"})
                gauss = extract_knot_cycle(dia, "k")
                found.add((len(dia.crossings), gauss.visits, knot_determinant(gauss)))
            assert len(found) == 1
            assert [(n, det) for n, _, det in found] == [expected]


class TestExtractCycle:
    def test_unknot_empty_sequence(self):
        dia = project_generic(built("unknot"), {"u"})
        assert extract_knot_cycle(dia, "u").visits == ()

    def test_crossings_visited_twice(self):
        dia = project_generic(built("trefoil"), {"t"})
        gauss = extract_knot_cycle(dia, "t")
        flags = {}
        for cid, over in gauss.visits:
            flags.setdefault(cid, []).append(over)
        assert all(sorted(v) == [False, True] for v in flags.values())

    def test_theta_rejected(self):
        dia = project_generic(built("theta-planar"), {"th"})
        with pytest.raises(NotACycle):
            extract_knot_cycle(dia, "th")


class TestPipelineKnotTypes:
    @pytest.mark.parametrize(
        "name,comp,det", [("unknot", "u", 1), ("trefoil", "t", 3), ("figure8", "f", 5)]
    )
    def test_determinants(self, name, comp, det):
        dia = project_generic(built(name), {comp})
        gauss = extract_knot_cycle(dia, comp)
        assert knot_determinant(gauss) == det

    @pytest.mark.parametrize("name,comp", [("unknot", "u"), ("trefoil", "t"), ("figure8", "f")])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_coloring_oracle_matches_determinant(self, name, comp, p):
        dia = project_generic(built(name), {comp})
        gauss = extract_knot_cycle(dia, comp)
        det = knot_determinant(gauss)
        count = p_coloring_count(gauss, p)
        assert (count > p) == (det % p == 0)

    def test_built_diagram_minor_invariance(self):
        dia = project_generic(built("figure8"), {"f"})
        gauss = extract_knot_cycle(dia, "f")
        assert minor_dets(gauss) == {knot_determinant(gauss)} == {5}

    @pytest.mark.parametrize(
        "name,comp,p,expected",
        [
            ("trefoil", "t", 3, 9),
            ("figure8", "f", 3, 3),
            ("figure8", "f", 5, 25),
        ],
    )
    def test_coloring_counts_of_built_diagrams(self, name, comp, p, expected):
        # coloring counts are knot invariants, so the built diagrams must
        # reproduce the reference values whatever their crossing numbers
        dia = project_generic(built(name), {comp})
        assert p_coloring_count(extract_knot_cycle(dia, comp), p) == expected

    def test_loop_component_of_composite(self):
        emb = built("theta-composite")
        dia = project_generic(emb, {"loop"})
        gauss = extract_knot_cycle(dia, "loop")
        assert knot_determinant(gauss) == 1

    def test_missing_component_rejected(self):
        with pytest.raises(NotACycle):
            project_generic(built("unknot"), {"nope"})


# --- the Reidemeister presolve against the unreduced elimination -------------

@st.composite
def reducible_codes(draw):
    """Gauss codes, planar or not: any pairing of the visits with any
    over/under, kinks and bigons inserted at random places, the crossing ids
    shuffled and the cycle rotated, so that crossing 0 often sits in a kink
    or a bigon and a bigon's middle strand is sometimes strand 0."""
    n = draw(st.integers(0, 8))
    visits = list(draw(st.permutations([(c, over) for c in range(n) for over in (True, False)])))
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(visits)))
        if draw(st.booleans()):  # a kink
            over = draw(st.booleans())
            visits[i:i] = [(n, over), (n, not over)]
            n += 1
        else:  # a bigon: n and n + 1 pass over together, and under together
            visits[i:i] = [(n, True), (n + 1, True)]
            j = draw(st.integers(0, len(visits)))
            visits[j:j] = [(n, False), (n + 1, False)][:: draw(st.sampled_from([1, -1]))]
            n += 2
    ids = draw(st.permutations(range(n)))
    k = draw(st.integers(0, max(len(visits) - 1, 0)))
    return GaussData(tuple((ids[c], over) for c, over in visits[k:] + visits[:k]), n)


def assert_presolve_exact(gauss):
    """The presolved determinant equals the unreduced one, and no crossing
    but crossing 0 is left in a kink."""
    assert knot_determinant(gauss) == unreduced_knot_determinant(gauss)
    reduced = _presolve(gauss) if gauss.n_crossings else gauss
    visits = reduced.visits
    kinks = {c for (c, _), (d, _) in zip(visits, visits[1:] + visits[:1]) if c == d}
    assert kinks <= {0}
    if reduced.n_crossings == gauss.n_crossings:
        assert reduced == gauss
    return reduced


def test_presolve_keeps_order_and_ids():
    """The trefoil with a kink (crossing 1) and a bigon (3 and 5) whose
    middle strand is strand 0, since its underpasses meet across the end of
    the code: both are removed, and what is left is the trefoil's code with
    the order of its visits and of its ids kept."""
    code = GaussData(
        (
            (5, False), (1, True), (1, False), (0, True), (2, False), (4, True),
            (3, True), (5, True), (0, False), (2, True), (4, False), (3, False),
        ),
        6,
    )
    assert _presolve(code) == TREFOIL_GAUSS
    assert knot_determinant(code) == unreduced_knot_determinant(code) == 3


@settings(max_examples=600, deadline=None)
@given(gauss=reducible_codes())
def test_presolve_matches_unreduced_elimination(gauss):
    assert_presolve_exact(gauss)


@settings(max_examples=40, deadline=None)
@given(
    arcs=st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
    shift=st.tuples(*[st.integers(-50, 50)] * 3),
)
def test_presolve_matches_unreduced_elimination_on_built_knots(arcs, seed, shift):
    """Codes of built random knots, as built and translated."""
    doc = _bench_workloads().knot_input(random.Random(seed), arcs)
    emb, _, _ = build_full(spec_from_document(doc))
    for move in ((0, 0, 0), shift):
        traces = {
            eid: [tuple(c + d for c, d in zip(p, move)) for p in line]
            for eid, line in emb.traces.items()
        }
        gauss = extract_knot_cycle(project_generic(LatticeEmbedding((), {}, traces), {"k"}), "k")
        assert_presolve_exact(gauss)


def test_presolve_at_120_arcs():
    """1,940 projection crossings, 1,500 of them left after the presolve
    (a count of this presolve, not of the knot)."""
    doc = _bench_workloads().knot_input(random.Random(120), 120)
    emb, _, _ = build_full(spec_from_document(doc))
    dia = project_generic(emb, {"k"})
    gauss = extract_knot_cycle(dia, "k")
    assert len(dia.crossings) == 1940
    assert assert_presolve_exact(gauss).n_crossings == 1500


# --- the rational shear projection, kept as the reference ---------------------

def ref_seg_intersection(a, b, c, d):
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    acx, acy = c[0] - a[0], c[1] - a[1]
    if denom == 0:
        if acx * r[1] - acy * r[0] != 0:
            return None
        rr = r[0] * r[0] + r[1] * r[1]
        t0 = (acx * r[0] + acy * r[1]) / rr
        t1 = t0 + (s[0] * r[0] + s[1] * r[1]) / rr
        lo, hi = min(t0, t1), max(t0, t1)
        lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
        if lo > hi:
            return None
        if lo == hi:
            p = (a[0] + lo * r[0], a[1] + lo * r[1])
            return ("point", p, Fraction(0) < lo < Fraction(1), p not in (c, d))
        return ("overlap", None)
    t = (acx * s[1] - acy * s[0]) / denom
    u = (acx * r[1] - acy * r[0]) / denom
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return None
    p = (a[0] + t * r[0], a[1] + t * r[1])
    return ("point", p, Fraction(0) < t < Fraction(1), Fraction(0) < u < Fraction(1))


def ref_z_at(seg, p):
    (a, b, a3, b3) = seg
    za, zb = a3[2], b3[2]
    if za == zb:
        return za
    t = (p[0] - a[0]) / (b[0] - a[0])
    return za + t * (zb - za)


def ref_try_project(traces, n):
    """``x + z/N, y + z/N^2`` in rationals: (segments, crossings) or None,
    each segment ``(a, b, a3, b3)``, each crossing ``(over, under, at)``."""
    nsq = n * n

    def proj(p):
        return (p[0] + Fraction(p[2], n), p[1] + Fraction(p[2], nsq))

    segments = []
    for eid in sorted(traces):
        line = traces[eid]
        for p3, q3 in zip(line, line[1:]):
            segments.append((proj(p3), proj(q3), p3, q3))

    crossings = []
    seen_points = set()
    for i in range(len(segments)):
        si = segments[i]
        for j in range(i + 1, len(segments)):
            sj = segments[j]
            shared3 = {si[2], si[3]} & {sj[2], sj[3]}
            hit = ref_seg_intersection(si[0], si[1], sj[0], sj[1])
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
                return None
            if p in seen_points:
                return None
            seen_points.add(p)
            zi, zj = ref_z_at(si, p), ref_z_at(sj, p)
            if zi == zj:
                return None
            over, under = (i, j) if zi > zj else (j, i)
            crossings.append((over, under, p))
    return segments, crossings


BOX = 3


@st.composite
def lattice_traces(draw):
    """1-3 polylines of 2-7 axis-parallel steps in a small box, each step
    turning; they may touch, overlap or cross themselves and each other."""
    traces = {}
    for k in range(draw(st.integers(1, 3))):
        p = draw(st.tuples(*[st.integers(0, BOX)] * 3))
        line = [p]
        axis = None
        for _ in range(draw(st.integers(2, 7))):
            axis = draw(st.sampled_from([a for a in range(3) if a != axis]))
            to = draw(st.integers(0, BOX).filter(lambda v, c=p[axis]: v != c))
            p = p[:axis] + (to,) + p[axis + 1:]
            line.append(p)
        traces[f"c{k}/e0"] = line
    return traces


def assert_matches_reference(traces):
    """``project_generic`` against the rational reference at n = N, 2N and
    4N, where N = 2 << max|c|.bit_length() is its shear: if the sticks touch, the reference is not
    generic at any n; otherwise it finds the same (over, under) pairs at
    every n, at N the same points, and the diagram is returned."""
    emb = LatticeEmbedding((), {}, traces)
    top = max(abs(c) for line in traces.values() for p in line for c in p)
    n = 2 << top.bit_length()
    try:
        dia = project_generic(emb)
    except NotACycle as exc:
        assert "not self-avoiding" in str(exc)
        assert all(ref_try_project(traces, k * n) is None for k in (1, 2, 4))
        return None
    # the shear is N, crossings or not: each segment's image is
    # (N²x + Nz, N²y + z) of its ends
    assert n > 2 * top
    nsq = n * n
    assert all(
        (s.a, s.b) == tuple((nsq * x + n * z, nsq * y + z) for x, y, z in (s.a3, s.b3))
        for s in dia.segments
    )
    for k in (1, 2, 4):
        ref = ref_try_project(traces, k * n)
        assert ref is not None
        segments, crossings = ref
        assert [(s.a3, s.b3) for s in dia.segments] == [(a3, b3) for _, _, a3, b3 in segments]
        assert [(c.over_seg, c.under_seg) for c in dia.crossings] == [
            (over, under) for over, under, _ in crossings
        ]
        if k == 1:
            assert [c.at for c in dia.crossings] == [(nsq * x, nsq * y) for *_, (x, y) in crossings]
    return dia


@settings(max_examples=400, deadline=None)
@given(
    traces=lattice_traces(),
    shift=st.tuples(*[st.sampled_from([0, 0, -1, -BOX, -2 * BOX])] * 3),
)
def test_integer_projection_matches_rational_reference(traces, shift):
    """Random traces, touching or not, also shifted into negative
    coordinates."""
    assert_matches_reference({
        eid: [tuple(c + d for c, d in zip(p, shift)) for p in line]
        for eid, line in traces.items()
    })


FIXTURES = {**DEMOS, "chain": CHAIN, "split-pair": SPLIT_PAIR, "loop-trefoil": LOOP_TREFOIL}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_projections_match_all_pairs(name):
    """Every fixture, whole and per component, against the all-pairs
    rational reference."""
    emb, _, _ = build_full(spec_from_document(FIXTURES[name]))
    comps = {eid.rpartition("/")[0] for eid in emb.traces}
    for sel in [comps, *({c} for c in sorted(comps))]:
        traces = {eid: line for eid, line in emb.traces.items() if eid.rpartition("/")[0] in sel}
        dia = assert_matches_reference(traces)
        assert dia is not None and dia == project_generic(emb, sel)


def test_huge_coordinates_match_rational_reference():
    """A trefoil scaled by 10^20 (as deep cut-tree stems are) projects to
    the reference's diagram, with the same determinant."""
    traces = {
        eid: [tuple(c * 10**20 for c in p) for p in line]
        for eid, line in built("trefoil").traces.items()
    }
    dia = assert_matches_reference(traces)
    assert knot_determinant(extract_knot_cycle(dia, "t")) == 3
