import copy
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from latticestick import assembly, build, validate
from latticestick.assembly import build_full
from latticestick.errors import ReconstructionMismatch
from latticestick.fixtures import CHAIN, DEMOS, LOOP_TREFOIL, SPLIT_PAIR
from latticestick.geom import collinear, contact, stick
from latticestick.graph import ComponentSpec, SpatialGraphSpec, census
from latticestick.arcs import presentation
from latticestick.io import spec_from_document
from latticestick.validate import (
    audit_junctions,
    check_self_avoiding,
    count_sticks,
    endpoint_census,
    StickIndex,
    endpoint_census_at,
    reconstruct_graph,
    walk_edges,
)
from oracles import attachments as oracle_attachments, contact as oracle_contact, listed_stick
from test_golden import chain


def xs(y, z, x1, x2, **kw):
    return stick((x1, y, z), (x2, y, z), **kw)


def ys(x, z, y1, y2, **kw):
    return stick((x, y1, z), (x, y2, z), **kw)


def zs(x, y, z1, z2, **kw):
    return stick((x, y, z1), (x, y, z2), **kw)


# the four-stick rectangle: two vertical columns joined by two y-sticks
RECT = [ys(0, 0, 0, 1), ys(0, 1, 0, 1), zs(0, 0, 0, 1), zs(0, 1, 0, 1)]


class TestContact:
    def test_collinear_overlap(self):
        a = xs(0, 0, 0, 2)
        b = xs(0, 0, 1, 3)
        assert contact(a, b)[0] == "overlap"

    def test_interior_crossing(self):
        a = xs(0, 1, 0, 2)  # {y=0, z=1}
        assert contact(a, zs(1, 5, 0, 2)) is None  # different y: disjoint
        assert contact(a, zs(1, 0, 0, 2)) == ("cross", (1, 0, 1))

    def test_t_contact(self):
        a = xs(0, 0, 0, 2)
        b = zs(1, 0, 0, 1)
        assert contact(a, b) == ("t_contact", (1, 0, 0))

    def test_shared_endpoint(self):
        a = xs(0, 0, 0, 1)
        b = ys(1, 0, 0, 1)
        assert contact(a, b) == ("endpoint", (1, 0, 0))

    def test_disjoint(self):
        assert contact(xs(0, 0, 0, 1), xs(5, 5, 0, 1)) is None

    def test_collinear_helper(self):
        assert collinear(xs(0, 0, 0, 1), xs(0, 0, 3, 4))
        assert not collinear(xs(0, 0, 0, 1), xs(1, 0, 3, 4))
        assert not collinear(xs(0, 0, 0, 1), ys(0, 0, 1, 2))


class TestSelfAvoiding:
    def test_rectangle_clean(self):
        assert check_self_avoiding(RECT, {"v": (0, 0, 0)}, endpoint_census(RECT)) == []

    def test_overlap_reported(self):
        sticks = [xs(0, 0, 0, 2), xs(0, 0, 1, 3)]
        violations = check_self_avoiding(sticks, ends=endpoint_census(sticks))
        assert [v[0] for v in violations] == ["overlap"]

    def test_crossing_reported(self):
        sticks = [xs(0, 1, 0, 2), zs(1, 0, 0, 2)]
        violations = check_self_avoiding(sticks, ends=endpoint_census(sticks))
        assert [v[0] for v in violations] == ["cross"]

    def test_order_independent(self):
        sticks = [xs(0, 0, 0, 2), xs(0, 0, 1, 3), zs(5, 5, 0, 1)]
        a = check_self_avoiding(sticks, ends=endpoint_census(sticks))
        rev = list(reversed(sticks))
        b = check_self_avoiding(rev, ends=endpoint_census(rev))
        assert {(k, p) for k, p in a} == {(k, p) for k, p in b}

    def test_unmarked_three_way_corner(self):
        sticks = [xs(0, 0, 0, 1), ys(1, 0, 0, 1), zs(1, 0, 0, 1)]
        # all three share (1,0,0); without a marker that is junction abuse
        ends = endpoint_census(sticks)
        assert check_self_avoiding(sticks, ends=ends)
        assert check_self_avoiding(sticks, {"v": (1, 0, 0)}, ends) == []
        # without a census, as mid-pipeline, shared ends are not judged
        assert check_self_avoiding(sticks) == []


def _all_pairs_self_avoiding(sticks, markers=None, interior_only=False, changed=None):
    """The reference checker: every pair ``i < j`` through ``contact``; with
    ``changed``, every such pair that holds a changed stick.  It takes its
    own endpoint census; ``interior_only`` leaves shared ends unjudged."""
    marker_points = set((markers or {}).values())
    ends = endpoint_census(sticks)
    violations = []
    for i in range(len(sticks)):
        for j in range(i + 1, len(sticks)):
            if changed is not None and i not in changed and j not in changed:
                continue
            c = contact(sticks[i], sticks[j])
            if c is None:
                continue
            kind, p = c
            if kind == "endpoint":
                if interior_only or p in marker_points or len(ends[p]) == 2:
                    continue
                violations.append(("endpoint_junction_unmarked", p))
            else:
                violations.append((kind, p))
    return violations


# A small uneven grid makes overlaps, T-contacts, crossings and shared ends
# common among a handful of sticks.
GRID = [0, 1, 2, 3, 4, 6]


@st.composite
def grid_sticks(draw, through=None):
    """A stick on ``GRID``; with ``through``, one passing through that point."""
    axis = draw(st.integers(0, 2))
    if through is None:
        fixed = [draw(st.sampled_from(GRID)) for _ in range(2)]
        lo, hi = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
    else:
        fixed = [c for k, c in enumerate(through) if k != axis]
        t = through[axis]
        lo, hi = draw(st.sampled_from([(a, b) for a in GRID for b in GRID if a <= t <= b and a < b]))
    a, b = list(fixed), list(fixed)
    a.insert(axis, lo)
    b.insert(axis, hi)
    return stick(tuple(a), tuple(b))


@st.composite
def stick_sets(draw):
    sticks = draw(st.lists(grid_sticks(), min_size=1, max_size=14))
    ends = sorted({p for s in sticks for p in s.ends()})
    points = draw(st.lists(st.sampled_from(ends), max_size=2, unique=True))
    markers = {f"m{k}": p for k, p in enumerate(points)}
    return sticks, markers, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(case=stick_sets())
def test_matches_all_pairs_oracle(case):
    sticks, markers, interior_only = case
    ends = None if interior_only else endpoint_census(sticks)
    assert check_self_avoiding(sticks, markers, ends) == _all_pairs_self_avoiding(
        sticks, markers, interior_only
    )


def _new_stick(draw, sticks):
    """A random stick, or one through a grid point of a drawn stick."""
    if draw(st.booleans()):
        return draw(grid_sticks())
    s = draw(st.sampled_from(sticks))
    t = draw(st.sampled_from([g for g in GRID if s.a[s.axis] <= g <= s.b[s.axis]]))
    return draw(grid_sticks(through=tuple(t if k == s.axis else s.a[k] for k in range(3))))


@st.composite
def stick_pairs(draw):
    """A lattice stick and another, often through one of its grid points."""
    s = draw(grid_sticks())
    return s, _new_stick(draw, [s])


@settings(max_examples=500, deadline=None)
@given(pair=stick_pairs())
@example(pair=(xs(0, 0, 0, 1), ys(1, 0, 0, 1)))  # shared end
@example(pair=(xs(0, 0, 0, 2), xs(0, 0, 1, 3)))  # overlap
@example(pair=(xs(0, 0, 0, 2), zs(1, 0, 0, 1)))  # T-contact
@example(pair=(xs(0, 1, 0, 2), zs(1, 0, 0, 2)))  # crossing
@example(pair=(xs(0, 0, 0, 1), xs(5, 5, 0, 1)))  # disjoint
def test_contact_matches_reference(pair):
    """Lattice sticks are classified as the tuple-comprehension reference
    classifies them, either way round."""
    s, t = pair
    assert contact(s, t) == oracle_contact(s, t)
    assert contact(t, s) == oracle_contact(t, s)


def _built(make, a, b):
    try:
        return make(a, b, "c")
    except ValueError as err:
        return str(err)


lattice_points = st.tuples(*[st.integers(-2, 2)] * 3)


@settings(max_examples=500, deadline=None)
@given(a=lattice_points, b=lattice_points)
@example(a=(0, 0, 0), b=(0, 0, 0))  # zero length
@example(a=(0, 0, 3), b=(0, 0, 1))  # reversed
@example(a=(0, 1, 0), b=(1, 0, 0))  # diagonal
def test_stick_matches_reference(a, b):
    """``stick`` accepts, orders and rejects point pairs as the list-based
    reference does, with the same message."""
    assert _built(stick, a, b) == _built(listed_stick, a, b)


@st.composite
def trials(draw):
    """A clean base, then a trial that removes, moves or adds sticks, with
    the moved and added ones often drawn through a point of a base stick.
    Returns the trial sticks, markers, ``interior_only`` and the indices of
    the moved and added sticks."""
    interior_only = draw(st.booleans())
    raw = draw(st.lists(grid_sticks(), min_size=1, max_size=12))
    ends = sorted({p for s in raw for p in s.ends()})
    points = draw(st.lists(st.sampled_from(ends), max_size=2, unique=True))
    markers = {f"m{k}": p for k, p in enumerate(points)}
    base = []
    for s in raw:
        if not _all_pairs_self_avoiding(base + [s], markers, interior_only):
            base.append(s)
    trial, changed = [], set()
    for s in base:
        action = draw(st.sampled_from(["keep", "keep", "remove", "move"]))
        if action == "move":
            changed.add(len(trial))
            trial.append(_new_stick(draw, base))
        elif action == "keep":
            trial.append(s)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(trial)))
        trial.insert(at, _new_stick(draw, base))
        changed = {i + (i >= at) for i in changed} | {at}
    return trial, markers, interior_only, changed


@settings(max_examples=400, deadline=None)
@given(case=trials())
def test_restricted_check_matches_oracle(case):
    """Restricted to the changed sticks, the check returns the oracle's
    contacts among the pairs holding one; as the base was clean, it finds
    some exactly when the full oracle does."""
    sticks, markers, interior_only, changed = case
    ends = None if interior_only else endpoint_census(sticks)
    restricted = check_self_avoiding(sticks, markers, ends, changed)
    assert restricted == _all_pairs_self_avoiding(sticks, markers, interior_only, changed)
    full = _all_pairs_self_avoiding(sticks, markers, interior_only)
    assert (restricted == []) == (full == [])


@settings(max_examples=200, deadline=None)
@given(case=trials())
def test_restricted_check_reads_the_census_at_changed_ends(case):
    """A restricted check judges shared ends only where a changed stick
    ends, so the census there gives the verdicts of the full census."""
    sticks, markers, _, changed = case
    assert check_self_avoiding(
        sticks, markers, endpoint_census_at(sticks, changed), changed
    ) == check_self_avoiding(sticks, markers, endpoint_census(sticks), changed)


def test_pipeline_checks_match_oracle(monkeypatch):
    """Every self-avoidance decision of a build agrees with the full oracle,
    restricted trial checks included; only the audit checks every pair."""
    original = validate.check_self_avoiding
    calls = []

    def compared(sticks, markers=None, ends=None, changed=None, index=None):
        interior_only = ends is None
        if changed is None:
            assert interior_only or ends == endpoint_census(sticks)
        else:
            assert interior_only or ends == endpoint_census_at(sticks, changed)
        result = original(sticks, markers, ends, changed, index)
        assert result == _all_pairs_self_avoiding(sticks, markers, interior_only, changed)
        full = _all_pairs_self_avoiding(sticks, markers, interior_only)
        assert (result == []) == (full == [])
        calls.append(changed is None)
        return result

    for module in (validate, build, assembly):
        monkeypatch.setattr(module, "check_self_avoiding", compared)
    docs = [*DEMOS.values(), CHAIN, SPLIT_PAIR, LOOP_TREFOIL, chain(8)]
    for doc in docs:
        build_full(spec_from_document(doc))
    assert len(calls) > 9
    assert sum(calls) == len(docs)


def _canonical(index):
    """The index with each slot read as its position in the state: equal
    for two indexes of one state however their slots were numbered."""
    live = [k for k, s in enumerate(index.sticks) if s is not None]
    assert [index.slot(i) for i in range(len(live))] == live
    assert [index.position(k) for k in live] == list(range(len(live)))

    def positions(slots):
        assert all(index.sticks[k] is not None for k in slots)
        return sorted(index.position(k) for k in slots)

    return (
        index.state(),
        {key: positions(slots) for key, slots in index.lines.items() if slots},
        {
            (key, axis): positions(slots)
            for key, by_axis in index.planes.items()
            for axis, slots in enumerate(by_axis)
            if slots
        },
        {p: positions(slots) for p, slots in index.ends.items() if slots},
        {axis: positions(slots) for axis, slots in index.columns.items() if slots},
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_index_check_matches_bucketed_and_all_pairs(data):
    """Over random edits that replace, remove and append sticks, the check
    through the index finds what the bucketed check and the all-pairs
    oracle find.  A committed edit leaves the index equal to a fresh index
    of the trial; an edit never committed leaves it as it was."""
    index = StickIndex(data.draw(st.lists(grid_sticks(), min_size=1, max_size=12)))
    for _ in range(data.draw(st.integers(1, 4))):
        live = [k for k, s in enumerate(index.sticks) if s is not None]
        picked = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        replaced, removed = {}, set()
        for k in picked:
            if data.draw(st.booleans()):
                replaced[k] = data.draw(grid_sticks())
            else:
                removed.add(k)
        appended = data.draw(st.lists(grid_sticks(), max_size=3))
        before = _canonical(index)
        trial = index.stage(replaced, removed, appended)
        changed = index.changed(trial)
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
        indexed = check_self_avoiding(trial, markers, ends, changed, index)
        assert indexed == check_self_avoiding(trial, markers, ends, changed)
        assert indexed == _all_pairs_self_avoiding(trial, markers, ends is None, set(changed))
        assert _canonical(index) == before
        if data.draw(st.booleans()):
            index.commit(trial)
            assert _canonical(index) == _canonical(StickIndex(trial))
            axes = {(p[0], p[1]) for p in points}
            for axis in axes:
                zrange = (data.draw(st.sampled_from(GRID)), data.draw(st.sampled_from(GRID)))
                assert [
                    (z, index.position(k), d) for z, k, d in index.attachments(axis, zrange)
                ] == oracle_attachments(trial, axis, zrange)


def _random_forest(rng, n_knots, n_arcs=8):
    """Split forest of random one-cycle knots, each with one vertex."""
    comps = []
    for k in range(n_knots):
        cycle = rng.sample(range(1, n_arcs + 1), n_arcs)
        pairs = [tuple(sorted((cycle[i], cycle[(i + 1) % n_arcs]))) for i in range(n_arcs)]
        arcs = [pairs[p] for p in rng.sample(range(n_arcs), n_arcs)]
        vertex = rng.randint(1, n_arcs)
        comps.append(
            {
                "id": f"k{k}",
                "binding_points": [
                    {"index": i, **({"vertex": f"v{k}"} if i == vertex else {})}
                    for i in range(1, n_arcs + 1)
                ],
                "arcs": [
                    {"page": page, "from": lo, "to": hi}
                    for page, (lo, hi) in enumerate(arcs, start=1)
                ],
            }
        )
    return {"components": comps, "attachments": []}


def _bouquets(n):
    comps = []
    for k in range(n):
        comp = copy.deepcopy(DEMOS["bouquet3"]["components"][0])
        comp["id"] = f"b{k}"
        for bp in comp["binding_points"]:
            if "vertex" in bp:
                bp["vertex"] = f"v{k}"
        comps.append(comp)
    return {"components": comps, "attachments": []}


def test_contacts_compared_grow_linearly(monkeypatch):
    """Only sticks sharing a line or a plane are compared: on a forest of
    32 knots and on 16 stacked bouquets no check classifies more than two
    pairs per stick."""
    counted = [0]

    def counting_contact(s, t):
        counted[0] += 1
        return contact(s, t)

    original = validate.check_self_avoiding
    ratios = []

    def measured(sticks, *args, **kwargs):
        counted[0] = 0
        result = original(sticks, *args, **kwargs)
        ratios.append((counted[0], len(sticks)))
        return result

    monkeypatch.setattr(validate, "contact", counting_contact)
    for module in (validate, build, assembly):
        monkeypatch.setattr(module, "check_self_avoiding", measured)
    for doc, n_sticks in ((_random_forest(random.Random(1), 32), 704), (_bouquets(16), 304)):
        ratios.clear()
        _, counts, _ = build_full(spec_from_document(doc))
        assert counts.total == n_sticks
        assert ratios and all(calls <= 2 * n for calls, n in ratios), max(
            ratios, key=lambda r: r[0] / r[1]
        )


class TestJunctions:
    def test_marked_junction_clean(self):
        sticks = [zs(0, 0, 0, 1), zs(0, 0, 1, 2), xs(0, 1, 0, 3)]
        unmarked, problems = audit_junctions(
            sticks, {"v": (0, 0, 1)}, {"v": 3}, endpoint_census(sticks)
        )
        assert unmarked == [] and problems == []

    def test_unmarked_junction_flagged(self):
        sticks = [zs(0, 0, 0, 1), zs(0, 0, 1, 2), xs(0, 1, 0, 3)]
        unmarked, _ = audit_junctions(sticks, {}, {}, endpoint_census(sticks))
        assert unmarked == [(0, 0, 1)]

    def test_incidence_mismatch(self):
        _, problems = audit_junctions(RECT, {"v": (0, 0, 0)}, {"v": 3}, endpoint_census(RECT))
        assert any("incidence 2 != degree 3" in p for p in problems)

    def test_repeated_direction_detected(self):
        sticks = [xs(0, 0, 0, 1), xs(0, 0, 1, 2)]
        _, problems = audit_junctions(sticks, {"v": (1, 0, 0)}, {"v": 2}, endpoint_census(sticks))
        assert problems == []  # +x and -x are distinct directions
        sticks = [xs(0, 0, 0, 1), ys(1, 0, 0, 2), zs(1, 0, 0, 1)]
        _, problems = audit_junctions(
            sticks, {"v": (1, 0, 0)}, {"v": 3}, endpoint_census(sticks)
        )
        assert problems == []


class TestCounting:
    def test_rectangle(self):
        assert count_sticks(RECT, {"v": (0, 0, 0)}, endpoint_census(RECT)).total == 4

    def test_marker_splits_straight_column(self):
        sticks = [zs(0, 0, 1, 2), zs(0, 0, 2, 3)]
        ends = endpoint_census(sticks)
        assert count_sticks(sticks, {}, ends).total == 1
        assert count_sticks(sticks, {"v": (0, 0, 2)}, ends).total == 2

    def test_axis_breakdown(self):
        c = count_sticks(RECT, {}, endpoint_census(RECT))
        assert (c.x, c.y, c.z) == (0, 2, 2)


class TestReconstruction:
    def spec(self):
        return SpatialGraphSpec(
            (ComponentSpec("u", presentation([(1, 2), (1, 2)], {1: "v"})),)
        )

    def test_loop_roundtrip(self):
        edges = reconstruct_graph(RECT, {"v": (0, 0, 0)}, self.spec(), endpoint_census(RECT))
        assert len(edges) == 1
        va, vb, polyline, _ = edges[0]
        assert va == vb == "v"
        assert polyline[0] == polyline[-1] == (0, 0, 0)

    def test_corruption_detected(self):
        with pytest.raises(ReconstructionMismatch):
            reconstruct_graph(
                RECT[:-1], {"v": (0, 0, 0)}, self.spec(), endpoint_census(RECT[:-1])
            )

    def test_wrong_spec_detected(self):
        wrong = SpatialGraphSpec(
            (ComponentSpec("th", presentation([(1, 2)] * 3, {1: "a", 2: "b"})),)
        )
        with pytest.raises(ReconstructionMismatch):
            reconstruct_graph(RECT, {"v": (0, 0, 0)}, wrong, endpoint_census(RECT))

    def test_walk_is_deterministic(self):
        a = walk_edges(RECT, {"v": (0, 0, 0)}, endpoint_census(RECT))
        b = walk_edges(list(RECT), {"v": (0, 0, 0)}, endpoint_census(list(RECT)))
        assert a == b


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_full_audit_takes_one_endpoint_census(monkeypatch, name):
    """The audit indexes the final sticks once and hands that index to all
    four checks, which index nothing themselves."""
    spec = spec_from_document(DEMOS[name])
    emb, counts, _ = build_full(spec)
    calls = []

    def counted(sticks):
        calls.append(len(sticks))
        return endpoint_census(sticks)

    monkeypatch.setattr(validate, "endpoint_census", counted)
    report = validate.full_audit(list(emb.sticks), emb.markers, spec, census(spec).degrees)
    assert report.clean and report.counts == counts
    assert calls == [len(emb.sticks)]
