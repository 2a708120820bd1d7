import copy
import pickle
import random
from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from latticestick import assembly, build, validate
from latticestick.assembly import build_full
from latticestick.errors import ReconstructionMismatch
from latticestick.fixtures import CHAIN, DEMOS, LOOP_TREFOIL, SPLIT_PAIR
from latticestick.geom import Stick, contact, stick
from latticestick.graph import ComponentSpec, SpatialGraphSpec, census
from latticestick.arcs import presentation
from latticestick.io import spec_from_document
from latticestick.validate import (
    audit_junctions,
    check_self_avoiding,
    count_sticks,
    endpoint_census,
    file_sticks,
    full_audit,
    reconstruct_graph,
    touching_pairs,
    walk_edges,
)
import oracles
from oracles import OTHER_AXES, buckets as oracle_buckets, contact as oracle_contact, listed_stick
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

    def test_joined_sticks_collinear_exactly_when_axes_agree(self):
        """Two sticks sharing an end lie on one line exactly when their axes
        agree, so ``count_sticks`` compares axes where ``collinear``
        compared line keys."""
        for s, t in (
            (xs(0, 0, 0, 1), xs(0, 0, 1, 4)),
            (xs(0, 0, 0, 1), ys(1, 0, 0, 2)),
            (zs(0, 0, 0, 1), zs(0, 0, 1, 2)),
            (xs(0, 0, 0, 1), zs(1, 0, 0, 3)),
            (ys(0, 0, 1, 2), zs(0, 2, 0, 1)),
        ):
            assert (s.axis == t.axis) == oracles.collinear(s, t)


class TestSelfAvoiding:
    def test_rectangle_clean(self):
        assert check_self_avoiding(RECT) == []
        assert oracles.check_self_avoiding(RECT, {"v": (0, 0, 0)}, endpoint_census(RECT)) == []

    def test_overlap_reported(self):
        sticks = [xs(0, 0, 0, 2), xs(0, 0, 1, 3)]
        assert [v[0] for v in check_self_avoiding(sticks)] == ["overlap"]

    def test_crossing_reported(self):
        sticks = [xs(0, 1, 0, 2), zs(1, 0, 0, 2)]
        assert [v[0] for v in check_self_avoiding(sticks)] == ["cross"]

    def test_order_independent(self):
        sticks = [xs(0, 0, 0, 2), xs(0, 0, 1, 3), zs(5, 5, 0, 1)]
        a = check_self_avoiding(sticks)
        b = check_self_avoiding(list(reversed(sticks)))
        assert a and {(k, p) for k, p in a} == {(k, p) for k, p in b}

    def test_unmarked_three_way_corner(self):
        sticks = [xs(0, 0, 0, 1), ys(1, 0, 0, 1), zs(1, 0, 0, 1)]
        # all three share (1,0,0); without a marker that is junction abuse,
        # which the junction check reports and the contact check passes
        ends = endpoint_census(sticks)
        assert check_self_avoiding(sticks) == []
        report = full_audit(sticks, {}, LOOP_SPEC, {})
        assert report.self_avoiding and not report.clean
        assert report.unmarked_junctions == [(1, 0, 0)]
        assert audit_junctions({"v": (1, 0, 0)}, {"v": 3}, ends) == ([], [])
        # the census-mode oracle reported it once per pair
        assert oracles.check_self_avoiding(sticks, ends=ends) == [
            ("endpoint_junction_unmarked", (1, 0, 0))
        ] * 3
        assert oracles.check_self_avoiding(sticks, {"v": (1, 0, 0)}, ends) == []


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


def _faultable_pairs(sticks, changed=None):
    """The reference pair contract: every pair ``i < j`` whose ``contact`` is
    neither ``None`` nor ``("endpoint", p)``; with ``changed``, every such
    pair that holds a changed stick."""
    return [
        (i, j)
        for i in range(len(sticks))
        for j in range(i + 1, len(sticks))
        if (changed is None or i in changed or j in changed)
        and (c := contact(sticks[i], sticks[j])) is not None
        and c[0] != "endpoint"
    ]


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
    """The check finds every contact but shared ends that all pairs give;
    the census-mode oracle finds what all pairs give with the census."""
    sticks, markers, interior_only = case
    assert check_self_avoiding(sticks) == _all_pairs_self_avoiding(sticks, interior_only=True)
    ends = None if interior_only else endpoint_census(sticks)
    assert oracles.check_self_avoiding(sticks, markers, ends) == _all_pairs_self_avoiding(
        sticks, markers, interior_only
    )


@settings(max_examples=400, deadline=None)
@given(case=stick_sets())
def test_pairs_match_all_pairs_contacts(case):
    """The pair lists themselves, not only their violations: the sweep's
    are the pairs whose sticks meet other than at one shared end point, as
    the oracle sweep gives every meeting pair; and each stick's filed axis
    and record are the ones ``Stick.axis`` gives."""
    sticks, _, _ = case
    meeting = [
        (i, j)
        for i in range(len(sticks))
        for j in range(i + 1, len(sticks))
        if contact(sticks[i], sticks[j]) is not None
    ]
    faultable = [(i, j) for i, j in meeting if contact(sticks[i], sticks[j])[0] != "endpoint"]
    assert touching_pairs(sticks) == faultable
    keys = [oracle_buckets(s) for s in sticks]
    axes, ends, records, faults = file_sticks(sticks)
    assert axes == [k[0] for k in keys]
    assert ends == endpoint_census(sticks)
    assert faults == []
    assert records == tuple(
        [
            (*(s.a[k] for k in OTHER_AXES[axis]), s.a[axis], s.b[axis], i)
            for i, s in enumerate(sticks)
            if keys[i][0] == axis
        ]
        for axis in range(3)
    )
    assert oracles._sweep(sticks, *oracles.file_sticks(sticks)[2:]) == meeting


# Contacts that drawn sets can miss, each with the pairs the sweep names:
# collinear sticks end to start and three sticks at one corner meet only at
# shared ends; two sticks leaving one end in one direction overlap; an end
# inside another stick is a T-contact, wherever the other is filed.
SWEEP_CASES = [
    ([xs(0, 0, 0, 2), xs(0, 0, 2, 5), xs(0, 0, 5, 6)], []),
    ([xs(0, 0, 0, 2), xs(0, 0, 0, 3), ys(0, 0, 0, 2)], [(0, 1)]),
    ([xs(0, 0, 2, 4), xs(0, 0, 0, 2), xs(0, 0, 2, 3)], [(0, 2)]),
    ([xs(0, 0, 0, 3), xs(0, 0, 1, 2), xs(0, 0, 3, 5)], [(0, 1)]),
    ([xs(1, 0, 0, 4), ys(2, 0, 1, 3)], [(0, 1)]),
    ([ys(2, 0, 0, 3), xs(1, 0, 2, 5)], [(0, 1)]),
    ([stick((1, 1, 0), (1, 1, 4)), xs(1, 2, 1, 3)], [(0, 1)]),
    ([xs(1, 2, 0, 3), stick((1, 1, 2), (1, 1, 4))], [(0, 1)]),
    ([xs(0, 0, 0, 2), ys(2, 0, 0, 3), stick((2, 0, 0), (2, 0, 1))], []),
    ([xs(0, 0, 0, 2), xs(0, 0, 2, 4), ys(2, 0, 0, 3), stick((2, 0, 0), (2, 0, 1))], []),
    ([xs(0, 0, 0, 4), ys(2, 0, 0, 3), stick((2, 0, 0), (2, 0, 1))], [(0, 1), (0, 2)]),
]


@pytest.mark.parametrize("sticks,named", SWEEP_CASES)
def test_sweep_names_contacts_beyond_a_shared_end(sticks, named):
    """The sweep settles shared ends and names each other contact, as the
    oracle's all-pairs sweep and ``contact`` do."""
    assert touching_pairs(sticks) == named
    all_meeting = oracles._sweep(sticks, *oracles.file_sticks(sticks)[2:])
    assert named == [p for p in all_meeting if contact(*(sticks[k] for k in p))[0] != "endpoint"]
    assert check_self_avoiding(sticks) == [contact(sticks[i], sticks[j]) for i, j in named]


# sticks that break the stick contract, each with the kind the audit names
BROKEN = [
    (Stick((0, 0, 0), (1, 1, 0)), "not_axis_parallel"),
    (Stick((2, 0, 3), (0, 1, 4)), "not_axis_parallel"),
    (Stick((1, 2, 3), (1, 2, 3)), "zero_length"),
    (Stick((3, 0, 0), (1, 0, 0)), "ends_out_of_order"),
    (Stick((0, 3, 1), (0, 0, 1)), "ends_out_of_order"),
    (Stick((2, 2, 3), (2, 2, 0)), "ends_out_of_order"),
]


@settings(max_examples=300, deadline=None)
@given(case=stick_sets(), data=st.data())
def test_contract_faults_filed_apart(case, data):
    """A stick that breaks the contract is named, at its ``a`` end and in
    stick order, and goes into no sweep record: the pairs are all pairs'
    ones among the other sticks that meet other than at one shared end
    point, and the audit's violations start with the faults."""
    sticks, markers, _ = case
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(sticks)))
        sticks.insert(at, data.draw(st.sampled_from(BROKEN))[0])
    kinds = dict(BROKEN)
    axes, ends, records, faults = file_sticks(sticks)
    assert faults == [(kinds[s], s.a) for s in sticks if s in kinds]
    assert ends == endpoint_census(sticks)
    filed = sorted(i for run in records for *_, i in run)
    good = [i for i, s in enumerate(sticks) if s not in kinds]
    assert filed == good
    contacts = {(i, j): contact(sticks[i], sticks[j]) for i in good for j in good if i < j}
    assert touching_pairs(sticks) == [
        pair for pair, c in contacts.items() if c is not None and c[0] != "endpoint"
    ]
    spec = SpatialGraphSpec((ComponentSpec("u", presentation([(1, 2), (1, 2)], {1: "v"})),))
    report = full_audit(sticks, markers, spec, {"v": 2})
    assert report.violations[: len(faults)] == faults and not report.clean


def test_diagonal_trefoil_fails_audit():
    """The built trefoil with its z-stick (1,0,0)-(1,0,3) and x-stick
    (1,0,3)-(2,0,3) replaced by one diagonal stick still walks to the
    input graph, but the audit names the diagonal."""
    spec = spec_from_document(DEMOS["trefoil"])
    emb, _, _ = build_full(spec)
    corner = [Stick((1, 0, 0), (1, 0, 3)), Stick((1, 0, 3), (2, 0, 3))]
    assert all(s in emb.sticks for s in corner)
    sticks = [s for s in emb.sticks if s not in corner] + [Stick((1, 0, 0), (2, 0, 3))]
    report = full_audit(sticks, emb.markers, spec, census(spec).degrees)
    assert report.reconstruction_ok and not report.unmarked_junctions
    assert report.violations == [("not_axis_parallel", (1, 0, 0))]
    assert not report.clean


def test_zero_length_stick_named():
    """A zero-length stick at a bend of a clean embedding is named, beside
    the reconstruction difference it makes."""
    spec = spec_from_document(DEMOS["trefoil"])
    emb, _, _ = build_full(spec)
    bend = emb.sticks[1].b
    assert bend not in emb.markers.values()
    sticks = [*emb.sticks, Stick(bend, bend)]
    report = full_audit(sticks, emb.markers, spec, census(spec).degrees)
    assert report.violations == [("zero_length", bend)]
    assert not report.reconstruction_ok and not report.clean


@settings(max_examples=400, deadline=None)
@given(case=stick_sets(), data=st.data())
def test_scan_matches_oracle(case, data):
    """The census-taking box scan oracle gives the bucketed oracle's pairs
    of a trial's changed sticks, with the oracle census at their end
    points."""
    sticks, _, _ = case
    changed = data.draw(st.sets(st.integers(0, len(sticks) - 1)))
    pairs = oracles.touching_pairs(sticks, changed)
    assert oracles.scan_changed(sticks, changed) == (
        pairs,
        oracles.endpoint_census_at(sticks, changed),
    )


@settings(max_examples=300, deadline=None)
@given(case=stick_sets())
def test_count_matches_collinear_oracle(case):
    """Runs counted by comparing axes at each two-stick end are the runs
    the ``collinear`` oracle counts."""
    sticks, markers, _ = case
    axes, ends, _, _ = file_sticks(sticks)
    assert count_sticks(axes, markers, ends) == oracles.count_sticks(
        sticks, markers, endpoint_census(sticks)
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


comps = st.sampled_from(["", "c", "k/1", 'q"\\é'])


@settings(max_examples=300, deadline=None)
@given(a=lattice_points, b=lattice_points, c=comps, d=lattice_points, e=lattice_points, f=comps)
@example(a=(0, 0, 0), b=(1, 0, 0), c="", d=(0, 0, 0), e=(1, 0, 0), f="")
@example(a=(0, 0, 0), b=(1, 0, 0), c="c", d=(0, 0, 0), e=(1, 0, 0), f="")
def test_stick_compares_as_the_dataclass(a, b, c, d, e, f):
    """Equality, hash and repr of sticks are the frozen dataclass's; a
    stick equals no other type's object, the dataclass's included."""
    s, t = Stick(a, b, c), Stick(d, e, f)
    ds, dt = oracles.DataclassStick(a, b, c), oracles.DataclassStick(d, e, f)
    assert (s == t) == (ds == dt) and (s != t) == (ds != dt)
    assert hash(s) == hash(ds) and repr(s) == repr(ds)
    assert s != ds and s != (a, b, c) and s == Stick(a, b, c)


def test_stick_is_immutable():
    s = Stick((0, 0, 0), (1, 0, 0), "c")
    for name in ("a", "b", "comp", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, (2, 0, 0))
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert (s.a, s.b, s.comp) == ((0, 0, 0), (1, 0, 0), "c")
    assert not hasattr(s, "__dict__")


def test_stick_copies_and_pickles():
    """Copies and pickles rebuild a stick through its constructor, so an
    ``Assembly`` holding sticks deep-copies."""
    s = Stick((0, 0, 0), (0, 0, 2**70), "k/1")
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and type(twin) is Stick and repr(twin) == repr(s)
    assert copy.deepcopy([s, s])[0] == s


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
    contacts among the pairs holding one, on the scan oracle's pairs; as
    the base was clean, it finds some exactly when the full oracle does.
    The census-mode oracle check does the same with shared ends judged."""
    sticks, markers, interior_only, changed = case
    pairs = oracles.scan_changed(sticks, changed)[0]
    restricted = check_self_avoiding(sticks, pairs)
    assert restricted == _all_pairs_self_avoiding(sticks, interior_only=True, changed=changed)
    full = _all_pairs_self_avoiding(sticks, interior_only=True)
    assert (restricted == []) == (full == [])
    ends = None if interior_only else endpoint_census(sticks)
    judged = oracles.check_self_avoiding(sticks, markers, ends, pairs)
    assert judged == _all_pairs_self_avoiding(sticks, markers, interior_only, changed)
    full = _all_pairs_self_avoiding(sticks, markers, interior_only)
    assert (judged == []) == (full == [])


@settings(max_examples=200, deadline=None)
@given(case=trials())
def test_restricted_check_needs_no_census(case):
    """The oracle judged shared ends only where a changed stick ends, so
    the census at those ends gave the verdicts of the full census.  The
    check gives those verdicts less their unmarked-junction entries, each
    a point the junction check reports."""
    sticks, markers, _, changed = case
    pairs, ends = oracles.scan_changed(sticks, changed)
    full_ends = endpoint_census(sticks)
    judged = oracles.check_self_avoiding(sticks, markers, full_ends, pairs)
    assert oracles.check_self_avoiding(sticks, markers, ends, pairs) == judged
    assert check_self_avoiding(sticks, pairs) == [
        v for v in judged if v[0] != "endpoint_junction_unmarked"
    ]
    unmarked, _ = audit_junctions(markers, {}, full_ends)
    assert {p for kind, p in judged if kind == "endpoint_junction_unmarked"} <= set(unmarked)


def test_pipeline_checks_match_oracle(monkeypatch):
    """Every self-avoidance decision of a build agrees with the full oracle,
    merge trial checks on the pairs of their changed sticks included, and
    every check is given exactly the pairs, in order, of the sticks it
    compares that meet other than at one shared end point; only the audit
    checks every pair."""
    original = validate.check_self_avoiding
    index_pairs = assembly.StickIndex.touching_pairs
    found = {}  # what the last trial's pairs were found for
    calls = []

    def merge_pairs(index):
        found["index"] = index
        return index_pairs(index)

    def compared(sticks, pairs=None):
        result = original(sticks, pairs)
        changed = None  # the audit's check, on every pair that meets
        if "index" in found:
            # a merge trial, read through its state-order view: its new
            # sticks are those no slot of the state holds
            index = found.pop("index")
            assert sticks is index.trial
            position = {k: i for i, k in enumerate(index.trial)}
            staged = enumerate(index.trial.items())
            changed = {i for i, (k, s) in staged if index.sticks.get(k) is not s}
            sticks = list(index.trial.values())
            pairs = [(position[i], position[j]) for i, j in pairs]
        faultable = _faultable_pairs(sticks, changed)
        assert (touching_pairs(sticks) if pairs is None else pairs) == faultable
        assert result == _all_pairs_self_avoiding(sticks, interior_only=True, changed=changed)
        full = _all_pairs_self_avoiding(sticks, interior_only=True)
        assert (result == []) == (full == [])
        calls.append(changed is None)
        return result

    for module in (validate, build, assembly):
        monkeypatch.setattr(module, "check_self_avoiding", compared)
    monkeypatch.setattr(assembly.StickIndex, "touching_pairs", merge_pairs)
    docs = [*DEMOS.values(), CHAIN, SPLIT_PAIR, LOOP_TREFOIL, chain(8)]
    for doc in docs:
        build_full(spec_from_document(doc))
    assert len(calls) > 9
    assert sum(calls) == len(docs)


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
        unmarked, problems = audit_junctions({"v": (0, 0, 1)}, {"v": 3}, endpoint_census(sticks))
        assert unmarked == [] and problems == []

    def test_unmarked_junction_flagged(self):
        sticks = [zs(0, 0, 0, 1), zs(0, 0, 1, 2), xs(0, 1, 0, 3)]
        unmarked, _ = audit_junctions({}, {}, endpoint_census(sticks))
        assert unmarked == [(0, 0, 1)]

    def test_shared_marker_keeps_unmarked_junctions(self):
        """Two markers on one point are a marker problem, and an unmarked
        three-way point elsewhere is still listed; the oracle, which returned
        at the shared point, listed none."""
        sticks = [xs(0, 0, 0, 1), ys(0, 0, 0, 1), zs(0, 0, 0, 1)]
        ends = endpoint_census(sticks)
        markers = {"m0": (1, 0, 0), "m1": (1, 0, 0)}
        shared = ["two vertex markers share one point"]
        assert audit_junctions(markers, {"m0": 1, "m1": 1}, ends) == ([(0, 0, 0)], shared)
        assert oracles.audit_junctions(sticks, markers, {"m0": 1, "m1": 1}, ends) == ([], shared)
        assert audit_junctions({"m0": (1, 0, 0)}, {"m0": 1}, ends) == ([(0, 0, 0)], [])

    def test_incidence_mismatch(self):
        _, problems = audit_junctions({"v": (0, 0, 0)}, {"v": 3}, endpoint_census(RECT))
        assert any("incidence 2 != degree 3" in p for p in problems)

    def test_repeated_direction_detected(self):
        sticks = [xs(0, 0, 0, 1), xs(0, 0, 1, 2)]
        _, problems = audit_junctions({"v": (1, 0, 0)}, {"v": 2}, endpoint_census(sticks))
        assert problems == []  # +x and -x are distinct directions
        sticks = [xs(0, 0, 0, 1), ys(1, 0, 0, 2), zs(1, 0, 0, 1)]
        _, problems = audit_junctions({"v": (1, 0, 0)}, {"v": 3}, endpoint_census(sticks))
        assert problems == []
        # two sticks leaving v along +x overlap: the contact check reports
        # them, and the junction check, whose oracle reported them again,
        # does not
        sticks = [xs(0, 0, 0, 1), xs(0, 0, 1, 2), xs(0, 0, 1, 3)]
        markers, ends = {"v": (1, 0, 0)}, endpoint_census(sticks)
        assert check_self_avoiding(sticks) == [("overlap", (1, 0, 0))]
        assert audit_junctions(markers, {"v": 3}, ends) == ([], [])
        assert oracles.audit_junctions(sticks, markers, {"v": 3}, ends) == (
            [],
            ["marker v has repeated incident directions"],
        )


def _count(sticks, markers):
    axes, ends, _, _ = file_sticks(sticks)
    return count_sticks(axes, markers, ends)


class TestCounting:
    def test_rectangle(self):
        assert _count(RECT, {"v": (0, 0, 0)}).total == 4

    def test_marker_splits_straight_column(self):
        sticks = [zs(0, 0, 1, 2), zs(0, 0, 2, 3)]
        assert _count(sticks, {}).total == 1
        assert _count(sticks, {"v": (0, 0, 2)}).total == 2

    def test_axis_breakdown(self):
        c = _count(RECT, {})
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
    """The audit files the final sticks once and hands that filing to all
    four checks, which file nothing themselves."""
    spec = spec_from_document(DEMOS[name])
    emb, counts, _ = build_full(spec)
    calls = []

    def counted(original):
        def filing(sticks):
            calls.append((original.__name__, len(sticks)))
            return original(sticks)

        return filing

    for original in (file_sticks, endpoint_census, touching_pairs):
        monkeypatch.setattr(validate, original.__name__, counted(original))
    report = validate.full_audit(list(emb.sticks), emb.markers, spec, census(spec).degrees)
    assert report.clean and report.counts == counts
    assert calls == [("file_sticks", len(emb.sticks))]


REPEATED = " has repeated incident directions"


def assert_audit_matches_oracle(sticks, markers, spec, degrees):
    """The audit against the oracle audit, whose judges reported an unmarked
    junction once per pair as a violation too and two sticks leaving a
    marker in one direction as a marker problem too: equal but for those
    entries, each of which keeps its counterpart, and equally clean.  Where
    two markers share a point, the oracle's junction check reports only
    that; the audit reports it too and still lists the unmarked junctions,
    which must then contain the oracle's (an empty list)."""
    got = full_audit(sticks, markers, spec, degrees)
    ref = oracles.full_audit(sticks, markers, spec, degrees)
    if len(set(markers.values())) != len(markers):
        assert set(ref.unmarked_junctions) <= set(got.unmarked_junctions)
    else:
        assert got.unmarked_junctions == ref.unmarked_junctions
    assert got.violations == [v for v in ref.violations if v[0] != "endpoint_junction_unmarked"]
    assert got.marker_problems == [m for m in ref.marker_problems if not m.endswith(REPEATED)]
    assert (got.counts, got.reconstruction_ok, got.reconstruction_diff) == (
        ref.counts,
        ref.reconstruction_ok,
        ref.reconstruction_diff,
    )
    assert got.clean == ref.clean
    for kind, p in ref.violations:
        if kind == "endpoint_junction_unmarked":
            assert p in got.unmarked_junctions
    ends = endpoint_census(sticks)
    for problem in ref.marker_problems:
        if problem.endswith(REPEATED):
            p = markers[problem.split()[1]]
            leaving = defaultdict(list)
            for i in ends[p]:
                leaving[sticks[i].direction_from(p)].append(i)
            i, j = next(group for group in leaving.values() if len(group) > 1)[:2]
            overlap = contact(sticks[i], sticks[j])
            assert overlap[0] == "overlap" and overlap in got.violations
    return got, ref


@st.composite
def leaving(draw, p):
    """A stick of length 1 to 3 with one end at ``p``."""
    axis = draw(st.integers(0, 2))
    step = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return stick(p, tuple(c + step * (k == axis) for k, c in enumerate(p)))


@st.composite
def audit_cases(draw):
    """Sticks, markers and degrees, drawing often the faults that two judges
    once reported: points where three or more stick ends meet, marked or
    not, duplicated sticks, and sticks leaving a marker along one already
    there."""
    sticks = draw(st.lists(grid_sticks(), min_size=1, max_size=10))
    ends = sorted({p for s in sticks for p in s.ends()})
    for _ in range(draw(st.integers(0, 3))):
        sticks.append(draw(leaving(draw(st.sampled_from(ends)))))
    for _ in range(draw(st.integers(0, 2))):
        sticks.append(draw(st.sampled_from(sticks)))
    ends = sorted({p for s in sticks for p in s.ends()})
    # not unique: two markers on one point is a marker problem too
    points = draw(st.lists(st.sampled_from(ends), max_size=3))
    markers = {f"m{k}": p for k, p in enumerate(points)}
    for p in points:
        if draw(st.booleans()):
            along = draw(st.sampled_from([s for s in sticks if s.has_end(p)])).direction_from(p)
            length = draw(st.integers(1, 3))
            sticks.append(stick(p, tuple(c + length * d for c, d in zip(p, along))))
    sticks = draw(st.permutations(sticks))
    census_ = endpoint_census(sticks)
    degrees = {
        label: draw(st.sampled_from([len(census_.get(p, [])), *range(1, 7)]))
        for label, p in markers.items()
    }
    return sticks, markers, degrees


LOOP_SPEC = SpatialGraphSpec((ComponentSpec("u", presentation([(1, 2), (1, 2)], {1: "v"})),))


@settings(max_examples=400, deadline=None)
@given(case=audit_cases())
@example(case=([xs(0, 0, 0, 1), ys(1, 0, 0, 1), zs(1, 0, 0, 1)], {}, {}))
@example(case=([xs(0, 0, 0, 1), xs(0, 0, 1, 2), xs(0, 0, 1, 3)], {"v": (1, 0, 0)}, {"v": 3}))
@example(case=(RECT + RECT[:1], {"v": (0, 0, 0)}, {"v": 3}))
@example(case=(RECT, {"v": (0, 0, 0)}, {"v": 2}))
def test_audit_matches_oracle_audit(case):
    """On drawn sticks, markers and degrees the audit equals the oracle
    audit less the entries it reported twice, and is clean exactly when the
    oracle is; also when the reconstruction, read from the same sticks by
    the same walk, is taken as passed."""
    sticks, markers, degrees = case
    got, ref = assert_audit_matches_oracle(sticks, markers, LOOP_SPEC, degrees)
    got.reconstruction_ok = ref.reconstruction_ok = True
    assert got.clean == ref.clean


FAULTS = {
    "none": lambda emb, degrees: (list(emb.sticks), emb.markers),
    "duplicate": lambda emb, degrees: ([*emb.sticks, emb.sticks[0]], emb.markers),
    # the marker of a vertex of the highest degree dropped: an unmarked junction
    "unmarked": lambda emb, degrees: (
        list(emb.sticks),
        {k: p for k, p in emb.markers.items() if k != max(degrees, key=degrees.get)},
    ),
    # a unit stick leaving a marker along one of its sticks
    "repeated": lambda emb, degrees: (
        [*emb.sticks, _along_first(emb.sticks, min(emb.markers.values()))],
        emb.markers,
    ),
}


def _along_first(sticks, p):
    d = next(s for s in sticks if s.has_end(p)).direction_from(p)
    return stick(p, tuple(c + e for c, e in zip(p, d)))


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize(
    "doc",
    [*DEMOS.values(), CHAIN, SPLIT_PAIR, LOOP_TREFOIL],
    ids=[*DEMOS, "chain", "split", "loop-trefoil"],
)
def test_fixture_audits_match_oracle_audit(doc, fault):
    """On every fixture's embedding, as built and with a fault of each kind
    the two judges once shared, the audit matches the oracle audit and is
    clean exactly when it is."""
    spec = spec_from_document(doc)
    degrees = census(spec).degrees
    emb, _, _ = build_full(spec)
    sticks, markers = FAULTS[fault](emb, degrees)
    got, _ = assert_audit_matches_oracle(sticks, markers, spec, degrees)
    assert got.clean == (fault == "none")
