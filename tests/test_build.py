from dataclasses import dataclass, field, replace

from hypothesis import given, settings, strategies as st

from latticestick import build
from latticestick.arcs import Arc, ArcPresentation, presentation, validate_presentation
from latticestick.build import build_arc_diagram, build_component, side_slide
from latticestick.geom import stick
from latticestick.graph import ComponentClass, ComponentSpec, census
from latticestick.io import spec_from_document
from latticestick.fixtures import CHAIN, DEMOS
from latticestick.validate import check_self_avoiding
import oracles
from test_validate import _all_pairs_self_avoiding


def lone(pairs, labels, cls, comp_id="c"):
    return ComponentSpec(comp_id, presentation(pairs, labels)), cls


U2 = lone([(1, 2), (1, 2)], {1: "v"}, ComponentClass.KNOT, "u")
TH3 = lone([(1, 2)] * 3, {1: "v1", 2: "v2"}, ComponentClass.THETA, "th")
ARC13 = lone([(1, 3)], {1: "a", 3: "b"}, ComponentClass.ARC)


def classified(doc):
    """(component, class) pairs of a fixture, classes from its census."""
    spec = spec_from_document(doc)
    cens = census(spec)
    return [(comp, cens.classes[comp.id]) for comp in spec.components]


def on_axis(b, axis):
    """x-sticks (axis 0) and y-sticks (axis 1) realise arcs; axis 2 are columns."""
    return [s for s in b.sticks(1, (0, 0, 0)) if s.axis == axis]


class TestArcDiagram:
    def test_single_arc_elbow(self):
        b = build_arc_diagram(*ARC13)
        horizontals = [s for s in b.sticks(1, (0, 0, 0)) if s.axis != 2]
        assert [(s.a, s.b) for s in horizontals] == [
            ((1, 1, 1), (3, 1, 1)),
            ((3, 1, 1), (3, 3, 1)),
        ]

    def test_u2_four_arc_sticks(self):
        b = build_arc_diagram(*U2)
        assert len(on_axis(b, 0)) == 2 and len(on_axis(b, 1)) == 2
        assert {s.comp for s in on_axis(b, 0) + on_axis(b, 1)} == {"u"}
        assert {s.a[2] for s in b.sticks(1, (0, 0, 0))} <= {1, 2}

    def test_th3_spans(self):
        b = build_arc_diagram(*TH3)
        arcs = on_axis(b, 0) + on_axis(b, 1)
        assert len(arcs) == 6
        assert all(s.b[s.axis] - s.a[s.axis] == 1 for s in arcs)

    def test_page_two_arc_coordinates(self):
        b = build_arc_diagram(*lone([(1, 2), (1, 3), (2, 3)], {1: "v"}, ComponentClass.KNOT))
        x2 = [s for s in on_axis(b, 0) if s.a[2] == 2]
        y2 = [s for s in on_axis(b, 1) if s.a[2] == 2]
        assert x2[0].a == (1, 1, 2) and x2[0].b == (3, 1, 2)
        assert y2[0].a == (3, 1, 2) and y2[0].b == (3, 3, 2)

    def test_alpha_many_sticks_on_diagonal_or_corner(self):
        for doc in DEMOS.values():
            for comp, cls in classified(doc):
                b = build_arc_diagram(comp, cls)
                alpha = comp.presentation.alpha
                assert len(on_axis(b, 0)) == alpha
                assert len(on_axis(b, 1)) == alpha
                corners = {(a.hi, a.lo, a.page) for a in comp.presentation.arcs}
                for s in on_axis(b, 0) + on_axis(b, 1):
                    for p in s.ends():
                        assert p[0] == p[1] or (int(p[0]), int(p[1]), int(p[2])) in corners


class TestColumns:
    def test_u2_columns(self):
        b = build_arc_diagram(*U2)
        cols = on_axis(b, 2)
        assert len(cols) == 2
        assert {(s.a[0], s.a[1]) for s in cols} == {(1, 1), (2, 2)}
        assert {s.comp for s in cols} == {""}
        assert len(b.sticks(1, (0, 0, 0))) == 6

    def test_th3_column_segments(self):
        b = build_arc_diagram(*TH3)
        at_bp1 = [s for s in on_axis(b, 2) if (s.a[0], s.a[1]) == (1, 1)]
        assert [(s.a[2], s.b[2]) for s in at_bp1] == [(1, 2), (2, 3)]

    def test_degree_one_point_has_no_column(self):
        b = build_arc_diagram(*lone([(1, 2)], {1: "a", 2: "b"}, ComponentClass.ARC))
        assert on_axis(b, 2) == []


class TestSideSlide:
    def test_u2_rectangle(self):
        b = side_slide(build_arc_diagram(*U2))
        sticks = b.sticks(1, (0, 0, 0))
        assert len(sticks) == 4
        got = {(s.a, s.b) for s in sticks}
        assert got == {
            ((2, 1, 1), (2, 2, 1)),
            ((2, 1, 2), (2, 2, 2)),
            ((2, 1, 1), (2, 1, 2)),
            ((2, 2, 1), (2, 2, 2)),
        }
        assert any("last binding point blocked" in w for w in b.warnings)

    def test_th3_all_three_absorbed(self):
        b = side_slide(build_arc_diagram(*TH3))
        assert on_axis(b, 0) == []
        assert len(b.sticks(1, (0, 0, 0))) == 7
        assert any("blocked" in w for w in b.warnings)

    def test_trefoil_single_absorption_each_side(self):
        (trefoil,) = classified(DEMOS["trefoil"])
        before = build_arc_diagram(*trefoil)
        after = side_slide(before)
        assert len(on_axis(after, 0)) == len(on_axis(before, 0)) - 1
        assert len(on_axis(after, 1)) == len(on_axis(before, 1)) - 1
        assert after.column_axis(1) == (3, 1)
        assert after.column_axis(5) == (5, 3)

    def test_arc_component_untouched(self):
        (mid,) = [(c, cls) for c, cls in classified(CHAIN) if c.id == "mid"]
        b = side_slide(build_arc_diagram(*mid))
        assert b.column_axis(1) == (1, 1)
        assert b.column_axis(2) == (2, 2)

    def test_savings_at_least_two_on_demo_components(self):
        for name, doc in DEMOS.items():
            for comp, cls in classified(doc):
                before = build_arc_diagram(comp, cls)
                after = side_slide(before)
                if after.cls.value == "arc":
                    continue
                n_before = len([s for s in before.sticks(1, (0, 0, 0)) if s.axis != 2])
                n_after = len([s for s in after.sticks(1, (0, 0, 0)) if s.axis != 2])
                assert n_before - n_after >= 2, (name, comp.id)

    def test_build_component_self_avoiding(self):
        for doc in DEMOS.values():
            for comp, cls in classified(doc):
                sticks = build_component(comp, cls).sticks(1, (0, 0, 0))
                assert check_self_avoiding(sticks) == []


@st.composite
def presentations(draw):
    """A valid arc presentation: random arcs on distinct pages, binding
    points renumbered to the ones in use, every point of degree other than
    two labelled and some of degree two as well."""
    pairs = draw(
        st.lists(
            st.lists(st.integers(1, 7), min_size=2, max_size=2, unique=True).map(sorted),
            min_size=1,
            max_size=8,
        )
    )
    rank = {p: r for r, p in enumerate(sorted({p for pair in pairs for p in pair}), start=1)}
    pages = draw(st.permutations(range(1, len(pairs) + 1)))
    arcs = tuple(Arc(page, rank[lo], rank[hi]) for page, (lo, hi) in zip(pages, pairs))
    degree = ArcPresentation(arcs).degree
    labels = {bp: f"v{bp}" for bp in rank.values() if degree(bp) != 2 or draw(st.booleans())}
    pres = ArcPresentation(arcs, labels)
    assert validate_presentation(pres) == []
    return pres


@settings(max_examples=200, deadline=None)
@given(pres=presentations())
def test_fresh_arc_diagram_is_clean(pres):
    """The base of the first slide trial, which no build checks, is clean."""
    b = build_arc_diagram(ComponentSpec("c", pres), ComponentClass.KNOT)
    assert check_self_avoiding(b.sticks(1, (0, 0, 0))) == []


def assert_slide_verdict(b):
    """``_slide_ok`` judges ``b`` as the regenerating trial did, and the
    all-pairs check agrees: distinct axes are clean, and equal axes are
    clean only where the two columns share no z-span (a column of one
    level has none)."""
    beta = b.pres.beta
    verdict = build._slide_ok(b)
    assert all(verdict == oracles.slide_ok(b, bp) for bp in (1, beta))
    clean = _all_pairs_self_avoiding(b.sticks(1, (0, 0, 0)), interior_only=True) == []
    (lo1, hi1), (lo2, hi2) = oracles.column_zrange(b, 1), oracles.column_zrange(b, beta)
    assert clean == (verdict or min(hi1, hi2) <= max(lo1, lo2))


@settings(max_examples=300, deadline=None)
@given(pres=presentations(), data=st.data())
def test_slide_verdict_from_column_axes(pres, data):
    """Any first_x and last_y: the column axes decide self-avoidance."""
    first_x = data.draw(st.integers(1, pres.beta), label="first_x")
    last_y = data.draw(st.integers(1, pres.beta), label="last_y")
    fresh = build_arc_diagram(ComponentSpec("c", pres), ComponentClass.KNOT)
    assert_slide_verdict(replace(fresh, first_x=first_x, last_y=last_y))


def test_slide_verdict_from_column_axes_on_fixtures():
    for doc in DEMOS.values():
        for comp, cls in classified(doc):
            fresh = build_arc_diagram(comp, cls)
            beta = comp.presentation.beta
            for first_x in range(1, beta + 1):
                for last_y in range(1, beta + 1):
                    assert_slide_verdict(replace(fresh, first_x=first_x, last_y=last_y))
    (unknot,) = classified(DEMOS["unknot"])
    slid = side_slide(build_arc_diagram(*unknot))
    assert slid.warnings == ["u: side slide at last binding point blocked"]


def test_one_slide_trial_per_component(monkeypatch):
    """Only the last slide can be blocked, so ``side_slide`` judges one
    trial per sliding component and none for an arc component."""
    original = build._slide_ok
    calls = []
    monkeypatch.setattr(build, "_slide_ok", lambda b: calls.append(b) or original(b))
    for doc in (*DEMOS.values(), CHAIN):
        for comp, cls in classified(doc):
            calls.clear()
            side_slide(build_arc_diagram(comp, cls))
            assert len(calls) == (cls is not ComponentClass.ARC), comp.id


@dataclass
class OracleBuild:
    """The dict-based component state that ``ComponentBuild`` replaced: the
    x and y of every column, and each column's levels from a scan of every
    arc.  Kept as a test oracle with its slide logic."""

    comp_id: str
    pres: ArcPresentation
    col_x: dict[int, int]
    col_y: dict[int, int]
    warnings: list[str] = field(default_factory=list)

    @property
    def beta(self):
        return max((max(a.lo, a.hi) for a in self.pres.arcs), default=0)

    def column_axis(self, bp):
        return (self.col_x[bp], self.col_y[bp])

    def levels(self, bp):
        return sorted(a.page for a in self.pres.arcs if bp in (a.lo, a.hi))

    def sticks(self):
        out = []
        cid = self.comp_id
        for a in self.pres.arcs:
            x_start = self.col_x[a.lo]
            y_end = self.col_y[a.hi]
            if x_start < a.hi:
                out.append(stick((x_start, a.lo, a.page), (a.hi, a.lo, a.page), cid))
            if y_end > a.lo:
                out.append(stick((a.hi, a.lo, a.page), (a.hi, y_end, a.page), cid))
        for bp in range(1, self.beta + 1):
            levels = self.levels(bp)
            x, y = self.column_axis(bp)
            for z1, z2 in zip(levels, levels[1:]):
                out.append(stick((x, y, z1), (x, y, z2)))
        return out


def oracle_state(pres, first_x=1, last_y=None, comp_id="c"):
    beta = max(a.hi for a in pres.arcs)
    col_x = {i: i for i in range(1, beta + 1)}
    col_y = dict(col_x)
    col_x[1] = first_x
    col_y[beta] = beta if last_y is None else last_y
    return OracleBuild(comp_id, pres, col_x, col_y)


def oracle_slide_ok(b, moved_bp):
    axes = [b.column_axis(bp) for bp in range(1, b.beta + 1)]
    if len(set(axes)) != len(axes):
        return False
    axis = b.column_axis(moved_bp)
    sticks = b.sticks()
    changed = {i for i, s in enumerate(sticks) if any(p[:2] == axis for p in s.ends())}
    return not check_self_avoiding(sticks, pairs=oracles.scan_changed(sticks, changed)[0])


def oracle_side_slide(b):
    beta = b.beta
    slides = (
        ("first", "col_x", 1, min(a.hi for a in b.pres.arcs if 1 in (a.lo, a.hi))),
        ("last", "col_y", beta, max(a.lo for a in b.pres.arcs if beta in (a.lo, a.hi))),
    )
    for where, cols, bp, target in slides:
        trial = replace(b, col_x=dict(b.col_x), col_y=dict(b.col_y))
        getattr(trial, cols)[bp] = target
        if oracle_slide_ok(trial, bp):
            b = trial
        else:
            b.warnings.append(f"{b.comp_id}: side slide at {where} binding point blocked")
    return b


def assert_same_state(b, oracle):
    beta = b.pres.beta
    assert beta == oracle.beta
    assert [b.column_axis(bp) for bp in range(1, beta + 1)] == [
        oracle.column_axis(bp) for bp in range(1, beta + 1)
    ]
    assert b.sticks(1, (0, 0, 0)) == oracle.sticks()


@settings(max_examples=200, deadline=None)
@given(pres=presentations(), data=st.data())
def test_sticks_match_dict_oracle(pres, data):
    """Fresh, slid and arbitrarily moved states regenerate the sticks the
    dict-based state did, and judge a slide the same way."""
    fresh = build_arc_diagram(ComponentSpec("c", pres), ComponentClass.KNOT)
    assert_same_state(fresh, oracle_state(pres))
    slid = side_slide(build_arc_diagram(ComponentSpec("c", pres), ComponentClass.KNOT))
    oracle = oracle_side_slide(oracle_state(pres))
    assert_same_state(slid, oracle)
    assert slid.warnings == oracle.warnings
    beta = pres.beta
    first_x = data.draw(st.integers(1, beta), label="first_x")
    last_y = data.draw(st.integers(1, beta), label="last_y")
    moved = replace(fresh, first_x=first_x, last_y=last_y)
    oracle = oracle_state(pres, first_x, last_y)
    assert_same_state(moved, oracle)
    for bp in (1, beta):
        assert build._slide_ok(moved) == oracle_slide_ok(oracle, bp)


def test_sticks_match_dict_oracle_on_fixtures():
    for doc in DEMOS.values():
        for comp, cls in classified(doc):
            fresh = build_arc_diagram(comp, cls)
            assert_same_state(fresh, oracle_state(comp.presentation, comp_id=comp.id))
            if cls is ComponentClass.ARC:
                continue
            slid = side_slide(fresh)
            oracle = oracle_side_slide(oracle_state(comp.presentation, comp_id=comp.id))
            assert_same_state(slid, oracle)
            assert slid.warnings == oracle.warnings
