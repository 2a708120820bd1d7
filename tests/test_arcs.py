import pytest
from hypothesis import given, settings, strategies as st

from latticestick.arcs import Arc, ArcPresentation, incident_levels, presentation, validate_presentation
from latticestick.errors import UnknownBindingPoint, UnlabeledEndpoint
from latticestick.graph import ComponentSpec, derive_edges
from oracles import binding_point_count

U2 = presentation([(1, 2), (1, 2)], {1: "v"})
TH3 = presentation([(1, 2), (1, 2), (1, 2)], {1: "v1", 2: "v2"})


def test_presentation_counts():
    assert U2.alpha == 2 and U2.beta == 2
    assert TH3.alpha == 3 and TH3.beta == 2


def test_arc_rejects_degenerate():
    with pytest.raises(ValueError):
        Arc(1, 2, 2)


def edge_count(pres):
    return len(derive_edges(ComponentSpec("c", pres)))


def test_validate_clean():
    for pres, e in ((U2, 1), (TH3, 3)):
        assert validate_presentation(pres) == []
        assert edge_count(pres) == e
        assert binding_point_count(pres.alpha, len(pres.labels), e) == pres.beta


def test_validate_binding_law_six_arcs():
    # alpha=4, v=2, e=3 force three binding points
    pres = presentation(
        [(1, 2), (1, 3), (1, 2), (2, 3)], {1: "v1", 2: "v2"}
    )
    assert validate_presentation(pres) == []
    assert edge_count(pres) == 3
    assert binding_point_count(pres.alpha, len(pres.labels), 3) == pres.beta == 3


@st.composite
def random_presentations(draw):
    n = draw(st.integers(2, 7))
    arc_ends = st.integers(1, n - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, n))
    )
    pairs = draw(st.lists(arc_ends, min_size=1, max_size=9))
    labeled = draw(st.sets(st.integers(1, n)))
    return presentation(pairs, {bp: f"v{bp}" for bp in labeled})


@settings(max_examples=300)
@given(random_presentations())
def test_presentation_laws_follow_from_validation(pres):
    """A presentation that validates and whose edges can be walked obeys the
    binding-point law and the endpoint identity without checking them."""
    if validate_presentation(pres):
        return
    try:
        e = edge_count(pres)
    except UnlabeledEndpoint:
        return
    v = len(pres.labels)
    assert binding_point_count(pres.alpha, v, e) == pres.beta
    vertex_degrees = sum(pres.degree(bp) for bp in pres.labels)
    assert 2 * pres.alpha == 2 * (pres.beta - v) + vertex_degrees


def test_validate_duplicate_page():
    bad = ArcPresentation((Arc(1, 1, 2), Arc(1, 1, 2)), {1: "v"})
    problems = validate_presentation(bad)
    assert any("bijection" in p for p in problems)


def test_validate_unlabeled_degree():
    bad = presentation([(1, 2), (1, 2), (1, 2)], {1: "v"})  # bp2 unlabeled, degree 3
    problems = validate_presentation(bad)
    assert any("degree 3" in p for p in problems)


def test_incident_levels():
    assert incident_levels(TH3, 1) == [1, 2, 3]
    assert incident_levels(U2, 2) == [1, 2]
    with pytest.raises(UnknownBindingPoint):
        incident_levels(U2, 3)


def test_incidence_sums_to_twice_arcs():
    for pres in (U2, TH3):
        total = sum(pres.degree(bp) for bp in range(1, pres.beta + 1))
        assert total == 2 * pres.alpha


def test_extreme_binding_points_are_one_sided():
    for pres in (U2, TH3):
        assert all(a.lo == 1 for a in pres.arcs_at(1))
        assert all(a.hi == pres.beta for a in pres.arcs_at(pres.beta))


@st.composite
def any_presentations(draw):
    """Presentations that need not validate: pages may repeat or skip, and
    endpoints may fall below 1."""
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(-2, 6), st.integers(1, 4)).map(
                lambda t: Arc(t[0], t[1], t[1] + t[2])
            ),
            max_size=8,
        )
    )
    return ArcPresentation(tuple(arcs))


@settings(max_examples=300)
@given(any_presentations())
def test_incidence_matches_brute_force_scans(pres):
    """The incidence table answers as a scan of every arc would."""
    beta = max((a.hi for a in pres.arcs), default=0)
    assert pres.beta == beta
    for bp in range(-3, beta + 3):
        scan = sorted((a for a in pres.arcs if bp in (a.lo, a.hi)), key=lambda a: a.page)
        assert list(pres.arcs_at(bp)) == scan
        assert pres.degree(bp) == len(scan)
        if 1 <= bp <= beta:
            assert incident_levels(pres, bp) == sorted(a.page for a in scan)
        else:
            with pytest.raises(UnknownBindingPoint):
                incident_levels(pres, bp)
