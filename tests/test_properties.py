"""Randomized structural properties of the whole pipeline.

Random single-cycle presentations are always buildable (their vertices have
degree two, so no merging is involved) and every output must pass the full
audit and the count law; that is the bound's implemented content exercised
far beyond the fixed fixtures.
"""

from hypothesis import given, settings, strategies as st

from latticestick.arcs import Arc, ArcPresentation
from latticestick.assembly import build_full
from latticestick.bounds import construction_count
from latticestick.graph import ComponentSpec, SpatialGraphSpec, census, validate_spec
from latticestick.invariants import extract_knot_cycle, knot_determinant, project_generic
from latticestick.io import embedding_from_document, embedding_to_document
from latticestick.validate import full_audit


def assert_reloads_to_built(emb, counts, bounds):
    loaded, loaded_counts = embedding_from_document(embedding_to_document(emb, counts, bounds))
    assert loaded.sticks == emb.sticks
    assert loaded_counts == counts


@st.composite
def knot_specs(draw, comp_id="k", max_arcs=7):
    n = draw(st.integers(2, max_arcs))
    cycle = draw(st.permutations(list(range(1, n + 1))))
    pages = draw(st.permutations(list(range(1, n + 1))))
    pairs = [
        tuple(sorted((cycle[i], cycle[(i + 1) % n]))) for i in range(n)
    ]
    arcs = tuple(Arc(p, lo, hi) for p, (lo, hi) in zip(pages, pairs))
    pres = ArcPresentation(arcs, {draw(st.integers(1, n)): f"{comp_id}_v"})
    return SpatialGraphSpec((ComponentSpec(comp_id, pres),))


@settings(max_examples=60, deadline=None)
@given(spec=knot_specs())
def test_random_knots_build_clean(spec):
    assert validate_spec(spec) == []
    emb, counts, bounds = build_full(spec)
    cens = census(spec)
    report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
    assert report.clean
    assert_reloads_to_built(emb, counts, bounds)
    limit = construction_count(cens.alpha_total, cens.e, cens.v, cens.s, cens.k)
    assert report.counts.total <= limit


@settings(max_examples=25, deadline=None)
@given(spec=knot_specs(max_arcs=6))
def test_random_knot_determinant_is_odd(spec):
    # every knot has odd determinant; an even value means broken
    # crossing extraction rather than an exotic input
    emb, _, _ = build_full(spec)
    gauss = extract_knot_cycle(project_generic(emb, {"k"}), "k")
    assert knot_determinant(gauss) % 2 == 1


@settings(max_examples=20, deadline=None)
@given(a=knot_specs(comp_id="a", max_arcs=5), b=knot_specs(comp_id="b", max_arcs=5))
def test_random_split_forests_stack(a, b):
    spec = SpatialGraphSpec(a.components + b.components)
    assert validate_spec(spec) == []
    emb, counts, bounds = build_full(spec)
    cens = census(spec)
    assert cens.s == 2 and cens.k == 2
    report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
    assert report.clean
    assert_reloads_to_built(emb, counts, bounds)
