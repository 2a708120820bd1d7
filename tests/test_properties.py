"""Randomized structural properties of the whole pipeline.

Random single-cycle presentations are always buildable (their vertices have
degree two, so no merging is involved) and every output must pass the full
audit and the count law; that is the bound's implemented content exercised
far beyond the fixed fixtures.  Random thetas of 3-4 edges, 2-loop
bouquets and K4s (degree 3-4 vertices, so merging and the degree-3 markers
are involved) must build the same way.  Wider shapes, with vertices of
degree 5-6, must build the same way or fail with a named merge error, alone
or as the branch of a small cut tree, where a degree out of range is
rejected by name.  Every stick that stacking and normalization make, on
these draws and on every golden input, keeps the stick contract.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from latticestick.arcs import Arc, ArcPresentation, presentation
from latticestick.assembly import assemble, build_full
from latticestick.build import build_component
from latticestick.bounds import construction_count
from latticestick.errors import LatticeStickError, MergeCollision, NoFreeDirection
from latticestick.geom import stick
from latticestick.graph import (
    ComponentSpec,
    CutAttachment,
    SpatialGraphSpec,
    build_cut_tree,
    census,
    validate_spec,
)
from latticestick.invariants import extract_knot_cycle, knot_determinant, project_generic
from latticestick.io import embedding_from_document, embedding_to_document, spec_from_document
from latticestick.validate import full_audit
from test_golden import INPUTS as GOLDEN_INPUTS


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


def assert_builds_clean(spec):
    """The spec is accepted and builds to an audited embedding within the
    construction bound; returns (stick count, bound)."""
    assert validate_spec(spec) == []
    emb, counts, bounds = build_full(spec)
    cens = census(spec)
    report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
    assert report.clean
    assert_reloads_to_built(emb, counts, bounds)
    limit = construction_count(cens.alpha_total, cens.e, cens.v, cens.s, cens.k)
    assert report.counts.total <= limit
    return report.counts.total, limit


@settings(max_examples=60, deadline=None)
@given(spec=knot_specs())
def test_random_knots_build_clean(spec):
    assert_builds_clean(spec)


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


@st.composite
def graph_component_specs(draw, shape):
    """One component: a theta on vertices u, w with ``shape`` = "theta3" to
    "theta6" edges, a "bouquet2" or "bouquet3" of loops at u, "k4" on u, w,
    x, y, or "theta+loop" or "k4+loop", a 3-edge theta or a K4 with one
    more loop at u.  Each theta edge runs through 0-3 interior binding
    points (1-3 for a loop, 0-2 for a K4 edge); the binding indices and the
    pages are shuffled."""
    if shape.startswith("k4"):
        edges = [(a, b, draw(st.integers(0, 2))) for a, b in combinations(range(4), 2)]
    elif shape.startswith("theta"):
        n_edges = 3 if shape == "theta+loop" else int(shape[-1])
        edges = [(0, 1, draw(st.integers(0, 3))) for _ in range(n_edges)]
    else:
        edges = []
    loops = int(shape[-1]) if shape.startswith("bouquet") else int(shape.endswith("+loop"))
    edges += [(0, 0, draw(st.integers(1, 3))) for _ in range(loops)]
    vertices = "uwxy" if shape.startswith("k4") else "uw" if shape.startswith("theta") else "u"
    n_points = len(vertices)
    pairs = []
    for start, end, interior in edges:
        path = [start, *range(n_points, n_points + interior), end]
        n_points += interior
        pairs += zip(path, path[1:])
    index = draw(st.permutations(range(1, n_points + 1)))
    pages = draw(st.permutations(range(1, len(pairs) + 1)))
    arcs = tuple(
        Arc(page, *sorted((index[a], index[b]))) for page, (a, b) in zip(pages, pairs)
    )
    labels = {index[n]: v for n, v in enumerate(vertices)}
    return SpatialGraphSpec((ComponentSpec("g", ArcPresentation(arcs, labels)),))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.sampled_from(["theta3", "theta4", "bouquet2", "k4"]))
def test_random_graph_components_build_clean(data, shape):
    assert_builds_clean(data.draw(graph_component_specs(shape)))


# vertices of degree 5 and 6
WIDER_SHAPES = ["theta5", "theta6", "bouquet3", "theta+loop", "k4+loop"]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from(WIDER_SHAPES),
)
def test_wider_graph_components_build_clean_or_fail_by_name(data, shape):
    """Degree 5-6 vertices: a certified build, or one of the two merge
    failures random draws of these shapes are known to meet.  Until a rule
    picks each attachment's moves from the presentation (ROADMAP item 1),
    this asserts only that no draw ends in an internal error; any other
    exception fails it, named or not."""
    spec = data.draw(graph_component_specs(shape))
    try:
        assert_builds_clean(spec)
    except (NoFreeDirection, MergeCollision):
        pass


# a 3-edge theta: binding points 1 and 2 carry its vertices
THETA_ARCS = [(1, 2), (1, 3), (1, 2), (2, 3)]


@st.composite
def wider_branch_trees(draw, shape):
    """A small cut tree with a ``shape`` component ``g`` of
    ``graph_component_specs`` as its branch.  The root ``t`` is a 3-edge
    theta on r and its other vertex; ``g`` hangs at one of its binding
    points, a vertex or an interior point of an edge, which then becomes the
    vertex c.  It is glued straight onto the root's other vertex, or hangs
    from it through a single-arc link ``a``, which straightening replaces.
    A cut vertex may so exceed degree 6, which ``validate_spec`` rejects."""
    pres = draw(graph_component_specs(shape)).components[0].presentation
    bp = draw(st.integers(1, pres.beta))
    cut = pres.labels.get(bp, "c")
    g = ComponentSpec("g", ArcPresentation(pres.arcs, {**pres.labels, bp: cut}))
    if draw(st.booleans()):
        root = ComponentSpec("t", presentation(THETA_ARCS, {1: "r", 2: cut}))
        return SpatialGraphSpec((root, g), (CutAttachment("t", "g", cut),))
    root = ComponentSpec("t", presentation(THETA_ARCS, {1: "r", 2: "p"}))
    link = ComponentSpec("a", presentation([(1, 2)], {1: "p", 2: cut}))
    attachments = (CutAttachment("t", "a", "p"), CutAttachment("a", "g", cut))
    return SpatialGraphSpec((root, link, g), attachments)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shape=st.sampled_from(WIDER_SHAPES))
def test_wider_shapes_as_tree_branches_end_clean_or_named(data, shape):
    """Each draw ends in a clean audit within the bound or a named
    ``LatticeStickError``: a merge failure, or ``validate_spec``'s rejection
    of a degree out of range.  Until a rule picks each attachment's moves
    from the presentation (ROADMAP item 1), this asserts only "no internal
    error": any exception that is not a ``LatticeStickError`` fails it."""
    spec = data.draw(wider_branch_trees(shape))
    try:
        emb, counts, bounds = build_full(spec)
    except LatticeStickError:
        return
    cens = census(spec)
    report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
    assert report.clean and report.counts == counts
    assert counts.total <= construction_count(cens.alpha_total, cens.e, cens.v, cens.s, cens.k)
    assert bounds.ok and bounds.total == counts.total


# A 4-edge theta whose last merge step once dropped a stick exactly its
# offset long, leaving a zero-length stick and an internal error.
THETA5 = {"components": [{
    "id": "g",
    "binding_points": [{"index": 1, "vertex": "u"}, {"index": 2, "vertex": "w"}, {"index": 3}],
    "arcs": [
        {"page": 1, "from": 1, "to": 2}, {"page": 3, "from": 1, "to": 3},
        {"page": 2, "from": 3, "to": 2}, {"page": 5, "from": 1, "to": 2},
        {"page": 4, "from": 1, "to": 2},
    ],
}]}


def test_zero_length_merge_step_moves_to_the_next_plan():
    assert assert_builds_clean(spec_from_document(THETA5)) == (15, 17)


def assert_made_sticks_keep_contract(spec):
    """Stacking and normalization make their sticks with ``Stick`` itself:
    each stick that ``assemble`` stacks and each fused stick of the built
    embedding is the one ``stick`` makes from its ends, so axis-parallel,
    of positive length and with its ends in order.  A spec that
    ``validate_spec`` rejects is skipped, and a build that fails by name
    is checked up to its stacked sticks."""
    if validate_spec(spec):
        return
    cens = census(spec)
    builds = {c.id: build_component(c, cens.classes[c.id]) for c in spec.components}
    made = list(assemble(spec, build_cut_tree(spec, cens), builds).sticks)
    try:
        made += build_full(spec)[0].sticks
    except LatticeStickError:
        pass
    for s in made:
        assert s == stick(s.a, s.b, s.comp)


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_golden_inputs_make_contract_sticks(name):
    assert_made_sticks_keep_contract(spec_from_document(GOLDEN_INPUTS[name]))


SHAPES = ["knot", "forest", "tree", "theta3", "k4", *WIDER_SHAPES]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), shape=st.sampled_from(SHAPES))
def test_drawn_specs_make_contract_sticks(data, shape):
    if shape == "knot":
        spec = data.draw(knot_specs())
    elif shape == "forest":
        a, b = data.draw(knot_specs("a", 5)), data.draw(knot_specs("b", 5))
        spec = SpatialGraphSpec(a.components + b.components)
    elif shape == "tree":
        spec = data.draw(wider_branch_trees(data.draw(st.sampled_from(WIDER_SHAPES))))
    else:
        spec = data.draw(graph_component_specs(shape))
    assert_made_sticks_keep_contract(spec)
