from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import latticestick.graph as graph

from latticestick.arcs import presentation
from latticestick.errors import InvalidSpec, NoValidRoot, UnlabeledEndpoint
from latticestick.fixtures import CHAIN, DEMOS, SPLIT_PAIR
from latticestick.graph import (
    ComponentClass,
    ComponentSpec,
    CutAttachment,
    GraphCensus,
    SpatialGraphSpec,
    build_cut_tree,
    census,
    derive_edges,
    validate_spec,
)
from latticestick.io import spec_from_document


def spec_of(doc):
    return spec_from_document(doc)


def lone(pres_pairs, labels, comp_id="c"):
    return SpatialGraphSpec((ComponentSpec(comp_id, presentation(pres_pairs, labels)),))


U2 = lone([(1, 2), (1, 2)], {1: "v"}, "u")
TH3 = lone([(1, 2)] * 3, {1: "v1", 2: "v2"}, "th")
LOOP = [(1, 2), (1, 2)]

# Rejected inputs, one or more per stage at which validation stops.
REJECTED = {
    "duplicate-ids": SpatialGraphSpec((U2.components[0], U2.components[0])),
    "no-components": SpatialGraphSpec(()),
    "unlabeled-high-degree": lone([(1, 2), (1, 2), (1, 2)], {1: "v"}),
    "unknown-attachment": SpatialGraphSpec(
        TH3.components, (CutAttachment("th", "nope", "v1"),)
    ),
    "attachment-cycle": SpatialGraphSpec(
        (
            ComponentSpec("a", presentation([(1, 2)] * 3, {1: "v1", 2: "v2"})),
            ComponentSpec("b", presentation([(1, 2)] * 3, {1: "v1", 2: "v2"})),
        ),
        (CutAttachment("a", "b", "v1"), CutAttachment("b", "a", "v2")),
    ),
    "siblings-sharing-cut-vertex": SpatialGraphSpec(
        (
            ComponentSpec("b0", presentation(LOOP + [(1, 3), (1, 3)], {1: "v"})),
            ComponentSpec("b1", presentation(LOOP, {1: "v"})),
            ComponentSpec("b2", presentation(LOOP, {1: "v"})),
        ),
        (CutAttachment("b0", "b1", "v"), CutAttachment("b0", "b2", "v")),
    ),
    "shared-label-without-attachment": SpatialGraphSpec(
        (
            ComponentSpec("a", presentation([(1, 2)] * 3, {1: "v1", 2: "v2"})),
            ComponentSpec("b", presentation([(1, 2)] * 3, {1: "v1", 2: "v3"})),
        )
    ),
    # seven loop-ends at one vertex
    "degree-out-of-range": lone(
        [(1, 2), (1, 2), (1, 3), (1, 3), (1, 4), (1, 4), (1, 5), (1, 5)],
        {1: "v", 5: "w"},
    ),
    "attached-degree-2": SpatialGraphSpec(
        (
            ComponentSpec("a", presentation([(1, 2)], {1: "x", 2: "y"})),
            ComponentSpec("b", presentation([(1, 2)], {1: "y", 2: "z"})),
        ),
        (CutAttachment("a", "b", "y"),),
    ),
    "no-vertex-label": lone(LOOP, {}),
    "disconnected": lone(LOOP + [(3, 4), (3, 4)], {1: "v", 3: "w"}),
    "self-attachment": SpatialGraphSpec(U2.components, (CutAttachment("u", "u", "v"),)),
    "two-stems": SpatialGraphSpec(
        (
            ComponentSpec("a", presentation([(1, 2)] * 3, {1: "v1", 2: "v2"})),
            ComponentSpec("b", presentation([(1, 2)] * 3, {1: "v3", 2: "v4"})),
            ComponentSpec("c", presentation([(1, 2)], {1: "v1", 2: "v3"})),
        ),
        (CutAttachment("a", "c", "v1"), CutAttachment("b", "c", "v3")),
    ),
    "cut-vertex-unlabeled": SpatialGraphSpec(
        TH3.components + U2.components, (CutAttachment("th", "u", "v1"),)
    ),
    "three-holders-one-attachment": SpatialGraphSpec(
        tuple(ComponentSpec(c, presentation(LOOP, {1: "v"})) for c in "abc"),
        (CutAttachment("a", "b", "v"),),
    ),
}

# the one problem each census stage below the structural checks reports
REJECTED_PROBLEMS = {
    "no-vertex-label": "component c has no vertex-labeled binding point",
    "disconnected": "component c is not connected",
    "self-attachment": "attachment of u to itself",
    "two-stems": "component c has more than one stem",
    "cut-vertex-unlabeled": "cut vertex v1 not labeled in component u",
    "three-holders-one-attachment": (
        "vertex v appears in components ['a', 'b', 'c'] without attachments joining them there"
    ),
}


def linkage_oracle(spec):
    """The problems of the linkage stage found the long way: cut vertices
    shared by siblings, grouped by stem, then a search per shared label over
    the attachments there.  Meaningful once the attachments form a forest."""
    label_points = {}
    for comp in spec.components:
        for label in comp.presentation.labels.values():
            label_points.setdefault(label, []).append(comp.id)
    problems = []
    by_stem = {}
    for att in spec.attachments:
        by_stem.setdefault(att.stem, []).append(att)
    for stem_id, atts in by_stem.items():
        for label, n in Counter(a.cut_vertex for a in atts).items():
            if n > 1:
                problems.append(f"branches of {stem_id} share cut vertex {label}")
    att_pairs = {(a.stem, a.branch, a.cut_vertex) for a in spec.attachments}
    for label, comps in label_points.items():
        if len(comps) == 1:
            continue
        linked = {cid: set() for cid in comps}
        for s, b, cv in att_pairs:
            if cv == label and s in linked and b in linked:
                linked[s].add(b)
                linked[b].add(s)
        seen = set()
        frontier = [comps[0]]
        while frontier:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            frontier.extend(linked[cur])
        if seen != set(comps):
            problems.append(
                f"vertex {label} appears in components {sorted(comps)} "
                "without attachments joining them there"
            )
    return problems


# the attachment checks that run before the linkage stage
EARLIER_ATTACHMENT_PROBLEMS = ("attachment", "component ", "cut vertex")


@st.composite
def attached_components(draw):
    """Two to five loops, single-arc links and thetas on the labels u, v, w,
    with up to five attachments, each at one of its branch's labels."""
    comps = []
    for i in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["loop", "link", "theta"]))
        if kind == "loop":
            pres = presentation(LOOP, {1: draw(st.sampled_from("uvw"))})
        else:
            x, y = draw(st.permutations("uvw"))[:2]
            pres = presentation([(1, 2)] * (1 if kind == "link" else 3), {1: x, 2: y})
        comps.append(ComponentSpec(f"c{i}", pres))
    atts = []
    for _ in range(draw(st.integers(0, 5))):
        stem, branch = draw(st.sampled_from(comps)), draw(st.sampled_from(comps))
        label = draw(st.sampled_from(sorted(branch.presentation.labels.values())))
        atts.append(CutAttachment(stem.id, branch.id, label))
    return SpatialGraphSpec(tuple(comps), tuple(atts))


class TestDeriveEdges:
    def test_knot_loop(self):
        edges = derive_edges(U2.components[0])
        assert len(edges) == 1
        assert edges[0].is_loop and edges[0].pages in ((1, 2), (2, 1))

    def test_theta_three_edges(self):
        edges = derive_edges(TH3.components[0])
        assert len(edges) == 3
        assert all(not e.is_loop and len(e.pages) == 1 for e in edges)

    def test_unlabeled_high_degree_rejected(self):
        comp = lone([(1, 2), (1, 2), (1, 2)], {1: "v"}).components[0]
        with pytest.raises(UnlabeledEndpoint):
            derive_edges(comp)


class TestClassify:
    def test_knot(self):
        assert census(U2).classes["u"] is ComponentClass.KNOT

    def test_theta(self):
        assert census(TH3).classes["th"] is ComponentClass.THETA

    def test_arc(self):
        assert census(spec_of(CHAIN)).classes["mid"] is ComponentClass.ARC

    def test_attached_loop_is_bouquet_not_knot(self):
        cens = census(spec_of(DEMOS["theta-composite"]))
        assert cens.classes["loop"] is ComponentClass.BOUQUET

    def test_bouquet(self):
        spec = spec_of(DEMOS["bouquet3"])
        assert census(spec).classes[spec.components[0].id] is ComponentClass.BOUQUET


class TestValidateSpec:
    def test_demos_valid(self):
        for name, doc in DEMOS.items():
            assert validate_spec(spec_of(doc)) == [], name
        assert validate_spec(spec_of(CHAIN)) == []
        assert validate_spec(spec_of(SPLIT_PAIR)) == []

    def test_degree_out_of_range(self):
        problems = validate_spec(REJECTED["degree-out-of-range"])
        assert any("degree 8 out of range" in p for p in problems)

    def test_lone_degree2_knot_vertex_ok(self):
        assert validate_spec(U2) == []

    def test_attached_degree2_rejected(self):
        problems = validate_spec(REJECTED["attached-degree-2"])
        assert any("out of range" in p for p in problems)

    def test_siblings_sharing_cut_vertex(self):
        problems = validate_spec(REJECTED["siblings-sharing-cut-vertex"])
        assert any("share cut vertex" in p for p in problems)

    def test_shared_label_needs_attachment(self):
        problems = validate_spec(REJECTED["shared-label-without-attachment"])
        assert any("without attachments" in p for p in problems)

    def test_attachment_cycle_rejected(self):
        assert validate_spec(REJECTED["attachment-cycle"]) == ["attachments contain a cycle"]

    def test_sibling_problems_follow_each_stems_first_attachment(self):
        # s2's shared cut vertex y is attached before s1's z, but s1's first
        # attachment comes earlier, so s1's problem is reported first
        def loop(comp_id, label):
            return ComponentSpec(comp_id, presentation(LOOP, {1: label}))

        spec = SpatialGraphSpec(
            (
                ComponentSpec("s1", presentation([(1, 2)] * 3, {1: "x", 2: "z"})),
                ComponentSpec("s2", presentation([(1, 2)] * 3, {1: "y", 2: "w"})),
                loop("b1", "x"),
                loop("b2", "y"),
                loop("b3", "z"),
                loop("b4", "y"),
                loop("b5", "z"),
            ),
            (
                CutAttachment("s1", "b1", "x"),
                CutAttachment("s2", "b2", "y"),
                CutAttachment("s1", "b3", "z"),
                CutAttachment("s2", "b4", "y"),
                CutAttachment("s1", "b5", "z"),
            ),
        )
        expected = ["branches of s1 share cut vertex z", "branches of s2 share cut vertex y"]
        assert linkage_oracle(spec) == expected
        assert validate_spec(spec) == expected


@settings(max_examples=600, deadline=None)
@given(spec=attached_components())
def test_linkage_by_count_matches_search(spec):
    problems = validate_spec(spec)
    if any(p.startswith(EARLIER_ATTACHMENT_PROBLEMS) for p in problems):
        return  # stopped before the linkage stage
    linkage = [p for p in problems if p.startswith("branches of") or "without attachments" in p]
    assert linkage == linkage_oracle(spec)


class TestCutTree:
    def test_composite_root(self):
        spec = spec_of(DEMOS["theta-composite"])
        tree = build_cut_tree(spec, census(spec))
        assert tree.roots == ("th",)
        assert tree.parent["loop"] == ("th", "v2")

    def test_chain_depth_first(self):
        spec = spec_of(CHAIN)
        tree = build_cut_tree(spec, census(spec))
        assert tree.order == ("th1", "mid", "th2")
        assert tree.parent["mid"][0] == "th1"
        for branch, (stem, _) in tree.parent.items():
            assert tree.order.index(stem) < tree.order.index(branch)

    def test_forest_two_roots(self):
        spec = spec_of(SPLIT_PAIR)
        tree = build_cut_tree(spec, census(spec))
        assert len(tree.roots) == 2

    def test_arc_root_rerooted(self):
        # arc listed first; the theta must still become the root
        spec = SpatialGraphSpec(
            (
                ComponentSpec("a", presentation([(1, 2)], {1: "v2", 2: "v3"})),
                ComponentSpec("th", presentation([(1, 2)] * 3, {1: "v1", 2: "v2"})),
                ComponentSpec("b", presentation([(1, 2), (1, 2)], {1: "v3"})),
            ),
            (CutAttachment("a", "th", "v2"), CutAttachment("a", "b", "v3")),
        )
        tree = build_cut_tree(spec, census(spec))
        assert tree.roots == ("th",)
        assert tree.parent["a"] == ("th", "v2")
        assert tree.parent["b"] == ("a", "v3")

    def test_all_arcs_rejected(self):
        # validate_spec rejects a lone arc (degree-1 ends), so its census
        # is written out by hand to reach the cut tree's own check
        spec = SpatialGraphSpec(
            (ComponentSpec("a", presentation([(1, 2)], {1: "x", 2: "y"})),)
        )
        cens = GraphCensus(
            e=1,
            v=2,
            s=1,
            b=0,
            k=0,
            alpha_total=1,
            degrees={"x": 1, "y": 1},
            points={"x": {"a": 1}, "y": {"a": 2}},
            edges={"a": tuple(derive_edges(spec.components[0]))},
            classes={"a": ComponentClass.ARC},
        )
        with pytest.raises(NoValidRoot):
            build_cut_tree(spec, cens)


class TestCensus:
    def test_lone_knot(self):
        c = census(U2)
        assert (c.e, c.v, c.s, c.b, c.k) == (1, 1, 1, 1, 1)

    def test_theta(self):
        c = census(TH3)
        assert (c.e, c.v, c.s, c.b, c.k) == (3, 2, 1, 0, 0)

    def test_composite(self):
        c = census(spec_of(DEMOS["theta-composite"]))
        assert (c.e, c.v, c.s, c.b, c.k) == (4, 2, 2, 1, 0)
        assert c.alpha_total == 6
        assert c.degrees["v2"] == 5

    def test_degree_sum_is_twice_edges(self):
        for doc in list(DEMOS.values()) + [CHAIN, SPLIT_PAIR]:
            c = census(spec_of(doc))
            assert sum(c.degrees.values()) == 2 * c.e

    def test_forest_attachment_count(self):
        for doc in list(DEMOS.values()) + [CHAIN, SPLIT_PAIR]:
            spec = spec_of(doc)
            tree = build_cut_tree(spec, census(spec))
            assert len(spec.attachments) == census(spec).s - len(tree.roots)

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_invalid_spec_raises_with_problems(self, name):
        bad = REJECTED[name]
        with pytest.raises(InvalidSpec) as info:
            census(bad)
        assert info.value.problems == validate_spec(bad) != []

    @pytest.mark.parametrize("name", sorted(REJECTED_PROBLEMS))
    def test_census_rejection_names_its_problem(self, name):
        assert validate_spec(REJECTED[name]) == [REJECTED_PROBLEMS[name]]

    def test_one_walk_and_one_classification_per_component(self, monkeypatch):
        calls = Counter()

        def counted(name):
            original = getattr(graph, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(graph, name, wrapper)

        for name in ("validate_presentation", "derive_edges", "classify_component", "total_degrees"):
            counted(name)
        for doc in list(DEMOS.values()) + [CHAIN, SPLIT_PAIR]:
            spec = spec_of(doc)
            calls.clear()
            census(spec)
            n = len(spec.components)
            assert calls == {
                "validate_presentation": n,
                "derive_edges": n,
                "classify_component": n,
                "total_degrees": 1,
            }

    def test_edges_and_classes_per_component(self):
        spec = spec_of(CHAIN)
        c = census(spec)
        assert list(c.edges) == list(c.classes) == [comp.id for comp in spec.components]
        for comp in spec.components:
            assert list(c.edges[comp.id]) == derive_edges(comp)
        assert c.e == sum(len(es) for es in c.edges.values())

    def test_knot_counts_within_bouquets(self):
        for doc in list(DEMOS.values()) + [CHAIN, SPLIT_PAIR]:
            c = census(spec_of(doc))
            assert c.k <= c.b <= c.s
