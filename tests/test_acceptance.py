"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Criteria over built fixtures enforce their stated wall-clock
budget of one second apiece.
"""

import itertools
import random
import time

from latticestick.assembly import apply_merges, assemble, build_full
from latticestick.bounds import construction_count
from latticestick.build import build_component
from latticestick.errors import InvalidCounts
from latticestick.fixtures import CHAIN, DEMOS, SPLIT_PAIR
from latticestick.graph import build_cut_tree, census, derive_edges
from latticestick.invariants import (
    extract_knot_cycle,
    knot_determinant,
    project_generic,
)
from latticestick.io import spec_from_document
from latticestick.validate import check_bound, full_audit
from oracles import binding_point_count, bounds_agree, p_coloring_count

ALL_FIXTURES = {**DEMOS, "chain": CHAIN, "split-pair": SPLIT_PAIR}


def timed_build(doc):
    spec = spec_from_document(doc)
    t0 = time.perf_counter()
    emb, _, _ = build_full(spec)
    elapsed = time.perf_counter() - t0
    return spec, emb, elapsed


def audited(spec, emb):
    cens = census(spec)
    report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
    return cens, report


def announce(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_unknot():
    spec, emb, elapsed = timed_build(DEMOS["unknot"])
    cens, report = audited(spec, emb)
    assert report.counts.total == 4
    assert construction_count(2, 1, 1, 1, 1) == 4
    assert report.clean
    assert elapsed < 1.0
    announce(1, f"unknot builds to exactly 4 sticks in {elapsed:.3f}s, audit clean")


def test_criterion_2_trefoil():
    spec, emb, elapsed = timed_build(DEMOS["trefoil"])
    cens, report = audited(spec, emb)
    assert 12 <= report.counts.total <= 13
    gauss = extract_knot_cycle(project_generic(emb, {"t"}), "t")
    assert knot_determinant(gauss) == 3
    assert elapsed < 1.0
    announce(
        2,
        f"trefoil: {report.counts.total} sticks in [12, 13], determinant 3, "
        f"{elapsed:.3f}s",
    )


def test_criterion_3_figure_eight():
    spec, emb, elapsed = timed_build(DEMOS["figure8"])
    cens, report = audited(spec, emb)
    assert 14 <= report.counts.total <= construction_count(6, 1, 1, 1, 1) == 16
    gauss = extract_knot_cycle(project_generic(emb, {"f"}), "f")
    assert knot_determinant(gauss) == 5
    assert elapsed < 1.0
    announce(
        3,
        f"figure-eight: {report.counts.total} sticks in [14, 16], determinant 5, "
        f"{elapsed:.3f}s",
    )


def test_criterion_4_planar_theta():
    spec, emb, elapsed = timed_build(DEMOS["theta-planar"])
    cens, report = audited(spec, emb)
    assert report.counts.total <= 8
    assert len({p[0] for s in emb.sticks for p in s.ends()}) == 1  # coplanar
    assert report.reconstruction_ok
    assert (cens.e, cens.v) == (3, 2)
    assert elapsed < 1.0
    announce(
        4,
        f"planar theta: {report.counts.total} <= 8 sticks, coplanar, "
        f"reconstructs as three parallel edges, {elapsed:.3f}s",
    )


def test_criterion_5_bouquet_degree_six():
    spec = spec_from_document(DEMOS["bouquet3"])
    cens = census(spec)
    tree = build_cut_tree(spec, cens)
    builds = {c.id: build_component(c, cens.classes[c.id]) for c in spec.components}
    (vp,) = apply_merges(cens, assemble(spec, tree, builds)).merge_plans
    assert vp.steps[-1].move == "extend" and vp.new_top < vp.old_top

    spec, emb, elapsed = timed_build(DEMOS["bouquet3"])
    cens, report = audited(spec, emb)
    incident = [s for s in emb.sticks if s.has_end(emb.markers["v"])]
    assert len(incident) == 6
    assert report.counts.total <= construction_count(6, 3, 1, 1, 0) == 21
    assert report.self_avoiding
    assert elapsed < 1.0
    announce(
        5,
        f"three-loop bouquet: pivot incidence 6 via the swapped top merge, "
        f"{report.counts.total} <= 21 sticks, {elapsed:.3f}s",
    )


def test_criterion_6_composite():
    spec, emb, elapsed = timed_build(DEMOS["theta-composite"])
    cens, report = audited(spec, emb)
    incident = [s for s in emb.sticks if s.has_end(emb.markers["v2"])]
    assert len(incident) == 5
    alpha = cens.alpha_total
    assert report.counts.total <= construction_count(alpha, 4, 2, 2, 0)
    assert report.self_avoiding

    # exactly one connector, collinear with the columns it joins
    spec2 = spec_from_document(DEMOS["theta-composite"])
    tree = build_cut_tree(spec2, cens)
    builds = {c.id: build_component(c, cens.classes[c.id]) for c in spec2.components}
    asm = assemble(spec2, tree, builds)
    # connectors are the stacked sticks no component's build produced, so
    # each one leaves its stem's levels for its branch's subtree slab
    connectors = [
        s
        for s in asm.sticks
        if any((lo <= s.a[2] <= hi) != (lo <= s.b[2] <= hi) for lo, hi in asm.slab.values())
    ]
    assert len(connectors) == 1
    assert connectors[0].axis == 2
    assert (connectors[0].a[0], connectors[0].a[1]) == asm.markers["v2"][:2]
    assert elapsed < 1.0
    announce(
        6,
        f"composite: one collinear connector, cut vertex marker incidence 5, "
        f"{report.counts.total} <= {construction_count(alpha, 4, 2, 2, 0)} sticks, "
        f"{elapsed:.3f}s",
    )


def test_criterion_7_formula_identity():
    checked = 0
    for c, e, v, s, b, k in itertools.product(range(7), repeat=6):
        try:
            assert bounds_agree(c, e, v, s, b, k)
            checked += 1
        except InvalidCounts:
            pass
    rng = random.Random(0)
    for _ in range(10_000):
        c = rng.randrange(0, 10**6)
        e = rng.randrange(1, 10**6)
        v = rng.randrange(1, 10**6)
        s = rng.randrange(1, 10**6)
        b = rng.randrange(0, 10**6)
        k = rng.randrange(0, 10**6)
        try:
            assert bounds_agree(c, e, v, s, b, k)
            checked += 1
        except InvalidCounts:
            pass
    announce(7, f"bound substitution identity holds on {checked} tuples")


def test_criterion_8_binding_point_law():
    checked = 0
    for name, doc in ALL_FIXTURES.items():
        spec = spec_from_document(doc)
        for comp in spec.components:
            pres = comp.presentation
            expected = binding_point_count(
                pres.alpha, len(pres.labels), len(derive_edges(comp))
            )
            assert pres.beta == expected, (name, comp.id)
            checked += 1
    announce(8, f"binding-point law verified on {checked} components")


def test_criterion_9_coloring_oracle_equivalence():
    for name, comp in (("unknot", "u"), ("trefoil", "t"), ("figure8", "f")):
        spec, emb, _ = timed_build(DEMOS[name])
        gauss = extract_knot_cycle(project_generic(emb, {comp}), comp)
        det = knot_determinant(gauss)
        for p in (3, 5, 7):
            count = p_coloring_count(gauss, p)
            assert (count > p) == (det % p == 0), (name, p)
    announce(9, "coloring counts and determinant divisibility agree on all knots")


def test_criterion_10_property_suite():
    for name, doc in ALL_FIXTURES.items():
        spec = spec_from_document(doc)
        emb, _, _ = build_full(spec)
        cens, report = audited(spec, emb)
        assert report.self_avoiding, name
        assert not report.unmarked_junctions and not report.marker_problems, name
        assert report.reconstruction_ok, name
        bounds = check_bound(
            report.counts, cens, cens.alpha_total, spec.declared_crossings
        )
        assert bounds.ok, name
    announce(10, f"all {len(ALL_FIXTURES)} fixtures pass audits and the count law")
