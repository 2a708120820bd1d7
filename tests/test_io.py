"""The embedding document's text: exactly ``json.dumps(doc, indent=2)``;
and where a loaded document sits."""

import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from latticestick.assembly import build_full
from latticestick.fixtures import DEMOS
from latticestick.io import (
    embedding_document_text,
    embedding_from_document,
    embedding_to_document,
    spec_from_document,
)


def oracle(doc):
    return json.dumps(doc, indent=2) + "\n"


# negative, zero and positive coordinates, past 2^64 both ways
coords = st.one_of(st.integers(-4, 4), st.integers(-(2**70), 2**70))
points = st.lists(coords, min_size=3, max_size=3)
# any text: non-ASCII, quotes, backslashes and control characters included
ids = st.text()


def shaped(**fields):
    """Dicts with exactly these keys in this order, the order the document is
    written in (``st.fixed_dictionaries`` varies the order of its keys)."""
    return st.tuples(*fields.values()).map(lambda values: dict(zip(fields, values)))


documents = shaped(
    sticks=st.lists(shaped(axis=st.sampled_from("xyz"), start=points, end=points), max_size=4),
    vertices=st.lists(shaped(id=ids, position=points), max_size=4),
    edges=st.lists(shaped(id=ids, polyline=st.lists(points, min_size=2, max_size=8)), max_size=4),
    counts=shaped(x=coords, y=coords, z=coords, total=coords),
    bounds_report=shaped(
        alpha_total=coords,
        construction_bound=coords,
        crossing_bound=st.one_of(st.none(), coords),
        total_within_bounds=st.booleans(),
    ),
)


# an id with a quote, a backslash, a newline, NUL, non-ASCII and "</", a
# coordinate past 2^64, a null bound and empty stick and vertex lists
ODD = {
    "sticks": [],
    "vertices": [],
    "edges": [{"id": 'q"b\\n\n\x00é☃</', "polyline": [[-1, 2**70, 0], [1, 2, 3]]}],
    "counts": {"x": 0, "y": 0, "z": 0, "total": 0},
    "bounds_report": {
        "alpha_total": 1,
        "construction_bound": 12,
        "crossing_bound": None,
        "total_within_bounds": False,
    },
}


@settings(max_examples=300, deadline=None)
@given(doc=documents)
@example(doc=ODD)
def test_text_matches_json_indent(doc):
    assert embedding_document_text(doc) == oracle(doc)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_built_documents_match_json_indent(name):
    emb, counts, bounds = build_full(spec_from_document(DEMOS[name]))
    doc = embedding_to_document(emb, counts, bounds)
    assert embedding_document_text(doc) == oracle(doc)


def test_loaded_bbox_spans_the_document_sticks():
    """A loaded document's bbox is its sticks' own, wherever they sit: the
    built trefoil spans (0, 0, 0) to (3, 3, 4), and moved so that each
    axis's maximum is 0, as the CI's translated documents are, it spans
    (-3, -3, -4) to (0, 0, 0)."""
    emb, counts, bounds = build_full(spec_from_document(DEMOS["trefoil"]))
    doc = embedding_to_document(emb, counts, bounds)
    assert emb.bbox == embedding_from_document(doc)[0].bbox == ((0, 0, 0), (3, 3, 4))
    shifted = copy.deepcopy(doc)
    points = [p for s in shifted["sticks"] for p in (s["start"], s["end"])]
    points += [v["position"] for v in shifted["vertices"]]
    points += [p for e in shifted["edges"] for p in e["polyline"]]
    for p in points:
        p[:] = [c - t for c, t in zip(p, emb.bbox[1])]
    assert embedding_from_document(shifted)[0].bbox == ((-3, -3, -4), (0, 0, 0))
