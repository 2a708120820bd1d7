"""The embedding document's text: exactly ``json.dumps(doc, indent=2)``;
where a loaded document sits; and the readers against their oracles."""

import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from latticestick.assembly import build_full
from latticestick.errors import DocumentError
from latticestick.fixtures import DEMOS
from latticestick.io import (
    embedding_document_text,
    embedding_from_document,
    embedding_to_document,
    spec_from_document,
)

import oracles


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


def containers(value, shape=()):
    """Every dict and list of a JSON document with its shape: its path from
    the root, list positions left out."""
    if isinstance(value, (dict, list)):
        yield shape, value
        items = value.items() if isinstance(value, dict) else ((None, v) for v in value)
        for key, child in items:
            yield from containers(child, shape + (key,))


def _built(name):
    emb, counts, bounds = build_full(spec_from_document(DEMOS[name]))
    return json.loads(json.dumps(embedding_to_document(emb, counts, bounds)))


# the valid documents the mutations start from: the demo inputs and the
# embedding documents built from them
VALID = [("spec", DEMOS[name]) for name in sorted(DEMOS)]
VALID += [("embedding", _built(name)) for name in sorted(DEMOS)]
READERS = {
    "spec": (spec_from_document, oracles.spec_from_document),
    "embedding": (embedding_from_document, oracles.embedding_from_document),
}
# every key of both documents, and one of neither
KEYS = sorted(
    {k for _, doc in VALID for _, obj in containers(doc) if isinstance(obj, dict) for k in obj}
    | {"vertex", "diagram_crossings", "extra"}
)
# values of the wrong type or shape, and small integers
ODD_VALUES = [True, False, 1.0, "1", None, 0, -1, 2, "", "x", [], {}, [0, 0], [0] * 4, {"x": 0}]

EDITS = ["drop", "add", "rename", "odd", "swap", "bump", "copy", "reverse"]


@st.composite
def mutated_documents(draw):
    """A valid document with up to three edits, each at a dict or list of a
    shape drawn from the document's (so a count is as likely a target as a
    polyline point): a key dropped, added or renamed; a value replaced
    by one of ``ODD_VALUES``; two values or items swapped; an integer off by
    one (a count, an index, a coordinate that makes a stick or step
    diagonal or zero-length); an item dropped, duplicated or appended (a
    repeated id, a 2- or 4-element triple); a list reversed."""
    kind, doc = draw(st.sampled_from(VALID))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        shapes = {}
        for shape, obj in containers(doc):
            shapes.setdefault(shape, []).append(obj)
        target = draw(st.sampled_from(shapes[draw(st.sampled_from(list(shapes)))]))
        slots = list(target) if isinstance(target, dict) else list(range(len(target)))
        edit = draw(st.sampled_from(EDITS))
        if edit == "add":
            value = draw(st.sampled_from(ODD_VALUES))
            if isinstance(target, dict):
                target[draw(st.sampled_from(KEYS))] = copy.deepcopy(value)
            else:
                target.append(copy.deepcopy(value))
            continue
        if not slots:
            continue
        slot, other = draw(st.sampled_from(slots)), draw(st.sampled_from(slots))
        if edit == "drop":
            del target[slot]
        elif edit == "rename" and isinstance(target, dict):
            target[draw(st.sampled_from(KEYS))] = target.pop(slot)
        elif edit == "odd":
            target[slot] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif edit == "swap":
            target[slot], target[other] = target[other], target[slot]
        elif edit == "bump" and type(target[slot]) is int:
            target[slot] += draw(st.sampled_from([-1, 1]))
        elif edit == "copy" and isinstance(target, list):
            target.insert(other, copy.deepcopy(target[slot]))
        elif edit == "reverse" and isinstance(target, list):
            target.reverse()
    return kind, doc


def outcome(read, doc):
    try:
        return read(doc)
    except DocumentError as exc:
        return f"DocumentError: {exc}"


# an arc with two integers wrong at once: the first in page, from, to order is named
TWO_BAD_ARC_INTS = {
    "components": [
        {
            "id": "u",
            "binding_points": [{"index": 1, "vertex": "v"}, {"index": 2}],
            "arcs": [{"page": 1, "from": 1, "to": 2}, {"page": None, "from": "2", "to": 1.0}],
        }
    ]
}


@settings(max_examples=600, deadline=None)
@given(case=mutated_documents())
@example(case=("spec", TWO_BAD_ARC_INTS))
def test_readers_match_oracle(case):
    """Each reader returns what its oracle returns, or raises
    ``DocumentError`` with the same message, on valid and mutated
    documents alike."""
    kind, doc = case
    read, oracle_read = READERS[kind]
    assert outcome(read, doc) == outcome(oracle_read, doc)
