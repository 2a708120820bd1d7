"""The embedding document's text: exactly ``json.dumps(doc, indent=2)`` of
the document dict; where a loaded document sits; and the readers against
their oracles."""

import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from latticestick.assembly import build_full
from latticestick.errors import DocumentError
from latticestick.fixtures import DEMOS
from latticestick.geom import LatticeEmbedding, stick
from latticestick.io import (
    embedding_document_text,
    embedding_from_document,
    embedding_to_document,
    spec_from_document,
)
from latticestick.validate import BoundReport, StickCounts

import oracles
from test_golden import INPUTS as GOLDEN_INPUTS
from test_properties import graph_component_specs, knot_specs


def oracle(emb, counts, bounds):
    return json.dumps(embedding_to_document(emb, counts, bounds), indent=2) + "\n"


# negative, zero and positive coordinates, past 2^64 both ways
coords = st.one_of(st.integers(-4, 4), st.integers(-(2**70), 2**70))
points = st.tuples(coords, coords, coords)
# any text: non-ASCII, quotes, backslashes and control characters included
ids = st.text()


@st.composite
def embeddings(draw):
    """An embedding as a build leaves it, with counts and a bound report of
    any integers: axis-parallel traces under any ids, the sticks fused from
    them, and markers on trace points."""
    traces = {}
    for eid in draw(st.lists(ids, max_size=4, unique=True)):
        line = [draw(points)]
        for _ in range(draw(st.integers(1, 6))):
            axis, step = draw(st.integers(0, 2)), draw(coords.filter(bool))
            line.append(tuple(c + step * (k == axis) for k, c in enumerate(line[-1])))
        traces[eid] = line
    sticks = tuple(stick(p, q) for line in traces.values() for p, q in zip(line, line[1:]))
    on_traces = sorted({p for line in traces.values() for p in line})
    labels = draw(st.lists(ids, max_size=4, unique=True)) if on_traces else []
    markers = {label: draw(st.sampled_from(on_traces)) for label in labels}
    counts = StickCounts(draw(coords), draw(coords), draw(coords))
    bounds = BoundReport(
        counts.total, draw(coords), draw(coords), draw(st.one_of(st.none(), coords)), None,
        draw(st.booleans()),
    )
    return LatticeEmbedding(sticks, markers, traces), counts, bounds


# an id with a quote, a backslash, a newline, NUL, non-ASCII and "</", a
# coordinate past 2^64, a null bound and an empty vertex list
ODD_LINE = [(-1, 2**70, 0), (1, 2**70, 0)]
ODD = (
    LatticeEmbedding((stick(*ODD_LINE),), {}, {'q"b\\n\n\x00é☃</': ODD_LINE}),
    StickCounts(1, 0, 0),
    BoundReport(1, 1, 12, None, None, False),
)


# an empty embedding, with a crossing bound and a true verdict
EMPTY = (LatticeEmbedding((), {}, {}), StickCounts(0, 0, 0), BoundReport(0, 0, 0, 3, True, True))


@settings(max_examples=300, deadline=None)
@given(case=embeddings())
@example(case=ODD)
@example(case=EMPTY)
def test_text_matches_json_indent(case):
    """The writer's text is ``json.dumps`` of the document dict, indent 2,
    plus a newline."""
    assert embedding_document_text(*case) == oracle(*case)
    doc = embedding_to_document(*case)
    assert oracles.embedding_document_text(doc) == oracle(*case)


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_built_documents_match_json_indent(name):
    built = build_full(spec_from_document(GOLDEN_INPUTS[name]))
    assert embedding_document_text(*built) == oracle(*built)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from(["knot", "theta3", "theta4", "bouquet2", "k4"]),
)
def test_hypothesis_builds_match_json_indent(data, shape):
    spec = data.draw(knot_specs() if shape == "knot" else graph_component_specs(shape))
    built = build_full(spec)
    assert embedding_document_text(*built) == oracle(*built)


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


# arcs that reach past the listed binding points 1..2, below and above
UNLISTED_ENDS = [
    {"components": [{
        "id": "u",
        "binding_points": [{"index": 1, "vertex": "v"}, {"index": 2}],
        "arcs": [{"page": 1, "from": lo, "to": hi}],
    }]}
    for lo, hi in ((1, 0), (0, 2), (2, 3), (-1, 1))
]


@settings(max_examples=600, deadline=None)
@given(case=mutated_documents())
@example(case=("spec", TWO_BAD_ARC_INTS))
@example(case=("spec", UNLISTED_ENDS[0]))
@example(case=("spec", UNLISTED_ENDS[1]))
@example(case=("spec", UNLISTED_ENDS[2]))
@example(case=("spec", UNLISTED_ENDS[3]))
def test_readers_match_oracle(case):
    """Each reader returns what its oracle returns, or raises
    ``DocumentError`` with the same message, on valid and mutated
    documents alike."""
    kind, doc = case
    read, oracle_read = READERS[kind]
    assert outcome(read, doc) == outcome(oracle_read, doc)
