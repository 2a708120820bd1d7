"""JSON document formats and the OBJ export.

Both documents reject unknown keys so that typos fail loudly.  The embedding
document stores the embedding's sticks together with the edge polylines they
came from; the two views are checked against each other on load.  Built and
loaded embeddings alike hold the fused sticks, one per counted stick, so a
document reloads to the sticks that were written.  Its text is exactly the
``json.dumps(embedding_to_document(...), indent=2)`` layout plus a newline,
ASCII-escaped, which the writer makes straight from the embedding; the
golden digests in the tests pin those bytes.

The readers take what ``json.load`` returns, so each value has an exact
type: an integer is an ``int``, never a ``bool``, and a list is a ``list``.
Each object is checked with one cheap test, inline for the spec's binding
points and arcs: its key set against module-level frozensets, a triple for
three exact ``int``s, a stick's ends coordinate by coordinate.  Only an
object that fails is examined again, by a naming helper, to name its fault.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .arcs import Arc, ArcPresentation
from .errors import DocumentError
from .geom import LatticeEmbedding, Stick, Vec3
from .graph import ComponentSpec, CutAttachment, SpatialGraphSpec
from .validate import BoundReport, StickCounts


def _keys(*required, optional=()):
    """An object's (required, allowed) key sets."""
    return frozenset(required), frozenset(required + optional)


_SPEC = _keys("components", optional=("attachments", "diagram_crossings"))
_COMPONENT = _keys("id", "binding_points", "arcs")
_BINDING_POINT = _keys("index", optional=("vertex",))
_ARC = _keys("page", "from", "to")
_ATTACHMENT = _keys("stem", "branch", "cut_vertex")
_EMBEDDING = _keys("sticks", "vertices", "edges", "counts", "bounds_report")
_VERTEX = _keys("id", "position")
_EDGE = _keys("id", "polyline")
_STICK = _keys("axis", "start", "end")
_COUNTS = _keys("x", "y", "z", "total")
_BOUNDS_REPORT = _keys(
    "alpha_total", "construction_bound", "crossing_bound", "total_within_bounds"
)


def _check_keys(obj, keys, where="document"):
    """Pass a dict whose keys hold the required ones and lie within the
    allowed ones; name the first fault of anything else."""
    if not isinstance(obj, dict):
        raise DocumentError(f"{where} must be an object")
    required, allowed = keys
    if required <= obj.keys() <= allowed:
        return
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise DocumentError(f"unknown keys {unknown} in {where}")
    raise DocumentError(f"missing keys {sorted(required - obj.keys())} in {where}")


def _is_int(value) -> bool:
    """JSON integers only: ``true`` and ``false`` are not numbers here."""
    return type(value) is int


def _list(value, where):
    if not isinstance(value, list):
        raise DocumentError(f"{where} must be a list")
    return value


def _label(value, where):
    if not isinstance(value, str) or not value:
        raise DocumentError(f"{where} must be a nonempty string")
    return value


def _int_triple(value, where):
    if (
        type(value) is list
        and len(value) == 3
        and type(value[0]) is type(value[1]) is type(value[2]) is int
    ):
        return tuple(value)
    raise DocumentError(f"{where} must be a list of three integers")


# --- input documents --------------------------------------------------------

def spec_from_document(doc) -> SpatialGraphSpec:
    _check_keys(doc, _SPEC)
    (bp_required, bp_allowed), (arc_keys, _) = _BINDING_POINT, _ARC
    components = []
    for c in _list(doc["components"], "components"):
        _check_keys(c, _COMPONENT, "component")
        comp_id = _label(c["id"], "component id")
        labels = {}
        indices = set()
        for bp in _list(c["binding_points"], "binding_points"):
            if not (type(bp) is dict and bp_required <= bp.keys() <= bp_allowed):
                _check_keys(bp, _BINDING_POINT, "binding point")
            index = bp["index"]
            if type(index) is not int or index < 1:
                raise DocumentError("binding point index must be a positive integer")
            if index in indices:
                raise DocumentError(f"duplicate binding point index {index}")
            indices.add(index)
            if "vertex" in bp:
                label = labels[index] = bp["vertex"]
                if type(label) is not str or not label:
                    _label(label, "vertex label")
        n = len(indices)
        # distinct positive integers cover 1..n exactly when the largest is n
        if indices and max(indices) != n:
            raise DocumentError(f"component {comp_id}: binding points must cover 1..{n}")
        arcs = []
        for a in _list(c["arcs"], "arcs"):
            if not (type(a) is dict and a.keys() == arc_keys):
                _check_keys(a, _ARC, "arc")
            page, lo, hi = a["page"], a["from"], a["to"]
            if not type(page) is type(lo) is type(hi) is int:
                key = next(k for k in ("page", "from", "to") if not _is_int(a[k]))
                raise DocumentError(f"arc {key} must be an integer")
            if lo == hi:
                raise DocumentError("arc endpoints must differ")
            if not (0 < lo <= n and 0 < hi <= n):  # the indices are 1..n
                raise DocumentError(f"arc references unlisted binding point in {comp_id}")
            arcs.append(Arc(page, lo, hi) if lo < hi else Arc(page, hi, lo))
        pres = ArcPresentation(tuple(arcs), labels, n)
        components.append(ComponentSpec(comp_id, pres))
    attachments = []
    for att in _list(doc.get("attachments", []), "attachments"):
        _check_keys(att, _ATTACHMENT, "attachment")
        keys = ("stem", "branch", "cut_vertex")
        attachments.append(CutAttachment(*(_label(att[k], f"attachment {k}") for k in keys)))
    crossings = doc.get("diagram_crossings")
    if crossings is not None and (not _is_int(crossings) or crossings < 0):
        raise DocumentError("diagram_crossings must be a nonnegative integer")
    return SpatialGraphSpec(tuple(components), tuple(attachments), crossings)


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
    # int's digit limit; RecursionError covers nesting deeper than the parser
    except (OSError, ValueError, RecursionError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def load_spec(path) -> SpatialGraphSpec:
    return spec_from_document(read_json(path))


# --- embedding documents ----------------------------------------------------

def embedding_to_document(
    emb: LatticeEmbedding, counts: StickCounts, bounds: BoundReport
) -> dict:
    return {
        "sticks": [
            {"axis": "xyz"[s.axis], "start": list(s.a), "end": list(s.b)} for s in emb.sticks
        ],
        "vertices": [
            {"id": label, "position": list(p)} for label, p in sorted(emb.markers.items())
        ],
        "edges": [
            {"id": eid, "polyline": [list(p) for p in emb.traces[eid]]}
            for eid in sorted(emb.traces)
        ],
        "counts": {"x": counts.x, "y": counts.y, "z": counts.z, "total": counts.total},
        "bounds_report": bounds_report(bounds),
    }


def bounds_report(bounds: BoundReport) -> dict:
    """The document's ``bounds_report`` of ``bounds``: ``validate`` compares
    a loaded document's with the one it recomputes."""
    return {
        "alpha_total": bounds.alpha_total,
        "construction_bound": bounds.construction_bound,
        "crossing_bound": bounds.crossing_bound,
        "total_within_bounds": bounds.ok,
    }


def embedding_document_text(
    emb: LatticeEmbedding, counts: StickCounts, bounds: BoundReport
) -> str:
    """``json.dumps(embedding_to_document(emb, counts, bounds), indent=2)``
    plus a newline, written straight from a built embedding.  Its stick ends
    and markers are trace points, so each trace point's two indented forms
    (stick end or vertex position, polyline item) are made once; strings go
    through json's own escaper.  Any ``indent`` sends ``json.dumps`` through
    its pure-Python encoder, one generator step per token."""
    forms = {
        p: (
            f"[\n        {p[0]},\n        {p[1]},\n        {p[2]}\n      ]",
            f"[\n          {p[0]},\n          {p[1]},\n          {p[2]}\n        ]",
        )
        for p in {p for line in emb.traces.values() for p in line}
    }
    sticks = [
        f'{{\n      "axis": "{"x" if s.a[0] != s.b[0] else "y" if s.a[1] != s.b[1] else "z"}",'
        f'\n      "start": {forms[s.a][0]},\n      "end": {forms[s.b][0]}\n    }}'
        for s in emb.sticks
    ]
    vertices = [
        f'{{\n      "id": {encode_basestring_ascii(label)},\n      "position": {forms[p][0]}\n    }}'
        for label, p in sorted(emb.markers.items())
    ]
    edges = [
        f'{{\n      "id": {encode_basestring_ascii(eid)},\n      "polyline": [\n        '
        + ",\n        ".join([forms[p][1] for p in emb.traces[eid]])
        + "\n      ]\n    }"
        for eid in sorted(emb.traces)
    ]
    lists = [
        "[\n    " + ",\n    ".join(parts) + "\n  ]" if parts else "[]"
        for parts in (sticks, vertices, edges)
    ]
    return (
        f'{{\n  "sticks": {lists[0]},\n  "vertices": {lists[1]},\n  "edges": {lists[2]},\n'
        f'  "counts": {{\n    "x": {counts.x},\n    "y": {counts.y},\n    "z": {counts.z},\n'
        f'    "total": {counts.total}\n  }},\n  "bounds_report": {{\n'
        f'    "alpha_total": {bounds.alpha_total},\n'
        f'    "construction_bound": {bounds.construction_bound},\n'
        f'    "crossing_bound": {json.dumps(bounds.crossing_bound)},\n'
        f'    "total_within_bounds": {json.dumps(bounds.ok)}\n  }}\n}}\n'
    )


def embedding_from_document(doc) -> tuple[LatticeEmbedding, StickCounts]:
    _check_keys(doc, _EMBEDDING)
    markers: dict[str, Vec3] = {}
    for v in _list(doc["vertices"], "vertices"):
        _check_keys(v, _VERTEX, "vertex")
        if _label(v["id"], "vertex id") in markers:
            raise DocumentError(f"duplicate vertex id {v['id']}")
        markers[v["id"]] = _int_triple(v["position"], "vertex position")
    traces: dict[str, list[Vec3]] = {}
    polyline_pairs = set()
    for e in _list(doc["edges"], "edges"):
        _check_keys(e, _EDGE, "edge")
        if _label(e["id"], "edge id") in traces:
            raise DocumentError(f"duplicate edge id {e['id']}")
        line = [_int_triple(p, "polyline point") for p in _list(e["polyline"], "polyline")]
        if len(line) < 2:
            raise DocumentError(f"edge {e['id']} polyline too short")
        traces[e["id"]] = line
        for a, b in zip(line, line[1:]):
            if (a[0] != b[0]) + (a[1] != b[1]) + (a[2] != b[2]) != 1:
                raise DocumentError(f"edge {e['id']} polyline is not axis-parallel")
            polyline_pairs.add((a, b) if a < b else (b, a))
    doc_sticks = []
    stick_pairs = set()
    for s in _list(doc["sticks"], "sticks"):
        _check_keys(s, _STICK, "stick")
        a = _int_triple(s["start"], "stick start")
        b = _int_triple(s["end"], "stick end")
        (ax, ay, az), (bx, by, bz) = a, b
        # the first coordinate that differs orders the ends and names the axis
        if ax != bx:
            ordered, parallel, axis = ax < bx, ay == by and az == bz, "x"
        elif ay != by:
            ordered, parallel, axis = ay < by, az == bz, "y"
        else:
            ordered, parallel, axis = az < bz, True, "z"
        if not ordered:
            raise DocumentError("stick start must be lexicographically before end")
        if not parallel:
            raise DocumentError(f"stick {s['start']}-{s['end']} is not axis-parallel")
        if s["axis"] != axis:
            raise DocumentError(f"stick axis {s['axis']} does not match endpoints")
        doc_sticks.append(Stick(a, b))
        stick_pairs.add((a, b))
    if not doc_sticks:
        raise DocumentError("embedding has no sticks")
    if stick_pairs != polyline_pairs:
        raise DocumentError("sticks and edge polylines are not mutually derivable")
    counts = doc["counts"]
    _check_keys(counts, _COUNTS, "counts")
    if not all(map(_is_int, counts.values())):
        raise DocumentError("counts must be integers")
    got = StickCounts(counts["x"], counts["y"], counts["z"])
    if got.total != counts["total"] or counts["total"] != len(doc_sticks):
        raise DocumentError("counts do not match the stick list")
    report = doc["bounds_report"]
    _check_keys(report, _BOUNDS_REPORT, "bounds_report")
    if not (
        _is_int(report["alpha_total"])
        and _is_int(report["construction_bound"])
        and (report["crossing_bound"] is None or _is_int(report["crossing_bound"]))
        and isinstance(report["total_within_bounds"], bool)
    ):
        raise DocumentError(
            "bounds_report must hold integers (crossing_bound may be null) "
            "and a boolean total_within_bounds"
        )
    return LatticeEmbedding(sticks=tuple(doc_sticks), markers=markers, traces=traces), got


def load_embedding(path) -> tuple[LatticeEmbedding, StickCounts]:
    return embedding_from_document(read_json(path))


# --- OBJ export -------------------------------------------------------------

def export_obj(emb: LatticeEmbedding) -> str:
    """Wavefront OBJ polyline export, byte-stable across runs.

    One ``v`` line per distinct lattice point in first-use order, one
    ``l`` line per stick with 1-based point indices.
    """
    index: dict[Vec3, int] = {}
    v_lines: list[str] = []
    l_lines: list[str] = []
    for s in emb.sticks:
        ids = []
        for p in (s.a, s.b):
            if p not in index:
                index[p] = len(index) + 1
                v_lines.append(f"v {p[0]} {p[1]} {p[2]}")
            ids.append(index[p])
        l_lines.append(f"l {ids[0]} {ids[1]}")
    return "\n".join(v_lines + l_lines) + "\n"
