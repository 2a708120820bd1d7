"""JSON document formats and the OBJ export.

Both documents reject unknown keys so that typos fail loudly.  The embedding
document stores the embedding's sticks together with the edge polylines they
came from; the two views are checked against each other on load.  Built and
loaded embeddings alike hold the fused sticks, one per counted stick, so a
document reloads to the sticks that were written.  Its text is exactly the
``json.dumps(doc, indent=2)`` layout plus a newline, ASCII-escaped; the golden
digests in the tests pin those bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .arcs import Arc, ArcPresentation
from .errors import DocumentError
from .geom import LatticeEmbedding, Vec3, stick
from .graph import ComponentSpec, CutAttachment, SpatialGraphSpec
from .validate import BoundReport, StickCounts


def _check_keys(obj, required, optional=(), where="document"):
    if not isinstance(obj, dict):
        raise DocumentError(f"{where} must be an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise DocumentError(f"unknown keys {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise DocumentError(f"missing keys {missing} in {where}")


def _is_int(value) -> bool:
    """JSON integers only: ``true`` and ``false`` are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list(value, where):
    if not isinstance(value, list):
        raise DocumentError(f"{where} must be a list")
    return value


def _label(value, where):
    if not isinstance(value, str) or not value:
        raise DocumentError(f"{where} must be a nonempty string")
    return value


def _int_triple(value, where):
    if not isinstance(value, list) or len(value) != 3 or not all(map(_is_int, value)):
        raise DocumentError(f"{where} must be a list of three integers")
    return tuple(value)


# --- input documents --------------------------------------------------------

def spec_from_document(doc) -> SpatialGraphSpec:
    _check_keys(doc, ["components"], ["attachments", "diagram_crossings"])
    components = []
    for c in _list(doc["components"], "components"):
        _check_keys(c, ["id", "binding_points", "arcs"], where="component")
        comp_id = _label(c["id"], "component id")
        labels = {}
        indices = set()
        for bp in _list(c["binding_points"], "binding_points"):
            _check_keys(bp, ["index"], ["vertex"], where="binding point")
            if not _is_int(bp["index"]) or bp["index"] < 1:
                raise DocumentError("binding point index must be a positive integer")
            if bp["index"] in indices:
                raise DocumentError(f"duplicate binding point index {bp['index']}")
            indices.add(bp["index"])
            if "vertex" in bp:
                labels[bp["index"]] = _label(bp["vertex"], "vertex label")
        if indices != set(range(1, len(indices) + 1)):
            raise DocumentError(
                f"component {comp_id}: binding points must cover 1..{len(indices)}"
            )
        arcs = []
        for a in _list(c["arcs"], "arcs"):
            _check_keys(a, ["page", "from", "to"], where="arc")
            for key in ("page", "from", "to"):
                if not _is_int(a[key]):
                    raise DocumentError(f"arc {key} must be an integer")
            if a["from"] == a["to"]:
                raise DocumentError("arc endpoints must differ")
            if not {a["from"], a["to"]} <= indices:
                raise DocumentError(f"arc references unlisted binding point in {comp_id}")
            arcs.append(Arc(a["page"], min(a["from"], a["to"]), max(a["from"], a["to"])))
        pres = ArcPresentation(tuple(arcs), labels, len(indices))
        components.append(ComponentSpec(comp_id, pres))
    attachments = []
    for att in _list(doc.get("attachments", []), "attachments"):
        keys = ("stem", "branch", "cut_vertex")
        _check_keys(att, keys, where="attachment")
        attachments.append(CutAttachment(*(_label(att[k], f"attachment {k}") for k in keys)))
    crossings = doc.get("diagram_crossings")
    if crossings is not None and (not _is_int(crossings) or crossings < 0):
        raise DocumentError("diagram_crossings must be a nonnegative integer")
    return SpatialGraphSpec(tuple(components), tuple(attachments), crossings)


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def load_spec(path) -> SpatialGraphSpec:
    return spec_from_document(read_json(path))


# --- embedding documents ----------------------------------------------------

def embedding_to_document(
    emb: LatticeEmbedding, counts: StickCounts, bounds: BoundReport
) -> dict:
    return {
        "sticks": [
            {
                "axis": "xyz"[s.axis],
                "start": list(s.a),
                "end": list(s.b),
            }
            for s in emb.sticks
        ],
        "vertices": [
            {"id": label, "position": list(p)}
            for label, p in sorted(emb.markers.items())
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


def embedding_document_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for a document of
    ``embedding_to_document``, written from its fixed shape: one template per
    stick, vertex and polyline point, one join per list, and strings through
    json's own escaper.  Any ``indent`` sends ``json.dumps`` through its
    pure-Python encoder, one generator step per token.
    """
    q = encode_basestring_ascii
    p6 = " " * 6

    def items(parts: list[str], pad: str) -> str:
        return f"[\n{pad}  " + f",\n{pad}  ".join(parts) + f"\n{pad}]" if parts else "[]"

    def triple(p, pad: str) -> str:
        return f"[\n{pad}  {p[0]},\n{pad}  {p[1]},\n{pad}  {p[2]}\n{pad}]"

    def scalar(v) -> str:
        return "null" if v is None else str(v).lower() if isinstance(v, bool) else int.__repr__(v)

    def scalars(d: dict) -> str:
        return "{\n    " + ",\n    ".join(f"{q(k)}: {scalar(v)}" for k, v in d.items()) + "\n  }"

    sticks = [
        f'{{\n{p6}"axis": {q(s["axis"])},\n{p6}"start": {triple(s["start"], p6)},\n'
        f'{p6}"end": {triple(s["end"], p6)}\n    }}'
        for s in doc["sticks"]
    ]
    vertices = [
        f'{{\n{p6}"id": {q(v["id"])},\n{p6}"position": {triple(v["position"], p6)}\n    }}'
        for v in doc["vertices"]
    ]
    edges = [
        f'{{\n{p6}"id": {q(e["id"])},\n{p6}"polyline": '
        f'{items([triple(p, " " * 8) for p in e["polyline"]], p6)}\n    }}'
        for e in doc["edges"]
    ]
    return (
        f'{{\n  "sticks": {items(sticks, "  ")},\n  "vertices": {items(vertices, "  ")},\n'
        f'  "edges": {items(edges, "  ")},\n  "counts": {scalars(doc["counts"])},\n'
        f'  "bounds_report": {scalars(doc["bounds_report"])}\n}}\n'
    )


def embedding_from_document(doc) -> tuple[LatticeEmbedding, StickCounts]:
    _check_keys(doc, ["sticks", "vertices", "edges", "counts", "bounds_report"])
    markers: dict[str, Vec3] = {}
    for v in _list(doc["vertices"], "vertices"):
        _check_keys(v, ["id", "position"], where="vertex")
        if _label(v["id"], "vertex id") in markers:
            raise DocumentError(f"duplicate vertex id {v['id']}")
        markers[v["id"]] = _int_triple(v["position"], "vertex position")
    traces: dict[str, list[Vec3]] = {}
    polyline_pairs = set()
    for e in _list(doc["edges"], "edges"):
        _check_keys(e, ["id", "polyline"], where="edge")
        if _label(e["id"], "edge id") in traces:
            raise DocumentError(f"duplicate edge id {e['id']}")
        line = [_int_triple(p, "polyline point") for p in _list(e["polyline"], "polyline")]
        if len(line) < 2:
            raise DocumentError(f"edge {e['id']} polyline too short")
        traces[e["id"]] = line
        for a, b in zip(line, line[1:]):
            if sum(x != y for x, y in zip(a, b)) != 1:
                raise DocumentError(f"edge {e['id']} polyline is not axis-parallel")
            polyline_pairs.add((min(a, b), max(a, b)))
    doc_sticks = []
    stick_pairs = set()
    for s in _list(doc["sticks"], "sticks"):
        _check_keys(s, ["axis", "start", "end"], where="stick")
        a = _int_triple(s["start"], "stick start")
        b = _int_triple(s["end"], "stick end")
        if not a < b:
            raise DocumentError("stick start must be lexicographically before end")
        if sum(x != y for x, y in zip(a, b)) != 1:
            raise DocumentError(f"stick {s['start']}-{s['end']} is not axis-parallel")
        st = stick(a, b)
        if s["axis"] != "xyz"[st.axis]:
            raise DocumentError(f"stick axis {s['axis']} does not match endpoints")
        doc_sticks.append(st)
        stick_pairs.add((a, b))
    if not doc_sticks:
        raise DocumentError("embedding has no sticks")
    if stick_pairs != polyline_pairs:
        raise DocumentError("sticks and edge polylines are not mutually derivable")
    counts = doc["counts"]
    _check_keys(counts, ["x", "y", "z", "total"], where="counts")
    if not all(map(_is_int, counts.values())):
        raise DocumentError("counts must be integers")
    got = StickCounts(counts["x"], counts["y"], counts["z"])
    if got.total != counts["total"] or counts["total"] != len(doc_sticks):
        raise DocumentError("counts do not match the stick list")
    report = doc["bounds_report"]
    _check_keys(
        report,
        ["alpha_total", "construction_bound", "crossing_bound", "total_within_bounds"],
        where="bounds_report",
    )
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
