import json

import pytest

from latticestick import cli
from latticestick.cli import main
from latticestick.fixtures import DEMOS
from latticestick.io import (
    DocumentError,
    embedding_from_document,
    spec_from_document,
)


# a 2-point loop through v: the one valid component the malformed documents vary
LOOP = {
    "id": "c",
    "binding_points": [{"index": 1, "vertex": "v"}, {"index": 2}],
    "arcs": [{"page": 1, "from": 1, "to": 2}, {"page": 2, "from": 1, "to": 2}],
}


# embedding-document edits that make a built unknot malformed
MALFORMED_EMBEDDINGS = {
    "null-count": lambda doc: doc["counts"].update(x=None),
    "string-count": lambda doc: doc["counts"].update(y="2"),
    "list-vertex-id": lambda doc: doc["vertices"][0].update(id=["v"]),
    "list-edge-id": lambda doc: doc["edges"][0].update(id=["u/e0"]),
    "int-edge-id": lambda doc: doc["edges"][0].update(id=7),
    "no-sticks": lambda doc: doc.update(
        sticks=[], edges=[], counts={"x": 0, "y": 0, "z": 0, "total": 0}
    ),
}


# input-document edits that leave an id or an attachment label malformed
MALFORMED_LABELS = {
    "null-id": {"components": [{**LOOP, "id": None}]},
    "list-id": {"components": [{**LOOP, "id": ["c"]}]},
    "int-stem": {
        "components": [LOOP],
        "attachments": [{"stem": 5, "branch": "c", "cut_vertex": "v"}],
    },
    "empty-cut-vertex": {
        "components": [LOOP],
        "attachments": [{"stem": "c", "branch": "c", "cut_vertex": ""}],
    },
}


# files no reader gets to see: bytes that are not UTF-8, and JSON nested
# deeper than the parser recurses
UNREADABLE = {
    "non-utf8": b"\xff\xfe{}",
    "deep": b"[" * 100_000 + b"]" * 100_000,
}


def run(*argv):
    return main(list(argv))


def demo_paths(tmp_path, name):
    inp = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}.emb.json"
    assert run("demo", "--name", name, "--output", str(inp)) == 0
    return inp, out


class TestParser:
    def test_consecutive_calls(self, tmp_path, capsys):
        """One process runs several commands, bad arguments among them."""
        inp, out = demo_paths(tmp_path, "trefoil")
        assert run("build", "--input", str(inp), "--output", str(out)) == 0
        with pytest.raises(SystemExit) as exc:
            run("build", "--input", str(inp))
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2
        capsys.readouterr()
        assert run("invariant", "--embedding", str(out), "--component", "t") == 0
        assert "determinant: 3" in capsys.readouterr().out
        assert run("bound", "--input", str(inp), "--crossings", "3") == 0
        assert "crossing bound:" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            run("bound", "--input", str(inp), "--crossings", "three")
        assert run("demo", "--name", "granny", "--output", str(tmp_path / "x.json")) == 2

    def test_replaced_handler_runs(self, tmp_path, monkeypatch):
        """The handler is looked up on each call: a wrapper installed on the
        module after the parser was built is the one that runs."""
        inp, out = demo_paths(tmp_path, "unknot")
        seen = []
        monkeypatch.setattr(cli, "cmd_build", lambda args: seen.append(args.output) or 7)
        assert run("build", "--input", str(inp), "--output", str(out)) == 7
        assert seen == [str(out)]
        assert not out.exists()


class TestDemo:
    def test_known_names(self, tmp_path):
        for name in ("unknot", "trefoil", "figure8", "theta-planar", "bouquet3", "theta-composite"):
            path = tmp_path / f"{name}.json"
            assert run("demo", "--name", name, "--output", str(path)) == 0
            spec_from_document(json.loads(path.read_text()))

    def test_unknown_name(self, tmp_path):
        assert run("demo", "--name", "granny", "--output", str(tmp_path / "x.json")) == 2

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert run("demo", "--name", "unknot", "--output", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


class TestBuild:
    def test_unknot_roundtrip(self, tmp_path, capsys):
        inp, out = demo_paths(tmp_path, "unknot")
        assert run("build", "--input", str(inp), "--output", str(out)) == 0
        printed = capsys.readouterr().out
        assert "total=4" in printed
        doc = json.loads(out.read_text())
        assert doc["counts"]["total"] == 4
        emb, counts = embedding_from_document(doc)
        assert counts.total == 4

    def test_unwritable_output(self, tmp_path, capsys):
        inp, _ = demo_paths(tmp_path, "unknot")
        out = tmp_path / "missing" / "o.json"
        assert run("build", "--input", str(inp), "--output", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("build", "--input", str(bad), "--output", str(tmp_path / "o.json")) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"components": [], "extra": 1},
            {"components": 5},
            {"components": [{**LOOP, "binding_points": 5}]},
            {"components": [{**LOOP, "arcs": 5}]},
            {"components": [LOOP], "attachments": 5},
            {"components": [{**LOOP, "binding_points": [{"index": True}, {"index": 2}]}]},
            {"components": [{**LOOP, "arcs": [{"page": True, "from": 1, "to": 2}]}]},
            {"components": [{**LOOP, "arcs": [{"page": 1, "from": True, "to": 2}]}]},
            {"components": [{**LOOP, "arcs": [{"page": 1, "from": 2, "to": True}]}]},
            {"components": [LOOP], "diagram_crossings": True},
        ],
        ids=[
            "unknown-key", "components", "binding-points", "arcs", "attachments",
            "bool-index", "bool-page", "bool-from", "bool-to", "bool-crossings",
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, doc):
        """Malformed documents are syntax errors: exit 2 with ``error:``."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("build", "--input", str(bad), "--output", str(tmp_path / "o.json")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_degree_seven_rejected(self, tmp_path, capsys):
        doc = {
            "components": [
                {
                    "id": "t7",
                    "binding_points": [
                        {"index": 1, "vertex": "v1"},
                        {"index": 2, "vertex": "v2"},
                    ],
                    "arcs": [{"page": p, "from": 1, "to": 2} for p in range(1, 8)],
                }
            ]
        }
        inp = tmp_path / "t7.json"
        inp.write_text(json.dumps(doc))
        assert run("build", "--input", str(inp), "--output", str(tmp_path / "o.json")) == 1
        assert "degree" in capsys.readouterr().err

    @pytest.mark.parametrize("to", [2, 3], ids=["trailing", "inside"])
    def test_listed_point_without_arc_rejected(self, tmp_path, capsys, to):
        """A listed binding point that no arc meets is invalid, whether it
        comes after every point an arc reaches or sits between two."""
        points = [*LOOP["binding_points"], {"index": 3}]
        arcs = [{"page": p, "from": 1, "to": to} for p in (1, 2)]
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"components": [{**LOOP, "binding_points": points, "arcs": arcs}]}))
        message = f"invalid: component c: binding point {5 - to} has no incident arc\n"
        assert run("build", "--input", str(inp), "--output", str(tmp_path / "o.json")) == 1
        assert capsys.readouterr().err == message
        assert run("bound", "--input", str(inp)) == 1
        assert capsys.readouterr().err == message


class TestValidate:
    def test_build_then_validate(self, tmp_path):
        for name in DEMOS:
            inp, out = demo_paths(tmp_path, name)
            assert run("build", "--input", str(inp), "--output", str(out)) == 0
            assert run("validate", "--embedding", str(out), "--input", str(inp)) == 0

    def test_unmarked_junction_listed_once(self, tmp_path, capsys):
        """A vertex marker dropped leaves an unmarked junction: no contact,
        so the document reads self-avoiding, but the junction is counted
        and validation fails."""
        inp, out = demo_paths(tmp_path, "theta-planar")
        assert run("build", "--input", str(inp), "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        doc["vertices"] = [v for v in doc["vertices"] if v["id"] != "v2"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("validate", "--embedding", str(out), "--input", str(inp)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["self-avoiding: True", "unmarked junctions: 1"]
        assert not any("violation" in line for line in lines)

    def test_unmarked_junction_counted_beside_shared_marker(self, tmp_path, capsys):
        """Marker v2 moved onto v1: the two markers share a point and v2's
        junction is left unmarked; both are reported and validation fails."""
        inp, out = demo_paths(tmp_path, "theta-planar")
        assert run("build", "--input", str(inp), "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        v1, v2 = doc["vertices"]
        v2["position"] = v1["position"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("validate", "--embedding", str(out), "--input", str(inp)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "self-avoiding: True",
            "unmarked junctions: 1",
            "marker problems: ['two vertex markers share one point']",
        ]

    def test_corrupted_stick(self, tmp_path):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        # drop one stick (and its polyline leg): schema-valid, graph broken
        doc["sticks"] = doc["sticks"][:1]
        doc["edges"][0]["polyline"] = doc["edges"][0]["polyline"][:2]
        axis = doc["sticks"][0]["axis"]
        doc["counts"] = {"x": 0, "y": 0, "z": 0, "total": 1}
        doc["counts"][axis] = 1
        out.write_text(json.dumps(doc))
        assert run("validate", "--embedding", str(out), "--input", str(inp)) == 1

    def test_wrong_input_pairing(self, tmp_path):
        inp_u, out_u = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp_u), "--output", str(out_u))
        inp_t, _ = demo_paths(tmp_path, "theta-planar")
        assert run("validate", "--embedding", str(out_u), "--input", str(inp_t)) == 1

    def test_counts_mismatch(self, tmp_path, capsys):
        """A z-stick split in two at an unmarked point is one stick to the
        audit, so document counts raised to match the split disagree."""
        inp, out = demo_paths(tmp_path, "trefoil")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        i, s = next((i, s) for i, s in enumerate(doc["sticks"]) if s["axis"] == "z")
        mid = [*s["start"][:2], s["start"][2] + 1]
        assert mid[2] < s["end"][2]
        doc["sticks"][i:i + 1] = [
            {"axis": "z", "start": s["start"], "end": mid},
            {"axis": "z", "start": mid, "end": s["end"]},
        ]
        (edge,) = doc["edges"]
        line = edge["polyline"]
        ends = sorted((s["start"], s["end"]))
        j = next(j for j, leg in enumerate(zip(line, line[1:])) if sorted(leg) == ends)
        line.insert(j + 1, mid)
        doc["counts"]["z"] += 1
        doc["counts"]["total"] += 1
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("validate", "--embedding", str(out), "--input", str(inp)) == 1
        outp = capsys.readouterr().out
        assert "self-avoiding: True" in outp
        assert "reconstruction: ok" in outp
        assert "counts mismatch: document says StickCounts(x=4, y=4, z=6)" in outp
        assert "audit found StickCounts(x=4, y=4, z=5)" in outp

    def test_bound_violated(self, tmp_path, capsys):
        """A clean trefoil with a detour through y = -1 has 15 sticks, two
        more than the construction bound."""
        inp, out = demo_paths(tmp_path, "trefoil")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        (edge,) = doc["edges"]
        line = edge["polyline"]
        # the first leg leaves the vertex straight up
        assert line[:2] == [[1, 0, 0], [1, 0, 3]]
        line[1:1] = [[1, -1, 0], [1, -1, 3]]
        doc["sticks"] = [s for s in doc["sticks"] if s["start"] != [1, 0, 0] or s["axis"] != "z"]
        doc["sticks"] += [
            {"axis": "y", "start": [1, -1, 0], "end": [1, 0, 0]},
            {"axis": "z", "start": [1, -1, 0], "end": [1, -1, 3]},
            {"axis": "y", "start": [1, -1, 3], "end": [1, 0, 3]},
        ]
        doc["counts"] = {"x": 4, "y": 6, "z": 5, "total": 15}
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("validate", "--embedding", str(out), "--input", str(inp)) == 1
        outp = capsys.readouterr().out
        assert "self-avoiding: True" in outp
        assert "reconstruction: ok" in outp
        assert "counts mismatch" not in outp
        assert "bound violated: built 15 sticks, bounds: construction 13, crossing 13" in outp

    @pytest.mark.parametrize(
        "edit",
        [
            {"construction_bound": 999, "alpha_total": 1, "total_within_bounds": False},
            {"alpha_total": 6},
            {"construction_bound": 14},
            {"crossing_bound": None},
            {"crossing_bound": 12},
            {"total_within_bounds": False},
        ],
    )
    def test_bounds_report_mismatch(self, tmp_path, capsys, edit):
        """A document whose ``bounds_report`` differs from the recomputed
        one in any value fails validation, with both reports printed."""
        inp, out = demo_paths(tmp_path, "trefoil")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        doc["bounds_report"].update(edit)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("validate", "--embedding", str(out), "--input", str(inp)) == 1
        outp = capsys.readouterr().out
        assert "stick count 13 <= bound 13" in outp
        assert f"bounds_report mismatch: document says {doc['bounds_report']}, " in outp
        assert (
            "recomputed {'alpha_total': 5, 'construction_bound': 13, "
            "'crossing_bound': 13, 'total_within_bounds': True}"
        ) in outp

    @pytest.mark.parametrize(
        "edit",
        [
            {"alpha_total": "5"},
            {"alpha_total": True},
            {"construction_bound": 13.0},
            {"construction_bound": None},
            {"crossing_bound": "13"},
            {"crossing_bound": False},
            {"total_within_bounds": 1},
            {"total_within_bounds": None},
        ],
    )
    def test_bounds_report_wrong_type(self, tmp_path, capsys, edit):
        """A ``bounds_report`` value of the wrong type is a syntax error:
        ``True`` is no integer and ``1`` no boolean, though they compare
        equal."""
        inp, out = demo_paths(tmp_path, "trefoil")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        doc["bounds_report"].update(edit)
        with pytest.raises(DocumentError, match="bounds_report"):
            embedding_from_document(doc)
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("validate", "--embedding", str(out), "--input", str(inp)) == 2
        assert capsys.readouterr().err.startswith("error: bounds_report ")

    def test_missing_embedding_is_a_syntax_error(self, tmp_path, capsys):
        inp, _ = demo_paths(tmp_path, "trefoil")
        missing = tmp_path / "nowhere.json"
        assert run("validate", "--embedding", str(missing), "--input", str(inp)) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")

    def test_schema_error_is_syntactic(self, tmp_path):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        del doc["counts"]
        out.write_text(json.dumps(doc))
        assert run("validate", "--embedding", str(out), "--input", str(inp)) == 2


class TestBound:
    def test_trefoil_bounds(self, tmp_path, capsys):
        inp, _ = demo_paths(tmp_path, "trefoil")
        assert run("bound", "--input", str(inp), "--crossings", "3") == 0
        outp = capsys.readouterr().out
        assert "construction bound: 13" in outp
        assert "crossing bound: 13" in outp

    def test_negative_crossings_is_a_usage_error(self, tmp_path, capsys):
        inp, _ = demo_paths(tmp_path, "trefoil")
        capsys.readouterr()
        assert run("bound", "--input", str(inp), "--crossings", "-7") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --crossings must be a nonnegative integer")

    def test_theta_bound(self, tmp_path, capsys):
        inp, _ = demo_paths(tmp_path, "theta-planar")
        assert run("bound", "--input", str(inp)) == 0
        outp = capsys.readouterr().out
        assert "construction bound: 8" in outp
        assert "crossing bound" not in outp
        assert "[ok]" in outp


class TestInvariant:
    def test_trefoil_determinant(self, tmp_path, capsys):
        inp, out = demo_paths(tmp_path, "trefoil")
        run("build", "--input", str(inp), "--output", str(out))
        assert run("invariant", "--embedding", str(out), "--component", "t") == 0
        assert "determinant: 3" in capsys.readouterr().out

    def test_unknot_trivial(self, tmp_path, capsys):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        assert run("invariant", "--embedding", str(out), "--component", "u") == 0
        assert "determinant: 1" in capsys.readouterr().out

    def test_theta_not_a_cycle(self, tmp_path):
        inp, out = demo_paths(tmp_path, "theta-planar")
        run("build", "--input", str(inp), "--output", str(out))
        assert run("invariant", "--embedding", str(out), "--component", "th") == 1

    def test_component_id_with_slash(self, tmp_path, capsys):
        """Edge ids are ``<component>/e<i>``, so a component id may itself
        hold a slash."""
        doc = json.loads(json.dumps(DEMOS["trefoil"]))
        doc["components"][0]["id"] = "t/1"
        inp, out = tmp_path / "in.json", tmp_path / "emb.json"
        inp.write_text(json.dumps(doc))
        assert run("build", "--input", str(inp), "--output", str(out)) == 0
        capsys.readouterr()
        assert run("invariant", "--embedding", str(out), "--component", "t/1") == 0
        assert "determinant: 3" in capsys.readouterr().out
        # a component whose id prefixes another's keeps its own edges
        other = json.loads(json.dumps(DEMOS["unknot"]))["components"][0]
        other["binding_points"][0]["vertex"] = "w"
        doc["components"] = [{**doc["components"][0], "id": "a"}, {**other, "id": "a/b"}]
        inp.write_text(json.dumps(doc))
        assert run("build", "--input", str(inp), "--output", str(out)) == 0
        capsys.readouterr()
        assert run("invariant", "--embedding", str(out), "--component", "a") == 0
        assert "determinant: 3" in capsys.readouterr().out

    def test_self_intersecting_embedding(self, tmp_path, capsys):
        """A well-formed document whose one edge crosses itself has no
        generic projection: the command names the contact and exits 1."""
        line = [[0, 1, 0], [2, 1, 0], [2, 0, 0], [1, 0, 0], [1, 2, 0], [0, 2, 0], [0, 1, 0]]
        pairs = [sorted((p, q)) for p, q in zip(line, line[1:])]
        doc = {
            "sticks": [
                {"axis": "xy"[a[0] == b[0]], "start": a, "end": b} for a, b in pairs
            ],
            "vertices": [{"id": "v", "position": [0, 1, 0]}],
            "edges": [{"id": "k/e0", "polyline": line}],
            "counts": {"x": 3, "y": 3, "z": 0, "total": 6},
            "bounds_report": {
                "alpha_total": 1,
                "construction_bound": 6,
                "crossing_bound": None,
                "total_within_bounds": True,
            },
        }
        path = tmp_path / "crossed.json"
        path.write_text(json.dumps(doc))
        assert run("invariant", "--embedding", str(path), "--component", "k") == 1
        err = capsys.readouterr().err
        assert err == "error: embedding is not self-avoiding: cross at (1, 1, 0)\n"


class TestExport:
    def test_rectangle_obj(self, tmp_path):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        obj = tmp_path / "u.obj"
        assert run("export", "--embedding", str(out), "--format", "obj", "--output", str(obj)) == 0
        text = obj.read_text()
        v_lines = [l for l in text.splitlines() if l.startswith("v ")]
        l_lines = [l for l in text.splitlines() if l.startswith("l ")]
        assert len(v_lines) == 4 and len(l_lines) == 4
        assert text.endswith("\n")

    def test_byte_stable(self, tmp_path):
        inp, out = demo_paths(tmp_path, "trefoil")
        run("build", "--input", str(inp), "--output", str(out))
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        run("export", "--embedding", str(out), "--format", "obj", "--output", str(a))
        run("export", "--embedding", str(out), "--format", "obj", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output(self, tmp_path, capsys):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        obj = tmp_path / "missing" / "u.obj"
        capsys.readouterr()
        code = run("export", "--embedding", str(out), "--format", "obj", "--output", str(obj))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {obj}: ")

    def test_unknown_format(self, tmp_path):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        assert run("export", "--embedding", str(out), "--format", "stl", "--output", str(tmp_path / "x")) == 2


class TestDocuments:
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    @pytest.mark.parametrize(
        "command, role",
        [
            ("build", "input"),
            ("validate", "embedding"),
            ("validate", "input"),
            ("bound", "input"),
            ("invariant", "embedding"),
            ("export", "embedding"),
        ],
    )
    def test_unreadable_file_is_a_syntax_error(self, tmp_path, capsys, command, role, case):
        """Every file a command reads exits 2 with ``error: cannot read``."""
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        bad = tmp_path / "bad.json"
        bad.write_bytes(UNREADABLE[case])
        paths = {"input": inp, "embedding": out, role: bad}
        sink = tmp_path / "written"
        args = {
            "build": ["--input", paths["input"], "--output", sink],
            "validate": ["--embedding", paths["embedding"], "--input", paths["input"]],
            "bound": ["--input", paths["input"]],
            "invariant": ["--embedding", paths["embedding"], "--component", "u"],
            "export": ["--embedding", paths["embedding"], "--format", "obj", "--output", sink],
        }[command]
        capsys.readouterr()
        assert run(command, *map(str, args)) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")
        assert not sink.exists()

    def test_sticks_polyline_consistency_enforced(self, tmp_path):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        doc["sticks"][0], doc["sticks"][1] = doc["sticks"][1], doc["sticks"][0]
        embedding_from_document(doc)  # order does not matter
        doc["sticks"] = doc["sticks"][1:]
        doc["counts"]["total"] -= 1
        axis = doc["sticks"][0]["axis"]
        doc["counts"][axis] -= 0  # counts now inconsistent with polylines
        with pytest.raises(DocumentError):
            embedding_from_document(doc)

    def test_diagonal_stick_rejected(self, tmp_path):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        doc["sticks"][0]["end"] = [v + 1 for v in doc["sticks"][0]["start"]]
        out.write_text(json.dumps(doc))
        assert run("validate", "--embedding", str(out), "--input", str(inp)) == 2

    @pytest.mark.parametrize("command", ["validate", "invariant"])
    @pytest.mark.parametrize("edit", sorted(MALFORMED_EMBEDDINGS))
    def test_malformed_embedding_is_a_syntax_error(self, tmp_path, capsys, command, edit):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        MALFORMED_EMBEDDINGS[edit](doc)
        out.write_text(json.dumps(doc))
        extra = ["--input", str(inp)] if command == "validate" else ["--component", "u"]
        capsys.readouterr()
        assert run(command, "--embedding", str(out), *extra) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key", ["sticks", "vertices", "edges", "polyline"])
    def test_non_list_embedding_field_rejected(self, tmp_path, key):
        inp, out = demo_paths(tmp_path, "unknot")
        run("build", "--input", str(inp), "--output", str(out))
        doc = json.loads(out.read_text())
        if key == "polyline":
            doc["edges"][0]["polyline"] = 5
        else:
            doc[key] = 5
        with pytest.raises(DocumentError):
            embedding_from_document(doc)

    @pytest.mark.parametrize("command", ["build", "bound"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_LABELS))
    def test_malformed_label_is_a_syntax_error(self, tmp_path, capsys, command, case):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED_LABELS[case]))
        extra = ["--output", str(tmp_path / "o.json")] if command == "build" else []
        assert run(command, "--input", str(bad), *extra) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_arc_from_to_any_order(self):
        doc = {
            "components": [
                {
                    "id": "u",
                    "binding_points": [{"index": 1, "vertex": "v"}, {"index": 2}],
                    "arcs": [
                        {"page": 1, "from": 2, "to": 1},
                        {"page": 2, "from": 1, "to": 2},
                    ],
                }
            ]
        }
        spec = spec_from_document(doc)
        assert spec.components[0].presentation.arcs[0].lo == 1
