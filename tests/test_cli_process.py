"""The command line as separate processes.

Each case runs ``python -m latticestick.cli`` in a fresh interpreter with
``PYTHONPATH`` set to the ``src`` directory the package is imported from, as
a shell would, and asserts its exit code, the start of its first stderr line
(no stderr at all on success) and that no traceback was printed.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import latticestick
from latticestick.fixtures import DEMOS
from test_golden import _bench_workloads

SRC = Path(latticestick.__file__).resolve().parent.parent


def cli(*args, code=0, err=None, cwd=None, timeout=120):
    """Run the command line with ``args`` and return its stdout; require exit
    ``code`` and a first stderr line starting with ``err``, or no stderr
    when ``err`` is None."""
    done = subprocess.run(
        [sys.executable, "-m", "latticestick.cli", *map(str, args)],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=cwd,
        timeout=timeout,
    )
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == code, (done.returncode, done.stdout, done.stderr)
    if err is None:
        assert done.stderr == ""
    else:
        assert done.stderr.splitlines()[0].startswith(err), done.stderr
    return done.stdout


def assert_indented(path):
    """A written embedding document is exactly the indent=2 JSON of its data."""
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.fixture(scope="module")
def trefoil(tmp_path_factory):
    """The trefoil demo and its built embedding, written by the command line."""
    out = tmp_path_factory.mktemp("trefoil")
    cli("demo", "--name", "trefoil", "--output", out / "in.json")
    cli("build", "--input", out / "in.json", "--output", out / "emb.json")
    return out / "in.json", out / "emb.json"


def test_trefoil_builds_validates_and_exports(trefoil, tmp_path):
    inp, emb = trefoil
    assert_indented(emb)
    assert "self-avoiding: True" in cli("validate", "--embedding", emb, "--input", inp)
    inv = cli("invariant", "--embedding", emb, "--component", "t")
    assert "determinant: 3" in inv.splitlines()
    cli("export", "--embedding", emb, "--format", "obj", "--output", tmp_path / "t.obj")
    assert (tmp_path / "t.obj").read_text().startswith("v ")


def test_tampered_bounds_report_fails_validation(trefoil, tmp_path):
    """A ``bounds_report`` that differs from the recomputed one: exit 1, with
    both printed."""
    inp, emb = trefoil
    doc = json.loads(emb.read_text())
    doc["bounds_report"].update(construction_bound=999, alpha_total=1, total_within_bounds=False)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    out = cli("validate", "--embedding", tampered, "--input", inp, code=1)
    assert any(line.startswith("bounds_report mismatch: ") for line in out.splitlines())


@pytest.mark.parametrize(
    "comp_id, written",
    [("t/1", '"id": "t/1/e'), ("tö", '"id": "t\\u00f6/e')],
    ids=["slash", "umlaut"],
)
def test_component_ids_round_trip(trefoil, tmp_path, comp_id, written):
    """Edge ids are ``<component>/e<i>``: a component id may hold a slash,
    and a non-ASCII one is written escaped and read back as itself."""
    doc = json.loads(trefoil[0].read_text())
    doc["components"][0]["id"] = comp_id
    inp, emb = tmp_path / "in.json", tmp_path / "emb.json"
    inp.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    cli("build", "--input", inp, "--output", emb)
    assert_indented(emb)
    assert written in emb.read_text(encoding="utf-8")
    inv = cli("invariant", "--embedding", emb, "--component", comp_id)
    assert "determinant: 3" in inv.splitlines()


# a well-formed embedding whose one edge crosses itself
CROSSED = {
    "sticks": [
        {"axis": "x", "start": [0, 1, 0], "end": [2, 1, 0]},
        {"axis": "y", "start": [2, 0, 0], "end": [2, 1, 0]},
        {"axis": "x", "start": [1, 0, 0], "end": [2, 0, 0]},
        {"axis": "y", "start": [1, 0, 0], "end": [1, 2, 0]},
        {"axis": "x", "start": [0, 2, 0], "end": [1, 2, 0]},
        {"axis": "y", "start": [0, 1, 0], "end": [0, 2, 0]},
    ],
    "vertices": [{"id": "v", "position": [0, 1, 0]}],
    "edges": [{"id": "k/e0", "polyline": [
        [0, 1, 0], [2, 1, 0], [2, 0, 0], [1, 0, 0], [1, 2, 0], [0, 2, 0], [0, 1, 0],
    ]}],
    "counts": {"x": 3, "y": 3, "z": 0, "total": 6},
    "bounds_report": {
        "alpha_total": 1, "construction_bound": 6, "crossing_bound": None,
        "total_within_bounds": True,
    },
}

# a single arc between two vertices: a link with nothing to link
ARC = {"components": [{
    "id": "a",
    "binding_points": [{"index": 1, "vertex": "u"}, {"index": 2, "vertex": "w"}],
    "arcs": [{"page": 1, "from": 1, "to": 2}],
}]}

# command, file written to the file argument, exit code, first stderr line
FAILURES = {
    "invalid-input": ("build --input {f} --output out.json", json.dumps(ARC), 1, "invalid: "),
    "self-crossing": (
        "invariant --embedding {f} --component k", json.dumps(CROSSED), 1,
        "error: embedding is not self-avoiding: cross at",
    ),
    "unknown-key": (
        "build --input {f} --output out.json", '{"components": [], "unknown_key": 1}', 2,
        "error: unknown keys ['unknown_key']",
    ),
    "not-utf8": (
        "build --input {f} --output out.json", b"\xff\xfe{}", 2, "error: cannot read {f}: "
    ),
    "too-deep": (
        "build --input {f} --output out.json", "[" * 100_000 + "]" * 100_000, 2,
        "error: cannot read {f}: ",
    ),
    "negative-crossings": (
        "bound --input {f} --crossings -1", json.dumps(DEMOS["trefoil"]), 2,
        "error: --crossings must be a nonnegative integer, got -1",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failures_exit_with_a_named_error(tmp_path, case):
    """A semantic failure exits 1, a syntactic or usage one 2, each with its
    message first on stderr and never a traceback."""
    command, content, code, err = FAILURES[case]
    f = tmp_path / "doc.json"
    if isinstance(content, bytes):
        f.write_bytes(content)
    else:
        f.write_text(content)
    cli(*(a.format(f=f) for a in command.split()), code=code, err=err.format(f=f), cwd=tmp_path)


def test_knot_with_80_arcs(tmp_path):
    """An 80-arc knot builds, and its determinant is taken, each within 30 s;
    the document shifted to put each axis's maximum at 0 projects to the
    same 927 crossings and determinant."""
    inp, emb = tmp_path / "knot80.json", tmp_path / "emb.json"
    inp.write_text(json.dumps(_bench_workloads().knot_input(random.Random(80), 80)))
    cli("build", "--input", inp, "--output", emb, timeout=30)
    inv = cli("invariant", "--embedding", emb, "--component", "k", timeout=30)
    assert "determinant: 6432713697327" in inv.splitlines()
    doc = json.loads(emb.read_text())
    points = [p for s in doc["sticks"] for p in (s["start"], s["end"])]
    points += [v["position"] for v in doc["vertices"]]
    points += [p for e in doc["edges"] for p in e["polyline"]]
    top = [max(p[a] for p in points) for a in range(3)]
    for p in points:
        p[:] = [c - t for c, t in zip(p, top)]
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps(doc))
    inv = cli("invariant", "--embedding", shifted, "--component", "k", timeout=30)
    assert inv.splitlines() == ["projection crossings: 927", "determinant: 6432713697327"]
