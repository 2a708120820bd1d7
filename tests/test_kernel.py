"""The certification kernel imports no build code.

``geom``, ``arcs``, ``graph``, ``bounds``, ``errors``, ``validate``, ``io``
and ``invariants`` certify a document against its input on their own.  A
fresh interpreter loads them with the package ``__init__`` bypassed (it
imports the build for the public names), certifies a built trefoil, and must
not have loaded ``assembly``, ``build``, ``cli`` or ``fixtures``.  The
source is also read: no kernel module names a build module in any import
statement, a function-local one included, and no module under
``src/latticestick`` imports ``fractions``.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import latticestick
from latticestick.assembly import build_full
from latticestick.fixtures import DEMOS
from latticestick.io import embedding_document_text, spec_from_document

BUILD_MODULES = {f"latticestick.{name}" for name in ("assembly", "build", "cli", "fixtures")}
KERNEL = ("geom", "arcs", "graph", "bounds", "errors", "validate", "io", "invariants")
PACKAGE = Path(latticestick.__file__).parent

# argv: the package directory, the embedding document, the input document
CERTIFY = """
import json, sys, types

package = types.ModuleType("latticestick")
package.__path__ = [sys.argv[1]]
sys.modules["latticestick"] = package

from latticestick.graph import census
from latticestick.invariants import extract_knot_cycle, knot_determinant, project_generic
from latticestick.io import load_embedding, load_spec
from latticestick.validate import check_bound, full_audit

emb, counts = load_embedding(sys.argv[2])
spec = load_spec(sys.argv[3])
cens = census(spec)
report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
assert report.clean and report.counts == counts
assert check_bound(report.counts, cens, cens.alpha_total, spec.declared_crossings).ok
gauss = extract_knot_cycle(project_generic(emb, {"t"}), "t")
print(json.dumps([knot_determinant(gauss), sorted(sys.modules)]))
"""


def test_kernel_certifies_without_the_build(tmp_path):
    emb, counts, bounds = build_full(spec_from_document(DEMOS["trefoil"]))
    embedding = tmp_path / "trefoil.emb.json"
    embedding.write_text(embedding_document_text(emb, counts, bounds))
    spec = tmp_path / "trefoil.json"
    spec.write_text(json.dumps(DEMOS["trefoil"]))
    done = subprocess.run(
        [sys.executable, "-c", CERTIFY, str(PACKAGE), str(embedding), str(spec)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    determinant, modules = json.loads(done.stdout)
    assert determinant == 3
    assert {"latticestick.validate", "latticestick.io", "latticestick.invariants"} <= set(modules)
    assert not BUILD_MODULES & set(modules), sorted(BUILD_MODULES & set(modules))


def imported_names(source: str) -> set[str]:
    """Every module an import statement anywhere in ``source`` names, as
    absolute dotted names inside ``latticestick``: ``from .x import y`` and
    ``from latticestick.x import y`` give ``latticestick.x`` and
    ``latticestick.x.y``, ``from . import x`` gives ``latticestick.x``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["latticestick" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def builds_named(names: set[str]) -> set[str]:
    return {n for n in names if ".".join(n.split(".")[:2]) in BUILD_MODULES}


def test_import_reader_sees_every_form():
    source = """
import fractions
from fractions import Fraction
import latticestick.assembly as a
from latticestick.cli import main
from latticestick import fixtures
def f():
    from .build import build_component
    from . import geom, build
from .geom import stick
from .validate import build_fullish
"""
    names = imported_names(source)
    assert {"fractions", "fractions.Fraction"} <= names
    assert builds_named(names) == {
        "latticestick.assembly",
        "latticestick.cli",
        "latticestick.cli.main",
        "latticestick.fixtures",
        "latticestick.build",
        "latticestick.build.build_component",
    }


def test_kernel_source_imports_no_build_module():
    for name in KERNEL:
        names = imported_names((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        assert not builds_named(names), (name, sorted(builds_named(names)))


def test_no_module_imports_fractions():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {m.stem for m in modules} >= set(KERNEL)
    for path in modules:
        names = imported_names(path.read_text(encoding="utf-8"))
        assert not {n for n in names if n.split(".")[0] == "fractions"}, path.name
