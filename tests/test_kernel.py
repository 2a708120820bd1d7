"""The certification kernel imports no build code.

``geom``, ``arcs``, ``graph``, ``bounds``, ``errors``, ``validate``, ``io``
and ``invariants`` certify a document against its input on their own.  A
fresh interpreter loads them with the package ``__init__`` bypassed (it
imports the build for the public names), certifies a built trefoil, and must
not have loaded ``assembly``, ``build``, ``cli`` or ``fixtures``.
"""

import json
import subprocess
import sys
from pathlib import Path

import latticestick
from latticestick.assembly import build_full
from latticestick.fixtures import DEMOS
from latticestick.io import embedding_document_text, spec_from_document

BUILD_MODULES = {f"latticestick.{name}" for name in ("assembly", "build", "cli", "fixtures")}

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
    package = Path(latticestick.__file__).parent
    done = subprocess.run(
        [sys.executable, "-c", CERTIFY, str(package), str(embedding), str(spec)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    determinant, modules = json.loads(done.stdout)
    assert determinant == 3
    assert {"latticestick.validate", "latticestick.io", "latticestick.invariants"} <= set(modules)
    assert not BUILD_MODULES & set(modules), sorted(BUILD_MODULES & set(modules))
