"""The benchmark's pinned digests and its traced smoke runs.

Each test runs ``bench/run.py --seconds 0`` in a subprocess with the
interpreter running the tests: one pass over the workload's pool always
completes, so every input is built once and its document checked by the
benchmark's correctness gate.  The digests pin the bytes of every emitted
document.  A traced run also keeps every trial visible to the tracer: no
wrap target is missing, census and the audit share one edge walk per
component, no slide checks contacts, and on ``cut_trees`` every merge trial
is kept and every input of a round builds with no straightening note.  A
traced run leaves its spans in ``.bench_work/spans-*.jsonl``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from latticestick.assembly import build_full
from latticestick.io import spec_from_document
from test_golden import _bench_workloads

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"

# (workload, seed) -> the sha256 that bench/run.py prints over its documents
DIGESTS = {
    ("knots", 11): "d2500422f9f0a163478608d261caa94606b5df57dae07d7b5e3f575de2c3172f",
    ("split_forest", 11): "d57e5ae14e644314c72418da342d4c3d67be7f32861b84c409470eea30899012",
    ("cut_trees", 11): "7e94c142073adca2e74332e8f65b21aaccd3c33ed0b08d609efa8ee3a8887ea6",
    # two more seeds through the merge path
    ("cut_trees", 3): "c88732734dad16d081a234a42ff762ac6b8c40bab6dd7335b8a549d8faafe776",
    ("cut_trees", 7): "94447256af269aac83877b35b6d9e05644febd7f8dda2606b9da6d8c946da70c",
}


def run_bench(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    """One pass of the benchmark: its standard output and the last line's
    result object, after checking the digest, ``correct`` and ``failed``."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"digest sha256={DIGESTS[workload, seed]} " in proc.stdout, proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    return proc.stdout, result


@pytest.mark.parametrize("workload", ["knots", "split_forest", "cut_trees"])
def test_traced_run_keeps_every_trial_visible(workload):
    out, result = run_bench(workload, 11, trace=1)
    assert "missing wrap targets" not in out
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # one edge walk per component: census and the audit share the edges
    assert m["graph.derive_edges_calls"] == m["graph.classify_calls"], m
    # slides are decided from the column axes: no slide checks contacts
    assert m["validate.check_s.slide"] == 0, m
    if workload == "cut_trees":
        assert m["assembly.merge_trial_ratio"] == 1, m
        # straightening makes no trial for the tracer to count: every link
        # of one round straightens, which no note of the build contradicts
        for _, doc, _ in _bench_workloads().generate(workload, 11, 1)[0]:
            emb, _, _ = build_full(spec_from_document(doc))
            assert not [w for w in emb.warnings if "straighten" in w], emb.warnings


@pytest.mark.parametrize("seed", [3, 7])
def test_cut_trees_digest(seed):
    run_bench("cut_trees", seed, trace=0)
