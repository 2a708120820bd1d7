"""Self-tests of the benchmark itself (not of the program it measures).

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.ROUNDS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = workloads.generate(workload, 7, 2)
    assert first == workloads.generate(workload, 7, 2)
    assert first != workloads.generate(workload, 8, 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_generated_input_is_valid(workload):
    from latticestick.graph import validate_spec
    from latticestick.io import spec_from_document

    for seed in (1, 2):
        for items in workloads.generate(workload, seed, run.POOL_ROUNDS[workload]):
            for name, doc, _ in items:
                assert validate_spec(spec_from_document(doc)) == [], name


def test_bound_violated_reproduction_is_valid_input():
    from latticestick.graph import validate_spec
    from latticestick.io import load_spec

    assert validate_spec(load_spec(HERE / "repro_bound_violated.json")) == []


def test_random_cut_trees_are_valid_input():
    from latticestick.graph import validate_spec
    from latticestick.io import spec_from_document

    for i in range(20):
        doc = workloads.tree_input(random.Random(i))
        assert validate_spec(spec_from_document(doc)) == [], i


def test_failures_rank_after_every_success():
    samples = [(0.1, True)] * 15 + [(0.01, False)] * 11 + [(0.5, True)]
    p50, tail, pct = run.ranked_latency(samples)
    assert p50 == 0.1
    # rank 17 of 27 is a failure: reported as the slowest success
    assert tail == 0.5 and pct == pytest.approx(100 * 17 / 27)


def test_tail_never_below_median():
    samples = [(float(i), True) for i in range(1, 8)]
    p50, tail, _ = run.ranked_latency(samples)
    assert tail >= p50


def test_wrappers_found_by_identity():
    import latticestick.assembly as assembly
    import latticestick.build as build
    import latticestick.cli  # noqa: F401  (loads every module, as a run does)
    import latticestick.validate as validate

    original = validate.check_self_avoiding
    saved = dict(tracing.TARGETS)
    tracing.TARGETS["graph.no_such_function"] = None
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = validate.check_self_avoiding
        assert wrapped is not original
        assert build.check_self_avoiding is wrapped
        assert assembly.check_self_avoiding is wrapped
        assert tracer.missing == ["graph.no_such_function"]
    finally:
        tracer.uninstall()
        tracing.TARGETS.clear()
        tracing.TARGETS.update(saved)
    assert build.check_self_avoiding is original


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _digest(stdout):
    return next(line for line in stdout.splitlines() if line.startswith("digest "))


def test_traced_and_untraced_runs_agree():
    args = ["--workload", "knots", "--seed", "3", "--seconds", "1"]
    plain = _run(ROOT, *args, "--trace", "0")
    traced = _run(ROOT, *args, "--trace", "1")
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert _digest(plain.stdout) == _digest(traced.stdout)
    result = json.loads(traced.stdout.splitlines()[-1])
    assert result["correct"]
    assert result["metrics"]["invariants.det_s"]["value"] > 0


def test_fails_without_the_program():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _run(bare, "--workload", "knots", "--seed", "1", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout
