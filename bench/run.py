#!/usr/bin/env python3
"""Certified-build benchmark for latticestick.

    python3 bench/run.py --workload knots --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each generated input document goes
through ``latticestick.cli.main(["build", ...])`` (and on ``knots`` the
emitted document through ``main(["invariant", ...])``) only after the
previous input has finished, so the command line's own validation, recount
and bound check stay inside the measured path.  The package is imported
from ``src/`` next to this directory; nothing is installed.

The seed fixes a pool of distinct inputs.  The loop passes over the pool
again and again until ``--seconds`` have gone by (the first pass always
completes).  Right before and right after each request a fixed calibration
loop is timed, and the request's times are reported in reference seconds:
seconds scaled by ``REFERENCE_S`` over the mean calibration time, which
takes out the machine's changes of speed.  Each input's latency is the median over every build of
the same document in the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under the pass-through timers of
``tracing.py`` and reports the per-layer metrics and the tracing overhead.
Either way every emitted document passes the correctness gate after the
loop.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a gate failure exits with code 1, a
missing program with code 2.

Workloads, metrics and the predictions they test are described in
README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PACKAGE = "latticestick"

SETUP_REPEATS = 7
# Times are reported in reference seconds: seconds times REFERENCE_S over the
# calibration loop's time measured around the request.  The loop takes about
# 4 ms on the machine the numbers in README.md come from, at its usual speed.
REFERENCE_S = 0.004
CALIBRATION_TERMS = 2000
# Rounds in the pool of distinct inputs: enough inputs that the median and
# the tail fall well inside one stratum, few enough that a 30 s run builds
# each of them twice or more.
POOL_ROUNDS = {"knots": 2, "split_forest": 6, "cut_trees": 6}
# The tail is the highest percentile with this many inputs beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "build_p50_s": "s",
    "build_tail_s": "s",
    "certified_per_s": "1/s",
    "peak_rss_mb": "MB",
}
RUN_LAYER_METRICS = {
    "build_fail_frac": "ratio",
    "bound_slack": "count",
    "invariant_p50_s": "s",
    "invariant_tail_s": "s",
    "io.doc_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


@dataclass
class Input:
    index: int
    name: str
    doc: dict
    text: str
    path: Path
    out: Path
    component: str | None


@dataclass
class Attempt:
    """One request; times in seconds, ``scale`` turns them into reference
    seconds."""

    input: Input
    traced: bool
    scale: float
    build_s: float
    ok: bool
    message: str = ""
    inv_s: float | None = None
    det: int | None = None
    sha: str | None = None


@dataclass
class Typical:
    """One input's outcome and its median times, in reference seconds."""

    input: Input
    ok: bool
    build: float
    request: float
    invariant: float | None
    builds: int


def calibrate():
    """Time a fixed piece of exact rational arithmetic."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


# --- set-up ------------------------------------------------------------------

def import_program():
    """Import the package afresh from ``src/``; returns its modules by name."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(f"{PACKAGE}.cli")
    lib = {n: sys.modules[f"{PACKAGE}.{n}"] for n in ("cli", "errors", "graph", "io", "validate")}
    origin = Path(lib["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: {PACKAGE} was imported from {origin}, not from {SRC}")
    return lib


def write_inputs(workload, seed, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "in").mkdir(parents=True)
    (workdir / "out").mkdir()
    inputs = []
    for items in workloads.generate(workload, seed, POOL_ROUNDS[workload]):
        for name, doc, component in items:
            stem = f"{len(inputs):04d}-{name}"
            path = workdir / "in" / f"{stem}.json"
            text = json.dumps(doc, indent=2) + "\n"
            path.write_text(text, encoding="utf-8")
            out = workdir / "out" / f"{stem}.emb.json"
            inputs.append(Input(len(inputs), name, doc, text, path, out, component))
    return inputs


def setup(workload, seed, workdir):
    """Import, generate and write the inputs ``SETUP_REPEATS`` times; the
    reported set-up time is the median, in reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_S / calibrate()
        t0 = perf_counter()
        lib = import_program()
        inputs = write_inputs(workload, seed, workdir)
        times.append((perf_counter() - t0) * scale)
    return statistics.median(times), lib, inputs


# --- the closed loop ---------------------------------------------------------

def call(cli, argv):
    """Run one command in-process; a crash is a failed request, not a
    failed benchmark."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception as exc:
        return None, f"crash {type(exc).__name__}: {exc}"
    return rc, sink.getvalue()


def attempt(cli, inp, traced):
    """One request, timed between two calibrations; its scale uses their
    mean, which follows a change of machine speed during the request."""
    before = calibrate()
    a = request(cli, inp, traced)
    a.scale = REFERENCE_S / statistics.fmean((before, calibrate()))
    return a


def request(cli, inp, traced):
    t0 = perf_counter()
    rc, text = call(cli, ["build", "--input", str(inp.path), "--output", str(inp.out)])
    a = Attempt(inp, traced, 0.0, perf_counter() - t0, rc == 0, "" if rc == 0 else text.strip())
    if not a.ok:
        return a
    if inp.component is not None:
        t0 = perf_counter()
        rc, text = call(
            cli, ["invariant", "--embedding", str(inp.out), "--component", inp.component]
        )
        a.inv_s = perf_counter() - t0
        if rc == 0 and "determinant:" in text:
            a.det = int(text.rsplit("determinant:", 1)[1].split()[0])
        else:
            a.message = text.strip()
    a.sha = hashlib.sha256(inp.out.read_bytes()).hexdigest()
    return a


def closed_loop(cli, inputs, seconds, tracer=None):
    """Passes over ``inputs`` until ``seconds`` have gone by.

    The first pass always completes.  With a tracer, passes alternate
    untraced and traced, and the first traced pass completes too.
    """
    attempts = []
    t0 = perf_counter()
    whole = 2 if tracer is not None else 1
    passes = 0
    while passes < whole or perf_counter() - t0 < seconds:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            for inp in inputs:
                if passes >= whole and perf_counter() - t0 >= seconds:
                    break
                if traced:
                    tracer.input_id = len(attempts)
                attempts.append(attempt(cli, inp, traced))
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
    return attempts, perf_counter() - t0, passes


def typical(attempts):
    """Input index -> Typical, with the medians over every given attempt on
    the same document (a pool may hold one document more than once)."""
    by_text: dict[str, list[Attempt]] = {}
    for a in attempts:
        by_text.setdefault(a.input.text, []).append(a)
    out = {}
    for a in attempts:
        if a.input.index in out:
            continue
        group = by_text[a.input.text]
        invs = [g.inv_s * g.scale for g in group if g.inv_s is not None]
        out[a.input.index] = Typical(
            a.input,
            a.ok,
            statistics.median(g.build_s * g.scale for g in group),
            statistics.median((g.build_s + (g.inv_s or 0.0)) * g.scale for g in group),
            statistics.median(invs) if invs else None,
            len(group),
        )
    return out


# --- correctness gate --------------------------------------------------------

def gate(lib, attempts):
    """Check every emitted document apart from the build that wrote it, and
    that every attempt on one input gave the same outcome.

    Returns (problems, {input index: bound slack} of the certified inputs).
    """
    problems = []
    first: dict[int, Attempt] = {}
    for a in attempts:
        f = first.setdefault(a.input.index, a)
        if (a.ok, a.sha, a.det) != (f.ok, f.sha, f.det):
            problems.append(f"{a.input.path.name}: repeated build gave a different outcome")
        if a.ok and a.input.component is not None and a.det is None:
            problems.append(f"{a.input.path.name}: invariant failed: {a.message}")
    errors = (lib["errors"].LatticeStickError, lib["io"].DocumentError, OSError, ValueError)
    slack = {}
    for index, a in sorted(first.items()):
        if not a.ok:
            continue
        name = a.input.path.name
        try:
            data = a.input.out.read_bytes()
            if hashlib.sha256(data).hexdigest() != a.sha:
                problems.append(f"{name}: emitted document changed after the build")
                continue
            emb, counts = lib["io"].embedding_from_document(json.loads(data))
            spec = lib["io"].spec_from_document(a.input.doc)
            cens = lib["graph"].census(spec)
            report = lib["validate"].full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
            bounds = lib["validate"].check_bound(
                report.counts, cens, cens.alpha_total, spec.declared_crossings
            )
        except errors as exc:
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if not report.clean:
            problems.append(f"{name}: audit not clean: {report.violations[:3]}")
        if report.counts != counts:
            problems.append(f"{name}: document counts {counts} != audit {report.counts}")
        if a.det is not None and a.det % 2 == 0:
            problems.append(f"{name}: even knot determinant {a.det}")
        slack[index] = bounds.construction_bound - report.counts.total
    return problems, slack


def digest(attempts):
    """SHA-256 over every input's outcome: the emitted document's bytes (or
    the failure) and the knot determinant."""
    h = hashlib.sha256()
    for _, a in sorted({a.input.index: a for a in attempts}.items()):
        h.update(a.input.path.name.encode() + b"\0")
        h.update(a.input.out.read_bytes() if a.ok else b"FAILED")
        h.update(b"\0" + str(a.det).encode() + b"\n")
    return h.hexdigest()


# --- statistics --------------------------------------------------------------

def ranked_latency(samples):
    """Nearest-rank p50 and tail of (seconds, ok) samples.

    A failed input ranks slower than every success; where a rank falls on
    one, the value reported is the slowest success, the least the failure
    can be said to have cost.  Returns (p50, tail, tail percentile).
    """
    succ = sorted(s for s, ok in samples if ok)
    fail = sorted(s for s, ok in samples if not ok)
    ranked = succ + [succ[-1] if succ else f for f in fail]
    n = len(ranked)
    mid = math.ceil(n / 2)
    tail_rank = max(n - TAIL_BEYOND, mid)
    return ranked[mid - 1], ranked[tail_rank - 1], 100.0 * tail_rank / n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tracing_overhead(untraced, traced):
    """Traced over untraced request time, on the inputs that have both."""
    both = untraced.keys() & traced.keys()
    if not both:
        return 0.0
    return sum(traced[i].request for i in both) / sum(untraced[i].request for i in both) - 1.0


# --- main --------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    setup_s, lib, inputs = setup(args.workload, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    attempts, wall_s, passes = closed_loop(lib["cli"], inputs, args.seconds, tracer)
    rss = peak_rss_mb()
    t0 = perf_counter()
    problems, slack = gate(lib, attempts)
    gate_s = perf_counter() - t0

    plain = [a for a in attempts if not a.traced]
    per_input = typical(plain)
    n_fail = sum(not t.ok for t in per_input.values())
    certified = len(per_input) - n_fail
    repeats = sorted({t.builds for t in per_input.values()})
    p50, tail, tail_pct = ranked_latency([(t.build, t.ok) for t in per_input.values()])
    invs = [(t.invariant, True) for t in per_input.values() if t.invariant is not None]
    inv_p50, inv_tail, inv_pct = ranked_latency(invs) if invs else (0.0, 0.0, 0.0)
    request = sum(t.request for t in per_input.values())

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(inputs)} inputs, "
        f"{passes} passes, {len(attempts)} builds in {wall_s:.2f} s; "
        f"{n_fail} inputs failed, {certified} certified; "
        f"calibration took {statistics.median(REFERENCE_S / a.scale for a in attempts) * 1e3:.2f} ms"
    )
    print(f"gate: {len(slack)} certified documents checked in {gate_s:.2f} s")
    print(f"digest sha256={digest(attempts)} over {len(per_input)} inputs")
    print(f"bound slack: {sum(slack.values())}")
    failing = {a.input.index: a for a in attempts if not a.ok}
    for a in list(failing.values())[:5]:
        print(f"failed {a.input.path.name}: {(a.message.splitlines() or [''])[-1]}")
    if invs:
        print(
            f"invariant p50 {inv_p50:.4f} s, tail {inv_tail:.4f} s (reference) "
            f"(p{inv_pct:.1f} of {len(invs)} inputs)"
        )

    notes = {}
    if tracer is not None:
        traced = [a for a in attempts if a.traced]
        overhead = tracing_overhead(per_input, typical(traced))
        values = tracing.layer_metrics(
            tracer.spans,
            len(traced),
            sum(a.inv_s is not None for a in traced),
            [i for i, a in enumerate(attempts) if a.traced and not a.ok],
            {i: a.scale for i, a in enumerate(attempts) if a.traced},
        )
        values.update(
            {
                "build_fail_frac": n_fail / len(per_input),
                "bound_slack": sum(slack.values()),
                "invariant_p50_s": inv_p50,
                "invariant_tail_s": inv_tail,
                "io.doc_bytes": statistics.fmean(
                    [t.input.out.stat().st_size for t in per_input.values() if t.ok] or [0]
                ),
                "trace.overhead_frac": overhead,
                "trace.spans": len(tracer.spans),
            }
        )
        units = {n: u for n, (u, _) in tracing.LAYER_METRICS.items()} | RUN_LAYER_METRICS
        if tracer.missing:
            print(f"missing wrap targets (their metrics read 0): {', '.join(tracer.missing)}")
        print(f"tracing overhead {overhead:+.1%} (traced over untraced request time)")
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": setup_s,
            "build_p50_s": p50,
            "build_tail_s": tail,
            "certified_per_s": certified / request,
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        each = "-".join(map(str, sorted({repeats[0], repeats[-1]})))
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "build_p50_s": f"p50 of {len(per_input)} inputs, each the median of "
            f"{each} builds of its document",
            "build_tail_s": f"p{tail_pct:.1f} of {len(per_input)} inputs",
            "certified_per_s": f"{certified} certified / {request:.2f} s of median requests",
        }
    for name, v in values.items():
        print(f"  {name:32s} {v:14.6g} {units[name]:6s} {notes.get(name, '')}")
    for p in problems:
        print(f"GATE: {p}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": len(attempts),
        "failed": sum(not a.ok for a in attempts),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
