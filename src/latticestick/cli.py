"""Command line surface: build, validate, bound, invariant, export, demo.

Exit codes: 0 success, 1 semantic failure (validation, bounds, audits),
2 syntactic or usage failure (a missing or unreadable file, bad JSON, unknown
keys, unknown names).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .assembly import build_full
from .bounds import arc_index_upper, construction_count, crossing_stick_bound
from .errors import BoundViolated, DocumentError, InvalidSpec, LatticeStickError
from .fixtures import DEMOS
from .graph import census
from .invariants import extract_knot_cycle, knot_determinant, project_generic
from .io import (
    bounds_report,
    embedding_document_text,
    embedding_from_document,
    export_obj,
    load_embedding,
    load_spec,
    read_json,
)
from .validate import check_bound, full_audit


class UsageError(Exception):
    """An option value names nothing the command knows, or a path that
    cannot be written."""


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def cmd_build(args) -> int:
    spec = load_spec(args.input)
    emb, counts, bounds = build_full(spec)
    _write(args.output, embedding_document_text(emb, counts, bounds))
    for w in emb.warnings:
        print(f"note: {w}")
    print(f"sticks: x={counts.x} y={counts.y} z={counts.z} total={counts.total}")
    print(f"construction bound: {bounds.construction_bound}")
    if bounds.crossing_bound is not None:
        print(f"crossing bound: {bounds.crossing_bound}")
    print(f"wrote {args.output}")
    return 0


def cmd_validate(args) -> int:
    doc = read_json(args.embedding)
    emb, counts = embedding_from_document(doc)
    spec = load_spec(args.input)
    cens = census(spec)
    report = full_audit(list(emb.sticks), emb.markers, spec, cens.degrees)
    print(f"self-avoiding: {report.self_avoiding}")
    for kind, p in report.violations:
        print(f"  violation: {kind} at {p}")
    print(f"unmarked junctions: {len(report.unmarked_junctions)}")
    print(f"marker problems: {report.marker_problems or 'none'}")
    print(f"reconstruction: {'ok' if report.reconstruction_ok else report.reconstruction_diff}")
    ok = report.clean
    if report.counts != counts:
        print(f"counts mismatch: document says {counts}, audit found {report.counts}")
        ok = False
    try:
        bounds = check_bound(report.counts, cens, cens.alpha_total, spec.declared_crossings)
        print(f"stick count {report.counts.total} <= bound {bounds.construction_bound}")
    except BoundViolated as exc:
        print(f"bound violated: {exc}")
        ok = False
    else:
        declared, recomputed = doc["bounds_report"], bounds_report(bounds)
        if declared != recomputed:
            print(f"bounds_report mismatch: document says {declared}, recomputed {recomputed}")
            ok = False
    return 0 if ok else 1


def cmd_bound(args) -> int:
    if args.crossings is not None and args.crossings < 0:
        raise UsageError(f"--crossings must be a nonnegative integer, got {args.crossings}")
    spec = load_spec(args.input)
    cens = census(spec)
    print(
        f"census: e={cens.e} v={cens.v} s={cens.s} b={cens.b} k={cens.k} "
        f"alpha={cens.alpha_total}"
    )
    # census has enforced the binding-point law beta = alpha + v - e
    for comp in spec.components:
        pres = comp.presentation
        print(f"component {comp.id}: alpha={pres.alpha} binding points={pres.beta} [ok]")
    print(
        "construction bound: "
        f"{construction_count(cens.alpha_total, cens.e, cens.v, cens.s, cens.k)}"
    )
    crossings = args.crossings if args.crossings is not None else spec.declared_crossings
    if crossings is not None:
        print(f"arc index bound: {arc_index_upper(crossings, cens.e, cens.b)}")
        print(
            "crossing bound: "
            f"{crossing_stick_bound(crossings, cens.e, cens.v, cens.s, cens.b, cens.k)}"
        )
    return 0


def cmd_invariant(args) -> int:
    emb, _ = load_embedding(args.embedding)
    diagram = project_generic(emb, {args.component})
    gauss = extract_knot_cycle(diagram, args.component)
    print(f"projection crossings: {len(diagram.crossings)}")
    print(f"determinant: {knot_determinant(gauss)}")
    return 0


def cmd_export(args) -> int:
    if args.format != "obj":
        raise UsageError(f"unknown format {args.format}")
    emb, _ = load_embedding(args.embedding)
    _write(args.output, export_obj(emb))
    print(f"wrote {args.output}")
    return 0


def cmd_demo(args) -> int:
    if args.name not in DEMOS:
        raise UsageError(f"unknown demo {args.name}; choose from {', '.join(sorted(DEMOS))}")
    _write(args.output, json.dumps(DEMOS[args.name], indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticestick",
        description="Build and check axis-parallel lattice embeddings of spatial graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an embedding from an input document")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("validate", help="audit an embedding against its input")
    p.add_argument("--embedding", required=True)
    p.add_argument("--input", required=True)

    p = sub.add_parser("bound", help="print census and stick bounds")
    p.add_argument("--input", required=True)
    p.add_argument("--crossings", type=int)

    p = sub.add_parser("invariant", help="projection crossings and determinant of a knot cycle")
    p.add_argument("--embedding", required=True)
    p.add_argument("--component", required=True)

    p = sub.add_parser("export", help="export an embedding to OBJ")
    p.add_argument("--embedding", required=True)
    p.add_argument("--format", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("demo", help="write a named example input document")
    p.add_argument("--name", required=True)
    p.add_argument("--output", required=True)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    # Looked up when called, not stored in the cached parser, so a handler
    # replaced on the module (a wrapper, a test double) is the one that runs.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except InvalidSpec as exc:
        for p in exc.problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1
    except (DocumentError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatticeStickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
