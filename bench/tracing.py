"""Pass-through span timers around the program's functions, from outside it.

``Tracer.install`` replaces each target function, in every loaded
``latticestick.*`` module that holds it, by a wrapper that records a span
(target, start, end, parent span, input id, exception class, and a count
read from the call) and then returns or raises exactly what the original
did.  Targets are found by object identity, so a name brought in with
``from .validate import check_self_avoiding`` is wrapped as well.  A target
that no longer exists is listed in ``missing`` instead of failing the run.
Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _check_info(args, kwargs, result):
    # (sticks compared, no contact found)
    return [len(args[0]), not result]


def _single_arc_components(args, kwargs, result):
    return sum(1 for c in args[0].components if c.presentation.alpha == 1)


def _largest_coordinate(args, kwargs, result):
    return max(int(c) for c in result.bbox[1])


def _diagram_size(args, kwargs, result):
    return [len(result.segments), len(result.crossings)]


def _strands(args, kwargs, result):
    return sum(1 for _, over in result.visits if not over)


# target -> function of (args, kwargs, result) giving the span's count
TARGETS = {
    "cli.cmd_build": None,
    "cli.cmd_invariant": None,
    "io.load_spec": None,
    "io.embedding_to_document": None,
    "io.load_embedding": None,
    "graph.validate_spec": None,
    "graph.census": None,
    "graph.derive_edges": None,
    "graph.classify_component": None,
    "graph.build_cut_tree": None,
    "build.build_component": None,
    "build.side_slide": None,
    "build._slide_ok": lambda args, kwargs, result: bool(result),
    "assembly.build_full": None,
    "assembly.assemble": lambda args, kwargs, result: len(result.sticks),
    "assembly.apply_merges": None,
    "assembly.straighten_arcs": _single_arc_components,
    "assembly.derive_traces": None,
    "assembly.normalize": _largest_coordinate,
    "validate.check_self_avoiding": _check_info,
    "validate.full_audit": None,
    "validate.check_bound": None,
    "invariants.project_generic": _diagram_size,
    "invariants.extract_knot_cycle": _strands,
    "invariants.knot_determinant": None,
}

PACKAGE = "latticestick"


class Span:
    __slots__ = ("name", "input_id", "start", "end", "parent", "error", "info")

    def __init__(self, name, input_id, start, parent):
        self.name = name
        self.input_id = input_id
        self.start = start
        self.end = None
        self.parent = parent
        self.error = None
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.input_id = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.input_id, 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = perf_counter()
                if info is not None:
                    try:
                        span.info = info(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError, ValueError):
                        span.info = None
                return result
            finally:
                stack.pop()

        return traced

    def install(self):
        self.missing = []
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for target, info in TARGETS.items():
            mod_name, _, fn_name = target.rpartition(".")
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(mod, fn_name, None) if mod is not None else None
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original, info)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._installed.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "input": s.input_id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "error": s.error,
                            "info": s.info,
                        }
                    )
                    + "\n"
                )


# --- per-layer metrics ---------------------------------------------------------

CHECK_CALLERS = {
    "build._slide_ok": "slide",
    "assembly.assemble": "stack",
    "assembly.apply_merges": "merge",
    "assembly.straighten_arcs": "straighten",
    "validate.full_audit": "audit",
}

# name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "build.component_s": ("s", "lower"),
    "build.slide_ok_ratio": ("ratio", "higher"),
    "assembly.assemble_s": ("s", "lower"),
    "assembly.sticks_stacked": ("count", "lower"),
    "assembly.merge_s": ("s", "lower"),
    "assembly.merge_trial_ratio": ("ratio", "higher"),
    "assembly.straighten_s": ("s", "lower"),
    "assembly.straighten_ratio": ("ratio", "higher"),
    "assembly.traces_s": ("s", "lower"),
    "assembly.normalize_s": ("s", "lower"),
    "assembly.coord_bits": ("bits", "lower"),
    "validate.check_calls": ("count", "lower"),
    "validate.check_s": ("s", "lower"),
    "validate.check_pairs": ("count", "lower"),
    **{f"validate.check_s.{c}": ("s", "lower") for c in CHECK_CALLERS.values()},
    "validate.audit_s": ("s", "lower"),
    "validate.bound_s": ("s", "lower"),
    "graph.validate_spec_calls": ("count", "lower"),
    "graph.census_calls": ("count", "lower"),
    "graph.derive_edges_calls": ("count", "lower"),
    "graph.classify_calls": ("count", "lower"),
    "graph.cut_tree_s": ("s", "lower"),
    "cli.build_self_s": ("s", "lower"),
    "io.load_spec_s": ("s", "lower"),
    "io.to_document_s": ("s", "lower"),
    "io.load_embedding_s": ("s", "lower"),
    "invariants.project_s": ("s", "lower"),
    "invariants.gauss_s": ("s", "lower"),
    "invariants.det_s": ("s", "lower"),
    "invariants.segments": ("count", "lower"),
    "invariants.crossings": ("count", "lower"),
    "invariants.strands": ("count", "lower"),
    "fail.NoFreeDirection": ("count", "lower"),
    "fail.BoundViolated": ("count", "lower"),
    "fail.other": ("count", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], builds: int, invariants: int, failed_inputs, scale):
    """Per-layer numbers from the spans of one traced run.

    Times and counts on the build path are means per build attempted; those
    on the invariant path are means per invariant run.  ``failed_inputs``
    holds the input ids of the failed builds, and ``scale`` maps an input id
    to the factor that turns its seconds into reference seconds.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    by_name = defaultdict(list)
    duration = [s.duration * scale.get(s.input_id, 1.0) for s in spans]
    for i, s in enumerate(spans):
        total[s.name] += duration[i]
        calls[s.name] += 1
        by_name[s.name].append(i)
        if s.parent is not None:
            child_time[s.parent] += duration[i]

    def named(name):
        return [spans[i] for i in by_name[name]]

    def caller(s):
        return spans[s.parent].name if s.parent is not None else None

    def per_build(v):
        return _ratio(v, builds)

    def per_inv(v):
        return _ratio(v, invariants)

    slides = [s for s in named("build._slide_ok") if caller(s) == "build.side_slide"]
    checks = named("validate.check_self_avoiding")
    merge_checks = [s for s in checks if caller(s) == "assembly.apply_merges"]
    straighten_checks = [s for s in checks if caller(s) == "assembly.straighten_arcs"]
    single_arcs = sum(s.info or 0 for s in named("assembly.straighten_arcs"))
    check_by_caller = defaultdict(float)
    for i in by_name["validate.check_self_avoiding"]:
        check_by_caller[CHECK_CALLERS.get(caller(spans[i]))] += duration[i]
    diagrams = [s.info for s in named("invariants.project_generic") if s.info]

    errors = {
        s.input_id: s.error for s in named("assembly.build_full") if s.error is not None
    }
    fails = defaultdict(int)
    for input_id in failed_inputs:
        err = errors.get(input_id)
        fails[err if err in ("NoFreeDirection", "BoundViolated") else "other"] += 1

    self_build = sum(duration[i] - child_time[i] for i in by_name["cli.cmd_build"])
    values = {
        "build.component_s": per_build(total["build.build_component"]),
        "build.slide_ok_ratio": _ratio(sum(1 for s in slides if s.info), len(slides)),
        "assembly.assemble_s": per_build(total["assembly.assemble"]),
        "assembly.sticks_stacked": per_build(
            sum(s.info or 0 for s in named("assembly.assemble"))
        ),
        "assembly.merge_s": per_build(total["assembly.apply_merges"]),
        "assembly.merge_trial_ratio": _ratio(
            sum(1 for s in merge_checks if s.info and s.info[1]), len(merge_checks)
        ),
        "assembly.straighten_s": per_build(total["assembly.straighten_arcs"]),
        "assembly.straighten_ratio": _ratio(
            sum(1 for s in straighten_checks if s.info and s.info[1]), single_arcs
        ),
        "assembly.traces_s": per_build(total["assembly.derive_traces"]),
        "assembly.normalize_s": per_build(total["assembly.normalize"]),
        "assembly.coord_bits": max(
            (int(s.info).bit_length() for s in named("assembly.normalize") if s.info),
            default=0,
        ),
        "validate.check_calls": per_build(calls["validate.check_self_avoiding"]),
        "validate.check_s": per_build(total["validate.check_self_avoiding"]),
        "validate.check_pairs": per_build(
            sum(n * (n - 1) // 2 for n, _ in (s.info for s in checks if s.info))
        ),
        **{
            f"validate.check_s.{c}": per_build(check_by_caller[c])
            for c in CHECK_CALLERS.values()
        },
        "validate.audit_s": per_build(total["validate.full_audit"]),
        "validate.bound_s": per_build(total["validate.check_bound"]),
        "graph.validate_spec_calls": per_build(calls["graph.validate_spec"]),
        "graph.census_calls": per_build(calls["graph.census"]),
        "graph.derive_edges_calls": per_build(calls["graph.derive_edges"]),
        "graph.classify_calls": per_build(calls["graph.classify_component"]),
        "graph.cut_tree_s": per_build(total["graph.build_cut_tree"]),
        "cli.build_self_s": per_build(self_build),
        "io.load_spec_s": per_build(total["io.load_spec"]),
        "io.to_document_s": per_build(total["io.embedding_to_document"]),
        "io.load_embedding_s": per_inv(total["io.load_embedding"]),
        "invariants.project_s": per_inv(total["invariants.project_generic"]),
        "invariants.gauss_s": per_inv(total["invariants.extract_knot_cycle"]),
        "invariants.det_s": per_inv(total["invariants.knot_determinant"]),
        "invariants.segments": per_inv(sum(d[0] for d in diagrams)),
        "invariants.crossings": per_inv(sum(d[1] for d in diagrams)),
        "invariants.strands": per_inv(
            sum(s.info or 0 for s in named("invariants.extract_knot_cycle"))
        ),
        "fail.NoFreeDirection": fails["NoFreeDirection"],
        "fail.BoundViolated": fails["BoundViolated"],
        "fail.other": fails["other"],
    }
    return values
