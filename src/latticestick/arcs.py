"""Arc presentations: pages, binding points and their consistency laws.

A component's presentation lists binding points 1..beta along the axis and
arcs, one per page 1..alpha, each joining two distinct binding points.
Binding points either carry a vertex label or are interior points of an edge,
in which case exactly two arcs must meet there.

A presentation tabulates the arcs at each binding point, in page order, once
on first use; degrees, column levels and beta are read from that table, but
beta also counts every binding point the input lists, so that validation
rejects a listed point no arc meets wherever it sits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import UnknownBindingPoint


@dataclass(frozen=True)
class Arc:
    page: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"arc endpoints must satisfy lo < hi, got {self.lo}, {self.hi}")


@dataclass(frozen=True)
class ArcPresentation:
    """Arcs plus vertex labels keyed by binding index (1-based); ``points``,
    if nonzero, is how many binding points the input lists, all in beta."""

    arcs: tuple[Arc, ...]
    labels: dict[int, str] = field(default_factory=dict)
    points: int = 0

    @property
    def alpha(self) -> int:
        return len(self.arcs)

    @cached_property
    def incidence(self) -> dict[int, tuple[Arc, ...]]:
        """Binding point -> the arcs meeting it, in page order."""
        table: dict[int, list[Arc]] = {}
        for a in sorted(self.arcs, key=lambda arc: arc.page):
            table.setdefault(a.lo, []).append(a)
            table.setdefault(a.hi, []).append(a)
        return {bp: tuple(arcs) for bp, arcs in table.items()}

    @cached_property
    def beta(self) -> int:
        beta = max(self.incidence, default=0)
        return max(beta, self.points) if self.points else beta

    def arcs_at(self, bp: int) -> tuple[Arc, ...]:
        return self.incidence.get(bp, ())

    def degree(self, bp: int) -> int:
        return len(self.arcs_at(bp))


def presentation(arc_pairs, labels=None) -> ArcPresentation:
    """Build a presentation from (lo, hi) pairs in page order."""
    arcs = tuple(Arc(page, lo, hi) for page, (lo, hi) in enumerate(arc_pairs, start=1))
    return ArcPresentation(arcs, dict(labels or {}))


def incident_levels(pres: ArcPresentation, bp: int) -> list[int]:
    """Page numbers of the arcs meeting binding point ``bp``, in page order."""
    if not (1 <= bp <= pres.beta):
        raise UnknownBindingPoint(f"binding point {bp} outside 1..{pres.beta}")
    return [a.page for a in pres.arcs_at(bp)]


def validate_presentation(pres: ArcPresentation) -> list[str]:
    """Return all structural violations of a presentation."""
    problems: list[str] = []
    alpha = pres.alpha
    pages = sorted(a.page for a in pres.arcs)
    if pages != list(range(1, alpha + 1)):
        problems.append(f"pages are not a bijection with 1..{alpha}: {pages}")
    beta = pres.beta
    for a in pres.arcs:
        if not (1 <= a.lo < a.hi <= beta):
            problems.append(f"arc page {a.page} endpoints {a.lo},{a.hi} out of range 1..{beta}")
    for bp in range(1, beta + 1):
        d = len(pres.incidence.get(bp, ()))
        if d == 0:
            problems.append(f"binding point {bp} has no incident arc")
        elif bp not in pres.labels and d != 2:
            problems.append(f"unlabeled binding point {bp} has degree {d}, expected 2")
    for bp in pres.labels:
        if not (1 <= bp <= beta):
            problems.append(f"label on nonexistent binding point {bp}")
    if len(set(pres.labels.values())) != len(pres.labels):
        problems.append("duplicate vertex label inside one component")
    return problems
