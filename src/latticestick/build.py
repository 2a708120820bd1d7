"""Per-component construction: arc diagram, binding columns, side-sliding.

Coordinate convention: binding point ``i`` sits at ``(i, i)`` on the plane
and each arc (page ``p``, endpoints ``lo < hi``) is realised below the
diagonal as an elbow through ``(hi, lo, p)``:

* an x-stick ``{y = lo, z = p, x in [lo, hi]}``
* a y-stick ``{x = hi, z = p, y in [lo, hi]}``

Arcs sharing a binding point are joined by vertical sticks at that point's
column, through the pages of its arcs.  The elbow point of an arc never
moves; side-sliding only translates the first binding column in +x (to
``min hi`` of its arcs) and the last one in -y (to ``max lo``), which
shortens the attached sticks and deletes the ones whose span collapses.  So
a component's state is two integers, the first column's x and the last
one's y.  Lemma: whatever the two are, the sticks meet only at shared ends
unless columns 1 and beta share an axis, as every other stick lies inside
its fresh one and meets a moved column only at its own end.  So a slide is
kept exactly when the axes differ; no slide regenerates or checks sticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .arcs import ArcPresentation, incident_levels
from .geom import Stick, Vec3, stick
from .graph import ComponentClass, ComponentSpec
from .validate import check_self_avoiding  # noqa: F401  (bench/test_bench.py wraps this name)


@dataclass
class ComponentBuild:
    """Working state of one component in its local integer frame."""

    comp_id: str
    pres: ArcPresentation
    cls: ComponentClass
    # column 1's x and column beta's y, the two that slide; column i is otherwise at (i, i)
    first_x: int
    last_y: int
    warnings: list[str] = field(default_factory=list)

    def column_axis(self, bp: int) -> tuple[int, int]:
        return (self.first_x if bp == 1 else bp, self.last_y if bp == self.pres.beta else bp)

    def column_zrange(self, bp: int) -> tuple[int, int]:
        levels = incident_levels(self.pres, bp)
        return (levels[0], levels[-1])

    def vertex_bp(self, label: str) -> int:
        return {lab: bp for bp, lab in self.pres.labels.items()}[label]

    def sticks(self) -> list[Stick]:
        """Regenerate the stick list from the current column positions."""
        out: list[Stick] = []
        cid = self.comp_id
        for a in self.pres.arcs:
            x_start = self.column_axis(a.lo)[0]
            y_end = self.column_axis(a.hi)[1]
            if x_start < a.hi:
                out.append(stick((x_start, a.lo, a.page), (a.hi, a.lo, a.page), cid))
            if y_end > a.lo:
                out.append(stick((a.hi, a.lo, a.page), (a.hi, y_end, a.page), cid))
        for bp in range(1, self.pres.beta + 1):
            levels = incident_levels(self.pres, bp)
            x, y = self.column_axis(bp)
            for z1, z2 in zip(levels, levels[1:]):
                out.append(stick((x, y, z1), (x, y, z2)))
        return out

    def knot_corner(self) -> Vec3 | None:
        """Bend point hosting the vertex marker of a lone circle component.

        The elbow of the lowest-page arc at the vertex's binding point is a
        corner of the final polygon whatever the slides did, so placing the
        degree-2 vertex there never splits a straight stick.
        """
        if self.cls is not ComponentClass.KNOT:
            return None
        arc = self.pres.arcs_at(next(iter(self.pres.labels)))[0]
        return (arc.hi, arc.lo, arc.page)


def build_arc_diagram(comp: ComponentSpec, cls: ComponentClass) -> ComponentBuild:
    """Stack each arc's elbow on the z-level given by its page number; the
    binding columns are implied by the parametric state."""
    pres = comp.presentation
    return ComponentBuild(comp.id, pres, cls, first_x=1, last_y=pres.beta)


def _slide_ok(build: ComponentBuild) -> bool:
    """Whether ``build``'s sticks meet only at shared ends.

    Lemma: for any ``first_x`` and ``last_y`` in 1..beta they do when
    ``column_axis(1) != column_axis(beta)``.  Proof: each elbow stick lies
    inside its fresh one, losing at most its end on a moved column, and the
    fresh diagram is clean (elbows lie on distinct pages, columns meet them
    at their ends), so elbow sticks and the fixed columns (i, i) of
    1 < i < beta meet only where both end.  Column 1's line ``x = first_x,
    y = 1`` holds no fixed column (1 < i), and the only horizontals reaching
    it are x-sticks of arcs with lo = 1 and y-sticks of arcs with lo = 1 and
    hi = first_x, each ending there at one of column 1's levels.  Column
    beta is the mirror case, so only the two moved columns can meet, on one
    axis.  The slides make the axes equal only at the last one, when every
    arc at 1 and at beta is an arc (1, beta): both columns then stand on the
    same levels and overlap (no single arc slides).
    """
    return build.column_axis(1) != build.column_axis(build.pres.beta)


def side_slide(build: ComponentBuild) -> ComponentBuild:
    """Translate the first column in +x and the last in -y, absorbing the
    shortest attached stick(s); either move is skipped when it would
    degenerate or collide, which is reported but never fatal."""
    if build.cls is ComponentClass.ARC:
        return build
    pres = build.pres
    slides = (
        ("first", "first_x", min(a.hi for a in pres.arcs_at(1))),
        ("last", "last_y", max(a.lo for a in pres.arcs_at(pres.beta))),
    )
    for where, coord, target in slides:
        trial = replace(build, **{coord: target})
        if _slide_ok(trial):
            build = trial
        else:
            build.warnings.append(f"{build.comp_id}: side slide at {where} binding point blocked")
    return build


def build_component(comp: ComponentSpec, cls: ComponentClass) -> ComponentBuild:
    return side_slide(build_arc_diagram(comp, cls))
