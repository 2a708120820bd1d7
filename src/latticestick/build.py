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
kept exactly when the axes differ, which after the first slide they always
do.  ``assemble`` makes each stick once, at its final scale and offset, with
``Stick`` and no check: ``ComponentBuild.sticks`` gives the proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .arcs import ArcPresentation
from .geom import Stick, Vec3
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

    def vertex_bp(self, label: str) -> int:
        return {lab: bp for bp, lab in self.pres.labels.items()}[label]

    def sticks(self, scale: int, origin: Vec3) -> list[Stick]:
        """The sticks of the current column positions, made once at ``scale *
        local + origin`` by ``Stick``: a positive ``scale`` keeps the order
        construction fixes, ``x_start < hi`` and ``lo < y_end`` on an elbow and
        ascending levels (pages, distinct in a valid presentation) on a column."""
        ox, oy, oz = origin
        comp_id, first_x, last_y, beta = self.comp_id, self.first_x, self.last_y, self.pres.beta
        out: list[Stick] = []
        for a in self.pres.arcs:
            lo, hi = a.lo, a.hi
            x, y, z = scale * hi + ox, scale * lo + oy, scale * a.page + oz
            x_start = first_x if lo == 1 else lo
            y_end = last_y if hi == beta else hi
            if x_start < hi:
                out.append(Stick((scale * x_start + ox, y, z), (x, y, z), comp_id))
            if y_end > lo:
                out.append(Stick((x, y, z), (x, scale * y_end + oy, z), comp_id))
        for bp in range(1, beta + 1):
            x = scale * (first_x if bp == 1 else bp) + ox
            y = scale * (last_y if bp == beta else bp) + oy
            zs = [scale * a.page + oz for a in self.pres.incidence.get(bp, ())]
            out.extend(Stick((x, y, z1), (x, y, z2)) for z1, z2 in zip(zs, zs[1:]))
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
    shortest attached stick(s).  The first slide is always made: it leaves
    column 1 on (first_x, 1) and column beta on (beta, beta), which differ
    as beta >= 2.  The last is skipped when ``_slide_ok`` finds the two
    columns on one axis, which is reported but never fatal."""
    if build.cls is ComponentClass.ARC:
        return build
    pres = build.pres
    build = replace(build, first_x=min(a.hi for a in pres.arcs_at(1)))
    trial = replace(build, last_y=max(a.lo for a in pres.arcs_at(pres.beta)))
    if _slide_ok(trial):
        return trial
    build.warnings.append(f"{build.comp_id}: side slide at last binding point blocked")
    return build


def build_component(comp: ComponentSpec, cls: ComponentClass) -> ComponentBuild:
    return side_slide(build_arc_diagram(comp, cls))
