"""Per-component construction: arc diagram, binding columns, side-sliding.

Coordinate convention: binding point ``i`` sits at ``(i, i)`` on the plane
and each arc (page ``p``, endpoints ``lo < hi``) is realised below the
diagonal as an elbow through ``(hi, lo, p)``:

* an x-stick ``{y = lo, z = p, x in [lo, hi]}``
* a y-stick ``{x = hi, z = p, y in [lo, hi]}``

Arcs sharing a binding point are joined by vertical sticks at ``(i, i)``.
The elbow point of an arc never moves; side-sliding only translates the
first binding column in +x (to ``min hi`` of its arcs) and the last one in
-y (to ``max lo``), which shortens the attached sticks and deletes the ones
whose span collapses.  The whole component stays parametric in the column
positions, so a slide is: move one column coordinate, regenerate, validate,
and keep or revert.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .arcs import ArcPresentation, incident_levels
from .geom import Stick, Vec3, stick
from .graph import ComponentClass, ComponentSpec
from .validate import check_self_avoiding


@dataclass
class ComponentBuild:
    """Working state of one component in its local integer frame."""

    comp_id: str
    pres: ArcPresentation
    cls: ComponentClass
    # Column positions: col_x[i] is the x of binding column i (moves only for
    # the first binding point), col_y[i] its y (moves only for the last).
    col_x: dict[int, int] = field(default_factory=dict)
    col_y: dict[int, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def beta(self) -> int:
        return self.pres.beta

    def column_axis(self, bp: int) -> tuple[int, int]:
        return (self.col_x[bp], self.col_y[bp])

    def column_zrange(self, bp: int) -> tuple[int, int]:
        levels = incident_levels(self.pres, bp)
        return (levels[0], levels[-1])

    def vertex_bp(self, label: str) -> int:
        for bp, lab in self.pres.labels.items():
            if lab == label:
                return bp
        raise KeyError(label)

    def sticks(self) -> list[Stick]:
        """Regenerate the stick list from the current column positions."""
        out: list[Stick] = []
        cid = self.comp_id
        for a in self.pres.arcs:
            x_start = self.col_x[a.lo]
            y_end = self.col_y[a.hi]
            if x_start < a.hi:
                out.append(stick((x_start, a.lo, a.page), (a.hi, a.lo, a.page), cid))
            if y_end > a.lo:
                out.append(stick((a.hi, a.lo, a.page), (a.hi, y_end, a.page), cid))
        for bp in range(1, self.beta + 1):
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
        bp = next(iter(self.pres.labels))
        arc = min(self.pres.arcs_at(bp), key=lambda a: a.page)
        return (arc.hi, arc.lo, arc.page)


def build_arc_diagram(comp: ComponentSpec, cls: ComponentClass) -> ComponentBuild:
    """Stack each arc's elbow on the z-level given by its page number; the
    binding columns are implied by the parametric state."""
    pres = comp.presentation
    return ComponentBuild(
        comp_id=comp.id,
        pres=pres,
        cls=cls,
        col_x={i: i for i in range(1, pres.beta + 1)},
        col_y={i: i for i in range(1, pres.beta + 1)},
    )


def _slide_ok(build: ComponentBuild, moved_bp: int) -> bool:
    """Whether ``build``, whose column ``moved_bp`` just moved, is still free
    of contacts.

    Only sticks with an end on the moved column's axis are checked against
    the rest: every stick whose geometry depends on the moved coordinate has
    such an end, and every other pair is as in the state before the move,
    which was clean.  The fresh arc diagram is clean by construction: elbows
    of different arcs lie on different pages, and columns meet elbows only
    at their endpoints.
    """
    axes = [build.column_axis(bp) for bp in range(1, build.beta + 1)]
    if len(set(axes)) != len(axes):
        return False
    axis = build.column_axis(moved_bp)
    sticks = build.sticks()
    changed = [i for i, s in enumerate(sticks) if any(p[:2] == axis for p in s.ends())]
    return not check_self_avoiding(sticks, interior_only=True, changed=changed)


def side_slide(build: ComponentBuild) -> ComponentBuild:
    """Translate the first column in +x and the last in -y, absorbing the
    shortest attached stick(s); either move is skipped when it would
    degenerate or collide, which is reported but never fatal."""
    if build.cls is ComponentClass.ARC:
        return build
    beta = build.beta
    slides = (
        ("first", "col_x", 1, min(a.hi for a in build.pres.arcs_at(1))),
        ("last", "col_y", beta, max(a.lo for a in build.pres.arcs_at(beta))),
    )
    for where, cols, bp, target in slides:
        trial = replace(build, col_x=dict(build.col_x), col_y=dict(build.col_y))
        getattr(trial, cols)[bp] = target
        if _slide_ok(trial, bp):
            build = trial
        else:
            build.warnings.append(f"{build.comp_id}: side slide at {where} binding point blocked")
    return build


def build_component(comp: ComponentSpec, cls: ComponentClass) -> ComponentBuild:
    return side_slide(build_arc_diagram(comp, cls))
