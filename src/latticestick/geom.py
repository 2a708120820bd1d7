"""Exact axis-parallel segment geometry on the integer lattice.

Every coordinate is a Python ``int``: a build works on one integer grid
whose unit ``assembly`` chooses, so there are no tolerances.  A stick
is a closed segment parallel to one of the three axes with strictly positive
length.  Contact classification between two sticks reduces to interval
arithmetic per coordinate, since the intersection of two axis-parallel
segments is the intersection of their bounding boxes.  So two
parallel sticks can meet only on one line, and two perpendicular sticks only
in one plane, the one fixing the coordinate of the third axis in both; the
self-avoidance check compares only such pairs, in index-pair order.
"""

from __future__ import annotations

from dataclasses import dataclass

Vec3 = tuple[int, int, int]


@dataclass(frozen=True)
class Stick:
    """Closed axis-parallel segment from ``a`` to ``b`` (ordered along its axis).

    ``comp`` names the component whose arcs the stick realises: an elbow
    stick, the vertical stick that replaces a straightened arc, or a piece a
    merge cut from one of them.  Columns, connectors and fused runs carry
    ``""``.  The tag is metadata and never affects geometry.
    """

    a: Vec3
    b: Vec3
    comp: str = ""

    @property
    def axis(self) -> int:
        a, b = self.a, self.b
        if a[0] != b[0]:
            return 0
        if a[1] != b[1]:
            return 1
        if a[2] != b[2]:
            return 2
        raise ValueError(f"zero-length stick at {a}")

    @property
    def length(self) -> int:
        i = self.axis
        return self.b[i] - self.a[i]

    def ends(self) -> tuple[Vec3, Vec3]:
        return (self.a, self.b)

    def has_end(self, p: Vec3) -> bool:
        return p == self.a or p == self.b

    def direction_from(self, p: Vec3) -> tuple[int, int, int]:
        """Unit direction pointing from endpoint ``p`` into the stick."""
        if p == self.a:
            other = self.b
        elif p == self.b:
            other = self.a
        else:
            raise ValueError(f"{p} is not an endpoint")
        return tuple(
            0 if other[i] == p[i] else (1 if other[i] > p[i] else -1) for i in range(3)
        )


def stick(a: Vec3, b: Vec3, comp: str = "") -> Stick:
    """Build a stick, normalising endpoint order and rejecting degeneracy."""
    if (a[0] != b[0]) + (a[1] != b[1]) + (a[2] != b[2]) != 1:
        raise ValueError(f"not axis-parallel or zero length: {a} -> {b}")
    if a > b:
        a, b = b, a
    return Stick(a, b, comp)


def transform(s: Stick, scale: int, offset: Vec3) -> Stick:
    """Scale ``s`` by a positive integer, then translate it by ``offset``."""
    return Stick(transform_point(s.a, scale, offset), transform_point(s.b, scale, offset), s.comp)


def transform_point(p: Vec3, scale: int, offset: Vec3) -> Vec3:
    return tuple(scale * c + o for c, o in zip(p, offset))


def contact(s: Stick, t: Stick):
    """Classify the contact between two sticks.

    Returns ``None`` when disjoint, ``("endpoint", p)`` when they share exactly
    one point that is an endpoint of both, and otherwise a violation tuple:
    ``("overlap", p)`` for collinear interior overlap, ``("t_contact", p)``
    when an endpoint of one lies in the interior of the other, ``("cross", p)``
    for an interior-interior crossing.
    """
    (sax, say, saz), (sbx, sby, sbz) = s.a, s.b
    (tax, tay, taz), (tbx, tby, tbz) = t.a, t.b
    # the boxes' intersection [lo, hi], axis by axis, stopping at the first empty one
    lx = sax if sax > tax else tax
    hx = sbx if sbx < tbx else tbx
    if lx > hx:
        return None
    ly = say if say > tay else tay
    hy = sby if sby < tby else tby
    if ly > hy:
        return None
    lz = saz if saz > taz else taz
    hz = sbz if sbz < tbz else tbz
    if lz > hz:
        return None
    p = (lx, ly, lz)
    if lx != hx or ly != hy or lz != hz:
        return ("overlap", p)
    on_s_end = p == s.a or p == s.b
    on_t_end = p == t.a or p == t.b
    if on_s_end and on_t_end:
        return ("endpoint", p)
    if on_s_end or on_t_end:
        return ("t_contact", p)
    return ("cross", p)


def collinear(s: Stick, t: Stick) -> bool:
    """True when the two sticks lie on one axis-parallel line."""
    if s.axis != t.axis:
        return False
    fixed = [i for i in range(3) if i != s.axis]
    return all(s.a[i] == t.a[i] for i in fixed)
