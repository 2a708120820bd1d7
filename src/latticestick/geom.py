"""Exact axis-parallel segment geometry on the integer lattice.

Every coordinate is a Python ``int``, so there are no tolerances.  A stick
is an immutable closed segment of positive length parallel to one axis, its
ends in order along it (the stick contract, which the audit certifies).  Two
sticks meet where their bounding boxes do: parallel ones only on one line,
perpendicular ones only in the plane fixing their common third coordinate.

``LatticeEmbedding`` is the finished embedding, as a build returns it and a
document loads to it.
"""

from __future__ import annotations

from dataclasses import dataclass

Vec3 = tuple[int, int, int]


class Stick:
    """Closed axis-parallel segment from ``a`` to ``b`` (ordered along its axis),
    taken as given: unlike ``stick()``, it neither checks nor orders the ends.

    ``comp`` names the component whose arcs the stick realises: an elbow
    stick, the vertical stick that replaces a straightened arc, or a piece a
    merge cut from one of them.  Columns, connectors and fused runs carry
    ``""``.  The tag is metadata and never affects geometry.  A stick is
    immutable, and equal, hashed and printed as a frozen dataclass of the
    three fields would be; slots filled through their descriptors make it
    about three times cheaper to build, and faster to read than a named tuple.
    """

    __slots__ = ("a", "b", "comp")

    def __init__(self, a: Vec3, b: Vec3, comp: str = "") -> None:
        _set_a(self, a)
        _set_b(self, b)
        _set_comp(self, comp)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.comp) == (other.a, other.b, other.comp)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.comp))

    def __repr__(self):
        return f"Stick(a={self.a!r}, b={self.b!r}, comp={self.comp!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, never through __setattr__
        return (Stick, (self.a, self.b, self.comp))

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

    def ends(self) -> tuple[Vec3, Vec3]:
        return (self.a, self.b)

    def has_end(self, p: Vec3) -> bool:
        return p == self.a or p == self.b

    def direction_from(self, p: Vec3) -> tuple[int, int, int]:
        """Unit direction pointing from endpoint ``p`` into the stick."""
        if p != self.a and p != self.b:
            raise ValueError(f"{p} is not an endpoint")
        other = self.b if p == self.a else self.a
        return tuple((o > c) - (o < c) for o, c in zip(other, p))


_set_a, _set_b, _set_comp = (Stick.__dict__[name].__set__ for name in Stick.__slots__)


def stick(a: Vec3, b: Vec3, comp: str = "") -> Stick:
    """Build a stick, normalising endpoint order and rejecting degeneracy."""
    if (a[0] != b[0]) + (a[1] != b[1]) + (a[2] != b[2]) != 1:
        raise ValueError(f"not axis-parallel or zero length: {a} -> {b}")
    if a > b:
        a, b = b, a
    return Stick(a, b, comp)


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


@dataclass(frozen=True)
class LatticeEmbedding:
    """An integer-coordinate embedding, built or loaded from a document.

    ``sticks`` are the fused sticks, one per counted stick, read off the
    edge ``traces`` in edge id order.  A built embedding's coordinates on
    each axis are the ranks 0, 1, 2, ... of that axis's distinct values; a
    loaded one sits where its document put it.
    """

    sticks: tuple[Stick, ...]
    markers: dict[str, Vec3]
    traces: dict[str, list[Vec3]]
    warnings: tuple[str, ...] = ()

    @property
    def bbox(self) -> tuple[Vec3, Vec3]:
        """The (min, max) corners of the sticks' bounding box."""
        axes = list(zip(*(p for s in self.sticks for p in (s.a, s.b))))
        return tuple(map(min, axes)), tuple(map(max, axes))
