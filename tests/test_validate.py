import pytest

from latticestick.errors import ReconstructionMismatch
from latticestick.geom import collinear, contact, point, stick
from latticestick.graph import ComponentSpec, SpatialGraphSpec
from latticestick.arcs import presentation
from latticestick.validate import (
    audit_junctions,
    check_self_avoiding,
    count_sticks,
    reconstruct_graph,
    walk_edges,
)


def xs(y, z, x1, x2, **kw):
    return stick(point(x1, y, z), point(x2, y, z), **kw)


def ys(x, z, y1, y2, **kw):
    return stick(point(x, y1, z), point(x, y2, z), **kw)


def zs(x, y, z1, z2, **kw):
    return stick(point(x, y, z1), point(x, y, z2), **kw)


# the four-stick rectangle: two vertical columns joined by two y-sticks
RECT = [ys(0, 0, 0, 1), ys(0, 1, 0, 1), zs(0, 0, 0, 1), zs(0, 1, 0, 1)]


class TestContact:
    def test_collinear_overlap(self):
        a = xs(0, 0, 0, 2)
        b = xs(0, 0, 1, 3)
        assert contact(a, b)[0] == "overlap"

    def test_interior_crossing(self):
        a = xs(0, 1, 0, 2)  # {y=0, z=1}
        assert contact(a, zs(1, 5, 0, 2)) is None  # different y: disjoint
        assert contact(a, zs(1, 0, 0, 2)) == ("cross", point(1, 0, 1))

    def test_t_contact(self):
        a = xs(0, 0, 0, 2)
        b = zs(1, 0, 0, 1)
        assert contact(a, b) == ("t_contact", point(1, 0, 0))

    def test_shared_endpoint(self):
        a = xs(0, 0, 0, 1)
        b = ys(1, 0, 0, 1)
        assert contact(a, b) == ("endpoint", point(1, 0, 0))

    def test_disjoint(self):
        assert contact(xs(0, 0, 0, 1), xs(5, 5, 0, 1)) is None

    def test_collinear_helper(self):
        assert collinear(xs(0, 0, 0, 1), xs(0, 0, 3, 4))
        assert not collinear(xs(0, 0, 0, 1), xs(1, 0, 3, 4))
        assert not collinear(xs(0, 0, 0, 1), ys(0, 0, 1, 2))


class TestSelfAvoiding:
    def test_rectangle_clean(self):
        assert check_self_avoiding(RECT, {"v": point(0, 0, 0)}) == []

    def test_overlap_reported(self):
        sticks = [xs(0, 0, 0, 2), xs(0, 0, 1, 3)]
        violations = check_self_avoiding(sticks)
        assert [v[0] for v in violations] == ["overlap"]

    def test_crossing_reported(self):
        sticks = [xs(0, 1, 0, 2), zs(1, 0, 0, 2)]
        violations = check_self_avoiding(sticks)
        assert [v[0] for v in violations] == ["cross"]

    def test_order_independent(self):
        sticks = [xs(0, 0, 0, 2), xs(0, 0, 1, 3), zs(5, 5, 0, 1)]
        a = check_self_avoiding(sticks)
        b = check_self_avoiding(list(reversed(sticks)))
        assert {(k, p) for k, p in a} == {(k, p) for k, p in b}

    def test_unmarked_three_way_corner(self):
        sticks = [xs(0, 0, 0, 1), ys(1, 0, 0, 1), zs(1, 0, 0, 1)]
        # all three share (1,0,0); without a marker that is junction abuse
        assert check_self_avoiding(sticks)
        assert check_self_avoiding(sticks, {"v": point(1, 0, 0)}) == []
        assert check_self_avoiding(sticks, interior_only=True) == []


class TestJunctions:
    def test_marked_junction_clean(self):
        sticks = [zs(0, 0, 0, 1), zs(0, 0, 1, 2), xs(0, 1, 0, 3)]
        unmarked, problems = audit_junctions(
            sticks, {"v": point(0, 0, 1)}, degrees={"v": 3}
        )
        assert unmarked == [] and problems == []

    def test_unmarked_junction_flagged(self):
        sticks = [zs(0, 0, 0, 1), zs(0, 0, 1, 2), xs(0, 1, 0, 3)]
        unmarked, _ = audit_junctions(sticks, {}, {})
        assert unmarked == [point(0, 0, 1)]

    def test_incidence_mismatch(self):
        _, problems = audit_junctions(RECT, {"v": point(0, 0, 0)}, degrees={"v": 3})
        assert any("incidence 2 != degree 3" in p for p in problems)

    def test_repeated_direction_detected(self):
        sticks = [xs(0, 0, 0, 1), xs(0, 0, 1, 2)]
        _, problems = audit_junctions(sticks, {"v": point(1, 0, 0)}, {"v": 2})
        assert problems == []  # +x and -x are distinct directions
        sticks = [xs(0, 0, 0, 1), ys(1, 0, 0, 2), zs(1, 0, 0, 1)]
        _, problems = audit_junctions(sticks, {"v": point(1, 0, 0)}, degrees={"v": 3})
        assert problems == []


class TestCounting:
    def test_rectangle(self):
        assert count_sticks(RECT, {"v": point(0, 0, 0)}).total == 4

    def test_marker_splits_straight_column(self):
        sticks = [zs(0, 0, 1, 2), zs(0, 0, 2, 3)]
        assert count_sticks(sticks, {}).total == 1
        assert count_sticks(sticks, {"v": point(0, 0, 2)}).total == 2

    def test_axis_breakdown(self):
        c = count_sticks(RECT, {})
        assert (c.x, c.y, c.z) == (0, 2, 2)


class TestReconstruction:
    def spec(self):
        return SpatialGraphSpec(
            (ComponentSpec("u", presentation([(1, 2), (1, 2)], {1: "v"})),)
        )

    def test_loop_roundtrip(self):
        edges = reconstruct_graph(RECT, {"v": point(0, 0, 0)}, self.spec())
        assert len(edges) == 1
        va, vb, polyline, _ = edges[0]
        assert va == vb == "v"
        assert polyline[0] == polyline[-1] == point(0, 0, 0)

    def test_corruption_detected(self):
        with pytest.raises(ReconstructionMismatch):
            reconstruct_graph(RECT[:-1], {"v": point(0, 0, 0)}, self.spec())

    def test_wrong_spec_detected(self):
        wrong = SpatialGraphSpec(
            (ComponentSpec("th", presentation([(1, 2)] * 3, {1: "a", 2: "b"})),)
        )
        with pytest.raises(ReconstructionMismatch):
            reconstruct_graph(RECT, {"v": point(0, 0, 0)}, wrong)

    def test_walk_is_deterministic(self):
        a = walk_edges(RECT, {"v": point(0, 0, 0)})
        b = walk_edges(list(RECT), {"v": point(0, 0, 0)})
        assert a == b
