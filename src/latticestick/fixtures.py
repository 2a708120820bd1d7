"""Built-in input documents for the demo command and the test suite.

The trefoil and figure-eight documents were only frozen after the coloring
oracle confirmed their determinants (3 and 5); with five and six arcs those
values pin the knot types, since no other knot fits in so few pages.
"""

from __future__ import annotations


def _component(comp_id, n_points, vertices, arcs):
    return {
        "id": comp_id,
        "binding_points": [
            {"index": i, **({"vertex": vertices[i]} if i in vertices else {})}
            for i in range(1, n_points + 1)
        ],
        "arcs": [
            {"page": page, "from": lo, "to": hi}
            for page, (lo, hi) in enumerate(arcs, start=1)
        ],
    }


DEMOS: dict[str, dict] = {
    "unknot": {
        "components": [_component("u", 2, {1: "v"}, [(1, 2), (1, 2)])],
        "attachments": [],
    },
    "trefoil": {
        "components": [
            _component("t", 5, {1: "v"}, [(1, 3), (2, 4), (3, 5), (1, 4), (2, 5)])
        ],
        "attachments": [],
        "diagram_crossings": 3,
    },
    "figure8": {
        "components": [
            _component(
                "f", 6, {1: "v"}, [(1, 3), (2, 6), (1, 4), (3, 5), (4, 6), (2, 5)]
            )
        ],
        "attachments": [],
        "diagram_crossings": 4,
    },
    "theta-planar": {
        "components": [_component("th", 2, {1: "v1", 2: "v2"}, [(1, 2)] * 3)],
        "attachments": [],
    },
    "bouquet3": {
        "components": [
            _component(
                "b", 4, {1: "v"}, [(1, 2), (1, 2), (1, 3), (1, 3), (1, 4), (1, 4)]
            )
        ],
        "attachments": [],
    },
    "theta-composite": {
        # The stem routes one theta edge through a third binding point; the
        # planar 3-page presentation would leave the cut vertex with two
        # parallel column-to-column sticks and no legal merge move.
        "components": [
            _component(
                "th", 3, {1: "v1", 2: "v2"}, [(1, 2), (1, 3), (1, 2), (2, 3)]
            ),
            _component("loop", 2, {1: "v2"}, [(1, 2), (1, 2)]),
        ],
        "attachments": [{"stem": "th", "branch": "loop", "cut_vertex": "v2"}],
    },
}

# Fixtures used by the tests beyond the demo set.
THETA4 = [(1, 2), (1, 3), (1, 2), (2, 3)]

CHAIN = {
    "components": [
        _component("th1", 3, {1: "v1", 2: "v2"}, THETA4),
        _component("mid", 2, {1: "v2", 2: "v3"}, [(1, 2)]),
        _component("th2", 3, {1: "v3", 2: "v4"}, THETA4),
    ],
    "attachments": [
        {"stem": "th1", "branch": "mid", "cut_vertex": "v2"},
        {"stem": "mid", "branch": "th2", "cut_vertex": "v3"},
    ],
}

SPLIT_PAIR = {
    "components": [
        _component("a", 2, {1: "v1", 2: "v2"}, [(1, 2)] * 3),
        _component("b", 2, {1: "w"}, [(1, 2), (1, 2)]),
    ],
    "attachments": [],
}

# Two loop components at one cut vertex: the only shape in which edge ids
# cannot be told apart by their end labels alone.
LOOP_TREFOIL = {
    "components": [
        _component("t", 5, {1: "v"}, [(1, 3), (2, 4), (3, 5), (1, 4), (2, 5)]),
        _component("p", 2, {1: "v"}, [(1, 2), (1, 2)]),
    ],
    "attachments": [{"stem": "t", "branch": "p", "cut_vertex": "v"}],
}
