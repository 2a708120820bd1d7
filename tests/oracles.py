"""Test-only reference implementations: the exhaustive coloring count, the
dense coloring matrix, the algebraic agreement of the two stick bounds and
the binding-point law.

The package computes none of these; the tests check its results against
them.  The module name keeps pytest from collecting it.
"""

from latticestick.bounds import arc_index_upper, construction_count, crossing_stick_bound
from latticestick.errors import InvalidCounts, TooLarge
from latticestick.invariants import GaussData, _coloring_rows, _strand_structure

MAX_STRANDS = 12


def binding_point_count(alpha: int, v: int, e: int) -> int:
    """Number of binding points forced by arc, vertex and edge counts."""
    beta = alpha + v - e
    if beta < 1:
        raise InvalidCounts(f"binding count {beta} < 1 for alpha={alpha} v={v} e={e}")
    return beta


def bounds_agree(c: int, e: int, v: int, s: int, b: int, k: int) -> bool:
    """Substituting alpha = c + e + b turns one bound into the other."""
    return construction_count(
        arc_index_upper(c, e, b), e, v, s, k
    ) == crossing_stick_bound(c, e, v, s, b, k)


def coloring_matrix(gauss: GaussData) -> list[list[int]]:
    """One row per crossing over the strands: 2*over - in - out."""
    n_strands, _ = _strand_structure(gauss)
    matrix = [[0] * n_strands for _ in range(gauss.n_crossings)]
    for dense, row in zip(matrix, _coloring_rows(gauss)):
        for strand, v in row.items():
            dense[strand] = v
    return matrix


def p_coloring_count(gauss: GaussData, p: int) -> int:
    """Exhaustively count strand labelings over Z_p with 2*over = in + out.

    Depth-first over the strands, rejecting a partial assignment as soon as
    some crossing has all three strands labeled inconsistently; this visits
    exactly the assignments a plain product enumeration would accept.
    """
    if gauss.n_crossings == 0:
        return p
    n_strands, triples = _strand_structure(gauss)
    if n_strands > MAX_STRANDS:
        raise TooLarge(f"{n_strands} strands exceeds the enumeration bound {MAX_STRANDS}")
    by_last: dict[int, list[tuple[int, int, int]]] = {}
    for t in triples:
        by_last.setdefault(max(t), []).append(t)

    colors = [0] * n_strands

    def count(strand: int) -> int:
        if strand == n_strands:
            return 1
        total = 0
        for c in range(p):
            colors[strand] = c
            if all(
                (2 * colors[o] - colors[i] - colors[u]) % p == 0
                for o, i, u in by_last.get(strand, ())
            ):
                total += count(strand + 1)
        return total

    return count(0)
