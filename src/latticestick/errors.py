"""Exception types shared across the package."""


class LatticeStickError(Exception):
    """Base class for all package errors."""


class DocumentError(LatticeStickError):
    """Malformed document: syntax, schema or internal inconsistency."""


class InvalidSpec(LatticeStickError):
    """The input failed ``validate_spec``; ``problems`` lists every violation."""

    def __init__(self, problems):
        super().__init__("invalid input: " + "; ".join(problems))
        self.problems = list(problems)


class UnlabeledEndpoint(LatticeStickError):
    """An edge walk terminated at an unlabeled binding point of degree != 2."""


class UnknownBindingPoint(LatticeStickError):
    """Binding-point index outside 1..beta."""


class NoValidRoot(LatticeStickError):
    """Every component of a tree is an arc component; no root can be chosen."""


class InvalidCounts(LatticeStickError):
    """A count formula received inputs outside its domain."""


class AssemblyCollision(LatticeStickError):
    """Cut-vertex columns failed to align when stacking, or the built
    embedding failed its audit."""


class NoFreeDirection(LatticeStickError):
    """No assignment of distinct free directions to a vertex's merges exists."""


class MergeCollision(LatticeStickError):
    """Every merge move for a vertex produced an intersection."""


class BoundViolated(LatticeStickError):
    """The built embedding uses more sticks than the count formula allows."""


class ReconstructionMismatch(LatticeStickError):
    """The graph read back from the embedding differs from the input graph."""

    def __init__(self, message, diff=None):
        super().__init__(message)
        self.diff = diff or []


class NotACycle(LatticeStickError):
    """The selected component is not a single closed cycle."""


class TooLarge(LatticeStickError):
    """A determinant's Hadamard bound exceeds what the largest listed
    Mersenne prime can hold."""
