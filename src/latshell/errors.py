"""Exception types shared across the library.

Verification routines generally return verdict objects instead of raising;
exceptions are reserved for malformed inputs, violated preconditions and
internal self-checks that disagree.
"""


class LatshellError(Exception):
    """Base class for all library errors."""


class SelfCheckFailed(LatshellError):
    """An internal cross-check disagreed: a bug, not bad input."""

    def __init__(self, check: str, detail: str):
        self.check = check
        super().__init__(f"self-check {check!r} failed: {detail}")


# ---------------------------------------------------------------- posets

class DuplicateElement(LatshellError):
    pass


class UnknownElement(LatshellError):
    pass


class CycleDetected(LatshellError):
    pass


class RedundantCover(LatshellError):
    def __init__(self, low, high, reason="has an intermediate element"):
        self.low, self.high = low, high
        super().__init__(f"cover ({low!r}, {high!r}) {reason}")


class NotComparable(LatshellError):
    pass


class Unbounded(LatshellError):
    pass


class NotMaximal(LatshellError):
    pass


# --------------------------------------------------------------- lattices

class NotALattice(LatshellError):
    def __init__(self, x, y, reason):
        self.x, self.y, self.reason = x, y, reason
        super().__init__(f"pair ({x!r}, {y!r}): {reason}")


class NotAChain(LatshellError):
    pass


class NotLeftModular(LatshellError):
    def __init__(self, element, witness):
        self.element, self.witness = element, witness
        super().__init__(f"{element!r} is not left-modular (witness {witness})")


# --------------------------------------------------------------- labelings

class ChainNotValidated(LatshellError):
    pass


class IncompatiblePosets(LatshellError):
    pass


class NoAtomGenerates(LatshellError):
    def __init__(self, low, high):
        self.low, self.high = low, high
        super().__init__(f"no atom joins {low!r} up to {high!r}")


class InternalLabelingError(LatshellError):
    """The two closed forms of the labeling disagreed; indicates a bug or an
    unvalidated chain."""


# -------------------------------------------------------------- complexes

class NotAFace(LatshellError):
    pass


class VertexClash(LatshellError):
    pass


class UnknownVertex(LatshellError):
    pass


class SizeLimit(LatshellError):
    pass


class VoidComplex(LatshellError):
    pass


class TargetTooLarge(LatshellError):
    pass


class RepeatRunTooLong(LatshellError):
    def __init__(self, chain, label):
        self.chain, self.label = chain, label
        super().__init__(f"label {label!r} occurs more than twice in a row on {chain}")


class InvalidCertificate(LatshellError):
    pass


class NotFacetPermutation(LatshellError):
    pass


class AllChainsAscending(LatshellError):
    """Signals the base case: no maximal chain carries a strict descent."""


# ------------------------------------------------------------------ groups

class NotAPermutation(LatshellError):
    pass


class OrderLimit(LatshellError):
    pass


class NotSolvable(LatshellError):
    pass


class ShellabilityUndecided(LatshellError):
    pass


# --------------------------------------------------------------------- cli

class InputParseError(LatshellError):
    pass
