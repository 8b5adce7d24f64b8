"""Exception types shared across the package."""


class TiltlabError(Exception):
    """Base class for all package-specific errors."""


class QuiverMismatch(TiltlabError):
    """Operands live over different quivers or different fields."""


class NotInvariant(TiltlabError):
    """Vertex-wise subspaces are not stable under the arrow maps."""


class NonSplitField(TiltlabError):
    """Decomposition found no endomorphism that splits a module and could
    not certify its endomorphism ring local either; a non-commutative
    division ring over the rationals is one such ring."""


class MissingExtra(TiltlabError):
    """An optional dependency is not installed: factoring over QQ needs
    sympy, which the ``qq`` extra installs."""


class NoExtension(TiltlabError):
    """Requested a non-split extension where Ext^1 vanishes."""


class SearchBudgetExceeded(TiltlabError):
    """A submodule search or tube catalog would exceed its fixed budget."""


class UnsupportedFamily(TiltlabError):
    """Unknown quiver family, or the family lacks the requested structure."""


class NotBound(TiltlabError):
    """Module fails the bound-module conditions (nonzero, finitely
    presented, projective dimension one, no homomorphisms to the ring)."""


class NotPrime(TiltlabError):
    """An integer that was required to be prime is not."""


class SameGenerator(TiltlabError):
    """Two distinct generators were required."""


class ParseError(TiltlabError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")
