"""Exception hierarchy.

Every error raised by this package derives from SeqComplexError, which itself
derives from ValueError so that callers who do not care about the distinction
can catch the usual built-in.
"""


class SeqComplexError(ValueError):
    """Base class for all seqcomplex errors."""


# -- modulus / sequence construction ---------------------------------------

class NotPrime(SeqComplexError):
    """p is not 2 and not an odd prime."""


class NotPrimitiveRoot(SeqComplexError):
    """2 is not a primitive root modulo p^2."""


class PeriodTooLarge(SeqComplexError):
    """p^n exceeds the supported period cap."""


class LengthMismatch(SeqComplexError):
    """Sequence literal does not contain exactly p^n binary digits."""


class InvalidCharacter(SeqComplexError):
    """Sequence literal contains something other than 0, 1, or whitespace."""


class ModulusMismatch(SeqComplexError):
    """Two sequences with different moduli were combined, a hypercube
    structure was priced at a modulus its vertex does not fit, or a modulus
    is not a Modulus."""


class EqualPositions(SeqComplexError):
    """p-adic distance of a position with itself is undefined."""


class ZeroSequence(SeqComplexError):
    """Operation requires a nonzero sequence."""


# -- engine selection -------------------------------------------------------

class EvenP(SeqComplexError):
    """Operation requires an odd p (use the p=2 engine instead)."""


class OddP(SeqComplexError):
    """Operation requires p = 2."""


# -- linear complexity forms ------------------------------------------------

class NotRepresentable(SeqComplexError):
    """No linear complexity of this value exists for the given modulus."""


# -- hypercube structure ----------------------------------------------------

class NotAHypercube(SeqComplexError):
    """Sequence fails the weight-preservation property of hypercubes."""


class NotACube(SeqComplexError):
    """p=2 sequence whose support is not a cube."""


class NoEligibleExponent(SeqComplexError):
    """No edge exponent is available for a next-lower hypercube."""


class IsVertex(SeqComplexError):
    """Blocks already sum to zero; no rebalancing rewrite is defined."""


# -- k-error operations -----------------------------------------------------

class BudgetExceeded(SeqComplexError):
    """Requested enumeration exceeds the configured budget cap."""


# Default budget caps: error patterns scanned by a brute-force k-error
# operation, and members listed by a counting enumeration.  They live here,
# beside the error they bound, so the command line can show them without
# importing the modules that enforce them.
DEFAULT_CAP = 10**8
ENUM_CAP = 10**6
# Largest count a refusal writes out in digits.  Past it, the refused error
# patterns are counted only up to a bound and a class is named by its
# factored size, so a refusal is quick to make and short to print.
_EXACT_UP_TO = 10**18


def _check_cap(cap: int) -> None:
    """Refuse a budget cap that is not an int of at least 1."""
    if type(cap) is not int or cap < 1:
        raise BudgetExceeded(f"cap must be an int >= 1; got {cap!r}")


class FormulaInapplicable(SeqComplexError):
    """Formula mode was requested for an input it does not cover."""


class NotTupleVertex(SeqComplexError):
    """Operation requires a tuple vertex, not an element vertex."""


class ZeroLengthVertex(SeqComplexError):
    """Operation requires a tuple vertex of positive length."""


class KOutOfRange(SeqComplexError):
    """A k that is not an int or lies out of range: the stable-sequence k
    outside [0, p^n), or a negative k of ``k_error_lc_bruteforce``."""


# -- counting ---------------------------------------------------------------

class InvalidEdges(SeqComplexError):
    """Edge exponents are not strictly increasing within the valid range."""


class InvalidL(SeqComplexError):
    """Vertex nonzero count l is outside the range the formula covers."""
