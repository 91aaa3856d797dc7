"""Exception hierarchy shared by all modules.

Every error raised on purpose by this package derives from
:class:`TwoBridgeError`, so callers (and the CLI) can distinguish domain
errors from genuine bugs.
"""


class TwoBridgeError(Exception):
    """Base class for all errors raised by this package."""


class ZeroTail(TwoBridgeError):
    """A suffix of a continued fraction evaluates to zero."""


class OutOfRange(TwoBridgeError):
    """A rational argument violates the range required by the operation."""


class NoEvenQuotient(TwoBridgeError):
    """No nonzero even quotient fits the requested division."""


class BothOdd(TwoBridgeError):
    """p/q with p and q both odd has no even continued fraction."""


class ZeroPolynomial(TwoBridgeError):
    """The zero polynomial has no leading term, degree or width."""


class MixedGrid(TwoBridgeError):
    """Exponents mix integers and half-integers."""


class SlotOverflow(TwoBridgeError):
    """A packed polynomial outgrew the bound its slots were sized for."""


class BudgetExceeded(TwoBridgeError):
    """An input, a listing or a drawing would exceed its size budget."""


class WrongOrientation(TwoBridgeError):
    """Operation defined only for even continued fractions with b_1 > 0."""


class HypothesisViolated(TwoBridgeError):
    """Input violates the standing hypothesis of a closed-form formula."""


class ParseError(TwoBridgeError):
    """Malformed CLI input or usage; carries the offending position when
    known."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class CrossCheckMismatch(TwoBridgeError):
    """Two engines disagreed on the same input."""

    def __init__(self, message, engines=(), value=None):
        super().__init__(message)
        self.engines = tuple(engines)
        self.value = value
