"""Exception hierarchy shared by all twcm modules."""


class TwcmError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TwcmError):
    """An observation or argument lies outside its declared domain."""


class InvalidParameterError(TwcmError):
    """Parameters violate the structural constraints of a distribution."""


class SingularKernelError(TwcmError):
    """A wrapped Cauchy kernel was requested at unit concentration,
    where the density degenerates."""


class DegenerateDataError(TwcmError):
    """A log-likelihood evaluation hit rows with zero density.

    Carries the offending 0-based row indices in ``rows``.
    """

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


class FitFailureError(TwcmError):
    """No feasible optimum was found."""


class ComponentCollapseError(TwcmError):
    """A mixture component lost essentially all responsibility mass twice;
    the component count K should be reduced."""
