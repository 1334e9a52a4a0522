"""Structured errors raised across the package."""


class EhrlabError(Exception):
    """Base class for every structured error this package raises."""


class InvalidElementError(EhrlabError):
    """Element coefficients are malformed (non-finite, empty, wrong shape)."""


class DimensionMismatchError(EhrlabError):
    """An operand's dimension is incompatible with the configured space."""


class UnsupportedNormError(EhrlabError):
    """The requested operation is not defined for this norm kind."""


class EnumerationError(EhrlabError):
    """The dual family cannot produce the requested member."""


class ToleranceError(EhrlabError):
    """A tolerance or budget parameter is out of range."""


class NoModulusError(EhrlabError):
    """The modulus search found no modulus above the configured delta floor.

    Raised when the restricted supremum (norm2's lower enclosure deciding
    feasibility) still exceeds eps at the floor. sup_at_floor is the one
    found there with the *upper* enclosure deciding, so its points are truly
    feasible up to rounding. proved is True when sup_at_floor exceeds eps by
    more than that rounding can account for: then no modulus above the floor
    exists. Otherwise the evaluation is too loose to decide.
    """

    def __init__(self, eps: float, delta_floor: float, sup_at_floor: float,
                 proved: bool):
        self.eps = eps
        self.delta_floor = delta_floor
        self.sup_at_floor = sup_at_floor
        self.proved = proved
        super().__init__(
            f"no modulus for eps={eps:.6g} above the delta floor {delta_floor:.3g}; "
            f"restricted supremum there {sup_at_floor:.6g} (upper enclosure)"
        )


class NonInjectiveError(EhrlabError):
    """The operator is not injective on the truncation (smallest singular value ~ 0)."""


class ScenarioError(EhrlabError):
    """A scenario file failed validation; carries JSON-pointer paths."""

    def __init__(self, message: str, pointers: list[str] | None = None):
        self.pointers = pointers or []
        if self.pointers:
            message = f"{message} (at {', '.join(self.pointers)})"
        super().__init__(message)
