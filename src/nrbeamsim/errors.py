"""Exception types shared across the package, and the number checks the
config classes share."""
import math
import numbers


class ConfigurationError(ValueError):
    """A configuration value is out of range, inconsistent, or unsupported.

    Raised during scenario parsing and by the config classes, wherever a
    value has the wrong type or a 3GPP or model constraint (periodicity
    sets, FR2 numerologies, array and sweep sizes, the CSI-RS band on the
    carrier) is violated. The CLI maps this to exit code 1.
    """


class DomainError(ValueError):
    """A runtime argument is outside the function's mathematical domain."""


class NotApplicableError(RuntimeError):
    """An operation was requested for a mode it is not defined in."""


def require_int(key: str, value: object) -> None:
    """Reject a ``value`` of ``key`` that is not an ``int``, or is a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{key}={value!r}: must be an integer")


def require_real(key: str, value: object, rule: str = "finite") -> None:
    """Reject a ``value`` of ``key`` that is not a real number, is a bool,
    or is not finite. The last error says the value must be ``rule``; a
    caller that also checks a bound passes the whole requirement, such as
    "finite and positive", so that its own error reads the same."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{key}={value!r}: must be a real number")
    if not math.isfinite(value):
        raise ConfigurationError(f"{key}={value!r}: must be {rule}")
