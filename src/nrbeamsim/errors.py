"""Exception types shared across the package, and the integer check the
config classes share."""


class ConfigurationError(ValueError):
    """A configuration value is out of range, inconsistent, or unsupported.

    Raised during scenario parsing, timeline construction, and any other
    place where a 3GPP constraint (periodicity sets, burst window, carrier
    bounds) is violated. The CLI maps this to exit code 1.
    """


class DomainError(ValueError):
    """A runtime argument is outside the function's mathematical domain."""


class NotApplicableError(RuntimeError):
    """An operation was requested for a mode it is not defined in."""


def require_int(key: str, value: object) -> None:
    """Reject a ``value`` of ``key`` that is not an ``int``, or is a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{key}={value!r}: must be an integer")
