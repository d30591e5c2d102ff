"""Exception types shared across the package, and the one check of a
config or report value: each field declares its domain once, with
`declare`, and `Domain.check` checks both the field and the scenario-file
key that sets it. Every refusal reads ``{key}={value!r}: must be
{rule}``, where an int too long for the interpreter to print shows its
size.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from enum import Enum
from functools import cache
from typing import Any, NamedTuple, Optional


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


# each number kind: the values it takes, and what a refusal calls them
_NUMBERS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number")}


class Domain(NamedTuple):
    """The kind, default and allowed values of one config or report
    value, as `declare` describes them; a ``str`` kind takes a string."""

    kind: type
    default: Any
    among: tuple = ()
    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False

    def rule(self) -> str:
        """What a value must be, in the words of a refusal."""
        lo, hi = self.lo, self.hi
        if self.kind is str:
            return "a string"
        if self.among:
            return f"one of {list(self.among)}"
        if hi is not None:
            bound = f"at most {hi}" if lo is None else f"in {lo}..{hi}"
        elif lo == 0:
            bound = "positive" if self.lo_open else "non-negative"
        elif lo is not None:
            bound = f"{'greater than' if self.lo_open else 'at least'} {lo}"
        else:
            return "finite"
        return f"finite and {bound}" if self.kind is float else bound

    def check(self, key: str, value: Any) -> Any:
        """``value`` as the field stores it; a value outside the domain
        raises `ConfigurationError` naming ``key``."""
        if value is None and self.default is None:
            return None
        kind, t = self.kind, type(value)
        if kind not in _NUMBERS:
            # an enum takes a member or a member's value; str only a string
            if kind is not str or isinstance(value, str):
                try:
                    return kind(value)
                except ValueError:
                    pass
            raise _refusal(key, value, self.rule())
        number, noun = _NUMBERS[kind]
        # an exact int or float skips the slower check of the numbers ABC
        if t is not int and t is not kind and (t is bool or not isinstance(value, number)):
            raise _refusal(key, value, noun)
        try:
            stored = kind(value)
        except OverflowError:  # a real number beyond float range
            raise _refusal(key, value, self.rule()) from None
        lo, hi = self.lo, self.hi
        if self.among:
            fits = stored in self.among
        else:
            fits = (kind is int or math.isfinite(stored)) and (
                (lo is None or stored > lo or (stored == lo and not self.lo_open))
                and (hi is None or stored <= hi)
            )
        if not fits:
            raise _refusal(key, value, self.rule())
        if kind is int:
            try:
                repr(stored)
            except ValueError:  # past the interpreter's digit limit
                limit = sys.get_int_max_str_digits()
                raise _refusal(key, value, f"at most {limit} digits long") from None
        return stored


def _refusal(key: str, value: Any, rule: str) -> ConfigurationError:
    try:
        shown = repr(value)
    except ValueError:  # an int past the interpreter's digit limit
        shown = f"<an integer of over {sys.get_int_max_str_digits()} digits>"
    return ConfigurationError(f"{key}={shown}: must be {rule}")


def declare(
    kind: type,
    default: Any = dataclasses.MISSING,
    among: tuple = (),
    *,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    lo_open: bool = False,
) -> Any:
    """A dataclass field with ``default`` that `check_domains` checks.

    ``kind`` is ``int`` (an integral number, stored as an ``int``),
    ``float`` (a finite real number, stored as a ``float``), ``str`` (a
    string) or an `Enum` (a member or a member's value, stored as the
    member); a bool is no number. A number is one of ``among``, or else
    within ``lo``..``hi``, where ``lo_open`` excludes ``lo``. A ``None``
    default admits ``None``.
    """
    if issubclass(kind, Enum):
        among = [member.value for member in kind]
    domain = Domain(kind, default, tuple(among), lo, hi, lo_open)
    return dataclasses.field(default=default, metadata={"domain": domain})


@cache
def declared_domains(cls: type) -> tuple[tuple[str, Domain], ...]:
    """The name and domain of each field of dataclass ``cls`` that
    `declare` made, in field order."""
    fields = dataclasses.fields(cls)
    return tuple((f.name, f.metadata["domain"]) for f in fields if "domain" in f.metadata)


def check_domains(obj: Any, section: str = "") -> None:
    """Check each declared field of frozen dataclass ``obj``, named
    ``section`` plus its name, and store its value as the domain does."""
    for name, domain in declared_domains(type(obj)):
        value = getattr(obj, name)
        stored = domain.check(section + name, value)
        if stored is not value:
            object.__setattr__(obj, name, stored)
