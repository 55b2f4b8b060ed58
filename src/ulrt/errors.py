"""Semantic exception types shared across the library.

Public functions never raise bare ``ValueError``/``ArithmeticError``; they use
these subclasses so callers (and the CLI exit-code mapping) can distinguish
argument problems from numerical failures.
"""


class UlrtError(Exception):
    """Base class for all library errors."""


class DomainError(UlrtError, ValueError):
    """An argument violates an operation's precondition."""


class NumericError(UlrtError, ArithmeticError):
    """A numerical routine failed to converge or left its supported range."""


class DegenerateDirectionError(DomainError):
    """A direction-dependent operation received the zero vector."""
