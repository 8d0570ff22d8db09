"""Exception types shared across the package.

Every error that the library raises deliberately derives from
:class:`LamplighterError`, so callers can catch library failures without
swallowing genuine bugs.
"""


class LamplighterError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(LamplighterError):
    """Arithmetic attempted between values of different rings or groups.

    Mixing coefficient rings (or wreath groups with different lamp orders)
    is always a usage error; values are never coerced silently.
    """


class NotInvertibleError(LamplighterError):
    """Inversion requested for a scalar that has no inverse in its ring."""


class ParseError(LamplighterError):
    """Malformed textual input.  Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LimitExceededError(LamplighterError):
    """An enumeration would exceed the configured element cap."""


class NotInAugmentationIdealError(LamplighterError):
    """An element required to lie in the base augmentation ideal does not."""


class UnsupportedRingError(LamplighterError):
    """The coefficient ring does not support the requested operation
    (e.g. nullspace computation over a non-field)."""


class SupportError(LamplighterError):
    """An element's support violates a structural precondition
    (e.g. a nonzero shift where a base-group element is required)."""


class ConfigError(LamplighterError):
    """Invalid combination of configuration parameters."""
