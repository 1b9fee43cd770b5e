"""Exception types shared across the library and mapped to CLI exit codes."""


def _is_int(value) -> bool:
    # the integer test of the domain checks: an int, but not a bool
    return isinstance(value, int) and not isinstance(value, bool)


class DomainError(ValueError):
    """An argument is outside an operation's mathematical domain."""


class ParseError(ValueError):
    """Malformed partition / tuple text.  Carries the offending position, if known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} at position {position}")
        self.position = position


class EnumerationCapExceeded(RuntimeError):
    """An enumeration would produce more terms than the configured cap."""
