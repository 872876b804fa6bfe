"""Exception hierarchy shared by all bitmod modules."""


class BitmodError(Exception):
    """Base class for all bitmod errors."""


class OutOfRange(BitmodError):
    pass


class InvalidSpecialValueIndex(OutOfRange):
    """An ``sv_index`` outside the dtype's special-value range."""


class UnrepresentableValue(BitmodError):
    pass


class TooManySetBits(BitmodError):
    """A fixed-point code has more than two magnitude bits set.

    Raised by the leading-one decoder; indicates a mis-programmed
    special-value register.
    """


class ShapeMismatch(BitmodError):
    pass


class UnsupportedDtype(BitmodError):
    pass


class ConfigError(BitmodError):
    pass


class ParseError(BitmodError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(BitmodError):
    """A malformed input file, BMOD or NPY; carries the byte offset of the
    problem when it is known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
