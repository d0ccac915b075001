"""Exception hierarchy shared across the package: MomentSetError and one
subclass per category, the word the CLI prints as ``error: <category>:``;
and ``describe`` and ``listing``, how an error message names the values
read from a file."""
import math


class MomentSetError(Exception):
    """Base class for all package errors."""

    category = "internal"


class ShapeError(MomentSetError):
    """An array of the wrong rank or width, or an input shorter than one
    conv window."""
    category = "shape"


class NumericError(MomentSetError):
    """A value outside an op's domain, a row of near-zero or non-finite
    norm, or a non-finite loss or gradient."""
    category = "numeric"


class ConfigError(MomentSetError):
    category = "config"


class GenerationError(MomentSetError):
    category = "datagen"


class TimestampRangeError(MomentSetError):
    category = "range"


class CapacityError(MomentSetError):
    category = "matching"


class ContractError(MomentSetError):
    category = "contract"


class FormatError(MomentSetError):
    """A chunk or checkpoint file with a bad magic, an unknown version, or
    fewer bytes than its header promises."""
    category = "format"


class DataFileError(MomentSetError):
    """A dataset or checkpoint file that cannot be read or does not fit the
    run: a bad manifest, vocabulary or config snapshot."""
    category = "io"


def describe(value) -> str:
    """A value as an error message names it: by its repr, or, where that
    could be long, by its type and size (``int of 401 digits``, ``str of
    900 characters``, ``list of 4 items``), so a huge value in a file makes
    no huge error line. A list or dict of at most three plain values is
    shown by them, if that is short (``[6]``)."""
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) >= 10**20:
        # str() refuses an int of over 4,300 digits, so the digits are
        # counted from the bits: 2^(b-1) <= |value| < 2^b
        n = int((abs(value).bit_length() - 1) * math.log10(2)) + 1
        return f"int of {n + (abs(value) >= 10**n)} digits"
    if isinstance(value, str) and len(value) > 40:
        return f"str of {len(value)} characters"
    if isinstance(value, (list, dict)):
        items = [*value, *value.values()] if isinstance(value, dict) else value
        # a few plain values are shown as they are
        if len(value) <= 3 and all(
                x is None or isinstance(x, (float, str))
                or isinstance(x, int) and abs(x) < 10**20 for x in items):
            text = repr(value)
            if len(text) <= 40:
                return text
        return f"{type(value).__name__} of {len(value)} item{'s' * (len(value) != 1)}"
    return repr(value)


def listing(names: list[str], limit: int = 3) -> str:
    """The first ``limit`` of ``names``, comma-separated, and a count of the
    rest, so a file with many bad entries makes no huge error line."""
    more = f" and {len(names) - limit} more" if len(names) > limit else ""
    return ", ".join(names[:limit]) + more
