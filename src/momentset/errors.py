"""Exception hierarchy shared across the package: MomentSetError and one
subclass per category, the word the CLI prints as ``error: <category>:``."""


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
