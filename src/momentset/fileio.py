"""The one whole-file writer, and the reads that the ``.maln`` chunk and
``.malc`` checkpoint formats share: each opens with a 4-byte magic and a
u32 version, then its own little-endian header fields."""
import contextlib
import os
import struct

from .errors import DataFileError, FormatError


@contextlib.contextmanager
def replace_file(path, mode: str = "wb", **open_args):
    """A file opened in ``mode`` to write in place of ``path``: the temp file
    ``<path>.<pid>.tmp`` beside it, renamed over ``path`` when the block ends
    cleanly and removed when it raises, so a failed write leaves ``path`` as
    it was, and two processes writing one path each rename a whole file. An
    OSError in the block or the rename is a DataFileError naming ``path``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_args) as f:
            yield f
        os.replace(tmp, path)
    except BaseException as e:
        # the temp file may not exist, or its name be taken by a directory
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise DataFileError(f"{path}: cannot write ({e})") from e
        raise


def open_read(path, what: str):
    """``path`` opened for binary reading, or DataFileError naming it as an
    unreadable ``what``."""
    try:
        return open(path, "rb")
    except OSError as e:
        raise DataFileError(f"{path}: unreadable {what} ({e.strerror})") from e


def left(f) -> int:
    """The bytes of ``f`` after its read position."""
    return os.fstat(f.fileno()).st_size - f.tell()


def unpack(f, fmt: str, short: str) -> tuple:
    """The ``fmt`` fields at the read position, or FormatError naming the
    file with the message ``short`` if it does not hold all of them."""
    n = struct.calcsize("<" + fmt)
    if left(f) < n:
        raise FormatError(f"{f.name}: {short}")
    return struct.unpack("<" + fmt, f.read(n))


def header(f, magic: bytes, version: int, fmt: str, short: str) -> list:
    """The ``fmt`` fields after the magic and the version, once both match."""
    got, v, *fields = unpack(f, "4sI" + fmt, short)
    if got != magic:
        raise FormatError(f"{f.name}: bad magic {got!r}")
    if v != version:
        raise FormatError(f"{f.name}: version {v}, expected {version}")
    return fields


def readinto(f, arr, short: str):
    """Fill ``arr``, or FormatError if ``f`` ends first: it can shrink after a size check."""
    if f.readinto(arr) != arr.nbytes:
        raise FormatError(f"{f.name}: {short}")
