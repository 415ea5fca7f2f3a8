"""Input line reading, and the parse cache that lets a run read its snapshot file once.

The stage commands of a run all read the same snapshot file. The first one
to parse it saves the ``ParseReport`` in its ``--out`` directory as
``.snapshots.cache``; a later command whose key matches loads that file
instead of reading and parsing the snapshots again.

The key is a SHA-256 over the snapshot file's bytes, the source of this
module (the line reader) and of ``series`` (the parser), the text encoding
lines are decoded with, and the Python and numpy versions the parse ran on.
A cache that is missing, stale, truncated, damaged or unreadable is a miss,
never an error. The file is the 32 key bytes, a 32-byte SHA-256 of the
payload, then the payload: two ``.npy`` arrays, neither pickled, the
``(5, M)`` float64 column block and, as uint8, one JSON document holding
the venue ids in parse order, their bounds in the block, the parse errors
and the duplicate count. The document is UTF-8 with surrogates passed
through, so every Python string survives; a ``<U`` array would drop
trailing NULs. The payload digest covers the block's and the document's
bytes, so a byte damaged in either is a miss, not a different parse.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import locale
import sys
from pathlib import Path
from tokenize import TokenError
from typing import BinaryIO, Iterator, Optional

import numpy as np

from . import series
from .series import ParseError, ParseReport, venue_columns

CACHE_NAME = ".snapshots.cache"


def text_encoding() -> str:
    """The codec ``open`` decodes input files with by default, by its canonical name: ``UTF-8`` is ``utf-8``."""
    return codecs.lookup(locale.getpreferredencoding(False)).name


def read_lines(path: Path) -> Iterator[str]:
    """The lines of the file at ``path``, without their ``\\n``, read one at a time.

    The file is opened here, so a missing or unreadable one fails before any
    line is read; it is closed when the lines run out or the iterator is
    dropped. Bytes that do not decode raise ``ValueError`` naming the file.
    """
    lines = _lines(path)
    next(lines)  # runs to the bare yield just after the open
    return lines


def _lines(path: Path) -> Iterator[str]:
    # text mode turns \r\n and \r into \n and breaks lines there only;
    # splitlines() would also break at U+0085, U+2028 and U+2029, which JSON
    # allows raw inside strings
    with path.open(encoding=text_encoding()) as f:
        yield
        try:
            for line in f:
                yield line.removesuffix("\n")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def cache_key(snapshots: Path) -> bytes:
    """Digest of everything a parse of the file at ``snapshots`` depends on."""
    key = hashlib.sha256()
    with snapshots.open("rb") as f:
        key.update(hashlib.file_digest(f, "sha256").digest())
    for source in (series.__file__, __file__):  # fixed-size parts, so no two inputs run together
        key.update(hashlib.sha256(Path(source).read_bytes()).digest())
    key.update(f"\0{text_encoding()}\0{sys.version}\0{np.__version__}".encode())
    return key.digest()


def _payload_digest(columns: np.ndarray, text: bytes) -> bytes:
    """SHA-256 of the column block, read in place, then of the JSON document."""
    digest = hashlib.sha256(np.ascontiguousarray(columns).data)
    digest.update(text)
    return digest.digest()


def write_cache(f: BinaryIO, key: bytes, report: ParseReport) -> None:
    """Write ``report`` under ``key`` to ``f``; the column block goes out without a copy."""
    bounds = np.cumsum([0, *map(len, report.readings.values())]).tolist()
    meta = {
        "venues": list(report.readings),
        "bounds": bounds,
        "errors": [[e.line_no, e.message] for e in report.errors],
        "duplicate_timestamps": report.duplicate_timestamps,
    }
    text = json.dumps(meta, ensure_ascii=False).encode("utf-8", "surrogatepass")
    f.write(key)
    f.write(_payload_digest(report.columns, text))
    np.save(f, report.columns, allow_pickle=False)
    np.save(f, np.frombuffer(text, dtype=np.uint8), allow_pickle=False)


def load_cache(path: Path, key: bytes) -> Optional[ParseReport]:
    """The report cached at ``path`` under ``key``; ``None`` when there is no such readable cache."""
    read = np.lib.format.read_array
    try:
        with path.open("rb") as f:
            if f.read(len(key)) != key:
                return None
            digest = f.read(hashlib.sha256().digest_size)
            columns = read(f, allow_pickle=False)
            text = read(f, allow_pickle=False).tobytes()
        if _payload_digest(columns, text) != digest:
            return None
        meta = json.loads(text.decode("utf-8", "surrogatepass"))
        venues, bounds = meta["venues"], meta["bounds"]
        if columns.dtype != np.float64 or columns.shape != (5, bounds[-1]) or len(bounds) != len(venues) + 1:
            return None
        return ParseReport(
            readings=venue_columns(columns, venues, bounds),
            errors=[ParseError(line_no, message) for line_no, message in meta["errors"]],
            duplicate_timestamps=meta["duplicate_timestamps"],
            columns=columns,
        )
    # what numpy's header reader, the JSON decoder and the lookups raise on a damaged file
    except (OSError, EOFError, ValueError, TypeError, KeyError, IndexError, SyntaxError, TokenError):
        return None
