"""The one writer of the repo's files, the reader of its JSON and JSONL
documents, and the one place that knows how a record becomes JSON text:
run directories, serve jobs, sweep caches and ledgers, telemetry, the
four spec records and the table and trace exports all go through it.

* :func:`write_atomic` replaces a whole file.  The text goes to a temp
  file whose name is unique to the call (``<name>.tmp-<pid>-<thread>-
  <ns>``, created exclusively), then is renamed over the target: a
  reader sees the old file or the new one, never a mix, and two threads
  or processes writing one file never share a temp.  A failed write
  removes its temp and raises.
* :func:`write_json` replaces a file with one indented, sorted-key JSON
  document (trailing newline) through :func:`write_atomic`;
  :func:`read_json` returns the JSON object a file holds, or raises the
  caller's error class for anything else (missing, unreadable, not
  JSON, not an object).
* :class:`JsonRecord` is the JSON codec the spec records inherit:
  ``replace``, ``to_json``/``from_json``, ``save``/``load`` and the
  content hash (:func:`content_key`, SHA-256 of :func:`canonical_json`)
  that keys the DSE cache.  :func:`reject_unknown` is the one check of
  a record dict against its known fields (:func:`check_fields` adds the
  missing ones of a dataclass record).
* :func:`append_jsonl` appends one row in a single ``O_APPEND`` write,
  so concurrent appenders interleave whole rows.  A writer killed
  mid-row leaves a **torn tail** (no trailing newline); the next append
  ends it with a newline first, so the fragment becomes one junk line
  and the new row stays whole.
* :func:`read_jsonl` returns every decodable object row.  Blank, torn
  and junk lines are skipped; a missing file has no rows.
* :class:`JsonlTail` follows a growing file by byte offset, mirroring
  the HTTP API's ``?since=`` cursor semantics at the file layer:

  - only bytes past the offset are read on each :meth:`~JsonlTail.poll`;
  - a torn tail is left unconsumed — the offset stops at the last
    complete line and the torn bytes are re-read whole on a later poll;
  - **truncation** (the file shrank — a resume rewound ``metrics.jsonl``
    to its checkpoint boundary) resets the offset to zero so the
    rewritten prefix is re-delivered; callers that de-duplicate (e.g. by
    generation number, as ``--follow`` does) see each logical row once;
  - a missing file is not an error — it just has no rows yet.

Nothing here calls ``fsync``: the guarantees hold when a process is
killed, not when the machine loses power.  A writer killed between
creating its temp and renaming it leaves the temp behind; no reader
looks at it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Union


def write_atomic(path: Union[str, Path], text: str) -> None:
    """Replace ``path`` with ``text`` all at once (see module docstring)."""
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
        f"-{time.monotonic_ns()}"
    )
    # Opened outside the try: a temp this call did not create is not
    # its to remove.
    handle = open(tmp, "x")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Union[str, Path], payload: Any) -> None:
    """Replace ``path`` with ``payload`` as an indented, sorted-key JSON
    document ending in a newline, atomically."""
    write_atomic(path, _indented(payload) + "\n")


def read_json(path: Union[str, Path], error: type) -> Dict[str, Any]:
    """The JSON object in ``path``; raises ``error`` for anything else."""
    try:
        data = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise error(str(exc)) from exc
    except ValueError as exc:  # undecodable JSON or bytes
        raise error(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path} does not hold a JSON object")
    return data


def _indented(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(payload: Any) -> str:
    """SHA-256 of ``payload``'s canonical JSON: equal payloads hash
    alike whatever their key order, in any process or machine."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def reject_unknown(
    data: Mapping[str, Any], known: Iterable[str], error: type, what: str
) -> None:
    """Raise ``error`` ("unknown <what>: [...]; known: [...]") when
    ``data`` has a key outside ``known``."""
    known = sorted(known)
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise error(f"unknown {what}: {unknown}; known: {known}")


def check_fields(data: Mapping[str, Any], record: type, error: type, what: str) -> None:
    """:func:`reject_unknown` against the dataclass ``record``'s fields,
    and ``error`` ("missing <what>: [...]") if ``data`` lacks a field
    that has no default."""
    fields = dataclasses.fields(record)
    reject_unknown(data, [f.name for f in fields], error, what)
    missing = [f.name for f in fields if f.name not in data
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise error(f"missing {what}: {missing}")


class JsonRecord:
    """The JSON codec of a frozen spec dataclass.

    A subclass supplies ``to_dict``/``from_dict``, the exception class
    ``error`` its JSON errors raise and the ``label`` their messages use
    ("invalid <label> JSON", "<label> JSON must be an object").  Files
    hold :func:`write_json`'s form of ``to_dict()``.
    """

    error: type
    label: str

    def replace(self, **changes: Any) -> Any:
        """A copy with the given fields changed (validated again)."""
        return dataclasses.replace(self, **changes)

    def to_json(self) -> str:
        return _indented(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> Any:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise cls.error(f"invalid {cls.label} JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise cls.error(f"{cls.label} JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: Union[str, Path]) -> Any:
        return cls.from_json(Path(path).read_text())

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def content_key(self) -> str:
        """Stable content hash of the record; feeds the DSE cache keys."""
        return content_key(self.to_dict())


def append_jsonl(path: Union[str, Path], row: Mapping[str, Any]) -> None:
    """Append ``row`` as one sorted-key JSON line (see module docstring)."""
    line = (json.dumps(row, sort_keys=True) + "\n").encode()
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = b"\n" + line  # end a torn tail first
        os.write(fd, line)
    finally:
        os.close(fd)


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every decodable object row of ``path``, in file order."""
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    return _decode(blob)


def _decode(blob: bytes) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for line in blob.splitlines():
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:  # torn or junk (undecodable JSON or bytes)
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


class JsonlTail:
    """Cursor over one append-mostly JSONL file (see module docstring)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: Byte offset of the first unconsumed byte.
        self.offset = 0

    def __repr__(self) -> str:
        return f"JsonlTail({str(self.path)!r}, offset={self.offset})"

    def poll(self) -> List[Dict[str, Any]]:
        """Decoded rows appended since the last poll (possibly none).

        Complete lines decode as in :func:`read_jsonl`; an incomplete
        final line is left for the next poll.
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            # Vanished or not created yet: restart from the beginning
            # when it (re)appears.
            self.offset = 0
            return []
        if size < self.offset:
            self.offset = 0  # truncated (resume rewind): re-deliver
        if size == self.offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            blob = handle.read(size - self.offset)
        end = blob.rfind(b"\n")
        if end < 0:
            return []  # torn tail only — wait for the newline
        self.offset += end + 1
        return _decode(blob[: end + 1])
