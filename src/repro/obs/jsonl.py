"""The one reader and writer of the repo's JSON files: run directories,
serve jobs, sweep caches and ledgers, and telemetry all go through it.

* :func:`write_atomic` replaces a whole file.  The text goes to a temp
  file whose name is unique to the call (``<name>.tmp-<pid>-<thread>-
  <ns>``, created exclusively), then is renamed over the target: a
  reader sees the old file or the new one, never a mix, and two threads
  or processes writing one file never share a temp.  A failed write
  removes its temp and raises.
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

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Union


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
