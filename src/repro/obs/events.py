"""Structured JSONL event sink.

An :class:`EventLog` records timestamped, typed events -- one JSON
object per line when backed by a file, plain dicts when in-memory.
The solvers emit one end-of-solve event (with the residual trajectory
when one was collected), the sweep runner emits ``sweep.start``, a
throttled stream of ``sweep.progress`` (``done``, ``total``, ``eta``)
and ``sweep.finish``, the simulator layer emits per-run summaries.  Events are *never* recorded per simulator event or per
solver iteration: a sink stays cheap enough to leave on for whole
studies.

The sink accepts a path (opened and owned by the log), an open
file-like object (borrowed; the caller closes it), or nothing (an
in-memory list, handy in tests and for folding into result metadata).
"""

from __future__ import annotations

import io
import json
import threading
import time
from pathlib import Path
from typing import Union

__all__ = ["EventLog"]

SinkLike = Union["EventLog", str, Path, io.IOBase, None]


class EventLog:
    """A thread-safe, append-only log of structured events."""

    def __init__(self, sink: str | Path | io.IOBase | None = None) -> None:
        self._lock = threading.Lock()
        self._records: list[dict] | None = None
        self._owns_file = False
        if sink is None:
            self._file = None
            self._records = []
        elif isinstance(sink, (str, Path)):
            path = Path(sink)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = path.open("w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = sink

    @classmethod
    def coerce(cls, sink: SinkLike) -> "EventLog | None":
        """An :class:`EventLog` for any accepted sink spelling, or None."""
        if sink is None or isinstance(sink, EventLog):
            return sink
        return cls(sink)

    def emit(self, kind: str, **fields: object) -> None:
        """Record one event; ``kind`` plus flat JSON-serialisable fields."""
        record = {"kind": kind, "time": time.time()}
        record.update(fields)
        with self._lock:
            if self._file is not None:
                self._file.write(json.dumps(record) + "\n")
            else:
                self._records.append(record)

    @property
    def records(self) -> list[dict]:
        """In-memory records (empty for file-backed logs)."""
        with self._lock:
            return list(self._records) if self._records is not None else []

    def close(self) -> None:
        """Flush and close a file the log opened itself (else a no-op)."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
                if self._owns_file:
                    self._file.close()
                    self._file = None
                    self._records = []

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
