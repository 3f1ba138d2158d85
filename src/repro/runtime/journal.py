"""Write-ahead journal of update terms.

Durability follows the classic WAL discipline, specialized to the
paper's setting: the journal records the **ground update terms** — the
trace constructors — not the cell deltas, so a recovered store is
rebuilt by exactly the semantics that produced it (replay through the
:class:`~repro.runtime.state.MaterializedState` plans).

On-disk layout, inside one journal directory:

* ``journal.jsonl`` — one JSON object per admitted update::

      {"seq": 7, "update": "deposit", "params": ["a1"], "crc": 1234}

  ``crc`` is the CRC-32 of the canonical JSON encoding (sorted keys,
  no spaces) of the entry without the ``crc`` field.  Appends are
  buffered and fsynced every ``fsync_batch`` entries (group commit).

* ``snapshot.json`` — the compaction snapshot: the full cell store and
  the sequence number it covers, CRC-protected and written atomically
  (temp file + fsync + ``os.replace``).  Compaction truncates the
  journal only after the snapshot is durable, so a crash at any point
  leaves a recoverable directory.

Recovery (:meth:`Journal.recover`) loads the snapshot if present, then
replays journal entries with ``seq`` greater than the snapshot's.  A
truncated or corrupt *tail* — torn final write, bad CRC, non-monotone
sequence — ends replay with a warning rather than an error: everything
before the first bad record is kept, matching the usual WAL contract.
A corrupt *snapshot* raises :class:`~repro.errors.JournalError`, since
snapshots are written atomically and a bad one means real damage.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.errors import JournalError
from repro.obs.switch import SWITCH

__all__ = ["Journal", "RecoveredLog"]

Cell = tuple[str, tuple[str, ...]]
Value = Hashable

_JOURNAL_NAME = "journal.jsonl"
_SNAPSHOT_NAME = "snapshot.json"


def _canonical(payload: dict) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _crc(payload: dict) -> int:
    return zlib.crc32(_canonical(payload))


@dataclass
class RecoveredLog:
    """Outcome of :meth:`Journal.recover`.

    Attributes:
        cells: the compaction snapshot's cell store, or ``None`` when
            no snapshot exists (replay starts from the initial state).
        seq: the sequence number the snapshot covers (0 without one).
        entries: the surviving journal records past the snapshot, as
            ``(seq, update, params)`` triples in order.
        warnings: human-readable notes about skipped tail records.
    """

    cells: dict[Cell, Value] | None
    seq: int
    entries: list[tuple[int, str, tuple[str, ...]]] = field(
        default_factory=list
    )
    warnings: list[str] = field(default_factory=list)

    @property
    def last_seq(self) -> int:
        """Highest sequence number recovered (snapshot or entries)."""
        if self.entries:
            return self.entries[-1][0]
        return self.seq


class Journal:
    """Append-only journal over one directory.

    Args:
        directory: the journal directory (created if missing).
        fsync_batch: fsync after this many buffered appends; 1 gives
            per-update durability, larger values group-commit.
        fsync: set False to skip ``os.fsync`` entirely (fast, test- and
            benchmark-friendly; crash durability is then up to the OS).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        fsync_batch: int = 64,
        fsync: bool = True,
    ):
        if fsync_batch < 1:
            raise JournalError("fsync_batch must be at least 1")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.journal_path = os.path.join(self.directory, _JOURNAL_NAME)
        self.snapshot_path = os.path.join(
            self.directory, _SNAPSHOT_NAME
        )
        self._fsync_batch = fsync_batch
        self._fsync = fsync
        self._pending = 0
        self.appends = 0
        self.syncs = 0
        self.compactions = 0
        try:
            self._file = open(
                self.journal_path, "a", encoding="utf-8"
            )
        except OSError as exc:
            raise JournalError(
                f"cannot open journal at {self.journal_path}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(
        self, seq: int, update: str, params: tuple[str, ...]
    ) -> None:
        """Record one admitted update; flushes every ``fsync_batch``."""
        telemetry = SWITCH.telemetry
        t0 = time.perf_counter_ns() if telemetry is not None else 0
        body = {"seq": seq, "update": update, "params": list(params)}
        body["crc"] = _crc(body)
        self._file.write(
            json.dumps(body, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        self.appends += 1
        self._pending += 1
        if self._pending >= self._fsync_batch:
            self.flush()
        if telemetry is not None:
            telemetry.observe(
                "journal.append",
                time.perf_counter_ns() - t0,
                counter="journal.appends",
            )

    def flush(self) -> None:
        """Flush buffered appends and fsync (unless fsync is off)."""
        if self._file.closed:
            return
        batch = self._pending
        telemetry = SWITCH.telemetry if batch else None
        t0 = time.perf_counter_ns() if telemetry is not None else 0
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())
        if batch:
            self.syncs += 1
            if telemetry is not None:
                telemetry.observe(
                    "journal.fsync",
                    time.perf_counter_ns() - t0,
                    counter="journal.syncs",
                    batch=batch,
                )
        self._pending = 0

    def compact(self, cells: Mapping[Cell, Value], seq: int) -> None:
        """Write a durable snapshot covering ``seq`` and truncate the
        journal.  Crash-safe: the snapshot replaces atomically, and
        stale journal entries surviving a crash before truncation are
        filtered by sequence number on recovery."""
        telemetry = SWITCH.telemetry
        t0 = time.perf_counter_ns() if telemetry is not None else 0
        self.flush()
        body = {
            "seq": seq,
            "cells": sorted(
                [query, list(params), value]
                for (query, params), value in cells.items()
            ),
        }
        body["crc"] = _crc(body)
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as tmp:
            json.dump(body, tmp, sort_keys=True)
            tmp.flush()
            if self._fsync:
                os.fsync(tmp.fileno())
        os.replace(tmp_path, self.snapshot_path)
        self._file.close()
        self._file = open(self.journal_path, "w", encoding="utf-8")
        self.flush()
        self.compactions += 1
        if telemetry is not None:
            elapsed = time.perf_counter_ns() - t0
            telemetry.observe(
                "journal.compaction",
                elapsed,
                counter="journal.compactions",
                seq=seq,
                cells=len(cells),
            )
            telemetry.event(
                "info",
                "journal.compaction",
                elapsed / 1e6,
                seq=seq,
                cells=len(cells),
            )

    def close(self) -> None:
        """Flush and close the journal file."""
        if not self._file.closed:
            self.flush()
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveredLog:
        """Read the snapshot and the surviving journal entries.

        Raises:
            JournalError: on a corrupt snapshot (journal tail damage
                is recovered past, with warnings).
        """
        cells, seq = self._read_snapshot()
        recovered = RecoveredLog(cells, seq)
        last_seq = seq
        try:
            with open(self.journal_path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            lines = []
        for number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                body = json.loads(stripped)
                crc = body.pop("crc")
                entry_seq = body["seq"]
                update = body["update"]
                params = tuple(body["params"])
            except (ValueError, KeyError, TypeError, AttributeError):
                recovered.warnings.append(
                    f"journal entry {number} is truncated or "
                    "malformed; dropping it and the tail"
                )
                break
            if crc != _crc(body):
                recovered.warnings.append(
                    f"journal entry {number} fails its checksum; "
                    "dropping it and the tail"
                )
                break
            if entry_seq <= seq:
                continue  # pre-compaction leftover: superseded
            if entry_seq != last_seq + 1:
                recovered.warnings.append(
                    f"journal entry {number} has sequence "
                    f"{entry_seq}, expected {last_seq + 1}; dropping "
                    "it and the tail"
                )
                break
            recovered.entries.append((entry_seq, update, params))
            last_seq = entry_seq
        return recovered

    def _read_snapshot(self) -> tuple[dict[Cell, Value] | None, int]:
        try:
            with open(self.snapshot_path, encoding="utf-8") as handle:
                body = json.load(handle)
        except FileNotFoundError:
            return None, 0
        except ValueError as exc:
            raise JournalError(
                f"snapshot {self.snapshot_path} is not valid JSON: "
                f"{exc}"
            ) from exc
        try:
            crc = body.pop("crc")
            seq = body["seq"]
            rows = body["cells"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise JournalError(
                f"snapshot {self.snapshot_path} is malformed"
            ) from exc
        if crc != _crc(body):
            raise JournalError(
                f"snapshot {self.snapshot_path} fails its checksum"
            )
        cells = {
            (query, tuple(params)): value
            for query, params, value in rows
        }
        return cells, seq
