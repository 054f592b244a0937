"""Durable on-disk checkpoints for resumable simulation sessions.

A checkpoint is a single JSON document wrapping an engine-specific
*payload* with enough framing to make corruption detectable and schema
evolution explicit::

    {
      "magic":  "sorn-checkpoint",
      "schema": 8,
      "sha256": "<hex digest of the canonical payload JSON>",
      "payload": { ... }
    }

Design rules:

- **Versioned schema.**  ``CHECKPOINT_SCHEMA`` is bumped whenever the
  payload layout changes incompatibly; a reader never guesses — a file
  written by a different schema version is rejected with a precise
  :class:`~repro.errors.CheckpointError` naming both versions.
- **Content checksum.**  The payload is hashed over its canonical JSON
  encoding (sorted keys, compact separators), so a single flipped bit
  anywhere in the state is caught before any of it is applied.  The
  writer splices that exact text between a fixed head and tail, and the
  reader hashes the bytes between them as they are on disk, never
  re-encoding the parsed payload; a file not in that layout fails the
  checksum.
- **Atomic writes.**  Files are written to a ``mkstemp`` sibling and
  published with :func:`os.replace`, so a reader never observes a
  half-written checkpoint and a crash mid-save leaves the previous
  checkpoint (if any) intact.
- **Arrays travel as base64.**  NumPy arrays are encoded as
  ``{"dtype", "shape", "data"}`` with the raw C-contiguous bytes
  base64-encoded — lossless for every dtype the engines use and
  independent of pickle.

Failure modes are never silent: a missing, truncated, corrupt, or
version-mismatched file raises :class:`~repro.errors.CheckpointError`
with a message naming the file and the specific defect.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Tuple

import numpy as np

from ..errors import CheckpointError

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_SCHEMA",
    "encode_array",
    "decode_array",
    "write_checkpoint",
    "read_checkpoint",
    "flows_digest",
    "config_digest",
    "schedule_fingerprint",
]

CHECKPOINT_MAGIC = "sorn-checkpoint"
CHECKPOINT_SCHEMA = 8


# -- array codec ---------------------------------------------------------------


def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    """Encode *arr* losslessly as a JSON-safe dict."""
    contiguous = np.ascontiguousarray(arr)
    return {
        "dtype": str(contiguous.dtype),
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def decode_array(obj: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`; returns a fresh writable array."""
    try:
        dtype = np.dtype(obj["dtype"])
        shape = tuple(int(d) for d in obj["shape"])
        raw = base64.b64decode(obj["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed array record in checkpoint: {exc}") from exc
    arr = np.frombuffer(raw, dtype=dtype)
    expected = 1
    for d in shape:
        expected *= d
    if arr.size != expected:
        raise CheckpointError(
            f"array record length mismatch: {arr.size} elements of {dtype} "
            f"for shape {shape}"
        )
    return arr.reshape(shape).copy()


# -- framing -------------------------------------------------------------------


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _frame(digest: str) -> Tuple[str, str]:
    """The text a checkpoint file holds before and after its payload.

    Splicing the canonical payload between them is byte-identical to
    dumping the whole document with sorted keys ("magic" < "payload" <
    "schema" < "sha256").
    """
    head = _canonical({"magic": CHECKPOINT_MAGIC})[:-1] + ',"payload":'
    tail = "," + _canonical({"schema": CHECKPOINT_SCHEMA, "sha256": digest})[1:]
    return head, tail


def write_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomically write *payload* to *path* with framing and checksum."""
    # The payload is encoded once: the checksum hashes that text and the
    # document splices it in.
    body = _canonical(payload)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    head, tail = _frame(digest)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(head + body + tail)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Read, validate, and return the payload of the checkpoint at *path*.

    Raises :class:`~repro.errors.CheckpointError` naming the defect for
    every failure mode: missing file, unreadable/truncated JSON, wrong
    magic, schema-version mismatch, missing fields, checksum mismatch.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint file at {path!r}") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        document = json.loads(raw)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is truncated or not JSON: {exc}"
        ) from exc
    if not isinstance(document, dict) or document.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path!r} is not a checkpoint file (missing "
            f"{CHECKPOINT_MAGIC!r} magic)"
        )
    schema = document.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path!r} has schema version {schema!r}; this build "
            f"reads version {CHECKPOINT_SCHEMA} — re-run from scratch or use "
            f"a matching build"
        )
    payload = document.get("payload")
    recorded = document.get("sha256")
    if not isinstance(payload, dict) or not isinstance(recorded, str):
        raise CheckpointError(
            f"checkpoint {path!r} is corrupt: missing payload or checksum"
        )
    # The payload's bytes as written; a file not in the written layout
    # hashes whole, which cannot match the digest it contains.
    head, tail = (part.encode("utf-8") for part in _frame(recorded))
    body = memoryview(raw)
    if raw.startswith(head) and raw.endswith(tail):
        body = body[len(head) : len(raw) - len(tail)]
    actual = hashlib.sha256(body).hexdigest()
    if actual != recorded:
        raise CheckpointError(
            f"checkpoint {path!r} failed its content checksum "
            f"(recorded {recorded[:12]}…, computed {actual[:12]}…) — the "
            f"file is corrupt and will not be applied"
        )
    return payload


# -- resume fingerprints -------------------------------------------------------
#
# A checkpoint is only applicable to a simulator built from the same
# (schedule, router-independent config, workload) triple it was taken
# under; these digests let resume verify that cheaply and reject
# mismatches with a precise error instead of silently diverging.


def flows_digest(flows) -> str:
    """Order-sensitive digest of a workload: SHA-256 over the row count
    and the four :class:`~repro.traffic.FlowTable` columns as
    little-endian int64 (a ``FlowSpec`` sequence is converted first)."""
    from ..traffic.workload import FlowTable

    table = FlowTable.of(flows)
    digest = hashlib.sha256(np.array([len(table)], dtype="<i8").tobytes())
    for column in (table.src, table.dst, table.size_cells, table.arrival_slot):
        digest.update(column.astype("<i8", copy=False).tobytes())
    return digest.hexdigest()


def config_digest(config) -> str:
    """Digest of every result-relevant :class:`SimConfig` field.

    The telemetry hub is excluded — it is an observer object, not a
    result-relevant knob, and its collector set is verified separately
    when the hub state is restored.
    """
    import dataclasses

    fields = {}
    for field in dataclasses.fields(config):
        if field.name == "telemetry":
            continue
        fields[field.name] = getattr(config, field.name)
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def schedule_fingerprint(schedule) -> Dict[str, Any]:
    """Identity of a schedule: dimensions plus a digest of its dense
    destination table ``bank[index]`` — the complete description of what
    circuits it opens when, independent of the schedule's Python class.

    The digest never gathers that table.  It hashes a canonical form of
    the compiled pair instead: the distinct bank rows in order of first
    use over ``index.ravel()`` (deduplicated by their bytes, as
    little-endian int32), then the index relabelled to that order.
    Equal dense tables give equal forms however the banks order or
    repeat their rows, and with the dimensions beside it the form
    determines the dense table, so unequal tables give unequal forms."""
    bank, index = schedule.compiled()
    slots = index.ravel()
    _, first = np.unique(slots, return_index=True)
    label = np.empty(bank.shape[0], dtype="<i4")
    seen: Dict[bytes, int] = {}
    digest = hashlib.sha256()
    for m in slots[np.sort(first)].tolist():
        row = bank[m].astype("<i4", copy=False).tobytes()
        if row not in seen:
            seen[row] = len(seen)
            digest.update(row)
        label[m] = seen[row]
    digest.update(label[slots].tobytes())
    return {
        "num_nodes": int(schedule.num_nodes),
        "num_planes": int(schedule.num_planes),
        "period": int(schedule.period),
        "dest_sha256": digest.hexdigest(),
    }
