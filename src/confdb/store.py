"""Durable append-only object store with serializable write transactions.

On disk a store is one directory:

* ``objects.log`` -- the append-only record log.  Each record is
  ``magic octet, record type, 4-octet big-endian body length, body,
  4-octet big-endian CRC-32 of body``.  An object record's body is the
  identity text, a creation-timestamp line, then the canonical payload;
  a transaction is closed by a commit record whose body is its object
  record count, at least 1.  Torn tails (a crash mid-append) are
  detected by the framing plus CRC and truncated away on the next open,
  with a warning on the ``confdb.store`` logger; a bad record that is
  *not* the tail means real damage and refuses to open.  A handle
  reads, sizes and truncates the log only through the descriptor it
  opened, so a file put in the log's place later is never mixed into
  what it reads.
* ``objects.hint`` -- one line, ``confdb-hint 1 <covered> <sha256>``:
  a commit boundary of the log and the SHA-256 hex digest of the log's
  first ``covered`` bytes (the hint file of Bitcask, without a keydir).
  A handle that committed writes it after each ``HINT_EVERY_BYTES`` of
  log growth and when it closes, to a temporary name and then by
  rename, without fsync: it is checked before it is used.  An open
  trusts a hint only when the log is at least ``covered`` bytes long
  and those exact bytes have that digest.  It then only frames the
  covered records (magic, type, lengths, commit counts, identities and
  stamps) and decodes each on first read, canonical check included, so
  a bad record there refuses at that read.  Records past the hint, and
  every record when there is no trusted hint, are fully decoded and
  canonically checked at open.  ``confdb fsck`` checks every record of
  a log offline, whatever the hint says.  The decoded objects share
  their identities and names: every link to an object holds that
  object's own identity, and each distinct name is one string.
* ``aliases.dat`` -- the one mutable side region (alias trees), rewritten
  atomically via write-temp-then-rename, never touching the log.
* ``LOCK`` -- flock target guarding single-writer access, including
  across processes.

Objects are immutable once committed: there is no update or delete.
Config keys are dense per (class name, secondary key) pair because the
writer lock is held from ``begin()`` and aborted transactions never
consume keys.  Readers take no lock, but for the first read of a record
an open only framed.  Committed state is published in
place, in a fixed order: a batch is first checked for duplicate
identities (so a corrupt log leaves nothing half-applied), then every
object is inserted, then the per-pair highest keys are raised, then the
applied log length.  Keys are only ever raised and objects never
removed, so anything a reader reaches through a highest key, such as the
active run-type map and every tree it binds, is already present.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import re
import threading
import time
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass

from .errors import (
    CorruptLogError,
    DanglingLinkError,
    InvalidPayloadError,
    NotAMapError,
    NotFoundError,
    TransactionClosedError,
)
from .model import (
    KIND_LEAF,
    KIND_MAP,
    KIND_RUNTYPES,
    DecodeTables,
    ObjectIdentity,
    Payload,
    canonical_int,
    decode_payload,
    encode_payload,
    format_identity,
    validate_name,
)

LOG_NAME = "objects.log"
HINT_NAME = "objects.hint"
ALIAS_NAME = "aliases.dat"
LOCK_NAME = "LOCK"

# A committing handle rewrites the hint once the log has grown this much
# past the last hint it wrote or verified.
HINT_EVERY_BYTES = 1 << 20
_HINT_LINE = re.compile(rb"confdb-hint 1 (0|[1-9][0-9]{0,19}) ([0-9a-f]{64})\n")

MAGIC = 0xC7
REC_OBJECT = 0x01
REC_COMMIT = 0x02
_HEADER_LEN = 6  # magic + type + 4-byte length

RUNTYPES_CLASS = "@runtypes"


@dataclass(frozen=True, slots=True)
class StoredObject:
    """A committed object: identity plus payload plus bookkeeping."""

    identity: ObjectIdentity
    payload: Payload
    created_at: int

    @property
    def kind(self) -> str:
        return self.payload.kind


def _encode_record(rtype: int, body: bytes) -> bytes:
    return (
        bytes((MAGIC, rtype))
        + len(body).to_bytes(4, "big")
        + body
        + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "big")
    )


def _object_body(obj: StoredObject) -> bytes:
    head = f"{format_identity(obj.identity)}\n{obj.created_at}\n".encode("utf-8")
    return head + encode_payload(obj.payload)


def _decode_head(body: bytes, tables: DecodeTables, stamps: dict) -> tuple:
    """An object record body's identity, creation stamp and payload offset."""
    identity_end = body.index(b"\n")
    stamp_end = body.index(b"\n", identity_end + 1)
    identity = tables.identity(body[:identity_end].decode("utf-8"))
    stamp = body[identity_end + 1 : stamp_end]
    created_at = stamps.get(stamp)
    if created_at is None:
        created_at = canonical_int(stamp.decode("ascii"))
        if created_at is None:
            raise ValueError(f"bad creation stamp: {stamp!r}")
        stamps[stamp] = created_at
    return identity, created_at, stamp_end + 1


def _decode_object_body(
    body: bytes, offset: int, tables: DecodeTables, stamps: dict
) -> StoredObject:
    try:
        identity, created_at, payload_start = _decode_head(body, tables, stamps)
        payload = decode_payload(body[payload_start:], tables)
    except Exception as exc:
        raise CorruptLogError(f"undecodable object record at offset {offset}: {exc}") from exc
    return StoredObject(identity, payload, created_at)


def _record_end(buf: bytes, offset: int, size: int, base: int) -> int | None:
    """The end of the record at ``offset``; None if it runs past ``size``.

    Refuses a bad magic octet or record type, naming the log offset
    (``base`` is the log offset of ``buf[0]``).
    """
    if size - offset < _HEADER_LEN:
        return None
    if buf[offset] != MAGIC:
        raise CorruptLogError(f"bad record magic at offset {base + offset}")
    rtype = buf[offset + 1]
    if rtype not in (REC_OBJECT, REC_COMMIT):
        raise CorruptLogError(f"unknown record type {rtype} at offset {base + offset}")
    end = offset + _HEADER_LEN + int.from_bytes(buf[offset + 2 : offset + 6], "big") + 4
    return end if end <= size else None


def _check_commit(body: bytes, at: int, pending: int) -> None:
    """Refuse a commit record that does not close exactly ``pending`` records."""
    # Latin-1 decodes any bytes, and canonical decimal text is ASCII.
    # The writer never appends an empty transaction.
    count = canonical_int(body.decode("latin-1"))
    if count is None or count < 1:
        raise CorruptLogError(f"bad commit record at offset {at}")
    if count != pending:
        raise CorruptLogError(
            f"commit record at offset {at} covers {count} records, found {pending}"
        )


def _scan_log(buf: bytes, names: dict | None = None, base: int = 0):
    """Scan a log image into committed transactions.

    Returns ``(transactions, committed_end)`` where ``transactions`` is a
    list of lists of StoredObject and ``committed_end`` is the offset just
    past the last complete transaction.  A truncated tail (including a
    trailing transaction with no commit record) is silently ignored;
    damage before the tail raises ``CorruptLogError`` naming the log
    offset of the bad record; ``base`` is the log offset of ``buf[0]``.

    Every object record is decoded and canonically checked once.  The
    decoded objects share one identity per identity text, one
    ``(name, identity)`` pair per link line, one string per name (from
    ``names``, a name table the caller may keep) and one int per
    creation stamp.
    """
    tables = DecodeTables(names)
    stamps: dict[bytes, int] = {}
    transactions = []
    pending = []
    committed_end = 0
    offset = 0
    size = len(buf)
    while offset < size:
        end = _record_end(buf, offset, size, base)
        if end is None:
            break  # torn header or body
        body = buf[offset + _HEADER_LEN : end - 4]
        crc = int.from_bytes(buf[end - 4 : end], "big")
        if crc != (zlib.crc32(body) & 0xFFFFFFFF):
            if end == size:
                break  # torn tail record
            raise CorruptLogError(f"CRC mismatch at offset {base + offset}")
        if buf[offset + 1] == REC_OBJECT:
            pending.append(_decode_object_body(body, base + offset, tables, stamps))
        else:
            _check_commit(body, base + offset, len(pending))
            transactions.append(pending)
            pending = []
            committed_end = end
        offset = end
    return transactions, committed_end


class _Framed:
    """A committed record an open framed but has not decoded yet.

    ``offset`` is where the record starts in the store's ``_image``.
    """

    __slots__ = ("identity", "offset")

    def __init__(self, identity: ObjectIdentity, offset: int):
        self.identity = identity
        self.offset = offset


def _frame_log(buf: bytes, end: int, tables: DecodeTables, stamps: dict) -> list | None:
    """Frame the records of ``buf[:end]`` without checking or decoding payloads.

    For a prefix whose bytes a verified digest vouches for, so the CRCs
    and the canonical decode can wait for the first read.  It keeps the
    structural checks of ``_scan_log`` (magic, record type, lengths,
    commit counts), interns each identity through ``tables`` and parses
    each stamp through ``stamps``.  Returns one ``_Framed`` per object
    record, or None when ``end`` is not the end of a commit record.
    """
    framed = []
    pending = 0
    offset = 0
    while offset < end:
        record_end = _record_end(buf, offset, end, 0)
        if record_end is None:
            return None
        body = buf[offset + _HEADER_LEN : record_end - 4]
        if buf[offset + 1] == REC_OBJECT:
            try:
                identity = _decode_head(body, tables, stamps)[0]
            except Exception as exc:
                raise CorruptLogError(
                    f"undecodable object record at offset {offset}: {exc}"
                ) from exc
            framed.append(_Framed(identity, offset))
            pending += 1
        else:
            _check_commit(body, offset, pending)
            pending = 0
        offset = record_end
    return framed if pending == 0 else None


def _parse_hint(data: bytes) -> tuple[int, str] | None:
    """``(covered length, hex digest)`` from a hint file's bytes, if well formed."""
    match = _HINT_LINE.fullmatch(data)
    return None if match is None else (int(match[1]), match[2].decode("ascii"))


def _read_hint(directory: str) -> bytes | None:
    """The hint file's bytes (at most 128 of them), or None if there is none."""
    try:
        with open(os.path.join(directory, HINT_NAME), "rb") as f:
            return f.read(128)
    except FileNotFoundError:
        return None
    except OSError:
        return b""  # unreadable: never trusted


def _hint_matches(buf: bytes, hint: tuple[int, str] | None):
    """The SHA-256 state of the prefix ``hint`` covers, if its digest matches."""
    if hint is None or hint[0] > len(buf):
        return None
    digest = hashlib.sha256(memoryview(buf)[: hint[0]])
    return digest if digest.hexdigest() == hint[1] else None


class WriteTransaction:
    """A batch of pending creations, invisible until :meth:`commit`.

    Confined to the thread that called ``Store.begin()``; the store-wide
    writer lock is held for the transaction's whole lifetime.  It reads
    like a ``Store`` (``get_object``, ``has_object``, ``highest_key``)
    that also sees its own staged creations.
    """

    def __init__(self, store: "Store"):
        self._store = store
        self.state = "open"
        self.pending: list[StoredObject] = []
        self._by_identity: dict[ObjectIdentity, StoredObject] = {}
        self._local_highs: dict[tuple, int] = {}

    def _require_open(self):
        if self.state != "open":
            raise TransactionClosedError(f"transaction is {self.state}")

    def get_object(self, identity: ObjectIdentity) -> StoredObject:
        """The staged object if there is one, else the committed one."""
        staged = self._by_identity.get(identity)
        if staged is not None:
            return staged
        return self._store.get_object(identity)

    def has_object(self, identity: ObjectIdentity) -> bool:
        return identity in self._by_identity or self._store.has_object(identity)

    def highest_key(self, class_name: str, secondary_key: str | None = None) -> int:
        """Highest config key for a pair, counting staged creations."""
        return max(
            self._store.highest_key(class_name, secondary_key),
            self._local_highs.get((class_name, secondary_key), 0),
        )

    def create_object(
        self, class_name: str, secondary_key: str | None, payload: Payload
    ) -> ObjectIdentity:
        """Stage one object; its key continues the pair's dense sequence."""
        self._require_open()
        validate_name(class_name, "class name")
        if secondary_key is not None:
            validate_name(secondary_key, "secondary key")
        if not isinstance(payload, Payload):
            raise InvalidPayloadError(f"not a payload: {payload!r}")
        if payload.kind == KIND_RUNTYPES:
            if class_name != RUNTYPES_CLASS or secondary_key is not None:
                raise InvalidPayloadError(
                    f"run-type payloads live under {RUNTYPES_CLASS!r} with no secondary key"
                )
        elif class_name.startswith("@"):
            raise InvalidPayloadError(f"class names starting with '@' are reserved: {class_name!r}")

        if payload.kind == KIND_MAP:
            for name, target in payload.entries:
                if not self.has_object(target):
                    raise DanglingLinkError(
                        f"link {name!r} targets missing object {format_identity(target)}",
                        detail=format_identity(target),
                    )
        elif payload.kind == KIND_RUNTYPES:
            for run_type, target in payload.entries:
                if not self.has_object(target):
                    raise DanglingLinkError(
                        f"run type {run_type!r} binds missing object {format_identity(target)}",
                        detail=format_identity(target),
                    )
                if self.get_object(target).kind != KIND_MAP:
                    raise NotAMapError(
                        f"run type {run_type!r} must bind a map, got {format_identity(target)}",
                        detail=format_identity(target),
                    )

        # Checked now, so shared through the name table like decoded names.
        names = self._store._names
        class_name = names.setdefault(class_name, class_name)
        if secondary_key is not None:
            secondary_key = names.setdefault(secondary_key, secondary_key)
        pair = (class_name, secondary_key)
        identity = ObjectIdentity(
            class_name, secondary_key, self.highest_key(class_name, secondary_key) + 1
        )
        obj = StoredObject(identity, payload, int(self._store._clock()))
        self.pending.append(obj)
        self._by_identity[identity] = obj
        self._local_highs[pair] = identity.config_key
        return identity

    def commit(self):
        """Make all pending creations durable and visible atomically."""
        self._require_open()
        try:
            self._store._commit_transaction(self)
        except BaseException:
            self.state = "aborted"
            self._store._finish_transaction(self)
            raise
        self.state = "committed"
        self._store._finish_transaction(self)

    def abort(self):
        """Discard pending creations; their keys are never consumed."""
        self._require_open()
        self.state = "aborted"
        self._store._finish_transaction(self)


class Store:
    """Handle on one store directory; shareable across reader threads."""

    def __init__(self, directory: str, *, clock=time.time):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._log_path = os.path.join(self.directory, LOG_NAME)
        self._hint_path = os.path.join(self.directory, HINT_NAME)
        self._alias_path = os.path.join(self.directory, ALIAS_NAME)
        self._clock = clock
        self._writer_lock = threading.RLock()
        self._apply_lock = threading.Lock()
        self._flock_depth = 0
        self._active_txn: WriteTransaction | None = None
        self._objects: dict[ObjectIdentity, StoredObject] = {}
        self._highs: dict[tuple, int] = {}  # (class, secondary) -> highest config key
        # Every valid name the log scans have seen, so decoded objects share them.
        self._names: dict[str, str] = {}
        # Records framed from a hinted prefix are decoded on first read from
        # ``_image``, the log bytes the open verified, through these tables.
        self._tables = DecodeTables(self._names)
        self._stamps: dict[bytes, int] = {}
        self._image = b""
        # SHA-256 of the applied prefix; the hint this handle last wrote or
        # verified covers ``_hint_len`` bytes; ``_committed_len`` is the
        # applied length after this handle's last commit.
        self._digest = hashlib.sha256()
        self._hint_len = 0
        self._committed_len = 0
        # Owned by alias.py: the last alias region text read and its parse.
        self._alias_parsed = ("", {})
        self._applied_len = 0
        self._lock_fd = None
        self._log_fd = None
        try:
            self._lock_fd = os.open(
                os.path.join(self.directory, LOCK_NAME), os.O_CREAT | os.O_RDWR, 0o644
            )
            self._log_fd = os.open(self._log_path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
            with self._exclusive():
                self._recover(truncate=True)
        except BaseException:
            self.close()
            raise

    # -- locking ------------------------------------------------------

    def _acquire_exclusive(self):
        self._writer_lock.acquire()
        if self._flock_depth == 0:
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
        self._flock_depth += 1

    def _release_exclusive(self):
        self._flock_depth -= 1
        if self._flock_depth == 0:
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
        self._writer_lock.release()

    @contextmanager
    def _exclusive(self):
        self._acquire_exclusive()
        try:
            yield
        finally:
            self._release_exclusive()

    # -- recovery and catch-up ----------------------------------------

    def _read_log(self, offset: int, end: int) -> bytes:
        """The log bytes in ``[offset, end)``, read through this handle's descriptor."""
        chunks = []
        while offset < end:
            # One pread returns at most about 2 GiB; a zero-byte read means
            # the log is now shorter than ``end``.
            chunk = os.pread(self._log_fd, end - offset, offset)
            if not chunk:
                raise CorruptLogError("log shrank outside recovery")
            chunks.append(chunk)
            offset += len(chunk)
        return b"".join(chunks)

    def _truncate_log(self, length: int):
        os.ftruncate(self._log_fd, length)
        os.fsync(self._log_fd)

    def _apply_transactions(self, transactions, new_applied_len: int):
        batch = [obj for txn_records in transactions for obj in txn_records]
        seen = set()
        for obj in batch:
            if obj.identity in self._objects or obj.identity in seen:
                raise CorruptLogError(
                    f"duplicate identity in log: {format_identity(obj.identity)}"
                )
            seen.add(obj.identity)
        for obj in batch:
            self._objects[obj.identity] = obj
        for obj in batch:
            pair = (obj.identity.class_name, obj.identity.secondary_key)
            if obj.identity.config_key > self._highs.get(pair, 0):
                self._highs[pair] = obj.identity.config_key
        self._applied_len = max(self._applied_len, new_applied_len)

    def _recover(self, truncate: bool):
        """Replay committed records beyond what is already applied.

        With ``truncate`` (which requires the exclusive lock) a torn or
        uncommitted tail is physically cut off; without it the tail is
        left alone and simply not applied, so a read-side catch-up never
        interferes with an in-flight writer.  A replay from the start of
        the log takes the prefix a trusted hint covers as framed records.
        """
        with self._apply_lock:
            size = os.fstat(self._log_fd).st_size
            if size < self._applied_len:
                raise CorruptLogError("log shrank outside recovery")
            if size == self._applied_len:
                return
            base = self._applied_len
            data = self._read_log(base, size)
            hinted = self._hinted_prefix(data) if base == 0 else None
            digest, covered, framed = hinted or (self._digest, 0, [])
            transactions, committed_len = _scan_log(
                data[covered:] if covered else data, self._names, base + covered
            )
            boundary = base + covered + committed_len
            self._apply_transactions([framed] + transactions if framed else transactions, boundary)
            digest.update(memoryview(data)[covered : covered + committed_len])
            self._digest = digest
            if hinted:
                self._image, self._hint_len = data, covered
            if truncate and boundary < size:
                self._truncate_log(boundary)
                # Imported on first use: truncation is rare, and importing
                # logging costs each process that loads confdb about 0.4 MiB
                # of RSS and 9 ms.
                import logging

                logging.getLogger(__name__).warning(
                    "%s: truncated a torn tail at offset %d, cutting %d bytes",
                    self._log_path, boundary, size - boundary,
                )

    def _hinted_prefix(self, data: bytes):
        """``(digest, covered length, framed records)`` from a trusted hint, else None."""
        hint = _parse_hint(_read_hint(self.directory) or b"")
        digest = _hint_matches(data, hint)
        if digest is None:
            return None
        framed = _frame_log(data, hint[0], self._tables, self._stamps)
        return None if framed is None else (digest, hint[0], framed)

    def _write_hint(self):
        """Record the applied prefix's length and digest in the hint file.

        Best effort: the hint is checked before it is used, so it needs no
        fsync, and a failed write only leaves an older hint or none.
        """
        with self._apply_lock:
            covered, digest = self._applied_len, self._digest.hexdigest()
        tmp_path = f"{self._hint_path}.{os.getpid()}.{id(self):x}.tmp"
        try:
            with open(tmp_path, "wb") as f:
                f.write(f"confdb-hint 1 {covered} {digest}\n".encode("ascii"))
            os.replace(tmp_path, self._hint_path)
        except OSError:
            with suppress(OSError):
                os.unlink(tmp_path)
            return
        self._hint_len = covered

    def refresh(self):
        """Pick up transactions committed by other store handles."""
        if os.fstat(self._log_fd).st_size > self._applied_len:
            self._recover(truncate=False)

    # -- transactions --------------------------------------------------

    def begin(self) -> WriteTransaction:
        """Open the store-wide single write transaction (blocks on peers)."""
        self._acquire_exclusive()
        if self._active_txn is not None:
            self._release_exclusive()
            raise TransactionClosedError("a transaction is already open on this handle")
        try:
            self._recover(truncate=True)
        except BaseException:
            self._release_exclusive()
            raise
        txn = WriteTransaction(self)
        self._active_txn = txn
        return txn

    @contextmanager
    def transaction(self):
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if txn.state == "open":
                txn.abort()
            raise
        else:
            if txn.state == "open":
                txn.commit()

    def _commit_transaction(self, txn: WriteTransaction):
        if not txn.pending:
            return  # nothing staged: leave the log byte-identical
        chunks = [_encode_record(REC_OBJECT, _object_body(obj)) for obj in txn.pending]
        chunks.append(_encode_record(REC_COMMIT, str(len(txn.pending)).encode("ascii")))
        data = b"".join(chunks)
        # The apply lock spans write-through-publish so a concurrent
        # refresh() can never apply these bytes first.
        with self._apply_lock:
            pre_commit_len = self._applied_len
            try:
                written = 0
                while written < len(data):
                    written += os.write(self._log_fd, data[written:])
                os.fsync(self._log_fd)
            except OSError:
                # Leave the store in its pre-commit state before re-raising.
                self._truncate_log(pre_commit_len)
                raise
            self._apply_transactions([txn.pending], pre_commit_len + len(data))
            self._digest.update(data)
            self._committed_len = self._applied_len
        if self._committed_len - self._hint_len >= HINT_EVERY_BYTES:
            self._write_hint()

    def _finish_transaction(self, txn: WriteTransaction):
        if self._active_txn is txn:
            self._active_txn = None
        self._release_exclusive()

    # -- reads ----------------------------------------------------------

    def get_object(self, identity: ObjectIdentity) -> StoredObject:
        """Return the committed object; repeated reads are byte-identical."""
        obj = self._objects.get(identity)
        if type(obj) is not StoredObject:
            if obj is None:
                raise NotFoundError(
                    f"no such object: {format_identity(identity)}",
                    detail=format_identity(identity),
                )
            obj = self._first_read(obj)
        return obj

    def _first_read(self, framed: _Framed) -> StoredObject:
        """Decode a framed record, once per handle even under concurrent reads.

        Commit marks compare stored objects by ``is``, so each identity
        must become exactly one object.
        """
        with self._apply_lock:
            obj = self._objects[framed.identity]
            if type(obj) is _Framed:
                start = obj.offset + _HEADER_LEN
                end = start + int.from_bytes(self._image[obj.offset + 2 : start], "big")
                obj = _decode_object_body(
                    self._image[start:end], obj.offset, self._tables, self._stamps
                )
                self._objects[framed.identity] = obj
        return obj

    def has_object(self, identity: ObjectIdentity) -> bool:
        return identity in self._objects

    def highest_key(self, class_name: str, secondary_key: str | None = None) -> int:
        """Highest committed config key for a pair; 0 if unknown."""
        return self._highs.get((class_name, secondary_key), 0)

    def list_versions(self, class_name: str, secondary_key: str | None = None) -> list[int]:
        """Dense ascending config keys for one pair; `[]` if unknown."""
        return list(range(1, self.highest_key(class_name, secondary_key) + 1))

    def object_count(self) -> int:
        return len(self._objects)

    def log_size(self) -> int:
        return os.fstat(self._log_fd).st_size

    # -- alias side region ----------------------------------------------

    def read_alias_region(self) -> str:
        try:
            with open(self._alias_path, "r", encoding="utf-8", newline="") as f:
                return f.read()
        except FileNotFoundError:
            return ""

    def write_alias_region(self, text: str):
        tmp_path = self._alias_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, self._alias_path)
        dir_fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @contextmanager
    def alias_lock(self):
        """Serialize alias read-modify-write through the writer lock."""
        with self._exclusive():
            yield

    # -- lifecycle --------------------------------------------------------

    def close(self):
        if self._log_fd is not None:
            if self._committed_len > self._hint_len:
                self._write_hint()
            os.close(self._log_fd)
            self._log_fd = None
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc):
        self.close()


def open_store(directory: str, *, clock=time.time) -> Store:
    """Open (or create) a store directory, replaying and repairing the log."""
    return Store(directory, clock=clock)


def check_store(directory: str):
    """Check a store's whole log offline; yield one line per finding.

    Read-only: it takes no lock and never truncates.  It ignores the
    hint and scans the log from offset 0 (CRCs, canonical decode, commit
    counts), then checks, in log order, that each identity is new, that
    each pair's keys count up from 1 without a gap, and that every map
    link and run-type binding names an object committed by then, a map
    for a binding.  It yields the hint's state and any torn tail (left in
    place), and last ``ok <objects> objects, <bytes> bytes``.  The first
    failure raises ``CorruptLogError`` naming its log offset.
    """
    with open(os.path.join(directory, LOG_NAME), "rb") as f:
        buf = f.read()
    raw = _read_hint(directory)
    hint = _parse_hint(raw or b"")
    if raw is None:
        yield "hint: absent"
    elif _hint_matches(buf, hint) is None:
        yield "hint: mismatched"
    else:
        yield f"hint: valid, covering {hint[0]} of {len(buf)} bytes"
    transactions, committed_end = _scan_log(buf)
    if committed_end < len(buf):
        yield (f"torn tail: {len(buf) - committed_end} bytes at offset {committed_end},"
               " left in place")
    offsets = iter(_frame_log(buf, committed_end, DecodeTables(), {}))
    objects: dict[ObjectIdentity, StoredObject] = {}
    highs: dict[tuple, int] = {}
    for records in transactions:
        located = [(obj, next(offsets).offset) for obj in records]
        for obj, at in located:
            identity, text = obj.identity, format_identity(obj.identity)
            pair = (identity.class_name, identity.secondary_key)
            if identity in objects:
                raise CorruptLogError(f"duplicate identity {text} at offset {at}")
            if identity.config_key != highs.get(pair, 0) + 1:
                raise CorruptLogError(
                    f"{text} at offset {at} breaks its key sequence after key"
                    f" {highs.get(pair, 0)}"
                )
            objects[identity] = obj
            highs[pair] = identity.config_key
        for obj, at in located:
            if obj.kind == KIND_LEAF:
                continue
            for name, target in obj.payload.entries:
                linked = objects.get(target)
                if linked is None:
                    raise CorruptLogError(
                        f"{format_identity(obj.identity)} at offset {at} links {name!r}"
                        f" to missing {format_identity(target)}"
                    )
                if obj.kind == KIND_RUNTYPES and linked.kind != KIND_MAP:
                    raise CorruptLogError(
                        f"{format_identity(obj.identity)} at offset {at} binds {name!r}"
                        f" to {format_identity(target)}, which is not a map"
                    )
    yield f"ok {len(objects)} objects, {len(buf)} bytes"
