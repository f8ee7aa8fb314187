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
* ``aliases.dat`` -- the one mutable side region (alias trees), rewritten
  atomically via write-temp-then-rename, never touching the log.
* ``LOCK`` -- flock target guarding single-writer access, including
  across processes.

One walk, ``_scan_log``, reads the log for the open, every catch-up and
``confdb fsck``.  It checks the framing and the CRC of every record and
its structure (magic, type, lengths, commit counts, identities and
stamps).  The open only frames the records: a handle keeps no copy of
them, and reads each one through its descriptor on its first read,
CRC-checked again and decoded, canonical check included, so a record
that is not canonical, or was damaged after the open, refuses at that
read.  A catch-up and ``confdb fsck`` decode every record they reach,
canonical check included.  A handle decodes every record through its
one set of intern tables, so its objects share their identities and
names: every link to an object holds that object's own identity, and
each distinct name is one string.

Objects are immutable once committed: there is no update or delete.
Config keys are dense per (class name, secondary key) pair because the
writer lock is held from ``begin()`` and aborted transactions never
consume keys.  Readers take no lock, but for the first read of a record
an open only framed.  Committed state is published in place, in a fixed
order: a batch is first checked for duplicate identities (so a corrupt
log leaves nothing half-applied), then every object is inserted, then
the per-pair highest keys are raised, then the applied log length.
Keys are only ever raised and objects never removed, so anything a
reader reaches through a highest key, such as the active run-type map
and every tree it binds, is already present.
"""

from __future__ import annotations

import fcntl
import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import (
    ConfdbError,
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
ALIAS_NAME = "aliases.dat"
LOCK_NAME = "LOCK"

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
    head = bytes((MAGIC, rtype)) + len(body).to_bytes(4, "big")
    return head + body + zlib.crc32(body).to_bytes(4, "big")


def _object_body(obj: StoredObject) -> bytes:
    head = f"{format_identity(obj.identity)}\n{obj.created_at}\n".encode("utf-8")
    return head + encode_payload(obj.payload)


def _decode_record(
    buf: bytes, offset: int, tables: DecodeTables, base: int = 0, payload: bool = True
):
    """The object record at ``buf[offset]``, read through ``tables``.

    Checks its identity and creation stamp; then decodes its payload,
    canonical check included, into a ``StoredObject``, or without
    ``payload`` returns its identity.  It never checks the CRC.  A
    failure raises ``CorruptLogError`` naming the log offset (``base`` is
    the log offset of ``buf[0]``).
    """
    start = offset + _HEADER_LEN
    end = start + int.from_bytes(buf[offset + 2 : start], "big")
    try:
        identity_end = buf.index(b"\n", start, end)
        stamp_end = buf.index(b"\n", identity_end + 1, end)
        identity = tables.identity(buf[start:identity_end].decode("utf-8"))
        created_at = tables.stamp(buf[identity_end + 1 : stamp_end])
        if not payload:
            return identity
        return StoredObject(identity, decode_payload(buf[stamp_end + 1 : end], tables), created_at)
    except Exception as exc:
        raise CorruptLogError(
            f"undecodable object record at offset {base + offset}: {exc}"
        ) from exc


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


def _scan_log(buf: bytes, tables: DecodeTables, base: int = 0, *, decode: bool):
    """Walk a log image into committed transactions; the store's one log walk.

    Returns ``(transactions, committed_end, framed)``: with ``decode``,
    ``transactions`` lists the decoded transactions, each a list of
    ``(StoredObject, log offset)`` pairs; without it, ``framed`` holds
    an ``(identity, log offset)`` pair per record, left for its first
    read.  ``committed_end`` is the offset in ``buf`` just past the last
    complete transaction.  A truncated tail (including a trailing
    transaction with no commit record) is silently ignored; damage before
    the tail raises ``CorruptLogError`` naming the log offset of the bad
    record; ``base`` is the log offset of ``buf[0]``.

    Every record is CRC-checked and gets the structural checks: magic,
    type, lengths, commit counts, identity and stamp.  With ``decode``
    its payload is also decoded, canonical check included.  Records are
    read through ``tables``, so the objects share one identity per
    identity text, one ``(name, identity)`` pair per link line, one
    string per name and one int per creation stamp.
    """
    transactions, framed, pending = [], [], []
    committed_end = offset = 0
    size = len(buf)
    view = memoryview(buf)  # so the CRC reads each body without a copy
    while offset < size:
        end = _record_end(buf, offset, size, base)
        if end is None:
            break  # torn header or body
        crc = int.from_bytes(buf[end - 4 : end], "big")
        if crc != zlib.crc32(view[offset + _HEADER_LEN : end - 4]):
            if end == size:
                break  # torn tail record
            raise CorruptLogError(f"CRC mismatch at offset {base + offset}")
        if buf[offset + 1] == REC_OBJECT:
            pending.append((_decode_record(buf, offset, tables, base, decode), base + offset))
        else:
            _check_commit(buf[offset + _HEADER_LEN : end - 4], base + offset, len(pending))
            if decode:
                transactions.append(pending)
            else:
                framed += pending
            pending = []
            committed_end = end
        offset = end
    return transactions, committed_end, framed


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
        names = self._store._tables.names
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
        self._alias_path = os.path.join(self.directory, ALIAS_NAME)
        self._clock = clock
        self._writer_lock = threading.RLock()
        self._apply_lock = threading.Lock()
        self._flock_depth = 0
        self._active_txn: WriteTransaction | None = None
        self._objects: dict[ObjectIdentity, StoredObject | int] = {}
        self._highs: dict[tuple, int] = {}  # (class, secondary) -> highest config key
        # Every record this handle decodes, at open, catch-up or first read,
        # goes through these tables, so decoded objects share their names,
        # identities, links and stamps.  ``_objects`` holds a framed record
        # as its log offset until its first read reads, checks and decodes it.
        self._tables = DecodeTables()
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

    def _apply_transactions(self, batch: list, applied_len: int):
        """Publish ``(identity, object or framed offset)`` pairs, then ``applied_len``."""
        seen = set()
        for identity, _ in batch:
            if identity in self._objects or identity in seen:
                raise CorruptLogError(f"duplicate identity in log: {format_identity(identity)}")
            seen.add(identity)
        for identity, obj in batch:
            self._objects[identity] = obj
        for identity, _ in batch:
            pair = (identity.class_name, identity.secondary_key)
            if identity.config_key > self._highs.get(pair, 0):
                self._highs[pair] = identity.config_key
        self._applied_len = applied_len

    def _recover(self, truncate: bool):
        """Replay committed records beyond what is already applied.

        With ``truncate`` (which requires the exclusive lock) a torn or
        uncommitted tail is physically cut off; without it the tail is
        left alone and simply not applied, so a read-side catch-up never
        interferes with an in-flight writer.  A replay from the start of
        the log frames its records; a catch-up decodes the ones it adds.
        """
        with self._apply_lock:
            size = os.fstat(self._log_fd).st_size
            if size < self._applied_len:
                raise CorruptLogError("log shrank outside recovery")
            if size == self._applied_len:
                return
            base = self._applied_len
            transactions, committed_len, framed = _scan_log(
                self._read_log(base, size), self._tables, base, decode=base > 0
            )
            boundary = base + committed_len
            # Framed records are published as their offsets, the rest decoded.
            framed += [(obj.identity, obj) for records in transactions for obj, _ in records]
            self._apply_transactions(framed, boundary)
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
            self._apply_transactions(
                [(obj.identity, obj) for obj in txn.pending], pre_commit_len + len(data)
            )

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
            obj = self._first_read(identity)
        return obj

    def _first_read(self, identity: ObjectIdentity) -> StoredObject:
        """Read, CRC-check and decode a framed record, once per handle.

        The record's own bytes are read through this handle's
        descriptor, so damage done to them after the open refuses here,
        on this and every later read.  Commit marks compare stored
        objects by ``is``, so each identity must become exactly one
        object, even under concurrent reads.
        """
        with self._apply_lock:
            obj = self._objects[identity]
            if type(obj) is int:
                if self._log_fd is None:
                    raise ConfdbError(f"store is closed: {self.directory}")
                head = self._read_log(obj, obj + _HEADER_LEN)
                # Bounded by the applied log, so a length damaged in place
                # never asks for more bytes than the log holds.
                end = _record_end(head, 0, self._applied_len - obj, obj)
                if end is None:
                    raise CorruptLogError(f"record at offset {obj} runs past the log")
                record = head + self._read_log(obj + _HEADER_LEN, obj + end)
                if int.from_bytes(record[-4:], "big") != zlib.crc32(record[_HEADER_LEN:-4]):
                    raise CorruptLogError(f"CRC mismatch at offset {obj}")
                obj = self._objects[identity] = _decode_record(record, 0, self._tables, obj)
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

    Read-only: it takes no lock and never truncates.  It scans the log
    from offset 0 and decodes every record (CRCs, canonical decode,
    commit counts), then checks, in log order, that each identity is
    new, that each pair's keys count up from 1 without a gap, and that
    every map link and run-type binding names an object committed by
    then, a map for a binding.  It yields any torn tail (left in place),
    and last ``ok <objects> objects, <bytes> bytes``.  The first failure
    raises ``CorruptLogError`` naming its log offset.
    """
    with open(os.path.join(directory, LOG_NAME), "rb") as f:
        buf = f.read()
    transactions, committed_end, _ = _scan_log(buf, DecodeTables(), decode=True)
    if committed_end < len(buf):
        yield (f"torn tail: {len(buf) - committed_end} bytes at offset {committed_end},"
               " left in place")
    objects: dict[ObjectIdentity, StoredObject] = {}
    highs: dict[tuple, int] = {}
    for records in transactions:
        for obj, at in records:
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
        for obj, at in records:
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
