"""Durable append-only object store with serializable write transactions.

On disk a store is one directory:

* ``objects.log`` -- the append-only record log.  Each record is
  ``magic octet, record type, 4-octet big-endian body length, body,
  4-octet big-endian CRC-32 of body``.  An object record's body is the
  identity text, a creation-timestamp line, then the canonical payload;
  a transaction is closed by a commit record whose body is its object
  record count, at least 1.  Torn tails (a crash mid-append) are
  detected by the framing plus CRC and truncated away on the next open
  or ``begin()``, under the writer lock, with a warning on the
  ``confdb.store`` logger; a bad record that is *not* the tail means
  real damage and refuses to open.  A handle reads, sizes and truncates
  the log only through the descriptor it opened, so a file put in the
  log's place later is never mixed into what it reads.
* ``aliases.dat`` -- the one mutable side region (alias trees), staged
  by a write transaction and rewritten atomically (write-temp-then-rename)
  only by its commit, after its log records, never touching the log.
* ``LOCK`` -- flock target guarding single-writer access, including
  across processes.

One walk, ``_scan_log``, reads the log for the open, every catch-up and
``confdb fsck``, in reads of at most ``CHUNK_BYTES`` (1 MiB) each, so
none of them holds a copy of the whole log; a record cut by the end of
one read is read whole by the next.  It checks the framing and the CRC
of every record and its structure (magic, type, lengths, commit counts,
identities and stamps).  The open and every catch-up only frame the
records: each (class name, secondary key) pair is parsed and validated
once, through a table keyed by the identity's prefix bytes, and the
scan notes whether the payload's first line is ``kind=map``.  A handle
keeps no copy of the records.  It reads each one through its descriptor
on its first read, CRC-checked again and decoded, canonical check
included, so a record that is not canonical, or was damaged after it
was framed, refuses at that read and every later one.  ``confdb fsck``
decodes every record it reaches.  A handle decodes every record through
its one set of intern tables, so the objects it decodes share their
identities and names: every link it decodes to an object holds one
identity per identity text, and each distinct name is one string.  The
maps a handle commits link the identities their transaction was given,
so a later first read of a leaf the handle committed itself makes a
second, equal identity.

A handle's index is one dense table: per (class name, secondary key)
pair, a list whose slot k-1 holds key k's framed slot (the log offset,
inverted for a map) until its first read, and its decoded object after.
A handle's own commit publishes each leaf as its framed slot too, as an
open or a catch-up would, so a writer keeps no leaf decoded that it has
not read; it publishes each map and run-type map decoded, the very
object it staged, because commit marks compare maps by ``is`` (see
``commitproc``).  The list's length is the pair's highest key.  Every
open and catch-up refuses a record whose key does not continue its
pair's sequence, a repeat or a gap, naming its offset.
``Store.payload_bytes`` answers a framed leaf from its own record bytes,
decoded only to check them, so a reader that serves leaves never keeps
one decoded.

Objects are immutable once committed: there is no update or delete.
Config keys are dense per (class name, secondary key) pair because the
writer lock is held from ``begin()`` and aborted transactions never
consume keys.  Readers never take the writer lock, and the open takes
it only to cut a tail; a first read of a record a scan only framed
takes the handle's apply lock.  Committed state is published in place,
in a fixed order: a batch is first checked whole, every key continuing
its pair's sequence (so a corrupt log leaves nothing half-applied), then
each record is appended to its pair's list in log order, then the
applied log length is raised.  A writer creates an object only after
everything it links, so anything a reader reaches through a list's
length, such as the active run-type map and every tree it binds, is
already present.
"""

from __future__ import annotations

import fcntl
import mmap
import os
import threading
import time
import zlib
from contextlib import contextmanager, nullcontext
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
    parse_identity,
    validate_name,
)

LOG_NAME = "objects.log"
ALIAS_NAME = "aliases.dat"
LOCK_NAME = "LOCK"

MAGIC = 0xC7
REC_OBJECT = 0x01
REC_COMMIT = 0x02
_HEADER_LEN = 6  # magic + type + 4-byte length
CHUNK_BYTES = 2**20  # the most log bytes one scan read holds, unless a record is longer
# glibc's default mmap threshold: it serves a smaller allocation from its heap.
_MAPPED_READ_BYTES = 128 * 1024

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


def _decode_record(body: bytes, tables: DecodeTables, at: int) -> StoredObject:
    """The object record whose body is ``body``, decoded through ``tables``.

    Checks its identity and creation stamp, and decodes its payload,
    canonical check included.  A failure raises ``CorruptLogError``
    naming the record's log offset ``at``.
    """
    try:
        identity_end = body.index(b"\n")
        stamp_end = body.index(b"\n", identity_end + 1)
        identity = tables.identity(body[:identity_end].decode("utf-8"))
        created_at = tables.stamp(body[identity_end + 1 : stamp_end])
        return StoredObject(identity, decode_payload(body[stamp_end + 1 :], tables), created_at)
    except Exception as exc:
        raise CorruptLogError(f"undecodable object record at offset {at}: {exc}") from exc


def _frame_record(body: bytes, tables: DecodeTables, at: int):
    """``(pair, key, slot)`` of the object record whose body is ``body``, payload not decoded.

    The identity's pair is looked up by its prefix bytes (``Class[`` or
    ``Class:Secondary[``) in ``tables.pairs``, so each distinct pair is
    parsed and validated once; the key must be canonical decimal and the
    creation stamp canonical too.  ``slot`` is the record's log offset
    ``at``, or its bitwise inverse (a negative int) when the payload's
    first line is ``kind=map``: a walk learns which objects to expand
    without reading them.  A failure raises ``CorruptLogError`` naming
    ``at``.
    """
    try:
        line_end = body.index(b"\n")
        stamp_end = body.index(b"\n", line_end + 1)
        bracket = body.find(b"[", 0, line_end)
        prefix, digits = body[: bracket + 1], body[bracket + 1 : line_end - 1]
        pair = tables.pairs.get(prefix)
        # ASCII digits with no leading 0, and "]" ends the line.
        canonical_key = digits.isdigit() and digits[0] != 0x30 and body[line_end - 1] == 0x5D
        if pair is not None and canonical_key:
            key = int(digits)
        else:
            # A new pair, or a fault that the full parse names.
            identity = parse_identity(body[:line_end].decode("utf-8"), tables.names)
            pair = tables.pairs[prefix] = (identity.class_name, identity.secondary_key)
            key = identity.config_key
        tables.stamp(body[line_end + 1 : stamp_end])
    except Exception as exc:
        raise CorruptLogError(f"undecodable object record at offset {at}: {exc}") from exc
    return pair, key, ~at if body.startswith(b"kind=map\n", stamp_end + 1) else at


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


def _check_keys(records: list, index: dict) -> None:
    """Refuse a record whose key does not continue its pair's dense sequence.

    ``records`` are ``(pair, key, value, log offset)`` in log order, and
    ``index`` maps each pair already applied to a list as long as its
    highest key.
    """
    highs = {}
    for pair, key, _, at in records:
        high = highs.get(pair)
        if high is None:
            high = len(index.get(pair, ()))
        if key != high + 1:
            text = format_identity(ObjectIdentity(*pair, key))
            if key <= high:
                raise CorruptLogError(f"duplicate identity {text} at offset {at}")
            raise CorruptLogError(f"{text} at offset {at} breaks its key sequence after key {high}")
        highs[pair] = key


def _scan_log(buf: bytes, tables: DecodeTables, base: int, pending: list, *, decode: bool):
    """Walk one read of the log into committed records; the store's one log walk.

    ``buf`` holds the log bytes from offset ``base``.  Each object record
    becomes ``(pair, key, value, log offset)``, the value being the
    framed slot of :func:`_frame_record`, or with ``decode`` (only
    ``check_store`` asks for it) the decoded ``StoredObject``, canonical
    check included.  ``pending`` holds the records of a transaction begun
    before ``buf``, and is left holding those of one ``buf`` does not
    commit.

    Returns ``(transactions, framed, committed_end, stop)``: the records
    committed in ``buf``, with ``decode`` one list per transaction in
    ``transactions``, else all in ``framed``.  ``committed_end`` is the
    offset in ``buf`` just past its last commit record, 0 if there is
    none; ``stop`` is the offset of the first record ``buf`` does not
    hold whole.  A last record whose CRC fails is left unread like a cut
    one: where the log ends there, it is a torn tail.  Damage before that
    raises ``CorruptLogError`` naming the log offset of the bad record.

    Every record is CRC-checked and gets the structural checks: magic,
    type, lengths, commit counts, identity and stamp.  Records are read
    through ``tables``, so the objects share one identity per identity
    text, one ``(name, identity)`` pair per link line, one string per
    name, one tuple per pair and one int per creation stamp.
    """
    transactions, framed = [], []
    committed_end = offset = 0
    size = len(buf)
    while offset < size:
        end = _record_end(buf, offset, size, base)
        if end is None:
            break  # a header or body the next read holds, or a torn tail
        at = base + offset
        body = buf[offset + _HEADER_LEN : end - 4]
        if int.from_bytes(buf[end - 4 : end], "big") != zlib.crc32(body):
            if end == size:
                break  # torn, if no more of the log follows
            raise CorruptLogError(f"CRC mismatch at offset {at}")
        if buf[offset + 1] == REC_OBJECT:
            if decode:
                obj = _decode_record(body, tables, at)
                identity = obj.identity
                pair = (identity.class_name, identity.secondary_key)
                pending.append((pair, identity.config_key, obj, at))
            else:
                pending.append((*_frame_record(body, tables, at), at))
        else:
            _check_commit(body, at, len(pending))
            if decode:
                transactions.append(pending[:])
            else:
                framed += pending
            pending.clear()
            committed_end = end
        offset = end
    return transactions, framed, committed_end, offset


def _read_exact(fd: int, offset: int, end: int) -> bytes:
    """The log bytes in ``[offset, end)``, read through ``fd``."""
    chunks = []
    while offset < end:
        # One pread returns at most about 2 GiB; a zero-byte read means
        # the log is now shorter than ``end``.
        chunk = os.pread(fd, end - offset, offset)
        if not chunk:
            raise CorruptLogError("log shrank outside recovery")
        chunks.append(chunk)
        offset += len(chunk)
    return b"".join(chunks)


@contextmanager
def _read_chunk(fd: int, offset: int, end: int):
    """The log bytes in ``[offset, end)``, read through ``fd``, for the ``with`` block.

    A read of ``_MAPPED_READ_BYTES`` or more goes into an anonymous
    mapping of its own, which gives its memory back to the system when
    the block ends.  The C allocator may keep the memory of a ``bytes``
    that large after it is freed, where the threads that serve requests
    never reuse it.  A shorter read, such as a catch-up's, is one plain
    ``pread``, which costs a fraction of a mapping.
    """
    if end - offset < _MAPPED_READ_BYTES:
        yield _read_exact(fd, offset, end)
        return
    with mmap.mmap(-1, end - offset) as buf:
        with memoryview(buf) as view:
            done = 0
            while done < len(view):
                got = os.preadv(fd, [view[done:]], offset + done)
                if not got:
                    raise CorruptLogError("log shrank outside recovery")
                done += got
        yield buf


def _scan_chunks(fd: int, start: int, size: int, tables: DecodeTables, *, decode: bool):
    """Scan the log bytes ``[start, size)`` through ``fd``, one bounded read at a time.

    A read holds at most ``CHUNK_BYTES``, or twice the one before when
    that held no whole record.  Each read starts at the first record the
    one before did not hold whole, so a record cut by a read's end is
    read again, whole, by the next.  Yields ``(transactions, framed,
    committed_end)`` per read, as :func:`_scan_log` returns them, with
    ``committed_end`` the log offset just past the last complete
    transaction so far; what lies past it at the end is a torn or
    uncommitted tail.
    """
    pending = []
    committed_end = pos = start
    length = CHUNK_BYTES
    while pos < size:
        end = min(size, pos + length)
        with _read_chunk(fd, pos, end) as buf:
            result = _scan_log(buf, tables, pos, pending, decode=decode)
        transactions, framed, committed, stop = result
        if committed:
            committed_end = pos + committed
        yield transactions, framed, committed_end
        if end == size:
            return
        length = CHUNK_BYTES if stop else 2 * length
        pos += stop


class WriteTransaction:
    """A batch of pending creations and alias region text, invisible until :meth:`commit`.

    Confined to the thread that called ``Store.begin()``; the store-wide
    writer lock is held for the transaction's whole lifetime.  It answers
    every read a ``Store`` answers, its staged objects and region laid
    over the store's: a staged object's answer, else the store's own.
    """

    def __init__(self, store: "Store"):
        self._store = store
        self._thread = threading.get_ident()
        self._region: str | None = None  # the staged alias region text
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
        return self._store.get_object(identity) if staged is None else staged

    def is_map(self, identity: ObjectIdentity) -> bool:
        staged = self._by_identity.get(identity)
        return self._store.is_map(identity) if staged is None else staged.kind == KIND_MAP

    def payload_bytes(self, identity: ObjectIdentity) -> bytes:
        """A staged object's payload as its commit writes it, else the committed bytes."""
        staged = self._by_identity.get(identity)
        if staged is None:
            return self._store.payload_bytes(identity)
        return encode_payload(staged.payload)

    def has_object(self, identity: ObjectIdentity) -> bool:
        return identity in self._by_identity or self._store.has_object(identity)

    def highest_key(self, class_name: str, secondary_key: str | None = None) -> int:
        """Highest config key for a pair, counting staged creations."""
        staged = self._local_highs.get((class_name, secondary_key), 0)
        return max(self._store.highest_key(class_name, secondary_key), staged)

    def list_versions(self, class_name: str, secondary_key: str | None = None) -> list[int]:
        """Dense ascending config keys for one pair; `[]` if unknown."""
        return list(range(1, self.highest_key(class_name, secondary_key) + 1))

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
        binds = payload.kind == KIND_RUNTYPES
        if binds:
            if class_name != RUNTYPES_CLASS or secondary_key is not None:
                raise InvalidPayloadError(
                    f"run-type payloads live under {RUNTYPES_CLASS!r} with no secondary key"
                )
        elif class_name.startswith("@"):
            raise InvalidPayloadError(f"class names starting with '@' are reserved: {class_name!r}")

        for name, target in () if payload.kind == KIND_LEAF else payload.entries:
            if not self.has_object(target):
                link = f"run type {name!r} binds" if binds else f"link {name!r} targets"
                text = format_identity(target)
                raise DanglingLinkError(f"{link} missing object {text}", detail=text)
            if binds and not self.is_map(target):
                text = format_identity(target)
                raise NotAMapError(f"run type {name!r} must bind a map, got {text}", detail=text)

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

    def transaction(self):
        """Join this transaction: the ``with`` block's end neither commits nor aborts it."""
        self._require_open()
        return nullcontext(self)

    def read_alias_region(self) -> str:
        """The alias region text this transaction staged, else the committed text."""
        return self._store.read_alias_region() if self._region is None else self._region

    def write_alias_region(self, text: str):
        """Stage the whole alias region; only the commit writes it."""
        self._require_open()
        self._region = text

    def commit(self):
        """Make pending creations durable and visible atomically, then write the staged region.

        If the region write fails, the creations stay committed and it raises.
        """
        self._require_open()
        try:
            self._store._commit_transaction(self)
        finally:
            if self.state == "open":
                self.state = "aborted"
            self._store._release_exclusive()

    def abort(self):
        """Discard pending creations and the staged region; keys are never consumed."""
        self._require_open()
        self._region = None
        self.state = "aborted"
        self._store._release_exclusive()


class Store:
    """Handle on one store directory; shareable across reader threads."""

    def __init__(self, directory: str, *, clock=time.time):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._log_path = os.path.join(self.directory, LOG_NAME)
        self._alias_path = os.path.join(self.directory, ALIAS_NAME)
        self._clock = clock
        self._writer_lock = threading.Lock()
        self._apply_lock = threading.Lock()
        self._active_txn: WriteTransaction | None = None
        # (class, secondary) -> one slot per config key: slot k-1 holds key
        # k's framed slot (see _frame_record) until its first read reads,
        # checks and decodes it, and the decoded StoredObject after; a map
        # this handle committed is published decoded.  A list's length is
        # its pair's highest key.
        self._index: dict[tuple, list] = {}
        # Every record this handle reads, at open, catch-up or first read,
        # goes through these tables, so decoded objects share their names,
        # identities, links and stamps.
        self._tables = DecodeTables()
        self._applied_len = 0
        # Set once a catch-up finds the log shorter than the applied part:
        # bytes appended later may differ, so the handle is refused until reopened.
        self._shrank = False
        self._lock_fd = None
        self._log_fd = None
        try:
            self._lock_fd = os.open(
                os.path.join(self.directory, LOCK_NAME), os.O_CREAT | os.O_RDWR, 0o644
            )
            self._log_fd = os.open(self._log_path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
            # Unlocked; a tail, or a scan broken by a writer cutting one, takes
            # begin()'s recovery, which cuts and logs it or refuses damage.
            try:
                self._recover(truncate=False)
                torn = self._applied_len < self.log_size()
            except CorruptLogError:
                torn = True
            if torn:
                self.begin().abort()
        except BaseException:
            self.close()
            raise

    # -- locking ------------------------------------------------------

    # One thread of one process holds the writer lock, never re-entered:
    # the thread lock inside this process, one flock of LOCK across them.
    def _acquire_exclusive(self):
        self._writer_lock.acquire()
        try:
            self._log()  # a closed handle has no LOCK descriptor either
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
        except BaseException:
            self._writer_lock.release()
            raise

    def _release_exclusive(self):
        self._active_txn = None
        try:
            if self._lock_fd is not None:  # closing LOCK's descriptor dropped its flock
                fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
        finally:
            self._writer_lock.release()

    # -- recovery and catch-up ----------------------------------------

    def _log(self) -> int:
        """This handle's log descriptor; ``ConfdbError`` once the handle is closed."""
        if self._log_fd is None:
            raise ConfdbError(f"store is closed: {self.directory}")
        return self._log_fd

    def _read_log(self, offset: int, end: int) -> bytes:
        """The log bytes in ``[offset, end)``, read through this handle's descriptor."""
        return _read_exact(self._log(), offset, end)

    def _truncate_log(self, length: int):
        os.ftruncate(self._log_fd, length)
        os.fsync(self._log_fd)

    def _apply_transactions(self, batch: list, applied_len: int):
        """Publish ``(pair, key, object or framed slot, log offset)`` records, then ``applied_len``.

        Every key is checked before anything is published, so a refused
        batch applies nothing.
        """
        index = self._index
        _check_keys(batch, index)
        for pair, _, value, _ in batch:
            slots = index.get(pair)
            if slots is None:
                index[pair] = [value]
            else:
                slots.append(value)
        self._applied_len = applied_len

    def _recover(self, truncate: bool):
        """Replay committed records beyond what is already applied.

        With ``truncate`` (which requires the exclusive lock) a torn or
        uncommitted tail is physically cut off; without it the tail is
        left alone and simply not applied, so a read-side catch-up never
        interferes with an in-flight writer.  The open and a catch-up alike
        frame every record; a record is decoded on its first read.  Nothing
        is published until the whole tail has been scanned and checked.
        """
        with self._apply_lock:
            size = os.fstat(self._log_fd).st_size
            if self._shrank or size < self._applied_len:
                self._shrank = True
                raise CorruptLogError("log shrank outside recovery")
            if size == self._applied_len:
                return
            batch = []
            for _, framed, boundary in _scan_chunks(
                self._log_fd, self._applied_len, size, self._tables, decode=False
            ):
                batch += framed
            self._apply_transactions(batch, boundary)
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
        """Pick up other handles' commits; a log once shorter than the applied part raises."""
        if os.fstat(self._log()).st_size != self._applied_len or self._shrank:
            self._recover(truncate=False)

    # -- transactions --------------------------------------------------

    def begin(self) -> WriteTransaction:
        """Open the store-wide single write transaction (blocks on other threads and handles)."""
        active = self._active_txn
        if active is not None and active._thread == threading.get_ident():
            raise TransactionClosedError("a transaction is already open on this handle")
        self._acquire_exclusive()
        try:
            self._recover(truncate=True)
        except BaseException:
            self._release_exclusive()
            raise
        txn = self._active_txn = WriteTransaction(self)
        return txn

    @contextmanager
    def transaction(self):
        """Open a transaction that commits when the ``with`` block ends, or aborts if it raises."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if txn.state == "open":
                txn.abort()
            raise
        if txn.state == "open":
            txn.commit()

    def _commit_transaction(self, txn: WriteTransaction):
        self._log()  # a closed handle commits nothing
        if txn.pending:  # else leave the log byte-identical
            self._append_records(txn)
        txn.state = "committed"
        if txn._region is not None:
            self.write_alias_region(txn._region)

    def _append_records(self, txn: WriteTransaction):
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
            # A leaf is published as its framed slot, as an open or a
            # catch-up frames it, and decoded only if it is read.  Maps and
            # run-type maps stay decoded: commit marks compare maps by ``is``.
            batch, at = [], pre_commit_len
            for obj, record in zip(txn.pending, chunks):
                identity = obj.identity
                pair = (identity.class_name, identity.secondary_key)
                value = at if obj.kind == KIND_LEAF else obj
                batch.append((pair, identity.config_key, value, at))
                at += len(record)
            self._apply_transactions(batch, pre_commit_len + len(data))

    # -- reads ----------------------------------------------------------

    def _slot(self, identity: ObjectIdentity) -> tuple[list, int]:
        """The identity's pair list and its index in it; NotFoundError if it has none."""
        slots = self._index.get((identity.class_name, identity.secondary_key))
        key = identity.config_key
        if slots is None or not 0 < key <= len(slots):
            raise NotFoundError(
                f"no such object: {format_identity(identity)}",
                detail=format_identity(identity),
            )
        return slots, key - 1

    def get_object(self, identity: ObjectIdentity) -> StoredObject:
        """Return the committed object; repeated reads are byte-identical."""
        slots, i = self._slot(identity)
        obj = slots[i]
        if type(obj) is not StoredObject:
            obj = self._first_read(slots, i)
        return obj

    def _read_body(self, offset: int) -> bytes:
        """The body of the framed record at ``offset``, read again and CRC-checked.

        The record's own bytes are read through this handle's descriptor,
        so damage done to them after the open refuses here.
        """
        head = self._read_log(offset, offset + _HEADER_LEN)
        # Bounded by the applied log, so a length damaged in place never
        # asks for more bytes than the log holds.
        end = _record_end(head, 0, self._applied_len - offset, offset)
        if end is None:
            raise CorruptLogError(f"record at offset {offset} runs past the log")
        rest = self._read_log(offset + _HEADER_LEN, offset + end)
        body = rest[:-4]
        if int.from_bytes(rest[-4:], "big") != zlib.crc32(body):
            raise CorruptLogError(f"CRC mismatch at offset {offset}")
        return body

    def _first_read(self, slots: list, i: int) -> StoredObject:
        """Read, check and decode a framed record, once per handle.

        A record that fails refuses on this and every later read.  Commit
        marks compare stored objects by ``is``, so each identity must
        become exactly one object, even under concurrent reads.
        """
        with self._apply_lock:
            obj = slots[i]
            if type(obj) is not StoredObject:
                offset = obj if obj >= 0 else ~obj
                obj = slots[i] = _decode_record(self._read_body(offset), self._tables, offset)
        return obj

    def is_map(self, identity: ObjectIdentity) -> bool:
        """Whether the committed object is a map; a framed record is not read."""
        slots, i = self._slot(identity)
        slot = slots[i]
        if type(slot) is StoredObject:
            return slot.kind == KIND_MAP
        return slot < 0

    def payload_bytes(self, identity: ObjectIdentity) -> bytes:
        """The committed object's canonical payload bytes.

        A framed record that is not a map is read from the log, CRC-checked
        and decoded to check it, and the decode is dropped: the answer is
        the record's own payload bytes, and nothing is kept.  A map or a
        decoded object is encoded from its decoded payload, which is the
        same bytes.
        """
        slots, i = self._slot(identity)
        slot = slots[i]
        if type(slot) is StoredObject:
            return encode_payload(slot.payload)
        if slot < 0:  # a map, decoded and kept as every map read is
            return encode_payload(self._first_read(slots, i).payload)
        body = self._read_body(slot)
        _decode_record(body, DecodeTables(), slot)
        return body[body.index(b"\n", body.index(b"\n") + 1) + 1 :]

    def has_object(self, identity: ObjectIdentity) -> bool:
        slots = self._index.get((identity.class_name, identity.secondary_key))
        return slots is not None and 0 < identity.config_key <= len(slots)

    def highest_key(self, class_name: str, secondary_key: str | None = None) -> int:
        """Highest committed config key for a pair; 0 if unknown."""
        return len(self._index.get((class_name, secondary_key), ()))

    list_versions = WriteTransaction.list_versions  # read through this handle's highest_key

    def object_count(self) -> int:
        return sum(map(len, list(self._index.values())))

    def log_size(self) -> int:
        return os.fstat(self._log()).st_size

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


# The one read view: every reader takes a store or a transaction over one.
View = Store | WriteTransaction


def open_store(directory: str, *, clock=time.time) -> Store:
    """Open (or create) a store directory, replaying and repairing the log."""
    return Store(directory, clock=clock)


def check_store(directory: str):
    """Check a store's whole log offline; yield one line per finding.

    Read-only: it takes no lock and never truncates.  It scans the log
    from offset 0 in bounded chunks and decodes every record (CRCs,
    canonical decode, commit counts), then checks, in log order, that
    each identity is new, that each pair's keys count up from 1 without a
    gap, and that every map link and run-type binding names an object
    earlier in the log, a map for a binding.  Of each object it keeps only
    its kind, one list per pair.  It yields any torn tail (left in place),
    and last ``ok <objects> objects, <bytes> bytes``.  The first failure
    raises ``CorruptLogError`` naming its log offset.
    """
    tables = DecodeTables()
    kinds: dict[tuple, list] = {}  # pair -> the kind of each key's object
    committed_end = 0
    with open(os.path.join(directory, LOG_NAME), "rb") as f:
        size = os.fstat(f.fileno()).st_size
        for transactions, _, committed_end in _scan_chunks(
            f.fileno(), 0, size, tables, decode=True
        ):
            for records in transactions:
                _check_keys(records, kinds)
                for pair, _, obj, at in records:
                    if obj.kind != KIND_LEAF:
                        _check_links(obj, at, kinds)
                    kinds.setdefault(pair, []).append(obj.kind)
            # Identities and link lines are shared within a chunk only.
            tables.identities.clear()
            tables.links.clear()
    if committed_end < size:
        yield (f"torn tail: {size - committed_end} bytes at offset {committed_end},"
               " left in place")
    yield f"ok {sum(map(len, kinds.values()))} objects, {size} bytes"


def _check_links(obj: StoredObject, at: int, kinds: dict) -> None:
    """Refuse a link to an object not earlier in the log, or a binding to a non-map."""
    for name, target in obj.payload.entries:
        linked = kinds.get((target.class_name, target.secondary_key), ())
        if len(linked) < target.config_key:
            raise CorruptLogError(
                f"{format_identity(obj.identity)} at offset {at} links {name!r}"
                f" to missing {format_identity(target)}"
            )
        if obj.kind == KIND_RUNTYPES and linked[target.config_key - 1] != KIND_MAP:
            raise CorruptLogError(
                f"{format_identity(obj.identity)} at offset {at} binds {name!r}"
                f" to {format_identity(target)}, which is not a map"
            )
