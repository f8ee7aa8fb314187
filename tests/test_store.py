"""Store tests: append-only log, transactions, recovery, key allocation."""

import errno
import hashlib
import logging
import os
import re
import sys
import threading
import time

import pytest

from confdb.errors import (
    ConfdbError,
    CorruptLogError,
    DanglingLinkError,
    InvalidPayloadError,
    NotAMapError,
    NotFoundError,
    TransactionClosedError,
)
from confdb.cli import main as cli_main
from confdb.model import (
    Array,
    DecodeTables,
    ObjectIdentity,
    Payload,
    decode_payload,
    encode_payload,
)
from confdb import store as store_module
from confdb.store import RUNTYPES_CLASS, StoredObject, open_store
from confdb.tree import walk_tree
from helpers import (
    answer,
    build_figure1,
    clone_store,
    commit_generations,
    log_record,
    log_transaction,
    make_leaf,
)


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def store(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    yield s
    s.close()


def test_open_empty_directory(store):
    assert store.object_count() == 0
    assert store.list_versions("Anything") == []
    assert os.path.exists(os.path.join(store.directory, "objects.log"))
    assert os.path.exists(os.path.join(store.directory, "LOCK"))


def test_durability_across_reopen(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    ids = [make_leaf(s, "A", None, n=i) for i in range(3)]
    s.close()
    s2 = open_store(tmp_path / "db")
    for i, identity in enumerate(ids):
        assert s2.get_object(identity).payload.fields == {"n": i}
    assert s2.list_versions("A") == [1, 2, 3]
    s2.close()


def test_truncated_tail_record_is_discarded(tmp_path):
    # oracle: write N records, truncate inside record N, reopen -> N-1
    path = tmp_path / "db"
    s = open_store(path, clock=lambda: 0)
    sizes = [s.log_size()]
    for i in range(4):
        make_leaf(s, "A", None, n=i)
        sizes.append(s.log_size())
    s.close()
    for cut in range(sizes[2] + 1, sizes[3]):
        log = path / "objects.log"
        data = log.read_bytes()
        log.write_bytes(data[:cut])
        s2 = open_store(path)
        assert s2.list_versions("A") == [1, 2], f"cut at {cut}"
        s2.close()
        log.write_bytes(data)  # restore for the next cut point


def test_corruption_before_tail_refuses_to_open(tmp_path):
    path = tmp_path / "db"
    s = open_store(path, clock=lambda: 0)
    first_size = None
    for i in range(3):
        make_leaf(s, "A", None, n=i)
        first_size = first_size or s.log_size()
    s.close()
    log = path / "objects.log"
    data = bytearray(log.read_bytes())
    data[first_size // 2] ^= 0xFF  # flip a byte inside the first record
    log.write_bytes(bytes(data))
    with pytest.raises(CorruptLogError):
        open_store(path)


def test_keys_are_dense_and_sequential(store):
    for expected in (1, 2, 3):
        identity = make_leaf(store, "DchHV", "sector3", n=expected)
        assert identity == ObjectIdentity("DchHV", "sector3", expected)
    assert store.list_versions("DchHV", "sector3") == [1, 2, 3]
    assert store.list_versions("DchHV") == []  # distinct pair


def test_first_create_starts_at_one(store):
    assert make_leaf(store, "DchHV", "sector3", v=1).config_key == 1


def test_dangling_link_rejected(store):
    ghost = ObjectIdentity("Ghost", None, 9)
    with pytest.raises(DanglingLinkError):
        with store.transaction() as txn:
            txn.create_object("M", None, Payload.map({"g": ghost}))
    assert store.object_count() == 0


def test_link_to_earlier_creation_in_same_transaction(store):
    with store.transaction() as txn:
        leaf = txn.create_object("A", None, Payload.leaf({"v": 1}))
        map_id = txn.create_object("M", None, Payload.map({"a": leaf}))
    assert store.get_object(map_id).payload.links == {"a": leaf}


def test_reserved_class_policy(store):
    with store.transaction() as txn:
        with pytest.raises(InvalidPayloadError):
            txn.create_object("@other", None, Payload.leaf({"v": 1}))
        with pytest.raises(InvalidPayloadError):
            txn.create_object("@runtypes", None, Payload.leaf({"v": 1}))
        with pytest.raises(InvalidPayloadError):
            txn.create_object("TopMap", None, Payload.runtypes({}))
        with pytest.raises(InvalidPayloadError):
            txn.create_object("@runtypes", "sec", Payload.runtypes({}))
        with pytest.raises(InvalidPayloadError, match="not a payload"):
            txn.create_object("A", None, {"kind": "leaf", "v": 1})
        txn.abort()
    assert store.object_count() == 0


def test_runtypes_must_bind_maps(store):
    leaf = make_leaf(store, "A", None, v=1)
    with pytest.raises(NotAMapError):
        with store.transaction() as txn:
            txn.create_object("@runtypes", None, Payload.runtypes({"PHYSICS": leaf}))


def test_get_missing_object(store):
    with pytest.raises(NotFoundError):
        store.get_object(ObjectIdentity("DchHV", "sector3", 99))


def test_pending_objects_invisible_until_commit(store):
    txn = store.begin()
    identity = txn.create_object("A", None, Payload.leaf({"v": 1}))
    assert not store.has_object(identity)
    with pytest.raises(NotFoundError):
        store.get_object(identity)
    txn.commit()
    assert store.get_object(identity).payload.fields == {"v": 1}


def test_abort_releases_keys(store):
    txn = store.begin()
    txn.create_object("A", None, Payload.leaf({"v": 1}))
    txn.create_object("A", None, Payload.leaf({"v": 2}))
    txn.abort()
    assert store.list_versions("A") == []
    # the next commit reuses the released keys
    assert make_leaf(store, "A", None, v=3) == ObjectIdentity("A", None, 1)


def test_closed_transaction_rejects_use(store):
    txn = store.begin()
    txn.abort()
    with pytest.raises(TransactionClosedError):
        txn.create_object("A", None, Payload.leaf({"v": 1}))
    with pytest.raises(TransactionClosedError):
        txn.commit()


def test_begin_twice_on_one_handle_is_refused(store):
    txn = store.begin()
    with pytest.raises(TransactionClosedError, match="already open"):
        store.begin()
    # The first transaction is still open and usable.
    identity = txn.create_object("A", None, Payload.leaf({"v": 1}))
    txn.commit()
    assert store.get_object(identity).payload.fields == {"v": 1}
    # Each begin released what it took: another handle can begin.
    opened = []

    def open_and_begin():
        opened.append(open_store(store.directory))
        opened[0].begin().abort()

    other = threading.Thread(target=open_and_begin, daemon=True)
    other.start()
    other.join(timeout=10)
    assert not other.is_alive() and len(opened) == 1
    opened[0].close()


@pytest.mark.parametrize("failing", ["write", "fsync"])
def test_failed_commit_leaves_the_log_and_keys_unchanged(store, monkeypatch, failing):
    make_leaf(store, "A", None, v=1)
    size = store.log_size()
    real = getattr(os, failing)
    calls = []

    def fail_first_call(fd, *args):
        calls.append(fd)
        if len(calls) > 1:
            return real(fd, *args)
        if failing == "write":
            real(fd, args[0][:7])  # part of the commit reaches the log
        raise OSError(errno.EIO, f"injected {failing} failure")

    monkeypatch.setattr(os, failing, fail_first_call)
    with pytest.raises(OSError, match="injected"):
        make_leaf(store, "A", None, v=2)
    monkeypatch.undo()
    assert store.log_size() == size
    assert not store.has_object(ObjectIdentity("A", None, 2))
    assert store.highest_key("A") == 1
    # The next commit reuses the key, and the log holds it once.
    assert make_leaf(store, "A", None, v=3) == ObjectIdentity("A", None, 2)
    with open_store(store.directory) as reopened:
        assert reopened.list_versions("A") == [1, 2]
        assert reopened.get_object(ObjectIdentity("A", None, 2)).payload.fields == {"v": 3}


def test_empty_commit_leaves_log_byte_identical(store):
    make_leaf(store, "A", None, v=1)
    before = store.log_size()
    with store.transaction():
        pass
    assert store.log_size() == before


def test_append_only_log_growth(store):
    last = store.log_size()
    for i in range(5):
        make_leaf(store, "A", None, n=i)
        size = store.log_size()
        assert size > last
        last = size


def test_two_writers_serialize(store):
    order = []
    first_open = threading.Event()
    release_first = threading.Event()

    def writer_one():
        txn = store.begin()
        order.append("one-begin")
        first_open.set()
        release_first.wait(timeout=10)
        txn.create_object("A", None, Payload.leaf({"v": 1}))
        order.append("one-commit")
        txn.commit()

    def writer_two():
        first_open.wait(timeout=10)
        txn = store.begin()  # blocks until writer one finishes
        order.append("two-begin")
        txn.create_object("A", None, Payload.leaf({"v": 2}))
        txn.commit()

    t1 = threading.Thread(target=writer_one)
    t2 = threading.Thread(target=writer_two)
    t1.start()
    t2.start()
    first_open.wait(timeout=10)
    time.sleep(0.05)  # give writer two a chance to (wrongly) slip through
    assert order == ["one-begin"]
    release_first.set()
    t1.join(timeout=10)
    t2.join(timeout=10)
    assert order == ["one-begin", "one-commit", "two-begin"]
    assert store.list_versions("A") == [1, 2]


def test_an_open_does_not_wait_for_another_handles_transaction(tmp_path):
    path = tmp_path / "db"
    writer = open_store(path, clock=lambda: 0)
    make_leaf(writer, "A", None, v=1)
    txn = writer.begin()
    opened = []
    # A daemon thread, so an open that waits fails the test instead of hanging it.
    reader = threading.Thread(target=lambda: opened.append(open_store(path)), daemon=True)
    try:
        reader.start()
        reader.join(timeout=5)
        assert len(opened) == 1, "the open waited for the other handle's transaction"
        assert opened[0].list_versions("A") == [1]
    finally:
        txn.abort()
        reader.join(timeout=10)
        for s in opened:
            s.close()
        writer.close()


@pytest.mark.parametrize("tail, locks", [(0, 0), (3, 1)], ids=["clean", "torn"])
def test_an_open_takes_the_writer_lock_only_to_cut_a_tail(tmp_path, monkeypatch, tail, locks):
    path = tmp_path / "db"
    with open_store(path, clock=lambda: 0) as s:
        make_leaf(s, "A", None, v=1)
        committed = s.log_size()
        make_leaf(s, "A", None, v=2)
    log = path / "objects.log"
    full = len(log.read_bytes())
    log.write_bytes(log.read_bytes()[: full - tail])
    taken = []
    acquire = store_module.Store._acquire_exclusive
    monkeypatch.setattr(
        store_module.Store, "_acquire_exclusive", lambda self: taken.append(1) or acquire(self)
    )
    with open_store(path) as s:
        assert s.list_versions("A") == ([1] if tail else [1, 2])
        assert s.log_size() == (committed if tail else full)
    assert len(taken) == locks


def test_an_open_whose_scan_a_cut_breaks_recovers_under_the_lock(tmp_path, monkeypatch):
    # A writer cutting a torn tail while the open scans it without the
    # lock makes the scan read past the log's end; the open then recovers
    # again under the lock, and a real fault still refuses there.
    path = tmp_path / "db"
    with open_store(path, clock=lambda: 0) as s:
        make_leaf(s, "A", None, v=1)
    recover, calls = store_module.Store._recover, []

    def cut_under_the_scan(self, truncate):
        calls.append(truncate)
        if not truncate:
            raise CorruptLogError("log shrank outside recovery")
        return recover(self, truncate)

    monkeypatch.setattr(store_module.Store, "_recover", cut_under_the_scan)
    with open_store(path) as s:
        assert s.list_versions("A") == [1]
    assert calls == [False, True]


def test_a_closed_handle_refuses_and_leaves_its_lock_free(tmp_path):
    s = open_store(tmp_path / "db")
    s.close()
    for call in (s.begin, s.refresh, s.log_size):
        with pytest.raises(ConfdbError, match="store is closed"):
            call()
        assert not s._writer_lock.locked()


def test_a_transaction_answers_every_read_a_store_answers(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    committed = make_leaf(s, "A", None, v=1)
    with s.transaction() as txn:
        staged = txn.create_object("A", None, Payload.leaf({"v": 2}))
        top = txn.create_object("M", None, Payload.map({"a": committed, "b": staged}))
        reads = {
            identity: (txn.is_map(identity), txn.payload_bytes(identity),
                       txn.get_object(identity).payload)
            for identity in (committed, staged, top)
        }
        assert (txn.list_versions("A"), s.list_versions("A")) == ([1, 2], [1])
        assert (txn.list_versions("M"), s.list_versions("M")) == ([1], [])
    s.close()
    # A fresh handle answers a leaf's payload_bytes from the bytes the
    # commit wrote, read before get_object decodes the record.
    with open_store(tmp_path / "db") as fresh:
        for identity, read in reads.items():
            assert (fresh.is_map(identity), fresh.payload_bytes(identity),
                    fresh.get_object(identity).payload) == read


def _log_bytes(directory) -> bytes:
    with open(os.path.join(directory, "objects.log"), "rb") as f:
        return f.read()


def test_a_commit_after_close_writes_nothing_and_frees_the_lock(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    make_leaf(s, "A", None, v=1)
    before = _log_bytes(s.directory)
    txn = s.begin()
    txn.create_object("A", None, Payload.leaf({"v": 2}))
    txn.write_alias_region("alias a root_class T\n")
    s.close()
    with pytest.raises(ConfdbError, match="store is closed"):
        txn.commit()
    assert txn.state == "aborted" and not s._writer_lock.locked()
    assert _log_bytes(s.directory) == before
    assert not os.path.exists(os.path.join(s.directory, "aliases.dat"))
    with open_store(tmp_path / "db") as fresh:
        fresh.begin().abort()
        assert fresh.list_versions("A") == [1]


def test_an_abort_after_close_succeeds_and_frees_the_lock(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    make_leaf(s, "A", None, v=1)
    before = _log_bytes(s.directory)
    # The block's own error is what propagates, not one from its abort.
    with pytest.raises(KeyError):
        with s.transaction() as txn:
            txn.create_object("A", None, Payload.leaf({"v": 2}))
            s.close()
            raise KeyError("the block's own error")
    assert txn.state == "aborted" and not s._writer_lock.locked()
    assert _log_bytes(s.directory) == before
    with open_store(tmp_path / "db") as fresh:
        fresh.begin().abort()
        assert fresh.list_versions("A") == [1]


def test_an_interrupted_flock_leaves_the_lock_free(store, monkeypatch):
    def interrupted(fd, operation):
        raise KeyboardInterrupt

    monkeypatch.setattr(store_module.fcntl, "flock", interrupted)
    with pytest.raises(KeyboardInterrupt):
        store.begin()
    monkeypatch.undo()
    assert not store._writer_lock.locked()
    make_leaf(store, "A", None, v=1)
    assert store.list_versions("A") == [1]


def test_reads_are_repeatable_and_digest_checked(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    identity = make_leaf(s, "A", None, v=1)
    first = s.get_object(identity)
    second = s.get_object(identity)
    assert first.payload == second.payload
    s.close()


def test_cross_handle_visibility(tmp_path):
    a = open_store(tmp_path / "db", clock=lambda: 0)
    b = open_store(tmp_path / "db", clock=lambda: 0)
    identity = make_leaf(a, "A", None, v=1)
    assert not b.has_object(identity)  # not yet caught up
    b.refresh()
    assert b.get_object(identity).payload.fields == {"v": 1}
    # a writer on the other handle continues the key sequence
    assert make_leaf(b, "A", None, v=2) == ObjectIdentity("A", None, 2)
    a.refresh()
    assert a.list_versions("A") == [1, 2]
    a.close()
    b.close()


def test_a_handle_reads_only_the_log_it_opened(tmp_path):
    # A file put in the log's place after the handles opened it shares its
    # prefix but holds another A[2]; neither handle may read it.
    path = tmp_path / "db"
    a = open_store(path, clock=lambda: 0)
    b = open_store(path, clock=lambda: 0)
    try:
        make_leaf(a, "A", None, v=1)
        b.refresh()
        with clone_store(str(path), str(tmp_path / "foreign")) as foreign:
            make_leaf(foreign, "A", None, v=999)
        foreign_bytes = (tmp_path / "foreign" / "objects.log").read_bytes()
        os.replace(tmp_path / "foreign" / "objects.log", path / "objects.log")
        assert make_leaf(b, "A", None, v=2) == ObjectIdentity("A", None, 2)
        a.refresh()
        assert a.get_object(ObjectIdentity("A", None, 2)).payload.fields == {"v": 2}
        assert a.log_size() == b.log_size() != len(foreign_bytes)
        assert (path / "objects.log").read_bytes() == foreign_bytes
    finally:
        a.close()
        b.close()


def _two_leaves_and_a_reader(path):
    """Commit ``A[1]`` then ``B[1]``; a handle opened on the 88-byte log, nothing read."""
    writer = open_store(path, clock=lambda: 0)
    make_leaf(writer, "A", None, a=1)
    make_leaf(writer, "B", None, b=2)
    writer.close()
    reader = open_store(path, clock=lambda: 0)
    assert reader.log_size() == 88
    return reader


def test_a_catch_up_refuses_a_log_that_shrank(tmp_path):
    path = tmp_path / "db"
    reader = _two_leaves_and_a_reader(path)
    try:
        # Were the shrink not seen, a new B[1] committed by another handle
        # would later fill the same 44 bytes and answer B[1] with other bytes.
        os.truncate(path / "objects.log", 44)
        with pytest.raises(CorruptLogError, match="log shrank outside recovery"):
            reader.refresh()
        # A request's catch-up refuses the same way, so a miss is refused.
        assert answer(reader, "GET B[1] /\n") == b"ERR 500 corrupt-log\n"
    finally:
        reader.close()


def test_a_catch_up_that_found_the_log_shorter_keeps_refusing(tmp_path):
    path = tmp_path / "db"
    reader = _two_leaves_and_a_reader(path)
    try:
        os.truncate(path / "objects.log", 44)
        with pytest.raises(CorruptLogError, match="log shrank outside recovery"):
            reader.refresh()
        # A fresh handle commits another B[1] into the same 44 bytes.
        with open_store(path, clock=lambda: 0) as writer:
            make_leaf(writer, "B", None, b=3)
            assert writer.payload_bytes(ObjectIdentity("B", None, 1)) == b"kind=leaf\nb=i:3\n"
        assert os.path.getsize(path / "objects.log") == 88
        with pytest.raises(CorruptLogError, match="log shrank outside recovery"):
            reader.refresh()
        assert answer(reader, "GET B[1] /\n") == b"ERR 500 corrupt-log\n"
    finally:
        reader.close()


def test_a_read_past_an_outside_truncate_is_refused(tmp_path):
    path = tmp_path / "db"
    reader = _two_leaves_and_a_reader(path)
    try:
        os.truncate(path / "objects.log", 44)
        b = ObjectIdentity("B", None, 1)
        with pytest.raises(CorruptLogError, match="log shrank outside recovery"):
            reader.get_object(b)
        with pytest.raises(CorruptLogError, match="log shrank outside recovery"):
            reader.payload_bytes(b)
        # A scan read of a mapping's size meets the same end of the log.
        with pytest.raises(CorruptLogError, match="log shrank outside recovery"):
            list(store_module._scan_chunks(
                reader._log_fd, 0, 200_000, DecodeTables(), decode=False
            ))
    finally:
        reader.close()


def test_a_failed_open_closes_every_descriptor_it_opened(tmp_path, monkeypatch):
    path = tmp_path / "db"
    (path / "objects.log").mkdir(parents=True)
    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def recording_open(*args, **kwargs):
        fd = real_open(*args, **kwargs)
        opened.append(fd)
        return fd

    def recording_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "close", recording_close)
    for _ in range(5):
        with pytest.raises(OSError):
            open_store(path)
    monkeypatch.undo()
    assert len(opened) == 5 and sorted(opened) == sorted(closed)


def test_commit_then_reopen_preserves_bookkeeping(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 123456)
    identity = make_leaf(s, "A", None, v=1)
    payload = s.get_object(identity).payload
    s.close()
    s2 = open_store(tmp_path / "db")
    obj = s2.get_object(identity)
    assert obj.created_at == 123456
    assert obj.payload == payload
    s2.close()


def test_refresh_racing_commits(store):
    # service threads call refresh() per request while an operator commits
    stop = threading.Event()
    errors = []

    def refresher():
        while not stop.is_set():
            try:
                store.refresh()
            except Exception as exc:  # noqa: BLE001 - reported in the main thread
                errors.append(exc)
                return

    threads = [threading.Thread(target=refresher) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        for i in range(200):
            make_leaf(store, "A", None, n=i)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
    assert errors == []
    assert store.list_versions("A") == list(range(1, 201))


def test_uncommitted_trailing_transaction_dropped(tmp_path):
    # Simulate a crash between the object records and the commit record:
    # committed state plus a commit-less tail must roll back to committed.
    path = tmp_path / "db"
    s = open_store(path, clock=lambda: 0)
    make_leaf(s, "A", None, v=1)
    committed = (path / "objects.log").read_bytes()
    make_leaf(s, "A", None, v=2)
    full = (path / "objects.log").read_bytes()
    s.close()
    # cut into the second transaction's commit record
    torn = full[: len(committed)] + full[len(committed) : -13]
    (path / "objects.log").write_bytes(torn)
    s2 = open_store(path)
    assert s2.list_versions("A") == [1]
    assert s2.log_size() == len(committed)  # tail physically truncated
    s2.close()


def test_duplicate_identity_in_log_refuses_and_applies_nothing(tmp_path):
    # Another directory makes one transaction of B[1] then A[1]; appended
    # here, its A[1] repeats an identity this log already holds.
    other = open_store(tmp_path / "other", clock=lambda: 0)
    with other.transaction() as txn:
        txn.create_object("B", None, Payload.leaf({"v": 1}))
        txn.create_object("A", None, Payload.leaf({"v": 2}))
    other.close()
    b_then_a = (tmp_path / "other" / "objects.log").read_bytes()
    path = tmp_path / "db"
    s = open_store(path, clock=lambda: 0)
    reader = open_store(path, clock=lambda: 0)
    try:
        make_leaf(s, "A", None, v=1)
        reader.refresh()
        just_a = (path / "objects.log").read_bytes()
        with open(path / "objects.log", "ab") as f:
            f.write(b_then_a)
        with pytest.raises(CorruptLogError, match="duplicate identity"):
            reader.refresh()
        assert not reader.has_object(ObjectIdentity("B", None, 1))
        assert reader.object_count() == 1
    finally:
        s.close()
        reader.close()
    # Within one batch too: a log holding the same transaction twice.
    (path / "objects.log").write_bytes(just_a + just_a)
    with pytest.raises(CorruptLogError, match="duplicate identity"):
        open_store(path)


def test_torn_tail_truncation_is_logged(tmp_path, caplog):
    path = tmp_path / "db"
    s = open_store(path, clock=lambda: 0)
    make_leaf(s, "A", None, v=1)
    committed = s.log_size()
    make_leaf(s, "A", None, v=2)
    s.close()
    log = path / "objects.log"
    log.write_bytes(log.read_bytes()[:-3])
    cut = log.stat().st_size - committed
    with caplog.at_level(logging.WARNING, logger="confdb.store"):
        open_store(path).close()
    [record] = [r for r in caplog.records if r.name == "confdb.store"]
    assert record.levelno == logging.WARNING
    assert f"offset {committed}" in record.getMessage()
    assert f"cutting {cut} bytes" in record.getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="confdb.store"):
        open_store(path).close()  # nothing left to cut
    assert not [r for r in caplog.records if r.name == "confdb.store"]


# -- canonicality backstop --------------------------------------------------
#
# Records are framed by ``helpers.log_record`` from the format the store
# documents, not with the store's own code.


# (non-canonical payload, its canonical spelling, what the decoder reports)
NON_CANONICAL_RECORDS = [
    (b"kind=leaf\na=i:01\n", b"kind=leaf\na=i:1\n", "not in canonical form"),
    (b"kind=leaf\nb=i:2\na=i:1\n", b"kind=leaf\na=i:1\nb=i:2\n", "unsorted entry name"),
    (b"kind=leaf\na=f:0x1.0p+0\n", b"kind=leaf\na=f:0x1p+0\n", "not in canonical form"),
]


@pytest.mark.parametrize("payload, canonical, reason", NON_CANONICAL_RECORDS)
def test_a_non_canonical_tail_is_applied_and_refused_at_every_read(
    tmp_path, capsys, payload, canonical, reason
):
    # A catch-up frames a CRC-valid record that no writer of this program
    # produces, as the open does, and every read of it refuses.
    path = tmp_path / "db"
    with open_store(path, clock=lambda: 0) as s:
        make_leaf(s, "A", None, a=1)
    with open_store(path) as s:
        assert _framed(s) == 1
        with open(path / "objects.log", "ab") as f:
            f.write(log_transaction(("C[1]", b"kind=leaf\nc=i:3\n")))
            bad = f.tell()
            f.write(log_transaction(("B[1]", payload)))
            f.write(log_transaction(("D[1]", b"kind=leaf\nd=i:4\n")))
        s.refresh()
        assert _framed(s) == s.object_count() == 4
        b1 = ObjectIdentity("B", None, 1)
        for _ in range(2):  # nothing of it is kept
            with pytest.raises(CorruptLogError, match=f"offset {bad}: .*{reason}"):
                s.get_object(b1)
            with pytest.raises(CorruptLogError, match=f"offset {bad}: .*{reason}"):
                s.payload_bytes(b1)
        for name, value in (("A", 1), ("C", 3), ("D", 4)):
            obj = s.get_object(ObjectIdentity(name, None, 1))
            assert obj.payload.fields == {name.lower(): value}
        assert _framed(s) == 1
    code, out, err = _fsck(path, capsys)
    assert code == 1
    assert out == ""
    assert re.search(rf"offset {bad}: .*{reason}", err)


_B1_LEAF = b"kind=leaf\nb=i:2\n"
_B1 = log_record(0x01, b"B[1]\n0\n" + _B1_LEAF)


def _stamped(stamp: bytes) -> bytes:
    return log_record(0x01, b"B[1]\n" + stamp + b"\n" + _B1_LEAF) + log_record(0x02, b"1")


# Damage that is not a torn tail: (bytes, offset of the bad record in
# them, what the scan reports).  Whole, most of them would hold B[1] at
# their offset 0.
MID_LOG_DAMAGE = {
    "bad-magic": (b"\xc6" + _B1[1:] + log_record(0x02, b"1"), 0, "bad record magic"),
    "unknown-type": (b"\xc7\x03" + _B1[2:] + log_record(0x02, b"1"), 0, "unknown record type 3"),
    "non-numeric-count": (_B1 + log_record(0x02, b"one"), len(_B1), "bad commit record"),
    "count-mismatch": (_B1 + log_record(0x02, b"2"), len(_B1), "covers 2 records, found 1"),
    "count-space-1": (_B1 + log_record(0x02, b" 1"), len(_B1), "bad commit record"),
    "count-plus-1": (_B1 + log_record(0x02, b"+1"), len(_B1), "bad commit record"),
    "stamp-plus-1_0": (_stamped(b"+1_0"), 0, "bad creation stamp"),
    "stamp-space-10": (_stamped(b" 10"), 0, "bad creation stamp"),
    "stamp-010": (_stamped(b"010"), 0, "bad creation stamp"),
    "empty-commit": (log_record(0x02, b"0") + _B1 + log_record(0x02, b"1"), 0, "bad commit record"),
    # C's pair is known by then, so only the key's spelling is wrong.
    "key-02": (log_transaction(("C[02]", _B1_LEAF)), 0, "bad config key"),
}


@pytest.mark.parametrize(
    "damage, at, reason", MID_LOG_DAMAGE.values(), ids=MID_LOG_DAMAGE.keys()
)
def test_mid_log_damage_refuses_and_applies_nothing(tmp_path, damage, at, reason):
    path = tmp_path / "db"
    s = open_store(path, clock=lambda: 0)
    try:
        make_leaf(s, "A", None, a=1)
        with open(path / "objects.log", "ab") as f:
            f.write(log_transaction(("C[1]", b"kind=leaf\nc=i:3\n")))
            bad = f.tell() + at
            f.write(damage)
            f.write(log_transaction(("D[1]", b"kind=leaf\nd=i:4\n")))
        size = s.log_size()
        # A catch-up refuses, naming the record's offset in the log, and
        # applies nothing, also not the valid transaction before it.
        with pytest.raises(CorruptLogError, match=reason) as refused:
            s.refresh()
        assert re.search(rf"offset {bad}\b", str(refused.value))
        assert s.object_count() == 1
        assert not s.has_object(ObjectIdentity("C", None, 1))
    finally:
        s.close()
    with pytest.raises(CorruptLogError, match=reason) as refused:
        open_store(path)
    assert re.search(rf"offset {bad}\b", str(refused.value))
    assert (path / "objects.log").stat().st_size == size  # nothing cut


# -- shared values after open ---------------------------------------------------


def test_created_objects_share_their_names(store):
    # Equal names built at run time are distinct strings until interned.
    classes = ["".join(["Dch", " Module"]) for _ in range(2)]
    secondaries = ["".join(["crate", " 3"]) for _ in range(2)]
    assert classes[0] is not classes[1] and secondaries[0] is not secondaries[1]
    with store.transaction() as txn:
        first = txn.create_object(classes[0], secondaries[0], Payload.leaf({"v": 1}))
        second = txn.create_object(classes[1], secondaries[1], Payload.leaf({"v": 2}))
    assert first.class_name is second.class_name
    assert first.secondary_key is second.secondary_key
    later = make_leaf(store, "".join(["Dch", " Module"]), "".join(["crate", " 3"]), v=3)
    assert later.class_name is first.class_name
    assert later.secondary_key is first.secondary_key
    assert store.get_object(later).identity.class_name is first.class_name


def test_open_shares_link_identities_and_names(tmp_path):
    path = tmp_path / "db"
    s = open_store(path, clock=lambda: 1_700_000_000)
    fields = {"hv setpoint": 1800.0, "gain stage": 4}
    first = make_leaf(s, "Dch Module", "crate 3", **fields)
    second = make_leaf(s, "Dch Module", "crate 3", **fields)
    with s.transaction() as txn:
        left = txn.create_object("Crate Map", None, Payload.map({"m1": first, "m2": second}))
        right = txn.create_object("Crate Map", None, Payload.map({"m1": first, "mod one": first}))
    s.close()
    with open_store(path) as s:
        left_links = s.get_object(left).payload.links
        right_links = s.get_object(right).payload.links
        # Two maps that link the same target hold the same identity, which
        # is also the target's own.
        assert left_links["m1"] is right_links["mod one"]
        assert left_links["m1"] is s.get_object(first).identity
        # Map versions share the (name, identity) pairs of the links they keep.
        assert s.get_object(left).payload.entries[0] is s.get_object(right).payload.entries[0]
        a, b = s.get_object(first), s.get_object(second)
        # Leaves of one class share their entry names and identity names.
        for name_a, name_b in zip(a.payload.names(), b.payload.names()):
            assert name_a is name_b
        assert a.identity.class_name is b.identity.class_name
        assert a.identity.secondary_key is b.identity.secondary_key
        assert a.created_at is b.created_at
        # A decode without tables builds its own copies.
        raw = decode_payload(b"kind=leaf\ngain stage=i:4\nhv setpoint=f:0x1.c2p+10\n")
        assert raw == a.payload
        assert raw.names()[0] is not a.payload.names()[0]
        # A catch-up scan shares the names the open saw.
        with open_store(path, clock=lambda: 1_700_000_001) as writer:
            third = make_leaf(writer, "Dch Module", "crate 3", **fields)
        s.refresh()
        c = s.get_object(third)
        assert c.payload.names()[0] is a.payload.names()[0]
        assert c.identity.class_name is a.identity.class_name
        # So do its links: a map caught up links its target's own identity,
        # and a later version, caught up apart, keeps the same link pair.
        with open_store(path, clock=lambda: 1_700_000_002) as writer:
            with writer.transaction() as txn:
                old = txn.create_object("Crate Map", None, Payload.map({"m1": first, "m3": third}))
        s.refresh()
        with open_store(path, clock=lambda: 1_700_000_003) as writer:
            with writer.transaction() as txn:
                new = txn.create_object("Crate Map", None, Payload.map({"m1": first}))
        s.refresh()
        assert s.get_object(old).payload.links["m1"] is s.get_object(first).identity
        assert s.get_object(new).payload.entries[0] is s.get_object(old).payload.entries[0]


# -- lazy decode, and stale hint files ------------------------------------------
#
# Stores written by earlier versions may hold ``objects.hint``, one line
# "confdb-hint 1 <covered length> <SHA-256 hex of those log bytes>".  No open
# reads it; tests that write one show that it changes nothing.


def _hint(log: bytes, covered: int | None = None) -> bytes:
    covered = len(log) if covered is None else covered
    return f"confdb-hint 1 {covered} {hashlib.sha256(log[:covered]).hexdigest()}\n".encode()


def _slots(store) -> list:
    """``(identity, slot)`` for every slot of the store's dense index."""
    return [
        (ObjectIdentity(*pair, key), slot)
        for pair, slots in list(store._index.items())
        for key, slot in enumerate(list(slots), 1)
    ]


def _framed_identities(store) -> set:
    """The identities whose records no read has decoded yet."""
    return {identity for identity, slot in _slots(store) if type(slot) is not StoredObject}


def _framed(store) -> int:
    """How many records no read has decoded yet."""
    return len(_framed_identities(store))


def _leaf_identities(store) -> set:
    """The identities of every leaf, found without reading a record."""
    return {
        identity for identity, _ in _slots(store)
        if identity.class_name != RUNTYPES_CLASS and not store.is_map(identity)
    }


def _contents(store) -> dict:
    """Every object's canonical payload bytes, creation stamp and kind."""
    return {
        identity: (encode_payload(obj.payload), obj.created_at, obj.kind)
        for identity, _ in _slots(store)
        for obj in [store.get_object(identity)]
    }


def _generations(path) -> list:
    """Figure 1 and three edits of it, committed and closed; the roots."""
    s = open_store(path, clock=lambda: 1_700_000_000)
    tree, leaves = build_figure1(s)
    roots = commit_generations(s, tree, leaves)
    s.close()
    return roots


def _flip_digest_bit(log: bytes) -> bytes:
    digest = bytearray(hashlib.sha256(log).digest())
    digest[7] ^= 0x10
    return f"confdb-hint 1 {len(log)} {digest.hex()}\n".encode()


# What is left in objects.hint, from the log's bytes; None writes no file.
STALE_HINTS = {
    "absent": None,
    "empty": lambda log: b"",
    "garbage": lambda log: b"\x00\xffnot a hint at all\n",
    "truncated-mid-line": lambda log: _hint(log)[:50],
    "beyond-the-log": lambda log: _hint(log + b"\x00"),
    "digest-one-bit-off": _flip_digest_bit,
    "valid": _hint,
    "inside-the-last-transaction": lambda log: _hint(log, len(log) - 3),
}


@pytest.mark.parametrize("make", STALE_HINTS.values(), ids=STALE_HINTS.keys())
def test_an_untrusted_hint_falls_back_to_the_full_scan(tmp_path, make):
    # Whatever objects.hint holds, every open CRC-checks and frames every record.
    path = tmp_path / "db"
    _generations(path)
    with clone_store(str(path), str(tmp_path / "full")) as full:
        expected = _contents(full)
    log = (path / "objects.log").read_bytes()
    if make is not None:
        (path / "objects.hint").write_bytes(make(log))
    files = sorted(os.listdir(path))
    with open_store(path) as s:
        assert _framed(s) == s.object_count() == len(expected)
        assert _contents(s) == expected
    assert sorted(os.listdir(path)) == files
    if make is not None:
        assert (path / "objects.hint").read_bytes() == make(log)  # left in place


@pytest.mark.parametrize(
    "damage, at, reason", MID_LOG_DAMAGE.values(), ids=MID_LOG_DAMAGE.keys()
)
def test_mid_log_damage_under_a_hint_refuses_at_open(tmp_path, damage, at, reason):
    # The open's framing keeps the scan's structural checks; a stale hint changes nothing.
    path = tmp_path / "db"
    path.mkdir()
    before = log_transaction(("A[1]", b"kind=leaf\na=i:1\n"))
    log = before + damage + log_transaction(("D[1]", b"kind=leaf\nd=i:4\n"))
    (path / "objects.log").write_bytes(log)
    (path / "objects.hint").write_bytes(_hint(log))
    with pytest.raises(CorruptLogError, match=reason) as refused:
        open_store(path)
    assert re.search(rf"offset {len(before) + at}\b", str(refused.value))


def test_a_reopened_handle_reads_what_the_writer_reads(tmp_path):
    # A reopened handle, which framed every record, answers as the handle
    # that wrote, which holds its committed leaves framed and its maps decoded.
    path = tmp_path / "db"
    with open_store(path, clock=lambda: 1_700_000_000) as writer:
        tree, leaves = build_figure1(writer)
        roots = commit_generations(writer, tree, leaves)
        with open_store(path) as reopened:
            assert _framed_identities(writer) == _leaf_identities(writer)
            assert len(_leaf_identities(writer)) == 5
            assert _framed(reopened) == reopened.object_count()
            for root in roots:
                lines = [f"MANIFEST {root}\n"] + [
                    f"GET {root} {path_text or '/'}\n"
                    for path_text, _ in walk_tree(writer, root).entries
                ]
                for line in lines:
                    assert answer(reopened, line) == answer(writer, line), line
            assert _contents(reopened) == _contents(writer)


def _answers(store, identity) -> tuple:
    """Every read of one identity: kind and bytes first, then the decoded object, then bytes again."""
    before = store.is_map(identity), store.payload_bytes(identity)
    obj = store.get_object(identity)
    return before, (obj.payload, obj.created_at, obj.kind), store.payload_bytes(identity)


@pytest.mark.parametrize("build", ["figure1", "benchmark"])
def test_a_writer_answers_every_read_as_a_fresh_handle(tmp_path, monkeypatch, build):
    # The writer holds its committed leaves framed, and reads them as any
    # handle reads a record a scan framed.
    path = tmp_path / "db"
    with open_store(path, clock=lambda: 1_700_000_000) as writer:
        if build == "figure1":
            tree, leaves = build_figure1(writer)
            commit_generations(writer, tree, leaves)
        else:
            monkeypatch.syspath_prepend(PERFBENCH)
            import gen

            gen.build_store(writer, gen.Detector(5), 2)
        identities = [identity for identity, _ in _slots(writer)]
        assert _framed_identities(writer) == _leaf_identities(writer)
        with open_store(path) as fresh:
            for identity in identities:
                assert _answers(writer, identity) == _answers(fresh, identity), identity
        assert _framed(writer) == 0


def test_a_writer_keeps_no_decoded_leaf_per_commit(tmp_path):
    import gc
    import tracemalloc

    def commit_one(s, n):
        make_leaf(s, "Module", "c0",
                  ped=Array("f", tuple(200.0 + n + i / 64 for i in range(64))),
                  thr=Array("i", tuple(range(n * 64, n * 64 + 64))))

    with open_store(tmp_path / "db", clock=lambda: 0) as s:
        commit_one(s, 0)  # the pair's list and its names now exist
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in range(1, 501):
                commit_one(s, n)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert s.highest_key("Module", "c0") == 501
    # A framed slot is a list slot and an int; a decoded leaf kept about 5.2 KB.
    assert kept <= 500 * 512, kept / 500


def test_framed_objects_share_stamps_and_link_identities(tmp_path):
    path = tmp_path / "db"
    s = open_store(path, clock=lambda: 1_700_000_000)
    first = make_leaf(s, "Dch Module", "crate 3", gain=4)
    second = make_leaf(s, "Dch Module", "crate 3", gain=5)
    with s.transaction() as txn:
        left = txn.create_object("Crate Map", None, Payload.map({"m1": first, "m2": second}))
        right = txn.create_object("Crate Map", None, Payload.map({"m1": first, "mod one": first}))
    s.close()
    with open_store(path) as s:
        assert _framed(s) == 4
        left_links = s.get_object(left).payload.links
        right_links = s.get_object(right).payload.links
        assert left_links["m1"] is right_links["mod one"] is s.get_object(first).identity
        assert s.get_object(left).payload.entries[0] is s.get_object(right).payload.entries[0]
        a, b = s.get_object(first), s.get_object(second)
        assert a.created_at is b.created_at
        assert a.payload.names()[0] is b.payload.names()[0]
        assert a.identity.class_name is b.identity.class_name


def test_concurrent_first_reads_make_one_object_per_identity(tmp_path):
    path = tmp_path / "db"
    with open_store(path, clock=lambda: 0) as s:
        with s.transaction() as txn:
            for i in range(300):
                txn.create_object("Leaf", f"l{i % 7}", Payload.leaf({"n": i, "s": "x" * i}))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with open_store(path) as s:
                identities = [identity for identity, _ in _slots(s)]
                barrier = threading.Barrier(4)
                got = [[] for _ in range(4)]

                def read(out):
                    barrier.wait(timeout=30)
                    out.extend(s.get_object(identity) for identity in identities)

                threads = [threading.Thread(target=read, args=(out,)) for out in got]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                for objects in got[1:]:
                    assert all(x is y for x, y in zip(got[0], objects, strict=True))
                assert _framed(s) == 0
    finally:
        sys.setswitchinterval(interval)


def test_a_record_damaged_after_the_open_refuses_at_every_read(tmp_path):
    path = tmp_path / "db"
    path.mkdir()
    first = log_transaction(("A[1]", b"kind=leaf\na=i:1\n"))
    log = first + log_transaction(("B[1]", b"kind=leaf\nb=i:2\n"))
    (path / "objects.log").write_bytes(log)
    (path / "objects.hint").write_bytes(_hint(log))
    with open_store(path) as s:
        assert _framed(s) == 2
        # Still canonical, so only B[1]'s CRC tells the damage.
        at = log.rindex(b"b=i:2") + 4
        with open(path / "objects.log", "r+b") as f:
            f.seek(at)
            f.write(b"3")
        for _ in range(2):
            with pytest.raises(CorruptLogError, match=f"^CRC mismatch at offset {len(first)}$"):
                s.get_object(ObjectIdentity("B", None, 1))
        assert _framed(s) == 2  # nothing kept
        assert s.get_object(ObjectIdentity("A", None, 1)).payload.fields == {"a": 1}


def test_a_first_read_reads_only_its_own_record(tmp_path):
    path = tmp_path / "db"
    _generations(path)
    log = (path / "objects.log").read_bytes()
    with open_store(path) as s:
        ranges = []
        read_log = s._read_log
        s._read_log = lambda offset, end: ranges.append((offset, end)) or read_log(offset, end)
        for identity, slot in _slots(s):
            offset = slot if slot >= 0 else ~slot  # a map's slot is its offset inverted
            ranges.clear()
            obj = s.get_object(identity)
            end = offset + 6 + int.from_bytes(log[offset + 2 : offset + 6], "big") + 4
            assert ranges[0][0] == offset and ranges[-1][1] == end
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            ranges.clear()
            assert s.get_object(identity) is obj and ranges == []


def test_a_first_read_on_a_closed_handle_is_a_confdb_error(tmp_path):
    path = tmp_path / "db"
    _generations(path)
    s = open_store(path)
    [(identity, _), *_] = _slots(s)
    s.close()
    with pytest.raises(ConfdbError, match="closed"):
        s.get_object(identity)


def test_clone_store_copies_open_correctly(tmp_path):
    path = tmp_path / "db"
    _generations(path)
    with open_store(path) as s:
        expected = _contents(s)
    with clone_store(str(path), str(tmp_path / "clone")) as clone:
        assert _framed(clone) == len(expected)
        assert _contents(clone) == expected


# -- confdb fsck ------------------------------------------------------------------


def _fsck(path, capsys) -> tuple[int, str, str]:
    code = cli_main(["--store", str(path), "fsck"])
    out, err = capsys.readouterr()
    return code, out, err


def test_fsck_passes_a_clean_store_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "db"
    _generations(path)
    files = {name: (path / name).read_bytes() for name in os.listdir(path)}
    with open_store(path) as s:
        count = s.object_count()
    size = len(files["objects.log"])
    code, out, _ = _fsck(path, capsys)
    assert code == 0
    assert out == f"ok {count} objects, {size} bytes\n"
    assert {name: (path / name).read_bytes() for name in os.listdir(path)} == files


def test_fsck_reports_a_torn_tail_and_leaves_it(tmp_path, capsys):
    path = tmp_path / "db"
    _generations(path)
    log = path / "objects.log"
    committed = log.read_bytes()
    torn = committed + log_transaction(("Z[1]", b"kind=leaf\nz=i:1\n"))[:-3]
    log.write_bytes(torn)
    code, out, _ = _fsck(path, capsys)
    assert code == 0
    assert out.splitlines()[0] == (
        f"torn tail: {len(torn) - len(committed)} bytes at offset {len(committed)}, left in place"
    )
    assert out.splitlines()[-1].endswith(f" objects, {len(torn)} bytes")
    assert log.read_bytes() == torn


def test_a_complete_last_record_whose_crc_fails_is_a_torn_tail(tmp_path, caplog):
    path = tmp_path / "db"
    path.mkdir()
    committed = log_transaction(("A[1]", b"kind=leaf\nv=i:1\n"))
    tail = bytearray(log_transaction(("B[1]", b"kind=leaf\nv=i:1\n")))
    tail[-1] ^= 0xFF  # the last CRC byte of the commit record
    log = path / "objects.log"
    log.write_bytes(committed + tail)
    assert len(committed) == len(tail) == 44
    assert list(store_module.check_store(str(path))) == [
        "torn tail: 44 bytes at offset 44, left in place",
        "ok 1 objects, 88 bytes",
    ]
    assert log.stat().st_size == 88
    with caplog.at_level(logging.WARNING, logger="confdb.store"):
        with open_store(path) as s:
            assert s.object_count() == 1
    assert log.read_bytes() == committed
    [record] = [r for r in caplog.records if r.name == "confdb.store"]
    assert "offset 44" in record.getMessage() and "cutting 44 bytes" in record.getMessage()


@pytest.mark.parametrize("payload, canonical, reason", NON_CANONICAL_RECORDS)
def test_a_forged_hint_over_a_non_canonical_record_refuses_at_first_read(
    tmp_path, capsys, payload, canonical, reason
):
    # A CRC-valid record that no writer of this program produces: the open
    # frames it, and its first read refuses it.
    path = tmp_path / "db"
    path.mkdir()
    before = log_transaction(("A[1]", b"kind=leaf\na=i:1\n"))
    after = log_transaction(("C[1]", b"kind=leaf\nc=i:3\n"))
    b1 = ObjectIdentity("B", None, 1)
    # The same log with the canonical spelling reads it.
    (path / "objects.log").write_bytes(before + log_transaction(("B[1]", canonical)) + after)
    with open_store(path) as s:
        assert encode_payload(s.get_object(b1).payload) == canonical
    (path / "objects.log").write_bytes(before + log_transaction(("B[1]", payload)) + after)
    with open_store(path) as s:
        assert s.object_count() == 3
        for _ in range(2):  # nothing of it is kept
            with pytest.raises(CorruptLogError, match=f"offset {len(before)}: .*{reason}"):
                s.get_object(b1)
        assert s.get_object(ObjectIdentity("A", None, 1)).payload.fields == {"a": 1}
        assert s.get_object(ObjectIdentity("C", None, 1)).payload.fields == {"c": 3}
    code, out, err = _fsck(path, capsys)
    assert code == 1
    assert out == ""
    assert re.search(rf"offset {len(before)}: .*{reason}", err)


_LEAF = b"kind=leaf\nv=i:1\n"

# Logs fsck refuses: (log, offset of the bad record, what fsck reports).
# The store opens all but the key gaps (see KEY_GAPS).
_A1 = log_transaction(("A[1]", _LEAF))
FSCK_FAILURES = {
    "dangling-link": (
        _A1 + log_transaction(("M[1]", b"kind=map\nx=A[1]\ny=Z[1]\n")),
        len(_A1),
        "M[1] at offset {at} links 'y' to missing Z[1]",
    ),
    "link-to-a-later-object": (
        log_transaction(("M[1]", b"kind=map\nx=A[1]\n")) + _A1,
        0,
        "M[1] at offset {at} links 'x' to missing A[1]",
    ),
    "binding-to-a-leaf": (
        _A1 + log_transaction(("@runtypes[1]", b"kind=runtypes\nPHYSICS=A[1]\n")),
        len(_A1),
        "@runtypes[1] at offset {at} binds 'PHYSICS' to A[1], which is not a map",
    ),
    "key-gap": (
        _A1 + log_transaction(("A[3]", _LEAF)),
        len(_A1),
        "A[3] at offset {at} breaks its key sequence after key 1",
    ),
    "dangling-link-second-in-its-transaction": (
        log_transaction(("B[1]", _LEAF), ("M[1]", b"kind=map\nx=B[1]\ny=Z[1]\n")),
        len(log_record(0x01, b"B[1]\n0\n" + _LEAF)),
        "M[1] at offset {at} links 'y' to missing Z[1]",
    ),
    "key-gap-second-in-its-transaction": (
        log_transaction(("A[1]", _LEAF), ("A[3]", _LEAF)),
        len(log_record(0x01, b"A[1]\n0\n" + _LEAF)),
        "A[3] at offset {at} breaks its key sequence after key 1",
    ),
    "self-link": (
        _A1 + log_transaction(("M[1]", b"kind=map\nx=M[1]\n")),
        len(_A1),
        "M[1] at offset {at} links 'x' to missing M[1]",
    ),
    "link-forward-in-its-transaction": (
        log_transaction(("M[1]", b"kind=map\nx=A[1]\n"), ("A[1]", _LEAF)),
        0,
        "M[1] at offset {at} links 'x' to missing A[1]",
    ),
}


KEY_GAPS = ("key-gap", "key-gap-second-in-its-transaction")


@pytest.mark.parametrize("log, at, message", FSCK_FAILURES.values(), ids=FSCK_FAILURES.keys())
def test_fsck_names_the_first_failure_and_its_offset(tmp_path, capsys, log, at, message):
    path = tmp_path / "db"
    path.mkdir()
    (path / "objects.log").write_bytes(log)
    code, out, err = _fsck(path, capsys)
    assert code == 1
    assert out == ""
    assert err == f"confdb: error: {message.format(at=at)}\n"


def test_fsck_names_a_repeated_identity(tmp_path, capsys):
    path = tmp_path / "db"
    path.mkdir()
    (path / "objects.log").write_bytes(_A1 + _A1)
    code, _, err = _fsck(path, capsys)
    assert code == 1
    assert err == f"confdb: error: duplicate identity A[1] at offset {len(_A1)}\n"


@pytest.mark.parametrize(
    "name", [name for name in FSCK_FAILURES if name not in KEY_GAPS]
)
def test_the_store_opens_a_log_whose_links_only_fsck_refuses(tmp_path, name):
    path = tmp_path / "db"
    path.mkdir()
    (path / "objects.log").write_bytes(FSCK_FAILURES[name][0])
    with open_store(path) as s:
        assert s.object_count() == 2


def test_fsck_reads_the_log_in_bounded_chunks(tmp_path, capsys, monkeypatch):
    path = tmp_path / "db"
    _generations(path)
    _, expected, _ = _fsck(path, capsys)
    size = (path / "objects.log").stat().st_size
    reads = []
    pread, preadv = os.pread, os.preadv
    monkeypatch.setattr(os, "pread", lambda fd, n, at: reads.append(n) or pread(fd, n, at))
    monkeypatch.setattr(
        os, "preadv", lambda fd, bufs, at: reads.append(sum(map(len, bufs))) or preadv(fd, bufs, at)
    )
    monkeypatch.setattr(store_module, "CHUNK_BYTES", 512)
    assert _fsck(path, capsys)[:2] == (0, expected)
    assert len(reads) > size // 512 and max(reads) <= 2 * 512
    # Reads shorter than every record grow by doubling until one is whole.
    reads.clear()
    monkeypatch.setattr(store_module, "CHUNK_BYTES", 4)
    assert _fsck(path, capsys)[:2] == (0, expected)
    assert len(reads) < 9 * len(_record_spans((path / "objects.log").read_bytes()))


# -- the dense index: keys in sequence, and the chunked open ------------------


# (log, offset of the record out of sequence, what the open reports)
KEYS_OUT_OF_SEQUENCE = {
    "gap": (_A1 + log_transaction(("A[3]", _LEAF)), len(_A1), "A[3] at offset {at} breaks"
            " its key sequence after key 1"),
    "gap-second-in-its-transaction": (
        log_transaction(("A[1]", _LEAF), ("A[3]", _LEAF)),
        len(log_record(0x01, b"A[1]\n0\n" + _LEAF)),
        "A[3] at offset {at} breaks its key sequence after key 1",
    ),
    "first-key-2": (log_transaction(("A[2]", _LEAF)), 0,
                    "A[2] at offset {at} breaks its key sequence after key 0"),
    "repeat": (_A1 + _A1, len(_A1), "duplicate identity A[1] at offset {at}"),
}


@pytest.mark.parametrize(
    "log, at, message", KEYS_OUT_OF_SEQUENCE.values(), ids=KEYS_OUT_OF_SEQUENCE.keys()
)
def test_open_and_catch_up_refuse_a_key_out_of_sequence(tmp_path, log, at, message):
    path = tmp_path / "db"
    path.mkdir()
    (path / "objects.log").write_bytes(log)
    with pytest.raises(CorruptLogError, match=f"^{re.escape(message.format(at=at))}$"):
        open_store(path)
    assert (path / "objects.log").read_bytes() == log  # nothing cut
    # A handle that caught up to B[1] refuses the same records as a tail,
    # naming their offsets in the longer log, and applies none of them.
    (path / "objects.log").write_bytes(log_transaction(("B[1]", _LEAF)))
    with open_store(path) as s:
        with open(path / "objects.log", "ab") as f:
            base = f.tell()
            f.write(log)
        with pytest.raises(CorruptLogError, match=f"^{re.escape(message.format(at=base + at))}$"):
            s.refresh()
        assert s.object_count() == 1 and s.highest_key("A") == 0


def _record_spans(log: bytes) -> list:
    """``(start, end)`` of every record, from the documented framing."""
    spans, offset = [], 0
    while offset < len(log):
        end = offset + 6 + int.from_bytes(log[offset + 2 : offset + 6], "big") + 4
        spans.append((offset, end))
        offset = end
    return spans


@pytest.mark.parametrize("mapped", [False, True], ids=["pread", "mapped"])
def test_a_chunked_open_reads_what_one_read_does(tmp_path, monkeypatch, mapped):
    if mapped:  # every read goes into a mapping of its own
        monkeypatch.setattr(store_module, "_MAPPED_READ_BYTES", 1)
    path = tmp_path / "db"
    _generations(path)
    with open_store(path) as s:
        expected = _contents(s)
    log = (path / "objects.log").read_bytes()
    spans = _record_spans(log)
    start, end = max(spans[1:], key=lambda span: span[1] - span[0])
    assert end - start > 64
    # ``expected`` came from one read of the whole log.  Here the first
    # read ends inside the header, the body or the CRC of the longest
    # record, or every read is shorter than most records.
    for chunk in (start + 3, start + 6 + 20, end - 2, 16, 64, len(log) - 1, len(log)):
        monkeypatch.setattr(store_module, "CHUNK_BYTES", chunk)
        with open_store(path) as s:
            assert _contents(s) == expected, chunk


@pytest.mark.parametrize("cut", ["header", "body", "crc"])
def test_a_chunked_open_still_cuts_a_torn_tail(tmp_path, monkeypatch, cut):
    monkeypatch.setattr(store_module, "_MAPPED_READ_BYTES", 1)
    path = tmp_path / "db"
    _generations(path)
    committed = (path / "objects.log").read_bytes()
    with open_store(path) as s:
        expected = _contents(s)
    tail = log_transaction(("Z[1]", b"kind=leaf\nz=s:\"" + b"z" * 300 + b"\"\n"))
    keep = {"header": 3, "body": 100, "crc": len(tail) - 12}[cut]
    (path / "objects.log").write_bytes(committed + tail[:keep])
    monkeypatch.setattr(store_module, "CHUNK_BYTES", 64)
    with open_store(path) as s:
        assert s.log_size() == len(committed)
        assert _contents(s) == expected


# SHA-256 of objects.log and aliases.dat as perfbench/gen.py's build_store
# writes them, by seed.
GEN_STORE_DIGESTS = {
    3: ("e606c8a3bd19fad977fd0c0c20e915b75f95c86833e9a748aa6f02a49bf56ee0",
        "801d1e1dc2ba29f26ba338f98533d03ff0c478ac7871bc070cfcb31f167fb0e8"),
    7: ("0f7241b5e6414fb0e028756d6955ee6e76df125527d5610a00b684e0a988e6e2",
        "d1d506911c0967c06acad948a4b3da2129a1801f4ec3dcf25ed596dca8bcc1d0"),
}


@pytest.mark.parametrize("seed", sorted(GEN_STORE_DIGESTS))
def test_the_benchmark_store_keeps_its_bytes(tmp_path, monkeypatch, seed):
    """The benchmark's store, built at its pinned clock, is byte-for-byte the one it always was.

    ``build_store`` at 125 rounds writes about 20k records.  These digests
    change only with a change to the log or alias-region format, which
    CHANGES.md records together with the new digests.
    """
    monkeypatch.syspath_prepend(PERFBENCH)
    import gen

    with open_store(tmp_path / "db", clock=lambda: gen.EPOCH) as s:
        gen.build_store(s, gen.Detector(seed), 125)
    digests = tuple(
        hashlib.sha256((tmp_path / "db" / name).read_bytes()).hexdigest()
        for name in ("objects.log", "aliases.dat")
    )
    assert digests == GEN_STORE_DIGESTS[seed]
