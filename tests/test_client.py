"""Client library tests: proxy dictionary, handles, end-to-end fetches."""

import os
import select
import socket
import struct
import sys
import threading
import time

import pytest

from confdb import client, service
from confdb.client import (
    ProxyDictionary,
    TreeHandle,
    active_run_types,
    configure_run,
    fetch_manifest,
    fetch_object,
    fetch_raw,
    register_proxy,
)
from confdb.commitproc import commit_alias_tree
from confdb.errors import (
    ConfdbError,
    ConnectionFailureError,
    DuplicateRegistrationError,
    InvalidNameError,
    MalformedIdentityError,
    MalformedPayloadError,
    NoActiveMapError,
    NoProxyError,
    NoSuchLinkError,
    UnknownRunTypeError,
)
from confdb.model import decode_payload, format_identity, parse_identity
from confdb.service import BoundedCache, start_server
from confdb.store import open_store
from confdb.tree import walk_tree
from helpers import answer, build_figure1, commit_generations, make_leaf


@pytest.fixture
def served(tmp_path):
    store = open_store(tmp_path / "db", clock=lambda: 0)
    tree, leaves = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    server = start_server(store, "127.0.0.1:0")
    yield store, tree, root, server.endpoint
    server.shutdown()
    server.server_close()
    store.close()


@pytest.fixture
def memo(monkeypatch):
    """An empty GET memo for one test."""
    memo = BoundedCache(client.GET_MEMO_BYTES)
    monkeypatch.setattr(client, "GET_MEMO", memo)
    return memo


def hv_decoder(payload):
    return {"volts": payload.fields["hv"]}


def test_register_and_dispatch():
    proxies = ProxyDictionary()
    register_proxy(proxies, "DchHV", hv_decoder)
    assert proxies.decoder_for("DchHV") is hv_decoder


def test_register_twice_rejected():
    proxies = ProxyDictionary()
    register_proxy(proxies, "DchHV", hv_decoder)
    with pytest.raises(DuplicateRegistrationError):
        register_proxy(proxies, "DchHV", hv_decoder)


def test_register_empty_name_rejected():
    with pytest.raises(InvalidNameError):
        register_proxy(ProxyDictionary(), "", hv_decoder)


def test_configure_run_pins_the_tree(served):
    _, _, root, endpoint = served
    with configure_run(endpoint, "PHYSICS") as handle:
        assert handle.root == root


def test_configure_run_unknown_run_type(served):
    _, _, _, endpoint = served
    with pytest.raises(UnknownRunTypeError):
        configure_run(endpoint, "BOGUS")


def test_configure_run_no_active_map(tmp_path):
    store = open_store(tmp_path / "empty", clock=lambda: 0)
    server = start_server(store, "127.0.0.1:0")
    try:
        with pytest.raises(NoActiveMapError):
            configure_run(server.endpoint, "PHYSICS")
    finally:
        server.shutdown()
        server.server_close()
        store.close()


def test_configure_run_connection_failure():
    # grab a free port and close it again: nothing is listening there
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ConnectionFailureError):
        configure_run(f"127.0.0.1:{port}", "PHYSICS")


def test_fetch_object_decodes(served):
    _, _, _, endpoint = served
    proxies = ProxyDictionary()
    register_proxy(proxies, "DchHV", hv_decoder)
    with configure_run(endpoint, "PHYSICS") as handle:
        assert fetch_object(handle, proxies, "dch/hv") == {"volts": 1800.0}


def test_fetch_without_proxy(served):
    _, _, _, endpoint = served
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(NoProxyError):
            fetch_object(handle, ProxyDictionary(), "dch/hv")


def test_fetch_raw_returns_identity_and_payload(served):
    store, _, _, endpoint = served
    with configure_run(endpoint, "PHYSICS") as handle:
        identity, payload = fetch_raw(handle, "dch/hv")
    assert format_identity(identity) == "DchHV:sector3[1]"
    assert payload.fields == {"hv": 1800.0}


def test_fetch_missing_path(served):
    _, _, _, endpoint = served
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(NoSuchLinkError):
            fetch_raw(handle, "dch/nope")


def test_fetch_is_deterministic(served):
    _, _, _, endpoint = served
    proxies = ProxyDictionary()
    register_proxy(proxies, "DchHV", hv_decoder)
    with configure_run(endpoint, "PHYSICS") as handle:
        assert fetch_object(handle, proxies, "dch/hv") == fetch_object(
            handle, proxies, "dch/hv"
        )


def test_old_handles_survive_activation(served):
    store, tree, root, endpoint = served
    with configure_run(endpoint, "PHYSICS") as old_handle:
        before = fetch_raw(old_handle, "dch/hv")
        hv2 = make_leaf(store, "DchHV", "sector3", hv=1900.0)
        tree.set_object_alias("dch", "hv", hv2)
        new_root = commit_alias_tree(store, tree, ["PHYSICS"])
        assert new_root != root
        # the old handle is pinned to the old tree and sees identical data
        assert old_handle.root == root
        assert fetch_raw(old_handle, "dch/hv") == before
        # a fresh handle sees the new tree
        with configure_run(endpoint, "PHYSICS") as new_handle:
            assert new_handle.root == new_root
            assert fetch_raw(new_handle, "dch/hv")[0] == hv2


def test_fetch_manifest_and_runtypes(served):
    _, _, root, endpoint = served
    with configure_run(endpoint, "PHYSICS") as handle:
        lines = fetch_manifest(handle)
    assert lines[0] == f"/\t{format_identity(root)}"
    assert len(lines) == 6
    assert active_run_types(endpoint) == {"PHYSICS": root}


def test_a_line_break_in_a_request_is_refused_and_the_connection_stays_in_step(served):
    _, _, root, endpoint = served
    with configure_run(endpoint, "PHYSICS") as handle:
        manifest = fetch_manifest(handle)
        with pytest.raises(InvalidNameError):
            fetch_raw(handle, "dch\nPING")
        assert fetch_manifest(handle) == manifest
        assert format_identity(fetch_raw(handle, "dch/hv")[0]) == "DchHV:sector3[1]"
    with pytest.raises(InvalidNameError):
        configure_run(endpoint, "PHYSICS\nPING")
    connection = client._Connection(endpoint)
    try:
        with pytest.raises(InvalidNameError):
            connection.request("RESOLVE PHYSICS\nPING")
        assert connection.request("RESOLVE PHYSICS") == (format_identity(root), b"")
    finally:
        connection.close()


class _SendFails:
    """A socket whose ``sendall`` fails after part of the line went out."""

    def __init__(self):
        self.sent, self.closed = [], False

    def sendall(self, data):
        if self.closed:
            raise OSError(9, "Bad file descriptor")
        self.sent.append(data[:3])
        raise OSError(104, "Connection reset by peer")

    def close(self):
        self.closed = True


def test_a_failed_send_gives_the_connection_up(served):
    _, _, _, endpoint = served
    with configure_run(endpoint, "PHYSICS") as handle:
        real, fake = handle._connection._sock, _SendFails()
        handle._connection._sock = fake
        try:
            with pytest.raises(ConnectionFailureError, match="send failed"):
                fetch_raw(handle, "dch/hv")
            assert fake.closed and fake.sent == [b"GET"]
            # The next request would follow the part sent: it fails, sending nothing.
            with pytest.raises(ConnectionFailureError):
                fetch_manifest(handle)
            assert fake.sent == [b"GET"]
        finally:
            real.close()


# -- malformed answers ------------------------------------------------------------

_TOKEN = b"OK t1\n"  # a scripted server's TOKEN answer


@pytest.fixture(autouse=True)
def tree_memo(monkeypatch):
    """An empty tree memo for each test, so no tree kept under ``_TOKEN`` outlives it."""
    memo = BoundedCache(client.GET_MEMO_BYTES)
    monkeypatch.setattr(client, "TREE_MEMO", memo)
    return memo


@pytest.fixture
def scripted():
    """A scripted server: per call, one connection, each request line answered by the next frame."""
    listener = socket.create_server(("127.0.0.1", 0))
    threads = []

    def serve(frames, reset, piece):
        conn, _ = listener.accept()
        # Each piece leaves in its own segment rather than waiting to join the next.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn, conn.makefile("rb") as reader:
            for frame in frames:
                if not reader.readline():
                    return
                step = piece or max(len(frame), 1)
                for at in range(0, len(frame), step):
                    conn.sendall(frame[at : at + step])
            if reset:
                # A zero linger time makes the close send a reset.
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    def start(*script, reset=False, piece=None):
        """Serve ``script`` on the next connection, each frame in sends of ``piece`` bytes.

        ``piece`` defaults to the whole frame.  With ``reset``, reset the
        connection after its last frame; else close it.  A later call
        serves the connection after this one's.
        """
        threads.append(
            threading.Thread(target=serve, args=(script, reset, piece), daemon=True)
        )
        threads[-1].start()
        host, port = listener.getsockname()
        return f"{host}:{port}"

    yield start
    client.POOL.clear()  # a kept connection would hold its thread
    listener.close()
    for t in threads:
        t.join(timeout=10)


def test_non_utf8_answers_raise_confdb_errors(scripted, memo):
    endpoint = scripted(
        b"OK TopMap[1]\n",
        _TOKEN,
        b"OK DchHV:sector3[1]\nkind=leaf\nname=s:\xff\n.\n",
        b"OK 1\n/\tTopMap[1]\xff\t0\n.\n",
        b"OK DchHV:sector3[1]\xff\nkind=leaf\nhv=i:1\n.\n",
    )
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(MalformedPayloadError):
            fetch_raw(handle, "dch/hv")
        with pytest.raises(ConfdbError, match="not path, identity, length"):
            fetch_manifest(handle)
        with pytest.raises(ConnectionFailureError):
            fetch_raw(handle, "dch/hv")
    assert memo.entries == {}
    # A RUNTYPES body that is not UTF-8, on a connection of its own.
    endpoint = scripted(b"OK 1\nPHYSICS\tTopMap[1]\xff\n.\n")
    with pytest.raises(MalformedPayloadError, match="not valid UTF-8"):
        active_run_types(endpoint)


def test_a_refused_status_line_gives_the_connection_up(scripted):
    # The refused answer's body is never read, so a later request on the
    # same connection would take that body for its own status line.
    endpoint = scripted(
        b"OK TopMap[1]\n",
        _TOKEN,
        b"OK Leaf[1]\xff\nkind=leaf\na=i:1\n.\n",
        b"OK Leaf[1]\nkind=leaf\na=i:1\n.\n",
    )
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(ConnectionFailureError, match="not UTF-8"):
            fetch_raw(handle, "a")
        with pytest.raises(ConnectionFailureError):
            fetch_raw(handle, "a")


def test_a_status_line_neither_ok_nor_err_gives_the_connection_up(scripted):
    endpoint = scripted(
        b"OK TopMap[1]\n",
        _TOKEN,
        b"HELLO Leaf[1]\nkind=leaf\na=i:1\n.\n",
        b"OK Leaf[1]\nkind=leaf\na=i:1\n.\n",
    )
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(ConnectionFailureError, match="unexpected response: 'HELLO Leaf"):
            fetch_raw(handle, "a")
        # Closed, so the next request fails as it is sent.
        with pytest.raises(ConnectionFailureError, match="send failed"):
            fetch_raw(handle, "a")


def test_a_reset_mid_answer_gives_the_connection_up(scripted):
    endpoint = scripted(b"OK TopMap[1]\n", _TOKEN, b"OK Leaf[1]\nkind=leaf\n", reset=True)
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(ConnectionFailureError):
            fetch_raw(handle, "a")
        with pytest.raises(ConnectionFailureError):
            fetch_raw(handle, "a")


def test_a_non_canonical_payload_raises_on_every_fetch(scripted, memo):
    answer = b"OK Leaf[1]\nkind=leaf\na=i:01\n.\n"
    endpoint = scripted(b"OK TopMap[1]\n", _TOKEN, answer, answer, answer)
    with configure_run(endpoint, "PHYSICS") as handle:
        for _ in range(3):
            with pytest.raises(MalformedPayloadError):
                fetch_raw(handle, "a")
    assert memo.entries == {} and memo.size == 0


def test_a_malformed_identity_raises_on_every_fetch(scripted, memo):
    answer = b"OK Leaf[01]\nkind=leaf\na=i:1\n.\n"
    endpoint = scripted(b"OK TopMap[1]\n", _TOKEN, answer, answer, answer)
    with configure_run(endpoint, "PHYSICS") as handle:
        for _ in range(3):
            with pytest.raises(MalformedIdentityError):
                fetch_raw(handle, "a")
    assert memo.entries == {} and memo.size == 0


_TWO_PHYSICS = b"PHYSICS\tTopMap[1]\nPHYSICS\tTopMap[2]\n.\n"
_ONE_EACH = b"PHYSICS\tTopMap[1]\nCOSMICS\tTopMap[2]\n.\n"


@pytest.mark.parametrize(
    "frame",
    [b"OK 5\n" + _TWO_PHYSICS, b"OK 3\n" + _ONE_EACH, b"OK 1\n" + _ONE_EACH,
     b"OK 02\n" + _ONE_EACH, b"OK +2\n" + _ONE_EACH, b"OK\n" + _ONE_EACH],
    ids=["5-for-2-repeated", "3-for-2", "1-for-2", "leading-zero", "plus-sign", "no-count"],
)
def test_a_runtypes_count_that_does_not_count_its_lines_is_refused(scripted, frame):
    with pytest.raises(ConfdbError, match="RUNTYPES count"):
        active_run_types(scripted(frame))


def test_a_run_type_bound_twice_is_refused(scripted):
    assert active_run_types(scripted(b"OK 2\n" + _ONE_EACH)) == {
        "PHYSICS": parse_identity("TopMap[1]"), "COSMICS": parse_identity("TopMap[2]")}
    with pytest.raises(ConfdbError, match="binds 'PHYSICS' twice"):
        active_run_types(scripted(b"OK 2\n" + _TWO_PHYSICS))


# -- reading answers out of the receive buffer ------------------------------------

_LEAF = b"OK Leaf[1]\nkind=leaf\na=i:1\n.\n"
_DOT = b'OK Leaf[2]\nkind=leaf\nb=s:"."\n.\n'


def _raw(answer):
    """What fetch_raw returns for one GET answer."""
    status, _, rest = answer.partition(b"\n")
    return parse_identity(status[3:].decode()), decode_payload(rest[:-2])


def _manifest_lines(handle) -> list:
    """The lines of a MANIFEST of the handle's root, read on its connection."""
    _, body = handle._connection.request(f"MANIFEST {format_identity(handle.root)}", body=True)
    return client._body_lines(body)


def test_answers_sent_a_byte_at_a_time_are_read_whole(scripted):
    endpoint = scripted(
        b"OK TopMap[1]\n",
        _TOKEN,
        _LEAF,
        b"OK 3\n/\tTopMap[1]\n.a\tLeaf[1]\na.\tLeaf[2]\n.\n",
        b"OK 0\n.\n",
        b"ERR 404 no-such-link b\n",
        _DOT,
        piece=1,
    )
    with configure_run(endpoint, "PHYSICS") as handle:
        assert handle.root == parse_identity("TopMap[1]")
        assert fetch_raw(handle, "a") == _raw(_LEAF)
        assert _manifest_lines(handle) == ["/\tTopMap[1]", ".a\tLeaf[1]", "a.\tLeaf[2]"]
        assert _manifest_lines(handle) == []
        with pytest.raises(NoSuchLinkError):
            fetch_raw(handle, "b")
        assert fetch_raw(handle, "c") == _raw(_DOT)


def test_two_answers_in_one_send_serve_two_requests(scripted):
    endpoint = scripted(b"OK TopMap[1]\n", _TOKEN, _LEAF + _DOT, b"")
    with configure_run(endpoint, "PHYSICS") as handle:
        assert fetch_raw(handle, "a") == _raw(_LEAF)
        # The second answer is already in the buffer when its request goes out.
        assert fetch_raw(handle, "c") == _raw(_DOT)


def test_an_empty_body_reads_as_no_lines(scripted):
    endpoint = scripted(b"OK TopMap[1]\n", _TOKEN, b"OK 0\n.\n", _LEAF)
    with configure_run(endpoint, "PHYSICS") as handle:
        assert fetch_manifest(handle) == []
        assert fetch_raw(handle, "a") == _raw(_LEAF)


def test_an_err_answer_leaves_the_connection_in_step(scripted):
    err = b"ERR 404 no-such-link b\n"
    # The first ERR arrives together with the answer that follows it.
    endpoint = scripted(b"OK TopMap[1]\n", _TOKEN, err + _LEAF, b"", err, _DOT)
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(NoSuchLinkError):
            fetch_raw(handle, "b")
        assert fetch_raw(handle, "a") == _raw(_LEAF)
        with pytest.raises(NoSuchLinkError):
            fetch_raw(handle, "b")
        assert fetch_raw(handle, "c") == _raw(_DOT)


def test_an_end_of_stream_mid_answer_gives_the_connection_up(scripted):
    endpoint = scripted(b"OK TopMap[1]\n", _TOKEN, b"OK Leaf[1]\nkind=leaf\n")
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(ConnectionFailureError, match="closed by server"):
            fetch_raw(handle, "a")
        assert handle._connection._sock.fileno() == -1
        with pytest.raises(ConnectionFailureError, match="send failed"):
            fetch_raw(handle, "a")


def test_a_silent_server_times_the_request_out(monkeypatch):
    monkeypatch.setattr(client, "TIMEOUT_S", 0.2)
    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            reader.readline()
            conn.sendall(b"OK TopMap[1]\n" + _TOKEN)
            reader.readline()
            reader.readline()
            done.wait(10)  # the GET is never answered

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    host, port = listener.getsockname()
    try:
        with configure_run(f"{host}:{port}", "PHYSICS") as handle:
            started = time.perf_counter()
            with pytest.raises(ConnectionFailureError, match="read failed"):
                fetch_raw(handle, "a")
            assert 0.15 < time.perf_counter() - started < 5
            assert handle._connection._sock.fileno() == -1
    finally:
        done.set()
        server.join(timeout=10)
        listener.close()


def test_a_large_body_in_small_pieces_is_read_exactly(scripted):
    lines = [f"p{i}/leaf\tLeaf[{i + 1}]" for i in range(50_000)]
    frame = f"OK {len(lines)}\n" + "".join(line + "\n" for line in lines) + ".\n"
    # Pad the first path so the last piece holds ".\n" and the one before
    # it ends on the LF of the last line: the terminator is cut in two.
    lines[0] = "x" * ((2 - len(frame)) % 4096) + lines[0]
    frame = f"OK {len(lines)}\n" + "".join(line + "\n" for line in lines) + ".\n"
    assert len(frame) % 4096 == 2 and len(frame) > 2**20
    endpoint = scripted(b"OK TopMap[1]\n", _TOKEN, frame.encode(), _LEAF, piece=4096)
    with configure_run(endpoint, "PHYSICS") as handle:
        assert _manifest_lines(handle) == lines
        assert fetch_raw(handle, "a") == _raw(_LEAF)


# -- the GET memo -----------------------------------------------------------------


@pytest.fixture
def history(tmp_path, memo):
    """Four generations of figure 1, every GET they answer, and an empty memo."""
    store = open_store(tmp_path / "db", clock=lambda: 0)
    tree, leaves = build_figure1(store)
    gets = []
    for root in commit_generations(store, tree, leaves):
        for path, _ in walk_tree(store, root).entries:
            frame = answer(store, f"GET {format_identity(root)} {path or '/'}\n")
            status, _, rest = frame.partition(b"\n")
            assert status.startswith(b"OK ") and rest.endswith(b"\n.\n")
            # (root, path, identity and payload bytes the server sends)
            gets.append((root, path, parse_identity(status[3:].decode()), rest[:-2]))
    yield store, gets
    store.close()


@pytest.fixture
def connection(history):
    store, _ = history
    server = start_server(store, "127.0.0.1:0")
    handle = configure_run(server.endpoint, "PHYSICS")
    yield handle._connection
    handle.close()
    server.shutdown()
    server.server_close()


def _fetch(connection, root, path):
    return fetch_raw(TreeHandle("", root, connection), path)


def _key(identity, body):
    """The memo key of a GET answer: its status tail and payload bytes."""
    return format_identity(identity), body


def _cost(key):
    tail, body = key
    return sys.getsizeof(tail) + sys.getsizeof(body)


def _size_of(memo):
    return sum(_cost(key) for key in memo.entries)


def test_memo_answers_equal_a_decode_of_the_sent_bytes(history, connection, memo):
    _, gets = history
    assert len(gets) == 6 + 6 + 8 + 8
    for _ in range(2):  # a first fetch, then a repeat
        for root, path, identity, body in gets:
            assert _fetch(connection, root, path) == (identity, decode_payload(body))
    assert set(memo.entries) == {_key(identity, body) for *_, identity, body in gets}


def test_a_hit_never_decodes(history, connection, memo, monkeypatch):
    _, gets = history
    root, path, identity, body = gets[-1]
    decoded = []

    def decode_once(data):
        decoded.append(data)
        if len(decoded) > 1:
            raise RuntimeError("decoded again")
        return decode_payload(data)

    monkeypatch.setattr(client, "decode_payload", decode_once)
    first = _fetch(connection, root, path)
    again = _fetch(connection, root, path)
    assert again is first and first == (identity, decode_payload(body))
    assert decoded == [body]
    assert memo.entries == {_key(identity, body): first}


def test_an_identity_hit_never_parses(history, connection, memo, monkeypatch):
    _, gets = history
    root, path, identity, body = gets[-1]
    parsed = []

    def parse_once(text):
        parsed.append(text)
        if len(parsed) > 1:
            raise RuntimeError("parsed again")
        return parse_identity(text)

    monkeypatch.setattr(client, "parse_identity", parse_once)
    first, _ = _fetch(connection, root, path)
    again, _ = _fetch(connection, root, path)
    assert again is first and first == identity
    assert parsed == [format_identity(identity)]
    assert [tail for tail, _ in memo.entries] == [format_identity(identity)]


def test_the_memo_stays_within_its_budget(history, connection, monkeypatch):
    _, gets = history
    costs = sorted({_cost(_key(identity, body)) for *_, identity, body in gets})
    budget = 3 * costs[-1]
    memo = BoundedCache(budget)
    monkeypatch.setattr(client, "GET_MEMO", memo)
    emptied = 0
    for _ in range(3):
        for root, path, identity, body in gets:
            before = len(memo.entries)
            assert _fetch(connection, root, path) == (identity, decode_payload(body))
            emptied += len(memo.entries) < before
            assert memo.size == _size_of(memo) <= budget
    assert emptied > 0
    # An answer over the whole budget is never kept.
    memo = BoundedCache(costs[0] - 1)
    monkeypatch.setattr(client, "GET_MEMO", memo)
    root, path, identity, body = gets[0]
    assert _fetch(connection, root, path) == (identity, decode_payload(body))
    assert memo.entries == {} and memo.size == 0


class _Direct:
    """A connection that asks the server's request handler without a socket."""

    def __init__(self, store):
        self.store = store

    def request(self, line, body=False):
        status, _, rest = answer(self.store, line + "\n").partition(b"\n")
        return status[3:].decode(), rest[:-2]


def test_threads_share_one_small_memo(history, monkeypatch):
    store, gets = history
    budget = 3 * max(_cost(_key(identity, body)) for *_, identity, body in gets)
    memo = BoundedCache(budget)
    monkeypatch.setattr(client, "GET_MEMO", memo)
    direct = _Direct(store)
    wrong = []

    def reader(offset):
        for i in range(400):
            root, path, identity, body = gets[(offset + 7 * i) % len(gets)]
            if _fetch(direct, root, path) != (identity, decode_payload(body)):
                wrong.append(path)

    # More threads than cores, switching often, so inserts and clears
    # interleave with lock-free lookups.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    # A lost update of the size would break this.
    assert memo.size == _size_of(memo) <= budget


def test_threads_share_one_small_identity_memo(history, monkeypatch):
    """The identity half of every answer stays right while a small memo empties."""
    store, gets = history
    texts = {format_identity(identity) for _, _, identity, _ in gets}
    assert len(texts) > 3
    budget = 3 * max(_cost(_key(identity, body)) for *_, identity, body in gets)
    memo = BoundedCache(budget)
    monkeypatch.setattr(client, "GET_MEMO", memo)
    direct = _Direct(store)
    emptied = 0
    for root, path, identity, _ in gets:
        before = len(memo.entries)
        assert _fetch(direct, root, path)[0] == identity
        emptied += len(memo.entries) < before
        assert memo.size == _size_of(memo) <= budget
    assert emptied > 0
    wrong = []

    def reader(offset):
        for i in range(400):
            root, path, identity, _ = gets[(offset + 7 * i) % len(gets)]
            if _fetch(direct, root, path)[0] != identity:
                wrong.append(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert memo.size == _size_of(memo) <= budget


# -- idle connections -------------------------------------------------------------


@pytest.fixture
def accepts(monkeypatch):
    """The client address of each connection any server's handler sets up."""
    seen = []
    setup = service._Handler.setup

    def counted(handler):
        seen.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(service._Handler, "setup", counted)
    return seen


def _answers(endpoint, run_type="PHYSICS"):
    """One transition's root, token and what each path of its tree answers."""
    with configure_run(endpoint, run_type) as handle:
        paths = [line.split("\t")[0] for line in fetch_manifest(handle)]
        return handle.root, handle.token, {path: fetch_raw(handle, path) for path in paths}


def _readable(connection):
    """Wait until bytes or an end of stream from the server wait on ``connection``."""
    poll = select.poll()
    poll.register(connection._sock, select.POLLIN)
    assert poll.poll(10_000), "nothing came from the server"


def test_sequential_transitions_share_one_connection(served, accepts):
    _, _, root, endpoint = served
    first = _answers(endpoint)
    assert first[0] == root and _answers(endpoint) == first
    assert len(accepts) == 1
    assert len(client.POOL.idle[endpoint]) == 1


def test_an_endpoint_keeps_at_most_its_bound_of_idle_connections(served, accepts, monkeypatch):
    _, _, _, endpoint = served
    monkeypatch.setattr(client, "IDLE_PER_ENDPOINT", 1)
    handles = [configure_run(endpoint, "PHYSICS") for _ in range(3)]
    connections = [handle._connection for handle in handles]
    for handle in handles:
        handle.close()
        handle.close()  # a second close gives nothing back
    assert len(accepts) == 3
    assert client.POOL.idle[endpoint] == connections[:1]
    assert [connection._sock.fileno() for connection in connections[1:]] == [-1, -1]
    with pytest.raises(ConnectionFailureError, match="closed"):
        fetch_raw(handles[0], "dch/hv")


def test_a_connection_refused_or_cut_off_is_not_kept(served):
    _, _, _, endpoint = served
    refused = configure_run(endpoint, "PHYSICS")
    refused.root = parse_identity("TopMap[99]")  # no such object
    with pytest.raises(ConfdbError):
        fetch_manifest(refused)
    # An interrupt in mid-answer leaves the rest of the frame unread.
    cut = configure_run(endpoint, "PHYSICS")
    receive = cut._connection._receive

    def interrupted(fresh):
        receive(fresh)
        raise KeyboardInterrupt

    cut._connection._receive = interrupted
    with pytest.raises(KeyboardInterrupt):
        fetch_manifest(cut)
    connections = [refused._connection, cut._connection]
    refused.close()
    cut.close()
    assert client.POOL.idle.get(endpoint, []) == []
    assert [connection._sock.fileno() for connection in connections] == [-1, -1]


def test_a_kept_connection_with_bytes_waiting_is_passed_over(served, accepts):
    _, _, _, endpoint = served
    first = _answers(endpoint)
    (kept,) = client.POOL.idle[endpoint]
    kept._sock.sendall(b"PING\n")  # its answer would be read as the RESOLVE's
    _readable(kept)
    assert _answers(endpoint) == first
    assert len(accepts) == 2 and kept._sock.fileno() == -1


def test_a_connection_the_server_closed_while_idle_is_replaced(served, accepts, monkeypatch):
    _, _, _, endpoint = served
    monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.2)
    first = _answers(endpoint)
    _readable(client.POOL.idle[endpoint][0])
    assert _answers(endpoint) == first
    assert len(accepts) == 2
    # Closed after the take's poll: the RESOLVE meets the end of stream
    # before any byte of its answer, and is sent again on a new connection.
    _readable(client.POOL.idle[endpoint][0])
    monkeypatch.setattr(client._Connection, "quiet", lambda connection: True)
    assert _answers(endpoint) == first
    assert len(accepts) == 3


def test_a_server_restarted_on_the_same_port_is_met_with_its_new_token(served, accepts):
    store, _, _, _ = served
    server = start_server(store, "127.0.0.1:0")
    endpoint = server.endpoint
    try:
        first = _answers(endpoint)
    finally:
        server.shutdown()
        server.server_close()
    server = start_server(store, endpoint)
    try:
        again = _answers(endpoint)
    finally:
        server.shutdown()
        server.server_close()
    assert first[1] != again[1] == server.cache.token
    assert again[0] == first[0] and again[2] == first[2]
    assert len(accepts) == 2


def test_two_threads_never_hold_one_connection_at_once(served, accepts):
    _, _, root, endpoint = served
    held, shared, wrong = set(), [], []
    lock = threading.Lock()

    def transitions():
        for _ in range(100):
            try:
                with configure_run(endpoint, "PHYSICS") as handle:
                    connection = handle._connection
                    with lock:
                        if connection in held:
                            shared.append(connection)
                        held.add(connection)
                    if handle.root != root or fetch_raw(handle, "dch/hv")[0].secondary_key != "sector3":
                        wrong.append(handle.root)
                    with lock:
                        held.discard(connection)
            except Exception as exc:  # noqa: BLE001 - answers read out of step
                wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=transitions) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert shared == [] and wrong == []
    # No connection is closed, so no more are opened than are held at once.
    assert len(accepts) <= 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_starts_with_no_idle_connection(served, accepts):
    _, _, _, endpoint = served
    first = _answers(endpoint)
    (kept,) = client.POOL.idle[endpoint]
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(write, f"{len(client.POOL.idle)} {kept._sock.fileno()}".encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as reader:
        seen = reader.read()
    os.waitpid(pid, 0)
    assert seen == b"0 -1"
    # The child closed only its own copy: the parent's connection still answers.
    assert _answers(endpoint) == first and len(accepts) == 1
