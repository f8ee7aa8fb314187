"""Client library tests: proxy dictionary, handles, end-to-end fetches."""

import socket
import sys
import threading

import pytest

from confdb import client
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
    MalformedPayloadError,
    NoActiveMapError,
    NoProxyError,
    NoSuchLinkError,
    UnknownRunTypeError,
)
from confdb.model import decode_payload, format_identity, parse_identity
from confdb.service import BoundedCache, handle_request, start_server
from confdb.store import open_store
from confdb.tree import walk_tree
from helpers import build_figure1, commit_generations, make_leaf


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


# -- malformed answers ------------------------------------------------------------


@pytest.fixture
def scripted():
    """A one-shot server: one connection, each request line answered by the next frame."""
    listener = socket.create_server(("127.0.0.1", 0))
    frames, threads = [], []

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            for frame in frames:
                if not reader.readline():
                    return
                conn.sendall(frame)

    def start(*script):
        frames.extend(script)
        threads.append(threading.Thread(target=serve, daemon=True))
        threads[0].start()
        host, port = listener.getsockname()
        return f"{host}:{port}"

    yield start
    listener.close()
    for t in threads:
        t.join(timeout=10)


def test_non_utf8_answers_raise_confdb_errors(scripted, monkeypatch):
    monkeypatch.setattr(client, "PAYLOAD_MEMO", BoundedCache(lambda: client.PAYLOAD_MEMO_BYTES))
    endpoint = scripted(
        b"OK TopMap[1]\n",
        b"OK DchHV:sector3[1]\nkind=leaf\nname=s:\xff\n.\n",
        b"OK 1\n/\tTopMap[1]\xff\n.\n",
        b"OK DchHV:sector3[1]\xff\nkind=leaf\nhv=i:1\n.\n",
    )
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(MalformedPayloadError):
            fetch_raw(handle, "dch/hv")
        with pytest.raises(MalformedPayloadError):
            fetch_manifest(handle)
        with pytest.raises(ConfdbError):
            fetch_raw(handle, "dch/hv")
    assert client.PAYLOAD_MEMO.entries == {}


def test_a_non_canonical_payload_raises_on_every_fetch(scripted, monkeypatch):
    monkeypatch.setattr(client, "PAYLOAD_MEMO", BoundedCache(lambda: client.PAYLOAD_MEMO_BYTES))
    answer = b"OK Leaf[1]\nkind=leaf\na=i:01\n.\n"
    endpoint = scripted(b"OK TopMap[1]\n", answer, answer, answer)
    with configure_run(endpoint, "PHYSICS") as handle:
        for _ in range(3):
            with pytest.raises(MalformedPayloadError):
                fetch_raw(handle, "a")
    assert client.PAYLOAD_MEMO.entries == {} and client.PAYLOAD_MEMO.size == 0


# -- the payload memo -------------------------------------------------------------


@pytest.fixture
def history(tmp_path, monkeypatch):
    """Four generations of figure 1, every GET they answer, and an empty memo."""
    store = open_store(tmp_path / "db", clock=lambda: 0)
    tree, leaves = build_figure1(store)
    gets = []
    for root in commit_generations(store, tree, leaves):
        for path, _ in walk_tree(store, root).entries:
            frame = handle_request(store, f"GET {format_identity(root)} {path or '/'}\n")
            status, _, rest = frame.partition("\n")
            assert status.startswith("OK ") and rest.endswith("\n.\n")
            # (root, path, identity and payload bytes the server sends)
            gets.append((root, path, parse_identity(status[3:]), rest[:-2].encode()))
    monkeypatch.setattr(client, "PAYLOAD_MEMO", BoundedCache(lambda: client.PAYLOAD_MEMO_BYTES))
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


def test_memo_answers_equal_a_decode_of_the_sent_bytes(history, connection):
    _, gets = history
    assert len(gets) == 6 + 6 + 8 + 8
    for _ in range(2):  # a first fetch, then a repeat
        for root, path, identity, body in gets:
            assert _fetch(connection, root, path) == (identity, decode_payload(body))
    assert set(client.PAYLOAD_MEMO.entries) == {body for *_, body in gets}


def test_a_hit_never_decodes(history, connection, monkeypatch):
    _, gets = history
    root, path, _, body = gets[-1]
    decodes = []

    def decode_once(data):
        decodes.append(data)
        if len(decodes) > 1:
            raise RuntimeError("decoded again")
        return decode_payload(data)

    monkeypatch.setattr(client, "decode_payload", decode_once)
    _, first = _fetch(connection, root, path)
    _, again = _fetch(connection, root, path)
    assert again is first and decodes == [body]
    assert client.PAYLOAD_MEMO.entries == {body: first}


def _size_of(memo):
    return sum(sys.getsizeof(key) for key in memo.entries)


def test_the_memo_stays_within_its_budget(history, connection, monkeypatch):
    _, gets = history
    costs = sorted({sys.getsizeof(body) for *_, body in gets})
    budget = 3 * costs[-1]
    monkeypatch.setattr(client, "PAYLOAD_MEMO_BYTES", budget)
    memo = client.PAYLOAD_MEMO
    emptied = 0
    for _ in range(3):
        for root, path, identity, body in gets:
            before = len(memo.entries)
            assert _fetch(connection, root, path) == (identity, decode_payload(body))
            emptied += len(memo.entries) < before
            assert memo.size == _size_of(memo) <= budget
    assert emptied > 0
    # A payload over the whole budget is never kept.
    monkeypatch.setattr(client, "PAYLOAD_MEMO_BYTES", costs[0] - 1)
    memo.entries.clear()
    memo.size = 0
    root, path, identity, body = gets[0]
    assert _fetch(connection, root, path) == (identity, decode_payload(body))
    assert memo.entries == {} and memo.size == 0


class _Direct:
    """A connection that asks the server's request handler without a socket."""

    def __init__(self, store):
        self.store = store

    def request(self, line, body=False):
        status, _, rest = handle_request(self.store, line + "\n").partition("\n")
        return status[3:], rest[:-2].encode()


def test_threads_share_one_small_memo(history, monkeypatch):
    store, gets = history
    budget = 3 * max(sys.getsizeof(body) for *_, body in gets)
    monkeypatch.setattr(client, "PAYLOAD_MEMO_BYTES", budget)
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
    assert client.PAYLOAD_MEMO.size == _size_of(client.PAYLOAD_MEMO) <= budget
