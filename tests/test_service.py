"""Service tests: protocol frames, read-only guarantee, concurrent access."""

import logging
import os
import socket
import struct
import sys
import threading
import time

import pytest

from confdb import service
from confdb import store as store_module
from confdb.commitproc import commit_alias_tree
from confdb.errors import CorruptLogError, ParseError
from confdb.model import ObjectIdentity, display_path, encode_payload, format_identity
from confdb.service import (
    FRAME_CACHE_BYTES,
    MAX_REQUEST_LINE,
    BoundedCache,
    ConfigServer,
    FrameCache,
    handle_request,
    parse_endpoint,
    start_server,
)
from confdb.store import StoredObject, open_store
from confdb.tree import walk_tree
from helpers import (
    NON_CANONICAL_LEAF_LOG,
    answer,
    build_figure1,
    commit_generations,
    log_transaction,
    make_leaf,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def store(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    yield s
    s.close()


@pytest.fixture
def populated(store):
    tree, leaves = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    return store, tree, root


def test_ping(store):
    assert answer(store, "PING\n") == b"OK pong\n"


def test_resolve(populated):
    store, _, root = populated
    assert answer(store, "RESOLVE PHYSICS\n") == f"OK {format_identity(root)}\n".encode()


def test_resolve_unknown(populated):
    store, _, _ = populated
    assert answer(store, "RESOLVE CALIB\n") == b"ERR 404 unknown-run-type CALIB\n"


def test_resolve_on_empty_store(store):
    assert answer(store, "RESOLVE PHYSICS\n") == b"ERR 404 no-active-map\n"


def test_resolve_requires_a_run_type(store):
    assert answer(store, "RESOLVE\n") == b"ERR 400 malformed-request missing run type\n"


def test_get_returns_identity_and_payload(populated):
    store, _, root = populated
    response = answer(store, f"GET {format_identity(root)} dch/hv\n")
    assert response == (
        b"OK DchHV:sector3[1]\n"
        b"kind=leaf\n"
        b"hv=f:0x1.c2p+10\n"
        b".\n"
    )


def test_get_root_path(populated):
    store, _, root = populated
    response = answer(store, f"GET {format_identity(root)} /\n")
    assert response.startswith(f"OK {format_identity(root)}\nkind=map\n".encode())
    assert response.endswith(b".\n")


def test_get_missing_link_reports_prefix(populated):
    store, _, root = populated
    response = answer(store, f"GET {format_identity(root)} dch/nope\n")
    assert response == b"ERR 404 no-such-link dch\n"


def test_get_requires_path(populated):
    store, _, root = populated
    assert answer(store, f"GET {format_identity(root)}\n").startswith(b"ERR 400")


def test_get_identity_with_spaces(store):
    leaf = make_leaf(store, "HV set", "s 1", v=1)
    with store.transaction() as txn:
        from confdb.model import Payload

        root = txn.create_object("Top Map", None, Payload.map({"the link": leaf}))
    response = answer(store, "GET Top Map[1] the link\n")
    assert response.startswith(b"OK HV set:s 1[1]\n")


def test_runtypes_frame(populated):
    store, _, root = populated
    response = answer(store, "RUNTYPES\n")
    assert response == f"OK 1\nPHYSICS\t{format_identity(root)}\n.\n".encode()


def test_runtypes_empty(store):
    assert answer(store, "RUNTYPES\n") == b"OK 0\n.\n"


@pytest.mark.parametrize("verb", ["PING", "TOKEN", "RUNTYPES", "FETCH TopMap[1]"])
@pytest.mark.parametrize("tail", [" x", " "])
def test_trailing_text_after_a_request_is_refused(populated, verb, tail):
    store, _, _ = populated
    assert answer(store, f"{verb}{tail}\n") == b"ERR 400 malformed-request trailing data\n"


def test_unknown_verb(store):
    assert answer(store, "FROB x\n") == b"ERR 400 unknown-verb\n"


def test_a_carriage_return_is_part_of_the_request(populated):
    """Lines end with LF alone: a CR before it is the last argument's, not the line end's."""
    store, _, root = populated
    get = answer(store, f"GET {format_identity(root)} dch/hv\r\n")
    assert get.startswith(b"ERR 400 invalid-name")
    assert answer(store, "RESOLVE PHYSICS\r\n").startswith(b"ERR ")
    assert answer(store, "PING\n") == b"OK pong\n"


def test_malformed_identity_is_400(store):
    assert answer(store, "FETCH junk\n").startswith(b"ERR 400 malformed-identity")
    # Text joined to an identity, with no space between them.
    assert answer(store, "GET TopMap[1]x dch/hv\n") == b"ERR 400 malformed-identity\n"


def test_historical_trees_are_served(populated):
    store, tree, root = populated
    hv2 = make_leaf(store, "DchHV", "sector3", hv=1900.0)
    tree.set_object_alias("dch", "hv", hv2)
    commit_alias_tree(store, tree, ["PHYSICS"])
    # the superseded root still answers GET and FETCH
    response = answer(store, f"GET {format_identity(root)} dch/hv\n")
    assert b"DchHV:sector3[1]" in response
    assert answer(store, f"FETCH {format_identity(root)}\n").startswith(b"OK 6\n")


def test_every_answer_is_bytes(populated, monkeypatch):
    store, _, root = populated
    lines = [
        "PING\n",
        "RESOLVE PHYSICS\n",
        "RUNTYPES\n",
        f"GET {root} dch/hv\n",
        f"GET {root} /\n",
        f"FETCH {root}\n",
        "FROB x\n",  # unknown-verb
        "TOKEN\n",
        "PING x\n",  # trailing data after a verb
        "TOKEN x\n",
        f"FETCH {root} x\n",  # trailing data after an identity
        "RESOLVE\n",  # missing run type
        f"GET {root}\n",  # missing path
        "GET junk /\n",  # malformed-identity
        "RESOLVE CALIB\n",  # unknown-run-type
        f"GET {root} dch/nope\n",  # no-such-link
        "FETCH TopMap[7]\n",  # not-found
    ]
    cache = FrameCache(FRAME_CACHE_BYTES)
    for _ in range(2):  # a miss, then a hit for each kept frame
        for line in lines:
            assert type(handle_request(store, line, cache)) is bytes, line
    assert len(cache.entries) == 3

    def broken():
        raise RuntimeError("store handle went away")

    monkeypatch.setattr(store, "refresh", broken)
    assert handle_request(store, "PING\n", cache) == b"ERR 500 internal\n"


def test_requests_never_write(populated):
    store, _, root = populated
    size = store.log_size()
    for line in (
        "PING\n",
        "RESOLVE PHYSICS\n",
        "RESOLVE NOPE\n",
        f"GET {format_identity(root)} dch/hv\n",
        f"GET {format_identity(root)} bad/path\n",
        f"FETCH {format_identity(root)}\n",
        "RUNTYPES\n",
        "GARBAGE\n",
    ):
        answer(store, line)
    assert store.log_size() == size


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:7401") == ("127.0.0.1", 7401)
    assert parse_endpoint(":0") == ("127.0.0.1", 0)
    assert parse_endpoint("127.0.0.1:65535") == ("127.0.0.1", 65535)


@pytest.mark.parametrize(
    "text",
    ["nonsense", "h:", "h:-1", "h:70000", "h:\u0667\u0664\u0660\u0661"],
    ids=["no-colon", "no-port", "negative", "over-65535", "arabic-indic-digits"],
)
def test_parse_endpoint_refuses_all_but_a_decimal_port(text):
    with pytest.raises(ParseError, match="host:port"):
        parse_endpoint(text)


# -- live socket tests ----------------------------------------------------------


def _request_lines(sock_file, sock, line):
    sock.sendall(line.encode() + b"\n")
    return sock_file.readline().decode().rstrip("\n")


def test_server_persistent_connection(populated):
    store, _, root = populated
    server = start_server(store, "127.0.0.1:0")
    try:
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            reader = sock.makefile("rb")
            assert _request_lines(reader, sock, "PING") == "OK pong"
            assert _request_lines(reader, sock, "RESOLVE PHYSICS") == f"OK {format_identity(root)}"
            # a bad request does not drop the connection
            assert _request_lines(reader, sock, "NOPE").startswith("ERR 400")
            assert _request_lines(reader, sock, "PING") == "OK pong"
    finally:
        server.shutdown()
        server.server_close()


def test_manifest_is_an_unknown_verb_and_the_connection_still_fetches(populated):
    """The wire lists a tree only in a FETCH, which serves all of it."""
    store, _, root = populated
    server = start_server(store, "127.0.0.1:0")
    try:
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            reader = sock.makefile("rb")
            assert _request_lines(reader, sock, f"MANIFEST {root}") == "ERR 400 unknown-verb"
            assert server.cache.entries == {}
            fetch = f"FETCH {root}\n"
            sock.sendall(fetch.encode())
            expected = handle_request(store, fetch, FrameCache(FRAME_CACHE_BYTES))
            assert expected.startswith(b"OK 6\n")
            assert reader.read(len(expected)) == expected
            assert list(server.cache.entries) == [fetch]
            reader.close()
    finally:
        server.shutdown()
        server.server_close()


def test_two_answers_in_a_row_on_a_kept_connection_are_not_held_back(populated):
    """Nagle's algorithm is off: an answer that follows another not yet
    acknowledged leaves at once, rather than with the client's delayed ACK."""
    store, _, root = populated
    server = start_server(store, "127.0.0.1:0")
    try:
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            reader = sock.makefile("rb")
            assert _request_lines(reader, sock, "PING") == "OK pong"
            answers = []
            start = time.perf_counter()
            for _ in range(10):
                sock.sendall(b"RESOLVE PHYSICS\nTOKEN\n")
                answers += [reader.readline(), reader.readline()]
            elapsed = time.perf_counter() - start
            reader.close()
    finally:
        server.shutdown()
        server.server_close()
    resolved, token = f"OK {format_identity(root)}\n", f"OK {server.cache.token}\n"
    assert answers == [resolved.encode(), token.encode()] * 10
    assert elapsed < 0.2, elapsed


def test_a_stopped_server_answers_no_connection_opened_before(populated):
    store, _, root = populated
    server = start_server(store, "127.0.0.1:0")
    try:
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            reader = sock.makefile("rb")
            assert _request_lines(reader, sock, "RESOLVE PHYSICS") == f"OK {format_identity(root)}"
            server.shutdown()
            server.server_close()
            assert reader.readline() == b""
            reader.close()
    finally:
        server.shutdown()
        server.server_close()


def test_a_token_is_answered_before_any_catch_up_and_never_kept(populated, monkeypatch):
    store, _, _ = populated
    cache = FrameCache(FRAME_CACHE_BYTES)
    assert len(cache.token) == 32 and int(cache.token, 16) >= 0

    def unreachable():
        raise RuntimeError("the store was asked")

    monkeypatch.setattr(store, "refresh", unreachable)
    for _ in range(2):
        assert handle_request(store, "TOKEN\n", cache) == f"OK {cache.token}\n".encode()
    assert cache.entries == {} and cache.size == 0


def test_each_server_has_its_own_token_on_every_connection(populated):
    store, _, _ = populated
    servers = [start_server(store, "127.0.0.1:0") for _ in range(2)]
    try:
        tokens = []
        for server in servers:
            for _ in range(2):
                with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
                    reader = sock.makefile("rb")
                    tokens.append(_request_lines(reader, sock, "TOKEN"))
                    reader.close()
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
    assert tokens == [f"OK {server.cache.token}" for server in servers for _ in range(2)]
    assert servers[0].cache.token != servers[1].cache.token


def test_concurrent_clients_smoke(populated):
    store, _, root = populated
    server = start_server(store, "127.0.0.1:0")
    paths = [path for path, _ in walk_tree(store, root).entries]
    failures = []

    def client():
        try:
            with socket.create_connection(parse_endpoint(server.endpoint), timeout=10) as sock:
                reader = sock.makefile("rb")
                resolved = _request_lines(reader, sock, "RESOLVE PHYSICS")
                assert resolved == f"OK {format_identity(root)}"
                for path in paths:
                    sock.sendall(f"GET {format_identity(root)} {path or '/'}\n".encode())
                    status = reader.readline().decode()
                    assert status.startswith("OK ")
                    while reader.readline() != b".\n":
                        pass
        except Exception as exc:  # noqa: BLE001 - collected for the main thread
            failures.append(exc)

    threads = [threading.Thread(target=client) for _ in range(20)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    server.shutdown()
    server.server_close()
    assert failures == []


def test_internal_fault_is_logged_with_its_traceback(populated, monkeypatch, caplog):
    store, _, root = populated

    def broken(identity):
        raise RuntimeError("store handle went away")

    monkeypatch.setattr(store, "get_object", broken)
    with caplog.at_level(logging.ERROR, logger="confdb.service"):
        response = answer(store, f"GET {format_identity(root)} dch/hv\n")
    assert response == b"ERR 500 internal\n"
    [record] = [r for r in caplog.records if r.name == "confdb.service"]
    assert record.levelno == logging.ERROR
    assert record.exc_info[0] is RuntimeError
    assert "store handle went away" in caplog.text
    assert "Traceback" in caplog.text


@pytest.fixture
def handler_faults(monkeypatch):
    """Every ``ConfigServer.handle_error`` call, and every connection the server closed."""
    faults, closed = [], []
    shutdown_request = ConfigServer.shutdown_request

    def record_close(server, request):
        shutdown_request(server, request)
        closed.append(request)

    def record_fault(server, request, address):
        faults.append(address)

    monkeypatch.setattr(ConfigServer, "handle_error", record_fault)
    monkeypatch.setattr(ConfigServer, "shutdown_request", record_close)
    return faults, closed


def _wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_a_client_reset_mid_answer_ends_only_its_connection_quietly(populated, handler_faults):
    store, _, root = populated
    faults, closed = handler_faults
    server = start_server(store, "127.0.0.1:0")
    try:
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            # Linger 0: close sends a reset, not a FIN.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(f"FETCH {root}\n".encode() * 50)
        _wait_for(lambda: len(closed) == 1)
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            assert _request_lines(sock.makefile("rb"), sock, "PING") == "OK pong"
        assert faults == []
    finally:
        server.shutdown()
        server.server_close()


def test_any_other_handler_fault_still_reaches_handle_error(populated, handler_faults, monkeypatch):
    store, _, _ = populated
    faults, closed = handler_faults

    def broken(store, line, cache):
        raise RuntimeError("handler went away")

    monkeypatch.setattr(service, "handle_request", broken)
    server = start_server(store, "127.0.0.1:0")
    try:
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            sock.sendall(b"PING\n")
            assert sock.makefile("rb").readline() == b""  # the server closed it
        _wait_for(lambda: len(closed) == 1)
        assert len(faults) == 1
    finally:
        server.shutdown()
        server.server_close()


def test_a_request_line_that_is_not_utf8_is_refused_and_the_connection_kept(store):
    server = start_server(store, "127.0.0.1:0")
    try:
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"RESOLVE PHYS\xffICS\n")
            assert reader.readline() == b"ERR 400 malformed-request not utf-8\n"
            assert _request_lines(reader, sock, "PING") == "OK pong"
    finally:
        server.shutdown()
        server.server_close()


def test_over_long_request_line_is_refused_and_the_connection_kept(store):
    server = start_server(store, "127.0.0.1:0")
    try:
        with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"GET " + b"x" * (100 * 1024) + b" /\n")
            assert _request_lines(reader, sock, "PING") == "ERR 400 line-too-long"
            assert reader.readline() == b"OK pong\n"
            # The limit counts the LF: one byte over is refused, and only
            # that line is dropped.
            exact = b"NOPE" + b" " * (MAX_REQUEST_LINE - 5) + b"\n"
            sock.sendall(exact[:-1] + b" \n")
            assert _request_lines(reader, sock, "PING") == "ERR 400 line-too-long"
            assert reader.readline() == b"OK pong\n"
            sock.sendall(exact)
            assert reader.readline() == b"ERR 400 unknown-verb\n"
            assert _request_lines(reader, sock, "PING") == "OK pong"
    finally:
        server.shutdown()
        server.server_close()


# -- the frame cache ------------------------------------------------------------


def _lines(store, roots):
    """A FETCH and a GET of every path of the tree, for every root."""
    lines = []
    for root in roots:
        lines.append(f"FETCH {format_identity(root)}\n")
        for path, _ in walk_tree(store, root).entries:
            lines.append(f"GET {format_identity(root)} {path or '/'}\n")
    return lines


def test_cached_frames_are_byte_exact(store):
    tree, leaves = build_figure1(store)
    lines = _lines(store, commit_generations(store, tree, leaves))
    assert len(lines) == 4 + 6 + 6 + 8 + 8
    cache = BoundedCache(FRAME_CACHE_BYTES)
    for _ in range(2):  # a first call, then a hit
        for line in lines:
            assert handle_request(store, line, cache) == answer(store, line)
    assert set(cache.entries) == set(lines)
    assert all(frame.startswith(b"OK ") for frame in cache.entries.values())


def test_uncommitted_root_is_404_until_its_commit(tmp_path):
    server_side = open_store(tmp_path / "db", clock=lambda: 0)
    writer = open_store(tmp_path / "db", clock=lambda: 0)
    try:
        tree, _ = build_figure1(writer)
        root = commit_alias_tree(writer, tree, ["PHYSICS"])
        cache = BoundedCache(FRAME_CACHE_BYTES)
        assert handle_request(server_side, "RESOLVE PHYSICS\n", cache) == f"OK {root}\n".encode()
        # The next root the writer will commit: not there yet.
        get_next = "GET TopMap[2] dch/hv\n"
        fetch_next = "FETCH TopMap[2]\n"
        assert handle_request(server_side, get_next, cache) == b"ERR 404 not-found TopMap[2]\n"
        assert handle_request(server_side, fetch_next, cache).startswith(b"ERR 404")
        assert cache.entries == {}
        hv2 = make_leaf(writer, "DchHV", "sector3", hv=1900.0)
        tree.set_object_alias("dch", "hv", hv2)
        assert format_identity(commit_alias_tree(writer, tree, ["PHYSICS"])) == "TopMap[2]"
        # The same lines now answer OK through the other handle's catch-up.
        assert handle_request(server_side, get_next, cache).startswith(f"OK {hv2}\n".encode())
        assert handle_request(server_side, fetch_next, cache).startswith(b"OK 6\n")
        # RESOLVE and RUNTYPES follow the new activation; neither is kept.
        assert handle_request(server_side, "RESOLVE PHYSICS\n", cache) == b"OK TopMap[2]\n"
        assert handle_request(server_side, "RUNTYPES\n", cache) == b"OK 1\nPHYSICS\tTopMap[2]\n.\n"
        assert handle_request(server_side, "PING\n", cache) == b"OK pong\n"
        assert set(cache.entries) == {get_next, fetch_next}
    finally:
        writer.close()
        server_side.close()


def test_a_hit_never_reaches_the_store(populated, monkeypatch):
    store, _, root = populated
    cache = BoundedCache(FRAME_CACHE_BYTES)
    get, fetch = f"GET {root} dch/hv\n", f"FETCH {root}\n"
    first = {line: handle_request(store, line, cache) for line in (get, fetch)}

    def unreachable(*args):
        raise RuntimeError("the store was asked")

    monkeypatch.setattr(store, "get_object", unreachable)
    monkeypatch.setattr(store, "refresh", unreachable)
    for line in (get, fetch):
        assert handle_request(store, line, cache) == first[line]
    # A miss does reach the store, and is not kept.
    assert handle_request(store, f"GET {root} dch/fee\n", cache) == b"ERR 500 internal\n"
    assert set(cache.entries) == {get, fetch}


def test_a_hit_is_answered_beside_a_damaged_log(populated):
    store, _, root = populated
    cache = BoundedCache(FRAME_CACHE_BYTES)
    get = f"GET {root} dch/hv\n"
    frame = handle_request(store, get, cache)
    with open(store.directory + "/objects.log", "ab") as f:
        f.write(b"\x00" * 16)  # not a record: damage, not a torn tail
    assert handle_request(store, get, cache) == frame
    assert handle_request(store, f"GET {root} dch/fee\n", cache).startswith(b"ERR 500 corrupt-log")
    assert answer(store, get).startswith(b"ERR 500 corrupt-log")


def test_the_cache_stays_within_its_budget(store):
    tree, leaves = build_figure1(store)
    lines = _lines(store, commit_generations(store, tree, leaves))
    expected = {line: answer(store, line) for line in lines}
    budget = 2_000
    cache = BoundedCache(budget)
    emptied = 0
    for _ in range(3):
        for line in lines:
            before = len(cache.entries)
            assert handle_request(store, line, cache) == expected[line]
            emptied += len(cache.entries) < before
            assert cache.size == sum(
                sys.getsizeof(k) + sys.getsizeof(v) for k, v in cache.entries.items()
            )
            assert cache.size <= budget
    assert emptied > 0
    # A frame over the whole budget is never kept.
    fetch = [line for line in lines if line.startswith("FETCH")][-1]
    cache = BoundedCache(sys.getsizeof(expected[fetch]))
    assert handle_request(store, fetch, cache) == expected[fetch]
    assert cache.entries == {} and cache.size == 0


def test_threads_share_one_small_cache(store):
    tree, leaves = build_figure1(store)
    lines = _lines(store, commit_generations(store, tree, leaves))
    expected = {line: answer(store, line) for line in lines}
    cache = BoundedCache(3_000)
    wrong = []

    def reader(offset):
        for i in range(400):
            line = lines[(offset + 7 * i) % len(lines)]
            if handle_request(store, line, cache) != expected[line]:
                wrong.append(line)

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
    assert cache.size == sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in cache.entries.items())
    assert cache.size <= 3_000


def test_server_connections_share_one_cache(populated):
    store, _, root = populated
    server = start_server(store, "127.0.0.1:0")
    line = f"GET {format_identity(root)} dch/hv"
    try:
        frames = []
        for _ in range(2):
            with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
                reader = sock.makefile("rb")
                sock.sendall(line.encode() + b"\n")
                frames.append(b"".join(iter(reader.readline, b".\n")))
                assert _request_lines(reader, sock, "RESOLVE PHYSICS") == f"OK {root}"
        assert frames[0] == frames[1]
        assert frames[0] + b".\n" == answer(store, line + "\n")
        assert list(server.cache.entries) == [line + "\n"]
    finally:
        server.shutdown()
        server.server_close()


# -- GET and FETCH answer from record bytes -------------------------------------


def _decoded_entries(store, identity, segments=()):
    """``(path segments, identity, object)`` depth first, every object decoded."""
    obj = store.get_object(identity)
    yield segments, identity, obj
    if obj.kind == "map":
        for name, target in obj.payload.entries:
            yield from _decoded_entries(store, target, segments + (name,))


def _decoded_frames(store, roots) -> dict:
    """Each root's FETCH and GET lines, answered from a full decode plus encode_payload."""
    frames = {}
    for root in roots:
        entries = list(_decoded_entries(store, root))
        body = b""
        for path, identity, obj in entries:
            payload = encode_payload(obj.payload)
            body += f"{display_path(path)}\t{identity}\t{len(payload)}\n".encode() + payload
            status = f"OK {identity}\n".encode()
            frames[f"GET {root} {display_path(path)}\n"] = status + payload + b".\n"
        frames[f"FETCH {root}\n"] = f"OK {len(entries)}\n".encode() + body + b".\n"
    return frames


def _decoded_leaves(store) -> int:
    return sum(
        type(slot) is StoredObject and slot.kind != "map"
        for slots in store._index.values()
        for slot in slots
    )


def _assert_frames_match_a_full_decode(s, roots):
    """Every FETCH and GET frame of ``roots`` from the handle ``s`` equals a full decode."""
    with open_store(s.directory) as oracle:
        frames = _decoded_frames(oracle, roots)
    cache = BoundedCache(FRAME_CACHE_BYTES)
    for _ in range(2):  # a first call, then a hit
        for line, frame in frames.items():
            assert handle_request(s, line, cache) == frame, line
    assert _decoded_leaves(s) == 0  # answering kept no leaf
    return frames


def test_frames_equal_a_full_decode_on_figure1_generations(tmp_path):
    with open_store(tmp_path / "db", clock=lambda: 1_700_000_000) as writer:
        tree, leaves = build_figure1(writer)
        roots = commit_generations(writer, tree, leaves)
    with open_store(tmp_path / "db") as s:
        frames = _assert_frames_match_a_full_decode(s, roots)
    assert len(frames) == 4 + 6 + 6 + 8 + 8


def test_frames_equal_a_full_decode_after_a_catch_up(tmp_path):
    # The serving handle opens on figure 1's leaves alone and reaches every
    # generation through the catch-up inside handle_request.
    with open_store(tmp_path / "db", clock=lambda: 1_700_000_000) as writer:
        tree, leaves = build_figure1(writer)
        with open_store(tmp_path / "db") as s:
            roots = commit_generations(writer, tree, leaves)
            frames = _assert_frames_match_a_full_decode(s, roots)
    assert len(frames) == 4 + 6 + 6 + 8 + 8


def test_frames_equal_a_full_decode_on_a_benchmark_store(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import gen

    detector = gen.Detector(7)
    with open_store(tmp_path / "db", clock=lambda: gen.EPOCH) as writer:
        gen.build_store(writer, detector, 1)
    with open_store(tmp_path / "db") as s:
        frames = _assert_frames_match_a_full_decode(s, [detector.root, detector.cosmics_root])
    assert len(frames) == 2 * (1 + len(detector.map_paths) + len(detector.leaf_paths))


def test_a_get_through_a_leaf_decodes_no_leaf(tmp_path, monkeypatch):
    with open_store(tmp_path / "db", clock=lambda: 0) as writer:
        tree, _ = build_figure1(writer)
        root = format_identity(commit_alias_tree(writer, tree, ["PHYSICS"]))
    with open_store(tmp_path / "db") as s:
        assert answer(s, f"GET {root} dch/hv/x\n") == b"ERR 404 not-a-map dch/hv\n"
        assert answer(s, "GET DchHV:sector3[1] a\n") == (
            b"ERR 404 not-a-map DchHV:sector3[1]\n"
        )
        assert _decoded_leaves(s) == 0
        encodes = []
        encode = store_module.encode_payload
        monkeypatch.setattr(
            store_module, "encode_payload", lambda payload: encodes.append(payload) or encode(payload)
        )
        assert answer(s, f"GET {root} dch/hv\n") == (
            b"OK DchHV:sector3[1]\nkind=leaf\nhv=f:0x1.c2p+10\n.\n"
        )
        assert encodes == []


def _assert_the_non_canonical_leaf_is_never_served(s):
    # A FETCH of its tree answers the GET's own refusal, every time.
    cache = BoundedCache(FRAME_CACHE_BYTES)
    for _ in range(2):
        assert handle_request(s, "GET M[1] b\n", cache) == b"ERR 500 corrupt-log\n"
        assert handle_request(s, "FETCH M[1]\n", cache) == b"ERR 500 corrupt-log\n"
    assert cache.entries == {}
    assert answer(s, "GET M[1] c\n") == b"OK C[1]\nkind=leaf\nc=i:3\n.\n"
    assert answer(s, "GET M[1] /\n") == b"OK M[1]\nkind=map\nb=B[1]\nc=C[1]\n.\n"


def test_a_non_canonical_leaf_is_never_served(tmp_path):
    path = tmp_path / "db"
    path.mkdir()
    (path / "objects.log").write_bytes(NON_CANONICAL_LEAF_LOG)
    with open_store(path) as s:
        _assert_the_non_canonical_leaf_is_never_served(s)


def test_a_non_canonical_leaf_a_catch_up_adds_is_never_served(tmp_path):
    path = tmp_path / "db"
    with open_store(path, clock=lambda: 0) as s:
        make_leaf(s, "A", None, a=1)
        with open(path / "objects.log", "ab") as f:
            f.write(NON_CANONICAL_LEAF_LOG)
        # The catch-up applies the tail, so the server keeps answering.
        assert answer(s, "PING\n") == b"OK pong\n"
        assert answer(s, "GET M[1] c\n") == b"OK C[1]\nkind=leaf\nc=i:3\n.\n"
        _assert_the_non_canonical_leaf_is_never_served(s)
        assert answer(s, "PING\n") == b"OK pong\n"


def test_a_leaf_damaged_after_the_open_is_refused_on_every_get(tmp_path):
    path = tmp_path / "db"
    path.mkdir()
    leaf = log_transaction(("B[1]", b"kind=leaf\nb=i:2\n"))
    (path / "objects.log").write_bytes(leaf + log_transaction(("M[1]", b"kind=map\nb=B[1]\n")))
    with open_store(path) as s:
        assert answer(s, "GET M[1] b\n") == b"OK B[1]\nkind=leaf\nb=i:2\n.\n"
        # Still canonical, so only the CRC tells the damage.
        with open(path / "objects.log", "r+b") as f:
            f.seek(leaf.index(b"b=i:2") + 4)
            f.write(b"3")
        for _ in range(2):
            assert answer(s, "GET M[1] b\n") == b"ERR 500 corrupt-log\n"
            assert answer(s, "FETCH M[1]\n") == b"ERR 500 corrupt-log\n"
        assert answer(s, "GET M[1] /\n") == b"OK M[1]\nkind=map\nb=B[1]\n.\n"


def test_a_leaf_whose_length_runs_past_the_log_is_refused(tmp_path):
    path = tmp_path / "db"
    path.mkdir()
    leaf = log_transaction(("B[1]", b"kind=leaf\nb=i:2\n"))
    (path / "objects.log").write_bytes(leaf + log_transaction(("M[1]", b"kind=map\nb=B[1]\n")))
    with open_store(path) as s:
        # The 4-octet length after the record's magic and type, now 1 MiB.
        with open(path / "objects.log", "r+b") as f:
            f.seek(2)
            f.write((2**20).to_bytes(4, "big"))
        with pytest.raises(CorruptLogError, match="^record at offset 0 runs past the log$"):
            s.get_object(ObjectIdentity("B", None, 1))
        assert answer(s, "GET M[1] b\n") == b"ERR 500 corrupt-log\n"


def _socket_buffer_max() -> int:
    """The most a TCP send buffer may grow to here; 4 MiB where that cannot be read."""
    try:
        with open("/proc/sys/net/ipv4/tcp_wmem", encoding="ascii") as f:
            return int(f.read().split()[2])
    except (OSError, ValueError, IndexError):
        return 4 * 2**20


def test_a_client_that_stops_reading_ends_only_its_connection(
    populated, handler_faults, monkeypatch, caplog
):
    store, _, _ = populated
    faults, closed = handler_faults
    monkeypatch.setattr(service, "SEND_TIMEOUT_S", 0.2)
    # More than the server's send buffer and the client's receive buffer hold.
    big = b"OK 0\n" + b"x" * (2 * _socket_buffer_max()) + b"\n.\n"
    real = service.handle_request
    monkeypatch.setattr(
        service, "handle_request",
        lambda store, line, cache: big if line == "BIG\n" else real(store, line, cache),
    )
    server = start_server(store, "127.0.0.1:0")
    try:
        with caplog.at_level(logging.WARNING, logger="confdb.service"):
            with socket.socket() as stalled:
                stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                stalled.connect(parse_endpoint(server.endpoint))
                started = time.monotonic()
                stalled.sendall(b"BIG\n")  # and never read
                _wait_for(lambda: len(closed) == 1, timeout=10)
                assert time.monotonic() - started >= 0.2
                with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
                    assert _request_lines(sock.makefile("rb"), sock, "PING") == "OK pong"
        assert faults == []
        [record] = [r for r in caplog.records if r.name == "confdb.service"]
        assert record.levelno == logging.WARNING and "0.2 s" in record.getMessage()
    finally:
        server.shutdown()
        server.server_close()


def test_a_client_that_reads_too_slowly_ends_only_its_connection(
    populated, handler_faults, monkeypatch, caplog
):
    store, _, _ = populated
    faults, closed = handler_faults
    monkeypatch.setattr(service, "SEND_TIMEOUT_S", 0.3)
    # More than the server's send buffer and the client's receive buffer hold.
    big = b"OK 0\n" + b"x" * (2 * _socket_buffer_max()) + b"\n.\n"
    real = service.handle_request
    monkeypatch.setattr(
        service, "handle_request",
        lambda store, line, cache: big if line == "BIG\n" else real(store, line, cache),
    )
    server = start_server(store, "127.0.0.1:0")
    try:
        with caplog.at_level(logging.WARNING, logger="confdb.service"):
            with socket.socket() as slow:
                slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                slow.connect(parse_endpoint(server.endpoint))
                slow.settimeout(5)
                started = time.monotonic()
                slow.sendall(b"BIG\n")
                received = 0
                while not closed:  # 4 KB every 30 ms, about 130 KB/s
                    assert time.monotonic() - started < 5, "the slow reader was never closed"
                    chunk = slow.recv(4096)
                    assert chunk, "the answer ended"
                    received += len(chunk)
                    time.sleep(0.03)
                assert time.monotonic() - started >= 0.3
                assert 0 < received < len(big)
                with socket.create_connection(parse_endpoint(server.endpoint), timeout=5) as sock:
                    assert _request_lines(sock.makefile("rb"), sock, "PING") == "OK pong"
        assert faults == []
        [record] = [r for r in caplog.records if r.name == "confdb.service"]
        assert record.levelno == logging.WARNING and "0.3 s" in record.getMessage()
    finally:
        server.shutdown()
        server.server_close()


def test_an_idle_connection_ends_only_itself(populated, handler_faults, monkeypatch, caplog):
    store, _, _ = populated
    faults, closed = handler_faults
    monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.2)
    threads = {}
    setup = service._Handler.setup

    def record_thread(handler):
        threads[handler.client_address] = threading.current_thread()
        setup(handler)

    monkeypatch.setattr(service._Handler, "setup", record_thread)
    server = start_server(store, "127.0.0.1:0")
    endpoint = parse_endpoint(server.endpoint)
    try:
        with caplog.at_level(logging.INFO, logger="confdb.service"):
            with socket.create_connection(endpoint, timeout=5) as idle, \
                    socket.create_connection(endpoint, timeout=5) as busy:
                reader = busy.makefile("rb")
                started = time.monotonic()
                while time.monotonic() - started < 0.7:  # over three idle timeouts
                    assert _request_lines(reader, busy, "PING") == "OK pong"
                    time.sleep(0.1)
                assert idle.recv(1) == b""  # closed by the server
                _wait_for(lambda: len(closed) == 1)
                idle_thread = threads[idle.getsockname()]
                idle_thread.join(timeout=5)
                assert not idle_thread.is_alive()
                assert threads[busy.getsockname()].is_alive()
                assert _request_lines(reader, busy, "PING") == "OK pong"
                with socket.create_connection(endpoint, timeout=5) as other:
                    assert _request_lines(other.makefile("rb"), other, "PING") == "OK pong"
                reader.close()
        assert faults == []
        [record] = [r for r in caplog.records if r.name == "confdb.service"]
        # A kept client connection idles by design: its close is no warning.
        assert record.levelno == logging.INFO and "0.2 s" in record.getMessage()
    finally:
        server.shutdown()
        server.server_close()
