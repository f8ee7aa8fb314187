"""Service tests: protocol frames, read-only guarantee, concurrent access."""

import logging
import socket
import sys
import threading

import pytest

from confdb.commitproc import commit_alias_tree
from confdb.model import format_identity
from confdb import service
from confdb.service import (
    MAX_REQUEST_LINE,
    FrameCache,
    handle_request,
    parse_endpoint,
    start_server,
)
from confdb.store import open_store
from confdb.tree import walk_tree
from helpers import build_figure1, make_leaf


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
    assert handle_request(store, "PING\n") == "OK pong\n"


def test_resolve(populated):
    store, _, root = populated
    assert handle_request(store, "RESOLVE PHYSICS\n") == f"OK {format_identity(root)}\n"


def test_resolve_unknown(populated):
    store, _, _ = populated
    assert handle_request(store, "RESOLVE CALIB\n") == "ERR 404 unknown-run-type CALIB\n"


def test_resolve_on_empty_store(store):
    assert handle_request(store, "RESOLVE PHYSICS\n") == "ERR 404 no-active-map\n"


def test_get_returns_identity_and_payload(populated):
    store, _, root = populated
    response = handle_request(store, f"GET {format_identity(root)} dch/hv\n")
    assert response == (
        "OK DchHV:sector3[1]\n"
        "kind=leaf\n"
        "hv=f:0x1.c2p+10\n"
        ".\n"
    )


def test_get_root_path(populated):
    store, _, root = populated
    response = handle_request(store, f"GET {format_identity(root)} /\n")
    assert response.startswith(f"OK {format_identity(root)}\nkind=map\n")
    assert response.endswith(".\n")


def test_get_missing_link_reports_prefix(populated):
    store, _, root = populated
    response = handle_request(store, f"GET {format_identity(root)} dch/nope\n")
    assert response == "ERR 404 no-such-link dch\n"


def test_get_requires_path(populated):
    store, _, root = populated
    assert handle_request(store, f"GET {format_identity(root)}\n").startswith("ERR 400")


def test_get_identity_with_spaces(store):
    leaf = make_leaf(store, "HV set", "s 1", v=1)
    with store.transaction() as txn:
        from confdb.model import Payload

        root = txn.create_object("Top Map", None, Payload.map({"the link": leaf}))
    response = handle_request(store, "GET Top Map[1] the link\n")
    assert response.startswith("OK HV set:s 1[1]\n")


def test_manifest_frame(populated):
    store, _, root = populated
    response = handle_request(store, f"MANIFEST {format_identity(root)}\n")
    lines = response.splitlines()
    assert lines[0] == "OK 6"
    assert lines[1] == f"/\t{format_identity(root)}"
    assert lines[-1] == "."
    assert len(lines) == 8  # status + 6 entries + dot


def test_runtypes_frame(populated):
    store, _, root = populated
    response = handle_request(store, "RUNTYPES\n")
    assert response == f"OK 1\nPHYSICS\t{format_identity(root)}\n.\n"


def test_runtypes_empty(store):
    assert handle_request(store, "RUNTYPES\n") == "OK 0\n.\n"


def test_unknown_verb(store):
    assert handle_request(store, "FROB x\n") == "ERR 400 unknown-verb\n"


def test_malformed_identity_is_400(store):
    assert handle_request(store, "MANIFEST junk\n").startswith("ERR 400 malformed-identity")


def test_manifest_of_absent_identity_is_404(store):
    assert handle_request(store, "MANIFEST TopMap[7]\n").startswith("ERR 404 not-found")


def test_historical_trees_are_served(populated):
    store, tree, root = populated
    hv2 = make_leaf(store, "DchHV", "sector3", hv=1900.0)
    tree.set_object_alias("dch", "hv", hv2)
    commit_alias_tree(store, tree, ["PHYSICS"])
    # the superseded root still answers GET and MANIFEST
    response = handle_request(store, f"GET {format_identity(root)} dch/hv\n")
    assert "DchHV:sector3[1]" in response
    assert handle_request(store, f"MANIFEST {format_identity(root)}\n").startswith("OK 6\n")


def test_requests_never_write(populated):
    store, _, root = populated
    size = store.log_size()
    for line in (
        "PING\n",
        "RESOLVE PHYSICS\n",
        "RESOLVE NOPE\n",
        f"GET {format_identity(root)} dch/hv\n",
        f"GET {format_identity(root)} bad/path\n",
        f"MANIFEST {format_identity(root)}\n",
        "RUNTYPES\n",
        "GARBAGE\n",
    ):
        handle_request(store, line)
    assert store.log_size() == size


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:7401") == ("127.0.0.1", 7401)
    assert parse_endpoint(":0") == ("127.0.0.1", 0)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")


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
        response = handle_request(store, f"GET {format_identity(root)} dch/hv\n")
    assert response == "ERR 500 internal\n"
    [record] = [r for r in caplog.records if r.name == "confdb.service"]
    assert record.levelno == logging.ERROR
    assert record.exc_info[0] is RuntimeError
    assert "store handle went away" in caplog.text
    assert "Traceback" in caplog.text


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


def _generations(store, tree, leaves):
    """Commit three more generations of figure 1; returns every root, oldest first."""
    roots = [commit_alias_tree(store, tree, ["PHYSICS"])]
    tree.set_object_alias("dch", "hv", make_leaf(store, "DchHV", "sector3", hv=1900.0))
    roots.append(commit_alias_tree(store, tree, ["PHYSICS"]))
    tree.add_map_alias("emc", "crate 2")
    tree.set_object_alias("emc/crate 2", "fee", make_leaf(store, "EmcFee", "crate 2", gain=2))
    roots.append(commit_alias_tree(store, tree, ["PHYSICS", "COSMICS"]))
    tree.set_object_alias("dch", "fee", leaves["emc"])
    roots.append(commit_alias_tree(store, tree, ["COSMICS"]))
    return roots


def _lines(store, roots):
    """A MANIFEST and a GET of every manifest path, for every root."""
    lines = []
    for root in roots:
        lines.append(f"MANIFEST {format_identity(root)}\n")
        for path, _ in walk_tree(store, root).entries:
            lines.append(f"GET {format_identity(root)} {path or '/'}\n")
    return lines


def test_cached_frames_are_byte_exact(store):
    tree, leaves = build_figure1(store)
    lines = _lines(store, _generations(store, tree, leaves))
    assert len(lines) == 4 + 6 + 6 + 8 + 8
    cache = FrameCache()
    for _ in range(2):  # a first call, then a hit
        for line in lines:
            assert handle_request(store, line, cache) == handle_request(store, line)
    assert set(cache.frames) == set(lines)
    assert all(frame.startswith("OK ") for frame in cache.frames.values())


def test_uncommitted_root_is_404_until_its_commit(tmp_path):
    server_side = open_store(tmp_path / "db", clock=lambda: 0)
    writer = open_store(tmp_path / "db", clock=lambda: 0)
    try:
        tree, _ = build_figure1(writer)
        root = commit_alias_tree(writer, tree, ["PHYSICS"])
        cache = FrameCache()
        assert handle_request(server_side, "RESOLVE PHYSICS\n", cache) == f"OK {root}\n"
        # The next root the writer will commit: not there yet.
        get_next = "GET TopMap[2] dch/hv\n"
        manifest_next = "MANIFEST TopMap[2]\n"
        assert handle_request(server_side, get_next, cache) == "ERR 404 not-found TopMap[2]\n"
        assert handle_request(server_side, manifest_next, cache).startswith("ERR 404")
        assert cache.frames == {}
        hv2 = make_leaf(writer, "DchHV", "sector3", hv=1900.0)
        tree.set_object_alias("dch", "hv", hv2)
        assert format_identity(commit_alias_tree(writer, tree, ["PHYSICS"])) == "TopMap[2]"
        # The same lines now answer OK through the other handle's catch-up.
        assert handle_request(server_side, get_next, cache).startswith(f"OK {hv2}\n")
        assert handle_request(server_side, manifest_next, cache).startswith("OK 6\n")
        # RESOLVE and RUNTYPES follow the new activation; neither is kept.
        assert handle_request(server_side, "RESOLVE PHYSICS\n", cache) == "OK TopMap[2]\n"
        assert handle_request(server_side, "RUNTYPES\n", cache) == "OK 1\nPHYSICS\tTopMap[2]\n.\n"
        assert handle_request(server_side, "PING\n", cache) == "OK pong\n"
        assert set(cache.frames) == {get_next, manifest_next}
    finally:
        writer.close()
        server_side.close()


def test_a_hit_never_reaches_the_store(populated, monkeypatch):
    store, _, root = populated
    cache = FrameCache()
    get, manifest = f"GET {root} dch/hv\n", f"MANIFEST {root}\n"
    first = {line: handle_request(store, line, cache) for line in (get, manifest)}

    def unreachable(*args):
        raise RuntimeError("the store was asked")

    monkeypatch.setattr(store, "get_object", unreachable)
    monkeypatch.setattr(store, "refresh", unreachable)
    for line in (get, manifest):
        assert handle_request(store, line, cache) == first[line]
    # A miss does reach the store, and is not kept.
    assert handle_request(store, f"GET {root} dch/fee\n", cache) == "ERR 500 internal\n"
    assert set(cache.frames) == {get, manifest}


def test_a_hit_is_answered_beside_a_damaged_log(populated):
    store, _, root = populated
    cache = FrameCache()
    get = f"GET {root} dch/hv\n"
    frame = handle_request(store, get, cache)
    with open(store.directory + "/objects.log", "ab") as f:
        f.write(b"\x00" * 16)  # not a record: damage, not a torn tail
    assert handle_request(store, get, cache) == frame
    assert handle_request(store, f"GET {root} dch/fee\n", cache).startswith("ERR 500 corrupt-log")
    assert handle_request(store, get).startswith("ERR 500 corrupt-log")


def test_the_cache_stays_within_its_budget(store, monkeypatch):
    tree, leaves = build_figure1(store)
    lines = _lines(store, _generations(store, tree, leaves))
    expected = {line: handle_request(store, line) for line in lines}
    budget = 2_000
    monkeypatch.setattr(service, "FRAME_CACHE_BYTES", budget)
    cache = FrameCache()
    emptied = 0
    for _ in range(3):
        for line in lines:
            before = len(cache.frames)
            assert handle_request(store, line, cache) == expected[line]
            emptied += len(cache.frames) < before
            assert cache.size == sum(
                sys.getsizeof(k) + sys.getsizeof(v) for k, v in cache.frames.items()
            )
            assert cache.size <= budget
    assert emptied > 0
    # A frame over the whole budget is never kept.
    manifest = [line for line in lines if line.startswith("MANIFEST")][-1]
    monkeypatch.setattr(service, "FRAME_CACHE_BYTES", sys.getsizeof(expected[manifest]))
    cache = FrameCache()
    assert handle_request(store, manifest, cache) == expected[manifest]
    assert cache.frames == {} and cache.size == 0


def test_threads_share_one_small_cache(store, monkeypatch):
    tree, leaves = build_figure1(store)
    lines = _lines(store, _generations(store, tree, leaves))
    expected = {line: handle_request(store, line) for line in lines}
    monkeypatch.setattr(service, "FRAME_CACHE_BYTES", 3_000)
    cache = FrameCache()
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
    assert cache.size == sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in cache.frames.items())
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
        assert frames[0].decode() + ".\n" == handle_request(store, line + "\n")
        assert list(server.cache.frames) == [line + "\n"]
    finally:
        server.shutdown()
        server.server_close()
