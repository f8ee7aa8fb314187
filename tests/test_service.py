"""Service tests: protocol frames, read-only guarantee, concurrent access."""

import logging
import socket
import threading

import pytest

from confdb.commitproc import commit_alias_tree
from confdb.model import format_identity
from confdb.service import MAX_REQUEST_LINE, handle_request, parse_endpoint, start_server
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
