"""FETCH: a handle lists and reads its tree from one frame.

``fetch_manifest`` must return exactly the server's MANIFEST lines, and
a handle must then answer exactly what per-path GETs answer.  A
transition sends RESOLVE and FETCH and nothing more; a FETCH answered
with ERR raises its own error and leaves the handle to GET each path;
a malformed frame is refused without keeping any of it.  A frame the
client keeps is received by comparing it with the kept bytes, and reads
exactly as the terminator search reads it.
"""

import os
import socket
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdb import client, service
from confdb.client import TreeHandle, configure_run, fetch_manifest, fetch_raw
from confdb.commitproc import commit_alias_tree
from confdb.errors import (
    ConfdbError,
    ConnectionFailureError,
    CorruptLogError,
    MalformedPayloadError,
)
from confdb.model import (
    ObjectIdentity,
    Payload,
    decode_payload,
    encode_payload,
    format_identity,
    parse_identity,
)
from confdb.service import BoundedCache, handle_request, start_server
from confdb.store import RUNTYPES_CLASS, open_store
from confdb.tree import walk_tree
from helpers import NON_CANONICAL_LEAF_LOG, answer, build_figure1, commit_generations

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def memo(monkeypatch):
    """An empty GET memo for one test."""
    memo = BoundedCache(client.GET_MEMO_BYTES)
    monkeypatch.setattr(client, "GET_MEMO", memo)
    return memo


@pytest.fixture
def verbs(monkeypatch):
    """The verb of every request line the server's request handler answers."""
    seen = []
    handle = service.handle_request

    def counted(store, line, cache):
        seen.append(line.split(" ", 1)[0].strip())
        return handle(store, line, cache)

    monkeypatch.setattr(service, "handle_request", counted)
    return seen


def _serve(store):
    server = start_server(store, "127.0.0.1:0")
    return server, server.endpoint


def _stop(server):
    server.shutdown()
    server.server_close()


def _handle(endpoint, root):
    """A handle pinned to ``root``, which need not be active."""
    return TreeHandle(endpoint, root, client._Connection(endpoint))


def _activated_roots(store) -> list:
    """Every root any run-type map version ever bound, oldest first, once each."""
    roots = {}
    for key in store.list_versions(RUNTYPES_CLASS):
        bindings = store.get_object(ObjectIdentity(RUNTYPES_CLASS, None, key)).payload.bindings
        roots.update(dict.fromkeys(bindings.values()))
    return list(roots)


def _frame_entries(frame: bytes) -> list:
    """``(path, identity text, payload bytes)`` of each entry of a FETCH ``OK`` frame."""
    status, _, body = frame.partition(b"\n")
    assert status.startswith(b"OK ") and body.endswith(b".\n")
    entries, at = [], 0
    for _ in range(int(status[3:])):
        eol = body.index(b"\n", at)
        path, identity, length = body[at:eol].decode().split("\t")
        at = eol + 1 + int(length)
        entries.append((path, identity, body[eol + 1 : at]))
    assert body[at:] == b".\n"
    return entries


def _assert_same_answers(store, roots):
    """Listed and unlisted handles agree on every path of every root, and so do the frames."""
    server, endpoint = _serve(store)
    try:
        for root in roots:
            manifest = answer(store, f"MANIFEST {root}\n")
            lines = manifest.decode().split("\n")[1:-2]
            fetched = answer(store, f"FETCH {root}\n")
            entries = _frame_entries(fetched)
            assert [f"{path}\t{identity}" for path, identity, _ in entries] == lines
            for path, identity, payload in entries:
                get = answer(store, f"GET {root} {path}\n")
                assert f"OK {identity}\n".encode() + payload + b".\n" == get
            with _handle(endpoint, root) as listed, _handle(endpoint, root) as unlisted:
                assert fetch_manifest(listed) == lines
                for path, _, payload in entries:
                    got = fetch_raw(listed, path)
                    assert got == fetch_raw(unlisted, path)
                    assert format_identity(got[0]) == dict(line.split("\t") for line in lines)[path]
                    assert encode_payload(got[1]) == payload
                assert listed._answers.keys() == {path for path, _, _ in entries}
                assert fetch_manifest(listed) == lines
    finally:
        _stop(server)


def test_a_listed_handle_answers_as_gets_do_on_figure1_generations(tmp_path, memo):
    with open_store(tmp_path / "db", clock=lambda: 0) as store:
        tree, leaves = build_figure1(store)
        roots = commit_generations(store, tree, leaves)
        assert len(roots) == 4
        _assert_same_answers(store, roots)


def test_a_listed_handle_answers_as_gets_do_on_a_benchmark_store(tmp_path, memo, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import gen

    detector = gen.Detector(7)
    with open_store(tmp_path / "db", clock=lambda: gen.EPOCH) as store:
        gen.build_store(store, detector, 2)
        roots = _activated_roots(store)
        assert len(roots) == 4 and detector.cosmics_root in roots
        _assert_same_answers(store, roots)


# -- the wire -------------------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    store = open_store(tmp_path / "db", clock=lambda: 0)
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    yield store, root
    store.close()


def test_a_listed_transition_is_two_requests(served, verbs, memo):
    store, root = served
    server, endpoint = _serve(store)
    try:
        paths = [path or "/" for path, _ in walk_tree(store, root).entries]
        with configure_run(endpoint, "PHYSICS") as handle:
            assert len(fetch_manifest(handle)) == len(paths) == 6
            for _ in range(2):
                for path in paths:
                    fetch_raw(handle, path)
            fetch_raw(handle, "")  # the root, spelt as the empty path
        assert verbs == ["RESOLVE", "FETCH"]
        # Each handle sends its own FETCH, once; the server answers the
        # second from its frame cache.
        with configure_run(endpoint, "PHYSICS") as handle:
            fetch_manifest(handle)
            fetch_raw(handle, "dch/hv")
            fetch_raw(handle, "dch/fee")
        assert verbs == ["RESOLVE", "FETCH"] * 2
        assert type(server.cache.entries[f"FETCH {root}\n"]) is bytes
    finally:
        _stop(server)


def test_unlisted_paths_and_handles_still_get(served, verbs, memo):
    store, root = served
    server, endpoint = _serve(store)
    try:
        with configure_run(endpoint, "PHYSICS") as handle:
            fetch_raw(handle, "dch/hv")  # never listed: a GET
            fetch_manifest(handle)
            fetch_raw(handle, "dch/hv")  # listed: from the handle's FETCH
            for path in ("dch/", "/dch/hv", "dch/nope"):  # spelt otherwise or absent: GETs
                with pytest.raises(ConfdbError):
                    fetch_raw(handle, path)
            fetch_raw(handle, "emc/hv")
        assert verbs == ["RESOLVE", "GET", "FETCH", "GET", "GET", "GET"]
    finally:
        _stop(server)


def test_a_tree_with_a_non_canonical_leaf_refuses_its_fetch(tmp_path, verbs, memo, tree_memo):
    path = tmp_path / "db"
    path.mkdir()
    (path / "objects.log").write_bytes(NON_CANONICAL_LEAF_LOG)
    root = parse_identity("M[1]")
    with open_store(path) as store:
        assert answer(store, "FETCH M[1]\n") == b"ERR 500 corrupt-log\n"
        server, endpoint = _serve(store)
        try:
            verbs.clear()
            with _handle(endpoint, root) as listed, _handle(endpoint, root) as unlisted:
                # The FETCH is refused with the leaf's own error; nothing is kept.
                with pytest.raises(CorruptLogError):
                    fetch_manifest(listed)
                assert listed._answers == {}
                assert tree_memo.entries == {}
                for handle in (listed, unlisted):
                    assert fetch_raw(handle, "c") == _raw(b"kind=leaf\nc=i:3\n", "C[1]")
                    with pytest.raises(CorruptLogError):
                        fetch_raw(handle, "b")
                    assert fetch_raw(handle, "/")[0] == root
            assert verbs == ["FETCH"] + ["GET"] * 6
            assert f"FETCH {root}\n" not in server.cache.entries
        finally:
            _stop(server)


# -- a scripted server ----------------------------------------------------------


@pytest.fixture
def scripted():
    """One connection, each request line answered by the next frame; the lines it read."""
    listener = socket.create_server(("127.0.0.1", 0))
    received, threads = [], []

    def start(*frames):
        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                for frame in frames:
                    line = reader.readline()
                    if not line:
                        return
                    received.append(line.decode().rstrip("\n"))
                    conn.sendall(frame)
                # Wait for the client's close, so none of its requests meets a reset.
                reader.read()

        threads.append(threading.Thread(target=serve, daemon=True))
        threads[0].start()
        host, port = listener.getsockname()
        return f"{host}:{port}", received

    yield start
    listener.close()
    for t in threads:
        t.join(timeout=10)


_ROOT = b"kind=map\na=Leaf[1]\n"
_A = b"kind=leaf\na=i:1\n"
_GET_A = b"OK Leaf[1]\n" + _A + b".\n"


def _entry(path, identity, payload, length=None):
    length = len(payload) if length is None else length
    return f"{path}\t{identity}\t{length}\n".encode() + payload


def _fetch_frame(*entries, count=None, tail=b""):
    count = len(entries) if count is None else count
    return f"OK {count}\n".encode() + b"".join(entries) + tail + b".\n"


def _raw(payload, identity="Leaf[1]"):
    return parse_identity(identity), decode_payload(payload)


def test_a_server_without_fetch_refuses_the_listing_and_answers_gets(scripted, memo):
    endpoint, received = scripted(
        b"OK TopMap[1]\n", b"ERR 400 unknown-verb\n", _GET_A,
        b"OK TopMap[1]\n" + _ROOT + b".\n",
    )
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(ConfdbError, match="unknown-verb"):
            fetch_manifest(handle)
        assert handle._answers == {}
        assert fetch_raw(handle, "a") == _raw(_A)
        assert fetch_raw(handle, "/") == _raw(_ROOT, "TopMap[1]")
    assert received == ["RESOLVE PHYSICS", "FETCH TopMap[1]",
                        "GET TopMap[1] a", "GET TopMap[1] /"]


def test_a_well_formed_frame_answers_every_listed_path(scripted, memo):
    frame = _fetch_frame(_entry("/", "TopMap[1]", _ROOT), _entry("a", "Leaf[1]", _A))
    endpoint, received = scripted(b"OK TopMap[1]\n", frame)
    with configure_run(endpoint, "PHYSICS") as handle:
        assert fetch_manifest(handle) == ["/\tTopMap[1]", "a\tLeaf[1]"]
        for _ in range(2):
            assert fetch_raw(handle, "a") == _raw(_A)
            assert fetch_raw(handle, "") == _raw(_ROOT, "TopMap[1]")
    assert received == ["RESOLVE PHYSICS", "FETCH TopMap[1]"]
    # Kept under the keys GET answers have.
    assert set(memo.entries) == {("Leaf[1]", _A), ("TopMap[1]", _ROOT)}


def test_a_frame_decodes_each_answer_once(scripted, monkeypatch, tree_memo, checks):
    # A GET memo that keeps nothing, as when a frame's own puts empty it.
    monkeypatch.setattr(client, "GET_MEMO", BoundedCache(64))
    root = b"kind=map\na=Leaf[1]\nb=Leaf[1]\n"
    frame = _fetch_frame(
        _entry("/", "TopMap[1]", root), _entry("a", "Leaf[1]", _A), _entry("b", "Leaf[1]", _A)
    )
    endpoint, _ = scripted(b"OK TopMap[1]\n", frame)
    with configure_run(endpoint, "PHYSICS") as handle:
        assert fetch_manifest(handle) == ["/\tTopMap[1]", "a\tLeaf[1]", "b\tLeaf[1]"]
        assert fetch_raw(handle, "a") is fetch_raw(handle, "b")
        assert fetch_raw(handle, "b") == _raw(_A)
        assert fetch_raw(handle, "/") == _raw(root, "TopMap[1]")
    assert checks == ["_frame_answers", "decode_payload", "decode_payload"]


_GOOD_ROOT = _entry("/", "TopMap[1]", _ROOT)

MALFORMED = {
    "letters-for-length": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A, "x")),
    "leading-zero": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A, f"0{len(_A)}")),
    "plus-sign": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A, f"+{len(_A)}")),
    "space": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A, f" {len(_A)}")),
    "underscore": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A, "1_6")),
    "negative": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", b"", "-1")),
    "arabic-indic-digits": _fetch_frame(
        _GOOD_ROOT, _entry("a", "Leaf[1]", _A, "".join(chr(0x660 + int(d)) for d in str(len(_A))))),
    "two-fields": _fetch_frame(_GOOD_ROOT, b"a\tLeaf[1]\n" + _A),
    "four-fields": _fetch_frame(_GOOD_ROOT, _entry("a\tx", "Leaf[1]", _A)),
    "trailing-bytes": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A), tail=b"junk\n"),
    "repeated-path": _fetch_frame(_entry("a", "Leaf[1]", _A), _entry("a", "Leaf[1]", _A)),
    "count-under": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A), count=1),
    "count-negative": _fetch_frame(count=-1),
    "count-leading-zero": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A), count="02"),
    "not-utf8-path": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A).replace(b"a", b"\xff", 1)),
    "malformed-identity": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[01]", _A)),
    "empty-path": _fetch_frame(_GOOD_ROOT, _entry("", "Leaf[1]", _A)),
    "leading-slash": _fetch_frame(_GOOD_ROOT, _entry("/a", "Leaf[1]", _A)),
    "trailing-slash": _fetch_frame(_GOOD_ROOT, _entry("a/", "Leaf[1]", _A)),
    "empty-segment": _fetch_frame(_GOOD_ROOT, _entry("a//b", "Leaf[1]", _A)),
    "reserved-char": _fetch_frame(_GOOD_ROOT, _entry("a=b", "Leaf[1]", _A)),
}


@pytest.mark.parametrize("frame", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_frame_is_refused_and_nothing_kept(scripted, memo, tree_memo, frame):
    endpoint, received = scripted(b"OK TopMap[1]\n", frame, _GET_A)
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(ConfdbError) as refused:
            fetch_manifest(handle)
        assert not isinstance(refused.value, ConnectionFailureError)
        assert memo.entries == {} and memo.size == 0
        assert tree_memo.entries == {} and tree_memo.size == 0
        assert handle._answers == {}
        # The connection is still in step, and the handle GETs from now on.
        assert fetch_raw(handle, "a") == _raw(_A)
    assert received[1:] == ["FETCH TopMap[1]", "GET TopMap[1] a"]


def test_a_non_canonical_payload_raises_as_a_get_would(scripted, memo):
    bad = b"kind=leaf\na=i:01\n"
    endpoint, _ = scripted(
        b"OK TopMap[1]\n", _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", bad)),
    )
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(MalformedPayloadError):
            fetch_manifest(handle)
    assert memo.entries == {}


CUT_SHORT = {
    "inside-a-payload": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A, len(_A) + 5)),
    "before-an-entry": _fetch_frame(_GOOD_ROOT, count=2),
    # With no listing to hold it against, a count above the entries is
    # the same cut: the body ends where an entry should begin.
    "count-over": _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A), count=3),
}


@pytest.mark.parametrize("frame", CUT_SHORT.values(), ids=CUT_SHORT.keys())
def test_entries_past_the_terminator_give_the_connection_up(scripted, memo, tree_memo, frame):
    endpoint, received = scripted(b"OK TopMap[1]\n", frame, _GET_A)
    with configure_run(endpoint, "PHYSICS") as handle:
        with pytest.raises(ConnectionFailureError, match="cut short"):
            fetch_manifest(handle)
        assert memo.entries == {} and tree_memo.entries == {}
        with pytest.raises(ConnectionFailureError):
            fetch_raw(handle, "a")
    assert received[1:] == ["FETCH TopMap[1]"]


# -- the frame parser, by property ---------------------------------------------

_NAMES = st.text(alphabet=st.sampled_from("abz09_.- éß星"), min_size=1, max_size=5)
_IDENTITIES = st.builds(
    ObjectIdentity,
    class_name=_NAMES,
    secondary_key=st.one_of(st.none(), _NAMES),
    config_key=st.integers(min_value=1, max_value=10**6),
)
_VALUES = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.text(alphabet=st.sampled_from('a."\\\n\t'), max_size=4),
)
_PAYLOADS = st.one_of(
    st.dictionaries(_NAMES, _VALUES, max_size=3).map(Payload.leaf),
    st.dictionaries(_NAMES, _IDENTITIES, max_size=3).map(Payload.map),
)
# (path, identity, payload); "/" is the root's path, as a FETCH spells it.
_FRAME_ENTRIES = st.lists(
    st.tuples(
        st.one_of(st.just("/"), st.lists(_NAMES, min_size=1, max_size=3).map("/".join)),
        _IDENTITIES,
        _PAYLOADS,
    ),
    max_size=5,
    unique_by=lambda entry: entry[0],
)


def _framed(entries, lengths=None) -> bytes:
    """The body of a FETCH frame of ``entries``, each with its own length unless given."""
    lengths = lengths or [None] * len(entries)
    return b"".join(
        _entry(path, format_identity(identity), encode_payload(payload), length)
        for (path, identity, payload), length in zip(entries, lengths)
    )


@settings(max_examples=40, deadline=None)
@given(_FRAME_ENTRIES, st.data())
def test_the_frame_parser_reads_what_was_framed_and_refuses_any_change(entries, data):
    count, body = str(len(entries)), _framed(entries)
    refused = [(str(len(entries) + 1), body), (str(len(entries) - 1), body), (count, body + b"x")]
    if entries:
        at = data.draw(st.integers(0, len(entries) - 1), label="changed entry")
        lengths = [None] * len(entries)
        lengths[at] = len(encode_payload(entries[at][2])) + data.draw(st.sampled_from([-1, 1]))
        refused.append((count, _framed(entries, lengths)))
        repeated = entries + [entries[at]]
        refused.append((str(len(repeated)), _framed(repeated)))
    # A refusal keeps nothing; only the accepted frame fills the memo.
    with mock.patch.object(client, "GET_MEMO", BoundedCache(client.GET_MEMO_BYTES)) as memo:
        for frame in refused:
            with pytest.raises(ConfdbError):
                client._frame_answers(*frame)
            assert memo.entries == {} and memo.size == 0
        lines, answers = client._frame_answers(count, body)
        assert lines == tuple(f"{path}\t{identity}" for path, identity, _ in entries)
        assert answers == {path: (identity, payload) for path, identity, payload in entries}
        assert len(memo.entries) == len({(str(i), encode_payload(p)) for _, i, p in entries})


# -- the server's side ----------------------------------------------------------


def test_fetch_refuses_what_manifest_refuses(served):
    store, root = served
    for arg in (f"{root} x", f"{root} ", "junk", "TopMap[7]", "DchHV:sector3[1]"):
        refused = answer(store, f"FETCH {arg}\n")
        assert refused.startswith(b"ERR ") and refused == answer(store, f"MANIFEST {arg}\n")


def test_a_fetch_frame_is_kept_as_bytes_and_answered_from_the_cache(served, monkeypatch):
    store, root = served
    cache = BoundedCache(service.FRAME_CACHE_BYTES)
    line = f"FETCH {root}\n"
    frame = handle_request(store, line, cache)
    assert type(frame) is bytes and frame == answer(store, line)
    assert cache.entries == {line: frame}
    assert cache.size == sys.getsizeof(line) + sys.getsizeof(frame)

    def unreachable(*args):
        raise RuntimeError("the store was asked")

    monkeypatch.setattr(store, "refresh", unreachable)
    assert handle_request(store, line, cache) is frame


# -- the tree memo --------------------------------------------------------------


@pytest.fixture
def tree_memo(monkeypatch):
    """An empty tree memo for one test."""
    memo = BoundedCache(client.GET_MEMO_BYTES)
    monkeypatch.setattr(client, "TREE_MEMO", memo)
    return memo


@pytest.fixture
def checks(monkeypatch):
    """The client's ``decode_payload`` and ``_frame_answers`` calls, by name."""
    calls = []
    for name in ("decode_payload", "_frame_answers"):
        real = getattr(client, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(client, name, counted)
    return calls


def _tree_memo_size(memo) -> int:
    return sum(sys.getsizeof(body) for _, body, _, _ in memo.entries.values())


def _decoded_frame(store, root) -> dict:
    """Each path of a FETCH of ``root``, parsed and decoded here, without the client."""
    frame = answer(store, f"FETCH {root}\n")
    return {path: (parse_identity(identity), decode_payload(payload))
            for path, identity, payload in _frame_entries(frame)}


def _transition(handle) -> dict:
    """``fetch_manifest``, then ``fetch_raw`` of every listed path."""
    paths = [line.split("\t")[0] for line in fetch_manifest(handle)]
    return {path: fetch_raw(handle, path) for path in paths}


def test_a_repeated_transition_decodes_and_checks_nothing(
    served, verbs, memo, tree_memo, checks
):
    store, root = served
    server, endpoint = _serve(store)
    try:
        with configure_run(endpoint, "PHYSICS") as first:
            got = _transition(first)
        assert got == _decoded_frame(store, root)
        assert checks.count("_frame_answers") == 1 and "decode_payload" in checks
        checks.clear()
        with configure_run(endpoint, "PHYSICS") as again:
            repeated = _transition(again)
        assert checks == []
        assert verbs == ["RESOLVE", "FETCH"] * 2
        assert repeated.keys() == got.keys()
        assert all(repeated[path] is got[path] for path in got)
        assert again._answers is first._answers
        assert len(tree_memo.entries) == 1
    finally:
        _stop(server)


def test_a_repeated_frame_is_compared_and_never_searched(served, memo, tree_memo, monkeypatch):
    store, root = served
    searches = []
    real = client._Connection._find

    def find(self, buf, sep, start):
        searches.append(sep)
        return real(self, buf, sep, start)

    monkeypatch.setattr(client._Connection, "_find", find)
    server, endpoint = _serve(store)
    try:
        with configure_run(endpoint, "PHYSICS") as first:
            got = _transition(first)
        assert searches.count(b"\n.\n") == 1
        searches.clear()
        with configure_run(endpoint, "PHYSICS") as again:
            assert _transition(again) == got
        assert searches == [b"\n", b"\n"] and again._connection._buf == b""
        assert list(tree_memo.entries) == [f"FETCH {root}"]
    finally:
        _stop(server)


def test_two_stores_that_share_a_root_identity_each_answer_their_own_tree(
    tmp_path, memo, tree_memo, checks
):
    """One client, two servers whose ``TopMap[1]`` differ: the memo keeps
    the first tree of the line, and the other is checked on every FETCH."""
    stores = []
    for name, extra in (("a", None), ("b", "fee")):
        store = open_store(tmp_path / name, clock=lambda: 0)
        tree, leaves = build_figure1(store)
        if extra:
            tree.set_object_alias("/", extra, leaves[extra])
        stores.append((store, commit_alias_tree(store, tree, ["PHYSICS"])))
    (a, root), (b, other) = stores
    assert root == other and answer(a, f"GET {root} /\n") != answer(b, f"GET {root} /\n")
    servers = [_serve(store) for store, _ in stores]
    try:
        # A first, B, then A again: only B's answer and A's first are checked.
        for store, (_, endpoint), checked in zip((a, b, a), servers + servers[:1], (1, 1, 0)):
            checks.clear()
            with configure_run(endpoint, "PHYSICS") as handle:
                assert _transition(handle) == _decoded_frame(store, root)
            assert checks.count("_frame_answers") == checked
            assert list(tree_memo.entries) == [f"FETCH {root}"]
            assert tree_memo.entries[f"FETCH {root}"][3] == _decoded_frame(a, root)
    finally:
        for server, _ in servers:
            _stop(server)
        for store, _ in stores:
            store.close()


def test_fresh_lines_from_every_manifest(served, memo, tree_memo):
    store, _ = served
    server, endpoint = _serve(store)
    try:
        with configure_run(endpoint, "PHYSICS") as handle:
            lines = fetch_manifest(handle)
            kept = list(lines)
            lines[0] = "x\tX[1]"
            lines.append("y\tY[1]")
            again = fetch_manifest(handle)
            assert again == kept and again is not lines
            assert handle._answers.keys() == {line.split("\t")[0] for line in kept}
            assert fetch_manifest(handle) == kept
    finally:
        _stop(server)


_FRAME = _fetch_frame(_GOOD_ROOT, _entry("a", "Leaf[1]", _A))


def _kept_then(scripted, frame):
    """A handle that keeps ``_FRAME``, then one on its connection that is
    sent ``frame``; the second handle, its fetch_manifest not yet called."""
    endpoint, received = scripted(b"OK TopMap[1]\n", _FRAME, frame, _GET_A)
    first = configure_run(endpoint, "PHYSICS")
    fetch_manifest(first)
    assert fetch_raw(first, "a") == _raw(_A)
    return TreeHandle(endpoint, first.root, first._connection), received


ONE_BYTE_CHANGED = {
    "identity": _FRAME.replace(b"\tLeaf[1]\t", b"\tLeaf[2]\t"),
    "payload": _FRAME.replace(b"a=i:1", b"a=i:!"),
    "path": _FRAME.replace(b"\na\t", b"\nb\t"),
}


@pytest.mark.parametrize("change", ONE_BYTE_CHANGED)
def test_a_frame_one_byte_off_a_kept_one_is_refused(scripted, memo, tree_memo, checks, change):
    """The kept frame never answers for it: it is checked in full, and
    it answers its own entries or, with a bad payload, is refused.
    Either way the memo keeps only the line's first tree."""
    frame = ONE_BYTE_CHANGED[change]
    assert len(frame) == len(_FRAME) and frame != _FRAME
    second, received = _kept_then(scripted, frame)
    with second:
        kept = dict(tree_memo.entries)
        assert len(kept) == 1
        checks.clear()
        if change == "payload":
            with pytest.raises(MalformedPayloadError):
                fetch_manifest(second)
            assert second._answers == {}
            assert fetch_raw(second, "a") == _raw(_A)  # a GET
            assert received[-2:] == ["FETCH TopMap[1]", "GET TopMap[1] a"]
        else:
            lines = fetch_manifest(second)
            entries = _frame_entries(frame)
            assert lines == [f"{path}\t{identity}" for path, identity, _ in entries]
            assert second._answers == {
                path: _raw(payload, identity) for path, identity, payload in entries}
            assert received[-1] == "FETCH TopMap[1]"
        assert tree_memo.entries == kept
        assert checks[0] == "_frame_answers"


def test_a_hit_answers_exactly_with_a_tiny_get_memo(served, tree_memo, monkeypatch, checks):
    store, root = served
    get_memo = BoundedCache(64)  # keeps no answer
    monkeypatch.setattr(client, "GET_MEMO", get_memo)
    server, endpoint = _serve(store)
    try:
        with configure_run(endpoint, "PHYSICS") as first:
            got = _transition(first)
        assert get_memo.entries == {}
        checks.clear()
        with configure_run(endpoint, "PHYSICS") as again:
            assert _transition(again) == got == _decoded_frame(store, root)
        assert checks == []
    finally:
        _stop(server)


@pytest.fixture
def generations(tmp_path):
    """Four generations of figure 1, served; each root with what a FETCH of it decodes to."""
    store = open_store(tmp_path / "db", clock=lambda: 0)
    tree, leaves = build_figure1(store)
    roots = commit_generations(store, tree, leaves)
    expected = {root: _decoded_frame(store, root) for root in roots}
    server, endpoint = _serve(store)
    yield endpoint, expected
    _stop(server)
    store.close()


def _frame_size(endpoint, root) -> int:
    """What ``TREE_MEMO`` counts for the FETCH answer of ``root``."""
    connection = client._Connection(endpoint)
    try:
        return sys.getsizeof(connection.request(f"FETCH {root}", body=True)[1])
    finally:
        connection.close()


def test_the_tree_memo_stays_within_its_budget(generations, memo, monkeypatch):
    endpoint, expected = generations
    budget = 2 * max(_frame_size(endpoint, root) for root in expected)
    tree_memo = BoundedCache(budget)
    monkeypatch.setattr(client, "TREE_MEMO", tree_memo)
    emptied = 0
    for _ in range(3):
        for root, want in expected.items():
            before = len(tree_memo.entries)
            with _handle(endpoint, root) as handle:
                assert _transition(handle) == want
            emptied += len(tree_memo.entries) < before
            assert tree_memo.size == _tree_memo_size(tree_memo) <= budget
    assert emptied > 0
    # An answer over the whole budget is never kept.
    tree_memo = BoundedCache(min(_frame_size(endpoint, root) for root in expected) // 2)
    monkeypatch.setattr(client, "TREE_MEMO", tree_memo)
    for root, want in expected.items():
        with _handle(endpoint, root) as handle:
            assert _transition(handle) == want
    assert tree_memo.entries == {} and tree_memo.size == 0


def test_threads_transition_at_once_through_one_small_tree_memo(generations, memo, monkeypatch):
    endpoint, expected = generations
    budget = 2 * max(_frame_size(endpoint, root) for root in expected)
    tree_memo = BoundedCache(budget)
    monkeypatch.setattr(client, "TREE_MEMO", tree_memo)
    roots = list(expected)
    wrong = []

    def transitions(offset):
        for i in range(24):
            root = roots[(offset + i) % len(roots)]
            with _handle(endpoint, root) as handle:
                if _transition(handle) != expected[root]:
                    wrong.append(root)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=transitions, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    # A lost update of the size would break this.
    assert tree_memo.size == _tree_memo_size(tree_memo) <= budget


def test_threads_repeating_each_root_share_one_small_tree_memo(generations, memo, monkeypatch):
    endpoint, expected = generations
    tree_memo = BoundedCache(2 * max(_frame_size(endpoint, root) for root in expected))
    monkeypatch.setattr(client, "TREE_MEMO", tree_memo)
    roots = list(expected)
    wrong = []

    def transitions(offset):
        for i in range(12):
            root = roots[(offset + i // 3) % len(roots)]  # each root thrice in a row
            with _handle(endpoint, root) as handle:
                if _transition(handle) != expected[root]:
                    wrong.append(root)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=transitions, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("change", ONE_BYTE_CHANGED)
def test_a_frame_one_byte_off_the_indexed_one_is_compared_then_checked_in_full(
    scripted, memo, tree_memo, checks, monkeypatch, change
):
    handed = []
    real = client._Connection._receive_kept

    def receive_kept(self, buf, at, kept):
        handed.append(kept)
        return real(self, buf, at, kept)

    monkeypatch.setattr(client._Connection, "_receive_kept", receive_kept)
    second, _ = _kept_then(scripted, ONE_BYTE_CHANGED[change])
    with second:
        tree = tree_memo.entries["FETCH TopMap[1]"]
        checks.clear()
        try:
            fetch_manifest(second)
        except MalformedPayloadError:
            assert change == "payload"
        assert handed == [tree[1]] and checks[0] == "_frame_answers"


# -- receiving a frame the client keeps -----------------------------------------


class _Sends:
    """A socket whose every receive takes at most the rest of the next scripted send.

    Past the last send, a receive meets the end of stream.  With sends of
    at most ``RECV_BYTES``, a receive of that size and a larger one take
    the same bytes, so the search and the compare leave the same ``_buf``.
    """

    def __init__(self, sends):
        self.sends = [bytes(send) for send in sends if send]
        self.closed = False

    def sendall(self, data):
        pass

    def recv(self, size):
        if not self.sends:
            return b""
        send = self.sends.pop(0)
        if len(send) > size:
            self.sends.insert(0, send[size:])
        return send[:size]

    def recv_into(self, buffer):
        data = self.recv(len(buffer))
        buffer[: len(data)] = data
        return len(data)

    def close(self):
        self.closed = True


def _read(sends, kept):
    """A FETCH answer read from ``sends`` with ``kept`` as the expected body,
    and the ``_buf`` it leaves; or the class of the error, and whether the
    connection was given up."""
    connection = client._Connection.__new__(client._Connection)
    connection._sock, connection._buf = _Sends(sends), b""
    try:
        return connection.request("FETCH TopMap[1]", body=True, kept=kept), connection._buf
    except ConfdbError as exc:
        return type(exc), connection._sock.closed


def _assert_read_as_searched(kept, sends):
    got = _read(sends, kept)
    assert got == _read(sends, None)
    if type(got[0]) is tuple and got[0][1] == kept:
        assert got[0][1] is kept
    return got


def _body_read_from(data: bytes) -> bytes:
    """The body the search returns from a FETCH answer of ``data``, then a terminator."""
    (_, body), _ = _read([b"OK 2\n" + data + b"\n.\n"], None)
    return body


# A body of several receives: 5,000 entries of 35 or 36 bytes.
_KEPT_BODY = b"".join(_entry(f"p{i}", f"Leaf[{i + 1}]", _A) for i in range(5000))
_KEPT_ANSWER = b"OK 5000\n" + _KEPT_BODY + b".\n"
_STATUS = len(b"OK 5000\n")


def _in_sends(answer, size=client.RECV_BYTES):
    return [answer[at : at + size] for at in range(0, len(answer), size)]


def _changed(answer, at):
    return answer[:at] + (b"x" if answer[at : at + 1] != b"x" else b"y") + answer[at + 1 :]


_KEPT_CASES = {
    "the kept frame": _in_sends(_KEPT_ANSWER),
    "the kept frame in sends of 1,000 bytes": _in_sends(_KEPT_ANSWER, 1000),
    "differs at its first byte": _in_sends(_changed(_KEPT_ANSWER, _STATUS)),
    "differs at its middle byte": _in_sends(_changed(_KEPT_ANSWER, len(_KEPT_ANSWER) // 2)),
    **{
        f"differs at byte {back} from the end": _in_sends(
            _changed(_KEPT_ANSWER, len(_KEPT_ANSWER) - back))
        for back in (1, 2, 3)
    },
    "shorter than the kept one": _in_sends(
        b"OK 4999\n" + _KEPT_BODY[: _KEPT_BODY.rindex(b"p4999\t")] + b".\n"),
    "longer than the kept one": _in_sends(
        b"OK 5001\n" + _KEPT_BODY + _entry("q", "Leaf[1]", _A) + b".\n"),
    "the kept frame and the next answer in one send": [
        _KEPT_ANSWER[:-1000], _KEPT_ANSWER[-1000:] + _GET_A],
    "the kept frame and part of the next answer": [_KEPT_ANSWER + _GET_A[:4]],
    "a different count tail": _in_sends(b"OK 4\n" + _KEPT_BODY + b".\n"),
    "an end of stream inside the kept bytes": _in_sends(_KEPT_ANSWER[: len(_KEPT_ANSWER) // 3]),
    "an end of stream before the terminator's LF": _in_sends(_KEPT_ANSWER[:-1]),
    "an ERR answer": [b"ERR 404 no-such-link a\n" + _GET_A],
}


@pytest.mark.parametrize("case", _KEPT_CASES)
def test_a_kept_frame_is_read_as_the_search_reads_it(case):
    got = _assert_read_as_searched(_KEPT_BODY, _KEPT_CASES[case])
    if case.startswith("an end of stream"):
        assert got == (ConnectionFailureError, True)


def test_a_terminator_whose_lf_differs_at_the_start_of_a_receive_is_found():
    # The kept body holds "\n.b"; the answer's "\n.\n" ends it there, and
    # its last LF, the first byte that differs, starts the second receive.
    kept = b"a\n.b\n"
    got = _assert_read_as_searched(kept, [b"OK 2\na\n.", b"\n" + _GET_A])
    assert got == (("2", b"a\n"), _GET_A)


def test_a_kept_frame_sent_a_byte_at_a_time_is_read_as_the_search_reads_it():
    kept = _FRAME[len(b"OK 1\n") : -2]
    answer = _FRAME + _GET_A[:3]
    sends = [answer[at : at + 1] for at in range(len(answer))]
    (tail, body), rest = _assert_read_as_searched(kept, sends)
    assert (tail, rest) == ("2", b"") and body is kept


_WIRE_BYTE = st.sampled_from([b"a", b".", b"\n"])
_WIRE_BYTES = st.lists(_WIRE_BYTE, max_size=30).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(_WIRE_BYTES, st.data())
def test_any_answer_is_read_with_a_kept_body_as_the_search_reads_it(data_bytes, data):
    kept = _body_read_from(data_bytes)
    answer = b"OK 2\n" + kept + b".\n"
    how = data.draw(st.sampled_from(["kept", "one byte", "cut", "other"]), label="answer")
    if how == "one byte":
        at = data.draw(st.integers(0, len(answer) - 1), label="changed byte")
        answer = answer[:at] + data.draw(_WIRE_BYTE) + answer[at + 1 :]
    elif how == "cut":
        answer = answer[: data.draw(st.integers(0, len(answer)), label="cut at")]
    elif how == "other":
        status = data.draw(st.sampled_from([b"OK 2\n", b"OK 3\n", b"OK\n"]))
        answer = status + data.draw(_WIRE_BYTES)
    after = [b"", b".\n", _GET_A, b"\n.\n" + _GET_A[:5]]
    answer += data.draw(st.sampled_from(after), label="after")
    if data.draw(st.booleans(), label="a byte at a time"):
        cuts = list(range(1, len(answer)))
    else:
        cuts = sorted(data.draw(st.lists(st.integers(0, len(answer)), max_size=6), label="cuts"))
    sends = [answer[a:b] for a, b in zip([0, *cuts], [*cuts, len(answer)])]
    _assert_read_as_searched(kept, sends)


def test_a_shorter_frame_on_a_connection_held_open_is_not_waited_for(scripted, memo, tree_memo):
    # The server sends the shorter frame, then waits for the client's close.
    shorter = _fetch_frame()
    second, received = _kept_then(scripted, shorter)
    with second:
        started = time.perf_counter()
        assert fetch_manifest(second) == []
        assert time.perf_counter() - started < client.TIMEOUT_S / 10
        assert fetch_raw(second, "a") == _raw(_A)  # a GET, in step
        assert received[-2:] == ["FETCH TopMap[1]", "GET TopMap[1] a"]
