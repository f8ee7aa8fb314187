"""Client-side access: resolve a run type once, then fetch by path.

Persistent and transient representations stay separate: the wire carries
canonical payload text, and a :class:`ProxyDictionary` maps each class
name to a pure decoder that turns the payload into whatever transient
object the application wants.  Dispatch is by the class name that comes
back with the object; the path itself carries no type information.

A :class:`TreeHandle` pins the root identity returned by RESOLVE for its
whole lifetime.  Because objects are immutable, the handle stays valid
forever: activations on the server never change what an existing handle
reads.

A connection reads each answer out of one receive buffer: it sends
request lines with one ``sendall``, then receives until the buffer holds
the status line and, for an answer with a body, the line that is a
lone ``.``.  Each receive resumes the search where the last one stopped,
and bytes past the answer stay in the buffer for the next answer.  A
failed send, a status line that is not UTF-8 or not ``OK``/``ERR``, a
failed or timed-out receive (``TIMEOUT_S``, the socket's own timeout)
and an end of stream in mid-answer each give the connection up and
raise :class:`ConnectionFailureError`, as every later request on it
then does at once.

A connection outlives its handle.  :meth:`TreeHandle.close` gives it
back to ``POOL``, the process's idle connections by endpoint, if it is
in step: every request sent on it has had its whole answer read,
nothing past them was received, no answer was ``ERR``, and it was never
given up.  Counters set as each whole answer is read say so; the
socket is never asked, so an interrupt in mid-receive keeps nothing.
An endpoint keeps at most ``IDLE_PER_ENDPOINT`` idle connections, and
one more is closed.  A forked child starts with none, so parent and
child never read each other's answers off one socket.  A server closes
a connection idle for its ``IDLE_TIMEOUT_S`` (300 s), logged at INFO,
and the next take finds the end of stream and passes the connection
over.

:func:`configure_run` takes an idle connection to its endpoint if a
zero-timeout poll finds no byte and no end of stream waiting on it,
and else connects.  A TCP connection reaches one server for its whole
life, so the connection keeps the server's token: a new one sends
``RESOLVE`` and ``TOKEN`` in one ``sendall``, and a kept one sends
``RESOLVE`` alone.  If the server ended a kept connection before any
byte of the answer came, the RESOLVE is sent once more on a new
connection; both verbs are read-only.  A timeout is never retried.  A
token names one server for its whole life, and a server reads one
store, so under one token a ``FETCH <root>`` answer never changes.  An
older server answers ``TOKEN`` with ``ERR``; its handles get no token,
each of their FETCHes is sent and checked, and their connections are
not kept.

A handle reads its tree whole.  :func:`fetch_manifest` sends one
``FETCH``, whose frame holds the GET answer of every path of the tree
under the path and identity that head its entry, and returns the
``path TAB identity`` lines of those heads, in the server's
:func:`~confdb.tree.walk_tree` order.  It checks the whole frame and
keeps on the handle what each entry decodes to, through the memo below
under the key its GET answer would have, so the parse, the decode and
every error are a GET's, and :func:`fetch_raw` of a path of the frame
is one lookup.  A refused frame (see :func:`_frame_answers`) raises and
keeps nothing; one cut short also gives the connection up.  A ``FETCH``
answered with ``ERR`` raises as any request does; the connection stays
in step for the handle's later requests, but is not kept once the
handle closes.  A first transition on the benchmark's configure store
is 2 round trips; but the frame is 0.49 MB: a new FETCH takes about
40 ms, and one GET 0.06 ms.  A repeated transition is one RESOLVE on a
kept connection, since the kept tree is taken with no FETCH: 0.20 to
0.23 ms in all, of which :func:`configure_run` takes
0.07 to 0.08 ms (0.42 to 0.45 ms when each transition connected and
sent TOKEN), the kept tree 0.01 ms and 1,008 :func:`fetch_raw` 0.11
to 0.14 ms; the server spends 0.05 to 0.07 ms of CPU on it, against
0.43 to 0.45 ms when each transition had its own connection and handler
thread (medians of 600 seed-1 transitions in each of two runs, one
client, serve child on the same host, server CPU from
``/proc/<pid>/stat``).
So a handle that reads only a few leaves should GET them without
:func:`fetch_manifest`.

Each client process keeps one memo of GET answers, ``GET_MEMO``.  It
maps the ``(status tail, payload bytes)`` pair of an answer to the
``(ObjectIdentity, Payload)`` pair that ``parse_identity`` and
``decode_payload`` made of it, canonical check included, so a GET
costs one lookup and each distinct answer is parsed and decoded once,
however many handles or threads receive it.  A hit returns exactly
what a parse and a decode would: both are pure functions of their
input, and what they return is immutable.  An answer that fails to
parse or decode is never kept, so it raises again on every fetch.
Only those two steps are memoised; a :class:`ProxyDictionary` decoder
runs on every :func:`fetch_object`, since what it returns may be
mutable.

The memo's budget, ``GET_MEMO_BYTES`` (2 MiB), counts kept key text
only, ``sys.getsizeof`` of each kept tail and body, and the memo is
emptied whole when the next key would go over.  Measured with
``tracemalloc`` on the 1,029 distinct answers of the benchmark's
configure workload, the keys are 545 KB of text (69 KB of identities,
475 KB of payloads) and the memo holds 2.9 MB with what they decode
to, about 5.3 times its key text; so a full memo holds about 11 MiB.

A second memo, ``TREE_MEMO``, keeps each tree accepted from a server
with a token under the key ``(token, "FETCH <root>")``, as the pair
``(lines, answers)``: the frame's manifest lines and its ``{path:
(ObjectIdentity, Payload)}`` map, made through ``GET_MEMO`` so that
equal answers share one decoded pair.  :func:`fetch_manifest` takes a
kept tree and sends nothing; since the answer under that key never
changes, the hit answers exactly what a FETCH and its full check would.
A tree from a server without a token is never kept.  A restarted
server has a new token, so each of its clients sends one FETCH per root
again, and two stores whose root identities share text never share a
tree.  The memo shares the ``GET_MEMO_BYTES`` budget rule and is
emptied whole as ``GET_MEMO`` is.  Each tree costs what it keeps beyond
the decoded pairs it shares with ``GET_MEMO`` (see :func:`_tree_cost`):
its manifest lines and path keys, with their tuple and dict.  After one
transition per run type on the seed-1 store, with ``GET_MEMO`` already
warm, ``tracemalloc`` finds the memo holding 0.359 MB, and it counts
0.358 MB; so a full memo keeps about 11 benchmark trees.
"""

from __future__ import annotations

import os
import select
import socket
import sys
import threading

from .errors import (
    ConfdbError,
    ConnectionFailureError,
    DuplicateRegistrationError,
    InvalidNameError,
    MalformedPayloadError,
    NoProxyError,
    error_for_code,
)
from .model import ObjectIdentity, Payload, canonical_int, decode_payload, format_identity
from .model import is_valid_name, parse_identity, validate_name
from .service import BoundedCache, parse_endpoint

GET_MEMO_BYTES = 2 * 2**20
GET_MEMO = BoundedCache(GET_MEMO_BYTES)
TREE_MEMO = BoundedCache(GET_MEMO_BYTES)
RECV_BYTES = 65536
TIMEOUT_S = 30.0  # for the connect, each whole request line's send and each receive
IDLE_PER_ENDPOINT = 4  # idle connections kept for each endpoint; one more is closed


class ProxyDictionary:
    """Registry of class name -> decoder(Payload) -> transient object."""

    def __init__(self):
        self._decoders: dict[str, object] = {}

    def register(self, class_name: str, decoder) -> None:
        validate_name(class_name, "class name")
        if class_name in self._decoders:
            raise DuplicateRegistrationError(f"decoder already registered for {class_name!r}")
        self._decoders[class_name] = decoder

    def decoder_for(self, class_name: str):
        try:
            return self._decoders[class_name]
        except KeyError:
            raise NoProxyError(f"no decoder registered for class {class_name!r}") from None


def register_proxy(proxies: ProxyDictionary, class_name: str, decoder) -> None:
    proxies.register(class_name, decoder)


class _Ended(ConnectionFailureError):
    """The server ended the connection, by an end of stream or a reset,
    before any byte of the answer came."""


class _Connection:
    """One line-oriented protocol connection with its own receive buffer.

    ``_buf`` holds what was received past the last answer read, so an
    answer that arrives with the end of the one before it is not lost.
    ``token`` is the server's TOKEN answer once this connection has
    learned it: a TCP connection reaches one server for its whole life.
    ``_owed`` counts the requests sent whose answers are not yet read
    whole, and ``_clean`` is false once an ``ERR`` answer was read or the
    connection was given up.  These are the class's defaults.
    """

    token = None
    _owed = 0
    _clean = True

    def __init__(self, endpoint: str):
        host, port = parse_endpoint(endpoint)
        try:
            self._sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        except OSError as exc:
            raise ConnectionFailureError(f"cannot connect to {endpoint}: {exc}") from exc
        self.endpoint = endpoint
        self._buf = b""

    def close(self):
        self._clean = False
        try:
            self._sock.close()
        except OSError:
            pass

    def in_step(self) -> bool:
        """Every answer read whole, nothing received past them, and never given up."""
        return self._clean and not self._owed and not self._buf

    def quiet(self) -> bool:
        """No byte and no end of stream waits to be read: a zero-timeout poll."""
        poll = select.poll()
        poll.register(self._sock, select.POLLIN)
        return not poll.poll(0)

    def _receive(self, fresh: bool) -> bytes:
        """One receive of new bytes; ``fresh`` while no byte of the answer has come.

        A read failure or an end of stream leaves the rest of the answer
        unread, so the connection is given up.  An end of stream or a
        reset while ``fresh`` raises :class:`_Ended`.
        """
        try:
            got = self._sock.recv(RECV_BYTES)
        except OSError as exc:
            self.close()
            ended = fresh and isinstance(exc, ConnectionError)
            raise (_Ended if ended else ConnectionFailureError)(f"read failed: {exc}") from exc
        if not got:
            self.close()
            raise (_Ended if fresh else ConnectionFailureError)("connection closed by server")
        return got

    def _find(self, buf, sep: bytes, start: int):
        """Receive into ``buf`` until ``sep`` occurs at or after ``start``; return both.

        Each receive resumes the search where the last one stopped, less
        the length of a ``sep`` cut by the receive.
        """
        at = buf.find(sep, start)
        while at < 0:
            start = max(start, len(buf) - len(sep) + 1)
            chunk = self._receive(not buf)
            if buf:
                if type(buf) is bytes:
                    buf = bytearray(buf)  # grows in place from here on
                buf += chunk
            else:
                buf = chunk
            at = buf.find(sep, start)
        return buf, at

    def send(self, lines: str) -> None:
        """Send request lines, each ending in LF, with one ``sendall``."""
        self._owed += lines.count("\n")
        try:
            self._sock.sendall(lines.encode("utf-8"))
        except OSError as exc:
            # Part of a line may have gone out: the next one would join it.
            self.close()
            ended = isinstance(exc, ConnectionError)
            raise (_Ended if ended else ConnectionFailureError)(f"send failed: {exc}") from exc

    def receive(self, body: bool = False) -> tuple[str, bytes]:
        """Read one answer: (ok_tail, body bytes before the lone ``.``)."""
        buf, eol = self._find(self._buf, b"\n", 0)
        # A refused status line leaves an answer of unknown length unread,
        # so the connection is given up rather than read out of step.
        try:
            status = buf[:eol].decode("utf-8")
        except UnicodeDecodeError:
            self.close()
            raise ConnectionFailureError(
                f"response is not UTF-8: {bytes(buf[: eol + 1])!r}"
            ) from None
        if status.startswith("ERR "):
            self._buf = bytes(buf[eol + 1 :])
            self._owed -= 1
            self._clean = False
            parts = status.split(" ", 2)
            code_name = parts[2].split(" ", 1)[0] if len(parts) > 2 else "error"
            raise error_for_code(code_name, status)
        if not status.startswith("OK"):
            self.close()
            raise ConnectionFailureError(f"unexpected response: {status!r}")
        tail = status[3:] if status.startswith("OK ") else ""
        if not body:
            self._buf = bytes(buf[eol + 1 :])
            self._owed -= 1
            return tail, b""
        # The body ends at its first line that is a lone ".": the search
        # starts at the status line's LF, so an empty body is "\n.\n" too.
        buf, end = self._find(buf, b"\n.\n", eol)
        self._buf = bytes(buf[end + 3 :])
        self._owed -= 1
        # Through a view, a body is copied once: a bytearray's slice is a copy.
        return tail, bytes(memoryview(buf)[eol + 1 : end + 1])

    def request(self, line: str, body: bool = False) -> tuple[str, bytes]:
        """Send one request line and read its answer, as :meth:`receive` returns it.

        A line break in ``line`` would send two requests and read their
        answers out of step, so such a line is refused before it is sent.
        """
        _refuse_line_break(line)
        self.send(line + "\n")
        return self.receive(body)


class _Pool:
    """Idle connections in step, by endpoint, each taken by one handle at a time.

    Taking and giving back hold one lock, so no two handles ever share a
    connection.
    """

    def __init__(self):
        self.idle: dict[str, list[_Connection]] = {}
        self.lock = threading.Lock()

    def take(self, endpoint: str) -> _Connection | None:
        """An idle connection to ``endpoint``, or ``None``.

        One that has bytes or an end of stream waiting, as when the
        server closed it, is closed and passed over.
        """
        while True:
            with self.lock:
                idle = self.idle.get(endpoint)
                if not idle:
                    return None
                connection = idle.pop()
            if connection.quiet():
                return connection
            connection.close()

    def give(self, connection: _Connection) -> None:
        """Keep ``connection`` idle if it is in step and its endpoint has room; else close it."""
        with self.lock:
            idle = self.idle.setdefault(connection.endpoint, [])
            if connection.in_step() and len(idle) < IDLE_PER_ENDPOINT:
                idle.append(connection)
                return
        connection.close()

    def clear(self) -> None:
        """Close every idle connection."""
        with self.lock:
            idle, self.idle = self.idle, {}
        for connections in idle.values():
            for connection in connections:
                connection.close()

    def _after_fork_in_child(self) -> None:
        # A thread the child lacks may have held the lock, and the child
        # must not read the parent's answers off a shared socket.
        self.lock = threading.Lock()
        self.clear()


POOL = _Pool()
os.register_at_fork(after_in_child=POOL._after_fork_in_child)


class _Closed:
    """What a closed handle holds in place of its connection."""

    def request(self, line: str, body: bool = False):
        raise ConnectionFailureError("the handle is closed")


_CLOSED = _Closed()


def _refuse_line_break(text: str) -> None:
    if "\n" in text:
        raise InvalidNameError(f"line break in request: {text!r}")


def _body_lines(body: bytes) -> list[str]:
    """The lines of a RUNTYPES body."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedPayloadError("response body is not valid UTF-8") from None
    return text.split("\n")[:-1]


class TreeHandle:
    """A resolved configuration tree; holds one connection until it closes.

    ``token`` is the server's TOKEN answer, or ``None`` for a server that
    refused it.  ``_answers`` maps each path of the FETCH frame the handle
    last accepted to what its GET answer decodes to, and is empty until
    then.  It may be shared with ``TREE_MEMO``, so it is never changed in
    place.
    """

    def __init__(
        self,
        endpoint: str,
        root: ObjectIdentity,
        connection: _Connection,
        token: str | None = None,
    ):
        self.endpoint = endpoint
        self.root = root
        self.token = token
        self._connection = connection
        self._get_prefix = f"GET {format_identity(root)} "
        self._answers: dict[str, tuple[ObjectIdentity, Payload]] = {}

    def close(self):
        """Give the connection back to ``POOL``; the handle then sends nothing."""
        connection, self._connection = self._connection, _CLOSED
        if connection is not _CLOSED:
            POOL.give(connection)

    def __enter__(self) -> "TreeHandle":
        return self

    def __exit__(self, *exc):
        self.close()


def configure_run(endpoint: str, run_type: str) -> TreeHandle:
    """RESOLVE the run type and pin the returned tree identity.

    An idle connection from ``POOL`` is taken if there is one.  If the
    server ended it before any byte of the answer came, the RESOLVE is
    sent once more on a new connection; both verbs are read-only.
    """
    _refuse_line_break(run_type)
    connection = POOL.take(endpoint)
    if connection is not None:
        try:
            return _resolve(endpoint, run_type, connection)
        except _Ended:
            pass
    return _resolve(endpoint, run_type, _Connection(endpoint))


def _resolve(endpoint: str, run_type: str, connection: _Connection) -> TreeHandle:
    """A handle on ``connection`` for the root RESOLVE answers; any fault closes it.

    A connection that has not learned its token sends RESOLVE and TOKEN
    in one ``sendall``.  A TOKEN answered with ``ERR``, as an older
    server answers it, leaves the handle no token.
    """
    learn = connection.token is None
    try:
        connection.send(f"RESOLVE {run_type}\nTOKEN\n" if learn else f"RESOLVE {run_type}\n")
        root = parse_identity(connection.receive()[0])
        if learn:
            try:
                connection.token = connection.receive()[0] or None
            except ConnectionFailureError:
                raise
            except ConfdbError:
                pass
    except BaseException:
        connection.close()
        raise
    return TreeHandle(endpoint, root, connection, connection.token)


def _decoded(answer: tuple[str, bytes]) -> tuple[ObjectIdentity, Payload]:
    """What a GET answer's ``(tail, body)`` parses and decodes to; not kept."""
    tail, body = answer
    return parse_identity(tail), decode_payload(body)


def _memo_cost(answer: tuple[str, bytes]) -> int:
    tail, body = answer
    return sys.getsizeof(tail) + sys.getsizeof(body)


def _memoised(answer: tuple[str, bytes]) -> tuple[ObjectIdentity, Payload]:
    """What a GET answer decodes to, through ``GET_MEMO``."""
    raw = GET_MEMO.entries.get(answer)
    if raw is None:
        raw = _decoded(answer)
        GET_MEMO.put(answer, raw, _memo_cost(answer))
    return raw


def _tree_cost(lines: tuple[str, ...], answers: dict) -> int:
    """What ``TREE_MEMO`` counts for a kept tree: its manifest lines and
    path keys, with the tuple and dict that hold them, ``sys.getsizeof``
    each.  The decoded pairs are ``GET_MEMO``'s, and are not counted."""
    return (
        sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
        + sys.getsizeof(answers) + sum(map(sys.getsizeof, answers))
    )


def _frame_answers(
    count: str, body: bytes
) -> tuple[tuple[str, ...], dict[str, tuple[ObjectIdentity, Payload]]]:
    """A FETCH frame's manifest lines, and what its GET answers decode to by path.

    The count is canonical decimal and exactly that many entries follow,
    each path once and either ``/`` or valid names joined by ``/``, each
    length plain ASCII decimal, and every payload must parse and decode
    as a GET answer's would.  Answers ``GET_MEMO``
    lacks are decoded once each and put in it only once the whole frame
    is checked.  An entry that runs past the terminator raises
    :class:`ConnectionFailureError`: where the answer ends is unknown.
    """
    entries = canonical_int(count)
    if entries is None or entries < 0:
        raise ConfdbError(f"FETCH frame count {count!r} is not canonical")
    lines, answers, new, at = [], {}, {}, 0
    names = set()  # path segments already found valid
    memo = GET_MEMO.entries
    for _ in range(entries):
        eol = body.find(b"\n", at)
        if eol < 0:
            raise ConnectionFailureError(f"FETCH entry at byte {at} is cut short")
        try:
            path, identity, length = body[at:eol].decode("utf-8").split("\t")
        except ValueError:  # UnicodeDecodeError included
            raise ConfdbError(f"FETCH entry at byte {at} is not path, identity, length") from None
        # Only plain ASCII decimal is canonical: no sign, space, "_" or leading 0.
        size = canonical_int(length)
        if size is None or size < 0:
            raise ConfdbError(f"FETCH entry {path!r} has a bad length {length!r}")
        start, at = eol + 1, eol + 1 + size
        if at > len(body):
            raise ConnectionFailureError(f"FETCH entry at byte {start} is cut short")
        if path in answers:
            raise ConfdbError(f"FETCH entry {path!r} repeats a path")
        if path != "/":
            segments = path.split("/")
            if not names.issuperset(segments):
                if not all(map(is_valid_name, segments)):
                    raise ConfdbError(f"FETCH entry path {path!r} is not / or names joined by /")
                names.update(segments)
        answer = identity, body[start:at]
        raw = memo.get(answer) or new.get(answer)
        if raw is None:
            raw = new[answer] = _decoded(answer)
        answers[path] = raw
        lines.append(f"{path}\t{identity}")
    if at != len(body):
        raise ConfdbError(f"{len(body) - at} bytes after the last FETCH entry")
    for answer, raw in new.items():
        GET_MEMO.put(answer, raw, _memo_cost(answer))
    return tuple(lines), answers


def fetch_raw(handle: TreeHandle, path: str) -> tuple[ObjectIdentity, Payload]:
    """One object by path, as (identity, payload) undecoded by any proxy.

    A path of the handle's accepted FETCH frame is answered from it;
    any other path is one GET.
    """
    path = path or "/"
    raw = handle._answers.get(path)
    if raw is None:
        raw = _memoised(handle._connection.request(handle._get_prefix + path, body=True))
    return raw


def fetch_object(handle: TreeHandle, proxies: ProxyDictionary, path: str):
    """GET one object and decode it with the proxy for its class name."""
    identity, payload = fetch_raw(handle, path)
    decoder = proxies.decoder_for(identity.class_name)
    return decoder(payload)


def fetch_manifest(handle: TreeHandle) -> list[str]:
    """The manifest lines of the handle's tree, read from one FETCH frame.

    A tree ``TREE_MEMO`` keeps for the handle's token is taken with no
    request.  The handle then answers each path of the frame without a
    request.  An ``ERR`` answer or a refused frame raises, and the handle
    GETs each path.  The lines are a new list on every call.
    """
    key = handle.token, f"FETCH {format_identity(handle.root)}"
    kept = TREE_MEMO.entries.get(key)  # never kept under no token
    if kept is None:
        connection = handle._connection
        tail, body = connection.request(key[1], body=True)
        try:
            kept = _frame_answers(tail, body)
        except ConnectionFailureError:
            connection.close()
            raise
        if handle.token:
            TREE_MEMO.put(key, kept, _tree_cost(*kept))
    lines, handle._answers = kept
    return list(lines)


def active_run_types(endpoint: str) -> dict[str, ObjectIdentity]:
    """RUNTYPES as a dict; a convenience for monitoring tools.

    The count of ``OK <count>`` is canonical decimal and equal to the
    number of lines, each run type is a valid name, and no run type is
    bound twice.
    """
    connection = _Connection(endpoint)
    try:
        count, body = connection.request("RUNTYPES", body=True)
        lines = _body_lines(body)
        if canonical_int(count) != len(lines):
            raise ConfdbError(f"RUNTYPES count {count!r} does not count its {len(lines)} lines")
        bindings = {}
        for line in lines:
            run_type, _, identity = line.partition("\t")
            if not is_valid_name(run_type):
                raise ConfdbError(f"RUNTYPES binds {run_type!r}, which is not a name")
            if run_type in bindings:
                raise ConfdbError(f"RUNTYPES binds {run_type!r} twice")
            bindings[run_type] = parse_identity(identity)
        return bindings
    finally:
        connection.close()
