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

A connection reads each answer out of one receive buffer: it sends the
request line with one ``sendall``, then receives until the buffer holds
the status line and, for an answer with a body, the line that is a
lone ``.``.  Each receive resumes the search where the last one stopped,
and bytes past the answer stay in the buffer for the next request.  A
body expected as ``kept`` is instead received into one buffer sized to
it and compared span by span as it arrives: a full match returns
``kept`` itself, unsearched, and a span that differs falls back to the
search, so the answer and the bytes left are the search's either way.  A
failed send, a status line that is not UTF-8 or not ``OK``/``ERR``, a
failed or timed-out receive (``TIMEOUT_S``, the socket's own timeout)
and an end of stream in mid-answer each give the connection up and
raise :class:`ConnectionFailureError`, as every later request on it
then does at once.

A handle reads its tree whole.  :func:`fetch_manifest` sends one
``FETCH``, whose frame holds the GET answer of every path of the tree
under the path and identity of its MANIFEST line, and returns the lines
read from those entry heads.  It checks the whole frame and keeps on
the handle what each entry decodes to, through the memo below under the
key its GET answer would have, so the parse, the decode and every error
are a GET's, and :func:`fetch_raw` of a path of the frame is one lookup.
A refused frame (see :func:`_frame_answers`) raises and keeps nothing;
one cut short also gives the connection up.  A ``FETCH`` answered with
``ERR`` raises as any request does, and the connection stays in step.
A transition on the benchmark's configure store is 2 requests; but the
frame is 0.49 MB, where a MANIFEST is 31 KB: a FETCH of a frame the
client holds takes 0.22 ms, a new one about 40 ms, and one GET 0.06 ms
(single client, serve child on the same host).
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

A second memo, ``TREE_MEMO``, keeps the first accepted answer to each
``FETCH <root>`` line under that line, as the tuple ``(count, body,
lines, answers)``: the frame's manifest lines and its ``{path:
(ObjectIdentity, Payload)}`` map, made through ``GET_MEMO`` so that
equal answers share one decoded pair.  :func:`fetch_manifest` expects
the kept body, and takes the kept tree only when the answer is that
very body, recognised by ``is``, with the same count.  The lines and
the map are pure functions of those two, so such a hit, which checks
and decodes nothing, answers exactly what a full check would.  Any
other answer is checked in full and used, but not kept, since its line
is; that happens only when one client process reads two stores whose
root identities share text.  The memo shares the ``GET_MEMO_BYTES``
budget rule, each answer costing ``sys.getsizeof`` of its body, and is
emptied whole as ``GET_MEMO`` is.  After one transition per run type on
the seed-1 store, the memo holds 1.34 MB (``tracemalloc``) beyond
``GET_MEMO``'s 3.16 MB, of which 0.98 MB are the two counted bodies; so
a full memo holds about 2.9 MB.  Over 10 s of the benchmark's configure
workload (seed 1), 1,770 of its 1,772 FETCH answers (99.9%) repeated
the kept one byte for byte; the operator workload makes no client
handle.
"""

from __future__ import annotations

import socket
import sys

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


class _Connection:
    """One line-oriented protocol connection with its own receive buffer.

    ``_buf`` holds what was received past the last answer read, so an
    answer that arrives with the end of the one before it is not lost.
    """

    def __init__(self, endpoint: str):
        host, port = parse_endpoint(endpoint)
        try:
            self._sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
        except OSError as exc:
            raise ConnectionFailureError(f"cannot connect to {endpoint}: {exc}") from exc
        self._buf = b""

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass

    def _receive(self, into=None):
        """One receive: new bytes, or the count received into the buffer ``into``.

        A read failure or an end of stream leaves the rest of the answer
        unread, so the connection is given up.
        """
        try:
            got = self._sock.recv(RECV_BYTES) if into is None else self._sock.recv_into(into)
        except OSError as exc:
            self.close()
            raise ConnectionFailureError(f"read failed: {exc}") from exc
        if not got:
            self.close()
            raise ConnectionFailureError("connection closed by server")
        return got

    def _find(self, buf, sep: bytes, start: int):
        """Receive into ``buf`` until ``sep`` occurs at or after ``start``; return both.

        Each receive resumes the search where the last one stopped, less
        the length of a ``sep`` cut by the receive.
        """
        at = buf.find(sep, start)
        while at < 0:
            start = max(start, len(buf) - len(sep) + 1)
            chunk = self._receive()
            if buf:
                if type(buf) is bytes:
                    buf = bytearray(buf)  # grows in place from here on
                buf += chunk
            else:
                buf = chunk
            at = buf.find(sep, start)
        return buf, at

    def _receive_kept(self, buf, at: int, kept: bytes):
        """Receive the answer at ``at`` while it repeats ``kept`` and its ``.`` line.

        Returns the buffer and ``None`` after a full match, ``_buf`` then
        set; else where the ``\n.\n`` search starts, two bytes before the
        span that differs: ``kept`` came from that search, so no
        terminator lies wholly in bytes that matched it.  Each span is
        compared as it arrives, so a shorter answer is never waited for.
        """
        dot = at + len(kept)  # where the lone "." line starts
        filled = len(buf)
        if filled < dot + 2:
            frame = bytearray(dot + 2 + RECV_BYTES)  # the answer, and one more receive
            frame[:filled] = buf
            buf = frame
        expect = memoryview(kept)
        checked = at
        with memoryview(buf) as view:
            while True:
                # startswith with a view is one memcmp; comparing views is not.
                upto = min(filled, dot)
                if not buf.startswith(expect[checked - at : upto - at], checked):
                    break
                checked = upto
                if not buf.startswith(b".\n"[: max(filled - dot, 0)], dot):
                    break
                if filled >= dot + 2:
                    self._buf = bytes(view[dot + 2 : filled])
                    return buf, None
                filled += self._receive(view[filled:])
        if type(buf) is bytearray:
            del buf[filled:]
        return buf, max(checked - 2, at - 1)

    def request(
        self, line: str, body: bool = False, kept: bytes | None = None
    ) -> tuple[str, bytes]:
        """Send one request; return (ok_tail, body bytes before the lone ``.``).

        A line break in ``line`` would send two requests and read their
        answers out of step, so such a line is refused before it is sent.
        A body equal to ``kept`` is returned as ``kept`` itself.
        """
        if "\n" in line:
            raise InvalidNameError(f"line break in request: {line!r}")
        try:
            self._sock.sendall((line + "\n").encode("utf-8"))
        except OSError as exc:
            # Part of the line may have gone out: the next one would join it.
            self.close()
            raise ConnectionFailureError(f"send failed: {exc}") from exc
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
            parts = status.split(" ", 2)
            code_name = parts[2].split(" ", 1)[0] if len(parts) > 2 else "error"
            raise error_for_code(code_name, status)
        if not status.startswith("OK"):
            self.close()
            raise ConnectionFailureError(f"unexpected response: {status!r}")
        tail = status[3:] if status.startswith("OK ") else ""
        if not body:
            self._buf = bytes(buf[eol + 1 :])
            return tail, b""
        # The body ends at its first line that is a lone ".": the search
        # starts at the status line's LF, so an empty body is "\n.\n" too.
        start = eol
        if kept is not None:
            buf, start = self._receive_kept(buf, eol + 1, kept)
            if start is None:
                return tail, kept  # the very object, so fetch_manifest recognises it by ``is``
        buf, end = self._find(buf, b"\n.\n", start)
        self._buf = bytes(buf[end + 3 :])
        # Through a view, a body is copied once: a bytearray's slice is a copy.
        return tail, bytes(memoryview(buf)[eol + 1 : end + 1])


def _body_lines(body: bytes) -> list[str]:
    """The lines of a RUNTYPES body."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedPayloadError("response body is not valid UTF-8") from None
    return text.split("\n")[:-1]


class TreeHandle:
    """A resolved configuration tree; owns one connection.

    ``_answers`` maps each path of the FETCH frame the handle last
    accepted to what its GET answer decodes to, and is empty until then.
    It may be shared with ``TREE_MEMO``, so it is never changed in place.
    """

    def __init__(self, endpoint: str, root: ObjectIdentity, connection: _Connection):
        self.endpoint = endpoint
        self.root = root
        self._connection = connection
        self._get_prefix = f"GET {format_identity(root)} "
        self._answers: dict[str, tuple[ObjectIdentity, Payload]] = {}

    def close(self):
        self._connection.close()

    def __enter__(self) -> "TreeHandle":
        return self

    def __exit__(self, *exc):
        self.close()


def configure_run(endpoint: str, run_type: str) -> TreeHandle:
    """RESOLVE the run type and pin the returned tree identity."""
    connection = _Connection(endpoint)
    try:
        tail, _ = connection.request(f"RESOLVE {run_type}")
        root = parse_identity(tail)
    except BaseException:
        connection.close()
        raise
    return TreeHandle(endpoint, root, connection)


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
        if path != "/" and not all(map(is_valid_name, path.split("/"))):
            raise ConfdbError(f"FETCH entry path {path!r} is not / or names joined by /")
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

    The handle then answers each path of the frame without a request.
    An ``ERR`` answer or a refused frame raises, and the handle GETs each
    path.  The lines are a new list on every call.
    """
    connection = handle._connection
    line = f"FETCH {format_identity(handle.root)}"
    kept = TREE_MEMO.entries.get(line)
    tail, body = connection.request(line, body=True, kept=None if kept is None else kept[1])
    if kept is None or body is not kept[1] or tail != kept[0]:
        try:
            kept = (tail, body, *_frame_answers(tail, body))
        except ConnectionFailureError:
            connection.close()
            raise
        TREE_MEMO.put(line, kept, sys.getsizeof(body))
    handle._answers = kept[3]
    return list(kept[2])


def active_run_types(endpoint: str) -> dict[str, ObjectIdentity]:
    """RUNTYPES as a dict; a convenience for monitoring tools.

    The count of ``OK <count>`` is canonical decimal and equal to the
    number of lines, and no run type is bound twice.
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
            if run_type in bindings:
                raise ConfdbError(f"RUNTYPES binds {run_type!r} twice")
            bindings[run_type] = parse_identity(identity)
        return bindings
    finally:
        connection.close()
