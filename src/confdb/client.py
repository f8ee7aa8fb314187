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
failed send, a status line that is not UTF-8 or not ``OK``/``ERR``, a
failed or timed-out receive (``TIMEOUT_S``, the socket's own timeout)
and an end of stream in mid-answer each give the connection up, so a
later request on it fails at once with :class:`ConnectionFailureError`.

A handle that listed its tree reads it whole.  :func:`fetch_manifest`
keeps the listed paths on the handle, and the handle's first
:func:`fetch_raw` of a listed path sends one ``FETCH``: one frame with
the GET answer of every listed path.  The handle checks the whole frame
and answers every listed path from it, each decoded through the memo
below under the key its GET answer would have, so the parse, the decode
and every error are a GET's.  A frame is refused with a
:class:`ConfdbError`, and the memos are left as they were, when its
count, a path or an identity differs from the listing, a path repeats,
a length is not plain ASCII decimal, bytes follow the last entry, or a
payload does not decode; an entry that runs past the terminator also
gives the connection up.  A path the handle did not list, a handle that
never listed, and a ``FETCH`` answered with ``ERR`` (an older server's
``unknown-verb``, or a tree with a leaf that a GET would refuse) are
answered by one GET per path, as before.  A handle sends at most one
``FETCH``.  On the benchmark's configure store a transition is 3
requests, not 1,010, but a listed handle that reads a single leaf waits
for the whole 0.47 MB frame: 3.2 ms against 0.03 ms for one GET
(single client, serve child on the same host).  So a handle that reads
only a few leaves should not call :func:`fetch_manifest` first.

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

A second memo, ``TREE_MEMO``, keeps whole-tree answers by their exact
bytes, so a repeated transition checks and decodes nothing again.  A
MANIFEST body, under ``("MANIFEST", body)``, maps to its lines and the
``{path: identity text}`` listing a handle keeps; :func:`fetch_manifest`
returns a new list of the lines on every call.  A FETCH answer, under
``(count, body)``, maps to the listing its frame was checked against and
to ``{path: (ObjectIdentity, Payload)}``, made through ``GET_MEMO`` so
that equal answers share one decoded pair.  A FETCH hit counts only
when that listing is the handle's own or equal to it: the check is a
pure function of the listing, the count and the body, so a hit answers
exactly what a full check and decode would.  Any other answer is
checked in full and kept only when its frame is accepted, so a refused
frame, a frame cut short and an ``ERR`` answer are never kept, and
every refusal and fallback to GET is as before.  Then :func:`fetch_raw`
of a listed path is one lookup in the handle's decoded map.  The memo
shares the ``GET_MEMO_BYTES`` budget rule, each kept answer costing
only ``sys.getsizeof`` of its body, and is emptied whole as
``GET_MEMO`` is.  One benchmark detector tree costs 0.49 MB of FETCH
body and 31 KB of MANIFEST body.  Measured with ``tracemalloc`` after
one transition per run type on the seed-1 store, the memo holds
1.72 MB beyond ``GET_MEMO``'s 3.16 MB: two bodies of each kind
(1.05 MB as counted), the lines, the listings and the decoded maps; so
a full memo holds about 3.4 MB.  Over a 10 s run of the
benchmark's configure workload, 440 of its 442 MANIFEST answers and
440 of its 442 FETCH answers (99.5%) repeated an earlier answer byte
for byte; the operator workload makes no client handle, so it never
uses the memo.
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
from .model import ObjectIdentity, Payload, decode_payload, format_identity, parse_identity, validate_name
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

    def _find(self, buf, sep: bytes, start: int):
        """Receive into ``buf`` until ``sep`` occurs at or after ``start``; return both.

        Each receive resumes the search where the last one stopped, less
        the length of a ``sep`` cut by the receive.  A read failure or an
        end of stream leaves the rest of the answer unread, so the
        connection is given up.
        """
        at = buf.find(sep, start)
        while at < 0:
            start = max(start, len(buf) - len(sep) + 1)
            try:
                chunk = self._sock.recv(RECV_BYTES)
            except OSError as exc:
                self.close()
                raise ConnectionFailureError(f"read failed: {exc}") from exc
            if not chunk:
                self.close()
                raise ConnectionFailureError("connection closed by server")
            if buf:
                if type(buf) is bytes:
                    buf = bytearray(buf)  # grows in place from here on
                buf += chunk
            else:
                buf = chunk
            at = buf.find(sep, start)
        return buf, at

    def request(self, line: str, body: bool = False) -> tuple[str, bytes]:
        """Send one request; return (ok_tail, body bytes before the lone ``.``).

        A line break in ``line`` would send two requests and read their
        answers out of step, so such a line is refused before it is sent.
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
            raise ConfdbError(f"response is not UTF-8: {bytes(buf[: eol + 1])!r}") from None
        if status.startswith("ERR "):
            self._buf = bytes(buf[eol + 1 :])
            parts = status.split(" ", 2)
            code_name = parts[2].split(" ", 1)[0] if len(parts) > 2 else "error"
            raise error_for_code(code_name, status)
        if not status.startswith("OK"):
            self.close()
            raise ConfdbError(f"unexpected response: {status!r}")
        tail = status[3:] if status.startswith("OK ") else ""
        if not body:
            self._buf = bytes(buf[eol + 1 :])
            return tail, b""
        # The body ends at its first line that is a lone ".": the search
        # starts at the status line's LF, so an empty body is "\n.\n" too.
        buf, end = self._find(buf, b"\n.\n", eol)
        self._buf = bytes(buf[end + 3 :])
        # Through a view, a body is copied once: a bytearray's slice is a copy.
        return tail, bytes(memoryview(buf)[eol + 1 : end + 1])


def _body_lines(body: bytes) -> list[str]:
    """The lines of a MANIFEST or RUNTYPES body."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedPayloadError("response body is not valid UTF-8") from None
    return text.split("\n")[:-1]


class TreeHandle:
    """A resolved configuration tree; owns one connection.

    ``_listed`` maps each path of the handle's last MANIFEST to its
    identity text.  ``_answers`` is ``None`` until the handle sends its
    one FETCH; then it maps each listed path to the ``(ObjectIdentity,
    Payload)`` pair its GET answer in the FETCH frame decodes to, and it
    is empty when the FETCH was refused or its frame was malformed.  Both
    may be shared with ``TREE_MEMO`` and other handles, so neither is
    ever changed in place.
    """

    def __init__(self, endpoint: str, root: ObjectIdentity, connection: _Connection):
        self.endpoint = endpoint
        self.root = root
        self._connection = connection
        self._get_prefix = f"GET {format_identity(root)} "
        self._listed: dict[str, str] = {}
        self._answers: dict[str, tuple[ObjectIdentity, Payload]] | None = None

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


def _cut_short(handle: TreeHandle, at: int):
    """Refuse a FETCH frame whose entries run past its terminator, at byte ``at``.

    The terminator came before the last entry ended, so where the answer
    ends is unknown: the connection is given up, as for a refused status
    line.
    """
    handle._connection.close()
    raise ConfdbError(f"FETCH entry at byte {at} is cut short")


def _frame_answers(
    handle: TreeHandle, count: str, body: bytes
) -> dict[str, tuple[ObjectIdentity, Payload]]:
    """What the GET answers a FETCH frame carries decode to, by path, once every entry is checked.

    The frame must list exactly the handle's listed paths, each once with
    its identity, and every payload must parse and decode as a GET
    answer's would.  Each answer ``GET_MEMO`` lacks is decoded once,
    however many paths share it, and put in the memo only once the whole
    frame is checked, so a frame that is refused leaves the memo as it
    was.
    """
    listed = handle._listed
    if count != str(len(listed)):
        raise ConfdbError(f"FETCH frame of {count!r} entries for {len(listed)} listed paths")
    answers, new, at = {}, {}, 0
    memo = GET_MEMO.entries
    for _ in listed:
        eol = body.find(b"\n", at)
        if eol < 0:
            _cut_short(handle, at)
        try:
            path, identity, length = body[at:eol].decode("utf-8").split("\t")
            size = int(length)
        except ValueError:  # UnicodeDecodeError included
            raise ConfdbError(f"FETCH entry at byte {at} is not path, identity, length") from None
        # Only plain ASCII decimal is canonical: no sign, space, "_" or leading 0.
        if size < 0 or str(size) != length:
            raise ConfdbError(f"FETCH entry {path!r} has a bad length {length!r}")
        start, at = eol + 1, eol + 1 + size
        if at > len(body):
            _cut_short(handle, start)
        if listed.get(path) != identity or path in answers:
            raise ConfdbError(f"FETCH entry {path!r} {identity!r} is not a listed path, once")
        answer = identity, body[start:at]
        raw = memo.get(answer) or new.get(answer)
        if raw is None:
            raw = new[answer] = _decoded(answer)
        answers[path] = raw
    if at != len(body):
        raise ConfdbError(f"{len(body) - at} bytes after the last FETCH entry")
    for answer, raw in new.items():
        GET_MEMO.put(answer, raw, _memo_cost(answer))
    return answers


def _fetch_tree(handle: TreeHandle) -> dict[str, tuple[ObjectIdentity, Payload]]:
    """Send the handle's one FETCH; what it answers by path, or ``{}`` to GET each path.

    An ``ERR`` answer leaves the connection in step: an older server's
    ``unknown-verb``, or a tree holding a leaf that a GET would refuse,
    so the handle GETs each path and every answer and error is a GET's.
    A frame ``TREE_MEMO`` kept is checked again only when the listing it
    was checked against is not the handle's; a kept MANIFEST's value is
    never equal to a listing, so it cannot pass for a FETCH's.
    """
    handle._answers = {}
    connection = handle._connection
    try:
        count, body = connection.request(f"FETCH {format_identity(handle.root)}", body=True)
    except ConfdbError:
        if connection._sock.fileno() == -1:  # given up: no GET would be answered
            raise
        return {}
    key = count, body
    kept = TREE_MEMO.entries.get(key)
    if kept is not None and (kept[0] is handle._listed or kept[0] == handle._listed):
        handle._answers = kept[1]
    else:
        handle._answers = _frame_answers(handle, count, body)
        TREE_MEMO.put(key, (handle._listed, handle._answers), sys.getsizeof(body))
    return handle._answers


def fetch_raw(handle: TreeHandle, path: str) -> tuple[ObjectIdentity, Payload]:
    """GET one object by path; returns (identity, payload) undecoded.

    A path that the handle's MANIFEST listed is answered from the
    handle's one FETCH frame, sent on the first such call.
    """
    path = path or "/"
    answers = handle._answers
    if answers is None and path in handle._listed:
        answers = _fetch_tree(handle)
    raw = answers.get(path) if answers else None
    if raw is None:
        raw = _memoised(handle._connection.request(handle._get_prefix + path, body=True))
    return raw


def fetch_object(handle: TreeHandle, proxies: ProxyDictionary, path: str):
    """GET one object and decode it with the proxy for its class name."""
    identity, payload = fetch_raw(handle, path)
    decoder = proxies.decoder_for(identity.class_name)
    return decoder(payload)


def fetch_manifest(handle: TreeHandle) -> list[str]:
    """MANIFEST lines for the handle's tree; the handle keeps the paths they list.

    The lines are a new list on every call; the listing is kept by
    ``TREE_MEMO`` and shared.
    """
    _, body = handle._connection.request(
        f"MANIFEST {format_identity(handle.root)}", body=True
    )
    key = "MANIFEST", body
    kept = TREE_MEMO.entries.get(key)
    if kept is None:
        lines = tuple(_body_lines(body))
        kept = lines, dict(line.split("\t", 1) for line in lines if "\t" in line)
        TREE_MEMO.put(key, kept, sys.getsizeof(body))
    lines, handle._listed = kept
    return list(lines)


def active_run_types(endpoint: str) -> dict[str, ObjectIdentity]:
    """RUNTYPES as a dict; a convenience for monitoring tools."""
    connection = _Connection(endpoint)
    try:
        _, body = connection.request("RUNTYPES", body=True)
        bindings = {}
        for line in _body_lines(body):
            run_type, _, identity = line.partition("\t")
            bindings[run_type] = parse_identity(identity)
        return bindings
    finally:
        connection.close()
