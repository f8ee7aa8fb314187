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
status line that is not UTF-8 or not ``OK``/``ERR``, a failed or
timed-out receive (``TIMEOUT_S``) and an end of stream in mid-answer
each give the connection up, so a later request on it fails at once
with :class:`ConnectionFailureError`.

Each client process keeps two memos.  ``PAYLOAD_MEMO`` maps the payload
bytes of a GET answer to the :class:`Payload` that ``decode_payload``
made of them, so :func:`fetch_raw` decodes each distinct payload once,
canonical-form check included, however many GETs return it.
``IDENTITY_MEMO`` maps the identity text of a GET's status line to the
:class:`ObjectIdentity` that ``parse_identity`` made of it.  A hit
returns exactly what a parse or decode would: both are pure functions
of their input, and what they return is immutable.  Input that fails
to parse or decode is never kept, so it raises again on every fetch.
Only those two steps are memoised; a :class:`ProxyDictionary` decoder
runs on every :func:`fetch_object`, since what it returns may be
mutable.  The identity memo pays off when one process GETs the same
objects again, as each transition after the first does: over one run of
the benchmark's configure workload, 875,931 of its 876,960 GETs (99.9%)
carried an identity text that an earlier GET had carried.

Each memo holds at most ``PAYLOAD_MEMO_BYTES`` (2 MiB) of key text,
``sys.getsizeof`` of each kept key, and is emptied whole when the next
key would go over.  Measured with ``tracemalloc`` on the 1,029 distinct
objects of the benchmark's configure workload, the payloads are 441 KB
of text and 2.0 MB of decoded values, and the identity texts 69 KB, 270
KB with their identities; so a full payload memo holds about 11 MiB and
a full identity memo about 8 MiB.
"""

from __future__ import annotations

import socket
import struct
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

PAYLOAD_MEMO_BYTES = 2 * 2**20
PAYLOAD_MEMO = BoundedCache(lambda: PAYLOAD_MEMO_BYTES)
IDENTITY_MEMO = BoundedCache(lambda: PAYLOAD_MEMO_BYTES)
RECV_BYTES = 65536
TIMEOUT_S = 30.0  # for the connect and for each send and receive


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
        # Each send and receive keeps the same bound, held by the kernel: a
        # Python-side timeout polls before every call, one more system call
        # and GIL release per send and per receive.
        seconds, fraction = divmod(TIMEOUT_S, 1)
        bound = struct.pack("ll", int(seconds), int(fraction * 1e6))
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, bound)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, bound)
        self._sock.settimeout(None)
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
        return tail, bytes(buf[eol + 1 : end + 1])


def _body_lines(body: bytes) -> list[str]:
    """The lines of a MANIFEST or RUNTYPES body."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedPayloadError("response body is not valid UTF-8") from None
    return text.split("\n")[:-1]


class TreeHandle:
    """A resolved configuration tree; owns one connection."""

    def __init__(self, endpoint: str, root: ObjectIdentity, connection: _Connection):
        self.endpoint = endpoint
        self.root = root
        self._connection = connection
        self._get_prefix = f"GET {format_identity(root)} "

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


def fetch_raw(handle: TreeHandle, path: str) -> tuple[ObjectIdentity, Payload]:
    """GET one object by path; returns (identity, payload) undecoded."""
    tail, body = handle._connection.request(handle._get_prefix + (path or "/"), body=True)
    identity = IDENTITY_MEMO.entries.get(tail)
    if identity is None:
        identity = parse_identity(tail)
        IDENTITY_MEMO.put(tail, identity, sys.getsizeof(tail))
    payload = PAYLOAD_MEMO.entries.get(body)
    if payload is None:
        payload = decode_payload(body)
        PAYLOAD_MEMO.put(body, payload, sys.getsizeof(body))
    return identity, payload


def fetch_object(handle: TreeHandle, proxies: ProxyDictionary, path: str):
    """GET one object and decode it with the proxy for its class name."""
    identity, payload = fetch_raw(handle, path)
    decoder = proxies.decoder_for(identity.class_name)
    return decoder(payload)


def fetch_manifest(handle: TreeHandle) -> list[str]:
    """MANIFEST lines for the handle's tree."""
    _, body = handle._connection.request(
        f"MANIFEST {format_identity(handle.root)}", body=True
    )
    return _body_lines(body)


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
