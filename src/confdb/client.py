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

Each client process keeps one memo, ``PAYLOAD_MEMO``, from the payload
bytes of a GET answer to the :class:`Payload` that ``decode_payload``
made of them, so :func:`fetch_raw` decodes each distinct payload once,
canonical re-encode backstop included, however many GETs return it.  A
hit returns exactly what a decode would: ``decode_payload`` is a pure
function of the bytes and a ``Payload`` is immutable.  Bytes that fail
to decode are never kept, so they raise again on every fetch.  Only
that decode is memoised; a :class:`ProxyDictionary` decoder runs on
every :func:`fetch_object`, since what it returns may be mutable.  The
memo holds at most ``PAYLOAD_MEMO_BYTES`` (2 MiB) of payload text,
``sys.getsizeof`` of each kept key, and is emptied whole when the next
payload would go over.  The decoded values cost about 4.6 times their
text (measured with ``tracemalloc``, the 1,029 distinct payloads of the
benchmark's configure workload are 441 KB of text and 2.0 MB of decoded
values), so a full memo holds about 11 MiB.
"""

from __future__ import annotations

import socket
import sys

from .errors import (
    ConfdbError,
    ConnectionFailureError,
    DuplicateRegistrationError,
    MalformedPayloadError,
    NoProxyError,
    error_for_code,
)
from .model import ObjectIdentity, Payload, decode_payload, format_identity, parse_identity, validate_name
from .service import BoundedCache, parse_endpoint

PAYLOAD_MEMO_BYTES = 2 * 2**20
PAYLOAD_MEMO = BoundedCache(lambda: PAYLOAD_MEMO_BYTES)


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
    """One line-oriented protocol connection."""

    def __init__(self, endpoint: str):
        host, port = parse_endpoint(endpoint)
        try:
            self._sock = socket.create_connection((host, port), timeout=30)
        except OSError as exc:
            raise ConnectionFailureError(f"cannot connect to {endpoint}: {exc}") from exc
        self._rfile = self._sock.makefile("rb")

    def close(self):
        try:
            self._rfile.close()
            self._sock.close()
        except OSError:
            pass

    def _read_line(self) -> bytes:
        try:
            raw = self._rfile.readline()
        except OSError as exc:
            # The rest of the answer is unread, so the connection is given up.
            self.close()
            raise ConnectionFailureError(f"read failed: {exc}") from exc
        if not raw:
            raise ConnectionFailureError("connection closed by server")
        return raw

    def request(self, line: str, body: bool = False) -> tuple[str, bytes]:
        """Send one request; return (ok_tail, body bytes before the lone ``.``)."""
        try:
            self._sock.sendall((line + "\n").encode("utf-8"))
        except OSError as exc:
            raise ConnectionFailureError(f"send failed: {exc}") from exc
        raw = self._read_line()
        # A refused status line leaves an answer of unknown length unread,
        # so the connection is given up rather than read out of step.
        try:
            status = raw.decode("utf-8").rstrip("\n")
        except UnicodeDecodeError:
            self.close()
            raise ConfdbError(f"response is not UTF-8: {raw!r}") from None
        if status.startswith("ERR "):
            parts = status.split(" ", 2)
            code_name = parts[2].split(" ", 1)[0] if len(parts) > 2 else "error"
            raise error_for_code(code_name, status)
        if not status.startswith("OK"):
            self.close()
            raise ConfdbError(f"unexpected response: {status!r}")
        tail = status[3:] if status.startswith("OK ") else ""
        lines = []
        if body:
            while True:
                raw = self._read_line()
                if raw == b".\n":
                    break
                lines.append(raw)
        return tail, b"".join(lines)


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
    identity = parse_identity(tail)
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
