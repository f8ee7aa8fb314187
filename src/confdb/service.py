"""Read-only network front end for the configure transition.

Line-oriented text protocol, UTF-8 with LF endings, one response frame
per request line; multi-line bodies end with a lone ``.`` line::

    PING                     -> OK pong
    TOKEN                    -> OK <token>
    RESOLVE <runtype>        -> OK <identity>
    GET <identity> <path|/>  -> OK <identity> + canonical payload + .
    MANIFEST <identity>      -> OK <count> + manifest lines + .
    FETCH <identity>         -> OK <count> + one entry per manifest line + .
    RUNTYPES                 -> OK <count> + <runtype>TAB<identity> lines + .

``PING``, ``TOKEN`` and ``RUNTYPES`` take no argument, and ``MANIFEST``
and ``FETCH`` take only the identity: any text after it, a lone space
included, is refused with ``ERR 400 malformed-request trailing data``.

A ``TOKEN`` answer names the server: 32 hex digits drawn from
``os.urandom`` once per :class:`ConfigServer`, so the same on every
connection and new after a restart.  A server reads one store, so under
one token a FETCH answer never changes, and a client may keep trees by
token and request line.  Random bytes, unlike a digest, need no
``hashlib``, which would map OpenSSL into a serve child.  The answer
needs no store, so it comes before any catch-up, and it never enters
the frame cache, which keeps only frames that name committed objects.

A FETCH answer carries a whole tree in one frame.  It has one entry per
MANIFEST line, in MANIFEST order, maps included::

    <path> TAB <identity> TAB <byte length> LF <payload bytes>

The length is ASCII decimal with no sign and no leading zero, and the
payload is exactly the body a GET of that path answers, so the lone
``.`` line after the last entry is never met inside one.  A GET that
would refuse any entry, such as a CRC-valid leaf that is not canonical,
makes the whole FETCH answer that same ``ERR``.

A GET answer's payload is the object's record payload, byte for byte:
the path is resolved through its maps once, and a leaf is answered
from its own CRC-checked log bytes, decoded only to check them and
never kept (``Store.payload_bytes``), whether the open or a catch-up
framed it.  A MANIFEST walk reads maps only.  So a server keeps no
decoded leaf, and a CRC-valid leaf that is not canonical is listed by
a MANIFEST while a GET of it answers ``ERR 500``; the requests around
it are answered as before.

Errors are ``ERR <status> <code> [<detail>]`` and never drop the
connection.  The status is 400 for a malformed request, 404 for a
lookup that fails and 500 for a damaged store or an internal fault;
each error class carries its own as ``status``.  An internal fault is
logged with its traceback on the ``confdb.service`` logger.  A request
line longer than ``MAX_REQUEST_LINE`` bytes (its LF included) gets
``ERR 400 line-too-long``; the rest of it is read and dropped.  A
client that resets or closes its connection mid-answer ends only that
connection, quietly.  So, with one warning on ``confdb.service``, do a
client that does not take a whole answer within ``SEND_TIMEOUT_S`` (a
0.49 MB FETCH needs about 16 KB/s or more) and one that sends no bytes
of a request for ``IDLE_TIMEOUT_S``: both are the socket's own timeout,
set before each reply and each read of a request line.  Any other fault
in a connection's handler still reaches ``ConfigServer.handle_error``.

A connection may carry any number of requests, and a client may send
several before reading their answers.  Nagle's algorithm is off on
every connection, so an answer that follows one not yet acknowledged
leaves at once rather than with the client's delayed ACK, which held
it for about 40 ms.  ``ConfigServer.server_close`` shuts every live
connection down, so a connection opened before a stop reads an end of
stream after it and never an answer from the stopped server's store.

Every frame is ``bytes``, built once and sent as it is kept.  A server
answers repeated ``GET``, ``MANIFEST`` and ``FETCH`` lines from one frame
cache shared by all its connections: request line to finished response
frame.  A committed object never changes, so the ``OK`` frame of a GET,
MANIFEST or FETCH naming it is the same for ever, whatever is activated
later.  Only those frames are kept.  ``PING``, ``RESOLVE`` and
``RUNTYPES`` depend on the current generation, and an ``ERR`` frame can
turn into ``OK`` (a root that is committed later), so none of them is
kept.  A hit skips the catch-up, the parse, the lookup and the build;
it is answered even while a damaged log tail would make a miss answer
``ERR 500``, because the kept frame is still the committed answer, byte
for byte.  The cache holds at most ``FRAME_CACHE_BYTES`` (8 MiB),
``sys.getsizeof`` of each line and frame; when the next frame would go
over, the cache is emptied first.

The server performs no writes; activations land through the CLI or
library on the store host and become visible here immediately, while
clients already holding a resolved identity are untouched (immutability
makes every handed-out identity permanently valid).
"""

from __future__ import annotations

import os
import socket
import socketserver
import sys
import threading

from .errors import ConfdbError, MalformedIdentityError, ParseError
from .model import display_path, format_identity, parse_identity
from .store import Store
from .tree import active_trees, resolve_path, resolve_run_type, walk_tree

DEFAULT_ENDPOINT = "127.0.0.1:7401"
MAX_REQUEST_LINE = 64 * 1024
FRAME_CACHE_BYTES = 8 * 2**20
SEND_TIMEOUT_S = 30.0  # for each whole answer to a connection
IDLE_TIMEOUT_S = 300.0  # for each wait for the next bytes of a request


def parse_endpoint(text: str) -> tuple[str, int]:
    """``(host, port)`` from ``host:port``; the port is ASCII decimal, 0 to 65535."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isascii() or not port.isdigit() or int(port) > 65535:
        raise ParseError(f"endpoint must be host:port with a port from 0 to 65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def _err(exc: ConfdbError) -> bytes:
    detail = f" {exc.detail}" if exc.detail else ""
    return f"ERR {exc.status} {exc.code}{detail}\n".encode("utf-8")


def _split_identity_arg(rest: str):
    """Split '<identity> <tail>' where names may contain spaces.

    The identity's single ``]`` (the char is banned inside names) marks
    its end, so everything after ``] `` is the tail.
    """
    end = rest.find("]")
    if end < 0:
        raise MalformedIdentityError(f"missing key brackets: {rest!r}")
    identity = parse_identity(rest[: end + 1])
    tail = rest[end + 1 :]
    if tail.startswith(" "):
        return identity, tail[1:]
    if tail:
        raise MalformedIdentityError(f"trailing data after identity: {rest!r}")
    return identity, None


class BoundedCache:
    """A dict of answers that never change, emptied whole at a byte budget.

    ``entries`` is read without a lock; :meth:`put` takes one.  ``size``
    is the summed cost of every kept entry, as each caller counts it.  An
    entry that costs more than the whole ``budget`` is never kept; any
    other entry that would go over it empties the dict first.
    """

    def __init__(self, budget: int):
        self.entries: dict = {}
        self.size = 0
        self.budget = budget
        self._lock = threading.Lock()

    def put(self, key, value, cost: int) -> None:
        if cost > self.budget:
            return
        with self._lock:
            if key in self.entries:
                return
            if self.size + cost > self.budget:
                self.entries.clear()
                self.size = 0
            self.entries[key] = value
            self.size += cost


class FrameCache(BoundedCache):
    """A server's frame cache, and the random ``token`` that names the server."""

    def __init__(self, budget: int):
        super().__init__(budget)
        self.token = os.urandom(16).hex()


def handle_request(store: Store, line: str, cache: FrameCache) -> bytes:
    """Process one request line into one complete response frame.

    ``cache`` keeps finished ``OK`` frames by request line, and a repeated
    GET, MANIFEST or FETCH is answered from it; its token answers TOKEN.
    """
    frame = cache.entries.get(line)
    if frame is not None:
        return frame
    key = line
    line = line.removesuffix("\n")
    verb, sep, rest = line.partition(" ")
    if sep and verb in ("PING", "TOKEN", "RUNTYPES"):
        return b"ERR 400 malformed-request trailing data\n"
    if verb == "TOKEN":
        return f"OK {cache.token}\n".encode()
    try:
        store.refresh()
        if verb == "PING":
            return b"OK pong\n"
        if verb == "RESOLVE":
            if not rest:
                return b"ERR 400 malformed-request missing run type\n"
            identity = resolve_run_type(store, rest)
            return f"OK {format_identity(identity)}\n".encode("utf-8")
        if verb == "GET":
            identity, path = _split_identity_arg(rest)
            if not path:
                return b"ERR 400 malformed-request missing path\n"
            target = resolve_path(store, identity, path)
            status = f"OK {format_identity(target)}\n".encode("utf-8")
            frame = status + store.payload_bytes(target) + b".\n"
        elif verb in ("MANIFEST", "FETCH"):
            identity, tail = _split_identity_arg(rest)
            if tail is not None:
                return b"ERR 400 malformed-request trailing data\n"
            manifest = walk_tree(store, identity)
            status = f"OK {len(manifest.entries)}\n"
            if verb == "MANIFEST":
                frame = f"{status}{manifest.to_text()}.\n".encode("utf-8")
            else:
                # Each payload is dropped once appended, so the build holds
                # no more than the frame and its one copy into ``bytes``.
                buf = bytearray(status.encode())
                for path, target in manifest.entries:
                    payload = store.payload_bytes(target)
                    head = f"{display_path(path)}\t{format_identity(target)}\t{len(payload)}\n"
                    buf += head.encode("utf-8")
                    buf += payload
                buf += b".\n"
                frame = bytes(buf)
        elif verb == "RUNTYPES":
            bindings = active_trees(store)
            lines = [
                f"{run_type}\t{format_identity(target)}"
                for run_type, target in bindings.items()
            ]
            body = "".join(line + "\n" for line in lines)
            return f"OK {len(lines)}\n{body}.\n".encode("utf-8")
        else:
            return b"ERR 400 unknown-verb\n"
        # Only the OK frames of GET, MANIFEST and FETCH get here: they
        # name committed objects, so they hold for ever.
        cache.put(key, frame, sys.getsizeof(key) + sys.getsizeof(frame))
        return frame
    except ConfdbError as exc:
        return _err(exc)
    except Exception:
        import logging  # on first use, as in Store._recover

        logging.getLogger(__name__).exception("internal fault handling %r", line)
        return b"ERR 500 internal\n"


class _Handler(socketserver.StreamRequestHandler):
    # Two answers in a row, as to a RESOLVE and a TOKEN sent together,
    # would otherwise wait for the client's delayed ACK of the first.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.track(self.connection, True)

    def finish(self):
        self.server.track(self.connection, False)
        super().finish()

    def handle(self):
        try:
            self._serve()
        except ConnectionError:
            # The client reset or closed its end mid-answer: only this
            # connection ends, and nothing is reported.
            pass
        except TimeoutError:
            # A bound ran out: only this connection ends, and its thread.
            import logging  # on first use, as in Store._recover

            what, seconds = self._waiting
            logging.getLogger(__name__).warning(
                "closed %s: " + what, self.client_address, seconds
            )

    def _bound(self, what: str, seconds: float):
        """Bound the next wait on this connection; ``what`` is logged if it runs out."""
        self._waiting = what, seconds
        self.connection.settimeout(seconds)

    def _serve(self):
        dropping = False  # reading the rest of an over-long line
        while True:
            self._bound("no request came for %g s", IDLE_TIMEOUT_S)
            raw = self.rfile.readline(MAX_REQUEST_LINE + 1)
            if not raw:
                return
            if dropping:
                dropping = not raw.endswith(b"\n")
                continue
            if len(raw) > MAX_REQUEST_LINE:
                dropping = not raw.endswith(b"\n")
                self._reply(b"ERR 400 line-too-long\n")
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                self._reply(b"ERR 400 malformed-request not utf-8\n")
                continue
            self._reply(handle_request(self.server.store, line, self.server.cache))

    def _reply(self, frame: bytes):
        # One deadline for the whole answer, however slowly it is read.
        self._bound("an answer was not read within %g s", SEND_TIMEOUT_S)
        self.wfile.write(frame)


class ConfigServer(socketserver.ThreadingTCPServer):
    """One handler thread per connection; all share the store, one frame cache and its token."""

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, store: Store, endpoint: str = DEFAULT_ENDPOINT):
        self.store = store
        self.cache = FrameCache(FRAME_CACHE_BYTES)
        self._live: set | None = set()  # each connection's socket; None once closed
        self._live_lock = threading.Lock()
        super().__init__(parse_endpoint(endpoint), _Handler)

    def track(self, sock, live: bool) -> None:
        """Add a connection's socket to the live set, or remove it.

        One added after :meth:`server_close` is shut down at once.
        """
        with self._live_lock:
            if self._live is None:
                if live:
                    _shut(sock)
            elif live:
                self._live.add(sock)
            else:
                self._live.discard(sock)

    def server_close(self):
        """Close the listening socket, and shut every live connection down.

        Each handler then reads an end of stream and ends, and each
        client reads one, so no connection answers after the stop.
        """
        super().server_close()
        with self._live_lock:
            live, self._live = self._live or (), None
            for sock in live:
                _shut(sock)

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"


def _shut(sock) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # the client already closed its end
        pass


def start_server(store: Store, endpoint: str = DEFAULT_ENDPOINT) -> ConfigServer:
    """Bind and serve in a background thread; caller shuts down."""
    server = ConfigServer(store, endpoint)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return server
