"""Exception hierarchy shared by all confdb layers.

Every error carries a stable kebab-case ``code`` that survives the wire
protocol, and the HTTP-like ``status`` the server reports it with: the
server sends ``ERR <status> <code> [<detail>]`` and the client re-raises
the matching exception class on its side.  Every error class derives
directly from ``ConfdbError``, which is how ``ERROR_BY_CODE`` finds it.
"""

from __future__ import annotations


class ConfdbError(Exception):
    """Base class for all confdb errors."""

    code = "error"
    status = 404  # the wire status; lookups that fail are the common case

    def __init__(self, message: str = "", detail: str | None = None):
        super().__init__(message or self.code)
        self.detail = detail


class MalformedIdentityError(ConfdbError):
    code = "malformed-identity"
    status = 400


class MalformedPayloadError(ConfdbError):
    code = "malformed-payload"
    status = 400


class InvalidNameError(ConfdbError):
    code = "invalid-name"
    status = 400


class InvalidPayloadError(ConfdbError):
    code = "invalid-payload"


class CorruptLogError(ConfdbError):
    code = "corrupt-log"
    status = 500


class DanglingLinkError(ConfdbError):
    code = "dangling-link"


class TransactionClosedError(ConfdbError):
    code = "txn-closed"


class NotFoundError(ConfdbError):
    code = "not-found"


class NoSuchLinkError(ConfdbError):
    code = "no-such-link"


class NotAMapError(ConfdbError):
    code = "not-a-map"


class DepthExceededError(ConfdbError):
    code = "depth-exceeded"


class NoActiveMapError(ConfdbError):
    code = "no-active-map"


class UnknownRunTypeError(ConfdbError):
    code = "unknown-run-type"


class NoSuchNodeError(ConfdbError):
    code = "no-such-node"


class DuplicateNameError(ConfdbError):
    code = "duplicate-name"


class NotAMapAliasError(ConfdbError):
    code = "not-a-map-alias"


class NameIsMapAliasError(ConfdbError):
    code = "name-is-map-alias"


class CannotRemoveRootError(ConfdbError):
    code = "cannot-remove-root"


class NoSuchAliasError(ConfdbError):
    code = "no-such-alias"


class DanglingAliasTargetError(ConfdbError):
    code = "dangling-alias-target"


class DuplicateRegistrationError(ConfdbError):
    code = "duplicate-registration"


class NoProxyError(ConfdbError):
    code = "no-proxy"


class ConnectionFailureError(ConfdbError):
    code = "connection-failure"


class ParseError(ConfdbError):
    code = "parse-error"
    status = 400


ERROR_BY_CODE = {cls.code: cls for cls in ConfdbError.__subclasses__()}


def error_for_code(code: str, message: str = "") -> ConfdbError:
    """Reconstruct the exception class matching a wire error code."""
    cls = ERROR_BY_CODE.get(code, ConfdbError)
    return cls(message or code)
