r"""Identities, payload values, canonical encoding, and digests.

Everything stored by confdb is addressed by an :class:`ObjectIdentity`
(class name, optional secondary key, numeric config key) and carries a
:class:`Payload` of one of three kinds:

* ``leaf``     -- named typed fields (the actual settings),
* ``map``      -- named links to other object identities,
* ``runtypes`` -- run-type name to tree-root bindings.

Payloads have exactly one canonical byte encoding, the text the log
stores and the key of payload equality: UTF-8 text, LF line endings, a
``kind=<kind>`` first line, then one ``<name>=<value>`` line per entry in
UTF-8 byte order of the names.  Valid names hold no surrogates, so that
is their code-point order, plain ``str`` order, which is the name order
used throughout confdb.  Scalar leaf values are tagged ``i:`` / ``f:`` /
``s:`` / ``x:`` (int, float, string, bytes); homogeneous arrays use
``<tag>[v1,v2,...]``.  Ints print in decimal as ``str`` writes them.
Floats print as shortest lowercase hex-floats (``0x1.c2p+10``) so the
encoding is bit-exact; NaN keeps its raw bit pattern as ``nan:<16 hex
digits>``.  Bytes print as lowercase hex.  A string is double-quoted;
``"``, ``\`` and every character below 0x20 appear in it only escaped,
as ``\"``, ``\\`` and ``\x`` with two lowercase hex digits (``\x0a``
for a newline), and no other character is escaped.  ``decode_payload``
accepts exactly the image of ``encode_payload`` and nothing else.  It
keeps that promise by grammar: each tag's parser accepts only the
canonical text of its values (no ``+1``, ``01``, upper-case hex or
second spelling of a float), so decoding re-encodes nothing.

Decoding checks every invariant as it parses, so it builds its values
through private constructors that skip the public constructors'
re-validation.  Given :class:`DecodeTables`, many decodes share what
repeats: one string per distinct name, one :class:`ObjectIdentity` per
identity text and one ``(name, identity)`` pair per link line.  A
store handle decodes each log record once, canonical check included,
through its one set of tables, on the record's first read (see
``confdb.store``).
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from operator import itemgetter

from .errors import InvalidNameError, MalformedIdentityError, MalformedPayloadError

KIND_LEAF = "leaf"
KIND_MAP = "map"
KIND_RUNTYPES = "runtypes"
KINDS = (KIND_LEAF, KIND_MAP, KIND_RUNTYPES)

# `:[]/` keep identity and path text unambiguous; `=` keeps the entry-line
# grammar unambiguous; tab/newline keep the framing unambiguous.
RESERVED_NAME_CHARS = frozenset(":[]/=\t\n")

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_VALUE_TAGS = "ifsx"


def is_valid_name(name: str) -> bool:
    """True if ``name`` is usable as a class/secondary/link/run-type name."""
    if not isinstance(name, str) or not name:
        return False
    return name.isprintable() and RESERVED_NAME_CHARS.isdisjoint(name)


def validate_name(name: str, what: str = "name") -> str:
    if not is_valid_name(name):
        raise InvalidNameError(f"invalid {what}: {name!r}")
    return name


# Private constructors for values whose invariants are already proved.
_new_object = object.__new__
_set_field = object.__setattr__


@dataclass(frozen=True, slots=True)
class ObjectIdentity:
    """The universal handle: (class name, optional secondary key, config key)."""

    class_name: str
    secondary_key: str | None
    config_key: int

    def __post_init__(self):
        validate_name(self.class_name, "class name")
        if self.secondary_key is not None:
            validate_name(self.secondary_key, "secondary key")
        if isinstance(self.config_key, bool) or not isinstance(self.config_key, int):
            raise MalformedIdentityError(f"config key must be an int: {self.config_key!r}")
        if self.config_key < 1:
            raise MalformedIdentityError(f"config key must be >= 1: {self.config_key}")

    def __str__(self) -> str:
        return format_identity(self)


def format_identity(identity: ObjectIdentity) -> str:
    """Render ``Class:Secondary[Key]``, or ``Class[Key]`` without a secondary."""
    if identity.secondary_key is None:
        return f"{identity.class_name}[{identity.config_key}]"
    return f"{identity.class_name}:{identity.secondary_key}[{identity.config_key}]"


def _identity(class_name: str, secondary_key: str | None, config_key: int) -> ObjectIdentity:
    """An identity from parts already checked; skips ``__post_init__``."""
    identity = _new_object(ObjectIdentity)
    _set_field(identity, "class_name", class_name)
    _set_field(identity, "secondary_key", secondary_key)
    _set_field(identity, "config_key", config_key)
    return identity


def _interned_name(name: str, names: dict) -> str | None:
    """The table's copy of ``name`` if it is valid, else None.

    A name enters ``names`` only once :func:`is_valid_name` has passed, so
    a hit needs no check.
    """
    interned = names.get(name)
    if interned is None and is_valid_name(name):
        names[name] = interned = name
    return interned


def canonical_int(text: str) -> int | None:
    """The int that ``str`` writes as exactly ``text``, else None.

    ``int()`` alone also reads ``+1``, ``1_0``, ``01``, text with spaces
    around it and non-ASCII digits such as ``"١"``.
    """
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def parse_identity(text: str, names: dict | None = None) -> ObjectIdentity:
    """Inverse of :func:`format_identity`; rejects anything non-canonical.

    With ``names`` (see :class:`DecodeTables`) the class name and the
    secondary key are taken from, and added to, that name table.
    """
    if not isinstance(text, str) or not text.endswith("]"):
        raise MalformedIdentityError(f"missing key brackets: {text!r}")
    open_idx = text.find("[")
    if open_idx < 0 or text.index("]") != len(text) - 1:
        raise MalformedIdentityError(f"missing key brackets: {text!r}")
    key = canonical_int(text[open_idx + 1 : -1])
    if key is None:
        raise MalformedIdentityError(f"bad config key: {text!r}")
    if key < 1:
        raise MalformedIdentityError(f"config key must be >= 1: {text!r}")
    if names is None:
        names = {}
    class_name, sep, secondary = text[:open_idx].partition(":")
    class_name = _interned_name(class_name, names)
    if sep:
        secondary = _interned_name(secondary, names)
        if class_name is None or secondary is None:
            raise MalformedIdentityError(f"bad identity names: {text!r}")
        return _identity(class_name, secondary, key)
    if class_name is None:
        raise MalformedIdentityError(f"bad class name: {text!r}")
    return _identity(class_name, None, key)


class DecodeTables:
    """Intern tables that let many decodes share the values that repeat.

    ``names`` maps each valid name seen (entry names, class names and
    secondary keys) to one shared string; it grows only with distinct
    names.  ``identities`` maps identity text to one shared
    :class:`ObjectIdentity`, for a record's own identity and every link
    to it, and ``links`` maps a map or run-type entry line to one shared
    ``(name, identity)`` pair, so the versions of a map share the links
    they keep.  Both grow with the objects decoded.  ``stamps`` maps a
    log record's creation-stamp bytes to one shared int, and ``pairs``
    maps an identity's prefix bytes (``Class[`` or ``Class:Secondary[``)
    to one shared ``(class name, secondary key)`` tuple; they grow only
    with distinct stamps and pairs.  A store handle keeps one set for its
    lifetime and reads every log record through it: the open and every
    catch-up, which frame each record, check its pair and stamp through
    ``pairs`` and ``stamps``; a record's first read decodes it whole.
    ``confdb fsck`` reads the log through one set the same way, and
    empties ``identities`` and ``links`` after each read of a chunk.
    """

    __slots__ = ("names", "identities", "links", "stamps", "pairs")

    def __init__(self):
        self.names: dict[str, str] = {}
        self.identities: dict[str, ObjectIdentity] = {}
        self.links: dict[str, tuple] = {}
        self.stamps: dict[bytes, int] = {}
        self.pairs: dict[bytes, tuple] = {}

    def identity(self, text: str) -> ObjectIdentity:
        """The shared identity for ``text``; parses it on first sight."""
        identity = self.identities.get(text)
        if identity is None:
            identity = self.identities[text] = parse_identity(text, self.names)
        return identity

    def stamp(self, raw: bytes) -> int:
        """The shared creation stamp for ``raw``; parses it on first sight."""
        created_at = self.stamps.get(raw)
        if created_at is None:
            created_at = canonical_int(raw.decode("ascii"))
            if created_at is None:
                raise ValueError(f"bad creation stamp: {raw!r}")
            self.stamps[raw] = created_at
        return created_at


@dataclass(frozen=True, slots=True)
class Array:
    """Homogeneous, non-empty, non-nested array of leaf scalars.

    ``elem`` is the element tag: ``i`` int, ``f`` float, ``s`` string,
    ``x`` bytes.  Emptiness is rejected because the canonical text for an
    empty array would collide with other encodings.
    """

    elem: str
    items: tuple

    def __post_init__(self):
        if self.elem not in _VALUE_TAGS:
            raise MalformedPayloadError(f"unknown array element tag: {self.elem!r}")
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise MalformedPayloadError("arrays must be non-empty")
        for item in self.items:
            _check_scalar(self.elem, item)


def _array(elem: str, items: tuple) -> Array:
    """An array of items already parsed as ``elem``; skips ``__post_init__``."""
    array = _new_object(Array)
    _set_field(array, "elem", elem)
    _set_field(array, "items", items)
    return array


def _check_scalar(tag: str, value) -> None:
    if tag == "i":
        if isinstance(value, bool) or not isinstance(value, int):
            raise MalformedPayloadError(f"expected int, got {value!r}")
        if not INT64_MIN <= value <= INT64_MAX:
            raise MalformedPayloadError(f"int out of 64-bit range: {value}")
    elif tag == "f":
        if not isinstance(value, float):
            raise MalformedPayloadError(f"expected float, got {value!r}")
    elif tag == "s":
        if not isinstance(value, str):
            raise MalformedPayloadError(f"expected str, got {value!r}")
        try:
            value.encode("utf-8")  # a lone surrogate has no UTF-8 encoding
        except UnicodeEncodeError:
            raise MalformedPayloadError(f"string is not encodable as UTF-8: {value!r}") from None
    elif tag == "x":
        if not isinstance(value, bytes):
            raise MalformedPayloadError(f"expected bytes, got {value!r}")


def _scalar_tag(value) -> str:
    if isinstance(value, bool):
        raise MalformedPayloadError(f"bool is not a leaf value: {value!r}")
    if isinstance(value, int):
        return "i"
    if isinstance(value, float):
        return "f"
    if isinstance(value, str):
        return "s"
    if isinstance(value, bytes):
        return "x"
    raise MalformedPayloadError(f"unsupported leaf value: {value!r}")


@dataclass(frozen=True, eq=False, slots=True)
class Payload:
    """Immutable payload: kind plus entries sorted by UTF-8 name bytes.

    Equality and hashing go through the canonical encoding, so two
    payloads are equal exactly when their digests are equal (NaN fields
    with identical bit patterns compare equal, +0.0 and -0.0 do not).
    """

    kind: str
    entries: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MalformedPayloadError(f"unknown payload kind: {self.kind!r}")
        # Entries that already are tuples are kept, not copied, so payloads
        # made from another payload's entries share their pairs.
        items = [entry if type(entry) is tuple else tuple(entry) for entry in self.entries]
        seen = set()
        for name, value in items:
            validate_name(name, f"{self.kind} entry name")
            if name in seen:
                raise MalformedPayloadError(f"duplicate entry name: {name!r}")
            seen.add(name)
            if self.kind == KIND_LEAF:
                if not isinstance(value, Array):
                    _check_scalar(_scalar_tag(value), value)
            elif not isinstance(value, ObjectIdentity):
                raise MalformedPayloadError(
                    f"{self.kind} entries must link to identities: {value!r}"
                )
        items.sort(key=itemgetter(0))
        object.__setattr__(self, "entries", tuple(items))

    @classmethod
    def leaf(cls, fields) -> "Payload":
        return cls(KIND_LEAF, tuple(_pairs(fields)))

    @classmethod
    def map(cls, links) -> "Payload":
        return cls(KIND_MAP, tuple(_pairs(links)))

    @classmethod
    def runtypes(cls, bindings) -> "Payload":
        return cls(KIND_RUNTYPES, tuple(_pairs(bindings)))

    def names(self) -> tuple:
        return tuple(name for name, _ in self.entries)

    def get(self, name: str):
        for entry_name, value in self.entries:
            if entry_name == name:
                return value
        raise KeyError(name)

    @property
    def fields(self) -> dict:
        assert self.kind == KIND_LEAF
        return dict(self.entries)

    @property
    def links(self) -> dict:
        assert self.kind == KIND_MAP
        return dict(self.entries)

    @property
    def bindings(self) -> dict:
        assert self.kind == KIND_RUNTYPES
        return dict(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        return encode_payload(self) == encode_payload(other)

    def __hash__(self) -> int:
        return hash(encode_payload(self))

    def __repr__(self) -> str:
        return f"Payload({self.kind}, {dict(self.entries)!r})"


def _payload(kind: str, entries: tuple) -> Payload:
    """A payload whose invariants the decoder has proved; skips ``__post_init__``.

    ``entries`` must be a tuple of ``(name, value)`` tuples with valid names
    in strictly ascending UTF-8 order and values legal for ``kind``.
    """
    payload = _new_object(Payload)
    _set_field(payload, "kind", kind)
    _set_field(payload, "entries", entries)
    return payload


def _pairs(mapping):
    if hasattr(mapping, "items"):
        return mapping.items()
    return mapping


# ---------------------------------------------------------------------------
# canonical value text


def _format_float(value: float) -> str:
    mantissa, p, exponent = value.hex().partition("p")
    if not p:  # float.hex() spells NaN "nan" and the infinities "inf", "-inf"
        if value != value:
            return "nan:" + struct.pack(">d", value).hex()
        return mantissa
    if "." in mantissa:
        mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}p{exponent}"


# The exact grammars of the int, float and bytes texts that the formatters
# write.  ``[0-9]`` is ASCII only, unlike ``int()``, which also reads
# other Unicode digits.  A finite non-zero float is a normal
# ``0x1.<fraction>p<exponent>`` with exponent -1022 to +1023, or a
# subnormal ``0x0.<fraction>p-1022``; the fraction has 13 hex digits at
# most and no trailing zero, and is left out when it would be empty.
_INT = "0|-?[1-9][0-9]{0,18}"
_FRACTION = r"\.[0-9a-f]{0,12}[1-9a-f]"
_EXPONENT = (
    r"\+(?:0|[1-9][0-9]{0,2}|10[01][0-9]|102[0-3])"  # +0 to +1023
    r"|-(?:[1-9][0-9]{0,2}|10[01][0-9]|102[0-2])"  # -1 to -1022
)
_FLOAT = rf"-?(?:0x1(?:{_FRACTION})?p(?:{_EXPONENT})|0x0{_FRACTION}p-1022|0x0p\+0|inf)"
_BYTES = "(?:[0-9a-f]{2})*"
_is_int = re.compile(_INT).fullmatch
_is_float = re.compile(_FLOAT).fullmatch
_is_nan = re.compile("nan:[0-9a-f]{16}").fullmatch
_is_bytes = re.compile(_BYTES).fullmatch
_DOUBLE = struct.Struct(">d")


def _refusal(what: str, text: str, read) -> MalformedPayloadError:
    """The error for ``text``, which failed the grammar of ``what``.

    Text that the lenient reader ``read`` still takes is reported as not
    in canonical form, other text as bad syntax.
    """
    try:
        read(text)
    except (ValueError, OverflowError):
        return MalformedPayloadError(f"bad {what} syntax: {text!r}")
    return MalformedPayloadError(f"{what} not in canonical form: {text!r}")


def _read_float(text: str):
    """``float.fromhex``, plus NaN bits in either case of hex digit."""
    if text.startswith("nan:") and len(text) == 20:
        return bytes.fromhex(text[4:])
    return float.fromhex(text)


def _parse_float(text: str) -> float:
    if _is_float(text):
        return float.fromhex(text)
    if _is_nan(text):
        raw = bytes.fromhex(text[4:])
        value = _DOUBLE.unpack(raw)[0]
        if value == value or _DOUBLE.pack(value) != raw:
            raise MalformedPayloadError(f"float not in canonical form: {text!r}")
        return value
    raise _refusal("float", text, _read_float)


# The string grammar of the module docstring, written once for ``s:``
# scalars and ``s[...]`` items alike.  It is unrolled, with no repeated
# run inside a repeated group, so matching takes time linear in the
# input, also on text that fails to match.
_MUST_ESCAPE = r'"\\\x00-\x1f'
_STRING = rf'"[^{_MUST_ESCAPE}]*(?:\\(?:["\\]|x[01][0-9a-f])[^{_MUST_ESCAPE}]*)*"'
_STRING_VALUE = re.compile(_STRING)
_STRING_ITEMS = re.compile(rf"{_STRING}(?:,{_STRING})*")
_ESCAPED = re.compile(f"[{_MUST_ESCAPE}]")
_ESCAPE = re.compile(r'\\(["\\]|x..)')


def _escape(match) -> str:
    c = match[0]
    return "\\" + c if c in '"\\' else f"\\x{ord(c):02x}"


def _format_string(value: str) -> str:
    return f'"{_ESCAPED.sub(_escape, value)}"'


def _unescape(match) -> str:
    escape = match[1]
    return chr(int(escape[1:], 16)) if escape[0] == "x" else escape


def _unquote(quoted: str) -> str:
    """The value of a string that matched ``_STRING``."""
    inner = quoted[1:-1]
    return _ESCAPE.sub(_unescape, inner) if "\\" in inner else inner


def _parse_int(text: str) -> int:
    if not _is_int(text):
        raise _refusal("int", text, int)
    value = int(text)
    if not INT64_MIN <= value <= INT64_MAX:
        raise MalformedPayloadError(f"int out of 64-bit range: {text!r}")
    return value


def _parse_str(text: str) -> str:
    if _STRING_VALUE.fullmatch(text) is None:
        raise MalformedPayloadError(f"bad string syntax: {text!r}")
    return _unquote(text)


def _parse_bytes(text: str) -> bytes:
    if not _is_bytes(text):
        raise _refusal("bytes", text, bytes.fromhex)
    return bytes.fromhex(text)


# Per value tag: scalar text from a value, and a value from scalar text.
_FORMAT = {"i": str, "f": _format_float, "s": _format_string, "x": bytes.hex}
_PARSE = {"i": _parse_int, "f": _parse_float, "s": _parse_str, "x": _parse_bytes}
_TAG_OF_TYPE = {int: "i", float: "f", str: "s", bytes: "x"}
# Per array tag other than ``s``: a test that the whole item list is in
# its grammar, and the reader of one item that passed it.  NaN items and
# out-of-range ints fall to the item-by-item parse.
_ITEMS = {
    tag: (re.compile(rf"(?:{item})(?:,(?:{item}))*").fullmatch, read)
    for tag, item, read in (
        ("i", _INT, int), ("f", _FLOAT, float.fromhex), ("x", _BYTES, bytes.fromhex)
    )
}


def _format_value(value) -> str:
    if isinstance(value, Array):
        return f"{value.elem}[{','.join(map(_FORMAT[value.elem], value.items))}]"
    tag = _TAG_OF_TYPE.get(type(value)) or _scalar_tag(value)
    return f"{tag}:{_FORMAT[tag](value)}"


def _parse_value(text: str):
    parse = _PARSE.get(text[:1])
    if parse is None or len(text) < 2:
        raise MalformedPayloadError(f"bad value syntax: {text!r}")
    if text[1] == ":":
        return parse(text[2:])
    if text[1] == "[" and text[-1] == "]":
        # Every item parses as the tag says and there is at least one,
        # which is all Array's constructor would check.
        tag, content = text[0], text[2:-1]
        if tag != "s":
            matches, read = _ITEMS[tag]
            if matches(content):
                items = tuple(map(read, content.split(",")))
                if tag != "i" or (INT64_MIN <= min(items) and max(items) <= INT64_MAX):
                    return _array(tag, items)
            return _array(tag, tuple(map(parse, content.split(","))))
        if _STRING_ITEMS.fullmatch(content) is None:
            raise MalformedPayloadError(f"bad string array syntax: {text!r}")
        return _array(tag, tuple(map(_unquote, _STRING_VALUE.findall(content))))
    raise MalformedPayloadError(f"bad value syntax: {text!r}")


# ---------------------------------------------------------------------------
# payload encoding


def encode_payload(payload: Payload) -> bytes:
    """Canonical byte encoding; equal payloads encode to identical bytes."""
    if payload.kind == KIND_LEAF:
        body = "".join([f"{name}={_format_value(value)}\n" for name, value in payload.entries])
    else:
        body = "".join([f"{name}={format_identity(value)}\n" for name, value in payload.entries])
    return f"kind={payload.kind}\n{body}".encode("utf-8")


_KIND_OF_HEAD = {f"kind={kind}": kind for kind in KINDS}


def decode_payload(data: bytes, tables: DecodeTables | None = None) -> Payload:
    """Inverse of :func:`encode_payload`; rejects any non-canonical input.

    With ``tables`` the payload shares its names, link identities and
    link pairs with every other payload decoded through the same tables.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedPayloadError("payload is not valid UTF-8") from None
    if not text.endswith("\n"):
        raise MalformedPayloadError("payload must end with a newline")
    lines = text[:-1].split("\n")
    head = lines[0]
    if not head.startswith("kind="):
        raise MalformedPayloadError(f"missing kind line: {head!r}")
    kind = _KIND_OF_HEAD.get(head)
    if kind is None:
        raise MalformedPayloadError(f"unknown payload kind: {head[5:]!r}")
    if tables is None:
        tables = DecodeTables()
    names = tables.names
    leaf = kind == KIND_LEAF
    links = None if leaf else tables.links

    entries = []
    # Every valid name sorts after "".
    previous = ""
    for line in lines[1:]:
        # A link line seen before is a valid name and a canonical target.
        entry = links.get(line) if links else None
        if entry is not None:
            name = entry[0]
        else:
            name, sep, value_text = line.partition("=")
            if not sep:
                raise MalformedPayloadError(f"missing '=' in entry line: {line!r}")
            shared = names.get(name)
            if shared is None:
                if not is_valid_name(name):
                    raise MalformedPayloadError(f"bad entry name: {name!r}")
                names[name] = shared = name
            name = shared
        if name <= previous:
            reason = "duplicate" if name == previous else "unsorted"
            raise MalformedPayloadError(f"{reason} entry name: {name!r}")
        previous = name
        if entry is None:
            if leaf:
                entry = (name, _parse_value(value_text))
            else:
                try:
                    target = tables.identity(value_text)
                except MalformedIdentityError as exc:
                    raise MalformedPayloadError(f"bad link target: {value_text!r}") from exc
                entry = links[line] = (name, target)
        entries.append(entry)

    # The checks above are every check Payload's constructor would make,
    # and every line matched its canonical grammar, so ``data`` is the
    # payload's encoding.
    return _payload(kind, tuple(entries))


def payload_digest(payload: Payload) -> bytes:
    """SHA-256 of the canonical encoding.

    ``hashlib`` is imported here, on the first digest, and not with the
    module: importing it maps OpenSSL (``_hashlib`` and ``libcrypto``)
    into the process, about 3.7 MiB of a serve child's RSS, and no
    server, client, CLI or benchmark process ever takes a digest.
    """
    import hashlib

    return hashlib.sha256(encode_payload(payload)).digest()


# ---------------------------------------------------------------------------
# paths

def parse_path(text) -> tuple[str, ...]:
    """Parse ``a/b/c`` into segments; ``""`` and ``"/"`` denote the root."""
    if isinstance(text, tuple):
        for segment in text:
            validate_name(segment, "path segment")
        return text
    if not isinstance(text, str):
        raise InvalidNameError(f"bad path: {text!r}")
    if text in ("", "/"):
        return ()
    segments = text.split("/")
    for segment in segments:
        if not is_valid_name(segment):
            raise InvalidNameError(f"bad path segment {segment!r} in {text!r}")
    return tuple(segments)


def path_text(segments: tuple[str, ...]) -> str:
    """Raw text form of a path; the root is the empty string."""
    return "/".join(segments)


def display_path(segments_or_text) -> str:
    """Human form of a path; the root renders as ``/``."""
    if isinstance(segments_or_text, str):
        return segments_or_text or "/"
    return path_text(segments_or_text) or "/"
