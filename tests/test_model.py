"""Identity and payload codec tests, including the canonical-form grammar."""

import hashlib
import re
import struct
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdb.errors import (
    ConfdbError,
    InvalidNameError,
    MalformedIdentityError,
    MalformedPayloadError,
)
from confdb.model import (
    Array,
    DecodeTables,
    ObjectIdentity,
    Payload,
    decode_payload,
    display_path,
    encode_payload,
    format_identity,
    is_valid_name,
    parse_identity,
    parse_path,
    path_text,
    payload_digest,
)
from helpers import child_env, pure_sha256, shortest_hexfloat

DCH = ObjectIdentity("DchHV", "sector3", 12)


# -- identities ----------------------------------------------------------


def test_format_identity_without_secondary():
    assert format_identity(ObjectIdentity("TopMap", None, 1)) == "TopMap[1]"


def test_format_identity_with_secondary():
    assert format_identity(DCH) == "DchHV:sector3[12]"


def test_format_identity_minimal():
    assert format_identity(ObjectIdentity("X", None, 1)) == "X[1]"


def test_parse_identity_round():
    assert parse_identity("DchHV:sector3[12]") == DCH


def test_parse_identity_rejects_zero_key():
    with pytest.raises(MalformedIdentityError):
        parse_identity("TopMap[0]")


def test_parse_identity_rejects_non_ascii_digits():
    # str.isdigit() admits these; "A[١]" would otherwise parse as A[1].
    for text in ("A[\u0661]", "A[\u00b2]", "A[1\u0662]"):
        with pytest.raises(MalformedIdentityError):
            parse_identity(text)


def test_parse_identity_shares_names_through_a_table():
    names = {}
    first = parse_identity("Dch Map:sector 3[1]", names)
    second = parse_identity("Dch Map:sector 3[2]", names)
    assert first == ObjectIdentity("Dch Map", "sector 3", 1)
    assert first.class_name is second.class_name
    assert first.secondary_key is second.secondary_key
    assert names == {"Dch Map": "Dch Map", "sector 3": "sector 3"}
    with pytest.raises(MalformedIdentityError):
        parse_identity("Dch Map:sec/tor[1]", names)
    assert "sec/tor" not in names


def test_parse_identity_rejects_double_colon():
    with pytest.raises(MalformedIdentityError):
        parse_identity("A:B:C[1]")


@pytest.mark.parametrize(
    "text",
    ["", "TopMap", "TopMap[]", "TopMap[1", "TopMap[01]", "TopMap[-1]", "[1]",
     ":x[1]", "x:[1]", "Top/Map[1]", "TopMap[1] ", "TopMap[1]x", "A[1][2]",
     "A[+1]", "A[ 1]", "A[1_0]", "A[-0]"],
)
def test_parse_identity_rejects_malformed(text):
    with pytest.raises(MalformedIdentityError):
        parse_identity(text)


def test_identity_invariants_enforced():
    with pytest.raises(InvalidNameError):
        ObjectIdentity("", None, 1)
    with pytest.raises(InvalidNameError):
        ObjectIdentity("a:b", None, 1)
    with pytest.raises(MalformedIdentityError):
        ObjectIdentity("A", None, 0)
    with pytest.raises(InvalidNameError):
        ObjectIdentity("A", "x\ty", 1)


def test_names_allow_spaces():
    # the worked examples use names like "Top Map"
    identity = ObjectIdentity("Top Map", None, 1)
    assert parse_identity(format_identity(identity)) == identity


def test_names_reject_reserved_characters():
    for ch in ":[]/=\t\n":
        assert not is_valid_name(f"a{ch}b")
    assert not is_valid_name("a\x01b")
    assert is_valid_name("r12 physics")


# -- encoding: spec examples ------------------------------------------------


def test_encode_leaf_float_shortest_hexfloat():
    # oracle: print the hex-float independently from the raw IEEE bits
    assert shortest_hexfloat(1800.0) == "0x1.c2p+10"
    payload = Payload.leaf({"hv": 1800.0})
    assert encode_payload(payload) == b"kind=leaf\nhv=f:0x1.c2p+10\n"


def test_encode_single_link_map():
    payload = Payload.map({"dch": ObjectIdentity("DchMap", None, 1)})
    assert encode_payload(payload) == b"kind=map\ndch=DchMap[1]\n"


def test_encode_empty_map():
    assert encode_payload(Payload.map({})) == b"kind=map\n"


def test_decode_map_round_trip():
    payload = decode_payload(b"kind=map\ndch=DchMap[1]\n")
    assert payload.kind == "map"
    assert payload.links == {"dch": ObjectIdentity("DchMap", None, 1)}


def test_decode_rejects_unsorted_names():
    with pytest.raises(MalformedPayloadError):
        decode_payload(b"kind=leaf\nb=i:2\na=i:1\n")


def test_decode_rejects_duplicate_names():
    with pytest.raises(MalformedPayloadError):
        decode_payload(b"kind=leaf\na=i:1\na=i:2\n")


# -- digests -----------------------------------------------------------------


def test_digest_empty_map_against_independent_sha256():
    digest = payload_digest(Payload.map({}))
    assert digest == pure_sha256(b"kind=map\n")
    # frozen value, cross-checked against hashlib at freeze time
    assert digest.hex() == "fbecad0bb562560028e4755e9d5c1176d4cfa5e1073315c4520691bf412cc18d"


def test_importing_confdb_loads_neither_hashlib_nor_logging():
    # hashlib maps OpenSSL into the process and logging costs RSS; serving
    # never uses either, so both are imported on first use only.
    script = """if True:
        import sys
        import confdb, confdb.cli, confdb.service
        loaded = sorted({"hashlib", "_hashlib", "logging"} & set(sys.modules))
        assert not loaded, loaded
        from confdb.model import Payload, payload_digest
        print(payload_digest(Payload.map({})).hex())
    """
    result = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert bytes.fromhex(result.stdout.strip()) == pure_sha256(b"kind=map\n")


def test_pure_sha256_agrees_with_hashlib():
    for message in (b"", b"abc", b"kind=map\n", bytes(range(256)) * 3):
        assert pure_sha256(message) == hashlib.sha256(message).digest()


def test_digest_insertion_order_independent():
    a = Payload.leaf([("a", 1), ("b", 2)])
    b = Payload.leaf([("b", 2), ("a", 1)])
    assert encode_payload(a) == encode_payload(b)
    assert payload_digest(a) == payload_digest(b)
    assert a == b


def test_digest_differs_on_value_change():
    a = Payload.leaf({"a": 1})
    b = Payload.leaf({"a": 2})
    assert pure_sha256(encode_payload(a)) != pure_sha256(encode_payload(b))
    assert payload_digest(a) != payload_digest(b)


# -- value grammar ----------------------------------------------------------


def test_scalar_value_forms():
    payload = Payload.leaf(
        {
            "i": -42,
            "f": 0.5,
            "s": 'he said "hi"\n\\',
            "x": b"\xca\xfe",
            "empty_s": "",
            "empty_x": b"",
        }
    )
    encoded = encode_payload(payload).decode()
    assert "i=i:-42\n" in encoded
    assert "f=f:0x1p-1\n" in encoded
    assert 's=s:"he said \\"hi\\"\\x0a\\\\"\n' in encoded
    assert "x=x:cafe\n" in encoded
    assert 'empty_s=s:""\n' in encoded
    assert "empty_x=x:\n" in encoded
    assert decode_payload(encode_payload(payload)) == payload


def test_array_forms():
    payload = Payload.leaf(
        {
            "ints": Array("i", (1, 2, 3)),
            "floats": Array("f", (1.0, float("inf"))),
            "strings": Array("s", ("a", "b,c", '"')),
            "blobs": Array("x", (b"", b"\x00\xff")),
        }
    )
    encoded = encode_payload(payload).decode()
    assert "ints=i[1,2,3]\n" in encoded
    assert "floats=f[0x1p+0,inf]\n" in encoded
    assert 'strings=s["a","b,c","\\""]\n' in encoded
    assert "blobs=x[,00ff]\n" in encoded
    assert decode_payload(encode_payload(payload)) == payload


# `"`, `\` and the 32 characters below 0x20, and how each is escaped.
ESCAPED = [('"', '\\"'), ("\\", "\\\\")] + [(chr(c), f"\\x{c:02x}") for c in range(0x20)]


@pytest.mark.parametrize("char, escape", ESCAPED)
def test_each_escaped_character_round_trips(char, escape):
    payload = Payload.leaf({"a": f"<{char}>", "b": Array("s", (char, f",{char}", ""))})
    expected = f'kind=leaf\na=s:"<{escape}>"\nb=s["{escape}",",{escape}",""]\n'
    assert encode_payload(payload) == expected.encode()
    assert decode_payload(expected.encode()).entries == payload.entries


def test_string_arrays_with_commas_and_quotes_round_trip():
    items = (",", '","', '"', '\\",', ",,", "", 'a"b,c\\', "\x7f")
    payload = Payload.leaf({"a": Array("s", items)})
    decoded = decode_payload(encode_payload(payload))
    assert decoded.get("a").items == items
    assert decoded == payload


@pytest.mark.parametrize(
    "value",
    [
        b's:"' + b"a" * 65536,                # 64 KiB, unterminated
        b's:"' + b'\\"' * 32768,              # escaped quotes, unterminated
        b"s[" + b'"abc",' * 20000 + b'"x]',   # 20k items, then an open string
        b"s[" + b'"a\\"",' * 20000 + b"]",    # 20k items, then a trailing comma
    ],
    ids=["long-string", "long-escapes", "array-open-tail", "array-comma-tail"],
)
def test_long_malformed_strings_are_rejected_quickly(value):
    data = b"kind=leaf\na=" + value + b"\n"
    start = time.perf_counter()
    with pytest.raises(MalformedPayloadError):
        decode_payload(data)
    assert time.perf_counter() - start < 1.0


def test_single_empty_bytes_array_is_representable():
    # `x[]` is the one-element empty-blob array; the empty array itself
    # is rejected, which keeps the bracket grammar collision-free.
    payload = Payload.leaf({"a": Array("x", (b"",))})
    assert encode_payload(payload) == b"kind=leaf\na=x[]\n"
    assert decode_payload(b"kind=leaf\na=x[]\n") == payload


def test_arrays_must_be_non_empty_and_homogeneous():
    with pytest.raises(MalformedPayloadError):
        Array("i", ())
    with pytest.raises(MalformedPayloadError):
        Array("i", (1, 2.0))
    with pytest.raises(MalformedPayloadError):
        Array("q", (1,))
    with pytest.raises(MalformedPayloadError):
        Payload.leaf({"a": True})
    with pytest.raises(MalformedPayloadError):
        Payload.leaf({"a": 1 << 63})


def test_strings_must_be_encodable_as_utf8():
    # A lone surrogate is a str but has no UTF-8 encoding.
    with pytest.raises(MalformedPayloadError):
        Payload.leaf({"a": "x\udc00"})
    with pytest.raises(MalformedPayloadError):
        Array("s", ("ok", "\ud800"))
    assert encode_payload(Payload.leaf({"a": "\U0001f600"})) == 'kind=leaf\na=s:"\U0001f600"\n'.encode()


def test_special_floats_round_trip_bit_exact():
    nan_payload_bits = struct.unpack(">d", bytes.fromhex("7ff8000000dead01"))[0]
    payload = Payload.leaf(
        {
            "nan": float("nan"),
            "oddnan": nan_payload_bits,
            "pz": 0.0,
            "nz": -0.0,
            "denorm": 5e-324,
            "ninf": float("-inf"),
        }
    )
    encoded = encode_payload(payload)
    assert b"nan=f:nan:7ff8000000000000" in encoded
    assert b"oddnan=f:nan:7ff8000000dead01" in encoded
    assert b"pz=f:0x0p+0" in encoded
    assert b"nz=f:-0x0p+0" in encoded
    assert b"denorm=f:0x0.0000000000001p-1022" in encoded
    decoded = decode_payload(encoded)
    assert encode_payload(decoded) == encoded
    raw = struct.pack(">d", decoded.fields["oddnan"])
    assert raw.hex() == "7ff8000000dead01"


NON_CANONICAL = [
    b"kind=leaf\na=i:1\n"[:-1],          # missing trailing newline
    b"kind=bogus\n",                      # bad kind
    b"nokind\n",
    b"kind=leaf\na=q:1\n",                # unknown tag
    b"kind=leaf\na=i:01\n",               # non-canonical int
    b"kind=leaf\na=i:+1\n",
    b"kind=leaf\na=i:1_0\n",
    b"kind=leaf\na=i: 1\n",
    b"kind=leaf\na=f:0x1.c20p+10\n",      # non-shortest hex-float
    b"kind=leaf\na=f:0X1P+0\n",
    b"kind=leaf\na=f:1.5\n",
    b"kind=leaf\na=f:nan:0000000000000000\n",  # bits are not a NaN
    b"kind=leaf\na=f:inf \n",
    b"kind=leaf\na=x:CAFE\n",             # uppercase hex
    b"kind=leaf\na=x:ca fe\n",
    b"kind=leaf\na=x:caf\n",              # odd length
    b"kind=leaf\na=s:unquoted\n",
    b"kind=leaf\na=s:\"open\n",
    b"kind=leaf\na=s:\"bad\\q\"\n",
    b"kind=leaf\na=i[]\n",                # empty array
    b"kind=leaf\na=f[]\n",
    b"kind=leaf\na=s[]\n",
    b"kind=leaf\nnoequals\n",
    b"kind=leaf\n=i:1\n",                 # empty name
    b"kind=map\na=TopMap[0]\n",
    b"kind=map\na=i:1\n",
    b"kind=leaf\na=TopMap[1]\n",
    b"\xff\xfe\n",
    b"kind=leaf\na=s:\"\\x0A\"\n",       # uppercase escape digits
    b"kind=leaf\na=s:\"\\x41\"\n",       # escape of a character that needs none
    b"kind=leaf\na=s:\"\\x 1\"\n",
    b"kind=leaf\na=s:\"\x01\"\n",         # raw control character
    b"kind=leaf\na=s:\"ab\\\n",          # trailing backslash
    b"kind=leaf\na=s:\"ab\\\"\n",        # the closing quote escaped
    b"kind=leaf\na=s:\"a\"b\n",           # data after the closing quote
    b"kind=leaf\na=s[\"a\",]\n",
    b"kind=leaf\na=s[,\"a\"]\n",
    b"kind=leaf\na=s[\"a\"\"b\"]\n",
    b"kind=leaf\na=s[\"a\" ,\"b\"]\n",
    b"kind=leaf\na=i:-0\n",
    "kind=leaf\na=i:\u0661\n".encode(),      # a non-ASCII digit
    b"kind=leaf\na=i[1,01]\n",
    b"kind=leaf\na=i[9223372036854775808]\n",  # out of int64 range
    b"kind=leaf\na=f:0x1.0p+0\n",             # a zero fraction digit
    b"kind=leaf\na=f:0x1.p+0\n",
    b"kind=leaf\na=f:0x1p+00\n",              # a leading zero in the exponent
    b"kind=leaf\na=f:0x1p-0\n",
    b"kind=leaf\na=f:0x1p-1023\n",            # a subnormal spelled as a normal
    b"kind=leaf\na=f:0x0.0p+0\n",
    b"kind=leaf\na=f:0x1.00000000000001p+0\n",  # 14 fraction digits
    b"kind=leaf\na=f:+inf\n",
    b"kind=leaf\na=f:Infinity\n",
    b"kind=leaf\na=f:nan:7FF8000000000000\n",  # upper-case NaN bits
    b"kind=leaf\na=f:nan:7ff0000000000000\n",  # bits of +inf
    b"kind=leaf\na=f[0x1p+0,0x1.0p+0]\n",
    b"kind=leaf\na=x[CA]\n",
]


@pytest.mark.parametrize("data", NON_CANONICAL)
def test_decode_rejects_non_canonical(data):
    with pytest.raises(MalformedPayloadError):
        decode_payload(data)


def _warm_tables() -> DecodeTables:
    """Tables that already hold the names and link targets of the corpus."""
    tables = DecodeTables()
    decode_payload(b"kind=leaf\na=i:1\n", tables)
    decode_payload(b"kind=map\na=TopMap[1]\n", tables)
    return tables


@pytest.mark.parametrize("data", NON_CANONICAL)
def test_decode_with_tables_rejects_non_canonical_alike(data):
    with pytest.raises(MalformedPayloadError) as plain:
        decode_payload(data)
    for tables in (DecodeTables(), _warm_tables()):
        with pytest.raises(MalformedPayloadError) as tabled:
            decode_payload(data, tables)
        assert str(tabled.value) == str(plain.value)


def test_runtypes_payload_targets_are_identities():
    payload = Payload.runtypes({"PHYSICS": ObjectIdentity("TopMap", None, 2)})
    assert encode_payload(payload) == b"kind=runtypes\nPHYSICS=TopMap[2]\n"
    with pytest.raises(MalformedPayloadError):
        Payload.runtypes({"PHYSICS": 5})


# -- paths --------------------------------------------------------------------


def test_parse_path_forms():
    assert parse_path("") == ()
    assert parse_path("/") == ()
    assert parse_path("a/b c/d") == ("a", "b c", "d")
    assert path_text(("a", "b")) == "a/b"
    assert display_path(()) == "/"
    assert display_path("dch") == "dch"
    with pytest.raises(InvalidNameError):
        parse_path("a//b")
    with pytest.raises(InvalidNameError):
        parse_path("a/")


# -- property tests ------------------------------------------------------------

_NAME_ALPHABET = [
    c for c in map(chr, range(0x20, 0x7F)) if c not in ":[]/="
] + list("éßαβ星名")
names = st.text(alphabet=st.sampled_from(_NAME_ALPHABET), min_size=1, max_size=12)
identities = st.builds(
    ObjectIdentity,
    class_name=names,
    secondary_key=st.one_of(st.none(), names),
    config_key=st.integers(min_value=1, max_value=10**12),
)

_scalars = {
    "i": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "f": st.floats(allow_nan=True, allow_infinity=True, width=64),
    # characters() without surrogates (category Cs, which payloads reject)
    # covers the same code points as text()'s default alphabet; that default
    # first builds a UTF-8 codec table, about 2 s on the first draw without a
    # warm .hypothesis directory, which failed the too_slow health check.
    "s": st.text(st.characters(exclude_categories=("Cs",)), max_size=8),
    "x": st.binary(max_size=8),
}


def _array_strategy(tag):
    return st.lists(_scalars[tag], min_size=1, max_size=3).map(lambda v: Array(tag, tuple(v)))


values = st.one_of(
    *_scalars.values(), *(_array_strategy(tag) for tag in _scalars)
)

# Small collections keep each payload cheap to draw; every kind, scalar
# tag, array tag and special float stays reachable.
leaf_payloads = st.dictionaries(names, values, max_size=4).map(Payload.leaf)
map_payloads = st.dictionaries(names, identities, max_size=4).map(Payload.map)
runtype_payloads = st.dictionaries(names, identities, max_size=4).map(Payload.runtypes)
payloads = st.one_of(leaf_payloads, map_payloads, runtype_payloads)


def _is_valid_name_per_character(name) -> bool:
    """Reference definition: a non-empty str of printable, unreserved characters."""
    if not isinstance(name, str) or not name:
        return False
    return all(c.isprintable() and c not in ":[]/=\t\n" for c in name)


@settings(max_examples=500)
@given(
    st.text(
        alphabet=st.one_of(
            st.sampled_from(":[]/=\t\n\x00\x1f\x7f\x85\xa0\u2028\u200b\ufeff aZ9é星"),
            st.characters(),
        ),
        max_size=10,
    )
)
def test_is_valid_name_matches_per_character_definition(name):
    assert is_valid_name(name) == _is_valid_name_per_character(name)


@given(identities)
def test_identity_text_round_trips(identity):
    assert parse_identity(format_identity(identity)) == identity


@settings(max_examples=200)
@given(payloads)
def test_payload_encoding_round_trips(payload):
    encoded = encode_payload(payload)
    decoded = decode_payload(encoded)
    assert decoded == payload
    assert encode_payload(decoded) == encoded


@given(st.dictionaries(names, values, min_size=2, max_size=6), st.randoms())
def test_encoding_is_insertion_order_independent(fields, rng):
    items = list(fields.items())
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert encode_payload(Payload.leaf(items)) == encode_payload(Payload.leaf(shuffled))


@settings(max_examples=200)
@given(st.lists(payloads, min_size=1, max_size=3))
def test_decoding_with_tables_matches_decoding_without(batch):
    tables = DecodeTables()
    for payload in batch:
        encoded = encode_payload(payload)
        plain = decode_payload(encoded)
        shared = decode_payload(encoded, tables)
        assert shared == plain
        # Entries compare by encoding: a NaN equals no other NaN object.
        assert shared.names() == plain.names()
        assert encode_payload(shared) == encode_payload(plain) == encoded
        # The decoder's private constructor gives what the public one would.
        for decoded in (plain, shared):
            rebuilt = Payload(decoded.kind, decoded.entries)
            assert rebuilt == decoded
            assert rebuilt.entries == decoded.entries
    for name, shared_name in tables.names.items():
        assert name is shared_name and is_valid_name(name)
    for text, identity in tables.identities.items():
        assert format_identity(identity) == text
    for line, (name, identity) in tables.links.items():
        assert line == f"{name}={format_identity(identity)}"


# -- differential tests: grammar against a lenient read and a re-encode --------
#
# The oracle reads a payload leniently, with Python's own readers (``int``,
# ``float.fromhex``, ``bytes.fromhex``, any ``\xNN`` escape) and the public
# constructors, then encodes what it read; the input is canonical exactly
# when that gives the input back.  ``decode_payload`` must agree with it on
# every input, and return the same values when it accepts.


def _lenient_float(text: str) -> float:
    if text.startswith("nan:"):
        if len(text) != 20:
            raise ValueError(text)
        return struct.unpack(">d", bytes.fromhex(text[4:]))[0]
    return float.fromhex(text)


def _lenient_str(text: str) -> str:
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise ValueError(text)
    inner, out, i = text[1:-1], [], 0
    while i < len(inner):
        c = inner[i]
        if c == '"':
            raise ValueError(text)
        if c != "\\":
            out.append(c)
            i += 1
        elif inner[i + 1 : i + 2] in ('"', "\\"):
            out.append(inner[i + 1])
            i += 2
        elif inner[i + 1 : i + 2] == "x":
            out.append(chr(int(inner[i + 2 : i + 4], 16)))
            i += 4
        else:
            raise ValueError(text)
    return "".join(out)


_LENIENT = {"i": int, "f": _lenient_float, "s": _lenient_str, "x": bytes.fromhex}
_LENIENT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _lenient_value(text: str):
    read = _LENIENT[text[:1]]
    form, rest = text[1:2], text[2:]
    if form == ":":
        return read(rest)
    if form != "[" or not rest.endswith("]"):
        raise ValueError(text)
    content = rest[:-1]
    if text[0] == "s":
        items = _LENIENT_STRING.findall(content)
        if ",".join(items) != content:
            raise ValueError(text)
    else:
        items = content.split(",")
    return Array(text[0], tuple(map(read, items)))


def _canonical_by_re_encoding(data: bytes):
    """The payload ``data`` reads as leniently, if it encodes back to ``data``."""
    try:
        lines = data.decode("utf-8").split("\n")
        if lines.pop() != "" or not lines[0].startswith("kind="):
            return None
        kind, entries = lines[0][5:], []
        for line in lines[1:]:
            name, sep, value = line.partition("=")
            if not sep:
                return None
            entries.append(
                (name, _lenient_value(value) if kind == "leaf" else parse_identity(value))
            )
        payload = Payload(kind, entries)
    except (ValueError, OverflowError, KeyError, ConfdbError):
        return None
    return payload if encode_payload(payload) == data else None


def _assert_decodes_as_the_oracle_says(data: bytes):
    expected = _canonical_by_re_encoding(data)
    try:
        decoded = decode_payload(data)
    except MalformedPayloadError:
        assert expected is None, data
    else:
        assert expected is not None, data
        assert decoded == expected and encode_payload(decoded) == data


# Value texts at the edges of the int, float and bytes grammars, canonical
# or not.
EDGE_VALUES = [
    "i:0", "i:-0", "i:+0", "i:00", "i:9223372036854775807", "i:-9223372036854775808",
    "i:9223372036854775808", "i:-9223372036854775809", "i:09223372036854775807",
    "i:1_0", "i: 1", "i:\u0661", "i[1,-1]", "i[1,01]", "i[-9223372036854775809]",
    "f:0x0p+0", "f:-0x0p+0", "f:0x0p-0", "f:0x0.0p+0", "f:0x1p+0", "f:0x1.0p+0",
    "f:0x1.p+0", "f:0x1p+00", "f:0x1p-0", "f:0x1p+1023", "f:0x1p+1024",
    "f:0x1.fffffffffffffp+1023", "f:0x1p-1022", "f:0x1p-1023", "f:0x0.8p-1022",
    "f:0x0.8p-1021", "f:0x0.0000000000001p-1022", "f:0x0.00000000000008p-1022",
    "f:0x1.0000000000001p+0", "f:0x1.00000000000001p+0", "f:0x1.00000000000010p+0",
    "f:0x2p+0", "f:0X1P+0", "f:1.5", "f:inf", "f:-inf", "f:+inf", "f:Infinity",
    "f:nan", "f:nan:7ff8000000000000", "f:nan:7FF8000000000000", "f:nan:7ff0000000000000",
    "f:nan:7ff0000000000001", "f:nan:fff8000000000000", "f:nan:0000000000000000",
    "f:nan:7ff800000000000", "f[0x1p+0,nan:7ff8000000000000]", "f[0x1p+0,0x1.0p+0]",
    "x:", "x:ca", "x:CA", "x:c", "x:ca fe", "x[,ca]", "x[CA]",
]


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_edge_values_decode_exactly_when_they_re_encode_to_themselves(value):
    _assert_decodes_as_the_oracle_says(f"kind=leaf\na={value}\n".encode("utf-8"))


_NAN_BITS = st.tuples(st.booleans(), st.integers(1, (1 << 52) - 1)).map(
    lambda sm: f"nan:{(sm[0] << 63) | (0x7FF << 52) | sm[1]:016x}"
)
_FRACTIONS = st.one_of(
    st.sampled_from(["", ".", ".0", ".8", ".80", ".0000000000001", ".00000000000001"]),
    st.text("0123456789abcdef", min_size=1, max_size=15).map(".{}".format),
)
_EXPONENTS = st.one_of(
    st.integers(-1080, 1080).map("{:+d}".format),
    st.sampled_from([0, 1023, 1024, -1021, -1022, -1023]).map("{:+d}".format),
    st.sampled_from(["-0", "+00", "-01", "1", "+1_0"]),
)
_SPELLINGS = {
    "i": st.one_of(
        st.integers(-(1 << 64), 1 << 64).map(str),
        st.tuples(st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=1, max_size=20))
        .map("".join),
    ),
    "f": st.one_of(
        _NAN_BITS,
        st.integers(0, (1 << 64) - 1).map("nan:{:016x}".format),
        st.floats(width=64).map(float.hex),  # the unstripped spelling
        st.floats(width=64).map(shortest_hexfloat),
        st.tuples(
            st.sampled_from(["", "-", "+"]),
            st.sampled_from(["0x0", "0x1", "0x2", "0x01", "0X1"]),
            _FRACTIONS,
            st.sampled_from(["p", "P"]),
            _EXPONENTS,
        ).map("".join),
    ),
    "x": st.text("0123456789abcdefABCDEF _", max_size=6),
}
_value_spellings = st.sampled_from("ifx").flatmap(
    lambda tag: st.one_of(
        _SPELLINGS[tag].map(f"{tag}:{{}}".format),
        st.lists(_SPELLINGS[tag], min_size=1, max_size=3).map(
            lambda items: f"{tag}[{','.join(items)}]"
        ),
    )
)


@settings(max_examples=500)
@given(_value_spellings)
def test_value_spellings_decode_exactly_when_they_re_encode_to_themselves(value):
    _assert_decodes_as_the_oracle_says(f"kind=leaf\na={value}\n".encode("utf-8"))


def _swap_lines(draw, text: str) -> str:
    lines = text.split("\n")
    i = draw(st.integers(1, len(lines) - 3))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines)


def _repeat_line(draw, text: str) -> str:
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 2))
    lines.insert(i, lines[i])
    return "\n".join(lines)


_AT_VALUE = r"(?<=[:\[,])"
# (pattern, replacement): one drawn match of the pattern is replaced by a
# template for ``Match.expand`` or by text drawn from a strategy.
_REWRITES = [(re.compile(pattern), replacement) for pattern, replacement in [
    (_AT_VALUE + r"(?=[0-9])", "0"),  # leading zeros
    (_AT_VALUE + r"-(?=[0-9])", "-0"),
    (_AT_VALUE + r"(?=[0-9])", "+"),
    (_AT_VALUE + r"(?=[0-9i])", "-"),
    (r"(?<=[0-9])(?=[0-9])", "_"),
    (r"[a-f]", st.sampled_from("ABCDEF")),  # upper-case hex
    (r"0x", "0X"),
    (r"(?<=0x)[01]", st.sampled_from("0123f")),  # other float spellings
    (r"(?<=0x[0-9])(?:\.[0-9a-f]*)?(?=p)", _FRACTIONS),
    (r"(?<=p)[+-][0-9]+", _EXPONENTS),
    (r"-?inf|nan:[0-9a-f]{16}|-?0x[0-9a-f.]+p[+-][0-9]+", _SPELLINGS["f"]),
    (_AT_VALUE + r"-?[0-9]+(?=[,\]\n])", _SPELLINGS["i"]),
    (r"\\x([01])([0-9a-f])", r"\\X\1\2"),  # escapes
    (r"(?<=[\"\\])[A-Za-z0-9 ]", st.sampled_from(["\\x41", "\\x20", "\\q"])),
]]


@st.composite
def _mutated(draw, payload: Payload) -> bytes:
    """``payload``'s encoding after one to three drawn mutations.

    Each step draws among the mutations that apply to the text so far:
    the rewrites whose pattern matches it, and swapping or repeating
    entry lines.
    """
    text = encode_payload(payload).decode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        choices = [rewrite for rewrite in _REWRITES if rewrite[0].search(text)]
        choices.append(_repeat_line)
        if text.count("\n") >= 3:
            choices.append(_swap_lines)
        choice = draw(st.sampled_from(choices))
        if not isinstance(choice, tuple):
            text = choice(draw, text)
            continue
        pattern, replacement = choice
        match = draw(st.sampled_from(list(pattern.finditer(text))))
        if isinstance(replacement, str):
            new = match.expand(replacement)
        else:
            new = draw(replacement)
        text = text[: match.start()] + new + text[match.end() :]
    return text.encode("utf-8")


# Leaves of numbers only, so the number grammars get most mutations.  Half
# the floats come from uniform bit patterns, which have long fractions and
# exponents of every size.
_floats = st.one_of(
    _scalars["f"],
    st.binary(min_size=8, max_size=8).map(lambda raw: struct.unpack(">d", raw)[0]),
)
_numbers = st.one_of(
    _scalars["i"],
    _floats,
    _array_strategy("i"),
    st.lists(_floats, min_size=1, max_size=3).map(lambda v: Array("f", tuple(v))),
)
numeric_leaves = st.dictionaries(names, _numbers, min_size=1, max_size=4).map(Payload.leaf)


@settings(max_examples=300)
@given(st.one_of(payloads, numeric_leaves, numeric_leaves).flatmap(_mutated))
def test_decode_accepts_exactly_what_a_lenient_read_re_encodes_to(mutated):
    _assert_decodes_as_the_oracle_says(mutated)


@pytest.mark.parametrize("bits", ["7ff0000000000001", "fff8000000000000"])
def test_nan_bit_patterns_round_trip(bits):
    # A signalling NaN and a negative quiet NaN keep their bits, in a
    # scalar and in an array.
    data = f"kind=leaf\na=f:nan:{bits}\nb=f[0x1p+0,nan:{bits}]\n".encode()
    payload = decode_payload(data)
    assert encode_payload(payload) == data
    assert payload == _canonical_by_re_encoding(data)
    for value in (payload.get("a"), payload.get("b").items[1]):
        assert struct.pack(">d", value).hex() == bits
