"""Identity and payload codec tests, including the canonical-form grammar."""

import hashlib
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdb.errors import InvalidNameError, MalformedIdentityError, MalformedPayloadError
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
from helpers import pure_sha256, shortest_hexfloat

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
