"""Shared test utilities: independent oracles and store/tree builders.

The oracles here deliberately avoid the library's own code paths:
``pure_sha256`` is a from-scratch SHA-256, ``shortest_hexfloat`` prints
hex-floats straight from the raw IEEE bits, and ``naive_commit`` rebuilds
every map of an alias tree bottom-up with plain content comparison
(no change tracking), which is the reference the minimal-rebuild
implementation must agree with. ``child_env`` gives ``python -m confdb``
child processes the same package the tests import, and ``answer`` sends
one request line through a server's own answer path.
"""

from __future__ import annotations

import os
import random
import shutil
import struct
import zlib
from pathlib import Path

import confdb
from confdb.alias import AliasTree, MapAlias, ObjectAlias, new_alias_tree
from confdb.model import ObjectIdentity, Payload
from confdb.service import FRAME_CACHE_BYTES, BoundedCache, handle_request
from confdb.store import Store, open_store
from confdb.tree import active_trees

# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    """A copy of ``os.environ`` for a ``python -m confdb`` child process.

    The directory holding the imported ``confdb`` package goes first on
    ``PYTHONPATH`` as an absolute path: a relative entry such as ``src``
    stops resolving once the child runs in a temporary directory, and the
    child must run the code under test, not some other installed copy.
    """
    env = dict(os.environ)
    entries = [str(Path(confdb.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        entries.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


# ---------------------------------------------------------------------------
# one request line, answered as a server answers it


def answer(store: Store, line: str) -> bytes:
    """The frame a server answers ``line`` with as a miss: through a fresh frame cache."""
    return handle_request(store, line, BoundedCache(FRAME_CACHE_BYTES))


# ---------------------------------------------------------------------------
# independent SHA-256 (FIPS 180-4), used only as a digest oracle

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


def pure_sha256(message: bytes) -> bytes:
    h = [
        0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
        0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
    ]
    length = len(message) * 8
    message += b"\x80"
    message += b"\x00" * ((56 - len(message)) % 64)
    message += struct.pack(">Q", length)
    for block_start in range(0, len(message), 64):
        w = list(struct.unpack(">16I", message[block_start : block_start + 64]))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, hh = h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (hh + s1 + ch + _K[i] + w[i]) & 0xFFFFFFFF
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & 0xFFFFFFFF
            hh, g, f, e, d, c, b, a = (
                g, f, e, (d + temp1) & 0xFFFFFFFF, c, b, a, (temp1 + temp2) & 0xFFFFFFFF,
            )
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return struct.pack(">8I", *h)


# ---------------------------------------------------------------------------
# independent shortest hex-float printer, straight from the IEEE-754 bits


def shortest_hexfloat(value: float) -> str:
    bits = struct.unpack(">Q", struct.pack(">d", value))[0]
    sign = "-" if bits >> 63 else ""
    raw_exp = (bits >> 52) & 0x7FF
    mantissa = bits & ((1 << 52) - 1)
    if raw_exp == 0x7FF:
        if mantissa:
            return "nan:" + struct.pack(">d", value).hex()
        return sign + "inf"
    if raw_exp == 0:
        lead, exp = "0", -1022
    else:
        lead, exp = "1", raw_exp - 1023
    frac = f"{mantissa:013x}".rstrip("0")
    head = f"{sign}0x{lead}.{frac}" if frac else f"{sign}0x{lead}"
    return f"{head}p{exp:+d}"


# ---------------------------------------------------------------------------
# store and tree builders


def make_leaf(store: Store, class_name: str, secondary=None, **fields) -> ObjectIdentity:
    with store.transaction() as txn:
        return txn.create_object(class_name, secondary, Payload.leaf(fields))


def build_figure1(store: Store):
    """Two subsystem branches under a root, the worked example shape."""
    hv = make_leaf(store, "DchHV", "sector3", hv=1800.0)
    fee = make_leaf(store, "DchFee", None, gain=4)
    emc = make_leaf(store, "EmcHV", None, hv=1200.5)
    tree = new_alias_tree("golden", "TopMap")
    tree.add_map_alias("/", "dch")
    tree.set_object_alias("dch", "hv", hv)
    tree.set_object_alias("dch", "fee", fee)
    tree.add_map_alias("/", "emc")
    tree.set_object_alias("emc", "hv", emc)
    return tree, {"hv": hv, "fee": fee, "emc": emc}


def commit_generations(store: Store, tree: AliasTree, leaves: dict) -> list:
    """Commit figure 1 and three edits of it; returns every root, oldest first."""
    from confdb.commitproc import commit_alias_tree

    roots = [commit_alias_tree(store, tree, ["PHYSICS"])]
    tree.set_object_alias("dch", "hv", make_leaf(store, "DchHV", "sector3", hv=1900.0))
    roots.append(commit_alias_tree(store, tree, ["PHYSICS"]))
    tree.add_map_alias("emc", "crate 2")
    tree.set_object_alias("emc/crate 2", "fee", make_leaf(store, "EmcFee", "crate 2", gain=2))
    roots.append(commit_alias_tree(store, tree, ["PHYSICS", "COSMICS"]))
    tree.set_object_alias("dch", "fee", leaves["emc"])
    roots.append(commit_alias_tree(store, tree, ["COSMICS"]))
    return roots


def build_balanced(store: Store, depth: int, branching: int) -> AliasTree:
    """Interior map aliases down to ``depth - 1``, object aliases at ``depth``."""
    tree = new_alias_tree("balanced", "TopMap")
    if depth == 0:
        return tree
    leaf_slots = []

    def grow(path: str, level: int):
        for i in range(branching):
            name = f"n{i}"
            child_path = f"{path}/{name}" if path else name
            if level < depth - 1:
                tree.add_map_alias(path or "/", name)
                grow(child_path, level + 1)
            else:
                leaf_slots.append((path, name, child_path))

    grow("", 0)
    with store.transaction() as txn:
        for index, (path, name, child_path) in enumerate(leaf_slots):
            leaf = txn.create_object(
                "Setting", child_path.replace("/", "."), Payload.leaf({"v": index})
            )
            tree.set_object_alias(path or "/", name, leaf)
    return tree


def clone_store(src_dir: str, dst_dir: str) -> Store:
    """Open an independent store on a byte-copy of another store's files."""
    os.makedirs(dst_dir, exist_ok=True)
    for name in ("objects.log", "aliases.dat"):
        src = os.path.join(src_dir, name)
        if os.path.exists(src):
            shutil.copy(src, os.path.join(dst_dir, name))
    return open_store(dst_dir, clock=lambda: 0)


# ---------------------------------------------------------------------------
# log records framed by hand


def log_record(rtype: int, body: bytes) -> bytes:
    """A record framed from the format the store documents (magic 0xC7, type,
    4-octet length, body, 4-octet CRC-32), not with the store's own code."""
    crc = zlib.crc32(body).to_bytes(4, "big")
    return bytes((0xC7, rtype)) + len(body).to_bytes(4, "big") + body + crc


def log_transaction(*objects) -> bytes:
    """Object records for ``(identity text, payload bytes)`` pairs, stamped 0, then their commit."""
    records = [
        log_record(0x01, f"{identity}\n0\n".encode() + payload) for identity, payload in objects
    ]
    return b"".join(records) + log_record(0x02, str(len(objects)).encode())


# A CRC-valid record that no writer of this program produces, B[1], and
# a map M[1] that links it beside a canonical leaf C[1].
NON_CANONICAL_LEAF_LOG = log_transaction(
    ("B[1]", b"kind=leaf\na=i:01\n"), ("C[1]", b"kind=leaf\nc=i:3\n"),
    ("M[1]", b"kind=map\nb=B[1]\nc=C[1]\n"),
)


# ---------------------------------------------------------------------------
# the naive full-rebuild-plus-dedup committer (oracle for commitproc)


def naive_commit(store: Store, tree: AliasTree, bind_run_types=()) -> ObjectIdentity:
    """Rebuild every map bottom-up; reuse only on byte-identical content."""
    binds = list(bind_run_types)
    current = active_trees(store)
    baseline = current.get(binds[0]) if binds else None
    txn = store.begin()
    try:
        def rebuild(node: MapAlias, counterpart, segments):
            counterpart_links = {}
            if counterpart is not None:
                obj = store.get_object(counterpart)
                if obj.kind == "map":
                    counterpart_links = obj.payload.links
            links = {}
            for name, child in node.sorted_items():
                if isinstance(child, ObjectAlias):
                    links[name] = child.target
                else:
                    links[name] = rebuild(child, counterpart_links.get(name), segments + (name,))
            payload = Payload.map(links)
            if counterpart is not None and store.get_object(counterpart).payload == payload:
                return counterpart
            if segments:
                return txn.create_object("Map", ".".join(segments), payload)
            return txn.create_object(tree.root_class, None, payload)

        root = rebuild(tree.root, baseline, ())
        if binds:
            rebound = dict(current)
            for run_type in binds:
                rebound[run_type] = root
            if rebound != current:
                txn.create_object("@runtypes", None, Payload.runtypes(rebound))
        txn.commit()
        return root
    except BaseException:
        if txn.state == "open":
            txn.abort()
        raise


# ---------------------------------------------------------------------------
# randomized alias trees and edit scripts


def random_alias_tree(rng: random.Random, store: Store, max_depth=6, max_children=8) -> AliasTree:
    tree = new_alias_tree("random", "TopMap")
    counter = [0]

    def grow(path: str, level: int):
        for _ in range(rng.randint(0, max_children if level > 0 else max(2, max_children // 2))):
            counter[0] += 1
            name = f"x{counter[0]}"
            if level + 1 < max_depth and rng.random() < 0.45:
                tree.add_map_alias(path or "/", name)
                grow(f"{path}/{name}" if path else name, level + 1)
            else:
                leaf = make_leaf(store, rng.choice("ABC"), None, n=counter[0])
                tree.set_object_alias(path or "/", name, leaf)

    grow("", 0)
    return tree


def _alias_paths(tree: AliasTree):
    maps, objects = [], []

    def visit(node: MapAlias, path: str):
        maps.append(path)
        for name, child in node.sorted_items():
            child_path = f"{path}/{name}" if path else name
            if isinstance(child, MapAlias):
                visit(child, child_path)
            else:
                objects.append(child_path)

    visit(tree.root, "")
    return maps, objects


def random_edit(rng: random.Random, store: Store, tree: AliasTree, tag: list):
    """Apply one random edit; may be a no-op when nothing applies."""
    maps, objects = _alias_paths(tree)
    op = rng.random()
    if op < 0.45 and objects:
        path = rng.choice(objects)
        parent, _, name = path.rpartition("/")
        leaf = make_leaf(store, rng.choice("ABC"), None, n=rng.randrange(10**6))
        tree.set_object_alias(parent or "/", name, leaf)
    elif op < 0.65:
        parent = rng.choice(maps)
        tag[0] += 1
        leaf = make_leaf(store, rng.choice("ABC"), None, n=rng.randrange(10**6))
        tree.set_object_alias(parent or "/", f"new{tag[0]}", leaf)
    elif op < 0.8:
        parent = rng.choice(maps)
        tag[0] += 1
        tree.add_map_alias(parent or "/", f"m{tag[0]}")
    elif objects or len(maps) > 1:
        victims = objects + [m for m in maps if m]
        if victims:
            tree.remove_node(rng.choice(victims))
