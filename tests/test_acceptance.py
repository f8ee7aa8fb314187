"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run under pytest (``pytest tests/test_acceptance.py -s``) or standalone
(``python tests/test_acceptance.py``), which prints an explicit
pass/fail line per criterion and exits nonzero on any failure.
"""

import os
import random
import shutil
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

from confdb.alias import new_alias_tree
from confdb.client import configure_run, fetch_raw
from confdb.commitproc import commit_alias_tree
from confdb.model import (
    Array,
    ObjectIdentity,
    Payload,
    decode_payload,
    encode_payload,
    format_identity,
    parse_identity,
)
from confdb.service import start_server
from confdb.store import open_store
from confdb.tree import activate, resolve_run_type, walk_tree
from helpers import build_balanced, child_env, clone_store, make_leaf, naive_commit

HERE = Path(__file__).parent


def _pass(number: int, name: str):
    print(f"ACCEPTANCE {number} ({name}): PASS", flush=True)


# -- 1. history reconstruction ---------------------------------------------------


def _build_editable_tree(store):
    """Roughly fifty nodes: 4 subsystems x 2 inner maps x 4 settings."""
    tree = new_alias_tree("main", "TopMap")
    with store.transaction() as txn:
        for s in range(4):
            subsystem = f"sub{s}"
            tree.add_map_alias("/", subsystem)
            for m in range(2):
                inner = f"grp{m}"
                tree.add_map_alias(subsystem, inner)
                for leaf_index in range(4):
                    name = f"set{leaf_index}"
                    identity = txn.create_object(
                        "Setting",
                        f"{subsystem}.{inner}.{name}",
                        Payload.leaf({"v": leaf_index}),
                    )
                    tree.set_object_alias(f"{subsystem}/{inner}", name, identity)
    return tree


def test_criterion_1_history_reconstruction(tmp_path):
    started = time.monotonic()
    rng = random.Random(101)
    store = open_store(tmp_path / "db", clock=lambda: 0)
    tree = _build_editable_tree(store)
    snapshots = []
    extras = 0
    for cycle in range(200):
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            subsystem = f"sub{rng.randrange(4)}"
            inner = f"grp{rng.randrange(2)}"
            parent = f"{subsystem}/{inner}"
            if roll < 0.7:
                name = f"set{rng.randrange(4)}"
                leaf = make_leaf(store, "Setting", f"{parent.replace('/', '.')}.{name}",
                                 v=rng.randrange(10**6))
                tree.set_object_alias(parent, name, leaf)
            elif roll < 0.85:
                extras += 1
                leaf = make_leaf(store, "Extra", None, v=extras)
                tree.set_object_alias(parent, f"extra{extras}", leaf)
            else:
                victims = [
                    name for name in tree.node_at(parent).children
                    if name.startswith("extra")
                ]
                if victims:
                    tree.remove_node(f"{parent}/{rng.choice(victims)}")
        root = commit_alias_tree(store, tree, ["PHYSICS"])
        snapshots.append((root, walk_tree(store, root).to_text()))

    assert len(snapshots) == 200
    for root, manifest_text in snapshots:
        assert walk_tree(store, root).to_text() == manifest_text
    # and across a reopen
    store.close()
    store = open_store(tmp_path / "db")
    for root, manifest_text in snapshots:
        assert walk_tree(store, root).to_text() == manifest_text
    store.close()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"history reconstruction took {elapsed:.1f}s"
    _pass(1, "history reconstruction")


# -- 2. minimal rebuild ------------------------------------------------------------


def test_criterion_2_minimal_rebuild(tmp_path):
    rng = random.Random(202)
    for trial in range(1000):
        depth = rng.randint(1, 4)
        branching = rng.randint(2, 3) if depth < 4 else 2
        base = tmp_path / f"t{trial}"
        store = open_store(base / "db", clock=lambda: 0)
        tree = build_balanced(store, depth, branching)
        root = commit_alias_tree(store, tree, ["PHYSICS"])
        before = dict(walk_tree(store, root).entries)

        # retarget one object alias at depth d to a fresh leaf version
        segments = [f"n{rng.randrange(branching)}" for _ in range(depth)]
        leaf_path = "/".join(segments)
        parent, _, name = leaf_path.rpartition("/")
        old_target = before[leaf_path]
        new_leaf = make_leaf(
            store, "Setting", "/".join(segments).replace("/", "."), v=10**9 + trial
        )
        assert new_leaf != old_target
        tree.set_object_alias(parent or "/", name, new_leaf)

        oracle = clone_store(store.directory, str(base / "oracle"))
        count_before = store.object_count()
        runtype_versions_before = len(store.list_versions("@runtypes"))
        new_root = commit_alias_tree(store, tree, ["PHYSICS"])
        created = store.object_count() - count_before
        runtype_created = len(store.list_versions("@runtypes")) - runtype_versions_before

        # exactly d new map records plus at most one run-type record
        assert runtype_created <= 1
        assert created - runtype_created == depth, (
            f"trial {trial}: depth {depth} created {created - runtype_created} maps"
        )

        # every off-path map reused with an identical identity
        after = dict(walk_tree(store, new_root).entries)
        changed_paths = {"/".join(segments[:i]) for i in range(depth + 1)}
        assert set(after) == set(before)
        for path, identity in after.items():
            if path in changed_paths:
                assert identity != before[path], f"trial {trial}: {path!r} not rebuilt"
            else:
                assert identity == before[path], f"trial {trial}: {path!r} not reused"

        # the naive full-rebuild-plus-dedup oracle agrees exactly
        oracle_root = naive_commit(oracle, tree, ["PHYSICS"])
        assert oracle_root == new_root
        assert walk_tree(oracle, oracle_root).to_text() == walk_tree(store, new_root).to_text()
        assert oracle.object_count() == store.object_count()
        oracle.close()
        store.close()
        shutil.rmtree(base)
    _pass(2, "minimal rebuild")


# -- 3. fixed point ------------------------------------------------------------------


def test_criterion_3_fixed_point(tmp_path):
    store = open_store(tmp_path / "db", clock=lambda: 0)
    tree = build_balanced(store, 3, 2)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    size = store.log_size()
    count = store.object_count()
    for _ in range(3):
        assert commit_alias_tree(store, tree, ["PHYSICS"]) == root
    assert store.object_count() == count
    assert store.log_size() == size
    store.close()
    _pass(3, "fixed point")


# -- 4. active-tree rule ---------------------------------------------------------------


def test_criterion_4_active_tree_rule(tmp_path):
    store = open_store(tmp_path / "db", clock=lambda: 0)
    history = []
    for k in range(1, 11):
        with store.transaction() as txn:
            root = txn.create_object("TopMap", None, Payload.map({}))
            bindings = {"PHYSICS": root}
            if k % 2 == 0:
                bindings["COSMICS"] = root
            identity = activate(store, txn, bindings)
        assert identity == ObjectIdentity("@runtypes", None, k)
        history.append(bindings)
        # the highest key always wins
        assert resolve_run_type(store, "PHYSICS") == bindings["PHYSICS"]
        assert store.list_versions("@runtypes") == list(range(1, k + 1))
    # every older version still reproduces its bindings exactly
    for k, bindings in enumerate(history, start=1):
        stored = store.get_object(ObjectIdentity("@runtypes", None, k))
        assert stored.payload.bindings == bindings
    store.close()
    _pass(4, "active-tree rule")


# -- 5. configure-transition load --------------------------------------------------------


def test_criterion_5_configure_transition_load(tmp_path):
    store = open_store(tmp_path / "db", clock=lambda: 0)
    tree = new_alias_tree("load", "TopMap")
    with store.transaction() as txn:
        for i in range(20):
            leaf = txn.create_object("Setting", f"ch{i}", Payload.leaf({"v": i}))
            tree.set_object_alias("/", f"ch{i}", leaf)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    paths = [f"ch{i}" for i in range(20)]
    expected = dict(walk_tree(store, root).entries)

    server = start_server(store, "127.0.0.1:0")
    resolved = threading.Barrier(101)
    activated = threading.Event()
    results = []
    errors = []

    def client(index: int):
        try:
            handle = configure_run(server.endpoint, "PHYSICS")
            resolved.wait(timeout=30)
            activated.wait(timeout=30)
            fetched = []
            for path in paths:
                identity, payload = fetch_raw(handle, path)
                fetched.append((path, identity, encode_payload(payload)))
            handle.close()
            results.append((handle.root, fetched))
        except Exception as exc:  # noqa: BLE001 - reported in the main thread
            errors.append((index, exc))

    started = time.monotonic()
    threads = [threading.Thread(target=client, args=(i,)) for i in range(100)]
    for t in threads:
        t.start()
    resolved.wait(timeout=30)  # all 100 clients have resolved
    # inject an activation mid-scenario
    retarget = make_leaf(store, "Setting", "ch0", v=999)
    tree.set_object_alias("/", "ch0", retarget)
    new_root = commit_alias_tree(store, tree, ["PHYSICS"])
    assert new_root != root
    activated.set()
    for t in threads:
        t.join(timeout=60)
    elapsed = time.monotonic() - started
    server.shutdown()
    server.server_close()
    store.close()

    assert errors == [], errors[:3]
    assert len(results) == 100
    roots = {r for r, _ in results}
    assert roots == {root}  # one consistent tree identity for every client
    fetch_count = sum(len(fetched) for _, fetched in results)
    assert fetch_count == 2000
    for _, fetched in results:
        for path, identity, payload_bytes in fetched:
            assert identity == expected[path]  # pre-activation data, unchanged
    assert elapsed < 10.0, f"load scenario took {elapsed:.1f}s"
    _pass(5, "configure-transition load")


# -- 6. crash atomicity --------------------------------------------------------------------


def test_criterion_6_crash_atomicity(tmp_path):
    rng = random.Random(606)
    pristine = tmp_path / "pristine"
    store = open_store(pristine, clock=lambda: 0)
    for i in range(3):
        make_leaf(store, "Base", None, v=i)
    base_versions = store.list_versions("Base")
    pre_size = store.log_size()
    store.close()

    child = str(HERE / "crash_child.py")

    def run_trial(directory: Path, budget: int) -> int:
        proc = subprocess.run(
            [sys.executable, child, str(directory), str(budget)],
            env=child_env(),
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode in (0, 17), proc.stderr.decode()
        return proc.returncode

    # measure the full commit size once
    probe = tmp_path / "probe"
    shutil.copytree(pristine, probe)
    assert run_trial(probe, 1 << 30) == 0
    commit_size = os.path.getsize(probe / "objects.log") - pre_size
    shutil.rmtree(probe)

    budgets = [0, 1, commit_size - 1, commit_size, commit_size + 1]
    budgets += [rng.randrange(1, commit_size) for _ in range(95)]
    for trial, budget in enumerate(budgets):
        workdir = tmp_path / f"trial{trial}"
        shutil.copytree(pristine, workdir)
        returncode = run_trial(workdir, budget)
        reopened = open_store(workdir, clock=lambda: 0)
        crash_versions = reopened.list_versions("Crash")
        assert reopened.list_versions("Base") == base_versions
        if returncode == 0:
            assert budget >= commit_size
            assert crash_versions == list(range(1, 21)), f"budget {budget}"
            for key in crash_versions:
                reopened.get_object(ObjectIdentity("Crash", None, key))
        else:
            assert crash_versions == [], f"budget {budget} left a partial transaction"
            assert reopened.log_size() == pre_size  # torn tail truncated away
        reopened.close()
        shutil.rmtree(workdir)
    _pass(6, "crash atomicity")


# -- 7. codec round trips ----------------------------------------------------------------------


_NAME_CHARS = [c for c in map(chr, range(0x20, 0x7F)) if c not in ":[]/="] + list("µßé星")


def _random_name(rng):
    return "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(1, 10)))


def _random_scalar(rng, tag):
    if tag == "i":
        return rng.choice((0, 1, -1, 2**63 - 1, -(2**63), rng.getrandbits(62)))
    if tag == "f":
        roll = rng.random()
        if roll < 0.15:
            return struct.unpack(">d", struct.pack(">Q", rng.getrandbits(64)))[0]
        if roll < 0.3:
            return rng.choice((0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324))
        return rng.uniform(-1e12, 1e12)
    if tag == "s":
        return "".join(
            chr(rng.randrange(0x00, 0x300)) for _ in range(rng.randint(0, 12))
        )
    return bytes(rng.randrange(256) for _ in range(rng.randint(0, 12)))


def _random_payload(rng):
    kind = rng.choice(("leaf", "map", "runtypes"))
    names = {_random_name(rng) for _ in range(rng.randint(0, 5))}
    if kind == "leaf":
        fields = {}
        for name in names:
            tag = rng.choice("ifsx")
            if rng.random() < 0.25:
                fields[name] = Array(
                    tag, tuple(_random_scalar(rng, tag) for _ in range(rng.randint(1, 4)))
                )
            else:
                fields[name] = _random_scalar(rng, tag)
        return Payload.leaf(fields)
    targets = {name: _random_identity(rng) for name in names}
    return Payload.map(targets) if kind == "map" else Payload.runtypes(targets)


def _random_identity(rng):
    return ObjectIdentity(
        _random_name(rng),
        _random_name(rng) if rng.random() < 0.5 else None,
        rng.randint(1, 10**9),
    )


def test_criterion_7_codec_round_trips():
    rng = random.Random(707)
    edge_payloads = [
        Payload.map({}),
        Payload.leaf({}),
        Payload.runtypes({}),
        Payload.leaf(
            {
                "nan": float("nan"),
                "negzero": -0.0,
                "poszero": 0.0,
                "denormal": 5e-324,
                "inf": float("inf"),
                "control": "\x00\x01\x1f\"\\",
                "empty": "",
                "blob": b"",
                "bounds": Array("i", (2**63 - 1, -(2**63))),
                "one empty blob": Array("x", (b"",)),
            }
        ),
    ]
    for payload in edge_payloads:
        encoded = encode_payload(payload)
        decoded = decode_payload(encoded)
        assert encode_payload(decoded) == encoded

    for _ in range(10_000):
        identity = _random_identity(rng)
        assert parse_identity(format_identity(identity)) == identity
        payload = _random_payload(rng)
        encoded = encode_payload(payload)
        decoded = decode_payload(encoded)
        assert decoded == payload
        assert encode_payload(decoded) == encoded
    _pass(7, "codec round trips")


# -- 8. key density -------------------------------------------------------------------------------


def test_criterion_8_key_density(tmp_path):
    rng = random.Random(808)
    store = open_store(tmp_path / "db", clock=lambda: 0)
    pairs = [("A", None), ("A", "x"), ("B", None), ("B", "y"), ("C", "z"), ("D", None)]
    expected = {pair: 0 for pair in pairs}
    for _ in range(250):
        txn = store.begin()
        staged = []
        for _ in range(rng.randint(1, 5)):
            pair = rng.choice(pairs)
            txn.create_object(pair[0], pair[1], Payload.leaf({"v": rng.randrange(100)}))
            staged.append(pair)
        if rng.random() < 0.4:
            txn.abort()
        else:
            txn.commit()
            for pair in staged:
                expected[pair] += 1
        for pair in pairs:
            keys = store.list_versions(*pair)
            assert keys == list(range(1, expected[pair] + 1)), pair
    store.close()
    # density survives recovery
    store = open_store(tmp_path / "db")
    for pair in pairs:
        assert store.list_versions(*pair) == list(range(1, expected[pair] + 1))
    store.close()
    _pass(8, "key density")


# -- 9. script replayability -----------------------------------------------------------------------


def _run_confdb(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, "-m", "confdb", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_9_script_replayability(tmp_path):
    data = HERE / "data"
    for name in ("hv.cfg", "fee.cfg", "emc.cfg", "figure1.cmds"):
        (tmp_path / name).write_bytes((data / name).read_bytes())
    outputs = [
        _run_confdb(tmp_path, "--store", store, "--epoch", "0", "script", "figure1.cmds")
        for store in ("s1", "s2")
    ]
    assert outputs[0] == outputs[1]
    log1 = (tmp_path / "s1" / "objects.log").read_bytes()
    log2 = (tmp_path / "s2" / "objects.log").read_bytes()
    assert log1 == log2
    golden = (data / "figure1_manifest.txt").read_text()
    assert outputs[0].endswith(golden)
    assert _run_confdb(tmp_path, "--store", "s1", "manifest", "TopMap[1]") == golden
    _pass(9, "script replayability")


# -- standalone runner ------------------------------------------------------------------------------


CRITERIA = [
    test_criterion_1_history_reconstruction,
    test_criterion_2_minimal_rebuild,
    test_criterion_3_fixed_point,
    test_criterion_4_active_tree_rule,
    test_criterion_5_configure_transition_load,
    test_criterion_6_crash_atomicity,
    test_criterion_7_codec_round_trips,
    test_criterion_8_key_density,
    test_criterion_9_script_replayability,
]


def _run_standalone():
    import tempfile

    failures = 0
    for func in CRITERIA:
        number = func.__name__.split("_")[2]
        try:
            with tempfile.TemporaryDirectory() as tmp:
                if "tmp_path" in func.__code__.co_varnames[: func.__code__.co_argcount]:
                    func(Path(tmp))
                else:
                    func()
        except BaseException as exc:  # noqa: BLE001 - standalone reporting
            failures += 1
            print(f"ACCEPTANCE {number} ({func.__name__}): FAIL -- {exc}")
    return failures


if __name__ == "__main__":
    raise SystemExit(1 if _run_standalone() else 0)
