"""Commit procedure tests: diff, minimal rebuild, dedup, oracle equivalence."""

import errno
import os
import random
import sys
import threading
import time

import pytest

from confdb.alias import (
    edit_alias_tree,
    load_alias_tree,
    new_alias_tree,
    save_alias_tree,
    serialize_alias_region,
    serialize_alias_tree,
)
from confdb.commitproc import ChangeSet, commit_alias_tree, diff_alias_vs_numeric
from confdb.errors import DanglingAliasTargetError
from confdb.model import ObjectIdentity, Payload
from confdb.store import open_store
from confdb.tree import active_trees, lookup_path, resolve_run_type, walk_tree
from helpers import (
    build_figure1,
    clone_store,
    make_leaf,
    naive_commit,
    random_alias_tree,
    random_edit,
)


@pytest.fixture
def store(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    yield s
    s.close()


def _statuses(changes: ChangeSet) -> dict:
    return {entry.path: entry.status for entry in changes.entries}


# -- diff ---------------------------------------------------------------------


def test_diff_fixed_point(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    changes = diff_alias_vs_numeric(store, tree, root)
    assert changes.is_fixed_point()
    assert set(_statuses(changes).values()) == {"unchanged"}


def test_diff_single_retarget_marks_ancestor_chain(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    hv2 = make_leaf(store, "DchHV", "sector3", hv=1900.0)
    tree.set_object_alias("dch", "hv", hv2)
    statuses = _statuses(diff_alias_vs_numeric(store, tree, root))
    assert statuses == {
        "": "changed",
        "dch": "changed",
        "dch/hv": "changed",
        "dch/fee": "unchanged",
        "emc": "unchanged",
        "emc/hv": "unchanged",
    }


def test_diff_bootstrap_everything_added(store):
    tree, _ = build_figure1(store)
    statuses = _statuses(diff_alias_vs_numeric(store, tree, None))
    assert set(statuses.values()) == {"added"}
    assert len(statuses) == 6


def test_diff_reports_removed_names(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    tree.remove_node("emc/hv")
    statuses = _statuses(diff_alias_vs_numeric(store, tree, root))
    assert statuses["emc/hv"] == "removed"
    assert statuses["emc"] == "changed"
    assert statuses[""] == "changed"
    assert statuses["dch"] == "unchanged"


def test_diff_kind_flip_reported_changed(store):
    tree, leaves = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    tree.remove_node("dch/hv")
    tree.add_map_alias("dch", "hv")
    tree.set_object_alias("dch/hv", "inner", leaves["fee"])
    statuses = _statuses(diff_alias_vs_numeric(store, tree, root))
    assert statuses["dch/hv"] == "changed"
    assert statuses["dch/hv/inner"] == "added"
    assert statuses["dch"] == "changed"


def test_diff_dangling_target(store):
    tree = new_alias_tree("t", "TopMap")
    tree.set_object_alias("/", "hv", ObjectIdentity("Ghost", None, 1))
    with pytest.raises(DanglingAliasTargetError):
        diff_alias_vs_numeric(store, tree, None)


def test_changeset_report_format(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    hv2 = make_leaf(store, "DchHV", "sector3", hv=1900.0)
    tree.set_object_alias("dch", "hv", hv2)
    lines = diff_alias_vs_numeric(store, tree, root).to_text().splitlines()
    assert lines[0] == "changed\t/\tTopMap[1]\t-"
    assert "changed\tdch/hv\tDchHV:sector3[1]\tDchHV:sector3[2]" in lines
    assert "unchanged\tdch/fee\tDchFee[1]\tDchFee[1]" in lines


def test_names_come_out_in_utf8_byte_order(store):
    names = ["\U00010000", "z", "\u00e9", "\ufffd", "Z"]
    in_byte_order = sorted(names, key=lambda name: name.encode("utf-8"))
    leaf = make_leaf(store, "Leaf", None, v=1)
    tree = new_alias_tree("t", "TopMap")
    for name in names[:3]:
        tree.set_object_alias("/", name, leaf)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    # Diff rows merge kept, added and removed names.
    tree.remove_node("z")
    for name in names[3:]:
        tree.set_object_alias("/", name, leaf)
    rows = [entry.path for entry in diff_alias_vs_numeric(store, tree, root).entries]
    assert rows == [""] + in_byte_order
    kept = [name for name in in_byte_order if name != "z"]
    lines = serialize_alias_tree(tree).splitlines()
    assert lines[1:] == [f"obj {name} = Leaf[1]" for name in kept]
    region = serialize_alias_region({name: new_alias_tree(name, "M") for name in names})
    assert region.splitlines() == [f"alias {name} root_class M" for name in in_byte_order]


# -- commit -------------------------------------------------------------------


def test_commit_single_retarget_rebuilds_exactly_the_path(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    before_manifest = dict(walk_tree(store, root).entries)
    hv2 = make_leaf(store, "DchHV", "sector3", hv=1900.0)
    tree.set_object_alias("dch", "hv", hv2)

    count_before = store.object_count()
    root2 = commit_alias_tree(store, tree, ["PHYSICS"])
    created = store.object_count() - count_before

    # exactly two map records (dch', Top') plus one run-type map record
    assert created == 3
    after_manifest = dict(walk_tree(store, root2).entries)
    assert after_manifest["emc"] == before_manifest["emc"]  # reused by identity
    assert after_manifest["emc/hv"] == before_manifest["emc/hv"]
    assert after_manifest["dch"] != before_manifest["dch"]
    assert root2 != root
    assert resolve_run_type(store, "PHYSICS") == root2


def test_rebuilt_maps_share_the_pairs_of_links_they_keep(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    tree.set_object_alias("dch", "hv", make_leaf(store, "DchHV", "sector3", hv=1900.0))
    root2 = commit_alias_tree(store, tree, ["PHYSICS"])

    def pairs(identity, path=""):
        return {pair[0]: pair for pair in lookup_path(store, identity, path).payload.entries}

    old_top, new_top = pairs(root), pairs(root2)
    old_dch, new_dch = pairs(root, "dch"), pairs(root2, "dch")
    assert new_top["emc"] is old_top["emc"]
    assert new_dch["fee"] is old_dch["fee"]
    assert new_top["dch"] is not old_top["dch"] and new_top["dch"][1] != old_top["dch"][1]
    assert new_dch["hv"] is not old_dch["hv"] and new_dch["hv"][1] != old_dch["hv"][1]


def test_commit_zero_edits_is_a_fixed_point(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    size = store.log_size()
    count = store.object_count()
    root2 = commit_alias_tree(store, tree, ["PHYSICS"])
    assert root2 == root
    assert store.object_count() == count
    assert store.log_size() == size


def test_bootstrap_commit_counts(store):
    tree, _ = build_figure1(store)  # 2 interior maps + root
    count = store.object_count()
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    assert store.object_count() - count == 4  # 3 maps + 1 run-type map
    assert resolve_run_type(store, "PHYSICS") == root


def test_commit_faithfulness(store):
    tree, leaves = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    assert lookup_path(store, root, "dch/hv").identity == leaves["hv"]
    assert lookup_path(store, root, "dch/fee").identity == leaves["fee"]
    assert lookup_path(store, root, "emc/hv").identity == leaves["emc"]
    assert set(lookup_path(store, root, "dch").payload.links) == {"hv", "fee"}
    assert set(lookup_path(store, root, "").payload.links) == {"dch", "emc"}


def test_history_preserved_across_commits(store):
    tree, _ = build_figure1(store)
    root1 = commit_alias_tree(store, tree, ["PHYSICS"])
    manifest1 = walk_tree(store, root1).to_text()
    for version in range(5):
        hv = make_leaf(store, "DchHV", "sector3", hv=1900.0 + version)
        tree.set_object_alias("dch", "hv", hv)
        commit_alias_tree(store, tree, ["PHYSICS"])
    assert walk_tree(store, root1).to_text() == manifest1


def test_commit_idempotent(store):
    tree, _ = build_figure1(store)
    commit_alias_tree(store, tree, ["PHYSICS"])
    hv2 = make_leaf(store, "DchHV", "sector3", hv=1900.0)
    tree.set_object_alias("dch", "hv", hv2)
    commit_alias_tree(store, tree, ["PHYSICS"])
    count = store.object_count()
    commit_alias_tree(store, tree, ["PHYSICS"])
    assert store.object_count() == count


def test_rebinding_a_fixed_point_tree_creates_only_a_runtype_record(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    count = store.object_count()
    root2 = commit_alias_tree(store, tree, ["PHYSICS", "COSMICS"])
    assert root2 == root
    assert store.object_count() - count == 1  # just the new @runtypes version
    assert active_trees(store) == {"PHYSICS": root, "COSMICS": root}


def test_commit_without_bindings_bootstraps(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree)
    assert active_trees(store) == {}
    assert lookup_path(store, root, "dch/hv").kind == "leaf"


def test_commit_removal(store):
    tree, _ = build_figure1(store)
    commit_alias_tree(store, tree, ["PHYSICS"])
    tree.remove_node("emc")
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    assert set(lookup_path(store, root, "").payload.links) == {"dch"}


def test_commit_kind_flip(store):
    tree, leaves = build_figure1(store)
    commit_alias_tree(store, tree, ["PHYSICS"])
    tree.remove_node("dch/hv")
    tree.add_map_alias("dch", "hv")
    tree.set_object_alias("dch/hv", "inner", leaves["fee"])
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    assert lookup_path(store, root, "dch/hv").kind == "map"
    assert lookup_path(store, root, "dch/hv/inner").identity == leaves["fee"]


def test_commit_grafted_subtree_expands_in_manifest(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    dch_map = dict(walk_tree(store, root).entries)["dch"]
    graft = new_alias_tree("graft", "TopMap")
    graft.set_object_alias("/", "borrowed", dch_map)
    root2 = commit_alias_tree(store, graft, ["CALIB"])
    paths = [path for path, _ in walk_tree(store, root2).entries]
    assert paths == ["", "borrowed", "borrowed/fee", "borrowed/hv"]


def test_pinning_the_current_numeric_map_is_unchanged(store):
    # replacing a map alias with an object alias that pins the very map
    # the numeric tree links is a fixed point: same name, same identity
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    dch_map = dict(walk_tree(store, root).entries)["dch"]
    tree.remove_node("dch")
    tree.set_object_alias("/", "dch", dch_map)
    changes = diff_alias_vs_numeric(store, tree, root)
    assert changes.is_fixed_point()
    count = store.object_count()
    assert commit_alias_tree(store, tree, ["PHYSICS"]) == root
    assert store.object_count() == count


def test_commit_dangling_target_commits_nothing(store):
    tree, _ = build_figure1(store)
    commit_alias_tree(store, tree, ["PHYSICS"])
    tree.set_object_alias("dch", "hv", ObjectIdentity("Ghost", None, 1))
    size = store.log_size()
    with pytest.raises(DanglingAliasTargetError):
        commit_alias_tree(store, tree, ["PHYSICS"])
    assert store.log_size() == size
    # the store still works afterwards
    tree2, _ = build_figure1(store)
    commit_alias_tree(store, tree2, ["PHYSICS"])


def test_interior_map_identity_scheme(store):
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    entries = dict(walk_tree(store, root).entries)
    assert entries["dch"].class_name == "Map"
    assert entries["dch"].secondary_key == "dch"
    assert root.class_name == "TopMap"
    assert root.secondary_key is None


# -- oracle equivalence ---------------------------------------------------------


def _assert_matches_oracle(store, tmp_path, tag, tree, binds):
    """Run the real commit and the naive rebuild on twin stores; compare."""
    oracle_store = clone_store(store.directory, str(tmp_path / f"oracle{tag}"))
    try:
        root = commit_alias_tree(store, tree, binds)
        oracle_root = naive_commit(oracle_store, tree, binds)
        assert root == oracle_root
        assert (
            walk_tree(store, root).to_text()
            == walk_tree(oracle_store, oracle_root).to_text()
        )
        assert store.object_count() == oracle_store.object_count()
        assert store.log_size() == oracle_store.log_size()
    finally:
        oracle_store.close()


def test_oracle_equivalence_on_random_edit_scripts(tmp_path):
    rng = random.Random(20260808)
    trials = 120
    for trial in range(trials):
        with open_store(tmp_path / f"s{trial}", clock=lambda: 0) as trial_store:
            tree = random_alias_tree(rng, trial_store, max_depth=6, max_children=8)
            _assert_matches_oracle(trial_store, tmp_path, f"{trial}a", tree, ["PHYSICS"])
            tag = [0]
            for _ in range(rng.randint(1, 5)):
                random_edit(rng, trial_store, tree, tag)
            tree.audit()
            _assert_matches_oracle(trial_store, tmp_path, f"{trial}b", tree, ["PHYSICS"])


def _assert_diff_agrees_with_commit(store, tree, baseline):
    """The diff's rows predict exactly what the commit then changes."""
    changes = diff_alias_vs_numeric(store, tree, baseline)
    before = dict(walk_tree(store, baseline).entries) if baseline else {}
    count = store.object_count()
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    after = dict(walk_tree(store, root).entries)
    assert changes.is_fixed_point() == (store.object_count() == count)
    moved = {path for path, identity in after.items() if before.get(path) != identity}
    rebuilt = {e.path for e in changes.entries if e.is_map and e.status in ("changed", "added")}
    repinned = {e.path for e in changes.entries if not e.is_map and e.status in ("changed", "added")}
    assert rebuilt | repinned == moved
    return root


def test_diff_and_commit_agree_on_random_edit_scripts(tmp_path):
    rng = random.Random(20261018)
    for trial in range(60):
        with open_store(tmp_path / f"s{trial}", clock=lambda: 0) as trial_store:
            tree = random_alias_tree(rng, trial_store, max_depth=5, max_children=6)
            root = _assert_diff_agrees_with_commit(trial_store, tree, None)
            root = _assert_diff_agrees_with_commit(trial_store, tree, root)  # zero edits
            tag = [0]
            for _ in range(4):
                for _ in range(rng.randint(0, 3)):
                    random_edit(rng, trial_store, tree, tag)
                root = _assert_diff_agrees_with_commit(trial_store, tree, root)
            # A dangling pin is refused before the commit stages anything.
            random_edit(rng, trial_store, tree, tag)
            changes = diff_alias_vs_numeric(trial_store, tree, root)
            parent = rng.choice([e.path for e in changes.entries if e.is_map])
            tree.set_object_alias(parent or "/", "ghost", ObjectIdentity("Ghost", None, 1))
            with trial_store.transaction() as txn:
                staged = txn.create_object("Staged", None, Payload.leaf({"n": trial}))
                pending = list(txn.pending)
                with pytest.raises(DanglingAliasTargetError):
                    commit_alias_tree(txn, tree, ["PHYSICS"])
                assert txn.pending == pending and txn.has_object(staged)
                txn.abort()


class _YieldingList(list):
    """A list that lets other threads run after every append."""

    def append(self, value):
        super().append(value)
        time.sleep(0.0001)


class _YieldingDict(dict):
    """A dict of yielding lists that lets other threads run after every insert."""

    def __setitem__(self, key, value):
        super().__setitem__(key, _YieldingList(value))
        time.sleep(0.0001)


def test_readers_walk_only_committed_trees_while_commits_land(store):
    tree = new_alias_tree("golden", "TopMap")
    paths = [(f"m{i}", f"l{j}") for i in range(4) for j in range(5)]

    def edit_and_commit(round_no):
        with store.transaction() as txn:
            for crate, leaf in paths:
                target = txn.create_object("Leaf", f"{crate}.{leaf}", Payload.leaf({"r": round_no}))
                tree.set_object_alias(crate, leaf, target)
            root = commit_alias_tree(txn, tree, ["PHYSICS"])
        manifests[root] = walk_tree(store, root).entries

    manifests = {}
    for i in range(4):
        tree.add_map_alias("/", f"m{i}")
    edit_and_commit(0)
    # Publishing then pauses after each insert into the dense index, a new
    # pair or a new key, so the reader runs between any two steps of it.
    index = _YieldingDict()
    for pair, slots in store._index.items():
        index[pair] = slots
    store._index = index
    stop = threading.Event()
    walks = []
    errors = []

    def read():
        try:
            while not stop.is_set():
                root = resolve_run_type(store, "PHYSICS")
                walks.append((root, walk_tree(store, root).entries))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter back soon after each pause
    reader.start()
    try:
        for round_no in range(1, 31):
            edit_and_commit(round_no)
    finally:
        stop.set()
        reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert errors == []
    assert len({root for root, _ in walks}) > 1
    for root, entries in walks:
        assert entries == manifests[root]


# -- commit marks ---------------------------------------------------------------


def _log_bytes(store) -> bytes:
    with open(store.directory + "/objects.log", "rb") as f:
        return f.read()


def test_oracle_equivalence_over_generations_of_saves_loads_and_two_handles(tmp_path):
    from confdb.alias import load_alias_tree, save_alias_tree

    rng = random.Random(20261019)
    for trial in range(12):
        directory = str(tmp_path / f"s{trial}")
        handles = [open_store(directory, clock=lambda: 0) for _ in range(2)]
        try:
            tree = random_alias_tree(rng, handles[0], max_depth=5, max_children=6)
            save_alias_tree(handles[0], tree)
            tag = [0]
            for generation in range(8):
                store = rng.choice(handles)
                if rng.random() < 0.7:
                    tree = load_alias_tree(store, "random")
                for _ in range(rng.choice([0, 0, 1, 2, 4])):
                    random_edit(rng, store, tree, tag)
                save_alias_tree(store, tree)
                binds = rng.choice([["PHYSICS"], ["PHYSICS"], ["COSMICS", "PHYSICS"]])
                oracle = clone_store(directory, str(tmp_path / f"oracle{trial}-{generation}"))
                try:
                    oracle_root = naive_commit(oracle, tree, binds)
                    root = commit_alias_tree(store, tree, binds)
                    assert root == oracle_root
                    assert walk_tree(store, root).entries == walk_tree(oracle, root).entries
                    assert _log_bytes(store) == _log_bytes(oracle)
                finally:
                    oracle.close()
        finally:
            for handle in handles:
                handle.close()


def test_a_tree_committed_in_one_store_is_rebuilt_in_another(tmp_path):
    with open_store(tmp_path / "a", clock=lambda: 0) as a, \
            open_store(tmp_path / "b", clock=lambda: 0) as b:
        tree = new_alias_tree("golden", "TopMap")
        tree.add_map_alias("/", "m")
        tree.set_object_alias("m", "x", make_leaf(a, "Leaf", None, v=1))
        commit_alias_tree(a, tree, ["PHYSICS"])  # marks m as Map:m[1] of store a
        # In b the same identities name other content.
        assert make_leaf(b, "Leaf", None, v=2) == ObjectIdentity("Leaf", None, 1)
        other = new_alias_tree("golden", "TopMap")
        other.add_map_alias("/", "m")
        other.set_object_alias("m", "y", make_leaf(b, "Leaf", None, v=3))
        b_root = commit_alias_tree(b, other, ["PHYSICS"])
        assert lookup_path(b, b_root, "m").identity == ObjectIdentity("Map", "m", 1)

        oracle = clone_store(b.directory, str(tmp_path / "oracle"))
        try:
            oracle_root = naive_commit(oracle, tree, ["PHYSICS"])
            root = commit_alias_tree(b, tree, ["PHYSICS"])
            assert root == oracle_root != b_root
            assert dict(walk_tree(b, root).entries)["m/x"] == ObjectIdentity("Leaf", None, 1)
            assert _log_bytes(b) == _log_bytes(oracle)
        finally:
            oracle.close()


def _abort(store, tree, monkeypatch):
    txn = store.begin()
    staged = commit_alias_tree(txn, tree, ["PHYSICS"])
    txn.abort()
    return staged


def _fail_fsync(store, tree, monkeypatch):
    real, calls = os.fsync, []

    def fail_first_call(fd):
        calls.append(fd)
        if len(calls) > 1:
            return real(fd)
        raise OSError(errno.EIO, "injected fsync failure")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", fail_first_call)
        with pytest.raises(OSError, match="injected"):
            commit_alias_tree(store, tree, ["PHYSICS"])
    return ObjectIdentity("TopMap", None, 2)


@pytest.mark.parametrize("fail", [_abort, _fail_fsync], ids=["abort", "fsync"])
def test_an_aborted_commit_leaves_no_marks_for_keys_reused_later(store, tmp_path, monkeypatch, fail):
    tree = new_alias_tree("golden", "TopMap")
    tree.add_map_alias("/", "m")
    tree.set_object_alias("m", "x", make_leaf(store, "Leaf", None, v=1))
    commit_alias_tree(store, tree, ["PHYSICS"])
    tree.set_object_alias("m", "x", make_leaf(store, "Leaf", None, v=2))
    log = _log_bytes(store)
    staged = fail(store, tree, monkeypatch)
    assert staged == ObjectIdentity("TopMap", None, 2)
    assert _log_bytes(store) == log
    # Another tree takes the aborted keys Map:m[2] and TopMap[2].
    other = new_alias_tree("golden", "TopMap")
    other.add_map_alias("/", "m")
    other.set_object_alias("m", "z", make_leaf(store, "Leaf", None, v=3))
    assert commit_alias_tree(store, other, ["PHYSICS"]) == staged

    oracle = clone_store(store.directory, str(tmp_path / "oracle"))
    try:
        oracle_root = naive_commit(oracle, tree, ["PHYSICS"])
        root = commit_alias_tree(store, tree, ["PHYSICS"])
        assert root == oracle_root != staged
        assert walk_tree(store, root).entries == walk_tree(oracle, oracle_root).entries
        assert _log_bytes(store) == _log_bytes(oracle)
    finally:
        oracle.close()


def test_a_commit_visits_only_edited_sub_trees(store, monkeypatch):
    import confdb.commitproc as commitproc

    tree = new_alias_tree("golden", "TopMap")
    for crate in ("c1", "c2", "c3"):
        tree.add_map_alias("/", crate)
        for slot in ("s1", "s2"):
            tree.add_map_alias(crate, slot)
            tree.set_object_alias(f"{crate}/{slot}", "v", make_leaf(store, "Leaf", None, v=1))
    root = commit_alias_tree(store, tree, ["PHYSICS"])

    visited = []
    analyze = commitproc._analyze

    def counting(view, node, numeric, segments, rows, token=None):
        visited.append("/".join(segments))
        return analyze(view, node, numeric, segments, rows, token)

    monkeypatch.setattr(commitproc, "_analyze", counting)
    assert commit_alias_tree(store, tree, ["PHYSICS"]) == root
    assert visited == [""]
    # The preview ignores marks: it still compares every node.
    changes = diff_alias_vs_numeric(store, tree, root)
    assert changes.is_fixed_point() and len(changes.entries) == 1 + 3 + 6 + 6

    visited.clear()
    tree.set_object_alias("c2/s1", "v", make_leaf(store, "Leaf", None, v=2))
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    assert visited == ["", "c1", "c2", "c2/s1", "c2/s2", "c3"]
    visited.clear()
    assert commit_alias_tree(store, tree, ["PHYSICS"]) == root
    assert visited == [""]


def test_a_commit_inside_an_open_transaction_leaves_marks(store, monkeypatch):
    import confdb.commitproc as commitproc

    tree = new_alias_tree("golden", "TopMap")
    for crate in ("c1", "c2"):
        tree.add_map_alias("/", crate)
        tree.set_object_alias(crate, "v", make_leaf(store, "Leaf", None, v=1))
    with store.transaction() as txn:
        root = commit_alias_tree(txn, tree, ["PHYSICS"])

    visited = []
    analyze = commitproc._analyze

    def counting(view, node, numeric, segments, rows, marks=False):
        visited.append("/".join(segments))
        return analyze(view, node, numeric, segments, rows, marks)

    monkeypatch.setattr(commitproc, "_analyze", counting)
    assert commit_alias_tree(store, tree, ["PHYSICS"]) == root
    assert visited == [""]


# (edit applied to the saved tree, run types its commit binds), one per generation.
GENERATIONS = [
    (lambda tree, leaves: None, ["PHYSICS"]),
    (lambda tree, leaves: tree.set_object_alias("dch", "hv", leaves["hv2"]), ["PHYSICS"]),
    (
        lambda tree, leaves: tree.add_map_alias("emc", "crate 2").set_object_alias(
            "emc/crate 2", "fee", leaves["fee2"]
        ),
        ["PHYSICS", "COSMICS"],
    ),
    (lambda tree, leaves: tree.set_object_alias("dch", "fee", leaves["emc"]), ["COSMICS"]),
    (lambda tree, leaves: None, ["COSMICS"]),  # a fixed point
]


def _store_files(path) -> tuple:
    """The bytes of ``objects.log`` and ``aliases.dat``; None for a file not yet written."""
    files = [path / "objects.log", path / "aliases.dat"]
    return tuple(f.read_bytes() if f.exists() else None for f in files)


def _run_generations(path, way: str):
    """Save, edit and commit figure 1 over ``GENERATIONS``; the roots and the store's files.

    ``way`` gives each call the store ("store"), or each generation's calls
    one open transaction that then commits ("joined"); "rehearsed" first runs
    each generation in a transaction that aborts, and checks that no call in
    it writes anything.
    """
    roots = []
    with open_store(path, clock=lambda: 0) as store:
        tree, leaves = build_figure1(store)
        leaves["hv2"] = make_leaf(store, "DchHV", "sector3", hv=1900.0)
        leaves["fee2"] = make_leaf(store, "EmcFee", "crate 2", gain=2)

        def generation(source, edit, bind):
            save_alias_tree(source, tree)
            edit_alias_tree(source, "golden", lambda tree: edit(tree, leaves))
            edited = load_alias_tree(source, "golden")
            return edited, commit_alias_tree(source, edited, bind)

        for edit, bind in GENERATIONS:
            if way == "store":
                tree, root = generation(store, edit, bind)
                roots.append(root)
                continue
            if way == "rehearsed":
                before = _store_files(path)
                txn = store.begin()
                generation(txn, edit, bind)
                assert _store_files(path) == before
                txn.abort()
                assert _store_files(path) == before
            txn = store.begin()
            tree, root = generation(txn, edit, bind)
            roots.append(root)
            txn.commit()
    return roots, _store_files(path)


def test_a_store_and_a_joined_transaction_write_the_same_bytes(tmp_path):
    expected = _run_generations(tmp_path / "store", "store")
    assert len(set(expected[0])) == 4  # the fixed point reuses its root
    for way in ("joined", "rehearsed"):
        assert _run_generations(tmp_path / way, way) == expected, way
