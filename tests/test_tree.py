"""Tree navigation, manifests, and the active run-type map rule."""

import gc

import pytest

from confdb.alias import serialize_alias_tree

from confdb.commitproc import commit_alias_tree
from confdb.errors import (
    DepthExceededError,
    NoActiveMapError,
    NoSuchLinkError,
    NotAMapError,
    NotFoundError,
    UnknownRunTypeError,
)
from confdb.model import ObjectIdentity, Payload
from confdb.store import open_store
from confdb.tree import activate, active_trees, lookup_path, resolve_run_type, walk_tree
from helpers import build_figure1, make_leaf


@pytest.fixture
def store(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    yield s
    s.close()


@pytest.fixture
def figure1(store):
    tree, leaves = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    return root, leaves


def test_lookup_leaf_through_subsystem_map(store, figure1):
    root, leaves = figure1
    assert lookup_path(store, root, "dch/hv").identity == leaves["hv"]


def test_lookup_empty_path_returns_root(store, figure1):
    root, _ = figure1
    obj = lookup_path(store, root, "")
    assert obj.identity == root
    assert obj.kind == "map"
    assert lookup_path(store, root, "/").identity == root


def test_lookup_through_leaf_fails(store, figure1):
    root, _ = figure1
    with pytest.raises(NotAMapError) as err:
        lookup_path(store, root, "dch/hv/x")
    assert err.value.detail == "dch/hv"


def test_lookup_reports_deepest_resolved_prefix(store, figure1):
    root, _ = figure1
    with pytest.raises(NoSuchLinkError) as err:
        lookup_path(store, root, "dch/nope")
    assert err.value.detail == "dch"
    with pytest.raises(NoSuchLinkError) as err:
        lookup_path(store, root, "nothing")
    assert err.value.detail == "/"


def test_lookup_missing_root(store):
    with pytest.raises(NotFoundError):
        lookup_path(store, ObjectIdentity("TopMap", None, 9), "")


def test_lookup_root_must_be_map(store):
    leaf = make_leaf(store, "A", None, v=1)
    with pytest.raises(NotAMapError):
        lookup_path(store, leaf, "")


def test_walks_and_alias_text_leave_no_cyclic_garbage(store):
    """Everything a walk, a serialization or an audit builds is freed by
    reference counting; a reference cycle would keep it, and the store the
    walk read, alive until the cyclic collector happened to run."""
    tree, _ = build_figure1(store)
    root = commit_alias_tree(store, tree, ["PHYSICS"])
    gc.collect()
    gc.disable()
    try:
        walk_tree(store, root)
        serialize_alias_tree(tree)
        tree.audit()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_walk_figure1_order(store, figure1):
    root, leaves = figure1
    manifest = walk_tree(store, root)
    paths = [path for path, _ in manifest.entries]
    assert paths == ["", "dch", "dch/fee", "dch/hv", "emc", "emc/hv"]
    assert manifest.entries[0] == ("", root)
    by_path = dict(manifest.entries)
    assert by_path["dch/hv"] == leaves["hv"]
    text = manifest.to_text()
    assert text.startswith("/\tTopMap[1]\n")
    assert "dch/hv\tDchHV:sector3[1]\n" in text


def test_walk_shared_leaf_listed_per_path(store):
    leaf = make_leaf(store, "A", None, v=1)
    with store.transaction() as txn:
        root = txn.create_object("M", None, Payload.map({"one": leaf, "two": leaf}))
    manifest = walk_tree(store, root)
    assert [entry for entry in manifest.entries if entry[1] == leaf] == [
        ("one", leaf),
        ("two", leaf),
    ]


def test_walk_single_empty_root(store):
    with store.transaction() as txn:
        root = txn.create_object("M", None, Payload.map({}))
    assert walk_tree(store, root).entries == (("", root),)


def test_walk_depth_cap(store):
    with store.transaction() as txn:
        node = txn.create_object("Chain", None, Payload.map({}))
        for _ in range(70):
            node = txn.create_object("Chain", None, Payload.map({"next": node}))
    with pytest.raises(DepthExceededError):
        walk_tree(store, node)


def test_path_soundness(store, figure1):
    root, _ = figure1
    for path, identity in walk_tree(store, root).entries:
        assert lookup_path(store, root, path).identity == identity


# -- run-type map -------------------------------------------------------------


def test_first_activation_gets_key_one(store):
    with store.transaction() as txn:
        root = txn.create_object("TopMap", None, Payload.map({}))
        identity = activate(store, txn, {"PHYSICS": root})
    assert identity == ObjectIdentity("@runtypes", None, 1)
    assert resolve_run_type(store, "PHYSICS") == root


def test_highest_key_activation_wins(store):
    with store.transaction() as txn:
        root1 = txn.create_object("TopMap", None, Payload.map({}))
        activate(store, txn, {"PHYSICS": root1})
    leaf = make_leaf(store, "A", None, v=1)
    with store.transaction() as txn:
        root2 = txn.create_object("TopMap", None, Payload.map({"a": leaf}))
        second = activate(store, txn, {"PHYSICS": root2, "COSMICS": root2})
    assert second == ObjectIdentity("@runtypes", None, 2)
    assert resolve_run_type(store, "PHYSICS") == root2
    assert resolve_run_type(store, "COSMICS") == root2
    # the superseded version remains readable history
    old = store.get_object(ObjectIdentity("@runtypes", None, 1))
    assert old.payload.bindings == {"PHYSICS": root1}


def test_activating_a_leaf_fails(store):
    leaf = make_leaf(store, "DchHV", "sector3", v=1)
    with pytest.raises(NotAMapError):
        with store.transaction() as txn:
            activate(store, txn, {"PHYSICS": leaf})


def test_resolve_unknown_run_type(store):
    with store.transaction() as txn:
        root = txn.create_object("TopMap", None, Payload.map({}))
        activate(store, txn, {"PHYSICS": root})
    with pytest.raises(UnknownRunTypeError):
        resolve_run_type(store, "CALIB")


def test_resolve_on_empty_store(store):
    with pytest.raises(NoActiveMapError):
        resolve_run_type(store, "PHYSICS")


def test_active_trees_complete_replacement(store):
    with store.transaction() as txn:
        root = txn.create_object("TopMap", None, Payload.map({}))
        activate(store, txn, {"PHYSICS": root, "COSMICS": root})
    assert active_trees(store) == {"PHYSICS": root, "COSMICS": root}
    with store.transaction() as txn:
        activate(store, txn, {"PHYSICS": root})
    assert active_trees(store) == {"PHYSICS": root}  # COSMICS dropped entirely


def test_active_trees_empty_store(store):
    assert active_trees(store) == {}
