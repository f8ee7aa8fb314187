"""Alias tree editing, serialization, and the mutable side region."""

import random
import threading

import pytest

from confdb.alias import (
    MapAlias,
    ObjectAlias,
    edit_alias_tree,
    load_alias_tree,
    new_alias_tree,
    parse_alias_region,
    save_alias_tree,
    serialize_alias_region,
    serialize_alias_tree,
)
from confdb.errors import (
    CannotRemoveRootError,
    DuplicateNameError,
    InvalidNameError,
    NameIsMapAliasError,
    NoSuchAliasError,
    NoSuchNodeError,
    NotAMapAliasError,
    ParseError,
)
from confdb.model import ObjectIdentity, format_identity
from confdb.store import open_store
from helpers import make_leaf, random_edit

HV3 = ObjectIdentity("DchHV", "sector3", 3)
HV4 = ObjectIdentity("DchHV", "sector3", 4)


@pytest.fixture
def store(tmp_path):
    s = open_store(tmp_path / "db", clock=lambda: 0)
    yield s
    s.close()


def test_new_tree_has_empty_root():
    tree = new_alias_tree("golden", "TopMap")
    assert isinstance(tree.root, MapAlias)
    assert tree.root.children == {}


def test_new_tree_rejects_empty_name():
    with pytest.raises(InvalidNameError):
        new_alias_tree("", "TopMap")


def test_alias_names_may_contain_spaces():
    tree = new_alias_tree("r12 physics", "TopMap")
    assert tree.alias_name == "r12 physics"


def test_nested_placeholders():
    tree = new_alias_tree("t", "TopMap")
    tree.add_map_alias("/", "dch")
    tree.add_map_alias("dch", "fee")
    assert isinstance(tree.node_at("dch/fee"), MapAlias)


def test_duplicate_name_rejected():
    tree = new_alias_tree("t", "TopMap")
    tree.add_map_alias("/", "dch")
    with pytest.raises(DuplicateNameError):
        tree.add_map_alias("/", "dch")


def test_add_under_object_alias_rejected():
    tree = new_alias_tree("t", "TopMap")
    tree.set_object_alias("/", "hv", HV3)
    with pytest.raises(NotAMapAliasError):
        tree.add_map_alias("hv", "x")


def test_retargeting_changes_one_link():
    tree = new_alias_tree("t", "TopMap")
    tree.add_map_alias("/", "dch")
    tree.set_object_alias("dch", "hv", HV3)
    tree.set_object_alias("dch", "hv", HV4)
    assert tree.node_at("dch/hv").target == HV4


def test_object_alias_may_pin_a_map_identity():
    # grafting an immutable sub-tree by reference is a plain identity pin
    tree = new_alias_tree("t", "TopMap")
    tree.set_object_alias("/", "shared", ObjectIdentity("Map", "x", 2))
    assert tree.node_at("shared").target.class_name == "Map"


def test_set_under_missing_parent():
    tree = new_alias_tree("t", "TopMap")
    with pytest.raises(NoSuchNodeError):
        tree.set_object_alias("nowhere", "hv", HV3)


def test_set_over_map_alias_rejected():
    tree = new_alias_tree("t", "TopMap")
    tree.add_map_alias("/", "dch")
    with pytest.raises(NameIsMapAliasError):
        tree.set_object_alias("/", "dch", HV3)


def test_remove_leaf_keeps_parent():
    tree = new_alias_tree("t", "TopMap")
    tree.add_map_alias("/", "dch")
    tree.set_object_alias("dch", "hv", HV3)
    tree.remove_node("dch/hv")
    assert tree.node_at("dch").children == {}


def test_remove_root_rejected():
    tree = new_alias_tree("t", "TopMap")
    with pytest.raises(CannotRemoveRootError):
        tree.remove_node("")


def test_remove_subtree():
    tree = new_alias_tree("t", "TopMap")
    tree.add_map_alias("/", "dch")
    tree.set_object_alias("dch", "hv", HV3)
    tree.remove_node("dch")
    with pytest.raises(NoSuchNodeError):
        tree.node_at("dch")


def test_serialization_round_trip():
    tree = new_alias_tree("golden", "TopMap")
    tree.add_map_alias("/", "dch")
    tree.set_object_alias("dch", "hv", HV3)
    tree.set_object_alias("/", "emc", ObjectIdentity("EmcMap", None, 2))
    text = serialize_alias_tree(tree)
    assert text == (
        "alias golden root_class TopMap\n"
        "map dch\n"
        "  obj hv = DchHV:sector3[3]\n"
        "obj emc = EmcMap[2]\n"
    )
    parsed = parse_alias_region(text)["golden"]
    assert serialize_alias_tree(parsed) == text


def test_serialization_with_awkward_names():
    tree = new_alias_tree("r12 physics", "Top Map")
    tree.add_map_alias("/", "drift chamber")
    tree.set_object_alias("drift chamber", "hv set", ObjectIdentity("Dch HV", "s 3", 1))
    text = serialize_alias_tree(tree)
    parsed = parse_alias_region(text)["r12 physics"]
    assert parsed.root_class == "Top Map"
    assert parsed.node_at("drift chamber/hv set").target == ObjectIdentity("Dch HV", "s 3", 1)
    assert serialize_alias_tree(parsed) == text


def test_save_load_round_trip(store):
    tree = new_alias_tree("golden", "TopMap")
    tree.add_map_alias("/", "dch")
    tree.set_object_alias("dch", "hv", HV3)
    save_alias_tree(store, tree)
    loaded = load_alias_tree(store, "golden")
    assert serialize_alias_tree(loaded) == serialize_alias_tree(tree)


def test_last_save_wins(store):
    tree = new_alias_tree("golden", "TopMap")
    save_alias_tree(store, tree)
    tree.add_map_alias("/", "dch")
    save_alias_tree(store, tree)
    assert "dch" in load_alias_tree(store, "golden").root.children


def test_load_missing_alias(store):
    with pytest.raises(NoSuchAliasError):
        load_alias_tree(store, "nonexistent")


def test_multiple_trees_in_one_region(store):
    a = new_alias_tree("a", "TopMap")
    b = new_alias_tree("b", "TopMap")
    b.set_object_alias("/", "hv", HV3)
    save_alias_tree(store, a)
    save_alias_tree(store, b)
    assert load_alias_tree(store, "a").root.children == {}
    assert load_alias_tree(store, "b").node_at("hv").target == HV3


def test_alias_edits_never_touch_the_log(store):
    make_leaf(store, "A", None, v=1)
    size = store.log_size()
    tree = new_alias_tree("golden", "TopMap")
    tree.add_map_alias("/", "dch")
    save_alias_tree(store, tree)
    tree.set_object_alias("dch", "hv", HV3)
    save_alias_tree(store, tree)
    load_alias_tree(store, "golden")
    assert store.log_size() == size


def test_concurrent_edits_from_two_handles_are_both_kept(tmp_path):
    a = open_store(tmp_path / "db", clock=lambda: 0)
    b = open_store(tmp_path / "db", clock=lambda: 0)
    save_alias_tree(a, new_alias_tree("golden", "TopMap"))
    b_done = threading.Event()
    b_blocked = []

    def edit_on_b():
        edit_alias_tree(b, "golden", lambda tree: tree.add_map_alias("/", "emc"))
        b_done.set()

    other = threading.Thread(target=edit_on_b)

    def edit_on_a(tree):
        other.start()
        b_blocked.append(not b_done.wait(timeout=0.2))
        tree.add_map_alias("/", "dch")

    try:
        edit_alias_tree(a, "golden", edit_on_a)
        other.join(timeout=10)
        assert not other.is_alive()
        assert b_blocked == [True]
        assert set(load_alias_tree(a, "golden").root.children) == {"dch", "emc"}
        assert set(load_alias_tree(b, "golden").root.children) == {"dch", "emc"}
    finally:
        a.close()
        b.close()


def test_save_on_one_handle_is_seen_by_the_next_load_on_another(tmp_path):
    a = open_store(tmp_path / "db", clock=lambda: 0)
    b = open_store(tmp_path / "db", clock=lambda: 0)
    try:
        save_alias_tree(a, new_alias_tree("golden", "TopMap"))
        assert load_alias_tree(a, "golden").root.children == {}
        tree = load_alias_tree(b, "golden")
        tree.set_object_alias("/", "hv", HV3)
        save_alias_tree(b, tree)
        assert load_alias_tree(a, "golden").node_at("hv").target == HV3
    finally:
        a.close()
        b.close()


def test_loaded_and_saved_trees_are_copies(store):
    tree = new_alias_tree("golden", "TopMap")
    tree.add_map_alias("/", "dch")
    save_alias_tree(store, tree)
    tree.set_object_alias("dch", "hv", HV3)  # edited after the save
    loaded = load_alias_tree(store, "golden")
    assert loaded.node_at("dch").children == {}
    loaded.set_object_alias("dch", "hv", HV4)
    loaded.remove_node("dch")
    again = load_alias_tree(store, "golden")
    assert again is not loaded
    assert set(again.root.children) == {"dch"}
    assert again.node_at("dch").children == {}


def test_hand_rewritten_region_is_reparsed(store):
    save_alias_tree(store, new_alias_tree("golden", "TopMap"))
    assert load_alias_tree(store, "golden").root.children == {}
    region = store.directory + "/aliases.dat"
    with open(region, "w", encoding="utf-8") as f:
        f.write("alias golden root_class TopMap\nobj hv = DchHV:sector3[4]\n")
    assert load_alias_tree(store, "golden").node_at("hv").target == HV4
    with open(region, "w", encoding="utf-8") as f:
        f.write("alias golden root_class TopMap\n    map toodeep\n")
    for _ in range(2):
        with pytest.raises(ParseError):
            load_alias_tree(store, "golden")


def test_load_takes_no_lock(store):
    save_alias_tree(store, new_alias_tree("golden", "TopMap"))
    held = threading.Event()
    release = threading.Event()
    released_in_time = []

    def hold_lock():
        with store.alias_lock():
            held.set()
            released_in_time.append(release.wait(timeout=5))

    holder = threading.Thread(target=hold_lock)
    holder.start()
    try:
        assert held.wait(timeout=5)
        assert load_alias_tree(store, "golden").alias_name == "golden"
    finally:
        release.set()
        holder.join(timeout=10)
    assert not holder.is_alive()
    assert released_in_time == [True]


def test_region_parse_errors():
    with pytest.raises(ParseError):
        parse_alias_region("map orphan\n")
    with pytest.raises(ParseError):
        parse_alias_region("alias a root_class T\n    map toodeep\n")
    with pytest.raises(ParseError):
        parse_alias_region("alias a root_class T\nobj hv DchHV[1]\n")
    with pytest.raises(ParseError):
        parse_alias_region("alias a_no_class\n")


def test_region_round_trip_fuzz():
    rng = random.Random(99)
    chars = [c for c in map(chr, range(0x20, 0x7F)) if c not in ":[]/="] + list("é星 ß")

    def name():
        return "".join(rng.choice(chars) for _ in range(rng.randint(1, 8)))

    trees = {}
    for _ in range(25):
        tree = new_alias_tree(name(), name())
        stack = [("", tree.root)]
        for _ in range(rng.randint(0, 30)):
            path, node = rng.choice(stack)
            child = name()
            if child in node.children:
                continue
            if rng.random() < 0.4:
                tree.add_map_alias(path or "/", child)
                child_path = f"{path}/{child}" if path else child
                stack.append((child_path, node.children[child]))
            else:
                target = ObjectIdentity(name(), name() if rng.random() < 0.5 else None,
                                        rng.randint(1, 10**6))
                tree.set_object_alias(path or "/", child, target)
        trees[tree.alias_name] = tree
    text = serialize_alias_region(trees)
    parsed = parse_alias_region(text)
    assert serialize_alias_region(parsed) == text
    assert set(parsed) == set(trees)
    for tree in parsed.values():
        tree.audit()


def test_audit_after_random_edits(store):
    rng = random.Random(7)
    tree = new_alias_tree("t", "TopMap")
    maps = [""]
    counter = 0
    for _ in range(300):
        counter += 1
        parent = rng.choice(maps)
        roll = rng.random()
        if roll < 0.4:
            name = f"m{counter}"
            tree.add_map_alias(parent or "/", name)
            maps.append(f"{parent}/{name}" if parent else name)
        elif roll < 0.8:
            tree.set_object_alias(parent or "/", f"o{counter}", HV3)
        elif len(maps) > 1:
            victim = maps.pop(rng.randrange(1, len(maps)))
            if all(not m.startswith(victim + "/") for m in maps):
                tree.remove_node(victim)
            else:
                maps.append(victim)
        tree.audit()
    text = serialize_alias_tree(tree)
    assert serialize_alias_tree(parse_alias_region(text)["t"]) == text


def test_repeated_alias_header_is_refused():
    text = "alias a root_class T\nobj x = A[1]\nalias a root_class T\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_alias_region(text)


# -- shared nodes ------------------------------------------------------------


def _plain_text(tree) -> str:
    """Serialization from scratch, with no memo."""
    lines = [f"alias {tree.alias_name} root_class {tree.root_class}"]

    def emit(node, depth):
        for name in sorted(node.children):
            child = node.children[name]
            if isinstance(child, MapAlias):
                lines.append("  " * depth + f"map {name}")
                emit(child, depth + 1)
            else:
                lines.append("  " * depth + f"obj {name} = {format_identity(child.target)}")

    emit(tree.root, 0)
    return "\n".join(lines) + "\n"


def _random_edits(rng, store, tree, count, tag):
    for _ in range(count):
        random_edit(rng, store, tree, tag)


def test_serialization_after_in_place_edits_matches_a_fresh_parse(store):
    rng = random.Random(1212)
    counter = [0]
    for _ in range(40):
        tree = new_alias_tree("t", "TopMap")
        for _ in range(rng.randint(1, 4)):
            # Serializing fills every map's memo; the edits that follow are
            # in place (the tree owns all its nodes) and must clear it.
            first = serialize_alias_tree(tree)
            assert first == _plain_text(tree)
            _random_edits(rng, store, tree, rng.randint(1, 6), counter)
            again = serialize_alias_tree(tree)
            assert again == _plain_text(tree)
            assert again == serialize_alias_region(parse_alias_region(again))


def test_saved_and_loaded_trees_serialize_like_fresh_ones(store):
    rng = random.Random(1213)
    counter = [0]
    tree = new_alias_tree("t", "TopMap")
    for _ in range(30):
        _random_edits(rng, store, tree, rng.randint(0, 5), counter)
        save_alias_tree(store, tree)
        loaded = load_alias_tree(store, "t")
        assert serialize_alias_tree(loaded) == _plain_text(tree) == _plain_text(loaded)
        if rng.random() < 0.5:
            tree = loaded  # keep editing the loaded copy, which shares the nodes
        with open(store.directory + "/aliases.dat", encoding="utf-8") as f:
            assert f.read() == _plain_text(tree)


def test_editing_a_loaded_tree_changes_neither_the_region_nor_another_load(store):
    rng = random.Random(1214)
    counter = [0]
    tree = new_alias_tree("golden", "TopMap")
    _random_edits(rng, store, tree, 60, counter)
    save_alias_tree(store, tree)
    text = _plain_text(tree)
    for _ in range(20):
        first = load_alias_tree(store, "golden")
        second = load_alias_tree(store, "golden")
        _random_edits(rng, store, first, rng.randint(1, 5), counter)
        first.audit()
        assert _plain_text(second) == text
        assert _plain_text(load_alias_tree(store, "golden")) == text
        assert serialize_alias_tree(load_alias_tree(store, "golden")) == text
        # The saved tree itself no longer owns what it shares with the region.
        _random_edits(rng, store, tree, 1, counter)
        assert _plain_text(load_alias_tree(store, "golden")) == text
        tree = load_alias_tree(store, "golden")
    with open(store.directory + "/aliases.dat", encoding="utf-8") as f:
        assert f.read() == text
