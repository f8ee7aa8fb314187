"""Mutable alias trees: the editable mirror of configuration trees.

An alias tree repeats the shape of a configuration tree but is free to
change: map aliases are pure placeholders (they carry no identity), and
object aliases pin a real, version-qualified object identity.  Editing a
setting means retargeting one object alias; the commit procedure turns
the result back into immutable numeric maps.

Alias trees live in the store's mutable side region (``aliases.dat``),
serialized as indented text::

    alias golden root_class TopMap
    map dch
      obj hv = DchHV:sector3[3]
    obj emc = EmcMap[2]

one node per line, two spaces of indent per level, children in
byte-lexicographic name order.  Only the latest saved state is kept;
history belongs to the numeric trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    CannotRemoveRootError,
    DuplicateNameError,
    NameIsMapAliasError,
    NoSuchAliasError,
    NoSuchNodeError,
    NotAMapAliasError,
    ParseError,
)
from .model import (
    ObjectIdentity,
    display_path,
    format_identity,
    parse_identity,
    parse_path,
    validate_name,
)
from .store import Store


@dataclass
class ObjectAlias:
    """Version-pinned link to a real configuration object."""

    target: ObjectIdentity


@dataclass
class MapAlias:
    """Placeholder map node; children keyed by link name."""

    children: dict = field(default_factory=dict)

    def sorted_items(self):
        return sorted(self.children.items())


class AliasTree:
    """One named, strictly tree-shaped edit structure."""

    def __init__(self, alias_name: str, root_class: str):
        self.alias_name = validate_name(alias_name, "alias name")
        self.root_class = validate_name(root_class, "root class")
        self.root = MapAlias()

    # -- node addressing ------------------------------------------------

    def node_at(self, path) -> MapAlias | ObjectAlias:
        segments = parse_path(path)
        node = self.root
        for depth, segment in enumerate(segments):
            if not isinstance(node, MapAlias) or segment not in node.children:
                raise NoSuchNodeError(
                    f"no alias node at {display_path(segments[: depth + 1])!r}"
                )
            node = node.children[segment]
        return node

    def _map_at(self, path) -> MapAlias:
        node = self.node_at(path)
        if not isinstance(node, MapAlias):
            raise NotAMapAliasError(f"{display_path(parse_path(path))!r} is an object alias")
        return node

    # -- edits ------------------------------------------------------------

    def add_map_alias(self, parent_path, name: str) -> "AliasTree":
        """Insert an empty placeholder map under ``parent_path``."""
        validate_name(name, "link name")
        parent = self._map_at(parent_path)
        if name in parent.children:
            raise DuplicateNameError(f"name already used: {name!r}")
        parent.children[name] = MapAlias()
        return self

    def set_object_alias(self, parent_path, name: str, target: ObjectIdentity) -> "AliasTree":
        """Create or retarget an object alias; the target may not exist yet."""
        validate_name(name, "link name")
        if not isinstance(target, ObjectIdentity):
            raise TypeError(f"target must be an ObjectIdentity: {target!r}")
        parent = self._map_at(parent_path)
        existing = parent.children.get(name)
        if isinstance(existing, MapAlias):
            raise NameIsMapAliasError(f"{name!r} is a map alias; remove it first")
        parent.children[name] = ObjectAlias(target)
        return self

    def remove_node(self, path) -> "AliasTree":
        """Remove a node and, for a map alias, its whole sub-tree."""
        segments = parse_path(path)
        if not segments:
            raise CannotRemoveRootError("the root map alias cannot be removed")
        parent = self.node_at(segments[:-1])
        if not isinstance(parent, MapAlias) or segments[-1] not in parent.children:
            raise NoSuchNodeError(f"no alias node at {display_path(segments)!r}")
        del parent.children[segments[-1]]
        return self

    # -- integrity ----------------------------------------------------------

    def audit(self):
        """Verify strict-tree shape and name validity at every node."""
        _audit_node(self.root, set())


def _audit_node(node, seen: set):
    if id(node) in seen:
        raise AssertionError("alias node shared between two parents")
    seen.add(id(node))
    if isinstance(node, MapAlias):
        for name, child in node.children.items():
            validate_name(name, "link name")
            _audit_node(child, seen)
    else:
        assert isinstance(node, ObjectAlias)


def _emit(node: MapAlias, depth: int, lines: list):
    indent = "  " * depth
    for name, child in node.sorted_items():
        if isinstance(child, MapAlias):
            lines.append(f"{indent}map {name}")
            _emit(child, depth + 1, lines)
        else:
            lines.append(f"{indent}obj {name} = {format_identity(child.target)}")


def serialize_alias_tree(tree: AliasTree) -> str:
    """Canonical text form, children in byte-lexicographic order."""
    lines = [f"alias {tree.alias_name} root_class {tree.root_class}"]
    _emit(tree.root, 0, lines)
    return "\n".join(lines) + "\n"


def _parse_header(line: str, lineno: int) -> AliasTree:
    if not line.startswith("alias "):
        raise ParseError(f"alias line {lineno}: expected header, got {line!r}")
    rest = line[len("alias ") :]
    # The class name is the part after the last separator; alias names may
    # themselves contain spaces.
    idx = rest.rfind(" root_class ")
    if idx < 0:
        raise ParseError(f"alias line {lineno}: missing root_class in {line!r}")
    return AliasTree(rest[:idx], rest[idx + len(" root_class ") :])


def _parse_node_line(line: str, lineno: int):
    depth = 0
    while line.startswith("  "):
        line = line[2:]
        depth += 1
    if line.startswith("map "):
        return depth, line[4:], None
    if line.startswith("obj "):
        rest = line[4:]
        idx = rest.rfind(" = ")
        if idx < 0:
            raise ParseError(f"alias line {lineno}: missing target in {line!r}")
        return depth, rest[:idx], parse_identity(rest[idx + 3 :])
    raise ParseError(f"alias line {lineno}: unrecognized node line {line!r}")


def parse_alias_region(text: str) -> dict:
    """Parse the whole side region into {alias_name: AliasTree}."""
    trees: dict[str, AliasTree] = {}
    tree = None
    stack: list[MapAlias] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("alias "):
            tree = _parse_header(line, lineno)
            trees[tree.alias_name] = tree
            stack = [tree.root]
            continue
        if tree is None:
            raise ParseError(f"alias line {lineno}: node before any header")
        depth, name, target = _parse_node_line(line, lineno)
        if depth >= len(stack):
            raise ParseError(f"alias line {lineno}: indentation jumps too deep")
        del stack[depth + 1 :]
        parent = stack[depth]
        if name in parent.children:
            raise ParseError(f"alias line {lineno}: duplicate name {name!r}")
        validate_name(name, "link name")
        if target is None:
            node = MapAlias()
            parent.children[name] = node
            stack.append(node)
        else:
            parent.children[name] = ObjectAlias(target)
    return trees


def serialize_alias_region(trees: dict) -> str:
    return "".join([serialize_alias_tree(trees[name]) for name in sorted(trees)])


def _clone_node(node):
    if isinstance(node, ObjectAlias):
        return ObjectAlias(node.target)  # identities are immutable: share them
    return MapAlias({name: _clone_node(child) for name, child in node.children.items()})


def _clone_tree(tree: AliasTree) -> AliasTree:
    clone = AliasTree(tree.alias_name, tree.root_class)
    clone.root = _clone_node(tree.root)
    return clone


def _read_region(store: Store) -> dict:
    """The side region's trees, parsed only when its text has changed.

    ``store._alias_parsed`` holds the last text read and its parse as one
    tuple, replaced whole and never mutated, so a reader without the lock
    never sees a text paired with another text's trees.  Callers must not
    mutate the returned trees.
    """
    text = store.read_alias_region()
    cached_text, trees = store._alias_parsed
    if text != cached_text:
        trees = parse_alias_region(text)
        store._alias_parsed = (text, trees)
    return trees


def save_alias_tree(store: Store, tree: AliasTree):
    """Persist the tree's latest state; last save wins, the log is untouched."""
    with store.alias_lock():
        trees = dict(_read_region(store))
        trees[tree.alias_name] = _clone_tree(tree)
        text = serialize_alias_region(trees)
        store.write_alias_region(text)
        store._alias_parsed = (text, trees)


def load_alias_tree(store: Store, alias_name: str) -> AliasTree:
    """Return the most recently saved state of one alias tree.

    Takes no lock: the region is replaced by atomic rename, so a read
    sees either the whole old file or the whole new one.
    """
    trees = _read_region(store)
    if alias_name not in trees:
        raise NoSuchAliasError(f"no alias tree named {alias_name!r}")
    return _clone_tree(trees[alias_name])


def edit_alias_tree(store: Store, alias_name: str, edit):
    """Load, ``edit(tree)`` and save one alias tree under one lock.

    Concurrent operators should edit through this: a separate load and
    save lets another handle's save land in between and be overwritten.
    Nothing is saved if ``edit`` raises.
    """
    with store.alias_lock():
        tree = load_alias_tree(store, alias_name)
        edit(tree)
        save_alias_tree(store, tree)


def new_alias_tree(alias_name: str, root_class: str) -> AliasTree:
    """Fresh tree with an empty root placeholder."""
    return AliasTree(alias_name, root_class)
