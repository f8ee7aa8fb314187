"""Mutable alias trees: the editable mirror of configuration trees.

An alias tree repeats the shape of a configuration tree but is free to
change: map aliases are pure placeholders (they carry no identity), and
object aliases pin a real, version-qualified object identity.  Editing a
setting means retargeting one object alias; the commit procedure turns
the result back into immutable numeric maps.

Alias trees live in the store's mutable side region (``aliases.dat``),
which a save stages in a write transaction and only its commit writes
(see ``save_alias_tree``), serialized as indented text::

    alias golden root_class TopMap
    map dch
      obj hv = DchHV:sector3[3]
    obj emc = EmcMap[2]

one node per line, two spaces of indent per level, children in
byte-lexicographic name order.  Only the latest saved state is kept;
history belongs to the numeric trees.

Trees share their nodes instead of copying them.  A save keeps the
saved tree's nodes as the region's state, and a load returns a new tree
over them.  Each tree may change in place only the map nodes it owns:
those it created, or copied since it was last saved.  The edit methods
first copy each map on the root-to-node path that the tree does not own
(path copying, as in Driscoll et al., "Making Data Structures
Persistent", 1989).  So a load or a save copies nothing, an edit copies
at most one path, and no tree sees another tree's edits.  Writing to the
``children`` of a node directly, rather than through the edit methods,
is unsupported once a tree has been saved, loaded or serialized: the
node may be shared, and its memo (below) would go stale.

Each map node also memoises the text of its children's lines, which
serialization reuses, and carries the commit mark described in
``commitproc``.  An edit clears both on every map along its path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    CannotRemoveRootError,
    DuplicateNameError,
    InvalidNameError,
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
from .store import View


@dataclass
class ObjectAlias:
    """Version-pinned link to a real configuration object."""

    target: ObjectIdentity


@dataclass
class MapAlias:
    """Placeholder map node; children keyed by link name."""

    children: dict = field(default_factory=dict)
    # The edit token of the one tree that may change this node in place.
    _owner: object = field(default=None, init=False, repr=False, compare=False)
    # (depth, text of the children's lines), kept by serialization.
    _text: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # The stored map object this node became at its last commit, kept by commitproc.
    _mark: object = field(default=None, init=False, repr=False, compare=False)

    def sorted_items(self):
        return sorted(self.children.items())


class AliasTree:
    """One named, strictly tree-shaped edit structure."""

    def __init__(self, alias_name: str, root_class: str):
        self.alias_name = validate_name(alias_name, "alias name")
        self.root_class = validate_name(root_class, "root class")
        # The region's header ends at its last " root_class " (see _parse_header).
        if " root_class " in " " + root_class:
            raise InvalidNameError(f"root class may not hold ' root_class ': {root_class!r}")
        self._token = object()
        self.root = self._own(MapAlias())

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

    def _map_at(self, path) -> tuple:
        segments = parse_path(path)
        node = self.node_at(segments)
        if not isinstance(node, MapAlias):
            raise NotAMapAliasError(f"{display_path(segments)!r} is an object alias")
        return segments, node

    def _own(self, node: MapAlias) -> MapAlias:
        """``node`` made editable in place by this tree, its memos cleared."""
        if node._owner is not self._token:
            node = MapAlias(dict(node.children))
            node._owner = self._token
        else:
            node._text = node._mark = None
        return node

    def _writable(self, segments: tuple) -> MapAlias:
        """The existing map at ``segments``, after owning every map on its path."""
        node = self.root = self._own(self.root)
        for segment in segments:
            child = self._own(node.children[segment])
            node.children[segment] = child
            node = child
        return node

    # -- edits ------------------------------------------------------------

    def add_map_alias(self, parent_path, name: str) -> "AliasTree":
        """Insert an empty placeholder map under ``parent_path``."""
        validate_name(name, "link name")
        segments, parent = self._map_at(parent_path)
        if name in parent.children:
            raise DuplicateNameError(f"name already used: {name!r}")
        self._writable(segments).children[name] = self._own(MapAlias())
        return self

    def set_object_alias(self, parent_path, name: str, target: ObjectIdentity) -> "AliasTree":
        """Create or retarget an object alias; the target may not exist yet."""
        validate_name(name, "link name")
        if not isinstance(target, ObjectIdentity):
            raise TypeError(f"target must be an ObjectIdentity: {target!r}")
        segments, parent = self._map_at(parent_path)
        existing = parent.children.get(name)
        if isinstance(existing, MapAlias):
            raise NameIsMapAliasError(f"{name!r} is a map alias; remove it first")
        self._writable(segments).children[name] = ObjectAlias(target)
        return self

    def remove_node(self, path) -> "AliasTree":
        """Remove a node and, for a map alias, its whole sub-tree."""
        segments = parse_path(path)
        if not segments:
            raise CannotRemoveRootError("the root map alias cannot be removed")
        parent = self.node_at(segments[:-1])
        if not isinstance(parent, MapAlias) or segments[-1] not in parent.children:
            raise NoSuchNodeError(f"no alias node at {display_path(segments)!r}")
        del self._writable(segments[:-1]).children[segments[-1]]
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


def _children_text(node: MapAlias, depth: int) -> str:
    """The lines of ``node``'s sub-tree at ``depth``, memoised on the node."""
    memo = node._text
    if memo is not None and memo[0] == depth:
        return memo[1]
    indent = "  " * depth
    parts = []
    for name, child in node.sorted_items():
        if isinstance(child, MapAlias):
            parts.append(f"{indent}map {name}\n")
            parts.append(_children_text(child, depth + 1))
        else:
            parts.append(f"{indent}obj {name} = {format_identity(child.target)}\n")
    text = "".join(parts)
    node._text = (depth, text)
    return text


def serialize_alias_tree(tree: AliasTree) -> str:
    """Canonical text form, children in byte-lexicographic order."""
    return f"alias {tree.alias_name} root_class {tree.root_class}\n" + _children_text(tree.root, 0)


def _parse_header(line: str, lineno: int) -> AliasTree:
    rest = line[len("alias ") :]
    # The class name is the part after the last separator: alias names may
    # hold spaces and the separator's word, root classes may not hold it.
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
            if tree.alias_name in trees:
                raise ParseError(f"alias line {lineno}: repeated alias {tree.alias_name!r}")
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


def _shared(tree: AliasTree) -> AliasTree:
    """A new tree over ``tree``'s nodes; it owns none of them."""
    view = AliasTree(tree.alias_name, tree.root_class)
    view.root = tree.root
    return view


# The last region text read or saved, and its trees: one tuple, replaced
# whole and never mutated, so a reader without the lock never sees a text
# paired with another text's trees.  The trees depend on the text alone,
# so one parse serves every store handle and transaction.
_parsed: tuple[str, dict] = ("", {})


def _read_region(view: View) -> tuple[str, dict]:
    """The region's text as ``view`` sees it, and its trees; callers must not mutate them."""
    global _parsed
    text = view.read_alias_region()
    cached_text, trees = _parsed
    if text != cached_text:
        trees = parse_alias_region(text)
        _parsed = (text, trees)
    return text, trees


def save_alias_tree(source: View, tree: AliasTree):
    """Stage the tree's latest state, written at commit; last save wins.

    The region keeps the tree's nodes, not a copy, so the tree stops
    owning them: its next edit copies the path it changes.  A save that
    would stage the text just read stages nothing.
    """
    global _parsed
    with source.transaction() as txn:
        read, trees = _read_region(txn)
        trees = dict(trees)
        trees[tree.alias_name] = _shared(tree)
        tree._token = object()
        text = serialize_alias_region(trees)
        if text != read:
            txn.write_alias_region(text)
        _parsed = (text, trees)


def load_alias_tree(source: View, alias_name: str) -> AliasTree:
    """Return the latest saved state of one alias tree.

    The tree shares the region's nodes; its edits copy the paths they
    change, so neither the region nor another loaded tree sees them.
    Given a store it takes no lock: the region is replaced by atomic
    rename, so a read sees the whole old file or the whole new one.
    """
    _, trees = _read_region(source)
    if alias_name not in trees:
        raise NoSuchAliasError(f"no alias tree named {alias_name!r}")
    return _shared(trees[alias_name])


def edit_alias_tree(source: View, alias_name: str, edit):
    """Load, ``edit(tree)`` and save one alias tree in one transaction.

    An open transaction ``source`` is joined; a store opens one of its own.

    Concurrent operators should edit through this: a separate load and
    save lets another handle's save land in between and be overwritten.
    Nothing is saved if ``edit`` raises.
    """
    with source.transaction() as txn:
        tree = load_alias_tree(txn, alias_name)
        edit(tree)
        save_alias_tree(txn, tree)


def new_alias_tree(alias_name: str, root_class: str) -> AliasTree:
    """Fresh tree with an empty root placeholder."""
    return AliasTree(alias_name, root_class)
