"""Turning an edited alias tree back into immutable numeric maps.

The update procedure compares the alias tree node by node with the
active numeric tree (keyed by link names), then rebuilds bottom-up only
the maps on a root-to-change path:

* an object alias is unchanged iff the numeric map links the same name
  to the same identity;
* a map alias is unchanged iff its child-name set matches the numeric
  map's link names and every child is unchanged -- any changed child
  forces the whole ancestor chain to changed;
* names present on one side only are added/removed, and a kind flip
  (map alias where the numeric side linked a leaf, or the reverse) is a
  remove-plus-add, reported as changed;
* with no baseline everything is added (bootstrap).

The comparison emits one change row per node, depth-first in name
order: ``(segments, status, is_map, old, new)``, where ``old`` is the
numeric identity under the node's name and ``new`` is an object
alias's target, or, in a map row, the numeric map's ``(name,
identity)`` entries.  These rows are what ``diff`` prints and what the
rebuild reads; the rebuild keeps the pairs of the links it does not
change.

Unchanged sub-trees are reused by identity, never copied: the
comparison marks them unchanged and the rebuild returns their numeric
counterpart as is.  A zero-edit commit therefore leaves the root
unchanged and writes nothing, history stays cheap, and every old root
remains exactly reconstructible.  An object alias that pins the very
identity its numeric map links under the same name is unchanged without
a store lookup: that link was checked when the map was created, and
objects are never deleted.  Every added or retargeted pin is looked up.

A commit also leaves marks, in the manner of git's index "cache tree".
Each map alias the rebuild returns is marked with the stored object it
became, staged or reused: its sub-tree's entries equal that object's
entries.  A commit's comparison takes a node as unchanged, without
visiting its sub-tree, when its mark is the very object its view holds
under the node's name.  Object identity is what makes that safe: each
store handle decodes its own objects, and a staged map enters a store's
published objects, as the very object staged, only when its transaction
commits, so a mark from an aborted or failed commit, or from another
handle, never matches, even once its keys name other objects.  (A
committed leaf is published as its log offset, and no mark names a
leaf, so a commit reads no leaf's object: pins are compared by
identity and looked up with ``has_object``.)  Nothing is left
unchecked by a match either: every pin inside equals its numeric link,
so no lookup would have run there.  A commit that joins an open
transaction, the CLI's path, leaves marks too.  An edit clears the
marks along its path (see ``alias``).
``diff_alias_vs_numeric`` ignores marks, so its rows stay complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alias import AliasTree, MapAlias, ObjectAlias
from .errors import DanglingAliasTargetError, NotAMapError
from .model import ObjectIdentity, Payload, display_path, format_identity
from .store import View, WriteTransaction
from .tree import activate, active_trees

STATUS_UNCHANGED = "unchanged"
STATUS_CHANGED = "changed"
STATUS_ADDED = "added"
STATUS_REMOVED = "removed"

# Interior maps minted by the rebuild carry this class; their secondary
# key is the alias-tree path with '.' joining segments ('/' is reserved
# by the name grammar).
INTERIOR_MAP_CLASS = "Map"


def _interior_secondary(segments: tuple) -> str:
    return ".".join(segments)


@dataclass(frozen=True)
class ChangeEntry:
    path: str  # raw path text; "" is the root
    status: str
    is_map: bool
    old: ObjectIdentity | None
    new: ObjectIdentity | None  # object-alias target; None for map rows

    def to_line(self) -> str:
        old = format_identity(self.old) if self.old else "-"
        new = format_identity(self.new) if self.new else "-"
        return f"{self.status}\t{display_path(self.path)}\t{old}\t{new}"


@dataclass(frozen=True)
class ChangeSet:
    """Flattened node-by-node comparison, depth-first in name order."""

    entries: tuple

    def is_fixed_point(self) -> bool:
        return self.entries[0].status == STATUS_UNCHANGED

    def to_text(self) -> str:
        return "\n".join(entry.to_line() for entry in self.entries) + "\n"


def _analyze(
    view: View,
    node: MapAlias,
    numeric: ObjectIdentity | None,
    segments: tuple,
    rows: list,
    marks: bool = False,
) -> str:
    """Append the rows of ``node`` and its sub-tree to ``rows``; return its status.

    ``numeric`` is the numeric object under the node's name, of any kind.
    Below the root a non-map is a kind flip: the node is compared against
    nothing and reported changed.  With ``marks``, a node marked with the
    object ``view`` holds as ``numeric`` adds only its own unchanged row.
    """
    # A kind flip's numeric object is never read, so a commit decodes no leaf.
    is_map = numeric is None or view.is_map(numeric)
    obj = view.get_object(numeric) if numeric is not None and is_map else None
    if marks and obj is not None and node._mark is obj:
        rows.append((segments, STATUS_UNCHANGED, True, numeric, obj.payload.entries))
        return STATUS_UNCHANGED
    entries = ()
    if obj is not None:
        entries = obj.payload.entries
    elif not is_map and not segments:
        raise NotAMapError(
            f"{format_identity(numeric)} is not a map", detail=format_identity(numeric)
        )
    links = dict(entries)
    at = len(rows)
    rows.append(None)  # this map's row, written once its children are compared
    unchanged = True
    children = node.children
    for name in sorted(children.keys() | links.keys()):
        child = children.get(name)
        old = links.get(name)
        child_segments = segments + (name,)
        if child is None:
            status = STATUS_REMOVED
            rows.append((child_segments, status, False, old, None))
        elif isinstance(child, ObjectAlias):
            if old == child.target:
                status = STATUS_UNCHANGED
            elif not view.has_object(child.target):
                raise DanglingAliasTargetError(
                    f"alias at {display_path(child_segments)!r} pins missing object"
                    f" {format_identity(child.target)}",
                    detail=format_identity(child.target),
                )
            elif old is None:
                status = STATUS_ADDED
            else:
                status = STATUS_CHANGED
            rows.append((child_segments, status, False, old, child.target))
        else:
            status = _analyze(view, child, old, child_segments, rows, marks)
        if status != STATUS_UNCHANGED:
            unchanged = False

    if numeric is None:
        status = STATUS_ADDED
    elif unchanged and is_map:
        status = STATUS_UNCHANGED
    else:
        status = STATUS_CHANGED
    rows[at] = (segments, status, True, numeric, entries)
    return status


def diff_alias_vs_numeric(
    view: View, tree: AliasTree, numeric_root: ObjectIdentity | None = None
) -> ChangeSet:
    """Preview what a commit would rebuild; read-only and advisory.

    With ``numeric_root`` absent everything is reported as added (the
    bootstrap case); an open transaction's staged objects count.  The
    commit itself recomputes the comparison under the write lock.
    """
    rows: list = []
    _analyze(view, tree.root, numeric_root, (), rows)
    return ChangeSet(tuple(
        ChangeEntry("/".join(segments), status, is_map, old, None if is_map else new)
        for segments, status, is_map, old, new in rows
    ))


def _materialize(
    txn: WriteTransaction,
    node: MapAlias,
    maps: dict,
    root_class: str,
    segments: tuple,
) -> ObjectIdentity:
    """Bottom-up rebuild of the changed and added maps, read from their rows.

    Marks every map it returns with the object that map became.
    """
    _, status, _, identity, numeric_entries = maps[segments]
    if status != STATUS_UNCHANGED:
        kept = {pair[0]: pair for pair in numeric_entries}
        entries = []
        for name, child in node.sorted_items():
            if isinstance(child, ObjectAlias):
                target = child.target
            else:
                target = _materialize(txn, child, maps, root_class, segments + (name,))
            pair = kept.get(name)
            entries.append(pair if pair is not None and pair[1] == target else (name, target))
        payload = Payload.map(entries)
        if segments:
            identity = txn.create_object(
                INTERIOR_MAP_CLASS, _interior_secondary(segments), payload
            )
        else:
            identity = txn.create_object(root_class, None, payload)
    node._mark = txn.get_object(identity)
    return identity


def commit_alias_tree(source: View, tree: AliasTree, bind_run_types=()):
    """Diff, minimally rebuild, and re-activate -- in one transaction.

    An open transaction ``source`` is joined, a store opens its own.  The
    baseline numeric tree is whatever the first requested run type is
    currently bound to (nothing bound means bootstrap).  Returns the new
    or reused root identity; a true fixed point creates no records at
    all.  On any error nothing is committed.
    """
    bind_run_types = list(bind_run_types)
    with source.transaction() as txn:
        current = active_trees(txn)
        baseline = current.get(bind_run_types[0]) if bind_run_types else None
        rows: list = []
        _analyze(txn, tree.root, baseline, (), rows, True)
        maps = {row[0]: row for row in rows if row[2]}
        root_id = _materialize(txn, tree.root, maps, tree.root_class, ())
        rebound = {**current, **dict.fromkeys(bind_run_types, root_id)}
        if rebound != current:
            activate(txn, txn, rebound)
    return root_id
