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

Unchanged sub-trees are reused by identity, never copied: the
comparison marks them unchanged and the rebuild returns their numeric
counterpart as is.  A zero-edit commit therefore leaves the root
unchanged and writes nothing, history stays cheap, and every old root
remains exactly reconstructible.  An object alias that pins the very
identity its numeric map links under the same name is unchanged without
a store lookup: that link was checked when the map was created, and
objects are never deleted.  Every added or retargeted pin is looked up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alias import AliasTree, MapAlias, ObjectAlias
from .errors import DanglingAliasTargetError, NotAMapError
from .model import (
    KIND_MAP,
    ObjectIdentity,
    Payload,
    display_path,
    format_identity,
)
from .store import Store, WriteTransaction
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


@dataclass
class _LinkPlan:
    status: str
    old: ObjectIdentity | None
    target: ObjectIdentity


@dataclass
class _MapPlan:
    status: str
    counterpart: ObjectIdentity | None  # numeric object under the same name, any kind
    children: dict
    removed: dict
    numeric_entries: tuple  # the numeric map's (name, identity) pairs; () without one


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


def _numeric_entries(view: Store | WriteTransaction, identity: ObjectIdentity | None) -> tuple:
    if identity is None:
        return ()
    obj = view.get_object(identity)
    if obj.kind != KIND_MAP:
        raise NotAMapError(
            f"{format_identity(identity)} is not a map", detail=format_identity(identity)
        )
    return obj.payload.entries


def _analyze(
    view: Store | WriteTransaction,
    node: MapAlias,
    numeric: ObjectIdentity | None,
    segments: tuple,
) -> _MapPlan:
    """Recursive name-keyed comparison of a map alias against a numeric map."""
    numeric_entries = _numeric_entries(view, numeric)
    links = dict(numeric_entries)
    children: dict = {}
    all_unchanged = True
    for name, child in node.sorted_items():
        old = links.get(name)
        if isinstance(child, ObjectAlias):
            if old == child.target:
                status = STATUS_UNCHANGED
            elif not view.has_object(child.target):
                raise DanglingAliasTargetError(
                    f"alias at {display_path(segments + (name,))!r} pins missing object"
                    f" {format_identity(child.target)}",
                    detail=format_identity(child.target),
                )
            elif old is None:
                status = STATUS_ADDED
            else:
                status = STATUS_CHANGED
            children[name] = _LinkPlan(status, old, child.target)
        else:
            # A numeric leaf under this name is a kind flip: compare the
            # placeholder against nothing and report the name as changed.
            old_is_map = old is not None and view.get_object(old).kind == KIND_MAP
            sub = _analyze(view, child, old if old_is_map else None, segments + (name,))
            if old is None:
                sub.status = STATUS_ADDED
            elif not old_is_map:
                sub.status = STATUS_CHANGED
                sub.counterpart = old
            children[name] = sub
        if children[name].status != STATUS_UNCHANGED:
            all_unchanged = False

    removed = {name: target for name, target in links.items() if name not in node.children}
    if numeric is None:
        status = STATUS_ADDED
    elif all_unchanged and not removed:
        status = STATUS_UNCHANGED
    else:
        status = STATUS_CHANGED
    return _MapPlan(status, numeric, children, removed, numeric_entries)


def _flatten(plan: _MapPlan, segments: tuple, entries: list):
    entries.append(ChangeEntry("/".join(segments), plan.status, True, plan.counterpart, None))
    names = sorted(set(plan.children) | set(plan.removed))
    for name in names:
        child_segments = segments + (name,)
        if name in plan.children:
            child = plan.children[name]
            if isinstance(child, _LinkPlan):
                entries.append(
                    ChangeEntry(
                        "/".join(child_segments), child.status, False, child.old, child.target
                    )
                )
            else:
                _flatten(child, child_segments, entries)
        else:
            entries.append(
                ChangeEntry(
                    "/".join(child_segments), STATUS_REMOVED, False, plan.removed[name], None
                )
            )


def diff_alias_vs_numeric(
    store: Store, tree: AliasTree, numeric_root: ObjectIdentity | None = None
) -> ChangeSet:
    """Preview what a commit would rebuild; read-only and advisory.

    With ``numeric_root`` absent everything is reported as added (the
    bootstrap case).  The commit itself recomputes the comparison under
    the write lock.
    """
    plan = _analyze(store, tree.root, numeric_root, ())
    entries: list[ChangeEntry] = []
    _flatten(plan, (), entries)
    return ChangeSet(tuple(entries))


def _materialize(
    txn: WriteTransaction,
    node: MapAlias,
    plan: _MapPlan,
    root_class: str,
    segments: tuple,
) -> ObjectIdentity:
    """Bottom-up rebuild of the changed and added maps.

    A link the rebuild keeps reuses the numeric map's (name, identity)
    pair, so a new map version holds new pairs only for what changed.
    """
    if plan.status == STATUS_UNCHANGED:
        return plan.counterpart
    kept = {pair[0]: pair for pair in plan.numeric_entries}
    entries = []
    for name, child in node.sorted_items():
        child_plan = plan.children[name]
        if isinstance(child_plan, _LinkPlan):
            target = child_plan.target
        else:
            target = _materialize(txn, child, child_plan, root_class, segments + (name,))
        pair = kept.get(name)
        entries.append(pair if pair is not None and pair[1] == target else (name, target))
    payload = Payload.map(entries)
    if segments:
        return txn.create_object(INTERIOR_MAP_CLASS, _interior_secondary(segments), payload)
    return txn.create_object(root_class, None, payload)


def commit_alias_tree(store: Store, tree: AliasTree, bind_run_types=()) -> ObjectIdentity:
    """Diff, minimally rebuild, and re-activate -- in one transaction.

    The baseline numeric tree is whatever the first requested run type
    is currently bound to (nothing bound means bootstrap).  Returns the
    new or reused root identity; a true fixed point creates no records
    at all.  On any error nothing is committed.
    """
    with store.transaction() as txn:
        return commit_alias_tree_in(store, txn, tree, bind_run_types)


def commit_alias_tree_in(
    store: Store, txn: WriteTransaction, tree: AliasTree, bind_run_types=()
) -> ObjectIdentity:
    """The commit procedure staged into an already-open transaction."""
    bind_run_types = list(bind_run_types)
    current = active_trees(txn)
    baseline = current.get(bind_run_types[0]) if bind_run_types else None
    plan = _analyze(txn, tree.root, baseline, ())
    root_id = _materialize(txn, tree.root, plan, tree.root_class, ())
    if bind_run_types:
        rebound = dict(current)
        for run_type in bind_run_types:
            rebound[run_type] = root_id
        if rebound != current:
            activate(store, txn, rebound)
    return root_id
