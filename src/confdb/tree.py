"""Tree navigation and activation.

A configuration tree is whatever is reachable from a root map; the
tree's identity *is* the root map's identity.  Objects are found by path
(link names joined with ``/``).  The reserved ``@runtypes`` class holds
the run-type map: each version carries a complete run-type -> tree-root
binding set, and the version with the highest config key is the active
one.  Older versions stay readable forever, which is what makes any
historical configuration reconstructible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DepthExceededError,
    NoActiveMapError,
    NoSuchLinkError,
    NotAMapError,
    UnknownRunTypeError,
)
from .model import (
    KIND_MAP,
    ObjectIdentity,
    Payload,
    display_path,
    format_identity,
    parse_path,
    path_text,
)
from .store import RUNTYPES_CLASS, StoredObject, View, WriteTransaction

# Legitimate trees are a few levels deep; the cap only guards against
# walking a store corrupted outside this library (the create-time
# referential-integrity check makes cycles unbuildable through the API).
MAX_TREE_DEPTH = 64


def resolve_path(store: View, root: ObjectIdentity, path) -> ObjectIdentity:
    """The identity that named links from ``root`` lead to; the empty path is ``root``.

    The maps along the path are read; the object at its end is not.
    """
    segments = parse_path(path)
    current = store.get_object(root)
    if current.kind != KIND_MAP:
        raise NotAMapError(
            f"{format_identity(root)} is not a map", detail=format_identity(root)
        )
    target = root
    for depth, segment in enumerate(segments):
        if depth:
            current = store.get_object(target)
            if current.kind != KIND_MAP:
                prefix = display_path(segments[:depth])
                raise NotAMapError(f"{prefix!r} is not a map", detail=prefix)
        try:
            target = current.payload.get(segment)
        except KeyError:
            prefix = display_path(segments[:depth])
            raise NoSuchLinkError(
                f"no link {segment!r} under {prefix!r}", detail=prefix
            ) from None
    return target


def lookup_path(store: View, root: ObjectIdentity, path) -> StoredObject:
    """Follow named links from ``root``; the empty path is the root itself."""
    return store.get_object(resolve_path(store, root, path))


@dataclass(frozen=True)
class TreeManifest:
    """Deterministic depth-first listing of (path text, identity) pairs.

    Paths are the keys: a sub-tree shared through two links appears once
    per path.  The root's path is the empty string ("/" when rendered).
    """

    root: ObjectIdentity
    entries: tuple

    def to_text(self) -> str:
        lines = [
            f"{display_path(path)}\t{format_identity(identity)}"
            for path, identity in self.entries
        ]
        return "\n".join(lines) + "\n"


def _visit(store: View, identity: ObjectIdentity, segments: tuple, depth: int, entries: list):
    if depth > MAX_TREE_DEPTH:
        raise DepthExceededError(
            f"tree deeper than {MAX_TREE_DEPTH} at {display_path(segments)!r}"
        )
    expand = store.is_map(identity)
    entries.append((path_text(segments), identity))
    if expand:
        for name, target in store.get_object(identity).payload.entries:
            _visit(store, target, segments + (name,), depth + 1, entries)


def walk_tree(store: View, root: ObjectIdentity) -> TreeManifest:
    """Expand the whole tree under ``root`` into a manifest.

    Only maps are read: whether an object is a map is known without
    reading it, so a walk decodes no leaf.  The recursion is a
    module-level function, not a closure: a nested function that calls
    itself is a reference cycle, which would keep the store and the
    entries alive until the cyclic collector ran.
    """
    if not store.is_map(root):
        raise NotAMapError(
            f"{format_identity(root)} is not a map", detail=format_identity(root)
        )
    entries = []
    _visit(store, root, (), 0, entries)
    return TreeManifest(root, tuple(entries))


def activate(store: View, txn: WriteTransaction, bindings: dict) -> ObjectIdentity:
    """Write a new run-type map version carrying the complete binding set.

    The new version's key supersedes all prior ones; target maps must
    already exist (checked at creation, along with their kind).  Only
    ``txn`` is read, so ``store`` may be any view, ``txn`` itself included.
    """
    payload = Payload.runtypes(bindings)
    return txn.create_object(RUNTYPES_CLASS, None, payload)


def _active_runtype_map(view: View) -> StoredObject | None:
    high = view.highest_key(RUNTYPES_CLASS)
    if high == 0:
        return None
    return view.get_object(ObjectIdentity(RUNTYPES_CLASS, None, high))


def active_trees(view: View) -> dict:
    """Bindings of the highest-key run-type map; empty when none exists.

    Given an open transaction, run-type maps it has staged count too.
    """
    active = _active_runtype_map(view)
    if active is None:
        return {}
    return active.payload.bindings


def resolve_run_type(view: View, run_type: str) -> ObjectIdentity:
    """Map a run type to its root via the highest-key run-type map ``view`` holds."""
    active = _active_runtype_map(view)
    if active is None:
        raise NoActiveMapError("no run-type map has been activated")
    try:
        return active.payload.get(run_type)
    except KeyError:
        raise UnknownRunTypeError(
            f"run type {run_type!r} is not bound", detail=run_type
        ) from None
