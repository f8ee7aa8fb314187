"""Seeded inputs for the benchmark and the model its checks compare against.

The active tree is shaped like a detector: 6 subsystems, 8 crates each,
21 module leaves per crate (1008 leaves, 55 maps).  The shape is fixed;
the seed picks every field value, which 150 leaves carry two 64-channel
arrays, and which leaves each history round edits.  Keeping the shape
and the leaf sizes fixed keeps the work per run the same for every seed.

:class:`Detector` is the model: it records, from the generator's side,
the values of the leaves each run type pins and the roots it activated.
The checks compare the program's answers with it as Python values; they
never compare against output the program saved earlier.
"""

from __future__ import annotations

import random

import confdb
from confdb import Array, ObjectIdentity, Payload
from confdb.model import path_text

SUBSYSTEMS = ("dch", "drc", "emc", "ifr", "svt", "trg")
CRATES = 8
MODULES = 21
ARRAY_LEAVES = 150
CHANNELS = 64
EDITS = 100  # leaf versions created per history round
ROOT_CLASS = "Detector"
MAP_CLASS = "Map"  # the class commit_alias_tree gives interior maps
ALIAS = "golden"
EPOCH = 1_700_000_000  # pinned creation time: the log bytes depend on the seed only


class Detector:
    """Generator and model of one seeded detector configuration."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.leaf_paths = [
            (sub, f"c{c}", f"m{m}")
            for sub in SUBSYSTEMS
            for c in range(CRATES)
            for m in range(MODULES)
        ]
        self.map_paths = [()] + [(sub,) for sub in SUBSYSTEMS] + [
            (sub, f"c{c}") for sub in SUBSYSTEMS for c in range(CRATES)
        ]
        self.with_arrays = set(self.rng.sample(self.leaf_paths, ARRAY_LEAVES))
        self.values: dict[ObjectIdentity, dict] = {}  # the pinned leaves' values; see pin()
        self.pinned: dict[tuple, ObjectIdentity] = {}  # leaf path -> PHYSICS leaf
        self.cosmics: dict[tuple, ObjectIdentity] = {}  # leaf path -> COSMICS leaf
        self.root: ObjectIdentity | None = None  # the active PHYSICS root
        self.cosmics_root: ObjectIdentity | None = None
        self.objects = 0  # objects the generator expects the store to hold

    # -- leaves ---------------------------------------------------------

    @staticmethod
    def leaf_pair(path: tuple) -> tuple[str, str]:
        return f"{path[0].capitalize()}Module", f"{path[1]}.{path[2]}"

    def new_fields(self, path: tuple) -> dict:
        rng = self.rng
        fields = {
            "enable": rng.randint(0, 1),
            "gain": rng.uniform(0.5, 2.0),
            "hv": rng.uniform(1000.0, 2500.0),
            "id": rng.randint(0, 2**31),
            "label": f"{path_text(path)}/{rng.randint(0, 999999):06d}",
            "mask": rng.randbytes(4),
            "offset": rng.randint(-500, 500),
            "threshold": rng.uniform(0.0, 50.0),
        }
        if path in self.with_arrays:
            fields["ped"] = Array("f", tuple(rng.gauss(200.0, 5.0) for _ in range(CHANNELS)))
            fields["thr"] = Array("i", tuple(rng.randint(0, 4095) for _ in range(CHANNELS)))
        return fields

    def create_leaves(self, txn, paths) -> dict:
        """Stage a new version of each leaf path; returns path -> identity."""
        made = {}
        for path in paths:
            fields = self.new_fields(path)
            identity = txn.create_object(*self.leaf_pair(path), Payload.leaf(fields))
            self.values[identity] = fields
            made[path] = identity
        self.objects += len(made)
        return made

    def pin(self, path: tuple, identity: ObjectIdentity) -> None:
        """Pin a new PHYSICS leaf and forget the values of the one it replaces.

        Only pinned values are checked, so the model stays the size of the
        tree, not of the history, and adds little to the benchmark's memory.
        """
        del self.values[self.pinned[path]]
        self.pinned[path] = identity

    # -- trees ----------------------------------------------------------

    def alias_tree(self):
        """The alias tree that pins exactly the model's PHYSICS leaves."""
        tree = confdb.new_alias_tree(ALIAS, ROOT_CLASS)
        for path in self.map_paths[1:]:
            tree.add_map_alias(path[:-1], path[-1])
        for path in self.leaf_paths:
            tree.set_object_alias(path[:-1], path[-1], self.pinned[path])
        return tree

    def ancestors(self, paths) -> set:
        """Map paths on a root-to-leaf path of any of ``paths``."""
        return {path[:depth] for path in paths for depth in range(len(path))}

    def record_commit(self, root: ObjectIdentity, edited) -> None:
        """Count a commit of ``edited`` leaves and keep the root it activated."""
        self.objects += len(self.ancestors(edited)) + 1  # rebuilt maps + run-type map
        self.root = root

    def edit_paths(self, count: int) -> list:
        return self.rng.sample(self.leaf_paths, count)


def build_store(store, detector: Detector, rounds: int) -> None:
    """Bootstrap PHYSICS, commit ``rounds`` edit rounds, then add COSMICS.

    Every round creates ``EDITS`` new leaf versions and commits the alias
    tree bound to PHYSICS, so history outgrows the active tree.  COSMICS
    is built last from PHYSICS's own maps and differs in one crate, so the
    two run types share all other sub-trees.  The alias tree is saved so
    an operator can go on editing it.
    """
    with store.transaction() as txn:
        detector.pinned = detector.create_leaves(txn, detector.leaf_paths)
    tree = detector.alias_tree()
    root = confdb.commit_alias_tree(store, tree, ["PHYSICS"])
    detector.objects += len(detector.map_paths)
    detector.record_commit(root, ())
    for _ in range(rounds):
        paths = detector.edit_paths(EDITS)
        with store.transaction() as txn:
            made = detector.create_leaves(txn, paths)
        for path, identity in made.items():
            detector.pin(path, identity)
            tree.set_object_alias(path[:-1], path[-1], identity)
        root = confdb.commit_alias_tree(store, tree, ["PHYSICS"])
        detector.record_commit(root, paths)
    confdb.save_alias_tree(store, tree)

    crate = ("trg", "c0")
    swapped = [p for p in detector.leaf_paths if p[:2] == crate]
    with store.transaction() as txn:
        made = detector.create_leaves(txn, swapped)
        crate_map = txn.create_object(MAP_CLASS, "trg.c0", Payload.map(
            {p[-1]: made[p] for p in swapped}))
        sub_links = confdb.lookup_path(store, root, "trg").payload.links
        sub_links["c0"] = crate_map
        sub_map = txn.create_object(MAP_CLASS, "trg", Payload.map(sub_links))
        top_links = confdb.lookup_path(store, root, "").payload.links
        top_links["trg"] = sub_map
        cosmics = txn.create_object(ROOT_CLASS, None, Payload.map(top_links))
        bindings = confdb.active_trees(store)
        bindings["COSMICS"] = cosmics
        confdb.activate(store, txn, bindings)
    detector.objects += 4  # crate map, subsystem map, root, run-type map
    detector.cosmics = dict(detector.pinned)
    detector.cosmics.update(made)
    detector.cosmics_root = cosmics
