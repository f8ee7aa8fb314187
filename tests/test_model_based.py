"""Model-based check of the store, alias trees, commits and the service.

A hypothesis state machine creates leaves, edits and saves an alias
tree, commits it with run-type binding, activates bindings, reopens the
store and lets a second handle catch up.  The second handle also edits,
saves and commits the alias tree between this handle's load and its
commit.  After every step the real store is compared with a plain
in-memory model of what it must hold: dense keys per pair, the RESOLVE
frame of every run type, the manifest under every root ever bound, and
an untouched log after a commit that changes nothing.

A second state machine runs the operator tool's commands inside one
``begin`` block and, one command at a time, on a twin store that
commits each command on its own.  After every step each read command
answers the same in the block as on the twin; once the block commits a
fresh handle reads what the twin reads, and after an abort every read
answers what it did before the block.
"""

import copy
import os
import shlex
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from confdb.alias import ObjectAlias, load_alias_tree, new_alias_tree, save_alias_tree
from confdb.cli import COMMANDS, Session, execute_command
from confdb.commitproc import commit_alias_tree
from confdb.errors import ConfdbError, DuplicateNameError, NameIsMapAliasError
from confdb.model import ObjectIdentity, Payload, format_identity, parse_identity
from confdb.store import open_store
from confdb.tree import activate, walk_tree
from helpers import answer

ALIAS = "golden"
ROOT_CLASS = "Top"
LEAF_PAIRS = [("A", None), ("B", None), ("A", "s1")]
NAMES = ["a", "b", "c"]
RUN_TYPES = ["PHYSICS", "COSMICS"]
BINDS = [["PHYSICS"], ["COSMICS"], ["PHYSICS", "COSMICS"], ["COSMICS", "PHYSICS"]]
RUNTYPES_PAIR = ("@runtypes", None)
MAX_PARENT_DEPTH = 2


def _alias_as_dict(node) -> dict:
    """An alias map node as nested dicts: name -> identity or dict."""
    return {
        name: child.target if isinstance(child, ObjectAlias) else _alias_as_dict(child)
        for name, child in node.children.items()
    }


def _map_paths(node: dict, segments=()):
    yield segments
    for name, child in node.items():
        if isinstance(child, dict):
            yield from _map_paths(child, segments + (name,))


def _node_paths(node: dict, segments=()):
    for name, child in node.items():
        yield segments + (name,)
        if isinstance(child, dict):
            yield from _node_paths(child, segments + (name,))


def _node_at(node: dict, segments) -> dict:
    for segment in segments:
        node = node[segment]
    return node


def _path(segments) -> str:
    return "/".join(segments) or "/"


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="confdb-model-")
        self.store = open_store(self.directory, clock=lambda: 0)
        self.peer = open_store(self.directory, clock=lambda: 0)
        self.tree = new_alias_tree(ALIAS, ROOT_CLASS)
        save_alias_tree(self.store, self.tree)
        # The model: what the store and the alias region must hold.
        self.highs = {}  # (class, secondary) -> highest config key
        self.payloads = {}  # identity -> payload it was created with
        self.leaves = []
        self.work = {}  # the alias tree being edited
        self.saved = {}  # the alias tree last saved
        self.bindings = None  # active run-type bindings; None before any
        self.manifests = {}  # every root ever bound -> its manifest entries

    def teardown(self):
        self.store.close()
        self.peer.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- the model's own bookkeeping -----------------------------------------

    def _mint(self, pair, payload) -> ObjectIdentity:
        self.highs[pair] = self.highs.get(pair, 0) + 1
        identity = ObjectIdentity(pair[0], pair[1], self.highs[pair])
        self.payloads[identity] = payload
        return identity

    def _manifest(self, root) -> tuple:
        entries = []

        def visit(identity, segments):
            entries.append(("/".join(segments), identity))
            payload = self.payloads[identity]
            if payload.kind == "map":
                for name, target in sorted(payload.links.items()):
                    visit(target, segments + (name,))

        visit(root, ())
        return tuple(entries)

    def _activate(self, bindings) -> ObjectIdentity:
        for root in bindings.values():
            self.manifests.setdefault(root, self._manifest(root))
        self.bindings = dict(bindings)
        return self._mint(RUNTYPES_PAIR, Payload.runtypes(bindings))

    def _rebuild(self, node: dict, counterpart, segments) -> ObjectIdentity:
        """Minimal rebuild: a map keeps its identity while its links match."""
        old = self.payloads[counterpart].links if counterpart is not None else {}
        links = {}
        for name, child in node.items():
            if isinstance(child, dict):
                sub = old.get(name)
                if sub is not None and self.payloads[sub].kind != "map":
                    sub = None
                links[name] = self._rebuild(child, sub, segments + (name,))
            else:
                links[name] = child
        if counterpart is not None and old == links:
            return counterpart
        pair = ("Map", ".".join(segments)) if segments else (ROOT_CLASS, None)
        return self._mint(pair, Payload.map(links))

    def _commit(self, binds, work=None) -> ObjectIdentity:
        current = dict(self.bindings or {})
        root = self._rebuild(self.work if work is None else work, current.get(binds[0]), ())
        rebound = dict(current)
        for run_type in binds:
            rebound[run_type] = root
        if rebound != current:
            self._activate(rebound)
        return root

    def _expected_resolve(self, run_type) -> bytes:
        if self.bindings is None:
            return b"ERR 404 no-active-map\n"
        if run_type not in self.bindings:
            return f"ERR 404 unknown-run-type {run_type}\n".encode()
        return f"OK {format_identity(self.bindings[run_type])}\n".encode()

    def _log_bytes(self) -> bytes:
        with open(os.path.join(self.directory, "objects.log"), "rb") as f:
            return f.read()

    def _check_versions(self, store):
        for pair, high in self.highs.items():
            assert store.list_versions(*pair) == list(range(1, high + 1)), pair
            for key in range(1, high + 1):
                assert store.has_object(ObjectIdentity(pair[0], pair[1], key))
        assert store.object_count() == len(self.payloads)

    # -- rules ---------------------------------------------------------------

    @rule(pairs=st.lists(st.sampled_from(LEAF_PAIRS), min_size=1, max_size=3))
    def create_leaves(self, pairs):
        start = len(self.payloads)
        payloads = [Payload.leaf({"n": start + i}) for i in range(len(pairs))]
        with self.store.transaction() as txn:
            created = [
                txn.create_object(cls, sec, p) for (cls, sec), p in zip(pairs, payloads)
            ]
        assert created == [self._mint(pair, p) for pair, p in zip(pairs, payloads)]
        self.leaves.extend(created)

    @precondition(lambda self: self.leaves)
    @rule(data=st.data())
    def alias_set(self, data):
        parents = [p for p in _map_paths(self.work) if len(p) <= MAX_PARENT_DEPTH]
        parent = data.draw(st.sampled_from(parents))
        name = data.draw(st.sampled_from(NAMES))
        target = data.draw(st.sampled_from(self.leaves))
        node = _node_at(self.work, parent)
        if isinstance(node.get(name), dict):
            with pytest.raises(NameIsMapAliasError):
                self.tree.set_object_alias(_path(parent), name, target)
            return
        self.tree.set_object_alias(_path(parent), name, target)
        node[name] = target

    @rule(data=st.data())
    def alias_map(self, data):
        parents = [p for p in _map_paths(self.work) if len(p) <= MAX_PARENT_DEPTH]
        parent = data.draw(st.sampled_from(parents))
        name = data.draw(st.sampled_from(NAMES))
        node = _node_at(self.work, parent)
        if name in node:
            with pytest.raises(DuplicateNameError):
                self.tree.add_map_alias(_path(parent), name)
            return
        self.tree.add_map_alias(_path(parent), name)
        node[name] = {}

    @precondition(lambda self: self.work)
    @rule(data=st.data())
    def alias_remove(self, data):
        path = data.draw(st.sampled_from(list(_node_paths(self.work))))
        self.tree.remove_node(_path(path))
        del _node_at(self.work, path[:-1])[path[-1]]

    @rule()
    def save(self):
        save_alias_tree(self.store, self.tree)
        self.saved = copy.deepcopy(self.work)

    @rule(binds=st.sampled_from(BINDS))
    def commit(self, binds):
        before_count = len(self.payloads)
        before_log = self._log_bytes()
        root = commit_alias_tree(self.store, self.tree, binds)
        assert root == self._commit(binds)
        if len(self.payloads) == before_count:
            assert self._log_bytes() == before_log
        # Committing the same tree again is a zero-edit commit.
        before_log = self._log_bytes()
        assert commit_alias_tree(self.store, self.tree, binds) == root
        assert self._commit(binds) == root
        assert self._log_bytes() == before_log

    @precondition(lambda self: self.leaves)
    @rule(data=st.data(), peer_binds=st.sampled_from(BINDS), binds=st.sampled_from(BINDS))
    def peer_commits_between_load_and_commit(self, data, peer_binds, binds):
        self.tree = load_alias_tree(self.store, ALIAS)
        self.work = copy.deepcopy(self.saved)
        # The second handle edits the saved tree, saves and commits it.
        peer_tree = load_alias_tree(self.peer, ALIAS)
        peer_work = copy.deepcopy(self.saved)
        name = data.draw(st.sampled_from(NAMES))
        if isinstance(peer_work.get(name), dict):
            peer_tree.remove_node(name)
            del peer_work[name]
        else:
            target = data.draw(st.sampled_from(self.leaves))
            peer_tree.set_object_alias("/", name, target)
            peer_work[name] = target
        save_alias_tree(self.peer, peer_tree)
        self.saved = peer_work
        assert commit_alias_tree(self.peer, peer_tree, peer_binds) == self._commit(
            peer_binds, peer_work
        )
        # This handle's commit of its earlier load diffs against the
        # second handle's root, and its next load sees that handle's save.
        assert commit_alias_tree(self.store, self.tree, binds) == self._commit(binds)
        assert _alias_as_dict(load_alias_tree(self.store, ALIAS).root) == self.saved

    @precondition(lambda self: self.manifests)
    @rule(data=st.data())
    def activate_bindings(self, data):
        roots = list(self.manifests)
        bindings = data.draw(
            st.dictionaries(st.sampled_from(RUN_TYPES), st.sampled_from(roots), max_size=2)
        )
        with self.store.transaction() as txn:
            identity = activate(self.store, txn, bindings)
        assert identity == self._activate(bindings)

    @rule()
    def reopen(self):
        self.store.close()
        self.store = open_store(self.directory, clock=lambda: 0)
        self.tree = load_alias_tree(self.store, ALIAS)
        self.work = copy.deepcopy(self.saved)
        for identity, payload in self.payloads.items():
            assert self.store.get_object(identity).payload == payload

    @rule()
    def refresh_peer(self):
        self.peer.refresh()
        self._check_versions(self.peer)
        for run_type in RUN_TYPES:
            frame = answer(self.peer, f"RESOLVE {run_type}\n")
            assert frame == self._expected_resolve(run_type)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def alias_tree_matches(self):
        assert _alias_as_dict(self.tree.root) == self.work

    @invariant()
    def keys_stay_dense(self):
        self._check_versions(self.store)

    @invariant()
    def resolve_matches(self):
        for run_type in RUN_TYPES:
            frame = answer(self.store, f"RESOLVE {run_type}\n")
            assert frame == self._expected_resolve(run_type)

    @invariant()
    def bound_roots_walk_to_their_manifests(self):
        for key in range(1, self.highs.get(RUNTYPES_PAIR, 0) + 1):
            identity = ObjectIdentity(*RUNTYPES_PAIR, key)
            assert self.store.get_object(identity).payload == self.payloads[identity]
        for root, manifest in self.manifests.items():
            assert walk_tree(self.store, root).entries == manifest


StoreMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_store_matches_model = StoreMachine.TestCase


BLOCK_LEAF_CLASSES = ["A", "B:s1"]
BLOCK_PAYLOADS = [b"kind=leaf\nv=i:1\n", b"kind=leaf\nv=i:2\n"]


def _read(session: Session, line: str) -> str:
    """What a read command prints, or its error; a failed read leaves the block open."""
    verb, *args = shlex.split(line)
    try:
        return COMMANDS[verb](session, args)
    except ConfdbError as exc:
        return f"{type(exc).__name__}: {exc}"


class BlockReadsMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="confdb-block-")
        self.files = []
        for i, data in enumerate(BLOCK_PAYLOADS):
            self.files.append(os.path.join(self.directory, f"p{i}.cfg"))
            with open(self.files[-1], "wb") as f:
                f.write(data)
        self.block = self._open("block")
        self.twin = self._open("twin")
        self._run("new-alias golden Top")
        # The model: what the reads name.  ``saved`` holds it and the
        # reads from before the open block.
        self.leaves, self.roots, self.work = [], [], {}
        self.saved = None

    def _open(self, name) -> Session:
        return Session(open_store(os.path.join(self.directory, name), clock=lambda: 0))

    def teardown(self):
        self.block.end_block()
        for session in (self.block, self.twin):
            session.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _run(self, line) -> str:
        """Run one command in the block, or alone if none is open, and alone on the twin."""
        out = execute_command(self.block, line)
        assert execute_command(self.twin, line) == out
        return out

    def _reads(self, session) -> dict:
        lines = ["runtypes", "alias-show golden", "diff golden"]
        lines += [f"{verb} {rt}" for verb in ("resolve", "diff golden") for rt in RUN_TYPES]
        lines += [f"versions {spec}" for spec in BLOCK_LEAF_CLASSES + ["Top"]]
        lines += [f"show {format_identity(i)}" for i in self.leaves + self.roots]
        for root in map(format_identity, self.roots):
            lines.append(f"manifest {root}")
            lines += [f"lookup {root} {name}" for name in NAMES]
        return {line: _read(session, line) for line in lines}

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: self.block.txn is None)
    @rule()
    def begin(self):
        shutil.copytree(self.twin.store.directory, os.path.join(self.directory, "saved"))
        model = copy.deepcopy((self.leaves, self.roots, self.work))
        self.saved = (model, self._reads(self.block))
        execute_command(self.block, "begin")

    @rule(spec=st.sampled_from(BLOCK_LEAF_CLASSES), index=st.sampled_from([0, 1]))
    def new_object(self, spec, index):
        out = self._run(f"new-object {spec} --from {self.files[index]}")
        self.leaves.append(parse_identity(out.split()[1]))

    @rule(data=st.data())
    def alias_edit(self, data):
        parent = data.draw(st.sampled_from(list(_map_paths(self.work))))
        name = data.draw(st.sampled_from(NAMES))
        node = _node_at(self.work, parent)
        if name in node:
            self._run(f"alias-rm golden {_path(parent + (name,))}")
            del node[name]
        elif self.leaves and data.draw(st.booleans()):
            target = data.draw(st.sampled_from(self.leaves))
            self._run(f"alias-set golden {_path(parent)} {name} {format_identity(target)}")
            node[name] = target
        else:
            self._run(f"alias-map golden {_path(parent)} {name}")
            node[name] = {}

    @rule(binds=st.sampled_from(BINDS))
    def commit_alias(self, binds):
        self._run(f"commit-alias golden --bind {','.join(binds)}")
        root = parse_identity(_read(self.twin, f"resolve {binds[0]}").strip())
        if root not in self.roots:
            self.roots.append(root)

    @precondition(lambda self: self.roots)
    @rule(data=st.data())
    def activate(self, data):
        bindings = data.draw(st.dictionaries(
            st.sampled_from(RUN_TYPES), st.sampled_from(self.roots), min_size=1, max_size=2))
        self._run("activate " + ",".join(
            f"{rt}={format_identity(root)}" for rt, root in bindings.items()))

    @precondition(lambda self: self.block.txn is not None)
    @rule()
    def commit(self):
        execute_command(self.block, "commit")
        shutil.rmtree(os.path.join(self.directory, "saved"))
        fresh = self._open("block")
        try:
            assert self._reads(fresh) == self._reads(self.twin)
        finally:
            fresh.store.close()

    @precondition(lambda self: self.block.txn is not None)
    @rule()
    def abort(self):
        execute_command(self.block, "abort")
        (self.leaves, self.roots, self.work), before = self.saved
        assert self._reads(self.block) == before
        # The twin goes back to where the block began.
        self.twin.store.close()
        shutil.rmtree(os.path.join(self.directory, "twin"))
        os.rename(os.path.join(self.directory, "saved"), os.path.join(self.directory, "twin"))
        self.twin = self._open("twin")

    # -- invariants ----------------------------------------------------------

    @invariant()
    def the_block_reads_what_the_twin_reads(self):
        assert self._reads(self.block) == self._reads(self.twin)


BlockReadsMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_block_reads_match_a_twin_that_commits_each_command = BlockReadsMachine.TestCase
