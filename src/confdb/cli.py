"""The confdb operator tool.

One small command language covers both management task families: creating
configuration objects (from canonical payload files) and manipulating
trees and alias trees.  Single commands run from the shell::

    confdb --store DIR new-object DchHV:sector3 --from hv.cfg
    confdb --store DIR resolve PHYSICS

and scripts (LF-separated commands, ``#`` comments) run via::

    confdb --store DIR script build.cmds     # or '-' for stdin

``confdb --store DIR fsck`` checks a store's whole log without opening
the store, so it neither locks nor repairs anything.

Each command either fully succeeds or leaves the store and alias state
unchanged; `begin`/`commit`/`abort` group several mutating commands,
alias edits included, into one store transaction.  Every read inside
the block reads the block: its staged objects, activations and alias
edits over the store's.  Its alias edits are written only when it
commits, after its objects: a block that does not commit, its failed
`commit` included, writes no alias state.  A script stops at its first
error and exits nonzero, reporting the failing line.
The global ``--epoch`` flag pins creation timestamps so scripted builds
produce byte-identical logs.
"""

from __future__ import annotations

import argparse
import shlex
import signal
import sys

from . import alias as alias_mod
from . import commitproc
from .errors import ConfdbError, DuplicateNameError, NoSuchAliasError, ParseError
from .model import (
    KIND_LEAF,
    ObjectIdentity,
    decode_payload,
    encode_payload,
    format_identity,
    parse_identity,
    validate_name,
)
from .store import Store, View, check_store, open_store
from .tree import activate, active_trees, lookup_path, resolve_run_type, walk_tree


class Session:
    """One CLI session: an open store plus an optional transaction block."""

    def __init__(self, store: Store):
        self.store = store
        self.txn = None

    @property
    def view(self) -> View:
        """The block's transaction, else the store: what every read and write goes through."""
        return self.txn or self.store

    def end_block(self) -> bool:
        """End the ``begin`` block, if any, aborting it if open; return whether there was one."""
        txn, self.txn = self.txn, None
        if txn is not None and txn.state == "open":
            txn.abort()
        return txn is not None


def _parse_class_spec(text: str) -> tuple[str, str | None]:
    class_name, sep, secondary = text.partition(":")
    if not sep:
        return validate_name(class_name, "class name"), None
    return (
        validate_name(class_name, "class name"),
        validate_name(secondary, "secondary key"),
    )


def _parse_bindings(text: str) -> dict[str, ObjectIdentity]:
    """Parse ``rt=Class[1],rt2=Other[2]``; identities end at their ``]``."""
    bindings = {}
    rest = text
    while rest:
        run_type, sep, rest = rest.partition("=")
        if not sep:
            raise ParseError(f"expected rt=identity in {text!r}")
        end = rest.find("]")
        if end < 0:
            raise ParseError(f"missing ']' in {text!r}")
        bindings[validate_name(run_type, "run type")] = parse_identity(rest[: end + 1])
        rest = rest[end + 1 :]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise ParseError(f"expected ',' between bindings in {text!r}")
    return bindings


def _take_flag(args: list[str], flag: str) -> str | None:
    if flag in args:
        idx = args.index(flag)
        if idx + 1 >= len(args):
            raise ParseError(f"{flag} needs a value")
        value = args[idx + 1]
        del args[idx : idx + 2]
        return value
    return None


def _expect(args: list[str], count: int, usage: str) -> list[str]:
    if len(args) != count:
        raise ParseError(f"usage: {usage}")
    return args


def _show_object(obj) -> str:
    payload = encode_payload(obj.payload).decode("utf-8")
    return f"{format_identity(obj.identity)}\n{payload}"


# -- command handlers ---------------------------------------------------


def _cmd_new_object(session: Session, args: list[str]) -> str:
    source = _take_flag(args, "--from")
    (spec,) = _expect(args, 1, "new-object <class[:sec]> --from <file>")
    if source is None:
        raise ParseError("new-object requires --from <file>")
    class_name, secondary = _parse_class_spec(spec)
    with open(source, "rb") as f:
        payload = decode_payload(f.read())
    if payload.kind != KIND_LEAF:
        raise ParseError(f"new-object takes a leaf payload, got kind={payload.kind}")
    with session.view.transaction() as txn:
        identity = txn.create_object(class_name, secondary, payload)
    return f"created {format_identity(identity)}\n"


def _cmd_show(session: Session, args: list[str]) -> str:
    (identity_text,) = _expect(args, 1, "show <identity>")
    obj = session.view.get_object(parse_identity(identity_text))
    return _show_object(obj)


def _cmd_versions(session: Session, args: list[str]) -> str:
    (spec,) = _expect(args, 1, "versions <class[:sec]>")
    class_name, secondary = _parse_class_spec(spec)
    keys = session.view.list_versions(class_name, secondary)
    return "".join(f"{key}\n" for key in keys)


def _cmd_manifest(session: Session, args: list[str]) -> str:
    (identity_text,) = _expect(args, 1, "manifest <identity>")
    manifest = walk_tree(session.view, parse_identity(identity_text))
    return manifest.to_text()


def _cmd_lookup(session: Session, args: list[str]) -> str:
    identity_text, path = _expect(args, 2, "lookup <identity> <path>")
    obj = lookup_path(session.view, parse_identity(identity_text), path)
    return _show_object(obj)


def _cmd_new_alias(session: Session, args: list[str]) -> str:
    name, root_class = _expect(args, 2, "new-alias <name> <root-class>")
    tree = alias_mod.new_alias_tree(name, root_class)
    with session.view.transaction() as txn:
        try:
            alias_mod.load_alias_tree(txn, name)
        except NoSuchAliasError:
            alias_mod.save_alias_tree(txn, tree)
            return f"created alias {name}\n"
    raise DuplicateNameError(f"alias tree {name!r} already exists")


def _with_alias(session: Session, name: str, edit) -> str:
    alias_mod.edit_alias_tree(session.view, name, edit)
    return ""


def _cmd_alias_map(session: Session, args: list[str]) -> str:
    name, parent, child = _expect(args, 3, "alias-map <alias> <parent-path> <name>")
    return _with_alias(session, name, lambda t: t.add_map_alias(parent, child))


def _cmd_alias_set(session: Session, args: list[str]) -> str:
    name, parent, child, identity_text = _expect(
        args, 4, "alias-set <alias> <parent-path> <name> <identity>"
    )
    target = parse_identity(identity_text)
    return _with_alias(session, name, lambda t: t.set_object_alias(parent, child, target))


def _cmd_alias_rm(session: Session, args: list[str]) -> str:
    name, path = _expect(args, 2, "alias-rm <alias> <path>")
    return _with_alias(session, name, lambda t: t.remove_node(path))


def _cmd_alias_show(session: Session, args: list[str]) -> str:
    (name,) = _expect(args, 1, "alias-show <alias>")
    tree = alias_mod.load_alias_tree(session.view, name)
    return alias_mod.serialize_alias_tree(tree)


def _cmd_diff(session: Session, args: list[str]) -> str:
    if len(args) not in (1, 2):
        raise ParseError("usage: diff <alias> [<runtype>]")
    view = session.view
    tree = alias_mod.load_alias_tree(view, args[0])
    baseline = resolve_run_type(view, args[1]) if len(args) == 2 else None
    changes = commitproc.diff_alias_vs_numeric(view, tree, baseline)
    return changes.to_text()


def _cmd_commit_alias(session: Session, args: list[str]) -> str:
    bind = _take_flag(args, "--bind")
    (name,) = _expect(args, 1, "commit-alias <alias> [--bind <rt>[,rt...]]")
    run_types = [validate_name(rt, "run type") for rt in bind.split(",")] if bind else []
    with session.view.transaction() as txn:
        tree = alias_mod.load_alias_tree(txn, name)
        before = len(txn.pending)
        root = commitproc.commit_alias_tree(txn, tree, run_types)
        created = len(txn.pending) - before
    if created == 0:
        return "fixed point: 0 objects created\n"
    return f"committed root {format_identity(root)}: {created} objects created\n"


def _cmd_activate(session: Session, args: list[str]) -> str:
    (spec,) = _expect(args, 1, "activate <rt>=<identity>[,...]")
    bindings = _parse_bindings(spec)
    with session.view.transaction() as txn:
        identity = activate(txn, txn, bindings)
    return f"activated {format_identity(identity)}\n"


def _cmd_runtypes(session: Session, args: list[str]) -> str:
    _expect(args, 0, "runtypes")
    bindings = active_trees(session.view)
    return "".join(
        f"{run_type}\t{format_identity(target)}\n" for run_type, target in bindings.items()
    )


def _cmd_resolve(session: Session, args: list[str]) -> str:
    (run_type,) = _expect(args, 1, "resolve <rt>")
    return f"{format_identity(resolve_run_type(session.view, run_type))}\n"


def _cmd_serve(session: Session, args: list[str]) -> str:
    """Serve until SIGINT or SIGTERM.

    Both stop it whatever it inherited: a shell without job control
    starts background commands with SIGINT ignored.
    """
    from .service import ConfigServer

    listen = _take_flag(args, "--listen")
    _expect(args, 0, "serve --listen <host:port>")
    if listen is None:
        raise ParseError("serve needs --listen <host:port>")
    with ConfigServer(session.store, listen) as server:
        stops = (signal.SIGINT, signal.SIGTERM)
        previous = [signal.signal(signum, signal.default_int_handler) for signum in stops]
        try:
            print(f"listening on {server.endpoint}", flush=True)
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            for signum, handler in zip(stops, previous):
                signal.signal(signum, handler)
    return ""


def _cmd_begin(session: Session, args: list[str]) -> str:
    _expect(args, 0, "begin")
    session.txn = session.store.begin()
    return ""


def _cmd_commit(session: Session, args: list[str]) -> str:
    _expect(args, 0, "commit")
    if session.txn is None:
        raise ParseError("no open transaction block")
    try:
        session.txn.commit()
    finally:
        session.end_block()
    return ""


def _cmd_abort(session: Session, args: list[str]) -> str:
    _expect(args, 0, "abort")
    if not session.end_block():
        raise ParseError("no open transaction block")
    return ""


COMMANDS = {
    "new-object": _cmd_new_object,
    "show": _cmd_show,
    "versions": _cmd_versions,
    "manifest": _cmd_manifest,
    "lookup": _cmd_lookup,
    "new-alias": _cmd_new_alias,
    "alias-map": _cmd_alias_map,
    "alias-set": _cmd_alias_set,
    "alias-rm": _cmd_alias_rm,
    "alias-show": _cmd_alias_show,
    "diff": _cmd_diff,
    "commit-alias": _cmd_commit_alias,
    "activate": _cmd_activate,
    "runtypes": _cmd_runtypes,
    "resolve": _cmd_resolve,
    "serve": _cmd_serve,
    "begin": _cmd_begin,
    "commit": _cmd_commit,
    "abort": _cmd_abort,
}


def execute_tokens(session: Session, tokens: list[str]) -> str:
    if not tokens:
        return ""
    verb, args = tokens[0], list(tokens[1:])
    handler = COMMANDS.get(verb)
    if handler is None:
        raise ParseError(f"unknown command: {verb}")
    try:
        return handler(session, args)
    except ConfdbError:
        # Any failure inside an explicit block abandons the whole block.
        session.end_block()
        raise


def execute_command(session: Session, line: str) -> str:
    """Run one command line (shell-style quoting for names with spaces)."""
    try:
        tokens = shlex.split(line, comments=True)
    except ValueError as exc:
        raise ParseError(f"bad command syntax: {exc}") from None
    return execute_tokens(session, tokens)


def execute_script(session: Session, text: str, out) -> int:
    """Run commands line by line; stop and report at the first error."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            output = execute_command(session, line)
        except (ConfdbError, OSError) as exc:
            print(f"error at line {lineno}: {exc}", file=sys.stderr)
            return 1
        if output:
            out.write(output)
    if session.end_block():
        print("error: script ended with an open transaction block", file=sys.stderr)
        return 1
    return 0


def _fsck(directory: str, args: list[str]) -> int:
    """Report ``check_store``'s findings; exit 1 at the first failure."""
    if args:
        print("usage: fsck", file=sys.stderr)
        return 2
    try:
        for line in check_store(directory):
            print(line, flush=True)
    except (ConfdbError, OSError) as exc:
        print(f"confdb: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="confdb",
        description="versioned immutable configuration database",
    )
    parser.add_argument("--store", required=True, help="store directory")
    parser.add_argument(
        "--epoch", type=int, default=None, help="pin creation timestamps (seconds)"
    )
    parser.add_argument("command", nargs=argparse.REMAINDER, help="command and arguments")
    options = parser.parse_args(argv)
    if not options.command:
        parser.error("missing command")

    if options.command[0] == "fsck":
        return _fsck(options.store, options.command[1:])
    clock_kwargs = {}
    if options.epoch is not None:
        clock_kwargs["clock"] = lambda: options.epoch
    store = open_store(options.store, **clock_kwargs)
    session = Session(store)
    try:
        tokens = options.command
        if tokens[0] == "script":
            if len(tokens) != 2:
                print("usage: script <file|->", file=sys.stderr)
                return 2
            if tokens[1] == "-":
                text = sys.stdin.read()
            else:
                with open(tokens[1], "r", encoding="utf-8") as f:
                    text = f.read()
            return execute_script(session, text, sys.stdout)
        try:
            output = execute_tokens(session, tokens)
        except (ConfdbError, OSError) as exc:
            print(f"confdb: error: {exc}", file=sys.stderr)
            return 1
        if output:
            sys.stdout.write(output)
        if session.end_block():
            print("confdb: error: begin without commit", file=sys.stderr)
            return 1
        return 0
    finally:
        session.end_block()
        store.close()


if __name__ == "__main__":
    raise SystemExit(main())
