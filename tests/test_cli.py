"""Operator tool tests: commands, scripts, golden files, replayability."""

import errno
import fcntl
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from confdb.alias import load_alias_tree
from confdb.cli import Session, execute_command, main
from confdb.model import ObjectIdentity
from confdb.store import open_store
from helpers import child_env

DATA = Path(__file__).parent / "data"
HV1 = ObjectIdentity("DchHV", "sector3", 1)
HV2 = ObjectIdentity("DchHV", "sector3", 2)


def run_cli(*args, expect=0, capsys=None):
    code = main(list(args))
    assert code == expect, f"exit {code} for {args}"
    out, err = capsys.readouterr()
    return out, err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in ("hv.cfg", "fee.cfg", "emc.cfg"):
        (tmp_path / name).write_bytes((DATA / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_new_object_reports_first_key(workdir, capsys):
    out, _ = run_cli("--store", "s", "--epoch", "0",
                     "new-object", "DchHV:sector3", "--from", "hv.cfg", capsys=capsys)
    assert out == "created DchHV:sector3[1]\n"
    out, _ = run_cli("--store", "s", "--epoch", "0",
                     "new-object", "DchHV:sector3", "--from", "hv.cfg", capsys=capsys)
    assert out == "created DchHV:sector3[2]\n"


def test_show_and_versions(workdir, capsys):
    run_cli("--store", "s", "new-object", "A", "--from", "fee.cfg", capsys=capsys)
    out, _ = run_cli("--store", "s", "show", "A[1]", capsys=capsys)
    assert out == "A[1]\nkind=leaf\ngain=i:4\n"
    out, _ = run_cli("--store", "s", "versions", "A", capsys=capsys)
    assert out == "1\n"


def test_unknown_identity_fails(workdir, capsys):
    out, err = run_cli("--store", "s", "show", "Nope[1]", expect=1, capsys=capsys)
    assert "no such object" in err


def test_figure1_script_matches_goldens(workdir, capsys):
    script = (DATA / "figure1.cmds").read_text()
    (workdir / "figure1.cmds").write_text(script)
    out, _ = run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    golden_manifest = (DATA / "figure1_manifest.txt").read_text()
    assert out == (
        "created DchHV:sector3[1]\n"
        "created DchFee[1]\n"
        "created EmcHV[1]\n"
        "created alias golden\n"
        "committed root TopMap[1]: 4 objects created\n"
        "TopMap[1]\n" + golden_manifest
    )
    out, _ = run_cli("--store", "s", "manifest", "TopMap[1]", capsys=capsys)
    assert out == golden_manifest


def test_script_replayability_byte_identical_logs(workdir, capsys):
    script = (DATA / "figure1.cmds").read_text()
    (workdir / "figure1.cmds").write_text(script)
    for store in ("s1", "s2"):
        run_cli("--store", store, "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    log1 = (workdir / "s1" / "objects.log").read_bytes()
    log2 = (workdir / "s2" / "objects.log").read_bytes()
    assert log1 == log2
    assert (workdir / "s1" / "aliases.dat").read_bytes() == (
        workdir / "s2" / "aliases.dat"
    ).read_bytes()


def test_commit_alias_fixed_point_message(workdir, capsys):
    script = (DATA / "figure1.cmds").read_text()
    (workdir / "figure1.cmds").write_text(script)
    run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    out, _ = run_cli("--store", "s", "--epoch", "0",
                     "commit-alias", "golden", "--bind", "PHYSICS", capsys=capsys)
    assert out == "fixed point: 0 objects created\n"


def test_empty_script_succeeds_silently(workdir, capsys):
    (workdir / "empty.cmds").write_text("\n# just a comment\n\n")
    out, _ = run_cli("--store", "s", "script", "empty.cmds", capsys=capsys)
    assert out == ""


def test_script_stops_at_first_error(workdir, capsys):
    (workdir / "bad.cmds").write_text(
        "new-object A --from fee.cfg\n"
        "new-object A --from fee.cfg\n"
        "resolve NOPE\n"
        "new-object A --from fee.cfg\n"
        "new-object A --from fee.cfg\n"
    )
    out, err = run_cli("--store", "s", "script", "bad.cmds", expect=1, capsys=capsys)
    assert "error at line 3" in err
    out, _ = run_cli("--store", "s", "versions", "A", capsys=capsys)
    assert out == "1\n2\n"  # lines 4-5 never executed


def test_begin_commit_block_is_atomic(workdir, capsys):
    (workdir / "block.cmds").write_text(
        "begin\n"
        "new-object A --from fee.cfg\n"
        "new-object A --from fee.cfg\n"
        "commit\n"
    )
    run_cli("--store", "s", "script", "block.cmds", capsys=capsys)
    out, _ = run_cli("--store", "s", "versions", "A", capsys=capsys)
    assert out == "1\n2\n"


def test_abort_discards_block(workdir, capsys):
    (workdir / "block.cmds").write_text(
        "begin\nnew-object A --from fee.cfg\nabort\nversions A\n"
    )
    out, _ = run_cli("--store", "s", "script", "block.cmds", capsys=capsys)
    assert "created A[1]" in out  # staged inside the block
    out, _ = run_cli("--store", "s", "versions", "A", capsys=capsys)
    assert out == ""  # but never committed


def test_error_inside_block_aborts_it(workdir, capsys):
    (workdir / "block.cmds").write_text(
        "begin\nnew-object A --from fee.cfg\nresolve NOPE\ncommit\n"
    )
    run_cli("--store", "s", "script", "block.cmds", expect=1, capsys=capsys)
    out, _ = run_cli("--store", "s", "versions", "A", capsys=capsys)
    assert out == ""


def test_unterminated_block_fails(workdir, capsys):
    (workdir / "block.cmds").write_text("begin\nnew-object A --from fee.cfg\n")
    out, err = run_cli("--store", "s", "script", "block.cmds", expect=1, capsys=capsys)
    assert "open transaction" in err


# Alias edits inside a block that does not commit: (script tail, exit code).
UNCOMMITTED_BLOCKS = {
    "abort": ("abort\n", 0),
    "error-inside-the-block": ("resolve NOPE\ncommit\n", 1),
    "script-ends-inside-the-block": ("", 1),
}


@pytest.mark.parametrize("tail, code", UNCOMMITTED_BLOCKS.values(), ids=UNCOMMITTED_BLOCKS.keys())
def test_a_block_that_does_not_commit_leaves_the_alias_region(workdir, capsys, tail, code):
    (workdir / "figure1.cmds").write_text((DATA / "figure1.cmds").read_text())
    run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    region = (workdir / "s" / "aliases.dat").read_bytes()
    (workdir / "edit.cmds").write_text(
        "begin\n"
        "new-object DchHV:sector3 --from hv.cfg\n"
        "alias-set golden dch hv DchHV:sector3[2]\n"
        "new-alias other TopMap\n" + tail
    )
    run_cli("--store", "s", "--epoch", "0", "script", "edit.cmds", expect=code, capsys=capsys)
    assert (workdir / "s" / "aliases.dat").read_bytes() == region
    # So a later object that takes the unused key is never pinned by accident.
    run_cli("--store", "s", "--epoch", "0",
            "new-object", "DchHV:sector3", "--from", "fee.cfg", capsys=capsys)
    out, _ = run_cli("--store", "s", "--epoch", "0",
                     "commit-alias", "golden", "--bind", "PHYSICS", capsys=capsys)
    assert out == "fixed point: 0 objects created\n"


def test_a_block_whose_commit_fails_leaves_the_alias_region(workdir, monkeypatch):
    store = open_store(workdir / "s")
    session = Session(store)
    try:
        execute_command(session, "new-alias golden Top")
        region = (workdir / "s" / "aliases.dat").read_bytes()
        for line in ("begin", "new-object A --from fee.cfg", "alias-set golden / a A[1]"):
            execute_command(session, line)
        # The block's alias edit is staged, not written.
        assert (workdir / "s" / "aliases.dat").read_bytes() == region
        real, calls = os.fsync, []

        def fail_first_log_fsync(fd):
            if fd == store._log_fd and not calls:
                calls.append(fd)
                raise OSError(errno.EIO, "injected fsync failure")
            return real(fd)

        locked, write_region = [], store.write_alias_region

        def write_region_noting_the_lock(text):
            # Whether a writer holds the LOCK file while the region is put back.
            fd = os.open(workdir / "s" / "LOCK", os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                locked.append(False)
            except BlockingIOError:
                locked.append(True)
            finally:
                os.close(fd)
            write_region(text)

        monkeypatch.setattr(os, "fsync", fail_first_log_fsync)
        monkeypatch.setattr(store, "write_alias_region", write_region_noting_the_lock)
        with pytest.raises(OSError, match="injected"):
            execute_command(session, "commit")
        monkeypatch.undo()
        # The failed commit never reaches the region write.
        assert calls and locked == []
        # No saved alias pins the object the failed commit never made.
        assert (workdir / "s" / "aliases.dat").read_bytes() == region
        assert not store.has_object(ObjectIdentity("A", None, 1))
        # The writer lock is free: a second handle can begin.
        begun = []

        def begin_elsewhere():
            with open_store(workdir / "s") as other:
                other.begin().abort()
                begun.append(True)

        other = threading.Thread(target=begin_elsewhere)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive() and begun
    finally:
        session.end_block()
        store.close()


# Runs a block's first commands on the store named by argv[1], in the
# current directory, then dies without ending the block or closing anything.
KILLED_BLOCK_CHILD = """
import os, sys
from confdb.cli import Session, execute_command
from confdb.store import open_store

session = Session(open_store(sys.argv[1], clock=lambda: 0))
for line in sys.argv[2:]:
    execute_command(session, line)
os._exit(9)
"""


def test_a_killed_block_leaves_the_alias_region(workdir, capsys):
    (workdir / "figure1.cmds").write_text((DATA / "figure1.cmds").read_text())
    run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    region = (workdir / "s" / "aliases.dat").read_bytes()
    block = ["begin", "new-object DchHV:sector3 --from hv.cfg",
             "alias-set golden dch hv DchHV:sector3[2]"]
    child = subprocess.run([sys.executable, "-c", KILLED_BLOCK_CHILD, "s", *block],
                           cwd=workdir, env=child_env(), capture_output=True, timeout=60)
    assert child.returncode == 9, child.stderr.decode()
    assert (workdir / "s" / "aliases.dat").read_bytes() == region
    # A later, unrelated object takes the key the killed block never committed.
    out, _ = run_cli("--store", "s", "--epoch", "0",
                     "new-object", "DchHV:sector3", "--from", "fee.cfg", capsys=capsys)
    assert out == "created DchHV:sector3[2]\n"
    out, _ = run_cli("--store", "s", "alias-show", "golden", capsys=capsys)
    assert "DchHV:sector3[2]" not in out
    out, _ = run_cli("--store", "s", "--epoch", "0",
                     "commit-alias", "golden", "--bind", "PHYSICS", capsys=capsys)
    assert out == "fixed point: 0 objects created\n"
    out, _ = run_cli("--store", "s", "resolve", "PHYSICS", capsys=capsys)
    out, _ = run_cli("--store", "s", "lookup", out.strip(), "dch/hv", capsys=capsys)
    assert out.startswith("DchHV:sector3[1]\n")


def _figure1_session(workdir, capsys):
    """A session on the figure-1 store, with the region's path and bytes."""
    (workdir / "figure1.cmds").write_text((DATA / "figure1.cmds").read_text())
    run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    region = workdir / "s" / "aliases.dat"
    return Session(open_store(workdir / "s", clock=lambda: 0)), region, region.read_bytes()


def test_an_aborted_block_writes_no_alias_region(workdir, capsys):
    session, region, before = _figure1_session(workdir, capsys)
    stat = region.stat()
    try:
        for line in ("begin", "alias-map golden / x", "alias-rm golden emc", "abort"):
            execute_command(session, line)
    finally:
        session.end_block()
        session.store.close()
    assert region.read_bytes() == before
    assert (region.stat().st_ino, region.stat().st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)


def test_other_handles_see_block_alias_edits_only_after_commit(workdir, capsys):
    session, region, before = _figure1_session(workdir, capsys)
    other = open_store(workdir / "s")
    try:
        for line in ("begin", "new-object DchHV:sector3 --from hv.cfg",
                     "alias-set golden dch hv DchHV:sector3[2]"):
            execute_command(session, line)
        assert load_alias_tree(other, "golden").node_at("dch/hv").target == HV1
        assert region.read_bytes() == before
        # The block itself sees its own edit.
        assert "obj hv = DchHV:sector3[2]" in execute_command(session, "alias-show golden")
        execute_command(session, "commit")
        assert load_alias_tree(other, "golden").node_at("dch/hv").target == HV2
    finally:
        session.end_block()
        session.store.close()
        other.close()


def test_a_region_only_commit_leaves_the_log_byte_identical(workdir, capsys):
    session, region, before = _figure1_session(workdir, capsys)
    log = (workdir / "s" / "objects.log").read_bytes()
    try:
        for line in ("begin", "alias-map golden / x", "commit"):
            execute_command(session, line)
    finally:
        session.end_block()
        session.store.close()
    assert region.read_bytes() == before + b"map x\n"
    assert (workdir / "s" / "objects.log").read_bytes() == log


def test_new_alias_refuses_an_existing_name(workdir, capsys):
    (workdir / "figure1.cmds").write_text((DATA / "figure1.cmds").read_text())
    run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    region = (workdir / "s" / "aliases.dat").read_bytes()
    out, err = run_cli("--store", "s", "new-alias", "golden", "TopMap", expect=1, capsys=capsys)
    assert out == "" and err.startswith("confdb: error:") and "golden" in err
    assert (workdir / "s" / "aliases.dat").read_bytes() == region
    out, _ = run_cli("--store", "s", "new-alias", "other", "TopMap", capsys=capsys)
    assert out == "created alias other\n"
    out, _ = run_cli("--store", "s", "alias-show", "other", capsys=capsys)
    assert out == "alias other root_class TopMap\n"


def test_commit_alias_inside_block(workdir, capsys):
    script = (DATA / "figure1.cmds").read_text()
    (workdir / "figure1.cmds").write_text(script)
    run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    # retarget and commit inside an explicit block, with the new leaf
    # created in the same transaction
    (workdir / "edit.cmds").write_text(
        "begin\n"
        "new-object DchHV:sector3 --from hv.cfg\n"
        "alias-set golden dch hv DchHV:sector3[2]\n"
        "commit-alias golden --bind PHYSICS\n"
        "commit\n"
        "resolve PHYSICS\n"
    )
    out, _ = run_cli("--store", "s", "--epoch", "0", "script", "edit.cmds", capsys=capsys)
    assert "TopMap[2]" in out


# (command, its output): diff inside a block reads the block, so it sees
# the pin of an object the block created and the activation it staged.
BLOCK_DIFF = [
    ("begin", ""),
    ("new-object X --from fee.cfg", "created X[1]\n"),
    ("new-alias golden Top", "created alias golden\n"),
    ("alias-set golden / x X[1]", ""),
    ("diff golden", "added\t/\t-\t-\nadded\tx\t-\tX[1]\n"),
    ("commit-alias golden --bind PHYSICS", "committed root Top[1]: 2 objects created\n"),
    ("diff golden PHYSICS", "unchanged\t/\tTop[1]\t-\nunchanged\tx\tX[1]\tX[1]\n"),
    ("commit", ""),
]


@pytest.mark.parametrize("skip", [None, 4], ids=["pin-and-activation", "activation"])
def test_diff_inside_a_block_sees_the_block(workdir, capsys, skip):
    steps = [step for i, step in enumerate(BLOCK_DIFF) if i != skip]
    (workdir / "block.cmds").write_text("".join(f"{line}\n" for line, _ in steps))
    out, _ = run_cli("--store", "s", "--epoch", "0", "script", "block.cmds", capsys=capsys)
    assert out == "".join(output for _, output in steps)


# The block that BLOCK_DIFF commits, then (read, its output): every read
# inside a block reads the block, before and after its commit alike.
BLOCK_SETUP = [line for line, _ in BLOCK_DIFF[:4]] + ["commit-alias golden --bind PHYSICS"]
BLOCK_READS = [
    ("resolve PHYSICS", "Top[1]\n"),
    ("runtypes", "PHYSICS\tTop[1]\n"),
    ("show Top[1]", "Top[1]\nkind=map\nx=X[1]\n"),
    ("versions X", "1\n"),
    ("manifest Top[1]", "/\tTop[1]\nx\tX[1]\n"),
    ("lookup Top[1] x", "X[1]\nkind=leaf\ngain=i:4\n"),
    ("diff golden PHYSICS", BLOCK_DIFF[6][1]),
]


@pytest.mark.parametrize("read,output", BLOCK_READS, ids=[r.split()[0] for r, _ in BLOCK_READS])
def test_every_read_inside_a_block_reads_the_block(workdir, capsys, read, output):
    lines = BLOCK_SETUP + [read, "commit", read]
    (workdir / "block.cmds").write_text("".join(f"{line}\n" for line in lines))
    out, _ = run_cli("--store", "s", "--epoch", "0", "script", "block.cmds", capsys=capsys)
    head = "created X[1]\ncreated alias golden\ncommitted root Top[1]: 2 objects created\n"
    assert out == head + output + output


def test_activate_and_runtypes(workdir, capsys):
    script = (DATA / "figure1.cmds").read_text()
    (workdir / "figure1.cmds").write_text(script)
    run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    out, _ = run_cli("--store", "s", "--epoch", "0",
                     "activate", "COSMICS=TopMap[1],PHYSICS=TopMap[1]", capsys=capsys)
    assert out == "activated @runtypes[2]\n"
    out, _ = run_cli("--store", "s", "runtypes", capsys=capsys)
    assert out == "COSMICS\tTopMap[1]\nPHYSICS\tTopMap[1]\n"


def test_lookup_command(workdir, capsys):
    script = (DATA / "figure1.cmds").read_text()
    (workdir / "figure1.cmds").write_text(script)
    run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    out, _ = run_cli("--store", "s", "lookup", "TopMap[1]", "dch/hv", capsys=capsys)
    assert out == "DchHV:sector3[1]\nkind=leaf\nhv=f:0x1.c2p+10\n"


def test_diff_command_output(workdir, capsys):
    script = (DATA / "figure1.cmds").read_text()
    (workdir / "figure1.cmds").write_text(script)
    run_cli("--store", "s", "--epoch", "0", "script", "figure1.cmds", capsys=capsys)
    run_cli("--store", "s", "--epoch", "0",
            "new-object", "DchHV:sector3", "--from", "hv.cfg", capsys=capsys)
    run_cli("--store", "s", "alias-set", "golden", "dch", "hv", "DchHV:sector3[2]",
            capsys=capsys)
    out, _ = run_cli("--store", "s", "diff", "golden", "PHYSICS", capsys=capsys)
    lines = out.splitlines()
    assert lines[0] == "changed\t/\tTopMap[1]\t-"
    assert "changed\tdch/hv\tDchHV:sector3[1]\tDchHV:sector3[2]" in lines
    assert "unchanged\temc\tMap:emc[1]\t-" in lines


def test_alias_show_round_trip(workdir, capsys):
    run_cli("--store", "s", "new-alias", "t", "TopMap", capsys=capsys)
    run_cli("--store", "s", "alias-map", "t", "/", "dch", capsys=capsys)
    out, _ = run_cli("--store", "s", "alias-show", "t", capsys=capsys)
    assert out == "alias t root_class TopMap\nmap dch\n"


def test_quoted_names_with_spaces(workdir, capsys):
    run_cli("--store", "s", "new-alias", "r12 physics", "Top Map", capsys=capsys)
    out, _ = run_cli("--store", "s", "alias-show", "r12 physics", capsys=capsys)
    assert out == "alias r12 physics root_class Top Map\n"


def test_missing_command_is_a_usage_error(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--store", "s"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_stdin_script_via_subprocess(workdir):
    env = child_env()
    result = subprocess.run(
        [sys.executable, "-m", "confdb", "--store", "s", "script", "-"],
        input="new-object A --from fee.cfg\nversions A\n",
        capture_output=True,
        text=True,
        cwd=workdir,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "created A[1]\n1\n"


def test_concurrent_cli_sessions_keep_keys_dense(workdir):
    # independent processes racing on one store: the LOCK file serializes
    # writers and each picks up the others' commits before allocating
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "confdb", "--store", "s",
             "new-object", "A", "--from", "fee.cfg"],
            cwd=workdir, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(12)
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        outputs.append(out.strip())
    keys = sorted(int(line.split("[")[1].rstrip("]")) for line in outputs)
    assert keys == list(range(1, 13))
    result = subprocess.run(
        [sys.executable, "-m", "confdb", "--store", "s", "versions", "A"],
        cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.stdout == "".join(f"{k}\n" for k in range(1, 13))


def test_new_object_requires_leaf_payload(workdir, capsys):
    (workdir / "map.cfg").write_bytes(b"kind=map\n")
    _, err = run_cli("--store", "s", "new-object", "M", "--from", "map.cfg",
                     expect=1, capsys=capsys)
    assert "leaf payload" in err


@pytest.mark.parametrize("listen", ["127.0.0.1:70000", "nonsense"])
def test_serve_refuses_a_bad_listen_endpoint(workdir, capsys, monkeypatch, listen):
    from confdb.service import ConfigServer

    monkeypatch.setattr(ConfigServer, "serve_forever", lambda *a, **k: pytest.fail("served"))
    out, err = run_cli("--store", "s", "serve", "--listen", listen, expect=1, capsys=capsys)
    assert out == "" and err.startswith("confdb: error: endpoint must be host:port")


def test_serve_listens_where_listen_says(workdir):
    run_script = (
        "new-object DchHV:sector3 --from hv.cfg\n"
        "new-alias t TopMap\n"
        "alias-set t / hv DchHV:sector3[1]\n"
        "commit-alias t --bind PHYSICS\n"
    )
    (workdir / "setup.cmds").write_text(run_script)
    setup = subprocess.run(
        [sys.executable, "-m", "confdb", "--store", "s", "script", "setup.cmds"],
        cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert setup.returncode == 0, setup.stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "confdb", "--store", "s", "serve", "--listen", "127.0.0.1:0"],
        cwd=workdir, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("listening on 127.0.0.1:")
        endpoint = banner.split()[-1]
        from confdb.client import configure_run, fetch_raw

        with configure_run(endpoint, "PHYSICS") as handle:
            identity, payload = fetch_raw(handle, "hv")
        assert str(identity) == "DchHV:sector3[1]"
        assert payload.fields == {"hv": 1800.0}

        # a commit from another process becomes visible to the running server
        edit = (
            "new-object DchHV:sector3 --from hv.cfg\n"
            "alias-set t / hv DchHV:sector3[2]\n"
            "commit-alias t --bind PHYSICS\n"
        )
        (workdir / "edit.cmds").write_text(edit)
        result = subprocess.run(
            [sys.executable, "-m", "confdb", "--store", "s", "script", "edit.cmds"],
            cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        with configure_run(endpoint, "PHYSICS") as handle:
            identity, _ = fetch_raw(handle, "hv")
        assert str(identity) == "DchHV:sector3[2]"
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_serve_stops_on_a_signal_even_if_started_with_sigint_ignored(workdir, signum):
    # A shell without job control starts background commands so.
    proc = subprocess.Popen(
        [sys.executable, "-m", "confdb", "--store", "s", "serve", "--listen", "127.0.0.1:0"],
        cwd=workdir, env=child_env(), stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        assert proc.stdout.readline().startswith("listening on 127.0.0.1:")
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
