"""confdb benchmark: the configure transition, and operator commits beside
a live server.

Usage, from the root of a checkout (the program under test is ./src/confdb):

    python3 perfbench/run.py --workload configure|operator \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the run
measures half its time untraced and half traced and reports the
per-layer ones plus the tracing overhead.  A summary under the names the
README uses goes to standard error.  Stores and span files live in
./.perfbench/ and are removed at exit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUPS = 3  # set-ups per untraced run, each followed by a third of the measuring
ROUND = (1, 2, 3, 0)  # leaf edits per operator cycle; 0 is a zero-edit re-commit
VISIBLE_TIMEOUT_S = 10.0


def import_program():
    """Import confdb from ./src and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "confdb", "__init__.py")):
        raise SystemExit("perfbench: ./src/confdb not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import confdb

    if os.path.dirname(os.path.dirname(os.path.abspath(confdb.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported {confdb.__file__}, not ./src/confdb")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("CONFDB_LISTEN", None)  # it would override --listen
    return env


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def ms(seconds: float) -> float:
    return seconds * 1e3


class CheckFailed(Exception):
    """The program answered something other than what the model holds."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# the server under test and a bare wire-protocol connection


class Server:
    """A ``confdb serve`` child on a free localhost port."""

    def __init__(self, store_dir: str, spans_file: str | None = None):
        if spans_file is None:
            cmd = [sys.executable, "-m", "confdb", "--store", store_dir,
                   "serve", "--listen", "127.0.0.1:0"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"), store_dir, spans_file]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.endpoint = line.split()[-1]
            wire = Wire(self.endpoint)
            try:
                check(wire.call("PING")[0] == "OK pong", "PING")
            finally:
                wire.close()
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            return int(next(line for line in f if line.startswith("VmHWM:")).split()[1]) / 1024

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Wire:
    """One connection speaking the line protocol directly."""

    def __init__(self, endpoint: str):
        host, _, port = endpoint.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=30)
        self.rfile = self.sock.makefile("rb")

    def call(self, line: str, body: bool = False) -> tuple[str, bytes]:
        self.sock.sendall(line.encode("utf-8") + b"\n")
        status = self.rfile.readline().decode("utf-8").rstrip("\n")
        lines = []
        if body and status.startswith("OK"):
            for raw in iter(self.rfile.readline, b""):
                if raw == b".\n":
                    break
                lines.append(raw)
        return status, b"".join(lines)

    def close(self):
        self.rfile.close()
        self.sock.close()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, one measured phase, and tear-down of one workload."""

    rounds = 0  # history rounds of set-up (see gen.build_store)

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.store_dir = os.path.join(work, "store")
        self.attempted = self.failed = 0
        self.wrong = False  # some answer disagreed with the model
        self.errors: list[str] = []
        self.server: Server | None = None
        self.tracer = None  # set for the traced half of a --trace 1 run
        self._lock = threading.Lock()

    def checking(self):
        """The benchmark's own checks run untraced."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def restart_server(self, spans_file):
        self.server.stop()
        self.server = Server(self.store_dir, spans_file)

    def build(self):
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.detector = gen.Detector(self.seed)
        self.store = confdb.open_store(self.store_dir, clock=lambda: gen.EPOCH)
        gen.build_store(self.store, self.detector, self.rounds)

    def failure(self, exc: Exception):
        with self._lock:
            self.failed += 1
            self.wrong = self.wrong or isinstance(exc, CheckFailed)
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None


class Configure(Workload):
    """Two closed-loop clients: RESOLVE, MANIFEST, then GET every leaf."""

    rounds = 40
    clients = 2

    def setup(self):
        self.close()
        self.build()
        self.store.close()
        self.store_mb = dir_bytes(self.store_dir) / 2**20
        det = self.detector
        self.expect = {
            "PHYSICS": (det.root, det.pinned),
            "COSMICS": (det.cosmics_root, det.cosmics),
        }
        self.manifest_paths = {"/"} | {
            gen.path_text(p) for p in det.map_paths[1:] + det.leaf_paths}
        self.leaf_texts = [gen.path_text(p) for p in det.leaf_paths]
        self.server = Server(self.store_dir)

    def transition(self, run_type, get_times):
        """One client's RESOLVE, MANIFEST and GETs; returns what the checks need."""
        t0 = time.perf_counter()
        handle = confdb.configure_run(self.server.endpoint, run_type)
        try:
            manifest = confdb.fetch_manifest(handle)
            got = []
            for text in self.leaf_texts:
                g0 = time.perf_counter()
                got.append(confdb.fetch_raw(handle, text))
                get_times.append(time.perf_counter() - g0)
            elapsed = time.perf_counter() - t0
        finally:
            handle.close()
        return elapsed, handle.root, manifest, got

    def check_transition(self, run_type, root_got, manifest, got):
        with self.checking():
            root, pinned = self.expect[run_type]
            check(root_got == root, f"{run_type} resolved to {root_got}")
            listed = dict(line.split("\t") for line in manifest)
            check(set(listed) == self.manifest_paths, "MANIFEST path set")
            values = self.detector.values
            for path, text, (identity, payload) in zip(self.detector.leaf_paths, self.leaf_texts, got):
                check(identity == pinned[path] and listed[text] == str(identity),
                      f"GET {text} returned {identity}")
                check(payload.kind == "leaf" and dict(payload.entries) == values[identity],
                      f"GET {text} values")

    def measure(self, seconds):
        """Rounds in which every client makes one transition at the same time.

        A client that finishes first waits for the others, and the checks
        run after every client of the round is done, so no transition is
        timed while another thread of this process checks its answers.
        """
        # The model and the set-up's objects are the benchmark's, not a
        # client's: keep the cyclic collector from scanning them.
        gc.collect()
        gc.freeze()
        deadline = time.perf_counter() + seconds
        go = [True]
        start_round = threading.Barrier(
            self.clients, action=lambda: go.__setitem__(0, time.perf_counter() < deadline))
        end_round = threading.Barrier(self.clients)
        times, get_times = [], []

        def client(index):
            mine, gets = [], []
            turn = index
            while True:
                start_round.wait()
                if not go[0]:
                    break
                run_type = ("PHYSICS", "COSMICS")[turn % 2]
                turn += 1
                try:
                    elapsed, *answer = self.transition(run_type, gets)
                except Exception as exc:  # counted as a failed transition
                    self.failure(exc)
                    answer = None
                end_round.wait()
                if answer is None:
                    continue
                try:
                    self.check_transition(run_type, *answer)
                    mine.append(elapsed)
                except Exception as exc:
                    self.failure(exc)
            with self._lock:
                self.attempted += turn - index
                times.extend(mine)
                get_times.extend(gets)

        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        gc.unfreeze()
        return {"transition": times, "get": get_times, "wall": [wall],
                "rss_mb": [self.server.peak_rss_mb()]}

    @staticmethod
    def summarize(samples):
        times, get_times = samples["transition"], sorted(samples["get"])
        return {
            "op_ms": ms(statistics.median(times)),
            "read_ms": ms(statistics.median(get_times)),
            "rss_mb": statistics.median(samples["rss_mb"]),
        }, {
            "transitions": len(times),
            "transition_s": statistics.median(times),
            "get_per_s": len(get_times) / sum(samples["wall"]),
            "get_p99_ms": ms(get_times[int(0.99 * (len(get_times) - 1))]),
        }


class Operator(Workload):
    """Edit-save-commit cycles, each followed by a wait for the server to serve it."""

    rounds = 125

    def setup(self):
        self.close()
        self.build()
        self.store_mb = dir_bytes(self.store_dir) / 2**20
        self.root = self.detector.root
        self.map_pairs = {
            path: (gen.ROOT_CLASS, None) if not path else (gen.MAP_CLASS, ".".join(path))
            for path in self.detector.map_paths
        }
        self.server = Server(self.store_dir)

    def close(self):
        super().close()
        if getattr(self, "store", None) is not None:
            self.store.close()
            self.store = None

    def cycle(self, edits, wire):
        """One cycle; returns (commit seconds, visible seconds or None)."""
        det, store = self.detector, self.store
        paths = det.edit_paths(edits)
        log = os.path.join(self.store_dir, "objects.log")
        stat0, count0 = os.stat(log), store.object_count()
        highs0 = {path: len(store.list_versions(*pair)) for path, pair in self.map_pairs.items()}
        leaf_highs0 = {p: len(store.list_versions(*det.leaf_pair(p))) for p in paths}

        t0 = time.perf_counter()
        made = {}
        if paths:
            with store.transaction() as txn:
                made = det.create_leaves(txn, paths)
        tree = confdb.load_alias_tree(store, gen.ALIAS)
        for path, identity in made.items():
            tree.set_object_alias(path[:-1], path[-1], identity)
        confdb.save_alias_tree(store, tree)
        root = confdb.commit_alias_tree(store, tree, ["PHYSICS"])
        t1 = time.perf_counter()

        if not paths:
            with self.checking():
                stat1 = os.stat(log)
                check(root == self.root, "zero-edit commit changed the root")
                check((stat1.st_size, stat1.st_mtime_ns) == (stat0.st_size, stat0.st_mtime_ns)
                      and store.object_count() == count0, "zero-edit commit wrote to the log")
            return t1 - t0, None

        probe, want = paths[0], made[paths[0]]
        while True:
            status, _ = wire.call("RESOLVE PHYSICS")
            if status == f"OK {root}":
                status, body = wire.call(f"GET {root} {gen.path_text(probe)}", body=True)
                check(status == f"OK {want}", f"GET after commit returned {status!r}")
                check(confdb.decode_payload(body).fields == det.values[want],
                      "GET after commit values")
                break
            check(time.perf_counter() - t1 < VISIBLE_TIMEOUT_S, "new root never became visible")
        t2 = time.perf_counter()

        with self.checking():
            for path, identity in made.items():
                det.pin(path, identity)
            det.objects += len(det.ancestors(paths)) + 1  # rebuilt maps, run-type map
            check(root != self.root, "edit commit kept the old root")
            self.root = root
            manifest = confdb.walk_tree(store, root).entries
            leaves = {path: ident for path, ident in manifest if path.count("/") == 2}
            check(leaves == {gen.path_text(p): det.pinned[p] for p in det.leaf_paths},
                  "new root's manifest")
            check(len(manifest) == len(det.leaf_paths) + len(det.map_paths), "manifest size")
            rebuilt = det.ancestors(paths)
            for path, pair in self.map_pairs.items():
                grew = len(store.list_versions(*pair)) - highs0[path]
                check(grew == (path in rebuilt), f"map {pair} gained {grew} versions")
            for path in paths:
                pair = det.leaf_pair(path)
                keys = store.list_versions(*pair)
                check(made[path].config_key == leaf_highs0[path] + 1 == len(keys)
                      and all(store.has_object(confdb.ObjectIdentity(*pair, k)) for k in keys),
                      f"versions of {pair} not dense")
            check(store.object_count() == det.objects, "object count")
        return t1 - t0, t2 - t1

    def measure(self, seconds):
        wire = Wire(self.server.endpoint)
        commits, noops, visible = [], [], []
        log_size0, nonzero = self.store.log_size(), 0
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                for edits in ROUND:
                    self.attempted += 1
                    try:
                        commit, seen = self.cycle(edits, wire)
                    except Exception as exc:  # counted as a failed cycle
                        self.failure(exc)
                        continue
                    if seen is None:
                        noops.append(commit)
                    else:
                        nonzero += 1
                        commits.append(commit)
                        visible.append(seen)
        finally:
            wire.close()
        return {"commit": commits, "noop": noops, "visible": visible,
                "log_growth": [self.store.log_size() - log_size0], "nonzero": [nonzero]}

    @staticmethod
    def summarize(samples):
        commits, noops = samples["commit"], samples["noop"]
        return {
            "op_ms": ms(statistics.median(commits)),
            "read_ms": ms(statistics.median(samples["visible"])),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, {
            "cycles": len(commits) + len(noops),
            "log_bytes_per_commit": sum(samples["log_growth"]) / sum(samples["nonzero"]),
            "edit_commit_ms": ms(statistics.median(commits)),
            "noop_commit_ms": ms(statistics.median(noops)) if noops else float("nan"),
            "commit_p90_ms": ms(sorted(commits)[int(0.9 * (len(commits) - 1))]),
            "visible_ms": ms(statistics.median(samples["visible"])),
        }


WORKLOADS = {"configure": Configure, "operator": Operator}


# ---------------------------------------------------------------------------
# runs


def untraced(workload, seconds):
    """SETUPS times: set up, then measure a share of the time.

    The machine's speed drifts over tens of seconds, so spreading the
    measured time over the whole run, between the set-ups, averages more
    of that drift than measuring it in one piece at the end.
    """
    setups, samples = [], {}
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        for name, values in workload.measure(seconds / SETUPS).items():
            samples.setdefault(name, []).extend(values)
    metrics, info = workload.summarize(samples)
    metrics["setup_s"] = statistics.median(setups)
    metrics["store_mb"] = workload.store_mb
    return metrics, info


def traced(workload, seconds):
    """Half the time untraced, half traced; per-layer metrics and overhead."""
    spans_file = os.path.join(workload.work, "server-spans.json")
    workload.setup()
    plain, _ = workload.summarize(workload.measure(seconds / 2))
    # The traced server's spans include its own open_store of the whole log.
    workload.restart_server(spans_file)
    workload.tracer = spans.Tracer()
    workload.tracer.install()
    with_spans, info = workload.summarize(workload.measure(seconds / 2))
    all_spans, missing = list(workload.tracer.spans), list(workload.tracer.missing)
    workload.close()  # the traced server writes its spans as it exits
    all_spans += spans.read_spans(spans_file)
    metrics = spans.layer_metrics(all_spans, missing)
    for name in ("op", "read"):
        base = plain[f"{name}_ms"]
        metrics[f"trace.{name}_overhead_pct"] = 100.0 * (with_spans[f"{name}_ms"] - base) / base
    if missing:
        print(f"perfbench: absent from this program: {', '.join(missing)}", file=sys.stderr)
    return metrics, info


END_TO_END_UNITS = {"setup_s": "s", "op_ms": "ms", "read_ms": "ms",
                    "store_mb": "MiB", "rss_mb": "MiB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A run stopped with SIGTERM still stops its server children and
    # removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    import_program()
    global confdb, gen, spans
    import confdb
    import gen
    import spans

    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        run = traced if args.trace else untraced
        values, info = run(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        for error in workload.errors:
            print(f"perfbench: failed: {error}", file=sys.stderr)
    units = dict(spans.PER_LAYER) if args.trace else END_TO_END_UNITS
    summary = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in info.items())
    print(f"perfbench: {args.workload} seed={args.seed} {summary}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.wrong,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
