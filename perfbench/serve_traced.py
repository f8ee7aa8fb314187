"""Start ``confdb serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_traced.py STORE_DIR SPANS_FILE``

It does what ``confdb --store STORE_DIR serve --listen 127.0.0.1:0`` does:
it prints ``listening on HOST:PORT`` once bound and serves until SIGINT.
It then writes every span it recorded to SPANS_FILE and exits.
"""

import sys

from spans import Tracer, write_spans

import confdb.service


def main(store_dir: str, spans_file: str) -> int:
    tracer = Tracer()
    tracer.install()
    store = confdb.open_store(store_dir)
    try:
        with confdb.service.ConfigServer(store, "127.0.0.1:0") as server:
            print(f"listening on {server.endpoint}", flush=True)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
    finally:
        store.close()
        write_spans(spans_file, tracer)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
