"""Child process for the killed-hint-write trial.

Opens the store directory given in argv[1], commits one transaction of
20 objects, and closes the store -- but dies abruptly (os._exit, no
cleanup) when the close moves its new hint file into place, so the
temporary hint file is written and the rename never happens.
"""

import os
import sys


def main() -> None:
    store_dir = sys.argv[1]

    from confdb import open_store
    from confdb.model import Payload

    store = open_store(store_dir, clock=lambda: 0)
    real_replace = os.replace

    def dying_replace(src, dst):
        if os.path.basename(dst) == "objects.hint":
            os._exit(17)
        return real_replace(src, dst)

    os.replace = dying_replace
    with store.transaction() as txn:
        for i in range(20):
            txn.create_object("Crash", None, Payload.leaf({"n": i}))
    store.close()
    os._exit(0)


if __name__ == "__main__":
    main()
