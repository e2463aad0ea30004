"""The server child: open a page file, index it, serve it.

``python serve.py PATH [--pool-pages N] [--resident-limit N]
[--checkpoint-every N] [--no-tracing]`` opens ``PATH`` with the shipped
flush policy (``sync_on_commit=True``, incremental checkpoints),
builds the three indexes, starts a ``ViewServer`` with its defaults
(MVCC on, tracing on) on an ephemeral port and prints one line,
``READY <port>``. It then serves until its stdin
closes, so it cannot outlive the benchmark that started it; the
benchmark ends it with SIGKILL when it wants a crash.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

# The flush policy every standing workload runs with; printed with
# the results because the write and restart cells depend on it.
SYNC_ON_COMMIT = True
INCREMENTAL_CHECKPOINTS = True


def open_database(path, pool_pages, resident_limit, checkpoint_every):
    from repro.storage.checkpoint import PagedDatabase

    kwargs = {}
    if pool_pages is not None:
        kwargs["pool_pages"] = pool_pages
    return PagedDatabase(
        path,
        "db",
        checkpoint_every=checkpoint_every,
        sync_on_commit=SYNC_ON_COMMIT,
        incremental_checkpoints=INCREMENTAL_CHECKPOINTS,
        resident_limit=resident_limit,
        **kwargs,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("path")
    parser.add_argument("--pool-pages", type=int, default=None)
    parser.add_argument("--resident-limit", type=int, default=None)
    parser.add_argument("--checkpoint-every", type=int, default=None)
    parser.add_argument("--no-tracing", action="store_true")
    args = parser.parse_args(argv)

    from repro.server import ViewServer

    import data

    paged = open_database(
        args.path, args.pool_pages, args.resident_limit, args.checkpoint_every
    )
    data.create_indexes(paged.db)
    server = ViewServer([paged.db], port=0, tracing=not args.no_tracing)
    _host, port = server.start()
    print(f"READY {port}", flush=True)
    sys.stdin.read()  # returns when the parent closes the pipe or dies
    server.stop()
    paged.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
