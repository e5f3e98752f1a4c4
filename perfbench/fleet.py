"""The benchmark's fleet process: a sharded router behind a TCP server.

    python3 perfbench/fleet.py ROOT CONFIG_JSON [TRACE_DIR]

Builds the same stack ``repro serve ROOT --shards N --port 0`` builds
(a ``ShardRouter`` with spawned workers behind a ``NetServer``, every
observability default left on), but takes the shard managers' settings
from ``CONFIG_JSON`` (``{"shards": N, "manager": {...}}``), which the
CLI does not expose.  Prints ``listening on HOST:PORT`` once accepting
and shuts the fleet down cleanly when its stdin reaches end of file.

With ``TRACE_DIR``, every budgeted layer is wrapped in this process and
in each worker (:mod:`layertrace`), and each process writes its spans
to ``TRACE_DIR/spans-<pid>.json`` as it stops.
"""

import functools
import json
import os
import sys


def main(argv):
    root, config = argv[0], json.loads(argv[1])
    trace_dir = argv[2] if len(argv) > 2 else None

    from repro.service import shard
    from repro.service.netserver import NetServer

    patches = rec = None
    if trace_dir is not None:
        import layertrace

        rec = layertrace.Recorder()
        patches = layertrace.install(rec)
        patches.set(shard, "worker_main", functools.partial(
            layertrace.traced_worker_main, trace_dir))
    router = shard.ShardRouter(root, config["shards"],
                               manager_kwargs=config["manager"])
    server = NetServer(router)
    host, port = server.address
    thread = server.serve_in_thread()
    print(f"listening on {host}:{port}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join(10)
        if patches is not None:
            patches.restore()
            rec.dump(os.path.join(trace_dir, f"spans-{os.getpid()}.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
