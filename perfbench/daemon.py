"""Daemon launcher: ``python3 perfbench/daemon.py --jobs N [--trace-dir D]``.

Starts a ``repro serve`` daemon (``ServeDaemon``) in this process on an
ephemeral port, prints ``{"port": ..., "pid": ...}`` as one line, and
serves until its standard input closes, then stops the daemon and its
worker pool before exiting.  With ``--trace-dir`` the span wrappers go in before the
daemon builds its worker pool, so its workers inherit them; every
process writes its spans on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--max-sessions", type=int, required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    common.use_checkout_sources()
    recorder = None
    if args.trace_dir:
        from perfbench import trace

        recorder = trace.install(args.trace_dir, service="daemon")
    from repro.serve.daemon import ServeConfig, ServeDaemon

    daemon = ServeDaemon(ServeConfig(port=0, jobs=args.jobs, env="process",
                                     max_sessions=args.max_sessions))
    _, port = daemon.start()
    print(json.dumps({"port": port, "pid": os.getpid()}), flush=True)
    # Raw reads: a forked worker must not inherit a held stdin lock.
    while os.read(sys.stdin.fileno(), 4096):
        pass
    daemon.stop()
    if recorder is not None:
        recorder.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
