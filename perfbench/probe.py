"""Set-up probe: ``python3 perfbench/probe.py <workload>``.

Runs one workload's set-up in a fresh interpreter (the ``repro``
import, pool spawn or daemon start, and warm-up), prints ``ready``,
tears it down and exits.  ``run.py`` times several probes from spawn to
``ready`` and reports their median as ``setup_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def main(workload: str) -> int:
    common.use_checkout_sources()
    from perfbench.run import WORKLOADS

    module = WORKLOADS[workload]
    context = module.setup()
    print("ready", flush=True)
    module.teardown(context)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
