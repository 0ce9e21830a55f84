"""Launcher for a span-recording router or node process.

    python traced_proc.py router|node <dump.jsonl> <stock CLI arguments...>

Wraps the layer entry points of the role with the benchmark's recorder
(``tracing.instrument``), then hands over to the stock ``main()`` — same
flags, same code, the repo's own tracer stays off.  SIGTERM (what the
harness sends at teardown) writes the spans to ``<dump.jsonl>`` and exits.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("router", "node"):
        print(__doc__, file=sys.stderr)
        return 2
    role, dump, rest = argv[0], Path(argv[1]), argv[2:]
    recorder = tracing.Recorder()
    if role == "router":
        from repro.rpc.router import main as stock_main

        tracing.instrument(recorder, tracing.ROUTER_TARGETS)
    else:
        from repro.rpc.node_server import main as stock_main

        tracing.instrument(recorder, tracing.NODE_TARGETS)

    def dump_and_exit(signum, frame) -> None:
        recorder.dump(dump)
        os._exit(0)

    signal.signal(signal.SIGTERM, dump_and_exit)
    return stock_main(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
