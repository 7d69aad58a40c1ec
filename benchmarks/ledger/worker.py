"""The service worker process of the ledger's service_tiny workload.

    python benchmarks/ledger/worker.py TENANT_ROOT [--trace-out FILE]

Runs :func:`repro.service.worker.main` on the tenant's job store.  With
``--trace-out`` it first installs the ledger's layer wrappers — the same
ones the benchmark process uses — so worker-side layers are timed from
outside too, and writes the recorded spans to FILE when it ends.
SIGTERM ends it.  The timed and traced runs start this same process.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Any, List, Optional

import tracing


def _stop(signum: int, frame: Any) -> None:
    raise SystemExit(0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Ledger service worker.")
    parser.add_argument("store", help="tenant job store root")
    parser.add_argument("--trace-out", default=None, help="write spans here on exit")
    args = parser.parse_args(argv)

    recorder = tracing.SpanRecorder("ledger-worker") if args.trace_out else None
    patches = tracing.install(recorder) if recorder is not None else []
    signal.signal(signal.SIGTERM, _stop)
    from repro.service import worker

    try:
        return worker.main([args.store])
    finally:
        tracing.restore(patches)
        if recorder is not None:
            tracing.save_events(recorder.events(prefix="w."), args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
