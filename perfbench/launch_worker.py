"""Start a federation worker for a ``remote-fedbuff`` trial.

It does what ``python -m repro worker --connect HOST:PORT`` does, with two
additions.  ``--cpu N`` confines the worker's threads to core N, the
aggregator's core, once its imports are done, so that the BLAS thread pool numpy starts is the one a
user gets and only the threads that serve jobs share the aggregator's core.
``--spans OUT`` (traced trials) installs the benchmark's layer wrappers
before serving and writes the worker's per-name span totals to OUT, so that
the benchmark can merge the worker side into its trace.

Usage: ``python perfbench/launch_worker.py --connect HOST:PORT --cpu N [--spans OUT]``
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Patches, Tracer, install_layer_spans  # noqa: E402

from repro.net import run_worker  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--connect", required=True, metavar="HOST:PORT")
    ap.add_argument("--cpu", type=int, required=True, metavar="N")
    ap.add_argument("--spans", metavar="OUT")
    args = ap.parse_args()

    tracer = patches = None
    if args.spans:
        tracer, patches = Tracer(), Patches()
        install_layer_spans(tracer, patches)
    os.sched_setaffinity(0, {args.cpu})
    try:
        code = run_worker(args.connect, connect_timeout=60.0)
    finally:
        if patches is not None:
            patches.uninstall()
    if args.spans:
        with open(args.spans, "w") as f:
            json.dump(tracer.summary(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
