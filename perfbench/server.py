"""Launch ``repro serve`` in this process, optionally under the layer tracer.

Usage::

    python3 perfbench/server.py [--cpu N] [--trace-out FILE] -- <repro CLI arguments>

The arguments after ``--`` go to the program's own CLI entry point
unchanged, so the server runs with exactly the CLI's defaults.  With
``--cpu`` the process pins itself, and so every thread it starts, to that
CPU, where :mod:`hostspeed` probes how fast the host runs it.  With
``--trace-out``, the layer wrappers of :mod:`layers` are installed first and
their totals are written to FILE when the server stops on SIGINT.  The
process dies with its parent (a benchmark run that is killed leaves no
server behind).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402


def _die_with_parent() -> None:
    """Ask Linux to SIGTERM this process when its parent exits."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return
    pr_set_pdeathsig = 1
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(pr_set_pdeathsig, signal.SIGTERM, 0, 0, 0)
    if os.getppid() == 1:  # the parent died before the request took effect
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace-out", default=None, metavar="FILE")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    # SIGINT is how the benchmark stops the server; a parent shell that runs
    # it in the background may have left the signal ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _die_with_parent()
    require_program()
    from repro.cli.main import main as repro_main

    if args.trace_out is None:
        return repro_main(cli)

    from layers import LayerTracer

    tracer = LayerTracer().install()
    try:
        return repro_main(cli)
    finally:
        tracer.uninstall()
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(tracer.snapshot(), sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
