"""Record the verdict reference the batch workloads are checked against.

Usage: ``python3 perfbench/record_reference.py``

For every topology seed ``0..N-1`` of each batch workload (N = 8 for MALT,
16 for traffic) this runs one serial sweep and stores each cell's (query,
model, backend, passed, failure_stage, error_type) in
``perfbench/reference.json``; identical tables are stored once, keyed by
digest.  Run it only on the commit whose verdicts
define "correct" — re-recording on a later commit would hide a change in
verdicts instead of detecting it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from batch import APPLICATIONS, _config, _sweep  # noqa: E402
from common import REFERENCE, require_program, rows_digest  # noqa: E402

#: topology seeds recorded per workload (a MALT sweep takes ~20 s)
MALT_SEEDS = 8
TRAFFIC_SEEDS = 16


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    require_program()
    import repro

    seeds = {"malt-sweep": MALT_SEEDS, "traffic-sweep": TRAFFIC_SEEDS}
    document = {"repro_version": repro.__version__, "seeds": seeds,
                "workloads": {}, "tables": {}}
    for workload, count in seeds.items():
        document["workloads"][workload] = {}
        for seed in range(count):
            *_, rows = _sweep(_config(workload, seed), APPLICATIONS[workload])
            digest = rows_digest(rows)
            document["tables"][digest] = rows
            document["workloads"][workload][str(seed)] = digest
            print(f"{workload} seed {seed}: {digest[:16]}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
