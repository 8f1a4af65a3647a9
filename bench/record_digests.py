"""Record the SHA-256 of the branches CSV of every enumerate-wide pool config.

    python3 bench/record_digests.py

Writes bench/digests.json.  The enumerate-wide check demands byte-identical
CSVs, so rerun this only when a change to the CSV is intended, and say so.
Takes about 3 s per config.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile

from worker import OUT_DIR, import_mcrsp

POOL_SIZE = 24


def main() -> int:
    import_mcrsp()
    import workloads

    digests = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        for pool_index in range(POOL_SIZE):
            case = workloads.enumerate_case(pool_index, workdir)
            code, _ = workloads.run_enumerate(case)
            if code != 0:
                print(f"pool entry {pool_index}: exit code {code}", file=sys.stderr)
                return 2
            with open(case.out, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
            print(f"{pool_index} {digests[-1]}", file=sys.stderr)
    with open(workloads.DIGESTS_FILE, "w", encoding="ascii") as fh:
        json.dump({"n_controllers": workloads.ENUMERATE_CONTROLLERS,
                   "m_controllers": workloads.ENUMERATE_CONTROLLERS,
                   "sha256": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
