"""Record the output digests of finished runs into ``expected.json``.

Usage (from the root of a checkout, after ``perfbench/run.py`` runs)::

    python3 perfbench/record_expected.py

Reads every ``.perfbench/results/<workload>-seed<n>-trace0.json`` whose
run passed all checks and stores its per-read-set reads, contigs and
scaffolds sha256 under ``expected.json[workload][seed]``.  A seed that is
already recorded with different digests is reported and left alone:
re-recording is a deliberate edit of ``expected.json``, for a change
that is meant to alter the assembly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench" / "results"
EXPECTED = HERE / "expected.json"


def main() -> int:
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    conflicts = 0
    for path in sorted(RESULTS.glob("*-trace0.json")):
        run = json.loads(path.read_text())
        if run["failures"] or len(run["digests"]) != len(run["reads_sha256"]):
            continue
        entry = {
            "reads": run["reads_sha256"],
            "contigs": [d["contigs"] for d in run["digests"]],
            "scaffolds": [d["scaffolds"] for d in run["digests"]],
        }
        seeds = expected.setdefault(run["workload"], {})
        old = seeds.setdefault(str(run["seed"]), entry)
        if old != entry:
            conflicts += 1
            print(f"{run['workload']} seed {run['seed']}: differs from the recorded "
                  "digests, left unchanged", file=sys.stderr)
    for seeds in expected.values():
        seeds_sorted = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
        seeds.clear()
        seeds.update(seeds_sorted)
    EXPECTED.write_text(json.dumps(dict(sorted(expected.items())), indent=1) + "\n")
    print(f"{sum(len(s) for s in expected.values())} (workload, seed) entries in {EXPECTED}")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
