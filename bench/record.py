"""Record the seed-independent job outputs into expected.json.

usage, from the repository root:
    python3 bench/record.py

Run it at a commit whose outputs are trusted; run.py then compares every
later job with these values.  Seeded jobs run at RECORD_SEED; their checks
compare them byte for byte only at that seed.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, Runner, CLOCK
from workloads import EXPECTED_FILE, RECORD_SEED, workloads


def main() -> int:
    expected = {}
    for workload in workloads(RECORD_SEED).values():
        work = HERE / "work" / f"record-{workload.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            with Runner(work, CLOCK()) as runner:
                runner.setup(workload)
                for job in workload.jobs:
                    res = runner.run_job(job, None)
                    if res.exit_code != 0:
                        print(f"{job.name} exited {res.exit_code}", file=sys.stderr)
                        return 1
                    expected[job.name] = job.record(res)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sorted(expected)} into {EXPECTED_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
