"""Record the output digests the benchmark compares every job against.

Run from the root of a checkout of a commit whose answers are trusted:

    python3 perfbench/make_digests.py

Every job that can occur on a workload with a finite parameter space is
recorded (all dt-a3 orders, kinds and output modes; every gv --m; every
Milnor map), and so is every job of the first passes of each workload at
the default seed.  Each job must also pass its own answer check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import jobs as jobmod
import run

DEFAULT_SEED = 0
PASSES = 3


def main() -> int:
    root = os.getcwd()
    src = run.find_source(root)
    cmd, env, _ = run.launcher(root, src)
    todo = {job.key: job for job in jobmod.finite_jobs()}
    for workload in jobmod.WORKLOADS:
        for jobs in jobmod.first_passes(workload, DEFAULT_SEED, PASSES):
            todo.update((job.key, job) for job in jobs)
    digests = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        with run.Spawner(env, workdir) as spawner:
            for key, job in sorted(todo.items()):
                job.write_files(workdir)
                _, _, _, code, timed_out, stdout = spawner.run(cmd + job.resolved_argv(workdir))
                why = run.judge(job, code, timed_out, stdout, {})
                if why:
                    print(f"FAILED {job.label} {' '.join(job.argv)}: {why}", file=sys.stderr)
                    return 1
                digests[key] = jobmod.output_digest(job.argv, stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"default_seed": DEFAULT_SEED, "passes": PASSES, "digests": digests},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
