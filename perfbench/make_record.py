"""Write record.json: the expected outputs the benchmark checks against.

    python3 perfbench/make_record.py

Runs every in-process job once, with the fixed workload seed SEED, and
every query of the cli-cold catalogue once, on the code in this checkout.
The stored values do not depend on the workload seed (verifier summaries
and case counts, suite verdicts, cases and result digests, query exit codes
and stdout digests), so one seed records them for all.  The record was
taken from the code the benchmark was first written against; rerun this
only on code whose outputs are known to be right.
"""

import json
import subprocess
import sys
import time

import common
import worker
import workloads

SEED = 20260814


def main():
    sys.path.insert(0, str(common.SRC))
    record = {}
    for workload in workloads.WORKLOADS:
        if workload == "cli-cold":
            continue
        worker.setup(workload)
        record[workload] = {label: run()
                            for label, run in workloads.jobs(workload, SEED)}
        print(workload, "recorded", file=sys.stderr)
    queries = {}
    for query in workloads.cli_catalogue():
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cobcalc.cli"]
            + workloads.query_argv(query),
            capture_output=True, env=common.child_env(), cwd=common.ROOT,
            check=False)
        if proc.returncode != 0:
            sys.stderr.write("%s exited %d\n%s" % (query, proc.returncode,
                                                   proc.stderr.decode()))
            return 1
        print("%6.2fs  %s" % (time.perf_counter() - t, query), file=sys.stderr)
        queries[query] = {"exit": proc.returncode,
                          "sha256": workloads.digest(proc.stdout)}
    record["cli-cold"] = queries
    with open(workloads.RECORD_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
