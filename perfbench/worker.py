"""One fresh process of an in-process workload (or a set-up probe).

    python3 perfbench/worker.py WORKLOAD SEED LAUNCH REQUEST_FD REPLY_FD \
        [--setup-only] [--trace]

LAUNCH is the benchmark's `time.monotonic()` just before it started this
process, so set-up time runs from launch to ready.  REQUEST_FD and REPLY_FD
are the pipe ends through which the benchmark process times the reference
kernel for this worker (`common.probe_client`).  Until ready the process
imports only `sys`, `time` and cobcalc; the benchmark's own modules are
imported after it, so that their import is not counted as set-up.  The
caches that make a second pass cheap (`_CTX_CACHE`, `_ST_CACHE`,
`_GRID_CACHE`, the per-descriptor memos, the per-Context series) live in the
process, which is why every timed pass starts a new one.  The last line of
stdout is a JSON object with the timings, the outcome checks and, when
traced, the layer summary.
"""

import sys
import time


def setup(workload):
    """Build what the jobs of a workload share; runs before `ready`.

    phi-grid reuses the Laurent contexts of `make_context` (cached by the
    library), their logarithm and invariant form, and [p](t).  invariants
    and minors build private contexts inside each suite, so their set-up is
    the import alone.
    """
    from cobcalc import actions, operations, quotient  # noqa: F401
    if workload == "phi-grid":
        for p in (2, 3):
            ctx = operations.make_context(p)
            ctx.omega
            quotient.FormalP(ctx, p)


def main(argv):
    workload, seed, launch = argv[0], int(argv[1]), float(argv[2])
    request_fd, reply_fd = int(argv[3]), int(argv[4])
    setup_only = "--setup-only" in argv
    traced = "--trace" in argv

    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.install(tracing.Tracer())
    setup(workload)
    ready = time.monotonic()
    ready_pc = time.perf_counter()
    if setup_only:
        print('{"setup_raw_s": %r}' % (ready - launch))
        return 0

    import json
    import resource
    import traceback

    import common
    import workloads

    record = workloads.load_record()[workload]
    speed = common.SpeedLog(on_probe=tracer.exclude if tracer else None,
                            measure=common.probe_client(request_fd, reply_fd))
    speed.probe()
    labels, outcomes, intervals, raw = [], [], [], []
    with speed.sampling():
        for label, run in workloads.jobs(workload, seed):
            probing = speed.probe_s
            start = time.perf_counter()
            try:
                outcome = run()
            except Exception as exc:  # a failed job is counted, the run goes on
                traceback.print_exc()
                outcome = {"error": repr(exc)}
            end = time.perf_counter()
            intervals.append((start, end))
            raw.append(end - start - (speed.probe_s - probing))
            labels.append(label)
            outcomes.append(outcome)
    speed.probe()
    jobs = [speed.normalize(start, end, r)
            for (start, end), r in zip(intervals, raw)]

    attempted = failed = 0
    mismatches = []
    for label, outcome in zip(labels, outcomes):
        expected = record[label]
        attempted += workloads.units(workload, expected)
        bad = workloads.failures(workload, expected, outcome)
        failed += bad
        if bad:
            mismatches.append({"job": label, "expected": expected,
                               "got": outcome})
    result = {
        "setup_raw_s": ready - launch,
        "setup_s": speed.normalize(ready_pc, ready_pc, ready - launch),
        "probes_s": speed.probes,
        "jobs_raw_s": raw,
        "jobs_s": jobs,
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        common.WORK.mkdir(exist_ok=True)
        tracer.dump(common.WORK / ("%s.spans" % workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
