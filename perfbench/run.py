"""cobcalc benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every timed pass runs in a fresh process,
one process at a time, pinned to one CPU.  Untraced (--trace 0), the run
repeats passes while the next one is expected to end within S seconds
(always at least one) and reports the end-to-end metrics as medians over
passes.  Traced (--trace 1), it makes an untraced, a traced and another
untraced pass and reports the per-layer metrics of the traced one plus the
tracing overhead.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it ("info ...") holds the raw seconds, the tail percentile and
query count, the revision, the Python version and the CPU count.  NOTES.md
defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import common
import tracer as tracing
import workloads

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150


def _median(values):
    return statistics.median(values) if values else 0.0


def _worker(workload, seed, *flags):
    """A fresh worker process; its result line as a dict.  While it runs,
    this process answers its requests for reference probes."""
    common.WORK.mkdir(exist_ok=True)
    out_path, err_path = common.WORK / "worker.out", common.WORK / "worker.err"
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    launch = time.monotonic()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "worker.py"), workload,
             str(seed), repr(launch), str(request_w), str(reply_r), *flags],
            stdout=out, stderr=err, env=common.child_env(), cwd=common.ROOT,
            pass_fds=(request_w, reply_r))
    os.close(request_w)
    os.close(reply_r)
    try:
        served = common.serve_probes(request_r, reply_w,
                                     launch + CHILD_TIMEOUT_S)
    finally:
        os.close(request_r)
        os.close(reply_w)
        if proc.poll() is None and not served:
            proc.kill()
        proc.wait()
    if not served or proc.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace"))
        raise RuntimeError("worker %s %d %s %s" % (
            workload, seed, " ".join(flags),
            "exited %d" % proc.returncode if served else "timed out"))
    return json.loads(out_path.read_text().strip().splitlines()[-1])


def _timed(items, run):
    """run(item) for each item with reference probes in between; returns
    (raw, normalized, mean probe time)."""
    speed = common.SpeedLog()
    speed.probe()
    intervals, raw = [], []
    for item in items:
        start = time.perf_counter()
        raw.append(run(item))
        intervals.append((start, time.perf_counter()))
        speed.probe_if_due()
    speed.probe()
    return (raw, [speed.normalize(a, b, r) for (a, b), r in zip(intervals, raw)],
            statistics.fmean(speed.probes))


def _bare_cli_import(_index):
    """Launch to ready of a process that only imports `cobcalc.cli`."""
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import cobcalc.cli, time; print(repr(time.monotonic()))"],
        capture_output=True, env=common.child_env(), cwd=common.ROOT,
        timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.decode().split()[-1]) - launch


def setup_samples(workload, seed):
    """(raw, normalized) set-up times of processes that only set up."""
    if workload == "cli-cold":
        one = _bare_cli_import
    else:
        def one(_index):
            return _worker(workload, seed, "--setup-only")["setup_raw_s"]
    raw, normalized, _ref = _timed(range(SETUP_PROBES), one)
    return raw, normalized


def _pass(jobs_raw, jobs, queries, reference, attempted, failed, mismatches,
          peak_rss_mb, **extra):
    """One pass's end-to-end numbers from its normalized job and query
    latencies."""
    pct, tail_value = common.tail(queries)
    return dict(extra, solve_s=sum(jobs), solve_raw_s=sum(jobs_raw),
                query_p50_s=_median(queries), query_tail_s=tail_value,
                tail_percentile=pct, queries=len(queries),
                reference_s=reference,
                attempted=attempted, failed=failed, mismatches=mismatches,
                peak_rss_mb=peak_rss_mb)


def in_process_pass(workload, seed, traced=False):
    """One worker process.  Its whole job list is its one query: a job
    shorter than a second cannot be normalized steadily (see NOTES.md)."""
    rep = _worker(workload, seed, *(("--trace",) if traced else ()))
    return _pass(rep["jobs_raw_s"], rep["jobs_s"], [sum(rep["jobs_s"])],
                 statistics.fmean(rep["probes_s"]), rep["attempted"],
                 rep["failed"], rep["mismatches"], rep["peak_rss_mb"],
                 setup_s=rep["setup_s"], setup_raw_s=rep["setup_raw_s"],
                 layers=rep.get("layers"))


def _query(query, expected, traced, index):
    """One query process; (latency, mismatch or None, layer summary)."""
    argv = workloads.query_argv(query)
    if traced:
        summary_path = common.WORK / ("cli-%d.json" % index)
        spans_path = common.WORK / ("cli-%d.spans" % index)
        cmd = [sys.executable, str(common.BENCH_DIR / "cli_child.py"),
               str(summary_path), str(spans_path), "--"] + argv
    else:
        cmd = [sys.executable, "-m", "cobcalc.cli"] + argv
    launch = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, env=common.child_env(),
                          cwd=common.ROOT, timeout=CHILD_TIMEOUT_S,
                          check=False)
    latency = time.monotonic() - launch
    got = {"exit": proc.returncode, "sha256": workloads.digest(proc.stdout)}
    mismatch = None
    if workloads.failures("cli-cold", expected, got):
        mismatch = {"job": query, "expected": expected, "got": got}
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    summary = None
    if traced:
        with open(summary_path) as fh:
            summary = json.load(fh)
    return latency, mismatch, summary


def cli_pass(seed, record, traced=False):
    """One stream of queries, each in a new process, one after another."""
    stream = workloads.cli_stream(seed)
    mismatches, summaries = [], []

    def run(indexed):
        index, query = indexed
        latency, mismatch, summary = _query(query, record.get(query), traced,
                                            index)
        if mismatch:
            mismatches.append(mismatch)
        if summary:
            summaries.append(summary)
        return latency
    raw, latencies, reference = _timed(enumerate(stream), run)
    layers = None
    if traced:
        layers = {}
        for summary in summaries:
            for key, value in summary.items():
                layers[key] = layers.get(key, 0) + value
        layers["cli.import_s"] = _median([s["cli.import_s"]
                                          for s in summaries])
    # ru_maxrss of the children reaped so far: the largest query process
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return _pass(raw, latencies, latencies, reference, len(stream),
                 len(mismatches), mismatches, peak, layers=layers)


def passes(workload, seed, seconds, trace):
    """Untraced: (passes, set-up samples).  Traced: (untraced, traced), with
    the traced pass between two untraced ones."""
    if workload == "cli-cold":
        record = workloads.load_record()["cli-cold"]

        def one(traced=False):
            return cli_pass(seed, record, traced)
    else:
        def one(traced=False):
            return in_process_pass(workload, seed, traced)
    if trace:
        common.WORK.mkdir(exist_ok=True)
        before = one()
        traced = one(traced=True)
        return [before, one()], traced
    start = time.monotonic()
    setups = setup_samples(workload, seed)
    done = []
    while True:
        t = time.monotonic()
        done.append(one())
        took = time.monotonic() - t
        if time.monotonic() - start + took > seconds:
            return done, setups


# ----- reporting ---------------------------------------------------------------------


def end_to_end(passes, setups):
    setup_raw, setup_normalized = setups
    setup_values = list(setup_normalized) \
        + [p["setup_s"] for p in passes if "setup_s" in p]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "solve_s": (_median([p["solve_s"] for p in passes]), "s"),
        "setup_s": (_median(setup_values), "s"),
        "query_p50_s": (_median([p["query_p50_s"] for p in passes]), "s"),
        "query_tail_s": (_median([p["query_tail_s"] for p in passes]), "s"),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in passes]), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    info = {"passes": len(passes),
            "solve_s": [p["solve_s"] for p in passes],
            "solve_raw_s": [p["solve_raw_s"] for p in passes],
            "reference_s": [p["reference_s"] for p in passes],
            "setup_s": setup_values,
            "setup_raw_s": list(setup_raw)
            + [p["setup_raw_s"] for p in passes if "setup_raw_s" in p],
            "queries_per_pass": passes[0]["queries"],
            "tail_percentile": passes[0]["tail_percentile"],
            "failed_ratio": failed / attempted,
            "mismatches": [m for p in passes for m in p["mismatches"]]}
    return metrics, attempted, failed, info


def layer_values(untraced, traced):
    """Per-layer metrics of the traced pass, times scaled like solve_s; the
    overhead is taken against the median of the untraced passes."""
    scale = traced["solve_s"] / traced["solve_raw_s"]
    out = tracing.finish(traced["layers"])
    for key in out:
        if key.endswith("_s"):
            out[key] *= scale
    out.setdefault("cli.import_s", 0.0)
    out["trace.overhead_s"] = traced["solve_s"] - _median(
        [p["solve_s"] for p in untraced])
    return out


def environment():
    git = None
    if (common.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                              capture_output=True, text=True, check=False)
        git = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((common.SRC / "cobcalc").rglob("*.py")):
        digest.update(path.relative_to(common.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_revision": git, "source_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "cobcalc" / "__init__.py").is_file():
        sys.stderr.write("no cobcalc sources under %s\n" % common.SRC)
        return 2
    env = environment()
    # one CPU for the benchmark and its children, so that the reference
    # probes and the measured work share it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    done, extra = passes(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        everything = done + [extra]
        values = layer_values(done, extra)
        metrics = {name: (values[name], unit)
                   for name, unit, _better in tracing.layer_metrics()}
        attempted = sum(p["attempted"] for p in everything)
        failed = sum(p["failed"] for p in everything)
        info = {"untraced_solve_s": [p["solve_s"] for p in done],
                "traced_solve_s": extra["solve_s"],
                "mismatches": [m for p in everything
                               for m in p["mismatches"]]}
    else:
        metrics, attempted, failed, info = end_to_end(done, extra)
    info.update(env, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
