"""chromon benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; chromon is imported from ``src/``
and nothing is installed.  The run sets up once, then repeats whole passes
of the workload until ``--seconds`` is used up (at least two passes), and
checks every pass against the pinned answers.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed / attempted`` is the error rate.

--trace 0 reports the end-to-end metrics (see END_TO_END).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones (see spans.LAYER_METRICS) plus ``trace.overhead``, the
traced over the untraced pass time minus 1.  Each run also writes a record
with the machine, commit and seed to ``.perfbench_out/results/``, and a
traced run writes its spans to ``.perfbench_out/traces/``.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("census-d3n10", "census-d3n10-t2", "sweep-d3n8", "mesh-spheres")
MIN_PASSES = 2
# Stop starting passes after this long so a run ends well within 180 s.
HARD_STOP_S = 120.0
SETUP_SAMPLES = 9
PROBES_PER_PASS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "graph_ms_mean": "ms",
    "graph_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "core_util": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this interpreter, print it and exit")
    return parser.parse_args(argv)


def set_up(name, seed, work_dir):
    """Import chromon from src/ and build the workload's inputs; returns
    (seconds, workload)."""
    t0 = time.perf_counter()
    chromon = importlib.import_module("chromon")
    if not os.path.abspath(chromon.__file__).startswith(SRC + os.sep):
        raise ImportError("chromon was imported from %s, not from src/" % chromon.__file__)
    from perfbench import checks, workloads
    workload = workloads.WORKLOADS[name](seed, work_dir, checks.load_pins())
    return time.perf_counter() - t0, workload


def probe_setup(name, seed):
    """Set-up time of a fresh interpreter, so the import is timed cold."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
    return float(proc.stdout.split()[-1])


def run_passes(workload, seconds, tracer, after_pass=None):
    """Whole passes until their time adds up to the budget; with a tracer,
    every second pass is traced.  after_pass() runs between passes, outside
    the budget.  Returns [(traced, PassResult)]."""
    passes = []
    start = time.perf_counter()
    spent = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.recorder.run_id = len(passes)
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        took = time.perf_counter() - t0
        spent += took
        passes.append((traced, result))
        if after_pass is not None:
            after_pass()
        if len(passes) >= MIN_PASSES and (spent + took > seconds or
                                          time.perf_counter() - start > HARD_STOP_S):
            return passes


def percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, results, setup_samples, peak_rss_mb):
    latencies = [x for r in results for x in r.graph_cpu_ms] or [0.0]
    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "wall_s": (statistics.median(r.wall_s for r in results), len(results)),
        "graphs_per_s": (statistics.median(r.graphs / r.wall_s for r in results),
                         len(results)),
        "graph_ms_mean": (statistics.fmean(latencies), len(latencies)),
        "graph_ms_p99": (percentile(latencies, 0.99), len(latencies)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "cpu_s": (statistics.median(r.cpu_s for r in results), len(results)),
        "core_util": (statistics.median(r.cpu_s / (workload.workers * r.wall_s)
                                        for r in results), len(results)),
    }
    return {name: (value, END_TO_END[name], samples)
            for name, (value, samples) in values.items()}


def per_layer(recorder, passes):
    from perfbench import spans

    by_run = spans.layer_metrics(recorder)
    traced = [by_run.get(i, {}) for i, (is_traced, _) in enumerate(passes) if is_traced]
    out = {name: (statistics.median(m.get(name, 0) for m in traced), unit, len(traced))
           for name, unit in spans.LAYER_METRICS.items()}
    plain = statistics.median(r.wall_s for t, r in passes if not t)
    with_trace = statistics.median(r.wall_s for t, r in passes if t)
    out["trace.overhead"] = (with_trace / plain - 1.0, "ratio", len(passes))
    return out


def peak_rss_mb(children_kib):
    """Peak resident set of this process plus the given peak of its
    largest pool worker, in MiB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kib) / 1024.0


def machine(seed):
    """Where and on what code the result was measured."""
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "cpu_model": model,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def write_record(path, record):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chromon", "__init__.py")):
        print("error: no chromon sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    os.makedirs(WORK_DIR, exist_ok=True)

    if args.setup_probe:
        # Pinned to one CPU: unpinned on a 2-vCPU VM, the import took
        # 0.16-0.23 s after a serial workload left the other vCPU idle and
        # 0.11-0.17 s after the two-worker census, so set-up time followed
        # the previous workload.  Pinned, it took 0.09-0.16 s with the
        # other vCPU idle.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        probe_dir = tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR)
        try:
            seconds, _ = set_up(args.workload, args.seed, probe_dir)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        print(repr(seconds))
        return 0

    setup_first, workload = set_up(args.workload, args.seed, WORK_DIR)
    tracer = None
    if args.trace:
        from perfbench import spans
        tracer = spans.Tracer(spans.Recorder())
    setup_samples = []
    workers_kib = []

    def probe_between_passes():
        # Set-up probes are spread over the run, as the host's speed drifts
        # within it.  Until the first probe, the only children waited for
        # are pool workers.
        if not workers_kib:
            workers_kib.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        setup_samples.extend(probe_setup(args.workload, args.seed)
                             for _ in range(PROBES_PER_PASS))

    passes = run_passes(workload, args.seconds, tracer,
                        None if tracer else probe_between_passes)
    results = [r for _, r in passes]
    if tracer is None:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(probe_setup(args.workload, args.seed))
        metrics = end_to_end(workload, results, setup_samples, peak_rss_mb(workers_kib[0]))
    else:
        metrics = per_layer(tracer.recorder, passes)
        trace_path = os.path.join(WORK_DIR, "traces", args.workload + ".spans.json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        spans.write_spans(tracer.recorder, trace_path)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    messages = [m for r in results for m in r.messages]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "pass_wall_s": [r.wall_s for r in results],
        "pass_traced": [traced for traced, _ in passes],
        "setup_s_this_process": setup_first,
        "setup_samples_s": setup_samples,
        "machine": machine(args.seed),
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:50],
    }
    write_record(os.path.join(WORK_DIR, "results", "%s-seed%d-trace%d.json"
                              % (args.workload, args.seed, args.trace)), record)

    print("machine: %s" % json.dumps(record["machine"], sort_keys=True))
    print("workload %s, seed %d, %d passes, %d/%d operations failed"
          % (args.workload, args.seed, len(passes), failed, attempted))
    for message in messages[:20]:
        print("FAILED: %s" % message)
    for name, (value, unit, samples) in metrics.items():
        print("%-40s %16.6f %-6s n=%d" % (name, value, unit, samples))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
