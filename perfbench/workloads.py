"""The benchmark workloads.  Each drives chromon through its public entry
points, times one pass at a time and checks every answer against the pins.

census-d3n10 / census-d3n10-t2: ``chromon census --dim 3 --order-max 10``
in-process, serially and with two worker processes.  The census is
exhaustive, so the seed does not change the input.

sweep-d3n8: ``census.enumerate_connected(3, 8)`` and then
``analysis.analyze_graph`` on each of its 12,858 graphs, each conjugated
by a seeded permutation and visited in a seeded order.

mesh-spheres: ``chromon subdivide`` and ``chromon analyze --json`` on two
seeded relabelings of simplicial spheres.
"""

import contextlib
import io
import json
import os
import random
import resource
import time
from dataclasses import dataclass, field

from chromon import analysis, build_graph, census, cli

from . import checks, inputs


def cpu_seconds():
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class PassResult:
    """One pass: wall and CPU seconds, graphs handled, per-graph CPU
    milliseconds, and the operations attempted and failed."""

    wall_s: float
    cpu_s: float
    graphs: int
    graph_cpu_ms: list
    attempted: int
    failed: int
    messages: list = field(default_factory=list)


def _cli(argv):
    """Run ``chromon <argv>`` in-process; returns (exit code, stdout).  An
    exception is returned as the code, so it counts as a failed operation."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # the run goes on and reports the failure
        code = "exception %r" % (exc,)
    return code, out.getvalue()


class Census:
    """One census of d=3 up to n=10 per pass; its CSVs must equal the pins."""

    def __init__(self, seed, work_dir, pins, threads):
        self.workers = threads
        self.expected = pins["census_d3n10_csv"]
        self.graphs = checks.census_graph_count(self.expected)
        self.out_dir = os.path.join(work_dir, "census-t%d" % threads)
        self.argv = ["census", "--dim", "3", "--order-max", "10",
                     "--threads", str(threads), "--out", self.out_dir]
        os.makedirs(self.out_dir, exist_ok=True)

    def run_pass(self):
        for name in self.expected:
            path = os.path.join(self.out_dir, name)
            if os.path.exists(path):
                os.remove(path)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        code, _ = _cli(self.argv)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        messages = [] if code == 0 else ["census exited with %r" % code]
        messages += checks.check_census_csvs(self.expected, self.out_dir)
        return PassResult(wall, cpu, self.graphs, [1000.0 * cpu / self.graphs],
                          attempted=1, failed=int(bool(messages)), messages=messages)


class Sweep:
    """Every connected d=3 n=8 graph through analyze_graph, relabeled."""

    D, N = 3, 8

    def __init__(self, seed, work_dir, pins):
        self.workers = 1
        self.expected = pins["sweep_d3n8_table"]
        count = self.expected["total_connected"]
        rng = random.Random(seed)
        p = self.N // 2
        self.relabels = [inputs.random_perm(rng, p) for _ in range(count)]
        self.order = list(range(count))
        rng.shuffle(self.order)

    def run_pass(self):
        messages = []
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            graphs = list(census.enumerate_connected(self.D, self.N))
            problem = None if len(graphs) == len(self.order) else (
                "enumerate_connected yielded %d graphs, pinned %d"
                % (len(graphs), len(self.order)))
        except Exception as exc:  # the run goes on and reports the failure
            problem = "enumerate_connected raised %r" % (exc,)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if problem is not None:
            return PassResult(wall, cpu, 0, [], attempted=1, failed=1, messages=[problem])
        relabeled = [build_graph(self.D, self.N,
                                 inputs.conjugate_sigma(graphs[k].sigma, self.relabels[k]))
                     for k in self.order]
        tally = checks.SweepTally()
        latencies = []
        failed = 0
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        for graph in relabeled:
            c0 = time.thread_time_ns()
            try:
                result = analysis.analyze_graph(graph)
            except Exception as exc:  # a failed graph is counted, the sweep goes on
                failed += 1
                messages.append("analyze_graph raised %r" % (exc,))
                continue
            finally:
                latencies.append((time.thread_time_ns() - c0) / 1e6)
            tally.add(result)
        wall += time.perf_counter() - t0
        cpu += cpu_seconds() - cpu0
        table_failures = checks.check_sweep_table(self.expected, tally)
        messages += table_failures
        return PassResult(wall, cpu, len(relabeled), latencies,
                          attempted=1 + len(relabeled),
                          failed=failed + int(bool(table_failures)), messages=messages)


MESHES = (
    ("cyclic4-v12", 3, lambda: inputs.cyclic_polytope_boundary(12)),
    ("simplex5-boundary", 4, lambda: inputs.simplex_boundary(4)),
)


class Meshes:
    """Subdivide then analyze each seeded mesh; reports must equal the pins."""

    def __init__(self, seed, work_dir, pins):
        self.workers = 1
        rng = random.Random(seed)
        self.meshes = []
        mesh_dir = os.path.join(work_dir, "mesh")
        os.makedirs(mesh_dir, exist_ok=True)
        for name, d, facets in MESHES:
            complex_path = os.path.join(mesh_dir, name + ".cx")
            with open(complex_path, "w", newline="") as fh:
                fh.write(inputs.complex_text(d, inputs.relabel_complex(facets(), rng)))
            graph_path = os.path.join(mesh_dir, name + ".cg")
            self.meshes.append((name, complex_path, graph_path, pins["meshes"][name]))

    def run_pass(self):
        wall = cpu = 0.0
        latencies = []
        attempted = failed = 0
        messages = []
        for name, complex_path, graph_path, expected in self.meshes:
            if os.path.exists(graph_path):
                os.remove(graph_path)
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            code, _ = _cli(["subdivide", complex_path, "--out", graph_path])
            attempted += 1
            if code != 0:
                wall += time.perf_counter() - t0
                cpu += cpu_seconds() - cpu0
                failed += 1
                messages.append("%s: subdivide exited with %r" % (name, code))
                continue
            c1 = time.thread_time()
            code, report = _cli(["analyze", graph_path, "--json"])
            latencies.append(1000.0 * (time.thread_time() - c1))
            wall += time.perf_counter() - t0
            cpu += cpu_seconds() - cpu0
            attempted += 1
            found = (["analyze exited with %r" % code] if code != 0
                     else checks.check_mesh_report(expected, json.loads(report)))
            if found:
                failed += 1
                messages += ["%s: %s" % (name, m) for m in found]
        return PassResult(wall, cpu, len(self.meshes), latencies,
                          attempted=attempted, failed=failed, messages=messages)


WORKLOADS = {
    "census-d3n10": lambda seed, work_dir, pins: Census(seed, work_dir, pins, threads=1),
    "census-d3n10-t2": lambda seed, work_dir, pins: Census(seed, work_dir, pins, threads=2),
    "sweep-d3n8": Sweep,
    "mesh-spheres": Meshes,
}
