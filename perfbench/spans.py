"""Span recorder for the traced run.

Tracing wraps each layer's public functions at the module attributes that
the callers look up, so chromon itself is unchanged.  Every wrapped call
appends one span (name, start, end, parent, run id) to columnar arrays in
memory; the arrays are written out once, when the run ends.  A span's
self time is its duration minus the part of it covered by its children.

In a census with worker processes the pool forks after the wrappers are
installed, so the workers record spans too.  The wrapper of
``census._process_block`` hands each worker's spans back on the block's
result table, and the wrapped ``CensusTable.merge`` adopts them into the
parent's recorder under the open ``census_for_order`` span.

A name missing from chromon is skipped, so the traced run keeps working
when a layer is renamed; its metrics then read zero.
"""

import functools
import inspect
import json
import os
import sys
import time
from array import array

# (module, attribute): the span is named "<module>.<attribute>".  The
# function is wrapped wherever a chromon module holds it, so callers that
# imported it by name are traced as well.
LAYER_FUNCTIONS = (
    ("perms", "cycles"),
    ("perms", "inverse"),
    ("graphs", "enumerate_faces"),
    ("jackets", "enumerate_jackets"),
    ("jackets", "degree"),
    ("homology", "spanning_tree"),
    ("homology", "incidence_matrix"),
    ("homology", "reduce_columns"),
    ("homology", "homology_report"),
    ("intmat", "rank"),
    ("intmat", "invariant_factors"),
    ("census", "enumerate_connected"),
    ("census", "census_for_order"),
    ("census", "write_tables"),
    ("analysis", "analyze_graph"),
    ("subdivision", "parse_complex"),
    ("subdivision", "barycentric_colorize"),
    ("cli", "main"),
)
ANALYZE = "census.analyze"
PROCESS_BLOCK = "census.process_block"
TRANSITIVE = "census.transitive"
SPAN_NAMES = tuple("%s.%s" % pair for pair in LAYER_FUNCTIONS) + (
    ANALYZE, PROCESS_BLOCK, TRANSITIVE)
_SHIPPED = "_perfbench_spans"


class Recorder:
    """Spans of one process in parallel arrays; index i is one span."""

    def __init__(self):
        self.names = SPAN_NAMES
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("l")
        self.stack = [-1]
        self.counts = {}
        self.run_id = 0
        self.pid = os.getpid()

    def columns(self):
        return (self.name, self.start, self.end, self.parent, self.run)

    def clear(self):
        for column in self.columns():
            del column[:]
        del self.stack[1:]
        self.counts.clear()

    def count(self, name, kind, value=1):
        key = (self.run_id, name, kind)
        self.counts[key] = self.counts.get(key, 0) + value

    def drain(self):
        """Take every span and count out of the recorder."""
        shipped = (tuple(column.tobytes() for column in self.columns()),
                   dict(self.counts))
        self.clear()
        return shipped

    def adopt(self, shipped):
        """Append spans drained in another process; their root spans become
        children of the span open here."""
        raw, counts = shipped
        base = len(self.start)
        parent_here = self.stack[-1]
        for column, data in zip(self.columns(), raw):
            if column is self.parent:
                incoming = array("q")
                incoming.frombytes(data)
                column.extend(parent_here if p < 0 else p + base for p in incoming)
            else:
                column.frombytes(data)
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def span_wrapper(self, name, fn, tally=None):
        """fn recorded as one span per call; tally(recorder, args, result)
        may add counts afterwards."""
        nid = self.ids[name]
        names, starts, ends, parents, runs = self.columns()
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if tally is not None:
                tally(self, args, result)
            return result

        return wrapper

    def generator_wrapper(self, name, fn):
        """A generator function recorded as one span per next() call."""
        step = self.span_wrapper(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = step(items)
                except StopIteration:
                    return
                self.count(name, "yielded")
                yield item

        return wrapper

    def counting_wrapper(self, name, fn):
        """fn counted per enclosing span name, without a span of its own."""
        names, stack, labels = self.name, self.stack, self.names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            self.count(labels[names[top]] if top >= 0 else None, name)
            return fn(*args, **kwargs)

        return wrapper


def _tally_entries(name):
    """Count rows x cols of the matrix argument, numpy array or sequence of
    rows; a call of another shape is not counted."""
    def tally(recorder, args, result):
        try:
            matrix = args[0]
            shape = getattr(matrix, "shape", None)
            rows, cols = shape if shape is not None else (
                len(matrix), len(matrix[0]) if len(matrix) else 0)
        except (IndexError, TypeError, ValueError):
            return
        recorder.count(name, "entries", rows * cols)
    return tally


def _tally_bytes(recorder, args, result):
    try:
        size = sum(os.path.getsize(path) for path in result)
    except (OSError, TypeError):
        return
    recorder.count("census.write_tables", "bytes", size)


def _tally_connected(recorder, args, result):
    if result is not None:
        recorder.count(ANALYZE, "connected")


_TALLIES = {
    "intmat.rank": _tally_entries("intmat.rank"),
    "intmat.invariant_factors": _tally_entries("intmat.invariant_factors"),
    "census.write_tables": _tally_bytes,
}


class Tracer:
    """Installs the wrappers into the chromon modules and takes them out."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        rec = self.recorder
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "chromon" or key.startswith("chromon.")]
        for module_name, attr in LAYER_FUNCTIONS:
            name = "%s.%s" % (module_name, attr)
            source = sys.modules.get("chromon." + module_name)
            fn = getattr(source, attr, None)
            if fn is None:
                continue
            if inspect.isgeneratorfunction(fn):
                wrapper = rec.generator_wrapper(name, fn)
            else:
                wrapper = rec.span_wrapper(name, fn, _TALLIES.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapper)
        census = sys.modules.get("chromon.census")
        analyzer = getattr(census, "_OrderAnalyzer", None)
        if analyzer is not None and "analyze" in vars(analyzer):
            self._set(analyzer, "analyze",
                      rec.span_wrapper(ANALYZE, analyzer.analyze, _tally_connected))
        if hasattr(census, "_transitive"):
            self._set(census, "_transitive",
                      rec.counting_wrapper(TRANSITIVE, census._transitive))
        table = getattr(census, "CensusTable", None)
        if hasattr(census, "_process_block") and "merge" in getattr(table, "__dict__", {}):
            self._set(census, "_process_block",
                      _shipping_block(rec, census._process_block))
            self._set(table, "merge", _adopting_merge(rec, table.merge))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _shipping_block(rec, fn):
    """In a forked worker, start from an empty recorder and send the spans
    of each block back on its result."""
    traced = rec.span_wrapper(PROCESS_BLOCK, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        in_worker = os.getpid() != rec.pid
        if in_worker and len(rec.stack) > 1:
            rec.clear()
        result = traced(*args, **kwargs)
        if in_worker and hasattr(result, "__dict__"):
            setattr(result, _SHIPPED, rec.drain())
        return result

    return wrapper


def _adopting_merge(rec, fn):
    @functools.wraps(fn)
    def wrapper(self, other):
        shipped = getattr(other, "__dict__", {}).pop(_SHIPPED, None)
        if shipped is not None:
            rec.adopt(shipped)
        return fn(self, other)

    return wrapper


def self_times(rec):
    """Per span: duration minus the union of its children's intervals."""
    starts, ends, parents = rec.start, rec.end, rec.parent
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = array("q", (e - s for s, e in zip(starts, ends)))
    for p, kids in children.items():
        covered = 0
        lo = hi = None
        for s, e in sorted((starts[k], ends[k]) for k in kids):
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            elif e > hi:
                hi = e
        covered += hi - lo
        out[p] -= covered
    return out


def write_spans(rec, path):
    """Write every span as JSON columns plus the name table."""
    payload = {
        "names": list(rec.names),
        "columns": ["name", "start_ns", "end_ns", "parent", "run"],
        "spans": [list(column) for column in rec.columns()],
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    os.replace(tmp, path)


# Per-layer metrics reported by the traced run: name -> unit.
SELF_TIMED = tuple(name for name in SPAN_NAMES if name not in (
    "census.census_for_order", PROCESS_BLOCK, TRANSITIVE))
LAYER_METRICS = dict(
    [(name + ".self_s", "s") for name in SELF_TIMED]
    + [
        ("intmat.rank.calls", "count"),
        ("intmat.rank.entries", "count"),
        ("intmat.invariant_factors.calls", "count"),
        ("intmat.invariant_factors.entries", "count"),
        ("census.analyze.calls", "count"),
        ("census.orbit_walk.self_s", "s"),
        ("census.connected_ratio", "ratio"),
        ("census.h1q_ratio", "ratio"),
        ("census.enumerate_connected.yield_ratio", "ratio"),
        ("census.write_tables.bytes", "bytes"),
    ])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec):
    """Per-layer metrics of every traced pass, keyed by run id."""
    self_ns = self_times(rec)
    index = rec.ids
    invariant_factors, analyze = index["intmat.invariant_factors"], index[ANALYZE]
    width = len(rec.names)
    per_run = {}
    names, parents = rec.name, rec.parent
    for i, (nid, run_id) in enumerate(zip(names, rec.run)):
        acc = per_run.get(run_id)
        if acc is None:
            acc = per_run[run_id] = ([0] * width, [0] * width, [0])
        self_sum, calls, h1q_calls = acc
        self_sum[nid] += self_ns[i]
        calls[nid] += 1
        if nid == invariant_factors and parents[i] >= 0 and names[parents[i]] == analyze:
            h1q_calls[0] += 1
    return {run_id: _run_metrics(rec, run_id, *acc) for run_id, acc in per_run.items()}


def _run_metrics(rec, run_id, self_sum, calls, h1q_calls):
    index = rec.ids

    def count(name, kind):
        return rec.counts.get((run_id, name, kind), 0)

    out = {name + ".self_s": self_sum[index[name]] / 1e9 for name in SELF_TIMED}
    for name in ("intmat.rank", "intmat.invariant_factors"):
        out[name + ".calls"] = calls[index[name]]
        out[name + ".entries"] = count(name, "entries")
    out["census.analyze.calls"] = calls[index[ANALYZE]]
    out["census.orbit_walk.self_s"] = (
        self_sum[index["census.census_for_order"]]
        + self_sum[index[PROCESS_BLOCK]]) / 1e9
    connected = count(ANALYZE, "connected")
    out["census.connected_ratio"] = _ratio(connected, calls[index[ANALYZE]])
    out["census.h1q_ratio"] = _ratio(h1q_calls[0], connected)
    out["census.enumerate_connected.yield_ratio"] = _ratio(
        count("census.enumerate_connected", "yielded"),
        count("census.enumerate_connected", TRANSITIVE))
    out["census.write_tables.bytes"] = count("census.write_tables", "bytes")
    return out
