"""The span recorder: self times, wrapper installation and the per-layer
metrics of small traced runs."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

import chromon  # noqa: E402
from chromon import census, homology, intmat, perms  # noqa: E402
from perfbench import spans  # noqa: E402


def _span(rec, name, start, end, parent):
    for column, value in zip(rec.columns(), (rec.ids[name], start, end, parent, 0)):
        column.append(value)
    return len(rec.start) - 1


def test_self_time_subtracts_the_union_of_children():
    rec = spans.Recorder()
    root = _span(rec, "cli.main", 0, 100, -1)
    a = _span(rec, "intmat.rank", 10, 40, root)
    _span(rec, "perms.cycles", 15, 25, a)
    # two overlapping children, as from two worker processes
    _span(rec, "intmat.rank", 50, 80, root)
    _span(rec, "intmat.rank", 60, 90, root)
    assert list(spans.self_times(rec)) == [100 - 30 - 40, 20, 10, 30, 30]


def test_install_and_uninstall_restore_every_attribute():
    originals = (intmat.rank, census.cycles, perms.cycles, homology.spanning_tree,
                 census.spanning_tree, chromon.enumerate_faces,
                 census._OrderAnalyzer.__dict__["analyze"], census.CensusTable.merge)
    tracer = spans.Tracer(spans.Recorder())
    tracer.install()
    try:
        assert intmat.rank is not originals[0]
        assert census.cycles is perms.cycles
        assert census.spanning_tree is homology.spanning_tree
    finally:
        tracer.uninstall()
    assert (intmat.rank, census.cycles, perms.cycles, homology.spanning_tree,
            census.spanning_tree, chromon.enumerate_faces,
            census._OrderAnalyzer.__dict__["analyze"],
            census.CensusTable.merge) == originals


def _traced(fn):
    rec = spans.Recorder()
    rec.run_id = 3
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        value = fn()
    finally:
        tracer.uninstall()
    return value, spans.layer_metrics(rec)[3]


def test_traced_census_counts():
    serial, metrics = _traced(lambda: census.census_for_order(3, 6))
    assert serial == census.census_for_order(3, 6)
    calls = metrics["census.analyze.calls"]
    connected = round(metrics["census.connected_ratio"] * calls)
    assert 0 < connected < calls
    assert metrics["intmat.rank.calls"] == 2 * connected
    assert metrics["intmat.invariant_factors.calls"] == round(
        metrics["census.h1q_ratio"] * connected)
    assert metrics["census.orbit_walk.self_s"] > 0

    pooled, parallel = _traced(lambda: census.census_for_order(3, 6, workers=2))
    assert pooled == serial
    for name in ("census.analyze.calls", "intmat.rank.calls", "intmat.rank.entries",
                 "census.connected_ratio", "census.h1q_ratio"):
        assert parallel[name] == metrics[name], name


def test_traced_enumeration_yield_ratio():
    graphs, metrics = _traced(lambda: list(census.enumerate_connected(3, 6)))
    assert len(graphs) == 194
    assert metrics["census.enumerate_connected.yield_ratio"] == 194 / 216
    assert metrics["census.analyze.calls"] == 0
