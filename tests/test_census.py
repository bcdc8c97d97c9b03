import errno
import os

import pytest

from conftest import (brute_connected_count, burnside_connected_classes,
                      connected_tuple_counts, union_find_connected)
from chromon.census import (CensusTable, DEFAULT_BUDGET, _OrderAnalyzer,
                            census_for_order, check_budget, enumerate_connected,
                            run_census, tuple_count, write_tables)
from chromon.errors import (BadDimension, BadOrder, BudgetExceeded,
                            InternalMismatch)
from chromon.perms import conjugate


def naive_table(d, n, mode):
    """Reference table: analyze every streamed graph with weight one."""
    analyzer = _OrderAnalyzer(d, n)
    table = CensusTable(d, n, mode)
    for graph in enumerate_connected(d, n, mode=mode):
        stats = analyzer.analyze(graph.sigma[1:])
        assert stats is not None
        table._add(*stats, 1)
    table.selfcheck()
    return table


def tables_equal(a, b):
    return (a.total_connected == b.total_connected
            and a.h1q_trivial == b.h1q_trivial
            and a.h1z_trivial == b.h1z_trivial
            and a.degree_histogram == b.degree_histogram
            and a.min_genus_histogram == b.min_genus_histogram)


def test_labeled_counts_match_brute_oracle():
    assert brute_connected_count(3, 2) == 1
    assert brute_connected_count(3, 4) == 7
    assert census_for_order(3, 2).total_connected == 1
    assert census_for_order(3, 4).total_connected == 7
    assert len(list(enumerate_connected(3, 4))) == 7


def test_labeled_totals_match_recurrence():
    counts3 = connected_tuple_counts(3, 4)
    for n in (2, 4, 6, 8):
        assert census_for_order(3, n).total_connected == counts3[n // 2]
    counts4 = connected_tuple_counts(4, 2)
    for n in (2, 4):
        assert census_for_order(4, n).total_connected == counts4[n // 2]
    assert counts4[2] == 15


def test_orbit_walk_equals_per_tuple_sweep():
    # the weighted orbit walk must reproduce the plain per-tuple tables
    for d, n in ((3, 2), (3, 4), (3, 6), (4, 2), (4, 4)):
        for mode in ("labeled", "canonical"):
            assert tables_equal(census_for_order(d, n, mode), naive_table(d, n, mode))


def test_pinned_order_six_table():
    table = census_for_order(3, 6)
    assert table.total_connected == 194
    assert table.h1q_trivial == 158
    assert table.h1z_trivial == 158
    assert table.degree_histogram == {0: 44, 1: 72, 2: 42, 3: 24, 4: 12}
    assert table.min_genus_histogram == {0: 158, 1: 36}


def test_first_torsion_appears_at_order_eight():
    table = census_for_order(3, 8)
    assert table.total_connected == 12858
    assert table.h1q_trivial == 6996
    assert table.h1z_trivial == 6990


def test_canonical_counts_match_burnside():
    assert census_for_order(3, 2, "canonical").total_connected == 1
    assert census_for_order(3, 4, "canonical").total_connected == 7
    assert census_for_order(3, 6, "canonical").total_connected == 41
    assert burnside_connected_classes(3, 6) == 41
    assert (census_for_order(4, 4, "canonical").total_connected
            == burnside_connected_classes(4, 4))


def test_canonical_never_exceeds_labeled():
    for d, n in ((3, 4), (3, 6), (4, 4)):
        canonical = census_for_order(d, n, "canonical").total_connected
        labeled = census_for_order(d, n).total_connected
        assert canonical <= labeled


def test_stream_is_deterministic_and_gauge_fixed():
    first = [g.sigma for g in enumerate_connected(3, 4)]
    second = [g.sigma for g in enumerate_connected(3, 4)]
    assert first == second
    assert first == sorted(first)
    for sigma in first:
        assert sigma[0] == (0, 1)
        assert union_find_connected(3, 4, sigma)


def test_canonical_reps_are_least_in_orbit():
    from itertools import permutations

    for n in (4, 6):
        p = n // 2
        taus = list(permutations(range(p)))
        for g in enumerate_connected(3, n, mode="canonical"):
            rest = g.sigma[1:]
            least = min(tuple(conjugate(t, sig) for sig in rest) for t in taus)
            assert rest == least


def test_parallel_and_serial_tables_are_byte_identical(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    write_tables(run_census(3, 6, "labeled", parallelism=1), str(serial_dir))
    write_tables(run_census(3, 6, "labeled", parallelism=2), str(parallel_dir))
    for name in ("census.csv", "degree_histogram.csv", "min_genus_histogram.csv"):
        with open(serial_dir / name, "rb") as fh:
            serial_bytes = fh.read()
        with open(parallel_dir / name, "rb") as fh:
            parallel_bytes = fh.read()
        assert serial_bytes == parallel_bytes


CENSUS_GOLDEN = (
    "d,n,mode,total_connected,h1q_trivial,h1z_trivial,"
    "sphere_fraction_num,sphere_fraction_den\n"
    "3,2,labeled,1,1,1,1,1\n"
    "3,4,labeled,7,7,7,1,1\n")

DEGREE_GOLDEN = (
    "d,n,degree,count\n"
    "3,2,0,1\n"
    "3,4,0,4\n"
    "3,4,1,3\n")

MIN_GENUS_GOLDEN = (
    "d,n,min_genus,count\n"
    "3,2,0,1\n"
    "3,4,0,7\n")


def test_csv_products(tmp_path):
    paths = write_tables(run_census(3, 4, "labeled"), str(tmp_path))
    assert [os.path.basename(p) for p in paths] == [
        "census.csv", "degree_histogram.csv", "min_genus_histogram.csv"]
    with open(paths[0]) as fh:
        assert fh.read() == CENSUS_GOLDEN
    with open(paths[1]) as fh:
        assert fh.read() == DEGREE_GOLDEN
    with open(paths[2]) as fh:
        assert fh.read() == MIN_GENUS_GOLDEN


def test_write_tables_is_atomic(tmp_path, monkeypatch):
    out = str(tmp_path)
    paths = write_tables(run_census(3, 4, "labeled"), out)
    before = {}
    for path in paths:
        with open(path, "rb") as fh:
            before[path] = fh.read()
    real_fdopen = os.fdopen
    opened = []

    def full_disk_on_third_file(fd, *args, **kwargs):
        opened.append(fd)
        fh = real_fdopen(fd, *args, **kwargs)
        if len(opened) == 3:
            fh.close()
            raise OSError(errno.ENOSPC, "no space left on device")
        return fh

    def failing_replace(src, dst):
        raise OSError(errno.EIO, "replace failed")

    for name, fake in (("fdopen", full_disk_on_third_file), ("replace", failing_replace)):
        with monkeypatch.context() as patch:
            patch.setattr(os, name, fake)
            with pytest.raises(OSError):
                write_tables(run_census(3, 6, "labeled"), out)
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in paths)
        for path in paths:
            with open(path, "rb") as fh:
                assert fh.read() == before[path]
    assert len(opened) == 3


def test_budget_guard():
    assert tuple_count(3, 8) == 13824
    check_budget(3, 12)
    with pytest.raises(BudgetExceeded):
        check_budget(3, 14)
    with pytest.raises(BudgetExceeded):
        census_for_order(3, 8, budget=100)
    # the order limit is validated for every order before any work starts
    with pytest.raises(BudgetExceeded):
        run_census(3, 8, budget=13000)
    assert tuple_count(3, 14) > DEFAULT_BUDGET


def test_input_validation():
    with pytest.raises(BadOrder):
        census_for_order(3, 3)
    with pytest.raises(BadOrder):
        census_for_order(3, 0)
    with pytest.raises(BadOrder):
        run_census(3, 5)
    with pytest.raises(BadDimension):
        census_for_order(1, 4)
    with pytest.raises(BadDimension):
        list(enumerate_connected(9, 4))
    with pytest.raises(ValueError):
        census_for_order(3, 4, mode="weird")
    with pytest.raises(ValueError):
        list(enumerate_connected(3, 4, mode="weird"))


def test_merge_rejects_mismatched_tables():
    a = CensusTable(3, 4, "labeled")
    b = CensusTable(3, 6, "labeled")
    with pytest.raises(InternalMismatch):
        a.merge(b)


def test_selfcheck_rejects_inconsistent_counts():
    table = CensusTable(3, 4, "labeled", total_connected=2, h1q_trivial=3)
    with pytest.raises(InternalMismatch):
        table.selfcheck()
