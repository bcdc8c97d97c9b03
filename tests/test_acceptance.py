"""Acceptance gate: one test per numbered criterion.

Every comparison is exact (integers or Fractions); the only tolerances are
the named runtime ceilings, which are asserted and reported.  Each
criterion test registers a one-line verdict that the terminal summary
prints after the run, so a plain pytest invocation always shows one
pass/fail line per criterion.  One more test compares the criterion 2
sweep, which runs analyze_graph per graph, with the census tables.
"""

import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from conftest import (TORUS_TRIANGLES, brute_connected_count,
                      connected_tuple_counts, record_criterion)
from chromon.analysis import analyze_graph
from chromon.census import (census_for_order, enumerate_connected, run_census,
                            write_tables)
from chromon.decomposition import tree_cotree
from chromon.graphs import build_graph, enumerate_faces, is_connected
from chromon.homology import homology_report
from chromon.jackets import (enumerate_jackets, max_genus,
                             trivial_homology_degree_bound)
from chromon.subdivision import barycentric_colorize, build_complex

SWEEP_ORDERS = ((3, 2), (3, 4), (3, 6), (3, 8), (4, 2), (4, 4))


@pytest.fixture(scope="module")
def sweep():
    """Full analysis of every connected labeled graph in the criterion 2
    ranges.

    analyze_graph raises InternalMismatch (GaugeRankMismatch is one) from
    the same checks the census kernel runs: a jacket face count that gives
    a negative, fractional or above-ceiling genus, jacket face counts that
    do not sum to (d-1)! |F|, a degree that disagrees with its closed form,
    full and reduced ranks that differ, or an invariant-factor count other
    than the rank.  The loop re-asserts the genus ceiling and the
    face-sharing identity on the returned records.  Returns per-(d, n)
    records of (degree, min_genus, h1q, h1z) plus wall times.
    """
    records = {}
    elapsed = {}
    for d, n in SWEEP_ORDERS:
        start = time.perf_counter()
        rows = []
        ceiling = max_genus(d, n)
        sharing = factorial(d - 1)
        for g in enumerate_connected(d, n, mode="labeled"):
            result = analyze_graph(g)
            for jacket in result.jackets:
                assert 0 <= jacket.genus <= ceiling
            assert (sum(jacket.face_count for jacket in result.jackets)
                    == sharing * result.faces.total)
            rows.append((result.degree_report.degree_sum,
                         result.degree_report.min_genus,
                         result.homology.h1_rational_trivial,
                         result.homology.h1_integral_trivial))
        records[(d, n)] = rows
        elapsed[(d, n)] = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_dipole_pin():
    start = time.perf_counter()
    dipole = build_graph(3, 2, [[0]] * 4)
    result = analyze_graph(dipole)
    assert result.faces.total == 6
    assert len(result.jackets) == 3
    assert all(jacket.genus == 0 for jacket in result.jackets)
    report = result.degree_report
    assert report.degree_sum == 0
    assert report.min_genus == 0
    assert report.min_genus_bound == Fraction(1)
    hom = result.homology
    assert hom.rank == 3 == dipole.nullity
    assert hom.invariant_factors == (1, 1, 1)
    assert hom.h1_rational_trivial and hom.h1_integral_trivial
    took = time.perf_counter() - start
    assert took < 1.0, "dipole pin took %.2f s, ceiling 1 s" % took
    record_criterion(1, "all dipole values exact, %.3f s, ceiling 1 s" % took)


def test_criterion_2_exhaustive_identity_suite(sweep):
    records, elapsed = sweep
    counts = {3: connected_tuple_counts(3, 4), 4: connected_tuple_counts(4, 2)}
    total = 0
    for (d, n), rows in records.items():
        assert len(rows) == counts[d][n // 2]
        total += len(rows)
    took = elapsed[(3, 8)]
    assert took < 10.0, "d=3 n=8 sweep took %.1f s, ceiling 10 s" % took
    record_criterion(2, "%d graphs, zero identity violations; "
                        "d=3 n=8 in %.1f s, ceiling 10 s" % (total, took))


def test_sweep_matches_census_tables(sweep):
    # the per-graph path and the census kernel tabulate the same numbers
    records, _ = sweep
    for (d, n), rows in records.items():
        table = census_for_order(d, n)
        assert table.total_connected == len(rows), (d, n)
        assert table.h1q_trivial == sum(1 for row in rows if row[2]), (d, n)
        assert table.h1z_trivial == sum(1 for row in rows if row[3]), (d, n)
        assert table.degree_histogram == dict(Counter(row[0] for row in rows)), (d, n)
        assert table.min_genus_histogram == dict(Counter(row[1] for row in rows)), (d, n)


def test_criterion_3_min_genus_bound_suite(sweep):
    records, _ = sweep
    checked = 0
    for (d, n), rows in records.items():
        bound = Fraction(d - 1, d) * (1 + Fraction((d - 2) * n, 4))
        for degree_sum, min_genus, h1q, _ in rows:
            if h1q:
                assert min_genus <= bound
                checked += 1
    assert checked > 0
    record_criterion(3, "%d homology-trivial graphs under the exact "
                        "rational min-genus bound" % checked)


def test_criterion_4_degree_bound_suite(sweep):
    records, _ = sweep
    checked = 0
    for (d, n), rows in records.items():
        bound = trivial_homology_degree_bound(d, n)
        for degree_sum, _, h1q, _ in rows:
            assert degree_sum >= 0
            if h1q:
                assert degree_sum <= bound
                checked += 1
    assert checked > 0
    record_criterion(4, "%d homology-trivial graphs under the exact "
                        "degree bound" % checked)


def test_criterion_5_decomposition_suite():
    splits = 0
    for n in (2, 4, 6):
        for g in enumerate_connected(3, n, mode="labeled"):
            faces = enumerate_faces(g)
            every_edge = set(g.edges())
            for jacket in enumerate_jackets(g, faces):
                split = tree_cotree(g, jacket, faces)
                tree = set(split.tree_edges)
                cotree = set(split.cotree_edges)
                crossing = set(split.crossing_edges)
                assert len(crossing) == 2 * jacket.genus
                assert len(tree) == g.n - 1
                assert len(cotree) == jacket.face_count - 1
                assert tree | cotree | crossing == every_edge
                assert len(tree) + len(cotree) + len(crossing) == len(every_edge)
                splits += 1
    assert splits == (1 + 7 + 194) * 3
    record_criterion(5, "%d jacket splits, every crossing set of size "
                        "exactly 2g" % splits)


def test_criterion_6_census_counts(tmp_path):
    assert brute_connected_count(3, 2) == 1
    assert brute_connected_count(3, 4) == 7
    assert census_for_order(3, 2).total_connected == 1
    assert census_for_order(3, 4).total_connected == 7
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    write_tables(run_census(3, 6, "labeled", parallelism=1), str(serial))
    write_tables(run_census(3, 6, "labeled", parallelism=2), str(parallel))
    for name in ("census.csv", "degree_histogram.csv", "min_genus_histogram.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()
    base = census_for_order(3, 2).sphere_fraction
    assert base == Fraction(1)
    assert census_for_order(3, 8).sphere_fraction <= base
    record_criterion(6, "totals 1 and 7 match the brute oracle; parallel "
                        "tables byte-identical; sphere fraction falls from 1")


def test_criterion_7_subdivision_pins():
    start = time.perf_counter()
    sphere3 = barycentric_colorize(build_complex(3, list(combinations(range(5), 4))))
    assert sphere3.n == 120
    assert is_connected(sphere3)
    assert homology_report(sphere3).h1_integral_trivial
    sphere2 = barycentric_colorize(build_complex(2, list(combinations(range(4), 3))))
    assert sphere2.n == 24
    jackets = enumerate_jackets(sphere2, enumerate_faces(sphere2))
    assert len(jackets) == 1 and jackets[0].genus == 0
    torus = barycentric_colorize(build_complex(2, TORUS_TRIANGLES))
    jackets = enumerate_jackets(torus, enumerate_faces(torus))
    assert len(jackets) == 1 and jackets[0].genus == 1
    took = time.perf_counter() - start
    assert took < 5.0, "subdivision pins took %.1f s, ceiling 5 s" % took
    record_criterion(7, "3-sphere, 2-sphere, and torus subdivisions exact "
                        "in %.2f s, ceiling 5 s" % took)


def test_criterion_8_melons_are_integrally_trivial(sweep):
    records, _ = sweep
    melons = 0
    for n in (2, 4, 6):
        for degree_sum, _, _, h1z in records[(3, n)]:
            if degree_sum == 0:
                assert h1z
                melons += 1
    assert melons == 1 + 4 + 44
    record_criterion(8, "all %d degree-zero graphs at d=3, n <= 6 are "
                        "integrally trivial" % melons)


N12_DEGREE_HISTOGRAM = {
    0: 850080, 1: 4024800, 2: 9672480, 3: 19231920, 4: 34410240,
    5: 50237280, 6: 61079520, 7: 63340560, 8: 53062560, 9: 35699400,
    10: 19330560, 11: 7456320, 12: 2270400, 13: 685440}

N12_MIN_GENUS_HISTOGRAM = {
    0: 27676200, 1: 126843480, 2: 155318520, 3: 48557520, 4: 2955840}


def test_criterion_9_order_twelve_census(tmp_path):
    start = time.perf_counter()
    tables = run_census(3, 12, "labeled", parallelism=8)
    took = time.perf_counter() - start
    paths = write_tables(tables, str(tmp_path))
    counts = connected_tuple_counts(3, 6)
    for table in tables:
        assert table.total_connected == counts[table.n // 2]
    final = tables[-1]
    assert final.n == 12
    assert final.total_connected == 361351560
    assert final.h1q_trivial == 49778040
    assert final.h1z_trivial == 49551960
    assert final.degree_histogram == N12_DEGREE_HISTOGRAM
    assert final.min_genus_histogram == N12_MIN_GENUS_HISTOGRAM
    fraction = final.sphere_fraction
    with open(paths[0]) as fh:
        last = fh.read().splitlines()[-1]
    assert last == "3,12,labeled,361351560,49778040,49551960,%d,%d" % (
        fraction.numerator, fraction.denominator)
    assert took < 600.0, "order-12 census took %.0f s, ceiling 600 s" % took
    record_criterion(9, "361351560 graphs tabulated in %.0f s at 8-way "
                        "parallelism, ceiling 600 s; tables match the "
                        "frozen values" % took)
