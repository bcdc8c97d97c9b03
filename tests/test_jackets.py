from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from chromon.errors import Disconnected, InternalMismatch
from chromon.graphs import build_graph, enumerate_faces
from chromon.jackets import (Jacket, adjacent_pairs, canonical_cycle,
                             check_min_genus_bound, checked_degree, color_cycles,
                             degree, enumerate_jackets, jacket_genus, max_genus,
                             trivial_homology_degree_bound)


def dipole(d):
    return build_graph(d, 2, [[0]] * (d + 1))


def connected_graph_st(d_max=4, p_max=4):
    from chromon.graphs import is_connected

    def build(args):
        d, p = args
        return st.tuples(*[st.permutations(list(range(p))).map(tuple)
                           for _ in range(d + 1)]).map(
            lambda sigma: build_graph(d, 2 * p, sigma))
    return st.tuples(st.integers(2, d_max), st.integers(1, p_max)).flatmap(
        build).filter(is_connected)


def test_color_cycle_census():
    for d in range(2, 6):
        cycles = color_cycles(d)
        assert len(cycles) == factorial(d) // 2
        assert len(set(cycles)) == len(cycles)
        for cyc in cycles:
            assert cyc[0] == 0
            assert cyc[1] < cyc[-1]
            assert sorted(cyc) == list(range(d + 1))


def test_canonical_cycle_collapses_rotations_and_reversals():
    for d in (2, 3, 4):
        for cyc in color_cycles(d):
            variants = [cyc[k:] + cyc[:k] for k in range(len(cyc))]
            variants += [tuple(reversed(v)) for v in variants]
            for v in variants:
                assert canonical_cycle(v) == cyc


def test_adjacent_pairs():
    assert adjacent_pairs((0, 1, 2, 3)) == [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert adjacent_pairs((0, 2, 1, 3)) == [(0, 2), (1, 2), (1, 3), (0, 3)]
    # d+1 pairs, all distinct
    for d in (2, 3, 4):
        for cyc in color_cycles(d):
            pairs = adjacent_pairs(cyc)
            assert len(pairs) == d + 1
            assert len(set(pairs)) == d + 1


def test_dipole_jackets():
    g = dipole(3)
    faces = enumerate_faces(g)
    jackets = enumerate_jackets(g, faces)
    assert len(jackets) == 3
    assert [j.cycle for j in jackets] == [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
    for j in jackets:
        assert j.face_count == 4
        assert j.genus == 0


def test_jacket_count_is_half_d_factorial():
    g = dipole(4)
    jackets = enumerate_jackets(g, enumerate_faces(g))
    assert len(jackets) == 12


def test_swap_graph_face_sharing_identity():
    # |F| = 9, so the jacket face counts must sum to 2! * 9 = 18
    g = build_graph(3, 4, [[0, 1], [1, 0], [1, 0], [1, 0]])
    faces = enumerate_faces(g)
    jackets = enumerate_jackets(g, faces)
    assert faces.total == 9
    assert sum(j.face_count for j in jackets) == 18
    report = degree(g, jackets, faces)
    assert report.degree_sum == 0
    assert all(genus == 0 for _, genus in report.genera)


def test_degree_report_dipole():
    g = dipole(3)
    faces = enumerate_faces(g)
    report = degree(g, enumerate_jackets(g, faces), faces)
    assert report.degree_sum == 0
    assert report.min_genus == 0
    assert report.min_genus_bound == Fraction(1)


def test_min_genus_bound_values():
    # (d-1)/d * (1 + (d-2)n/4) at d=3: n=2 gives 1, n=8 gives 2
    g8 = build_graph(3, 8, [[0, 1, 2, 3], [1, 2, 3, 0], [0, 1, 2, 3], [0, 1, 2, 3]])
    faces = enumerate_faces(g8)
    report = degree(g8, enumerate_jackets(g8, faces), faces)
    assert report.min_genus_bound == Fraction(2)


def test_check_min_genus_bound():
    g = dipole(3)
    faces = enumerate_faces(g)
    report = degree(g, enumerate_jackets(g, faces), faces)
    assert check_min_genus_bound(report, True)
    assert check_min_genus_bound(report, False)


def test_trivial_homology_degree_bound_values():
    # d=3 closed form collapses to 2 + n/2
    assert trivial_homology_degree_bound(3, 2) == 3
    assert trivial_homology_degree_bound(3, 4) == 4
    assert trivial_homology_degree_bound(3, 6) == 5
    assert trivial_homology_degree_bound(4, 2) == 18


def test_jacket_genus_rejects_impossible_face_counts():
    with pytest.raises(InternalMismatch):
        jacket_genus(3, 4, 7)
    with pytest.raises(InternalMismatch):
        jacket_genus(3, 4, 5)
    # genus 3 is above max_genus(3, 4) = 2; only F_J = 0 gets there
    with pytest.raises(InternalMismatch):
        jacket_genus(3, 4, 0)
    assert jacket_genus(3, 4, 6) == 0
    assert jacket_genus(3, 4, 2) == 2


def test_checked_degree_rejects_inconsistent_jackets():
    # the d=3 dipole: |F| = 6, three planar jackets with F_J = 4
    cycles = color_cycles(3)
    assert checked_degree(3, 2, [Jacket(c, 4, 0) for c in cycles], 6) == (0, 0)
    # jacket face counts that do not sum to (d-1)! |F|, with the genera
    # still matching the closed form
    with pytest.raises(InternalMismatch):
        checked_degree(3, 2, [Jacket(cycles[0], 5, 0)]
                       + [Jacket(c, 4, 0) for c in cycles[1:]], 6)
    # the face total holds but the genera disagree with the closed form
    with pytest.raises(InternalMismatch):
        checked_degree(3, 2, [Jacket(cycles[0], 4, 1)]
                       + [Jacket(c, 4, 0) for c in cycles[1:]], 6)


def test_disconnected_graph_rejected():
    two_dipoles = build_graph(3, 4, [[0, 1]] * 4)
    with pytest.raises(Disconnected):
        enumerate_jackets(two_dipoles, enumerate_faces(two_dipoles))


@given(connected_graph_st())
def test_genus_identities_hold(g):
    faces = enumerate_faces(g)
    jackets = enumerate_jackets(g, faces)
    assert len(jackets) == factorial(g.d) // 2
    for j in jackets:
        assert 0 <= j.genus <= max_genus(g.d, g.n)
    assert sum(j.face_count for j in jackets) == factorial(g.d - 1) * faces.total
    report = degree(g, jackets, faces)
    assert report.degree_sum == sum(j.genus for j in jackets)
    assert report.degree_sum >= 0
    assert report.min_genus == min(genus for _, genus in report.genera)
