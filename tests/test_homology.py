import time
from collections import Counter

from hypothesis import given, settings, strategies as st
import pytest

from conftest import (cyclic_polytope_facets, dense_rows, fraction_rank,
                      sympy_invariant_factors)
from chromon.errors import Disconnected
from chromon.graphs import build_graph, enumerate_faces, is_connected
from chromon.homology import (homology_report, incidence_matrix, reduce_columns,
                              spanning_tree)
from chromon.subdivision import barycentric_colorize, build_complex


def dipole(d):
    return build_graph(d, 2, [[0]] * (d + 1))


def connected_graph_st(d_max=4, p_max=3):
    def build(args):
        d, p = args
        return st.tuples(*[st.permutations(list(range(p))).map(tuple)
                           for _ in range(d + 1)]).map(
            lambda sigma: build_graph(d, 2 * p, sigma))
    return st.tuples(st.integers(2, d_max), st.integers(1, p_max)).flatmap(
        build).filter(is_connected)


def test_dipole_incidence_matrix():
    g = dipole(3)
    m = incidence_matrix(g, enumerate_faces(g))
    assert len(m.entries) == 6
    dense = dense_rows(m.entries, len(m.edge_columns))
    assert all(len(row) == 4 for row in dense)
    # the face of pair {i, j} holds +1 in column i and -1 in column j
    rows = sorted(dense, key=lambda row: (row.index(1), row.index(-1)))
    pairs = [(row.index(1), row.index(-1)) for row in rows]
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_dipole_report():
    g = dipole(3)
    hom = homology_report(g)
    assert hom.spanning_tree == ((0, 0),)
    assert {j for row in hom.reduced_matrix for j in row} == {0, 1, 2}
    assert hom.rank == 3 == g.nullity
    assert hom.invariant_factors == (1, 1, 1)
    assert hom.h1_rational_trivial
    assert hom.h1_integral_trivial


def test_swap_graph_report():
    g = build_graph(3, 4, [[0, 1], [1, 0], [1, 0], [1, 0]])
    m = incidence_matrix(g, enumerate_faces(g))
    assert len(m.entries) == 9
    assert len(m.edge_columns) == 8
    assert all(0 <= j < 8 for row in m.entries for j in row)
    hom = homology_report(g, m)
    assert len(hom.spanning_tree) == 3
    assert hom.rank == 5 == g.nullity
    assert hom.h1_integral_trivial


def test_first_torsion_graph():
    # the least n=8 graph whose homology is rationally but not integrally
    # trivial: sigma[1..3] are the three double transpositions of S4
    g = build_graph(3, 8, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    hom = homology_report(g)
    assert hom.rank == 9 == g.nullity
    assert hom.invariant_factors == (1, 1, 1, 1, 1, 1, 1, 1, 2)
    assert hom.h1_rational_trivial
    assert not hom.h1_integral_trivial
    assert sympy_invariant_factors(dense_rows(hom.reduced_matrix, g.nullity)) == (
        hom.invariant_factors)


def test_spanning_tree_needs_connectivity():
    two_dipoles = build_graph(3, 4, [[0, 1]] * 4)
    with pytest.raises(Disconnected):
        spanning_tree(two_dipoles)


def test_too_few_faces_forces_nontrivial_verdict():
    # rank <= |F|, so |F| < |L| rules out full rank.  At d=3 the face
    # count is 3 + 3n/2 - degree, so this needs degree > 2 + n/2 and the
    # first examples appear at n=8; this one has 8 faces against |L| = 9.
    g = build_graph(3, 8, [[0, 1, 2, 3], [0, 2, 3, 1], [1, 3, 0, 2], [2, 3, 1, 0]])
    faces = enumerate_faces(g)
    assert faces.total == 8
    assert g.nullity == 9
    hom = homology_report(g)
    assert hom.rank <= faces.total
    assert not hom.h1_rational_trivial


@given(connected_graph_st())
@settings(max_examples=60, deadline=None)
def test_incidence_shape_properties(g):
    faces = enumerate_faces(g)
    m = incidence_matrix(g, faces)
    assert len(m.entries) == faces.total
    for row, face in zip(m.entries, faces.faces):
        assert sum(row.values()) == 0
        assert sorted(set(row.values())) == [-1, 1]
        assert len(row) == face.length
    cols = list(zip(*dense_rows(m.entries, len(m.edge_columns))))
    for col in cols:
        assert sum(1 for v in col if v) == g.d
    # every edge lies in exactly d faces, so storage is linear in the edges
    assert sum(len(row) for row in m.entries) == g.d * g.edge_count
    reduced, kept = reduce_columns(m, spanning_tree(g))
    assert sum(len(row) for row in reduced) == g.d * g.nullity == g.d * len(kept)
    assert set(Counter(j for row in reduced for j in row).values()) == {g.d}


@given(connected_graph_st())
@settings(max_examples=40, deadline=None)
def test_rank_matches_oracle_and_gauge(g):
    faces = enumerate_faces(g)
    m = incidence_matrix(g, faces)
    hom = homology_report(g, m)
    reduced, kept = reduce_columns(m, hom.spanning_tree)
    assert hom.rank == fraction_rank(dense_rows(reduced, len(kept))) == fraction_rank(
        dense_rows(m.entries, len(m.edge_columns)))
    assert hom.rank <= min(g.nullity, faces.total)
    assert len(kept) == g.nullity
    if hom.h1_integral_trivial:
        assert hom.h1_rational_trivial


@given(connected_graph_st(d_max=3, p_max=3))
@settings(max_examples=30, deadline=None)
def test_alternate_tree_same_verdicts(g):
    m = incidence_matrix(g, enumerate_faces(g))
    alt = spanning_tree(g, color_order=range(g.d, -1, -1))
    hom = homology_report(g, m)
    hom_alt = homology_report(g, m, tree=alt)
    assert len(alt) == g.n - 1
    assert hom_alt.rank == hom.rank
    assert hom_alt.invariant_factors == hom.invariant_factors
    assert hom_alt.h1_rational_trivial == hom.h1_rational_trivial
    assert hom_alt.h1_integral_trivial == hom.h1_integral_trivial


@given(connected_graph_st(d_max=3, p_max=2))
@settings(max_examples=30, deadline=None)
def test_invariant_factors_match_sympy(g):
    hom = homology_report(g)
    assert sympy_invariant_factors(dense_rows(hom.reduced_matrix, g.nullity)) == (
        hom.invariant_factors)
    assert len(hom.invariant_factors) == hom.rank
    for a, b in zip(hom.invariant_factors, hom.invariant_factors[1:]):
        assert b % a == 0


def test_mesh_scale_sphere():
    # the barycentric subdivision of the cyclic 4-polytope on 20 vertices:
    # 170 tetrahedra give n = 24 * 170 = 4080, and the matrix is eliminated
    # in memory proportional to its d|E| = 24480 nonzero entries
    start = time.perf_counter()
    g = barycentric_colorize(build_complex(3, cyclic_polytope_facets(20)))
    faces = enumerate_faces(g)
    hom = homology_report(g, incidence_matrix(g, faces))
    elapsed = time.perf_counter() - start
    assert g.n == 4080
    assert faces.total == 4800
    assert hom.rank == g.nullity == 4081
    assert hom.h1_integral_trivial
    assert elapsed < 5.0, elapsed
