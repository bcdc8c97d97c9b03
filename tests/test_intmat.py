import os
import random
import subprocess
import sys
from itertools import product

from hypothesis import given, settings, strategies as st

from conftest import (dense_rows, fraction_rank, minor_gcd_factors, sparse_rows,
                      sympy_invariant_factors)
import chromon
from chromon import intmat
from chromon.census import enumerate_connected
from chromon.graphs import build_graph, enumerate_faces
from chromon.homology import incidence_matrix, reduce_columns, spanning_tree
from chromon.intmat import invariant_factors, rank


def matrix_st(max_dim=6, lo=-9, hi=9):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(lo, hi), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]))


def test_rank_exhaustive_small_sign_matrices():
    # every 2x3 matrix over {-1, 0, 1}
    for flat in product((-1, 0, 1), repeat=6):
        m = [list(flat[:3]), list(flat[3:])]
        expected = fraction_rank(m)
        assert rank(sparse_rows(m)) == expected
        assert rank(sparse_rows(zip(*m))) == expected
        assert len(invariant_factors(sparse_rows(m))) == expected


@given(matrix_st())
@settings(max_examples=300)
def test_rank_matches_fraction_oracle(m):
    expected = fraction_rank(m)
    assert rank(sparse_rows(m)) == expected
    assert rank(sparse_rows(zip(*m))) == expected


@given(matrix_st(max_dim=5, lo=-3, hi=3))
def test_rank_properties(m):
    r = rank(sparse_rows(m))
    assert 0 <= r <= min(len(m), len(m[0]))
    assert rank(sparse_rows(m + m)) == r
    assert rank(sparse_rows([[-v for v in row] for row in m])) == r
    assert rank(sparse_rows(zip(*m))) == r


def test_big_entries_match_oracles():
    # entries far beyond 64 bits, with and without unit pivots beside them
    big = 1 << 40
    cases = [
        [[big, 0], [0, big], [big, big]],
        [[big, big + 1], [big - 1, big]],
        [[3 * big, 6 * big, 9 * big], [big, 2 * big + 1, 0]],
        [[1, big, 0], [big, 1, big], [0, big, 1]],
        [[big, 2 * big], [2 * big, 4 * big]],
    ]
    for m in cases:
        assert rank(sparse_rows(m)) == fraction_rank(m)
        assert invariant_factors(sparse_rows(m)) == minor_gcd_factors(m)


def test_rank_accepts_tuple_rows_and_zero_rows():
    m = tuple(sparse_rows(((1, 2), (2, 4), (0, 1))))
    assert rank(m) == 2
    assert invariant_factors(m) == (1, 1)
    zeros = tuple(sparse_rows(((0, 0, 0, 0),) * 3))
    assert rank(zeros) == 0
    assert invariant_factors(zeros) == ()
    padded = tuple(sparse_rows(((0, 0, 0), (2, -2, 0), (0, 0, 0))))
    assert rank(padded) == 1
    assert invariant_factors(padded) == (2,)
    assert rank(()) == 0
    assert invariant_factors(()) == ()


def test_invariant_factors_known_case():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert invariant_factors(sparse_rows(m)) == (2, 2, 156)


def test_invariant_factors_zero_and_identity():
    assert invariant_factors(sparse_rows([[0, 0], [0, 0]])) == ()
    assert invariant_factors(sparse_rows([[1, 0], [0, 1]])) == (1, 1)
    assert invariant_factors(sparse_rows([[4]])) == (4,)
    assert invariant_factors(sparse_rows([[0, 3], [0, 0]])) == (3,)


def test_invariant_factors_exhaustive_tiny():
    # every 2x2 matrix over {-2..2} against the determinantal divisors
    for flat in product(range(-2, 3), repeat=4):
        m = [list(flat[:2]), list(flat[2:])]
        assert invariant_factors(sparse_rows(m)) == minor_gcd_factors(m)


@given(matrix_st(max_dim=4, lo=-6, hi=6))
@settings(max_examples=150)
def test_invariant_factors_match_minor_gcds(m):
    assert invariant_factors(sparse_rows(m)) == minor_gcd_factors(m)


@given(matrix_st(max_dim=6, lo=-20, hi=20))
@settings(max_examples=100, deadline=None)
def test_invariant_factors_match_sympy(m):
    assert invariant_factors(sparse_rows(m)) == sympy_invariant_factors(m)


@given(matrix_st(max_dim=5, lo=-5, hi=5))
def test_factor_chain_and_rank_agree(m):
    factors = invariant_factors(sparse_rows(m))
    assert len(factors) == rank(sparse_rows(m))
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert all(f > 0 for f in factors)


def test_leftover_block_matches_oracles(monkeypatch):
    # matrices without a single unit entry go wholly to the leftover block;
    # the order-8 torsion graph needs it for its factor 2, and the d=3
    # incidence rows up to n=6 cover the unit-pivot path around it
    blocks = []
    real_step = intmat._diagonal_step

    def spy(mat, t, m, n):
        blocks.append((m, n))
        return real_step(mat, t, m, n)

    monkeypatch.setattr(intmat, "_diagonal_step", spy)
    rng = random.Random(8)
    dense = [[[rng.choice((0, 0, 2, -2, 3, -4, 6)) for _ in range(cols)]
              for _ in range(rows)]
             for rows, cols in product(range(1, 6), repeat=2)]
    cases = [(sparse_rows(m), m) for m in dense]
    torsion = build_graph(3, 8, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    graphs = [torsion] + [g for n in (2, 4, 6) for g in enumerate_connected(3, n)]
    for g in graphs:
        full = incidence_matrix(g, enumerate_faces(g))
        reduced, kept = reduce_columns(full, spanning_tree(g))
        cases += [(full.entries, dense_rows(full.entries, len(full.edge_columns))),
                  (reduced, dense_rows(reduced, len(kept)))]
    for rows, m in cases:
        assert rank(rows) == fraction_rank(m)
        assert invariant_factors(rows) == sympy_invariant_factors(m)
    assert any(m > 0 and n > 0 for m, n in blocks)


def test_elimination_leaves_rows_unchanged():
    # the census and homology_report hand the same reduced rows to rank
    # and then to invariant_factors, so neither may eliminate in place
    torsion = build_graph(3, 8, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    full = incidence_matrix(torsion, enumerate_faces(torsion))
    reduced, _ = reduce_columns(full, spanning_tree(torsion))
    rng = random.Random(4)
    block = sparse_rows([[rng.choice((0, 1, -1, 2, 3)) for _ in range(5)]
                         for _ in range(6)])
    for rows in (full.entries, reduced, block):
        before = [dict(row) for row in rows]
        ids = [id(row) for row in rows]
        expected = (rank(rows), invariant_factors(rows))
        assert [dict(row) for row in rows] == before
        assert [id(row) for row in rows] == ids
        assert (rank(rows), invariant_factors(rows)) == expected
    assert invariant_factors(reduced)[-1] == 2


def test_import_needs_no_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(chromon.__file__)))
    code = "import sys, chromon; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
