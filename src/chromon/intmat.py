"""Exact integer matrix routines: rank over Q and invariant factors over Z.

Both come from one elimination over Z.  The rows are read into sparse
form, then reduced by unit pivots: take the shortest live row that holds
a +-1 entry, pivot on that entry, clear its column from every other row
by subtracting an integer multiple of the pivot row, and drop the pivot
row and column.  Row operations are unimodular, and once the column is
clear the pivot row can be cleared by column operations that touch no
other row, so every unit pivot is one invariant factor equal to 1.  Face
incidence rows after the spanning-tree gauge are sparse with entries
+-1, so nearly every pivot is a unit (the sparse reduction of Dumas,
Saunders and Villard, J. Symbolic Comput. 32 (2001); Kaczynski,
Mischaikow and Mrozek, Computational Homology (2004)).

When no unit entry is left, the leftover rows form a small dense block
that is diagonalized with Euclidean pivots: row and column operations
that re-select a minimum-magnitude pivot before every clearing pass and
round quotients to the nearest integer, which keeps intermediate entries
from the runaway growth that floor division with a fixed pivot produces
on dense matrices.  The rank is the number of nonzero diagonal entries;
the invariant factors are that diagonal after the pairwise gcd/lcm fix-up
that sorts prime exponents into a divisibility chain.
"""

from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd


def rank(matrix):
    """Exact rank of an integer matrix over the rationals.

    matrix is a sequence of equal-length rows of integers.
    """
    return len(_diagonal(matrix))


def invariant_factors(matrix):
    """Nonzero diagonal of the integer normal form, as a divisibility chain.

    Returns a tuple (f_1, ..., f_r) with f_i > 0, f_i dividing f_{i+1} and
    r the rank of the matrix.
    """
    diag = _diagonal(matrix)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, (a // g) * b
                changed = True
    return tuple(diag)


def _diagonal(matrix):
    """Positive diagonal of a matrix equivalent to `matrix` over Z: a 1 per
    unit pivot, then the Euclidean diagonal of the leftover block."""
    units, block = _unit_pivots(matrix)
    m = len(block)
    n = len(block[0]) if m else 0
    diag = [1] * units
    t = 0
    while t < m and t < n and _diagonal_step(block, t, m, n):
        diag.append(abs(block[t][t]))
        t += 1
    return diag


def _unit_pivots(matrix):
    """Take every +-1 pivot; returns (their count, dense leftover rows).

    rows[i] maps column to nonzero entry, and col_rows[j] lists every row
    that has held an entry in column j; a listed row that has since lost
    it, or was itself a pivot row, is skipped.  The heap holds (length,
    row) pairs and key[i] is the length in the pair that is current for
    row i, so any other pair of that row is stale.  A row that shrinks is
    pushed again at once and a row that grew when its old pair comes up,
    so a pair popped with the row's true length names the shortest live
    row.  A row without a unit entry is parked (key -1) until a pivot
    changes it.
    """
    columns = range(len(matrix[0]) if len(matrix) else 0)
    rows = [{j: row[j] for j in compress(columns, row)} for row in matrix]
    col_rows = [[] for _ in columns]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].append(i)
    key = [len(row) for row in rows]
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapify(heap)
    units = 0
    while heap:
        size, i = heappop(heap)
        prow = rows[i]
        if prow is None or size != key[i]:
            continue
        if len(prow) != size:
            key[i] = len(prow)
            heappush(heap, (key[i], i))
            continue
        for pc, sign in prow.items():
            if sign == 1 or sign == -1:
                break
        else:
            key[i] = -1
            continue
        rows[i] = None
        for k in col_rows[pc]:
            krow = rows[k]
            if krow is None:
                continue
            q = krow.get(pc)
            if q is None:
                continue
            q *= sign
            for j, v in prow.items():
                w = krow.get(j)
                if w is None:
                    krow[j] = -q * v
                    col_rows[j].append(k)
                else:
                    w -= q * v
                    if w:
                        krow[j] = w
                    else:
                        del krow[j]
            if len(krow) < key[k] or key[k] < 0:
                key[k] = len(krow)
                heappush(heap, (key[k], k))
        units += 1
    left = [row for row in rows if row]
    left_cols = sorted({j for row in left for j in row})
    return units, [[row.get(j, 0) for j in left_cols] for row in left]


def _find_pivot(mat, t, m, n):
    """Nonzero entry of least magnitude in the trailing submatrix; a unit
    entry wins immediately since it needs no Euclidean steps."""
    best = None
    for i in range(t, m):
        row = mat[i]
        for j in range(t, n):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if a == 1:
                    return (i, j)
                if best is None or a < best[0]:
                    best = (a, i, j)
    if best is None:
        return None
    return (best[1], best[2])


def _nearest_quotient(v, piv):
    """Integer quotient leaving a remainder of magnitude at most |piv| / 2."""
    q, r = divmod(v, piv)
    if 2 * abs(r) > abs(piv):
        q += 1
    return q


def _diagonal_step(mat, t, m, n):
    """Make row t and column t zero outside a single pivot entry at (t, t).

    Returns False when the trailing submatrix is entirely zero.  Each pass
    picks the smallest nonzero entry as the pivot and clears with nearest
    quotients, so any leftover remainder is at most half the pivot and the
    next pass starts from a strictly smaller one; the pass count is
    logarithmic in the least entry magnitude.
    """
    while True:
        pivot = _find_pivot(mat, t, m, n)
        if pivot is None:
            return False
        pi, pj = pivot
        if pi != t:
            mat[t], mat[pi] = mat[pi], mat[t]
        if pj != t:
            for row in mat:
                row[t], row[pj] = row[pj], row[t]
        piv = mat[t][t]
        clean = True
        for i in range(t + 1, m):
            v = mat[i][t]
            if v:
                q = _nearest_quotient(v, piv)
                if q:
                    trow = mat[t]
                    mat[i] = [a - q * b for a, b in zip(mat[i], trow)]
                if mat[i][t]:
                    clean = False
        trow = mat[t]
        for j in range(t + 1, n):
            v = trow[j]
            if v:
                q = _nearest_quotient(v, piv)
                if q:
                    for row in mat:
                        row[j] -= q * row[t]
                if trow[j]:
                    clean = False
        if clean:
            return True
