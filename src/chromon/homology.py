"""First homology of the complex dual to a colored graph.

The face incidence matrix has one row per face and one column per edge.
Traversing every edge black to white, a face of colors {i, j} runs its
color-i edges forward and its color-j edges backward, so its row holds +1
in the columns of its color-i edges and -1 in those of its color-j edges.

Gauge fixing: the columns of a spanning tree are linearly dependent on the
rest, so dropping them leaves the rank unchanged.  The reduced matrix has
|L| = |E| - n + 1 columns; first homology vanishes over Q exactly when the
reduced rank reaches |L| = 1 + (d-1)n/2, and over Z when additionally all
invariant factors are 1.
"""

from collections import deque
from dataclasses import dataclass

from . import intmat
from .errors import Disconnected, GaugeRankMismatch, InternalMismatch
from .perms import inverse


@dataclass(frozen=True)
class IncidenceMatrix:
    """Face rows by edge columns; column c*p + k is the edge (c, k)."""

    entries: tuple
    edge_columns: tuple


def incidence_matrix(graph, faces):
    p = graph.p
    cols = (graph.d + 1) * p
    rows = []
    for face in faces.faces:
        i, j = face.colors
        row = [0] * cols
        for k in face.blacks:
            row[i * p + k] = 1
            row[j * p + k] = -1
        rows.append(tuple(row))
    edge_columns = tuple((c, k) for c in range(graph.d + 1) for k in range(p))
    return IncidenceMatrix(tuple(rows), edge_columns)


def spanning_tree(graph, color_order=None):
    """Deterministic spanning tree: breadth-first from black vertex 0,
    trying lowest colors first.  Passing a different color_order gives an
    alternate deterministic tree for cross-checks.

    Returns n-1 edge ids (color, black endpoint) in discovery order.
    """
    p = graph.p
    colors = tuple(color_order) if color_order is not None else tuple(range(graph.d + 1))
    inv = [inverse(sig) for sig in graph.sigma]
    seen_black = [False] * p
    seen_white = [False] * p
    seen_black[0] = True
    queue = deque([(0, True)])
    tree = []
    while queue:
        v, black = queue.popleft()
        for c in colors:
            if black:
                w = graph.sigma[c][v]
                if not seen_white[w]:
                    seen_white[w] = True
                    tree.append((c, v))
                    queue.append((w, False))
            else:
                k = inv[c][v]
                if not seen_black[k]:
                    seen_black[k] = True
                    tree.append((c, k))
                    queue.append((k, True))
    if len(tree) != graph.n - 1:
        raise Disconnected("spanning tree covers %d of %d vertices"
                           % (len(tree) + 1, graph.n))
    return tuple(tree)


@dataclass(frozen=True)
class HomologyReport:
    """Exact rank and integer normal form data of the reduced matrix."""

    spanning_tree: tuple
    reduced_matrix: tuple
    rank: int
    invariant_factors: tuple
    h1_rational_trivial: bool
    h1_integral_trivial: bool


def reduce_columns(matrix, tree):
    """Drop the spanning-tree columns, keeping edge order."""
    tree_set = set(tree)
    keep = [i for i, e in enumerate(matrix.edge_columns) if e not in tree_set]
    rows = tuple(tuple(row[i] for i in keep) for row in matrix.entries)
    return rows, tuple(matrix.edge_columns[i] for i in keep)


def homology_report(graph, matrix=None, tree=None):
    """Build the report for a connected graph.

    Both the full and the reduced matrix are eliminated for every graph,
    including one with fewer faces than |L| whose verdict over Q is
    nontrivial on that count alone; if the two exact ranks differ the
    gauge argument is broken and GaugeRankMismatch is raised.  The
    invariant factors of the reduced matrix are always computed too, and
    their count must equal its rank.
    """
    from .graphs import enumerate_faces

    if matrix is None:
        matrix = incidence_matrix(graph, enumerate_faces(graph))
    if tree is None:
        tree = spanning_tree(graph)
    reduced, _ = reduce_columns(matrix, tree)
    rank_full = intmat.rank(matrix.entries)
    rank_reduced = intmat.rank(reduced)
    if rank_full != rank_reduced:
        raise GaugeRankMismatch("full rank %d vs reduced rank %d"
                                % (rank_full, rank_reduced))
    factors = intmat.invariant_factors(reduced)
    if len(factors) != rank_reduced:
        raise InternalMismatch("rank %d but %d invariant factors"
                               % (rank_reduced, len(factors)))
    target = 1 + (graph.d - 1) * graph.n // 2
    h1q = rank_reduced == target
    h1z = h1q and all(f == 1 for f in factors)
    return HomologyReport(
        spanning_tree=tree,
        reduced_matrix=reduced,
        rank=rank_reduced,
        invariant_factors=factors,
        h1_rational_trivial=h1q,
        h1_integral_trivial=h1z,
    )
