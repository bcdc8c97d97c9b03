"""Splitting the edges of a jacket into tree, cotree, and crossing sets.

Fix a jacket J.  Its faces tile a closed surface of genus g(J); the edges
fall into a spanning tree T of the graph (n-1 edges), a spanning tree of
the dual graph on the F_J jacket faces (F_J - 1 edges, the cotree), and
what is left over: |E| - (n-1) - (F_J - 1) = 2 g(J) crossing edges.  On a
planar jacket the crossing set is empty.
"""

from collections import Counter
from dataclasses import dataclass

from .errors import InternalMismatch
from .graphs import enumerate_faces, pair_cycles
from .jackets import adjacent_pairs, enumerate_jackets, jackets_from_counts
from .homology import spanning_tree


@dataclass(frozen=True)
class TreeCotreeSplit:
    """Edge ids (color, black endpoint) of the three groups, each in
    lexicographic edge order except the tree, which keeps discovery order."""

    cycle: tuple
    tree_edges: tuple
    cotree_edges: tuple
    crossing_edges: tuple


def tree_cotree(graph, jacket, faces=None):
    """Greedy split for one jacket of a connected graph.

    The tree is the deterministic breadth-first spanning tree.  The
    remaining edges are scanned in lexicographic order; an edge whose two
    neighboring jacket faces are still in different dual components joins
    the cotree, anything else crosses.
    """
    if faces is None:
        faces = enumerate_faces(graph)
    tree = spanning_tree(graph)
    cycle = jacket.cycle
    kept = set(adjacent_pairs(cycle))
    face_id = {}
    n_faces = 0
    for face in faces.faces:
        if face.colors in kept:
            for k in face.blacks:
                face_id[(face.colors, k)] = n_faces
            n_faces += 1
    if n_faces != jacket.face_count:
        raise InternalMismatch("jacket lists %d faces, found %d"
                               % (jacket.face_count, n_faces))
    neighbor = {}
    for t, c in enumerate(cycle):
        prv = cycle[(t - 1) % len(cycle)]
        nxt = cycle[(t + 1) % len(cycle)]
        neighbor[c] = (
            (prv, c) if prv < c else (c, prv),
            (nxt, c) if nxt < c else (c, nxt),
        )

    parent = list(range(n_faces))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_set = set(tree)
    cotree = []
    crossing = []
    for edge in graph.edges():
        if edge in tree_set:
            continue
        c, k = edge
        pa, pb = neighbor[c]
        fa = find(face_id[(pa, k)])
        fb = find(face_id[(pb, k)])
        if fa != fb:
            parent[fa] = fb
            cotree.append(edge)
        else:
            crossing.append(edge)
    if len(cotree) != jacket.face_count - 1:
        raise InternalMismatch("cotree has %d edges, expected %d"
                               % (len(cotree), jacket.face_count - 1))
    if len(crossing) != 2 * jacket.genus:
        raise InternalMismatch("%d crossing edges but jacket genus %d"
                               % (len(crossing), jacket.genus))
    return TreeCotreeSplit(cycle, tree, tuple(cotree), tuple(crossing))


def count_by_genus(d, n, budget=None):
    """Histogram of the genus of the lowest canonical jacket, the color
    cycle (0, 1, ..., d), over every connected labeled graph of order n."""
    from .census import enumerate_connected

    hist = Counter()
    for graph in enumerate_connected(d, n, mode="labeled", budget=budget):
        counts = [len(cycs) for _, cycs in pair_cycles(graph.sigma)]
        _, _, genus = jackets_from_counts(d, n, counts)[0]
        hist[genus] += 1
    return dict(hist)


def jacket_for_cycle(graph, faces, cycle):
    """The Jacket record of one canonical color cycle."""
    for jacket in enumerate_jackets(graph, faces):
        if jacket.cycle == cycle:
            return jacket
    raise ValueError("%r is not a canonical color cycle of dimension %d"
                     % (cycle, graph.d))
