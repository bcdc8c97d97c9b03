"""Edge-colored bipartite graphs encoded by permutation tuples.

A graph of dimension d and order n has p = n/2 black vertices, p white
vertices, and exactly one edge of each color 0..d at every vertex, so each
color class is a perfect matching.  With both sides indexed by 0..p-1 the
color-c matching is a permutation: sigma[c][k] is the white endpoint of the
color-c edge at black vertex k.  Every edge is traversed black to white,
which fixes the orientation used by the face incidence matrix.

A face of the pair of colors {i, j} with i < j is a cycle of the
permutation sigma[j]^-1 sigma[i] acting on black indices.  A face of cycle
length m passes through m black and m white vertices and has 2m edges.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BadDimension, BadOrder, FormatError, NonBijective
from .perms import cycles, inverse

MIN_DIMENSION = 2
MAX_DIMENSION = 8


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable (d+1)-colored graph on n vertices.

    sigma is a tuple of d+1 permutations, one per color, each a tuple of
    images on {0, ..., n/2 - 1}.
    """

    d: int
    n: int
    sigma: tuple

    @property
    def p(self):
        """Number of black vertices (equal to the number of white ones)."""
        return self.n // 2

    @property
    def edge_count(self):
        return self.n * (self.d + 1) // 2

    @property
    def nullity(self):
        """Cycle-space dimension |E| - n + 1 of a connected graph.

        Equals 1 + n(d-1)/2.  Meaningful only when the graph is connected.
        """
        return self.edge_count - self.n + 1

    def edges(self):
        """Edge ids (color, black endpoint) in lexicographic order."""
        return _edge_ids(self.d, self.p)


@lru_cache(maxsize=None)
def _edge_ids(d, p):
    return tuple((c, k) for c in range(d + 1) for k in range(p))


def build_graph(d, n, images):
    """Validate the encoding and return a ColoredGraph.

    images is a sequence of d+1 sequences of ints, one per color in order.
    """
    if not (MIN_DIMENSION <= d <= MAX_DIMENSION):
        raise BadDimension("dimension %r outside [%d, %d]" % (d, MIN_DIMENSION, MAX_DIMENSION))
    if n < 2 or n % 2:
        raise BadOrder("order %r is not an even number >= 2" % (n,))
    p = n // 2
    if len(images) != d + 1:
        raise NonBijective("expected %d color maps, got %d" % (d + 1, len(images)))
    sigma = []
    for c, img in enumerate(images):
        img = tuple(int(v) for v in img)
        if len(img) != p or set(img) != set(range(p)):
            raise NonBijective("color %d map is not a bijection on 0..%d" % (c, p - 1))
        sigma.append(img)
    return ColoredGraph(d, n, tuple(sigma))


def is_connected(graph):
    """Union-find over the n vertices; blacks are 0..p-1, whites p..2p-1."""
    p = graph.p
    parent = list(range(2 * p))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sig in graph.sigma:
        for k in range(p):
            a, b = find(k), find(p + sig[k])
            if a != b:
                parent[a] = b
    root = find(0)
    return all(find(v) == root for v in range(2 * p))


@dataclass(frozen=True)
class Face:
    """One face: the colors {i, j} it alternates between and the cyclic
    sequence of black indices it visits."""

    colors: tuple
    blacks: tuple

    @property
    def length(self):
        """Number of edges on the face, twice the black cycle length."""
        return 2 * len(self.blacks)


@dataclass
class FaceCensus:
    """All faces of a graph, grouped per color pair.

    count_by_pair maps each pair (i, j) to its face count, with the pairs
    in lexicographic order.  Immutable by convention once built; safe to
    share across threads.
    """

    faces: tuple
    count_by_pair: dict = field(repr=False)
    total: int


def pair_cycles(sigma):
    """Faces of every color pair (i, j), i < j, in lexicographic order: a
    list of ((i, j), the cycles of sigma[j]^-1 sigma[i] on black indices).
    No pair has j = 0, so the inverse of color 0 is never needed."""
    inv = [None] + [inverse(sig) for sig in sigma[1:]]
    out = []
    for i, si in enumerate(sigma):
        for j in range(i + 1, len(sigma)):
            out.append(((i, j), cycles(list(map(inv[j].__getitem__, si)))))
    return out


def enumerate_faces(graph):
    """Decompose every pair of colors into faces.

    For the pair (i, j) with i < j the faces are the cycles of
    sigma[j]^-1 sigma[i] on black indices; the cycle lengths of that
    permutation sum to p for every pair, and the total face count over all
    d(d+1)/2 pairs is |F|.  Faces and count_by_pair both follow the
    lexicographic pair order of pair_cycles.
    """
    faces = []
    count_by_pair = {}
    for pair, cycs in pair_cycles(graph.sigma):
        faces.extend(Face(pair, cyc) for cyc in cycs)
        count_by_pair[pair] = len(cycs)
    return FaceCensus(tuple(faces), count_by_pair, len(faces))


def format_graph(graph):
    """Serialize to the on-disk text form (trailing newline, LF endings)."""
    lines = ["d=%d n=%d" % (graph.d, graph.n)]
    for c, sig in enumerate(graph.sigma):
        lines.append("%d: %s" % (c, " ".join(str(v) for v in sig)))
    return "\n".join(lines) + "\n"


def parse_graph(text):
    """Parse the text form produced by format_graph.

    Line 1 is ``d=<d> n=<n>``; lines 2..d+2 are ``<c>: <images>`` with the
    colors in order 0..d.  Anything else (trailing garbage, repeated or
    out-of-order colors, wrong counts) raises FormatError with the line
    number.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty input", 1)
    head = lines[0].split(" ")
    if len(head) != 2 or not head[0].startswith("d=") or not head[1].startswith("n="):
        raise FormatError("expected header 'd=<d> n=<n>'", 1)
    try:
        d = int(head[0][2:])
        n = int(head[1][2:])
    except ValueError:
        raise FormatError("expected header 'd=<d> n=<n>'", 1) from None
    if len(lines) < d + 2:
        raise FormatError("expected %d color lines, found %d" % (d + 1, len(lines) - 1),
                          len(lines) + 1)
    if len(lines) > d + 2:
        raise FormatError("trailing garbage after color %d" % d, d + 3)
    p = n // 2
    images = []
    for c in range(d + 1):
        lineno = c + 2
        line = lines[c + 1]
        label, sep, rest = line.partition(": ")
        if not sep:
            raise FormatError("expected '<color>: <images>'", lineno)
        if label != str(c):
            raise FormatError("expected color %d, found %r" % (c, label), lineno)
        parts = rest.split(" ")
        if "" in parts:
            raise FormatError("malformed image list", lineno)
        try:
            img = [int(v) for v in parts]
        except ValueError:
            raise FormatError("non-integer image", lineno) from None
        if len(img) != p:
            raise FormatError("expected %d images, found %d" % (p, len(img)), lineno)
        images.append(img)
    return build_graph(d, n, images)
