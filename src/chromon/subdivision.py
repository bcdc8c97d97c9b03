"""Colored graphs from barycentric subdivision of closed complexes.

A flag of a d-complex is a simplex together with an ordering of its d+1
vertices, i.e. a maximal chain of faces.  Flags are the vertices of the
colored graph.  For k < d, the color-k neighbor of a flag swaps the
vertices in slots k and k+1 of the ordering; the color-d neighbor keeps
the ordered first d vertices and crosses into the unique other simplex
sharing that facet, putting its remaining vertex last.  Each simplex
contributes (d+1)! flags, so the graph has (d+1)! times as many vertices
as the complex has top simplices.

The black/white classes are found by 2-coloring the flag graph breadth
first, flag (simplex 0, identity ordering) being black.  Within one
simplex this coloring is the permutation parity of the ordering, up to a
per-simplex sign fixed by the facet gluings; a complex whose gluings force
an odd identification has no consistent 2-coloring and is rejected with
NotBipartite, which is exactly the non-orientable case.
"""

from collections import deque
from dataclasses import dataclass
from math import factorial

from .errors import (BadDimension, DegenerateSimplex, FormatError, NotBipartite,
                     NotClosed, NotConnected)
from .graphs import MAX_DIMENSION, MIN_DIMENSION, build_graph, is_connected
from .perms import all_perms


@dataclass(frozen=True)
class SimplicialComplex:
    """A pure d-complex given by its top simplices.

    Each simplex is stored as the sorted tuple of its vertex labels; the
    sorted order is the reference ordering that flags permute.
    """

    d: int
    simplices: tuple


def build_complex(d, simplices):
    """Validate closedness and facet-connectivity, then freeze the complex."""
    if not (MIN_DIMENSION <= d <= MAX_DIMENSION):
        raise BadDimension("dimension %r outside [%d, %d]" % (d, MIN_DIMENSION, MAX_DIMENSION))
    sorted_simplices = []
    for s, simplex in enumerate(simplices):
        verts = tuple(sorted(int(v) for v in simplex))
        if len(verts) != d + 1:
            raise DegenerateSimplex("simplex %d has %d vertices, expected %d"
                                    % (s, len(verts), d + 1))
        if len(set(verts)) != d + 1:
            raise DegenerateSimplex("simplex %d repeats a vertex" % s)
        sorted_simplices.append(verts)
    cofaces = {}
    for s, verts in enumerate(sorted_simplices):
        for i in range(d + 1):
            facet = verts[:i] + verts[i + 1:]
            cofaces.setdefault(facet, []).append((s, i))
    for facet, owners in cofaces.items():
        if len(owners) != 2:
            raise NotClosed("facet %s lies in %d simplices, expected 2"
                            % (list(facet), len(owners)))
    adjacency = [[] for _ in sorted_simplices]
    for owners in cofaces.values():
        (a, _), (b, _) = owners
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = [False] * len(sorted_simplices)
    seen[0] = True
    queue = deque([0])
    while queue:
        s = queue.popleft()
        for t in adjacency[s]:
            if not seen[t]:
                seen[t] = True
                queue.append(t)
    if not all(seen):
        raise NotConnected("complex is not connected through shared facets")
    return SimplicialComplex(d, tuple(sorted_simplices))


def barycentric_colorize(complex_):
    """Colored graph of the barycentric subdivision, dimension preserved."""
    d = complex_.d
    simplices = complex_.simplices
    m = len(simplices)
    perms = all_perms(d + 1)
    perm_index = {pi: i for i, pi in enumerate(perms)}
    fact = factorial(d + 1)

    cofaces = {}
    for s, verts in enumerate(simplices):
        for i in range(d + 1):
            cofaces.setdefault(verts[:i] + verts[i + 1:], []).append((s, i))
    position = [{v: i for i, v in enumerate(verts)} for verts in simplices]

    def neighbor(flag, color):
        s, pi = flag
        if color < d:
            swapped = list(pi)
            swapped[color], swapped[color + 1] = swapped[color + 1], swapped[color]
            return (s, tuple(swapped))
        verts = simplices[s]
        facet = tuple(sorted(verts[i] for i in pi[:d]))
        (a, ai), (b, bi) = cofaces[facet]
        s2, missing = (b, bi) if a == s else (a, ai)
        pos2 = position[s2]
        new_pi = tuple(pos2[verts[i]] for i in pi[:d]) + (missing,)
        return (s2, new_pi)

    # 2-color all flags breadth first; a conflict means the gluings are
    # orientation-reversing somewhere and no bipartition exists.
    color_of = {}
    start = (0, perms[0])
    color_of[start] = 0
    queue = deque([start])
    while queue:
        flag = queue.popleft()
        side = color_of[flag]
        for c in range(d + 1):
            other = neighbor(flag, c)
            known = color_of.get(other)
            if known is None:
                color_of[other] = 1 - side
                queue.append(other)
            elif known == side:
                raise NotBipartite("flag graph has an odd cycle")
    if len(color_of) != m * fact:
        raise NotConnected("flag graph does not reach every flag")

    blacks = sorted((s, pi) for (s, pi), side in color_of.items() if side == 0)
    whites = sorted((s, pi) for (s, pi), side in color_of.items() if side == 1)
    if len(blacks) != len(whites):
        raise NotBipartite("unequal black and white flag counts")
    black_id = {flag: i for i, flag in enumerate(blacks)}
    white_id = {flag: i for i, flag in enumerate(whites)}
    images = []
    for c in range(d + 1):
        img = [0] * len(blacks)
        for flag, i in black_id.items():
            img[i] = white_id[neighbor(flag, c)]
        images.append(img)
    graph = build_graph(d, m * fact, images)
    if not is_connected(graph):
        raise NotConnected("subdivision graph came out disconnected")
    return graph


def format_complex(complex_):
    lines = ["d=%d m=%d" % (complex_.d, len(complex_.simplices))]
    for verts in complex_.simplices:
        lines.append(" ".join(str(v) for v in verts))
    return "\n".join(lines) + "\n"


def parse_complex(text):
    """Parse ``d=<d> m=<count>`` plus one line of d+1 vertex labels per
    simplex.  Wrong counts and trailing garbage raise FormatError with the
    line number."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty input", 1)
    head = lines[0].split(" ")
    if len(head) != 2 or not head[0].startswith("d=") or not head[1].startswith("m="):
        raise FormatError("expected header 'd=<d> m=<count>'", 1)
    try:
        d = int(head[0][2:])
        m = int(head[1][2:])
    except ValueError:
        raise FormatError("expected header 'd=<d> m=<count>'", 1) from None
    if len(lines) < m + 1:
        raise FormatError("expected %d simplex lines, found %d" % (m, len(lines) - 1),
                          len(lines) + 1)
    if len(lines) > m + 1:
        raise FormatError("trailing garbage after simplex %d" % (m - 1), m + 2)
    simplices = []
    for idx in range(m):
        lineno = idx + 2
        parts = lines[idx + 1].split(" ")
        if "" in parts:
            raise FormatError("malformed vertex list", lineno)
        try:
            verts = [int(v) for v in parts]
        except ValueError:
            raise FormatError("non-integer vertex label", lineno) from None
        if len(verts) != d + 1:
            raise FormatError("expected %d vertices, found %d" % (d + 1, len(verts)),
                              lineno)
        simplices.append(verts)
    return build_complex(d, simplices)
