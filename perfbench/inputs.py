"""Seeded inputs for the benchmark workloads.

The generators here are independent of chromon: a complex is a list of
vertex-label tuples and a relabeling is a plain permutation tuple, so the
program under test only ever sees the text files and graphs built from
them.  Every answer the workloads check is invariant under the
relabelings, which is why one set of pinned values serves every seed.
"""

from itertools import combinations


def cyclic_polytope_boundary(v):
    """Facets of the cyclic 4-polytope on v vertices, by Gale's evenness rule.

    A 4-subset S of 0..v-1 is a facet exactly when every two vertices
    outside S are separated by an even number of members of S.  The
    boundary is a simplicial 3-sphere with v(v-3)/2 tetrahedra.
    """
    if v < 5:
        raise ValueError("a cyclic 4-polytope needs at least 5 vertices")
    facets = []
    for subset in combinations(range(v), 4):
        members = set(subset)
        outside = [u for u in range(v) if u not in members]
        if all(sum(1 for s in subset if a < s < b) % 2 == 0
               for a, b in zip(outside, outside[1:])):
            facets.append(subset)
    return facets


def simplex_boundary(d):
    """Top simplices of the boundary of the (d+1)-simplex, a d-sphere with
    d+2 facets."""
    return list(combinations(range(d + 2), d + 1))


def random_perm(rng, p):
    perm = list(range(p))
    rng.shuffle(perm)
    return tuple(perm)


def relabel_complex(simplices, rng):
    """Rename the vertices by a random bijection and shuffle both the
    simplex order and the vertex order inside each simplex."""
    labels = sorted({u for simplex in simplices for u in simplex})
    image = dict(zip(labels, random_perm(rng, len(labels))))
    out = []
    for simplex in simplices:
        verts = [image[u] for u in simplex]
        rng.shuffle(verts)
        out.append(tuple(verts))
    rng.shuffle(out)
    return out


def complex_text(d, simplices):
    """The ``d=<d> m=<count>`` file format that ``chromon subdivide`` reads."""
    lines = ["d=%d m=%d" % (d, len(simplices))]
    lines.extend(" ".join(str(u) for u in simplex) for simplex in simplices)
    return "\n".join(lines) + "\n"


def conjugate_sigma(sigma, t):
    """Relabel black and white vertex k as t[k] in both classes: each color
    map becomes t sigma_c t^-1, so the identity color stays the identity."""
    out = []
    for sig in sigma:
        img = [0] * len(sig)
        for k, w in enumerate(sig):
            img[t[k]] = t[w]
        out.append(tuple(img))
    return tuple(out)
