"""Jackets, genus, degree, and the minimum-genus bound.

A jacket is a cyclic order of the d+1 colors up to rotation and reversal;
there are d!/2 of them.  Keeping only the faces whose color pair is
adjacent in the cycle turns the graph into a ribbon graph whose genus
follows from the Euler relation n - |E| + F_J = 2 - 2g.  The degree of a
graph is the sum of its jacket genera.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from typing import NamedTuple

from .errors import Disconnected, InternalMismatch
from .graphs import is_connected


def color_cycles(d):
    """Canonical cyclic color orders, lexicographically sorted.

    The canonical form of a cycle is the lexicographically least of its
    rotations and reversals.  Starting at color 0 kills rotations, and for
    the two remaining directions the smaller one has its second entry
    smaller than its last, so exactly the sequences (0, r_1, ..., r_d)
    with r_1 < r_d are canonical: d!/2 of them.
    """
    return [(0,) + rest for rest in permutations(range(1, d + 1)) if rest[0] < rest[-1]]


def canonical_cycle(cycle):
    """Canonical form of an arbitrary cyclic color order."""
    k = cycle.index(0)
    forward = cycle[k:] + cycle[:k]
    rev = tuple(reversed(cycle))
    k = rev.index(0)
    backward = rev[k:] + rev[:k]
    return min(forward, backward)


def adjacent_pairs(cycle):
    """The d+1 unordered color pairs that are cyclically adjacent."""
    out = []
    for t, c in enumerate(cycle):
        nxt = cycle[(t + 1) % len(cycle)]
        out.append((c, nxt) if c < nxt else (nxt, c))
    return out


class Jacket(NamedTuple):
    """One jacket: canonical color cycle, kept-face count, genus."""

    cycle: tuple
    face_count: int
    genus: int


def jacket_genus(d, n, face_count):
    """Genus from the Euler relation; the count |E| = n(d+1)/2 is fixed, so
    2 - 2g = n - n(d+1)/2 + F_J, i.e. 4g = 4 + (d-1)n - 2 F_J.  A genus
    that is negative, fractional or above max_genus (which happens only
    for F_J = 0) raises InternalMismatch."""
    num = 4 + (d - 1) * n - 2 * face_count
    if num < 0 or num % 4 or num // 4 > max_genus(d, n):
        raise InternalMismatch(
            "jacket face count %d gives no integer genus in [0, max_genus] at d=%d n=%d"
            % (face_count, d, n))
    return num // 4


def max_genus(d, n):
    """Largest genus any jacket of an order-n graph can have,
    floor((2 + n(d-1)) / 4)."""
    return (2 + n * (d - 1)) // 4


@lru_cache(maxsize=None)
def _jacket_pair_positions(d):
    """Per canonical cycle, the positions of its adjacent pairs in the
    lexicographic list of color pairs."""
    position = {pair: t for t, pair in enumerate(combinations(range(d + 1), 2))}
    return tuple((cyc, tuple(position[pair] for pair in adjacent_pairs(cyc)))
                 for cyc in color_cycles(d))


def jackets_from_counts(d, n, pair_counts):
    """(cycle, F_J, genus) of every jacket, in canonical cycle order, from
    the face counts of the color pairs listed in lexicographic order (as
    graphs.pair_cycles yields them)."""
    out = []
    for cyc, positions in _jacket_pair_positions(d):
        fj = 0
        for t in positions:
            fj += pair_counts[t]
        out.append((cyc, fj, jacket_genus(d, n, fj)))
    return out


def enumerate_jackets(graph, faces):
    """All d!/2 jackets of a connected graph, in canonical cycle order."""
    if not is_connected(graph):
        raise Disconnected("jacket genus needs a connected graph")
    counts = list(faces.count_by_pair.values())
    return [Jacket(*jk) for jk in jackets_from_counts(graph.d, graph.n, counts)]


def checked_degree(d, n, jackets, face_total):
    """Degree (sum of the genera) and minimum genus of the (cycle, F_J,
    genus) jackets of a graph with |F| = face_total, checked in integers:
    the F_J must sum to (d-1)! |F|, and 8 * degree must equal
    (d-1)! (4d + d(d-1)n - 4|F|); InternalMismatch otherwise."""
    fact = factorial(d - 1)
    fj_sum = 0
    genera = []
    for _, face_count, genus in jackets:
        fj_sum += face_count
        genera.append(genus)
    total = sum(genera)
    if fj_sum != fact * face_total:
        raise InternalMismatch("jacket face total %d is not (d-1)! |F| = %d"
                               % (fj_sum, fact * face_total))
    closed8 = fact * (4 * d + d * (d - 1) * n - 4 * face_total)
    if 8 * total != closed8:
        raise InternalMismatch("degree mismatch: jacket sum %d vs closed form %d/8"
                               % (total, closed8))
    return total, min(genera)


@dataclass(frozen=True)
class DegreeReport:
    """Degree of a graph together with the per-jacket genera.

    degree_sum adds the jacket genera.  degree() checks it against the
    closed form (d-1)! (d/2 + d(d-1)n/8 - |F|/2) and raises
    InternalMismatch on any difference, so a stored report is consistent.
    """

    genera: tuple
    degree_sum: int
    min_genus: int
    min_genus_bound: Fraction


def degree(graph, jackets, faces):
    """The degree as the sum of the jacket genera, checked against its
    closed form."""
    d, n = graph.d, graph.n
    total, min_genus = checked_degree(d, n, jackets, faces.total)
    return DegreeReport(
        genera=tuple((j.cycle, j.genus) for j in jackets),
        degree_sum=total,
        min_genus=min_genus,
        min_genus_bound=min_genus_bound(d, n),
    )


@lru_cache(maxsize=None)
def min_genus_bound(d, n):
    """The exact rational (d-1)/d (1 + (d-2)n/4) that the minimum jacket
    genus cannot exceed whenever the first homology vanishes over Q."""
    return Fraction(d - 1, d) * (1 + Fraction((d - 2) * n, 4))


def check_min_genus_bound(report, homology_trivial):
    """True unless a rationally homology-trivial graph has every jacket
    genus above the bound."""
    if not homology_trivial:
        return True
    return report.min_genus <= report.min_genus_bound


@lru_cache(maxsize=None)
def trivial_homology_degree_bound(d, n):
    """Upper bound (d-1)! ((d-1)/2 + (d-1)(d-2)n/8) on the degree of a
    graph whose first homology vanishes over Q, as an exact rational."""
    return factorial(d - 1) * (
        Fraction(d - 1, 2) + Fraction((d - 1) * (d - 2) * n, 8))
