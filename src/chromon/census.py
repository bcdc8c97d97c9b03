"""Exhaustive censuses of connected colored graphs at fixed (d, n).

The labeled universe gauge-fixes sigma[0] to the identity and lets the d
remaining colors range over all permutations of the p = n/2 black indices,
giving (p!)^d tuples; such a graph is connected exactly when the group
generated by sigma[1..d] is transitive.  Relabeling the indices acts on
tuples by simultaneous conjugation and leaves every tabulated quantity
unchanged (connectivity, face counts per pair, jacket genera, degree,
homology ranks and invariant factors).

run_census exploits that: it walks one representative per conjugation
orbit and, in labeled mode, weights it by its orbit size p!/|stabilizer|;
canonical mode weights every orbit once.  Representatives are greedy
lexicographic minima: sigma[1] least in its conjugacy class (a cycle-type
representative), sigma[2] least under the centralizer of sigma[1], and so
on down the stabilizer chain, which is exactly the least image tuple of
the orbit.  Orbit-stabilizer makes the labeled weights exact, so the
tables equal what a full per-tuple sweep would produce, at roughly the
number-of-classes cost instead of (p!)^d.

Each connected representative is analyzed from the same per-graph pieces
that analysis.analyze_graph uses (graphs.pair_cycles, jackets and
homology), so the two paths share every check.  A failed check raises
InvariantViolation carrying the graph, which the CLI turns into exit code
2 and a counterexample file.

Parallel runs split the orbit walk into (sigma[1], sigma[2]) blocks and
merge the per-block tables in a fixed order, so every worker count yields
identical tables.
"""

import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial

from .errors import (BadDimension, BadOrder, BudgetExceeded, InternalMismatch,
                     InvariantViolation)
from .graphs import (MAX_DIMENSION, MIN_DIMENSION, ColoredGraph, format_graph,
                     pair_cycles)
from .homology import (checked_invariant_factors, column_map, drop_columns,
                       face_row, gauge_checked_rank, spanning_tree)
from .jackets import (checked_degree, jackets_from_counts, min_genus_bound,
                      trivial_homology_degree_bound)
# cycles is not called here; perfbench's tests look up census.cycles.
from .perms import (all_perms, centralizer, conjugacy_class_reps, conjugate,
                    cycles, identity)

DEFAULT_BUDGET = 10 ** 9


def tuple_count(d, n):
    """Size (p!)^d of the labeled universe at order n."""
    return factorial(n // 2) ** d


def _validate_order(d, n):
    if not (MIN_DIMENSION <= d <= MAX_DIMENSION):
        raise BadDimension("dimension %r outside [%d, %d]" % (d, MIN_DIMENSION, MAX_DIMENSION))
    if n < 2 or n % 2:
        raise BadOrder("order %r is not an even number >= 2" % (n,))


def check_budget(d, n, budget=None):
    if budget is None:
        budget = DEFAULT_BUDGET
    size = tuple_count(d, n)
    if size > budget:
        raise BudgetExceeded("order %d needs %d tuples, budget is %d"
                             % (n, size, budget))


def _transitive(rest, p):
    if p == 1:
        return True
    seen = [False] * p
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        k = stack.pop()
        for sig in rest:
            v = sig[k]
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == p


def enumerate_connected(d, n, mode="labeled", budget=None):
    """Stream the census universe in deterministic lexicographic order.

    labeled: every connected tuple with sigma[0] = identity.  canonical:
    only tuples that are the least image tuple of their conjugation orbit.
    """
    _validate_order(d, n)
    check_budget(d, n, budget)
    if mode not in ("labeled", "canonical"):
        raise ValueError("mode must be 'labeled' or 'canonical'")
    p = n // 2
    perms = all_perms(p)
    idp = identity(p)
    others = tuple(t for t in perms if t != idp)
    for rest in product(perms, repeat=d):
        if not _transitive(rest, p):
            continue
        if mode == "canonical":
            least = True
            for t in others:
                if tuple(conjugate(t, sig) for sig in rest) < rest:
                    least = False
                    break
            if not least:
                continue
        yield ColoredGraph(d, n, (idp,) + rest)


def _prefix_reps(stab, levels, p):
    """Greedy orbit representatives for the next `levels` coordinates.

    Yields (prefix, stabilizer) with the stabilizer of the whole prefix
    inside the given group.  When the group is all of S_p the minima per
    orbit are the cycle-type representatives and their stabilizers the
    centralizers, so no scan is needed.
    """
    if levels == 0:
        yield ((), tuple(stab))
        return
    if len(stab) == factorial(p):
        for rep in conjugacy_class_reps(p):
            cent = centralizer(rep)
            for suffix, rest_stab in _prefix_reps(cent, levels - 1, p):
                yield ((rep,) + suffix, rest_stab)
        return
    idp = identity(p)
    for cand in all_perms(p):
        new_stab = [idp]
        least = True
        for z in stab:
            if z == idp:
                continue
            moved = conjugate(z, cand)
            if moved < cand:
                least = False
                break
            if moved == cand:
                new_stab.append(z)
        if not least:
            continue
        for suffix, rest_stab in _prefix_reps(new_stab, levels - 1, p):
            yield ((cand,) + suffix, rest_stab)


@dataclass
class CensusTable:
    """Aggregate counts for one (d, n, mode)."""

    d: int
    n: int
    mode: str
    total_connected: int = 0
    h1q_trivial: int = 0
    h1z_trivial: int = 0
    degree_histogram: dict = field(default_factory=dict)
    min_genus_histogram: dict = field(default_factory=dict)

    @property
    def sphere_fraction(self):
        if self.total_connected == 0:
            return Fraction(0, 1)
        return Fraction(self.h1q_trivial, self.total_connected)

    def _add(self, omega, min_g, h1q, h1z, weight):
        self.total_connected += weight
        if h1q:
            self.h1q_trivial += weight
        if h1z:
            self.h1z_trivial += weight
        hist = self.degree_histogram
        hist[omega] = hist.get(omega, 0) + weight
        hist = self.min_genus_histogram
        hist[min_g] = hist.get(min_g, 0) + weight

    def merge(self, other):
        if (self.d, self.n, self.mode) != (other.d, other.n, other.mode):
            raise InternalMismatch("merging census tables of different runs")
        self.total_connected += other.total_connected
        self.h1q_trivial += other.h1q_trivial
        self.h1z_trivial += other.h1z_trivial
        for key, cnt in other.degree_histogram.items():
            self.degree_histogram[key] = self.degree_histogram.get(key, 0) + cnt
        for key, cnt in other.min_genus_histogram.items():
            self.min_genus_histogram[key] = self.min_genus_histogram.get(key, 0) + cnt

    def selfcheck(self):
        ok = (0 <= self.h1z_trivial <= self.h1q_trivial <= self.total_connected
              and sum(self.degree_histogram.values()) == self.total_connected
              and sum(self.min_genus_histogram.values()) == self.total_connected)
        if not ok:
            raise InternalMismatch("inconsistent census table at n=%d" % self.n)


class _OrderAnalyzer:
    """The per-class analysis of one order: a composition of the per-graph
    pieces that analyze_graph uses too.

    analyze() returns (degree, min_genus, h1q, h1z) for a connected class
    and None for a disconnected one.  Every check it reaches (jacket genus
    range, the degree identity both ways, the gauge rank equality, the
    invariant-factor count, and the two homology-trivial bounds) raises
    InternalMismatch, which it turns into an InvariantViolation carrying
    the class as a graph file.
    """

    def __init__(self, d, n):
        self.d = d
        self.n = n
        self.p = n // 2
        self.idp = identity(self.p)

    def analyze(self, rest):
        d, n, p = self.d, self.n, self.p
        if not _transitive(rest, p):
            return None
        graph = ColoredGraph(d, n, (self.idp,) + rest)
        try:
            faces = pair_cycles(graph.sigma)
            counts = [len(cycs) for _, cycs in faces]
            omega, min_g = checked_degree(d, n, jackets_from_counts(d, n, counts),
                                          sum(counts))
            full = [face_row(i, j, cyc, p) for (i, j), cycs in faces for cyc in cycs]
            reduced = drop_columns(full, column_map(graph.edges(), spanning_tree(graph)))
            rank = gauge_checked_rank(full, reduced)
            h1q = rank == graph.nullity
            h1z = False
            if h1q:
                factors = checked_invariant_factors(reduced, rank)
                h1z = all(f == 1 for f in factors)
                if min_g > min_genus_bound(d, n):
                    raise InternalMismatch("homology-trivial graph breaks the min-genus bound")
                if omega > trivial_homology_degree_bound(d, n):
                    raise InternalMismatch("homology-trivial graph breaks the degree bound")
        except InternalMismatch as exc:
            raise InvariantViolation(str(exc), format_graph(graph)) from exc
        return (omega, min_g, h1q, h1z)


def _process_block(payload):
    """One (prefix, stabilizer) block; top level so worker processes can
    receive it."""
    d, n, mode, prefix, stab = payload
    p = n // 2
    analyzer = _OrderAnalyzer(d, n)
    table = CensusTable(d, n, mode)
    order = factorial(p)
    labeled = mode == "labeled"
    for suffix, final_stab in _prefix_reps(stab, d - len(prefix), p):
        rest = prefix + suffix
        stats = analyzer.analyze(rest)
        if stats is None:
            continue
        weight = order // len(final_stab) if labeled else 1
        table._add(*stats, weight)
    return table


def census_for_order(d, n, mode="labeled", workers=1, budget=None):
    """Census table for a single order."""
    _validate_order(d, n)
    check_budget(d, n, budget)
    if mode not in ("labeled", "canonical"):
        raise ValueError("mode must be 'labeled' or 'canonical'")
    p = n // 2
    depth = min(2, d)
    payloads = [(d, n, mode, prefix, stab)
                for prefix, stab in _prefix_reps(all_perms(p), depth, p)]
    table = CensusTable(d, n, mode)
    if workers <= 1 or len(payloads) <= 1:
        for payload in payloads:
            table.merge(_process_block(payload))
    else:
        import multiprocessing

        chunk = max(1, len(payloads) // (workers * 16))
        with multiprocessing.Pool(workers) as pool:
            for part in pool.imap(_process_block, payloads, chunksize=chunk):
                table.merge(part)
    table.selfcheck()
    return table


def run_census(d, n_max, mode="labeled", parallelism=1, budget=None):
    """Tables for every even order 2..n_max, deterministic for any worker
    count.  The budget is checked for all orders up front so an oversized
    request fails before any work is done."""
    _validate_order(d, 2)
    if n_max < 2 or n_max % 2:
        raise BadOrder("order limit %r is not an even number >= 2" % (n_max,))
    orders = list(range(2, n_max + 1, 2))
    for n in orders:
        check_budget(d, n, budget)
    return [census_for_order(d, n, mode, workers=parallelism, budget=budget)
            for n in orders]


CENSUS_CSV = "census.csv"
DEGREE_CSV = "degree_histogram.csv"
MIN_GENUS_CSV = "min_genus_histogram.csv"


def write_tables(tables, out_dir):
    """Write the three CSV products; returns their paths.

    Every value is a base-10 integer; the sphere fraction is written as an
    exact reduced numerator and denominator.  Each CSV is first written
    to a temporary file in out_dir, and only when all three are complete
    do they replace the targets, so an error while writing leaves the
    earlier files as they were and no temporary file behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    census_lines = ["d,n,mode,total_connected,h1q_trivial,h1z_trivial,"
                    "sphere_fraction_num,sphere_fraction_den\n"]
    degree_lines = ["d,n,degree,count\n"]
    genus_lines = ["d,n,min_genus,count\n"]
    for t in tables:
        frac = t.sphere_fraction
        census_lines.append("%d,%d,%s,%d,%d,%d,%d,%d\n" % (
            t.d, t.n, t.mode, t.total_connected, t.h1q_trivial,
            t.h1z_trivial, frac.numerator, frac.denominator))
        for key in sorted(t.degree_histogram):
            degree_lines.append("%d,%d,%d,%d\n" % (t.d, t.n, key, t.degree_histogram[key]))
        for key in sorted(t.min_genus_histogram):
            genus_lines.append("%d,%d,%d,%d\n" % (t.d, t.n, key, t.min_genus_histogram[key]))
    products = ((CENSUS_CSV, census_lines), (DEGREE_CSV, degree_lines),
                (MIN_GENUS_CSV, genus_lines))
    paths = [os.path.join(out_dir, name) for name, _ in products]
    temps = []
    try:
        for name, lines in products:
            fd, temp = tempfile.mkstemp(prefix="." + name + ".", dir=out_dir)
            temps.append(temp)
            with os.fdopen(fd, "w", newline="") as fh:
                fh.writelines(lines)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
    return paths
