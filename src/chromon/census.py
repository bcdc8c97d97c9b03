"""Exhaustive censuses of connected colored graphs at fixed (d, n).

The labeled universe gauge-fixes sigma[0] to the identity and lets the d
remaining colors range over all permutations of the p = n/2 black indices,
giving (p!)^d tuples; such a graph is connected exactly when the group
generated by sigma[1..d] is transitive.  Two actions leave every tabulated
quantity unchanged (connectivity, the degree, which sums over all jackets,
the minimum jacket genus, and first homology over Q and Z): relabeling the
indices, which conjugates the tuple, and permuting the d+1 colors.  A color
permutation pi is re-gauged so that color 0 stays the identity, mapping
the tuple to tau_c = sigma[pi(0)]^-1 sigma[pi(c)]; it commutes with
conjugation, so S_p x S_{d+1} acts on the universe.

run_census analyzes one graph per S_p x S_{d+1} orbit.  It walks one
representative per conjugation orbit, together with its stabilizer in S_p.
Representatives are greedy lexicographic minima: sigma[1] least in its
conjugacy class (a cycle-type representative), sigma[2] least under the
centralizer of sigma[1], and so on down the stabilizer chain, which is
exactly the least image tuple of the orbit.  Of the representatives of one
combined orbit only the leader is analyzed: the one whose class is least
under the color permutations, ordered first by the face-length multisets
of the color pairs and then by breadth-first codes (isomorph rejection as
in McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
The (pi, root) pairs that attain the leader's least code number its
stabilizer Stab in S_p x S_{d+1}, and orbit-stabilizer weights it exactly:
p!(d+1)!/|Stab| labeled tuples in labeled mode, (d+1)!/|image of Stab in
S_{d+1}| conjugation classes in canonical mode.  The tables still count
colors as distinguishable and equal what a full per-tuple sweep would
produce.

Each leader is analyzed from the same per-graph pieces that
analysis.analyze_graph uses (graphs.pair_cycles, jackets and homology), so
the two paths share every check; the leader test adds that the roots
attaining the least code number the walk's stabilizer and that both
weights divide exactly.  A failed check raises InvariantViolation carrying
the graph, which the CLI turns into exit code 2 and a counterexample file.

The orbit walk is split into (sigma[1], sigma[2]) blocks.  run_census
lists the blocks of every order, runs them serially or over one process
pool, and merges the per-block tables in list order, so every worker count
yields identical tables.
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
                    cycles, identity, inverse)

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


def _color_ties(lengths, d):
    """Color permutations that tie the identity on the face-length invariant.

    lengths[a][b] ranks the face-length multiset of the color pair {a, b}.
    A color permutation pi gives the pair (i, k) the multiset of
    {pi(i), pi(k)}, and the invariant lists the pairs ordered by their
    larger color k, so fixing pi(k) settles the whole block of pairs
    (i, k), i < k.  The search extends pi one color at a time: it returns
    None as soon as some candidate makes a block smaller than the
    identity's, drops candidates that make it larger, and otherwise
    returns every pi (a tuple pi(0..d), the identity first) whose
    invariant equals the identity's.
    """
    target = [tuple(lengths[k][:k]) for k in range(d + 1)]
    ties = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        k = len(prefix)
        if k > d:
            ties.append(prefix)
            continue
        want = target[k]
        tied = []
        for c in range(d + 1):
            if c in prefix:
                continue
            block = tuple(map(lengths[c].__getitem__, prefix))
            if block < want:
                return None
            if block == want:
                tied.append(c)
        stack.extend(prefix + (c,) for c in reversed(tied))
    return ties


def _bfs_code(perms, root, p):
    """Breadth-first code of a transitive tuple of permutations from a
    root: vertices are labeled in the order a walk from the root meets
    them, trying the permutations in order, and the code lists the label
    of perms[c][v] for every labeled v and every c.  Two tuples have equal
    codes from some roots exactly when a relabeling maps one to the other
    and root to root."""
    label = [-1] * p
    label[root] = 0
    order = [root]
    code = []
    for v in order:
        for sig in perms:
            w = sig[v]
            if label[w] < 0:
                label[w] = len(order)
                order.append(w)
            code.append(label[w])
    return code


class _OrderAnalyzer:
    """The per-class analysis of one order: a leader test over the color
    permutations, then a composition of the per-graph pieces that
    analyze_graph uses too.

    analyze() returns None for a disconnected class and for one that is
    not the leader of its S_p x S_{d+1} orbit.  For a leader it returns
    (degree, min_genus, h1q, h1z, |Stab|, |image of Stab in S_{d+1}|).
    Every check it reaches (jacket genus range, the degree identity both
    ways, the gauge rank equality, the invariant-factor count, the two
    homology-trivial bounds, the root count against the walk's stabilizer
    and the exact division of both weights) raises InternalMismatch, which
    it turns into an InvariantViolation carrying the class as a graph
    file.
    """

    def __init__(self, d, n):
        self.d = d
        self.n = n
        self.p = n // 2
        self.idp = identity(self.p)

    def analyze(self, rest, stab_size):
        """Analyze the walk's representative rest = (sigma[1..d]), whose
        stabilizer under conjugation has stab_size elements."""
        d, n, p = self.d, self.n, self.p
        if not _transitive(rest, p):
            return None
        graph = ColoredGraph(d, n, (self.idp,) + rest)
        try:
            faces = pair_cycles(graph.sigma)
            stabilizer = self._leader_stabilizer(graph.sigma, faces, stab_size)
            if stabilizer is None:
                return None
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
        return (omega, min_g, h1q, h1z) + stabilizer

    def _leader_stabilizer(self, sigma, faces, stab_size):
        """None unless the class is the least of its S_p x S_{d+1} orbit;
        else (|Stab|, |image of Stab in S_{d+1}|).

        A color permutation pi, re-gauged so that color 0 stays the
        identity, maps the class to (tau_1..tau_d) with tau_c =
        sigma[pi(0)]^-1 sigma[pi(c)].  Classes are ordered by the
        face-length invariant and then by the least breadth-first code
        over the p roots; the (pi, root) pairs that attain the least code
        number |Stab|.
        """
        d, p = self.d, self.p
        multisets = [tuple(sorted(map(len, cycs))) for _, cycs in faces]
        rank = {ms: r for r, ms in enumerate(sorted(set(multisets)))}
        lengths = [[0] * (d + 1) for _ in range(d + 1)]
        for ((i, j), _), ms in zip(faces, multisets):
            lengths[i][j] = lengths[j][i] = rank[ms]
        ties = _color_ties(lengths, d)
        if ties is None:
            return None
        rest = sigma[1:]
        codes = [_bfs_code(rest, root, p) for root in range(p)]
        own = min(codes)
        stab = codes.count(own)
        if stab != stab_size:
            raise InternalMismatch("%d roots attain the least code but the stabilizer "
                                   "has %d elements" % (stab, stab_size))
        image = 1
        regauged = {}
        for pi in ties[1:]:
            taus = regauged.get(pi[0])
            if taus is None:
                head = inverse(sigma[pi[0]]).__getitem__
                taus = regauged[pi[0]] = [tuple(map(head, sig)) for sig in sigma]
            perms = list(map(taus.__getitem__, pi[1:]))
            roots = 0
            for root in range(p):
                code = _bfs_code(perms, root, p)
                if code < own:
                    return None
                if code == own:
                    roots += 1
            if roots:
                stab += roots
                image += 1
        if (factorial(p) * factorial(d + 1)) % stab or factorial(d + 1) % image:
            raise InternalMismatch("stabilizer of order %d with %d color permutations "
                                   "gives a fractional orbit weight" % (stab, image))
        return stab, image


def _process_block(payload):
    """One (prefix, stabilizer) block; top level so worker processes can
    receive it.  Each leader is weighted by the number of labeled tuples,
    or of conjugation classes, in its S_p x S_{d+1} orbit."""
    d, n, mode, prefix, stab = payload
    p = n // 2
    analyzer = _OrderAnalyzer(d, n)
    table = CensusTable(d, n, mode)
    colorings = factorial(d + 1)
    labelings = factorial(p) * colorings
    labeled = mode == "labeled"
    for suffix, final_stab in _prefix_reps(stab, d - len(prefix), p):
        stats = analyzer.analyze(prefix + suffix, len(final_stab))
        if stats is None:
            continue
        *stats, orbit_stab, image = stats
        weight = labelings // orbit_stab if labeled else colorings // image
        table._add(*stats, weight)
    return table


def _tables(d, orders, mode, workers):
    """Tables of the given orders.  The (sigma[1], sigma[2]) blocks of all
    orders form one list, run serially or over one pool, and each block's
    table is merged into its order's table in list order."""
    if mode not in ("labeled", "canonical"):
        raise ValueError("mode must be 'labeled' or 'canonical'")
    depth = min(2, d)
    payloads = [(d, n, mode, prefix, stab) for n in orders
                for prefix, stab in _prefix_reps(all_perms(n // 2), depth, n // 2)]
    tables = {n: CensusTable(d, n, mode) for n in orders}
    if workers <= 1 or len(payloads) <= 1:
        for part in map(_process_block, payloads):
            tables[part.n].merge(part)
    else:
        import multiprocessing

        chunk = max(1, len(payloads) // (workers * 16))
        with multiprocessing.Pool(workers) as pool:
            for part in pool.imap(_process_block, payloads, chunksize=chunk):
                tables[part.n].merge(part)
    for table in tables.values():
        table.selfcheck()
    return [tables[n] for n in orders]


def census_for_order(d, n, mode="labeled", workers=1, budget=None):
    """Census table for a single order."""
    _validate_order(d, n)
    check_budget(d, n, budget)
    return _tables(d, [n], mode, workers)[0]


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
    return _tables(d, orders, mode, parallelism)


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
