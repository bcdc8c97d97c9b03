"""Permutations represented as tuples of images on {0, ..., p-1}."""

from functools import lru_cache
from itertools import permutations


def identity(p):
    return tuple(range(p))


def inverse(a):
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


def conjugate(t, a):
    """t a t^-1, the relabeling of a by t."""
    r = [0] * len(a)
    for i, v in enumerate(a):
        r[t[i]] = t[v]
    return tuple(r)


def cycles(a):
    """Cycles of a.  Each starts at its least element; cycles are listed by
    increasing least element, so the decomposition is reproducible."""
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if seen[start]:
            continue
        cyc = []
        k = start
        while not seen[k]:
            seen[k] = True
            cyc.append(k)
            k = a[k]
        out.append(tuple(cyc))
    return out


@lru_cache(maxsize=None)
def all_perms(p):
    return tuple(permutations(range(p)))


def _partitions(p, largest=None):
    """Partitions of p as tuples of parts in increasing order."""
    if largest is None:
        largest = p
    if p == 0:
        yield ()
        return
    for part in range(1, min(p, largest) + 1):
        for rest in _partitions(p - part, part):
            yield rest + (part,)


@lru_cache(maxsize=None)
def conjugacy_class_reps(p):
    """One representative per conjugacy class of S_p, in lexicographic order.

    The representative of a cycle type is the lexicographically least
    permutation with that type: fixed points first, then cycles of
    increasing length laid out on consecutive indices, each cycle mapping
    i to i+1 and its last index back to its first.
    """
    reps = []
    for part in _partitions(p):
        images = [0] * p
        offset = 0
        for length in sorted(part):
            for i in range(length - 1):
                images[offset + i] = offset + i + 1
            images[offset + length - 1] = offset
            offset += length
        reps.append(tuple(images))
    return tuple(sorted(reps))


@lru_cache(maxsize=None)
def centralizer(a):
    """All t in S_p with t a t^-1 == a, in lexicographic order."""
    return tuple(t for t in all_perms(len(a)) if conjugate(t, a) == a)
