from itertools import permutations

from hypothesis import given, strategies as st

from conftest import compose, cycle_type
from chromon.perms import (all_perms, centralizer, conjugacy_class_reps, conjugate,
                           cycles, identity, inverse)

perm_st = st.integers(min_value=1, max_value=6).flatmap(
    lambda p: st.permutations(list(range(p))).map(tuple))


@given(perm_st)
def test_inverse_composes_to_identity(a):
    assert compose(a, inverse(a)) == identity(len(a))
    assert compose(inverse(a), a) == identity(len(a))


@given(perm_st)
def test_cycles_partition_and_order(a):
    seen = []
    for cyc in cycles(a):
        assert cyc[0] == min(cyc)
        for i, k in enumerate(cyc):
            assert a[k] == cyc[(i + 1) % len(cyc)]
        seen.extend(cyc)
    assert sorted(seen) == list(range(len(a)))


def test_conjugate_is_relabeling():
    a = (1, 2, 0, 4, 3)
    t = (2, 0, 3, 1, 4)
    c = conjugate(t, a)
    for i in range(5):
        assert c[t[i]] == t[a[i]]
    assert cycle_type(c) == cycle_type(a)


def test_class_reps_are_lex_least():
    for p in range(1, 6):
        reps = conjugacy_class_reps(p)
        by_type = {}
        for perm in permutations(range(p)):
            ct = cycle_type(perm)
            if ct not in by_type or perm < by_type[ct]:
                by_type[ct] = perm
        assert sorted(by_type.values()) == list(reps)


def test_centralizer_gives_orbit_stabilizer_count():
    for p in range(1, 6):
        total = 0
        for rep in conjugacy_class_reps(p):
            cent = centralizer(rep)
            class_size = sum(1 for perm in all_perms(p)
                             if cycle_type(perm) == cycle_type(rep))
            assert class_size * len(cent) == len(all_perms(p))
            total += class_size
        assert total == len(all_perms(p))
