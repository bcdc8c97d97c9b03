import pytest
from hypothesis import given, strategies as st

from conftest import compose, cycle_type, union_find_connected
from chromon.errors import BadDimension, BadOrder, FormatError, NonBijective
from chromon.graphs import (build_graph, enumerate_faces, format_graph,
                            is_connected, parse_graph)
from chromon.perms import inverse


def dipole(d):
    return build_graph(d, 2, [[0]] * (d + 1))


def graph_st(d_max=4, p_max=4):
    def build(args):
        d, p = args
        return st.tuples(*[st.permutations(list(range(p))).map(tuple)
                           for _ in range(d + 1)]).map(
            lambda sigma: build_graph(d, 2 * p, sigma))
    return st.tuples(st.integers(2, d_max), st.integers(1, p_max)).flatmap(build)


def test_build_graph_validation():
    with pytest.raises(BadDimension):
        build_graph(1, 2, [[0], [0]])
    with pytest.raises(BadDimension):
        build_graph(9, 2, [[0]] * 10)
    with pytest.raises(BadOrder):
        build_graph(3, 3, [[0]] * 4)
    with pytest.raises(BadOrder):
        build_graph(3, 0, [[]] * 4)
    with pytest.raises(NonBijective):
        build_graph(3, 4, [[0, 0], [0, 1], [0, 1], [0, 1]])
    with pytest.raises(NonBijective):
        build_graph(3, 4, [[0, 2], [0, 1], [0, 1], [0, 1]])
    with pytest.raises(NonBijective):
        build_graph(3, 4, [[0, 1], [0, 1], [0, 1]])
    with pytest.raises(NonBijective):
        build_graph(3, 4, [[0], [0, 1], [0, 1], [0, 1]])


def test_counts():
    g = dipole(3)
    assert g.p == 1
    assert g.edge_count == 4
    assert g.nullity == 3
    g4 = build_graph(3, 4, [[0, 1], [1, 0], [1, 0], [1, 0]])
    assert g4.edge_count == 8
    assert g4.nullity == 5
    assert g4.nullity == 1 + (g4.d - 1) * g4.n // 2


def test_dipole_faces():
    faces = enumerate_faces(dipole(3))
    assert faces.total == 6
    assert set(faces.count_by_pair) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    assert all(count == 1 for count in faces.count_by_pair.values())
    assert all(f.length == 2 for f in faces.faces)


def test_two_color_swap_faces():
    # one face per {0, c} pair, two per pair inside {1, 2, 3}
    g = build_graph(3, 4, [[0, 1], [1, 0], [1, 0], [1, 0]])
    faces = enumerate_faces(g)
    assert faces.total == 9
    for c in (1, 2, 3):
        assert faces.count_by_pair[(0, c)] == 1
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert faces.count_by_pair[pair] == 2


def test_connectivity():
    assert is_connected(dipole(3))
    two_dipoles = build_graph(3, 4, [[0, 1]] * 4)
    assert not is_connected(two_dipoles)


@given(graph_st())
def test_connectivity_matches_union_find_oracle(g):
    assert is_connected(g) == union_find_connected(g.d, g.n, g.sigma)


@given(graph_st())
def test_face_lengths_partition_each_pair(g):
    faces = enumerate_faces(g)
    for pair, count in faces.count_by_pair.items():
        blacks = [k for f in faces.faces if f.colors == pair for k in f.blacks]
        assert sorted(blacks) == list(range(g.p))
        assert count == len([f for f in faces.faces if f.colors == pair])


@given(graph_st())
def test_face_decomposition_side_independent(g):
    # cycles of sigma[j]^-1 sigma[i] and of sigma[i] sigma[j]^-1 match in
    # count and lengths: they describe the same faces from the two sides
    for i in range(g.d + 1):
        for j in range(i + 1, g.d + 1):
            black_side = compose(inverse(g.sigma[j]), g.sigma[i])
            white_side = compose(g.sigma[i], inverse(g.sigma[j]))
            assert cycle_type(black_side) == cycle_type(white_side)


@given(graph_st())
def test_serialization_round_trip(g):
    assert parse_graph(format_graph(g)) == g


def test_format_is_stable():
    assert format_graph(dipole(3)) == "d=3 n=2\n0: 0\n1: 0\n2: 0\n3: 0\n"


def test_parse_errors_carry_line_numbers():
    good = "d=3 n=2\n0: 0\n1: 0\n2: 0\n3: 0\n"
    parse_graph(good)

    with pytest.raises(FormatError) as err:
        parse_graph("dim=3 n=2\n0: 0\n1: 0\n2: 0\n3: 0\n")
    assert err.value.line == 1

    with pytest.raises(FormatError) as err:
        parse_graph("d=3 n=2\n0: 0\n2: 0\n1: 0\n3: 0\n")
    assert err.value.line == 3

    with pytest.raises(FormatError) as err:
        parse_graph("d=3 n=2\n0: 0\n0: 0\n2: 0\n3: 0\n")
    assert err.value.line == 3

    with pytest.raises(FormatError) as err:
        parse_graph(good + "leftover\n")
    assert err.value.line == 6

    with pytest.raises(FormatError) as err:
        parse_graph("d=3 n=2\n0: 0\n1: 0\n2: 0\n")
    assert err.value.line == 5

    with pytest.raises(FormatError) as err:
        parse_graph("d=3 n=4\n0: 0 1\n1: 0 1 0\n2: 0 1\n3: 0 1\n")
    assert err.value.line == 3

    with pytest.raises(FormatError) as err:
        parse_graph("d=3 n=2\n0: 0\n1: x\n2: 0\n3: 0\n")
    assert err.value.line == 3


def test_parse_rejects_non_bijective_images():
    with pytest.raises(NonBijective):
        parse_graph("d=3 n=4\n0: 0 0\n1: 0 1\n2: 0 1\n3: 0 1\n")
