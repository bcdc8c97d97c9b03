"""The input generators: Gale's evenness rule, simplex boundaries and the
seeded relabelings, plus the invariance the pinned checks rely on."""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from chromon import analysis, build_complex, build_graph, census  # noqa: E402
from chromon.subdivision import barycentric_colorize  # noqa: E402
from perfbench import checks, inputs  # noqa: E402


@pytest.mark.parametrize("v", range(5, 14))
def test_cyclic_polytope_facet_count(v):
    assert len(inputs.cyclic_polytope_boundary(v)) == v * (v - 3) // 2


def test_cyclic_polytope_facets_satisfy_evenness():
    facets = inputs.cyclic_polytope_boundary(9)
    assert len(set(facets)) == len(facets)
    for facet in facets:
        outside = [u for u in range(9) if u not in facet]
        for a, b in zip(outside, outside[1:]):
            assert sum(1 for s in facet if a < s < b) % 2 == 0


def test_cyclic_polytope_needs_five_vertices():
    with pytest.raises(ValueError):
        inputs.cyclic_polytope_boundary(4)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_simplex_boundary(d):
    facets = inputs.simplex_boundary(d)
    assert len(facets) == d + 2
    assert all(len(f) == d + 1 for f in facets)


@pytest.mark.parametrize("d, facets", [
    (3, inputs.cyclic_polytope_boundary(12)),
    (3, inputs.cyclic_polytope_boundary(7)),
    (4, inputs.simplex_boundary(4)),
    (2, inputs.simplex_boundary(2)),
])
def test_build_complex_accepts_generated_spheres(d, facets):
    for seed in (0, 1):
        relabeled = inputs.relabel_complex(facets, random.Random(seed))
        built = build_complex(d, relabeled)
        assert len(built.simplices) == len(facets)


def test_relabel_is_seeded():
    facets = inputs.cyclic_polytope_boundary(12)
    first = inputs.relabel_complex(facets, random.Random(5))
    assert first == inputs.relabel_complex(facets, random.Random(5))
    assert first != inputs.relabel_complex(facets, random.Random(6))
    assert sorted(map(sorted, first)) != sorted(map(sorted, facets))


def test_complex_text_round_trips_through_parse_complex():
    from chromon.subdivision import parse_complex

    facets = inputs.relabel_complex(inputs.simplex_boundary(3), random.Random(2))
    parsed = parse_complex(inputs.complex_text(3, facets))
    assert parsed == build_complex(3, facets)


def _report(d, facets):
    result = analysis.analyze_graph(barycentric_colorize(build_complex(d, facets)))
    hom = result.homology
    return (result.graph.n, result.faces.total, result.degree_report.degree_sum,
            hom.rank, hom.h1_integral_trivial)


@pytest.mark.parametrize("d, facets", [
    (3, inputs.cyclic_polytope_boundary(6)),
    (3, inputs.simplex_boundary(3)),
    (2, inputs.simplex_boundary(2)),
])
def test_mesh_answers_do_not_depend_on_the_seed(d, facets):
    reports = {_report(d, inputs.relabel_complex(facets, random.Random(seed)))
               for seed in range(3)}
    assert reports == {_report(d, facets)}
    (n, _, _, rank, h1z), = reports
    assert h1z and rank == 1 + (d - 1) * n // 2


def test_conjugation_keeps_the_identity_color_and_the_table():
    rng = random.Random(4)
    tally = checks.SweepTally()
    for graph in census.enumerate_connected(3, 6):
        sigma = inputs.conjugate_sigma(graph.sigma, inputs.random_perm(rng, 3))
        assert sigma[0] == (0, 1, 2)
        tally.add(analysis.analyze_graph(build_graph(3, 6, sigma)))
    table = census.census_for_order(3, 6)
    assert tally.as_table() == {
        "total_connected": table.total_connected,
        "h1q_trivial": table.h1q_trivial,
        "h1z_trivial": table.h1z_trivial,
        "degree_histogram": {str(k): v for k, v in table.degree_histogram.items()},
        "min_genus_histogram": {str(k): v for k, v in table.min_genus_histogram.items()},
    }
