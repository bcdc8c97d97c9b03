"""The pinned checks pass on correct output and report a wrong expected
value as a failure."""

import copy
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from chromon import census  # noqa: E402
from perfbench import checks, workloads  # noqa: E402

PINS = checks.load_pins()


def test_pins_cover_every_workload():
    assert set(PINS["census_d3n10_csv"]) == {
        census.CENSUS_CSV, census.DEGREE_CSV, census.MIN_GENUS_CSV}
    assert checks.census_graph_count(PINS["census_d3n10_csv"]) == 1660444
    assert PINS["sweep_d3n8_table"]["total_connected"] == 12858
    assert {m["degree"] for m in PINS["meshes"].values()} == {411, 1812}


def test_census_csv_check(tmp_path):
    tables = census.run_census(3, 6)
    census.write_tables(tables, str(tmp_path))
    expected = {name: (tmp_path / name).read_text() for name in PINS["census_d3n10_csv"]}
    assert checks.check_census_csvs(expected, str(tmp_path)) == []
    wrong = dict(expected)
    wrong[census.CENSUS_CSV] = wrong[census.CENSUS_CSV].replace("194", "195")
    assert len(checks.check_census_csvs(wrong, str(tmp_path))) == 1
    (tmp_path / census.DEGREE_CSV).unlink()
    assert len(checks.check_census_csvs(expected, str(tmp_path))) == 1


def _table_pins(d, n):
    table = census.census_for_order(d, n)
    return {
        "total_connected": table.total_connected,
        "h1q_trivial": table.h1q_trivial,
        "h1z_trivial": table.h1z_trivial,
        "degree_histogram": {str(k): v for k, v in table.degree_histogram.items()},
        "min_genus_histogram": {str(k): v for k, v in table.min_genus_histogram.items()},
    }


class SmallSweep(workloads.Sweep):
    N = 6


def test_sweep_pass_checks_its_table(tmp_path):
    pins = {"sweep_d3n8_table": _table_pins(3, 6)}
    result = SmallSweep(7, str(tmp_path), pins).run_pass()
    assert (result.failed, result.attempted, result.graphs) == (0, 195, 194)
    assert len(result.graph_cpu_ms) == 194

    wrong = copy.deepcopy(pins)
    wrong["sweep_d3n8_table"]["degree_histogram"]["2"] += 1
    result = SmallSweep(7, str(tmp_path), wrong).run_pass()
    assert result.failed == 1
    assert "degree_histogram" in result.messages[0]


def _mesh_report(expected):
    return {
        "d": expected["d"],
        "n": expected["n"],
        "faces": {"total": expected["faces"]},
        "degree": {"value": expected["degree"]},
        "homology": {"rank": expected["rank"], "nullity": expected["nullity"],
                     "h1_integral_trivial": True, "invariant_factors": [1, 1]},
    }


def test_mesh_check():
    expected = PINS["meshes"]["cyclic4-v12"]
    assert checks.check_mesh_report(expected, _mesh_report(expected)) == []
    wrong = dict(expected, degree=410)
    assert checks.check_mesh_report(wrong, _mesh_report(expected)) == [
        "degree is 411, pinned 410"]
    torsion = _mesh_report(expected)
    torsion["homology"].update(h1_integral_trivial=False, invariant_factors=[1, 2])
    assert checks.check_mesh_report(expected, torsion) == ["h1Z is not trivial"]
    short = _mesh_report(expected)
    short["homology"]["rank"] -= 1
    assert len(checks.check_mesh_report(expected, short)) == 2
