import json
from itertools import combinations

import pytest

from chromon import analysis, census, cli, intmat, subdivision
from chromon.errors import InvariantViolation
from chromon.graphs import build_graph, format_graph, is_connected, parse_graph


DIPOLE_TEXT = "d=3 n=2\n0: 0\n1: 0\n2: 0\n3: 0\n"

DIPOLE_REPORT = (
    "d=3 n=2 edges=4\n"
    "faces total=6\n"
    "pair 0,1 faces=1\n"
    "pair 0,2 faces=1\n"
    "pair 0,3 faces=1\n"
    "pair 1,2 faces=1\n"
    "pair 1,3 faces=1\n"
    "pair 2,3 faces=1\n"
    "jacket 0,1,2,3 F_J=4 g=0\n"
    "jacket 0,1,3,2 F_J=4 g=0\n"
    "jacket 0,2,1,3 F_J=4 g=0\n"
    "degree=0 min_genus=0 lemma2_bound=1/1\n"
    "rank=3 L=3 F=6 h1Q=trivial factors=1,1,1 h1Z=trivial\n")


def write_dipole(tmp_path):
    path = tmp_path / "dipole.cg"
    path.write_text(DIPOLE_TEXT)
    return str(path)


def test_analyze_text_report(tmp_path, capsys):
    assert cli.main(["analyze", write_dipole(tmp_path)]) == 0
    out = capsys.readouterr()
    assert out.out == DIPOLE_REPORT
    assert "degree=0" in out.out
    assert "h1Q=trivial" in out.out
    assert "rank=3" in out.out
    assert out.err == ""


def test_analyze_json_round_trip(tmp_path, capsys):
    assert cli.main(["analyze", write_dipole(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    dipole = build_graph(3, 2, [[0]] * 4)
    assert payload == analysis.render_json(analysis.analyze_graph(dipole))
    assert payload["homology"]["rank"] == 3
    assert payload["degree"]["value"] == 0
    assert payload["degree"]["min_genus_bound"] == {"num": 1, "den": 1}


def test_analyze_disconnected_graph(tmp_path, capsys):
    path = tmp_path / "two.cg"
    path.write_text(format_graph(build_graph(3, 4, [[0, 1]] * 4)))
    assert cli.main(["analyze", str(path)]) == 1
    out = capsys.readouterr()
    assert "faces total=12" in out.out
    assert "jacket" not in out.out
    assert "disconnected" in out.err


def test_analyze_missing_file(capsys):
    assert cli.main(["analyze", "no/such/file.cg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.cg"
    path.write_text("d=3 n=2\n0: 0\n1: 0\n2: 0\n")
    assert cli.main(["analyze", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_census_writes_tables(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    rc = cli.main(["census", "--dim", "3", "--order-max", "4",
                   "--out", str(out_dir)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    with open(printed[0]) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("d,n,mode,")
    assert lines[1] == "3,2,labeled,1,1,1,1,1"
    assert lines[2] == "3,4,labeled,7,7,7,1,1"


def test_census_threads_flag_changes_nothing(tmp_path):
    dirs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / ("t" + threads)
        rc = cli.main(["census", "--dim", "3", "--order-max", "4",
                       "--threads", threads, "--out", str(out_dir)])
        assert rc == 0
        dirs.append(out_dir)
    for name in ("census.csv", "degree_histogram.csv", "min_genus_histogram.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_census_budget_flag(tmp_path, capsys):
    rc = cli.main(["census", "--dim", "3", "--order-max", "8",
                   "--budget", "100", "--out", str(tmp_path)])
    assert rc == 3
    assert "budget" in capsys.readouterr().err


def test_census_budget_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHROMON_BUDGET", "100")
    rc = cli.main(["census", "--dim", "3", "--order-max", "8",
                   "--out", str(tmp_path)])
    assert rc == 3
    # an explicit flag overrides the environment
    monkeypatch.setenv("CHROMON_BUDGET", "1")
    rc = cli.main(["census", "--dim", "3", "--order-max", "2",
                   "--budget", "1000", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()


def test_census_budget_env_must_be_positive_int(tmp_path, monkeypatch):
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("CHROMON_BUDGET", bad)
        with pytest.raises(SystemExit):
            cli.main(["census", "--dim", "3", "--order-max", "2",
                      "--out", str(tmp_path)])


def test_invariant_violation_writes_counterexample(tmp_path, capsys, monkeypatch):
    dipole = build_graph(3, 2, [[0]] * 4)

    def boom(*args, **kwargs):
        raise InvariantViolation("forced for the test", format_graph(dipole))

    monkeypatch.setattr(census, "run_census", boom)
    out_dir = tmp_path / "broken"
    rc = cli.main(["census", "--dim", "3", "--order-max", "4",
                   "--out", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "counterexample" in err
    assert (out_dir / "counterexample.cg").read_text() == DIPOLE_TEXT


def test_failing_kernel_check_exits_with_code_two(tmp_path, capsys, monkeypatch):
    real = intmat.invariant_factors
    monkeypatch.setattr(intmat, "invariant_factors",
                        lambda rows: real(rows) + (1,))
    out_dir = tmp_path / "broken"
    rc = cli.main(["census", "--dim", "3", "--order-max", "4",
                   "--out", str(out_dir)])
    assert rc == 2
    assert "counterexample" in capsys.readouterr().err
    graph = parse_graph((out_dir / "counterexample.cg").read_text())
    assert graph.d == 3 and is_connected(graph)
    assert not (out_dir / "census.csv").exists()


def test_subdivide_round_trip(tmp_path, capsys):
    complex_path = tmp_path / "tetra.sc"
    complex_path.write_text(subdivision.format_complex(
        subdivision.build_complex(2, list(combinations(range(4), 3)))))
    out_path = tmp_path / "tetra.cg"
    rc = cli.main(["subdivide", str(complex_path), "--out", str(out_path)])
    assert rc == 0
    assert capsys.readouterr().out == str(out_path) + "\n"
    graph = parse_graph(out_path.read_text())
    assert graph.d == 2
    assert graph.n == 24


def test_subdivide_rejects_open_complex(tmp_path, capsys):
    complex_path = tmp_path / "open.sc"
    complex_path.write_text("d=3 m=1\n0 1 2 3\n")
    rc = cli.main(["subdivide", str(complex_path), "--out", str(tmp_path / "x.cg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_decompose_output(tmp_path, capsys):
    rc = cli.main(["decompose", write_dipole(tmp_path), "--jacket", "0,1,2,3"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "tree: (0, 0)\n"
        "cotree: (1, 0) (2, 0) (3, 0)\n"
        "crossing:\n")


def test_decompose_canonicalizes_the_cycle(tmp_path, capsys):
    # 1,0,2,3 names the same jacket as its canonical form 0,1,3,2
    path = write_dipole(tmp_path)
    assert cli.main(["decompose", path, "--jacket", "1,0,2,3"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["decompose", path, "--jacket", "0,1,3,2"]) == 0
    assert capsys.readouterr().out == first


def test_decompose_rejects_bad_cycles(tmp_path, capsys):
    path = write_dipole(tmp_path)
    assert cli.main(["decompose", path, "--jacket", "0,1,2"]) == 1
    assert cli.main(["decompose", path, "--jacket", "0,1,2,2"]) == 1
    assert cli.main(["decompose", path, "--jacket", "1,2,3,4"]) == 1
    assert cli.main(["decompose", path, "--jacket", "0,a,2,3"]) == 1
    capsys.readouterr()


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for name in ("census", "analyze", "subdivide", "decompose"):
        assert name in out
