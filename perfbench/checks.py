"""Pinned answers and the checks that compare a workload's outputs to them.

The pins in pins.json were recorded from the unmodified program: the three
census CSVs at d=3 n<=10, the census_for_order(3, 8) table, and the
analyze report of each mesh.  chromon is an exact calculator, so any
difference is a wrong answer.  Each check returns a list of failure
messages; an empty list means the output is correct.
"""

import json
import os

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins(path=PINS_PATH):
    with open(path) as fh:
        return json.load(fh)


def check_census_csvs(expected, out_dir):
    """Every pinned CSV exists in out_dir with exactly the pinned bytes."""
    failures = []
    for name, text in sorted(expected.items()):
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as fh:
                got = fh.read()
        except OSError as exc:
            failures.append("%s: %s" % (name, exc.strerror))
            continue
        if got != text.encode():
            failures.append("%s differs from the pinned bytes" % name)
    return failures


def census_graph_count(expected):
    """Labeled connected graphs tabulated, summed over the pinned orders."""
    lines = expected["census.csv"].splitlines()
    column = lines[0].split(",").index("total_connected")
    return sum(int(line.split(",")[column]) for line in lines[1:])


class SweepTally:
    """Census-style totals accumulated from per-graph analyze reports."""

    def __init__(self):
        self.total_connected = 0
        self.h1q_trivial = 0
        self.h1z_trivial = 0
        self.degree_histogram = {}
        self.min_genus_histogram = {}

    def add(self, result):
        self.total_connected += 1
        self.h1q_trivial += bool(result.homology.h1_rational_trivial)
        self.h1z_trivial += bool(result.homology.h1_integral_trivial)
        key = str(result.degree_report.degree_sum)
        self.degree_histogram[key] = self.degree_histogram.get(key, 0) + 1
        key = str(result.degree_report.min_genus)
        self.min_genus_histogram[key] = self.min_genus_histogram.get(key, 0) + 1

    def as_table(self):
        return {
            "total_connected": self.total_connected,
            "h1q_trivial": self.h1q_trivial,
            "h1z_trivial": self.h1z_trivial,
            "degree_histogram": self.degree_histogram,
            "min_genus_histogram": self.min_genus_histogram,
        }


def check_sweep_table(expected, tally):
    """The per-graph totals equal the pinned census table field by field."""
    got = tally.as_table()
    return ["sweep %s is %r, pinned %r" % (key, got[key], expected[key])
            for key in sorted(expected) if got[key] != expected[key]]


def check_mesh_report(expected, report):
    """One ``analyze --json`` report against its pinned mesh answers."""
    hom = report["homology"]
    observed = {
        "d": report["d"],
        "n": report["n"],
        "faces": report["faces"]["total"],
        "degree": report["degree"]["value"],
        "rank": hom["rank"],
        "nullity": hom["nullity"],
    }
    failures = ["%s is %r, pinned %r" % (key, observed[key], expected[key])
                for key in sorted(expected) if observed[key] != expected[key]]
    if hom["rank"] != hom["nullity"]:
        failures.append("rank %r differs from nullity %r" % (hom["rank"], hom["nullity"]))
    if not hom["h1_integral_trivial"] or any(f != 1 for f in hom["invariant_factors"]):
        failures.append("h1Z is not trivial")
    return failures
