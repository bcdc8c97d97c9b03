"""Command-line entry point: census, analyze, subdivide, decompose.

Data goes to stdout or to the requested files, diagnostics to stderr.
Exit codes: 0 success, 1 input error, 2 a per-graph invariant check
failed during a census (the counterexample path is printed), 3 the
requested enumeration is over budget.
"""

import argparse
import json
import os
import sys

from . import analysis, census, decomposition, subdivision
from .errors import (BudgetExceeded, ChromonError, FormatError,
                     InvariantViolation)
from .graphs import enumerate_faces, format_graph, is_connected, parse_graph
from .jackets import canonical_cycle

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3


def _default_budget():
    env = os.environ.get("CHROMON_BUDGET")
    if env is None:
        return census.DEFAULT_BUDGET
    try:
        value = int(env)
        if value < 1:
            raise ValueError
    except ValueError:
        raise SystemExit("CHROMON_BUDGET must be a positive integer, got %r" % env)
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chromon",
        description="Exact combinatorics of edge-colored bipartite graphs: "
                    "faces, jackets, degree, first homology, and censuses.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("census", help="enumerate connected graphs and write CSV tables")
    p.add_argument("--dim", type=_positive_int, required=True, metavar="D",
                   help="dimension d (number of colors minus one), 2..8")
    p.add_argument("--order-max", type=_positive_int, required=True, metavar="N",
                   help="largest vertex count; one table per even order up to N")
    p.add_argument("--mode", choices=("labeled", "canonical"), default="labeled",
                   help="count labeled graphs or conjugation classes")
    p.add_argument("--threads", type=_positive_int, default=1, metavar="T",
                   help="worker processes; results do not depend on this")
    p.add_argument("--budget", type=_positive_int, default=None, metavar="B",
                   help="largest allowed (p!)^d; default %d or CHROMON_BUDGET"
                        % census.DEFAULT_BUDGET)
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for census.csv and the histogram CSVs")

    p = sub.add_parser("analyze", help="print the full report for one graph file")
    p.add_argument("file", help="graph file")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")

    p = sub.add_parser("subdivide",
                       help="barycentric colorization: complex file to graph file")
    p.add_argument("file", help="complex file")
    p.add_argument("--out", required=True, metavar="FILE", help="output graph file")

    p = sub.add_parser("decompose",
                       help="tree / cotree / crossing split for one jacket")
    p.add_argument("file", help="graph file")
    p.add_argument("--jacket", required=True, metavar="CYCLE",
                   help="color cycle, comma-separated, e.g. 0,1,2,3")
    return parser


def _parse_cycle(text):
    try:
        cycle = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise FormatError("jacket cycle must be comma-separated colors") from None
    if len(set(cycle)) != len(cycle) or 0 not in cycle:
        raise FormatError("jacket cycle must list each color exactly once")
    return cycle


def _read(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError("cannot read %s: %s" % (path, exc.strerror)) from None


def _cmd_census(args):
    budget = args.budget if args.budget is not None else _default_budget()
    tables = census.run_census(args.dim, args.order_max, args.mode,
                               parallelism=args.threads, budget=budget)
    paths = census.write_tables(tables, args.out)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_analyze(args):
    graph = parse_graph(_read(args.file))
    if not is_connected(graph):
        sys.stdout.write(analysis.render_faces_only(graph))
        print("graph is disconnected; jackets and homology need one component",
              file=sys.stderr)
        return EXIT_INPUT
    result = analysis.analyze_graph(graph)
    if args.json:
        print(json.dumps(analysis.render_json(result), indent=2, sort_keys=True))
    else:
        sys.stdout.write(analysis.render_text(result))
    return EXIT_OK


def _cmd_subdivide(args):
    complex_ = subdivision.parse_complex(_read(args.file))
    graph = subdivision.barycentric_colorize(complex_)
    with open(args.out, "w", newline="") as fh:
        fh.write(format_graph(graph))
    print(args.out)
    return EXIT_OK


def _cmd_decompose(args):
    cycle = canonical_cycle(_parse_cycle(args.jacket))
    graph = parse_graph(_read(args.file))
    if sorted(cycle) != list(range(graph.d + 1)):
        raise FormatError("jacket cycle must use the colors 0..%d" % graph.d)
    faces = enumerate_faces(graph)
    jacket = decomposition.jacket_for_cycle(graph, faces, cycle)
    split = decomposition.tree_cotree(graph, jacket, faces)

    def group(label, edges):
        return "%s:%s\n" % (label, "".join(" (%d, %d)" % e for e in edges))

    sys.stdout.write(group("tree", split.tree_edges))
    sys.stdout.write(group("cotree", split.cotree_edges))
    sys.stdout.write(group("crossing", split.crossing_edges))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "census":
            return _cmd_census(args)
        if args.subcommand == "analyze":
            return _cmd_analyze(args)
        if args.subcommand == "subdivide":
            return _cmd_subdivide(args)
        return _cmd_decompose(args)
    except InvariantViolation as exc:
        out_dir = args.out if getattr(args, "out", None) else "."
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "counterexample.cg")
        with open(path, "w", newline="") as fh:
            fh.write(exc.graph_text)
        print("invariant violation: %s" % exc, file=sys.stderr)
        print("counterexample written to %s" % path, file=sys.stderr)
        return EXIT_VIOLATION
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except ChromonError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
