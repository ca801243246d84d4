"""Command-line front end.

Subcommands: analyze (one graph, one or many subsets), census (stream of
graph6 lines), isocheck (pair isomorphism by two independent routes), lti
(discrete linear system report).  Exit codes: 0 ok, 2 input error or a file
that cannot be read or written, 3 guard exceeded, 4 internal-consistency
failure (a violated theorem, i.e. a bug).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import census as census_mod
from . import control, lti as lti_mod, pairiso
from .errors import Graph6Error, InternalConsistencyError
from .graphs import cone, parse_graph6

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INCONSISTENT = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _fraction_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _matrix_json(rows) -> list[list[str]]:
    return [[_fraction_str(e) for e in r] for r in rows]


_LITERAL = {True: "true", False: "false", None: "null"}


def _subset_text(subset) -> str:
    items = ",\n".join(f"        {u}" for u in subset)
    return f"[\n{items}\n      ]" if subset else "[]"


def _radius_text(r) -> str:
    return '"infinite"' if r == math.inf else str(int(r))


def _report_text(rep: control.ControllabilityReport) -> str:
    verdicts = ",\n".join(
        f'        "{k}": {_LITERAL[rep.verdicts[k]]}' for k in sorted(rep.verdicts)
    )
    return (
        "    {\n"
        f'      "controllable": {_LITERAL[rep.controllable]},\n'
        f'      "covering_radius": {_radius_text(rep.covering_radius)},\n'
        f'      "covrad_bound_ok": {_LITERAL[rep.covrad_bound_ok]},\n'
        f'      "degenerate": {_LITERAL[rep.degenerate]},\n'
        f'      "dual_degree": {rep.dual_degree},\n'
        f'      "rank_of_w": {rep.rank_of_w},\n'
        f'      "subset": {_subset_text(rep.subset)},\n'
        f'      "support_size": {rep.support_size},\n'
        f'      "verdicts": {{\n{verdicts}\n      }}\n'
        "    }"
    )


def _analyze_text(graph6: str, n: int, reports) -> str:
    """The analyze document as `json.dumps(doc, indent=2, sort_keys=True)`
    writes it, plus a newline, written directly: with an indent, `json.dumps`
    takes its pure-Python encoder, about a quarter of the time of
    `--subset all` on an 8-vertex graph.  Only the graph6 string, which may
    hold a backslash, goes through `json.dumps`."""
    body = ",\n".join(map(_report_text, reports))
    listing = f"[\n{body}\n  ]" if reports else "[]"
    return f'{{\n  "graph6": {json.dumps(graph6)},\n  "n": {n},\n  "reports": {listing}\n}}\n'


def _parse_subset_arg(arg: str, v: int):
    """Returns a list of subsets for the requested selector."""
    if arg == "full":
        return [tuple(range(v))]
    if arg == "vertices":
        return [(u,) for u in range(v)]
    if arg == "all":
        if v > census_mod.SUBSET_GUARD:
            raise CliError(
                f"subset enumeration guarded at v <= {census_mod.SUBSET_GUARD}",
                EXIT_GUARD,
            )
        return list(census_mod.all_subsets(v))
    try:
        members = [int(tok) for tok in arg.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"bad subset selector {arg!r}")
    if any(not 0 <= u < v for u in members):
        raise CliError(f"subset {members} out of range for v={v}")
    return [tuple(sorted(set(members)))]


def _one_subset(arg: str, v: int):
    subsets = _parse_subset_arg(arg, v)
    if len(subsets) != 1:
        raise CliError(f"selector {arg!r} gives {len(subsets)} subsets; one is required")
    return subsets[0]


def cmd_analyze(args) -> int:
    try:
        g = parse_graph6(args.graph6)
    except Graph6Error as exc:
        raise CliError(str(exc))
    subsets = _parse_subset_arg(args.subset, g.v)
    pairs = [control.PairSpec.from_subset(g, s) for s in subsets]
    graph6 = args.graph6.strip()
    try:
        reports = control.full_reports(g, pairs)
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"graph {graph6}: {exc}") from exc
    _write_output(args.out, _analyze_text(graph6, g.v, reports))
    return EXIT_OK


def cmd_census(args) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    if args.max_n is not None and args.max_n < 0:
        raise CliError(f"--max-n must be at least 0, got {args.max_n}")
    try:
        if args.input:
            with open(args.input) as fh:
                lines = fh.readlines()
        else:
            lines = sys.stdin.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {args.input or 'stdin'}: {exc}")
    modes = (args.mode,) if args.mode else ("full", "vertices")
    config = census_mod.CensusConfig(
        modes=modes,
        workers=args.workers,
        max_n=args.max_n,
    )
    rows, summary = census_mod.run_census(lines, config)
    summary_text = json.dumps(
        census_mod.summary_to_json(summary), indent=2, sort_keys=True
    ) + "\n"
    if args.format == "csv":
        _write_output(args.out, census_mod.rows_to_csv(rows))
        if not args.summary_out:
            sys.stderr.write(summary_text)
    else:
        _write_output(args.out, census_mod.census_json_document(rows, summary))
    if args.summary_out:
        _write_output(args.summary_out, summary_text)
    if summary.errors and not args.lenient:
        return EXIT_INPUT
    return EXIT_OK


def cmd_isocheck(args) -> int:
    try:
        g1 = parse_graph6(args.graph6_a)
        g2 = parse_graph6(args.graph6_b)
    except Graph6Error as exc:
        raise CliError(str(exc))
    if g1.v != g2.v:
        raise CliError("graphs must have the same vertex count")
    s1 = _one_subset(args.subset_a, g1.v)
    s2 = _one_subset(args.subset_b, g2.v)
    p1 = control.PairSpec.from_subset(g1, s1)
    p2 = control.PairSpec.from_subset(g2, s2)
    phi = control.graph_char_poly
    try:
        route_ratfun = pairiso.pairs_isomorphic(p1, p2)
        route_cone = phi(g1) == phi(g2) and phi(cone(g1, s1)) == phi(cone(g2, s2))
        if route_ratfun != route_cone:
            raise InternalConsistencyError(
                "rational-function and cone-cospectrality routes disagree"
            )
        # each full report checks its rank verdict against its pole count
        both_ctrl = all([control.full_report(p).controllable for p in (p1, p2)])
        q = pairiso.q_matrix(p1, p2) if route_ratfun and both_ctrl else None
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(
            f"graphs {args.graph6_a.strip()} subset {list(s1)} and"
            f" {args.graph6_b.strip()} subset {list(s2)}: {exc}"
        ) from exc
    doc = {
        "isomorphic": route_ratfun,
        "routes": {"rational_function": route_ratfun, "cone_cospectral": route_cone},
        "both_controllable": both_ctrl,
    }
    if q is not None:
        doc["q"] = _matrix_json(q)
    _write_output(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _parse_rational(x) -> Fraction:
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise CliError(f"zero denominator in {x!r}")
    raise CliError(f"expected an integer or 'p/q' string, got {x!r}")


def _array(x, name: str) -> list:
    if not isinstance(x, list):
        raise CliError(f"{name} must be a JSON array, got {x!r}")
    return x


def _vector(x, name: str) -> list[Fraction]:
    return [_parse_rational(e) for e in _array(x, name)]


def _count(x, name: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise CliError(f"{name} must be a non-negative integer, got {x!r}")
    return x


def cmd_lti(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read system spec {args.spec}: {exc}")
    try:
        a_rows = [_vector(row, "a row") for row in _array(spec["a"], "a")]
        b = _vector(spec["b"], "b")
        c = _vector(spec["c"], "c")
        x0 = _vector(spec.get("x0", [0] * len(b)), "x0")
        inputs = _vector(spec.get("inputs", []), "inputs")
        order = _count(spec.get("order", 3 * len(b)), "order")
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed system spec: {exc}")
    try:
        sys_ = lti_mod.DiscreteSystem.create(a_rows, b, c, x0)
    except ValueError as exc:
        raise CliError(f"malformed system spec: {exc}")
    doc = {
        "dim": sys_.dim,
        "controllable": lti_mod.is_controllable(sys_.a, sys_.b),
        "observable": lti_mod.is_observable(sys_.a, sys_.c),
    }
    try:  # the integer Faddeev-LeVerrier pass checks its divisions and phi(A) = 0
        num, den = lti_mod.transfer_function(sys_)
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(f"system spec {args.spec}: {exc}") from exc
    doc["transfer_function"] = {
        "numerator": [str(x) for x in num],
        "denominator": [str(x) for x in den],
    }
    if len(inputs) >= order:
        ok, first_bad = lti_mod.generating_identity_check(sys_, inputs, order)
        doc["generating_identity"] = {"ok": ok, "first_mismatch": first_bad}
    else:
        doc["generating_identity"] = {
            "skipped": f"need {order} input values, got {len(inputs)}"
        }
    if "recover" in spec:
        try:
            observed = _vector(spec["recover"]["outputs"], "recover.outputs")
            m = _count(spec["recover"].get("m", 0), "recover.m")
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"malformed recovery spec: {exc}")
        try:
            state = lti_mod.recover_state(sys_, observed, m)
            doc["recovered_state"] = {"m": m, "state": [_fraction_str(x) for x in state]}
        except ValueError as exc:
            doc["recovered_state"] = {"m": m, "error": str(exc)}
    _write_output(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _write_output(path, text: str):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc}")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrlgraph",
        description="Exact controllability analysis of graph/subset pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one graph6 graph")
    p.add_argument("graph6")
    p.add_argument(
        "--subset",
        default="full",
        help="comma-separated vertices, or one of: full, vertices, all",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("census", help="run the census over graph6 lines")
    p.add_argument("--input", help="graph6 file (default: stdin)")
    p.add_argument("--mode", choices=["full", "vertices", "subsets"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out")
    p.add_argument("--summary-out")
    p.add_argument("--max-n", type=int)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("isocheck", help="pair isomorphism by two routes")
    p.add_argument("graph6_a")
    p.add_argument("subset_a")
    p.add_argument("graph6_b")
    p.add_argument("subset_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_isocheck)

    p = sub.add_parser("lti", help="discrete linear system report")
    p.add_argument("spec", help="JSON system spec file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lti)

    return parser


_parser = None  # built on the first call and reused: a build costs about 1 ms


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
