"""Command-line front end.

Subcommands: analyze (one graph, one or many subsets), census (stream of
graph6 lines), isocheck (pair isomorphism by two independent routes), lti
(discrete linear system report).  Exit codes: 0 ok, 2 input error, 3 guard
exceeded, 4 internal-consistency failure (a violated theorem, i.e. a bug).
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
from .matrices import ExactMatrix

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


def _matrix_json(m: ExactMatrix) -> list[list[str]]:
    return [[_fraction_str(e) for e in m.row(i)] for i in range(m.rows)]


def _radius_json(r):
    if r is None:
        return None
    return "infinite" if r == math.inf else int(r)


def _report_json(rep: control.ControllabilityReport) -> dict:
    return {
        "subset": list(rep.subset) if rep.subset is not None else None,
        "rank_of_w": rep.rank_of_w,
        "support_size": rep.support_size,
        "dual_degree": rep.dual_degree,
        "covering_radius": _radius_json(rep.covering_radius),
        "controllable": rep.controllable,
        "verdicts": rep.verdicts,
        "covrad_bound_ok": rep.covrad_bound_ok,
        "degenerate": rep.degenerate,
    }


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


def cmd_analyze(args) -> int:
    try:
        g = parse_graph6(args.graph6)
    except Graph6Error as exc:
        raise CliError(str(exc))
    subsets = _parse_subset_arg(args.subset, g.v)
    reports = [
        control.full_report(control.PairSpec.from_subset(g, s)) for s in subsets
    ]
    doc = {
        "graph6": args.graph6.strip(),
        "n": g.v,
        "reports": [_report_json(r) for r in reports],
    }
    _write_output(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_census(args) -> int:
    if args.input:
        with open(args.input) as fh:
            lines = fh.readlines()
    else:
        lines = sys.stdin.readlines()
    modes = (args.mode,) if args.mode else ("full", "vertices")
    config = census_mod.CensusConfig(
        modes=modes,
        workers=args.workers,
        max_n=args.max_n,
    )
    rows, summary = census_mod.run_census(lines, config)
    if args.format == "csv":
        _write_output(args.out, census_mod.rows_to_csv(rows))
        summary_text = json.dumps(
            census_mod.summary_to_json(summary), indent=2, sort_keys=True
        ) + "\n"
        if args.summary_out:
            _write_output(args.summary_out, summary_text)
        else:
            sys.stderr.write(summary_text)
    else:
        _write_output(args.out, census_mod.census_json_document(rows, summary))
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
    s1 = _parse_subset_arg(args.subset_a, g1.v)[0]
    s2 = _parse_subset_arg(args.subset_b, g2.v)[0]
    p1 = control.PairSpec.from_subset(g1, s1)
    p2 = control.PairSpec.from_subset(g2, s2)
    route_ratfun = pairiso.pairs_isomorphic(p1, p2)
    route_cone = control.graph_char_poly(g1) == control.graph_char_poly(
        g2
    ) and control.graph_char_poly(cone(g1, s1)) == control.graph_char_poly(
        cone(g2, s2)
    )
    if route_ratfun != route_cone:
        raise InternalConsistencyError(
            "rational-function and cone-cospectrality routes disagree"
        )
    doc = {
        "isomorphic": route_ratfun,
        "routes": {"rational_function": route_ratfun, "cone_cospectral": route_cone},
    }
    both_ctrl = control.is_controllable_rank(p1) and control.is_controllable_rank(p2)
    doc["both_controllable"] = both_ctrl
    if route_ratfun and both_ctrl:
        q = pairiso.q_matrix(p1, p2)
        doc["q"] = _matrix_json(q)
    _write_output(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _parse_rational(x) -> Fraction:
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise CliError(f"expected an integer or 'p/q' string, got {x!r}")


def cmd_lti(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read system spec: {exc}")
    try:
        a_rows = [[_parse_rational(x) for x in row] for row in spec["a"]]
        b = [_parse_rational(x) for x in spec["b"]]
        c = [_parse_rational(x) for x in spec["c"]]
        x0 = [_parse_rational(x) for x in spec.get("x0", [0] * len(b))]
        inputs = [_parse_rational(x) for x in spec.get("inputs", [])]
        order = int(spec.get("order", 3 * len(b)))
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
    try:
        tf = lti_mod.transfer_function(sys_)
        doc["transfer_function"] = {
            "numerator": [str(x) for x in tf.num.coeffs],
            "denominator": [str(x) for x in tf.den.coeffs],
        }
    except ValueError as exc:
        doc["transfer_function"] = {"error": str(exc)}
    if len(inputs) >= order:
        ok, first_bad = lti_mod.generating_identity_check(sys_, inputs, order)
        doc["generating_identity"] = {"ok": ok, "first_mismatch": first_bad}
    if "recover" in spec:
        try:
            observed = [_parse_rational(x) for x in spec["recover"]["outputs"]]
            m = int(spec["recover"].get("m", 0))
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
        with open(path, "w") as fh:
            fh.write(text)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
