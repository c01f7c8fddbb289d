"""Command line front end.

Verbs: enumerate, hasse, count, weights-eval, gamma, report.  All JSON
output is printed with sorted keys and two-space indentation.  Exit
codes: 0 success, 2 usage error, 3 domain error, 4 resource limit,
5 unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from . import boolmaps, counting, hasse, weights
from .core import LatticeParams, _word_texts, enumerate_d_slice, enumerate_words
from .errors import DomainError, ResourceLimitError


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _params(args) -> LatticeParams:
    return LatticeParams(args.n, args.r)


def cmd_enumerate(args) -> int:
    params = _params(args)
    words = enumerate_words(params) if args.d is None else enumerate_d_slice(params, args.d)
    texts = _word_texts(params, words)
    if args.json:
        _emit_json(
            {
                "n": params.n,
                "r": params.r,
                "d": args.d,
                "count": len(words),
                "words": list(texts),
            }
        )
    else:
        # a write per block of lines: a write per line costs about 1 us,
        # and one write of the whole listing holds all of its lines
        while block := list(islice(texts, 1024)):
            sys.stdout.write("\n".join(block) + "\n")
    return 0


def cmd_hasse(args) -> int:
    params = _params(args)
    order = hasse.GenOrder(args.order)
    diagram = hasse.build(params, order)
    with open(args.dot, "w", encoding="utf-8") as fh:
        hasse.write_dot(diagram, fh)
    print(f"wrote {args.dot}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            hasse.write_json(diagram, fh)
        print(f"wrote {args.json}")
    return 0


def cmd_count(args) -> int:
    counting.check_census_n_max(args.n_max)  # before --out is created
    if args.out is None:
        counting.write_census_csv(sys.stdout, args.n_max)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            counting.write_census_csv(fh, args.n_max)
        print(f"wrote {args.out}")
    return 0


def cmd_weights_eval(args) -> int:
    fn = weights.load_nr_function(args.fn)
    out = weights.nr_function_to_json(fn)
    out["total"] = str(fn.total)
    out["is_weight"] = fn.is_weight
    out["alpha_count"] = weights.alpha_count(fn)
    out["phi_count"] = weights.phi_count(fn, args.d)
    out["gamma_d_upper_bound"] = out["phi_count"] if fn.is_weight else None
    out["d"] = args.d
    out["sigma"] = {
        str(w): str(weights.sigma(fn, w)) for w in enumerate_words(fn.params)
    }
    _emit_json(out)
    return 0


def _run_report(args, collect_non_representable: bool) -> int:
    params = _params(args)
    report = boolmaps.wb_vs_rwb_report(
        params,
        args.d,
        cap=args.cap,
        n_guard=args.n_guard,
        collect_non_representable=collect_non_representable,
    )
    _emit_json(boolmaps.report_to_json(report))
    return 0


def cmd_gamma(args) -> int:
    return _run_report(args, collect_non_representable=False)


def cmd_report(args) -> int:
    return _run_report(args, collect_non_representable=True)


def _add_lattice_args(sub, with_d: bool = True):
    sub.add_argument("--n", type=int, required=True, help="total number of marks")
    sub.add_argument("--r", type=int, required=True, help="number of positive marks")
    if with_d:
        sub.add_argument("--d", type=int, default=None, help="restrict to words using exactly d marks")


def _add_limit_args(sub):
    sub.add_argument(
        "--cap",
        type=int,
        default=boolmaps.DEFAULT_CAP,
        help="abort after this many labelings (default %(default)s)",
    )
    sub.add_argument(
        "--n-guard",
        type=int,
        default=boolmaps.DEFAULT_N_GUARD,
        help="refuse enumeration when n exceeds this (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marklat",
        description="Construct and analyze mark-word lattices and their extremal numbers.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("enumerate", help="list the words of L(n, r) in canonical order")
    _add_lattice_args(p)
    p.add_argument("--json", action="store_true", help="emit a JSON document instead of plain lines")
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("hasse", help="build the cover diagram and write it as DOT")
    _add_lattice_args(p, with_d=False)
    p.add_argument(
        "--order",
        choices=[o.value for o in hasse.GenOrder],
        default=hasse.GenOrder.OUT_IN.value,
        help="child generation order (default %(default)s)",
    )
    p.add_argument("--dot", required=True, metavar="PATH", help="output path for the DOT file")
    p.add_argument("--json", default=None, metavar="PATH", help="also write the diagram as JSON")
    p.set_defaults(func=cmd_hasse)

    p = subs.add_parser("count", help="emit the rank census as CSV")
    p.add_argument("--n-max", type=int, required=True, dest="n_max", help="largest n to tabulate")
    p.add_argument("--out", default=None, metavar="PATH", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("weights-eval", help="evaluate a valuation file over its lattice")
    p.add_argument("--fn", required=True, metavar="FILE", help="valuation JSON file")
    p.add_argument("--d", type=int, required=True, help="slice size for the d-mark count")
    p.set_defaults(func=cmd_weights_eval)

    p = subs.add_parser("gamma", help="compute the extremal numbers by exhaustive search")
    _add_lattice_args(p)
    _add_limit_args(p)
    p.set_defaults(func=cmd_gamma)

    p = subs.add_parser("report", help="gamma plus the list of non-representable labelings")
    _add_lattice_args(p)
    _add_limit_args(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
