"""Command-line frontend for the group toolkit.

Subcommands take group expressions like "Z8", "D6", "Hol 8", "Z2 x D4",
"Z8 : Z2 [r^3]" or "(Z2 x D4) : Z2 [#0]" (see the expr module for the
grammar) and print human-readable text, or JSON when --json is given.
JSON goes to stdout only; error messages go to stderr.

Exit codes:
    0  success / positive answer / all checks passed
    1  negative answer (not isomorphic, failed checks)
    2  usage, syntax, or expression error
    3  a size or enumeration cap was exceeded
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache

from .aut import aut_group
from .construct import action_classes, hom_set
from .core import GroupTable, SizeCapError, center, is_abelian, order_spectrum, to_json_dict
from .expr import ExprError, eval_expr, parse_and_eval, parse_expr
from .iso import _expr_info, are_isomorphic, identify
from ._search import generating_sequence
from .verify import VerifyReport, report_to_json, run_all

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _cmd_info(args: argparse.Namespace) -> int:
    """Order, abelian flag, centre size and order spectrum: read from the
    tree's presentations (iso._expr_info) when it holds only Z, D, x and
    valid [r^i] on cyclic operands within the size cap, else from its table,
    which raises any evaluation or size-cap error."""
    tree = parse_expr(args.expr)
    if (info := _expr_info(tree)) is None:
        g = eval_expr(tree)
        info = g.order, is_abelian(g), len(center(g)), order_spectrum(g)
    order, abelian, centre, spectrum = info
    print(f"order: {order}")
    print(f"abelian: {'yes' if abelian else 'no'}")
    print(f"center size: {centre}")
    print("order spectrum: " + " ".join(f"{d}^{c}" for d, c in sorted(spectrum.items())))
    return EXIT_OK


def _cmd_aut(args: argparse.Namespace) -> int:
    g = parse_and_eval(args.expr)
    ag = aut_group(g)
    if args.json:
        print(json.dumps(to_json_dict(ag.table)))
        return EXIT_OK
    print(f"|Aut| = {ag.table.order}")
    print(f"Aut identifies as: {identify(ag.table).display}")
    return EXIT_OK


def _cmd_iso(args: argparse.Namespace) -> int:
    tree1 = parse_expr(args.expr1)
    try:
        tree2 = parse_expr(args.expr2)
    except ExprError:
        eval_expr(tree1)  # text 1's evaluation error comes before text 2's syntax error
        raise
    # are_isomorphic compares all four values before it searches: the order, the spectrum in
    # _root_key, and the class sizes in _class_key, whose 1s count the centre (|G| if abelian).
    # A tree with an _expr_info evaluates with no error, so no exit code or output changes.
    info1, info2 = _expr_info(tree1), _expr_info(tree2)
    if None not in (info1, info2) and info1 != info2:
        print("not isomorphic")
        return EXIT_NEGATIVE
    g1, g2 = eval_expr(tree1), eval_expr(tree2)
    witness = are_isomorphic(g1, g2)
    if witness is None:
        print("not isomorphic")
        return EXIT_NEGATIVE
    gens = generating_sequence(g1)
    if gens:
        pairs = ", ".join(
            f"{g1.name_of(x)} -> {g2.name_of(witness.image[x])}" for x in gens)
        print(f"isomorphic; witness on generators: {pairs}")
    else:
        print("isomorphic; both groups are trivial")
    return EXIT_OK


def _cmd_identify(args: argparse.Namespace) -> int:
    g = parse_and_eval(args.expr)
    print(identify(g).display)
    return EXIT_OK


def _render_table(g: GroupTable) -> str:
    names = [g.name_of(i) for i in range(g.order)]
    width = max(len(name) for name in names)
    header = "*".rjust(width) + " | " + " ".join(name.rjust(width) for name in names)
    lines = [header, "-" * len(header)]
    for a in range(g.order):
        row = " ".join(names[g.mul[a][b]].rjust(width) for b in range(g.order))
        lines.append(names[a].rjust(width) + " | " + row)
    return "\n".join(lines)


def _cmd_table(args: argparse.Namespace) -> int:
    g = parse_and_eval(args.expr)
    if args.json:
        print(json.dumps(to_json_dict(g)))
    else:
        print(_render_table(g))
    return EXIT_OK


def _cmd_homs(args: argparse.Namespace) -> int:
    h = parse_and_eval(args.h_expr)
    k = parse_and_eval(args.k_expr)
    homs = hom_set(h, k)
    print(f"|hom(H, K)| = {len(homs)}")
    if args.actions:
        classes = action_classes(h, k)
        total = sum(len(c) for c in classes)
        print(f"actions of H on K: {total} in {len(classes)} equivalence class(es)")
        for idx, cls in enumerate(classes):
            print(f"  class {idx}: {len(cls)} action(s)")
    return EXIT_OK


def _report_line(r: VerifyReport) -> str:
    if r.status == "pass":
        return f"pass  {r.claim_id}  ({r.elapsed_ms:.1f} ms)"
    return f"FAIL  {r.claim_id}  expected: {r.expected}  actual: {r.actual}"


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    reports, summary = run_all(args.max_n, args.negative_control)
    if args.json:
        print(json.dumps([report_to_json(r) for r in reports]))
    else:
        for r in reports:
            print(_report_line(r))
        print(
            f"summary: {summary.passed} passed, {summary.failed} failed "
            f"in {summary.elapsed_ms:.0f} ms"
        )
    return EXIT_OK if summary.ok else EXIT_NEGATIVE


def _max_n(text: str) -> int:
    """--max-n's value, an integer of at least 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main call and kept for the process.

    It holds no handlers: main looks up _cmd_<command> when it runs, so a
    rebinding of a handler after the first call still takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="groupkit",
        description=(
            "Finite-group calculator: build groups from expressions, compute "
            "automorphism groups, test isomorphism, identify groups against a "
            "catalog of named families, and run the bundled verification suite."
        ),
        epilog=(
            'Expressions: "Z8" (cyclic), "D6" (dihedral, order 12), "Hol 8" '
            '(holomorph), "Z2 x D4" (direct product), "Z8 : Z2 [r^3]" '
            '(semidirect, generator acts by r -> r^3), "Z8 : Z2 [#1]" '
            "(semidirect by action index), with parentheses for grouping. "
            "Exit codes: 0 success, 1 negative result or failed checks, "
            "2 usage or expression error, 3 cap exceeded."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print order, abelian flag, center size, order spectrum")
    p.add_argument("expr", help="group expression")

    p = sub.add_parser("aut", help="compute the automorphism group")
    p.add_argument("expr", help="group expression")
    p.add_argument("--json", action="store_true", help="emit the Aut Cayley table as JSON")

    p = sub.add_parser("iso", help="test two groups for isomorphism (exit 0 yes, 1 no)")
    p.add_argument("expr1", help="first group expression")
    p.add_argument("expr2", help="second group expression")

    p = sub.add_parser("identify", help="name the group against the catalog")
    p.add_argument("expr", help="group expression")

    p = sub.add_parser("table", help="print the multiplication table")
    p.add_argument("expr", help="group expression")
    p.add_argument("--json", action="store_true", help="emit the Cayley table as JSON")

    p = sub.add_parser("homs", help="count homomorphisms H -> K")
    p.add_argument("h_expr", help="source group expression H")
    p.add_argument("k_expr", help="target group expression K")
    p.add_argument(
        "--actions",
        action="store_true",
        help="also partition the actions of H on K into equivalence classes",
    )

    p = sub.add_parser(
        "verify-paper",
        help="run the full verification suite (exit 0 iff every check passes)",
    )
    p.add_argument(
        "--max-n",
        type=_max_n,
        default=None,
        metavar="N",
        help="bound the n-indexed sweeps at N (smaller N runs faster)",
    )
    p.add_argument("--json", action="store_true", help="emit the report as a JSON array")
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="append deliberately failing checks to exercise the failure path",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; return its exit code.

    The handler runs with the cyclic garbage collector paused, and the
    caller's setting is restored however it ends. The package makes no
    reference cycles, so reference counting frees all a command drops and the
    pause defers no reclamation; a pass inside a command would only
    re-traverse the live table rows it has just built. The setting is
    process-wide, so library calls leave it to their callers.
    """
    args = _build_parser().parse_args(argv)
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        return handler(args)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
