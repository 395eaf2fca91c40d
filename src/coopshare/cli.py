"""coopshare command line: value, allocate, check.

Exit codes: 0 success, 2 input error, 3 size-guard error, 4 internal
invariant breach.  Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from typing import Optional

from .errors import InputError, InternalError, SizeError
from .files import decimal_string, exact_string, parse_allocation, parse_instance
from .game import (
    ENUMERATION_LIMIT,
    Allocation,
    Coalition,
    CoreCheck,
    NormalizedInstance,
    SingleMarketGame,
    coalition_table,
    core_check,
    normalize,
    value_general,
)
from .multimarket import (
    MarketDecomposition,
    core_point,
    decompose,
    shapley_multimarket,
    sum_of_nucleoli,
)
from .nucleolus import BRUTE_FORCE_LIMIT, nucleolus_bruteforce, nucleolus_primal_dual
from .shapley import SUBSET_LIMIT, shapley_bruteforce

METHODS = ("nucleolus", "shapley", "sum-nucleoli", "core-point")


@cache  # on first use, not at import; building costs several times a parse
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopshare",
        description="Exact profit-sharing computations for cooperating producers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="instance file (JSON)")
        p.add_argument("--precision", type=int, default=6, metavar="K",
                       help="decimal digits in reports (default 6)")
        p.add_argument("--exact", action="store_true",
                       help="print exact rationals only, no decimals")
        p.add_argument("--json-style", action="store_true",
                       help="emit the report as a JSON document")

    p_value = sub.add_parser("value", help="value of a coalition")
    common(p_value)
    p_value.add_argument("--coalition", default="all", metavar="NAMES",
                         help="comma-separated player names, or 'all'")
    p_value.add_argument("--plan", action="store_true",
                         help="also print an optimal production plan")

    p_alloc = sub.add_parser("allocate", help="compute a payoff division")
    common(p_alloc)
    p_alloc.add_argument("--method", required=True, choices=METHODS)
    p_alloc.add_argument("--oracle", action="store_true",
                         help="nucleolus or shapley from all 2^n coalition values")
    p_alloc.add_argument("--trace", action="store_true",
                         help="log each fixing round of the fast nucleolus")

    p_check = sub.add_parser("check", help="test an allocation for core membership")
    common(p_check)
    p_check.add_argument("allocation", help="allocation file (JSON)")
    return parser


def _fmt(value: Fraction, args) -> dict:
    out = {"exact": exact_string(value)}
    if not args.exact:
        out["decimal"] = decimal_string(value, args.precision)
    return out


def _parse_coalition(spec: str, inst: NormalizedInstance) -> Coalition:
    spec = spec.strip()
    if not spec:
        raise InputError("empty coalition spec; name players or use 'all'")
    if spec == "all":
        return Coalition.full(inst.n)
    index = {name: i + 1 for i, name in enumerate(inst.players)}
    players = []
    for raw in spec.split(","):
        name = raw.strip()
        if name not in index:
            raise InputError(
                f"unknown player {name!r}; instance has {', '.join(inst.players)}"
            )
        players.append(index[name])
    return Coalition.of(players)


def _single_game(dec: Optional[MarketDecomposition]) -> Optional[SingleMarketGame]:
    """The game of a decomposition with one effective market, or None;
    `dec` is None for a capacitated instance."""
    if dec is not None and len(dec.games) == 1:
        return dec.games[0]
    return None


def _core_result(
    inst: NormalizedInstance, game: Optional[SingleMarketGame], values, table=None
) -> CoreCheck:
    """Core membership of an efficient payoff vector in original terms.

    With the instance's one-market game (see `_single_game`) this is the
    polynomial minimum-excess scan; without, it enumerates coalitions:
    those of `table` when the caller has one, else the instance's.
    """
    if game is None:
        return core_check(inst if table is None else table, values, inst.n)
    canonical = tuple(values[game.perm[k] - 1] / game.scale for k in range(game.n))
    result = core_check(game, canonical)
    if result.violated is None:
        return result
    original = Coalition.of(game.perm[k - 1] for k in result.violated.members())
    return CoreCheck(False, original, result.excess * game.scale)


def _core_flag(
    inst: NormalizedInstance, game: Optional[SingleMarketGame], alloc: Allocation
) -> Optional[bool]:
    if alloc.in_core is not None:
        return alloc.in_core
    if game is None and inst.n > ENUMERATION_LIMIT:
        return None
    return _core_result(inst, game, alloc.values).in_core


def cmd_value(args) -> dict:
    inst = normalize(parse_instance(args.instance))
    coalition = _parse_coalition(args.coalition, inst)
    report = {
        "command": "value",
        "coalition": [inst.players[i - 1] for i in coalition.members()],
    }
    if args.plan:
        value, plan = value_general(inst, coalition, want_plan=True)
        report["value"] = _fmt(value, args)
        report["plan"] = [
            {
                "player": inst.players[i],
                "shipments": {
                    inst.markets[j]: _fmt(plan[i][j], args)
                    for j in range(inst.m)
                    if plan[i][j] != 0
                },
            }
            for i in range(inst.n)
            if any(plan[i][j] != 0 for j in range(inst.m))
        ]
    else:
        report["value"] = _fmt(value_general(inst, coalition), args)
    return report


def cmd_allocate(args) -> dict:
    inst = normalize(parse_instance(args.instance))
    dec = decompose(inst) if inst.uncapacitated else None
    game = _single_game(dec)
    # the fast nucleolus's domain: one market with demand, or none (v = 0)
    fast = dec is not None and len(dec.games) <= 1
    if args.trace and (args.method != "nucleolus" or args.oracle or not fast):
        raise InputError(
            "--trace needs the fast nucleolus on a single-market instance"
        )
    if args.oracle and args.method not in ("nucleolus", "shapley"):
        raise InputError(f"--oracle needs --method nucleolus or shapley, not {args.method}")
    trace_steps = None

    if args.method == "nucleolus":
        if args.oracle:
            alloc = nucleolus_bruteforce(inst, inst.n)
        elif fast:
            trace_steps = [] if args.trace else None
            if game is None:  # the zero game: no rounds
                zero = (Fraction(0),) * inst.n
                alloc = Allocation(zero, Fraction(0), "nucleolus (primal-dual)", True)
            else:
                alloc = nucleolus_primal_dual(game, trace=trace_steps)
        else:
            raise InputError(
                "the fast nucleolus needs one market and unlimited capacities; "
                f"use --oracle (n <= {BRUTE_FORCE_LIMIT})"
                + (" or --method sum-nucleoli" if dec is not None else "")
            )
    elif args.method == "shapley":
        if args.oracle:
            alloc = shapley_bruteforce(inst, inst.n)
        elif dec is not None:
            alloc = shapley_multimarket(dec)
        else:
            raise InputError(
                "the closed-form Shapley value needs unlimited capacities; "
                f"use --oracle (n <= {SUBSET_LIMIT})"
            )
    else:
        if dec is None:
            decompose(inst)  # raises for finite capacities
        alloc = sum_of_nucleoli(dec) if args.method == "sum-nucleoli" else core_point(dec)

    report = {
        "command": "allocate",
        "method": alloc.method,
        "total": _fmt(alloc.total, args),
        "allocation": [
            {"player": name, **_fmt(alloc.values[i], args)}
            for i, name in enumerate(inst.players)
        ],
        "core": _core_flag(inst, game, alloc),
    }
    if trace_steps is not None:
        report["trace"] = [
            {
                "round": step.level,
                "step": exact_string(step.step),
                "epsilon": exact_string(step.epsilon),
                "fixed": [inst.players[p - 1] for p in step.fixed.members()],
                "family": [inst.players[p - 1] for p in step.family.members()],
            }
            for step in trace_steps
        ]
    return report


def cmd_check(args) -> dict:
    inst = normalize(parse_instance(args.instance))
    values = parse_allocation(args.allocation, inst.players)
    game = _single_game(decompose(inst) if inst.uncapacitated else None)
    table = None
    if not inst.uncapacitated and inst.n <= ENUMERATION_LIMIT:
        # v(N) is the table's last entry: one table, one warm program
        table = coalition_table(inst, inst.n, ENUMERATION_LIMIT, "core enumeration")
        total = Fraction(table[0][-1], table[1])
    else:  # v(N) alone (in closed form when uncapacitated), so an
        # inefficient allocation is refused before any table is built
        total = value_general(inst, Coalition.full(inst.n))
    if sum(values) != total:
        raise InputError(
            f"allocation sums to {exact_string(sum(values))} but the grand "
            f"coalition is worth {exact_string(total)}; core membership needs "
            "exact efficiency"
        )
    result = _core_result(inst, game, values, table)

    report = {"command": "check", "in_core": result.in_core}
    if not result.in_core:
        report["violated"] = [
            inst.players[p - 1] for p in result.violated.members()
        ]
        report["excess"] = _fmt(result.excess, args)
    return report


def _print_human(report: dict, args) -> None:
    def line(label, fmt):
        if args.exact or "decimal" not in fmt:
            print(f"{label}: {fmt['exact']}")
        else:
            print(f"{label}: {fmt['exact']} (= {fmt['decimal']})")

    if report["command"] == "value":
        print(f"coalition: {', '.join(report['coalition'])}")
        line("value", report["value"])
        for entry in report.get("plan", []):
            shipments = ", ".join(
                f"{market} <- {fmt['exact']}"
                for market, fmt in entry["shipments"].items()
            )
            print(f"plan {entry['player']}: {shipments}")
    elif report["command"] == "allocate":
        print(f"method: {report['method']}")
        line("v(N)", report["total"])
        core = report["core"]
        print(f"core: {'yes' if core else 'not checked' if core is None else 'no'}")
        width = max(len(e["player"]) for e in report["allocation"])
        exact_width = max(len(e["exact"]) for e in report["allocation"])
        for entry in report["allocation"]:
            name = entry["player"].ljust(width)
            exact = entry["exact"].ljust(exact_width)
            if args.exact or "decimal" not in entry:
                print(f"  {name}  {entry['exact']}")
            else:
                print(f"  {name}  {exact}  (= {entry['decimal']})")
        for step in report.get("trace", []):
            print(
                f"round {step['round']}: step {step['step']}, "
                f"level {step['epsilon']}, fixed {{{','.join(step['fixed'])}}}, "
                f"set {{{','.join(step['family'])}}}"
            )
    else:
        if report["in_core"]:
            print("in core: yes")
        else:
            print("in core: NO")
            print(f"violated coalition: {', '.join(report['violated'])}")
            line("excess", report["excess"])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "value":
            report = cmd_value(args)
        elif args.command == "allocate":
            report = cmd_allocate(args)
        else:
            report = cmd_check(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if args.json_style:
        print(json.dumps(report, indent=2))
    else:
        _print_human(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
