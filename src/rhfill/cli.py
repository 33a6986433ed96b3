"""Command line front end.

Verbs mirror the library layers: window builders (``cusped``, ``delta``),
filling checks (``fill``, ``lift``), flag-side checkers (``automaton``,
``edf``, ``chabauty``, ``limitset``), and the scenario runner (``run``).
Every check verb runs one scenario task through the runner that ``run``
uses; ``fill`` and ``lift`` run a ``filling`` task.

Exit codes: 0 all asserted checks pass, 1 a property failed, 2 usage or
input problems, 3 a budget was exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .automata import (
    automaton_from_json,
    automaton_to_json,
    bundled_sanov_automaton,
    set_system_to_json,
    validate_automaton,
)
from .cusped import build_cusped_ball, dump_graph, load_graph
from .delta import MODE_ALIASES, estimate_delta
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    RhfillError,
    SchemaError,
    UnsupportedKindError,
    WindowError,
)
from .scenarios import (FILLING_CHECKS, Scenario, _dump_json, _load_json,
                        pair_from_spec, run_scenario, run_task)


def _pair_spec(path: str | None) -> dict:
    if path is None:
        return {"builtin": "f2"}
    p = Path(path)
    return _load_json(p.read_text(), p.name)


def _one_task(args, task: dict, **spec) -> dict:
    """The report of ``task``, the one task of a scenario over ``--pair``."""
    sc = Scenario({"pair": _pair_spec(args.pair), "tasks": [task], **spec})
    return run_task(sc, sc.tasks[0])


def _filling_task(args, checks: list[str]) -> dict:
    return _one_task(args, {"check": "filling", "radius": args.radius,
                            "kernels": _load_json(args.kernels, "--kernels"),
                            "checks": checks}, seed=args.seed)


def _family_task(args, task: dict) -> int:
    """Run one task of a scenario over the elliptic family, as ``run`` does."""
    try:
        ns = [int(x) for x in args.indices.split(",") if x.strip()]
    except ValueError:
        raise InvalidParameterError(
            f"--indices: expected comma-separated integers, got "
            f"{args.indices!r}") from None
    if not ns:
        raise InvalidParameterError("--indices must name at least one index")
    return _emit(_one_task(args, task, filling_family={
        "builtin": "elliptic", "indices": ns}), args.out)


def _finite_float(text: str) -> float:
    """A float that a scenario file could also hold (JSON has no nan or inf)."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _emit(report: dict, out: str | None) -> int:
    """Write the report; the exit code of its verdict."""
    text = _dump_json(report)
    if out:
        Path(out).write_text(text)
        verdict = report.get("pass")
        tail = "" if verdict is None else f" ({'pass' if verdict else 'fail'})"
        print(f"wrote {out}{tail}")
    else:
        sys.stdout.write(text)
    return 0 if report.get("pass", False) else 1


# ---------------------------------------------------------------------------
# verbs


def cmd_cusped(args) -> int:
    pair = pair_from_spec(_pair_spec(args.pair))
    graph = build_cusped_ball(pair, args.radius, max_depth=args.max_depth)
    if args.dump:
        Path(args.dump).write_text(dump_graph(graph))
    report = {
        "name": "cusped-window",
        "radius": args.radius,
        "vertices": graph.n_vertices,
        "edges": int(len(graph.edges_u)),
        "max_depth": int(graph.depth.max()) if graph.n_vertices else 0,
        "dump": args.dump,
        "pass": True,
    }
    return _emit(report, args.out)


def cmd_delta(args) -> int:
    if args.seed < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
    graph = load_graph(Path(args.graph).read_text())
    est = estimate_delta(graph, mode=args.mode, budget=args.budget,
                         samples=args.samples, seed=args.seed)
    report = {
        "name": "delta-estimate",
        "delta": est.delta,
        "mode": est.mode,
        "checked": est.checked,
        "witness": list(est.witness),
        "exact": est.exact,
        "pass": True,
    }
    return _emit(report, args.out)


def cmd_fill(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    return _emit(_filling_task(args, checks), args.out)


def cmd_lift(args) -> int:
    return _emit(_filling_task(args, ["lift"])["checks"]["lift"], args.out)


def cmd_automaton(args) -> int:
    pspec = _pair_spec(args.pair)
    task = {"check": "compatibility", "enumeration_depth": args.depth}
    sc = Scenario({"pair": pspec, "tasks": [task]}) if args.compat else None
    pair = sc.pair if sc is not None else pair_from_spec(pspec)
    if args.auto:
        auto = automaton_from_json(
            pair, _load_json(Path(args.auto).read_text(), args.auto))
        sys_ = None
    elif sc is not None:
        auto, sys_ = sc.automaton
    else:
        auto, sys_ = bundled_sanov_automaton(pair)
    validation = validate_automaton(auto, pair)
    report = {
        "name": "automaton",
        "validation": validation,
        "pass": validation["pass"],
    }
    if args.compat:
        if sys_ is None:
            raise InvalidParameterError(
                "--compat needs the bundled set system; drop --auto")
        crep = run_task(sc, task)
        report["compatibility"] = crep
        report["pass"] = report["pass"] and crep["pass"]
    if args.dump:
        Path(args.dump).write_text(_dump_json(automaton_to_json(auto)))
    if args.dump_sets:
        if sys_ is None:
            raise InvalidParameterError(
                "--dump-sets needs the bundled set system; drop --auto")
        Path(args.dump_sets).write_text(_dump_json(set_system_to_json(sys_)))
    return _emit(report, args.out)


def cmd_edf(args) -> int:
    return _family_task(args, {"check": "edf", "enumeration_depth": args.depth})


def cmd_chabauty(args) -> int:
    return _family_task(args, {"check": "chabauty", "ball_radius": args.radius,
                               "word_depth": args.depth})


def cmd_limitset(args) -> int:
    return _family_task(args, {"check": "limitset", "word_depth": args.depth,
                               "max_final_distance": args.max_final})


def cmd_run(args) -> int:
    code, summary = run_scenario(args.scenario, output_dir=args.out)
    for entry in summary["tasks"]:
        mark = "pass" if entry["pass"] else "FAIL"
        detail = entry.get("error", entry.get("report_file", ""))
        print(f"{mark}  {entry['task']}  {detail}")
    print("scenario:", "pass" if summary["pass"] else "FAIL")
    return code


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhfill",
        description="window checks for relatively hyperbolic fillings")
    sub = parser.add_subparsers(dest="verb", required=True)

    def pair_arg(p, required=False):
        p.add_argument("--pair", required=required, metavar="FILE",
                       help="pair JSON; defaults to the two-cusp free pair")

    def out_arg(p):
        p.add_argument("--out", metavar="FILE",
                       help="write the JSON report here instead of stdout")

    p = sub.add_parser("cusped", help="build a cusped window")
    pair_arg(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--dump", metavar="FILE", help="write the graph text dump")
    out_arg(p)
    p.set_defaults(func=cmd_cusped)

    p = sub.add_parser("delta", help="hyperbolicity of a dumped graph")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--mode", default="auto", choices=sorted(MODE_ALIASES))
    p.add_argument("--budget", type=int, default=300_000_000,
                   help="quadruple cap for the exhaustive scan")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    out_arg(p)
    p.set_defaults(func=cmd_delta)

    def filling_args(p):
        pair_arg(p)
        p.add_argument("--kernels", required=True,
                       help='JSON object, e.g. \'{"0":["a^50"],"1":["b^50"]}\'')
        p.add_argument("--radius", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        out_arg(p)

    p = sub.add_parser("fill", help="the filling checks on a quotient window: "
                                    "a one-task scenario of check 'filling'")
    filling_args(p)
    p.add_argument("--checks", default="local-isometry,descent,uniform-delta",
                   help=f"comma list from: {', '.join(FILLING_CHECKS)}")
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("lift", help="lift 1,000 quotient geodesics and check "
                                    "them: the 'lift' check of a one-task "
                                    "scenario of check 'filling'")
    filling_args(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("automaton", help="validate an automaton, optionally "
                                         "check representation compatibility")
    pair_arg(p)
    p.add_argument("--auto", metavar="FILE",
                   help="automaton JSON; defaults to the bundled one")
    p.add_argument("--compat", action="store_true",
                   help="also check the built-in representation against it")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--dump", metavar="FILE", help="write the automaton JSON")
    p.add_argument("--dump-sets", metavar="FILE",
                   help="write the set system JSON")
    out_arg(p)
    p.set_defaults(func=cmd_automaton)

    def family_args(p):
        pair_arg(p)
        p.add_argument("--indices", default="10,20,30,40,60",
                       help="comma list of filling orders")
        out_arg(p)

    p = sub.add_parser("edf", help="extended filling condition per index")
    family_args(p)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=cmd_edf)

    p = sub.add_parser("chabauty", help="windowed group convergence table")
    family_args(p)
    p.add_argument("--radius", type=_finite_float, default=10.0)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=cmd_chabauty)

    p = sub.add_parser("limitset", help="limit set convergence table")
    family_args(p)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--max-final", type=_finite_float, default=None)
    p.set_defaults(func=cmd_limitset)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario", metavar="SCENARIO.json")
    p.add_argument("--out", metavar="DIR",
                   help="output directory; defaults to the scenario's "
                        "output_dir, relative to the current directory")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (SchemaError, InvalidParameterError, UnsupportedKindError,
            WindowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RhfillError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
