"""Scenario runner: one JSON file describing a pair, a representation
family, and a task list; one JSON report per task, optional CSVs, and a
summary with a machine-checkable verdict per task. Each CLI check verb runs
one task; ``filling`` checks the quotient window of one filling.

Reports are deterministic: a scenario with a fixed seed serializes to the
same bytes on every run (sorted keys, no timestamps, no absolute paths).
"""

from __future__ import annotations

import json
import math
import re
import time
from functools import cached_property
from numbers import Integral, Number
from pathlib import Path

import numpy as np

from .automata import (
    AutomatonGraph,
    Ball,
    SetSystem,
    bundled_sanov_automaton,
    check_compatibility,
    enumerate_gpaths,
    nested_diameters,
)
from .convergence import (
    EdfQuery,
    RepFamily,
    _check_query,
    bundled_edf_queries,
    chabauty_check,
    edf_condition_check,
    elliptic_family,
    limit_set_convergence,
    sanov_generators,
)
from .cusped import build_cusped_ball
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    NoTabularDataError,
    RhfillError,
    SchemaError,
)
from .filling_geometry import (
    build_quotient_cusped, check_descent_quasigeodesic, check_local_isometry,
    check_uniform_delta, filling_map_report, injectivity_report,
    lift_roundtrip_report)
from .flags import generator_images
from .groups import (RelHypPair, make_filling, make_oracle, make_pair,
                     parse_word, standard_f2_pair)
from .metric_checks import verify_metric_lemmas

__all__ = [
    "SCENARIO_SCHEMA",
    "Scenario",
    "load_scenario",
    "pair_from_spec",
    "run_scenario",
    "run_task",
    "emit_plot_data",
    "bundled_scenario_path",
]

DEFAULT_BUDGETS = {
    "elements": 2_000_000,
    "seconds": None,
}


def _int(minimum: int) -> dict:
    return {"type": "integer", "minimum": minimum}


def _int_keyed(values: dict) -> dict:
    """An object keyed by decimal integer strings, as member or peripheral ids."""
    return {"type": "object", "propertyNames": {"pattern": "^[0-9]+$"},
            "additionalProperties": values}


_NUMBER = {"type": "number"}
_STRING = {"type": "string"}
_MATRICES = {"type": "object", "additionalProperties": {
    "type": "array", "minItems": 1,
    "items": {"type": "array", "items": _NUMBER}}}
_BALLS = {"type": "array", "items": {"type": "object", "properties": {
    "angle": _NUMBER, "radius": _NUMBER}}}

FILLING_CHECKS = ("local-isometry", "descent", "uniform-delta", "map",
                  "injectivity", "lift")

# the parameters each task runner reads, beside the keys every task takes;
# a filling task must give all three of its own
TASK_PARAMS = {
    "filling": {"kernels": {"type": "object"}, "radius": _int(0),
                "checks": {"type": "array", "minItems": 1,
                           "items": {"enum": list(FILLING_CHECKS)}}},
    "metric-lemmas": {"radius": _int(0), "samples": _int(1),
                      "quasidensity_radius": _int(0)},
    "uniform-delta": {"radius": _int(0), "slack": _NUMBER, "samples": _int(1),
                      "csv": _STRING},
    "compatibility": {"enumeration_depth": _int(1)},
    "contraction": {"path_length": _int(1), "count": _int(1),
                    "label_cutoff": _int(0), "rate_bound": _NUMBER,
                    "max_repetition": _int(0), "csv": _STRING},
    "edf": {"enumeration_depth": _int(1),
            "expect_stability_failures": {"type": "boolean"}, "csv": _STRING,
            "queries": {"type": "array", "minItems": 1, "items": {
                "type": "object", "additionalProperties": False,
                "properties": {"peripheral": _int(0), "name": _STRING,
                               "excluded": {"type": "array", "items": _STRING},
                               "attracting": _BALLS, "repelling": _BALLS}}}},
    "chabauty": {"ball_radius": {"type": "number", "exclusiveMinimum": 0},
                 "word_depth": _int(1), "csv": _STRING},
    "limitset": {"word_depth": _int(1),
                 "max_final_distance": {"type": ["number", "null"], "minimum": 0},
                 "csv": _STRING},
}
# csv is a parameter of the checks whose reports emit_plot_data renders
_TASK_COMMON = {"check": {"enum": list(TASK_PARAMS)}, "name": _STRING,
                "assert": {"type": "boolean"}}

# JSON Schema (2020-12) of a scenario file, checked by _schema_error; the
# jsonschema package is only the oracle the tests compare that check against
SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["pair", "tasks"],
    "additionalProperties": False,
    "properties": {
        "pair": {
            "type": "object",
            "properties": {
                "builtin": {"enum": ["f2"]},
                "group": {"type": "object"},
                "peripherals": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "seed": {"type": "integer", "minimum": 0},
        "representation": {
            "type": "object",
            "properties": {
                "builtin": {"enum": ["sanov"]},
                "matrices": _MATRICES,
            },
            "additionalProperties": False,
        },
        "filling_family": {
            "type": "object",
            "properties": {
                "builtin": {"enum": ["elliptic"]},
                "indices": {"type": "array",
                            "items": {"type": "integer", "minimum": 2}},
                "members": _int_keyed(_MATRICES),
                "kernels": _int_keyed(_int_keyed(
                    {"type": "array", "items": _STRING})),
            },
            "additionalProperties": False,
        },
        "budgets": {
            "type": "object",
            "properties": {
                "elements": {"type": "integer", "minimum": 1},
                "seconds": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "output_dir": _STRING,
        "tasks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check"],
                "properties": _TASK_COMMON,
                "allOf": [
                    {"if": {"required": ["check"],
                            "properties": {"check": {"const": check}}},
                     "then": {"properties": {**_TASK_COMMON, **params},
                              "additionalProperties": False,
                              "required": (list(params) if check == "filling"
                                           else [])}}
                    for check, params in TASK_PARAMS.items()],
            },
        },
    },
}

SCHEMA_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: (isinstance(x, Number) and not isinstance(x, bool)
                         and (isinstance(x, Integral) or math.isfinite(x))),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}
# the keywords _schema_errors reads; "then" is read by "if"
SCHEMA_KEYWORDS = frozenset({
    "type", "required", "properties", "additionalProperties", "enum",
    "const", "minimum", "exclusiveMinimum", "minItems", "items",
    "propertyNames", "pattern", "allOf", "if", "then"})


def _same(a, b) -> bool:
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(schema: dict, x, path: tuple = ()):
    """Yield ``(path, message)`` for each keyword of ``schema`` that ``x``
    fails, subschemas included, in the order jsonschema yields them: the
    keys of each schema in their order."""
    is_dict, is_num = isinstance(x, dict), SCHEMA_TYPES["number"](x)
    for key, value in schema.items():
        msg = None
        if key == "type":
            types = [value] if isinstance(value, str) else value
            if not any(SCHEMA_TYPES[t](x) for t in types):
                msg = f"{x!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum" and not any(_same(v, x) for v in value):
            msg = f"{x!r} is not one of {value!r}"
        elif key == "const" and not _same(value, x):
            msg = f"{value!r} was expected"
        elif key == "minimum" and is_num and x < value:
            msg = f"{x!r} is less than the minimum of {value!r}"
        elif key == "exclusiveMinimum" and is_num and x <= value:
            msg = f"{x!r} is less than or equal to the minimum of {value!r}"
        elif (key == "pattern" and isinstance(x, str)
              and not re.search(value, x)):
            msg = f"{x!r} does not match {value!r}"
        elif key == "minItems" and isinstance(x, list) and len(x) < value:
            short = "should be non-empty" if value == 1 else "is too short"
            msg = f"{x!r} {short}"
        elif key == "items" and isinstance(x, list):
            for i, item in enumerate(x):
                yield from _schema_errors(value, item, path + (i,))
        elif key == "allOf":
            for sub in value:
                yield from _schema_errors(sub, x, path)
        elif key == "if" and "then" in schema and next(
                _schema_errors(value, x), None) is None:
            yield from _schema_errors(schema["then"], x, path)
        elif not is_dict:
            pass
        elif key == "required":
            for name in value:
                if name not in x:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in value.items():
                if name in x:
                    yield from _schema_errors(sub, x[name], path + (name,))
        elif key == "propertyNames":
            for name in x:
                yield from _schema_errors(value, name, path)
        elif key == "additionalProperties":
            extra = [k for k in x if k not in schema.get("properties", {})]
            if isinstance(value, dict):
                for k in extra:
                    yield from _schema_errors(value, x[k], path + (k,))
            elif value is False and extra:
                names = ", ".join(map(repr, sorted(extra, key=str)))
                msg = (f"Additional properties are not allowed ({names} "
                       f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        if msg is not None:
            yield path, msg


def _schema_error(spec) -> str | None:
    """The ``path: message`` of the error in ``spec`` that
    ``jsonschema.exceptions.best_match`` picks, or None when it is valid.

    Supported keywords: exactly ``SCHEMA_KEYWORDS``, with the 2020-12
    semantics; ``additionalProperties`` may be false or a schema, ``items``
    is a schema. A bool is neither an integer nor a number, and a float
    with an integral value, such as 4.0, is an integer. ``enum`` and
    ``const`` tell a bool from 1 or 0. NaN and the infinities are neither
    numbers nor integers, where jsonschema takes them as numbers; this is
    the one deviation from it, so that ``nan`` cannot pass ``minimum``.

    The pick: the shallowest path wins, then the greatest path (so
    ``tasks.1`` beats ``tasks.0``); a tie goes to the error yielded first,
    in schema key order. So in a task's ``then`` schema an extra key, from
    ``additionalProperties``, beats a missing one, from ``required``. The
    unexpected names of ``additionalProperties`` are listed sorted.
    (``best_match`` breaks a tie first for an error whose schema has no
    ``type``, or one the value is not of; in ``SCENARIO_SCHEMA`` no two
    errors at one path differ in that.)
    """
    best = max(_schema_errors(SCENARIO_SCHEMA, spec),
               key=lambda e: (-len(e[0]), e[0]), default=None)
    if best is None:
        return None
    path, message = best
    return f"{'.'.join(map(str, path)) or '<root>'}: {message}"


# ---------------------------------------------------------------------------
# scenario loading


def pair_from_spec(pspec: dict) -> RelHypPair:
    """Pair from its JSON form: {"builtin": "f2"} or {"group", "peripherals"}."""
    if pspec.get("builtin") == "f2":
        return standard_f2_pair()
    if "group" not in pspec:
        raise SchemaError("pair: needs either 'builtin' or 'group'")
    try:
        oracle = make_oracle(pspec["group"])
        return make_pair(oracle, pspec.get("peripherals"))
    except RhfillError as e:
        raise SchemaError(f"pair.group: {e}") from None


class Scenario:
    """Validated scenario: pair, representation family, budgets, tasks.

    Each edf task's ``queries`` are parsed into :class:`EdfQuery` objects,
    and each filling task's ``kernels`` into its ``filling``, and checked
    against the pair here, before any task runs.
    """

    def __init__(self, spec: dict):
        error = _schema_error(spec)
        if error is not None:
            raise SchemaError(error)
        self.seed = int(spec.get("seed", 0))
        self.budgets = {**DEFAULT_BUDGETS, **spec.get("budgets", {})}
        self.output_dir = spec.get("output_dir", "reports")
        self.pair = pair_from_spec(spec["pair"])
        # filling and metric-lemmas tasks read no family, and the Sanov base
        # fits two-generator pairs only; a bad image fails here, before any
        # task runs
        self.family = None
        if {"representation", "filling_family"} & set(spec) or any(
                task["check"] not in ("filling", "metric-lemmas")
                for task in spec["tasks"]):
            self.family = self._build_family(spec.get("representation", {}),
                                             spec.get("filling_family"))
        self.tasks = [self._parse_task(i, task)
                      for i, task in enumerate(spec["tasks"])]
        _check_output_names(self.tasks)

    @cached_property
    def automaton(self) -> tuple[AutomatonGraph, SetSystem]:
        """The bundled automaton and set system, built on first use."""
        return bundled_sanov_automaton(self.pair)

    def _parse_task(self, i: int, task: dict) -> dict:
        if task["check"] == "filling":
            try:
                return {**task, "filling": make_filling(self.pair,
                                                        task["kernels"])}
            except RhfillError as e:
                raise SchemaError(f"tasks.{i}.kernels: {e}") from None
        if task["check"] != "edf" or "queries" not in task:
            return task
        return {**task, "queries": [
            _query_from_json(self.pair, q, f"tasks.{i}.queries.{k}")
            for k, q in enumerate(task["queries"])]}

    def _images(self, rep: dict, where: str) -> dict:
        """RepFamily checks the images too; this call names the bad field."""
        try:
            return generator_images(rep, self.pair.group.gen_names)
        except RhfillError as e:
            raise SchemaError(f"{where}.{e}") from None

    def _build_family(self, rspec: dict, fspec: dict | None) -> RepFamily:
        if rspec.get("builtin") == "sanov" or "matrices" not in rspec:
            base = sanov_generators()
        else:
            base = self._images(rspec["matrices"], "representation.matrices")
        if fspec is None:
            return RepFamily(self.pair, base, {})
        if fspec.get("builtin") == "elliptic":
            if "matrices" in rspec:
                raise SchemaError("representation.matrices: the elliptic "
                                  "family is built on the Sanov base")
            ns = tuple(fspec.get("indices", (10, 20, 30, 40, 60)))
            try:
                return elliptic_family(self.pair, ns)
            except RhfillError as e:
                raise SchemaError(f"filling_family: {e}") from None
        members = {int(key): self._images(rep, f"filling_family.members.{key}")
                   for key, rep in fspec.get("members", {}).items()}
        kernels = fspec.get("kernels", {})
        # surface malformed kernel words as schema errors naming the field
        for idx, per_spec in kernels.items():
            for pid, words in per_spec.items():
                if int(pid) >= len(self.pair.peripherals):
                    raise SchemaError(f"filling_family.kernels.{idx}.{pid}: "
                                      f"no peripheral with id {pid}")
                per = self.pair.peripherals[int(pid)]
                for k, word in enumerate(words):
                    try:
                        parse_word(per.factor, word)
                    except RhfillError as e:
                        raise SchemaError(
                            f"filling_family.kernels.{idx}.{pid}[{k}]: {e}"
                        ) from None
        return RepFamily(self.pair, base, members, kernels or None)


def _task_name(i: int, task: dict) -> str:
    return task.get("name", f"{i:02d}-{task['check']}")


def _check_output_names(tasks: list[dict]) -> None:
    """Each task writes ``<name>.json`` and its csv, if any, beside
    ``summary.json``: refuse a name that is not a plain file name or whose
    file another output of the run takes."""
    taken = {"summary.json": "the summary"}
    for i, task in enumerate(tasks):
        files = [("name", _task_name(i, task) + ".json")]
        if task.get("csv"):
            files.append(("csv", task["csv"]))
        for field, file in files:
            where = f"tasks.{i}.{field}"
            if Path(file).name != file or file == ".." or "\0" in file:
                raise SchemaError(f"{where}: {file!r} is not a plain file name")
            if file in taken:
                raise SchemaError(
                    f"{where}: {file} is also written by {taken[file]}")
            taken[file] = where


def _query_from_json(pair, obj: dict, where: str) -> EdfQuery:
    def balls(key):
        out = []
        for i, b in enumerate(obj.get(key, ())):
            if "angle" not in b or "radius" not in b:
                raise SchemaError(
                    f"{where}.{key}.{i}: a ball needs 'angle' and 'radius'")
            out.append(Ball(float(b["angle"]), float(b["radius"])))
        return tuple(out)

    try:
        excl = tuple(parse_word(pair.group, w) for w in obj.get("excluded", ()))
    except RhfillError as e:
        raise SchemaError(f"{where}.excluded: {e}") from None
    query = EdfQuery(peripheral=obj.get("peripheral", 0),
                     attracting=balls("attracting"),
                     repelling=balls("repelling"),
                     excluded=excl,
                     name=obj.get("name", ""))
    try:
        _check_query(pair, query)
    except InvalidParameterError as e:
        raise SchemaError(f"{where}: {e}") from None
    return query


def _load_json(text: str, where: str):
    """Strict JSON: the NaN, Infinity and -Infinity that Python's json
    accepts are refused, so no bound in the schema is dodged by a NaN."""
    def refuse(token):
        raise SchemaError(f"{where}: invalid JSON ({token} is not a number)")

    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{where}: invalid JSON ({e})") from None


def load_scenario(path) -> Scenario:
    path = Path(path)
    return Scenario(_load_json(path.read_text(), path.name))


def bundled_scenario_path() -> Path:
    return Path(__file__).parent / "data" / "sanov-filling.json"


# ---------------------------------------------------------------------------
# task execution


def _task_compatibility(sc: Scenario, params: dict) -> dict:
    auto, sys_ = sc.automaton
    return check_compatibility(
        sc.family.base, auto, sys_,
        enumeration_depth=int(params.get("enumeration_depth", 12)))


def _task_metric_lemmas(sc: Scenario, params: dict) -> dict:
    return verify_metric_lemmas(
        sc.pair,
        radius=int(params.get("radius", 6)),
        delta_samples=int(params.get("samples", 200_000)),
        seed=sc.seed,
        quasidensity_radius=int(params.get("quasidensity_radius", 5)))


def _task_uniform_delta(sc: Scenario, params: dict) -> dict:
    fillings, radius = sc.family.fillings, int(params.get("radius", 4))
    if not fillings:
        raise InvalidParameterError(
            "uniform-delta needs a filling family with kernels")
    return check_uniform_delta(
        build_cusped_ball(sc.pair, radius),
        ((n, build_cusped_ball(fillings[n].quotient_pair, radius))
         for n in sorted(fillings)),
        slack=float(params.get("slack", 2.0)),
        samples=int(params.get("samples", 50_000)),
        seed=sc.seed)


def _task_filling(sc: Scenario, params: dict) -> dict:
    """The checks at fixed parameters: local isometry at radius - 1,
    descent with K = 1 at depth 2 over 200 pairs, 1,000 lift paths, and the
    delta of the task's windows over 50,000 quadruples, indexed by the
    largest finite peripheral order. Injectivity alone builds no window."""
    filling, radius, checks = (params["filling"], int(params["radius"]),
                               params["checks"])
    fg = (build_quotient_cusped(sc.pair, filling, radius)
          if set(checks) != {"injectivity"} else None)
    orders = [p.factor.p_order() for p in filling.quotient_pair.peripherals]
    runners = {
        "local-isometry": lambda: check_local_isometry(fg, max(1, radius - 1)),
        "descent": lambda: check_descent_quasigeodesic(
            fg, K=1.0, max_depth_used=2, samples=200, seed=sc.seed),
        "uniform-delta": lambda: check_uniform_delta(
            fg.source, [(max((o for o in orders if o), default=0), fg.target)],
            samples=50_000, seed=sc.seed),
        "map": lambda: filling_map_report(fg),
        "injectivity": lambda: injectivity_report(filling, radius),
        "lift": lambda: lift_roundtrip_report(fg, n_paths=1000, seed=sc.seed),
    }
    sub = {c: runners[c]() for c in checks}
    return {
        "name": "filling-checks",
        "radius": radius,
        "kernels": params["kernels"],
        "checks": sub,
        "pass": all(r.get("pass", False) for r in sub.values()),
    }


def _task_edf(sc: Scenario, params: dict) -> dict:
    queries = (params["queries"] if "queries" in params
               else bundled_edf_queries(sc.pair))
    depth = int(params.get("enumeration_depth", 8))
    reports = [edf_condition_check(sc.family, q, enumeration_depth=depth)
               for q in queries]
    table = [{"query": rep["query"], "n": row["index"],
              "min_margin": row["min_margin"], "verdict": row["verdict"]}
             for rep in reports for row in rep["edf"]]
    ok = all(r["pass"] for r in reports)
    if params.get("expect_stability_failures"):
        ok = ok and all(row["verdict"] == "fail"
                        for rep in reports
                        for row in rep["peripheral_stability"])
    return {
        "name": "edf-condition-set",
        "enumeration_depth": depth,
        "queries": reports,
        "table": table,
        "stability_implies_edf": all(r["stability_implies_edf"]
                                     for r in reports),
        "pass": ok,
    }


def _task_chabauty(sc: Scenario, params: dict) -> dict:
    return chabauty_check(
        sc.family,
        ball_radius=float(params.get("ball_radius", 10.0)),
        word_depth=int(params.get("word_depth", 8)),
        cap=sc.budgets["elements"])


def _task_limitset(sc: Scenario, params: dict) -> dict:
    rep = limit_set_convergence(
        sc.family,
        word_depth=int(params.get("word_depth", 12)),
        cap=sc.budgets["elements"])
    limit = params.get("max_final_distance")
    # a table with no member measured shows nothing, whatever it decreases
    rep["pass"] = bool(rep["table"] and rep["decreasing"] and
                       (limit is None or
                        (rep["final_distance"] is not None
                         and rep["final_distance"] <= float(limit))))
    return rep


def _task_contraction(sc: Scenario, params: dict) -> dict:
    length = int(params.get("path_length", 10))
    count = int(params.get("count", 50))
    cutoff = int(params.get("label_cutoff", 8))
    rate_bound = float(params.get("rate_bound", 0.9))
    rep_bound = int(params.get("max_repetition", 2))
    auto, sys_ = sc.automaton
    paths = []
    for p in enumerate_gpaths(auto, length, label_cutoff=cutoff):
        if len(p) == length:
            paths.append(p)
            if len(paths) == count:
                break
    table = []
    for i, p in enumerate(paths):
        rep = nested_diameters(sc.family.base, p, sys_)
        table.append({"path": i, "words": p.words(), "rate": rep["rate"],
                      "monotone": rep["monotone_nonincreasing"],
                      "max_repetition": rep["max_repetition"]})
    worst_rate = max((r["rate"] for r in table), default=0.0)
    worst_rep = max((r["max_repetition"] for r in table), default=0)
    return {
        "name": "contraction",
        "paths": len(table),
        "path_length": length,
        "table": table,
        "max_rate": worst_rate,
        "all_monotone": all(r["monotone"] for r in table),
        "max_repetition": worst_rep,
        "rate_bound": rate_bound,
        "pass": (len(table) > 0 and worst_rate < rate_bound
                 and all(r["monotone"] for r in table)
                 and worst_rep <= rep_bound),
    }


_TASK_RUNNERS = {
    "compatibility": _task_compatibility,
    "filling": _task_filling,
    "metric-lemmas": _task_metric_lemmas,
    "uniform-delta": _task_uniform_delta,
    "edf": _task_edf,
    "chabauty": _task_chabauty,
    "limitset": _task_limitset,
    "contraction": _task_contraction,
}


def run_task(sc: Scenario, task: dict) -> dict:
    """The report of one validated task of the scenario, an entry of
    ``sc.tasks`` (edf queries already parsed); nothing is written."""
    return _TASK_RUNNERS[task["check"]](sc, task)


# ---------------------------------------------------------------------------
# emission


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_plot_data(report: dict) -> str:
    """CSV rendering of a report's tabular section, header row included."""
    if not isinstance(report, dict):
        raise NoTabularDataError("no-tabular-data: report is not an object")
    if "delta_by_n" in report:
        rows = sorted(report["delta_by_n"].items(), key=lambda kv: int(kv[0]))
        lines = ["n,delta"]
        lines += [f"{n},{_csv_cell(float(d))}" for n, d in rows]
        return "\n".join(lines) + "\n"
    name = report.get("name")
    if name == "limit-set-convergence":
        depth = report["word_depth"]
        lines = ["n,d_hausdorff,depth"]
        lines += [f"{r['index']},{_csv_cell(r['d_hausdorff'])},{depth}"
                  for r in report["table"]]
        return "\n".join(lines) + "\n"
    if name == "chabauty-window":
        lines = ["n,distance,a_side,b_side"]
        lines += [",".join([str(r["index"]),
                            _csv_cell(r["full"]["distance"]),
                            _csv_cell(r["full"]["a_side"]),
                            _csv_cell(r["full"]["b_side"])])
                  for r in report["table"]]
        return "\n".join(lines) + "\n"
    if name == "edf-condition-set":
        lines = ["query,n,min_margin,verdict"]
        lines += [",".join([r["query"], str(r["n"]),
                            _csv_cell(r["min_margin"]), r["verdict"]])
                  for r in report["table"]]
        return "\n".join(lines) + "\n"
    if name == "contraction":
        lines = ["path,rate,monotone"]
        lines += [f"{r['path']},{_csv_cell(r['rate'])},{r['monotone']}"
                  for r in report["table"]]
        return "\n".join(lines) + "\n"
    raise NoTabularDataError(
        f"no-tabular-data: report {name!r} has no tabular section")


# ---------------------------------------------------------------------------
# runner


def run_scenario(path, output_dir=None) -> tuple[int, dict]:
    """Execute the tasks one at a time, in order; returns (exit_code, summary).

    ``budgets.seconds`` is checked before each task starts, against the
    time since the first one started; a running task is not interrupted.

    Exit codes follow the CLI convention: 0 all asserted verdicts pass,
    1 a property failed or a task errored, 2 schema problems (raised as
    SchemaError before any task runs), 3 a budget was exceeded (raised).
    Reports land in ``output_dir``, else in the scenario's ``output_dir``,
    one JSON per task, plus a ``summary.json``; a relative directory is
    taken from the current one, never from the scenario file's.
    """
    sc = load_scenario(path)
    out_dir = Path(output_dir if output_dir is not None else sc.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.monotonic()
    budget_s = sc.budgets.get("seconds")
    entries = []
    all_pass = True
    # the pair's source window serves its filling tasks only, so it is
    # freed once the last of them has run
    last_filling = max((i for i, task in enumerate(sc.tasks)
                        if task["check"] == "filling"), default=None)
    for i, task in enumerate(sc.tasks):
        if budget_s is not None and time.monotonic() - started > budget_s:
            raise BudgetExceededError("seconds", budget_s)
        check = task["check"]
        name = _task_name(i, task)
        entry = {"task": name, "check": check,
                 "asserted": bool(task.get("assert", True))}
        try:
            report = run_task(sc, task)
        except BudgetExceededError:
            raise
        except RhfillError as e:
            entry["error"] = f"{type(e).__name__}: {e}"
            entry["pass"] = False
            entries.append(entry)
            if entry["asserted"]:
                all_pass = False
            continue
        finally:
            if i == last_filling:
                sc.pair.window = None
        report_file = f"{name}.json"
        (out_dir / report_file).write_text(_dump_json(report))
        entry["report_file"] = report_file
        entry["pass"] = bool(report.get("pass", False))
        if task.get("csv"):
            csv_text = emit_plot_data(report)
            (out_dir / task["csv"]).write_text(csv_text)
            entry["csv_file"] = task["csv"]
        entries.append(entry)
        if entry["asserted"] and not entry["pass"]:
            all_pass = False

    summary = {
        "name": "scenario-summary",
        "seed": sc.seed,
        "tasks": entries,
        "pass": all_pass,
    }
    (out_dir / "summary.json").write_text(_dump_json(summary))
    return (0 if all_pass else 1), summary
