"""The scenario validator against jsonschema: on the bundled scenario and
mutations of it, both accept or reject alike, and a rejection names the
error that ``jsonschema.exceptions.best_match`` picks, as the same text."""
import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from rhfill.scenarios import (SCENARIO_SCHEMA, _schema_error,
                              bundled_scenario_path)

jsonschema = pytest.importorskip("jsonschema")

ORACLE = jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)
BUNDLED = json.loads(bundled_scenario_path().read_text())

# keys the schema knows somewhere, and some it knows nowhere
NAMES = ["pair", "tasks", "seed", "budgets", "representation",
         "filling_family", "output_dir", "builtin", "group", "peripherals",
         "matrices", "indices", "members", "kernels", "elements", "seconds",
         "check", "name", "assert", "radius", "checks", "csv", "samples",
         "enumeration_depth", "word_depth", "max_final_distance", "queries",
         "ball_radius", "peripheral", "excluded", "attracting", "0", "1",
         "x", "bogus"]
LEAVES = (st.none() | st.booleans() | st.integers(-3, 70)
          | st.sampled_from([4.0, 0.0, -0.5, 2.5, 1e300])
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from(["f2", "sanov", "elliptic", "filling", "edf",
                             "limitset", "map", "a^3", "x", ""]))
VALUES = st.recursive(LEAVES, lambda inner: (
    st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES), inner, max_size=3)),
    max_leaves=6)


def oracle_error(spec) -> str | None:
    e = jsonschema.exceptions.best_match(ORACLE.iter_errors(spec))
    if e is None:
        return None
    path = ".".join(str(p) for p in e.absolute_path) or "<root>"
    return f"{path}: {e.message}"


def _nodes(x, path=()):
    yield path, x
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _nodes(v, path + (i,))


def _at(x, path):
    for p in path:
        x = x[p]
    return x


def _set(spec, path, value):
    if not path:
        return value
    _at(spec, path[:-1])[path[-1]] = value
    return spec


def test_bundled_scenario_is_valid_for_both():
    assert _schema_error(BUNDLED) is None and oracle_error(BUNDLED) is None


@pytest.mark.parametrize("path,value", [
    ((), 5), ((), []), ((), None), ((), "x"),
    (("seed",), True), (("seed",), 4.0), (("seed",), -1.0),
    (("tasks", 0, "enumeration_depth"), False),
    (("tasks", 0, "enumeration_depth"), 12.0),
    (("tasks", 0, "enumeration_depth"), 0.5),
    (("tasks", 3, "max_final_distance"), None),
    (("tasks", 3, "max_final_distance"), -0.0),
    (("tasks", 3, "max_final_distance"), True),
    (("tasks", 4, "ball_radius"), 0),
    (("tasks", 2, "expect_stability_failures"), 1),
    (("filling_family", "members"), {"x": {}}),
    (("filling_family", "members"), {"1": {"a": []}, "y": 3}),
    (("filling_family", "kernels"), {"4": {"z": ["a"]}}),
    (("tasks", 5), {"check": "filling", "radius": 2, "extra": 1}),
    (("tasks", 5), {"check": "filling", "checks": []}),
    (("tasks", 1), {"check": "uniform-delta", "a": 1, "b": 2}),
    (("tasks", 0), {"name": "x"}),
    (("tasks", 0), 7),
    (("budgets",), {"elements": 0, "seconds": 0, "x": 1}),
    (("representation",), {"matrices": {"a": []}}),
])
def test_edge_cases_match_the_oracle(path, value):
    spec = _set(copy.deepcopy(BUNDLED), path, value)
    assert _schema_error(spec) == oracle_error(spec)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutations_match_the_oracle(data):
    spec = copy.deepcopy(BUNDLED)
    for _ in range(data.draw(st.integers(1, 4))):
        nodes = list(_nodes(spec))
        path, node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
        op = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            spec = _set(spec, path, data.draw(VALUES))
        elif op == "delete" and path and isinstance(_at(spec, path[:-1]), dict):
            del _at(spec, path[:-1])[path[-1]]
        elif op == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(NAMES))] = data.draw(VALUES)
        elif op == "add" and isinstance(node, list):
            node.append(data.draw(VALUES))
    assert _schema_error(spec) == oracle_error(spec)
