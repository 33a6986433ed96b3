"""Command line verbs end to end, driven in process through main()."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rhfill

from rhfill.cli import main
from rhfill.convergence import elliptic_generators
from rhfill.cusped import load_graph
from rhfill.scenarios import Scenario, _dump_json, run_task


@pytest.fixture(scope="module")
def pair_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "pair.json"
    p.write_text('{"builtin": "f2"}\n')
    return str(p)


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory, pair_file):
    p = tmp_path_factory.mktemp("cli-graph") / "x.graph"
    assert main(["cusped", "--pair", pair_file, "--radius", "2",
                 "--dump", str(p), "--out", str(p) + ".json"]) == 0
    return str(p)


def test_no_verb_is_usage(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "cusped" in capsys.readouterr().out


def test_cusped_report_matches_dump(tmp_path, pair_file, capsys):
    dump = tmp_path / "x.graph"
    assert main(["cusped", "--pair", pair_file, "--radius", "3",
                 "--dump", str(dump)]) == 0
    report = json.loads(capsys.readouterr().out)
    graph = load_graph(dump.read_text())
    assert report["vertices"] == graph.n_vertices
    assert report["edges"] == len(graph.edges_u)
    assert report["max_depth"] == 3


def test_delta_exhaustive_on_small_window(small_graph, capsys):
    assert main(["delta", "--graph", small_graph,
                 "--mode", "exhaustive"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact"]
    assert report["delta"] == 1.0


def test_delta_budget_refusal(small_graph, capsys):
    assert main(["delta", "--graph", small_graph, "--mode", "exhaustive",
                 "--budget", "100"]) == 3
    assert "budget" in capsys.readouterr().err


def test_delta_missing_graph_is_usage(capsys):
    assert main(["delta", "--graph", "nope.graph"]) == 2
    capsys.readouterr()


def test_fill_long_filling_passes(tmp_path, pair_file, capsys):
    out = tmp_path / "report.json"
    code = main(["fill", "--pair", pair_file,
                 "--kernels", '{"0":["a^50"],"1":["b^50"]}',
                 "--radius", "4",
                 "--checks", "local-isometry,injectivity,map",
                 "--out", str(out)])
    assert code == 0
    assert "pass" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["pass"]
    assert set(report["checks"]) == {"local-isometry", "injectivity", "map"}
    assert report["checks"]["local-isometry"]["violation_count"] == 0


def test_fill_short_filling_fails(pair_file, capsys):
    code = main(["fill", "--pair", pair_file,
                 "--kernels", '{"0":["a^3"],"1":["b^3"]}',
                 "--radius", "4", "--checks", "local-isometry"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["local-isometry"]["violation_count"] > 0


def test_fill_builds_each_window_once(pair_file, monkeypatch, capsys):
    # the default checks, uniform-delta among them, read one unfilled and
    # one filled window
    built = []
    build = rhfill.cusped.build_cusped_ball

    def counting(pair, radius, *args, **kwargs):
        built.append((id(pair), radius))
        return build(pair, radius, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("rhfill") \
                and getattr(module, "build_cusped_ball", None) is build:
            monkeypatch.setattr(module, "build_cusped_ball", counting)
    assert main(["fill", "--pair", pair_file,
                 "--kernels", '{"0":["a^20"],"1":["b^20"]}',
                 "--radius", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["checks"]) == {"local-isometry", "descent",
                                     "uniform-delta"}
    assert report["checks"]["uniform-delta"]["radius"] == 4
    # the unfilled pair's window and the quotient's, both of radius 4
    assert len(built) == 2 and built[0][0] != built[1][0]
    assert [radius for _, radius in built] == [4, 4]


def test_fill_rejects_unknown_check(pair_file, capsys):
    assert main(["fill", "--pair", pair_file, "--kernels", "{}",
                 "--radius", "3", "--checks", "frobnicate"]) == 2
    assert "tasks.0.checks.0: 'frobnicate' is not one of" \
        in capsys.readouterr().err


def test_fill_rejects_bad_kernel_json(pair_file, capsys):
    assert main(["fill", "--pair", pair_file, "--kernels", "{nope",
                 "--radius", "3"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_fill_without_checks_is_usage(pair_file, capsys):
    assert main(["fill", "--pair", pair_file, "--kernels", '{"0":["a^5"]}',
                 "--radius", "2", "--checks", ","]) == 2
    assert "tasks.0.checks: []" in capsys.readouterr().err


def test_fill_on_a_three_generator_pair(tmp_path, capsys):
    # a filling task reads no representation, so the Sanov base, which
    # has images for a and b only, is not built
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"group": {"kind": "free", "rank": 3}}))
    assert main(["fill", "--pair", str(pair), "--kernels", '{"2":["c^5"]}',
                 "--radius", "2", "--checks", "injectivity,map"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


def test_fill_and_lift_are_the_filling_task(pair_file, capsys):
    kernels = {"0": ["a^20"], "1": ["b^20"]}
    args = ["--pair", pair_file, "--kernels", json.dumps(kernels),
            "--radius", "3", "--seed", "5"]
    task = {"check": "filling", "kernels": kernels, "radius": 3,
            "checks": ["descent", "map", "lift"]}
    sc = Scenario({"pair": {"builtin": "f2"}, "seed": 5, "tasks": [task]})
    expected = run_task(sc, sc.tasks[0])
    assert main(["fill", *args, "--checks", "descent,map,lift"]) == 0
    assert capsys.readouterr().out == _dump_json(expected)
    assert main(["lift", *args]) == 0
    assert capsys.readouterr().out == _dump_json(expected["checks"]["lift"])


def test_lift_roundtrip(pair_file, capsys):
    code = main(["lift", "--pair", pair_file,
                 "--kernels", '{"0":["a^50"],"1":["b^50"]}',
                 "--radius", "4"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"]
    assert report["paths"] == 1000
    assert report["roundtrip_failures"] == 0


def test_automaton_compat_and_json_roundtrip(tmp_path, capsys):
    auto = tmp_path / "auto.json"
    code = main(["automaton", "--compat", "--depth", "6",
                 "--dump", str(auto), "--out", str(tmp_path / "rep.json")])
    assert code == 0
    capsys.readouterr()
    assert main(["automaton", "--auto", str(auto)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["validation"]["pass"]


def test_automaton_compat_is_the_compatibility_task(capsys):
    assert main(["automaton", "--compat", "--depth", "12"]) == 0
    report = json.loads(capsys.readouterr().out)
    task = {"check": "compatibility", "enumeration_depth": 12}
    expected = run_task(Scenario({"pair": {"builtin": "f2"}, "tasks": [task]}),
                        task)
    assert report["compatibility"] == json.loads(_dump_json(expected))


def test_automaton_compat_checking_nothing_exits_one(capsys):
    assert main(["automaton", "--compat", "--depth", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["compatibility"]["containments_checked"] == 0
    assert report["compatibility"]["verdict"] == "inconclusive"
    assert not report["pass"]


def test_automaton_compat_needs_bundled_sets(tmp_path, capsys):
    auto = tmp_path / "auto.json"
    assert main(["automaton", "--dump", str(auto),
                 "--out", str(tmp_path / "r.json")]) == 0
    assert main(["automaton", "--auto", str(auto), "--compat"]) == 2
    capsys.readouterr()


def test_edf_verb(tmp_path):
    out = tmp_path / "edf.json"
    assert main(["edf", "--indices", "30,60", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["table"]) == 4
    assert all(r["verdict"] == "pass" for r in report["table"])


def test_chabauty_verb(tmp_path, capsys):
    assert main(["chabauty", "--indices", "10,20"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decreasing"]["full"]


def test_chabauty_with_an_empty_window_fails(capsys):
    # every image has norm at least sqrt(2), so this window holds no point
    assert main(["chabauty", "--radius", "0.001", "--indices", "10",
                 "--depth", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["table"][0]["full"]["windowed_points"] == 0
    assert not report["pass"]


def test_limitset_max_final_gate(tmp_path, capsys):
    assert main(["limitset", "--indices", "10", "--depth", "8",
                 "--max-final", "0.01"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["final_distance"] > 0.01
    assert main(["limitset", "--indices", "10,20", "--depth", "8",
                 "--max-final", "0.05"]) == 0
    capsys.readouterr()


# a cheap task that passes on the free pair
CONTRACTION_TASK = {"check": "contraction", "path_length": 2, "count": 1}


def test_run_verb(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"pair": {"builtin": "f2"},
                              "tasks": [CONTRACTION_TASK]}))
    assert main(["run", str(sc), "--out", str(tmp_path / "out")]) == 0
    assert "scenario: pass" in capsys.readouterr().out
    assert (tmp_path / "out" / "00-contraction.json").is_file()


@pytest.mark.parametrize("task", [{"check": "uniform-delta", "radius": "abc"},
                                  {"check": "chabauty", "word_depht": 4},
                                  {"check": "edf", "queries": [{"excluded": ["zz"]}]},
                                  {"check": "edf", "queries": [{"peripheral": 5}]}])
def test_run_bad_task_parameter_is_usage(tmp_path, capsys, task):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"pair": {"builtin": "f2"},
                              "tasks": [CONTRACTION_TASK, task]}))
    assert main(["run", str(sc), "--out", str(tmp_path / "out")]) == 2
    assert "tasks.1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_edf_without_queries_is_usage(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"pair": {"builtin": "f2"},
                              "tasks": [{"check": "edf", "queries": []}]}))
    assert main(["run", str(sc), "--out", str(tmp_path / "out")]) == 2
    assert "tasks.0.queries: []" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FILLING_TASK = {"check": "filling", "kernels": {"0": ["a^5"]}, "radius": 2,
                "checks": ["map"]}


@pytest.mark.parametrize("edit,where", [
    ({"kernels": {"x": ["a^5"]}},
     "tasks.1.kernels: peripheral id 'x' is not a non-negative integer"),
    ({"kernels": {"0": "a^5"}},
     "tasks.1.kernels: peripheral 0: expected a list of kernels"),
    ({"kernels": {"0": ["c^5"]}}, "tasks.1.kernels: "),
    ({"kernels": ["a^5"]}, "tasks.1.kernels: "),
    ({"checks": ["frobnicate"]}, "tasks.1.checks.0: 'frobnicate' is not one of"),
    ({"checks": []}, "tasks.1.checks: []"),
    ({"radius": -1}, "tasks.1.radius"),
    ({"kernels": None}, "tasks.1: 'kernels' is a required property"),
    ({"checks": None}, "tasks.1: 'checks' is a required property"),
])
def test_run_malformed_filling_task_is_usage(tmp_path, capsys, edit, where):
    task = {k: v for k, v in {**FILLING_TASK, **edit}.items() if v is not None}
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"pair": {"builtin": "f2"},
                              "tasks": [CONTRACTION_TASK, task]}))
    assert main(["run", str(sc), "--out", str(tmp_path / "out")]) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_family_verbs_check_parameters_like_run(capsys):
    assert main(["chabauty", "--indices", "10,20", "--depth", "0"]) == 2
    assert "word_depth" in capsys.readouterr().err


def test_run_missing_scenario_is_usage(capsys):
    assert main(["run", "no-such-scenario.json"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# malformed input exits 2, an exceeded budget exits 3


def _run_scenario(tmp_path, spec) -> int:
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps(spec))
    return main(["run", str(sc), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("check", ["compatibility", "metric-lemmas"])
def test_run_csv_on_a_check_without_table_is_usage(tmp_path, capsys, check):
    code = _run_scenario(tmp_path, {"pair": {"builtin": "f2"},
                                    "tasks": [{"check": check, "csv": "c.csv"}]})
    assert code == 2
    assert "csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
ELLIPTIC_10 = {n: m.tolist() for n, m in elliptic_generators(10).items()}


@pytest.mark.parametrize("family,where", [
    ({"members": {"10": ELLIPTIC_10}, "kernels": {"10": {"0": [5]}}},
     "filling_family.kernels.10.0.0"),
    ({"members": {"10": ELLIPTIC_10}, "kernels": {"10": {"9": ["a^10"]}}},
     "filling_family.kernels.10.9"),
    ({"members": {"10": ELLIPTIC_10}, "kernels": {"10": {"x": ["a^10"]}}},
     "filling_family.kernels.10"),
    ({"members": {"x": {}}}, "filling_family.members"),
    ({"members": {"10": {"a": "x", "b": IDENTITY}}},
     "filling_family.members.10.a"),
    ({"members": {"10": {"a": [[1.0, 0.0], [0.0]], "b": IDENTITY}}},
     "filling_family.members.10.a"),
    ({"members": {"10": {"a": [[1.0, 2.0], [2.0, 4.0]], "b": IDENTITY}}},
     "filling_family.members.10.a: matrix is singular"),
    ({"members": {"10": {"a": IDENTITY, "c": IDENTITY}}},
     "filling_family.members.10.c: not a generator"),
])
def test_run_malformed_family_is_usage(tmp_path, capsys, family, where):
    code = _run_scenario(tmp_path, {"pair": {"builtin": "f2"},
                                    "filling_family": family, "tasks": []})
    assert code == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("matrices,where", [
    ({"a": "x", "b": IDENTITY}, "representation.matrices.a"),
    ({"a": [[1.0, 2.0], [0.0]], "b": IDENTITY}, "representation.matrices.a"),
    ({"a": [[1.0, 2.0]], "b": IDENTITY}, "representation.matrices.a"),
    ({"a": [[1.0, 2.0], [2.0, 4.0]], "b": IDENTITY},
     "representation.matrices.a: matrix is singular"),
    ({"a": IDENTITY}, "representation.matrices.b: no image given"),
    # exactly invertible, but out of the range that scaling needs
    ({"a": [[1e300, 1e300], [0.0, 1e300]], "b": IDENTITY},
     "representation.matrices.a: matrix norm overflows"),
    ({"a": [[1e-300, 0.0], [0.0, 1e-300]], "b": IDENTITY},
     "representation.matrices.a: matrix norm underflows"),
    ({"a": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "b": IDENTITY},
     "representation.matrices.a: images act on R^2 (d = 2), got d = 3"),
])
def test_run_malformed_matrix_is_usage(tmp_path, capsys, matrices, where):
    code = _run_scenario(tmp_path, {"pair": {"builtin": "f2"},
                                    "representation": {"matrices": matrices},
                                    "tasks": []})
    assert code == 2
    assert where in capsys.readouterr().err


def test_run_metric_lemmas_reads_no_family(tmp_path, capsys):
    # the Sanov base has no image for c, and the task reads none: it runs
    # and fails on its own radius
    code = _run_scenario(tmp_path, {
        "pair": {"group": {"kind": "free", "rank": 3}},
        "tasks": [{"check": "metric-lemmas", "radius": 2}]})
    out, err = capsys.readouterr()
    assert code == 1
    assert "lemma verification needs radius >= 6" in out + err
    assert "no image given" not in out + err
    # an image given in the scenario is still checked before any task runs
    code = _run_scenario(tmp_path, {
        "pair": {"builtin": "f2"},
        "representation": {"matrices": {"a": IDENTITY}},
        "tasks": [{"check": "metric-lemmas", "radius": 6}]})
    assert code == 2
    assert "representation.matrices.b: no image given" in \
        capsys.readouterr().err


@pytest.mark.parametrize("text,where", [
    ("V 0 0\n", "line 1"),
    ("V 0 0 - 1\nV 1 0 - a\nE 0\n", "line 3"),
    ("V 0 zero - 1\n", "line 1"),
    ("V 0 0 - 1\nV 1 0 - a\nE 0 x cayley\n", "line 3"),
    ("V 0 0 - 1\nV 1 0 - a\nE 0 1 cayley\nE 0 2 cayley\n", "line 4"),
    ("V 0 0 - 1\nE -1 0 cayley\n", "line 2"),
])
def test_delta_malformed_graph_is_usage(tmp_path, capsys, text, where):
    g = tmp_path / "bad.graph"
    g.write_text(text)
    assert main(["delta", "--graph", str(g)]) == 2
    assert where in capsys.readouterr().err


CHAIN = {"vertices": [
    {"id": 0, "label": {"kind": "coset", "g": "1", "peripheral": 0}},
    {"id": 1, "label": {"kind": "coset", "g": "1", "peripheral": 1}}],
    "edges": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("edit,where", [
    (lambda a: a["edges"].__setitem__(0, ["x", 1]), "edges[0][0]"),
    (lambda a: a["edges"].__setitem__(1, [1, 0.5]), "edges[1][1]"),
    (lambda a: a["vertices"][1]["label"].__setitem__("peripheral", "b"),
     "vertices[1].label.peripheral"),
    (lambda a: a["vertices"][0]["label"].__setitem__("g", 5),
     "vertices[0].label"),
    (lambda a: a["vertices"][0]["label"].__setitem__("excluded", 5),
     "vertices[0].label.excluded"),
    (lambda a: [v.__setitem__("id", bool(v["id"])) for v in a["vertices"]],
     "vertices[0].id"),
    (lambda a: a["vertices"][1].__setitem__("id", 1.0), "vertices[1].id"),
    (lambda a: a["vertices"].__setitem__(1, 5), "vertices[1]"),
    (lambda a: a["edges"].__setitem__(0, [float("nan"), 1]), "invalid JSON"),
])
def test_automaton_malformed_file_is_usage(tmp_path, capsys, edit, where):
    auto = json.loads(json.dumps(CHAIN))
    edit(auto)
    f = tmp_path / "auto.json"
    f.write_text(json.dumps(auto))
    assert main(["automaton", "--auto", str(f)]) == 2
    assert where in capsys.readouterr().err


def test_automaton_file_round_trips(tmp_path, capsys):
    f = tmp_path / "auto.json"
    f.write_text(json.dumps(CHAIN))
    assert main(["automaton", "--auto", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["validation"]["pass"]


def test_automaton_file_for_a_rank_three_pair(tmp_path, capsys):
    # without --compat no representation is built, so any pair will do
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"group": {"kind": "free", "rank": 3}}))
    auto = {"vertices": [{"id": i, "label": {"kind": "coset", "g": "1",
                                              "peripheral": i}}
                         for i in range(3)],
            "edges": [[i, j] for i in range(3) for j in range(3) if i != j]}
    f = tmp_path / "auto.json"
    f.write_text(json.dumps(auto))
    assert main(["automaton", "--pair", str(pair), "--auto", str(f)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["validation"]["pass"]
    assert "compatibility" not in report


@pytest.mark.parametrize("kernels,where", [
    ('{"0": [5]}', "peripheral 0"), ('{"0": "a^5"}', "peripheral 0"),
    ('{"0": [["1"]]}', "peripheral 0"), ('{"0": [true]}', "peripheral 0"),
    ('{"x": ["a^5"]}', "peripheral id 'x'"),
    ('{"0": ["a^5"], "1": NaN}', "invalid JSON"),
])
def test_fill_malformed_kernel_is_usage(capsys, kernels, where):
    assert main(["fill", "--kernels", kernels, "--radius", "2",
                 "--checks", "injectivity"]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("part", [
    {"tasks": [{"check": "uniform-delta", "slack": float("nan")}]},
    {"tasks": [{"check": "chabauty", "ball_radius": float("inf")}]},
    {"tasks": [{"check": "limitset", "max_final_distance": -float("inf")}]},
    {"representation": {"matrices": {"a": [[1.0, 2.0], [0.0, float("nan")]],
                                      "b": IDENTITY}}},
])
def test_run_non_finite_json_is_usage(tmp_path, capsys, part):
    code = _run_scenario(tmp_path, {"pair": {"builtin": "f2"}, "tasks": [],
                                    **part})
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["chabauty", "--radius", "nan"],
                                  ["chabauty", "--radius", "inf"],
                                  ["limitset", "--max-final", "nan"],
                                  ["limitset", "--max-final", "inf"]])
def test_non_finite_float_argument_is_usage(capsys, argv):
    # a scenario file cannot hold these values, so no verb takes them either
    assert main(argv + ["--indices", "10"]) == 2
    assert f"argument {argv[1]}: expected a finite number" in capsys.readouterr().err


FREE_PRODUCT = {"kind": "free-product",
                "factors": [{"kind": "free-abelian", "rank": 1}] * 2}


@pytest.mark.parametrize("pair,where", [
    ({"group": {"kind": "free", "rank": "x"}}, "rank: expected an integer"),
    ({"group": {"kind": "free", "rank": 2.7}}, "rank: expected an integer"),
    ({"group": {"kind": "free-abelian", "rank": True}},
     "rank: expected an integer"),
    ({"group": {"kind": "finite-cyclic", "order": [3]}},
     "order: expected an integer"),
    ({"group": {"kind": "free-product", "factors": 5}},
     "factors: expected a list"),
    ({"group": FREE_PRODUCT, "peripherals": {"factors": [0, "x"]}},
     "factors[1]: expected an integer"),
    ({"group": FREE_PRODUCT, "peripherals": {"factors": 5}},
     "factors: expected a list"),
    ({"group": {"kind": "free", "rank": 2},
      "peripherals": {"cyclic-generators": 5}},
     "cyclic-generators: expected a list"),
    ({"group": {"kind": "free", "rank": float("nan")}}, "invalid JSON"),
])
@pytest.mark.parametrize("verb", ["cusped", "run"])
def test_malformed_pair_is_usage(tmp_path, capsys, pair, where, verb):
    if verb == "cusped":
        f = tmp_path / "pair.json"
        f.write_text(json.dumps(pair))
        code = main(["cusped", "--pair", str(f), "--radius", "1"])
    else:
        code = _run_scenario(tmp_path, {"pair": pair, "tasks": []})
    assert code == 2
    assert where in capsys.readouterr().err


def test_cusped_negative_max_depth_is_usage(capsys):
    assert main(["cusped", "--radius", "3", "--max-depth", "-2"]) == 2
    assert "max_depth must be >= 0, got -2" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled", "triangles"])
def test_delta_on_tiny_graphs(tmp_path, capsys, mode):
    g = tmp_path / "g.graph"
    g.write_text("")
    assert main(["delta", "--graph", str(g), "--mode", mode]) == 2
    assert "no vertices" in capsys.readouterr().err
    g.write_text("V 0 0 - 1\n")
    assert main(["delta", "--graph", str(g), "--mode", mode]) == 0
    assert json.loads(capsys.readouterr().out)["delta"] == 0.0


def test_run_elements_budget_exits_three(tmp_path, capsys):
    code = _run_scenario(tmp_path, {
        "pair": {"builtin": "f2"}, "budgets": {"elements": 100},
        "filling_family": {"builtin": "elliptic", "indices": [10]},
        "tasks": [{"check": "chabauty", "word_depth": 4}]})
    assert code == 3
    assert "ball elements" in capsys.readouterr().err


def test_run_elliptic_family_with_own_base_is_usage(tmp_path, capsys):
    code = _run_scenario(tmp_path, {
        "pair": {"builtin": "f2"},
        "representation": {"matrices": {"a": [[2.0, 0.0], [0.0, 0.5]],
                                        "b": IDENTITY}},
        "filling_family": {"builtin": "elliptic"}, "tasks": []})
    assert code == 2
    assert "representation.matrices" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sampled_delta_without_samples_is_usage(small_graph, capsys):
    assert main(["delta", "--graph", small_graph, "--mode", "sampled",
                 "--samples", "0"]) == 2
    assert "samples >= 1" in capsys.readouterr().err


def test_delta_negative_seed_is_usage(small_graph, capsys):
    assert main(["delta", "--graph", small_graph, "--mode", "sampled",
                 "--seed", "-1"]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("tasks,where", [
    ([{"check": "compatibility", "name": "../escaped"}], "tasks.0.name"),
    ([{"check": "compatibility", "name": "summary"}], "tasks.0.name"),
    ([{"check": "compatibility", "name": "x"},
      {"check": "compatibility", "name": "x"}], "tasks.1.name"),
    ([{"check": "compatibility"},
      {"check": "compatibility", "name": "00-compatibility"}], "tasks.1.name"),
    ([{"check": "uniform-delta", "csv": "sub/d.csv"}], "tasks.0.csv"),
    ([{"check": "uniform-delta", "csv": ".."}], "tasks.0.csv"),
    ([{"check": "uniform-delta", "csv": "summary.json"}], "tasks.0.csv"),
    ([{"check": "compatibility", "name": "x"},
      {"check": "uniform-delta", "csv": "x.json"}], "tasks.1.csv"),
    ([{"check": "uniform-delta", "csv": "d.csv"},
      {"check": "uniform-delta", "csv": "d.csv"}], "tasks.1.csv"),
])
def test_run_unsafe_output_name_is_usage(tmp_path, capsys, tasks, where):
    assert _run_scenario(tmp_path, {"pair": {"builtin": "f2"},
                                    "tasks": tasks}) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "escaped.json").exists()


@pytest.mark.parametrize("code", [
    "from rhfill.cli import main; "
    "main(['fill', '--checks', 'local-isometry,descent,uniform-delta,map,"
    "injectivity,lift', '--kernels', '{\"0\": [\"a^2\"], \"1\": [\"b^9\"]}', "
    "'--radius', '3'])",
    "from rhfill import standard_f2_pair, verify_metric_lemmas; "
    "verify_metric_lemmas(standard_f2_pair(), radius=6)"])
def test_checks_leave_numpy_ma_unimported(code):
    # np.unique without return_* imports numpy.ma, 9-11 ms in a fresh process
    src = str(Path(rhfill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code + "; import sys; "
         "print('numpy.ma' in sys.modules, file=sys.stderr)"],
        env=env, check=True, capture_output=True, text=True)
    assert out.stderr.strip() == "False"
