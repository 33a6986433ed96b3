"""Command line verbs end to end, driven in process through main()."""
import json

import pytest

from rhfill.cli import main
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
                 "--radius", "4", "--isometry-radius", "2",
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
                 "--radius", "4", "--isometry-radius", "2",
                 "--checks", "local-isometry"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["local-isometry"]["violation_count"] > 0


def test_fill_rejects_unknown_check(pair_file, capsys):
    assert main(["fill", "--pair", pair_file, "--kernels", "{}",
                 "--radius", "3", "--checks", "frobnicate"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_fill_rejects_bad_kernel_json(pair_file, capsys):
    assert main(["fill", "--pair", pair_file, "--kernels", "{nope",
                 "--radius", "3"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_lift_roundtrip(pair_file, capsys):
    code = main(["lift", "--pair", pair_file,
                 "--kernels", '{"0":["a^50"],"1":["b^50"]}',
                 "--radius", "4", "--paths", "50"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"]
    assert report["paths"] == 50
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


def test_limitset_max_final_gate(tmp_path, capsys):
    assert main(["limitset", "--indices", "10", "--depth", "8",
                 "--max-final", "0.01"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["final_distance"] > 0.01
    assert main(["limitset", "--indices", "10,20", "--depth", "8",
                 "--max-final", "0.05"]) == 0
    capsys.readouterr()


def test_run_verb(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"pair": {"builtin": "f2"},
                              "tasks": [{"check": "tracking"}]}))
    assert main(["run", str(sc), "--out", str(tmp_path / "out")]) == 0
    assert "scenario: pass" in capsys.readouterr().out
    assert (tmp_path / "out" / "00-tracking.json").is_file()


@pytest.mark.parametrize("task", [{"check": "uniform-delta", "radius": "abc"},
                                  {"check": "chabauty", "word_depht": 4}])
def test_run_bad_task_parameter_is_usage(tmp_path, capsys, task):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"pair": {"builtin": "f2"},
                              "tasks": [{"check": "tracking"}, task]}))
    assert main(["run", str(sc), "--out", str(tmp_path / "out")]) == 2
    assert "tasks.1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_family_verbs_check_parameters_like_run(capsys):
    assert main(["chabauty", "--indices", "10,20", "--depth", "0"]) == 2
    assert "word_depth" in capsys.readouterr().err


def test_run_missing_scenario_is_usage(capsys):
    assert main(["run", "no-such-scenario.json"]) == 2
    capsys.readouterr()
