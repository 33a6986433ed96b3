"""Scenario files: schema gates, the task pipeline, deterministic artifacts,
and CSV emission."""
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rhfill
import rhfill.scenarios
from rhfill.cli import main
from rhfill.convergence import elliptic_generators
from rhfill.errors import BudgetExceededError, NoTabularDataError, SchemaError
from rhfill.filling_geometry import (build_quotient_cusped,
                                     check_descent_quasigeodesic,
                                     check_local_isometry, check_uniform_delta,
                                     filling_map_report, injectivity_report,
                                     lift_roundtrip_report)
from rhfill.groups import make_filling, standard_f2_pair
from rhfill.metric_checks import verify_metric_lemmas
from rhfill.scenarios import (SCENARIO_SCHEMA, SCHEMA_KEYWORDS, SCHEMA_TYPES,
                              Scenario, _dump_json, bundled_scenario_path,
                              emit_plot_data, load_scenario, pair_from_spec,
                              run_scenario, run_task)

# frozen from the bundled scenario run (seed 7)
CONTRACTION_MAX_RATE = 0.058372998207474325
COMPAT_MIN_MARGIN = 0.19955362909943897
# sha256 of every file the bundled scenario run writes; a change that moves
# one on purpose updates its pin and says why
PINNED_REPORTS = {
    "00-compatibility.json":
        "9b1c1fd74672ae98698342b0684ef4bfd8d26fee4db95ae6107e872915ee4e7e",
    "01-uniform-delta.json":
        "4f6f224be0623bd0080b7e87f7bc8109a9b21524cac7c831ddef6a6068f8c92a",
    "02-edf.json":
        "99175570655b1ffd1c0dcdf1503a6bf0301646f79453b8fbc6985f50adc0f326",
    "03-limitset.json":
        "920302d04484b5856c4fc428c4e9e6f87ba0212db9172ceafce2911a8b290cbd",
    "04-chabauty.json":
        "b1b16a45591cbdb67f9398f2c9edaef6473d905ab8a0fbb438cbf458c69bf0c1",
    "05-contraction.json":
        "dc6333282ea9b7167f3986fd1780fea4b8b7c021ead2e81f3edcacb0c4e6bb45",
    "chabauty.csv":
        "b5208f25b14cfcb62150a198748d416074b57b5177ab2254d593124e5f5918a1",
    "delta.csv":
        "f8ab042e10c2f06d92353c10ea8c98e7ac66fa596e560d3c4a0392a677a4f1e4",
    "edf.csv":
        "9a951ac82f090d86071d2cdb76c92b112e687dffaedb5ec8a57fc2e18f57cb44",
    "hausdorff.csv":
        "a8839e9ba96a9153a813e23f5747c4a53693813aa90b44562ab0507c986ec00d",
    "summary.json":
        "a8c150bc36f65d3e2d3715a5365e5f57bda13689633244ab6dd2a98823038e9f",
}
# sha256 of `_dump_json` of verify_metric_lemmas(standard_f2_pair(), radius=6)
# and of the library filling reports of the fillings-r5 benchmark make-up
# (kernels a^n, b^n at radius 5, seed 0); a change that moves them on purpose
# updates these pins
PINNED_LEMMAS_R6 = \
    "38107fa3e1ad5d9a14013872d322eac97c32db9b9fe7bcb5fc1f93f1e38c1484"
PINNED_FILLINGS_R5 = {
    (20, "local-isometry"):
        "89c2ee9ebd52425297b8881a040f5157d3f45cec7da0843e618e5364ec5ab51a",
    (20, "descent"):
        "98ca48d7b2eedd235b444dd9049d51c95d2ad5d55503ac5bee8be964b7ce255e",
    (20, "map"):
        "a60f97bac087b5335d0015bd353e462212f158b3a62d832fe5d4caabc1388c66",
    (20, "lift"):
        "c528750d9cff9e66b54fb1101c810808cdfea2fa4b39359ad5d07a3a9d3f5dea",
    (40, "local-isometry"):
        "89c2ee9ebd52425297b8881a040f5157d3f45cec7da0843e618e5364ec5ab51a",
    (40, "descent"):
        "98ca48d7b2eedd235b444dd9049d51c95d2ad5d55503ac5bee8be964b7ce255e",
    (40, "map"):
        "a60f97bac087b5335d0015bd353e462212f158b3a62d832fe5d4caabc1388c66",
    (40, "lift"):
        "ed593d7a0bfa8f18f38789cd5baef4bb69b04eff373c69ca311db5af08593dd6",
    (60, "local-isometry"):
        "89c2ee9ebd52425297b8881a040f5157d3f45cec7da0843e618e5364ec5ab51a",
    (60, "descent"):
        "98ca48d7b2eedd235b444dd9049d51c95d2ad5d55503ac5bee8be964b7ce255e",
    (60, "map"):
        "a60f97bac087b5335d0015bd353e462212f158b3a62d832fe5d4caabc1388c66",
    (60, "lift"):
        "ed593d7a0bfa8f18f38789cd5baef4bb69b04eff373c69ca311db5af08593dd6",
}
# exit code and sha256 of the stdout of `rhfill fill` (the default checks,
# and every check but lift) and `rhfill lift` at --radius 4 for kernels
# a^n, b^n; a change that moves them on purpose updates these pins
PINNED_FILL_STDOUT = {
    ("fill", 3):
        (1, "9ea68c4e38c1fdcf9d2cf7e5ce119f6313025147b025868e943c7fab4f064bff"),
    ("fill-all", 3):
        (1, "81d8415e19747fcd2034709e30f0558eb394a0fd10d8f5720bbbe299d1513fb7"),
    ("lift", 3):
        (0, "00f4424db410044c00ec305249c75e69047ad958d978396d6a90ee767b539551"),
    ("fill", 20):
        (0, "ed510a47e65a364452950aeebd0d431bf83516aaea29c2415955d21c81c1eed3"),
    ("fill-all", 20):
        (0, "2745a47e26c43bf602324a85ee7d66b653c9e365fc7a19001e8a1021c2e49631"),
    ("lift", 20):
        (0, "77269a34c78ec0a0d23cbaf9e1e2edeb533d19b52548b04f19fa8b965006922d"),
    ("fill", 50):
        (0, "4c036f67c7497af1b5520356be98f08bf332b4565642d026e8aba86dd62cac11"),
    ("fill-all", 50):
        (0, "79e15ba9812999a570803473fe69f76ff21ad47a7ea38df6c740fb8a306c017f"),
    ("lift", 50):
        (0, "4a275af6374a68ef322e021f3f0662517ab09264e0871fcf7a46919f03e330d5"),
}
# kernels a and b^3 kill the syllables a^k and b^3k of the radius-3 window
PINNED_KILLING_STDOUT = {
    "fill": (1, "fd5024297f60d6e7d433f5d3904970a3c75da49ef637f466854a8bc03b20d74f"),
    "fill-all":
        (1, "b9308e5e281f07c11e66d5e87fe24f1d09abe7db5a48dfb91b01c5cf4fa91a79"),
    "lift": (0, "295389fc98a338c9df2a8e47b2cf68a7189275cc0bf909d97f022d0735da0683"),
}
FILL_ARGV = {"fill": ["fill"], "lift": ["lift"],
             "fill-all": ["fill", "--checks", "local-isometry,descent,"
                          "uniform-delta,map,injectivity"]}


def scenario_file(tmp_path, spec, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return p


@pytest.fixture(scope="module")
def bundled_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundled")
    code, summary = run_scenario(bundled_scenario_path(), output_dir=out)
    return code, summary, out


# ---------------------------------------------------------------------------
# the bundled scenario


def test_bundled_scenario_passes_every_task(bundled_run):
    code, summary, _ = bundled_run
    assert code == 0
    assert summary["pass"]
    assert summary["seed"] == 7
    assert [e["check"] for e in summary["tasks"]] == [
        "compatibility", "uniform-delta", "edf", "limitset", "chabauty",
        "contraction"]
    assert all(e["pass"] for e in summary["tasks"])


def test_bundled_scenario_writes_all_artifacts(bundled_run):
    _, summary, out = bundled_run
    for e in summary["tasks"]:
        assert (out / e["report_file"]).is_file()
    assert (out / "summary.json").is_file()
    for csv in ("delta.csv", "edf.csv", "hausdorff.csv", "chabauty.csv"):
        assert (out / csv).is_file()


def test_bundled_rerun_is_byte_identical(bundled_run, tmp_path):
    _, _, out = bundled_run
    code, _ = run_scenario(bundled_scenario_path(), output_dir=tmp_path)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for n in names:
        assert (out / n).read_bytes() == (tmp_path / n).read_bytes(), n


def test_run_without_out_writes_under_the_current_directory(
        bundled_run, tmp_path, monkeypatch, capsys):
    # a relative output_dir is taken from the current directory, as --out
    # is, and never from the scenario file's: for the bundled scenario that
    # would be inside the installed package
    _, _, out = bundled_run
    package = Path(rhfill.__file__).parent

    def listing():
        return sorted(p for p in package.rglob("*") if "__pycache__" not in p.parts)

    before = listing()
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(bundled_scenario_path())]) == 0
    capsys.readouterr()
    assert listing() == before
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "reports").iterdir())
    for n in names:
        assert (out / n).read_bytes() == (tmp_path / "reports" / n).read_bytes(), n


def test_bundled_delta_csv(bundled_run):
    _, _, out = bundled_run
    lines = (out / "delta.csv").read_text().splitlines()
    assert lines[0] == "n,delta"
    assert lines[1] == "10,1.5"
    assert len(lines) == 6


def test_bundled_hausdorff_csv(bundled_run):
    _, _, out = bundled_run
    lines = (out / "hausdorff.csv").read_text().splitlines()
    assert lines[0] == "n,d_hausdorff,depth"
    assert lines[1] == "10,0.09939242224401383,12"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [10, 20, 30, 40, 60]


def test_bundled_edf_csv_has_both_queries(bundled_run):
    _, _, out = bundled_run
    lines = (out / "edf.csv").read_text().splitlines()
    assert lines[0] == "query,n,min_margin,verdict"
    assert len(lines) == 11  # 5 indices per query side
    assert {l.split(",")[0] for l in lines[1:]} == {"a-side", "b-side"}
    assert all(l.endswith(",pass") for l in lines[1:])


def test_bundled_chabauty_csv(bundled_run):
    _, _, out = bundled_run
    lines = (out / "chabauty.csv").read_text().splitlines()
    assert lines[0] == "n,distance,a_side,b_side"
    dists = [float(l.split(",")[1]) for l in lines[1:]]
    assert dists == sorted(dists, reverse=True)


def test_bundled_contraction_figures(bundled_run):
    _, _, out = bundled_run
    rep = json.loads((out / "05-contraction.json").read_text())
    assert rep["paths"] == 50
    assert rep["max_rate"] == pytest.approx(CONTRACTION_MAX_RATE, abs=1e-12)
    assert rep["all_monotone"]
    assert rep["max_repetition"] == 1


def test_bundled_compatibility_margin(bundled_run):
    _, _, out = bundled_run
    rep = json.loads((out / "00-compatibility.json").read_text())
    assert rep["pass"]
    assert rep["min_margin"] == pytest.approx(COMPAT_MIN_MARGIN, abs=1e-12)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_bundled_arc_reports_are_pinned(bundled_run):
    _, _, out = bundled_run
    for name, digest in PINNED_REPORTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, \
            name


@pytest.mark.parametrize("verb,n", sorted(PINNED_FILL_STDOUT))
def test_fill_and_lift_stdout_is_pinned(capsys, verb, n):
    kernels = json.dumps({"0": [f"a^{n}"], "1": [f"b^{n}"]})
    code = main([*FILL_ARGV[verb], "--kernels", kernels, "--radius", "4"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == PINNED_FILL_STDOUT[verb, n]


@pytest.mark.parametrize("verb", sorted(PINNED_KILLING_STDOUT))
def test_killing_kernel_stdout_is_pinned(capsys, verb):
    kernels = json.dumps({"0": ["a^1"], "1": ["b^3"]})
    code = main([*FILL_ARGV[verb], "--kernels", kernels, "--radius", "3"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == PINNED_KILLING_STDOUT[verb]


def test_filling_tasks_write_the_library_reports(tmp_path):
    """The make-up of the fillings-r5 benchmark workload, as scenario tasks."""
    checks = ["local-isometry", "descent", "map", "lift", "injectivity"]
    kernels = {n: {"0": [f"a^{n}"], "1": [f"b^{n}"]} for n in (20, 40, 60)}
    p = scenario_file(tmp_path, {"pair": {"builtin": "f2"}, "seed": 0,
                                 "tasks": [{"check": "filling", "name": f"n{n}",
                                            "kernels": k, "radius": 5,
                                            "checks": checks}
                                           for n, k in kernels.items()]})
    assert run_scenario(p, output_dir=tmp_path / "out")[0] == 0
    pair = standard_f2_pair()
    for n, k in kernels.items():
        filling = make_filling(pair, k)
        fg = build_quotient_cusped(pair, filling, 5)
        sub = {"local-isometry": check_local_isometry(fg, 4),
               "descent": check_descent_quasigeodesic(
                   fg, K=1.0, max_depth_used=2, samples=200, seed=0),
               "map": filling_map_report(fg),
               "lift": lift_roundtrip_report(fg, n_paths=1000, seed=0),
               "injectivity": injectivity_report(filling, 5)}
        expected = {"name": "filling-checks", "radius": 5, "kernels": k,
                    "checks": sub, "pass": True}
        assert (tmp_path / "out" / f"n{n}.json").read_text() \
            == _dump_json(expected)
        for check in ("local-isometry", "descent", "map", "lift"):
            assert _digest(_dump_json(sub[check])) \
                == PINNED_FILLINGS_R5[n, check], (n, check)


def test_filling_delta_reads_the_task_windows():
    sc = Scenario({"pair": {"builtin": "f2"}, "seed": 3, "tasks": [
        {"check": "filling", "kernels": {"0": ["a^3"], "1": ["b^3"]},
         "radius": 2, "checks": ["uniform-delta"]}]})
    rep = run_task(sc, sc.tasks[0])["checks"]["uniform-delta"]
    fg = build_quotient_cusped(sc.pair, sc.tasks[0]["filling"], 2)
    assert rep["radius"] == 2
    assert rep == check_uniform_delta(fg.source, [(3, fg.target)],
                                      samples=50_000, seed=3)


def test_source_window_is_freed_after_the_last_filling_task(tmp_path,
                                                            monkeypatch):
    # the window slot of the scenario's pair as each task starts
    held = []
    run = rhfill.scenarios.run_task

    def spy(sc, task):
        held.append(sc.pair.window is not None)
        return run(sc, task)

    monkeypatch.setattr(rhfill.scenarios, "run_task", spy)
    fill = {"check": "filling", "kernels": {"0": ["a^5"]}, "radius": 2,
            "checks": ["map"]}
    p = scenario_file(tmp_path, {"pair": {"builtin": "f2"}, "seed": 0,
                                 "tasks": [fill, fill,
                                           {"check": "metric-lemmas",
                                            "radius": 6, "samples": 10}]})
    assert run_scenario(p, output_dir=tmp_path / "out")[0] == 0
    assert held == [False, True, False]


def test_lemma_report_r6_is_pinned():
    report = verify_metric_lemmas(standard_f2_pair(), radius=6)
    assert report["pass"]
    assert _digest(_dump_json(report)) == PINNED_LEMMAS_R6


def test_bundled_stability_rows_all_fail(bundled_run):
    _, _, out = bundled_run
    rep = json.loads((out / "02-edf.json").read_text())
    rows = [r for q in rep["queries"] for r in q["peripheral_stability"]]
    assert len(rows) == 10
    assert all(r["verdict"] == "fail" for r in rows)
    assert rep["stability_implies_edf"]


# ---------------------------------------------------------------------------
# schema and loading


def test_empty_task_list_exits_zero(tmp_path):
    p = scenario_file(tmp_path, {"pair": {"builtin": "f2"}, "tasks": []})
    code, summary = run_scenario(p, output_dir=tmp_path / "out")
    assert code == 0
    assert summary["tasks"] == []
    assert (tmp_path / "out" / "summary.json").is_file()


def test_unknown_check_is_schema_error(tmp_path):
    p = scenario_file(tmp_path, {"pair": {"builtin": "f2"},
                                 "tasks": [{"check": "frobnicate"}]})
    with pytest.raises(SchemaError, match=r"tasks\.0\.check"):
        load_scenario(p)


@pytest.mark.parametrize("check", ["fiber", "tracking"])
def test_deleted_checks_are_refused(tmp_path, capsys, check):
    p = scenario_file(tmp_path, {"pair": {"builtin": "f2"},
                                 "tasks": [{"check": check}]})
    where = f"tasks.0.check: '{check}' is not one of ["
    with pytest.raises(SchemaError) as e:
        run_scenario(p, output_dir=tmp_path / "out")
    assert str(e.value).startswith(where)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_task_kind_has_a_runner():
    assert set(rhfill.scenarios.TASK_PARAMS) == set(rhfill.scenarios._TASK_RUNNERS)


def test_scenario_schema_is_a_valid_schema():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validators.validator_for(SCENARIO_SCHEMA).check_schema(
        SCENARIO_SCHEMA)


def _schema_keywords(schema: dict) -> set:
    """Every keyword of ``schema`` and its subschemas; a subschema that is
    not an object, but for ``additionalProperties: false``, fails."""
    keywords = set(schema)
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    assert set(types) <= set(SCHEMA_TYPES)
    assert ("then" in schema) <= ("if" in schema)
    for key, value in schema.items():
        if key == "properties":
            subs = list(value.values())
        elif key == "allOf":
            subs = value
        elif key in ("additionalProperties", "items", "propertyNames", "if",
                     "then"):
            subs = [] if key == "additionalProperties" and value is False \
                else [value]
        else:
            continue
        for sub in subs:
            assert isinstance(sub, dict), (key, sub)
            keywords |= _schema_keywords(sub)
    return keywords


def test_scenario_schema_uses_only_supported_keywords():
    # the validator skips a keyword it does not know, as if it held
    assert _schema_keywords(SCENARIO_SCHEMA) <= SCHEMA_KEYWORDS


def test_validation_leaves_jsonschema_unimported():
    src = str(Path(rhfill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, rhfill, rhfill.cli; "
            "from rhfill.scenarios import load_scenario, "
            "bundled_scenario_path; "
            "load_scenario(bundled_scenario_path())\n"
            "try:\n    rhfill.cli.main(['--help'])\n"
            "except SystemExit:\n    pass\n"
            "print('jsonschema' in sys.modules, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stderr.strip() == "False"


def test_bundled_scenario_validates():
    assert [t["check"] for t in load_scenario(bundled_scenario_path()).tasks] == [
        "compatibility", "uniform-delta", "edf", "limitset", "chabauty",
        "contraction"]


@pytest.mark.parametrize("task,where", [
    ({"check": "uniform-delta", "radius": "abc"}, r"tasks\.0\.radius"),
    ({"check": "chabauty", "word_depth": 0}, r"tasks\.0\.word_depth"),
    ({"check": "limitset", "word_depht": 8}, "word_depht"),
    ({"check": "edf", "queries": [{"peripheral": "x"}]},
     r"tasks\.0\.queries\.0\.peripheral"),
    ({"check": "contraction", "path_length": 2, "count": 1, "assert": "yes"},
     r"tasks\.0\.assert"),
    ({"check": "edf", "queries": [{"excluded": ["zz"]}]},
     r"tasks\.0\.queries\.0\.excluded"),
    ({"check": "edf", "queries": [{"peripheral": 5}]},
     r"tasks\.0\.queries\.0: no peripheral with id 5"),
    ({"check": "edf", "queries": [{"attracting": [{"angle": 0.0, "radius": 0.9}],
                                   "repelling": [{"angle": 1.5, "radius": 0.9}]}]},
     r"tasks\.0\.queries\.0: repelling and attracting balls are not separated"),
    ({"check": "edf", "queries": [{"attracting": [{"angle": 0.0, "radius": -0.5}]}]},
     r"tasks\.0\.queries\.0: ball radius -0\.5 is not in \(0, 1\)"),
    ({"check": "limitset", "screen_powers": 7}, "screen_powers"),
])
def test_task_parameters_are_schema_checked(task, where):
    with pytest.raises(SchemaError, match=where):
        Scenario({"pair": {"builtin": "f2"}, "tasks": [task]})


@pytest.mark.parametrize("task", [
    {"check": "chabauty", "ball_radius": float("nan")},
    {"check": "chabauty", "ball_radius": float("inf")},
    {"check": "uniform-delta", "slack": float("nan")},
    {"check": "uniform-delta", "slack": -float("inf")},
    {"check": "limitset", "max_final_distance": float("nan")},
    {"check": "uniform-delta", "radius": float("nan")},
    {"check": "uniform-delta", "radius": float("inf")},
])
def test_non_finite_numbers_fail_the_schema(task):
    # files cannot carry these values, but a dict built in Python can
    key = next(k for k in task if k != "check")
    with pytest.raises(SchemaError, match=rf"tasks\.0\.{key}: .* is not of type"):
        Scenario({"pair": {"builtin": "f2"}, "tasks": [task]})
    # an int past the float range is still finite
    assert SCHEMA_TYPES["number"](10 ** 400) and SCHEMA_TYPES["integer"](10 ** 400)


def test_non_finite_matrix_entry_names_the_field():
    spec = {"pair": {"builtin": "f2"}, "tasks": [],
            "representation": {"matrices": {"a": [[1.0, 2.0], [0.0, float("nan")]],
                                            "b": [[1.0, 0.0], [2.0, 1.0]]}}}
    # the schema refuses it, naming the entry
    with pytest.raises(SchemaError,
                       match=r"representation\.matrices\.a\.1\.1: nan is not of type 'number'"):
        Scenario(spec)


def test_edges_budget_is_gone():
    with pytest.raises(SchemaError, match="edges"):
        Scenario({"pair": {"builtin": "f2"}, "budgets": {"edges": 10},
                  "tasks": []})


def test_matrices_budget_is_gone(tmp_path):
    p = scenario_file(tmp_path, {"pair": {"builtin": "f2"},
                                 "budgets": {"matrices": 200_000},
                                 "tasks": []})
    with pytest.raises(SchemaError, match="matrices"):
        load_scenario(p)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_contraction_samples_key_is_gone(tmp_path):
    p = scenario_file(tmp_path, {"pair": {"builtin": "f2"},
                                 "tasks": [{"check": "contraction",
                                            "samples": 128}]})
    with pytest.raises(SchemaError, match="samples"):
        load_scenario(p)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module", [rhfill, rhfill.scenarios,
                                    rhfill.convergence])
def test_public_names_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_tolerances_are_not_a_parameter():
    with_tols = [n for n in rhfill.__all__
                 if callable(obj := getattr(rhfill, n))
                 and _has_param(obj, "tols")]
    assert with_tols == []
    assert not _has_param(rhfill.injectivity_report, "peripheral_radius")


def _has_param(obj, name: str) -> bool:
    try:
        return name in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # builtins without a signature
        return False


def test_missing_pair_is_schema_error():
    with pytest.raises(SchemaError, match="pair"):
        Scenario({"tasks": []})


def test_extra_top_level_key_rejected():
    with pytest.raises(SchemaError, match="bogus"):
        Scenario({"pair": {"builtin": "f2"}, "tasks": [], "bogus": 1})


def test_malformed_kernel_word_names_the_field():
    spec = {"pair": {"builtin": "f2"},
            "filling_family": {
                "members": {"5": {n: m.tolist() for n, m in
                                  elliptic_generators(5).items()}},
                "kernels": {"5": {"0": ["a^^5"]}}},
            "tasks": []}
    with pytest.raises(SchemaError,
                       match=r"filling_family\.kernels\.5\.0\[0\]"):
        Scenario(spec)


def test_custom_family_from_json():
    spec = {"pair": {"builtin": "f2"},
            "filling_family": {
                "members": {"4": {n: m.tolist() for n, m in
                                  elliptic_generators(4).items()}},
                "kernels": {"4": {"0": ["a^4"], "1": ["b^4"]}}},
            "tasks": []}
    sc = Scenario(spec)
    assert sc.family.indices == [4]
    assert sc.family.filling(4).quotient_pair.peripherals[0].factor.p_order() == 4


def test_invalid_json_is_schema_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_scenario(p)


def test_pair_from_spec_variants():
    assert pair_from_spec({"builtin": "f2"}).group.gen_names == ("a", "b")
    free = pair_from_spec({"group": {"kind": "free", "rank": 2}})
    assert free.group.gen_names == ("a", "b")
    with pytest.raises(SchemaError, match="pair"):
        pair_from_spec({})


# ---------------------------------------------------------------------------
# runner behavior


def test_task_error_gives_exit_one_and_entry(tmp_path):
    p = scenario_file(tmp_path, {"pair": {"builtin": "f2"},
                                 "tasks": [{"check": "uniform-delta"}]})
    code, summary = run_scenario(p, output_dir=tmp_path / "out")
    assert code == 1
    entry = summary["tasks"][0]
    assert not entry["pass"]
    assert "filling family" in entry["error"]


def test_unasserted_failure_keeps_exit_zero(tmp_path):
    p = scenario_file(tmp_path, {
        "pair": {"builtin": "f2"},
        "tasks": [{"check": "uniform-delta", "assert": False}]})
    code, summary = run_scenario(p, output_dir=tmp_path / "out")
    assert code == 0
    assert summary["pass"]
    assert not summary["tasks"][0]["pass"]


ROTATION_IMAGES = {"a": [[0.0, -1.0], [1.0, 0.0]],
                   "b": [[0.8, -0.6], [0.6, 0.8]]}


@pytest.mark.parametrize("members", [{}, {"5": ROTATION_IMAGES}],
                         ids=["no-members", "members-failing-screening"])
def test_limitset_with_no_member_measured_fails(tmp_path, members):
    p = scenario_file(tmp_path, {
        "pair": {"builtin": "f2"},
        "filling_family": {"members": members},
        "tasks": [{"check": "limitset", "word_depth": 4}]})
    code, summary = run_scenario(p, output_dir=tmp_path / "out")
    assert code == 1
    entry = summary["tasks"][0]
    assert not entry["pass"]
    report = json.loads((tmp_path / "out" / entry["report_file"]).read_text())
    assert report["table"] == [] and not report["pass"]
    assert len(report["flagged"]) == len(members)


def test_seconds_budget_is_enforced(tmp_path):
    p = scenario_file(tmp_path, {
        "pair": {"builtin": "f2"},
        "budgets": {"seconds": 1e-9},
        "tasks": [{"check": "contraction", "path_length": 2, "count": 1}]})
    with pytest.raises(BudgetExceededError, match="seconds"):
        run_scenario(p, output_dir=tmp_path / "out")


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_delta_table_sorted_numerically():
    text = emit_plot_data({"name": "uniform-delta",
                           "delta_by_n": {"50": 1.5, "3": 1.0}})
    assert text == "n,delta\n3,1.0\n50,1.5\n"


def test_emit_hausdorff_rows():
    rep = {"name": "limit-set-convergence", "word_depth": 12,
           "table": [{"index": 10, "d_hausdorff": 0.5}]}
    assert emit_plot_data(rep) == "n,d_hausdorff,depth\n10,0.5,12\n"


def test_emit_empty_table_is_header_only():
    rep = {"name": "limit-set-convergence", "word_depth": 8, "table": []}
    assert emit_plot_data(rep) == "n,d_hausdorff,depth\n"


def test_emit_chabauty_rows():
    rep = {"name": "chabauty-window",
           "table": [{"index": 10,
                      "full": {"distance": 2.0, "a_side": 2.0,
                               "b_side": 1.5}}]}
    assert emit_plot_data(rep) == "n,distance,a_side,b_side\n10,2.0,2.0,1.5\n"


def test_emit_contraction_rows():
    rep = {"name": "contraction",
           "table": [{"path": 0, "rate": 0.1, "monotone": True}]}
    assert emit_plot_data(rep) == "path,rate,monotone\n0,0.1,True\n"


def test_emit_rejects_reports_without_tables():
    with pytest.raises(NoTabularDataError, match="no-tabular-data"):
        emit_plot_data({"name": "compatibility", "pass": True})
    # no task renders a single edf query or a nested-diameter list
    with pytest.raises(NoTabularDataError):
        emit_plot_data({"name": "edf-condition", "query": "a-side", "edf": []})
    with pytest.raises(NoTabularDataError):
        emit_plot_data({"name": "nested-diameters", "diameters": [1.0, 0.5]})
    with pytest.raises(NoTabularDataError):
        emit_plot_data("not a report")


def test_one_bundled_automaton_per_scenario(monkeypatch):
    built = []
    build = rhfill.scenarios.bundled_sanov_automaton
    monkeypatch.setattr(rhfill.scenarios, "bundled_sanov_automaton",
                        lambda pair: built.append(pair) or build(pair))
    sc = load_scenario(bundled_scenario_path())
    for task in ({"check": "compatibility", "enumeration_depth": 4},
                 {"check": "contraction", "path_length": 3, "count": 2},
                 {"check": "contraction", "path_length": 2, "count": 1}):
        assert run_task(sc, task)["pass"] is not None
    assert built == [sc.pair]


def test_compatibility_task_checking_nothing_is_inconclusive():
    task = {"check": "compatibility", "enumeration_depth": 1}
    report = run_task(Scenario({"pair": {"builtin": "f2"}, "tasks": [task]}),
                      task)
    assert report["containments_checked"] == 0
    assert report["verdict"] == "inconclusive" and not report["pass"]


def test_automaton_compat_builds_one_automaton(monkeypatch, capsys):
    import rhfill.cli
    built = []
    for module in (rhfill.cli, rhfill.scenarios):
        build = module.bundled_sanov_automaton
        monkeypatch.setattr(module, "bundled_sanov_automaton",
                            lambda pair, build=build: built.append(pair)
                            or build(pair))
    assert main(["automaton", "--compat", "--depth", "4"]) == 0
    assert len(built) == 1
