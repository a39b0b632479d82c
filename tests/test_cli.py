"""End-to-end command-line behavior: formats, exit codes, reproducibility."""

import json
import re
import time
from pathlib import Path

import pytest

from conftest import make_business_generators, make_demo5
from qrobust import cli, format_instance, solver
from qrobust.cli import _solver_config, build_parser, main
from qrobust.design import generators_to_json

DEMO5_TEXT = format_instance(make_demo5())


@pytest.fixture
def demo5_file(tmp_path):
    path = tmp_path / "demo5.txt"
    path.write_text(DEMO5_TEXT)
    return str(path)


@pytest.fixture
def business_file(tmp_path):
    path = tmp_path / "business.json"
    path.write_text(json.dumps(generators_to_json(make_business_generators())))
    return str(path)


class TestSolveCommand:
    def test_stdout_line(self, demo5_file, capsys):
        assert main(["solve", "--in", demo5_file]) == 0
        out = capsys.readouterr().out
        assert "value=288 bits=01011 status=proven_optimal" in out

    def test_missing_file_exits_2(self, capsys):
        assert main(["solve", "--in", "no-such-file.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n1 3 4\n")
        assert main(["solve", "--in", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_value_names_line(self, tmp_path, capsys):
        bad = tmp_path / "nan.txt"
        bad.write_text("2 2\n1 1 1\n1 2 nan\n")
        assert main(["solve", "--in", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_repeat_run_is_byte_identical(self, demo5_file, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["solve", "--in", demo5_file, "--seed", "7", "--out", str(out1)]) == 0
        assert main(["solve", "--in", demo5_file, "--seed", "7", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_contents(self, demo5_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        main(["solve", "--in", demo5_file, "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["bits"] == "01011"
        assert doc["value"] == 288.0
        assert doc["status"] == "proven_optimal"


class TestPreprocessCommand:
    def test_fixture_line(self, demo5_file, capsys):
        assert main(["preprocess", "--in", demo5_file]) == 0
        out = capsys.readouterr().out
        assert "fix x3=1 delta=8" in out
        assert "constant=100" in out

    def test_near_threshold_flag(self, demo5_file, capsys):
        main(["preprocess", "--in", demo5_file, "--tolerance", "70"])
        out = capsys.readouterr().out
        assert "near x1 delta=-60" in out

    def test_json_report(self, demo5_file, tmp_path, capsys):
        out = tmp_path / "prep.json"
        main(["preprocess", "--in", demo5_file, "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["fixed"] == [{"index": 3, "bit": 1, "delta": 8.0}]
        assert doc["reduced_n"] == 4
        assert len(doc["sensitivity"]) == 5


class TestDesignCommand:
    def test_writes_csv(self, business_file, tmp_path, capsys):
        out = tmp_path / "design.csv"
        assert main(["design", "--gen", business_file, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("pos_0_0,")
        assert len(lines) == 65  # header + 64 runs
        assert set(lines[1].split(",")) == {"+1"}


class TestAnalyzeCommand:
    def test_business_run(self, business_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        scen = tmp_path / "scen.csv"
        code = main(
            [
                "analyze", "--gen", business_file, "--mode", "exact",
                "--out", str(report), "--scenarios", str(scen),
                "--reference", "average",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "most_robust=" in out
        doc = json.loads(report.read_text())
        assert doc["k"] == 64
        assert sum(e["frequency"] for e in doc["pool"]) == 64
        assert doc["exactness"] == 1.0
        assert 0.0 <= doc["coverage"]["percent"] <= 100.0
        assert len(scen.read_text().strip().splitlines()) == 65

    def test_perturb_zero_rejected(self, demo5_file, capsys):
        assert main(["analyze", "--in", demo5_file, "--perturb", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, demo5_file, business_file, capsys):
        assert main(["analyze", "--in", demo5_file]) == 2
        assert main(["analyze", "--gen", business_file, "--in", demo5_file, "--perturb", "0.05"]) == 2
        capsys.readouterr()

    def test_perturbed_instance_run(self, demo5_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["analyze", "--in", demo5_file, "--perturb", "0.05", "--mode", "exact",
             "--out", str(report)]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        # 12 nonzero coefficients vary, so 32 scenarios
        assert doc["k"] == 32
        assert sum(e["frequency"] for e in doc["pool"]) == 32

    def test_degenerate_generators_single_scenario_warning(self, tmp_path, capsys):
        from qrobust import ScenarioGenerators

        flat = tmp_path / "flat.json"
        flat.write_text(
            json.dumps(generators_to_json(ScenarioGenerators(2, {(0, 0): (3, 3)})))
        )
        report = tmp_path / "report.json"
        assert main(["analyze", "--gen", str(flat), "--out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert json.loads(report.read_text())["k"] == 1


    def test_analyze_refuses_budget_exhausted(self, business_file, tmp_path, capsys):
        # enumeration is off and the budget ends before branch and bound starts
        report = tmp_path / "report.json"
        code = main(
            ["analyze", "--gen", business_file, "--mode", "exact", "--enum-threshold", "2",
             "--budget", "1e-9", "--out", str(report)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "budget_exhausted" in captured.err
        assert "most_robust=" not in captured.out
        assert not report.exists()

    @pytest.mark.parametrize("mode", ["exact", "auto"])
    def test_worker_count_does_not_change_the_files(self, business_file, tmp_path, monkeypatch, mode):
        # above the threshold: lone solves at jobs=1, one in-process batch at
        # jobs 2 and 8, and worker slices once a free start makes the pool pay
        from qrobust import pipeline

        outputs = []
        for jobs, start_s in ((1, None), (2, None), (8, None), (2, 0.0), (8, 0.0)):
            if start_s is not None:
                method = pipeline._POOL_CONTEXT.get_start_method()
                monkeypatch.setitem(pipeline._WORKER_START_S, method, start_s)
            report, scen = tmp_path / f"report{len(outputs)}.json", tmp_path / f"scen{len(outputs)}.csv"
            code = main(
                ["analyze", "--gen", business_file, "--mode", mode, "--enum-threshold", "5",
                 "--jobs", str(jobs), "--out", str(report), "--scenarios", str(scen)]
            )
            assert code == 0
            outputs.append((report.read_bytes(), scen.read_bytes()))
        assert all(out == outputs[0] for out in outputs)

    def test_a_slower_host_changes_no_budgeted_output(self, business_file, tmp_path, capsys,
                                                      monkeypatch):
        # enumeration is off and the budget caps each search at 4 nodes, so
        # some scenarios are proven and the rest fall back to tabu; a clock
        # that runs 100 times faster, as on a host 100 times slower, changes
        # no byte, alone or in one batch
        budget = repr(4.5 / solver._NODES_PER_S)
        real = time.perf_counter
        start = real()

        def analyze(jobs):
            report, scen = tmp_path / "report.json", tmp_path / "scen.csv"
            code = main(
                ["analyze", "--gen", business_file, "--enum-threshold", "5", "--budget", budget,
                 "--jobs", jobs, "--out", str(report), "--scenarios", str(scen)]
            )
            return code, capsys.readouterr().out, report.read_bytes(), scen.read_bytes()

        want = analyze("1")
        assert want[0] == 0
        assert b"proven_optimal" in want[3] and b"heuristic" in want[3]
        monkeypatch.setattr(time, "perf_counter", lambda: start + 100.0 * (real() - start))
        assert analyze("1") == want
        assert analyze("2") == want

    @pytest.mark.parametrize("dispatch", ["in-process", "pool"], indirect=True)
    def test_analyze_refuses_an_exhausted_pooled_slice(self, business_file, capsys, dispatch):
        # in the in-process batch, or in each worker's slice, every search
        # runs out of its own budget at its root
        code = main(
            ["analyze", "--gen", business_file, "--mode", "exact", "--jobs", "2",
             "--enum-threshold", "5", "--budget", "1e-9"]
        )
        assert code == 2
        assert re.search(r"scenario \d+ is budget_exhausted", capsys.readouterr().err)

    def test_analyze_refuses_an_exhausted_enumeration(self, business_file, capsys):
        # a cap below one block stops every sweep after its first block
        code = main(["analyze", "--gen", business_file, "--mode", "exact", "--budget", "1e-9"])
        assert code == 2
        assert "scenario 0 is budget_exhausted" in capsys.readouterr().err

    def test_analyze_refuses_zero_jobs_before_solving(self, business_file, capsys, monkeypatch):
        from qrobust import cli, pipeline

        calls = []
        monkeypatch.setattr(pipeline, "solve", lambda *a, **kw: calls.append("solve"))
        monkeypatch.setattr(pipeline, "_solve_all", lambda *a, **kw: calls.append("batch"))
        # the average reference is solved by the command itself
        monkeypatch.setattr(cli, "solve", lambda *a, **kw: calls.append("reference"))
        for extra in ([], ["--reference", "average"]):
            assert main(["analyze", "--gen", business_file, "--jobs", "0", *extra]) == 2
            assert "jobs must be >= 1, got 0" in capsys.readouterr().err
            assert calls == []


class TestFitAndBoundCommands:
    def test_fit_inline_and_from_artifacts_agree(self, business_file, tmp_path, capsys):
        design = tmp_path / "design.csv"
        scen = tmp_path / "scen.csv"
        inline_model = tmp_path / "inline.json"
        artifact_model = tmp_path / "artifact.json"
        assert main(["design", "--gen", business_file, "--out", str(design)]) == 0
        assert main(
            ["analyze", "--gen", business_file, "--mode", "exact", "--scenarios", str(scen)]
        ) == 0
        assert main(
            ["fit", "--gen", business_file, "--mode", "exact", "--out", str(inline_model)]
        ) == 0
        assert main(
            ["fit", "--gen", business_file, "--design", str(design),
             "--scenarios", str(scen), "--out", str(artifact_model)]
        ) == 0
        capsys.readouterr()
        assert json.loads(inline_model.read_text()) == json.loads(artifact_model.read_text())

    @pytest.mark.parametrize(
        "edit, line",
        [
            # rows of scenarios 0 and 1 swapped: indices out of order
            (lambda rows: [rows[0], rows[2], rows[1], *rows[3:]], 2),
            # an unproven row in the middle of the file
            (lambda rows: [*rows[:5], rows[5].rsplit(",", 1)[0] + ",budget_exhausted", *rows[6:]], 6),
        ],
        ids=["index_order", "budget_exhausted"],
    )
    def test_fit_refuses_bad_scenario_rows(self, business_file, tmp_path, capsys, edit, line):
        design = tmp_path / "design.csv"
        scen = tmp_path / "scen.csv"
        assert main(["design", "--gen", business_file, "--out", str(design)]) == 0
        assert main(
            ["analyze", "--gen", business_file, "--mode", "exact", "--scenarios", str(scen)]
        ) == 0
        rows = scen.read_text().splitlines()
        scen.write_text("\n".join(edit(rows)) + "\n")
        capsys.readouterr()
        assert main(
            ["fit", "--gen", business_file, "--design", str(design), "--scenarios", str(scen)]
        ) == 2
        assert f"line {line}:" in capsys.readouterr().err

    def scenario_files(self, business_file, tmp_path):
        design = tmp_path / "design.csv"
        scen = tmp_path / "scen.csv"
        assert main(["design", "--gen", business_file, "--out", str(design)]) == 0
        assert main(
            ["analyze", "--gen", business_file, "--mode", "exact", "--scenarios", str(scen)]
        ) == 0
        return design, scen

    @staticmethod
    def set_value(row: str, value: str) -> str:
        index, bits, _value, status = row.split(",")
        return ",".join([index, bits, value, status])

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_fit_refuses_a_non_finite_optimum(self, business_file, tmp_path, capsys, value):
        design, scen = self.scenario_files(business_file, tmp_path)
        rows = scen.read_text().splitlines()
        rows[3] = self.set_value(rows[3], value)
        scen.write_text("\n".join(rows) + "\n")
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert main(
            ["fit", "--gen", business_file, "--design", str(design), "--scenarios", str(scen),
             "--out", str(model)]
        ) == 2
        err = capsys.readouterr().err
        assert "line 4:" in err and "non-finite" in err
        assert not model.exists()

    def test_fit_refuses_optima_whose_fit_overflows(self, business_file, tmp_path, capsys):
        # each optimum is finite, but their sum is not
        design, scen = self.scenario_files(business_file, tmp_path)
        rows = scen.read_text().splitlines()
        scen.write_text("\n".join([rows[0], *(self.set_value(r, "1e308") for r in rows[1:])]) + "\n")
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert main(
            ["fit", "--gen", business_file, "--design", str(design), "--scenarios", str(scen),
             "--out", str(model)]
        ) == 2
        assert "the fit overflows" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("standard_error", float("inf")), ("intercept", float("nan")), ("dof", float("inf"))],
    )
    def test_bound_refuses_a_non_finite_model_field(
        self, business_file, tmp_path, capsys, field, value
    ):
        model = tmp_path / "model.json"
        assert main(["fit", "--gen", business_file, "--mode", "exact", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc[field] = value
        model.write_text(json.dumps(doc))
        comp = tmp_path / "comp.csv"
        capsys.readouterr()
        assert main(
            ["bound", "--gen", business_file, "--model", str(model), "--validate", "2",
             "--out", str(comp)]
        ) == 2
        assert f"model field {field} is" in capsys.readouterr().err
        assert not comp.exists()

    def test_bound_refuses_a_non_finite_coefficient(self, business_file, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["fit", "--gen", business_file, "--mode", "exact", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["coefficients"][1]["beta"] = float("-inf")
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["bound", "--gen", business_file, "--model", str(model)]) == 2
        assert "model field coefficients[1].beta is -inf" in capsys.readouterr().err

    def test_inline_fit_refuses_budget_exhausted(self, business_file, capsys):
        # enumeration is off and the budget ends before branch and bound starts
        code = main(
            ["fit", "--gen", business_file, "--mode", "exact", "--enum-threshold", "2",
             "--budget", "1e-9"]
        )
        assert code == 2
        assert "budget_exhausted" in capsys.readouterr().err

    def test_bound_csv_and_summary(self, business_file, tmp_path, capsys):
        comp = tmp_path / "comp.csv"
        code = main(
            ["bound", "--gen", business_file, "--mode", "exact", "--validate", "16",
             "--seed", "5", "--out", str(comp)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_g_gap=" in out
        lines = comp.read_text().strip().splitlines()
        assert len(lines) == 17
        assert lines[0].startswith("scenario,optimum,")

    def test_bound_repeat_is_byte_identical(self, business_file, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(
                ["bound", "--gen", business_file, "--mode", "exact", "--validate", "8",
                 "--seed", "9", "--out", str(path)]
            ) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("level", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_generator_level_exits_2(self, tmp_path, capsys, level):
        gen = tmp_path / "gen.json"
        gen.write_text(
            '{"n": 2, "entries": [{"i": 0, "j": 0, "a": 1, "b": 2}, '
            f'{{"i": 0, "j": 1, "a": {level}, "b": -1}}]}}'
        )
        out = tmp_path / "model.json"
        assert main(["fit", "--gen", str(gen), "--budget", "0", "--out", str(out)]) == 2
        assert "(0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_generators_exit_2(self, tmp_path, capsys):
        from qrobust import ScenarioGenerators

        flat = tmp_path / "flat.json"
        flat.write_text(
            json.dumps(generators_to_json(ScenarioGenerators(2, {(0, 0): (3, 3)})))
        )
        assert main(["fit", "--gen", str(flat)]) == 2
        err = capsys.readouterr().err
        assert "k=1, d=0" in err

    def test_bound_with_premade_model_on_flat_generators(self, tmp_path, capsys):
        from qrobust import ScenarioGenerators

        flat = tmp_path / "flat.json"
        flat.write_text(
            json.dumps(generators_to_json(ScenarioGenerators(2, {(0, 0): (3, 3)})))
        )
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps(
                {"intercept": 3.0, "coefficients": [], "standard_error": 0.5, "dof": 2}
            )
        )
        comp = tmp_path / "comp.csv"
        code = main(
            ["bound", "--gen", str(flat), "--model", str(model), "--validate", "1",
             "--out", str(comp)]
        )
        assert code == 0
        capsys.readouterr()
        lines = comp.read_text().strip().splitlines()
        assert len(lines) == 2
        optimum = float(lines[1].split(",")[1])
        assert float(lines[1].split(",")[3]) >= optimum  # surface bound
        assert float(lines[1].split(",")[4]) >= optimum  # positive-sum bound


def lines(edit):
    """An edit of a document's lines."""
    return lambda text: "\n".join(edit(text.splitlines())) + "\n"


def field(path, value):
    """An edit of a JSON document that sets the field at ``path`` to ``value``."""

    def edit(text):
        doc = json.loads(text)
        *keys, last = path
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
        return json.dumps(doc)

    return edit


def drop_last_coefficient(text):
    doc = json.loads(text)
    doc["coefficients"].pop()
    return json.dumps(doc)


def first_entry(row, value):
    return ",".join([value, *row.split(",")[1:]])


def third_entry(row, value):
    cols = row.split(",")
    return ",".join([*cols[:2], value, *cols[3:]])


SOLVE = ["solve", "--in", "{bad}", "--out", "{out}"]
FIT = ["fit", "--gen", "{gen}", "--out", "{out}"]
FIT_DESIGN = [*FIT, "--design", "{bad}", "--scenarios", "{scen}"]
FIT_SCENARIOS = [*FIT, "--design", "{design}", "--scenarios", "{bad}"]
BOUND_MODEL = ["bound", "--gen", "{gen}", "--model", "{bad}", "--validate", "2", "--out", "{out}"]
ANALYZE_GEN = ["analyze", "--gen", "{bad}", "--mode", "exact", "--out", "{out}"]
FIT_GEN = ["fit", "--gen", "{bad}", "--out", "{out}"]
BOUND_GEN = ["bound", "--gen", "{bad}", "--validate", "2", "--out", "{out}"]

# (id, good file the bad one is edited from or None, edit, argv, error text)
REFUSALS = [
    ("bad_header", None, lambda _: "2\n", SOLVE, "line 1: expected header 'n m'"),
    ("negative_count", None, lambda _: "2 -1\n", SOLVE, "line 1: entry count must be >= 0"),
    ("extra_line", None, lambda _: "2 1\n1 1 3\n2 2 4\n", SOLVE, "line 3: unexpected extra data"),
    ("malformed_entry", None, lambda _: "2 1\n1 x 3\n", SOLVE, "line 2: malformed entry"),
    ("empty_instance", None, lambda _: "# nothing\n", SOLVE, "line 1: empty input"),
    ("empty_design", None, lambda _: "\n", FIT_DESIGN, "empty design document"),
    ("column_name", "design", lines(lambda r: ["col" + r[0][3:], *r[1:]]), FIT_DESIGN,
     "line 1: bad design column name 'col_0_0'"),
    ("design_level", "design", lines(lambda r: [*r[:2], first_entry(r[2], "2"), *r[3:]]),
     FIT_DESIGN, "line 3: expected 22 entries of +1 or -1"),
    ("ragged_design", "design", lines(lambda r: [r[0], r[1].rsplit(",", 1)[0], *r[2:]]),
     FIT_DESIGN, "line 2: expected 22 entries of +1 or -1"),
    ("design_columns", "design", lines(lambda r: [ln.rsplit(",", 1)[0] for ln in r]), FIT_DESIGN,
     "design columns do not match"),
    ("scenario_columns", "scen", lines(lambda r: [*r[:3], r[3] + ",x", *r[4:]]), FIT_SCENARIOS,
     "line 4: expected 'index,bits,value,status'"),
    ("scenario_value", "scen", lines(lambda r: [*r[:3], third_entry(r[3], "abc"), *r[4:]]),
     FIT_SCENARIOS, "line 4: non-numeric value 'abc'"),
    ("design_alone", None, None, [*FIT, "--design", "{design}"],
     "--design and --scenarios must be given together"),
    ("negative_standard_error", "model", field(["standard_error"], -1.0), BOUND_MODEL,
     "standard_error must be >= 0"),
    ("negative_dof", "model", field(["dof"], -2), BOUND_MODEL, "dof must be >= 0"),
    ("coefficient_count", "model", drop_last_coefficient, BOUND_MODEL,
     "model coefficients do not match"),
]

# JSON fields of the wrong type, which the readers once truncated or converted
STRICT_JSON = [
    ("dof_float", "model", field(["dof"], 2.5), BOUND_MODEL,
     "model field dof is 2.5, not an integer"),
    ("dof_bool", "model", field(["dof"], True), BOUND_MODEL,
     "model field dof is True, not an integer"),
    ("dof_string", "model", field(["dof"], "3"), BOUND_MODEL,
     "model field dof is '3', not an integer"),
    ("coefficient_index", "model", field(["coefficients", 0, "i"], 0.0), BOUND_MODEL,
     "model field coefficients[0].i is 0.0, not an integer"),
    ("beta_string", "model", field(["coefficients", 1, "beta"], "1.5"), BOUND_MODEL,
     "model field coefficients[1].beta is '1.5', not a number"),
    ("n_float", "gen", field(["n"], 9.9), ANALYZE_GEN, "generators field n is 9.9, not an integer"),
    ("n_bool", "gen", field(["n"], True), FIT_GEN, "generators field n is True, not an integer"),
    ("i_float", "gen", field(["entries", 0, "i"], 0.7), BOUND_GEN,
     "generators field entries[0].i is 0.7, not an integer"),
    ("a_bool", "gen", field(["entries", 0, "a"], True), ANALYZE_GEN,
     "generators field entries[0].a is True, not a number"),
    ("b_string", "gen", field(["entries", 0, "b"], "2"), FIT_GEN,
     "generators field entries[0].b is '2', not a number"),
]


@pytest.fixture
def artifacts(business_file, tmp_path, capsys):
    """Good generators, design, scenarios and model files of the business example."""
    files = {"gen": business_file, "out": str(tmp_path / "out"), "bad": str(tmp_path / "bad")}
    for name in ("design", "scen", "model"):
        files[name] = str(tmp_path / f"good_{name}")
    assert main(["design", "--gen", business_file, "--out", files["design"]]) == 0
    assert main(
        ["analyze", "--gen", business_file, "--mode", "exact", "--scenarios", files["scen"]]
    ) == 0
    assert main(
        ["fit", "--gen", business_file, "--design", files["design"], "--scenarios", files["scen"],
         "--out", files["model"]]
    ) == 0
    capsys.readouterr()
    return files


def refused(artifacts, capsys, source, edit, argv, error):
    """Run ``argv`` on an edited input: exit 2, ``error`` named, no output file."""
    if edit is not None:
        good = "" if source is None else Path(artifacts[source]).read_text()
        Path(artifacts["bad"]).write_text(edit(good))
    assert main([arg.format(**artifacts) for arg in argv]) == 2
    assert error in capsys.readouterr().err
    assert not Path(artifacts["out"]).exists()


@pytest.mark.parametrize("source, edit, argv, error", [c[1:] for c in REFUSALS],
                         ids=[c[0] for c in REFUSALS])
def test_refusals_name_the_line_or_field(artifacts, capsys, source, edit, argv, error):
    refused(artifacts, capsys, source, edit, argv, error)


@pytest.mark.parametrize("source, edit, argv, error", [c[1:] for c in STRICT_JSON],
                         ids=[c[0] for c in STRICT_JSON])
def test_json_fields_must_have_their_type(artifacts, capsys, source, edit, argv, error):
    refused(artifacts, capsys, source, edit, argv, error)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["solve", "--in"], "2 3\n1 1 1e308\n2 2 1e308\n1 2 1e308\n"),
        (["analyze", "--gen"], json.dumps({"n": 2, "entries": [
            {"i": 0, "j": 0, "a": 1, "b": 1e308}, {"i": 1, "j": 1, "a": 1e308, "b": 2},
            {"i": 0, "j": 1, "a": -1e308, "b": 3}]})),
    ],
    ids=["solve", "analyze"],
)
def test_coefficients_that_overflow_are_refused(tmp_path, capsys, argv, text):
    # doubled, the magnitudes sum to inf, so an objective could be NaN
    path = tmp_path / "input"
    path.write_text(text)
    assert main([*argv, str(path)]) == 2
    assert "coefficients overflow" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_zero_or_less_lifts_the_limit(budget):
    args = build_parser().parse_args(["solve", "--in", "x.txt", "--budget", budget])
    assert _solver_config(args).time_budget is None


def test_infinite_budget_lifts_the_limit(demo5_file, capsys):
    args = build_parser().parse_args(["solve", "--in", demo5_file, "--budget", "inf"])
    assert _solver_config(args).time_budget == float("inf")
    assert main(["solve", "--in", demo5_file, "--budget", "inf"]) == 0
    assert "status=proven_optimal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["solve", "--budget", "nan"], "time_budget must be positive"),
        (["preprocess", "--tolerance", "nan"], "near tolerance must be >= 0"),
    ],
    ids=["budget", "tolerance"],
)
def test_nan_is_refused(demo5_file, tmp_path, capsys, argv, error):
    # NaN compares false both ways, so it would pass a "<= 0" or "< 0"
    # check and then lift the limit or flag nothing
    out = tmp_path / "out.json"
    assert main([argv[0], "--in", demo5_file, *argv[1:], "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_main_reuses_one_parser_without_carrying_flags(demo5_file, monkeypatch, capsys):
    # build_parser gives a fresh parser; main parses with one per process,
    # and a flag given to one call does not reach the next
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()
    seeds = []

    def config(args):
        seeds.append((args.seed, args.mode))
        return _solver_config(args)

    monkeypatch.setattr(cli, "_solver_config", config)
    assert main(["solve", "--in", demo5_file, "--seed", "7", "--mode", "heuristic"]) == 0
    assert main(["solve", "--in", demo5_file]) == 0
    assert seeds == [(7, "heuristic"), (cli.DEFAULT_SEED, "auto")]
    assert capsys.readouterr().out.count("value=288") == 2
