"""End-to-end command-line behavior: formats, exit codes, reproducibility."""

import json

import pytest

from conftest import make_business_generators, make_demo5
from qrobust import format_instance
from qrobust.cli import main
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
