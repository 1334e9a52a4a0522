"""Scenario validation, report determinism, exit codes, and golden files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ehrlab import ScenarioError
from ehrlab.cli import load_scenario, main, run, validate_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_scenario(tmp_path: Path, doc: dict) -> Path:
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_job_is_required(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"family": {"mode": "coordinate"}})

    def test_unknown_job_rejected(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"job": "frobnicate"})

    def test_missing_job_inputs_reported_by_pointer(self):
        with pytest.raises(ScenarioError) as exc:
            validate_scenario({"job": "norm", "family": {"mode": "coordinate"}})
        assert "element" in str(exc.value)
        assert exc.value.pointers  # at least one JSON pointer

    def test_nested_pointer_paths(self):
        doc = {"job": "norm", "element": [1.0],
               "family": {"mode": "coordinate", "dim": 0}}
        with pytest.raises(ScenarioError) as exc:
            validate_scenario(doc)
        assert "/family/dim" in exc.value.pointers

    def test_budget_rejects_unknown_keys(self):
        # fd_step, the step of the former finite-difference ascent, is gone too
        for key in ("warp", "fd_step"):
            doc = {"job": "norm", "element": [1.0],
                   "family": {"mode": "coordinate"}, "budget": {key: 9}}
            with pytest.raises(ScenarioError):
                validate_scenario(doc)

    def test_valid_scenarios_on_disk(self):
        for name in ("norm_e3.json", "certify_diag16.json", "falsify_shift.json"):
            load_scenario(SCENARIOS / name)

    def test_job_override_applies_before_validation(self, tmp_path):
        p = write_scenario(tmp_path, {"family": {"mode": "coordinate"},
                                      "element": [1.0, 0.5]})
        with pytest.raises(ScenarioError):
            load_scenario(p)
        sc = load_scenario(p, job_override="norm")
        assert sc["job"] == "norm"

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/path.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(p)


# ---------------------------------------------------------------------------
# exit codes through main()
# ---------------------------------------------------------------------------

class TestExitCodes:
    def test_usage_error_on_missing_file(self, capsys):
        assert main(["run", "/nonexistent/path.json"]) == 1
        assert "scenario error" in capsys.readouterr().err

    def test_usage_error_on_schema_violation(self, tmp_path, capsys):
        p = write_scenario(tmp_path, {"job": "norm"})
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert "required" in err

    def test_norm_job_exits_0(self, tmp_path):
        rc = main(["run", str(SCENARIOS / "norm_e3.json"),
                   "--output-dir", str(tmp_path)])
        assert rc == 0

    def test_falsify_witness_exits_2(self, tmp_path):
        rc = main(["run", str(SCENARIOS / "falsify_shift.json"),
                   "--output-dir", str(tmp_path)])
        assert rc == 2

    def test_falsify_inconclusive_exits_3(self, tmp_path):
        doc = {
            "job": "falsify",
            "operator": {"kind": "diagonal",
                         "lambda": [2.0 ** (-k) for k in range(1, 17)]},
            "norm1": {"kind": "lp", "p": 2},
            "family": {"mode": "coordinate"},
            "eps": 0.5, "c_max": 1000.0,
        }
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "falsify-report.json").read_text())
        assert report["result"]["witness"] is None
        assert "inconclusive" in report["result"]["note"]

    def test_no_modulus_exits_2(self, tmp_path):
        doc = {
            "job": "certify",
            "operator": {"kind": "shift"},
            "norm1": {"kind": "lp", "p": 2},
            "norm2": {"mode": "coordinate"},
            "eps_grid": [0.5],
            "budget": {"dim": 16, "delta_floor": 0.01},
        }
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "certify-report.json").read_text())
        nm = report["result"]["no_modulus"]
        assert nm["eps"] == 0.5
        assert nm["delta_floor"] == 0.01
        assert nm["sup_at_floor"] > 0.5

    def test_config_error_from_library_exits_1(self, tmp_path, capsys):
        # schema-valid but semantically broken: a non-injective operator
        doc = {
            "job": "reverse",
            "operator": {"kind": "diagonal", "lambda": [1.0, 0.5, 0.0]},
            "family": {"mode": "coordinate"},
            "eps": 0.5,
        }
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == 1
        assert "NonInjectiveError" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report content and determinism
# ---------------------------------------------------------------------------

class TestReports:
    def test_norm_report_content(self, tmp_path):
        sc = load_scenario(SCENARIOS / "norm_e3.json")
        assert run(sc, output_dir=tmp_path) == 0
        report = json.loads((tmp_path / "norm_e3-report.json").read_text())
        enc = report["result"]["enclosure"]
        assert enc["lo"] == 0.125 and enc["hi"] == 0.125
        assert enc["terms_used"] == 8
        assert report["scenario"]["job"] == "norm"
        csv_text = (tmp_path / "norm_e3-rows.csv").read_text()
        assert csv_text.splitlines()[0] == "lo,hi,terms_used"
        assert csv_text.splitlines()[1] == "0.125,0.125,8"

    def test_csv_lines_are_crlf_terminated(self, tmp_path):
        sc = load_scenario(SCENARIOS / "norm_e3.json")
        run(sc, output_dir=tmp_path)
        raw = (tmp_path / "norm_e3-rows.csv").read_bytes()
        assert raw.endswith(b"\r\n")
        assert raw.count(b"\r\n") == 2

    def test_reports_are_deterministic(self, tmp_path):
        sc = load_scenario(SCENARIOS / "certify_diag16.json")
        a, b = tmp_path / "a", tmp_path / "b"
        run(sc, output_dir=a)
        run(sc, output_dir=b)
        for name in ("certify_diag16-report.json", "certify_diag16-rows.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_output_dir_is_created(self, tmp_path):
        sc = load_scenario(SCENARIOS / "norm_e3.json")
        nested = tmp_path / "deep" / "dir"
        run(sc, output_dir=nested)
        assert (nested / "norm_e3-report.json").exists()

    def test_default_output_names(self, tmp_path):
        doc = {
            "job": "classify",
            "family": {"mode": "coordinate"},
            "sequence": {"rule": "basis", "dim": 16},
        }
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "classify-report.json").exists()
        assert (tmp_path / "classify-rows.csv").exists()

    def test_classify_report_verdict(self, tmp_path):
        doc = {
            "job": "classify",
            "family": {"mode": "coordinate"},
            "sequence": {"rule": "basis", "dim": 64},
        }
        p = write_scenario(tmp_path, doc)
        sc = load_scenario(p)
        assert run(sc, output_dir=tmp_path) == 0
        report = json.loads((tmp_path / "classify-report.json").read_text())
        assert report["result"]["report"]["verdict"] == "weak-not-strong"

    def test_counterexample_report(self, tmp_path):
        doc = {
            "job": "counterexample",
            "family": {"mode": "coordinate"},
            "indices": [1, 2, 4],
        }
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert run(sc, output_dir=tmp_path) == 0
        report = json.loads((tmp_path / "counterexample-report.json").read_text())
        entries = report["result"]["elements"]
        assert [e["dim"] for e in entries] == [6, 9, 13]
        for e in entries:
            assert e["very_weak_hi"] < e["bound"]
            assert len(e["coeffs"]) == e["dim"]

    def test_three_space_scenario(self, tmp_path):
        doc = {
            "job": "three-space",
            "inner": {"kind": "sobolev-embedding", "d": 6, "h": 0.5},
            "outer": {"kind": "diagonal", "lambda": [1.0] * 6,
                      "codomain": {"kind": "weighted-lp", "p": 2,
                                   "weights": [2.0 ** (-k) for k in range(1, 7)]}},
            "eps_grid": [1.0, 0.5],
            "budget": {"n_starts": 24, "iterations": 40, "polish_rounds": 15},
        }
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert run(sc, output_dir=tmp_path) == 0
        report = json.loads((tmp_path / "three-space-report.json").read_text())
        rows = report["result"]["certificate"]["rows"]
        assert rows[0]["eps"] == 1.0
        assert rows[1]["C"] > rows[0]["C"]

    def test_reverse_scenario(self, tmp_path):
        doc = {
            "job": "reverse",
            "operator": {"kind": "diagonal", "lambda": [1.0, 0.5, 0.25]},
            "family": {"mode": "coordinate"},
            "eps": 0.5,
        }
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert run(sc, output_dir=tmp_path) == 0
        report = json.loads((tmp_path / "reverse-report.json").read_text())
        row = report["result"]["row"]
        assert row["method"] == "reverse"
        assert row["residual"] <= 0.0


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------

GOLDEN_SETS = [
    ("norm_e3.json", ["norm_e3-report.json", "norm_e3-rows.csv"]),
    ("certify_diag16.json", ["certify_diag16-report.json",
                             "certify_diag16-rows.csv"]),
    ("falsify_shift.json", ["falsify_shift-report.json"]),
]


class TestGolden:
    @pytest.mark.parametrize("scenario,files", GOLDEN_SETS,
                             ids=[s for s, _ in GOLDEN_SETS])
    def test_outputs_match_golden_bytes(self, tmp_path, scenario, files):
        sc = load_scenario(SCENARIOS / scenario)
        run(sc, output_dir=tmp_path)
        for name in files:
            produced = (tmp_path / name).read_bytes()
            frozen = (GOLDEN / name).read_bytes()
            assert produced == frozen, f"{name} deviates from the frozen bytes"


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------

class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ehrlab", "run",
             str(SCENARIOS / "norm_e3.json"), "--output-dir", str(tmp_path)],
            capture_output=True, text=True, cwd=REPO,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "norm_e3-report.json").exists()
