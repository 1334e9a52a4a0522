"""Scenario validation, report determinism, exit codes, and golden files."""

import json
import os
import runpy
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ehrlab import (
    DualFamily,
    NormSpec,
    OptimizerSettings,
    SamplerSettings,
    ScenarioError,
    family_from_json,
    normspec_from_json,
    operator_from_json,
)
from ehrlab import cli
from ehrlab.cli import load_scenario, main, run, validate_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


EMBEDDING = {"kind": "sobolev-embedding", "d": 4, "h": 0.2}


def certify_doc(**keys) -> dict:
    """A valid certify scenario of a diagonal, with keys added or replaced."""
    return {"job": "certify", "operator": {"kind": "diagonal", "lambda": [0.5]},
            "norm1": {"kind": "lp", "p": 2}, "norm2": {"mode": "coordinate"}, **keys}


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
        # fd_step, the step of the former finite-difference ascent, is gone
        # too, and the search seed is the top-level seed alone
        for key in ("warp", "fd_step", "seed"):
            doc = {"job": "norm", "element": [1.0],
                   "family": {"mode": "coordinate"}, "budget": {key: 9}}
            with pytest.raises(ScenarioError):
                validate_scenario(doc)

    def test_valid_scenarios_on_disk(self):
        for name in ("norm_e3.json", "certify_diag16.json", "falsify_shift.json",
                     "reverse_diag.json", "three_space_h1.json"):
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


# one schema-valid instance per value of each definition's discriminant
SCHEMA_EXAMPLES = {
    "operator": ("kind", {
        "diagonal": {"kind": "diagonal", "lambda": [1.0, 0.5]},
        "dense": {"kind": "dense", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "kernel": {"kind": "kernel", "samples": [[1.0, 0.5], [0.5, 1.0]],
                   "spacing": 0.5},
        "shift": {"kind": "shift"},
        "sobolev-embedding": {"kind": "sobolev-embedding", "d": 4, "h": 0.2},
    }),
    "norm": ("kind", {
        "lp": {"kind": "lp", "p": "inf"},
        "weighted-lp": {"kind": "weighted-lp", "p": 2, "weights": [1.0, 2.0]},
        "sobolev-h1": {"kind": "sobolev-h1", "h": 0.5},
    }),
    "family": ("mode", {
        "coordinate": {"mode": "coordinate"},
        "dense-rational": {"mode": "dense-rational", "dim": 4,
                           "space": {"kind": "sobolev-h1", "h": 0.5}},
    }),
    "sequence": ("rule", {
        "basis": {"rule": "basis", "dim": 4},
        "strongly-convergent": {"rule": "strongly-convergent",
                                "target": [1.0, 0.0], "horizon": 4},
        "appendix-counterexample": {"rule": "appendix-counterexample",
                                    "horizon": 2},
        "custom": {"rule": "custom", "elements": [[1.0], [0.5]]},
    }),
}

SCHEMA_BUILDERS = {
    "operator": operator_from_json,
    "norm": normspec_from_json,
    "family": family_from_json,
    "sequence": lambda obj: cli._sequence(
        {"sequence": obj}, DualFamily(mode="coordinate", space=NormSpec.lp(2))),
}


class TestSchemaMatchesLibrary:
    def test_every_accepted_value_builds(self):
        schema = cli._schema()
        defs = schema["$defs"]
        assert set(schema["properties"]["job"]["enum"]) == set(cli._HANDLERS)
        for name, (key, examples) in SCHEMA_EXAMPLES.items():
            defn = defs[name]
            if "oneOf" in defn:
                accepted = {b["properties"][key]["const"] for b in defn["oneOf"]}
            else:
                accepted = set(defn["properties"][key]["enum"])
            assert accepted == set(examples), name
            # every other enum the definition declares, set on one example
            base = next(iter(examples.values()))
            instances = list(examples.values()) + [
                {**base, prop: value}
                for prop, spec in defn.get("properties", {}).items()
                if prop != key and "enum" in spec for value in spec["enum"]]
            validator = jsonschema.Draft202012Validator(
                {"$ref": f"#/$defs/{name}", "$defs": defs})
            for obj in instances:
                validator.validate(obj)
                SCHEMA_BUILDERS[name](obj)
        # cli._optimizer and cli._sampler pass these keys on as keywords
        for name, settings in (("budget", OptimizerSettings),
                               ("sampler", SamplerSettings)):
            assert set(defs[name]["properties"]) <= {f.name for f in fields(settings)}

    def test_every_object_with_properties_is_closed(self):
        # an object that lists its keys must reject the rest, so a removed or
        # misspelt key fails validation instead of being silently ignored;
        # the if conditions only test a key and stay open
        open_objects = []

        def walk(node, path):
            if isinstance(node, dict):
                if "properties" in node and node.get("additionalProperties") is not False:
                    open_objects.append(path or "/")
                for key, child in node.items():
                    if key != "if":
                        walk(child, f"{path}/{key}")
            elif isinstance(node, list):
                for i, child in enumerate(node):
                    walk(child, f"{path}/{i}")

        walk(cli._schema(), "")
        assert open_objects == []


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

    def test_removed_keys_fail_validation_by_pointer(self, tmp_path, capsys):
        base = {"job": "certify", "operator": {"kind": "diagonal", "lambda": [0.5]},
                "norm1": {"kind": "lp", "p": 2}, "norm2": {"mode": "coordinate"}}
        classify = {"job": "classify", "family": {"mode": "coordinate"},
                    "sequence": {"rule": "appendix-counterexample"}}
        # (document, section or None for the root, key, value, expected message)
        cases = [(base, "operator", "cc_status", "cc", "/operator: Additional properties"),
                 (base, "sampler", "include_basis", True, "/sampler: Additional properties"),
                 (base, "budget", "step_init", 0.25, "/budget: Additional properties"),
                 (base, "budget", "bisect_rel_width", 1e-3, "/budget: Additional properties"),
                 (base, None, "dim_margin", 4, "/: Additional properties"),
                 (base, None, "eps_gird", [0.1], "/: Additional properties"),
                 (classify, "sequence", "dim_margin", 4, "/sequence: Additional properties"),
                 (base, None, "norm2", {"kind": "very-weak", "family": {"mode": "coordinate"},
                                        "tolerance": 1e-8}, "/norm2: ")]
        for doc, section, key, value, message in cases:
            doc = json.loads(json.dumps(doc))
            (doc if section is None else doc.setdefault(section, {}))[key] = value
            p = write_scenario(tmp_path, doc)
            assert main(["run", str(p), "--output-dir", str(tmp_path)]) == 1
            assert message in capsys.readouterr().err, (section, key)

    @pytest.mark.parametrize("sequence, message", [
        ({"rule": "appendix-counterexample", "horizon": 2, "target": [1.0]},
         "/sequence: 'target' is not one of"),
        ({"rule": "basis", "dim": 3, "rate": 0.5}, "/sequence: 'rate' is not one of"),
        ({"rule": "strongly-convergent", "elements": [[1.0]]},
         "/sequence: 'elements' is not one of"),
        ({"rule": "custom", "target": [1.0]}, "/sequence: 'elements' is a required property"),
        # dim only sizes the default zero target, so it cannot sit beside one
        ({"rule": "strongly-convergent", "dim": 5, "target": [1.0, 2.0], "horizon": 4},
         "{'required': ['dim', 'target']} (at /sequence)"),
    ], ids=["appendix-target", "basis-rate", "strong-elements", "custom-no-elements",
            "strong-dim-and-target"])
    def test_sequence_keys_the_rule_ignores_fail_by_pointer(self, tmp_path, capsys,
                                                            sequence, message):
        doc = {"job": "classify", "family": {"mode": "coordinate"}, "sequence": sequence}
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        (certify_doc(eps=0.5, c_max=3.0), "/: 'c_max' is not one of"),
        (certify_doc(operator={"kind": "kernel", "spacing": 0.5}),
         "/operator: {'kind': 'kernel', 'spacing': 0.5} is not valid under any"),
        (certify_doc(operator={"kind": "kernel", "samples": [[1.0]], "csv": "kernel.csv",
                               "spacing": 0.5}), "/operator: {'kind': 'kernel', 'samples'"),
        (certify_doc(operator={"kind": "diagonal", "lambda": [0.5], "spacing": 0.5}),
         "/operator: 'spacing' is not one of"),
        ({"job": "three-space", "inner": dict(EMBEDDING, domain={"kind": "lp", "p": 3}),
          "outer": {"kind": "diagonal", "lambda": [1.0] * 5}},
         "/inner: 'domain' is not one of"),
        ({"job": "three-space", "inner": {"kind": "diagonal", "lambda": [1.0] * 4},
          "outer": dict(EMBEDDING, codomain={"kind": "lp", "p": 3})},
         "/outer: 'codomain' is not one of"),
        ({"job": "norm", "family": {"mode": "coordinate"}, "element": [1.0, 0.5],
          "sampler": {"n_samples": 5}}, "/: 'sampler' is not one of"),
        ({"job": "falsify", "operator": {"kind": "diagonal", "lambda": [0.5]},
          "norm1": {"kind": "lp", "p": 2}, "family": {"mode": "coordinate"}, "eps": 0.25,
          "c_max": 1.0, "sampler": {"n_samples": 5}}, "/: 'sampler' is not one of"),
    ], ids=["certify-falsify-keys", "kernel-no-samples", "kernel-samples-and-csv",
            "diagonal-spacing", "embedding-domain", "embedding-codomain",
            "norm-sampler", "falsify-sampler"])
    def test_keys_the_job_or_kind_ignores_fail_by_pointer(self, tmp_path, capsys,
                                                          doc, message):
        # a key no reader uses, or a kernel with both or neither data source,
        # exits 1 before anything runs instead of being ignored or dying
        # with a KeyError
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("key, name", [
        ("report", "../escaped.json"), ("csv", "../escaped.csv"), ("report", "/escaped.json"),
        ("csv", "sub\\escaped.csv"), ("report", "."), ("csv", ".."),
    ], ids=["report-parent", "csv-parent", "report-absolute", "csv-backslash",
            "report-dot", "csv-dotdot"])
    def test_output_names_cannot_leave_the_output_dir(self, tmp_path, capsys, key, name):
        # Path(out) / "/abs" would drop out, and "../x" would climb out of it
        if name.startswith("/"):
            name = str(tmp_path / name[1:])
        p = write_scenario(tmp_path, certify_doc(output={key: name}))
        out = tmp_path / "out" / "dir"
        assert main(["run", str(p), "--output-dir", str(out)]) == 1
        assert f"/output/{key}: " in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [p]

    @pytest.mark.parametrize("operator", [
        {"kind": "dense", "matrix": [[1.0, 0.0], [0.5]]},
        {"kind": "kernel", "samples": [[1.0, 0.5], [0.5]], "spacing": 0.5},
        {"kind": "kernel", "csv": "missing-kernel.csv", "spacing": 0.5},
    ], ids=["ragged-matrix", "ragged-samples", "missing-csv"])
    def test_malformed_operator_exits_1_without_traceback(self, tmp_path, operator):
        doc = {"job": "certify", "operator": operator, "norm1": {"kind": "lp", "p": 2},
               "norm2": {"mode": "coordinate"}}
        p = write_scenario(tmp_path, doc)
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(q for q in paths if q))
        proc = subprocess.run(
            [sys.executable, "-m", "ehrlab", "run", str(p), "--output-dir", str(tmp_path)],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("InvalidElementError: ")
        assert "Traceback" not in proc.stderr

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

    def test_a_one_ulp_excess_at_the_floor_is_no_proof(self, tmp_path):
        # the shift is an isometry, so at eps = 1 the modulus predicate holds
        # with equality; the sup at the floor reads 1 + 1 ulp, which rounding
        # explains, so the run is inconclusive, not falsified
        doc = {
            "job": "certify",
            "operator": {"kind": "shift"},
            "norm1": {"kind": "lp", "p": 2},
            "norm2": {"mode": "coordinate"},
            "eps_grid": [1.5, 1, 0.5],
            "budget": {"dim": 16, "delta_floor": 0.01},
        }
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == 3
        nm = json.loads((tmp_path / "certify-report.json").read_text())["result"]["no_modulus"]
        assert nm["eps"] == 1.0
        assert 1.0 < nm["sup_at_floor"] <= 1.0 + 1e-15

    def test_unproved_no_modulus_exits_3(self, tmp_path):
        # certify_diag16 with the dense-rational family: the lower enclosure
        # leaves no modulus at eps = 1/8, but with the upper enclosure
        # deciding feasibility the sup at the floor stays below eps, so no
        # falsification is proved
        doc = json.loads((SCENARIOS / "certify_diag16.json").read_text())
        doc["norm2"] = {"mode": "dense-rational", "space": doc["norm2"]["space"]}
        del doc["output"]
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "certify-report.json").read_text())
        nm = report["result"]["no_modulus"]
        assert nm["eps"] == 0.125
        assert 0.0 <= nm["sup_at_floor"] <= nm["eps"]

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

    @pytest.mark.parametrize("operator, status", [
        ({"kind": "shift"}, 2),
        ({"kind": "diagonal", "lambda": [2.0 ** -k for k in range(1, 17)]}, 3),
    ], ids=["witness", "inconclusive"])
    def test_falsify_writes_the_csv_it_is_asked_for(self, tmp_path, operator, status):
        doc = json.loads((SCENARIOS / "falsify_shift.json").read_text())
        doc.update(operator=operator, output={"csv": "witness.csv"})
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == status
        lines = (tmp_path / "witness.csv").read_text().splitlines()
        assert lines[0] == "eps,lower_bound_on_C,residual"
        assert len(lines) == (2 if status == 2 else 1)
        if status == 2:
            w = json.loads((tmp_path / "falsify-report.json").read_text())["result"]["witness"]
            assert lines[1] == f"{w['eps']},{w['lower_bound_on_C']},{w['residual']}"

    @pytest.mark.parametrize("eps_grid, status", [([0.5], 2), ([1.5, 1, 0.5], 3)],
                             ids=["proved", "unproved"])
    def test_no_modulus_writes_the_header_of_the_row_table(self, tmp_path, eps_grid,
                                                           status):
        doc = {
            "job": "certify",
            "operator": {"kind": "shift"},
            "norm1": {"kind": "lp", "p": 2},
            "norm2": {"mode": "coordinate"},
            "eps_grid": eps_grid,
            "budget": {"dim": 16, "delta_floor": 0.01},
            "output": {"report": "r.json", "csv": "rows.csv"},
        }
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(tmp_path)]) == status
        assert "no_modulus" in json.loads((tmp_path / "r.json").read_text())["result"]
        assert (tmp_path / "rows.csv").read_text().splitlines() == [
            "eps,delta,C,method,residual"]
        # without output.csv a certify writes its table under the default name
        del doc["output"]["csv"]
        out = tmp_path / "default"
        p = write_scenario(tmp_path, doc)
        assert main(["run", str(p), "--output-dir", str(out)]) == status
        assert (out / "certify-rows.csv").read_text().splitlines() == [
            "eps,delta,C,method,residual"]

    def test_kernel_from_csv_certifies_as_its_inline_samples(self, tmp_path, monkeypatch):
        x = np.linspace(0.0, 1.0, 6)
        K = np.exp(-3.0 * np.abs(x[:, None] - x[None, :]))
        work, scenarios = tmp_path / "work", tmp_path / "scenarios"
        work.mkdir()
        scenarios.mkdir()
        np.savetxt(work / "kernel.csv", K, fmt="%.17g", delimiter=",")
        inline = certify_doc(operator={"kind": "kernel", "samples": K.tolist(), "spacing": 0.2},
                             eps_grid=[0.5, 0.125], sampler={"n_samples": 200},
                             budget={"n_starts": 8, "iterations": 10, "polish_rounds": 4})
        # a relative csv path resolves against the working directory, not
        # against the scenario file's directory
        from_csv = dict(inline, operator={"kind": "kernel", "csv": "kernel.csv",
                                          "spacing": 0.2})
        monkeypatch.chdir(work)
        reports = []
        for name, doc in (("inline", inline), ("csv", from_csv)):
            p = scenarios / f"{name}.json"
            p.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["run", str(p), "--output-dir", str(tmp_path / name)]) == 0
            reports.append(json.loads((tmp_path / name / "certify-report.json").read_text()))
        assert reports[0]["result"]["certificate"]["operator"] == "kernel[6x6, h=0.2]"
        assert reports[1]["result"] == reports[0]["result"]

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
    ("reverse_diag.json", ["reverse_diag-report.json", "reverse_diag-rows.csv"]),
    ("three_space_h1.json", ["three_space_h1-report.json",
                             "three_space_h1-rows.csv"]),
    ("classify_counterexample.json", ["classify_counterexample-report.json",
                                      "classify_counterexample-rows.csv"]),
    ("counterexample_lp3.json", ["counterexample_lp3-report.json",
                                 "counterexample_lp3-rows.csv"]),
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
        # the child interpreter finds the package in src/ of the checkout
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run(
            [sys.executable, "-m", "ehrlab", "run",
             str(SCENARIOS / "norm_e3.json"), "--output-dir", str(tmp_path)],
            capture_output=True, text=True, cwd=REPO, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("norm_e3-report.json", "norm_e3-rows.csv"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        proc = subprocess.run(
            [sys.executable, "-m", "ehrlab", "run", str(tmp_path / "missing.json"),
             "--output-dir", str(tmp_path / "out")],
            capture_output=True, text=True, cwd=REPO, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("scenario error: cannot read scenario")
        assert not (tmp_path / "out").exists()

    def test_module_main_exits_with_the_cli_status(self, tmp_path, monkeypatch):
        # the same entry point run in this process
        monkeypatch.setattr(sys, "argv", ["ehrlab", "run", str(tmp_path / "missing.json")])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("ehrlab", run_name="__main__")
        assert exc.value.code == 1
