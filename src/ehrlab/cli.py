"""Batch front end: run scenario files and emit machine-readable reports.

A scenario is a single JSON document naming a job (norm, certify, reverse,
three-space, falsify, classify, counterexample) plus the configs the job
needs. Everything is schema-validated up front; validation failures report
JSON-pointer paths and exit 1 without touching the filesystem.

Reports are deterministic by construction: no timestamps, sorted keys,
seeds echoed. Running the same scenario twice must produce byte-identical
files; the golden tests enforce this.

Exit status: 0 = job completed with a PASS or constructed result,
2 = falsified (witness found, or no modulus exists down to the floor, proved
beyond rounding), 3 = inconclusive within budget, 1 = usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import jsonschema

from . import __version__
from .convergence import (
    SequenceGen,
    _counterexample_tol,
    appendix_counterexample,
    basis_sequence,
    classify,
    counterexample_sequence,
    strongly_convergent_sequence,
)
from .ehrling import (
    DEFAULT_EPS_GRID,
    certify,
    falsify,
    reverse_certificate,
    three_space_certificate,
)
from .errors import EhrlabError, NoModulusError, ScenarioError
from .operators import operator_from_json
from .optimize import OptimizerSettings, SamplerSettings
from .spaces import Element, family_from_json, norm, normspec_from_json
from .veryweak import very_weak_norm

__all__ = ["load_scenario", "validate_scenario", "run", "main"]


@functools.cache
def _schema() -> dict:
    text = resources.files("ehrlab").joinpath(
        "schemas/scenario.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def validate_scenario(doc) -> None:
    """Schema-check a scenario document; ScenarioError lists pointer paths."""
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(doc),
                    key=lambda e: (list(map(str, e.absolute_path)), e.message))
    if errors:
        pointers = []
        lines = []
        for e in errors[:8]:
            ptr = "/" + "/".join(str(p) for p in e.absolute_path)
            pointers.append(ptr)
            lines.append(f"{ptr}: {e.message}")
        raise ScenarioError("; ".join(lines), pointers=pointers)


def load_scenario(path, job_override: str | None = None) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", pointers=[]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}",
                            pointers=[]) from exc
    if job_override is not None:
        doc = dict(doc)
        doc["job"] = job_override
    validate_scenario(doc)
    return doc


# ---------------------------------------------------------------------------
# scenario pieces -> library objects
# ---------------------------------------------------------------------------

def _norm_or_family(obj: dict):
    return family_from_json(obj) if "mode" in obj else normspec_from_json(obj)


def _optimizer(sc: dict) -> OptimizerSettings:
    opt = OptimizerSettings(seed=int(sc.get("seed", 0)))
    budget = sc.get("budget", {})
    if budget:
        opt = replace(opt, **budget)
    return opt


def _sampler(sc: dict) -> SamplerSettings:
    cfg = dict(sc.get("sampler", {}))
    cfg.setdefault("seed", int(sc.get("seed", 0)))
    return SamplerSettings(**cfg)


def _sequence(sc: dict, fam) -> SequenceGen:
    cfg = sc["sequence"]
    rule = cfg["rule"]
    dim = int(cfg.get("dim", 16))
    horizon = cfg.get("horizon")
    if rule == "basis":
        return basis_sequence(dim, horizon)
    if rule == "strongly-convergent":
        target = Element(cfg["target"]) if "target" in cfg else Element([0.0] * dim)
        return strongly_convergent_sequence(target, cfg.get("rate", 0.5),
                                            horizon or 32)
    if rule == "appendix-counterexample":
        return counterexample_sequence(fam, horizon or 16)
    if rule == "custom":
        target = Element(cfg["target"]) if "target" in cfg else None
        return SequenceGen(tuple(Element(row) for row in cfg["elements"]), target)
    raise ScenarioError(f"unknown sequence rule {rule!r}",
                        pointers=["/sequence/rule"])


# ---------------------------------------------------------------------------
# job handlers: each returns (exit_status, result dict, csv table)
# ---------------------------------------------------------------------------

def _job_norm(sc):
    fam = family_from_json(sc["family"])
    u = Element(sc["element"])
    cv = very_weak_norm(fam, u, tau=sc.get("tolerance", 1e-8))
    table = [("lo", "hi", "terms_used"), (cv.lo, cv.hi, cv.terms_used)]
    return 0, {"enclosure": cv.as_dict()}, table


def _rows_table(rows) -> list:
    table = [("eps", "delta", "C", "method", "residual")]
    for r in rows:
        table.append((r.eps, r.delta, r.C, r.method, r.residual))
    return table


def _certificate_exit(cert) -> int:
    return 0 if all(r.residual <= 0.0 for r in cert.rows) else 3


def _job_certify(sc):
    T = operator_from_json(sc["operator"])
    norm1 = normspec_from_json(sc["norm1"])
    norm2 = _norm_or_family(sc["norm2"])
    eps_grid = tuple(sc.get("eps_grid", DEFAULT_EPS_GRID))
    cert = certify(T, norm1, norm2, eps_grid, opt=_optimizer(sc),
                   sampler=_sampler(sc))
    return _certificate_exit(cert), {"certificate": cert.as_dict()}, _rows_table(cert.rows)


def _job_reverse(sc):
    T = operator_from_json(sc["operator"])
    fam = family_from_json(sc["family"])
    row = reverse_certificate(T, fam, sc["eps"], opt=_optimizer(sc),
                              sampler=_sampler(sc))
    status = 0 if row.residual <= 0.0 else 3
    return status, {"row": row.as_dict()}, _rows_table([row])


def _job_three_space(sc):
    theta = operator_from_json(sc["inner"])
    tau_op = operator_from_json(sc["outer"])
    eps_grid = tuple(sc.get("eps_grid", DEFAULT_EPS_GRID))
    cert = three_space_certificate(theta, tau_op, eps_grid, opt=_optimizer(sc),
                                   sampler=_sampler(sc))
    return _certificate_exit(cert), {"certificate": cert.as_dict()}, _rows_table(cert.rows)


def _job_falsify(sc):
    T = operator_from_json(sc["operator"])
    norm1 = normspec_from_json(sc["norm1"])
    fam = family_from_json(sc["family"])
    w = falsify(T, norm1, fam, sc["eps"], sc["c_max"], opt=_optimizer(sc))
    table = [("eps", "lower_bound_on_C", "residual")]
    if w is None:
        return 3, {"witness": None,
                   "note": "no witness within budget; inconclusive"}, table
    table.append((w.eps, w.lower_bound_on_C, w.residual))
    return 2, {"witness": w.as_dict()}, table


def _job_classify(sc):
    fam = family_from_json(sc["family"])
    g = _sequence(sc, fam)
    report = classify(g, fam, tol=sc.get("tol", 1e-3))
    table = [("n", "norm", "strong_residual", "weak_residual", "vw_lo", "vw_hi")]
    for i in range(g.horizon):
        cv = report.very_weak[i]
        table.append((i + 1, report.norms[i], report.strong_residuals[i],
                      report.weak_residuals[i], cv.lo, cv.hi))
    return 0, {"report": report.as_dict()}, table


def _job_counterexample(sc):
    fam = family_from_json(sc["family"])
    entries = []
    table = [("n", "dim", "norm", "very_weak_hi", "bound")]
    for n in sc["indices"]:
        u = appendix_counterexample(fam, n)
        got = norm(fam.space, u)
        hi = very_weak_norm(fam, u, tau=_counterexample_tol(n)).hi
        entries.append({"n": n, "dim": u.dim, "norm": got,
                        "very_weak_hi": hi, "bound": 1.0 / n,
                        "coeffs": [float(x) for x in u.coeffs]})
        table.append((n, u.dim, got, hi, 1.0 / n))
    return 0, {"elements": entries}, table


_HANDLERS = {
    "norm": _job_norm,
    "certify": _job_certify,
    "reverse": _job_reverse,
    "three-space": _job_three_space,
    "falsify": _job_falsify,
    "classify": _job_classify,
    "counterexample": _job_counterexample,
}


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _jsonify(obj):
    """Make a payload JSON-safe: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def _write_report(path: Path, payload: dict) -> None:
    text = json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"
    path.write_text(text, encoding="utf-8")


def _write_csv(path: Path, table) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        for row in table:
            writer.writerow(["" if v is None else str(v) for v in row])


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(sc: dict, output_dir=None) -> int:
    """Execute a validated scenario; write report files; return exit status."""
    job = sc["job"]
    out = Path(output_dir) if output_dir is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    names = sc.get("output", {})

    try:
        status, result, table = _HANDLERS[job](sc)
    except NoModulusError as exc:
        # falsified only when the upper enclosure proves it beyond rounding;
        # else inconclusive. The row table is written with its header only.
        status = 2 if exc.proved else 3
        result = {"no_modulus": {"eps": exc.eps, "delta_floor": exc.delta_floor,
                                 "sup_at_floor": exc.sup_at_floor}}
        table = _rows_table([])

    payload = {
        "artifact": {"name": "ehrlab", "version": __version__},
        "job": job,
        "seed": int(sc.get("seed", 0)),
        "scenario": sc,
        "exit_status": status,
        "result": result,
    }
    _write_report(out / names.get("report", f"{job}-report.json"), payload)
    csv_name = names.get("csv")
    if csv_name is None and job in ("certify", "three-space", "classify",
                                    "counterexample"):
        csv_name = f"{job}-rows.csv"
    if csv_name is not None:
        _write_csv(out / csv_name, table)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ehrlab",
        description="certified very-weak-norm and Ehrling-inequality runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario JSON file")
    runp.add_argument("scenario", help="path to the scenario JSON")
    runp.add_argument("--job", choices=tuple(_HANDLERS), default=None,
                      help="override the scenario's job field")
    runp.add_argument("--output-dir", default=None,
                      help="directory for report files (default: cwd)")

    args = parser.parse_args(argv)
    try:
        sc = load_scenario(args.scenario, job_override=args.job)
        return run(sc, output_dir=args.output_dir)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except EhrlabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
