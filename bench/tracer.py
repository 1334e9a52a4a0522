"""Outside-in span tracer for the benchmark's traced run.

The tracer rebinds public library functions to timing wrappers in every
ehrlab module that holds them by name (``ehrling`` imports
``maximize_direction``, ``veryweak`` imports ``norm_batch``, and so on), so
calls between modules are traced as well as calls from the benchmark. Spans
(key, start, end, parent) stay in memory and are written out at the end. No
source file of the library is touched.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

NORM_KINDS = ("lp", "weighted-lp", "sobolev-h1", "very-weak")
FAMILY_MODES = ("coordinate", "dense-rational")
OPERATOR_REPRS = ("diagonal", "dense", "kernel", "shift")
JOBS = ("certify", "verify_certificate", "falsify", "reverse_certificate",
        "three_space_certificate")
HARDENED_JOBS = ("ehrling.certify", "ehrling.reverse_certificate",
                 "ehrling.three_space_certificate")


def _rows(U) -> int:
    return int(np.atleast_2d(np.asarray(U)).shape[0])


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _apply_bytes(T, U, out) -> int:
    """Bytes an apply_batch call must touch: operand, result and operator data."""
    U = np.atleast_2d(np.asarray(U))
    data = 0
    for arr in (T.lam, T.matrix, T.samples):
        if arr is not None:
            data += arr.nbytes
    return int(U.size * 8 + out.nbytes + data)


class Tracer:
    """Spans plus per-call details for the wrapped library functions."""

    def __init__(self):
        self.spans = []   # [key, start, end, parent index, detail]
        self._stack = []
        self._installed = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, key_of, detail_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [key_of(args, kwargs), t0, t1, parent, None]
            if detail_of is not None:
                spans[idx][4] = detail_of(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_search(self, fn):
        """maximize_direction, with the objective wrapped to count its rows."""
        traced = self._wrap(fn, lambda a, k: "optimize.maximize_direction",
                            lambda a, k, out: (int(_arg(a, k, 1, "dim")),
                                               _arg(a, k, 0, "objective").rows))

        def wrapper(*args, **kwargs):
            objective = _arg(args, kwargs, 0, "objective")

            def counted(V):
                counted.rows.append(int(V.shape[0]))
                return objective(V)

            counted.rows = []
            if args:
                args = (counted,) + args[1:]
            else:
                kwargs["objective"] = counted
            return traced(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        from ehrlab import (cli, convergence, ehrling, operators, optimize,
                            spaces, veryweak)

        def fixed(key):
            return lambda a, k: key

        targets = [
            (spaces, "norm_batch", self._wrap(
                spaces.norm_batch,
                lambda a, k: "spaces.norm_batch." + _arg(a, k, 0, "ns").kind,
                lambda a, k, out: _rows(_arg(a, k, 1, "U")))),
            (veryweak, "very_weak_norm_batch", self._wrap(
                veryweak.very_weak_norm_batch,
                lambda a, k: "veryweak.very_weak_norm_batch." + _arg(a, k, 0, "fam").mode,
                lambda a, k, out: _rows(_arg(a, k, 1, "U")))),
            (operators, "apply_batch", self._wrap(
                operators.apply_batch,
                lambda a, k: "operators.apply_batch." + _arg(a, k, 0, "T").repr_kind,
                lambda a, k, out: (_rows(_arg(a, k, 1, "U")),
                                   _apply_bytes(_arg(a, k, 0, "T"),
                                                _arg(a, k, 1, "U"), out)))),
            (optimize, "ball_points", self._wrap(
                optimize.ball_points, fixed("optimize.ball_points"),
                lambda a, k, out: int(out.shape[0]))),
            (optimize, "maximize_direction", self._wrap_search(optimize.maximize_direction)),
            (optimize, "bisect_modulus", self._wrap(
                optimize.bisect_modulus, fixed("optimize.bisect_modulus"))),
            (cli, "validate_scenario", self._wrap(
                cli.validate_scenario, fixed("cli.validate_scenario"))),
            (cli, "run", self._wrap(cli.run, fixed("cli.run"))),
            (convergence, "classify", self._wrap(
                convergence.classify, fixed("convergence.classify"))),
            (convergence, "appendix_counterexample", self._wrap(
                convergence.appendix_counterexample,
                fixed("convergence.appendix_counterexample"))),
        ]
        for job in JOBS:
            targets.append((ehrling, job, self._wrap(
                getattr(ehrling, job), fixed("ehrling." + job))))

        modules = [m for name, m in sys.modules.items()
                   if name == "ehrlab" or name.startswith("ehrlab.")]
        for home, name, wrapper in targets:
            original = getattr(home, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

        prefix = spaces.DualFamily.prefix_matrix
        spaces.DualFamily.prefix_matrix = self._wrap(
            prefix, fixed("spaces.DualFamily.prefix_matrix"))
        self._installed.append((spaces.DualFamily, "prefix_matrix", prefix))

        originals = {id(orig) for _, _, orig in self._installed}
        for mod in modules:
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(
                        f"tracer left {mod.__name__}.{attr} unwrapped")

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,key,start,end,parent\n")
            for i, (key, t0, t1, parent, _) in enumerate(self.spans):
                f.write(f"{i},{key},{t0:.9f},{t1:.9f},{parent}\n")


def _fd_rows(dim: int, rows: list) -> int:
    """Rows of the forward-difference gradient calls inside one search.

    A search evaluates the axis scan and the starts, then alternates a
    gradient call of n * dim rows with a step call of n rows, then polishes.
    """
    fd, i = 0, 2
    while i + 1 < len(rows) and rows[i] == dim * rows[i + 1]:
        fd += rows[i]
        i += 2
    return fd


def layer_metrics(spans: list) -> dict:
    """Aggregate spans into the per-layer metrics of BENCHMARK.json."""
    children = defaultdict(list)
    child_time = defaultdict(float)
    for i, (key, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
            child_time[parent] += t1 - t0

    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    rows = defaultdict(int)
    nbytes = defaultdict(int)
    obj_calls = obj_rows = fd_rows = predicates = harden = 0
    for i, (key, t0, t1, parent, detail) in enumerate(spans):
        calls[key] += 1
        incl[key] += t1 - t0
        self_s[key] += (t1 - t0) - child_time[i]
        if key == "optimize.maximize_direction":
            dim, seq = detail
            obj_calls += len(seq)
            obj_rows += sum(seq)
            fd_rows += _fd_rows(dim, seq)
        elif key.startswith("operators.apply_batch."):
            rows[key] += detail[0]
            nbytes[key] += detail[1]
        elif detail is not None:
            rows[key] += detail
        if key == "optimize.bisect_modulus":
            # the first search is the upper bound; each later one is a predicate
            n = sum(spans[c][0] == "optimize.maximize_direction" for c in children[i])
            predicates += max(n - 1, 0)
        if key in HARDENED_JOBS:
            # searches after the first bisection are hardening attacks
            seen_bisect = False
            for c in children[i]:
                ckey = spans[c][0]
                if ckey == "optimize.bisect_modulus":
                    seen_bisect = True
                elif ckey == "optimize.maximize_direction" and seen_bisect:
                    harden += 1

    m = {
        "optimize.maximize_direction.calls": calls["optimize.maximize_direction"],
        "optimize.maximize_direction.self_s": self_s["optimize.maximize_direction"],
        "optimize.maximize_direction.objective_calls": obj_calls,
        "optimize.maximize_direction.objective_rows": obj_rows,
        "optimize.fd_row_share": fd_rows / obj_rows if obj_rows else 0.0,
        "optimize.bisect_modulus.calls": calls["optimize.bisect_modulus"],
        "optimize.bisect_modulus.predicates": predicates,
        "ehrling.harden_rounds": harden,
    }
    groups = ([f"spaces.norm_batch.{k}" for k in NORM_KINDS]
              + [f"veryweak.very_weak_norm_batch.{k}" for k in FAMILY_MODES]
              + [f"operators.apply_batch.{k}" for k in OPERATOR_REPRS])
    for key in groups:
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.s"] = incl[key]
        m[f"{key}.rows"] = rows[key]
        if key.startswith("operators."):
            m[f"{key}.bytes"] = nbytes[key]
    m["spaces.DualFamily.prefix_matrix.calls"] = calls["spaces.DualFamily.prefix_matrix"]
    m["spaces.DualFamily.prefix_matrix.s"] = incl["spaces.DualFamily.prefix_matrix"]
    m["optimize.ball_points.s"] = incl["optimize.ball_points"]
    m["optimize.ball_points.rows"] = rows["optimize.ball_points"]
    for job in JOBS:
        m[f"ehrling.{job}.calls"] = calls[f"ehrling.{job}"]
        m[f"ehrling.{job}.s"] = incl[f"ehrling.{job}"]
    m["ehrling.self_s"] = sum(self_s[f"ehrling.{job}"] for job in JOBS)
    m["cli.validate_scenario.s"] = incl["cli.validate_scenario"]
    m["cli.run.self_s"] = self_s["cli.run"]
    m["convergence.classify.s"] = incl["convergence.classify"]
    m["convergence.appendix_counterexample.s"] = incl["convergence.appendix_counterexample"]
    return m
