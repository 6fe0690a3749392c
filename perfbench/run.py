#!/usr/bin/env python3
"""deepnarrow compile benchmark.

    python3 perfbench/run.py --workload nonpoly-deep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  Each run sets up, then repeats whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output against the
references in ``reference.py`` and prints one JSON object as its last line.
``--trace 1`` runs the same rounds with timing shims (``tracing.py``) around
deepnarrow's public functions, alternating with untraced rounds, and reports
per-layer figures plus the tracing overhead; it also writes every span to
``perfbench/out/``.  ``--workload all`` runs every workload in turn in one
process.  See README.md for workloads, metrics and checks.
"""

from __future__ import annotations

import os
import sys

# BLAS / OpenMP pools are sized when numpy loads, so pin them first.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

CHECK_GRID = 18                # compile verifies on twice its default 9-point fit grid
SETUP_REPEATS = 9
CLASSIFY_REPEATS = 5           # classifications per round on the one-compile workloads
OFF_LATTICE_FACTOR = 4.0
REPRODUCE_NOISE = 2.0          # x the network's one-ulp sensitivity; see README
# Seconds the calibration kernel takes on the reference machine (2 cores,
# shared host) in its slower, more common phase; see README, "Host speed".
K_REF = 0.0032
KNOWN_FAULTS = {
    "z_abs_z": "classified UniversalNonPoly_NMplus1; dbar = z^2/(2|z|) != 0 off 0",
    "modrelu(b=-5)": "classified NonUniversalHolomorphic: the probe box lies in the dead zone",
}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    kind: str                       # compile | classify | fit-poly
    label: str
    argv: list = field(default_factory=list)
    target: Optional[str] = None
    activation: Optional[str] = None
    forced_strategy: bool = False
    spec: Optional[Callable] = None   # classify through the API: deepnarrow -> spec
    closed: Optional[ref.ClosedForm] = None


def _param_argv(params: dict) -> list:
    out = []
    for k, v in params.items():
        out += ["--param", f"{k}={v}"]
    return out


def _feature_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] % 2**31)


def _classify(name, params=None, n=1):
    params = params or {}
    return Op("classify", f"{name}({','.join(f'{k}={v}' for k, v in params.items())})"
              if params else name,
              ["classify", "--activation", name, "--n", str(n)] + _param_argv(params),
              closed=ref.closed_form(name, params))


def _compile(target, activation, extra, seed=None):
    n = ref.TARGETS[target][0]
    argv = ["compile", "--target", target, "--activation", activation, "--n", str(n)] + extra
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Op("compile", f"{activation}/{target}", argv, target=target,
              activation=activation, forced_strategy="--strategy" in extra)


def _fit_poly(target):
    n = ref.TARGETS[target][0]
    return Op("fit-poly", f"fit-poly/{target}",
              ["fit-poly", "--target", target, "--n", str(n), "--degree", "2"], target=target)


def nonpoly_deep(seed: int, r: int) -> list:
    ops = [_compile("zzbar", "cardioid", ["--features", "1000"], _feature_seed(seed, r))]
    return ops + [_classify("cardioid") for _ in range(CLASSIFY_REPEATS)]


def poly_lattice_n2(seed: int, r: int) -> list:
    ops = [_compile("z1zbar2", "cardioid",
                    ["--degree", "2", "--strategy", "Poly_Narrow_2N2Mplus5"]),
           _fit_poly("z1zbar2")]
    return ops + [_classify("cardioid", n=2) for _ in range(CLASSIFY_REPEATS)]


CATALOG_COMPILED = ("abs_square", "cardioid", "exp_re", "modrelu", "re_square", "tanh_re",
                    "z_plus_zbar_sq", "conj:cardioid")
# Left out: the 40-feature exp_re fit of |z| beats the best constant only for
# about nine feature seeds in ten, so whether it passes depends on the seed.
LEFT_OUT = {("exp_re", "abs")}
SCALE = 0.5 + 0.5j


def catalog_compile(seed: int, r: int) -> list:
    ops = [_classify(name) for name in ref.catalog_names()]
    ops += [_classify("modrelu", {"b": -0.5}), _classify("conj:cardioid"),
            _classify("r_affine", {"a": 2, "b": 1, "c": 1}), _classify("modrelu", {"b": -5})]
    ops.append(Op("classify", f"scale({SCALE}):cardioid",
                  spec=lambda dn: dn.activations.scale_activation(
                      dn.activations.get_activation("cardioid"), SCALE),
                  closed=ref.scaled(ref.closed_form("cardioid"), SCALE)))
    ops.append(Op("classify", "z_abs_z",
                  spec=lambda dn: dn.activations.custom_activation(
                      "z_abs_z", lambda z: z * np.abs(z)),
                  closed=ref.z_abs_z()))
    for k, (act, target) in enumerate((a, t) for a in CATALOG_COMPILED
                                      for t in ("zzbar", "re", "abs")
                                      if (a, t) not in LEFT_OUT):
        ops.append(_compile(target, act, ["--features", "40", "--degree", "2"],
                            _feature_seed(seed, r, k)))
    ops.append(_compile("zzbar", "abs_square",
                        ["--degree", "2", "--strategy", "Poly_Wide_2N2Mplus12"]))
    ops.append(_fit_poly("zzbar"))
    return ops


WORKLOADS = {
    "nonpoly-deep": nonpoly_deep,
    "poly-lattice-n2": poly_lattice_n2,
    "catalog-compile": catalog_compile,
}


# ---------------------------------------------------------------------------
# Checks against the references
# ---------------------------------------------------------------------------


@dataclass
class TargetRef:
    lattice: np.ndarray
    ceiling: float


def target_refs(targets) -> dict:
    """Verification lattice and sup-error ceiling per target.  The ceiling is
    the error of the best constant approximant: a network above it has
    learned nothing about the target (see README)."""
    out = {}
    for t in targets:
        check = ref.lattice(1.0, CHECK_GRID, ref.TARGETS[t][0])
        out[t] = TargetRef(check, ref.constant_error(t, check))
    return out


def _parse_line(text: str) -> dict:
    last = text.strip().splitlines()[-1]
    return dict(kv.split("=", 1) for kv in last.split()[1:])


def check_compile(op: Op, stdout: str, net_text: str, csv_text: str, tref: TargetRef,
                  rng: np.random.Generator) -> tuple:
    """Returns (problems, re-measured sup error, parameter count)."""
    problems = []
    line = _parse_line(stdout)
    strategy = line["strategy"]
    net = ref.load_network(net_text)
    n = ref.TARGETS[op.target][0]
    budget = ref.WIDTH_BUDGETS[strategy](n, 1)
    if net.width > budget:
        problems.append(f"width {net.width} exceeds the {strategy} budget {budget}")
    if (net.width, net.depth) != (int(line["width"]), int(line["depth"])):
        problems.append("reported width/depth differ from the written network")
    if not op.forced_strategy:
        verdict = ref.analytic_verdict(ref.closed_form(op.activation), ref.PLANE)
        if strategy not in ref.VERDICT_STRATEGY_FAMILY.get(verdict, ()):
            problems.append(f"strategy {strategy} is not certified by {verdict}")

    rows = ref.parse_sweep_csv(csv_text)
    finite = [row for row in rows if math.isfinite(row[1])]
    if not finite:
        return problems + ["sweep has no finite row"], math.inf, net.params
    best = min(finite, key=lambda row: row[1])
    if not math.isclose(best[1], float(line["sup_error"]), rel_tol=1e-5):
        problems.append(f"reported sup_error {line['sup_error']} is not the CSV minimum {best[1]!r}")
    if not math.isclose(best[0], float(line["h"]), rel_tol=1e-5):
        problems.append(f"reported h {line['h']} is not the best row's h {best[0]!r}")

    values = ref.forward(net, tref.lattice)
    own = ref.errors(values, op.target, tref.lattice)
    noise = float(np.max(np.abs(ref.forward(net, tref.lattice, jitter=rng) - values)))
    if abs(own - best[1]) > REPRODUCE_NOISE * noise + 1e-6 * best[1]:
        problems.append(f"forward pass gives sup error {own!r}, the sweep {best[1]!r} "
                        f"(float noise {noise:.3g})")
    if own > tref.ceiling:
        problems.append(f"sup error {own!r} above the ceiling {tref.ceiling!r}")
    off_points = ref.uniform_points(rng, 1024 if n == 1 else 8192, n)
    off = ref.sup_error(net, op.target, off_points)
    if off > OFF_LATTICE_FACTOR * own:
        problems.append(f"off-lattice error {off!r} above {OFF_LATTICE_FACTOR} x {own!r}")
    return problems, own, net.params


def check_fit_poly(op: Op, doc: dict) -> list:
    zd, bd = ref.UNIT_MONOMIALS[op.target]
    terms = doc["components"][0]
    if len(doc["components"]) != 1 or len(terms) != 1:
        return [f"fit-poly kept {sum(map(len, doc['components']))} terms, expected 1"]
    (re_c, im_c), got_zd, got_bd = terms[0]
    if (tuple(got_zd), tuple(got_bd)) != (zd, bd) or abs(complex(re_c, im_c) - 1) > 1e-9:
        return [f"fit-poly term {terms[0]} is not the unit monomial {zd}/{bd}"]
    return []


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

_KERNEL_Z = np.exp(2j * np.pi * np.linspace(0, 1, 20_000)) * np.linspace(0.1, 2, 20_000)


def calibration_kernel() -> float:
    """Fixed work of the kinds deepnarrow does, interpreter-level complex
    arithmetic, small numpy calls and whole-array complex math; returns its
    wall time."""
    t0 = time.perf_counter()
    acc = 0j
    for i in range(4000):
        acc += abs(complex(i, 1.0)) ** 0.5
    for i in range(300):
        acc += np.asarray(_KERNEL_Z[i:i + 4]).sum()
    r = np.abs(_KERNEL_Z)
    acc += (0.5 * (r + _KERNEL_Z.real) * _KERNEL_Z / np.maximum(r, 1e-300)).sum()
    return time.perf_counter() - t0


def host_timed(fn, *args):
    """(result, wall seconds, seconds at the reference host speed): the wall
    time scaled by K_REF over the mean of the calibration kernel's time right
    before and right after the call."""
    k0 = calibration_kernel()
    t0 = time.perf_counter()
    out = fn(*args)
    dt = time.perf_counter() - t0
    k1 = calibration_kernel()
    return out, dt, dt * K_REF / ((k0 + k1) / 2)


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def import_package():
    """Import deepnarrow afresh (its modules are dropped from the cache
    first) and return it; this is the package part of set-up."""
    for name in [m for m in sys.modules if m == "deepnarrow" or m.startswith("deepnarrow.")]:
        del sys.modules[name]
    dn = importlib.import_module("deepnarrow")
    importlib.import_module("deepnarrow.cli")
    return dn


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.problems = []
        self.failed = 0
        self.attempted = 0
        self.compile_s = []          # [wall, reference-speed] seconds
        self.verdict_s = []
        self.sup_errors = []
        self.round_params = []
        self.program_s = 0.0         # reference-speed seconds inside deepnarrow

    def setup(self) -> None:
        self.setup_s = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            (dn, ops), *times = host_timed(
                lambda: (import_package(), WORKLOADS[self.workload](self.seed, 0)))
            self.setup_s.append(times)
        if not Path(dn.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"deepnarrow imported from {dn.__file__}, not {SRC}")
        self.dn = dn
        self.refs = target_refs({op.target for op in ops if op.kind == "compile"})

    def warm_up(self):
        """One small compile outside the measurement, so that lazy imports
        and first-call paths do not land in the first timed operation."""
        self._cli(["compile", "--target", "zzbar", "--activation", "re_square",
                   "--degree", "2", "--out", str(self.work / "warm"), "--no-timestamp"])

    def _cli(self, argv) -> tuple:
        """(exit status, (wall, reference-speed) seconds, captured stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status, *times = host_timed(self.dn.cli.main, argv)
        self.program_s += times[1]
        return status, times, buf.getvalue()

    def run_round(self, r: int):
        params = 0
        for k, op in enumerate(WORKLOADS[self.workload](self.seed, r)):
            self.attempted += 1
            self.tracer_op(f"r{r}.{k}:{op.label}")
            if op.kind == "classify":
                self._classify(op)
            elif op.kind == "compile":
                params += self._compile(op, np.random.default_rng([self.seed, r, k]))
            else:
                self._fit_poly(op)
        self.round_params.append(params)

    def tracer_op(self, op_id):
        pass

    def _fail(self, op: Op, why: str):
        self.failed += 1
        print(f"failed op={op.label}: {why}")

    def _classify(self, op: Op):
        out = self.work / "classify.json"
        if op.spec is None:
            status, dt, _ = self._cli(op.argv + ["--out", str(out), "--no-timestamp"])
            if status != 0:
                return self._fail(op, f"exit status {status}")
            verdict = json.loads(out.read_text())["verdict"]
        else:
            spec = op.spec(self.dn)
            try:
                verdict, *dt = host_timed(self.dn.wirtinger.classify_activation, spec)
            except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
                return self._fail(op, f"{type(exc).__name__}: {exc}")
            self.program_s += dt[1]
            verdict = verdict.verdict
        self.verdict_s.append(dt)
        accepted = ref.accepted_verdicts(op.closed)
        if verdict in accepted:
            return
        if op.label in KNOWN_FAULTS:
            return self._fail(op, f"verdict {verdict}, analytic {accepted}; known fault: "
                                  f"{KNOWN_FAULTS[op.label]}")
        self.problems.append(f"{op.label}: verdict {verdict}, analytic {accepted}")

    def _compile(self, op: Op, rng) -> int:
        stem = self.work / "compile"
        status, dt, stdout = self._cli(op.argv + ["--out", str(stem), "--no-timestamp"])
        if status != 0:
            self._fail(op, f"exit status {status}")
            return 0
        self.compile_s.append(dt)
        net_text = Path(f"{stem}.net.json").read_text()
        csv_text = Path(f"{stem}.sweep.csv").read_text()
        problems, own, params = check_compile(op, stdout, net_text, csv_text,
                                              self.refs[op.target], rng)
        self.problems += [f"{op.label}: {p}" for p in problems]
        self.sup_errors.append(own)
        print(f"digest op={op.label} {' '.join(op.argv[op.argv.index('--target'):])} "
              f"net_sha256={hashlib.sha256(net_text.encode()).hexdigest()} "
              f"csv_sha256={hashlib.sha256(csv_text.encode()).hexdigest()}")
        return params

    def _fit_poly(self, op: Op):
        stem = self.work / "fit"
        status, _, _ = self._cli(op.argv + ["--out", str(stem), "--no-timestamp"])
        if status != 0:
            return self._fail(op, f"exit status {status}")
        self.problems += [f"{op.label}: {p}" for p in
                          check_fit_poly(op, json.loads(Path(f"{stem}.poly.json").read_text()))]

    def end_to_end(self) -> dict:
        logs = [math.log(e) for e in self.sup_errors if 0 < e < math.inf]
        times = {"setup_s": self.setup_s, "compile_s": self.compile_s,
                 "verdict_s": self.verdict_s}
        print("wall-clock medians: " + " ".join(
            f"{k}={statistics.median(w for w, _ in v)!r}" for k, v in times.items()))
        return {
            **{k: (statistics.median(ref_s for _, ref_s in v), "s") for k, v in times.items()},
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "sup_error_gmean": (math.exp(statistics.fmean(logs)) if logs else math.inf, "1"),
            "net_params": (statistics.median_low(self.round_params), "count"),
        }


class TracedRunner(Runner):
    """Round 0 is traced with tracemalloc running inside sup_error, for
    ``verifier.peak_mb`` only, since tracemalloc slows every allocation.  Then
    untraced (odd) and traced (even) rounds alternate: the per-layer times come
    from the traced rounds, the overhead from comparing the time spent inside
    deepnarrow (at the reference host speed) in the two kinds."""

    MIN_ROUNDS = 3

    def __init__(self, *a):
        super().__init__(*a)
        self.tracer = tracing.Tracer()
        self.round_metrics = []
        self.round_names = []
        self.peak_mb = None
        self.program_s_per_round = {True: [], False: []}

    def tracer_op(self, op_id):
        self.tracer.op = op_id

    def run_round(self, r: int):
        traced = r % 2 == 0
        self.tracer.new_round()
        installed = tracing.install(self.tracer, self.dn, memory=r == 0) if traced else None
        self.program_s = 0.0
        try:
            super().run_round(r)
        finally:
            if installed is not None:
                installed.restore()
        if r == 0:
            self.peak_mb = tracing.layer_metrics(self.tracer)["verifier.peak_mb"]
        else:
            self.program_s_per_round[traced].append(self.program_s)
            if traced:
                self.round_metrics.append(tracing.layer_metrics(self.tracer))
                self.round_names.append(dict(self.tracer.names))

    def per_layer(self) -> dict:
        out = {name: statistics.median(m[name] for m in self.round_metrics)
               for name in self.round_metrics[0]}
        out["verifier.peak_mb"] = self.peak_mb
        traced, plain = (statistics.median(self.program_s_per_round[k]) for k in (True, False))
        out["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        return {k: (v, _unit(k)) for k, v in out.items()}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = (TracedRunner if traced else Runner)(workload, seed, work)
        runner.setup()
        runner.warm_up()
        t0 = time.perf_counter()
        r = 0
        min_rounds = TracedRunner.MIN_ROUNDS if traced else 1
        while True:
            runner.run_round(r)
            r += 1
            if time.perf_counter() - t0 >= seconds and r >= min_rounds:
                break
        if traced:
            metrics = runner.per_layer()
            path = OUT / f"trace-{workload}-seed{seed}.json"
            runner.tracer.dump(path, {"workload": workload, "seed": seed,
                                      "rounds": runner.round_metrics,
                                      "count_inclusive_self_s": runner.round_names,
                                      "program_s_per_round": {
                                          "traced": runner.program_s_per_round[True],
                                          "untraced": runner.program_s_per_round[False]}})
            print(f"trace written to {path.relative_to(ROOT)}")
        else:
            metrics = runner.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in runner.problems:
        print(f"incorrect: {p}")
    print(f"workload={workload} rounds={r} attempted={runner.attempted} failed={runner.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    return {"correct": not runner.problems, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "deepnarrow" / "__init__.py").is_file():
        print(f"error: no deepnarrow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"seed={args.seed} threads={','.join(f'{v}={os.environ[v]}' for v in THREAD_VARS)} "
          f"nproc={os.cpu_count()} numpy={np.__version__} "
          f"python={sys.version.split()[0]}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
