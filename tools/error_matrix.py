"""Regenerate ERROR_MATRIX.csv: the best compiled error of every universal
catalog activation under every strategy its plan accepts.

    python tools/error_matrix.py [--out PATH]

The rows cover every catalog name and its conj: form whose verdict is
universal, then conj:scale((0.5+0.5j)):cardioid, conj o (0.5+0.5j) cardioid:
like conj:cardioid it has a lone dbar and no lone d, so NonPoly_NMplus1 and
Poly_NMplus4 lower it against the conj sigma, but unlike every catalog form
it does not commute with conj.  They cover every lowering strategy that
plans for each activation, and the targets zzbar, re, abs and norm0 on the
unit box; norm0, (|z|, 0), has two outputs, and no flush writes its second
under a Poly strategy.  A NonPoly strategy fits 40
random features (ridge 1e-6) with seeds 1, 2 and 3; a Poly strategy fits
degree 2.  Both fit on the 9^2 grid, verify on the 18^2 lattice and sweep
the default h schedule, as ``deepnarrow compile`` does with those flags.

Each row gives the best row's depth, width, h, sup error and largest post
coefficient, and the lowering-only error at that h: the network against
its register program on the lattice, the program's neurons evaluated with
the plan's sigma.  Floats are written as reprs.  A compile that raises
leaves those columns empty and names the exception's type and the first
line of its message under ``failure``.  The file holds no timestamp.

The matrix is computed in a subprocess with one BLAS thread whatever the
caller's environment, so its bytes do not depend on the host's thread
count; a change that moves a network shows as a diff of this file.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TARGETS = ("zzbar", "re", "abs", "norm0")
FEATURES = 40
RIDGE = 1e-6
SEEDS = (1, 2, 3)
DEGREE = 2
GRID = 9

COLUMNS = ("activation", "strategy", "target", "fit", "depth", "width", "best_h",
           "sup_error", "lowering_error", "max_post_coeff", "failure")


def _cells():
    """(activation, strategy, target, fit label, compile) of every row, in
    catalog, strategy, target and seed order; compile() returns the
    CompileReport."""
    # imported here, in the subprocess, whose path holds src/: the calling
    # process need not have the package installed
    from deepnarrow import (CompactBox, ConstructionError, FitConfig, GridSpec, STRATEGIES,
                            StrategyMismatch, available_activations, classify_activation,
                            conjugate_activation, end_to_end_nonpoly, end_to_end_poly,
                            get_activation, scale_activation)
    from deepnarrow.lowering import plan_lowering
    from deepnarrow.verifier import named_target

    box = CompactBox.square(1, 1.0)
    specs = [get_activation(form) for base in available_activations()
             for form in (base, "conj:" + base)]
    specs.append(conjugate_activation(scale_activation(get_activation("cardioid"), 0.5 + 0.5j)))
    for spec in specs:
        if not classify_activation(spec).verdict.startswith("Universal"):
            continue
        for strategy in STRATEGIES:
            try:
                plan_lowering(spec, strategy)
            except (StrategyMismatch, ConstructionError):
                continue
            for target in TARGETS:
                f = named_target(target)
                if strategy.startswith("Poly"):
                    yield (spec, strategy, target, f"degree={DEGREE}",
                           partial(end_to_end_poly, f, spec, DEGREE, strategy, box,
                                   GridSpec(GRID)))
                    continue
                for seed in SEEDS:
                    cfg = FitConfig(num_features=FEATURES, ridge=RIDGE, box=box,
                                    grid=GridSpec(GRID), seed=seed)
                    yield (spec, strategy, target, f"seed={seed}",
                           partial(end_to_end_nonpoly, f, spec, cfg, strategy))


def _measure(spec, compile_report) -> list:
    """The measured columns of one row, or its failure."""
    from deepnarrow import eval_cvnn, eval_register, sup_error

    try:
        report = compile_report()
    except Exception as exc:     # a failing cell is a result of the matrix
        first = str(exc).splitlines()[0] if str(exc) else ""
        return [""] * 6 + [f"{type(exc).__name__}: {first}"]
    best, net, lattice = report.best_row(), report.best_net(), report.lattice
    lowering_error = sup_error(
        lambda zs: eval_register(report.program, zs, report.plan.sigma.fn),
        lambda zs: eval_cvnn(net, zs, spec.fn), lattice.box, lattice.grid)
    return [best.depth, best.width, repr(best.h), repr(best.sup_error),
            repr(lowering_error), repr(best.max_post_coeff), ""]


def matrix_csv() -> str:
    """The matrix as CSV text, computed in this process."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for spec, strategy, target, fit, compile_report in _cells():
        writer.writerow([spec.name, strategy, target, fit, *_measure(spec, compile_report)])
    return buf.getvalue()


def one_thread_stdout(child: str) -> str:
    """The standard output of the Python code ``child``, run in a subprocess
    with one BLAS thread whose path holds src/ and tools/."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tools"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", child], env=env, check=True,
                          capture_output=True, text=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "ERROR_MATRIX.csv"))
    args = parser.parse_args(argv)
    text = one_thread_stdout(
        "import sys, error_matrix; sys.stdout.write(error_matrix.matrix_csv())")
    Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
