"""Regenerate ERROR_MATRIX.csv: the best compiled error of every universal
catalog activation under every strategy its plan accepts.

    python tools/error_matrix.py [--out PATH]
    python tools/error_matrix.py --diff OLD.csv NEW.csv

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
After those rows come the n = 2 rows: the target z1zbar2, z_1 conj(z_2),
on the unit box in C^2, under every Poly strategy that plans, fitted at
degree 2 on the 9^4 grid and verified on the 18^4 lattice.  A NonPoly
sweep at n = 2 stays out: its 41-deep networks on 18^4 points cost about
half a second per seed.

Each row gives the best row's depth, width, h, sup error and largest post
coefficient, and the lowering-only error at that h: the network against
its register program on the lattice, the program's neurons evaluated with
the plan's sigma.  Floats are written as reprs.  A compile that raises
leaves those columns empty and names the exception's type and the first
line of its message under ``failure``.  The file holds no timestamp.

The matrix is computed in a subprocess with one BLAS thread whatever the
caller's environment, so its bytes do not depend on the host's thread
count; a change that moves a network shows as a diff of this file.

``--diff`` regenerates nothing.  It compares two matrix files and prints a
markdown table with one line per row that differs: its depth, sup error
and best h, old -> new.  Then it prints how many rows changed, how many
got better, worse and worse by more than 1 %, and the depth changes per
strategy.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
from collections import Counter, defaultdict
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TARGETS = ("zzbar", "re", "abs", "norm0")
N2_TARGET = "z1zbar2"
FEATURES = 40
RIDGE = 1e-6
SEEDS = (1, 2, 3)
DEGREE = 2
GRID = 9

COLUMNS = ("activation", "strategy", "target", "fit", "depth", "width", "best_h",
           "sup_error", "lowering_error", "max_post_coeff", "failure")


def _planned():
    """(spec, strategy) of every universal activation form and every
    strategy that plans for it, in catalog and strategy order."""
    # imported here, in the subprocess, whose path holds src/: the calling
    # process need not have the package installed
    from deepnarrow import (STRATEGIES, ConstructionError, StrategyMismatch,
                            available_activations, classify_activation, conjugate_activation,
                            get_activation, scale_activation)
    from deepnarrow.lowering import plan_lowering

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
            yield spec, strategy


def _cells():
    """(activation, strategy, target, fit label, compile) of every row: the
    n = 1 rows in catalog, strategy, target and seed order, then the n = 2
    rows in catalog and strategy order; compile() returns the
    CompileReport."""
    from deepnarrow import (CompactBox, FitConfig, GridSpec, end_to_end_nonpoly,
                            end_to_end_poly)
    from deepnarrow.verifier import named_target

    planned = list(_planned())
    box = CompactBox.square(1, 1.0)
    for spec, strategy in planned:
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
    box = CompactBox.square(2, 1.0)
    for spec, strategy in planned:
        if strategy.startswith("Poly"):
            yield (spec, strategy, N2_TARGET, f"degree={DEGREE}",
                   partial(end_to_end_poly, named_target(N2_TARGET), spec, DEGREE, strategy,
                           box, GridSpec(GRID)))


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


#: the columns that name a row of the matrix
KEY = COLUMNS[:4]


def _rows(text: str) -> dict:
    return {tuple(row[k] for k in KEY): row for row in csv.DictReader(io.StringIO(text))}


def _error(row):
    """A row's sup error, or None where its compile failed or it is absent."""
    return float(row["sup_error"]) if row and row["sup_error"] else None


def _shown(old: str, new: str, floats: bool = False) -> str:
    """"old → new", or the value alone where both sides agree; with
    ``floats``, two values written with the fewest significant digits (3 at
    least) that tell them apart."""
    if floats and old != new and "" not in (old, new):
        a, b = float(old), float(new)
        k = next((k for k in range(3, 18) if f"{a:.{k}g}" != f"{b:.{k}g}"), 17)
        old, new = f"{a:#.{k}g}", f"{b:#.{k}g}"
    old, new = old or "failed", new or "failed"
    return old if old == new else f"{old} → {new}"


def diff_markdown(old_text: str, new_text: str) -> str:
    """The rows of two matrix texts that differ, as a markdown table, then
    the counts; a row missing on one side reads "absent" there."""
    before, after = _rows(old_text), _rows(new_text)
    keys = list(before) + [key for key in after if key not in before]
    absent = dict.fromkeys(COLUMNS, "absent")
    lines = ["| activation | strategy | target | fit | depth | sup error | best h |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    counts = Counter()
    depths = defaultdict(Counter)
    for key in keys:
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        counts["changed"] += 1
        a, b = (old or absent), (new or absent)
        lines.append("| " + " | ".join([*key, _shown(a["depth"], b["depth"]),
                                        _shown(a["sup_error"], b["sup_error"], bool(old and new)),
                                        _shown(a["best_h"], b["best_h"])]) + " |")
        err_a, err_b = _error(old), _error(new)
        if err_a is not None and err_b is not None:
            counts["better"] += err_b < err_a
            counts["worse"] += err_b > err_a
            counts["worse by more than 1 %"] += err_b > 1.01 * err_a
        if old and new and old["depth"] and new["depth"]:
            depths[key[1]][int(new["depth"]) - int(old["depth"])] += 1
    lines.append("")
    lines.append(f"{counts['changed']} of {len(keys)} rows changed: {counts['better']} better, "
                 f"{counts['worse']} worse, {counts['worse by more than 1 %']} worse by more "
                 "than 1 %")
    for strategy, deltas in depths.items():
        shown = ", ".join(f"{delta:+d} × {count}" for delta, count in sorted(deltas.items()))
        lines.append(f"depth change under {strategy}: {shown}")
    return "\n".join(lines) + "\n"


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
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="print the rows that differ between two matrix files")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (Path(path).read_text() for path in args.diff)
        sys.stdout.write(diff_markdown(old, new))
        return 0
    text = one_thread_stdout(
        "import sys, error_matrix; sys.stdout.write(error_matrix.matrix_csv())")
    Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
