"""The benchmark's traced run (``perfbench/run.py --trace 1``) replaces
deepnarrow's public functions by name with the shims of perfbench/tracing.py
and reads the per-h rows back from the recorded spans.  A rename or a call
path that bypasses those names would silently empty its per-layer figures;
this keeps the shims working against the package."""

import importlib.util
from pathlib import Path

import deepnarrow
from deepnarrow import cli, lowering, verifier, wirtinger

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_compile_reports_one_row_per_h(tmp_path):
    tracing = _load_tracing()
    originals = (verifier.lower, verifier.sup_error, wirtinger.first_derivs)
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, deepnarrow)
    try:
        assert cli.main(["compile", "--target", "zzbar", "--activation", "re_square",
                         "--degree", "2", "--no-timestamp",
                         "--out", str(tmp_path / "run")]) == 0
        rows = tracer.per_h_rows()
        metrics = tracing.layer_metrics(tracer)
    finally:
        installed.restore()
    assert (verifier.lower, verifier.sup_error, wirtinger.first_derivs) == originals
    assert lowering.lower is verifier.lower
    assert [r["h"] for r in rows] == list(verifier.DEFAULT_SWEEP_SCHEDULE)
    assert all(r["lower_s"] > 0 and r["sup_s"] > 0 for r in rows)
    assert metrics["lowering.lower_s"] > 0
    assert metrics["wirtinger.first_probes"] > 0


def test_traced_deep_compile_counts_only_validated_maps(tmp_path):
    """The tracer counts ComplexAffineMap constructions by wrapping
    __post_init__: one NonPoly_NMplus1 compile builds a validated map for
    each network map at each of the six h and for little else, and both
    lowering phases record time."""
    from deepnarrow.core import cvnn_from_json, depth_of

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, deepnarrow)
    try:
        assert cli.main(["compile", "--target", "zzbar", "--activation", "cardioid",
                         "--strategy", "NonPoly_NMplus1", "--features", "40",
                         "--no-timestamp", "--out", str(tmp_path / "run")]) == 0
        metrics = tracing.layer_metrics(tracer)
    finally:
        installed.restore()
    depth = depth_of(cvnn_from_json((tmp_path / "run.net.json").read_text()))
    assert depth == 41
    assert metrics["lowering.pieces_s"] > 0
    assert metrics["lowering.assemble_s"] > 0
    assert 0 < metrics["core.affine_maps_built"] <= 6 * (depth + 8)


def test_traced_shallow_compile_reports_rows_and_register_work(tmp_path):
    """A nonpoly compile keeps the names the tracer wraps on the shallow
    path: one per-h row per schedule value, the program's layers counted
    from ``program.layers`` and its evaluation timed."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, deepnarrow)
    try:
        assert cli.main(["compile", "--target", "zzbar", "--activation", "cardioid",
                         "--strategy", "NonPoly_NMplus1", "--features", "40",
                         "--no-timestamp", "--out", str(tmp_path / "run")]) == 0
        rows = tracer.per_h_rows()
        metrics = tracing.layer_metrics(tracer)
    finally:
        installed.restore()
    assert [r["h"] for r in rows] == list(verifier.DEFAULT_SWEEP_SCHEDULE)
    assert all(r["lower_s"] > 0 and r["sup_s"] > 0 for r in rows)
    assert metrics["register.eval_s"] > 0
    assert metrics["register.program_layers"] == 40


def test_traced_classify_counts_taylor_probes(tmp_path):
    """The batched Taylor probe keeps the name the tracer counts and times."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, deepnarrow)
    try:
        assert cli.main(["classify", "--activation", "cardioid", "--no-timestamp",
                         "--out", str(tmp_path / "c.json")]) == 0
        metrics = tracing.layer_metrics(tracer)
    finally:
        installed.restore()
    assert metrics["wirtinger.taylor_probes"] >= 1
    assert metrics["wirtinger.probe_s"] > 0
    assert metrics["wirtinger.classify_s"] > 0
