"""The benchmark's traced run (``perfbench/run.py --trace 1``) replaces
deepnarrow's public functions by name with the shims of perfbench/tracing.py
and reads the per-h rows back from the recorded spans.  A rename or a call
path that bypasses those names would silently empty its per-layer figures;
this keeps the shims working against the package."""

import importlib.util
from pathlib import Path

import numpy as np

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
    assert metrics["blocks.builds"] > 0


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


def test_traced_deep_compile_records_the_fit_and_the_written_bytes(tmp_path):
    """The in-place fit and the chunked network writer keep the names the
    tracer wraps: a compile whose network is longer than one JSON chunk
    records fit time, and as many network bytes as its .net.json holds.
    The fit reads its error from its design, so every eval_cvnn call the
    tracer counts in core.point_layers is the sweep's."""
    from deepnarrow.core import JSON_CHUNK

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, deepnarrow)
    try:
        assert cli.main(["compile", "--target", "zzbar", "--activation", "cardioid",
                         "--features", str(2 * JSON_CHUNK), "--no-timestamp",
                         "--out", str(tmp_path / "run")]) == 0
        metrics = tracing.layer_metrics(tracer)
        spans = list(tracer.spans)
    finally:
        installed.restore()
    text = (tmp_path / "run.net.json").read_text()
    assert len(text) > 0 and metrics["core.net_json_bytes"] == len(text)
    assert metrics["fitting.fit_s"] > 0
    fit = [s for s in spans if s[1] == "fitting.fit_shallow"]
    assert len(fit) == 1
    assert not [s for s in spans if s[1] == "core.eval_cvnn" and fit[0][2] <= s[2] <= fit[0][3]]


def test_traced_shallow_compile_reports_rows_and_register_work(tmp_path):
    """A nonpoly compile keeps the names the tracer wraps on the shallow
    path: one per-h row per schedule value and the program's layers counted
    from ``program.layers``.  The compile writes no program error, so it
    does not evaluate the program."""
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
    assert tracer.name_count("register.eval_register") == 0
    assert metrics["register.program_layers"] == 40


def test_traced_lower_times_the_register_reference(tmp_path):
    """``lower`` measures each network against ``eval_register``, so the
    tracer's register evaluation shim still sees a 40-layer program run."""
    from conftest import random_shallow
    from deepnarrow.activations import get_activation
    from deepnarrow.register import program_to_json, shallow_to_register

    program = shallow_to_register(random_shallow(
        np.random.default_rng(0), 1, 1, 40, get_activation("cardioid").activation_id))
    assert len(program.layers) == 40
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(program_to_json(program))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, deepnarrow)
    try:
        assert cli.main(["lower", "--program", str(prog_path), "--activation", "cardioid",
                         "--strategy", "NonPoly_NMplus1", "--no-timestamp",
                         "--out", str(tmp_path / "low")]) == 0
        metrics = tracing.layer_metrics(tracer)
    finally:
        installed.restore()
    assert tracer.name_count("register.eval_register") > 0
    assert metrics["register.eval_s"] > 0


def test_traced_classify_counts_taylor_probes(tmp_path):
    """One cardioid classification, counted by the names the tracer wraps:
    a first probe per scanned grid point (every one but the excluded origin
    is a point of the atlas), one batched Taylor probe, and two second
    probes (the R-affine check stops at the first point; the witness), each
    one activation call, as is the Taylor batch.  A call path that bypasses
    a traced name changes these counts."""
    from deepnarrow.activations import get_activation

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, deepnarrow)
    try:
        assert cli.main(["classify", "--activation", "cardioid", "--no-timestamp",
                         "--out", str(tmp_path / "c.json")]) == 0
        metrics = tracing.layer_metrics(tracer)
    finally:
        installed.restore()
    atlas = wirtinger.probe_atlas(get_activation("cardioid"), wirtinger.ToleranceProfile())
    assert len(atlas) == wirtinger.ToleranceProfile().probe_grid.points_per_axis ** 2 - 1
    assert metrics["wirtinger.first_probes"] == len(atlas)
    assert metrics["wirtinger.taylor_probes"] == 1
    assert metrics["wirtinger.second_probes"] == 2
    assert tracer.name_count("wirtinger.wirt_second") == 2
    assert tracer.group_count("activations.eval") == 3
    assert metrics["wirtinger.probe_s"] > 0
    assert metrics["wirtinger.classify_s"] > 0
