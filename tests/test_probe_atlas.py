"""The probe atlas: one scan per (activation, profile), every point choice a
query on it.

GOLDEN pins the verdict and witness, the active and nonzero-second points,
and per strategy the lowering plan (sigma, conj-realizer point, identity
point, pair route, square point, mul kind) or the exception planning
raises.  The table was recorded from the per-use grid scans that the atlas
replaced, so it also shows that the atlas keeps their choices.  The plans
of nowhere_diff were recorded again when a derivative came to count as
nonzero only above three times its error estimate: its estimates are the
only nonzero ones in the catalog.
"""

from collections import Counter

import numpy as np
import pytest

from deepnarrow import cli, lowering, wirtinger
from deepnarrow.activations import (available_activations, conjugate_activation,
                                    custom_activation, get_activation, scale_activation)
from deepnarrow.core import CompactBox
from deepnarrow.errors import ConstructionError, ProbeFailed, StrategyMismatch
from deepnarrow.lowering import STRATEGIES, plan_lowering
from deepnarrow.wirtinger import (TAYLOR_RADII, ToleranceProfile, classify_activation,
                                  find_active_point, find_nonzero_second_point, probe_atlas)

PROF = ToleranceProfile()

# label: (verdict, witness, active point, nonzero-second point, plans); a
# plan is (sigma, realizer, id, pair route, square, mul kind)
GOLDEN = {
    'abs_square': (
        'UniversalPoly_2N2Mplus5', (-2-2j), (-2-2j), ((-2-2j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('abs_square', None, None, ((-1-1j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('abs_square', None, None, ((-2-2j),), 0j, 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('abs_square', None, None, ((-2-2j),), 0j, 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'antiholo_exp': (
        'NonUniversalAntiholomorphic', None, (2-2j), ((2-2j), 'dbar2'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_Conj_NMplus1':
                ('conj:antiholo_exp', (1.5-2j), (1.5-2j), None, None, None),
            'NonPoly_2N2Mplus1': StrategyMismatch,
            'Poly_Wide_2N2Mplus12': ConstructionError,
            'Poly_Narrow_2N2Mplus5': ConstructionError,
            'Poly_NMplus4': ConstructionError,
        }),
    'cardioid': (
        'UniversalNonPoly_NMplus1', (0.5+0j), (0.5+0j), (-0.5j, 'ddbar'),
        {
            'NonPoly_NMplus1':
                ('cardioid', None, (0.5+0j), None, None, None),
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('cardioid', None, None, ((-0.5-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('cardioid', None, None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('cardioid', None, None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_NMplus4':
                ('cardioid', None, (0.5+0j), (-2j,), (-0.5-0.5j), 'mul2'),
        }),
    'exp': (
        'NonUniversalHolomorphic', None, (2-2j), ((2-2j), 'd2'),
        {
            'NonPoly_NMplus1':
                ('exp', None, (1.5-2j), None, None, None),
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1': StrategyMismatch,
            'Poly_Wide_2N2Mplus12': ConstructionError,
            'Poly_Narrow_2N2Mplus5': ConstructionError,
            'Poly_NMplus4': ConstructionError,
        }),
    'exp_re': (
        'UniversalNonPoly_2N2Mplus1', (2-2j), (2-2j), ((2-2j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('exp_re', None, None, ((1.5-2j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('exp_re', None, None, ((2-2j),), (1.5-2j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('exp_re', None, None, ((2-2j),), (1.5-2j), 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'modrelu': (
        'UniversalNonPoly_2N2Mplus1', (-1-0.5j), (-2-2j), ((-1-0.5j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('modrelu', None, None, ((-1-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('modrelu', None, None, ((-1-0.5j),), (-1-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('modrelu', None, None, ((-1-0.5j),), (-1-0.5j), 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'nowhere_diff': (
        'Inconclusive', None, None, ((-2+0j), 'ddbar'),
        {
            'NonPoly_NMplus1':
                ('nowhere_diff', None, (-1.5+0.5j), None, None, None),
            'NonPoly_Conj_NMplus1':
                ('conj:nowhere_diff', (-1.5-0.5j), (-1.5-0.5j), None, None, None),
            'NonPoly_2N2Mplus1':
                ('nowhere_diff', None, None, ((-1.5+2j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('nowhere_diff', None, None, ((-2-0.5j),), (-1-1j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('nowhere_diff', None, None, ((-2-0.5j),), (-1-1j), 'mul2'),
            'Poly_NMplus4':
                ('nowhere_diff', None, (-1.5+0.5j), ((-2-0.5j),), (-1-1j), 'mul2'),
        }),
    'r_affine': (
        'NonUniversalHolomorphic', None, (-2-2j), None,
        {
            'NonPoly_NMplus1':
                ('r_affine', None, 0j, None, None, None),
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1': StrategyMismatch,
            'Poly_Wide_2N2Mplus12': StrategyMismatch,
            'Poly_Narrow_2N2Mplus5': StrategyMismatch,
            'Poly_NMplus4': StrategyMismatch,
        }),
    're_square': (
        'UniversalPoly_2N2Mplus5', (-2-2j), (-2-2j), ((-2-2j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('re_square', None, None, ((-1-2j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('re_square', None, None, ((-2-2j),), -2j, 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('re_square', None, None, ((-2-2j),), -2j, 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'tanh_re': (
        'UniversalNonPoly_2N2Mplus1', -2j, -2j, ((-0.5-2j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('tanh_re', None, None, (-2j,), None, None),
            'Poly_Wide_2N2Mplus12':
                ('tanh_re', None, None, (-2j,), (-1-2j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('tanh_re', None, None, (-2j,), (-1-2j), 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'z_plus_zbar_sq': (
        'UniversalPoly_NMplus4', 0j, (-2-2j), ((-2-2j), 'dbar2'),
        {
            'NonPoly_NMplus1':
                ('z_plus_zbar_sq', None, 0j, None, None, None),
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('z_plus_zbar_sq', None, None, ((-1+0j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('z_plus_zbar_sq', None, None, ((-2-2j),), 0j, 'mul3'),
            'Poly_Narrow_2N2Mplus5':
                ('z_plus_zbar_sq', None, None, ((-2-2j),), 0j, 'mul3'),
            'Poly_NMplus4':
                ('z_plus_zbar_sq', None, 0j, ((-2-2j),), 0j, 'mul3'),
        }),
    'conj:cardioid': (
        'UniversalNonPoly_NMplus1', (0.5+0j), (0.5+0j), (-0.5j, 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_Conj_NMplus1':
                ('conj:conj:cardioid', (0.5+0j), (0.5+0j), None, None, None),
            'NonPoly_2N2Mplus1':
                ('conj:cardioid', None, None, ((-0.5-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('conj:cardioid', None, None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('conj:cardioid', None, None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_NMplus4':
                ('conj:conj:cardioid', (0.5+0j), (0.5+0j), (-2j,), (-0.5-0.5j), 'mul2'),
        }),
    'modrelu b=-0.5': (
        'UniversalNonPoly_2N2Mplus1', (-0.5-0.5j), (-2-2j), ((-0.5-0.5j), 'ddbar'),
        {
            'NonPoly_NMplus1': StrategyMismatch,
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('modrelu', None, None, ((-0.5-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('modrelu', None, None, ((-0.5-0.5j),), (-0.5-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('modrelu', None, None, ((-0.5-0.5j),), (-0.5-0.5j), 'mul2'),
            'Poly_NMplus4': StrategyMismatch,
        }),
    'scale(0.5+0.5j):cardioid': (
        'UniversalNonPoly_NMplus1', (0.5+0j), (0.5+0j), (-0.5j, 'ddbar'),
        {
            'NonPoly_NMplus1':
                ('scale((0.5+0.5j)):cardioid', None, (0.5+0j), None, None, None),
            'NonPoly_Conj_NMplus1': StrategyMismatch,
            'NonPoly_2N2Mplus1':
                ('scale((0.5+0.5j)):cardioid', None, None, ((-0.5-0.5j),), None, None),
            'Poly_Wide_2N2Mplus12':
                ('scale((0.5+0.5j)):cardioid', None, None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_Narrow_2N2Mplus5':
                ('scale((0.5+0.5j)):cardioid', None, None, (-2j,), (-0.5-0.5j), 'mul2'),
            'Poly_NMplus4':
                ('scale((0.5+0.5j)):cardioid', None, (0.5+0j), (-2j,), (-0.5-0.5j), 'mul2'),
        }),
}


def _spec(label):
    if label == "modrelu b=-0.5":
        return get_activation("modrelu", {"b": -0.5})
    if label == "scale(0.5+0.5j):cardioid":
        return scale_activation(get_activation("cardioid"), 0.5 + 0.5j)
    return get_activation(label)


def test_golden_covers_the_catalog():
    assert set(available_activations()) <= set(GOLDEN)


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_golden_verdicts_and_plans(label):
    verdict, witness, active, second, plans = GOLDEN[label]
    spec = _spec(label)
    cls = classify_activation(spec, 1, 1, PROF)
    assert (cls.verdict, cls.witness_point) == (verdict, witness)
    assert find_active_point(spec, PROF) == active
    assert find_nonzero_second_point(spec, PROF) == second
    for strategy in STRATEGIES:
        want = plans[strategy]
        if isinstance(want, type):
            with pytest.raises(want):
                plan_lowering(spec, strategy, PROF)
            continue
        plan = plan_lowering(spec, strategy, PROF)
        assert (plan.sigma.name, plan.realizer_point, plan.id_point, plan.pair_route,
                plan.square_point, plan.mul_kind) == want, strategy


def _columns(atlas):
    """Every column of the atlas, forced, as magnitudes."""
    rows = []
    for i in range(len(atlas)):
        z0, d, dbar, est = atlas.first(i)
        try:
            second = tuple(abs(v) for v in atlas.second(i))
        except ProbeFailed:
            second = None
        rows.append((z0, abs(d), abs(dbar), est, abs(atlas.value(i)), second,
                     atlas.taylor_passed(i)))
    return rows


@pytest.mark.parametrize("name", available_activations())
def test_conjugated_view_equals_a_rescan(name):
    spec = get_activation(name)
    view = probe_atlas(spec, PROF).conjugated()
    rescan = probe_atlas(conjugate_activation(spec), PROF)
    assert len(view) == len(rescan) > 0
    assert _columns(view) == _columns(rescan)
    assert view.pattern_points() == rescan.pattern_points()
    assert view.square_point() == rescan.square_point()
    assert view.pair_route() == rescan.pair_route()


@pytest.mark.parametrize("spec", [get_activation(name) for name in available_activations()]
                         + [get_activation("modrelu", {"b": -5}),
                            custom_activation("z_abs_z", lambda z: z * np.abs(z))],
                         ids=lambda s: s.name)
def test_atlas_patterns_are_the_profile_rule_row_by_row(spec):
    """The patterns an atlas computes over its columns in one pass are those
    ``ToleranceProfile.pattern`` gives each row, on the atlas and on its
    conjugated view."""
    atlas = probe_atlas(spec, PROF)
    for view in (atlas, atlas.conjugated()):
        rows = [view.first(i) for i in range(len(view))]
        assert [view.pattern(i) for i in range(len(view))] == [
            view.prof.pattern(d, dbar, est) for _, d, dbar, est in rows]


def test_a_derivative_below_its_error_is_zero():
    """z|z| has d = 3|z|/2 and dbar = z^2/(2|z|), both zero at 0 alone.  The
    numeric d at 0 (3.3e-6) is above zero_tol but not above three times its
    error estimate (1.7e-6), so 0 is no lone-d witness: z|z| is universal
    with both derivatives nonzero, and no NMplus1 plan exists for it."""
    spec = custom_activation("z_abs_z", lambda z: z * np.abs(z))
    atlas = probe_atlas(spec, PROF)
    origin = [atlas.first(i)[0] for i in range(len(atlas))].index(0j)
    _, d, dbar, est = atlas.first(origin)
    assert PROF.zero_tol < abs(d) <= 3 * est and abs(dbar) <= PROF.zero_tol
    assert atlas.pattern(origin) is None
    assert {atlas.pattern(i) for i in range(len(atlas)) if i != origin} == {"both"}
    cls = classify_activation(spec, 1, 1, PROF)
    assert cls.verdict == "UniversalNonPoly_2N2Mplus1" and cls.witness_point != 0
    with pytest.raises(StrategyMismatch):
        plan_lowering(spec, "NonPoly_NMplus1", PROF)


def test_probe_box_grows_before_a_negative_verdict():
    """modrelu b=-5 vanishes on |z| <= 5, which holds the default box
    [-2, 2]^2.  The box doubles until it holds a witness: [-4, 4]^2 has
    corners at |z| = 5.66.  The classifier and the lowering read that box."""
    spec = get_activation("modrelu", {"b": -5})
    atlas = probe_atlas(spec, PROF)
    assert atlas.prof.probe_box == CompactBox.square(1, 4.0)
    cls = classify_activation(spec, 1, 1, PROF)
    assert cls.verdict in ("UniversalNonPoly_2N2Mplus1", "Inconclusive")
    if cls.witness_point is not None:
        assert abs(cls.witness_point) > 5
        assert plan_lowering(spec, "NonPoly_2N2Mplus1", PROF).pair_route == (cls.witness_point,)


def test_probe_box_without_witness_is_inconclusive():
    """modrelu b=-100 vanishes on the largest box scanned, [-32, 32]^2 (the
    default doubled PROBE_BOX_GROWTHS times): no verdict against
    universality, and the reason names that box."""
    spec = get_activation("modrelu", {"b": -100})
    cls = classify_activation(spec, 1, 1, PROF)
    assert cls.verdict == "Inconclusive" and cls.witness_point is None
    half = 2 * 2 ** wirtinger.PROBE_BOX_GROWTHS
    assert f"[-{half}, {half}] + i[-{half}, {half}]" in cls.evidence


def test_atlas_is_memoised_by_value():
    spec = get_activation("cardioid")
    assert probe_atlas(spec, PROF) is probe_atlas(spec, ToleranceProfile())
    assert probe_atlas(spec, PROF) is not probe_atlas(get_activation("cardioid"), PROF)


@pytest.mark.parametrize("argv, dead_point", [
    # the dead zone |z| < 1 of modrelu: zero derivative, no remainder probe
    (["--activation", "modrelu", "--features", "20"], 0j),
    # cardioid vanishes on the negative real axis; the lowering plans on the
    # conjugated view
    (["--activation", "conj:cardioid", "--features", "20"], -1 + 0j),
    # d = dbar = RE z vanishes on the imaginary axis
    (["--activation", "re_square", "--degree", "2"], 0.5j),
])
def test_one_scan_per_compile(monkeypatch, tmp_path, argv, dead_point):
    """At a grid point with zero derivative only the scan probes, so the
    number of first-derivative probes there counts the atlases built."""
    calls = Counter()
    first_derivs = wirtinger.first_derivs

    def counting(spec, z0, prof=PROF):
        calls[complex(z0)] += 1
        return first_derivs(spec, z0, prof)

    monkeypatch.setattr(wirtinger, "first_derivs", counting)
    argv = ["compile", "--target", "zzbar", *argv, "--no-timestamp",
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert calls[dead_point] == 1
    assert cli.main(argv) == 0
    assert calls[dead_point] == 2


def test_classification_probes_second_order_lazily(monkeypatch):
    calls = []
    second_derivs = wirtinger.second_derivs

    def counting(spec, z0, prof=PROF):
        calls.append(z0)
        return second_derivs(spec, z0, prof)

    monkeypatch.setattr(wirtinger, "second_derivs", counting)
    cls = classify_activation(get_activation("cardioid"), 1, 1, PROF)
    assert cls.verdict == "UniversalNonPoly_NMplus1"
    # the R-affine heuristic stops at the first point, plus the witness
    assert len(calls) <= 2


def _holed(bad):
    """z + |z|^2 / 4 (d = 1 + conj(z)/4, dbar = z/4, nonzero on the whole
    grid away from 0) with a NaN at the single point ``bad``."""
    return custom_activation("holed", lambda z: np.where(
        z == bad, np.nan, z + 0.25 * z * np.conj(z)))


def _grid_index(atlas, z0):
    return [atlas.first(i)[0] for i in range(len(atlas))].index(z0)


def test_taylor_failure_raises_only_where_queried(monkeypatch):
    """One circle of the grid point 0.5 holds a NaN.  The first Taylor query
    probes every candidate in one call; the failure is kept and raised only
    when 0.5 itself is queried, so active_point, which never reaches 0.5,
    gives the point it gives without the NaN, and the classifier, which
    queries every candidate, raises."""
    calls = []
    probe = wirtinger.taylor_remainder_probe

    def counting(*args, **kwargs):
        calls.append(np.size(args[1]))
        return probe(*args, **kwargs)

    monkeypatch.setattr(wirtinger, "taylor_remainder_probe", counting)
    bad_circle = 0.5 + TAYLOR_RADII[-1] * np.exp(0j)
    clean = probe_atlas(_holed(np.inf), PROF)
    atlas = probe_atlas(_holed(bad_circle), PROF)
    bad = _grid_index(atlas, 0.5 + 0j)
    assert atlas.active_point() == clean.active_point() != 0.5
    assert calls == [len(clean), len(atlas)]
    for i in range(len(atlas)):
        if i != bad:
            assert atlas.taylor_passed(i) == clean.taylor_passed(i)
    for _ in range(2):
        with pytest.raises(ProbeFailed, match="activation evaluation failed near"):
            atlas.taylor_passed(bad)
    with pytest.raises(ProbeFailed):
        atlas.conjugated().taylor_passed(bad)
    assert len(calls) == 2
    with pytest.raises(ProbeFailed):
        classify_activation(_holed(bad_circle), 1, 1, PROF)


def test_taylor_failure_at_the_winning_point_raises():
    """When the failing point would beat the best point so far,
    active_point queries it and raises, as a per-point probe did."""
    winner = find_active_point(_holed(np.inf), PROF)
    with pytest.raises(ProbeFailed):
        find_active_point(_holed(winner + TAYLOR_RADII[0]), PROF)


@pytest.mark.parametrize("argv", [
    ["--activation", "cardioid", "--features", "20"],
    ["--activation", "conj:cardioid", "--features", "20"],
    ["--activation", "re_square", "--degree", "2"],
    ["--activation", "cardioid", "--degree", "2", "--strategy", "Poly_NMplus4"],
    ["--activation", "abs_square", "--degree", "2", "--strategy", "Poly_Wide_2N2Mplus12"],
])
def test_one_plan_per_compile(monkeypatch, tmp_path, argv):
    """plan_lowering is memoised by value: a compile plans once, not once
    for the pipeline and once more at each h.  Each plan opens the atlas
    once, so lowering's atlas lookups count the plans."""
    plans = []
    atlas = lowering.probe_atlas

    def counting(spec, prof=PROF):
        plans.append(spec.name)
        return atlas(spec, prof)

    monkeypatch.setattr(lowering, "probe_atlas", counting)
    argv = ["compile", "--target", "zzbar", *argv, "--no-timestamp",
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert len(plans) == 1
    assert cli.main(argv) == 0
    assert len(plans) == 2
