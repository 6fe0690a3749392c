"""One shared spec per catalog activation and parameter values.

``get_activation`` returns the same spec object for the same name and
parameter values while it is among the MEMO_SIZE most recently used, so the
probe atlases and lowering plans kept on it serve every such call in one
process, and go with it when it is evicted.  Reusing them must not change
any output: a warm run writes the bytes a cold one writes.
"""

import dataclasses
import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from deepnarrow import activations, cli, lowering, wirtinger
from deepnarrow.activations import (MEMO_SIZE, available_activations, conjugate_activation,
                                    custom_activation, get_activation, scale_activation)
from deepnarrow.errors import InvalidActivationParams, UnknownActivation
from deepnarrow.lowering import plan_lowering
from deepnarrow.wirtinger import ToleranceProfile, probe_atlas

PROF = ToleranceProfile()


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends each call's spec name
    to the list returned."""
    calls, fn = [], getattr(module, name)

    def counting(spec, *args):
        calls.append(spec.name)
        return fn(spec, *args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _outputs(argv, out):
    """The bytes of every file a run of argv writes under out, by suffix."""
    assert cli.main([*argv, "--no-timestamp", "--out", str(out)]) == 0
    return {p.name[len(out.name):]: p.read_bytes() for p in sorted(out.parent.iterdir())}


@pytest.mark.parametrize("argv", [
    ["classify", "--activation", "cardioid"],
    ["compile", "--target", "zzbar", "--activation", "conj:cardioid", "--features", "20"],
    ["compile", "--target", "zzbar", "--activation", "re_square", "--degree", "2"],
], ids=["classify", "compile-nonpoly", "compile-poly"])
def test_warm_run_writes_the_bytes_of_a_cold_run(monkeypatch, tmp_path, capsys, argv):
    """The first run scans and plans, the second reuses both and writes the
    same documents, networks and sweep CSVs."""
    scans = _counted(monkeypatch, wirtinger, "_scan")
    plans = _counted(monkeypatch, lowering, "_plan")
    (tmp_path / "cold").mkdir()
    (tmp_path / "warm").mkdir()
    cold = _outputs(argv, tmp_path / "cold" / "run")
    cold_stdout = capsys.readouterr().out
    cold_scans, cold_plans = list(scans), list(plans)
    assert cold_scans
    warm = _outputs(argv, tmp_path / "warm" / "run")
    assert scans == cold_scans and plans == cold_plans
    assert cold and warm == cold
    assert capsys.readouterr().out == cold_stdout


def test_equal_arguments_share_one_spec():
    assert get_activation("cardioid") is get_activation("cardioid")
    assert get_activation("conj:cardioid") is get_activation("conj:cardioid")
    assert get_activation("conj:cardioid") is not get_activation("cardioid")
    # parameters are compared as built: -1 and -1.0 both build b = -1.0
    assert get_activation("modrelu", {"b": -1}) is get_activation("modrelu", {"b": -1.0})
    assert get_activation("modrelu", {"b": -1}) is not get_activation("modrelu", {"b": -2})


def test_other_constructors_make_fresh_specs():
    card = get_activation("cardioid")
    assert scale_activation(card, 2) is not scale_activation(card, 2)
    assert custom_activation("c", card.fn) is not custom_activation("c", card.fn)
    fresh = dataclasses.replace(card, fn=card.fn)
    assert conjugate_activation(fresh) is not get_activation("conj:cardioid")


_CATALOG_AND_CONJ = [prefix + name for name in available_activations()
                     for prefix in ("", "conj:")]


@pytest.mark.parametrize("name", _CATALOG_AND_CONJ)
def test_conjugation_is_an_involution_on_kept_specs(name):
    """The conjugate of a spec is kept on it and keeps it as its own
    conjugate, so conj o conj gives back the spec itself, and a conj: lookup
    is the conjugate kept on the shared spec of its inner name."""
    spec = get_activation(name)
    conj = conjugate_activation(spec)
    assert conjugate_activation(spec) is conj and conjugate_activation(conj) is spec
    assert get_activation(f"conj:{name}") is conj
    scaled = scale_activation(spec, 2 - 1j)
    assert conjugate_activation(conjugate_activation(scaled)) is scaled


def test_no_shared_key_names_a_conj_form():
    """A conj: form lives on its base spec: looking up every catalog name
    with one and two conj: prefixes keys the base names only."""
    for name in _CATALOG_AND_CONJ:
        get_activation(f"conj:{name}")
    assert sorted(name for name, _ in activations._SHARED_SPECS) == sorted(available_activations())
    assert get_activation("conj:conj:cardioid") is get_activation("cardioid")


def test_a_conj_compile_reads_the_classified_base_atlas(monkeypatch, tmp_path):
    """Classifying cardioid scans it; compiling conj:cardioid then scans
    conj:cardioid and plans against sigma = cardioid, whose atlas is the one
    the classification scanned: two scans, not three."""
    scans = _counted(monkeypatch, wirtinger, "_scan")
    assert cli.main(["classify", "--activation", "cardioid", "--no-timestamp",
                     "--out", str(tmp_path / "classify")]) == 0
    assert cli.main(["compile", "--target", "zzbar", "--activation", "conj:cardioid",
                     "--features", "20", "--no-timestamp", "--out", str(tmp_path / "run")]) == 0
    assert scans == ["cardioid", "conj:cardioid"]


def _signed(params):
    """Each complex value's parts with their signs, so that -0.0 and 0.0 differ."""
    return [(k, np.signbit(v.real), v.real, np.signbit(v.imag), v.imag) for k, v in params]


def test_a_zero_of_either_sign_builds_its_own_spec():
    """b = 0.0 and b = -0.0 compare equal but build different functions: the
    sign of b * conj(z) at a zero z follows the sign of b."""
    plus = get_activation("r_affine", {"a": 2, "b": 0.0})
    minus = get_activation("r_affine", {"a": 2, "b": -0.0})
    assert plus is not minus
    assert plus is get_activation("r_affine", {"a": 2, "b": 0.0})
    assert minus is get_activation("r_affine", {"a": 2, "b": -0.0})
    for spec, b in ((plus, 0.0), (minus, -0.0)):
        uncached = activations._build("r_affine", {"a": 2, "b": b})
        assert uncached is not spec
        assert _signed(spec.params) == _signed(uncached.params)
    assert _signed(plus.params) != _signed(minus.params)


def test_only_the_most_recent_specs_are_kept():
    first = get_activation("modrelu", {"b": -1})
    for k in range(2, MEMO_SIZE + 1):
        get_activation("modrelu", {"b": -k})
    assert get_activation("modrelu", {"b": -1}) is first  # refreshed: now the most recent
    for k in range(2, MEMO_SIZE + 2):
        get_activation("modrelu", {"b": -k})
    assert get_activation("modrelu", {"b": -1}) is not first


def test_concurrent_lookups_keep_the_memo_whole():
    """Threads looking up more activations than the memo keeps, with a short
    switch interval: every lookup gives its own parameters, none raises, and
    the memo never holds more than MEMO_SIZE specs."""
    errors, results = [], []

    def lookups(offset):
        try:
            for k in range(400):
                b = -1.0 - (k + offset) % (2 * MEMO_SIZE)
                results.append(get_activation("modrelu", {"b": b}).params == (("b", b),))
        except Exception as exc:  # reported below, with the thread's other results
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookups, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 1600 and all(results)
    assert len(activations._SHARED_SPECS) <= MEMO_SIZE


@pytest.mark.parametrize("name, params, error, message", [
    ("modrelu", {"b": float("nan")}, InvalidActivationParams,
     "modrelu parameter b=nan is not finite"),
    ("cardioid", {"b": 3}, InvalidActivationParams, "cardioid reads no parameter b"),
    ("modrelu", {"b": 0.0}, InvalidActivationParams, "modrelu requires b < 0, got 0.0"),
    ("conj:modrelu", {"b": 1}, InvalidActivationParams, "modrelu requires b < 0, got 1.0"),
    ("swish", None, UnknownActivation, "unknown activation 'swish'"),
], ids=["nan", "unread", "modrelu-b-zero", "conj-modrelu-b-positive", "unknown"])
def test_a_failed_build_raises_on_every_call(name, params, error, message):
    kept = dict(activations._SHARED_SPECS)
    for _ in range(3):
        with pytest.raises(error) as info:
            get_activation(name, params)
        assert info.value.args == (message,)
    assert activations._SHARED_SPECS == kept


def test_a_wrapper_over_a_public_constructor_stays_out_of_the_shared_specs(monkeypatch):
    """The catalog builds through private names: a wrapper installed over
    ``get_activation`` or ``conjugate_activation`` (a profiler, a tracer) is
    not called from inside the lookup, so it cannot enter a shared spec."""
    lookup = activations.get_activation

    def wrapper(*args, **kwargs):
        raise AssertionError("the lookup called a public constructor")

    monkeypatch.setattr(activations, "get_activation", wrapper)
    monkeypatch.setattr(activations, "conjugate_activation", wrapper)
    assert lookup("conj:conj:cardioid").name == "cardioid"
    assert lookup("conj:cardioid").name == "conj:cardioid"


def test_every_catalog_name_and_its_conj_form_stay_shared():
    """MEMO_SIZE keeps each catalog activation at two parameter settings, and
    a conj: form lives on its base spec, so looking each name and conj: form
    up once more hits every one."""
    names = _CATALOG_AND_CONJ
    assert len(names) == MEMO_SIZE
    specs = [get_activation(name) for name in names]
    assert all(get_activation(name) is spec for name, spec in zip(names, specs))


def test_an_evicted_spec_releases_its_atlas_and_plans():
    """What is derived from a shared spec lives on it: once the spec is
    evicted and unreferenced, its atlas, its plan, the plan's conj sigma and
    that sigma's atlas are freed with it."""
    spec = get_activation("conj:cardioid")
    plan = plan_lowering(spec, "NonPoly_NMplus1", PROF)
    kept = [weakref.ref(x) for x in (spec, probe_atlas(spec, PROF), plan, plan.sigma,
                                     probe_atlas(plan.sigma, PROF))]
    del spec, plan
    gc.collect()
    assert all(ref() is not None for ref in kept)
    for k in range(1, MEMO_SIZE + 1):
        get_activation("modrelu", {"b": -k})
    gc.collect()
    assert [ref() for ref in kept] == [None] * len(kept)


def test_a_replaced_spec_starts_with_an_empty_store():
    """dataclasses.replace(spec, fn=...) is another activation: it scans and
    plans anew rather than reading what its source derived."""
    spec = get_activation("cardioid")
    atlas = probe_atlas(spec, PROF)
    plan = plan_lowering(spec, "NonPoly_NMplus1", PROF)
    fresh = dataclasses.replace(spec, fn=lambda z: spec.fn(z))
    assert fresh._derived == {}
    assert probe_atlas(fresh, PROF) is not atlas
    assert plan_lowering(fresh, "NonPoly_NMplus1", PROF) is not plan
    assert probe_atlas(spec, PROF) is atlas and plan_lowering(spec, "NonPoly_NMplus1", PROF) is plan


@pytest.mark.parametrize("name", ["cardioid", "re_square", "tanh_re"])
def test_a_classification_is_kept_on_its_spec(monkeypatch, name):
    """classify_activation computes a spec's verdict once per profile: a
    second call on a shared spec returns the first call's Classification
    and makes no probe, and a spec made by dataclasses.replace classifies
    anew."""
    spec = get_activation(name)
    first = wirtinger.classify_activation(spec, PROF)
    probes = [_counted(monkeypatch, wirtinger, fn) for fn in
              ("_scan", "first_derivs", "second_derivs", "taylor_remainder_probe")]
    assert wirtinger.classify_activation(spec, PROF) is first
    assert probes == [[], [], [], []]
    fresh = dataclasses.replace(spec, fn=spec.fn)
    again = wirtinger.classify_activation(fresh, PROF)
    assert again is not first and again.verdict == first.verdict
    assert probes[0] == [name]


def test_threads_asking_one_fresh_spec_share_one_atlas():
    """Four threads that ask one fresh spec for its atlas at once all get
    the one atlas that the spec keeps.  Each activation call waits, so the
    four scans overlap: cardioid's scan calls it once."""
    card = get_activation("cardioid")

    def slow(z):
        time.sleep(0.05)
        return card.fn(z)

    spec = dataclasses.replace(card, fn=slow)
    barrier, atlases = threading.Barrier(4), []

    def ask():
        barrier.wait()
        atlases.append(probe_atlas(spec, PROF))

    threads = [threading.Thread(target=ask) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(atlases) == 4 and all(a is probe_atlas(spec, PROF) for a in atlases)
