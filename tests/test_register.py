import json
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deepnarrow import register
from deepnarrow.activations import get_activation
from deepnarrow.core import ComplexAffineMap, Cvnn, eval_cvnn
from deepnarrow.errors import DimensionMismatch, StrategyMismatch
from deepnarrow.register import (PolyZZbar, RegisterProgram, describe_layer, eval_register,
                                 plan_monomial, poly_from_json_dict, poly_to_json_dict,
                                 poly_to_register, program_from_json, program_to_json,
                                 shallow_to_register, simulate_plan)

from conftest import random_points, random_shallow

CARD = get_activation("cardioid")


def brute_force_valid_plans(z_degrees, zbar_degrees, kind):
    """Independent oracle: enumerate every conjugation-flag assignment of the
    factor sequence and keep those whose symbolic fold hits the target."""
    n = len(z_degrees)
    factors = []
    for i in range(n):
        factors += [i] * (z_degrees[i] + zbar_degrees[i])
    valid = []
    for flags in product((0, 1), repeat=len(factors)):
        steps = tuple(("zbar" if f else "z", i) for f, i in zip(flags, factors))
        if simulate_plan(kind, steps, n) == (tuple(z_degrees), tuple(zbar_degrees)):
            valid.append(steps)
    return valid


def test_polyzzbar_eval_and_validation():
    p = PolyZZbar(2, ((2 + 1j, (1, 0), (0, 1)), (1 + 0j, (0, 0), (0, 0))))
    z = np.array([1 + 1j, 2 - 1j])
    want = (2 + 1j) * (1 + 1j) * np.conj(2 - 1j) + 1
    assert abs(p(z) - want) < 1e-14
    with pytest.raises(ValueError):
        PolyZZbar(1, ((1, (1,), (0,)), (2, (1,), (0,))))  # duplicate key
    with pytest.raises(ValueError):
        PolyZZbar(1, ((1, (-1,), (0,)),))
    with pytest.raises(DimensionMismatch):
        PolyZZbar(2, ((1, (1,), (0,)),))


@pytest.mark.parametrize("n,m,w", [(1, 1, 3), (2, 2, 4), (3, 1, 8), (1, 3, 1)])
def test_shallow_to_register_exact(rng, n, m, w):
    net = random_shallow(rng, n, m, w, CARD.activation_id)
    program = shallow_to_register(net)
    assert program.width == n + m + 1
    assert len(program.layers) == w
    zs = random_points(rng, 200, n)
    got = eval_register(program, zs, CARD.fn)
    want = eval_cvnn(net, zs, CARD.fn)
    assert np.max(np.abs(got - want)) < 1e-12


def test_shallow_to_register_exact_many_random_nets(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        w = int(rng.integers(1, 9))
        net = random_shallow(rng, n, m, w, CARD.activation_id)
        program = shallow_to_register(net)
        zs = random_points(rng, 100, n)
        diff = np.abs(eval_register(program, zs, CARD.fn) - eval_cvnn(net, zs, CARD.fn))
        assert np.max(diff) < 1e-12


def test_shallow_to_register_constant_net(rng):
    v1 = ComplexAffineMap(np.zeros((2, 1)), np.zeros(2))
    v2 = ComplexAffineMap(np.zeros((1, 2)), np.array([3 - 2j]))
    net = Cvnn((v1, v2), CARD.activation_id)
    program = shallow_to_register(net)
    zs = random_points(rng, 10, 1)
    assert np.all(eval_register(program, zs, CARD.fn) == 3 - 2j)


def test_shallow_to_register_width_one_hidden(rng):
    net = random_shallow(rng, 1, 1, 1, CARD.activation_id)
    program = shallow_to_register(net)
    assert program.width == 3
    assert len(program.layers) == 1
    assert program.layers.shape == (1, 3)


def test_shallow_to_register_rejects_deep(rng):
    net = Cvnn((ComplexAffineMap(np.eye(2), np.zeros(2)),) * 3, CARD.activation_id)
    with pytest.raises(StrategyMismatch):
        shallow_to_register(net)


def test_shallow_program_reloads_on_every_layer_but_the_last(rng):
    """A program file whose layer has no reload would leave u as it is, and
    one with a reload after the last layer loads a neuron that nothing
    flushes; the rows cannot say either, so the reader refuses both.  A
    program with no layer, whose lowering had no transitions to build, is
    refused in memory too."""
    program = shallow_to_register(random_shallow(rng, 1, 1, 3, CARD.activation_id))
    with pytest.raises(StrategyMismatch, match="at least one layer"):
        replace(program, layers=np.empty((0, 3)))
    doc = json.loads(program_to_json(program))
    first, middle, last = doc["layers"]
    for layers in ([first, dict(middle, reload=None), last],
                   [first, middle, dict(last, reload=first["reload"])]):
        with pytest.raises(StrategyMismatch, match="every shallow layer but the last"):
            program_from_json(json.dumps(dict(doc, layers=layers)))


@pytest.mark.parametrize("n,m,w", [(1, 1, 1), (2, 1, 4), (1, 2, 5)])
def test_shallow_array_view_reads_the_layers(rng, n, m, w):
    net = random_shallow(rng, n, m, w, CARD.activation_id)
    program = shallow_to_register(net)
    rows = program.layers
    assert rows.shape == (w, n + 1 + m)
    v1, v2 = net.affine_maps
    assert np.array_equal(rows[:, :n], v1.matrix)
    assert np.array_equal(rows[:, n], v1.bias)
    assert np.array_equal(rows[:, n + 1:], v2.matrix.T)
    for arr in (rows, rows[:, :n], rows[:, n], rows[:, n + 1:]):
        with pytest.raises(ValueError):
            arr[0] = 1


def _per_layer_eval(program, zs, fn):
    """The shallow semantics one layer at a time: activation, flush, reload."""
    n = program.input_dim
    out = np.zeros((zs.shape[0], program.output_dim), dtype=np.complex128)
    rows = program.layers
    u = zs @ rows[0, :n] + rows[0, n]
    for k, row in enumerate(rows):
        y = np.asarray(fn(u), dtype=np.complex128)
        out += y[:, None] * row[n + 1:]
        if k + 1 < len(rows):
            u = zs @ rows[k + 1, :n] + rows[k + 1, n]
    return out + np.asarray(program.end_bias, dtype=np.complex128)


_EVAL_ACTIVATIONS = ("cardioid", "modrelu", "tanh_re", "exp_re", "conj:cardioid")


def _assert_eval_is_per_layer(name, n, m, rows, layers, seed):
    spec = get_activation(name)
    rng = np.random.default_rng(seed)
    program = shallow_to_register(random_shallow(rng, n, m, layers, spec.activation_id))
    zs = random_points(rng, rows, n)
    got = eval_register(program, zs, spec.fn)
    want = _per_layer_eval(program, zs, spec.fn)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=40)
@given(name=st.sampled_from(_EVAL_ACTIVATIONS), n=st.integers(1, 2), m=st.integers(1, 2),
       rows=st.sampled_from((1, 7, 2049)), block=st.sampled_from((2, 3, 5)),
       offset=st.sampled_from((None, -1, 0, 1)), seed=st.integers(0, 2**32 - 1))
@example(name="cardioid", n=1, m=1, rows=1, block=2, offset=-1, seed=0)
@example(name="modrelu", n=2, m=2, rows=2049, block=3, offset=1, seed=1)
@example(name="conj:cardioid", n=2, m=1, rows=7, block=5, offset=0, seed=2)
def test_eval_register_equals_per_layer_loop(name, n, m, rows, block, offset, seed):
    """Evaluated a block of layers per activation call, a shallow program
    gives the bits of one call per layer: for one layer and for one layer
    fewer than, exactly and one more than a block holds.  The block is made
    small here (``block`` layers of ``rows`` rows) to keep the programs short;
    the next test runs full-size blocks."""
    layers = 1 if offset is None else block + offset
    with mock.patch.object(register, "_CHUNK_VALUES", rows * block):
        _assert_eval_is_per_layer(name, n, m, rows, layers, seed)


@pytest.mark.parametrize("name, n, m, rows", [
    ("cardioid", 1, 1, 7), ("tanh_re", 2, 1, 7), ("conj:cardioid", 1, 2, 7),
    ("modrelu", 2, 2, 2049), ("exp_re", 1, 1, 2049),
])
def test_eval_register_full_blocks_equal_per_layer_loop(name, n, m, rows):
    """One layer more than a full block of ``_CHUNK_VALUES`` values holds, so
    one activation call gets a full block (past numpy's 16,384-value
    threshold for reusing temporaries in place) and one gets one layer.  One
    row would need 32,769 layers; the small-block test above covers it."""
    layers = max(1, register._CHUNK_VALUES // rows) + 1
    _assert_eval_is_per_layer(name, n, m, rows, layers, seed=rows + layers)


def test_plan_monomial_spec_examples():
    # z1 zbar2 under mul2 folds as z1 * conj(z2): feed z2 then z1 plain
    plan = plan_monomial((1, 0), (0, 1), "mul2")
    assert plan.steps == (("z", 1), ("z", 0))
    # z^2 under mul1: plain feeds
    plan = plan_monomial((2,), (0,), "mul1")
    assert plan.steps == (("z", 0), ("z", 0))
    # zbar^2 under mul3: the simulator settles the flags
    plan = plan_monomial((0,), (2,), "mul3")
    assert plan.symbolic_result() == ((0,), (2,))


def test_plan_monomial_rejects_constant():
    with pytest.raises(ValueError):
        plan_monomial((0, 0), (0, 0), "mul2")


def test_plan_soundness_exhaustive_against_brute_force():
    checked = 0
    for n in (1, 2):
        for exps in product(range(4), repeat=2 * n):
            zd, bd = exps[:n], exps[n:]
            deg = sum(exps)
            if deg == 0 or deg > 3:
                continue
            for kind in ("mul1", "mul2", "mul3"):
                plan = plan_monomial(zd, bd, kind)
                assert plan.symbolic_result() == (zd, bd)
                valid = brute_force_valid_plans(zd, bd, kind)
                assert valid, (zd, bd, kind)
                # the chosen plan uses the same factor multiset; check it is
                # among the brute-force-valid flag assignments up to ordering
                assert simulate_plan(kind, plan.steps, n) == (zd, bd)
                checked += 1
    assert checked == 129


@pytest.mark.parametrize("kind", ["mul1", "mul2", "mul3"])
def test_poly_to_register_exact_simple(rng, kind):
    p = PolyZZbar(1, ((1 + 0j, (2,), (0,)),))
    program = poly_to_register([p], kind)
    zs = random_points(rng, 100, 1)
    assert np.max(np.abs(eval_register(program, zs) - p(zs)[:, None])) < 1e-12


def test_poly_to_register_zbar2_plus_z(rng):
    p = PolyZZbar(1, ((1 + 0j, (1,), (0,)), (1 + 0j, (0,), (2,))))
    program = poly_to_register([p], "mul2")
    assert program.width == 4
    zs = random_points(rng, 100, 1)
    assert np.max(np.abs(eval_register(program, zs) - p(zs)[:, None])) < 1e-12


@pytest.mark.parametrize("kind", ["mul1", "mul2", "mul3"])
def test_poly_to_register_bivariate_with_constant(rng, kind):
    p = PolyZZbar(2, ((3 + 0j, (1, 0), (0, 1)), (-1j, (0, 0), (0, 0))))
    program = poly_to_register([p], kind)
    zs = random_points(rng, 100, 2)
    assert np.max(np.abs(eval_register(program, zs) - p(zs)[:, None])) < 1e-12


def test_poly_to_register_constant_only():
    p = PolyZZbar(1, ((2 - 1j, (0,), (0,)),))
    program = poly_to_register([p], "mul2")
    assert len(program.layers) == 0
    assert eval_register(program, np.array([0.5 + 0.5j]))[0] == 2 - 1j


def test_synthesis_invariant_random_polys(rng):
    # random polynomials of total degree <= 4, n <= 3, all three kinds
    for _ in range(15):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        comps = []
        for _ in range(m):
            terms = []
            seen = set()
            for _ in range(int(rng.integers(1, 5))):
                while True:
                    zd = tuple(int(x) for x in rng.integers(0, 3, n))
                    bd = tuple(int(x) for x in rng.integers(0, 3, n))
                    if sum(zd) + sum(bd) <= 4 and (zd, bd) not in seen:
                        seen.add((zd, bd))
                        break
                coeff = complex(rng.standard_normal(), rng.standard_normal())
                terms.append((coeff, zd, bd))
            comps.append(PolyZZbar(n, tuple(terms)))
        zs = random_points(rng, 50, n)
        want = np.column_stack([p(zs) for p in comps])
        for kind in ("mul1", "mul2", "mul3"):
            program = poly_to_register(comps, kind)
            got = eval_register(program, zs)
            assert np.max(np.abs(got - want)) <= 1e-10 * (1 + np.max(np.abs(want)))


def test_monomial_emission_is_graded_lex():
    p = PolyZZbar(1, ((1 + 0j, (0,), (2,)), (1 + 0j, (1,), (0,))))
    program = poly_to_register([p], "mul2")
    # degree-1 monomial z first, then zbar^2: flush layers at positions 1 and 4
    kinds = [type(l).__name__ for l in program.layers]
    assert kinds == ["MulLayer", "FlushLayer", "MulLayer", "MulLayer", "FlushLayer"]


def test_describe_layer_slots():
    p = PolyZZbar(2, ((1 + 0j, (1, 0), (0, 1)),))
    program = poly_to_register([p], "mul2")
    slots = describe_layer(program, 0)
    assert slots[:2] == ["in_id:0", "in_id:1"]
    assert slots[2:4] == ["in_conj:0", "in_conj:1"]
    assert any(s.startswith("compute:mul2") for s in slots)
    net_prog = shallow_to_register(
        random_shallow(np.random.default_rng(0), 2, 1, 3, CARD.activation_id))
    assert describe_layer(net_prog, 0) == ["in_id:0", "in_id:1", "compute:rho",
                                           "out_accum:0"]


def test_program_serialization_round_trip(rng):
    net = random_shallow(rng, 2, 2, 4, CARD.activation_id)
    program = shallow_to_register(net)
    back = program_from_json(program_to_json(program))
    zs = random_points(rng, 40, 2)
    assert np.array_equal(eval_register(program, zs, CARD.fn),
                          eval_register(back, zs, CARD.fn))
    assert program_to_json(back) == program_to_json(program)

    p = PolyZZbar(1, ((1 + 0j, (1,), (0,)), (0.5j, (0,), (2,))))
    program = poly_to_register([p], "mul3")
    back = program_from_json(program_to_json(program))
    assert np.array_equal(eval_register(program, zs[:, :1]),
                          eval_register(back, zs[:, :1]))


#: ``program_to_json`` of the n = 2, m = 1, 3-layer shallow program of a
#: (V1, V2) = ([[1+0.5j, -2], [0.25j, 1], [-1.5, 0.5-1j]], [0.5, -1j, 2+0.25j];
#: [[1.5, -0.5j, 0.75+1j]], [-0.25+2j]) network, as the layer-object writer
#: wrote it before the layers became one array.
_GOLDEN_SHALLOW = (
    '{"family": "shallow", "input_dim": 2, "layers": [{"flush": [[1.5, 0.0]], "kind": "rho", '
    '"reload": {"a": [[0.0, 0.25], [1.0, 0.0]], "b": [-0.0, -1.0]}, "slots": ["in_id:0", '
    '"in_id:1", "compute:rho", "out_accum:0"]}, {"flush": [[-0.0, -0.5]], "kind": "rho", '
    '"reload": {"a": [[-1.5, 0.0], [0.5, -1.0]], "b": [2.0, 0.25]}, "slots": ["in_id:0", '
    '"in_id:1", "compute:rho", "out_accum:0"]}, {"flush": [[0.75, 1.0]], "kind": "rho", '
    '"reload": null, "slots": ["in_id:0", "in_id:1", "compute:rho", "out_accum:0"]}], '
    '"mul_kind": null, "output_dim": 1, "t_end": {"bias": [[-0.25, 2.0]]}, "t_init": {"a": '
    '[[1.0, 0.5], [-2.0, 0.0]], "b": [0.5, 0.0]}}')

#: ``program_to_json`` of the mul2 program of (1+2j) z1 conj(z2) - 0.5j z1^2 + 3.
_GOLDEN_POLY = (
    '{"family": "poly", "input_dim": 2, "layers": [{"kind": "mul", "operand": "z:0", "slots": '
    '["in_id:0", "in_id:1", "in_conj:0", "in_conj:1", "compute:mul2(z:0)", "out_accum:0"]}, '
    '{"kind": "mul", "operand": "zbar:0", "slots": ["in_id:0", "in_id:1", "in_conj:0", '
    '"in_conj:1", "compute:mul2(zbar:0)", "out_accum:0"]}, {"coeff": [-0.0, -0.5], "dst": 0, '
    '"kind": "flush", "slots": ["in_id:0", "in_id:1", "in_conj:0", "in_conj:1", "flush:dst=0", '
    '"out_accum:0"]}, {"kind": "mul", "operand": "z:1", "slots": ["in_id:0", "in_id:1", '
    '"in_conj:0", "in_conj:1", "compute:mul2(z:1)", "out_accum:0"]}, {"kind": "mul", '
    '"operand": "z:0", "slots": ["in_id:0", "in_id:1", "in_conj:0", "in_conj:1", '
    '"compute:mul2(z:0)", "out_accum:0"]}, {"coeff": [1.0, 2.0], "dst": 0, "kind": "flush", '
    '"slots": ["in_id:0", "in_id:1", "in_conj:0", "in_conj:1", "flush:dst=0", '
    '"out_accum:0"]}], "mul_kind": "mul2", "output_dim": 1, "t_end": {"bias": [[3.0, 0.0]]}, '
    '"t_init": null}')


def test_golden_program_files_round_trip_byte_for_byte():
    """The program file that ``lower --program`` reads keeps its bytes: each
    golden file loads and writes back unchanged, and the shallow one is the
    rewrite of its network, signed zeros included."""
    for text in (_GOLDEN_SHALLOW, _GOLDEN_POLY):
        assert program_to_json(program_from_json(text)) == text
    v1 = ComplexAffineMap(np.array([[1 + 0.5j, -2], [0.25j, 1], [-1.5, 0.5 - 1j]]),
                          np.array([0.5, -1j, 2 + 0.25j]))
    v2 = ComplexAffineMap(np.array([[1.5, -0.5j, 0.75 + 1j]]), np.array([-0.25 + 2j]))
    program = shallow_to_register(Cvnn((v1, v2), CARD.activation_id))
    assert program_to_json(program) == _GOLDEN_SHALLOW
    back = program_from_json(_GOLDEN_SHALLOW)
    assert np.array_equal(back.layers.view(np.uint64), program.layers.view(np.uint64))
    p = PolyZZbar(2, ((1 + 2j, (1, 0), (0, 1)), (-0.5j, (0, 0), (2, 0)), (3 + 0j, (0, 0), (0, 0))))
    assert program_to_json(poly_to_register([p], "mul2")) == _GOLDEN_POLY


def test_poly_json_round_trip():
    p = PolyZZbar(2, ((1 + 2j, (1, 0), (0, 1)), (3 + 0j, (0, 0), (0, 0))))
    back = poly_from_json_dict(poly_to_json_dict([p]))
    zs = random_points(np.random.default_rng(0), 20, 2)
    assert np.array_equal(p(zs), back[0](zs))


def test_program_validation():
    with pytest.raises(StrategyMismatch):
        poly_to_register([PolyZZbar(1, ((1, (1,), (0,)),))], "mul9")
    with pytest.raises(DimensionMismatch):
        # shallow rows of n+1+m = 3 slots, given 4
        RegisterProgram(1, 1, "shallow", np.zeros((2, 4)), (0j,))
    with pytest.raises(StrategyMismatch):
        # mul layer in a shallow program file
        doc = json.loads(program_to_json(
            shallow_to_register(random_shallow(np.random.default_rng(0), 1, 1, 2,
                                               CARD.activation_id))))
        doc["layers"][0] = {"kind": "mul", "operand": "z:0", "slots": []}
        program_from_json(json.dumps(doc))
