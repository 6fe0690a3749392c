"""Register-model intermediate representation.

A register program is an idealized layered computation that keeps inputs and
partial outputs in passthrough slots while exactly one slot per layer does
real work.  Two families:

  shallow family (width n+m+1): slots (z_1..z_n, u, v_1..v_m).  Layer k
    loads u with neuron k's preactivation a_k^T z + b_k, applies the
    activation to u and flushes c_k * act(u) into the accumulators.  The
    layers are one read-only (L, n+1+m) array with a column per slot: row k
    is (a_k, b_k, c_k).  A depth-2 network rewrites into this form exactly
    (no approximation).

  poly family (width 2n+m+1): slots (z_1..z_n, conj z_1..conj z_n, w, v_1..v_m)
    with w initialized to 1; the layers are a tuple of MulLayer/FlushLayer.
    Mul layers fold one in-register (plain or conjugated) into w through a
    fixed two-argument product mul1/mul2/mul3; flush layers add coeff * w to
    an accumulator and reset w to 1.  Monomial planning picks
    plain/conjugated operands so the folded chain equals the target monomial
    symbolically in spite of the conjugations that mul2/mul3 smuggle in.

A shallow program file still writes layer k's flush beside the next layer's
load (its reload) and the first load apart (t_init); program_from_json turns
that into the rows and refuses a file whose layers break the reload rule.

eval_register implements the ideal semantics (true products, true
conjugation); lowering replaces the slots with activation neurons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .blocks import mul_apply
from .core import Cvnn, _c2l, _l2c
from .errors import DimensionMismatch, StrategyMismatch

__all__ = [
    "PolyZZbar",
    "MonomialPlan",
    "MulLayer",
    "FlushLayer",
    "RegisterProgram",
    "shallow_to_register",
    "plan_monomial",
    "poly_to_register",
    "eval_register",
    "program_to_json",
    "program_from_json",
    "poly_to_json_dict",
    "poly_from_json_dict",
    "describe_layer",
]


# ---------------------------------------------------------------------------
# Polynomials in z_1..z_n and their conjugates
# ---------------------------------------------------------------------------


def _norm_exps(e) -> tuple:
    return tuple(int(x) for x in e)


@dataclass(frozen=True)
class PolyZZbar:
    """Polynomial in z_1..z_n, conj(z_1)..conj(z_n) with complex coefficients.

    terms: tuple of (coeff, z_degrees, zbar_degrees), degree tuples of length n.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        seen = set()
        norm = []
        for coeff, zd, bd in self.terms:
            zd, bd = _norm_exps(zd), _norm_exps(bd)
            if len(zd) != self.n or len(bd) != self.n:
                raise DimensionMismatch("exponent tuples must have length n")
            if any(x < 0 for x in zd + bd):
                raise ValueError("exponents must be nonnegative")
            key = (zd, bd)
            if key in seen:
                raise ValueError(f"duplicate exponent key {key}")
            seen.add(key)
            norm.append((complex(coeff), zd, bd))
        object.__setattr__(self, "terms", tuple(norm))

    def __call__(self, zs) -> np.ndarray:
        zs = np.asarray(zs, dtype=np.complex128)
        single = zs.ndim == 1
        if single:
            zs = zs[None, :]
        if zs.shape[1] != self.n:
            raise DimensionMismatch(f"expected {self.n} variables, got {zs.shape[1]}")
        out = np.zeros(zs.shape[0], dtype=np.complex128)
        conj = np.conj(zs)
        for coeff, zd, bd in self.terms:
            out += _monomial(zs, conj, zd, bd, coeff)
        return out[0] if single else out


def _monomial(zs, conj, zd, bd, coeff=1.0) -> np.ndarray:
    """coeff * z^zd * conj(z)^bd at each row of ``zs`` (``conj`` its
    conjugate), multiplied factor by factor in coordinate order."""
    term = np.full(zs.shape[0], coeff, dtype=np.complex128)
    for i in range(len(zd)):
        if zd[i]:
            term = term * zs[:, i] ** zd[i]
        if bd[i]:
            term = term * conj[:, i] ** bd[i]
    return term


def _graded_lex_key(monomial):
    """The graded lexicographic order of z^zd conj(z)^bd, total degree
    first: the order of the poly JSON, the program layers and the fit's
    basis.  ``monomial`` ends in (zd, bd): a term (coeff, zd, bd) or the
    exponents (zd, bd)."""
    zd, bd = monomial[-2:]
    return (sum(zd) + sum(bd), zd + bd)


def poly_to_json_dict(polys: Sequence["PolyZZbar"]) -> dict:
    return {
        "n": polys[0].n,
        "components": [
            [[_c2l(c), list(zd), list(bd)] for c, zd, bd in sorted(p.terms, key=_graded_lex_key)]
            for p in polys
        ],
    }


def poly_from_json_dict(doc: dict) -> list:
    n = int(doc["n"])
    return [
        PolyZZbar(n, tuple((_l2c(c), tuple(zd), tuple(bd)) for c, zd, bd in comp))
        for comp in doc["components"]
    ]


# ---------------------------------------------------------------------------
# Layers and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MulLayer:
    """Poly-family layer: w <- mul(operand, w), operand = ("z"|"zbar", index)."""

    operand: tuple


@dataclass(frozen=True)
class FlushLayer:
    """Poly-family affine layer: v[dst] += coeff * w; w <- 1."""

    dst: int
    coeff: complex


@dataclass(frozen=True, eq=False)
class RegisterProgram:
    input_dim: int
    output_dim: int
    family: str                        # "shallow" | "poly"
    layers: Union[np.ndarray, tuple]   # shallow: (L, n+1+m) rows; poly: Mul/FlushLayers
    end_bias: tuple                    # length m
    mul_kind: Optional[str] = None     # poly: mul1 | mul2 | mul3

    def __post_init__(self):
        n, m = self.input_dim, self.output_dim
        if self.family == "shallow":
            rows = np.array(self.layers, dtype=np.complex128)  # a copy: no caller aliases it
            if not len(rows):
                raise StrategyMismatch("shallow program needs at least one layer")
            if rows.shape[1:] != (n + 1 + m,):
                raise DimensionMismatch(
                    f"shallow layers must be rows of n+1+m = {n + 1 + m}, got {rows.shape}")
            rows.flags.writeable = False
            object.__setattr__(self, "layers", rows)
        elif self.family == "poly":
            if self.mul_kind not in ("mul1", "mul2", "mul3"):
                raise StrategyMismatch(f"poly program needs a mul kind, got {self.mul_kind!r}")
            for lay in self.layers:
                if isinstance(lay, MulLayer):
                    side, idx = lay.operand
                    if side not in ("z", "zbar") or not 0 <= idx < n:
                        raise StrategyMismatch(f"bad operand {lay.operand!r}")
                elif isinstance(lay, FlushLayer):
                    if not 0 <= lay.dst < m:
                        raise DimensionMismatch(f"flush destination {lay.dst} out of range")
                else:
                    raise StrategyMismatch("poly program admits MulLayer/FlushLayer only")
        else:
            raise StrategyMismatch(f"unknown family {self.family!r}")
        if len(self.end_bias) != m:
            raise DimensionMismatch("end_bias must have length output_dim")

    @property
    def width(self) -> int:
        n, m = self.input_dim, self.output_dim
        return n + m + 1 if self.family == "shallow" else 2 * n + m + 1


def describe_layer(program: RegisterProgram, idx: int) -> list:
    """Typed slot list for one layer (serialization / inspection)."""
    n, m = program.input_dim, program.output_dim
    slots = [f"in_id:{i}" for i in range(n)]
    if program.family == "shallow":
        work = "compute:rho"
    else:
        slots += [f"in_conj:{i}" for i in range(n)]
        lay = program.layers[idx]
        if isinstance(lay, MulLayer):
            side, i = lay.operand
            work = f"compute:{program.mul_kind}({side}:{i})"
        else:
            work = f"flush:dst={lay.dst}"
    return slots + [work] + [f"out_accum:{j}" for j in range(m)]


# ---------------------------------------------------------------------------
# Shallow -> register (exact rewrite)
# ---------------------------------------------------------------------------


def shallow_to_register(net: Cvnn) -> RegisterProgram:
    """Rewrite a depth-2 network into the width-(n+m+1) register form.

    With f_j(z) = sum_k c_kj act(a_k^T z + b_k) + d_j, the program carries the
    inputs, computes one neuron per layer, and accumulates the c-weighted
    results; it evaluates identically to the source (exact, no h).
    """
    if len(net.affine_maps) != 2:
        raise StrategyMismatch("shallow_to_register requires a depth-2 network")
    v1, v2 = net.affine_maps
    return RegisterProgram(
        input_dim=v1.in_dim,
        output_dim=v2.out_dim,
        family="shallow",
        layers=np.hstack([v1.matrix, v1.bias[:, None], v2.matrix.T]),
        end_bias=tuple(v2.bias.tolist()),
    )


# ---------------------------------------------------------------------------
# Monomial planning and polynomial -> register
# ---------------------------------------------------------------------------


def _chain_parity(kind: str, step: int, length: int) -> int:
    """How many conjugations the factor fed at ``step`` (1-based) accumulates
    by the end of a length-``length`` fold under the given mul kind."""
    if kind == "mul1":
        return 0
    if kind == "mul2":
        return (length - step) % 2
    if kind == "mul3":
        return (length - step + 1) % 2
    raise ValueError(f"unknown mul kind {kind!r}")


@dataclass(frozen=True)
class MonomialPlan:
    """Operand schedule whose folded mul chain equals the monomial exactly."""

    kind: str
    z_degrees: tuple
    zbar_degrees: tuple
    steps: tuple  # of ("z"|"zbar", index)

    def symbolic_result(self) -> tuple:
        return simulate_plan(self.kind, self.steps, len(self.z_degrees))


def simulate_plan(kind: str, steps, n: int) -> tuple:
    """Fold the chain symbolically; returns (z_degrees, zbar_degrees).

    mul1(x, acc) = x acc;  mul2(x, acc) = x conj(acc);
    mul3(x, acc) = conj(x acc) = conj(x) conj(acc).
    """
    acc_z = [0] * n
    acc_b = [0] * n
    for side, i in steps:
        if kind == "mul2":
            acc_z, acc_b = acc_b, acc_z  # conjugate the accumulator
        if side == "z":
            acc_z[i] += 1
        else:
            acc_b[i] += 1
        if kind == "mul3":
            acc_z, acc_b = acc_b, acc_z  # conjugate the whole product
    return tuple(acc_z), tuple(acc_b)


def plan_monomial(z_degrees, zbar_degrees, kind: str) -> MonomialPlan:
    """Choose plain/conjugated operands so the chain reproduces the monomial.

    The factor fed at step j of l ends with conjugation parity (l-j) under
    mul2, (l-j+1) under mul3, 0 under mul1; feeding the register whose own
    conjugation flag cancels that parity against the target's flag makes the
    product come out exactly.  Plans always exist.
    """
    zd, bd = _norm_exps(z_degrees), _norm_exps(zbar_degrees)
    n = len(zd)
    factors = []
    for i in range(n):
        factors += [(i, 0)] * zd[i] + [(i, 1)] * bd[i]
    if not factors:
        raise ValueError("plan_monomial requires a nonconstant monomial")
    length = len(factors)
    steps = []
    remaining = sorted(factors)
    for j in range(1, length + 1):
        parity = _chain_parity(kind, j, length)
        pick = next((f for f in remaining if f[1] == parity), remaining[0])
        remaining.remove(pick)
        i, flag = pick
        feed = (flag + parity) % 2
        steps.append(("zbar" if feed else "z", i))
    plan = MonomialPlan(kind, zd, bd, tuple(steps))
    if plan.symbolic_result() != (zd, bd):
        raise AssertionError(f"monomial plan failed symbolic check: {plan}")
    return plan


def poly_to_register(components: Sequence[PolyZZbar], kind: str) -> RegisterProgram:
    """Compile polynomial components (one per output) into a poly program.

    Monomials are emitted in graded lexicographic order, each followed by a
    flush carrying its coefficient; constant terms fold into the end bias.
    The program evaluates exactly (floating arithmetic aside).
    """
    if kind not in ("mul1", "mul2", "mul3"):
        raise StrategyMismatch(f"unknown mul kind {kind!r}")
    if not components:
        raise DimensionMismatch("need at least one output component")
    n = components[0].n
    if any(p.n != n for p in components):
        raise DimensionMismatch("all components must share the variable count")
    m = len(components)
    layers = []
    end_bias = [0j] * m
    for dst, poly in enumerate(components):
        for coeff, zd, bd in sorted(poly.terms, key=_graded_lex_key):
            if sum(zd) + sum(bd) == 0:
                end_bias[dst] += coeff
                continue
            plan = plan_monomial(zd, bd, kind)
            layers += [MulLayer(step) for step in plan.steps]
            layers.append(FlushLayer(dst, coeff))
    return RegisterProgram(
        input_dim=n,
        output_dim=m,
        family="poly",
        layers=tuple(layers),
        end_bias=tuple(end_bias),
        mul_kind=kind,
    )


# ---------------------------------------------------------------------------
# Ideal evaluation
# ---------------------------------------------------------------------------


#: Preactivations a shallow program's evaluation hands the activation in one
#: call: a block of layers of every row.  The bound keeps the block and the
#: activation's temporaries at 512 KiB each, whatever the program's depth.
_CHUNK_VALUES = 2 ** 15


def eval_register(program: RegisterProgram, z, activation_fn: Optional[Callable] = None) -> np.ndarray:
    """Exact ideal semantics: true complex products for mul layers, true
    conjugation for conjugate registers, the real activation for rho layers.

    A shallow program's preactivations are computed one layer at a time, as
    the layers define them, into a layers x rows block of at most
    ``_CHUNK_VALUES`` values; the activation is called once per block, and
    the flushes are added in layer order.  An elementwise activation gives
    the bits of one call per layer."""
    zs = np.asarray(z, dtype=np.complex128)
    single = zs.ndim == 1
    if single:
        zs = zs[None, :]
    if zs.shape[1] != program.input_dim:
        raise DimensionMismatch(
            f"expected input dim {program.input_dim}, got {zs.shape[1]}")
    count = zs.shape[0]
    m = program.output_dim
    out = np.zeros((count, m), dtype=np.complex128)
    if program.family == "shallow":
        if activation_fn is None:
            raise ValueError("shallow programs need the activation to evaluate")
        rows, n = program.layers, program.input_dim
        loads, load_bias, flush = rows[:, :n], rows[:, n], rows[:, n + 1:]
        step = max(1, _CHUNK_VALUES // max(1, count))
        for lo in range(0, len(loads), step):
            hi = min(lo + step, len(loads))
            u = np.empty((hi - lo, count), dtype=np.complex128)
            for k in range(lo, hi):
                u[k - lo] = zs @ loads[k] + load_bias[k]
            y = np.asarray(activation_fn(u), dtype=np.complex128)
            for k in range(lo, hi):
                out += y[k - lo][:, None] * flush[k]
    else:
        w = np.ones(count, dtype=np.complex128)
        conj = np.conj(zs)
        for lay in program.layers:
            if isinstance(lay, MulLayer):
                side, i = lay.operand
                operand = zs[:, i] if side == "z" else conj[:, i]
                w = mul_apply(program.mul_kind, operand, w)
            else:
                out[:, lay.dst] += lay.coeff * w
                w = np.ones(count, dtype=np.complex128)
    out += np.asarray(program.end_bias, dtype=np.complex128)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _load_json(row: list, n: int) -> dict:
    """A shallow row's preactivation (a_k, b_k), as the file writes it."""
    return {"a": [_c2l(c) for c in row[:n]], "b": _c2l(row[n])}


def program_to_json(program: RegisterProgram) -> str:
    n = program.input_dim
    t_init = None
    if program.family == "shallow":
        rows = program.layers.tolist()
        layers = [{"kind": "rho", "flush": [_c2l(c) for c in row[n + 1:]],
                   "reload": None if nxt is None else _load_json(nxt, n)}
                  for row, nxt in zip(rows, rows[1:] + [None])]
        t_init = _load_json(rows[0], n)
    else:
        layers = [{"kind": "mul", "operand": "{}:{}".format(*lay.operand)}
                  if isinstance(lay, MulLayer) else
                  {"kind": "flush", "dst": lay.dst, "coeff": _c2l(lay.coeff)}
                  for lay in program.layers]
    for idx, entry in enumerate(layers):
        entry["slots"] = describe_layer(program, idx)
    doc = {
        "family": program.family,
        "input_dim": n,
        "output_dim": program.output_dim,
        "mul_kind": program.mul_kind,
        "t_init": t_init,
        "layers": layers,
        "t_end": {"bias": [_c2l(c) for c in program.end_bias]},
    }
    return json.dumps(doc, sort_keys=True)


def _shallow_rows(doc: dict, n: int, m: int) -> list:
    """The rows (a_k, b_k, c_k) of a shallow program file, whose layers must
    reload u on every layer but the last: the one place that rule can be
    broken."""
    entries = doc["layers"]
    load = doc["t_init"]
    if load is None:
        raise StrategyMismatch("shallow program needs t_init")
    rows = []
    for k, entry in enumerate(entries):
        if entry["kind"] != "rho":
            raise StrategyMismatch("shallow program admits rho layers only")
        if len(entry["flush"]) != m:
            raise DimensionMismatch("flush width must equal output_dim")
        if len(load["a"]) != n:
            raise DimensionMismatch("reload weights must have length n")
        rows.append([_l2c(c) for c in [*load["a"], load["b"], *entry["flush"]]])
        load = entry["reload"]
        if (load is None) != (k == len(entries) - 1):
            raise StrategyMismatch("every shallow layer but the last reloads u")
    return rows


def _poly_layer(entry: dict):
    """A poly file's layer; any other kind is left for RegisterProgram to
    refuse."""
    if entry["kind"] == "mul":
        side, idx = entry["operand"].split(":")
        return MulLayer((side, int(idx)))
    if entry["kind"] == "flush":
        return FlushLayer(int(entry["dst"]), _l2c(entry["coeff"]))
    return entry


def program_from_json(text: str) -> RegisterProgram:
    doc = json.loads(text)
    n, m = int(doc["input_dim"]), int(doc["output_dim"])
    return RegisterProgram(
        input_dim=n,
        output_dim=m,
        family=doc["family"],
        layers=(_shallow_rows(doc, n, m) if doc["family"] == "shallow"
                else tuple(map(_poly_layer, doc["layers"]))),
        end_bias=tuple(_l2c(c) for c in doc["t_end"]["bias"]),
        mul_kind=doc["mul_kind"],
    )
