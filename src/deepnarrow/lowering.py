"""Lowering register programs to strict narrow networks.

Every program layer becomes one or more hidden layers in which each register
slot crosses through a small building block and the single compute slot does
real work.  The width budgets, for input dimension n and output dimension m:

  NonPoly_NMplus1        n+m+1      registers via width-1 identity blocks,
                                     compute slot applies the raw activation
  NonPoly_2N2Mplus1      2n+2m+1    registers via 2-neuron pair blocks
                                     (first output), compute raw
  Poly_Wide_2N2Mplus12   2n+2m+12   input pairs (z, conj z) via 2-neuron
                                     blocks, multiplication block inline
  Poly_Narrow_2N2Mplus5  2n+2m+5    z slots via 2-neuron pair blocks; w, the
                                     v_j and the ladder accumulator via
                                     width-1 identity blocks where the
                                     activation has a lone-d point, else via
                                     pair blocks; the multiplication block
                                     runs as an inner register program with
                                     the rest of the budget as compute slots
  Poly_NMplus4           n+m+4      width-1 identity blocks everywhere plus a
                                     single conjugation register refreshed on
                                     demand by one 2-neuron pair block; the
                                     multiplication block runs as under
                                     Narrow

The two lone-derivative strategies, NonPoly_NMplus1 and Poly_NMplus4, need a
point with exactly one nonzero first derivative.  Where the activation has a
lone dbar but no lone d, they are written against sigma = conj o act, whose
lone d it is, with sigma's own blocks, and ``lower`` turns sigma's
assembled maps into a network over act by one of two transforms.  Over an
activation that commutes with conj (``ActivationSpec.conj_equivariant``)
every odd map is conjugated (``_conjugate_odd_maps``), since act(conj t) =
sigma(t) and conj(A) conj(x) + conj(b) = conj(A x + b); after an odd
hidden-layer count sigma's chain first crosses the outputs through one more
stage of its identity blocks.  It has sigma's depth, plus one at most.  Over
an activation that does not commute, every hidden layer is followed by a
width-preserving stage of conjugation blocks (``_conj_layers``), which
doubles the depth.

A hidden stage is a list of block placements (block, in slots, out slots)
on the register slots of the state, built into arrays by one function
(``_stage``); the raw activation unit is a constant width-1 block.  A piece
is a bare map (``core.AffineArrays``), a ``Stage`` or a ``Layers`` stack,
told apart by its type; the shallow strategies emit the transitions of all
program layers as one ``Layers`` stack.  Adjacent affine maps are always
fused, keeping the strict alternating form, and stacks by batched products.
Only the runs of the assembled network are validated, each once.  That
catches every non-finite entry of a piece: inf * 0 = nan, so fusion spreads
it to a whole row or column of each later product.
A poly chain's first product multiplies by w = 1, which holds after the
init stage and after every flush: mul(x, 1) is x (conj x under mul3), so
that product is one affine map that copies the slot holding it into w and
costs no hidden layer.
The plan (``plan_lowering``) checks each strategy's derivative
preconditions once, on the probe atlas, raising StrategyMismatch when they
fail, and keeps the row of every point it picks; the blocks are built from
those rows at each h and probe nothing.  Width bounds are asserted on the
result, with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .activations import ActivationSpec, _conjugate
from .blocks import (_SQUARE_TO_MUL, ShallowBlock, conj_block, identity_block, mul_block,
                     routed_pair_block)
from .core import (AffineArrays, ComplexAffineMap, Cvnn, _cvnn_of_checked_runs, eval_affine,
                   fuse_arrays, width_of)
from .errors import StrategyMismatch
from .register import FlushLayer, RegisterProgram
from .wirtinger import PointRow, ToleranceProfile, probe_atlas

__all__ = [
    "STRATEGIES",
    "strategy_width_budget",
    "lower",
    "lower_pieces",
    "assemble_pieces",
    "eval_pieces",
    "default_strategy",
    "LoweringPlan",
    "plan_lowering",
]

#: the width budget in n and m of every lowering strategy
_BUDGETS = {
    "NonPoly_NMplus1": lambda n, m: n + m + 1,
    "NonPoly_2N2Mplus1": lambda n, m: 2 * n + 2 * m + 1,
    "Poly_Wide_2N2Mplus12": lambda n, m: 2 * n + 2 * m + 12,
    "Poly_Narrow_2N2Mplus5": lambda n, m: 2 * n + 2 * m + 5,
    "Poly_NMplus4": lambda n, m: n + m + 4,
}

STRATEGIES = tuple(_BUDGETS)


def strategy_width_budget(strategy: str, n: int, m: int) -> int:
    return _BUDGETS[strategy](n, m)


# ---------------------------------------------------------------------------
# Stage machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One hidden layer: pre maps state -> neurons, post maps neurons -> state."""

    pre: AffineArrays
    post: AffineArrays


@dataclass(frozen=True)
class Layers:
    """L program layers that cross the same stage.  Their first crossing is
    emitted as a ``Stage`` piece, since it fuses with the preceding map;
    this piece follows it with transition 0 of ``trans``, an (L, s, s)
    stack, then for each later l the stage and transition l."""

    stage: Stage
    trans: AffineArrays


#: the activation applied to a slot as it stands: a constant width-1 block
_RAW = ShallowBlock(ComplexAffineMap([[1]], [0]), ComplexAffineMap([[1]], [0]), ())


def _stage(placements, in_dim: int, bias) -> Stage:
    """The hidden layer of block placements (block, in_slots, out_slots):
    each block's neurons read its in slots, and its first len(out_slots)
    post rows write its out slots; ``bias`` holds the registers that no
    block writes.  Rows are added into zeros, so every zero weight is +0
    whatever the sign of the block's zeros."""
    width = sum(blk.width for blk, _, _ in placements)
    pre = np.zeros((width, in_dim), dtype=np.complex128)
    pre_b = np.zeros(width, dtype=np.complex128)
    post = np.zeros((len(bias), width), dtype=np.complex128)
    post_b = np.array(bias, dtype=np.complex128)
    start = 0
    for blk, ins, outs in placements:
        units = slice(start, start + blk.width)
        pre[units, ins] += blk.pre.matrix
        pre_b[units] = blk.pre.bias
        post[outs, units] += blk.post.matrix[:len(outs)]
        post_b[outs] = blk.post.bias[:len(outs)]
        start = units.stop
    return Stage(AffineArrays(pre, pre_b), AffineArrays(post, post_b))


def _affine(rows, biases) -> AffineArrays:
    return AffineArrays(np.asarray(rows, dtype=np.complex128),
                        np.asarray(biases, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Plan (h-independent) and block kit (one per h)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoweringPlan:
    """Everything a lowering decides before h is known.

    sigma is the activation the program's neurons are written against: the
    activation itself, or conj o activation where a lone-derivative strategy
    finds a lone dbar but no lone d.  The chain is lowered against sigma
    with sigma's blocks, and ``lower`` undoes the conj on sigma's assembled
    maps: over an activation that commutes with conj it conjugates every
    odd map (``_conjugate_odd_maps``), else it follows every hidden layer
    with a stage of conjugation blocks at the conj row
    (``_conj_layers``).  That sigma is the conjugate kept on the
    activation's spec (``conjugate_activation``): for a ``conj:X``
    activation it is the shared spec of X, with the atlas and plans X
    already holds.

    The other fields are the rows (``wirtinger.PointRow``) of the points the
    blocks localize at, read from the probe atlases: the identity block's
    and the (z, conj z) pair route's on sigma's atlas, the square block's
    with its square kind, and under a conj sigma the activation's own row
    at the identity point, where ``_conj_layers`` puts its conjugation
    blocks.  Each is None where the strategy needs no such block.  Narrow's
    identity row is optional: sigma's lone-d point where it has one, else
    None, and the pair block crosses the registers.  The blocks read their
    rows and probe nothing.
    """

    strategy: str
    sigma: ActivationSpec
    id_row: Optional[PointRow] = None
    pair_route: Optional[tuple] = None
    square_row: Optional[PointRow] = None
    conj_row: Optional[PointRow] = None

    @property
    def mul_kind(self) -> Optional[str]:
        """The product the multiplication block affords, from the square
        kind; None without a square row."""
        return None if self.square_row is None else _SQUARE_TO_MUL[self.square_row.kind]


def plan_lowering(spec: ActivationSpec, strategy: str,
                  prof: ToleranceProfile = ToleranceProfile()) -> LoweringPlan:
    """Pick sigma and the row of every block point for a strategy from the
    probe atlas; raises StrategyMismatch (or ConstructionError for the pair
    route) when the activation lacks a point the strategy needs.

    Kept on the spec like its probe atlas (a failed plan is not), so a
    process plans once per (spec, strategy, profile): every h of a sweep,
    and every later compile of a shared ``get_activation`` spec, reuses the
    plan and its sigma.  A conj sigma is the conjugate kept on the spec, so
    every plan of one spec shares it and its atlas, scanned once, and the
    sigma of a ``conj:X`` spec reads the atlas of X itself.
    """
    return spec.derived(("plan", strategy, prof), lambda: _plan(spec, strategy, prof))


#: the strategies that need a point with exactly one nonzero first derivative
_LONE_DERIVATIVE = ("NonPoly_NMplus1", "Poly_NMplus4")


def _plan(spec: ActivationSpec, strategy: str, prof: ToleranceProfile) -> LoweringPlan:
    if strategy not in STRATEGIES:
        raise StrategyMismatch(f"unknown strategy {strategy!r}")
    atlas = probe_atlas(spec, prof)
    sigma, conj_row = spec, None
    lone_d, lone_db, _ = atlas.pattern_points()
    if strategy in _LONE_DERIVATIVE and lone_d is None and lone_db is not None:
        sigma, conj_row = _conjugate(spec), lone_db
        atlas = probe_atlas(sigma, prof)
    s_lone_d, _, s_both = atlas.pattern_points()
    if strategy in _LONE_DERIVATIVE and s_lone_d is None:
        raise StrategyMismatch(
            f"{strategy}: needs a point with exactly one nonzero first derivative "
            "that passes the first-order remainder probe")

    if strategy == "NonPoly_NMplus1":
        return LoweringPlan(strategy, sigma, id_row=s_lone_d, conj_row=conj_row)

    if strategy == "NonPoly_2N2Mplus1":
        if s_both is None:
            raise StrategyMismatch(
                f"{strategy}: needs a point with both Wirtinger derivatives nonzero "
                "that passes the first-order remainder probe")
        return LoweringPlan(strategy, sigma, pair_route=(s_both,))

    square = atlas.square_point()
    if square is None:
        raise StrategyMismatch(f"{strategy}: activation is R-affine on the probe grid")
    id_row = None if strategy == "Poly_Wide_2N2Mplus12" else s_lone_d
    return LoweringPlan(strategy, sigma, id_row, atlas.pair_route(), square, conj_row)


@dataclass
class _Kit:
    id_blk: Optional[ShallowBlock] = None     # identity; the pair where the plan has none
    pair_blk: Optional[ShallowBlock] = None   # width-2 (z, conj z)
    mul_blk: Optional[ShallowBlock] = None
    mul_f0: complex = 0j                      # sigma at the multiplication block's point


def _build_kit(plan: LoweringPlan, h: float) -> _Kit:
    """Build the plan's blocks at localization scale h from its rows: the
    identity and pair blocks at h, the square block at sqrt(h), or at h
    under Poly_Wide_2N2Mplus12.  Without an identity row, the first output
    of the pair block is the identity crossing.  The blocks are sigma's, so
    the kit's stages are written against sigma."""
    kit = _Kit()
    # The serialized poly variants (Narrow, NMplus4) cross the running
    # accumulator through first-order blocks whose per-layer drift is O(h);
    # pairing that drift with the square block's h^-2 post-scale would leave
    # an h-independent error floor, so the square scale is slaved to sqrt(h)
    # there (the proof fixes the multiplication approximant first and shrinks
    # the identity blocks afterwards; sqrt coupling keeps the sweep
    # one-dimensional).
    if plan.square_row is not None:
        sq_h = h if plan.strategy == "Poly_Wide_2N2Mplus12" else float(np.sqrt(h))
        kit.mul_blk = mul_block(plan.square_row, sq_h)
        kit.mul_f0 = plan.square_row.f0
    if plan.id_row is not None:
        kit.id_blk = identity_block(plan.id_row, h)
    if plan.pair_route is not None:
        kit.pair_blk = routed_pair_block(plan.pair_route, h)
    if kit.id_blk is None:
        kit.id_blk = kit.pair_blk
    return kit


# ---------------------------------------------------------------------------
# Strategy bodies
# ---------------------------------------------------------------------------


def _lower_shallow(program: RegisterProgram, kit: _Kit) -> list:
    n, m = program.input_dim, program.output_dim
    s = n + m + 1
    iu = n
    rows = program.layers
    loads, load_bias, flush = rows[:, :n], rows[:, n], rows[:, n + 1:]
    init = np.eye(s, n, dtype=np.complex128)
    init[iu, :] = loads[0]
    init_b = np.zeros(s, dtype=np.complex128)
    init_b[iu] = load_bias[0]

    # Every program layer crosses the registers through the same blocks and
    # applies the activation to u, so the hidden stage is built once; only
    # the transitions carry a layer's flush and reload, and they are built
    # as one stack.
    placements = [(kit.id_blk, [i], [i]) for i in range(s)]
    placements[iu] = (_RAW, [iu], [iu])
    stage = _stage(placements, s, np.zeros(s))

    # the transition after layer k flushes it and reloads u with layer k+1's
    # preactivation; after the last layer u is left at 0
    trans = np.zeros((len(flush), s, s), dtype=np.complex128)
    trans[:, :n, :n] = np.eye(n)
    trans[:, n + 1:, n + 1:] = np.eye(m)
    trans[:, n + 1:, iu] = flush
    trans[:-1, iu, :n] = loads[1:]
    trans_b = np.zeros((len(flush), s), dtype=np.complex128)
    trans_b[:-1, iu] = load_bias[1:]
    return [_affine(init, init_b), stage, Layers(stage, AffineArrays(trans, trans_b)),
            _end_map(program, s)]


def _end_map(program: RegisterProgram, s: int) -> AffineArrays:
    """Read the m output registers, the last m slots, and add the end bias."""
    m = program.output_dim
    return _affine(np.eye(m, s, s - m), program.end_bias)


def _flush_map(lay: FlushLayer, s: int, iw: int, iv: int) -> AffineArrays:
    """Add coeff * w to output register dst and reset w to 1."""
    trans = np.eye(s, dtype=np.complex128)
    trans_b = np.zeros(s, dtype=np.complex128)
    trans[iw, iw] = 0
    trans_b[iw] = 1
    trans[iv + lay.dst, iw] = lay.coeff
    return _affine(trans, trans_b)


def _load_map(s: int, iw: int, src: int) -> AffineArrays:
    """Overwrite w with slot src: a chain's first product mul(x, 1)."""
    trans = np.eye(s, dtype=np.complex128)
    trans[iw, iw] = 0
    trans[iw, src] = 1
    return _affine(trans, np.zeros(s))


def _emit_mul_ladder(pieces: list, kit: _Kit, stage: Stage, s: int, p: int,
                     op_idx: int, iw: int):
    """w <- operand * w as an inner register program over the K neurons of
    the multiplication block (value sum_k c_k y_k + c_bias), p neurons per
    hidden layer.  The state widens by an accumulator (slot s) and p compute
    slots (s + 1 ..).  The load map puts the first p neurons'
    preactivations into the compute slots; the map after each hidden layer
    (``stage``) but the last accumulates their outputs and loads the next
    p; the exit map after the last writes the block value back into w.  So
    a product takes ceil(K / p) hidden layers.  Every neuron has the same
    pre bias z0; a compute slot with no neuron left in the last group reads
    z0 alone and has no weight in the exit map.

    Since the c_k scale like h^-2, the accumulator holds the sum rescaled by
    lam = 1 / max(1, max|c_k|) and centred by sigma(z0), the output at z0:
    it gains lam c_k (y_k - sigma(z0)) per neuron, so the values crossing
    the identity blocks stay O(1).  The exit map undoes both exactly.
    """
    blk = kit.mul_blk
    rows, z0, coeffs = blk.pre.matrix, blk.pre.bias[0], blk.post.matrix[0]
    rho0 = kit.mul_f0
    lam = 1.0 / max(1.0, float(np.max(np.abs(coeffs))))
    i_acc, cmp = s, slice(s + 1, s + 1 + p)
    groups = [range(k, min(k + p, len(coeffs))) for k in range(0, len(coeffs), p)]

    def load(m, b, group):
        b[cmp] = z0
        for q, k in enumerate(group, s + 1):
            m[q, op_idx], m[q, iw] = rows[k]

    enter = np.eye(s + 1 + p, s, dtype=np.complex128)
    enter_b = np.zeros(s + 1 + p, dtype=np.complex128)
    load(enter, enter_b, groups[0])
    pieces.append(_affine(enter, enter_b))

    for group, following in zip(groups, groups[1:]):
        pieces.append(stage)
        step = np.eye(s + 1 + p, dtype=np.complex128)
        step_b = np.zeros(s + 1 + p, dtype=np.complex128)
        for q, k in enumerate(group, s + 1):
            step[i_acc, q] = lam * coeffs[k]
        # summed from the first term, not from 0, so that a lone neuron's
        # term keeps its bits (0 + -0 is +0)
        drift = [-lam * coeffs[k] * rho0 for k in group]
        step_b[i_acc] = sum(drift[1:], drift[0])
        step[cmp, cmp] = 0
        load(step, step_b, following)
        pieces.append(_affine(step, step_b))

    pieces.append(stage)
    last = groups[-1]
    exit_m = np.eye(s, s + 1 + p, dtype=np.complex128)
    exit_b = np.zeros(s, dtype=np.complex128)
    exit_m[iw, iw] = 0
    exit_m[iw, i_acc] = 1.0 / lam
    for q, k in enumerate(last, s + 1):
        exit_m[iw, q] = coeffs[k]
    exit_b[iw] = complex(blk.post.bias[0]) + rho0 * np.sum(coeffs[:last.start])
    pieces.append(_affine(exit_m, exit_b))


def _lower_poly(program: RegisterProgram, kit: _Kit, strategy: str) -> list:
    """Registers (z_1..z_n, conjugates, w, v_1..v_m), w starting at 1.

    Wide and Narrow keep conj z_1..conj z_n and rebuild each pair (z, conj z)
    from the z slot by a pair block in every hidden layer.  NMplus4 keeps a
    single conjugation register g, crossed by an identity block and
    refreshed from z_i by one pair block when an operand needs conj z_i.
    Wide applies the multiplication block inline; Narrow and NMplus4 run it
    as an inner register program (``_emit_mul_ladder``), whose hidden stage
    also crosses the accumulator and gives the rest of the width budget to
    compute slots, one raw neuron each.  An output that no flush has
    written yet holds 0, which the stage's zero bias writes, so the ladder
    leaves it uncrossed and gives its block's width to compute slots too,
    but only where that lowers ceil(K / p): otherwise the stage is the one
    that crosses every output.
    A product met while w holds exactly 1 (after T_init or a flush) is
    neither: it is a load (``_load_map``) of the slot holding mul(x, 1),
    x's own under mul1 and mul2 and conj x's under mul3, after a refresh of
    g where that is a conjugate under NMplus4.
    """
    n, m = program.input_dim, program.output_dim
    pairs = strategy != "Poly_NMplus4"
    s = (2 * n if pairs else n + 1) + m + 1
    iw, iv = s - m - 1, s - m

    def inputs(refresh=None):
        """The placements on the z slots; a pair block also rebuilds a
        conjugate: every one with ``pairs``, else g from z_refresh."""
        return [(kit.pair_blk, [q], [q, n + q if pairs else n]) if pairs or q == refresh
                else (kit.id_blk, [q], [q]) for q in range(n)]

    def registers(refresh=None, op_idx=None, outputs=range(m)):
        """The placements of the registers, in slot order, of the outputs
        among them only those in ``outputs``; given ``op_idx`` (Wide), w
        crosses the multiplication block with that operand."""
        placed = inputs(refresh)
        if not pairs and refresh is None:
            placed.append((kit.id_blk, [n], [n]))
        if op_idx is None:
            placed.append((kit.id_blk, [iw], [iw]))
        else:
            placed.append((kit.mul_blk, [op_idx, iw], [iw]))
        return placed + [(kit.id_blk, [iv + j], [iv + j]) for j in outputs]

    def crossing(outputs):
        """The placements of a ladder stage's registers, the outputs among
        them only those in ``outputs``, and of the accumulator, which
        crosses like a register; and p, the budget left to compute slots."""
        crossed = registers(outputs=outputs) + [(kit.id_blk, [s], [s])]
        return crossed, strategy_width_budget(strategy, n, m) - sum(
            blk.width for blk, _, _ in crossed)

    ladders = {}     # (stage, p) of each tuple of crossed outputs

    def ladder(written):
        """The stage and p of a ladder run while the outputs in ``written``
        hold flushed values, built once per tuple of crossed outputs."""
        outputs, every = tuple(sorted(written)), tuple(range(m))
        layers = [-(-kit.mul_blk.width // crossing(o)[1]) for o in (outputs, every)]
        if layers[0] == layers[1]:
            outputs = every
        if outputs not in ladders:
            crossed, p = crossing(outputs)
            computes = [(_RAW, [q], [q]) for q in range(s + 1, s + 1 + p)]
            ladders[outputs] = _stage(crossed + computes, s + 1 + p, np.zeros(s + 1 + p)), p
        return ladders[outputs]

    # T_init: (z, conj z or g = 0, w = 1, v = 0) built by one hidden layer
    init_b = np.zeros(s)
    init_b[iw] = 1
    pieces = [_stage(inputs(), n, init_b)]

    written = set()  # the outputs a flush has written
    conj_src = None
    w_is_one = True
    for lay in program.layers:
        if isinstance(lay, FlushLayer):
            pieces.append(_flush_map(lay, s, iw, iv))
            written.add(lay.dst)
            w_is_one = True
            continue
        side, i = lay.operand
        if w_is_one and program.mul_kind == "mul3":
            side = "zbar" if side == "z" else "z"   # mul3(x, 1) = conj x
        if not pairs and side == "zbar" and conj_src != i:
            pieces.append(_stage(registers(refresh=i), s, np.zeros(s)))
            conj_src = i
        op_idx = i if side == "z" else (n + i if pairs else n)

        if w_is_one:
            pieces.append(_load_map(s, iw, op_idx))
            w_is_one = False
            continue
        if strategy == "Poly_Wide_2N2Mplus12":
            pieces.append(_stage(registers(op_idx=op_idx), s, np.zeros(s)))
            continue
        stage, p = ladder(written)
        _emit_mul_ladder(pieces, kit, stage, s, p, op_idx, iw)

    pieces.append(_end_map(program, s))
    return pieces


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def assemble_pieces(pieces: list, activation_id) -> Cvnn:
    """Fuse the alternating affine/stage chain into a strict network.  A
    Layers piece is fused as stacks: its transitions with the post of the
    stage crossed before them, then those with the stage's pre, two
    batched products.  Consecutive maps of one shape form one run of the
    network, checked once for non-finite entries."""
    pending = None
    maps = []
    for obj in pieces:
        if isinstance(obj, AffineArrays):
            pending = obj if pending is None else fuse_arrays(obj, pending)
        elif isinstance(obj, Stage):
            maps.append(obj.pre if pending is None else fuse_arrays(obj.pre, pending))
            pending = obj.post
        else:
            if pending is not obj.stage.post:
                raise StrategyMismatch("a Layers piece must follow its stage's first crossing")
            crossed = fuse_arrays(obj.trans, pending)
            if len(crossed.matrix) > 1:
                maps.append(fuse_arrays(obj.stage.pre,
                                        AffineArrays(crossed.matrix[:-1], crossed.bias[:-1])))
            pending = AffineArrays(crossed.matrix[-1], crossed.bias[-1])
    if pending is None:
        raise StrategyMismatch("no affine maps produced")
    maps.append(pending)
    if len(maps) < 2:
        raise StrategyMismatch("lowering produced a purely affine map; nothing to lower")
    return Cvnn(maps, activation_id)


def _conjugate_odd_maps(net: Cvnn) -> Cvnn:
    """sigma's network as one over act, where sigma = conj o act and act
    commutes with conj: act(t) = conj sigma(t) and act(conj t) = sigma(t),
    and conj(A) conj(x) + conj(b) = conj(A x + b).  So with every odd map
    conjugated, each odd hidden layer reads sigma's network's input and
    gives the conjugate of its output, each even one reads the conjugate
    and gives the output itself, and the last map reads the output it is
    written for, since ``lower_pieces`` gives sigma's chain an even count
    of hidden layers.  The odd maps are conjugated on copies of sigma's
    runs, which are not checked again: a conjugate of a finite entry is
    finite."""
    runs, k = [], 0
    for run in net.runs:
        run = tuple(a.copy() for a in run)
        odd = slice((k + 1) % 2, None, 2)
        for a in run:
            np.conjugate(a[odd], out=a[odd])
            a.setflags(write=False)
        runs.append(run)
        k += len(run[0])
    return _cvnn_of_checked_runs(tuple(runs), net.activation)


def _conj_layers(maps, spec: ActivationSpec, row: PointRow, h: float) -> list:
    """sigma's network's maps as those of one over act, where sigma = conj o
    act: each hidden layer, now of act, is followed by one stage of
    conjugation blocks at the row's lone-dbar point, one block per unit,
    whose output is conj act(t) = sigma(t) up to the blocks' Taylor
    remainder.  sigma's L maps become 2L - 1: the stage's pre after each
    hidden layer, and each later map fused with the stage's post.

    A unit's remainder at its nominal output y0 is a constant; since the
    consuming map's coefficients scale like 1/h, that constant would not
    vanish with h.  It is computed exactly from two activation evaluations
    and taken out of the post bias, leaving only the O(h)-decaying
    input-dependent remainder.  y0 is act of the unit's pre-activation in
    sigma's network at input 0, from one forward pass of that point.

    The network built from these maps is checked again: a fused map's
    products can overflow where sigma's maps are finite."""
    blk = conj_block(row, h)
    cc = 1.0 / (h * row.dbar)
    out = [maps[0]]
    cur = np.zeros(maps[0].in_dim, dtype=np.complex128)
    for a, following in zip(maps, maps[1:]):
        y0 = spec(eval_affine(a, cur))
        cur = np.conj(y0)                  # sigma at the pre-activation
        theta0 = (spec(row.z0 + h * y0) - row.f0 - row.dbar * np.conj(h * y0)) * cc
        width = len(y0)
        stage = _stage([(blk, [i], [i]) for i in range(width)], width, np.zeros(width))
        post = AffineArrays(stage.post.matrix, stage.post.bias - theta0)
        out += [stage.pre, fuse_arrays(following, post)]
    return out


def _hidden_layers(pieces: list) -> int:
    """The hidden layers of the network the pieces assemble into."""
    return sum(1 if isinstance(obj, Stage) else len(obj.trans.matrix) - 1
               for obj in pieces if not isinstance(obj, AffineArrays))


def eval_pieces(pieces: list, spec: ActivationSpec, z) -> np.ndarray:
    """Evaluate the unfused chain (oracle for fusion invariance)."""
    cur = np.asarray(z, dtype=np.complex128)

    def cross(stage, cur):
        return eval_affine(stage.post, spec(eval_affine(stage.pre, cur)))

    for obj in pieces:
        if isinstance(obj, AffineArrays):
            cur = eval_affine(obj, cur)
        elif isinstance(obj, Stage):
            cur = cross(obj, cur)
        else:
            for k, trans in enumerate(zip(*obj.trans)):
                if k:
                    cur = cross(obj.stage, cur)
                cur = eval_affine(AffineArrays(*trans), cur)
    return cur


def lower_pieces(program: RegisterProgram, spec: ActivationSpec, strategy: str,
                 h: float, prof: ToleranceProfile = ToleranceProfile()):
    """Strategy dispatch; returns the pieces without fusing: the chain
    written against the plan's sigma.  Where a conj sigma's activation
    commutes with conj, an odd count of hidden layers is followed by one
    more stage, which crosses the outputs through the kit's identity blocks,
    so that ``_conjugate_odd_maps`` can turn the network into one over
    act."""
    if strategy not in STRATEGIES:
        raise StrategyMismatch(f"unknown strategy {strategy!r}")
    if strategy.startswith("NonPoly") and program.family != "shallow":
        raise StrategyMismatch(f"{strategy} needs a shallow-family program")
    if strategy.startswith("Poly") and program.family != "poly":
        raise StrategyMismatch(f"{strategy} needs a poly-family program")
    plan = plan_lowering(spec, strategy, prof)
    if program.family == "poly" and program.mul_kind != plan.mul_kind:
        raise StrategyMismatch(
            f"program was planned for {program.mul_kind} but the activation "
            f"affords {plan.mul_kind}")
    kit = _build_kit(plan, h)
    if program.family == "shallow":
        pieces = _lower_shallow(program, kit)
    else:
        pieces = _lower_poly(program, kit, strategy)
    if plan.sigma is not spec and spec.conj_equivariant and _hidden_layers(pieces) % 2:
        m = program.output_dim
        pieces.append(_stage([(kit.id_blk, [j], [j]) for j in range(m)], m, np.zeros(m)))
    return pieces


def lower(program: RegisterProgram, spec: ActivationSpec, strategy: str,
          h: float, prof: ToleranceProfile = ToleranceProfile()) -> Cvnn:
    """Lower a register program to a strict narrow network at localization
    scale h.  The evaluation error against the ideal program vanishes as
    h -> 0 on any fixed box (down to the float cancellation floor)."""
    pieces = lower_pieces(program, spec, strategy, h, prof)
    net = assemble_pieces(pieces, spec.activation_id)
    plan = plan_lowering(spec, strategy, prof)
    if plan.sigma is not spec:
        net = (_conjugate_odd_maps(net) if spec.conj_equivariant
               else Cvnn(_conj_layers(net.affine_maps, spec, plan.conj_row, h),
                         net.activation))
    budget = strategy_width_budget(strategy, program.input_dim, program.output_dim)
    w = width_of(net)
    if w > budget:
        raise AssertionError(
            f"width bound violated: {strategy} produced width {w} > budget {budget}")
    return net


#: the lowering strategy each universal verdict certifies
_CERTIFIED = {
    "UniversalNonPoly_NMplus1": "NonPoly_NMplus1",
    "UniversalNonPoly_2N2Mplus1": "NonPoly_2N2Mplus1",
    "UniversalPoly_NMplus4": "Poly_NMplus4",
    "UniversalPoly_2N2Mplus5": "Poly_Narrow_2N2Mplus5",
}


def default_strategy(verdict: str) -> str:
    """Map a classification verdict to the lowering strategy it certifies.
    A UniversalNonPoly_NMplus1 witness may have its lone derivative in d or
    in dbar; the plan picks sigma to match."""
    if verdict not in _CERTIFIED:
        raise StrategyMismatch(f"verdict {verdict!r} does not certify a lowering strategy")
    return _CERTIFIED[verdict]
