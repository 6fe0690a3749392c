"""Complex linear algebra core: affine maps, strict alternating networks,
compact boxes, and grid sampling.

A network here is the alternating composition of complex-affine maps and an
elementwise activation,

    V_L o act^(xW) o ... o act^(xW) o V_1 : C^n -> C^m,

stored as stacks of its affine maps, one per run of maps of one shape, plus
an activation identifier.  Complex scalars are double-precision pairs
throughout (``numpy.complex128``); no arbitrary precision.  All values are
immutable after construction, so they are safe to share between threads,
and evaluation is pure.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, EvaluationFailure

__all__ = [
    "ComplexAffineMap",
    "AffineArrays",
    "Cvnn",
    "CompactBox",
    "GridSpec",
    "eval_affine",
    "eval_cvnn",
    "eval_cvnns",
    "fuse_affine",
    "fuse_arrays",
    "width_of",
    "depth_of",
    "max_coeff",
    "hidden_widths",
    "sample_box",
    "check_sample_budget",
    "MAX_SAMPLE_POINTS",
    "cvnn_to_json",
    "cvnn_from_json",
]


def _as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"matrix must be 2-d, got shape {a.shape}")
    return a


def _as_batch(values, count: int) -> np.ndarray:
    """Values of a function on count points as an (count, m) complex array:
    a 1-d result is one column.  Raises DimensionMismatch when the rows are
    not count."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[0] != count:
        raise DimensionMismatch(f"expected {count} rows, got {v.shape[0]}")
    return v


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite entries in {what}")


@dataclass(frozen=True)
class ComplexAffineMap:
    """A map z -> A z + b with A in C^(out x in), b in C^out."""

    matrix: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        b = np.asarray(self.bias, dtype=np.complex128)
        if b.ndim != 1:
            raise DimensionMismatch(f"bias must be 1-d, got shape {b.shape}")
        if b.shape[0] != m.shape[0]:
            raise DimensionMismatch(
                f"bias length {b.shape[0]} != matrix rows {m.shape[0]}"
            )
        _check_finite(m, "affine matrix")
        _check_finite(b, "affine bias")
        m = m.copy()
        b = b.copy()
        m.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]


def eval_affine(amap: ComplexAffineMap, z) -> np.ndarray:
    """Evaluate A z + b.  Accepts a single vector (in_dim,) or a batch (N, in_dim)."""
    zv = np.asarray(z, dtype=np.complex128)
    if zv.ndim == 1:
        if zv.shape[0] != amap.in_dim:
            raise DimensionMismatch(f"input length {zv.shape[0]} != in_dim {amap.in_dim}")
        return amap.matrix @ zv + amap.bias
    if zv.ndim == 2:
        if zv.shape[1] != amap.in_dim:
            raise DimensionMismatch(f"input width {zv.shape[1]} != in_dim {amap.in_dim}")
        out = zv @ amap.matrix.T
        out += amap.bias
        return out
    raise DimensionMismatch(f"input must be 1-d or 2-d, got shape {zv.shape}")


class AffineArrays(NamedTuple):
    """A map z -> A z + b, or a stack of L maps ((L, out, in) and (L, out)),
    held as bare complex128 arrays: neither copied nor checked.  Lowering
    builds its intermediate pieces this way; the network it assembles from
    them checks each of its runs once."""

    matrix: np.ndarray
    bias: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[-2]


def fuse_arrays(a, b) -> AffineArrays:
    """Compose a o b (either may be a ComplexAffineMap or AffineArrays, and a
    stack) into bare arrays, unvalidated; each map of a stacked result is bit
    for bit the one its unstacked maps give."""
    if a.in_dim != b.out_dim:
        raise DimensionMismatch(f"cannot fuse: a.in_dim {a.in_dim} != b.out_dim {b.out_dim}")
    return AffineArrays(a.matrix @ b.matrix, (a.matrix @ b.bias[..., None])[..., 0] + a.bias)


def fuse_affine(a: ComplexAffineMap, b: ComplexAffineMap) -> ComplexAffineMap:
    """Compose a o b into a single affine map (composition of affines is affine)."""
    return ComplexAffineMap(*fuse_arrays(a, b))


@dataclass(frozen=True)
class ActivationId:
    """Name plus parameters identifying a catalog activation."""

    name: str
    params: tuple = ()

    def as_dict(self) -> dict:
        return dict(self.params)


def _runs_of(maps) -> tuple:
    """Consecutive maps of one shape as runs: a read-only copy of their
    (L, out, in) matrices and (L, out) biases each.  Every item of ``maps``
    has a ``matrix`` and a ``bias``, one (out, in) map or a stack of them."""
    stacks = []
    for amap in maps:
        m, b = (np.asarray(a, dtype=np.complex128) for a in (amap.matrix, amap.bias))
        m, b = (m, b) if m.ndim == 3 else (m[None], b[None])
        if m.ndim != 3 or b.shape != m.shape[:2]:
            raise DimensionMismatch(f"matrix {m.shape} and bias {b.shape} are no affine maps")
        stacks.append((m, b))
    runs = []
    for _, group in itertools.groupby(stacks, key=lambda mb: mb[0].shape[1:]):
        run = tuple(np.concatenate(arrays) for arrays in zip(*group))
        for a in run:
            a.setflags(write=False)
        runs.append(run)
    return tuple(runs)


def _check_run(matrices: np.ndarray, biases: np.ndarray, k: int) -> None:
    """The one finite-check of a run."""
    if not (np.isfinite(matrices).all() and np.isfinite(biases).all()):
        raise ValueError(f"non-finite entries in affine run {k}")


@dataclass(frozen=True, init=False, eq=False)
class Cvnn:
    """Strict alternating network: affine maps with the activation applied
    elementwise to every hidden coordinate between consecutive maps.

    The maps (ComplexAffineMaps or AffineArrays, each one map or a stack)
    are held as ``runs``: per run of consecutive maps of one shape, one
    read-only (L, out, in) matrix stack and one (L, out) bias stack, checked
    for non-finite entries once.  ``affine_maps`` views them map by map.

    Hidden layer widths may differ; the width of the network is the max over
    all layer dimensions including input and output.  Depth is the number of
    affine maps (>= 2).  ``eval_cvnn`` evaluates the network.
    """

    runs: tuple
    activation: ActivationId

    def __init__(self, affine_maps, activation: ActivationId):
        runs = _runs_of(affine_maps)
        if sum(len(m) for m, _ in runs) < 2:
            raise DimensionMismatch("a network needs at least 2 affine maps")
        links = [m.shape[1:] for m, _ in runs if len(m) > 1]
        links += [(a.shape[1], b.shape[2]) for (a, _), (b, _) in zip(runs, runs[1:])]
        for out_dim, in_dim in links:
            if out_dim != in_dim:
                raise DimensionMismatch(
                    f"dimension chain broken: out_dim {out_dim} -> in_dim {in_dim}")
        for k, (m, b) in enumerate(runs):
            _check_run(m, b, k)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "activation", activation)

    @functools.cached_property
    def affine_maps(self) -> tuple:
        """Every map in order, as AffineArrays over slices of the runs."""
        return tuple(AffineArrays(m, b) for ms, bs in self.runs for m, b in zip(ms, bs))

    @property
    def input_dim(self) -> int:
        return self.runs[0][0].shape[2]

    @property
    def output_dim(self) -> int:
        return self.runs[-1][0].shape[1]


def _resolve_activation(net: Cvnn, activation_fn) -> Callable:
    if activation_fn is not None:
        return activation_fn
    from .activations import get_activation

    return get_activation(net.activation.name, net.activation.as_dict())


def eval_cvnns(nets: Sequence[Cvnn], z, activation_fn=None) -> tuple:
    """Evaluate H networks of one shape on (N, in) points, or on (H, N, in),
    in one pass: per layer one batched matmul and one activation call
    (``activation_fn`` overrides the catalog lookup).  Returns (values,
    failed_at): the (H, N, out) values, each network's bit for bit those it
    gives alone; per network the index of the map after which its
    activation first gave a non-finite value, or -1.  A failed network's
    values are inf, and it changes no other network's."""
    shapes = [[m.shape for m, _ in net.runs] for net in nets]
    if any(shape != shapes[0] for shape in shapes):
        raise DimensionMismatch("networks evaluated together must have one shape")
    act = _resolve_activation(nets[0], activation_fn)
    cur = np.asarray(z, dtype=np.complex128)
    if (cur.ndim not in (2, 3) or cur.shape[-1] != nets[0].input_dim
            or cur.shape[:-2] not in ((), (len(nets),))):
        raise DimensionMismatch(f"input shape {cur.shape} for {len(nets)} networks of "
                                f"input dimension {nets[0].input_dim}")
    failed_at = np.full(len(nets), -1)
    last = depth_of(nets[0]) - 1
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(len(shapes[0])):
            mats = np.stack([net.runs[r][0] for net in nets]).swapaxes(-1, -2)
            biases = np.stack([net.runs[r][1] for net in nets])[:, :, None, :]
            for l in range(mats.shape[1]):
                cur = np.matmul(cur, mats[:, l])
                cur += biases[:, l]
                if k < last:
                    cur = np.asarray(act(cur), dtype=np.complex128)
                    if not np.isfinite(cur.view(np.float64)).all():
                        bad = ~np.isfinite(cur.view(np.float64)).reshape(len(nets), -1).all(axis=1)
                        failed_at[bad & (failed_at < 0)] = k
                        cur[bad] = 0
                k += 1
    cur[failed_at >= 0] = np.inf
    return cur, failed_at


def eval_cvnn(net: Cvnn, z, activation_fn=None) -> np.ndarray:
    """Evaluate the alternating composition at a single point (in_dim,) or a
    batch (N, in_dim): ``eval_cvnns`` of the one network.  ``activation_fn``
    overrides the catalog lookup (it must be vectorized over complex arrays).
    A single point, or a batch of one row, takes the one-row matmul kernel:
    its values can differ in the last bits from that point's inside a
    batch of several rows.

    Raises EvaluationFailure if an activation output is non-finite.
    """
    zv = np.asarray(z, dtype=np.complex128)
    if zv.ndim not in (1, 2):
        raise DimensionMismatch(f"input must be 1-d or 2-d, got shape {zv.shape}")
    values, failed_at = eval_cvnns((net,), np.atleast_2d(zv), activation_fn)
    if failed_at[0] >= 0:
        raise EvaluationFailure(
            f"activation produced non-finite values after affine map {failed_at[0]}")
    return values[0, 0] if zv.ndim == 1 else values[0]


def width_of(net: Cvnn) -> int:
    """Max over all layer dimensions including input and output (unpadded)."""
    return max([net.input_dim] + [m.shape[1] for m, _ in net.runs])


def depth_of(net: Cvnn) -> int:
    return sum(len(m) for m, _ in net.runs)


def max_coeff(net: Cvnn) -> float:
    """The largest modulus of any matrix entry of the network."""
    return float(max(np.max(np.abs(m)) for m, _ in net.runs))


def hidden_widths(net: Cvnn) -> tuple:
    return sum(((m.shape[1],) * len(m) for m, _ in net.runs), ())[:-1]


@dataclass(frozen=True)
class CompactBox:
    """Axis-aligned compact box in C^n: per coordinate a real interval and an
    imaginary interval.  ``intervals`` is a tuple of (re_lo, re_hi, im_lo, im_hi)."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple(tuple(float(x) for x in iv) for iv in self.intervals)
        if not ivs:
            raise ValueError("box needs at least one coordinate")
        for re_lo, re_hi, im_lo, im_hi in ivs:
            if re_lo > re_hi or im_lo > im_hi:
                raise ValueError("interval lo must be <= hi")
        object.__setattr__(self, "intervals", ivs)

    @property
    def n(self) -> int:
        return len(self.intervals)

    @staticmethod
    def square(n: int, half_side: float, center: complex = 0j) -> "CompactBox":
        """[c-r, c+r] + i[c-r, c+r] in every coordinate."""
        c, r = complex(center), float(half_side)
        iv = (c.real - r, c.real + r, c.imag - r, c.imag + r)
        return CompactBox(tuple(iv for _ in range(n)))


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the sup over a box: the uniform lattice with
    ``points_per_axis`` points per real axis or, for ``stride`` s > 1, its
    sub-lattice of the points with indices 0, s, 2s, ... on every real axis.
    Each sub-lattice point is bit-identical to the same point of the full
    lattice, so a maximum over the sub-lattice is a lower bound on the
    maximum over the lattice."""

    points_per_axis: int
    stride: int = 1

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def axis_points(self) -> int:
        """Points per real axis that the spec keeps, ceil(points_per_axis / stride)."""
        return -(-self.points_per_axis // self.stride)


#: Most points ``sample_box`` returns.  The point count p^(2n) grows with the
#: dimension as well as the grid: n = 3 at 18 points per axis would be 3.4e7
#: points, 1.6 GB for the lattice alone before any layer is evaluated.
MAX_SAMPLE_POINTS = 2 ** 22


def check_sample_budget(box: CompactBox, spec: GridSpec) -> int:
    """The number of points ``sample_box(box, spec)`` returns,
    spec.axis_points^(2n); raises ValueError when that is above
    ``MAX_SAMPLE_POINTS``."""
    q = spec.axis_points
    n = box.n
    count = q ** (2 * n)
    if count > MAX_SAMPLE_POINTS:
        nbytes = count * n * np.dtype(np.complex128).itemsize
        raise ValueError(
            f"{q} points per axis over {2 * n} real axes make {count} points "
            f"({nbytes} bytes as complex128), above the budget of "
            f"{MAX_SAMPLE_POINTS} points")
    return count


def sample_box(box: CompactBox, spec: GridSpec) -> np.ndarray:
    """The lattice of ``spec`` on the box as an (N, n) complex array, in
    C order over the 2n real axes (re_1, im_1, re_2, ...).

    Each axis is ``np.linspace(lo, hi, points_per_axis)[::stride]``; at
    stride 1 the lattice covers the corners.  Raises ValueError, before
    allocating, when N = axis_points^(2n) is above ``MAX_SAMPLE_POINTS``.
    """
    p, s = int(spec.points_per_axis), int(spec.stride)
    n = box.n
    count = check_sample_budget(box, spec)
    axes = []
    for re_lo, re_hi, im_lo, im_hi in box.intervals:
        axes.append(np.linspace(re_lo, re_hi, p)[::s])
        axes.append(np.linspace(im_lo, im_hi, p)[::s])
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.empty((count, n), dtype=np.complex128)
    for j in range(n):
        pts[:, j] = mesh[2 * j].ravel() + 1j * mesh[2 * j + 1].ravel()
    return pts


# ---------------------------------------------------------------------------
# JSON serialization.  Floats survive a round trip bit-exactly: json emits the
# shortest decimal representation that parses back to the same double.
# ---------------------------------------------------------------------------


def _c2l(x: complex) -> list:
    return [float(np.real(x)), float(np.imag(x))]


def _l2c(x) -> complex:
    return complex(x[0], x[1])


def _param_value_to_json(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _param_value_from_json(v):
    if isinstance(v, list):
        return _l2c(v)
    return v


def _affine_from_dict(d: dict) -> ComplexAffineMap:
    rows, cols = int(d["rows"]), int(d["cols"])
    flat = np.array([_l2c(x) for x in d["matrix"]], dtype=np.complex128)
    m = flat.reshape(rows, cols)
    b = np.array([_l2c(x) for x in d["bias"]], dtype=np.complex128)
    return ComplexAffineMap(m, b)


def cvnn_to_json(net: Cvnn) -> str:
    doc = {
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "activation": {
            "name": net.activation.name,
            "params": {k: _param_value_to_json(v) for k, v in net.activation.params},
        },
        "affine_maps": [],
    }
    for ms, bs in net.runs:
        length, rows, cols = ms.shape
        mats, biases = (np.ascontiguousarray(a).view(np.float64).reshape(length, -1, 2).tolist()
                        for a in (ms, bs))
        doc["affine_maps"] += [{"rows": rows, "cols": cols, "matrix": m, "bias": b}
                               for m, b in zip(mats, biases)]
    # the document is built fresh from lists and dicts, so it holds no cycle
    return json.dumps(doc, sort_keys=True, check_circular=False)


def cvnn_from_json(text: str) -> Cvnn:
    doc = json.loads(text)
    act = doc["activation"]
    params = tuple(sorted((k, _param_value_from_json(v)) for k, v in act["params"].items()))
    maps = tuple(_affine_from_dict(d) for d in doc["affine_maps"])
    net = Cvnn(maps, ActivationId(act["name"], params))
    if net.input_dim != doc["input_dim"] or net.output_dim != doc["output_dim"]:
        raise DimensionMismatch("serialized dims are inconsistent with the maps")
    return net
