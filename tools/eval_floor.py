"""Print the cost of one hidden layer of ``core.eval_cvnns`` on a deep narrow
network, next to the bare matmul + bias + activation loop over the same maps.

    python tools/eval_floor.py

The network is the shape ``deepnarrow compile`` gives the cardioid's
1,000-feature NonPoly_NMplus1 fit of zzbar on the unit box (seed 1): depth
1,001, width 3.  It is evaluated on the 18^2 lattice of that box, alone
(H = 1) and with the five other networks of its sweep (H = 6).  Each figure
is the median of 15 timed passes, after one warm-up, in microseconds per
hidden layer of the pass (one layer of H = 6 covers all six networks).  The
bare loop stacks the maps of each layer before it is timed and tests no
value for finiteness; ``eval_cvnns`` does both.

The figures are measured in a subprocess with one BLAS thread whatever the
caller's environment, as ``tools/error_matrix.py`` computes its matrix.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
from error_matrix import one_thread_stdout

FEATURES = 1000
GRID = 18
REPEATS = 15


def _median_us_per_layer(run, layers: int) -> float:
    run()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / layers * 1e6


def _bare_loop(nets, z, act):
    """The network's maps with the activation between them, and nothing
    else: per layer one matmul (batched over the H networks), one bias add
    and, before the last map, one activation call."""
    layers = [(np.stack([m.matrix.T for m in layer]), np.stack([m.bias for m in layer])[:, None])
              for layer in zip(*(net.affine_maps for net in nets))]
    if len(nets) == 1:
        layers = [(mat[0], bias[0, 0]) for mat, bias in layers]
    *hidden, (last_mat, last_bias) = layers

    def run():
        cur = z
        for mat, bias in hidden:
            cur = cur @ mat
            cur += bias
            cur = act(cur)
        cur = cur @ last_mat
        cur += last_bias
        return cur

    return run


def floor_table() -> str:
    """The table, measured in this process."""
    from deepnarrow import CompactBox, FitConfig, GridSpec, end_to_end_nonpoly, get_activation
    from deepnarrow.core import depth_of, eval_cvnns, sample_box, width_of
    from deepnarrow.verifier import named_target

    spec = get_activation("cardioid")
    box = CompactBox.square(1, 1.0)
    cfg = FitConfig(num_features=FEATURES, ridge=1e-6, box=box, grid=GridSpec(9), seed=1)
    report = end_to_end_nonpoly(named_target("zzbar"), spec, cfg, "NonPoly_NMplus1")
    z = sample_box(box, GridSpec(GRID))
    best = report.best_net()
    hidden = depth_of(best) - 1
    lines = [f"network: depth {depth_of(best)}, width {width_of(best)}, {len(z)} points, "
             f"one BLAS thread; us per hidden layer, median of {REPEATS}",
             f"{'H':>2}  {'eval_cvnns':>10}  {'bare loop':>10}"]
    for nets in ((best,), report.nets):
        ours = _median_us_per_layer(lambda: eval_cvnns(nets, z, spec.fn), hidden)
        bare = _median_us_per_layer(_bare_loop(nets, z, spec.fn), hidden)
        lines.append(f"{len(nets):>2}  {ours:>10.1f}  {bare:>10.1f}")
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.stdout.write(one_thread_stdout(
        "import sys, eval_floor; sys.stdout.write(eval_floor.floor_table())"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
