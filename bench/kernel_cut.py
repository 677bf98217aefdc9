"""Refit ``mops.cactus._PURE_MAX_WORK``: pure-Python against numpy parity kernels, by work bucket.

Run from the root of a checkout (numpy must be installed):

    python3 bench/kernel_cut.py                  # the full grid, about 20 s
    python3 bench/kernel_cut.py --per-cell 20    # a quick, noisier look

The grid is random graphs drawn from ``random.Random(2024)``: sparse
G(n, c/n), n in {16, 20, 24, 36, 40, 50, 60}, c in {2.5, 3.5, 4, 5};
G(n, p), n 9-16, p in {0.3, 0.4, 0.5}; and dense G(n, p), n 16-56 in steps
of 4, p in {0.3, 0.4, 0.5}. The dense cells reach past n = 40 because up to
there no bucket's median crosses the 1.5 below. Phase 1 runs on each graph,
and every block it sends to the algebra (an uncertified block of the
triangle graph H, in its own coordinates) is kept once. Greedy certifies
most dense blocks, so each bucket above a work of 5 10^5 holds 2-6 blocks,
and the cut moves by a bucket or two from run to run: take the lowest of
a few runs. On each block both kernel modules run the whole algebra of
one attempt, assembly, pivot columns and witness scan, on the same draws,
in turn; the time of each is its best of ``--reps`` runs, numpy's warm.

The script prints, for each bucket of the work bound ``2 T n^2`` (T pairs
on n vertices), the number of blocks and the median and maximum of pure /
numpy time. The cut it implies is the top of the last bucket, counting up
from the smallest, in which that median and every one below it stays
within 1.5: under it numpy's warm speed-up is worth less than its import
time and its 12-13 MiB. Buckets are a quarter of a power of two wide.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mops._gfp as gfp  # noqa: E402
import mops._gfp_pure as gfp_pure  # noqa: E402
import mops.cactus as cactus  # noqa: E402
from mops.generators import gen_random  # noqa: E402

RATIO = 1.5  # the largest median pure / numpy time a bucket under the cut may have


def grid() -> list[tuple[int, float]]:
    cells = [(n, c / n) for n in (16, 20, 24, 36, 40, 50, 60) for c in (2.5, 3.5, 4, 5)]
    cells += [(n, p) for n in range(9, 17) for p in (0.3, 0.4, 0.5)]
    cells += [(n, p) for n in range(16, 57, 4) for p in (0.3, 0.4, 0.5)]
    return cells


def algebra_blocks(per_cell: int) -> list[cactus.ParityInstance]:
    """Every distinct instance phase 1 sends to ``matroid_parity_max`` on the grid."""
    found: dict[tuple, cactus.ParityInstance] = {}

    def record(inst, seed):
        found.setdefault((inst.n, inst.triangles), inst)
        return []  # keeps no pair of the block: the run goes on, and only the block is wanted

    rng = random.Random(2024)
    original = cactus.matroid_parity_max
    cactus.matroid_parity_max = record
    try:
        for n, p in grid():
            for _ in range(per_cell):
                cactus.max_triangular_cactus(gen_random(n, p, rng.randrange(2**32)), rng.randrange(2**32))
    finally:
        cactus.matroid_parity_max = original
    return list(found.values())


def algebra_times(inst: cactus.ParityInstance, xs: list[int], reps: int) -> tuple[float, float]:
    """Best times of the pure and the numpy kernels, run in turn so both see the same machine."""
    best = [float("inf")] * 2
    for _ in range(reps):
        for at, kernels in enumerate((gfp_pure, gfp)):
            start = time.perf_counter()
            y = kernels._assemble(inst, xs, range(len(xs)))
            kernels._witness_by_inverse(inst, xs, y, kernels._pivots(y))
            best[at] = min(best[at], time.perf_counter() - start)
    return best[0], best[1]


def bucket(work: int) -> tuple[int, int]:
    """The quarter-power-of-two bucket ``(low, high]`` holding ``work``."""
    top = 1 << max(2, (work - 1).bit_length())
    step = top // 8
    high = top // 2 + step * -(-(work - top // 2) // step)
    return high - step, high


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-cell", type=int, default=150, help="graphs per grid cell (default 150)")
    parser.add_argument("--reps", type=int, default=7, help="runs per block and kernel; the best counts (default 7)")
    args = parser.parse_args(argv)
    blocks = algebra_blocks(args.per_cell)
    ratios: dict[tuple[int, int], list[float]] = {}
    for index, inst in enumerate(sorted(blocks, key=lambda b: (b.n, b.triangles))):
        rng = random.Random(index)
        xs = [rng.randrange(1, cactus._PRIME) for _ in inst.triangles]
        pure, numpy = algebra_times(inst, xs, args.reps)
        ratios.setdefault(bucket(2 * len(inst.triangles) * inst.n**2), []).append(pure / numpy)
    print(f"{len(blocks)} distinct blocks; pure / numpy time of the algebra, best of {args.reps} each")
    print(f"{'work 2 T n^2':>20}  {'blocks':>6}  {'median':>6}  {'max':>6}")
    cut, holds = 0, True
    for low, high in sorted(ratios):
        median = statistics.median(ratios[low, high])
        holds = holds and median <= RATIO
        cut = high if holds else cut
        print(f"{low:>9}-{high:<10}  {len(ratios[low, high]):>6}  {median:>6.2f}  {max(ratios[low, high]):>6.2f}")
    print(f"cut: {cut} (the top of the last bucket from the bottom whose median is at most {RATIO})")
    print(f"_PURE_MAX_WORK: {cactus._PURE_MAX_WORK}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
