#!/usr/bin/env python3
"""Benchmark the jitted kernels against their pure-numpy fallbacks.

Run:
    python benchmarks/bench_kernels.py [--n 2000000] [--repeats 5]

The same kernels are selected at import time by the IMPUTEBOUNDS_NO_NUMBA
environment variable; this script times both builds directly regardless of
the flag.
"""

import argparse
import time

import numpy as np

from imputebounds import _kernels as K


def best_of(fn, repeats, *args):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def bench(name, np_fn, nb_fn, args, repeats):
    t_np = best_of(np_fn, repeats, *args)
    if nb_fn is not None:
        nb_fn(*args)  # trigger JIT before timing
        t_nb = best_of(nb_fn, repeats, *args)
        ratio = t_np / t_nb if t_nb > 0 else float("inf")
        print(f"{name:<18} numpy {t_np * 1e3:8.2f} ms   numba {t_nb * 1e3:8.2f} ms"
              f"   speedup x{ratio:.2f}")
    else:
        print(f"{name:<18} numpy {t_np * 1e3:8.2f} ms   numba unavailable")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=2_000_000,
                        help="records per kernel call")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.Generator(np.random.Philox(key=[2024, 0]))
    n = args.n

    masses = rng.random(64)
    cdf = np.cumsum(masses / masses.sum())
    u = rng.random(n)

    strata = 32
    width = 8
    cdf_rows = np.ones((strata, width))
    for r in range(strata):
        k = 1 + r % width
        p = rng.random(k)
        cdf_rows[r, :k] = np.cumsum(p / p.sum())
    row_of = rng.integers(0, strata, size=n)

    have = K._HAVE_NUMBA
    print(f"n = {n}, repeats = {args.repeats} (best-of), "
          f"active path: {'numba' if K.using_numba() else 'numpy'}")
    bench("sample_cells", K.sample_cells_np,
          K.sample_cells_nb if have else None, (cdf, u), args.repeats)
    bench("draw_positions", K.draw_positions_np,
          K.draw_positions_nb if have else None, (cdf_rows, row_of, u),
          args.repeats)


if __name__ == "__main__":
    main()
