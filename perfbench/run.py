"""Benchmark launcher: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  kmsolve is imported from the
checkout's own `src/`, never from an installed copy; without it the
launcher exits with code 2 and prints no result.  BLAS threads are
pinned to 1 (at most nproc) before numpy loads, so every run uses the
same single-threaded BLAS and its rounding; the output records the
environment so numbers from another one show as such.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_checkout_kmsolve() -> bool:
    sys.dont_write_bytecode = True
    sys.path[:0] = [SRC, ROOT]
    try:
        import kmsolve
    except ImportError as exc:
        print(f"error: cannot import kmsolve from {SRC}: {exc}", file=sys.stderr)
        return False
    where = os.path.dirname(os.path.abspath(kmsolve.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"error: kmsolve was imported from {where}, not from {SRC}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    if not _import_checkout_kmsolve():
        sys.exit(2)
    from perfbench.harness import main

    sys.exit(main())
