"""One sha256 over a benchmark workload's answers: python3 tools/fingerprint.py WORKLOAD SEED

Builds one pass of WORKLOAD's jobs at SEED through `perfbench.workloads`,
runs each job once and prints a single hex digest.  Two checkouts whose
digests agree produced the same bits on every job, so a change meant to
be bit-identical is checked by running this on both and comparing.

* small-exact, lasso-perturbed: per job, every `RunResult` array (dtype,
  shape and bytes; `states` entry by entry) plus `stop_reason`,
  `iterations` and `max_state_norm`.
* cli-report: per job, the exit code, the captured stdout and the bytes
  of the CSV the job wrote.

kmsolve and perfbench are imported from this checkout, and BLAS is
pinned to one thread before numpy loads, as `perfbench/run.py` does.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import hashlib  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402

RESULT_ARRAYS = ("z", "residuals", "err_norms", "alphas", "lambdas", "step_norms", "dists")


def _feed(h, tag: str, data: bytes) -> None:
    # length-prefixed, so no two different field sequences hash alike
    h.update(tag.encode() + b"\0" + len(data).to_bytes(8, "little") + data)


def _feed_array(h, tag: str, a) -> None:
    if a is None:
        _feed(h, tag, b"None")
        return
    a = np.asarray(a)
    _feed(h, tag, f"{a.dtype.str}{a.shape}".encode() + b"\0" + a.tobytes())


def _feed_result(h, run) -> None:
    for name in RESULT_ARRAYS:
        _feed_array(h, name, getattr(run, name))
    if run.states is None:
        _feed(h, "states", b"None")
    else:
        _feed(h, "states", str(len(run.states)).encode())
        for s in run.states:
            _feed_array(h, "state", s)
    _feed(h, "stop_reason", run.stop_reason.encode())
    _feed(h, "iterations", str(run.iterations).encode())
    _feed(h, "max_state_norm", float(run.max_state_norm).hex().encode())


def fingerprint(workload: str, seed: int) -> str:
    n_jobs = workloads.JOBS_PER_PASS[workload]
    h = hashlib.sha256()
    _feed(h, "workload", f"{workload} seed {seed} jobs {n_jobs}".encode())
    if workload == "cli-report":
        with tempfile.TemporaryDirectory() as workdir:
            csv_path = os.path.join(workdir, "run.csv")  # where every cli-report job writes its CSV
            for job in workloads.setup_cli_report(seed, n_jobs, workdir):
                code, stdout = job.run()
                with open(csv_path, "rb") as fh:
                    csv = fh.read()
                _feed(h, "code", str(code).encode())
                _feed(h, "stdout", stdout.encode())
                _feed(h, "csv", csv)
    else:
        setup = {
            "small-exact": workloads.setup_small_exact,
            "lasso-perturbed": workloads.setup_lasso_perturbed,
        }[workload]
        for job in setup(seed, n_jobs):
            _feed_result(h, job.run())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in workloads.WORKLOADS:
        print(f"usage: fingerprint.py {{{','.join(workloads.WORKLOADS)}}} SEED", file=sys.stderr)
        return 2
    print(fingerprint(argv[0], int(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
