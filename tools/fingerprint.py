"""One sha256 over a benchmark workload's answers: python3 tools/fingerprint.py [--per-job] WORKLOAD SEED

Builds one pass of WORKLOAD's jobs at SEED through `perfbench.workloads`,
runs each job once and prints a single hex digest.  Two checkouts whose
digests agree produced the same bits on every job, so a change meant to
be bit-identical is checked by running this on both and comparing.

With --per-job it prints one digest per job instead, one line each in job
order, each over that job's fields alone, so a diff of two checkouts'
outputs names the jobs whose answers moved.

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


def _array_field(tag: str, a) -> tuple[str, bytes]:
    if a is None:
        return tag, b"None"
    a = np.asarray(a)
    return tag, f"{a.dtype.str}{a.shape}".encode() + b"\0" + a.tobytes()


def _result_fields(run):
    for name in RESULT_ARRAYS:
        yield _array_field(name, getattr(run, name))
    if run.states is None:
        yield "states", b"None"
    else:
        yield "states", str(len(run.states)).encode()
        for s in run.states:
            yield _array_field("state", s)
    yield "stop_reason", run.stop_reason.encode()
    yield "iterations", str(run.iterations).encode()
    yield "max_state_norm", float(run.max_state_norm).hex().encode()


def _job_fields(workload: str, seed: int, n_jobs: int):
    """Per job of one pass, in job order, the list of (tag, bytes) fields its digest covers."""
    if workload == "cli-report":
        with tempfile.TemporaryDirectory() as workdir:
            csv_path = os.path.join(workdir, "run.csv")  # where every cli-report job writes its CSV
            for job in workloads.setup_cli_report(seed, n_jobs, workdir):
                code, stdout = job.run()
                with open(csv_path, "rb") as fh:
                    csv = fh.read()
                yield [("code", str(code).encode()), ("stdout", stdout.encode()), ("csv", csv)]
    else:
        setup = {
            "small-exact": workloads.setup_small_exact,
            "lasso-perturbed": workloads.setup_lasso_perturbed,
        }[workload]
        for job in setup(seed, n_jobs):
            yield list(_result_fields(job.run()))


def fingerprint(workload: str, seed: int) -> str:
    n_jobs = workloads.JOBS_PER_PASS[workload]
    h = hashlib.sha256()
    _feed(h, "workload", f"{workload} seed {seed} jobs {n_jobs}".encode())
    for fields in _job_fields(workload, seed, n_jobs):
        for tag, data in fields:
            _feed(h, tag, data)
    return h.hexdigest()


def job_fingerprints(workload: str, seed: int) -> list[str]:
    """One digest per job, over that job's fields alone."""
    digests = []
    for fields in _job_fields(workload, seed, workloads.JOBS_PER_PASS[workload]):
        h = hashlib.sha256()
        for tag, data in fields:
            _feed(h, tag, data)
        digests.append(h.hexdigest())
    return digests


def main(argv: list[str]) -> int:
    per_job = argv[:1] == ["--per-job"]
    if per_job:
        argv = argv[1:]
    if len(argv) != 2 or argv[0] not in workloads.WORKLOADS:
        print(f"usage: fingerprint.py [--per-job] {{{','.join(workloads.WORKLOADS)}}} SEED", file=sys.stderr)
        return 2
    if per_job:
        print("\n".join(job_fingerprints(argv[0], int(argv[1]))))
    else:
        print(fingerprint(argv[0], int(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
