"""Answers that do not depend on the host's BLAS kernel, at the one BLAS
thread the benchmark's workers run with.

The layer prefix sums are matrix products (`Grid.sum_below`,
`Grid.sum_above`), and OpenBLAS picks its matrix kernel by CPU; the
`OPENBLAS_CORETYPE` variable of a process overrides that pick. Each child
process here takes one setting, with every variable of `bench/run.py`'s
THREAD_VARS set to 1, runs the 9 step-reference cases and 50 steps of the
full internal wave (54 layers, 200 cells), and prints a hash of the final
states. Every setting must give the same hash. With two BLAS threads the
internal wave's bits do move with the setting (Haswell and Prescott); that
is not what the benchmark runs, and not tested here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORETYPES = (None, "Haswell", "Prescott")  # None: the kernel OpenBLAS picks

# run with the repository root as argv[1]: the sha256 of the final states
_STATES = """
import hashlib, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/tests"]
import mlswe as m
from test_step_reference import advance, reference_runs
states = [advance(*run)[0] for run in reference_runs().values()]
spec = m.case_internal_wave()
states.append(advance(spec.integrator, spec.limiter, *m.build_problem(spec),
                      0.0, spec.dt, 50)[0])
digest = hashlib.sha256()
for s in states:
    for a in (s.eta, s.u, s.rho):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""


def _thread_env() -> dict:
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    return bench_record.thread_env()


def _states_hash(env, coretype) -> str:
    env = {k: v for k, v in env.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-B", "-c", _STATES, str(ROOT)],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_one_blas_thread_gives_the_same_bits_under_every_kernel():
    env = _thread_env()
    hashes = {coretype: _states_hash(env, coretype) for coretype in CORETYPES}
    assert len(set(hashes.values())) == 1, hashes
