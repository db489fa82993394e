"""Benchmark of qbody: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {query,mc,strata,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --bites

Run from the root of a checkout.  The command builds the workload's
inputs and reference answers from ``--seed`` in this process, then runs
the workload in a process of its own (``worker.py``) with BLAS and OpenMP
pinned to one thread, and prints one JSON object as the last line of
stdout.  ``--bites`` instead shows that every correctness check rejects a
perturbed answer.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("query", "mc", "strata", "cli")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def bench_env(src: str) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # Byte code is cached inside the checkout whatever the caller's
    # settings, so every run after the first imports the same way.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(HERE, ".out", "pycache")
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bites", action="store_true",
                        help="check that every correctness check bites")
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qbody", "__init__.py")):
        print(f"run.py: no qbody sources under {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    env = bench_env(src)
    os.environ.update({name: "1" for name in PINNED})
    sys.path.insert(0, src)

    if args.bites:
        import bites
        return bites.main()
    if args.workload is None:
        parser.error("--workload is required")

    import inputs
    out_dir = os.path.join(HERE, ".out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    data = {"workload": args.workload, "seconds": args.seconds,
            "trace": bool(args.trace), "out_dir": out_dir,
            "ops": inputs.build(args.workload, args.seed), "aux": {}}
    if args.trace:
        data["aux"] = {w: inputs.build(w, args.seed)
                       for w in WORKLOADS if w != args.workload}
    data_path = os.path.join(out_dir, "inputs.pkl")
    result_path = os.path.join(out_dir, "result.json")
    with open(data_path, "wb") as fh:
        pickle.dump(data, fh)
    del data

    with subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                           data_path, result_path], env=env) as proc:
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("run.py: workload process timed out", file=sys.stderr)
            return 3
    os.remove(data_path)
    if code != 0:
        print(f"run.py: workload process exited {code}", file=sys.stderr)
        return 3
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
