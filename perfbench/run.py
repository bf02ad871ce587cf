"""The lhgm benchmark: one command, two seeded workloads, each in its own process.

    python3 perfbench/run.py                     # every workload, seed 0, tracing off
    python3 perfbench/run.py --workload codec_ctx --seed 3 --seconds 25 --trace 1

With ``--workload`` the run measures that workload in this process and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. Without it, each
workload runs in a child process and the lines of both are printed.
Human-readable lines before the JSON give the metrics under the names of
the benchmark's design (``train_step_s``, ``compress_s``, ``fail_rate`` ...)
and the environment: Python, numpy and scipy versions, BLAS library and
threads, CPUs. Results and span traces are also written to ``perfbench/out/``.

BLAS runs single-threaded, so all load comes from one process and
repeated runs see the same arithmetic.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

_START = perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        try:
            threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def run_one(args, spec: dict) -> int:
    import workloads

    import_s = perf_counter() - _START
    if args.workload == "train":
        res = workloads.run_train(args.seed, args.seconds, args.trace, import_s)
    else:
        res = workloads.run_codec(args.workload, args.seed, args.seconds, args.trace, import_s)

    env = _environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {int(args.trace)}")
    print("env " + json.dumps(env))
    fail_rate = res.failed / res.attempted if res.attempted else 1.0
    report = list(res.report.items()) + [(k, res.metrics[k]) for k in ("setup_s", "peak_rss_mb") if k in res.metrics]
    for name, (value, unit) in report + [("fail_rate", (fail_rate, f"ratio ({res.failed}/{res.attempted})"))]:
        print(f"metric {name} = {value:.6g} {unit}")
    for key in ("share_of_compress", "share_of_decompress"):
        if key in res.notes:
            top = list(res.notes[key].items())[:6]
            print(f"{key} " + ", ".join(f"{n} {v:.1%}" for n, v in top))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = res.layers if args.trace else res.metrics
    metrics = {}
    for m in wanted:
        if m["name"] not in produced:
            if res.failed:
                break
            raise KeyError(f"workload {args.workload} did not produce metric {m['name']}")
        value, unit = produced[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"metric {m['name']}: unit {unit} differs from BENCHMARK.json {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    extra = set(produced) - {m["name"] for m in wanted}
    if extra:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")

    correct = res.failed == 0 and len(metrics) == len(wanted)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "args": vars(args), "correct": correct, "attempted": res.attempted, "failed": res.failed,
         "metrics": metrics, "report": {k: v[0] for k, v in res.report.items()}, "notes": res.notes}, indent=1))
    if res.tracer is not None:
        res.tracer.write(OUT / f"trace-{tag}.json", res.notes)
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own child process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {w['name']} exited with code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{w['name']}/{k}": v for k, v in result["metrics"].items()})
        print()
    print(json.dumps(summary))
    return 0


def main() -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.trace = bool(args.trace)
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
