"""Run one hatlm benchmark workload and print its result.

    python3 perfbench/run.py --workload chat_b64 --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from `src/`). The
last line of standard output is the result object (`correct`, `attempted`,
`failed`, `metrics`); the line before it records the machine, library
versions, seed and traffic descriptors. With `--trace 0` the metrics are
the end-to-end ones; with `--trace 1` a separate traced unit gives the
per-layer ones. Exit code 0 means every correctness gate passed, 1 that a
gate failed, 2 that the package or its data could not be found.
"""

import os

# one BLAS thread for this process, set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("chat_b64", "solo_long", "train_1k")
SETUP_REPS = 9
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ingest_bytes_per_s": "B/s",
    "step_bytes_per_s": "B/s",
    "first_result_ms_p50": "ms",
    "first_result_ms_p90": "ms",
    "step_gap_ms_p50": "ms",
    "step_gap_ms_p95": "ms",
}


def import_package() -> None:
    """Import numpy and hatlm from this checkout."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import hatlm
    import tracer  # noqa: F401
    import workloads  # noqa: F401
    if Path(hatlm.__file__).resolve().parent != SRC / "hatlm":
        raise ImportError(f"hatlm imported from {hatlm.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for f in sorted((SRC / "hatlm").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_sha256_16": digest.hexdigest()[:16],
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def import_seconds() -> float:
    """Import time of numpy and hatlm in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import numpy, hatlm.infer, hatlm.train; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120, env=dict(os.environ))
    return float(out.stdout)


def bench(name: str, seed: int, seconds: float, trace: bool,
          tiny: bool = False) -> tuple[dict, dict]:
    """Set up, run and gate one workload; returns (result, record).

    Untraced, the unit runs max(2, round(seconds / nominal unit time))
    times and the end-to-end metrics come from the median time of each
    call over those repeats, each timing brought to the reference machine
    speed by the speed probed around it (see `workloads.Speed`); set-up
    time likewise, over its repeats. Traced, one untraced and one
    traced unit run, and the per-layer metrics come from the traced one,
    unscaled."""
    import numpy as np
    from tracer import Tracer, layer_metrics, percentile
    from workloads import (NOMINAL_UNIT_S, PROBE_ARRAY_SHARE, GateError, load_texts,
                           make_workload, Speed, overhead)

    # set-up: import, inputs, model and warm-up, several times, probing the
    # machine's speed between them; the median at the reference speed
    speed = Speed(PROBE_ARRAY_SHARE[name])
    setups = []
    for _ in range(SETUP_REPS):
        speed.catch_up()
        imp = import_seconds()
        t0 = perf_counter()
        wl = make_workload(name, load_texts(ROOT), seed, tiny)
        wl.warm_up()
        # the child's import time, as if it ran just before t0
        setups.append((t0 - imp, perf_counter()))
    speed.catch_up()

    reps = 1 if trace else max(2, round(seconds / NOMINAL_UNIT_S[name]))
    units, walls = [], []
    for _ in range(reps):
        t0 = perf_counter()
        units.append(wl.run_unit(speed, forks=1 if trace else None))
        walls.append(perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        with Tracer() as tr:
            t0 = perf_counter()
            traced = wl.run_unit(observe=True, forks=1)
            traced_wall = perf_counter() - t0
        units.append(traced)

    correct, gate_error = True, None
    try:
        wl.check(units[0])
        for u in units[1:]:
            wl.check(u, first=units[0])
    except GateError as exc:
        correct, gate_error = False, str(exc)

    attempted = sum(wl.attempted(u) for u in units)
    failed = sum(wl.failed(u) for u in units)

    if trace:
        metrics = layer_metrics(tr.spans, traced_wall, overhead(traced, units[0]),
                                wl.sched_stats(traced))
    else:
        e2e = wl.end_to_end(units, speed)
        raw = {
            "setup_s": float(np.median(speed.reference_s(setups))),
            "peak_rss_mb": peak_rss_mb,
            "ingest_bytes_per_s": e2e["ingest_bytes_per_s"],
            "step_bytes_per_s": e2e["step_bytes_per_s"],
            "first_result_ms_p50": percentile(e2e["first_result_ms"], 50),
            "first_result_ms_p90": percentile(e2e["first_result_ms"], 90),
            "step_gap_ms_p50": percentile(e2e["step_gap_ms"], 50),
            "step_gap_ms_p95": percentile(e2e["step_gap_ms"], 95),
        }
        metrics = {k: {"value": float(raw[k]), "unit": u} for k, u in E2E_UNITS.items()}

    record = {
        "workload": name,
        "speed": {"probes": len(speed.took), "array_share": speed.array_share,
                  "slowness_p10_p50_p90": [round(float(x), 4) for x in
                                           np.percentile(speed.took, [10, 50, 90])]},
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "traffic": wl.descriptors(units[0]),
        "units": len(units),
        "unit_wall_s": [round(w, 4) for w in walls],
        "setup_reps_s": [round(b - a, 4) for a, b in setups],
        "gate_error": gate_error,
    }
    if not trace:
        record["samples"] = {"first_result": len(e2e["first_result_ms"]),
                             "step_gap": len(e2e["step_gap_ms"])}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "hatlm" / "__init__.py", ROOT / "data")
               if not p.exists()]
    if missing:
        print(f"perfbench: not found: {', '.join(map(str, missing))}; "
              "run from a hatlm checkout", file=sys.stderr)
        return 2
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import hatlm: {exc}", file=sys.stderr)
        return 2

    result, record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    if record["gate_error"]:
        print(f"perfbench: correctness gate failed: {record['gate_error']}",
              file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
