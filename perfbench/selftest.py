"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, at a size that runs in well under a minute:
  * every workload emits exactly the metrics BENCHMARK.json names, each
    finite and with its declared unit, in both the plain and traced run;
  * every correctness gate passes on the right expectation and fires on a
    deliberately wrong one;
  * the same seed gives the same inputs, traffic descriptors and generated
    bytes, and another seed gives other inputs;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    command fails without printing a result.
Exit code 0 when all pass.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy is imported

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(cond, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def fires(gate, *args) -> bool:
    from workloads import GateError
    try:
        gate(*args)
    except GateError:
        return True
    return False


def test_metrics_emitted() -> None:
    for wl in SPEC["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.bench(wl["name"], seed=5, seconds=0.1, trace=trace, tiny=True)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl['name']}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{wl['name']} trace={trace}: {result['correct']=} {result['failed']=}")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = result["metrics"]
            check(set(got) == set(want), f"{wl['name']}: metrics {sorted(set(got) ^ set(want))}")
            for name, unit in want.items():
                check(got[name]["unit"] == unit, f"{name}: unit {got[name]['unit']} != {unit}")
                check(math.isfinite(got[name]["value"]), f"{name}: {got[name]['value']}")
            if not trace:
                check(all(got[n]["value"] > 0 for n in want),
                      f"{wl['name']}: an end-to-end metric is not positive")
    print("PASS metrics emitted, finite, with units")


def test_gates_fire() -> None:
    import numpy as np
    from workloads import (gate_accounting, gate_batch_invariance, gate_losses,
                           gate_oracle, gate_outputs, load_texts, make_workload)
    texts = load_texts(run.ROOT)
    wl = make_workload("chat_b64", texts, seed=9, tiny=True)
    unit = wl.run_unit()
    wl.check(unit)
    sessions, pairs = unit.waves[0].sessions, wl.waves[0]
    scripts = [s for _, s in pairs]
    wrong_scripts = scripts[:-1] + [scripts[-1][:-1] + b"#"]
    check(fires(gate_outputs, sessions, wrong_scripts), "output gate did not fire")
    check(fires(gate_accounting, sessions, len(sessions) + 1), "accounting gate did not fire")
    wrong_params = dict(wl.params)
    wrong_params["decoder.lm_head"] = wl.params["decoder.lm_head"] * 2.0
    check(fires(gate_oracle, wrong_params, wl.cfg, sessions), "oracle gate did not fire")
    swapped = [(pairs[1][0], pairs[0][1])]
    check(fires(gate_batch_invariance, wl.params, wl.cfg, sessions[:1], swapped),
          "batch-invariance gate did not fire")

    tw = make_workload("train_1k", texts, seed=9, tiny=True)
    tunit = tw.run_unit()
    tw.check(tunit)
    window = tw.sizes.window
    check(fires(gate_losses, tunit.curve[::-1], tunit.eval_losses, window),
          "loss-decrease gate did not fire")
    check(fires(gate_losses, tunit.curve, tunit.eval_losses[:-1] + [np.nan], window),
          "finite-loss gate did not fire")
    print("PASS every gate passes on the right expectation and fires on a wrong one")


def test_seed_determinism() -> None:
    from workloads import load_texts, make_workload
    texts = load_texts(run.ROOT)
    for name in ("chat_b64", "solo_long", "train_1k"):
        a, b = make_workload(name, texts, 21, tiny=True), make_workload(name, texts, 21, tiny=True)
        other = make_workload(name, texts, 22, tiny=True)
        inputs = (lambda w: (w.train_text, w.heldout)) if name == "train_1k" else (
            lambda w: w.waves)
        check(inputs(a) == inputs(b), f"{name}: same seed, different inputs")
        check(inputs(a) != inputs(other), f"{name}: another seed, same inputs")
        da, db = a.descriptors(a.run_unit()), b.descriptors(b.run_unit())
        check(da == db, f"{name}: same seed, different descriptors {da} {db}")
    print("PASS same seed -> same inputs, descriptors and bytes; other seed -> other inputs")


def test_fails_without_package() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        p = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "chat_b64",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=tmp, env=env, capture_output=True, text=True, timeout=120)
        check(p.returncode != 0 and not p.stdout.strip(),
              f"expected a failure without output, got rc={p.returncode} {p.stdout!r}")
    print("PASS fails without a result outside a checkout")


def main() -> int:
    test_metrics_emitted()
    test_gates_fire()
    test_seed_determinism()
    test_fails_without_package()
    return 0


if __name__ == "__main__":
    run.import_package()
    sys.exit(main())
