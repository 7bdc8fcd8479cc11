"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke run: every workload at tiny size, untraced and traced, must pass
   its output checks and report exactly the metrics BENCHMARK.json declares.
2. Mutation check: a wrong answer (a corrupted feature row, a NaN row, a
   swapped ROC-AUC, a nonzero identity residual, a low recovery rate) must
   make the workload's output check record a failure.

Exits 0 when both hold and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import run


def _bump(X, i):
    """Perturb row i of a feature matrix far beyond the check's tolerance."""
    X[i, -1] += 1e-6 * max(float(abs(X[i]).max()), 1e-300)


def _corrupt_binary_row(oc):
    _bump(oc["X"], 0)


def _corrupt_both_exports(oc):
    _bump(oc["X"], 1)
    _bump(oc["csv"], 1)


def _nan_row(oc):
    oc["X"][-1] = float("nan")


def _swap_auc(oc):
    auc = oc["auc"]
    lo, hi = min(auc), max(auc)
    auc[lo], auc[hi] = auc[hi], auc[lo]


def _identity_residual(oc):
    oc["residuals"][0][-1] = 1.0


def _oracle_mismatch(oc):
    fast, slow = oc["pairs"][0]
    fast = fast.copy()
    _bump(fast.reshape(1, -1), 0)
    oc["pairs"][0] = (fast, slow)


def _low_omp_rate(oc):
    top = max(oc["omp"])
    oc["omp"][top] = (0, oc["omp"][top][1])


MUTATIONS = {
    "molecules": (_corrupt_binary_row, _corrupt_both_exports, _nan_row),
    "kfold-path": (_swap_auc,),
    "large-graph": (_corrupt_binary_row, _nan_row),
    "count-lab": (_identity_residual, _oracle_mismatch, _low_omp_rate),
}


def smoke(spec: dict) -> list[str]:
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (False, True):
            result, info = run.run(spec, name, seed=1, seconds=1, trace=trace,
                                   scale="tiny", setup_samples=1)
            declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            label = f"{name} (trace {int(trace)})"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: output checks failed: {info['failures']}")
            if set(result["metrics"]) != declared:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"smoke {label}: attempted={result['attempted']} failed={result['failed']}")
    return problems


def mutations() -> list[str]:
    import workloads

    problems = []
    run.OUT.mkdir(exist_ok=True)
    for name, mutators in MUTATIONS.items():
        with tempfile.TemporaryDirectory(prefix=f"selftest-{name}-", dir=run.OUT) as tmp:
            workload = workloads.WORKLOADS[name](1, Path(tmp), **workloads.TINY[name])
            outcome = workload.collect(workload.run_pass())
            clean = workloads.Ledger()
            workload.verify(copy.deepcopy(outcome), clean, 0)
            if clean.failed:
                problems.append(f"{name}: unmodified outcome failed: {clean.failures}")
            for mutate in mutators:
                bad = copy.deepcopy(outcome)
                mutate(bad)
                ledger = workloads.Ledger()
                workload.verify(bad, ledger, 0)
                caught = ledger.failed > 0
                print(f"mutation {name} {mutate.__name__.lstrip('_')}: "
                      f"{'caught' if caught else 'MISSED'}")
                if not caught:
                    problems.append(f"{name}: {mutate.__name__} went unnoticed")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    problems = smoke(spec) + mutations()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
