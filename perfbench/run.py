"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload molecules --seed 0 --seconds 15 --trace 0

Run from the root of a checkout. The untraced run (``--trace 0``) prints the
end-to-end metrics; the traced run (``--trace 1``) prints the per-layer
metrics. Either way every pass's outputs are checked, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it holds input sizes, pass
times and the environment, as information only. Metric names and units
come from BENCHMARK.json.

Times are rescaled for host speed: the process is pinned to one CPU, a
probe thread times a fixed spin on it every 20 ms (``hostspeed.py``), and
each set-up sample and pass is rescaled by the probe's median in its
interval, so that ``setup_s``, ``wall_s`` and ``trace.overhead_s`` read in
seconds of a host running at a fixed speed. Raw times are in the
information line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One BLAS/OpenMP thread: the program's linear algebra is small, and a
# single thread keeps timings and float results steady on a shared box.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
_SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[2]); import ngram_graph.cli; "
               "print(time.monotonic() - float(sys.argv[1]))")


def pin_threads() -> None:
    """Must run before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def measure_setup(samples: int) -> list[tuple[float, float, float]]:
    """Seconds from spawning a fresh interpreter until ``import
    ngram_graph.cli`` is done, once per sample, each with the interval
    (``time.perf_counter``) the child ran in."""
    out = []
    for _ in range(samples):
        begin = time.perf_counter()
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, repr(start), str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append((float(proc.stdout.strip().splitlines()[-1]), begin, time.perf_counter()))
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "l3_bytes": _l3_bytes(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _l3_bytes():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except OSError:
            return None
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _measure(workload, seconds: float, ledger, qualities, walls, tracers=None) -> None:
    """Run checked passes until the next one would end after ``seconds``
    (at least one pass). With ``tracers`` every pass is traced."""
    from tracing import Tracer

    start = time.perf_counter()
    for passes in itertools.count(1):
        tracer = Tracer() if tracers is not None else None
        _one_pass(workload, ledger, qualities, walls, tracer)
        if tracer is not None:
            tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return


def _one_pass(workload, ledger, qualities, walls, tracer=None) -> None:
    """One checked pass; appends (seconds, start, end) of its timed part."""
    try:
        if tracer is None:
            t0 = time.perf_counter()
            raw = workload.run_pass()
            walls.append(_since(t0))
        else:
            with tracer.installed():
                t0 = time.perf_counter()
                raw = workload.run_pass(tracer)
                walls.append(_since(t0))
        quality = workload.verify(workload.collect(raw), ledger, len(qualities))
    except Exception:  # a crashing pass is a failed operation, not a crashed run
        traceback.print_exc()
        ledger.check(False, "pass raised")
        quality = None
    qualities.append(quality)


def _since(start: float) -> tuple[float, float, float]:
    end = time.perf_counter()
    return end - start, start, end


def run(spec: dict, name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        setup_samples: int = SETUP_SAMPLES):
    """One benchmark run; returns (result, info) without printing."""
    # imported here because numpy must load after pin_threads()
    import workloads
    from hostspeed import SpeedProbe, pin_to_one_cpu
    from tracing import write_spans

    pin_to_one_cpu()
    probe = SpeedProbe().start()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        setup = measure_setup(setup_samples)
        kwargs = workloads.TINY[name] if scale == "tiny" else {}
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, workdir, **kwargs)
        gen_s = time.perf_counter() - t0

        ledger = workloads.Ledger()
        qualities, warmup, walls, traced_walls, tracers = [], [], [], [], []
        _one_pass(workload, ledger, qualities, warmup)
        _measure(workload, seconds / 2 if trace else seconds, ledger, qualities, walls)
        if trace:
            _measure(workload, seconds / 2, ledger, qualities, traced_walls, tracers)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    def median_rescaled(samples):
        return statistics.median(probe.rescale(*sample) for sample in samples)

    if trace:
        per_pass = [t.metrics() for t in tracers]
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = median_rescaled(traced_walls) - median_rescaled(walls)
        declared = spec["per_layer"]
        spans = OUT / f"spans-{name}-seed{seed}.json"
        write_spans(spans, tracers, {"workload": name, "seed": seed})
    else:
        ok = 1.0 - ledger.failed / ledger.attempted
        scored = [q for q in qualities if q is not None]
        values = {
            "setup_s": median_rescaled(setup),
            "wall_s": median_rescaled(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok,
            "quality": statistics.median(scored) if scored else 0.0,
        }
        declared = spec["end_to_end"]
        spans = None
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "sizes": workload.sizes,
        "gen_s": gen_s, "warmup_s": [s[0] for s in warmup],
        "setup_raw_s": [s[0] for s in setup],
        "setup_rescaled_s": [probe.rescale(*s) for s in setup],
        "passes": len(walls), "pass_raw_s": [s[0] for s in walls],
        "pass_rescaled_s": [probe.rescale(*s) for s in walls],
        "traced_pass_raw_s": [s[0] for s in traced_walls],
        "qualities": qualities, "failures": ledger.failures[:20],
        "spans": str(spans.relative_to(ROOT)) if spans else None,
        "env": environment(),
    }
    return result, info


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ngram_graph" / "__init__.py").is_file():
        print(f"error: {SRC}/ngram_graph not found; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    result, info = run(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
