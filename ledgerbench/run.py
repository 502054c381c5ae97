"""Layer-ledger benchmark for the AGT-RAM repository.

Run from the repository root::

    python3 ledgerbench/run.py --workload paper-large --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the untraced production path and reports the
end-to-end metrics.  ``--trace 1`` alternates traced and untraced passes
over the same inputs, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``ledgerbench/out/``.  ``--workload
all`` runs every workload in turn, each in its own process.

The program prints a table, then as its last line one JSON object:
``{"correct": …, "attempted": …, "failed": …, "metrics": {…}}``.  It
exits 1 if an output check fails and 2 if the repository's sources are
missing.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("paper-large", "auction-dense", "serve-drift")
#: Native thread pools stay at one thread, so a run uses the main thread
#: only and its timings do not depend on how busy the other cores are.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5
#: Per-layer units whose values are exact counts, not measurements.
COUNT_UNITS = ("count", "bytes")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs each workload on a toy instance, for tests",
    )
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; the worst exit code wins."""
    codes = []
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        sys.stdout.flush()
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


def time_setup(workload, scale: str) -> tuple[float, dict]:
    """Median interpreter start plus imports, plus median input set-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    code = "import " + ", ".join(workload.modules)
    starts, inputs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120)
        starts.append(perf_counter() - t0)
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ctx = workload.setup(scale)
        inputs.append(perf_counter() - t0)
    return statistics.median(starts) + statistics.median(inputs), ctx


def median_of(passes, attr: str, name: str) -> float:
    values = [getattr(p, attr)[name] for p in passes if name in getattr(p, attr)]
    return statistics.median(values) if values else 0


def run_workload(args: argparse.Namespace) -> int:
    import workloads as W
    from ledger import Ledger, peak_rss_kb

    wl = W.WORKLOADS[args.workload]
    setup_s, ctx = time_setup(wl, args.scale)
    plain = Ledger(traced=False)
    traced = Ledger(traced=True, origin=plain.origin) if args.trace else None
    untraced_passes: list = []
    traced_passes: list = []
    failures: list[str] = []
    attempted = failed = 0
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if traced is not None:
            # Warm lazy imports and first-call paths before the traced
            # pass, which runs first so its RSS deltas are fresh.
            tiny = wl.setup("tiny")
            wl.prepare(tiny, Ledger(traced=False))
            wl.run_pass(tiny, Ledger(traced=False), W.Relabeling.draw(0, 0, tiny["m"], tiny["n"]), work_dir)
            traced.run_id = f"{args.workload}/seed{args.seed}/inputs"
        wl.prepare(ctx, traced or plain)
        start = perf_counter()
        durations: list[float] = []
        index = 0
        while True:
            t0 = perf_counter()
            relabel = W.Relabeling.draw(args.seed, index, ctx["m"], ctx["n"])
            results = []
            if traced is not None:
                traced.run_id = f"{args.workload}/seed{args.seed}/pass{index}"
                attempted += 1
                with traced.call(f"pass.{args.workload}"):
                    results.append(wl.run_pass(ctx, traced, relabel, work_dir))
                traced_passes.append(results[-1])
                gc.collect()
            attempted += 1
            results.append(wl.run_pass(ctx, plain, relabel, work_dir))
            untraced_passes.append(results[-1])
            gc.collect()
            for res in results:
                failures += [f"pass {index}: {msg}" for msg in res.failures]
                failed += bool(res.failures)
            if len(results) == 2 and results[0].fingerprint != results[1].fingerprint:
                failures.append(f"pass {index}: traced and untraced outputs differ")
                failed += 1
            durations.append(perf_counter() - t0)
            print(f"  pass {index}: " + " ".join(
                f"{k}={v:.6g}" for k, v in untraced_passes[-1].e2e.items()
            ), flush=True)
            index += 1
            if failures or perf_counter() - start + max(durations) > args.seconds:
                break
    except Exception:  # the program under test raised: report, do not hang
        failures.append(traceback.format_exc())
        failed += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"ledgerbench {args.workload} ({args.scale}) seed {args.seed} trace {args.trace}: "
          f"{len(untraced_passes)} untraced / {len(traced_passes)} traced pass(es)")
    units = dict(W.END_TO_END + W.WORKLOAD_ONLY)
    e2e = {name: median_of(untraced_passes, "e2e", name) for name in units}
    e2e.update(setup_s=setup_s, peak_rss_mb=peak_rss_kb() / 1024)
    measured = untraced_passes[0].e2e if untraced_passes else {}
    for name, unit in units.items():
        if name in measured or name not in dict(W.WORKLOAD_ONLY):
            print(f"  {name:<28} {e2e[name]:>16.6g} {unit}")

    if traced is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in W.END_TO_END}
    else:
        # Times are medians over the traced passes; counts are exact and
        # come from the first traced pass, so they repeat for a seed.
        first = traced_passes[0].layers if traced_passes else {}
        layers = {
            name: first.get(name, 0) if unit in COUNT_UNITS
            else median_of(traced_passes, "layers", name)
            for name, unit in W.PER_LAYER
        }
        if traced_passes:
            growth = traced.rss_growth_kb(f"{args.workload}/seed{args.seed}/pass0")
            for layer in W.LAYERS:
                layers[f"{layer}.rss_delta_mb"] = growth.get(layer, 0) / 1024
        layers["trace.overhead_s"] = median_of(traced_passes, "e2e", "campaign_s") - e2e["campaign_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in W.PER_LAYER}
        for name, unit in W.PER_LAYER:
            print(f"  {name:<28} {layers[name]:>16.6g} {unit}")
        path = traced.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(f"  spans -> {path} ({len(traced.spans)} spans)")
    if any(plain.tracer_flags + (traced.tracer_flags if traced else [])):
        failures.append("the repo's tracer was enabled inside a timed call")
        failed += 1
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": min(failed, max(1, attempted)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledgerbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
