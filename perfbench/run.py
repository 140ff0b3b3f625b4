"""Protego end-to-end benchmark.

    python3 perfbench/run.py --workload fleet-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` makes one untraced and one
traced run and reports the per-layer metrics. ``--workload all`` runs
every workload in its own process and exits non-zero if any output gate
failed. Each run prints a table (value, unit, sample count, quartiles
across passes, and a 95% confidence interval from
``repro.workloads.harness``), writes its full result (and, traced, its
spans) under ``.perfbench/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import platform
import resource
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("fleet-warm", "fleet-overflow", "admin-churn",
                  "redteam-sweep")
#: Fewest set-up figures behind setup_s; a run with fewer passes adds
#: set-up-only processes.
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 120
#: The program modules each workload imports before it builds (timed
#: as part of set-up; the benchmark's own modules are not).
PROGRAM_IMPORTS = {
    "redteam-sweep": ("repro.redteam", "repro.core.build",
                      "repro.scenarios.generator"),
}
FLEET_IMPORTS = ("repro.fleet",)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor (smoke tests only)")
    parser.add_argument("--pass-child", choices=("measure", "setup"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment_stamp() -> Dict[str, object]:
    """What a figure must be read with: numbers from different
    machines are never comparable."""
    from repro.parallel.pool import start_method
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {"nproc": nproc, "cpu_model": cpu,
            "python": platform.python_version(),
            "start_method": start_method()}


def pass_process(workload: str, seed: int, scale: float,
                 measure: bool) -> Dict:
    """One pass in a fresh interpreter: time the program's imports and
    the workload's set-up (every provisioning memo cold), then run the
    measured pass unless *measure* is false."""
    started = time.perf_counter()
    try:
        for module in PROGRAM_IMPORTS.get(workload, FLEET_IMPORTS):
            importlib.import_module(module)
        imported = time.perf_counter() - started
        import workloads
        bench = workloads.WORKLOADS[workload]
        start = time.perf_counter()
        prepared = bench.setup(seed, scale)
        setup_s = imported + time.perf_counter() - start
        out = {"setup_s": setup_s}
        if measure:
            out["sample"], out["output"] = bench.run_pass(prepared, setup_s)
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception:
        out = {"error": traceback.format_exc()}
    return out


def pass_child(args) -> int:
    """Entry point of a pass process: run one pass and write its
    pickled result to the standard output it was started with. Anything
    the program prints goes to standard error instead."""
    result = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    sys.stdout.flush()
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.path[:0] = [str(SRC), str(HERE)]
    out = pass_process(args.workload, args.seed, args.scale,
                       args.pass_child == "measure")
    with result:
        pickle.dump(out, result)
    return 0


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def in_fresh_process(args, measure: bool) -> Dict:
    """Run :func:`pass_process` in a new interpreter and wait for it to
    end, on every path out of here."""
    # SIGTERM waits until the child is known, so the clean-up below
    # always has it.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", repr(args.scale),
             "--pass-child", "measure" if measure else "setup"],
            cwd=str(ROOT), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            start_new_session=True)
    except BaseException:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        raise
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        data, _ = child.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        data = None
    finally:
        if child.poll() is None:
            kill_group(child.pid)
        child.wait()
        # A pool worker the pass forked must not outlive it either.
        kill_group(child.pid)
    if data is None:
        raise RuntimeError(f"pass process gave no result in "
                           f"{PASS_TIMEOUT_S} s")
    try:
        out = pickle.loads(data)
    except Exception:
        out = {"error": f"pass process died (exit {child.returncode})"}
    if "error" in out:
        raise RuntimeError(out["error"])
    return out


def run_measured(workloads, args) -> Dict:
    """Passes, each in a fresh process, until ``--seconds`` is spent;
    then set-up-only processes until there are ``SETUP_SAMPLES``
    set-up figures."""
    samples, setups, rss = [], [], []
    reference = None
    start = time.perf_counter()
    while True:
        out = in_fresh_process(args, measure=True)
        sample = out["sample"]
        if reference is None:
            reference = out["output"]
        elif sample.ok and out["output"] != reference:
            sample.ok = False
            sample.failed = sample.attempted
            sample.note = "output differs from the first pass of this seed"
        samples.append(sample)
        setups.append(out["setup_s"])
        rss.append(out["peak_rss_mb"])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(in_fresh_process(args, measure=False)["setup_s"])
    metrics = workloads.aggregate(samples)
    for name, unit, values in (("setup_s", "s", setups),
                               ("peak_rss_mb", "MB", rss)):
        q1, median, q3 = workloads.quartiles(values)
        metrics[name] = {"value": median, "unit": unit, "n": len(values),
                         "q1": q1, "q3": q3, "per_pass": values}
    problems = [f"pass {index}: {sample.note}"
                for index, sample in enumerate(samples) if not sample.ok]
    return {
        "correct": not problems,
        "attempted": sum(sample.attempted for sample in samples),
        "failed": sum(sample.failed for sample in samples),
        "metrics": {name: metrics[name] for name, _ in workloads.END_TO_END
                    if name in metrics},
        "passes": len(samples),
        "problems": problems,
        "fingerprint": workloads.fingerprint(reference),
        "notes": [f"omitted, fewer than {workloads.P99_MIN_SAMPLES} "
                  f"samples: {name}" for name, _ in workloads.END_TO_END
                  if name not in metrics],
    }


def run_traced(workloads, args) -> Dict:
    result = workloads.WORKLOADS[args.workload].trace(args.seed, args.scale)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
    result.tracer.write(str(spans_path), {"workload": args.workload,
                                          "seed": args.seed})
    return {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.attempted if result.problems else 0,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in workloads.PER_LAYER},
        "workload_layers": {name: {"value": result.metrics[name],
                                   "unit": unit}
                            for name, unit in result.own_layers},
        "problems": result.problems,
        "fingerprint": result.fingerprint,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def print_report(args, stamp, result, summarize) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale}")
    print("machine: " + " ".join(f"{key}={value}"
                                 for key, value in stamp.items()))
    print(f"fingerprint={result['fingerprint']} "
          f"attempted={result['attempted']} failed={result['failed']}"
          + (f" passes={result['passes']}" if "passes" in result else ""))
    if args.trace:
        rows = dict(result["metrics"], **result["workload_layers"])
        for name, row in rows.items():
            print(f"  {name:36s} {row['unit']:6s} {row['value']:.6g}")
    else:
        print(f"  {'metric':18s} {'unit':6s} {'n':>7s} {'value':>11s} "
              f"{'q1':>11s} {'q3':>11s} {'passes':>6s} {'95% ci':>10s}")
        for name, row in result["metrics"].items():
            per_pass = row.get("per_pass", [])
            ci = ""
            if len(per_pass) > 1:
                ci = f"±{summarize(per_pass)[1]:.4g}"
            print(f"  {name:18s} {row['unit']:6s} {row['n']:7d} "
                  f"{row['value']:11.5g} {row.get('q1', row['value']):11.5g} "
                  f"{row.get('q3', row['value']):11.5g} "
                  f"{len(per_pass) or 1:6d} {ci:>10s}")
    for note in result.get("notes", ()):
        print(note)
    for problem in result["problems"]:
        print(f"GATE FAILED: {problem}")


def run_all(args) -> int:
    """Every workload, each in a fresh process; non-zero if any failed."""
    failed = []
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", str(args.scale)], cwd=str(ROOT))
        if done.returncode != 0:
            failed.append(name)
    print(f"perfbench all: {len(WORKLOAD_NAMES)} workloads, "
          f"gate failures: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # A stopped benchmark still reaps its pass processes (see
    # in_fresh_process): turn SIGTERM into an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: the program's sources (src/repro) are missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.pass_child:
        # The parent blocks SIGTERM while it starts a pass; the pass
        # inherits that mask.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        return pass_child(args)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from repro.workloads.harness import _summarize

    stamp = environment_stamp()
    result = (run_traced if args.trace else run_measured)(workloads, args)
    print_report(args, stamp, result, _summarize)
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, machine=stamp, workload=args.workload,
                  seed=args.seed, seconds=args.seconds, scale=args.scale)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
               ".json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
