"""Benchmark of the smallball package: end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload chaos-probe --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1            # every workload, untraced then traced

One workload run imports ``smallball`` from ``src/`` of the checkout, measures
set-up in fresh interpreters, computes the reference values, then runs whole
rounds of the workload's operations until ``--seconds`` have passed, checking
every round's outputs.  Its last stdout line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
each round runs untraced and then traced with the same seed, the two rounds'
outputs must be byte-identical, and the metrics are the per-layer ones.  The
README in this directory explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("chaos-probe", "power-laplace", "grid-sup", "exact-oracles")
SETUP_REPS = 3


def _import_package() -> None:
    """Put the checkout's src/ first on sys.path and import smallball from it."""
    src = ROOT / "src"
    if not (src / "smallball" / "__init__.py").is_file():
        raise SystemExit(f"error: no smallball package under {src}")
    sys.path.insert(0, str(src))
    import smallball

    if Path(smallball.__file__).resolve().parent != (src / "smallball").resolve():
        raise SystemExit(f"error: smallball was imported from {smallball.__file__}, not {src}")


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports smallball and builds the inputs."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        check=True,
        cwd=ROOT,
    )
    return time.perf_counter() - t0


def _run_round(wl, index: int, tag: str, tracer=None) -> dict:
    """Run one round's operations; time them and capture their outputs."""
    ops = wl.ops(index, tag)
    results = []
    failed = 0
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with tracing.installed(tracer) if tracer is not None else contextlib.nullcontext():
        for op in ops:
            try:
                res = op.call()
            except Exception as exc:  # an operation that raises counts as failed; the run goes on
                print(f"{wl.name}: {op.label} raised {exc!r}", file=sys.stderr)
                failed += 1
                res = None
            else:
                if not op.ok(res):
                    print(f"{wl.name}: {op.label} returned {res!r}", file=sys.stderr)
                    failed += 1
            results.append(res)
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    outputs = wl.outputs(index, tag, results) if not failed else None
    return {"run_s": run_s, "cpu_s": cpu_s, "attempted": len(ops), "failed": failed,
            "results": results, "outputs": outputs}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run of one workload; returns the result object."""
    import workloads

    setup = [_setup_seconds(name, seed) for _ in range(1 if tiny else SETUP_REPS)]
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT, tiny)
    wl.references()

    errors: list[str] = []
    plain_s, plain_cpu, traced_s, rel_var, layers, tracers, z_rounds = [], [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while True:
        rounds = [_run_round(wl, index, "plain")]
        if trace:
            tracer = tracing.Tracer()
            rounds.append(_run_round(wl, index, "traced", tracer))
            tracers.append(tracer)
            layers.append(tracing.layer_metrics(tracer))
            traced_s.append(rounds[1]["run_s"])
            a, b = (r["outputs"] for r in rounds)
            if a is not None and b is not None and a != b:
                errors.append(f"{name} round {index}: traced outputs differ from untraced ones")
        for r in rounds:
            attempted += r["attempted"]
            failed += r["failed"]
            if r["outputs"] is not None:  # checks speak of rounds whose operations all succeeded
                errors += wl.check(r["outputs"], r["results"])
                errors += filter(None, (c.error() for c in wl.z_checks(r["outputs"])))
        if rounds[0]["outputs"] is not None:
            z_rounds.append(wl.z_checks(rounds[0]["outputs"]))
        plain_s.append(rounds[0]["run_s"])
        plain_cpu.append(rounds[0]["cpu_s"])
        ref = wl.reference_estimate(rounds[0]["outputs"]) if rounds[0]["outputs"] is not None else None
        if ref is not None:
            rel_var.append((ref[1] / ref[0]) ** 2)
        # drop the round's outputs now, so that peak_rss_mb does not grow with the round count
        del rounds
        index += 1
        if time.perf_counter() - start >= seconds:
            break

    if len(z_rounds) > 1:  # the rounds' seeds differ, so their mean has 1/rounds of the variance
        errors += filter(None, (c.error(len(z_rounds)) for c in workloads.pooled(z_rounds)))
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    run_s = statistics.median(plain_s)
    if trace:
        with open(OUT / f"trace-{name}-{seed}.jsonl", "w") as fh:
            for i, tracer in enumerate(tracers):
                tracer.write(fh, round_index=i)
        metrics = {k: statistics.median_low(m[k] for m in layers) for k, _ in tracing.PER_LAYER if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(traced_s) - run_s
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "cpu_s": statistics.median(plain_cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # an exact workload reaches any accuracy in one round: time_to_1pct_s = run_s
            "time_to_1pct_s": run_s * statistics.fmean(rel_var) / 1e-4 if rel_var else run_s,
        }
        units = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "time_to_1pct_s": "s"}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} trace={trace} correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            for k, m in res["metrics"].items():
                print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            summary["workloads"].setdefault(name, {}).update(res["metrics"])
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload; all of them when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _import_package()
    if args.setup_probe:  # measured by _setup_seconds: import and inputs only
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, OUT)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
