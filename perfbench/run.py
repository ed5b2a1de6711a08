"""Repository benchmark: one seeded workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload service_mixed --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with unpatched code;
``--trace 1`` spends half of ``--seconds`` on untraced passes and the
other half with every layer's entry point wrapped (see
``benchkit/layers.py``), and reports the per-layer metrics.  Both modes
run the correctness checks after timing, print a human-readable report,
write ``perfbench/out/<workload>-seed<N>-trace<T>.json`` (plus, in trace
mode, the spans as ``repro-trace-v1`` JSONL that ``repro trace`` reads)
and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "clips_per_s": "1/s",
    "frames_per_s": "1/s",
}
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import repro.api\n"
    "print(time.perf_counter() - t0)\n"
)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds(repeats: int) -> float:
    """Median import time of ``repro.api`` in fresh interpreters."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _host_facts(args, workload) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"error: no program sources under {SRC.name}/ next to the benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import repro.api  # noqa: F401  (in-process import, compiles bytecode once)
    from repro.core.lof import SmallBankWarning

    from benchkit.layers import PER_LAYER, install, layer_metrics
    from benchkit.spans import SpanRecorder
    from benchkit.stats import Tally, named_percentiles
    from benchkit.workloads import WORKLOADS, same_outputs

    # Undersized tenant banks are part of service_mixed by design.
    warnings.simplefilter("ignore", SmallBankWarning)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    tally = Tally()
    report: dict = {"host": _host_facts(args, workload)}
    lines: list[str] = []
    metrics: dict[str, float] = {}
    try:
        # -- set-up: input generation and every fit ---------------------
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times = [time.perf_counter() - t0]

        # -- timed passes ----------------------------------------------
        def timed_passes(budget_s: float, run) -> list:
            """Passes over the same inputs until ``budget_s`` is used up."""
            done, t_run = [], time.perf_counter()
            while not done or time.perf_counter() - t_run < budget_s:
                done.append(run())
            return done

        traced = None
        if args.trace:
            # Untraced and traced passes split the run's time, so the
            # tracing overhead compares passes of the same warmth.
            passes = timed_passes(args.seconds / 2, lambda: workload.run_pass(state))
            untraced = list(passes)
            rec = SpanRecorder()
            with install(rec):
                t0 = time.perf_counter()
                traced_passes = timed_passes(
                    args.seconds / 2, lambda: workload.traced_pass(state, rec)
                )
                traced_wall = time.perf_counter() - t0
            traced = (rec, traced_passes, traced_wall)
            passes += traced_passes
        else:
            passes = timed_passes(args.seconds, lambda: workload.run_pass(state))
            untraced = passes

        # -- peak memory of the timed program ----------------------------
        # Read before anything else runs: the reference checks, the
        # repeated set-ups and the import probes below are not the timed
        # program.  Pool workers (batch_ragged) have been joined by now,
        # and they are the only children this process has started so far.
        report["peak_rss_kb"] = {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "workers": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        peak_kb = max(report["peak_rss_kb"].values())

        # -- the rest of set-up: more repetitions, then the import -------
        for _ in range(SETUP_REPEATS - 1):
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
        import_s = _import_seconds(IMPORT_REPEATS)
        setup_s = import_s + statistics.median(setup_times)
        report["setup"] = {"import_s": import_s, "inputs_and_fits_s": setup_times}

        # -- correctness (never timed) -----------------------------------
        first = passes[0]
        for p in passes:
            tally.ok(p.tally.attempted - p.tally.failed)
            for reason, n in p.tally.failures.items():
                tally.fail(reason, n)
        repeats = len(passes) - 1
        tally.record(
            "repeat_pass_differs",
            repeats,
            sum(not same_outputs(p.signature, first.signature) for p in passes[1:]),
        )
        check_extra = workload.check(state, first, tally)

        # -- end-to-end metrics ------------------------------------------
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024.0,
            "clips_per_s": statistics.median([p.clips / p.busy_s for p in untraced]),
            "frames_per_s": statistics.median([p.frames / p.busy_s for p in untraced]),
        }
        extra_e2e = dict(workload.outcomes(state, first))
        extra_e2e["failed_frac"] = tally.failed_frac
        push_ms = [x for p in untraced for x in p.push_ms]
        verdict_ms = [x for p in untraced for x in p.verdict_ms]
        latency = {}
        for prefix, sample in (("frame", push_ms), ("verdict", verdict_ms)):
            for key, value in named_percentiles(sample).items():
                latency[f"{prefix}_{key}_ms"] = value
        report["end_to_end"] = {
            **{k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            **{k: {"value": v, "unit": "ratio"} for k, v in extra_e2e.items()},
            **{k: {"value": v, "unit": "ms"} for k, v in latency.items()},
        }
        report["samples"] = {
            "passes": len(untraced),
            "pass_wall_s": [p.wall_s for p in untraced],
            "pushes": len(push_ms),
            "verdicts": len(verdict_ms),
        }
        report["checks"] = {"attempted": tally.attempted, **check_extra}
        lines.append(
            f"# {workload.name} seed={args.seed} nproc={report['host']['nproc']} "
            f"python={report['host']['python']} numpy={report['host']['numpy']} "
            f"passes={len(untraced)} trace={args.trace}"
        )
        for name, entry in report["end_to_end"].items():
            lines.append(f"{name:<24} {_fmt(entry['value']):>12} {entry['unit']}")
        lines.append(
            f"{'samples':<24} pushes={len(push_ms)} verdicts={len(verdict_ms)} "
            f"passes={len(untraced)}"
        )

        # -- per-layer metrics (traced run) ------------------------------
        if traced is not None:
            rec, traced_passes, traced_wall = traced
            layer, self_table = layer_metrics(rec.records, traced_wall, len(traced_passes))
            layer["trace.overhead_frac"] = (
                statistics.median([p.busy_s for p in traced_passes])
                / statistics.median([p.busy_s for p in untraced])
                - 1.0
            )
            extras = [p.extra for p in passes]
            for key in ("service.rejected", "service.frames_dropped", "service.drop_ratio",
                        "service.peak_active", "tenants.misses", "tenants.evictions",
                        "tenants.hit_ratio", "engine.cache_hit_ratio"):
                layer[key] = statistics.median([e.get(key, 0.0) for e in extras])
            # Inline verify_clips over the same clips (timed by the batch
            # check) against the engine passes; 0 where there is no engine.
            layer["engine.pool_speedup"] = check_extra.get(
                "inline_wall_s", 0.0
            ) / statistics.median([p.wall_s for p in untraced])
            missing = set(PER_LAYER) - set(layer)
            if missing:
                raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
            per_pass_wall = traced_wall / len(traced_passes)
            report["per_layer"] = {
                k: {"value": layer[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER
            }
            report["self_time_s"] = self_table
            report["traced_wall_s_per_pass"] = per_pass_wall
            lines.append(f"# per layer, per traced pass ({len(traced_passes)} passes)")
            for k in PER_LAYER:
                lines.append(f"{k:<28} {_fmt(layer[k]):>12} {PER_LAYER[k][0]}")
            lines.append("# self time per pass (s)")
            for name, s in self_table.items():
                lines.append(f"  {name:<26} {_fmt(s):>12}  {100 * s / per_pass_wall:5.1f}%")
            lines.append(
                f"  {'(other)':<26} {_fmt(layer['service.other_s']):>12}  "
                f"{100 * layer['service.other_s'] / per_pass_wall:5.1f}%"
            )
            lines.append(f"  (traced wall)              {_fmt(per_pass_wall):>12}  100.0%")
            # Other is the remainder, so the table adds up by definition;
            # what can go wrong is layers claiming more than the wall.
            if layer["service.other_s"] < -0.05 * per_pass_wall:
                tally.fail("self_times_exceed_wall")
            rec.write_jsonl(str(out_dir / f"{stem}-spans.jsonl"))
            metrics = {k: layer[k] for k in PER_LAYER}
    except Exception:  # the run's boundary: report, then fail the run
        traceback.print_exc()
        tally.fail("exception")
        metrics = {}

    correct = tally.failed == 0 and bool(metrics)
    report["correct"] = correct
    report["failures"] = tally.failures
    report["wall_s_total"] = time.perf_counter() - _T_START
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    for line in lines:
        print(line)
    if tally.failures:
        print(f"FAILED: {tally.failures}")
    units = dict(END_TO_END) if not args.trace else {k: u for k, (u, _) in PER_LAYER.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(tally.attempted, 1),
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _stop_helper_processes() -> None:
    """Stop and reap multiprocessing's resource tracker.

    Shared-memory packs (batch_ragged's pool path) start it as a child
    that otherwise outlives this process and ends, unreaped, only after
    it has gone.  ``_stop`` is a no-op when the tracker never started.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        _stop_helper_processes()
    sys.exit(code)
