"""Run every workload for one or more seeds and summarise the spread.

Usage, from the repository root::

    python3 perfbench/suite.py --seeds 1                  # all three workloads, one seed
    python3 perfbench/suite.py --seeds 1-10 --write        # ten seeds, record spreads

Each (workload, seed) pair is one ``perfbench/run.py`` invocation with
``run_seconds`` from ``BENCHMARK.json``, run one after another so that
runs never compete for cores.  The summary
gives, per workload and end-to-end metric, the median and the spread:
the inter-quartile distance of the values as a share of their median
(``statistics.quantiles(values, n=4)``).  ``--write`` stores it in
``perfbench/spreads.json`` next to the host facts of the runs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchkit.stats import iqr_spread  # noqa: E402

WORKLOADS = ("service_mixed", "stream_hd", "batch_ragged")


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1, 1-10 or 3,5,8")
    parser.add_argument("--write", action="store_true", help="write perfbench/spreads.json")
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    summary: dict = {"seconds": seconds, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{workload} seed={seed} rc={done.returncode} "
                  f"correct={result['correct']} failed={result['failed']}", flush=True)
            if done.returncode != 0:
                status = 1
                sys.stderr.write(done.stdout + done.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {
            name: {"median": statistics.median(v), "spread": iqr_spread(v), "runs": len(v)}
            for name, v in values.items()
        }
        summary["workloads"][workload] = rows
        for name, row in rows.items():
            print(f"  {name:<28} median={row['median']:<12.6g} spread={row['spread']:.3f}")
    if args.write:
        run_json = sorted((HERE / "out").glob("*-trace0.json"))
        if run_json:
            summary["host"] = {
                k: v for k, v in json.loads(run_json[-1].read_text())["host"].items()
                if k in ("nproc", "usable_cpus", "machine", "python", "numpy")
            }
        (HERE / "spreads.json").write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
