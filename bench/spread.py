"""Run bench/run.py over several seeds and report each metric's median and
its quartile spread (Q3 - Q1) / median, the figure BENCHMARK.json's bounds
are set from.  Each run measures BENCHMARK.json's `run_seconds`, untraced.

    python3 bench/spread.py --workloads train-default decode --seeds 1-10

Runs are sequential, one process at a time.  Raw results are appended, one
JSON line per run, to .bench_out/spread.jsonl.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUTPUT = HERE.parent / ".bench_out"
SECONDS = str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    OUTPUT.mkdir(exist_ok=True)
    failed = False
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                failed = True
                continue
            result = json.loads(lines[-1])
            record = {"workload": workload, "seed": seed, "run_s": elapsed,
                      "at": time.strftime("%Y-%m-%dT%H:%M:%S"), "log": lines[:-1], **result}
            with open(OUTPUT / "spread.jsonl", "a") as log:
                log.write(json.dumps(record) + "\n")
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s  " + "  ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                flush=True)
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {workload:22s} {name:16s} median {median:12.5g}  "
                  f"Q1 {q1:12.5g}  Q3 {q3:12.5g}  spread {spread:.4f}")
        print(f"  {workload:22s} (failed, attempted): {sorted(shares)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
