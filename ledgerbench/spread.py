#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, next to the
metric's bound and a third of it. Each run's kernel cutover map, which
every process calibrates at start, is printed too, and each map's runs are
compared with the median of all runs.

Usage, from the repository root:

    python3 ledgerbench/spread.py --workload fig1-ingest --seeds 1-10
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    maps = []
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(lines[-1])
        cut = re.search(r"cutovers=(\S+)", out.stdout)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} cutovers={cut.group(1) if cut else '?'} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
        maps.append(cut.group(1) if cut else "?")
        for k in values:
            values[k].append(res["metrics"][k]["value"])
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "OVER BOUND")
        print(f"{args.workload} {m['name']}: median {med:.6g} spread {spread:.3f} "
              f"(bound {m['bound']}, third {m['bound'] / 3:.3f}) {flag}")
        # Cutovers are calibrated at each process start; compare each map's
        # runs with the median of all runs.
        for cmap in sorted(set(maps)):
            group = [x for x, c in zip(v, maps) if c == cmap]
            shift = statistics.median(group) / med - 1
            print(f"    cutovers {cmap}: {len(group)} runs, median {shift:+.3f} from all"
                  f"{' OUTSIDE BOUND' if abs(shift) > m['bound'] else ''}")


if __name__ == "__main__":
    main()
