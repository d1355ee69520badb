#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command named in BENCHMARK.json several times per workload, each
time with another seed, and reports for every end-to-end metric (and every
named figure the run prints, such as flit_hops_per_s) its median, its
quartiles and the distance between them as a share of the median, the
statistic a later change is judged against. Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads ur8-knee,serve-jobs]
                                [--first-seed 1] [--markdown out.md]

A metric whose spread exceeds its bound in BENCHMARK.json is marked.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

FIGURE = re.compile(r"^\[([\w.-]+)\] ([\w.-]+) = (-?[0-9.e+-]+) (\S+)")


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stdout}\n{out.stderr[-2000:]}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    figures = {}
    for line in lines[:-1]:
        m = FIGURE.match(line)
        if m and m.group(1) == workload and m.group(2) not in ("digest", "error_rate"):
            figures[m.group(2)] = float(m.group(3))
            units.setdefault(m.group(2), m.group(4))
    digest = next((l.split(" = ")[1] for l in lines if l.startswith(f"[{workload}] digest")), "")
    return values, figures, units, digest


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--markdown", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    rows = []
    for wl in workloads:
        samples, figs, digests = {}, {}, []
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            values, figures, u, digest = run_once(bench["command"], wl, seed, bench["run_seconds"])
            units.update(u)
            digests.append(digest)
            for k, v in values.items():
                samples.setdefault(k, []).append(v)
            for k, v in figures.items():
                figs.setdefault(k, []).append(v)
            print(f"{wl} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  file=sys.stderr, flush=True)
        for kind, table in (("gated", samples), ("figure", figs)):
            for name, vals in table.items():
                med, q1, q3, rel = spread(vals)
                bound = bounds.get(name) if kind == "gated" else None
                flag = "" if bound is None or rel <= bound else "  OVER BOUND"
                rows.append((wl, kind, name, units.get(name, ""), med, q1, q3, rel, bound, flag))
        if wl == "figs-quick" and len(set(digests)) != 1:
            sys.exit(f"figs-quick digests differ between runs: {sorted(set(digests))}")

    header = "| workload | kind | metric | unit | median | q1 | q3 | iqr/median | bound |"
    out = [header, "|" + "---|" * 9]
    for wl, kind, name, unit, med, q1, q3, rel, bound, flag in rows:
        b = "" if bound is None else f"{bound:g}"
        out.append(f"| {wl} | {kind} | {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | {rel:.4f}{flag} | {b} |")
    text = "\n".join(out)
    print(text)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
