#!/usr/bin/env python3
"""Distill bench/micro_gemm output and gate GFLOP/s regressions.

Reads the google-benchmark JSON produced by scripts/bench_smoke.sh, writes
a compact BENCH_gemm.json mapping each shape to its packed-kernel and
frozen-seed-kernel GFLOP/s (and their ratio), then compares against the
checked-in baseline: the run fails if any shape's new/seed speedup dropped
more than the threshold (default 20%) below the baseline's.

Speedup ratios, not absolute GFLOP/s, are gated: absolute throughput varies
across hosts, the ratio of two kernels compiled into the same binary much
less so.
"""

import argparse
import json
import sys
from pathlib import Path

# Benchmarks compare pairs selected by a 0/1 arg: `seed` (production kernel
# vs frozen seed kernel) and `fused` (unfused sequence vs fused epilogue).
# Maps flag name -> (name of the 0-variant, name of the 1-variant, whether
# speedup is variant0/variant1 or variant1/variant0).
PAIR_FLAGS = {
    "seed": ("new", "seed"),    # speedup = new / seed
    "fused": ("unfused", "fused"),  # speedup = fused / unfused
}


def parse_raw(raw):
    """Group benchmark repetitions into per-shape entries."""
    shapes = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        parts = b["name"].split("/")
        args = {}
        plain = []
        for p in parts[1:]:
            if ":" in p:
                k, v = p.split(":", 1)
                args[k] = v
            else:
                plain.append(p)
        flag = next((f for f in PAIR_FLAGS if f in args), None)
        key_args = [f"{k}:{v}" for k, v in args.items() if k not in PAIR_FLAGS]
        key = "/".join([parts[0]] + key_args + plain)
        entry = shapes.setdefault(key, {})
        gflops = b.get("GFLOP/s")
        if flag is not None and gflops is not None:
            zero_name, one_name = PAIR_FLAGS[flag]
            variant = one_name if args[flag] != "0" else zero_name
            entry[f"{variant}_gflops"] = round(gflops, 3)
            entry["_flag"] = flag
        elif gflops is not None:
            entry["gflops"] = round(gflops, 3)
        elif "bytes_per_second" in b:
            entry["gbytes_per_second"] = round(b["bytes_per_second"] / 1e9, 3)
    for entry in shapes.values():
        flag = entry.pop("_flag", None)
        if flag is None:
            continue
        zero_name, one_name = PAIR_FLAGS[flag]
        num = entry.get(f"{one_name if flag == 'fused' else zero_name}_gflops")
        den = entry.get(f"{zero_name if flag == 'fused' else one_name}_gflops")
        if num is not None and den:
            entry["speedup"] = round(num / den, 3)
    return shapes


def gate(current, baseline, threshold):
    """Return a list of human-readable failures."""
    failures = []
    for key, base in sorted(baseline.get("shapes", {}).items()):
        if "speedup" not in base:
            continue
        cur = current["shapes"].get(key)
        if cur is None or "speedup" not in cur:
            failures.append(f"{key}: present in baseline but missing from run")
            continue
        floor = base["speedup"] * (1.0 - threshold)
        if cur["speedup"] < floor:
            failures.append(
                f"{key}: speedup {cur['speedup']:.3f} < {floor:.3f} "
                f"(baseline {base['speedup']:.3f} - {threshold:.0%})")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("raw", help="google-benchmark JSON from micro_gemm")
    ap.add_argument("--out", default="bench_results/BENCH_gemm.json")
    ap.add_argument("--baseline",
                    default="bench_results/BENCH_gemm_baseline.json")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed fractional speedup regression (default 0.20)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from this run instead of gating")
    opts = ap.parse_args()

    with open(opts.raw) as f:
        raw = json.load(f)
    context = raw.get("context", {})
    isa_level = context.get("tensor_isa_level")
    current = {
        "benchmark": "bench/micro_gemm",
        "build": "HETSGD_NATIVE=ON",
        # 0 = portable, 3 = x86-64-v3, 4 = x86-64-v4 (src/tensor/isa.hpp);
        # None when the binary predates the field.
        "tensor_isa_level": None if isa_level is None else int(isa_level),
        "host_cpus": context.get("num_cpus"),
        "shapes": parse_raw(raw),
    }
    out_path = Path(opts.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {out_path} ({len(current['shapes'])} shapes)")

    base_path = Path(opts.baseline)
    if opts.update_baseline:
        base_path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {base_path}")
        return 0
    if not base_path.exists():
        print(f"no baseline at {base_path}; run with --update-baseline first",
              file=sys.stderr)
        return 1
    with open(base_path) as f:
        baseline = json.load(f)
    failures = gate(current, baseline, opts.threshold)
    if failures:
        print("GEMM benchmark regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"regression gate passed ({opts.threshold:.0%} threshold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
