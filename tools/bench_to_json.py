#!/usr/bin/env python3
"""Runs a benchmark suite and distills its BENCH_<suite>.json.

    python3 tools/bench_to_json.py [--suite serve|recovery|categoricity|hotpath]
                                   [--bench <path>] [--out <path>]

Drives the suite's built binary with --benchmark_format=json and
reduces the raw Google-Benchmark dump to the figures EXPERIMENTS.md
tracks:

  serve (BENCH_serve.json, B15):
    edit_latency_us      — one tombstone/revival round trip, per edit
    steady_state_ops_sec — op throughput over the Zipf edit/query script
    speedup              — per (blocks, cache) point: BM_ServeRebuild
                           time / BM_ServeIncremental time, the
                           incremental-vs-rebuild gap at one edit per
                           query (the ISSUE gate: >= 10x at 64 blocks).
                           Any point below 1.0x is a crossover — the
                           resident session is slower than rebuilding —
                           and gets a WARNING.
    Sampled like hotpath (run_sampled, below): one 0.2 s run per
    benchmark let a slow spell of the host set one side of a ratio.

  recovery (BENCH_recovery.json, B16):
    wal_append_us        — per-record append cost by fsync mode; the
                           always/off ratio is the durability price
    recovery_replay      — cold boot vs un-checkpointed WAL length
    snapshot_boot        — the same state recovered from a checkpoint
    checkpoint_ms        — one snapshot + WAL truncation

  categoricity (BENCH_categoricity.json, B17):
    speedup              — per clique count: BM_CqaCategoricalEnum
                           time / BM_CqaCategoricalFast time, the
                           categoricity fast path against the forced
                           enumeration on a certified-categorical
                           instance (the ISSUE gate: >= 5x on the
                           many-repair points).
    fallback_overhead    — per clique count: BM_CqaNearMissFast time /
                           BM_CqaNearMissEnum time; the pre-pass
                           refutes in polynomial time on the broken
                           block, so this must stay within noise of
                           1.0 (WARNING above 1.25x).
    decide_us            — the bare DecideCategoricity cost, what
                           the pre-pass adds to every cqa request.
    Sampled like hotpath (run_sampled, below): the near-miss pair at 9
    cliques is one ~30 ms request per repetition, and a single 0.2 s
    run read its overhead anywhere from 0.80x to 1.37x.

  hotpath (BENCH_hotpath.json, B18):
    conflict_build       — per shard count: flat columnar join vs the
                           preserved pre-columnar reference join vs the
                           flat join on the scalar SIMD fallback.
                           flat_speedup = reference/flat (the ISSUE
                           gate: >= 3x on the hard sharded workload);
                           scalar_penalty = scalar/flat (the honest
                           no-SSE2/NEON number, reported separately).
    block_decomposition_us, consistency_scan_us
                         — downstream consumers of the same kernels.
    agree_kernel         — FactsAgreeOn with an early exit to take vs a
                           full 12-column agreement; early_exit_gain =
                           full/early must stay well above 1.0 or the
                           short-circuit has been lost.
    The suite runs in SAMPLE_PROCESSES processes, each on its own CPU,
    of SAMPLE_REPETITIONS repetitions of every kernel shuffled
    together, and each kernel keeps its fastest repetition
    (run_sampled): every ratio is a best over passes, so neither a slow
    spell of the host nor a slow CPU sets one side of a ratio alone.
    tools/perf_gate.py measures the same way and compares these ratios,
    not absolute times, against the committed baseline.  A ratio is
    still a property of the host: the early-exit gain read 7.6x on the
    1-CPU VM that recorded the file and about 5.3x on a 4-vCPU Xeon
    with the same code, so the agree_kernel block of BENCH_hotpath.json
    names the host that recorded it.

Stdlib-only by design (runs in CI and the bare build container).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_bench(bench: Path,
              flags: tuple[str, ...] = ("--benchmark_min_time=0.2",),
              cpu: int | None = None) -> dict:
    """Runs `bench` once, on `cpu` alone when one is given."""
    cmd = [str(bench), "--benchmark_format=json", *flags]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          preexec_fn=pin)
    return json.loads(proc.stdout)


# The hotpath and categoricity suites are read as ratios of benchmarks
# that run for 2 ns to 30 ms on hosts that share their cores.  Three
# effects move one side of a ratio alone (EXPERIMENTS.md B22):
#   * slow spells of the host, lasting seconds: a benchmark timed once,
#     one benchmark after another, can be timed inside one;
#   * CPUs of different speed: a process that moves between them mid-run
#     can time every repetition of one benchmark on the slow one;
#   * a process that stays on a slow CPU slows its benchmarks by
#     different factors (the flat join by up to 1.5x, the reference join
#     by less).
# So run_sampled runs a suite in SAMPLE_PROCESSES processes, each pinned
# to its own CPU (round robin over the CPUs this process may use), each
# repeating every benchmark SAMPLE_REPETITIONS times with the
# repetitions of all benchmarks shuffled together; by_name keeps each
# benchmark's fastest repetition over all of them, so every ratio is a
# best over passes.
SAMPLE_PROCESSES = 4
SAMPLE_REPETITIONS = 25
SAMPLE_FLAGS = ("--benchmark_min_time=0.01",
                f"--benchmark_repetitions={SAMPLE_REPETITIONS}",
                "--benchmark_enable_random_interleaving=true")


SAMPLE_METHOD = (f"each benchmark at its fastest of {SAMPLE_PROCESSES} "
                 f"CPU-pinned processes x {SAMPLE_REPETITIONS} shuffled "
                 f"repetitions (tools/bench_to_json.py run_sampled)")


def run_sampled(bench: Path) -> dict:
    cpus = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else [None]
    raw: dict = {"benchmarks": []}
    for i in range(SAMPLE_PROCESSES):
        dump = run_bench(bench, SAMPLE_FLAGS, cpus[i % len(cpus)])
        raw.setdefault("context", dump.get("context", {}))
        raw["benchmarks"].extend(dump.get("benchmarks", []))
    return raw


def by_name(raw: dict) -> dict[str, dict]:
    """One row per benchmark: its fastest repetition (aggregate rows such
    as _mean and _median are skipped)."""
    rows: dict[str, dict] = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        kept = rows.get(bench["name"])
        if kept is None or time_ns(bench) < time_ns(kept):
            rows[bench["name"]] = bench
    return rows


def time_ns(bench: dict) -> float:
    unit = bench.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    return float(bench["real_time"]) * scale


def context_of(raw: dict) -> dict:
    return {
        "host": raw.get("context", {}).get("host_name", ""),
        "num_cpus": raw.get("context", {}).get("num_cpus", 0),
        "date": raw.get("context", {}).get("date", ""),
    }


def distill_serve(raw: dict) -> dict:
    benches = by_name(raw)
    out: dict = {
        "benchmark": "bench_serve",
        "context": context_of(raw),
        "method": SAMPLE_METHOD,
        "edit_latency_us": {},
        "steady_state_ops_sec": None,
        "speedup": {},
    }
    for name, bench in benches.items():
        if name.startswith("BM_ServeEditLatency/"):
            blocks = name.split("/")[1]
            # Two edits per iteration (delete + revival).
            out["edit_latency_us"][blocks] = time_ns(bench) / 2 / 1e3
        elif name.startswith("BM_ServeScriptReplay/"):
            ops = float(name.split("/")[1])
            out["steady_state_ops_sec"] = ops / (time_ns(bench) / 1e9)
    for blocks in ("64", "256"):
        rebuild = benches.get(f"BM_ServeRebuild/{blocks}")
        if rebuild is None:
            continue
        for cache in ("0", "1"):
            incremental = benches.get(f"BM_ServeIncremental/{blocks}/{cache}")
            if incremental is None:
                continue
            key = f"blocks={blocks}/cache={'on' if cache == '1' else 'off'}"
            out["speedup"][key] = {
                "rebuild_us": time_ns(rebuild) / 1e3,
                "incremental_us": time_ns(incremental) / 1e3,
                "speedup": time_ns(rebuild) / time_ns(incremental),
            }
    return out


def report_serve(summary: dict) -> None:
    gate = summary["speedup"].get("blocks=64/cache=on", {}).get("speedup")
    for key, row in summary["speedup"].items():
        print(f"  {key}: {row['speedup']:.1f}x "
              f"({row['rebuild_us']:.0f}us -> {row['incremental_us']:.1f}us)")
        if row["speedup"] < 1.0:
            print(f"bench_to_json: WARNING {key} crossed over "
                  f"({row['speedup']:.2f}x): the resident session is slower "
                  f"than a per-request rebuild at this point — see "
                  f"`prefrepctl session --crossover` and docs/serving.md",
                  file=sys.stderr)
    if gate is not None and gate < 10.0:
        print(f"bench_to_json: WARNING speedup gate "
              f"(>=10x at 64 blocks, cache on) not met: {gate:.1f}x",
              file=sys.stderr)


FSYNC_MODES = {"0": "off", "1": "batch", "2": "always"}


def distill_recovery(raw: dict) -> dict:
    benches = by_name(raw)
    out: dict = {
        "benchmark": "bench_recovery",
        "context": context_of(raw),
        "wal_append_us": {},
        "fsync_penalty": None,
        "recovery_replay": {},
        "snapshot_boot": {},
        "checkpoint_ms": None,
    }
    for name, bench in benches.items():
        if name.startswith("BM_WalAppend/"):
            mode = FSYNC_MODES.get(name.split("/")[1], name.split("/")[1])
            out["wal_append_us"][mode] = time_ns(bench) / 1e3
        elif name.startswith("BM_RecoveryReplay/"):
            ops = name.split("/")[1]
            replayed = bench.get("ops_replayed", 0.0)
            row = {"boot_ms": time_ns(bench) / 1e6,
                   "ops_replayed": int(replayed)}
            if replayed:
                row["us_per_replayed_op"] = time_ns(bench) / replayed / 1e3
            out["recovery_replay"][ops] = row
        elif name.startswith("BM_RecoverySnapshot/"):
            ops = name.split("/")[1]
            out["snapshot_boot"][ops] = {"boot_ms": time_ns(bench) / 1e6}
        elif name.startswith("BM_Checkpoint/"):
            out["checkpoint_ms"] = time_ns(bench) / 1e6
    off = out["wal_append_us"].get("off")
    always = out["wal_append_us"].get("always")
    if off and always:
        out["fsync_penalty"] = always / off
    for ops, row in out["snapshot_boot"].items():
        replay = out["recovery_replay"].get(ops)
        if replay is not None and row["boot_ms"] > 0:
            row["speedup_vs_replay"] = replay["boot_ms"] / row["boot_ms"]
    return out


def report_recovery(summary: dict) -> None:
    for mode, us in summary["wal_append_us"].items():
        print(f"  append fsync={mode}: {us:.2f}us/record")
    if summary["fsync_penalty"] is not None:
        print(f"  fsync=always costs {summary['fsync_penalty']:.0f}x "
              f"fsync=off per record")
    for ops, row in summary["recovery_replay"].items():
        print(f"  cold boot, {ops}-op WAL: {row['boot_ms']:.2f}ms "
              f"({row['ops_replayed']} replayed)")
    for ops, row in summary["snapshot_boot"].items():
        speedup = row.get("speedup_vs_replay")
        extra = f", {speedup:.1f}x over replay" if speedup else ""
        print(f"  checkpointed boot, {ops} ops: "
              f"{row['boot_ms']:.2f}ms{extra}")
        if speedup is not None and speedup < 1.0:
            print(f"bench_to_json: WARNING snapshot boot at {ops} ops is "
                  f"slower than WAL replay ({speedup:.2f}x) — "
                  f"checkpointing lost its purpose",
                  file=sys.stderr)
    if summary["checkpoint_ms"] is not None:
        print(f"  checkpoint: {summary['checkpoint_ms']:.2f}ms")


def distill_categoricity(raw: dict) -> dict:
    benches = by_name(raw)
    out: dict = {
        "benchmark": "bench_categoricity",
        "context": context_of(raw),
        "method": SAMPLE_METHOD,
        "speedup": {},
        "fallback_overhead": {},
        "decide_us": {},
    }
    for name, bench in benches.items():
        if name.startswith("BM_CqaCategoricalFast/"):
            cliques = name.split("/")[1]
            enum = benches.get(f"BM_CqaCategoricalEnum/{cliques}")
            if enum is None:
                continue
            out["speedup"][cliques] = {
                "fast_us": time_ns(bench) / 1e3,
                "enum_us": time_ns(enum) / 1e3,
                "speedup": time_ns(enum) / time_ns(bench),
            }
        elif name.startswith("BM_CqaNearMissFast/"):
            cliques = name.split("/")[1]
            enum = benches.get(f"BM_CqaNearMissEnum/{cliques}")
            if enum is None:
                continue
            out["fallback_overhead"][cliques] = {
                "fast_us": time_ns(bench) / 1e3,
                "enum_us": time_ns(enum) / 1e3,
                "overhead": time_ns(bench) / time_ns(enum),
            }
        elif name.startswith("BM_DecideCategoricity/"):
            cliques = name.split("/")[1]
            out["decide_us"][cliques] = time_ns(bench) / 1e3
    # Shuffled repetitions reach by_name in any order; list by cliques.
    for key in ("speedup", "fallback_overhead", "decide_us"):
        out[key] = dict(sorted(out[key].items(), key=lambda kv: int(kv[0])))
    return out


def report_categoricity(summary: dict) -> None:
    for cliques, row in sorted(summary["speedup"].items(), key=lambda kv: int(kv[0])):
        print(f"  categorical, {cliques} cliques: {row['speedup']:.1f}x "
              f"({row['enum_us']:.0f}us -> {row['fast_us']:.1f}us)")
        if row["speedup"] < 5.0:
            print(f"bench_to_json: WARNING categoricity speedup gate "
                  f"(>=5x) not met at {cliques} cliques: "
                  f"{row['speedup']:.1f}x", file=sys.stderr)
    for cliques, row in sorted(summary["fallback_overhead"].items(),
                               key=lambda kv: int(kv[0])):
        print(f"  near-miss, {cliques} cliques: "
              f"{row['overhead']:.2f}x enumeration "
              f"({row['enum_us']:.0f}us -> {row['fast_us']:.0f}us)")
        if row["overhead"] > 1.25:
            print(f"bench_to_json: WARNING near-miss fallback at {cliques} "
                  f"cliques costs {row['overhead']:.2f}x the forced "
                  f"enumeration — the pre-pass is no longer within noise "
                  f"(see docs/categoricity.md)", file=sys.stderr)
    for cliques, us in sorted(summary["decide_us"].items(),
                              key=lambda kv: int(kv[0])):
        print(f"  decide, {cliques} cliques: {us:.1f}us")


def distill_hotpath(raw: dict) -> dict:
    benches = by_name(raw)
    out: dict = {
        "benchmark": "bench_hotpath",
        "context": context_of(raw),
        "conflict_build": {},
        "graph_build_us": {},
        "block_decomposition_us": {},
        "consistency_scan_us": {},
        "agree_kernel": {},
    }
    for name, bench in benches.items():
        if name.startswith("BM_ConflictPairsFlat/"):
            shards = name.split("/")[1]
            ref = benches.get(f"BM_ConflictPairsReference/{shards}")
            scalar = benches.get(f"BM_ConflictPairsFlatScalar/{shards}")
            row = {"flat_us": time_ns(bench) / 1e3}
            if ref is not None:
                row["reference_us"] = time_ns(ref) / 1e3
                row["flat_speedup"] = time_ns(ref) / time_ns(bench)
            if scalar is not None:
                row["scalar_us"] = time_ns(scalar) / 1e3
                row["scalar_penalty"] = time_ns(scalar) / time_ns(bench)
            out["conflict_build"][shards] = row
        elif name.startswith("BM_ConflictGraphBuild/"):
            shards = name.split("/")[1]
            out["graph_build_us"][shards] = time_ns(bench) / 1e3
        elif name.startswith("BM_BlockDecomposition/"):
            shards = name.split("/")[1]
            out["block_decomposition_us"][shards] = time_ns(bench) / 1e3
        elif name.startswith("BM_ConsistencyScan/"):
            shards = name.split("/")[1]
            out["consistency_scan_us"][shards] = time_ns(bench) / 1e3
    early = benches.get("BM_AgreeEarlyExit")
    full = benches.get("BM_AgreeFullScan")
    if early is not None and full is not None:
        out["agree_kernel"] = {
            "early_exit_ns": time_ns(early),
            "full_scan_ns": time_ns(full),
            "early_exit_gain": time_ns(full) / time_ns(early),
        }
    return out


def report_hotpath(summary: dict) -> None:
    for shards, row in sorted(summary["conflict_build"].items(),
                              key=lambda kv: int(kv[0])):
        speedup = row.get("flat_speedup")
        if speedup is None:
            continue
        print(f"  conflict build, {shards} shards: {speedup:.1f}x "
              f"({row['reference_us']:.0f}us -> {row['flat_us']:.1f}us"
              + (f", scalar {row['scalar_us']:.1f}us"
                 if "scalar_us" in row else "") + ")")
        if speedup < 3.0:
            print(f"bench_to_json: WARNING conflict-build speedup gate "
                  f"(>=3x) not met at {shards} shards: {speedup:.1f}x",
                  file=sys.stderr)
    kernel = summary["agree_kernel"]
    if kernel:
        print(f"  agree kernel: early exit {kernel['early_exit_ns']:.1f}ns, "
              f"full scan {kernel['full_scan_ns']:.1f}ns "
              f"({kernel['early_exit_gain']:.1f}x gain)")


SUITES = {
    "serve": {
        "bench": "build/bench/bench_serve",
        "out": "BENCH_serve.json",
        "run": run_sampled,
        "distill": distill_serve,
        "report": report_serve,
    },
    "recovery": {
        "bench": "build/bench/bench_recovery",
        "out": "BENCH_recovery.json",
        "run": run_bench,
        "distill": distill_recovery,
        "report": report_recovery,
    },
    "categoricity": {
        "bench": "build/bench/bench_categoricity",
        "out": "BENCH_categoricity.json",
        "run": run_sampled,
        "distill": distill_categoricity,
        "report": report_categoricity,
    },
    "hotpath": {
        "bench": "build/bench/bench_hotpath",
        "out": "BENCH_hotpath.json",
        "run": run_sampled,
        "distill": distill_hotpath,
        "report": report_hotpath,
    },
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--suite", choices=sorted(SUITES), default="serve",
                        help="which benchmark suite to run and distill")
    parser.add_argument("--bench", default=None,
                        help="path to the built benchmark binary")
    parser.add_argument("--out", default=None,
                        help="output JSON path")
    args = parser.parse_args()
    suite = SUITES[args.suite]
    bench = Path(args.bench or REPO_ROOT / suite["bench"])
    out_path = Path(args.out or REPO_ROOT / suite["out"])
    if not bench.exists():
        print(f"bench_to_json: no binary at {bench} — build "
              f"{bench.name} first", file=sys.stderr)
        return 1
    summary = suite["distill"](suite["run"](bench))
    out_path.write_text(json.dumps(summary, indent=2) + "\n",
                        encoding="utf-8")
    print(f"bench_to_json: wrote {out_path}")
    suite["report"](summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
