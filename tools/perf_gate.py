#!/usr/bin/env python3
"""Perf-regression gate for the conflict hot path (B18).

    python3 tools/perf_gate.py --baseline BENCH_hotpath.json \
                               [--bench build/bench/bench_hotpath]
    python3 tools/perf_gate.py --baseline <json> --current <json>
    python3 tools/perf_gate.py --selftest

Re-measures the hotpath suite (or takes a pre-distilled --current) and
compares it against the committed baseline BENCH_hotpath.json.  Only
RATIOS are compared — flat-join speedup over the preserved reference
join, the FactsAgreeOn early-exit gain, the scalar-fallback penalty —
each of two kernels timed in the same run, never absolute microseconds.

The run is the one `bench_to_json.py --suite hotpath` records a baseline
with (run_sampled): four processes, each pinned to its own CPU and
repeating every kernel 25 times with the repetitions of all kernels
shuffled together, and each kernel kept at its fastest repetition.  So
neither a slow spell of the host nor a slow CPU sets one side of a ratio
alone.  The timed kernels all live in src/conflicts/conflicts.cc, which
is compiled with 64-byte function alignment (src/CMakeLists.txt): at the
default 16 bytes the early-exit gain followed the link address of
FactsAgreeOn, not its code.

Ratios are not machine-independent.  The join ratios recorded on a
1-CPU VM still hold as baselines on a 4-vCPU Xeon (8 shards read higher
there, 32 about the same), but the early-exit gain, a ~2 ns call
against a ~10 ns one, read 7.6x on the first and about 5.3x on the
second, with the same code.  So the agree_kernel baseline belongs to
the host recorded beside it (its "context"), and every run prints each
measured ratio next to its baseline and the hosts the baselines come
from: a CI log then tells a runner whose hardware reads differently
apart from a regression.

Gate rules (see docs/memory-layout.md):

  flat_speedup      >= 3.0 at every shard point (absolute floor), and
                    >= 75% of the baseline ratio (25% regression
                    tolerance for noise);
  early_exit_gain   >= 2.0, and >= 75% of baseline — losing the
                    short-circuit shows up as this ratio collapsing
                    to ~1;
  scalar_penalty    <= 1.25x baseline and <= 2.0 absolute — the scalar
                    fallback drifting away from the vector kernel means
                    a portability regression.

Exit status 1 on any breach, with one line per failed rule.  --selftest
verifies the gate actually bites: a synthetically regressed current
must fail, an identical current must pass, and one slow repetition in a
raw benchmark dump must not set a ratio.

Stdlib-only by design (runs in CI and the bare build container).
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_to_json import distill_hotpath, run_sampled  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

TOLERANCE = 0.75          # current ratio must be >= 75% of baseline
SPEEDUP_FLOOR = 3.0       # flat join vs reference, any shard count
EARLY_EXIT_FLOOR = 2.0    # FactsAgreeOn short-circuit gain
SCALAR_CEILING = 2.0      # scalar fallback vs vector kernel
SCALAR_HEADROOM = 1.25    # allowed growth over the baseline penalty


def check(baseline: dict, current: dict) -> list[str]:
    """Returns one message per violated gate rule (empty = pass)."""
    failures: list[str] = []
    for shards, base_row in sorted(baseline.get("conflict_build", {}).items(),
                                   key=lambda kv: int(kv[0])):
        cur_row = current.get("conflict_build", {}).get(shards)
        if cur_row is None or "flat_speedup" not in cur_row:
            failures.append(f"conflict_build[{shards}]: missing from the "
                            f"current measurement")
            continue
        speedup = cur_row["flat_speedup"]
        base = base_row.get("flat_speedup")
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"conflict_build[{shards}].flat_speedup = {speedup:.2f}x "
                f"breaches the >= {SPEEDUP_FLOOR:.1f}x floor")
        if base is not None and speedup < base * TOLERANCE:
            failures.append(
                f"conflict_build[{shards}].flat_speedup = {speedup:.2f}x "
                f"regressed > {100 * (1 - TOLERANCE):.0f}% from the "
                f"baseline {base:.2f}x")
        penalty = cur_row.get("scalar_penalty")
        base_penalty = base_row.get("scalar_penalty")
        if penalty is not None:
            if penalty > SCALAR_CEILING:
                failures.append(
                    f"conflict_build[{shards}].scalar_penalty = "
                    f"{penalty:.2f}x breaches the <= {SCALAR_CEILING:.1f}x "
                    f"ceiling")
            if base_penalty is not None and \
                    penalty > max(base_penalty, 1.0) * SCALAR_HEADROOM:
                failures.append(
                    f"conflict_build[{shards}].scalar_penalty = "
                    f"{penalty:.2f}x grew > {100 * (SCALAR_HEADROOM - 1):.0f}% "
                    f"over the baseline {base_penalty:.2f}x")
    base_kernel = baseline.get("agree_kernel", {})
    cur_kernel = current.get("agree_kernel", {})
    gain = cur_kernel.get("early_exit_gain")
    base_gain = base_kernel.get("early_exit_gain")
    if gain is None:
        failures.append("agree_kernel.early_exit_gain: missing from the "
                        "current measurement")
    else:
        if gain < EARLY_EXIT_FLOOR:
            failures.append(
                f"agree_kernel.early_exit_gain = {gain:.2f}x breaches the "
                f">= {EARLY_EXIT_FLOOR:.1f}x floor — the FactsAgreeOn "
                f"short-circuit is gone")
        if base_gain is not None and gain < base_gain * TOLERANCE:
            failures.append(
                f"agree_kernel.early_exit_gain = {gain:.2f}x regressed "
                f"> {100 * (1 - TOLERANCE):.0f}% from the baseline "
                f"{base_gain:.2f}x")
    return failures


def host_of(context: dict) -> str:
    cpu = f" ({context['cpu']})" if "cpu" in context else ""
    return (f"{context.get('host', '?')}{cpu}, "
            f"{context.get('num_cpus', '?')} CPUs, {context.get('date', '?')}")


def versus(value: float, base: float | None) -> str:
    shown = "none" if base is None else f"{base:.2f}x"
    return f"{value:.2f}x (baseline {shown})"


def report(baseline: dict, current: dict) -> list[str]:
    """Every measured ratio next to its baseline, then the hosts the
    measurement and the baselines come from."""
    lines: list[str] = []
    for shards, row in sorted(current.get("conflict_build", {}).items(),
                              key=lambda kv: int(kv[0])):
        base_row = baseline.get("conflict_build", {}).get(shards, {})
        for ratio in ("flat_speedup", "scalar_penalty"):
            if ratio in row:
                lines.append(f"conflict_build[{shards}].{ratio} = "
                             + versus(row[ratio], base_row.get(ratio)))
    gain = current.get("agree_kernel", {}).get("early_exit_gain")
    base_kernel = baseline.get("agree_kernel", {})
    if gain is not None:
        lines.append("agree_kernel.early_exit_gain = "
                     + versus(gain, base_kernel.get("early_exit_gain")))
    lines.append(f"measured on {host_of(current.get('context', {}))}")
    lines.append(f"conflict_build baseline recorded on "
                 f"{host_of(baseline.get('context', {}))}")
    kernel_context = base_kernel.get("context", baseline.get("context", {}))
    lines.append(f"agree_kernel baseline recorded on "
                 f"{host_of(kernel_context)}")
    return lines


def selftest() -> int:
    baseline = {
        "conflict_build": {
            "8": {"flat_speedup": 5.0, "scalar_penalty": 1.0},
            "32": {"flat_speedup": 10.0, "scalar_penalty": 1.0},
        },
        "agree_kernel": {"early_exit_gain": 7.0},
    }
    # Identical measurement: must pass.
    if check(baseline, copy.deepcopy(baseline)):
        print("perf_gate selftest: FAIL — identical current was rejected",
              file=sys.stderr)
        return 1
    # A 40% speedup regression (beyond the 25% tolerance): must fail.
    regressed = copy.deepcopy(baseline)
    regressed["conflict_build"]["32"]["flat_speedup"] = 6.0
    if not check(baseline, regressed):
        print("perf_gate selftest: FAIL — 40% speedup regression passed",
              file=sys.stderr)
        return 1
    # A floor breach with a matching (already-bad) baseline: must fail.
    bad_floor = copy.deepcopy(baseline)
    bad_floor["conflict_build"]["8"]["flat_speedup"] = 2.0
    if not check(bad_floor, copy.deepcopy(bad_floor)):
        print("perf_gate selftest: FAIL — sub-floor speedup passed",
              file=sys.stderr)
        return 1
    # A lost early exit: must fail.
    no_exit = copy.deepcopy(baseline)
    no_exit["agree_kernel"]["early_exit_gain"] = 1.0
    if not check(baseline, no_exit):
        print("perf_gate selftest: FAIL — lost early exit passed",
              file=sys.stderr)
        return 1
    # A scalar fallback drifting to 3x the vector kernel: must fail.
    slow_scalar = copy.deepcopy(baseline)
    slow_scalar["conflict_build"]["8"]["scalar_penalty"] = 3.0
    if not check(baseline, slow_scalar):
        print("perf_gate selftest: FAIL — 3x scalar penalty passed",
              file=sys.stderr)
        return 1
    # A raw dump with repetitions, one of them slowed by a spell of the
    # host: every kernel is kept at its fastest repetition, so the
    # flat_speedup[32] is 10x (500us over 50us), not 5.1x from the
    # slow 100us repetition listed last.
    def rows(name: str, times: list[float], unit: str = "us") -> list[dict]:
        return [{"name": name, "run_type": "iteration", "real_time": t,
                 "time_unit": unit} for t in times]
    raw = {"benchmarks": (
        rows("BM_ConflictPairsFlat/8", [20.0, 21.0])
        + rows("BM_ConflictPairsReference/8", [100.0, 102.0])
        + rows("BM_ConflictPairsFlatScalar/8", [20.0, 20.5])
        + rows("BM_ConflictPairsFlat/32", [50.0, 51.0, 100.0])
        + [{"name": "BM_ConflictPairsFlat/32_mean", "run_type": "aggregate",
            "real_time": 67.0, "time_unit": "us"}]
        + rows("BM_ConflictPairsReference/32", [500.0, 505.0, 510.0])
        + rows("BM_ConflictPairsFlatScalar/32", [50.0, 52.0, 51.0])
        + rows("BM_AgreeEarlyExit", [1.0, 1.1], "ns")
        + rows("BM_AgreeFullScan", [7.0, 7.2], "ns"))}
    distilled = distill_hotpath(raw)
    if check(baseline, distilled) or \
            distilled["conflict_build"]["32"]["flat_speedup"] != 10.0:
        print("perf_gate selftest: FAIL — a slow repetition set "
              "flat_speedup[32]", file=sys.stderr)
        return 1
    print("perf_gate selftest: all synthetic regressions rejected, "
          "identical measurement and a slow repetition accepted")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_hotpath.json to gate against")
    parser.add_argument("--bench",
                        default=str(REPO_ROOT / "build/bench/bench_hotpath"),
                        help="hotpath benchmark binary to measure")
    parser.add_argument("--current", default=None,
                        help="pre-distilled current JSON (skips the "
                             "benchmark run; for CI debugging)")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate rejects synthetic regressions")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.baseline is None:
        parser.error("--baseline is required (or use --selftest)")
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    if args.current is not None:
        current = json.loads(Path(args.current).read_text(encoding="utf-8"))
    else:
        bench = Path(args.bench)
        if not bench.exists():
            print(f"perf_gate: no binary at {bench} — build bench_hotpath "
                  f"first", file=sys.stderr)
            return 1
        current = distill_hotpath(run_sampled(bench))
    for line in report(baseline, current):
        print(f"perf_gate: {line}")
    failures = check(baseline, current)
    for failure in failures:
        print(f"perf_gate: FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print("perf_gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
