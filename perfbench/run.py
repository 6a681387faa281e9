#!/usr/bin/env python3
"""The ratt benchmark: builds the harness, runs one workload, checks the
device-model goldens and prints the result.

    python3 perfbench/run.py --workload fleet_small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The harness is built from source into
.bench_build/perfbench (CMake, Release). The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines before it name every metric with its unit and the host the
numbers were measured on. README.md explains the workloads and metrics.

    python3 perfbench/run.py --emit-goldens

re-pins goldens.json after an intentional change to the device model.
"""

import argparse
import functools
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "ratt_perfbench"
GOLDENS = BENCH_DIR / "goldens.json"

WORKLOADS = ("fleet_small", "fleet_mac", "hostile_link", "incremental_dirty")

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "rounds_per_s": ("rounds/s", "higher"),
    "cpu_us_per_round": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "export_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "sim.swarm_ctor_ms": ("ms", "lower"),
    "sim.materialize_us": ("us", "lower"),
    "sim.resident_bytes_per_device": ("bytes", "lower"),
    "sim.events_per_round": ("1/round", "lower"),
    "sim.queue_ns_per_event": ("ns", "lower"),
    "sim.drain_cpu_util": ("ratio", "higher"),
    "sim.cpu_us_per_round": ("us", "lower"),
    "sim.attributed_us_per_round": ("us", "lower"),
    "sim.unattributed_us_per_round": ("us", "lower"),
    "attest.make_request_us": ("us", "lower"),
    "attest.codec_us": ("us", "lower"),
    "attest.prover_handle_us": ("us", "lower"),
    "attest.verifier_check_us": ("us", "lower"),
    "attest.prover_reject_us": ("us", "lower"),
    "attest.rejects_per_round": ("1/round", "lower"),
    "attest.prover_handle_inc_us": ("us", "lower"),
    "attest.verifier_check_inc_us": ("us", "lower"),
    "attest.inc_pages_per_round": ("1/round", "lower"),
    "attest.inc_fallback_frac": ("ratio", "lower"),
    "attest.batch_hit_ratio": ("ratio", "higher"),
    "crypto.mac_us": ("us", "lower"),
    "crypto.macs_per_round": ("1/round", "lower"),
    "crypto.ecdsa_verify_ms": ("ms", "lower"),
    "hw.read_block_us": ("us", "lower"),
    "hw.write_block_us": ("us", "lower"),
    "hw.prover_ctor_ms": ("ms", "lower"),
    "net.retransmits_per_round": ("1/round", "lower"),
    "net.timeouts_per_round": ("1/round", "lower"),
    "net.tap_ns_per_msg": ("ns", "lower"),
    "obs.merge_ms": ("ms", "lower"),
    "obs.jsonl_ms": ("ms", "lower"),
    "obs.records_per_round": ("1/round", "lower"),
    "obs.overhead_frac": ("ratio", "lower"),
    "obs.trace_dropped": ("count", "lower"),
    "timing.device_ms_per_round": ("ms", "lower"),
    "timing.phase_cycles.req_auth": ("cycles/round", "lower"),
    "timing.phase_cycles.freshness": ("cycles/round", "lower"),
    "timing.phase_cycles.mem_mac": ("cycles/round", "lower"),
    "timing.phase_cycles.resp_mac": ("cycles/round", "lower"),
    "timing.phase_cycles.net_wait": ("cycles/round", "lower"),
    "timing.phase_cycles.retry_overhead": ("cycles/round", "lower"),
}

# Golden fields every drained instance must report.
CORE_GOLDEN = ("report_digest", "rounds_sent", "rounds_started",
               "rounds_valid", "events_leftover", "trace_dropped",
               "rewrite_failures", "inputs_fnv")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("no samples")
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


# --------------------------------------------------------------------------
# Build


def build():
    """Configure (once) and build the harness; False on any failure."""
    if not (ROOT / "src" / "ratt").is_dir():
        log("error: ratt sources (src/ratt) are not in this checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "ratt_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("error: build step failed: " + " ".join(cmd))
            return False
    return BINARY.exists()


def build_flags():
    """Compiler and optimisation flags of the measured build."""
    cache = BUILD_DIR / "CMakeCache.txt"
    flags = {}
    if cache.exists():
        for line in cache.read_text(errors="replace").splitlines():
            m = re.match(r"(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER|"
                         r"CMAKE_CXX_FLAGS|CMAKE_CXX_FLAGS_RELEASE):[A-Z]+=(.*)",
                         line)
            if m:
                flags[m.group(1)] = m.group(2)
    return flags


def host_fingerprint(seed, harness):
    cpu_model, cpu_flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name") and cpu_model == "unknown":
                cpu_model = line.split(":", 1)[1].strip()
            elif line.startswith("flags") and not cpu_flags:
                cpu_flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    flags = build_flags()
    return {
        "cpu_model": cpu_model,
        "nproc": nproc,
        "sha_ni": "sha_ni" in cpu_flags,
        "avx2": "avx2" in cpu_flags,
        "machine": platform.machine(),
        "compiler": harness.get("compiler", "unknown"),
        "build_type": harness.get("build_type", flags.get("CMAKE_BUILD_TYPE")),
        "cxx_flags": (flags.get("CMAKE_CXX_FLAGS", "") + " " +
                      flags.get("CMAKE_CXX_FLAGS_RELEASE", "")).strip(),
        "aslr_disabled": bool(no_aslr_prefix()),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# Harness


@functools.lru_cache(maxsize=None)
def no_aslr_prefix():
    """Launch prefix that disables address-space randomization, so the
    run-to-run spread is not widened by a different memory layout on
    every launch (empty where setarch is unavailable)."""
    try:
        probe = subprocess.run(["setarch", platform.machine(), "-R", "true"],
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    except OSError:
        return ()
    return ("setarch", platform.machine(), "-R") if probe.returncode == 0 \
        else ()


def run_harness(workload, seed, seconds, mode, max_reps=0, spans=None):
    cmd = [*no_aslr_prefix(),
           str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if max_reps:
        cmd += ["--max-reps", str(max_reps)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Golden checks


def flatten(golden):
    out = {k: v for k, v in golden.items() if k != "timing"}
    out.update(golden.get("timing", {}))
    return out


def pinned_for(goldens, workload, seed):
    """(fields, pinned_by_seed) for this workload and seed."""
    entry = goldens["workloads"][workload]
    fields = dict(entry.get("any_seed", {}))
    by_seed = entry.get("by_seed", {}).get(str(seed))
    if by_seed is not None:
        fields.update(by_seed)
    return fields, by_seed is not None or "by_seed" not in entry


def compare(label, produced, pinned, errors):
    for key, want in pinned.items():
        if key in produced and produced[key] != want:
            errors.append(f"{label}: {key} = {produced[key]!r}, "
                          f"pinned {want!r}")


def check_instance(label, workload, golden, errors):
    """Invariants every drained instance must satisfy."""
    g = flatten(golden)
    for key in CORE_GOLDEN:
        if key not in g:
            errors.append(f"{label}: missing golden field {key}")
            return
    if g["events_leftover"] != 0:
        errors.append(f"{label}: {g['events_leftover']} events stranded")
    if g["trace_dropped"] != 0:
        errors.append(f"{label}: trace rings dropped {g['trace_dropped']}")
    if g["rewrite_failures"] != 0:
        errors.append(f"{label}: {g['rewrite_failures']} page rewrites "
                      "failed")
    if g["rounds_valid"] == 0:
        errors.append(f"{label}: no valid rounds")
    if g["rounds_valid"] != g["rounds_started"]:
        errors.append(f"{label}: {g['rounds_started'] - g['rounds_valid']} "
                      "rounds did not validate")


def check_e2e(workload, seed, out, goldens):
    errors = []
    pinned, by_seed = pinned_for(goldens, workload, seed)
    reps = out["reps"]
    first = flatten(reps[0]["golden"])
    for i, rep in enumerate(reps):
        check_instance(f"rep {i}", workload, rep["golden"], errors)
        if flatten(rep["golden"]) != first:
            errors.append(f"rep {i}: deterministic output differs from rep 0")
        compare(f"rep {i}", flatten(rep["golden"]), pinned, errors)
    return errors, by_seed


def check_traced(workload, seed, out, goldens):
    errors = []
    pinned, by_seed = pinned_for(goldens, workload, seed)
    a, b = flatten(out["golden_a"]), flatten(out["golden_b"])
    check_instance("traced rep", workload, out["golden_a"], errors)
    check_instance("observer rep", workload, out["golden_b"], errors)
    for key in set(a) & set(b):
        if a[key] != b[key]:
            errors.append(f"observer layout changed {key}: "
                          f"{a[key]!r} vs {b[key]!r}")
    if "single_thread" in out:
        single = flatten(out["single_thread"])
        check_instance("1 thread", workload, out["single_thread"], errors)
        if single != a:
            diff = sorted(k for k in a if single.get(k) != a[k])
            errors.append("1-thread run differs from the "
                          f"{out['threads']}-thread run in {diff}")
    compare("traced rep", a, pinned, errors)
    compare("observer rep", b, pinned, errors)
    if not out.get("pair_ok"):
        errors.append(f"private prover/verifier pair failed "
                      f"{out.get('pair_failures')} of "
                      f"{out.get('pair_rounds')} checks")
    return errors, by_seed


# --------------------------------------------------------------------------
# Metrics


def e2e_metrics(out):
    # The first instance warms the allocator arenas and lazy statics; it
    # is golden-checked like the rest but left out of the timings.
    reps = out["reps"][1:] or out["reps"]
    g = reps[0]["golden"]
    valid = max(1, g["rounds_valid"])
    return {
        "rounds_per_s": median(valid / r["drain_wall_s"] for r in reps),
        "cpu_us_per_round": median(r["drain_cpu_s"] * 1e6 / valid
                                   for r in reps),
        "setup_s": median(r["setup_s"] for r in reps),
        "export_s": median(r["export_s"] for r in reps),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def counts(out, trace):
    if trace:
        g = out["golden_a"]
        return g["rounds_started"], g["rounds_started"] - g["rounds_valid"]
    attempted = sum(r["golden"]["rounds_started"] for r in out["reps"])
    valid = sum(r["golden"]["rounds_valid"] for r in out["reps"])
    return attempted, attempted - valid


def measure(workload, seed, seconds, trace, goldens, max_reps=0):
    """Run one workload; returns (result line, detail record)."""
    if trace:
        spans = BUILD_DIR / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        out = run_harness(workload, seed, seconds, "traced", spans=spans)
        errors, by_seed = check_traced(workload, seed, out, goldens)
        table = PER_LAYER
        values = out["metrics"]
    else:
        out = run_harness(workload, seed, seconds, "e2e", max_reps=max_reps)
        errors, by_seed = check_e2e(workload, seed, out, goldens)
        table = END_TO_END
        values = e2e_metrics(out)
    correct = not errors
    attempted, failed = counts(out, trace)
    if not correct:
        failed = attempted
    metrics = {}
    for name, (unit, _) in table.items():
        if name not in values:
            errors.append(f"metric {name} missing from the harness output")
            correct = False
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    result = {"correct": correct, "attempted": max(1, attempted),
              "failed": failed, "metrics": metrics}
    detail = {"workload": workload, "trace": int(trace),
              "pinned_seed": by_seed, "errors": errors,
              "host": host_fingerprint(seed, out), "harness": out}
    return result, detail


# --------------------------------------------------------------------------
# Re-pinning


def emit_goldens(seconds, hostile_seeds):
    pinned = {"about": (
        "Deterministic device-model output of each workload, checked on "
        "every run. any_seed fields hold for every --seed; by_seed fields "
        "(hostile_link, whose fault schedule follows the seed) hold for "
        "the listed seeds. Regenerate with: python3 perfbench/run.py "
        "--emit-goldens"), "workloads": {}}
    for workload in WORKLOADS:
        def fields(seed):
            e2e = run_harness(workload, seed, seconds, "e2e", max_reps=1)
            traced = run_harness(workload, seed, seconds, "traced")
            merged = flatten(e2e["reps"][0]["golden"])
            merged.update(flatten(traced["golden_a"]))
            merged.update(flatten(traced["golden_b"]))
            return merged
        if workload == "hostile_link":
            by_seed = {}
            for seed in hostile_seeds:
                g = run_harness(workload, seed, seconds, "e2e", max_reps=1)
                by_seed[str(seed)] = flatten(g["reps"][0]["golden"])
                log(f"pinned {workload} seed {seed}")
            first = fields(hostile_seeds[0])
            per_sample = {k: v for k, v in first.items()
                          if k.startswith("timing.cycles_per_sample.")}
            pinned["workloads"][workload] = {"any_seed": per_sample,
                                             "by_seed": by_seed}
        else:
            a, b = fields(1), fields(2)
            same = {k: v for k, v in a.items() if b.get(k) == v and
                    k != "inputs_fnv"}
            pinned["workloads"][workload] = {"any_seed": same}
            log(f"pinned {workload} (seed-invariant fields: {len(same)})")
    GOLDENS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--goldens", type=Path, default=GOLDENS,
                    help="pinned goldens to check against")
    ap.add_argument("--max-reps", type=int, default=0,
                    help="cap on measured instances (0 = fill --seconds)")
    ap.add_argument("--emit-goldens", action="store_true",
                    help="re-pin goldens.json from this build")
    args = ap.parse_args()

    t0 = time.monotonic()
    if not build():
        return 2
    if args.emit_goldens:
        emit_goldens(1, list(range(0, 64)))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        goldens = json.loads(args.goldens.read_text())
    except (OSError, ValueError) as exc:
        log(f"error: cannot read goldens {args.goldens}: {exc}")
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), goldens, args.max_reps)
    except (RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        log(f"error: {exc}")
        return 2

    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"result": result, **detail}, indent=1) + "\n")
    for err in detail["errors"]:
        log("GOLDEN MISMATCH: " + err)
    print("host: " + json.dumps(detail["host"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"pinned_seed {str(detail['pinned_seed']).lower()} "
          f"correct {str(result['correct']).lower()} "
          f"({time.monotonic() - t0:.1f} s)")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
