#!/usr/bin/env python3
"""The repository benchmark: control-plane round cost and simulator speed.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

It builds the library and the harness from source (CMake, Release -O2) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
single-threaded workload, checks its outputs, prints a report and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics (the run then has an untraced and a
traced half, and reports the tracing overhead). perfbench/README.md documents
the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("arbiter_1k", "htap_colocation", "numa_ycsb")
BUILD_TIMEOUT_S = 850
HARNESS_TIMEOUT_S = 170
# Steps the p99 needs so that ten steps lie beyond it.
P99_MIN_STEPS = 1000
# Steps per timing window, about 0.3 s of each workload's loop: one load
# cycle of arbiter_1k, 200 monitoring rounds of htap_colocation, two of
# numa_ycsb.
WINDOW_STEPS = {"arbiter_1k": 30, "htap_colocation": 2000, "numa_ycsb": 200}

# The modelled outcomes of each workload, by name, with units.
MODELLED = {
    "arbiter_1k": [("fairness", "jain"), ("failed_ratio", "ratio")],
    "htap_colocation": [("oltp_p99_ms", "ms"), ("oltp_goodput_tps", "tps"),
                        ("olap_qps", "qps"), ("failed_ratio", "ratio")],
    "numa_ycsb": [("goodput_tps", "tps"), ("abort_ratio", "ratio"),
                  ("remote_fraction", "ratio"), ("failed_ratio", "ratio")],
}
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "step_cpu_us_p50": "us", "step_cpu_us_p99": "us",
                    "sim_s_per_cpu_s": "ratio"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and waits for it. On timeout the
    whole group (a build's compiler processes too) is killed and reaped
    before subprocess.TimeoutExpired propagates."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = Path(target)
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "core" / "arbiter.h").is_file():
        fail(f"no elasticore sources under {ROOT / 'src'}; run from a "
             "checkout of the repository", code=2)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        steps = []
        if not (out_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(out_dir), "-j", jobs,
                      "--target", "perfbench_harness"])
        for cmd in steps:
            try:
                returncode = run_group(
                    cmd, max(1.0, deadline - time.monotonic()), cwd=ROOT,
                    stdout=log, stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {cmd[:2]} failed: {error}")
            if returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    return out_dir / "perfbench_harness"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR)
                   for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cc", ".h", ".py", ".txt"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_benchmark_json():
    """The metric declarations the JSON line must follow."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no {path}", code=2)
    with open(path) as f:
        return json.load(f)


def windows(steps, size):
    """The steps cut into consecutive windows of `size` steps (a trailing
    partial window is dropped); the whole phase when it is shorter."""
    cut = [steps[i:i + size] for i in range(0, len(steps) - size + 1, size)]
    return cut or [steps]


def timing_metrics(phase, workload, clock):
    """Timing metrics of one measured phase, from its thread CPU times
    (clock "cpu", the end-to-end metrics) or its wall times (clock "wall",
    reported beside them). The host this benchmark was tuned on alternates
    between faster and slower stretches of several seconds, so the p50 and
    the simulator speed are those of the phase's slowest window of
    WINDOW_STEPS[workload] steps: a program change moves every window, a fast
    stretch of the host moves none but the fastest. The p99 is taken over all
    steps, because a tail needs the samples."""
    steps = phase["step_cpu_us" if clock == "cpu" else "step_us"]
    sim_s_per_step = phase["sim_s"] / len(steps)
    cut = windows(steps, WINDOW_STEPS[workload])
    return {
        f"step_{clock}_us_p50": max(stats.percentile(w, 50) for w in cut),
        f"step_{clock}_us_p99": stats.percentile(steps, 99),
        f"sim_s_per_{clock}_s": min(
            len(w) * sim_s_per_step / (sum(w) * 1e-6) for w in cut),
    }


def run_workload(harness, workload, seed, seconds, trace, results_dir):
    """Runs the harness once; returns (result record, raw harness output)
    or exits."""
    raw_path = results_dir / f"{workload}-seed{seed}-trace{trace}.raw.json"
    spans_path = results_dir / f"{workload}-seed{seed}.spans.csv"
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(raw_path)]
    if trace:
        cmd += ["--spans", str(spans_path)]
    if raw_path.exists():
        raw_path.unlink()
    started = time.monotonic()
    try:
        returncode = run_group(cmd, HARNESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness did not finish in {HARNESS_TIMEOUT_S} s")
    wall_s = time.monotonic() - started
    # Exit code 3: the harness ran to the end but an output check failed.
    if returncode not in (0, 3) or not raw_path.is_file():
        fail(f"{workload}: harness exited with code {returncode}")
    with open(raw_path) as f:
        raw = json.load(f)

    untraced = raw["untraced"]
    metrics = {
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        **timing_metrics(untraced, workload, "cpu"),
    }
    wall = timing_metrics(untraced, workload, "wall")
    failed_ratio = stats.failed_ratio(raw["failed"], max(1, raw["attempted"]))
    model = dict(raw["modelled"])
    model.setdefault("failed_ratio", failed_ratio)
    layers = dict(raw["layers"])
    for name, value in model.items():
        layers[f"model.{name}"] = value
    if trace:
        traced = timing_metrics(raw["traced"], workload, "cpu")
        for name, value in timing_metrics(untraced, workload, "cpu").items():
            layers[f"trace.overhead.{name}"] = stats.relative_change(
                traced[name], value)
    correct = returncode == 0 and raw["failed"] == 0
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "violations": raw["violations"],
        "end_to_end": metrics,
        "wall_clock": wall,
        "modelled": model,
        "layers": layers,
        "steps": len(untraced["step_us"]),
        "reps": untraced["reps"],
        "wall_s": wall_s,
        "provenance": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "compiler": raw["provenance"]["compiler"],
            "build_type": raw["provenance"]["build_type"],
            "cxx_flags": raw["provenance"]["cxx_flags"].strip(),
            "git_commit": git_commit(),
            "source_digest": source_digest(),
            "seed": seed,
        },
    }
    with open(results_dir / f"{workload}-seed{seed}-trace{trace}.json",
              "w") as f:
        json.dump(record, f, indent=1)
    return record, raw


def print_report(record, raw):
    workload = record["workload"]
    prov = record["provenance"]
    print(f"== {workload}  seed {record['seed']}  trace {record['trace']}  "
          f"({record['wall_s']:.1f} s wall)")
    print(f"   provenance: nproc {prov['nproc']}, {prov['cpu']}, "
          f"{prov['compiler']}, {prov['build_type']} ({prov['cxx_flags']}), "
          f"git {prov['git_commit']}, sources {prov['source_digest']}")
    steps = raw["untraced"]["step_cpu_us"]
    p, tail_value, n = stats.tail(steps)
    tail_text = (f"p{p:g} = {tail_value:.1f} us" if p is not None
                 else "too few steps")
    window_count = len(windows(steps, WINDOW_STEPS[workload]))
    print(f"   untraced steps: {n} in {window_count} window(s), "
          f"{record['reps']} repetition(s); CPU-time tail rule -> "
          f"{tail_text}")
    if n < P99_MIN_STEPS:
        print(f"   note: {n} steps < {P99_MIN_STEPS}; step_cpu_us_p99 has "
              "fewer than ten steps beyond it")
    setups = raw["setup_s"]
    print(f"   set-ups: {len(setups)}, median {stats.median(setups):.4f} s")
    print("   end-to-end:")
    for name, value in record["end_to_end"].items():
        print(f"     {name:<20} {value:>16.6g} {END_TO_END_UNITS[name]}")
    print("   wall clock, for reference: " + ", ".join(
        f"{name} {value:.6g}" for name, value in record["wall_clock"].items()))
    print("   modelled:")
    for name, unit in MODELLED[workload]:
        print(f"     {name:<20} {record['modelled'][name]:>16.6g} {unit}")
    if record["trace"]:
        print("   per-layer (traced half; 0 = layer not exercised here):")
        for name, value in sorted(record["layers"].items()):
            print(f"     {name:<40} {value:>16.6g}")
        if workload == "arbiter_1k":
            layers = record["layers"]
            parts = (layers["perf.sample_us_per_round"]
                     + layers["platform.set_cpuset_us_per_round"]
                     + layers["core.poll_self_us"])
            print(f"   Poll split: perf + platform + core self = {parts:.3f} "
                  f"us = Poll {layers['core.poll_us']:.3f} us")
        else:
            layers = record["layers"]
            parts = layers["exec.hook_us"] + layers["ossim.tick_us"]
            print(f"   Step split: hooks + scheduler = {parts:.3f} us = "
                  f"Step {layers['machine.step_us']:.3f} us")
    print(f"   checks: {record['failed']} failed of {record['attempted']} "
          f"-> {'ok' if record['correct'] else 'FAILED'}")
    for violation in record["violations"]:
        print(f"     violation: {violation}")


def contract_metrics(record, bench):
    """The metrics of BENCHMARK.json, every one of them, with units."""
    if record["trace"]:
        wanted, source = bench["per_layer"], record["layers"]
    else:
        wanted, source = bench["end_to_end"], record["end_to_end"]
    return {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in wanted}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so run_group kills the child it waits for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        fail("--seed must be >= 0", code=2)
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]", code=2)

    bench = load_benchmark_json()
    out_dir = build_dir()
    harness = build(out_dir)
    results_dir = out_dir / "results"
    results_dir.mkdir(exist_ok=True)
    seconds = f"{args.seconds:g}"

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        record, raw = run_workload(harness, workload, args.seed, seconds,
                                   args.trace, results_dir)
        print_report(record, raw)
        records.append(record)

    correct = all(r["correct"] for r in records)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if len(records) == 1:
        summary["metrics"] = contract_metrics(records[0], bench)
    else:
        summary["metrics"] = {
            f"{r['workload']}.{name}": metric
            for r in records
            for name, metric in contract_metrics(r, bench).items()}
    print(json.dumps(summary))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
