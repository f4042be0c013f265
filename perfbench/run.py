#!/usr/bin/env python3
"""Replica benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the replica library and the
perfbench binary with CMake into $CARGO_TARGET_DIR (default .bench_build),
runs the workload, prints every metric by name and unit together with the
result fingerprint, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits non-zero if the build or the run fails, or if the
correctness gate fails (the JSON line is still printed then). A run the
generator guard marks invalid is reported as such, on stdout, on stderr
and in the result file, but does not fail: the guard judges the host and
the generator, not the replica's outputs.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the perfbench target; returns the binary."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def cmake_cache(build_dir, key):
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def filesystem_type(path):
    """fstype of the mount holding `path` (longest mount-point prefix)."""
    best, fstype = "", "unknown"
    path = str(Path(path).resolve())
    try:
        with open("/proc/self/mountinfo") as mounts:
            for line in mounts:
                fields = line.split()
                mount_point = fields[4]
                fs = fields[fields.index("-") + 1]
                inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best):
                    best, fstype = mount_point, fs
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def source_digest():
    """sha256 over the replica and benchmark sources (the checkout may not be a git tree)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def fingerprint(build_dir, work_dir):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10)
        compiler = version.stdout.splitlines()[0] if version.stdout else compiler
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "log_fs": filesystem_type(work_dir),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The metric lists come from BENCHMARK.json; the perfbench binary checks
    # the workload name (it also runs workloads that BENCHMARK.json does not
    # gate, such as kv-durable-lease).
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 1
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    out_path = work_dir / f"result-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}.json"
    if args.trace:  # span files are large: keep only the latest one per workload
        for old in work_dir.glob(f"trace-{args.workload}-*.csv"):
            old.unlink()

    try:
        proc = subprocess.run([str(binary), "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--workdir", str(work_dir), "--out", str(out_path)],
                              stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if not out_path.exists():
        log(f"perfbench exited with {proc.returncode} and wrote no result")
        return proc.returncode or 1
    result = json.loads(out_path.read_text())
    result["fingerprint"] = fingerprint(build_dir, work_dir)
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {result['workload']}  seed {result['seed']}  trace {args.trace}")
    for key, value in result["fingerprint"].items():
        print(f"  {key}: {value}")
    print(f"  config: {json.dumps(result['config'])}")
    print(f"  simnet: {json.dumps(result['simnet'])}")
    print(f"  load: {json.dumps(result['load'])}")
    for section in ("end_to_end", "per_layer"):
        for name, m in result[section].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}  (n={m['samples']:g})")
    if args.trace:
        print(f"bottleneck stage (busiest leader stage): {result['bottleneck']}")
        print(f"spans: {result['trace_file']}")
    print(f"correctness gate: {'pass' if result['correct'] else 'FAIL'}"
          f"{'' if result['correct'] else ' - ' + '; '.join(result['errors'])}")
    guard = "pass" if result["valid"] else "INVALID - " + "; ".join(result["invalid"])
    print(f"generator guard: {guard}")
    if not result["valid"]:
        log(f"warning: generator guard marks this run invalid: {'; '.join(result['invalid'])}")
    print(f"result file: {out_path}")

    source = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        log(f"perfbench did not report {', '.join(missing)}")
        return 1
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]} for m in wanted}
    ok = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": ok, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
