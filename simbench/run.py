#!/usr/bin/env python3
"""Builds the simulator-cost benchmark from source and runs one workload.

    python3 simbench/run.py --workload kv_read --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or
.bench_build by default, and is incremental after the first run. Build output
goes to stderr; the benchmark's last stdout line is its JSON result. The exit
code is non-zero when the build fails or a simulated result fails a check.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Runs `cmd`, killing and reaping it if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"simbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("simbench: no simulator sources under src/", file=sys.stderr)
        return None
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return None
    cmd = ["cmake", "--build", str(build_dir), "--target", "simbench",
           "-j", str(os.cpu_count() or 1)]
    if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        return None
    return build_dir / "simbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["kv_read", "kv_write", "rs_tx"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)
    if binary is None:
        print("simbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return run([str(binary), "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--fingerprints", str(HERE / "fingerprints.txt"),
                "--out-dir", str(build_dir / "simbench-out")],
               RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
