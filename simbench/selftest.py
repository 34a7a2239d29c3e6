#!/usr/bin/env python3
"""Self-tests of the simulator-cost benchmark.

    python3 simbench/selftest.py

Run from the repository root; takes about three minutes. Checks that:
  * every metric named in BENCHMARK.json is printed, with its unit, for every
    workload, in both the plain and the traced run;
  * the same seed gives the same fingerprint and different seeds different
    ones;
  * a tampered committed fingerprint makes the run fail every op
    (error_rate 1) and exit non-zero;
  * every derived <layer>.self_ns is >= 0 within the time bound: it may
    dip below 0 by at most the wall_s bound times the layer's own call time,
    since it subtracts separately timed calls;
  * without the simulator sources the command fails without a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SCRATCH = BUILD / "selftest"
BINARY = BUILD / "simbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["wall_s"]
# Each ledger self time and the call it is derived from.
SELF_OF = {
    "net.self_ns": "net.send_ns",
    "rdma.self_ns": "rdma.read_rt_ns",
    "prism.self_ns": "prism.execute_rt_ns",
    "rpc.self_ns": "rpc.call_rt_ns",
    "kv.pilaf.self_ns": "kv.pilaf.get_ns",
    "kv.prism.self_ns": "kv.prism.get_ns",
    "rs.abd.self_ns": "rs.abd.put_ns",
    "rs.prism.self_ns": "rs.prism.put_ns",
    "tx.farm.self_ns": "tx.farm.rmw_ns",
    "tx.prism.self_ns": "tx.prism.rmw_ns",
}
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run_py(workload, seed, seconds, trace, cwd=ROOT):
    return subprocess.run(
        ["python3", "simbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def fingerprint(workload, seed):
    out = subprocess.run([str(BINARY), "--workload", workload, "--seed",
                          str(seed), "--print-fingerprint"],
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_metrics_printed(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_py(workload, 2, 2, trace)
        res = result_of(proc)
        check(proc.returncode == 0 and res is not None and res["correct"],
              f"{workload} trace {trace} runs correct")
        if res is None:
            continue
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == want, f"{workload} trace {trace} prints every {key} "
              f"metric with its unit (missing {sorted(set(want) - set(got))},"
              f" extra {sorted(set(got) - set(want))})")
        table = proc.stdout
        check(all(f"{n} " in table and u in table for n, u in want.items()),
              f"{workload} trace {trace} table names every metric")
        if trace == 0:
            check("error_rate" in table, f"{workload} prints error_rate")
        else:
            m = {k: v["value"] for k, v in res["metrics"].items()}
            check(set(SELF_OF) == {k for k in m if k.endswith(".self_ns")},
                  f"{workload} self_ns set")
            bad = {k: m[k] for k, call in SELF_OF.items()
                   if m.get(k, -1e18) < -BOUND * m.get(call, 0)}
            check(not bad, f"{workload} every self_ns >= 0 within the "
                  f"bound {bad}")


def test_fingerprints():
    for w in ("kv_read", "kv_write", "rs_tx"):
        a, b, c = fingerprint(w, 11), fingerprint(w, 11), fingerprint(w, 12)
        check(a == b, f"{w}: same seed, same fingerprint")
        digest = lambda fp: [l for l in fp.splitlines() if " * " in l][0].split()[3]
        check(digest(a) != digest(c), f"{w}: different seeds differ")


def test_tampered():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    lines = (HERE / "fingerprints.txt").read_text().splitlines()
    target = "kv_read 1 * "
    tampered = []
    for line in lines:
        if line.startswith(target):
            digest = line.split()[3]
            line = target + ("0" if digest[0] != "0" else "1") + digest[1:]
        tampered.append(line)
    path = SCRATCH / "tampered.txt"
    path.write_text("\n".join(tampered) + "\n")
    proc = subprocess.run([str(BINARY), "--workload", "kv_read", "--seed", "1",
                           "--seconds", "1", "--trace", "0", "--fingerprints",
                           str(path), "--out-dir", str(SCRATCH)],
                          capture_output=True, text=True, timeout=300)
    res = result_of(proc)
    check(proc.returncode != 0, "tampered fingerprint: non-zero exit")
    check(res is not None and not res["correct"] and
          res["failed"] == res["attempted"],
          "tampered fingerprint: error_rate 1")


def test_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_py("kv_read", 1, 1, 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/: non-zero exit and no result")
    shutil.rmtree(bare)


def main():
    for w in ("kv_read", "kv_write", "rs_tx"):
        test_metrics_printed(w)
    test_fingerprints()
    test_tampered()
    test_without_sources()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
