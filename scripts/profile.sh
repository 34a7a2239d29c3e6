#!/usr/bin/env bash
# Flat gprof profile of one simbench workload, folded by layer.
#
#   scripts/profile.sh rs_tx                 # seeds 1-6
#   scripts/profile.sh kv_read --seeds 3     # seeds 1-3
#   scripts/profile.sh rs_tx --jobs 2        # cap build parallelism
#
# Builds simbench/ (read-only; it is only configured) into build-profile/
# with -pg and -static, runs `simbench --workload W --seed N
# --print-fingerprint` for each seed (one pass over the workload's points,
# plus its reference-kernel runs), and sums the per-run flat profiles here:
# `gprof -s` cannot merge these gmon files on this binutils ("somebody
# miscounted"). Static linking is what puts libc's malloc/free/memset in the
# profile; with a shared libc their samples fall outside the binary and are
# lost. Self time is folded by namespace (sim, net, rdma, core, rpc, kv, rs,
# tx, workload, obs, common, bench, std), plus libc.alloc (malloc, free,
# operator new/delete and their internals), libc.mem (memcpy, memmove,
# memset, memcmp), gprof (the -pg instrumentation) and other, into
# results/PROFILE_<workload>.json, largest first, with the top symbols.
#
# Read first-touch costs with care: the profiling timer (ITIMER_PROF)
# charges a page fault's kernel time to the faulting instruction. Simulated
# host memory is a lazily-zeroed mapping, so its faults land on whatever
# first writes a page, such as a store loader (kv, rs, tx) or a memcpy in
# rdma::AddressSpace::Store; heap growth faults land in malloc or memset.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/profile.sh kv_read|kv_write|rs_tx [--seeds N] [--jobs N]" >&2
  exit 2
}
[[ $# -ge 1 ]] || usage
WORKLOAD="$1"
shift
SEEDS=6
JOBS="$(nproc 2>/dev/null || echo 2)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seeds) SEEDS="$2"; shift ;;
    --seeds=*) SEEDS="${1#--seeds=}" ;;
    --jobs) JOBS="$2"; shift ;;
    --jobs=*) JOBS="${1#--jobs=}" ;;
    *) usage ;;
  esac
  shift
done
case "$WORKLOAD" in kv_read|kv_write|rs_tx) ;; *) usage ;; esac

BUILD=build-profile
OUT="results/PROFILE_${WORKLOAD}.json"
echo "==> profile: configure + build simbench with -pg -static ($BUILD/)"
cmake -S simbench -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-pg" -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >/dev/null
cmake --build "$BUILD" -j "$JOBS" --target simbench >/dev/null

RUNS="$BUILD/profile-runs/$WORKLOAD"
rm -rf "$RUNS"
mkdir -p "$RUNS"
BIN="$(cd "$BUILD" && pwd)/simbench"
for seed in $(seq 1 "$SEEDS"); do
  echo "==> profile: $WORKLOAD seed $seed"
  # gprof writes gmon.out into the working directory at exit.
  (cd "$RUNS" && "$BIN" --workload "$WORKLOAD" --seed "$seed" \
     --print-fingerprint | head -n 1 && mv gmon.out "gmon.$seed")
  gprof -b -p --no-demangle "$BIN" "$RUNS/gmon.$seed" > "$RUNS/flat.$seed.txt"
done

python3 - "$WORKLOAD" "$SEEDS" "$OUT" "$RUNS"/flat.*.txt <<'EOF'
import json
import re
import subprocess
import sys

workload, seeds, out, flats = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]

ALLOC = re.compile(r"^(_int_malloc|_int_free|malloc|free|cfree|calloc|realloc|"
                   r"malloc_consolidate|unlink_chunk|tcache_\w+|sysmalloc|"
                   r"__libc_(malloc|free|calloc|realloc)|_int_realloc|"
                   r"operator new|operator delete)\b")
MEM = re.compile(r"^(__)?(memcpy|memmove|memset|memcmp|bcmp|mempcpy)\w*")
LAYERS = {"sim", "net", "rdma", "core", "rpc", "kv", "rs", "tx", "workload",
          "obs", "common", "chaos", "check", "harness"}

# The first two components of a mangled name's scope: "_ZN5prism3net6Fabric"
# gives ["prism", "net"]; std:: (St) gives ["std"]. Local entities (_ZZ),
# const members (K) and internal linkage (L) are skipped over.
def scope(mangled):
    i = 2
    while i < len(mangled) and mangled[i] in "ZNKVRL":
        i += 1
    if mangled.startswith("St", i):
        return ["std"]
    out = []
    while len(out) < 2:
        j = i
        while j < len(mangled) and mangled[j].isdigit():
            j += 1
        if j == i:
            break
        n = int(mangled[i:j])
        out.append(mangled[j:j + n])
        i = j + n
    return out

def bucket(name):
    if ALLOC.match(name) or re.match(r"^_Z(nw|na|dl|da)", name):
        return "libc.alloc"
    if MEM.match(name):
        return "libc.mem"
    if name in ("mcount", "_mcount", "__mcount_internal", "__profile_frequency"):
        return "gprof"  # the -pg instrumentation itself
    if not name.startswith("_Z"):
        return "other"
    sc = scope(name)
    if sc[:1] == ["prism"]:
        return sc[1] if len(sc) > 1 and sc[1] in LAYERS else "common"
    if sc[:1] == ["simbench"]:
        return "bench"
    if sc[:1] in (["std"], ["__gnu_cxx"]):
        return "std"
    return "other"

# Flat profile rows: %time cumulative self [calls self/call total/call] name.
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
by_symbol = {}
for path in flats:
    for line in open(path):
        m = ROW.match(line)
        if m:
            by_symbol[m.group(2)] = by_symbol.get(m.group(2), 0.0) + float(m.group(1))

total = sum(by_symbol.values())
layers = {}
for name, s in by_symbol.items():
    b = bucket(name)
    layers[b] = layers.get(b, 0.0) + s

def share(s):
    return round(s / total, 4) if total else 0.0

top = sorted(by_symbol.items(), key=lambda kv: -kv[1])[:25]
demangled = subprocess.run(["c++filt"], input="\n".join(n for n, _ in top),
                           capture_output=True, text=True).stdout.split("\n")
doc = {
    "workload": workload,
    "seeds": seeds,
    "sampled_s": round(total, 2),
    "layers": {k: {"self_s": round(v, 2), "share": share(v)}
               for k, v in sorted(layers.items(), key=lambda kv: -kv[1])},
    "top_symbols": [{"name": d[:160], "self_s": round(s, 2), "share": share(s)}
                    for d, (_, s) in zip(demangled, top)],
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"{out}: {total:.2f} s sampled over {seeds} seeds")
for k, v in doc["layers"].items():
    print(f"  {k:<11} {v['self_s']:8.2f} s  {100 * v['share']:5.1f} %")
EOF
