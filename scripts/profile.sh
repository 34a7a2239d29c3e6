#!/usr/bin/env bash
# Sampled profile of one simbench workload, folded by layer.
#
#   scripts/profile.sh rs_tx                 # seeds 1-6
#   scripts/profile.sh kv_read --seeds 3     # seeds 1-3
#   scripts/profile.sh rs_tx --jobs 2        # cap build parallelism
#
# Builds simbench/ (read-only; it is only configured) into build-profile/
# with frame pointers (-fno-omit-frame-pointer -mno-omit-leaf-frame-pointer,
# no -pg, dynamically linked) and scripts/sampler.c into
# build-profile/sampler.so, then runs `simbench --workload W --seed N
# --print-fingerprint` for each seed (one pass over the workload's points,
# plus its reference-kernel runs) with the sampler preloaded: 10 kHz of
# wall-clock SIGPROF ticks, each recording the PC and the frame-pointer
# chain, written out with the process's memory map at exit.
#
# Each address is resolved with `nm` against the object its mapping names
# (the binary's full symbol table, a shared library's dynamic one). Self
# time goes to the symbol holding the PC; inclusive time to every distinct
# symbol on the stack. Both are folded by namespace (sim, net, rdma, core,
# rpc, kv, rs, tx, workload, obs, common, bench, std), plus libc.alloc
# (malloc, free, operator new/delete and their internals), libc.mem
# (memcpy, memmove, memset, memcmp) and other, into
# results/PROFILE_<workload>.json, largest first, with the top symbols by
# self and by inclusive time. `sampled_s` is samples / 10 kHz.
#
# Limits: libc and libstdc++ keep no frame pointers. For a sample inside
# them the sampler finds the first main-program return address on the
# stack, so the caller is still seen, but frames between are not. libc's
# internal functions (_int_malloc, _int_free, ...) have no dynamic symbol:
# they are named "libc.so.6:~<nearest symbol below>" and count as
# libc.alloc when that first caller is operator new/delete, as other
# otherwise. The chosen IFUNC variants of memcpy & co. are named by the
# function they implement. Page faults are charged to the faulting
# instruction, as with any wall-clock sampler.
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
echo "==> profile: configure + build simbench with frame pointers ($BUILD/)"
cmake -S simbench -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -mno-omit-leaf-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="" >/dev/null
cmake --build "$BUILD" -j "$JOBS" --target simbench >/dev/null
cc -O2 -shared -fPIC -o "$BUILD/sampler.so" scripts/sampler.c

RUNS="$BUILD/profile-runs/$WORKLOAD"
rm -rf "$RUNS"
mkdir -p "$RUNS"
BIN="$(cd "$BUILD" && pwd)/simbench"
SAMPLER="$(cd "$BUILD" && pwd)/sampler.so"
for seed in $(seq 1 "$SEEDS"); do
  echo "==> profile: $WORKLOAD seed $seed"
  # The sampler writes sampler.<pid>.out into the working directory at exit.
  (cd "$RUNS" && mkdir "seed$seed" && cd "seed$seed" &&
     LD_PRELOAD="$SAMPLER" "$BIN" --workload "$WORKLOAD" --seed "$seed" \
       --print-fingerprint > fingerprint.txt &&
     head -n 1 fingerprint.txt && mv sampler.*.out ../samples."$seed")
done

python3 - "$WORKLOAD" "$SEEDS" "$OUT" "$RUNS"/samples.* <<'EOF'
import bisect
import json
import os
import re
import struct
import subprocess
import sys

workload, seeds, out, runs = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
HZ = 10000

ALLOC = re.compile(r"^(_int_malloc|_int_free|malloc|free|cfree|calloc|realloc|"
                   r"malloc_\w+|mallinfo\w*|mallopt|memalign|valloc|pvalloc|"
                   r"aligned_alloc|posix_memalign|unlink_chunk|tcache_\w+|"
                   r"sysmalloc|__libc_(malloc|free|calloc|realloc|memalign)|"
                   r"_int_realloc|operator new|operator delete)\b")
MEM = re.compile(r"^(__)?(memcpy|memmove|memset|memcmp|bcmp|mempcpy|wmemset)\w*")
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
    base = name.split(":", 1)[1] if ":" in name else name
    if base.startswith("~"):
        return "other"  # a library function with no symbol
    if ALLOC.match(base) or re.match(r"^_Z(nw|na|dl|da)", base):
        return "libc.alloc"
    if MEM.match(base):
        return "libc.mem"
    if not base.startswith("_Z"):
        return "other"
    sc = scope(base)
    if sc[:1] == ["prism"]:
        return sc[1] if len(sc) > 1 and sc[1] in LAYERS else "common"
    if sc[:1] == ["simbench"]:
        return "bench"
    if sc[:1] in (["std"], ["__gnu_cxx"]):
        return "std"
    return "other"

# File offset -> link-time address, from an ELF64 file's PT_LOAD headers.
def load_segments(path):
    with open(path, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for k in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, k * phentsize)
        if p_type == 1:  # PT_LOAD
            segs.append((p_offset, p_filesz, p_vaddr))
    return segs

class Symbols:
    """Sorted (address, size, name) of one object, from nm."""
    def __init__(self, path, dynamic):
        args = ["nm", "-S", "--defined-only", "--no-demangle"]
        if dynamic:
            args.append("-D")
        rows = {}
        res = subprocess.run(args + [path], capture_output=True, text=True)
        for line in res.stdout.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[2] in "tTwWiI":
                addr, size = int(parts[0], 16), int(parts[1], 16)
                name = parts[3].split("@", 1)[0]  # drop the symbol version
                # Aliases share an address: keep the largest, then the
                # shortest name, then the first in nm's (name) order.
                old = rows.get(addr)
                if old is None or (size, -len(name)) > (old[0], -len(old[1])):
                    rows[addr] = (size, name)
        self.rows = rows
        self.segs = load_segments(path)
        self.lib = None if not dynamic else os.path.basename(path)
        self.index()

    def index(self):
        self.addrs = sorted(self.rows)

    def vaddr(self, offset):
        for off, size, va in self.segs:
            if off <= offset < off + size:
                return va + offset - off
        return None

    # A resolved IFUNC variant: its size is unknown, so it covers every
    # address up to the next symbol.
    def add_resolved(self, offset, name):
        va = self.vaddr(offset)
        if va is not None and va not in self.rows:
            self.rows[va] = (None, name)
            self.index()

    # "name", "lib:name", or "lib:~after" for an address past the end of
    # the nearest symbol `after` below it: a function with no symbol.
    def name(self, offset):
        va = self.vaddr(offset)
        if va is None:
            return None
        i = bisect.bisect_right(self.addrs, va) - 1
        if i < 0:
            return None
        size, name = self.rows[self.addrs[i]]
        covered = size is None or va < self.addrs[i] + max(size, 1)
        prefix = "" if self.lib is None else self.lib + ":"
        return prefix + (name if covered else "~" + name)

symtabs = {}
def symbols(path, main):
    if path not in symtabs:
        try:
            symtabs[path] = Symbols(path, dynamic=not main)
        except OSError:
            symtabs[path] = None
    return symtabs[path]

# A sample's layer: its PC's symbol's, except that a PC in a library
# function with no symbol takes the layer of the allocator if the first
# main-program caller on its stack is operator new/delete or malloc.
def sample_bucket(names):
    b = bucket(names[0])
    if ":~" in names[0] and len(names) > 1 and bucket(names[1]) == "libc.alloc":
        return "libc.alloc"
    return b

self_n, incl_n, layer_self, layer_incl = {}, {}, {}, {}
total = dropped = 0
for run in runs:
    with open(run, "rb") as f:
        data = f.read()
    first = data.index(b"\n")
    maps_len = int(data[:first].split()[1])
    maps = data[first + 1:first + 1 + maps_len].decode()
    rest = data[first + 1 + maps_len:].decode().splitlines()
    dropped += int(rest[0].split()[1])
    regions = []  # (start, end, file offset, path) of executable mappings
    main_path = None
    for line in maps.splitlines():
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        path = parts[5].strip()
        if main_path is None and path.endswith("/simbench"):
            main_path = path
        regions.append((start, end, int(parts[2], 16), path))
    regions.sort()
    starts = [r[0] for r in regions]
    def region(addr):
        i = bisect.bisect_right(starts, addr) - 1
        return regions[i] if i >= 0 and addr < regions[i][1] else None
    k = 1
    while rest[k] != "samples":
        _, name, addr = rest[k].split()
        r = region(int(addr, 16))
        if r is not None and symbols(r[3], r[3] == main_path) is not None:
            symbols(r[3], r[3] == main_path).add_resolved(
                int(addr, 16) - r[0] + r[2], name)
        k += 1
    cache = {}
    def resolve(addr):
        if addr in cache:
            return cache[addr]
        name = "[unknown]"
        r = region(addr)
        if r is not None:
            start, _, off, path = r
            syms = symbols(path, path == main_path)
            if syms is not None:
                name = syms.name(addr - start + off) or f"{os.path.basename(path)}:?"
        cache[addr] = name
        return name
    for line in rest[k + 1:]:
        pcs = [int(x, 16) for x in line.split()]
        if not pcs:
            continue
        total += 1
        # Return addresses point past their call: look up the call itself.
        names = [resolve(pcs[0])] + [resolve(a - 1) for a in pcs[1:]]
        self_n[names[0]] = self_n.get(names[0], 0) + 1
        b = sample_bucket(names)
        layer_self[b] = layer_self.get(b, 0) + 1
        for n in set(names):
            incl_n[n] = incl_n.get(n, 0) + 1
        for b in {b} | {bucket(n) for n in names[1:]}:
            layer_incl[b] = layer_incl.get(b, 0) + 1

def share(n):
    return round(n / total, 4) if total else 0.0

def secs(n):
    return round(n / HZ, 3)

# Demangles the symbol part of "[lib:][~]symbol" names.
def demangle(names):
    parts = [re.match(r"^((?:[^:]+:)?~?)(.*)$", n).groups() for n in names]
    out = subprocess.run(["c++filt"], input="\n".join(p[1] for p in parts),
                         capture_output=True, text=True).stdout.split("\n")
    return [p[0] + d for p, d in zip(parts, out)]

def rows(ranked):
    return [{"name": d[:160],
             "self_s": secs(self_n.get(n, 0)), "share": share(self_n.get(n, 0)),
             "incl_s": secs(incl_n[n]), "incl_share": share(incl_n[n])}
            for d, n in zip(demangle(ranked), ranked)]

top_self = sorted(self_n, key=lambda n: -self_n[n])[:25]
top_incl = sorted(incl_n, key=lambda n: -incl_n[n])[:25]
doc = {
    "workload": workload,
    "seeds": seeds,
    "sampler_hz": HZ,
    "samples": total,
    "dropped_samples": dropped,
    "sampled_s": secs(total),
    "layers": {k: {"self_s": secs(layer_self.get(k, 0)),
                   "share": share(layer_self.get(k, 0)),
                   "incl_s": secs(layer_incl[k]),
                   "incl_share": share(layer_incl[k])}
               for k in sorted(layer_incl, key=lambda k: (-layer_self.get(k, 0),
                                                          -layer_incl[k]))},
    "top_symbols": rows(top_self),
    "top_inclusive": rows(top_incl),
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"{out}: {total} samples ({secs(total):.2f} s) over {seeds} seeds, "
      f"{dropped} dropped")
for k, v in doc["layers"].items():
    print(f"  {k:<11} self {100 * v['share']:5.1f} %  incl {100 * v['incl_share']:5.1f} %")
EOF
