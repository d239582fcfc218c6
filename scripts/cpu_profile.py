#!/usr/bin/env python3
"""Per-thread, per-layer CPU shares of one process, without perf.

    python3 scripts/cpu_profile.py --workload broadcast_fanout \\
        [--src DIR] [--seed 1] [--seconds 20] [--json out.json]
    python3 scripts/cpu_profile.py -- <command> [args...]

Run from the repository root. The first form builds perfbench from the
source tree DIR (default: this checkout; pass an exported copy of another
commit to profile it) with frame pointers, into .bench_build/profile/<hash
of DIR>, and profiles one run of the workload. The second form profiles any
command (its callers are only as good as its frame pointers).

The command runs with scripts/cpu_sampler.c preloaded: each thread samples
itself every 1 ms of its own CPU time (CLOCK_THREAD_CPUTIME_ID timers, so
idle threads cost nothing and the shares are shares of CPU, not of wall
time). Only the launched process is profiled, not its children. Samples
are symbolized with addr2line, and each is charged to the first frame,
from the leaf outward, that matches a layer of the per-layer ledger
(ROADMAP aim 1), so helpers and libc routines are charged to the layer
that called them. Prints the
process's layer shares, the top leaf frames of one layer (--detail, by
default "other": what no layer claimed), then each thread's CPU and its
top layers.
"""

import argparse
import bisect
import collections
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOOK = os.path.join(ROOT, "scripts", "cpu_sampler.c")
MAX_FRAMES = 30
SAMPLE = struct.Struct(f"<iHH{MAX_FRAMES}Q")

# Layers of the per-layer ledger, matched against demangled function names
# with their argument lists cut off (so a parameter type does not count).
# Order matters only when one name matches two patterns.
LAYERS = [
    ("depacketize/decode",
     r"Depacketizer|DeserializeTyphoon|DecodeBody|DecodeControl|"
     r"TyphoonTransport::(poll|take|deliver_staged|decode_into)|"
     r"PacketPin|PinPool|ReceivedItem|Value::~Value|Value::destroy"),
    ("serialize/packetize",
     r"Packetizer|SerializeTyphoon|EncodeTupleBody|EncodeChunkHeader|"
     r"TyphoonTransport::send|TyphoonTransport::flush|PacketPool"),
    ("switch", r"switchd::|SoftSwitch|Microflow|FlowTable|GroupTable"),
    ("tunnel", r"Tunnel|tunnel|ShmRing"),
    ("ack", r"Acker|AckBatch|flush_acks|handle_ack"),
    ("execute", r"::execute$|handle_item$|Bolt"),
    ("spout emit", r"Spout|::next$|Worker::emit$|route_and_send|Router"),
    ("worker loop", r"Worker::run|publish_stats|input_queue_depth"),
]
LAYER_RES = [(name, re.compile(pat)) for name, pat in LAYERS]


def die(msg):
    print(f"cpu_profile: {msg}", file=sys.stderr)
    sys.exit(1)


def build_hook(workdir):
    so = os.path.join(workdir, "cpu_sampler.so")
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", so, HOOK,
                    "-ldl", "-lrt", "-pthread"], check=True)
    return so


def build_perfbench(src):
    tag = hashlib.sha1(os.path.realpath(src).encode()).hexdigest()[:10]
    build = os.path.join(ROOT, ".bench_build", "profile", tag)
    os.makedirs(build, exist_ok=True)
    log_path = os.path.join(build, "build.log")
    with open(log_path, "w") as log:
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [["cmake", "--build", build, "--target", "perfbench",
                  "typhoon_hostd", "-j", jobs]]
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", os.path.join(src, "perfbench"),
                             "-B", build, "-DCMAKE_BUILD_TYPE=Release",
                             "-DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                die(f"build failed, see {log_path}")
    return (os.path.join(build, "perfbench"),
            os.path.join(build, "typhoon", "typhoon", "typhoon_hostd"))


def load_maps(path):
    """Executable file mappings as sorted (start, end, offset, path)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), parts[5]))
    maps.sort()
    return maps


def elf_loads(path):
    """PT_LOAD (offset, vaddr, filesz) triples of a 64-bit ELF file."""
    try:
        with open(path, "rb") as f:
            hdr = f.read(64)
            if hdr[:4] != b"\x7fELF" or hdr[4] != 2:
                return []
            phoff, = struct.unpack_from("<Q", hdr, 32)
            phentsize, phnum = struct.unpack_from("<HH", hdr, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    loads = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            loads.append((p_offset, p_vaddr, p_filesz))
    return loads


class Symbolizer:
    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.loads = {}
        self.names = {}

    def locate(self, pc):
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.maps[i][1]:
            return None
        lo, _, off, path = self.maps[i]
        file_off = pc - lo + off
        if path not in self.loads:
            self.loads[path] = elf_loads(path)
        for p_offset, p_vaddr, p_filesz in self.loads[path]:
            if p_offset <= file_off < p_offset + p_filesz:
                return path, file_off - p_offset + p_vaddr
        return path, file_off

    def resolve(self, keys):
        """Fills self.names for (path, addr) keys via addr2line."""
        by_path = collections.defaultdict(set)
        for key in keys:
            if key not in self.names:
                by_path[key[0]].add(key[1])
        for path, addrs in by_path.items():
            addrs = sorted(addrs)
            try:
                out = subprocess.run(
                    ["addr2line", "-f", "-C", "-e", path],
                    input="\n".join(hex(a) for a in addrs), text=True,
                    capture_output=True, check=True).stdout.splitlines()
            except (OSError, subprocess.CalledProcessError):
                out = []
            funcs = out[0::2]
            for i, a in enumerate(addrs):
                name = funcs[i] if i < len(funcs) else "??"
                self.names[(path, a)] = name


def strip_args(name):
    """`name` without its argument list (the last balanced (...) group)."""
    depth = 0
    for i in range(name.rfind(")"), -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i]
    return name


def classify(names):
    """Layer of one sample: its first frame, leaf outward, in a layer."""
    for name in names:
        base = strip_args(name)
        for layer, rx in LAYER_RES:
            if rx.search(base):
                return layer
    return "other"


def profile(cmd, cwd, detail):
    workdir = tempfile.mkdtemp(prefix="cpu_profile.")
    so = build_hook(workdir)
    env = dict(os.environ, LD_PRELOAD=so)
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        die(f"command exited with {proc.returncode}")
    stamps = [f for f in os.listdir(workdir) if f.endswith(".bin")]
    if len(stamps) != 1:
        die(f"expected one sample file in {workdir}, found {stamps}")
    pid = stamps[0].split(".")[1]
    maps = load_maps(os.path.join(workdir, f"samples.{pid}.maps"))
    with open(os.path.join(workdir, f"samples.{pid}.bin"), "rb") as f:
        raw = f.read()
    shutil.rmtree(workdir)
    samples = []
    for off in range(0, len(raw) - SAMPLE.size + 1, SAMPLE.size):
        rec = SAMPLE.unpack_from(raw, off)
        tid, depth, weight = rec[0], rec[1], rec[2]
        samples.append((tid, weight, rec[3:3 + depth]))
    main_path = os.path.realpath(cmd[0])
    sym = Symbolizer(maps)

    located = []
    keys = set()
    for tid, weight, pcs in samples:
        frames = []
        for i, pc in enumerate(pcs):
            if pc == 0:
                continue
            # Return addresses point past the call; step back into it.
            loc = sym.locate(pc if i == 0 else pc - 1)
            if loc is None:
                continue
            if i == 1 and (not frames or frames[0][0] == main_path):
                # The scanned caller stands in only for a leaf outside the
                # program (a libc routine); the frame chain covers the rest.
                continue
            frames.append(loc)
            keys.add(loc)
        located.append((tid, weight, frames))
    sym.resolve(keys)

    layers = collections.Counter()
    threads = collections.defaultdict(collections.Counter)
    unmatched = collections.Counter()
    for tid, weight, frames in located:
        names = [sym.names.get(key, "??") for key in frames]
        layer = classify(names)
        layers[layer] += weight
        threads[tid][layer] += weight
        if layer == detail:
            unmatched[" < ".join(n[:60] for n in names[:3]) or "??"] += weight
    return proc.stdout, sum(layers.values()), layers, threads, unmatched


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--src", default=ROOT)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--json")
    ap.add_argument("--detail", default="other",
                    help="layer whose top leaf frames are listed")
    ap.add_argument("cmd", nargs="*")
    args = ap.parse_args()

    if args.workload:
        binary, hostd = build_perfbench(os.path.abspath(args.src))
        out_dir = tempfile.mkdtemp(prefix="cpu_profile_spans.")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--hostd", hostd, "--out-dir", out_dir]
    elif args.cmd:
        cmd = args.cmd
    else:
        die("give --workload NAME or -- <command>")
    out, total, layers, threads, unmatched = profile(cmd, ROOT, args.detail)
    if args.workload:
        shutil.rmtree(out_dir, ignore_errors=True)
    if total == 0:
        die("no samples")
    lines = out.strip().splitlines()
    result = lines[-1] if lines else ""
    print(f"{total} ms of thread CPU sampled")
    print("layer shares of process CPU:")
    for layer, n in layers.most_common():
        print(f"  {layer:22s} {100.0 * n / total:5.1f}%")
    print(f"top leaf frames of '{args.detail}' (leaf < caller < caller):")
    for name, n in unmatched.most_common(8):
        print(f"  {100.0 * n / total:5.1f}%  {name[:100]}")
    print("threads (CPU ms, share of process, top layers as % of thread):")
    rest = 0
    for tid, counts in sorted(threads.items(),
                              key=lambda kv: -sum(kv[1].values())):
        n = sum(counts.values())
        if n < total / 100:  # setup threads and the like, summed below
            rest += n
            continue
        top = ", ".join(f"{layer} {100.0 * c / n:.0f}%"
                        for layer, c in counts.most_common(3))
        print(f"  tid {tid:<8d} {n:7d} {100.0 * n / total:5.1f}%  {top}")
    print(f"  {'others':12s} {rest:7d} {100.0 * rest / total:5.1f}%  "
          "(threads under 1% each)")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"cpu_ms": total,
                       "layers": {k: v / total for k, v in layers.items()},
                       "threads": {str(t): dict(c)
                                   for t, c in threads.items()},
                       "result": result}, f, indent=1)


if __name__ == "__main__":
    main()
