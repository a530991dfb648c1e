#!/usr/bin/env python3
"""Repository benchmark for the Virtual-Link simulator.

Builds perfbench/ (the simulator library plus the `vlbench` measuring
binary) and runs one workload:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list
    python3 perfbench/run.py --help

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(from the same untraced repeats plus one traced run). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Build output goes to standard error. See perfbench/README.md.
"""

import os
import re
import subprocess
import sys

WORKLOADS = {
    "table2": "paper Table II kernels x {BLFQ, ZMQ, VL64, VL(ideal)} at "
              "scale 1, closed loop: the Fig. 11 headline, mem and bsp work",
    "qos-fanin": "qos-adversarial-bulk on VL64 with the QoS supervisor, open "
                 "loop: latency-class tail and SLO under quota NACKs",
    "shard-mesh": "shard-diurnal on 8 shards and 2 host threads, open loop: "
                  "lookahead epochs, cross-shard links, router ring",
}

USAGE = """usage: run.py --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]
       run.py --list
       run.py --help

  --workload NAME  one of: {names}
  --seed N         unsigned integer input seed (default 1)
  --seconds N      measuring time per run, 1..600 (default 10)
  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics (default 0)
  --smoke          smallest size (self-test); metrics are not comparable
  --list           print the workloads and exit
  --help           print this text and exit
""".format(names=", ".join(WORKLOADS))


class UsageError(Exception):
    pass


def _uint(token, value, lo, hi):
    if not re.fullmatch(r"[0-9]+", value) or not lo <= int(value) <= hi:
        raise UsageError(f"{token}: expected an integer in [{lo}, {hi}], "
                         f"got '{value}'")
    return int(value)


# Flags that take a value -> (option key, inclusive integer range; None for
# the workload name). Every other flag is a bare switch.
VALUED = {
    "--workload": ("workload", None),
    "--seed": ("seed", (0, 2**64 - 1)),
    "--seconds": ("seconds", (1, 600)),
    "--trace": ("trace", (0, 1)),
}
SWITCHES = {"--smoke": "smoke", "--list": "list", "--help": "help"}


def parse(argv):
    opts = {"seed": 1, "seconds": 10, "trace": 0, "smoke": False,
            "list": False, "help": False, "workload": None}
    seen = set()
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok not in VALUED and tok not in SWITCHES:
            raise UsageError(f"unknown argument '{tok}'")
        if tok in seen:
            raise UsageError(f"duplicate flag '{tok}'")
        seen.add(tok)
        if tok in SWITCHES:
            opts[SWITCHES[tok]] = True
            i += 1
            continue
        if i + 1 >= len(argv):
            raise UsageError(f"{tok}: missing value")
        key, bounds = VALUED[tok]
        val = argv[i + 1]
        if bounds is None:
            if val not in WORKLOADS:
                raise UsageError(f"{tok}: unknown workload '{val}' "
                                 f"(try --list)")
            opts[key] = val
        else:
            opts[key] = _uint(tok, val, *bounds)
        i += 2
    if (opts["help"] or opts["list"]) and len(seen) > 1:
        raise UsageError("--help and --list take no other flags")
    if not (opts["help"] or opts["list"]) and opts["workload"] is None:
        raise UsageError("--workload is required")
    return opts


def build(root):
    """Configure (once) and build perfbench/ into the build directory."""
    if not os.path.isdir(os.path.join(root, "src")):
        print("run.py: no simulator sources (src/) next to perfbench/; run "
              "from a full checkout", file=sys.stderr)
        return None
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(root, out)
    cmds = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", out, "-j", "2"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "vlbench")


def main(argv):
    try:
        opts = parse(argv)
    except UsageError as e:
        print(f"run.py: {e}\n\n{USAGE}", file=sys.stderr)
        return 2
    if opts["help"]:
        print(USAGE, end="")
        return 0
    if opts["list"]:
        for name, why in WORKLOADS.items():
            print(f"{name:<11} {why}")
        return 0

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        return 1
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary, opts["workload"], str(opts["seed"]),
                      str(opts["seconds"]), str(opts["trace"]),
                      "1" if opts["smoke"] else "0"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
