#!/usr/bin/env python3
"""Build and run the repository benchmark; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0

The Go program is built from the checkout's own sources into .bench_build/
(the build cache lives there too), then run with the given arguments. Its
standard output is passed through; the last line is the JSON result. The
metric names in that line are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "serve"))):
        return fail("run from the repository root: the program's sources "
                    "(go.mod, internal/) are not here", 2)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return fail("reading BENCHMARK.json: %s" % e, 2)

    build = os.path.join(root, ".bench_build")
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               GOFLAGS="", GOENV="off", CGO_ENABLED="0")
    exe = os.path.join(build, "perfbench", "perfbench")
    b = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                       stdout=sys.stderr)
    if b.returncode != 0:
        return fail("build failed", b.returncode)

    cmd = [exe, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(build, "perfbench")]
    try:
        p = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=170)
    except subprocess.TimeoutExpired:
        return fail("the run exceeded 170 s", 4)
    out = p.stdout.rstrip("\n")
    if out:
        print(out, flush=True)
    if p.returncode != 0:
        return p.returncode
    want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = set(json.loads(out.splitlines()[-1])["metrics"])
    if got != want:
        return fail("metrics %s do not match BENCHMARK.json %s"
                    % (sorted(got), sorted(want)), 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
