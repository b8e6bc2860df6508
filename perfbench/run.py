#!/usr/bin/env python3
"""Build and run one benchmark workload from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs it, checks that its result
names exactly the metrics BENCHMARK.json lists for the mode (end_to_end
for --trace 0, per_layer for --trace 1) with their units, and prints the
program's run record followed by the result object as the last line.
Exits non-zero without a result when the tree cannot be built or the
result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Run to completion; on timeout the child is killed and reaped."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def flambda():
    p = run(["ocamlfind", "ocamlopt", "-config-var", "flambda"], 30,
            capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def git_rev():
    """The checked-out commit, read from .git without leaving the tree."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "none"


def bind_cpu():
    """Bind the workload to one CPU: the highest-numbered one allowed.

    Every kernel runs on one OCaml domain (see harness.ml), so the
    workload can use one core either way. Binding keeps the hand-offs
    between its threads (partition executors, the serving batcher and
    client) on one CPU instead of cross-CPU wake-ups, whose latency
    depends on how busy the host is: unbound, train_lm_ps ran 10% slower
    and serve_rnn's p99 spread across runs tripled.
    """
    cpu = max(os.sched_getaffinity(0))
    return cpu, lambda: os.sched_setaffinity(0, {cpu})


def check_result(line, spec, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last line is not JSON: %r" % line[:200])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(res))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(want.items())))
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        fail("attempted must be a whole number >= 1")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    for need in ("BENCHMARK.json", "dune-project", "lib"):
        if not os.path.exists(need):
            fail("%s not found: run from the root of the source tree" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    # --root keeps dune inside this tree; no shared cache outside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    b = run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
            BUILD_TIMEOUT_S, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        fail("build failed")
    cpu, bind = bind_cpu()
    p = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--host", "flambda=" + flambda(), "--host", "git_rev=" + git_rev(),
             "--host", "cpu=%d" % cpu],
            RUN_TIMEOUT_S, capture_output=True, text=True, preexec_fn=bind)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        fail("workload exited with code %d" % p.returncode)
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing")
    check_result(lines[-1], spec, args.trace == 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
