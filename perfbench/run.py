#!/usr/bin/env python3
"""Build and run the Willow benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `willow-perfbench` package (its own Cargo package, depending on
the repository's crates by path) into `$CARGO_TARGET_DIR`, default
`.bench_build` at the repository root, then runs it with the same
arguments. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The host fingerprint
passed to the benchmark names the rustc version and, when the checkout is
a git repository, the commit.

`paper_suite` runs pinned to one CPU, so the experiment sweeps run
single-threaded as the benchmark defines them.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    exe = os.path.join(target, "release", "willow-perfbench")

    env["WILLOW_BENCH_RUSTC"] = capture(["rustc", "--version"])
    is_repo = os.path.exists(os.path.join(ROOT, ".git"))
    env["WILLOW_BENCH_COMMIT"] = capture(["git", "rev-parse", "HEAD"]) if is_repo else "unknown"
    args = sys.argv[1:]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if cpus:
        env["WILLOW_BENCH_HOST_CPUS"] = str(len(cpus))
    pin = {cpus[-1]} if cpus and "steady_fleet" not in args else None
    run = subprocess.run(
        [exe] + args, cwd=ROOT, env=env,
        preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
