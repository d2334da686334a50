#!/usr/bin/env python3
"""Build and run the end-to-end CTS benchmark.

    python3 perfbench/run.py --workload r5-greedy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Builds perfbench/cts_perfbench.exe
with dune (into $CARGO_TARGET_DIR when set, else _build), then runs it with
the same arguments. The last line of standard output is the benchmark's
JSON result; build output goes to standard error. Exits non-zero, without
a result, when the checkout holds no buildable project or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} missing under {root}; nothing to build",
                  file=sys.stderr)
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir,
         "--display", "quiet", "./perfbench/cts_perfbench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, build_dir, "default", "perfbench",
                       "cts_perfbench.exe")
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(root, "perfbench", "_out")]
    try:
        run = subprocess.run([exe] + args, cwd=root, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
