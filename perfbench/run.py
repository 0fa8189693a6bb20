#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload control --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/perfbench.exe with dune (inside the checkout, shared
dune cache off), then runs it; its standard output passes through, and
its last line is the JSON result.  Exits nonzero, without a result, when
the current directory is not a checkout of the repository.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
SELFTEST_TIMEOUT_S = 600
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["control", "scale", "serve_batch"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    missing = [p for p in ("dune-project", "lib", os.path.join("perfbench", "dune"))
               if not os.path.exists(p)]
    if missing:
        print("perfbench: not at the root of a checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    if args.selftest:
        cmd, timeout = [EXE, "selftest"], SELFTEST_TIMEOUT_S
    else:
        cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        timeout = RUN_TIMEOUT_S
    sys.stdout.flush()
    # subprocess.run kills and reaps the child if the timeout fires
    return subprocess.run(cmd, env=env, timeout=timeout).returncode


if __name__ == "__main__":
    sys.exit(main())
