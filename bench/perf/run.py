"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 bench/perf/run.py --workload interp-solo --seed 1 --seconds 10 --trace 0

Builds bench/perf/perf.exe with dune (dune's shared cache disabled, so
nothing is written outside the checkout), then runs it and passes its
output through; the last line of output is the JSON result.  With
--trace 1 the Chrome trace goes to _build/perf-trace-<workload>.json.
The exit code is the build's when the build fails, else the run's.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["interp-solo", "fleet-attack", "compile-suite", "explore-crash"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bench/perf/perf.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        return build.returncode or 1

    cmd = [os.path.join("_build", "default", "bench", "perf", "perf.exe"),
           "run", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace",
                os.path.join("_build", "perf-trace-%s.json" % args.workload)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
