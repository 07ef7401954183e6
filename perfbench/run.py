#!/usr/bin/env python3
"""Build and run the mpic default-path benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload clique24-insdel --seed 1 --seconds 18 --trace 0

The wrapper builds the Go program in perfbench/ (its own module, which
uses the library at the repository root) into the build directory named
by CARGO_TARGET_DIR (default .bench_build), with the Go build cache, temp
files and config kept there too, then runs it with the given arguments.
It exits non-zero, printing no result, when the build fails, e.g. in a
directory that holds the benchmark but not the library.
"""

import os
import subprocess
import sys

# The program bounds its own measuring time; this only guards a hang.
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ)
    for key in ("GOFLAGS", "GOWORK", "GOENV"):
        env.pop(key, None)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + [
        "--workdir", os.path.join(build, "perfbench-run"),
        "--golden", os.path.join(here, "golden"),
    ]
    proc = subprocess.Popen([binary] + args, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
