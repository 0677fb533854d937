#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper-rt --seed 1 --seconds 25 --trace 0

Builds perfbench (a Go module that imports the repository's packages
through a replace directive) into .bench_build/ with a Go build cache kept
there too, so nothing outside the checkout is written, then runs it with
the given arguments.  Exits non-zero without a result when the
repository's sources are missing or the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def call(cmd, cwd, env, timeout, capture):
    """Run cmd, killing it and waiting for it on timeout."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env,
                         stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return p.returncode, out


def main():
    for f in ("go.mod", "midway.go", os.path.join("perfbench", "go.mod")):
        if not os.path.isfile(os.path.join(ROOT, f)):
            fail("run from the repository root: %s not found" % f)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOMODCACHE": os.path.join(OUT, "gomodcache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOENV": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(OUT, "perfbench")
    code, _ = call(["go", "build", "-o", binary + ".tmp", "."], BENCH, env,
                   BUILD_TIMEOUT, False)
    if code != 0:
        fail("build failed")
    os.replace(binary + ".tmp", binary)
    code, out = call([binary] + sys.argv[1:], ROOT, env, RUN_TIMEOUT, True)
    if code != 0:
        fail("benchmark exited with code %d" % code)
    sys.stdout.buffer.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
