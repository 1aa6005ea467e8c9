#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bulk|churn|lossy --seed N --seconds S --trace 0|1

Run from the repository root. Configures a Release build of the vtp
library and the benchmark under $CARGO_TARGET_DIR (default .bench_build),
runs the benchmark's self-tests, then runs one measurement. The last line
of stdout is the result JSON; build output goes to stderr. Exits non-zero
(and prints no result) when the build, a self-test or a correctness check
fails.
"""
import hashlib
import os
import subprocess
import sys


def source_commit(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True, timeout=10)
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def step(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        print("perfbench: step failed: " + " ".join(cmd), file=sys.stderr)
        sys.exit(rc if rc > 0 else 1)


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                         "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(build, "tmp")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", bench, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "-j", str(min(4, os.cpu_count() or 1))])
    step([os.path.join(build, "perfbench_selftest")])

    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = source_commit(root)
    env.setdefault("PERFBENCH_OUT", os.path.join(root, ".bench_out"))
    proc = subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:], env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
