#!/usr/bin/env python3
"""Build and run the workflow benchmark.

    python3 perfbench/run.py --workload campaign|fleet|triage \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary is configured and
built (incrementally) under .bench_build/ against the repository's own
sources in src/; build output goes to stderr. The binary's report is
passed through, so the last line of stdout is the JSON result. Exits
non-zero, without a result line, when the build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: repository sources (src/) not found", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--parallel", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "fleet", "triage"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("error: benchmark build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    # Its own process group, so a timeout can stop it and every fleet
    # worker it started.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # The coordinator reaps its workers; this only catches any left
        # behind by a crash or the timeout.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    if out is None:
        print("error: benchmark run timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print("error: benchmark run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
