#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_na|fleet_ops|serve_live \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Builds perfbench/main.exe with dune
(the first build compiles the libraries it links, later ones are
no-ops), then runs it with the same arguments.  The last line of
standard output is the JSON result; the exit code is the benchmark's
(non-zero when a check fails or the build fails, with no result line).
With --workload all every workload runs untraced and then traced, and
the exit code is non-zero if any of those runs failed.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
WORKLOADS = ["paper_na", "fleet_ops", "serve_live"]


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(exe):
        sys.stderr.write(build.stdout.decode(errors="replace")[-4000:])
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if workload_of(argv) != "all":
        return run(exe, argv, root, env)
    failed = []
    for w in WORKLOADS:
        for trace in ("0", "1"):
            args = with_option(with_option(argv, "--workload", w), "--trace", trace)
            sys.stdout.flush()
            if run(exe, args, root, env) != 0:
                failed.append(f"{w} --trace {trace}")
    print("perfbench: all workloads:", "failed: " + ", ".join(failed) if failed else "every check passed")
    return 1 if failed else 0


def run(exe, argv, root, env):
    # Its own process group, so a timeout also stops the daemons it forks.
    proc = subprocess.Popen([exe] + argv, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


def workload_of(argv):
    return argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else None


def with_option(argv, flag, value):
    """argv with flag set to value, replacing an earlier setting."""
    out, skip = [], False
    for i, a in enumerate(argv):
        if skip:
            skip = False
        elif a == flag and i + 1 < len(argv):
            skip = True
        else:
            out.append(a)
    return out + [flag, value]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
