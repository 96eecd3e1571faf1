#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload monitor|refine|enforce \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/perfbench.exe with
dune (the shared dune cache is disabled, so the build writes only under
_build/), runs it with the given arguments, and exits with its status.
The benchmark's last line of standard output is the JSON result.  It
exits non-zero without a result when the sources cannot be built.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout stop the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (cmd[0], timeout))
        return 124


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("perfbench: no dune-project here; run from the repository root\n")
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    status = run([dune, "build", "--root", ".", "./perfbench/perfbench.exe"],
                 BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if status != 0:
        sys.stderr.write("perfbench: build failed\n")
        return status
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
