"""Runs a script in a fresh interpreter with its own Ray cluster.

The session fixture's cluster has 4 CPUs and a default object store; a
test that needs another cluster shape, or that kills its driver, runs its
script through ``run_script``."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(script: str, *args: str, timeout: float = 180) -> subprocess.CompletedProcess:
    """Runs ``script`` in a fresh interpreter in its own process group and
    kills the whole group afterwards, so the Ray processes it started die
    with it even when the driver was SIGKILLed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (REPO, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *args],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        raise AssertionError(f"run did not finish within {timeout} s\n{err[-2000:]}") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)
