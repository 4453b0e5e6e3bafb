"""Runs the benchmark's child commands from a small process of its own.

A child's peak RSS, as the kernel reports it, includes the address space of
the process that forked it.  Forking ``python -m omlogic`` straight from the
benchmark would therefore report the benchmark's own size, so the benchmark
starts this process once and sends it one command per line:

    {"argv": [...]}    ->  {"rc": 0, "stdout": "...", "stderr": "..."}
    {"rusage": true}   ->  {"children_maxrss_kib": 30712}

A child that runs longer than ``TIMEOUT`` seconds is killed and reported with
``rc`` null.  The environment and working directory are this process's own.
It exits when its standard input closes.
"""

import json
import resource
import subprocess
import sys
from pathlib import Path

TIMEOUT = 120  # seconds one child may run


class Spawner:
    """The benchmark's end: starts the spawner and talks to it."""

    def __init__(self, env: dict, cwd):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], env=env, cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner exited")
        return json.loads(line)

    def run(self, argv: list[str]) -> dict:
        return self._ask({"argv": argv})

    def children_peak_rss_mb(self) -> float:
        return self._ask({"rusage": True})["children_maxrss_kib"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=180)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        if "argv" in request:
            try:
                proc = subprocess.run(request["argv"], capture_output=True, text=True,
                                      timeout=TIMEOUT)
                reply = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
            except subprocess.TimeoutExpired as err:
                reply = {"rc": None, "stdout": "", "stderr": f"timed out: {err}"}
        else:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            reply = {"children_maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
