"""Starts the measured commands for run.py from a process that stays small.

Linux carries the spawning process's peak RSS into the child's
``ru_maxrss`` (the pre-exec address space's high-water mark is kept across
exec), so run.py, which holds parsed outputs, would inflate every child's
figure. This process holds nothing; its children report their own peak.

Protocol, one JSON object per line: run.py writes ``{"argv": [...],
"stdout": path}``; the spawner runs argv with stdout sent to that file and
answers ``{"code": int, "wall_s": float, "rss_mb": float}``, where wall_s
spans process start to exit and rss_mb comes from ``os.wait4``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
