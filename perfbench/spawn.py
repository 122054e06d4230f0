"""Run one program and report its exit status, wall time and own resource use.

Usage: python3 -S perfbench/spawn.py TIMEOUT STDOUT STDERR PROGRAM ARG...

Prints one JSON list: [exit status, start, wall seconds, peak RSS in KiB,
user + system seconds], where start is the time.monotonic() reading
just before the program was spawned.  The program's stdin is /dev/null
and its stdout and stderr go to the named files.  It is killed after
TIMEOUT seconds.

The harness starts every measured program through this small process
instead of directly, because Linux carries the spawning process's peak
RSS into the child's ru_maxrss at exec: a program spawned by the harness
itself would report at least the harness's own peak.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    timeout, out_path, err_path, *argv = sys.argv[1:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(timeout))
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - start
    signal.alarm(0)
    print(json.dumps([os.waitstatus_to_exitcode(status), start, wall, usage.ru_maxrss,
                      usage.ru_utime + usage.ru_stime]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
