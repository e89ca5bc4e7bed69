"""Fork server: runs the benchmark's commands and measures each one.

    python -S -I perfbench/spawner.py CPU_LIMIT_S

Reads marshalled (argv, stdout path, stderr path) tuples from stdin, runs
each argv to its end, in this process's working directory and environment,
and writes back a marshalled (exit code, wall seconds, CPU seconds, max RSS
in KiB). It stops at the end of its input.

The commands are forked from this small process, not from the client: on
Linux a child's max RSS also counts the memory of the process it was forked
from, up to its exec. Forked from the client, every command would read at
least the client's ~14 MB. Forked from here, the floor is ~5 MB, below any
Python process. Only builtin modules are imported, to keep it there.
"""

import marshal
import os
import resource
import sys
import time


def run(argv, out_path, err_path, cpu_limit):
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(os.open(out_path, flags, 0o600), 1)
            os.dup2(os.open(err_path, flags, 0o600), 2)
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_limit, cpu_limit))
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    return (os.waitstatus_to_exitcode(status), time.perf_counter() - start,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def main():
    cpu_limit = int(sys.argv[1])
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            argv, out_path, err_path = marshal.load(requests)
        except EOFError:
            return
        marshal.dump(run(argv, out_path, err_path, cpu_limit), replies)
        replies.flush()


if __name__ == "__main__":
    main()
