"""Time cold set-ups of a workload, each in a fresh child process, and print the seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD FIRST_SEED COUNT WORK_DIR

This process imports numpy and mscr and builds nothing.  It then forks COUNT
children one after the other; child i pays one cold set-up on seed
FIRST_SEED + i (the field tables, the parameter generation and the
validation, or the ``gen-params`` command) and reports its time.  Forking
keeps the interpreter start and the imports out of the timing and makes each
sample cheap, so a run can take many of them.  One line of seconds is printed
per child; the exit code is 1 if any child failed.
"""

import gc
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_workloads import setup_once  # noqa: E402


def child(workload: str, seed: int, work_dir: Path, out_fd: int) -> None:
    """Run in the forked child: one timed set-up, written to out_fd; never returns."""
    code = 0
    try:
        # A collection writes to the header of every tracked object, so the
        # copy-on-write faults the fork would otherwise add to the timing
        # mostly happen here, untimed.
        gc.collect()
        os.write(out_fd, repr(setup_once(workload, seed, work_dir)).encode())
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        sys.stderr.flush()
        os._exit(code)


def main(argv) -> int:
    workload, first_seed, count, work_dir = argv
    for i in range(int(count)):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            child(workload, int(first_seed) + i, Path(work_dir), write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            seconds = pipe.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0 or not seconds:
            return 1
        print(seconds, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
