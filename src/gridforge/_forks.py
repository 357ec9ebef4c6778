"""Independent work split into contiguous ranges, one forked process each.

Float formatting and the stacked solver steps hold the GIL, so threads
cannot share them out; forked processes can.  forked_ranges splits
range(items) into contiguous ranges and forks one child for each range
but the first, which the caller works through itself meanwhile.  Each
child writes its result to an anonymous temporary file (its spool), and
the caller reads the spools back in range order, so the result is the one
a single pass gives, whatever the range count.

Children inherit the parent's memory, so nothing is sent to them; only
what they write to their spools comes back.  A child prints nothing,
writes only its spool, and leaves by os._exit: status 0 once the spool is
flushed, 1 on any error.  Every child is reaped before forked_ranges
returns or raises.

A child may call BLAS and LAPACK only because OpenBLAS registers fork
handlers (pthread_atfork) that quiesce its thread pool before a fork and
start the child with a fresh one, so no lock a BLAS thread held at the
fork is left held in the child.  Checked with scipy-openblas 0.3.31: 15
forked sweeps, each right after a 1500x1500 matmul had woken the
two-thread pool, all gave the serial output.  A BLAS or OpenMP runtime
without such handlers can hang a child that calls it.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import IO, Callable, Iterator, List, Tuple

#: work(lo, hi, spool) writes the result of items lo..hi-1 to spool
Work = Callable[[int, int, IO[bytes]], None]


def range_count(jobs: int) -> int:
    """Ranges to split `jobs` indivisible jobs into: one per CPU this
    process may run on, no more than there are jobs, and one where
    os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, jobs))


def _fork(work: Work, lo: int, hi: int, spool: IO[bytes]) -> int:
    """Run work(lo, hi, spool) in a forked child; returns its pid."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            work(lo, hi, spool)
            spool.flush()
            status = 0
        finally:
            os._exit(status)
    return pid


def _spools(children: List[Tuple[int, IO[bytes]]],
            name: str) -> Iterator[IO[bytes]]:
    """Each child's spool, rewound, once the child has exited, in order."""
    while children:
        pid, spool = children.pop(0)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise RuntimeError(f"{name} process {pid} failed with "
                               f"status {status}")
        spool.seek(0)
        yield spool


@contextlib.contextmanager
def forked_ranges(items: int, ranges: int, work: Work, name: str,
                  ) -> Iterator[Tuple[int, Iterator[IO[bytes]]]]:
    """Split range(items) into `ranges` contiguous ranges, as even as can
    be, and run work on ranges 1 and up in forked children.

    Yields (end, spools): range 0 is items 0..end-1, left to the caller,
    and spools gives ranges 1 and up's spools in order, each once its
    child has exited.  A child that failed raises RuntimeError naming
    `name`.  On leaving, every child not yet read is reaped and every
    spool closed.
    """
    bounds = [items * k // ranges for k in range(ranges + 1)]
    children: List[Tuple[int, IO[bytes]]] = []  # (pid, spool), not reaped
    with contextlib.ExitStack() as stack:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                spool = stack.enter_context(tempfile.TemporaryFile())
                children.append((_fork(work, lo, hi, spool), spool))
            yield bounds[1], _spools(children, name)
        finally:
            for pid, _ in children:
                os.waitpid(pid, 0)
