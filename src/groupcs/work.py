"""Threads and memory: the one worker count and pool, which the Gaussian
draw and the Z-step's passes share, and the physical-memory checks."""

import contextlib
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Threads that work is split over: the calling thread and WORKERS - 1
# threads of _POOL, which starts them only when first used.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="groupcs-pass")

# Callers in progress on any thread, say of concurrent sweep cells (see caller()).
_callers = 0
_callers_lock = threading.Lock()

# Entries the passes of run_passes in flight may hold together in each of
# their temporaries (1 MB of float64, so that on two workers a pass's four
# fit one core's 2 MiB L2), whatever the grouping; the Z-step's
# aggregation runs on the calling thread in place of one pass.
PASS_ENTRIES = 1 << 17


@contextlib.contextmanager
def caller():
    """Count the calling thread in while the block runs; yields its grant,
    WORKERS divided by the callers then in progress, and at least 1."""
    global _callers
    with _callers_lock:
        _callers += 1
        grant = max(1, WORKERS // _callers)
    try:
        yield grant
    finally:
        with _callers_lock:
            _callers -= 1


def passes(count, entries_each):
    """Slices of range(count) in order, each holding as many items of
    `entries_each` entries as fit in worker_budget(), and at least one
    item.  An item of zero entries counts as one."""
    step = max(1, worker_budget() // max(1, entries_each))
    for start in range(0, count, step):
        yield slice(start, start + step)


def worker_budget():
    """Entries one pass of run_passes may hold in each temporary:
    PASS_ENTRIES shared among the WORKERS passes that run at once."""
    return max(1, PASS_ENTRIES // WORKERS)


def run_passes(count, entries_each, work, before=None):
    """Call work(part) for every slice of passes(count, entries_each), on
    up to WORKERS threads at once: the one runner of threaded work.

    The threads, as many as the caller's grant (see caller()), each start
    on one of the first slices and then pull the others in order from one
    queue.  The calling thread is one of them; it first calls before(),
    when given, while _POOL's threads work.  Once the queue is empty it
    cancels and runs itself each first slice no pool thread has started,
    so it never waits on a pool that other work holds.  Each pool thread
    runs under a copy of the caller's context, so numpy's errstate holds
    in every thread.  Each call must write only what belongs to its own
    slice.  A thread whose call raises takes no more slices, and the
    others go on until the queue is empty.  Returns once every call has
    finished; if any raised, before() included, the caller's exception,
    else the first pool thread's, is raised then.  With one worker every
    call runs on the caller, after before().
    """
    parts = list(passes(count, entries_each))
    with caller() as grant:
        n = max(1, min(grant, len(parts)))
        queue, queue_lock = iter(parts[n:]), threading.Lock()

        def run(part):
            while part is not None:
                work(part)
                with queue_lock:
                    part = next(queue, None)

        futures = {}
        try:
            for part in parts[1:n]:
                futures[_POOL.submit(contextvars.copy_context().run, run, part)] = part
            if before is not None:
                before()
            run(parts[0] if parts else None)
            for future, part in futures.items():
                if future.cancel():
                    run(part)
        finally:
            # wait() would block on a cancelled slice until the pool dequeues it.
            started = [future for future in futures if not future.cancel()]
            wait(started)
    for future in started:
        future.result()


def physical_memory():
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def fits_in_memory(need):
    """Whether `need` bytes are at most the machine's physical memory."""
    return need <= physical_memory()


def refuse_beyond_memory(need, what, error=ValueError):
    """Raise `error` when `need` bytes are more than the machine's physical
    memory; the message says that `what` (e.g. "grouping a 32x32 image")
    needs them."""
    if not fits_in_memory(need):
        raise error(f"{what} needs {need / 2**30:.1f} GiB, more than the "
                    f"{physical_memory() / 2**30:.1f} GiB of physical memory")
