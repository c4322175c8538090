"""An ordered map over forked worker processes.

The region tiler and the classification sweep both split their work into
independent items whose results are combined in item order, and both
run them through ordered_map on any number of processes.  It deals the
items round-robin to the caller and up to jobs - 1 forked children; each
child streams its results through a pipe as it finishes them, so the
caller can stop at the first result it needs.
"""

import contextlib
import os

__all__ = ["ordered_map"]


def _serve(write_fd, fn, items):
    """Stream (True, fn(item)) per item to write_fd, or (False, exception) and stop.

    The child always leaves by os._exit, so nothing the parent buffered or
    registered (stdout, atexit, a test harness's capture) runs twice.  It
    exits 0 only once every result it owes is written.
    """
    import pickle  # loaded already by the parent that forked this child
    code = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            for item in items:
                try:
                    result = (True, fn(item))
                except Exception as exc:
                    result = (False, exc)
                pickle.dump(result, pipe)
                pipe.flush()
                if not result[0]:
                    break
        code = 0
    finally:
        os._exit(code)


def ordered_map(fn, items, jobs):
    """Yield fn(item) for each item, in item order, on up to `jobs` processes.

    Item i goes to process i mod k, k = min(jobs, #items); process 0 is the
    caller, which computes its items only when the iteration reaches them,
    and each of the others is a forked child that runs fn on its items in
    order from the start.  A child's exception is raised here at its item,
    as a serial loop would raise it; a child that dies without reporting
    raises RuntimeError.  Closing the generator early, or any exception,
    kills and reaps every child left.  fn and the items reach the children
    through fork, so only the results are pickled.  For jobs = 1, or
    without os.fork, the caller computes every item itself: a plain loop.
    jobs < 1 raises ValueError when the iteration starts.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    k = max(1, min(jobs, len(items))) if hasattr(os, "fork") else 1
    if k > 1:  # only a map that forks pickles results or kills children
        import pickle
        import signal
    children = []  # (pid, read end of its pipe) until reaped
    try:
        for w in range(1, k):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _serve(write_fd, fn, items[w::k])
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        for i, item in enumerate(items):
            if i % k == 0:
                yield fn(item)
                continue
            pid, pipe = children[i % k - 1]
            try:
                ok, result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children.remove((pid, pipe))
                pipe.close()
                raise RuntimeError(
                    f"a worker process exited with {code} before reporting its items") from None
            if not ok:
                raise result
            yield result
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
