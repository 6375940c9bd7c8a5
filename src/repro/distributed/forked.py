"""One process per expert: a worker served from a forked child.

A local team's workers used to be threads of the master's interpreter,
so every worker's decode -> forward -> encode queued on one GIL and the
team answered no faster than its forwards run back to back.  The
paper's premise is K experts on K devices; on one host, the nearest
thing is one process per expert.  :class:`ForkedWorker` runs the
unchanged :class:`~repro.distributed.ExpertWorker` in a child made with
``os.fork``: the child inherits the expert object (any ``Module``
subclass, nothing pickled) and the already-imported serving stack, so a
start costs a fork, not an interpreter start and a re-import.

What the child may hold, and how it ends:

* The parent binds the listener before forking and closes its own copy
  after, so the address is known at once and the port closes with the
  child.
* A *lifeline* pipe: the parent keeps the write end, and the child
  leaves when its read end sees EOF.  That happens when the parent dies
  for any reason, SIGKILL included, so no child outlives its parent.
* Every other inherited descriptor is pointed at ``/dev/null``
  (standard error excepted): a child keeps no socket of the parent's,
  so closing one still gives its peer EOF, and no lifeline of an
  earlier child's, so that child still sees its parent die.
* The child leaves through ``os._exit``: never the parent's atexit
  handlers, never the parent's unflushed stdio buffers.
* The module locks a worker takes are held across the fork, so the
  child, which has only the forking thread, never inherits one held by
  a thread it does not have.
"""

from __future__ import annotations

import os
import signal
import traceback

from ..comm.transport import Listener, TcpTransport
from ..core import inference
from ..nn import Module, blas, executor

__all__ = ["ForkedWorker"]

# Every lock a worker in the child may take: the BLAS cap's, the compile
# cache's and the tracer's.
_FORK_LOCKS = (blas._lock, inference._COMPILED_LOCK, executor._TRACE_GUARD)


class _Bound(TcpTransport):
    """The child's transport: ``listen`` hands back the listener the
    parent bound.  The child never restarts it; a restart is a new
    fork."""

    def __init__(self, listener: Listener):
        self._listener = listener

    def listen(self, host: str = "127.0.0.1", port: int = 0,
               backlog: int = 16) -> Listener:
        return self._listener


def _detach(keep: set[int]) -> None:
    """Point every open descriptor outside ``keep`` at ``/dev/null``.

    Overwriting instead of closing keeps the numbers taken, so a stale
    inherited object that closes "its" descriptor later closes a
    ``/dev/null`` copy, never a socket this child opened since."""
    null = os.open(os.devnull, os.O_RDWR)
    listing = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    for name in os.listdir(listing):
        fd = int(name)
        if fd in keep or fd == null:
            continue
        try:
            os.fstat(fd)    # the listing's own descriptor is gone by now
        except OSError:
            continue
        os.dup2(null, fd)
    os.close(null)


def _fork() -> int:
    """``os.fork`` with every lock in ``_FORK_LOCKS`` held across it."""
    for lock in _FORK_LOCKS:
        lock.acquire()
    try:
        return os.fork()
    finally:
        for lock in _FORK_LOCKS:
            lock.release()      # in the parent and in the child


def _serve(expert: Module, host: str, engine: str, listener: Listener,
           lifeline: int) -> None:
    """The child's whole life: serve until the lifeline breaks."""
    from .teamnet_runtime import ExpertWorker   # which imports this module
    # Ctrl-C reaches the whole process group; the parent decides.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _detach({2, listener.fileno(), lifeline})
    ExpertWorker(expert, host=host, engine=engine,
                 transport=_Bound(listener)).start()
    while os.read(lifeline, 1):
        pass


class ForkedWorker:
    """An :class:`~repro.distributed.ExpertWorker` for ``expert`` served
    from a forked child process.

    The handle keeps the thread worker's surface: ``address``, and
    ``start()``/``stop()``, both idempotent.  ``stop()`` kills and reaps
    the child; ``start()`` forks a fresh one on the same port from
    ``expert`` as this process holds it, so a restart serves that, not
    what a ``DEPLOY`` pushed to the old child, as a rebooted node would.
    The child's counters (``forwards``, ``shed_expired``) stay in the
    child.

    While the child runs, the handle holds one count of the process-wide
    one-BLAS-thread cap (:mod:`repro.nn.blas`) here in the parent, so the
    master's local forward also runs on one thread; the child's
    ``ExpertWorker`` holds the cap in the child.
    """

    def __init__(self, expert: Module, host: str = "127.0.0.1",
                 engine: str = "tape"):
        self._expert = expert
        self._host = host
        self._engine = engine
        self._port = 0
        self._pid: int | None = None
        self._lifeline: int | None = None

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    @property
    def pid(self) -> int | None:
        """The serving child's pid; None while stopped."""
        return self._pid

    def start(self) -> None:
        if self._pid is not None:
            return
        listener = Listener(self._host, self._port)
        self._port = listener.port
        lifeline, keep_alive = os.pipe()
        # Held from before the fork, so the child inherits the library
        # already found and already at one thread.
        blas.acquire()
        try:
            pid = _fork()
        except OSError:
            blas.release()
            for fd in (lifeline, keep_alive):
                os.close(fd)
            listener.close()
            raise
        if pid == 0:
            status = 1
            try:
                _serve(self._expert, self._host, self._engine, listener,
                       lifeline)
                status = 0
            except BaseException:  # noqa: BLE001 - report, then leave
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(lifeline)
        listener.close()    # the child's copy keeps the port listening
        self._pid, self._lifeline = pid, keep_alive

    def stop(self) -> None:
        if self._pid is None:
            return
        pid, self._pid = self._pid, None
        os.close(self._lifeline)
        self._lifeline = None
        # A stopped worker is a powered-off node: nothing in the child
        # needs flushing, and a kill cannot hang the way a polite
        # request to a wedged child could.
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass    # already reaped (SIGCHLD ignored by the embedder)
        blas.release()
