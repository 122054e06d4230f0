"""Passes run in a forked child on a second CPU, streamed back to the parent.

Two helpers fork, and their callers import this module only past a gate
of their own, so no other command compiles it:

- split runs compute over a list of items, the parent the items before
  a cut and a child the items from it.  cli.render_table uses it from
  cli.TABLE_FORK_WORK, with about half of the table's columns, split by
  their cost, in the child, and cli.cmd_verify whenever the exhaustive
  oracle runs, with that one check in the child and the others in the
  parent;
- solve_b runs kernels.solve_b from kernels.FORK_WORK at k > 2: the
  child runs the power pass and streams each final block of the series
  sums, then C = b^(k-1); the parent runs the y pass as the blocks
  arrive.

may_fork decides for every caller whether this process may fork at
all.  Each helper runs its child through child, which hands the parent
what the child sends.  Each message is one marshal dump, framed by its
length, through an os.pipe.  The child ends through os._exit on every
path, so it runs no atexit handler and flushes no buffer it inherited.
Its exception reaches the parent as the same class with the same
message.
The parent reaps the child before the helper returns, raises or is
closed, and kills it first when it is itself unwinding.

For as long as the child lives, parent and child are each pinned to a
different CPU of the process's affinity mask: each pins itself, the
child before its work starts, and the parent restores its mask when it
reaps the child.  Unpinned, the scheduler sometimes ran both halves of
a short fork on one CPU, one after the other: two halves of about
0.1 s each did so in 6 of 48 tries (7 of 8 in an earlier probe), and
in none of 48 once pinned.  End to end, pinning left table --order 250
unchanged (median ratio 1.00 over 16 pairs; 2 vCPU, Python 3.11), so
it guards against that case rather than speeding up the usual one.  A
side whose sched_setaffinity fails runs unpinned, which still leaves
the other side a CPU of its own.  Only one fork is live at a time:
`live` is true in the child and in the parent until the reap, and
may_fork reads it, so neither half forks again, pinned or not.
"""

from __future__ import annotations

import builtins
import marshal
import os
import signal
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NoReturn, Sequence, TypeVar

from kgonal import kernels

__all__ = ["live", "may_fork", "split", "solve_b"]

T = TypeVar("T")

# a table's half arrives while the parent computes its own half.  A pipe
# of this many bytes, Linux's limit for an unprivileged process, holds
# the whole half at order 250 (90 kB) and three columns of k = 12 at
# order 1000, so the child seldom waits for the parent's next drain.
# Against the default of 64 kB, table --k-min 2 --k-max 12 took 0.96 of
# the time at order 250 (faster in 8 of 10 pairs) and 0.82 at order 600
# (4 of 4; 2 vCPU, Python 3.11)
PIPE_BYTES = 1 << 20

# the parent reads the pipe in chunks of this many bytes
READ_BYTES = 1 << 16

live = False


def may_fork() -> bool:
    """Whether this process may run a pass in a forked child.

    Only with two CPUs to run on, only in a process of one thread, and
    only when no fork is live: neither half of a fork forks again.  The
    child is a copy of the calling thread alone, and a lock that another
    thread held at the fork would stay held in it.
    """
    threading = sys.modules.get("threading")
    return (
        not live
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and (threading is None or threading.active_count() == 1)
    )


class Messages:
    """The parent's end of the pipe from a child: its messages, in order.

    Each message is 8 bytes of length, then one marshal dump of (tag,
    payload).  Bytes read ahead of need are kept as bytes and loaded only
    when received, so a drain between two passes of the parent allocates
    no objects among theirs: loading a table's columns as they arrived
    raised the peak RSS of table --order 250 by 1 %.
    """

    def __init__(self, fd: int, what: str) -> None:
        self._fd = fd
        self._what = what
        self._data = bytearray()

    def receive(self) -> Any:
        """The payload of the next message; the child's error is raised here."""
        size = int.from_bytes(self._take(8), "little")
        tag, payload = marshal.loads(self._take(size))
        if tag == "error":
            name, message = payload
            # the package's errors live in kernels, the others are builtins
            cls = getattr(kernels, name, None) or getattr(builtins, name, None)
            if not (isinstance(cls, type) and issubclass(cls, Exception)):
                raise ChildProcessError(f"{name}: {message}")
            raise cls(message)
        return payload

    def drain(self) -> None:
        """Read what the pipe already holds, without waiting, to make room for the child."""
        os.set_blocking(self._fd, False)
        try:
            while chunk := os.read(self._fd, READ_BYTES):
                self._data += chunk
        except BlockingIOError:
            pass
        finally:
            os.set_blocking(self._fd, True)

    def _take(self, size: int) -> bytes:
        while len(self._data) < size:
            chunk = os.read(self._fd, max(size - len(self._data), READ_BYTES))
            if not chunk:
                raise ChildProcessError(f"{self._what} ended without its result")
            self._data += chunk
        taken = bytes(self._data[:size])
        del self._data[:size]
        return taken


@contextmanager
def child(work: Callable[[Callable[[object], None]], None], what: str) -> Iterator[Messages]:
    """Run work(send) in a forked child; the block reads what it sends.

    Each send(payload) in the child reaches the parent through
    Messages.receive.  An exception in work is sent in place of the
    rest, and the parent raises it when it reads that far.  A child
    that ends before the message the parent waits for, or ends with a
    non-zero status, raises ChildProcessError naming `what`.  The block
    must read every message the child sends.
    """
    global live
    mask = os.sched_getaffinity(0)
    read_fd, write_fd = os.pipe()
    try:
        _widen(write_fd)
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    cpus = sorted(mask)
    if pid == 0:
        _run_child(work, read_fd, write_fd, set(cpus[1:2]))
    os.close(write_fd)
    live = True
    pinned = len(cpus) >= 2 and _set_affinity({cpus[0]})
    finished = False
    try:
        try:
            yield Messages(read_fd, what)
        finally:
            os.close(read_fd)
        finished = True
    finally:
        if not finished:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, status = os.waitpid(pid, 0)
        live = False
        if pinned:
            _set_affinity(mask)
    if os.waitstatus_to_exitcode(status) != 0:
        raise ChildProcessError(f"{what} ended with wait status {status}")


def _widen(fd: int) -> None:
    """Raise the capacity of the pipe to PIPE_BYTES where Linux allows it."""
    try:
        import fcntl

        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass


def _set_affinity(cpus: set[int]) -> bool:
    """Run this process on cpus alone; False where the system refuses."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


def _run_child(
    work: Callable[[Callable[[object], None]], None], read_fd: int, write_fd: int, cpu: set[int]
) -> NoReturn:
    """The forked child: pinned to cpu when it names one, work(send), streamed to write_fd.

    Each message is its length in 8 bytes, then one marshal dump of
    (tag, payload): ("data", payload) for each send, or ("error", (class
    name, message)) in place of the rest.  The child ends through os._exit on every path, with
    status 0 only when its last message went out.
    """
    global live
    code = 1
    try:
        live = True
        if cpu:
            _set_affinity(cpu)
        os.close(read_fd)
        with open(write_fd, "wb") as stream:

            def send(tag: str, payload: object) -> None:
                data = marshal.dumps((tag, payload))
                stream.write(len(data).to_bytes(8, "little"))
                stream.write(data)
                stream.flush()

            try:
                work(lambda payload: send("data", payload))
            except Exception as exc:  # noqa: BLE001 - re-raised by the parent
                send("error", (type(exc).__name__, str(exc)))
            code = 0
    finally:
        os._exit(code)


def split(compute: Callable[[T], Any], items: Sequence[T], cut: int, what: str) -> Iterator:
    """compute(x) for each x of items, in order, with items[cut:] computed in a forked child.

    A generator.  Where may_fork allows it and the child has items to
    compute, the child computes items[cut:] and sends each result as
    soon as it is done.  The parent yields its own results as it
    computes them, reading what the child has sent after each, then
    reaps the child and yields the child's results.  Closing the
    generator before then kills and reaps the child.  Otherwise every
    item is computed here, as it is asked for.
    """
    if cut >= len(items) or not may_fork():
        yield from map(compute, items)
        return

    def work(send: Callable[[object], None]) -> None:
        for x in items[cut:]:
            send(compute(x))

    with child(work, what) as messages:
        for x in items[:cut]:
            yield compute(x)
            messages.drain()
        rest = [messages.receive() for _ in items[cut:]]
    yield from rest


def solve_b(p: int, order: int, power_out: list[int] | None) -> list[int]:
    """kernels.solve_b with the power pass in a forked child and the y pass here.

    kernels.solve_b calls it where kernels._fork_pays allows: work of at
    least kernels.FORK_WORK at p > 1, and may_fork.
    """

    def power_pass(send: Callable[[object], None]) -> None:
        c: list[int] = []
        kernels._power_pass(p, c, [0] * (order + 1), send)
        # sent even when C is not wanted, so an error in the last step
        # of the power pass is seen
        send(c if power_out is not None else None)

    with child(power_pass, "the power pass of solve_b") as messages:
        sums = [0]

        def ready(n: int) -> None:
            while len(sums) <= n + 1:
                sums.extend(messages.receive())

        y = [1] + [0] * order
        kernels._online(y, sums, 1, "y recurrence", ready)
        c = messages.receive()
    if power_out is not None:
        power_out[:] = c
    return y
