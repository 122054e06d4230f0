"""The power pass of kernels.solve_b in a forked child, streamed to the parent.

kernels.solve_b imports this module only for a solve large enough to
fork (kernels.FORK_WORK), so no other command compiles it.  The child
runs kernels._power_pass and sends each final block of the series sums
through a pipe with marshal, then C = b^p; the parent runs the y pass,
kernels._online, as the blocks arrive.  The child ends through os._exit
on every path.  Its exception is re-raised in the parent as the same
class with the same message, and the parent reaps the child before it
returns or raises, killing it first when it is itself unwinding.
"""

from __future__ import annotations

import builtins
import marshal
import os
import signal
from typing import Any, BinaryIO, NoReturn

from kgonal import kernels

__all__ = ["solve_b"]


def solve_b(p: int, order: int, power_out: list[int] | None) -> list[int]:
    """kernels.solve_b with the power pass in a forked child and the y pass here."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _power_child(p, order, power_out is not None, read_fd, write_fd)
    os.close(write_fd)
    finished = False
    try:
        with open(read_fd, "rb") as stream:
            sums = [0]

            def ready(n: int) -> None:
                while len(sums) <= n + 1:
                    sums.extend(_receive(stream))

            y = [1] + [0] * order
            kernels._online(y, sums, 1, "y recurrence", ready)
            # the child's last message comes even when C is not wanted,
            # so an error in the last step of the power pass is seen
            c = _receive(stream)
        finished = True
    finally:
        if not finished:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise ChildProcessError(f"the power pass of solve_b ended with wait status {status}")
    if power_out is not None:
        power_out[:] = c
    return y


def _power_child(p: int, order: int, send_power: bool, read_fd: int, write_fd: int) -> NoReturn:
    """The forked child of solve_b: the power pass, streamed to write_fd.

    Each message is one marshal dump of (tag, payload): ("sums", block)
    for each final block of sums, then ("power", C or None), or
    ("error", (class name, message)) in place of the rest.  The child
    ends through os._exit on every path, with status 0 only when its
    last message went out.
    """
    code = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as stream:

            def send(tag: str, payload: object) -> None:
                marshal.dump((tag, payload), stream)
                stream.flush()

            try:
                c: list[int] = []
                kernels._power_pass(p, c, [0] * (order + 1), lambda block: send("sums", block))
                send("power", c if send_power else None)
            except Exception as exc:  # noqa: BLE001 - re-raised by the parent
                send("error", (type(exc).__name__, str(exc)))
            code = 0
    finally:
        os._exit(code)


def _receive(stream: BinaryIO) -> Any:
    """The payload of the next message of _power_child; its error is raised here."""
    try:
        tag, payload = marshal.load(stream)
    except EOFError:
        raise ChildProcessError("the power pass of solve_b ended without its result") from None
    if tag == "error":
        name, message = payload
        # the package's errors live in kernels, the others are builtins
        cls = getattr(kernels, name, None) or getattr(builtins, name, None)
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            raise ChildProcessError(f"{name}: {message}")
        raise cls(message)
    return payload
