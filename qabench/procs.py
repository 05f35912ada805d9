"""Program processes: one-shot stage runs and the `ask` stdin REPL.

Every program process is reaped with `os.wait4`, which returns that
child's own resource usage, so peak RSS is per child rather than the
maximum over every child the benchmark ever reaped.
"""

import os
import select
import subprocess
import time
from dataclasses import dataclass


class CheckFailed(Exception):
    """A correctness check failed; the message names the check."""


@dataclass(frozen=True)
class ProcResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stderr: str = ""


def program_env(src_dir: str, extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.update(extra or {})
    return env


def _reap(proc: subprocess.Popen, timeout: float | None = None) -> tuple[int, float]:
    """Reap `proc` with wait4; return (exit code, ru_maxrss in MB).

    With a timeout, the child is killed if it has not exited by then.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        flags = 0 if deadline is None else os.WNOHANG
        pid, status, usage = os.wait4(proc.pid, flags)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            deadline = None
            continue
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # Linux reports KiB


def run_program(argv, cwd, env, timeout: float = 170.0) -> ProcResult:
    """Run one process to completion, capturing output and rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        _, err = _communicate(proc, timeout)
    except BaseException:
        proc.kill()
        _reap(proc)
        raise
    code, rss = _reap(proc)
    return ProcResult(code, time.perf_counter() - t0, rss, err)


def _communicate(proc: subprocess.Popen, timeout: float) -> tuple[str, str]:
    """Drain stdout and stderr until both close, without reaping."""
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    open_fds = set(chunks)
    deadline = time.monotonic() + timeout
    while open_fds:
        left = deadline - time.monotonic()
        if left <= 0:
            raise CheckFailed(f"process timed out: {' '.join(proc.args)}")
        ready, _, _ = select.select(list(open_fds), [], [], left)
        for fd in ready:
            data = os.read(fd, 65536)
            if data:
                chunks[fd].append(data)
            else:
                open_fds.discard(fd)
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(v).decode("utf-8", "replace") for v in chunks.values())
    return out, err


class Repl:
    """A `qapipe ask` stdin REPL driven by one closed-loop client."""

    def __init__(self, argv, cwd, env, reply_timeout: float = 60.0):
        self.reply_timeout = reply_timeout
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=0,
        )
        self._buf = b""
        self.maxrss_mb = 0.0
        self.end = self.start

    def ask(self, question: str) -> str | None:
        """Send one line and wait for one reply line; None if the REPL died."""
        try:
            self.proc.stdin.write(question.encode("utf-8") + b"\n")
        except BrokenPipeError:
            return None
        return self._read_line()

    def _read_line(self) -> str | None:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + self.reply_timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                return None
            data = os.read(fd, 65536)
            if not data:
                return None
            self._buf += data
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode("utf-8", "replace")

    def close(self) -> int:
        """Close stdin, wait for exit, and record the child's rusage."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        code, self.maxrss_mb = _reap(self.proc, timeout=30.0)
        self.end = time.perf_counter()
        self.proc.stdout.close()
        return code

