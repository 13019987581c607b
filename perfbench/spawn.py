"""Run one workbench command as a child process.

The address-space limit and the wall-clock alarm are set in the child
before exec, so a runaway command (today `stacked --d 8`) fails on its
own instead of taking the machine with it.  The parent drains stdout and
stderr as they arrive and reaps the child with wait4, which gives its
CPU time and peak resident set.

The parent keeps only a digest, a byte and line count and the head and
tail of a large stdout: it stays small, and a child's ru_maxrss starts
from the parent's resident set at fork, so a large parent would hide
the child's own peak.

run_sliced() is the timed variant: the child writes to files, and the
parent stops it at intervals to time a reference workload on its core.
"""

from __future__ import annotations

import hashlib
import os
import resource
import select
import selectors
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass

MEMORY_LIMIT = 2 << 30
TIMEOUT_S = 120
KEEP = 1 << 16


@dataclass
class Result:
    argv: list
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout_md5: str
    stdout_bytes: int
    stdout_lines: int
    stdout_head: bytes
    stdout_tail: bytes
    stderr: bytes

    @property
    def stdout_complete(self) -> bool:
        return self.stdout_bytes == len(self.stdout_head)

    @property
    def timed_out(self) -> bool:
        return self.code == -signal.SIGALRM or self.code == -signal.SIGKILL

    @property
    def memory_hit(self) -> bool:
        return b"MemoryError" in self.stderr


class _Sink:
    def __init__(self):
        self.md5 = hashlib.md5()
        self.bytes = 0
        self.lines = 0
        self.head = b""
        self.tail = b""

    def feed(self, chunk: bytes):
        self.md5.update(chunk)
        self.bytes += len(chunk)
        self.lines += chunk.count(b"\n")
        if len(self.head) < KEEP:
            self.head += chunk[:KEEP - len(self.head)]
        self.tail = (self.tail + chunk)[-KEEP:]


def _limit(memory: int, timeout: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
        signal.alarm(timeout)
    return apply


def run(argv, cwd, env, timeout=TIMEOUT_S, memory=MEMORY_LIMIT) -> Result:
    """Start argv, drain it, reap it; wall time runs from spawn to exit."""
    out, err = _Sink(), _Sink()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=_limit(memory, timeout))
    deadline = t0 + timeout + 5
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0 and not killed:
                    # Backstop only: the alarm should have ended the child.
                    proc.kill()
                    killed = True
                for key, _ in sel.select(timeout=None if killed else left):
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        key.data.feed(chunk)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        argv=list(argv),
        code=proc.returncode,
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout_md5=out.md5.hexdigest(),
        stdout_bytes=out.bytes,
        stdout_lines=out.lines,
        stdout_head=out.head,
        stdout_tail=out.tail,
        stderr=err.head,
    )


def _feed_file(sink: _Sink, fh):
    fh.seek(0)
    while chunk := fh.read(1 << 16):
        sink.feed(chunk)


def run_sliced(argv, cwd, env, reference, slice_s, timeout=TIMEOUT_S, memory=MEMORY_LIMIT):
    """Run argv as run() does, but stop it every slice_s seconds and time
    reference() in between, on the same core when the caller and the
    child are pinned to one.

    Returns the result, whose wall_s is the sum of the running slices,
    and the list of (slice seconds, reference seconds before, after).
    stdout and stderr go to unlinked files in cwd and are read after
    the child has ended, so no reader competes with the child.
    """
    out, err = _Sink(), _Sink()
    with tempfile.TemporaryFile(dir=cwd) as fout, tempfile.TemporaryFile(dir=cwd) as ferr:
        before = reference()
        slices = []
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=fout, stderr=ferr,
                                preexec_fn=_limit(memory, timeout))
        deadline = t0 + timeout + 5
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while True:
                    if time.perf_counter() > deadline:
                        # Backstop only: the alarm should have ended the child.
                        proc.kill()
                    exited = bool(poller.poll(slice_s * 1000))
                    if not exited:
                        os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    t1 = time.perf_counter()
                    after = reference()
                    slices.append((t1 - t0, before, after))
                    before = after
                    if not os.WIFSTOPPED(status):
                        break
                    t0 = time.perf_counter()
                    os.kill(proc.pid, signal.SIGCONT)
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        _feed_file(out, fout)
        _feed_file(err, ferr)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        argv=list(argv),
        code=proc.returncode,
        wall_s=sum(s[0] for s in slices),
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout_md5=out.md5.hexdigest(),
        stdout_bytes=out.bytes,
        stdout_lines=out.lines,
        stdout_head=out.head,
        stdout_tail=out.tail,
        stderr=err.head,
    ), slices
