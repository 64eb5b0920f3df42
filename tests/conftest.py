"""Shared fixtures and the acceptance summary reporter.

Acceptance tests record one line per criterion through the
acceptance_report fixture; the terminal summary prints them all in
order, including lines for criteria that are expected to fail.  Every
test fails that leaves a child process behind, running or a zombie, that
leaves a file descriptor open (a queue pipe or a worker's link, which no
child outlives), or that leaves this process's CPU affinity mask
changed: the block workers bind processes to CPUs while they run, and a
mask left narrowed would slow every later test and benchmark.
"""

import os
import signal
from pathlib import Path

import numpy as np
import pytest

_LINES = {}


@pytest.fixture
def acceptance_report():
    """Record a '[A..] PASS/FAIL' line for the final summary.

    Call before asserting so expected failures still leave their line.
    """

    def record(key: str, passed: bool, detail: str):
        tag = "PASS" if passed else "FAIL"
        _LINES[key] = f"[A{key}] {tag} {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_LINES):
        terminalreporter.write_line(_LINES[key])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _running_children() -> list:
    """pids whose parent is this process, read from /proc where it exists."""
    me = str(os.getpid())
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # pid (comm) state ppid ...; comm may hold spaces and parentheses
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:             # the process ended meanwhile
            continue
        if fields[1] == me:
            pids.append(int(stat.parent.name))
    return pids


def _leftover_children() -> list:
    """Reap every child of this process; the pids of those found, or
    ["running"] for running children that could not be named."""
    left = []
    try:
        while pid := os.waitpid(-1, os.WNOHANG)[0]:
            left.append(pid)        # a zombie, reaped now
    except ChildProcessError:
        return left
    running = _running_children()
    for pid in running:             # so the next test starts clean
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return left + (running or ["running"])


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    if hasattr(os, "WNOHANG"):
        left = _leftover_children()
        if left:
            pytest.fail(f"the test left child processes behind: {left}")


_FD_DIR = Path("/proc/self/fd")


def _open_fds() -> dict:
    """This process's open file descriptors and what each one names."""
    fds = {}
    for fd in os.listdir(_FD_DIR):
        try:
            fds[int(fd)] = os.readlink(_FD_DIR / fd)
        except OSError:             # listdir's own descriptor, closed now
            pass
    return fds


@pytest.fixture(autouse=True)
def no_file_descriptor_left():
    if not _FD_DIR.is_dir():
        yield
        return
    before = _open_fds()
    yield
    left = {fd: name for fd, name in _open_fds().items()
            if before.get(fd) != name}
    if left:
        pytest.fail(f"the test left file descriptors open: {left}")


def _affinity_mask():
    """The CPUs this process may run on; None where that is unknown."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.fixture(autouse=True)
def affinity_mask_unchanged():
    before = _affinity_mask()
    yield
    after = _affinity_mask()
    if after != before:
        os.sched_setaffinity(0, before)     # so the next test starts clean
        pytest.fail(f"the test changed the CPU affinity mask from "
                    f"{sorted(before)} to {sorted(after)}")
