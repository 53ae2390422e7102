"""Timing in reference seconds on a shared machine.

Other tenants of this machine slow its CPU by up to 1.5x, in spells that
switch on and off within a second and can fill a whole run, so the raw
times of a 20 s run say as much about them as about the program.  Every
timed piece of work is therefore scaled by a calibration loop that runs on
the same CPU right before and after it (see README).
"""

import os
import resource
import select
import signal
import statistics
import subprocess
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: Rounds every run makes at least, so each operation has a median.
MIN_ROUNDS = 3

#: The calibration loop is the same kind of work as the program's hot path:
#: small numpy operations driven from Python.  REF_CAL_S is its time on the
#: quiet machine, so a reference second is a wall second of the machine
#: when nothing else slows it.  A child process is stopped every
#: CHILD_SLICE_S for a calibration (see spawn).
CAL_LOOPS = 1000
CHILD_SLICE_S = 0.1
REF_CAL_S = 0.004
_CAL_ARRAY = np.arange(16.0)
#: The CPUs this process may use when it starts.  ``pin_to_one_cpu`` keeps
#: the benchmark and its single-threaded children on the first of them, so
#: the calibration loop runs on the CPU that does the timed work.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(ALL_CPUS)})


def calibrate():
    """Wall time of the calibration loop, in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_LOOPS):
        acc += float(np.sum(_CAL_ARRAY * i))
    return time.perf_counter() - t0


class Timings:
    """Wall, reference-second and CPU times of each operation, over the rounds."""

    def __init__(self, n_ops):
        self.wall = [[] for _ in range(n_ops)]
        self.ref = [[] for _ in range(n_ops)]
        self.cpu = [[] for _ in range(n_ops)]
        self.cal = []

    def round_s(self, which="ref"):
        """Sum over operations of each one's median time."""
        return sum(statistics.median(t) for t in getattr(self, which))


def _errors():
    from cylwigner.errors import CylWignerError  # noqa: PLC0415
    return (CylWignerError, ValueError)


#: A finished child process: wall and reference seconds it ran (stopped
#: time excluded), its CPU seconds (user + system), exit status, peak
#: resident memory and standard error.
ChildRun = namedtuple("ChildRun", "wall ref cpu status rss_mib stderr")


def _calibrate_on(cpus):
    """Mean calibration time over ``cpus``, moving this process to each in turn."""
    if cpus is None:
        return calibrate()
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.append(calibrate())
    pin_to_one_cpu()
    return sum(times) / len(times)


def spawn(cmd, env=None, cpus=None):
    """Run ``cmd`` to its end and time it in reference seconds.

    The child runs on this process's CPU, or on ``cpus``.  Every
    CHILD_SLICE_S it is stopped, the calibration loop runs alone on each of
    its CPUs in turn, and the child continues; each slice of the child's
    run is scaled by the mean calibrations at its two ends.
    """
    OUT.mkdir(exist_ok=True)
    err_path = OUT / f"stderr-{os.getpid()}.txt"
    preexec = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    before = _calibrate_on(cpus)
    wall = ref = 0.0
    with open(err_path, "w+b") as err:
        t_resume = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=preexec)
        try:
            pidfd = os.pidfd_open(proc.pid)
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            while True:
                exited = poller.poll(CHILD_SLICE_S * 1000)
                t_stop = time.perf_counter()
                if not exited:
                    os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, 0 if exited else os.WUNTRACED)
                after = _calibrate_on(cpus)
                wall += t_stop - t_resume
                ref += (t_stop - t_resume) * REF_CAL_S / (0.5 * (before + after))
                before = after
                if not os.WIFSTOPPED(status):
                    break
                os.kill(proc.pid, signal.SIGCONT)
                t_resume = time.perf_counter()
            os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    err_path.unlink()
    return ChildRun(wall, ref, usage.ru_utime + usage.ru_stime, proc.returncode,
                    usage.ru_maxrss / 1024.0, text)


def run_rounds(ops, seconds, min_rounds=MIN_ROUNDS, on_round=None):
    """Run ``ops`` in whole rounds until ``seconds`` pass; (Timings, outputs per op).

    An op returns its output; a program error it raises is stored as the
    output instead.  An op that returns a ChildRun has timed itself.
    ``on_round`` is called after each round with the round's outputs,
    outside the timed operations.
    """
    errors = _errors()
    timings = Timings(len(ops))
    outputs = [[] for _ in ops]
    start = time.perf_counter()
    before = calibrate()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                out = op()
            except errors as e:
                out = e
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            after = calibrate()
            if isinstance(out, ChildRun):
                timings.wall[i].append(out.wall)
                timings.ref[i].append(out.ref)
                timings.cpu[i].append(out.cpu)
            else:
                timings.wall[i].append(wall)
                timings.ref[i].append(wall * REF_CAL_S / (0.5 * (before + after)))
                timings.cpu[i].append(cpu)
            timings.cal.append(after)
            before = after
            outputs[i].append(out)
        rounds += 1
        if on_round is not None:
            on_round([o[-1] for o in outputs])
    return timings, outputs


def timing_note(timings, points):
    """A human-readable line with the raw (uncalibrated) figures."""
    return (f"raw: {points / timings.round_s('wall'):.6g} points per wall second, "
            f"{points / timings.round_s('cpu'):.6g} per CPU second; calibration loop median "
            f"{statistics.median(timings.cal):.4g} s (reference {REF_CAL_S} s)")


def self_rss_mib():
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
