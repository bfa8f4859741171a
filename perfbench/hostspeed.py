"""How fast each CPU of a shared host runs the interpreter, while a run
measures.

The virtual machine the benchmark was defined on shares its cores: for
seconds at a time a vCPU runs about 1.5 times slower than at full speed,
CPU time slows with it (it is not counted as steal), and the two vCPUs
change state independently.  A 20-second sweep therefore reads 25-35%
faster or slower depending on how much of it ran in the slow state.

A probe process pinned to each CPU wakes every :data:`SAMPLE_INTERVAL_S`
and times a fixed slice of interpreter work; the work under measurement
runs in between on the same CPUs, so the probes sample the speed it saw.
:meth:`HostSpeed.over` is the mean speed over a time window (1.0 is the
defining host at full speed), and CPU seconds times that speed are seconds
at full speed: the gated figures use them, so a slowed host does not read
as a regression.  The slice is benchmark code; a change to the program
cannot change how long it takes.

Usage as a probe (started by :class:`HostSpeed`)::

    python3 perfbench/hostspeed.py CPU

It prints ``monotonic-time slice-cpu-seconds`` lines when its standard
input closes.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, List, Tuple

#: pause between two slices; a slice takes 2-3 ms, so a probe takes
#: about 6% of its CPU away from the measured work
SAMPLE_INTERVAL_S = 0.04
#: CPU seconds one :func:`reference_slice` took on the defining host
#: (2-vCPU Xeon VM, CPython 3.11.7) at full speed
REFERENCE_SLICE_S = 0.0022


def reference_slice() -> int:
    """A fixed slice of interpreter work: fill, sort and walk a dict."""
    table = {}
    for index in range(3000):
        table[f"k{index * 7919 % 100000}"] = {"w": index * 0.5}
    return len(sorted(table))


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    samples: List[Tuple[float, float]] = []
    # the parent closes our standard input to stop us (or dies, which closes
    # it too); until then, wait one interval and time one slice
    while not select.select([sys.stdin], [], [], SAMPLE_INTERVAL_S)[0]:
        started = time.process_time()
        reference_slice()
        samples.append((time.monotonic(), time.process_time() - started))
    sys.stdout.write("".join(f"{at:.6f} {cpu_s:.9f}\n" for at, cpu_s in samples))


class HostSpeed:
    """Probes on *cpus* from construction until :meth:`stop`."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.samples: List[Tuple[float, float]] = []  # (monotonic, speed)
        self._probes = [subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE) for cpu in cpus]

    def stop(self) -> None:
        """Stop every probe and collect its samples."""
        for probe in self._probes:
            if probe.stdin is not None and not probe.stdin.closed:
                probe.stdin.close()
        for probe in self._probes:
            out = probe.stdout.read()
            probe.wait()
            for line in out.decode().splitlines():
                at, cpu_s = line.split()
                self.samples.append((float(at), REFERENCE_SLICE_S / float(cpu_s)))
        self._probes = []
        self.samples.sort()

    def over(self, start: float, end: float) -> float:
        """Mean speed of the samples taken between two ``time.monotonic()``
        readings (the nearest sample when none fell inside)."""
        inside = [speed for at, speed in self.samples if start <= at <= end]
        if inside:
            return sum(inside) / len(inside)
        if not self.samples:
            raise RuntimeError("the host-speed probes took no sample")
        middle = (start + end) / 2.0
        return min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]


def measurement_cpus() -> List[int]:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
