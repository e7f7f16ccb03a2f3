"""CPU-speed calibrator: runs beside a timed command, on the same CPU, at the
lowest priority, and records how much CPU time a fixed unit of work takes.

Usage: calib.py OUT_PATH

The caller pins it (by its own affinity, which children inherit) to the CPU
the commands run on. It writes one byte to standard output once it runs,
then repeats the unit until SIGTERM and writes (end time, CPU time of the
unit), both in ns on CLOCK_MONOTONIC and the thread CPU clock, as int64
pairs to OUT_PATH. At nice 19 beside a busy command it gets about 1% of the
CPU, some 50 units a second; the unit's CPU time rises and falls with the
speed the shared host gives that CPU at that moment.

The unit mixes what the program spends its time on: an interpreted loop,
small numpy calls and a small dense matrix product. Over 5-second windows
on a shared 2-vCPU host its time tracked the program's own code (metric
suite and solver on 8- and 100-node graphs) with a slope of 1.0 to 1.1 and
a correlation of 0.91 to 0.96; a pure-Python loop tracked it with a slope
of 0.85 to 0.92.
"""
import os
import signal
import sys
import time
from array import array

import numpy as np

_rng = np.random.default_rng(0)
_M8 = _rng.random((8, 8))
_M8 += _M8.T
_M60 = _rng.random((60, 60))


def unit() -> float:
    s = 0
    for i in range(1500):
        s += i * i
    for _ in range(6):
        s += float(np.linalg.eigvalsh(_M8)[-1])
    return s + float((_M60 @ _M60).sum())


def main() -> int:
    out_path = sys.argv[1]
    os.nice(19)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = array("q")
    sys.stdout.buffer.write(b"r")
    sys.stdout.buffer.flush()
    while not stop:
        c0 = time.thread_time_ns()
        unit()
        samples.extend((time.monotonic_ns(), time.thread_time_ns() - c0))
    with open(out_path, "wb") as fh:
        samples.tofile(fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
