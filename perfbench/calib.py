"""Machine-speed calibration.

The benchmark runs on shared virtual machines whose speed drifts by up to a
factor of two, over milliseconds and over minutes, without the guest seeing
any steal time: ``cpu_s`` rises with ``wall_s``. A fixed piece of work that
looks like cmshift's (``work``) is timed before and after every operation
and, every 25 ms, inside it; the operation's time is divided by the mean of
those samples and multiplied by ``NOMINAL_S``. The result is the
operation's time on a machine on which the sample takes ``NOMINAL_S``
seconds. cmshift never runs this code, so no change to cmshift moves it.
"""

import gc
import math
import time

import numpy as np

# a fixed scale: about the median time of one sample on the reference
# machine (README); calibrated times are in these units
NOMINAL_S = 5.0e-4

_N = 16
_MAT = (np.arange(_N * _N, dtype=float).reshape(_N, _N) % 7.0 + 1.0) / 7.0


class _Series:
    """Counts looked up through small methods, as the loop series do."""

    def __init__(self):
        self.table = {}

    def multiplicity(self, length):
        return self.table.get(length, (length * 7) // 3 + 1)

    def count(self, length):
        return self.multiplicity(length) + len(self.table)


def work():
    """A fixed amount of work; returns a number so nothing is optimised away.

    Four parts, each like a kind of work cmshift does: small numpy products
    driven from Python (power iterations), float and dict updates, a
    term-by-term series of counts looked up through method calls and summed
    with ``math.fsum`` (loop series), and a dynamic program over lists of
    integers that outgrow a machine word (exact counts). The machine's slowdowns hit these kinds
    differently: over the rounds of one run, each workload's times moved
    with a slope of 0.8-1.4 against any single part, about 1 against the
    mix.
    """
    v = np.ones(_N)
    for _ in range(24):
        v = _MAT @ v
        v /= v.sum()
    counts = {}
    acc = 0.0
    for i in range(24):
        x = float(v[i % _N])
        for j in range(12):
            acc += x * j - acc * 1e-3
            counts[j % 5] = counts.get(j % 5, 0) + 1
    series = _Series()
    terms = []
    for length in range(1, 300):
        count = series.count(length)
        if count.bit_length() > 0:
            terms.append(count * 0.6 ** length)
    acc += math.fsum(terms)
    total = 0
    for _ in range(2):
        row = [0] * 64
        row[0] = 1
        for _ in range(12):
            nxt = [0] * 64
            for s in range(63):
                c = row[s]
                if c:
                    nxt[s + 1] += c * 3
                    nxt[s] += c
            row = nxt
        total += sum(row)
    return acc + len(counts) + total


# Set-up is an import, whose time follows the machine differently: page
# faults, unmarshalling and extension loading. Each set-up interpreter also
# imports these standard-library modules, which neither cmshift nor numpy
# loads, and its set-up time is scaled by theirs.
REFERENCE_MODULES = ("unittest", "asyncio", "xml.dom.minidom", "email.parser", "http.client",
                     "sqlite3", "pydoc", "tarfile", "csv", "difflib")
# a fixed scale: about the median time of the reference import on the
# reference machine (README)
IMPORT_NOMINAL_S = 0.08


def sample():
    """Wall seconds of one run of ``work``, with the cyclic garbage collector
    held off so that a collection owed to the previous operation's garbage
    is not charged to the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
