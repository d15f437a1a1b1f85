"""Machine speed, sampled between operations, to turn seconds into reference seconds.

The CPUs this benchmark was tuned on are shared with other tenants, and the
speed of one interpreter thread drifts by up to 2x over tens of seconds.
Raw seconds from two runs a minute apart then differ by more than any
regression bound worth having.  So the benchmark times a fixed reference
job, a small pure-Python RK4 integration shaped like ``simkit``'s hot loop,
before and after the operations it measures, and reports

    reference seconds = raw seconds * REFERENCE_S / reference-job seconds

taken over the same stretch of time.  The reference job is benchmark code
that no purefb change can touch, so a faster or slower purefb moves the
reference seconds exactly as it moves the raw ones; only the machine's
drift cancels.  Raw seconds are kept next to every scaled figure.
"""

import statistics
import time

# the reference job's duration on a quiet core of the machine the benchmark
# was tuned on (Intel Xeon, Python 3.11); it only sets the scale
REFERENCE_S = 0.005


def _field(t, y):
    return (y[1], -y[0] - 0.1 * y[1] * abs(y[1]) + 0.5 * t)


def reference_job(steps=1000, h=1e-3):
    """Fixed RK4 integration of a damped oscillator, in pure Python."""
    y = [1.0, 0.0]
    for s in range(steps):
        t = s * h
        k1 = _field(t, y)
        y2 = [a + 0.5 * h * b for a, b in zip(y, k1)]
        k2 = _field(t + 0.5 * h, y2)
        y3 = [a + 0.5 * h * b for a, b in zip(y, k2)]
        k3 = _field(t + 0.5 * h, y3)
        y4 = [a + h * b for a, b in zip(y, k3)]
        k4 = _field(t + h, y4)
        y = [a + h * (p + 2.0 * q + 2.0 * r + w) / 6.0
             for a, p, q, r, w in zip(y, k1, k2, k3, k4)]
    return y


class SpeedProbe:
    """Reference-job timings taken between operations, with their times."""

    def __init__(self, interval=0.25):
        self.interval = interval  # longest stretch a long operation goes unsampled
        self.samples = []  # (perf_counter at the sample's end, job seconds)
        self.spent = 0.0  # seconds spent sampling, to keep out of wall times

    def sample(self):
        t0 = time.perf_counter()
        reference_job()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self.spent += t1 - t0

    def sample_if_due(self):
        """Sample when the last sample is older than the interval.

        Sampling after every call would also slow the call after it: the
        job evicts that call's data from the caches (+25 % on a 0.4 ms
        ``check_theorem1``).
        """
        if time.perf_counter() - self.samples[-1][0] > self.interval:
            self.sample()

    def reference_seconds(self, start, end):
        """Work done in [start, end], in reference seconds, sampling left out.

        The interval is cut at every sample inside it; each piece is scaled
        by the mean speed of the samples at its two ends (the last sample
        before start and the first after end close the outer pieces), so a
        change of machine speed inside a long operation is followed.
        """
        before = [s for s in self.samples if s[0] <= start][-1:]
        inside = [s for s in self.samples if start < s[0] < end]
        after = [s for s in self.samples if s[0] >= end][:1]
        ends = before + inside + after
        if not ends:
            raise ValueError("no speed sample near [%r, %r]" % (start, end))
        ends = ends[:1] * (not before) + ends + ends[-1:] * (not after)
        factor = [REFERENCE_S / d for _, d in ends]
        cuts = [start] + [t for t, _ in inside] + [end]
        total = 0.0
        for i in range(len(cuts) - 1):
            busy = cuts[i + 1] - cuts[i]
            if i < len(inside):
                busy -= inside[i][1]  # the sample ending at this cut
            total += busy * 0.5 * (factor[i] + factor[i + 1])
        return total
