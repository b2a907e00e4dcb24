"""Reference kernels: the machine's own speed, measured beside each workload.

The shared host this benchmark was written on changes speed by up to
1.8x, in phases that last from seconds to tens of minutes.  No statistic
over one run's passes can undo a phase that spans the whole run.  So a
run also times a fixed reference kernel, interleaved with its
operations, that does the same kind of work as the workload but calls
no `mgcp` code.  Timed metrics are reported at the reference speed:

    calibrated = measured * NOMINAL_S[kernel] / median(samples around it)

A run at the nominal speed reports its wall times unchanged.  A change
to `mgcp` moves only the measured side, so it shows in full; a change in
the machine's speed moves both sides and cancels, as far as the kernel
slows down the way the workload does.  The raw wall times stay in the
run's report.

Kernels:

- `python`: a pure-Python float series with `math` calls, the work of
  `variant_pmf` and the shock tables (pmf-box, levy-shock).
  The same kernel calibrates cli-cold: it is sampled in the parent
  between the children.
- `scipy`: scipy's Poisson and binomial `ppf` on fixed arrays, where the
  Monte Carlo estimators spend their time (mc-estimate).
- `import`: a fresh interpreter that imports the numpy and scipy modules
  that `mgcp` imports, but not `mgcp` (the set-up of every workload).
"""

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
from scipy import stats

# about the median sample time of each kernel on a 2-core Intel Xeon
# (Python 3.11, numpy 2.4, scipy 1.17); the values only fix the scale
NOMINAL_S = {"python": 0.0005, "scipy": 0.0007, "import": 0.65}

# kernels are sampled at most this often between operations, so that
# they cost a few percent of a run whatever the length of its operations
EVERY_S = 0.02

IMPORTS = "import numpy, scipy.integrate, scipy.special, scipy.stats"

_U = np.random.default_rng(12345).random(150)
_MEAN = np.linspace(0.5, 40.0, 150)
_COUNT = np.arange(1, 151)


def python_kernel():
    x, s = 0.5, 0.0
    for k in range(1, 1500):
        x = x * 0.999 + 1.0 / k
        s += abs(x - math.exp(-k * 1e-3)) * math.lgamma(k + 0.5)
    return s


def scipy_kernel():
    return stats.poisson.ppf(_U, _MEAN).sum() + stats.binom.ppf(_U, _COUNT, 0.3).sum()


def import_kernel():
    subprocess.run([sys.executable, "-c", IMPORTS],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)


KERNELS = {"python": python_kernel, "scipy": scipy_kernel, "import": import_kernel}


class Reference:
    """Timed samples of one kernel over a run; each sample is the median
    of `repeat` back-to-back runs of the kernel."""

    def __init__(self, kind, repeat=1):
        self.kind = kind
        self.repeat = repeat
        self.samples = []
        self._last = -math.inf

    def sample(self):
        times = []
        for _ in range(self.repeat):
            t0 = perf_counter()
            KERNELS[self.kind]()
            times.append(perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self._last = perf_counter()

    def maybe_sample(self):
        """Sample unless the last sample ended less than EVERY_S ago."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, samples):
        """Scale from measured seconds to seconds at the nominal speed, by
        the median of the given samples."""
        return NOMINAL_S[self.kind] / statistics.median(samples)
