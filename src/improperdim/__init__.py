"""Estimate the number of improper components in complex-valued data.

A complex random signal is improper when it is correlated with its own
complex conjugate. This package estimates how many such components a
multichannel Gaussian recording contains, from the sample circularity
coefficients (canonical correlations between the data and its conjugate):

* ``mdl_itc_full`` / ``mdl_itc_reduced`` — minimum-description-length
  information criterion, full-sample and reduced-rank;
* ``glrt_full`` / ``glrt_reduced`` — sequential likelihood-ratio tests,
  full-sample and reduced-rank (small-sample corrected statistic).

The reduced-rank variants jointly pick a PCA rank and the order, which
keeps them usable when the snapshot count is comparable to (or below)
the channel count, and none of the detectors assume white noise — only
proper noise. A scenario generator (``simulate``), Monte Carlo harness
(``harness``), and the ``improperdim`` CLI reproduce detection-probability
experiments end to end.
"""

from .detectors import *
from .fileio import *
from .harness import *
from .numerics import *
from .simulate import *
from .stats import *

__version__ = "0.1.0"

__all__ = sorted(
    detectors.__all__
    + fileio.__all__
    + harness.__all__
    + numerics.__all__
    + simulate.__all__
    + stats.__all__
)
