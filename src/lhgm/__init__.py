"""Lossless image compression with a two-scale hyperprior and Gaussian mixtures.

The package couples a small float32/float64 autodiff engine (:mod:`lhgm.tensor`),
discretized likelihood models (:mod:`lhgm.distributions`), an exact integer
range coder (:mod:`lhgm.coder`), the hyperprior network (:mod:`lhgm.model`),
a trainer (:mod:`lhgm.train`) and typed failures (:mod:`lhgm.errors`).
"""

__version__ = "0.1.0"
