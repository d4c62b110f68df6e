"""Reference marginal for the tests: trace one mode out by a fixed polar rule.

The closed-form marginals of ``wehrlkit.marginal_husimi`` are checked
against it; no library code calls it.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from wehrlkit import HusimiEvaluator, NotBipartite, UnsupportedState
from wehrlkit.gaussian import ModePartition
from wehrlkit.husimi import _log_sum_exp

# Fixed polar rule over the mode QuadratureMarginalHusimi traces out:
# Gauss-Legendre in r on [0, cutoff] times midpoints in the angle.
_TRACE_RADIAL_NODES = 160
_TRACE_ANGULAR_NODES = 64
_TRACE_CUTOFF = 12.0
# Kept points traced at once: 4 x 10,240 parent evaluations a chunk.  The
# parent's log_q dominates the cost; larger chunks leave the cache and run
# slower (64 points a chunk took about 1.6x as long on 2 cores).
_TRACE_CHUNK_POINTS = 4


class QuadratureMarginalHusimi(HusimiEvaluator):
    """Marginal obtained by numerically tracing out a one-mode subsystem.

    It carries no error estimate; tests check the closed-form marginals
    of ``marginal_husimi`` against it.
    """

    kind = "generic"

    def __init__(self, parent: HusimiEvaluator, keep: str):
        if not parent.partition.bipartite:
            raise NotBipartite("marginal needs a bipartite parent")
        traced_modes = parent.partition.n_a if keep == "b" else parent.partition.n_b
        if traced_modes != 1:
            raise UnsupportedState("numeric marginal supports tracing one mode only")
        self.parent = parent
        self.keep = keep
        kept_modes = parent.partition.n_b if keep == "b" else parent.partition.n_a
        self.partition = ModePartition(kept_modes, 0)
        # Measure dx dp / (2 pi).
        t, w = leggauss(_TRACE_RADIAL_NODES)
        r = 0.5 * _TRACE_CUTOFF * (t + 1.0)
        wr = 0.5 * _TRACE_CUTOFF * w * r
        theta = (np.arange(_TRACE_ANGULAR_NODES) + 0.5) * (2.0 * math.pi / _TRACE_ANGULAR_NODES)
        xs = np.outer(r, np.cos(theta)).ravel()
        ps = np.outer(r, np.sin(theta)).ravel()
        self._nodes = np.stack([xs, ps], axis=-1)
        self._log_w = np.log(np.repeat(wr, _TRACE_ANGULAR_NODES) / _TRACE_ANGULAR_NODES)

    def log_q(self, points):
        pts = self._points(points)
        flat = pts.reshape(-1, self.dim)
        out = np.empty(flat.shape[0])
        # One joint buffer: the traced nodes stay, each chunk writes its
        # kept coordinates over the rest.
        joint = np.empty((_TRACE_CHUNK_POINTS, self._nodes.shape[0], 2 + self.dim))
        traced = slice(0, 2) if self.keep == "b" else slice(self.dim, None)
        kept = slice(2, None) if self.keep == "b" else slice(0, self.dim)
        joint[..., traced] = self._nodes
        for start in range(0, flat.shape[0], _TRACE_CHUNK_POINTS):
            chunk = flat[start:start + _TRACE_CHUNK_POINTS]
            m = chunk.shape[0]
            joint[:m, :, kept] = chunk[:, None, :]
            out[start:start + m] = _log_sum_exp(self.parent.log_q(joint[:m]) + self._log_w, axis=1)
        return out.reshape(pts.shape[:-1])

    def gaussian_envelope(self):
        # The kept block of the parent's envelope dominates the marginal.
        sigma, mean = self.parent.gaussian_envelope()
        ka = 2 * self.parent.partition.n_a
        if self.keep == "a":
            return sigma[:ka, :ka], mean[:ka]
        return sigma[ka:, ka:], mean[ka:]
