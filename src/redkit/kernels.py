"""The two hot numeric kernels of the bound passes, in numpy.

interval_affine maps a box through an affine layer; relu_backward substitutes
ReLU relaxation lines into the coefficient rows of a backward pass. The bound
passes call them through the module (kernels.interval_affine(...)), so a
tracer that rebinds the module attributes sees every bound-pass call.

Both take an optional leading batch axis, so that one call bounds a batch of
branch-and-bound leaves: (B, n) boxes or relaxation lines and (B, m, n)
coefficient rows, member b of one meeting member b of the other. A call
without a batch axis runs the plain 2-D products.
"""
from __future__ import annotations

import numpy as np


def interval_affine(W, b, lo, hi):
    """Range of W x + b for x in the box [lo, hi], elementwise tight.

    W may be (m, n) or a batch (B, m, n) over one box; lo and hi may be (n,)
    or a batch (B, n) of boxes through one (m, n) layer.
    """
    Wp = np.maximum(W, 0.0)
    Wn = np.minimum(W, 0.0)
    if lo.ndim == 1:
        return Wp @ lo + Wn @ hi + b, Wp @ hi + Wn @ lo + b
    return lo @ Wp.T + hi @ Wn.T + b, hi @ Wp.T + lo @ Wn.T + b


def relu_backward(A, const, slope_lo, slope_up, icpt_up, upper_pass: bool):
    """Substitute per-neuron ReLU relaxation lines into coefficient rows.

    Each row of A bounds some quantity in terms of post-ReLU values; the
    result bounds it in terms of pre-ReLU values. The lower relaxation line
    always has intercept zero, so only the upper intercept is passed.

    With (B, n) lines, member b's lines meet A[b] (A (B, m, n), const (B, m))
    or one row set shared by the batch (A (m, n), const (m,)); the result
    has the batch axis.
    """
    # lower pass: nonnegative coefficients keep the lower line, negative ones
    # take the upper line (and collect its intercept); upper pass mirrors it.
    use_up = (A >= 0.0) if upper_pass else (A < 0.0)
    if slope_lo.ndim == 1:
        const_out = const + np.where(use_up, A, 0.0) @ icpt_up
        # one temporary the size of A at a time: the slope array becomes the result
        slopes = np.where(use_up, slope_up, slope_lo)
        return np.multiply(A, slopes, out=slopes), const_out
    # A batch splits A into its upper-line and lower-line parts by arithmetic:
    # each entry of a part is exact (A's or zero), so their sum after scaling
    # is the selected product, and it costs a fraction of a masked select.
    # The lines must be finite (relu_relaxation's are, for finite ranges): a
    # zero entry times a NaN line would give NaN where the select gives 0.
    up = A * use_up
    const_out = const + (up @ icpt_up[:, :, None])[..., 0]
    out = up * slope_up[:, None, :]
    out += (A - up) * slope_lo[:, None, :]
    return out, const_out
