"""The two hot numeric kernels of the bound passes, in numpy.

interval_affine maps a box through an affine layer; relu_backward substitutes
ReLU relaxation lines into the coefficient rows of a backward pass. The bound
passes call them through the module (kernels.interval_affine(...)), so a
tracer that rebinds the module attributes sees every bound-pass call.
"""
from __future__ import annotations

import numpy as np


def interval_affine(W, b, lo, hi):
    """Range of W x + b for x in the box [lo, hi], elementwise tight."""
    Wp = np.maximum(W, 0.0)
    Wn = np.minimum(W, 0.0)
    return Wp @ lo + Wn @ hi + b, Wp @ hi + Wn @ lo + b


def relu_backward(A, const, slope_lo, slope_up, icpt_up, upper_pass: bool):
    """Substitute per-neuron ReLU relaxation lines into coefficient rows.

    Each row of A bounds some quantity in terms of post-ReLU values; the
    result bounds it in terms of pre-ReLU values. The lower relaxation line
    always has intercept zero, so only the upper intercept is passed.
    """
    # lower pass: nonnegative coefficients keep the lower line, negative ones
    # take the upper line (and collect its intercept); upper pass mirrors it.
    use_up = (A >= 0.0) if upper_pass else (A < 0.0)
    const_out = const + np.where(use_up, A, 0.0) @ icpt_up
    # one temporary the size of A at a time: the slope array becomes the result
    slopes = np.where(use_up, slope_up, slope_lo)
    return np.multiply(A, slopes, out=slopes), const_out
