"""The three numeric kernels of the bound passes, in numpy.

interval_affine maps a box through an affine layer; relu_backward substitutes
ReLU relaxation lines into the coefficient rows of a backward pass; and
concretize takes the minimum or maximum of a backward pass's rows, lines
over the input, on the input box. The bound passes call them through the
module (kernels.interval_affine(...)), so a tracer that rebinds the module
attributes sees every bound-pass call.

Each serves a batch of branch-and-bound leaves in one call: (B, n) boxes or
relaxation lines and (B, m, n) coefficient rows, member b of one meeting
member b of the other. The root pass over the whole box is a batch of one.
"""
from __future__ import annotations

import numpy as np


def interval_affine(W, b, lo, hi):
    """Range of W x + b for x in the box [lo, hi], elementwise tight.

    W is one (m, n) layer; lo and hi are one (n,) box or a batch (B, n).
    """
    Wp = np.maximum(W, 0.0)
    Wn = np.minimum(W, 0.0)
    # np.dot: the same products as @, with less per-call overhead
    return np.dot(lo, Wp.T) + np.dot(hi, Wn.T) + b, np.dot(hi, Wp.T) + np.dot(lo, Wn.T) + b


def concretize(A, const, x_lo, x_hi, upper_pass: bool):
    """The minimum (maximum, for the upper pass) of A x + const over the box [x_lo, x_hi].

    A (B, m, d) and const (B, m) are the lines of a backward pass over the
    input; x_lo and x_hi are one (1, d) box or a batch (B, d), member b of
    the boxes meeting member b of the lines (a batch of one meets every
    member of the other). The result is (B, m). Neither A nor const is
    written to.
    """
    Ap = np.maximum(A, 0.0)
    An = np.minimum(A, 0.0)
    if upper_pass:
        x_lo, x_hi = x_hi, x_lo
    return (Ap @ x_lo[..., None] + An @ x_hi[..., None])[..., 0] + const


def relu_backward(A, const, slope_lo, slope_up, icpt_up, upper_pass: bool):
    """Substitute per-neuron ReLU relaxation lines into coefficient rows.

    Each row of A bounds some quantity in terms of post-ReLU values; the
    result bounds it in terms of pre-ReLU values. The lower relaxation line
    always has intercept zero, so only the upper intercept is passed.

    Member b's (B, n) lines meet A[b] (A (B, m, n), const (B, m)) or one row
    set shared by the batch (A (1, m, n), const (1, m)); the result is
    (B, m, n), (B, m).
    """
    # lower pass: nonnegative coefficients keep the lower line, negative ones
    # take the upper line (and collect its intercept); upper pass mirrors it.
    use_up = (A >= 0.0) if upper_pass else (A < 0.0)
    if slope_lo.shape[0] == 1:
        # one member, whose rows can be tens of MB on a wide layer: a masked
        # select holds one A-sized temporary, and the slopes become the result
        const_out = const + np.where(use_up, A, 0.0) @ icpt_up[0]
        slopes = np.where(use_up, slope_up, slope_lo)
        return np.multiply(A, slopes, out=slopes), const_out
    # a larger batch selects by arithmetic, at a fraction of a masked
    # select's cost. The intercepts meet A's upper-line part, whose entries
    # are exact (A's or zero). Each entry's slope is use_up * (up - lo) + lo,
    # which is exact for CROWN's lines: lo is 0, or 1 with up in [0.5, 1],
    # where up - 1 is exact (Sterbenz). The lines must be finite
    # (relu_relaxation's are, for finite ranges): 0 times a NaN line gives
    # NaN where the select gives 0.
    const_out = const + ((A * use_up) @ icpt_up[:, :, None])[..., 0]
    out = use_up * (slope_up - slope_lo)[:, None, :]
    out += slope_lo[:, None, :]
    out *= A
    return out, const_out
