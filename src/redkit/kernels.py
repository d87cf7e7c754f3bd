"""The three numeric kernels of the bound passes, in numpy.

interval_affine maps a box through an affine layer; relu_backward substitutes
ReLU relaxation lines into the coefficient rows of a backward pass; and
concretize takes the minimum or maximum of a backward pass's rows, lines
over the input, on the input box. The bound passes call them through the
module (kernels.interval_affine(...)), so a tracer that rebinds the module
attributes sees every bound-pass call.

Each serves a batch of branch-and-bound leaves in one call: (B, n) boxes or
relaxation lines and (B, m, n) coefficient rows, member b of one meeting
member b of the other. The root pass over the whole box is a batch of one,
and takes the same form as any other batch.

On finite values (relu_backward's lines: relu_relaxation's), each result is
the scalar element-by-element loop's, up to summation order. Finite weights
can still overflow, and a range of [NaN, NaN] or a lower bound of +inf
would prove anything. So interval_affine and concretize, where bounds are
formed, widen such a result: a lower bound that is NaN or +inf becomes
-inf, an upper bound that is NaN or -inf becomes +inf. A non-finite value
only widens a bound to +-inf, and proves nothing. That widening is how an
overflow is handled, so the bound passes that call these kernels
(bounds.bound_layers, chain_margin_lower_bounds, compute_bounds, and the
reducer's merge) run under np.errstate(over="ignore", invalid="ignore"),
entered once per call rather than once per kernel call: a branch-and-bound
step calls the kernels hundreds of times, and each entry costs about as
much as a small numpy call.
"""
from __future__ import annotations

import numpy as np


def _lower(v):
    """v as a lower bound: an entry that is NaN or +inf, from an overflow, becomes -inf."""
    return np.where(v < np.inf, v, -np.inf)


def _upper(v):
    """v as an upper bound: an entry that is NaN or -inf, from an overflow, becomes +inf."""
    return np.where(v > -np.inf, v, np.inf)


def interval_affine(W, b, lo, hi):
    """Range of W x + b for x in the box [lo, hi], elementwise tight.

    W is one (m, n) layer; lo and hi are one (n,) box or a batch (B, n).
    A lower end that overflows to NaN or +inf is -inf, an upper one +inf.
    """
    Wp = np.maximum(W, 0.0)
    Wn = np.minimum(W, 0.0)
    # np.dot: the same products as @, with less per-call overhead
    return (_lower(np.dot(lo, Wp.T) + np.dot(hi, Wn.T) + b),
            _upper(np.dot(hi, Wp.T) + np.dot(lo, Wn.T) + b))


def concretize(A, const, x_lo, x_hi, upper_pass: bool):
    """The minimum (maximum, for the upper pass) of A x + const over the box [x_lo, x_hi].

    A (B, m, d) and const (B, m) are the lines of a backward pass over the
    input; x_lo and x_hi are one (1, d) box or a batch (B, d), member b of
    the boxes meeting member b of the lines (a batch of one meets every
    member of the other). The result is (B, m), widened to -inf (+inf) where
    it is NaN or infinite on the wrong side. Neither A nor const is written
    to.
    """
    Ap = np.maximum(A, 0.0)
    An = np.minimum(A, 0.0)
    if upper_pass:
        x_lo, x_hi = x_hi, x_lo
    v = (Ap @ x_lo[..., None] + An @ x_hi[..., None])[..., 0] + const
    return _upper(v) if upper_pass else _lower(v)


def relu_backward(A, const, slope_lo, slope_up, icpt_up, upper_pass: bool):
    """Substitute per-neuron ReLU relaxation lines into coefficient rows.

    Each row of A bounds some quantity in terms of post-ReLU values; the
    result bounds it in terms of pre-ReLU values. The lower relaxation line
    always has intercept zero, so only the upper intercept is passed.

    Member b's (B, n) lines meet A[b] (A (B, m, n), const (B, m)) or one row
    set shared by the batch (A (1, m, n), const (1, m)); the result is
    (B, m, n), (B, m). Neither A nor const is written to, and besides the
    sign mask one A-sized temporary is alive at a time.

    Each entry's slope is selected by arithmetic, use_up * (up - lo) + lo,
    which is exact on relu_relaxation's lines: lo is 0, or 1 with up in
    [0.5, 1], where up - 1 is exact (Sterbenz). A non-finite line, which a
    range that overflowed gives, poisons every row that meets it, zero
    coefficients included (0 * NaN is NaN), and concretize widens a NaN
    bound to -inf below and +inf above: it proves nothing.
    """
    # lower pass: nonnegative coefficients keep the lower line, negative ones
    # take the upper line (and collect its intercept); upper pass mirrors it.
    use_up = (A >= 0.0) if upper_pass else (A < 0.0)
    const_out = const + ((A * use_up) @ icpt_up[:, :, None])[..., 0]
    out = use_up * (slope_up - slope_lo)[:, None, :]
    out += slope_lo[:, None, :]
    out *= A
    return out, const_out
