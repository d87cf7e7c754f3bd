"""Kernel checks.

The *_backends_agree tests hold the vectorized numpy kernels against scalar
element-by-element loop references; the rest check interval_affine and
concretize against points of the box.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from redkit import kernels
from redkit.bounds import relu_relaxation


def _random_case(seed, m=7, n=5):
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    lo = rng.uniform(-2, 0, size=n)
    hi = lo + rng.uniform(0, 3, size=n)
    return W, b, lo, hi


def _interval_affine_loop(W, b, lo, hi):
    """Element-by-element reference: each weight picks the box end matching its sign."""
    m, n = W.shape
    out_lo, out_hi = np.empty(m), np.empty(m)
    for i in range(m):
        acc_l = acc_u = b[i]
        for j in range(n):
            w = W[i, j]
            if w >= 0.0:
                acc_l += w * lo[j]
                acc_u += w * hi[j]
            else:
                acc_l += w * hi[j]
                acc_u += w * lo[j]
        out_lo[i], out_hi[i] = acc_l, acc_u
    return out_lo, out_hi


def _relu_backward_loop(A, const, slope_lo, slope_up, icpt_up, upper_pass):
    """Element-by-element reference of the relaxation substitution.

    A coefficient takes the upper line when its sign matches the pass (a >= 0
    on the upper pass, a < 0 on the lower one), so a zero coefficient stays
    on the lower line in the lower pass and moves to the upper line in the
    upper pass.
    """
    m, n = A.shape
    A_out, const_out = np.empty_like(A), np.empty(m)
    for r in range(m):
        acc = const[r]
        for j in range(n):
            a = A[r, j]
            if (a >= 0.0) == upper_pass:
                A_out[r, j] = a * slope_up[j]
                acc += a * icpt_up[j]
            else:
                A_out[r, j] = a * slope_lo[j]
        const_out[r] = acc
    return A_out, const_out


def _relaxation_case(seed, m=4, n=6):
    """Rows A (m, n), const (m,) and the (n,) lines of one leaf."""
    rng = np.random.default_rng(seed + 100)
    A = rng.normal(size=(m, n))
    A[rng.uniform(size=(m, n)) < 0.25] = 0.0
    const = rng.normal(size=m)
    l = rng.uniform(-2, -0.1, size=n)
    u = rng.uniform(0.1, 2, size=n)
    slope_up = u / (u - l)
    icpt_up = -l * slope_up
    slope_lo = (u >= -l).astype(np.float64)
    return A, const, slope_lo, slope_up, icpt_up


def _relu_backward_one(A, const, slope_lo, slope_up, icpt_up, upper_pass):
    """relu_backward on one leaf's rows and (n,) lines, as a batch of one; member 0 of the result."""
    lines = (slope_lo[None], slope_up[None], icpt_up[None])
    A_out, c_out = kernels.relu_backward(A[None], const[None], *lines, upper_pass)
    assert A_out.shape == (1,) + A.shape and c_out.shape == (1, A.shape[0])
    return A_out[0], c_out[0]


# the vectorized kernels against the scalar loops above, zero weights included


@pytest.mark.parametrize("seed", range(5))
def test_interval_affine_backends_agree(seed):
    W, b, lo, hi = _random_case(seed)
    W[0, 0] = 0.0
    out_lo, out_hi = kernels.interval_affine(W, b, lo, hi)
    ref_lo, ref_hi = _interval_affine_loop(W, b, lo, hi)
    np.testing.assert_allclose(out_lo, ref_lo, atol=1e-12)
    np.testing.assert_allclose(out_hi, ref_hi, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_relu_backward_backends_agree(seed):
    case = _relaxation_case(seed)
    for upper_pass in (False, True):
        A_out, c_out = _relu_backward_one(*case, upper_pass)
        A_ref, c_ref = _relu_backward_loop(*case, upper_pass)
        np.testing.assert_array_equal(A_out, A_ref)
        np.testing.assert_allclose(c_out, c_ref, atol=1e-12)


@pytest.mark.parametrize("upper_pass", [False, True])
def test_relu_backward_zero_coefficient_line(upper_pass):
    # a NaN slope on the line a zero coefficient must not take shows up in A_out
    A = np.array([[0.0, 1.0, -1.0]])
    const = np.zeros(1)
    icpt_up = np.array([0.5, 0.5, 0.5])
    finite, poison = np.full(3, 0.5), np.array([np.nan, 0.5, 0.5])
    slope_lo, slope_up = (poison, finite) if upper_pass else (finite, poison)
    A_out, c_out = _relu_backward_one(A, const, slope_lo, slope_up, icpt_up, upper_pass)
    assert A_out[0, 0] == 0.0
    ref = _relu_backward_loop(A, const, slope_lo, slope_up, icpt_up, upper_pass)
    np.testing.assert_array_equal(A_out, ref[0])
    np.testing.assert_array_equal(c_out, ref[1])


def test_relu_backward_holds_one_temporary():
    # a crown pass over a wide layer hands this kernel coefficient rows of
    # tens of MB; besides the sign mask it may hold one A-sized array at a
    # time, and it must not write into A (chain weights are read-only)
    A, const, slope_lo, slope_up, icpt_up = _relaxation_case(0, m=300, n=400)
    A.flags.writeable = False
    outs = []
    tracemalloc.start()
    try:
        for upper_pass in (False, True):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            A_out, _ = _relu_backward_one(A, const, slope_lo, slope_up, icpt_up, upper_pass)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < 1.5 * A.nbytes, f"peak {peak} bytes for A of {A.nbytes}"
            outs.append(A_out)
            del A_out
    finally:
        tracemalloc.stop()
    # the Python-loop reference runs untraced: under tracemalloc it is 5x slower
    for upper_pass, A_out in zip((False, True), outs):
        np.testing.assert_array_equal(
            A_out, _relu_backward_loop(A, const, slope_lo, slope_up, icpt_up, upper_pass)[0]
        )


def test_interval_affine_exact_on_samples():
    W, b, lo, hi = _random_case(42)
    out_lo, out_hi = kernels.interval_affine(W, b, lo, hi)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(lo, hi)
        y = W @ x + b
        assert np.all(y >= out_lo - 1e-9)
        assert np.all(y <= out_hi + 1e-9)


def test_interval_affine_tight_at_corners():
    # the bound is attained by the corner that tracks each weight's sign
    W, b, lo, hi = _random_case(7)
    out_lo, out_hi = kernels.interval_affine(W, b, lo, hi)
    for i in range(W.shape[0]):
        x_min = np.where(W[i] >= 0, lo, hi)
        x_max = np.where(W[i] >= 0, hi, lo)
        assert abs(W[i] @ x_min + b[i] - out_lo[i]) < 1e-9
        assert abs(W[i] @ x_max + b[i] - out_hi[i]) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    W=arrays(np.float64, (3, 4), elements=st.floats(-5, 5)),
    b=arrays(np.float64, (3,), elements=st.floats(-5, 5)),
    lo=arrays(np.float64, (4,), elements=st.floats(-3, 0)),
    widths=arrays(np.float64, (4,), elements=st.floats(0, 3)),
    t=arrays(np.float64, (4,), elements=st.floats(0, 1)),
)
def test_interval_affine_sound_property(W, b, lo, widths, t):
    hi = lo + widths
    out_lo, out_hi = kernels.interval_affine(W, b, lo, hi)
    x = lo + t * widths
    y = W @ x + b
    assert np.all(y >= out_lo - 1e-9)
    assert np.all(y <= out_hi + 1e-9)


# the batch forms against one batch-of-one call per member


@pytest.mark.parametrize("shared_rows", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_relu_backward_batch_matches_per_member_calls(seed, shared_rows):
    members = [_relaxation_case(seed * 10 + b) for b in range(5)]
    if shared_rows:  # one row set meets every member's lines
        members = [(members[0][0], members[0][1]) + m[2:] for m in members]
    A = members[0][0][None] if shared_rows else np.stack([m[0] for m in members])
    const = members[0][1][None] if shared_rows else np.stack([m[1] for m in members])
    lines = [np.stack([m[i] for m in members]) for i in (2, 3, 4)]
    for upper_pass in (False, True):
        A_out, c_out = kernels.relu_backward(A, const, *lines, upper_pass)
        assert A_out.shape == (5,) + members[0][0].shape
        for b, m in enumerate(members):
            A_ref, c_ref = _relu_backward_one(*m, upper_pass)
            np.testing.assert_array_equal(A_out[b], A_ref)
            np.testing.assert_allclose(c_out[b], c_ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shared_rows", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_relu_backward_batch_matches_the_loop_on_adaptive_lines(seed, shared_rows):
    # the batch form builds each entry's slope by arithmetic, which is exact
    # only on CROWN's lines; here every kind of neuron (dead, active, both
    # lower slopes) meets zero and nonzero coefficients
    rng = np.random.default_rng(seed)
    B, m, n = 4, 6, 64
    lo = rng.uniform(-2, 1, size=(B, n))
    hi = lo + rng.uniform(0, 3, size=(B, n))
    lines = relu_relaxation(lo, hi)
    lines = lines.slope_lo, lines.slope_up, lines.icpt_up
    unstable = (lo < 0) & (hi > 0)
    assert (hi <= 0).any() and (lo >= 0).any()
    assert (unstable & (lines[0] == 1)).any() and (unstable & (lines[0] == 0)).any()
    A = rng.normal(size=(1 if shared_rows else B, m, n))
    A[rng.uniform(size=A.shape) < 0.25] = 0.0
    const = rng.normal(size=A.shape[:2])
    for upper_pass in (False, True):
        A_out, c_out = kernels.relu_backward(A, const, *lines, upper_pass)
        for b in range(B):
            a = 0 if shared_rows else b
            A_ref, c_ref = _relu_backward_loop(A[a], const[a], *(l[b] for l in lines), upper_pass)
            np.testing.assert_array_equal(A_out[b], A_ref)
            np.testing.assert_allclose(c_out[b], c_ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_interval_affine_batch_matches_per_member_calls(seed):
    cases = [_random_case(seed * 10 + b) for b in range(4)]
    W, b, lo, hi = cases[0]
    # a batch of boxes through one layer
    out_lo, out_hi = kernels.interval_affine(
        W, b, np.stack([c[2] for c in cases]), np.stack([c[3] for c in cases])
    )
    for i, c in enumerate(cases):
        ref_lo, ref_hi = kernels.interval_affine(W, b, c[2], c[3])
        np.testing.assert_allclose(out_lo[i], ref_lo, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out_hi[i], ref_hi, rtol=1e-12, atol=1e-12)


def _lines_case(seed, batch=4, m=6, d=5, boxes=1):
    """Lines over the input, (B, m, d) rows and (B, m) offsets, and (boxes, d) input boxes."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(batch, m, d))
    A[rng.uniform(size=A.shape) < 0.2] = 0.0  # zero coefficients take either end
    const = rng.normal(size=(batch, m))
    x_lo = rng.uniform(-2, 0, size=(boxes, d))
    x_hi = x_lo + rng.uniform(0, 3, size=(boxes, d))
    return A, const, x_lo, x_hi


@pytest.mark.parametrize("boxes", [1, 4])
@pytest.mark.parametrize("seed", range(3))
def test_concretize_sound_and_tight(seed, boxes):
    A, const, x_lo, x_hi = _lines_case(seed, boxes=boxes)
    lo = kernels.concretize(A, const, x_lo, x_hi, upper_pass=False)
    hi = kernels.concretize(A, const, x_lo, x_hi, upper_pass=True)
    assert lo.shape == hi.shape == const.shape
    rng = np.random.default_rng(seed)
    for b in range(A.shape[0]):
        box_lo, box_hi = x_lo[b % boxes], x_hi[b % boxes]
        xs = rng.uniform(box_lo, box_hi, size=(500, box_lo.shape[0]))
        ys = xs @ A[b].T + const[b]
        assert np.all(ys >= lo[b] - 1e-9) and np.all(ys <= hi[b] + 1e-9)
        for i in range(A.shape[1]):  # each side is attained at the vertex its signs pick
            x_min = np.where(A[b, i] >= 0, box_lo, box_hi)
            x_max = np.where(A[b, i] >= 0, box_hi, box_lo)
            assert abs(A[b, i] @ x_min + const[b, i] - lo[b, i]) < 1e-9
            assert abs(A[b, i] @ x_max + const[b, i] - hi[b, i]) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_concretize_matches_the_split_sum_on_one_box(seed):
    A, const, x_lo, x_hi = _lines_case(seed)
    lo, hi = x_lo[0], x_hi[0]
    Wp, Wn = np.maximum(A, 0.0), np.minimum(A, 0.0)  # the interval form over one (d,) box
    assert np.array_equal(kernels.concretize(A, const, x_lo, x_hi, False), Wp @ lo + Wn @ hi + const)
    assert np.array_equal(kernels.concretize(A, const, x_lo, x_hi, True), Wp @ hi + Wn @ lo + const)


def test_concretize_writes_nothing():
    A, const, x_lo, x_hi = _lines_case(0, boxes=4)
    saved = [a.copy() for a in (A, const, x_lo, x_hi)]
    for a in (A, const, x_lo, x_hi):
        a.flags.writeable = False
    for upper_pass in (False, True):
        kernels.concretize(A, const, x_lo, x_hi, upper_pass)
        kernels.concretize(A[:1], const[:1], x_lo, x_hi, upper_pass)  # one row set, B boxes
    assert all(np.array_equal(a, s) for a, s in zip((A, const, x_lo, x_hi), saved))
