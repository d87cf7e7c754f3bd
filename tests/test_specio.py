"""Property parsing, emission, and input-region helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redkit import (
    PropertySpec,
    emit_vnnlib,
    epsilon_ball,
    load_center,
    load_vnnlib,
    parse_vnnlib,
    robustness_spec,
    save_vnnlib,
)
from redkit.bounds import Box
from redkit.errors import ContractError, ParseError
from redkit.specio import MODE_ALL, MODE_ANY

SIMPLE = """
; comment lines are ignored
(declare-const X_0 Real)
(declare-const X_1 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(assert (>= X_0 -1.0))
(assert (<= X_0 1.0))
(assert (>= X_1 -1.0))
(assert (<= X_1 1.0))
(assert (or (and (>= Y_1 Y_0))))
"""


def test_parse_box_bounds():
    spec = parse_vnnlib(SIMPLE)
    assert spec.box.lower.tolist() == [-1.0, -1.0]
    assert spec.box.upper.tolist() == [1.0, 1.0]


def test_parse_disjunction_row_sign():
    spec = parse_vnnlib(SIMPLE)
    # the file asserts Y_1 >= Y_0 as the bad event; refuting it means
    # proving Y_0 - Y_1 >= 0
    assert spec.mode == MODE_ANY
    assert spec.rows.tolist() == [[1.0, -1.0]]
    assert spec.offsets.tolist() == [0.0]


def test_parse_constant_threshold_rows():
    text = SIMPLE.replace("(assert (or (and (>= Y_1 Y_0))))",
                          "(assert (>= Y_0 -3.0))")
    spec = parse_vnnlib(text)
    # asserted Y_0 >= -3 is refuted by -Y_0 - 3 >= 0, i.e. Y_0 <= -3
    assert spec.rows.tolist() == [[-1.0, 0.0]]
    assert spec.offsets.tolist() == [-3.0]
    assert spec.mode == MODE_ANY


def test_parse_constant_on_the_left_is_flipped():
    a = SIMPLE.replace("(assert (or (and (>= Y_1 Y_0))))", "(assert (<= -3.0 Y_0))")
    b = SIMPLE.replace("(assert (or (and (>= Y_1 Y_0))))", "(assert (>= Y_0 -3.0))")
    sa, sb = parse_vnnlib(a), parse_vnnlib(b)
    assert np.array_equal(sa.rows, sb.rows)
    assert np.array_equal(sa.offsets, sb.offsets)


def test_parse_negated_constant_form():
    text = SIMPLE.replace("(assert (>= X_0 -1.0))", "(assert (>= X_0 (- 1.0)))")
    assert parse_vnnlib(text).box.lower.tolist() == [-1.0, -1.0]


def test_parse_multiple_asserts_become_all_mode():
    text = SIMPLE.replace(
        "(assert (or (and (>= Y_1 Y_0))))",
        "(assert (>= Y_0 0.0))\n(assert (>= Y_1 0.0))",
    )
    spec = parse_vnnlib(text)
    assert spec.mode == MODE_ALL
    assert spec.rows.shape == (2, 2)
    assert any("conjunctive" in n for n in spec.notes)


def test_parse_missing_upper_bound_names_the_variable():
    text = """
(declare-const X_0 Real)
(declare-const X_1 Real)
(declare-const X_2 Real)
(declare-const X_3 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0)) (assert (<= X_0 1.0))
(assert (>= X_1 0.0)) (assert (<= X_1 1.0))
(assert (>= X_2 0.0)) (assert (<= X_2 1.0))
(assert (>= X_3 0.0))
(assert (<= Y_0 0.5))
"""
    with pytest.raises(ParseError, match="X_3"):
        parse_vnnlib(text)


def test_parse_sparse_x_indices_rejected():
    text = SIMPLE.replace("(declare-const X_1 Real)", "(declare-const X_2 Real)")
    with pytest.raises(ParseError, match="missing indices"):
        parse_vnnlib(text)


def test_parse_multi_atom_disjunct_rejected_with_line():
    text = SIMPLE.replace(
        "(assert (or (and (>= Y_1 Y_0))))",
        "(assert (or (and (>= Y_1 Y_0) (>= Y_1 1.0))))",
    )
    with pytest.raises(ParseError, match=r"line 11.*more than one atom"):
        parse_vnnlib(text)


def test_parse_or_then_plain_atom_rejected():
    text = SIMPLE + "(assert (<= Y_0 0.0))\n"
    with pytest.raises(ParseError, match="after a disjunction"):
        parse_vnnlib(text)


def test_parse_mixed_xy_atom_rejected():
    text = SIMPLE.replace("(assert (<= X_0 1.0))", "(assert (<= X_0 Y_0))")
    with pytest.raises(ParseError, match="mixing X and Y"):
        parse_vnnlib(text)


def test_parse_no_output_constraints_rejected():
    text = "\n".join(SIMPLE.splitlines()[:-1])
    with pytest.raises(ParseError, match="no output constraints"):
        parse_vnnlib(text)


def test_parse_unclosed_paren_rejected():
    with pytest.raises(ParseError, match="unclosed"):
        parse_vnnlib("(assert (>= X_0 0.0)")


def test_parse_tightest_repeated_bound_wins():
    text = SIMPLE.replace("(assert (<= X_0 1.0))",
                          "(assert (<= X_0 1.0))\n(assert (<= X_0 0.25))")
    assert parse_vnnlib(text).box.upper[0] == 0.25


def test_vacuous_spec_constructed_directly():
    spec = PropertySpec(Box([-1.0], [1.0]), np.zeros((0, 2)), np.zeros(0))
    assert not spec.is_counterexample([5.0, -5.0])
    assert spec.margins([1.0, 2.0]).shape == (0,)


def test_margins_and_counterexample_any_mode():
    spec = parse_vnnlib(SIMPLE)
    assert spec.margins([2.0, 1.0]).tolist() == [1.0]
    assert not spec.is_counterexample([2.0, 1.0])
    # zero margin is not a strict violation
    assert not spec.is_counterexample([1.0, 1.0])
    assert spec.is_counterexample([0.0, 1.0])


def test_counterexample_all_mode_needs_every_row():
    spec = PropertySpec(Box([-1.0], [1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]),
                        np.zeros(2), mode=MODE_ALL)
    assert not spec.is_counterexample([-1.0, 1.0])
    assert spec.is_counterexample([-1.0, -1.0])


@pytest.mark.parametrize("mode", [MODE_ANY, MODE_ALL])
def test_a_spec_with_no_rows_has_no_counterexample(mode):
    # .all() over no margins is true, yet a spec with no rows is vacuous
    spec = PropertySpec(Box([-1.0], [1.0]), np.zeros((0, 2)), np.zeros(0), mode=mode)
    assert not spec.counterexamples(np.array([[5.0, -5.0], [-1.0, -1.0]])).any()
    assert not spec.is_counterexample([-1.0, -1.0])


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from([MODE_ANY, MODE_ALL]),
    n_rows=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_batch_rule_agrees_with_is_counterexample(mode, n_rows, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(-1, 2, size=(n_rows, 3)).astype(float)
    offsets = rng.integers(-2, 3, size=n_rows).astype(float)
    spec = PropertySpec(Box([0.0], [1.0]), rows, offsets, mode=mode)
    ys = rng.integers(-2, 3, size=(20, 3)).astype(float)  # integers: margins hit zero too
    got = spec.counterexamples(ys)
    assert got.shape == (20,) and got.dtype == bool
    assert got.tolist() == [spec.is_counterexample(y) for y in ys]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("atom", ["(<= X_0 {v})", "(>= Y_0 {v})"], ids=["x_atom", "y_atom"])
def test_a_non_finite_number_is_a_parse_error_naming_its_line(atom, value):
    # a nan input bound would read as a missing one, and a nan or inf output
    # threshold would reach the verifier as a nan or inf margin bound
    text = SIMPLE.replace("(assert (or (and (>= Y_1 Y_0))))", "(assert (>= Y_1 Y_0))")
    lines = text.splitlines() + [f"(assert {atom.format(v=value)})"]
    with pytest.raises(ParseError, match=f"line {len(lines)}: '{value}' is not a finite number"):
        parse_vnnlib("\n".join(lines))


@pytest.mark.parametrize("field", ["rows", "offsets"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_spec_with_non_finite_margins_is_rejected(field, value):
    rows, offsets = np.array([[1.0, -1.0]]), np.array([0.0])
    (rows if field == "rows" else offsets)[0] = value
    with pytest.raises(ContractError, match="finite"):
        PropertySpec(Box([0.0], [1.0]), rows, offsets)


def test_shape_mismatch_rejected():
    with pytest.raises(ContractError, match="shapes"):
        PropertySpec(Box([0.0], [1.0]), np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ContractError, match="mode"):
        PropertySpec(Box([0.0], [1.0]), np.zeros((1, 2)), np.zeros(1), mode="some")


def test_robustness_spec_rows():
    box = Box([0.0, 0.0], [1.0, 1.0])
    spec = robustness_spec(box, label=1, n_outputs=3)
    assert spec.rows.tolist() == [[-1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]
    assert spec.offsets.tolist() == [0.0, 0.0]
    assert spec.mode == MODE_ANY
    with pytest.raises(ContractError, match="label"):
        robustness_spec(box, label=3, n_outputs=3)


def test_emit_parse_round_trip_any_mode():
    spec = parse_vnnlib(SIMPLE, name="rt")
    back = parse_vnnlib(emit_vnnlib(spec))
    assert np.array_equal(back.rows, spec.rows)
    assert np.array_equal(back.offsets, spec.offsets)
    assert np.array_equal(back.box.lower, spec.box.lower)
    assert np.array_equal(back.box.upper, spec.box.upper)
    assert back.mode == spec.mode


def test_emit_parse_round_trip_all_mode_and_thresholds():
    spec = PropertySpec(
        Box([-0.5, 0.25], [0.5, 0.75]),
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([0.125, -2.0, 3.5]),
        mode=MODE_ALL,
    )
    back = parse_vnnlib(emit_vnnlib(spec))
    assert back.mode == MODE_ALL
    assert np.array_equal(back.rows, spec.rows)
    assert np.array_equal(back.offsets, spec.offsets)


def test_emit_round_trip_multirow_disjunction():
    spec = robustness_spec(Box([0.0], [1.0]), label=0, n_outputs=3)
    back = parse_vnnlib(emit_vnnlib(spec))
    assert back.mode == MODE_ANY
    assert np.array_equal(back.rows, spec.rows)


def test_emit_rejects_dense_rows():
    spec = PropertySpec(Box([0.0], [1.0]), np.array([[1.0, 1.0, 1.0]]), np.zeros(1))
    with pytest.raises(ContractError, match="cannot be emitted"):
        emit_vnnlib(spec)


def test_save_and_load(tmp_path):
    spec = parse_vnnlib(SIMPLE)
    p = tmp_path / "prop.vnnlib"
    save_vnnlib(spec, p)
    back = load_vnnlib(p)
    assert back.name == str(p)
    assert np.array_equal(back.rows, spec.rows)
    named = load_vnnlib(p, name="custom")
    assert named.name == "custom"


def test_load_vnnlib_names_the_file_in_a_parse_error(tmp_path):
    p = tmp_path / "broken.vnnlib"
    p.write_text("(assert (>= X_0")
    with pytest.raises(ParseError) as exc:
        load_vnnlib(p)
    assert str(exc.value) == f"{p}: line 1: unclosed parenthesis"


def test_epsilon_ball_basic():
    box = epsilon_ball([0.0, 0.0], 1.0)
    assert box.lower.tolist() == [-1.0, -1.0]
    assert box.upper.tolist() == [1.0, 1.0]


def test_epsilon_ball_clipped():
    box = epsilon_ball([0.5], 0.7, clip=(0.0, 1.0))
    assert box.lower.tolist() == [0.0]
    assert box.upper.tolist() == [1.0]


def test_epsilon_ball_high_dim_width():
    c = np.full(784, 0.5)
    box = epsilon_ball(c, 0.02, clip=(0.0, 1.0))
    assert box.dim == 784
    assert np.allclose(box.upper - box.lower, 0.04)


def test_epsilon_ball_negative_eps_rejected():
    with pytest.raises(ContractError, match="eps"):
        epsilon_ball([0.0], -0.1)


@pytest.mark.parametrize("clip,match", [
    ((1.0, -1.0), "is empty"),
    ((0.0, 1.0), "misses the eps-ball"),  # dimension 1, [2.4, 2.6], lies above it
    ((float("nan"), 1.0), "is empty"),
], ids=["reversed", "off_the_ball", "nan"])
def test_epsilon_ball_rejects_a_clip_range_off_the_ball(clip, match):
    with pytest.raises(ContractError, match=match):
        epsilon_ball([0.5, 2.5], 0.1, clip=clip)


def test_load_center(tmp_path):
    p = tmp_path / "center.txt"
    p.write_text("0.5, -1.25\n2.0\n")
    assert load_center(p).tolist() == [0.5, -1.25, 2.0]
    bad = tmp_path / "bad.txt"
    bad.write_text("one two\n")
    with pytest.raises(ParseError):
        load_center(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ParseError, match="no values"):
        load_center(empty)


@pytest.mark.parametrize("loader", [load_vnnlib, load_center], ids=["vnnlib", "center"])
def test_a_file_that_is_not_utf8_raises_a_parse_error(tmp_path, loader):
    # before: UnicodeDecodeError escaped, and the command line exited 4
    p = tmp_path / "latin1.txt"
    p.write_bytes("; café\n0.5\n".encode("latin-1"))
    with pytest.raises(ParseError, match="latin1.txt: not UTF-8"):
        loader(p)
