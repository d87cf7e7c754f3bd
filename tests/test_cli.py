"""End-to-end CLI runs, in process via cli.main(argv).

A session-scoped workspace holds a generated model, the worked 5-neuron
example exported to a model file, and property files, so individual tests
stay fast.
"""

import numpy as np
import pytest

import redkit.onnx_codec as oc
from conftest import build_fig1
from redkit import export_onnx, forward, from_sequential, import_onnx
from redkit import cli
from redkit.cli import main


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "fig1": str(root / "fig1.onnx"),
        "center": str(root / "center.txt"),
        "prop_true": str(root / "true.vnnlib"),
        "prop_false": str(root / "false.vnnlib"),
        "prop_one_split": str(root / "one_split.vnnlib"),
        "gen": str(root / "gen.onnx"),
        "root": root,
    }
    with open(paths["fig1"], "wb") as fh:
        fh.write(export_onnx(build_fig1()))
    with open(paths["center"], "w") as fh:
        fh.write("0.0 0.0\n")
    decls = "\n".join(
        f"(declare-const {v} Real)" for v in ("X_0", "X_1", "Y_0", "Y_1")
    )
    box = (
        "(assert (>= X_0 -1.0))\n(assert (<= X_0 1.0))\n"
        "(assert (>= X_1 -1.0))\n(assert (<= X_1 1.0))\n"
    )
    with open(paths["prop_true"], "w") as fh:
        fh.write(f"{decls}\n{box}(assert (<= Y_0 -3.0))\n")
    with open(paths["prop_false"], "w") as fh:
        fh.write(f"{decls}\n{box}(assert (<= Y_0 1.0))\n")
    with open(paths["prop_one_split"], "w") as fh:  # Y_1 <= 11: CROWN needs one split
        fh.write(f"{decls}\n{box}(assert (>= Y_1 11.0))\n")
    rc = main(["gen", "--layers", "3", "--width", "16", "--input-dim", "4",
               "--stable-frac", "0.5", "--seed", "3", "--out", paths["gen"]])
    assert rc == 0
    return paths


# --- gen ---


def test_gen_is_deterministic(ws, tmp_path, capsys):
    out = tmp_path / "again.onnx"
    rc = main(["gen", "--layers", "3", "--width", "16", "--input-dim", "4",
               "--stable-frac", "0.5", "--seed", "3", "--out", str(out)])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "48 relu neurons" in msg
    assert "24 planted stable" in msg
    with open(ws["gen"], "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_gen_writes_sidecar(ws):
    import json
    with open(ws["gen"] + ".json") as fh:
        sidecar = json.load(fh)
    assert sidecar["hidden_widths"] == [16, 16, 16]
    assert len(sidecar["plants"]) == 24


def test_gen_bad_fraction_is_usage_error(tmp_path, capsys):
    rc = main(["gen", "--stable-frac", "2.0", "--out", str(tmp_path / "x.onnx")])
    assert rc == 2
    assert "stable_fraction" in capsys.readouterr().err


# --- reduce ---


def test_reduce_worked_example(ws, tmp_path, capsys):
    out = tmp_path / "reduced.onnx"
    rep = tmp_path / "report.csv"
    rc = main(["reduce", "--model", ws["fig1"], "--center", ws["center"],
               "--eps", "1.0", "--method", "interval",
               "--out", str(out), "--report", str(rep)])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "relu neurons: 5 -> 3" in msg
    assert "(40.0% removed)" in msg
    csv = rep.read_text().splitlines()
    assert csv[0].startswith("layer,")
    assert csv[1] == "0,5,1,3,1,3,1"
    assert csv[2].startswith("# totals: relu_before=5 relu_after=3 ratio=1.6667")
    net, _ = import_onnx(out.read_bytes())
    fig1 = build_fig1()
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1, 1, size=(200, 2)):
        assert np.abs(forward(net, x) - forward(fig1, x)).max() <= 1e-6


def test_reduce_uses_sidecar_region(ws, capsys):
    rc = main(["reduce", "--model", ws["gen"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "relu neurons: 48 ->" in out
    # the 12 planted-deactivated neurons are guaranteed to disappear
    after = int(out.split("relu neurons: 48 -> ")[1].split()[0])
    assert after <= 36


def test_reduce_without_region_is_usage_error(ws, tmp_path, capsys):
    bare = tmp_path / "bare.onnx"
    bare.write_bytes(open(ws["fig1"], "rb").read())
    rc = main(["reduce", "--model", str(bare)])
    assert rc == 2
    assert "no input region" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--backend", "numpy", "stats"],
        ["--threads", "2", "stats"],
        ["reduce", "--tol", "0.1"],
    ],
)
def test_unknown_flags_are_usage_errors(ws, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--model", ws["gen"]])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


# --- stats / bounds ---


def test_stats_table(ws, capsys):
    rc = main(["stats", "--model", ws["fig1"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "input width 2, output width 2" in out
    assert "27 parameters, 5 relu neurons in 1 layers" in out
    assert "shape: sequential chain" in out


def test_bounds_csv_values(ws, capsys):
    rc = main(["bounds", "--model", ws["fig1"], "--center", ws["center"],
               "--eps", "1.0", "--method", "interval"])
    assert rc == 0
    cap = capsys.readouterr()
    lines = cap.out.strip().splitlines()
    assert lines[0] == "layer,neuron,lower,upper,method"
    # first hidden neuron of the worked example: -x1 - x2 - 2 on the unit box
    assert lines[1] == "0,0,-4.0,0.0,interval"
    assert "output 0: [-7, 7]" in cap.err


def test_bounds_written_to_file(ws, tmp_path, capsys):
    out = tmp_path / "b.csv"
    rc = main(["bounds", "--model", ws["fig1"], "--center", ws["center"],
               "--eps", "1.0", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("layer,neuron,lower,upper,method")
    assert "wrote bounds for 7 neurons" in capsys.readouterr().out


# --- equiv ---


def test_equiv_accepts_the_reduction(ws, tmp_path, capsys):
    red = tmp_path / "r.onnx"
    main(["reduce", "--model", ws["fig1"], "--center", ws["center"],
          "--eps", "1.0", "--out", str(red)])
    capsys.readouterr()
    rc = main(["equiv", "--model", ws["fig1"], "--other", str(red),
               "--center", ws["center"], "--eps", "1.0", "--grid", "21"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "grid 21 per axis" in out
    assert "equivalent within 1e-06: yes" in out


def test_equiv_flags_a_different_model(ws, tmp_path, capsys):
    other = tmp_path / "other.onnx"
    main(["gen", "--layers", "1", "--width", "4", "--input-dim", "2",
          "--seed", "9", "--out", str(other)])
    capsys.readouterr()
    rc = main(["equiv", "--model", ws["fig1"], "--other", str(other),
               "--center", ws["center"], "--eps", "1.0"])
    assert rc == 1
    assert "equivalent within 1e-06: NO" in capsys.readouterr().out


# --- verify ---


def test_verify_true_property(ws, capsys):
    rc = main(["verify", "--model", ws["fig1"], "--vnnlib", ws["prop_true"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "incomplete: verified" in out


def test_verify_interval_needs_bab(ws, capsys):
    rc = main(["verify", "--model", ws["fig1"], "--vnnlib", ws["prop_one_split"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "incomplete: unknown" in out
    assert "branch and bound: verified" in out
    assert "1 splits" in out


def test_verify_false_property_finds_counterexample(ws, capsys):
    rc = main(["verify", "--model", ws["fig1"], "--vnnlib", ws["prop_false"],
               "--falsify", "4096"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "branch and bound: unknown" in out
    assert "counterexample:" in out


def test_verify_a_chain_with_no_hidden_layer(tmp_path, capsys):
    # y = x0 - x1 on [0, 1]^2 against y + 0.5 >= 0: no ReLU to split, and the
    # affine bound -0.5 is the true minimum; before, bab_verify raised an
    # AxisError and the command exited 4
    model = tmp_path / "affine.onnx"
    model.write_bytes(export_onnx(from_sequential([([[1.0, -1.0]], [0.0])], 2)))
    prop = tmp_path / "affine.vnnlib"
    prop.write_text(
        "(declare-const X_0 Real)\n(declare-const X_1 Real)\n(declare-const Y_0 Real)\n"
        "(assert (>= X_0 0.0))\n(assert (<= X_0 1.0))\n"
        "(assert (>= X_1 0.0))\n(assert (<= X_1 1.0))\n(assert (<= Y_0 -0.5))\n"
    )
    rc = main(["verify", "--model", str(model), "--vnnlib", str(prop)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "incomplete: unknown (bound -0.5" in out
    assert "branch and bound: unknown (bound -0.5, 0 splits" in out
    assert "counterexample:" in out


def test_verify_no_bab_stops_early(ws, capsys):
    rc = main(["verify", "--model", ws["fig1"], "--vnnlib", ws["prop_one_split"],
               "--no-bab", "--falsify", "0"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "incomplete: unknown" in out
    assert "branch and bound" not in out


@pytest.mark.parametrize("flag,value", [
    ("--max-splits", "-3"), ("--timeout", "-1"), ("--timeout", "nan"), ("--falsify", "-5"),
    ("--tol", "-1"), ("--tol", "nan"),
])
def test_an_invalid_budget_exits_2_before_any_bounding(ws, capsys, monkeypatch, flag, value):
    # --tol belongs to equiv, the rest to verify
    def no_bounding(*args, **kwargs):
        raise AssertionError("bounded before rejecting the budget")

    for name in ("verify_incomplete", "sample_equivalence", "grid_equivalence"):
        monkeypatch.setattr(cli, name, no_bounding)
    if flag == "--tol":
        argv = ["equiv", "--model", ws["fig1"], "--other", ws["fig1"],
                "--center", ws["center"], "--eps", "1.0"]
    else:
        argv = ["verify", "--model", ws["fig1"], "--vnnlib", ws["prop_true"]]
    rc = main([*argv, flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("command,flag,value", [
    ("gen", "--seed", "-1"), ("equiv", "--seed", "-1"), ("verify", "--seed", "-1"),
    ("equiv", "--grid", "1"), ("equiv", "--grid", "-2"),
])
def test_a_negative_seed_or_a_one_point_grid_exits_2_before_any_work(
    ws, tmp_path, capsys, monkeypatch, command, flag, value
):
    # before: numpy's ValueError on a negative seed reached the catch-all and
    # exited 4, and --grid 1 was refused only after the sampled comparison
    def no_work(*args, **kwargs):
        raise AssertionError("worked before rejecting the argument")

    for name in ("generate_network", "_read_model", "sample_equivalence", "grid_equivalence",
                 "verify_incomplete", "find_grid_counterexample"):
        monkeypatch.setattr(cli, name, no_work)
    argv = {
        "gen": ["gen", "--out", str(tmp_path / "never.onnx")],
        "equiv": ["equiv", "--model", ws["fig1"], "--other", ws["fig1"],
                  "--center", ws["center"], "--eps", "1.0"],
        "verify": ["verify", "--model", ws["fig1"], "--vnnlib", ws["prop_true"]],
    }[command]
    rc = main([*argv, flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag[2:] in err
    assert not (tmp_path / "never.onnx").exists()


def test_a_grid_on_a_wide_input_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    # before: the sampled comparison ran and printed its line, then the grid
    # refused the 6-dimensional input
    model, center = tmp_path / "wide.onnx", tmp_path / "wide.txt"
    assert main(["gen", "--layers", "1", "--width", "8", "--input-dim", "6", "--seed", "1",
                 "--out", str(model)]) == 0
    center.write_text(" ".join(["0.5"] * 6) + "\n")
    capsys.readouterr()

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before rejecting the grid")

    monkeypatch.setattr(cli, "sample_equivalence", no_sampling)
    rc = main(["equiv", "--model", str(model), "--other", str(model), "--center", str(center),
               "--eps", "1.0", "--grid", "3"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "--grid" in err and "dimension <= 4, got 6" in err


def test_a_zero_seed_and_a_two_point_grid_still_run(ws, capsys):
    rc = main(["equiv", "--model", ws["fig1"], "--other", ws["fig1"],
               "--center", ws["center"], "--eps", "1.0", "--seed", "0", "--grid", "2"])
    assert rc == 0
    assert "grid 2 per axis" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["bench"], "invalid choice: 'bench'"),
    (["verify", "--method", "crown"], "unrecognized arguments: --method crown"),
], ids=["bench", "verify_method"])
def test_the_removed_bench_and_verify_method_are_usage_errors(ws, capsys, argv, message):
    # verify is CROWN-only; compare a model with its reduction by running
    # reduce, then verify on each
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--model", ws["fig1"], "--vnnlib", ws["prop_true"]])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# --- simplify ---


def _t(name, arr):
    a32 = np.ascontiguousarray(arr, dtype="<f4")
    return oc.TensorP(name=name, dims=list(a32.shape), data_type=oc.DT_FLOAT,
                      raw_data=a32.tobytes())


def _residual_model_bytes() -> bytes:
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 3))
    g1 = oc.NodeP(op_type="Gemm", name="g1", inputs=["x", "w1"], outputs=["h"])
    g1.attributes["transB"] = oc.AttrP("transB", oc.AT_INT, i=1)
    r = oc.NodeP(op_type="Relu", name="r", inputs=["h"], outputs=["hr"])
    g2 = oc.NodeP(op_type="Gemm", name="g2", inputs=["hr", "w2"], outputs=["h2"])
    g2.attributes["transB"] = oc.AttrP("transB", oc.AT_INT, i=1)
    add = oc.NodeP(op_type="Add", name="skip", inputs=["h2", "x"], outputs=["y"])
    graph = oc.GraphP(
        name="res", nodes=[g1, r, g2, add],
        initializers=[_t("w1", w), _t("w2", rng.normal(size=(3, 3)))],
        inputs=[oc.ValueInfoP("x", oc.DT_FLOAT, [1, 3])],
        outputs=[oc.ValueInfoP("y", oc.DT_FLOAT, [1, 3])],
    )
    return oc.encode_model(oc.ModelP(graph=graph, opset_imports=[("", 13)]))


def test_simplify_rewrites_residual_to_chain(tmp_path, capsys):
    model = tmp_path / "res.onnx"
    model.write_bytes(_residual_model_bytes())
    center = tmp_path / "c.txt"
    center.write_text("0 0 0\n")
    out = tmp_path / "chain.onnx"
    rc = main(["simplify", "--model", str(model), "--center", str(center),
               "--eps", "1.0", "--out", str(out)])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "wrote sequential model" in msg
    chain, _ = import_onnx(out.read_bytes())
    orig, _ = import_onnx(model.read_bytes())
    rng = np.random.default_rng(1)
    for x in rng.uniform(-1, 1, size=(200, 3)):
        assert np.abs(forward(chain, x) - forward(orig, x)).max() <= 1e-5


@pytest.mark.parametrize("model,region,message", [
    ("res", ["--center", "{c3}"], "--center needs --eps"),
    ("res", ["--center", "{c4}", "--eps", "1.0"], "region has dimension 4"),
    ("fig1", ["--center", "{c3}", "--eps", "1.0"], "region has dimension 3"),
    ("res", ["--eps", "1.0"], "--eps needs --center"),
    ("res", ["--clip", "0", "1"], "--clip needs --center"),
    ("fig1", ["--vnnlib", "{prop}", "--center", "{c3}", "--eps", "1.0"],
     "--vnnlib gives the region; drop --center"),
    ("fig1", ["--vnnlib", "{prop}", "--clip", "0", "1"], "--vnnlib gives the region; drop --clip"),
], ids=["center_without_eps", "wrong_dimension", "wrong_dimension_on_a_chain", "eps_without_center",
        "clip_without_center", "center_next_to_vnnlib", "clip_next_to_vnnlib"])
def test_simplify_reports_a_bad_region(ws, tmp_path, capsys, model, region, message):
    # before: --eps or --clip without --center, and any ball flag next to
    # --vnnlib, were ignored without a word
    (tmp_path / "res.onnx").write_bytes(_residual_model_bytes())
    (tmp_path / "c3.txt").write_text("0 0 0\n")
    (tmp_path / "c4.txt").write_text("0 0 0 0\n")
    names = {"c3": str(tmp_path / "c3.txt"), "c4": str(tmp_path / "c4.txt"), "prop": ws["prop_true"]}
    path = ws["fig1"] if model == "fig1" else str(tmp_path / "res.onnx")
    rc = main(["simplify", "--model", path, *(a.format(**names) for a in region),
               "--out", str(tmp_path / "out.onnx")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.onnx").exists()


def test_verify_simplifies_branching_models(tmp_path, capsys):
    model = tmp_path / "res.onnx"
    model.write_bytes(_residual_model_bytes())
    prop = tmp_path / "p.vnnlib"
    decls = "\n".join(
        f"(declare-const {v} Real)" for v in ("X_0", "X_1", "X_2", "Y_0")
    )
    prop.write_text(
        f"{decls}\n"
        "(assert (>= X_0 -0.1)) (assert (<= X_0 0.1))\n"
        "(assert (>= X_1 -0.1)) (assert (<= X_1 0.1))\n"
        "(assert (>= X_2 -0.1)) (assert (<= X_2 0.1))\n"
        "(assert (<= Y_0 -100.0))\n"
    )
    rc = main(["verify", "--model", str(model), "--vnnlib", str(prop)])
    assert rc == 0
    assert "not a chain" in capsys.readouterr().err


def test_a_node_that_does_not_feed_the_output_is_dropped(tmp_path, capsys):
    rng = np.random.default_rng(6)
    g1 = oc.NodeP(op_type="Gemm", name="g1", inputs=["x", "w1"], outputs=["h"])
    g1.attributes["transB"] = oc.AttrP("transB", oc.AT_INT, i=1)
    r = oc.NodeP(op_type="Relu", name="r", inputs=["h"], outputs=["hr"])
    debug = oc.NodeP(op_type="Relu", name="debug", inputs=["h"], outputs=["dbg"])
    g2 = oc.NodeP(op_type="Gemm", name="g2", inputs=["hr", "w2"], outputs=["y"])
    g2.attributes["transB"] = oc.AttrP("transB", oc.AT_INT, i=1)
    graph = oc.GraphP(
        name="debug", nodes=[g1, r, debug, g2],
        initializers=[_t("w1", rng.normal(size=(4, 3))), _t("w2", rng.normal(size=(1, 4)))],
        inputs=[oc.ValueInfoP("x", oc.DT_FLOAT, [1, 3])],
        outputs=[oc.ValueInfoP("y", oc.DT_FLOAT, [1, 1])],
    )
    model = tmp_path / "debug.onnx"
    model.write_bytes(oc.encode_model(oc.ModelP(graph=graph, opset_imports=[("", 13)])))
    prop = tmp_path / "p.vnnlib"
    decls = "\n".join(f"(declare-const {v} Real)" for v in ("X_0", "X_1", "X_2", "Y_0"))
    box = "".join(f"(assert (>= X_{i} -1.0)) (assert (<= X_{i} 1.0))\n" for i in range(3))
    prop.write_text(f"{decls}\n{box}(assert (<= Y_0 -1000.0))\n")
    assert main(["stats", "--model", str(model)]) == 0
    out, err = capsys.readouterr()
    assert "shape: sequential chain" in out
    assert "dropped 1 layer(s) that cannot reach the graph output" in err
    assert main(["verify", "--model", str(model), "--vnnlib", str(prop)]) == 0
    assert "not a chain" not in capsys.readouterr().err


# --- error surfaces ---


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["reduce"])  # missing --model
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_unsupported_model_exit_code(tmp_path, capsys):
    sig = oc.NodeP(op_type="Sigmoid", name="s", inputs=["x"], outputs=["y"])
    g = oc.GraphP(name="g", nodes=[sig],
                  inputs=[oc.ValueInfoP("x", oc.DT_FLOAT, [1, 2])],
                  outputs=[oc.ValueInfoP("y", oc.DT_FLOAT, [1, 2])])
    bad = tmp_path / "bad.onnx"
    bad.write_bytes(oc.encode_model(oc.ModelP(graph=g, opset_imports=[("", 13)])))
    rc = main(["stats", "--model", str(bad)])
    assert rc == 3
    assert "s:Sigmoid" in capsys.readouterr().err


def test_a_shape_op_with_a_bad_axis_exits_3(tmp_path, capsys):
    cat = oc.NodeP(op_type="Concat", name="cat", inputs=["x", "x"], outputs=["y"],
                   attributes={"axis": oc.AttrP("axis", oc.AT_INT, i=5)})
    g = oc.GraphP(name="g", nodes=[cat],
                  inputs=[oc.ValueInfoP("x", oc.DT_FLOAT, [1, 2])],
                  outputs=[oc.ValueInfoP("y", oc.DT_FLOAT, [1, 4])])
    bad = tmp_path / "bad_axis.onnx"
    bad.write_bytes(oc.encode_model(oc.ModelP(graph=g, opset_imports=[("", 13)])))
    assert main(["stats", "--model", str(bad)]) == 3
    assert "axis 5 is outside [-2, 1]" in capsys.readouterr().err


def test_not_an_onnx_file_exit_code(tmp_path, capsys):
    junk = tmp_path / "junk.onnx"
    junk.write_bytes(b"\x00\x01\x02 definitely not a model")
    rc = main(["stats", "--model", str(junk)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "{missing}.onnx", "--vnnlib", "{prop}"],
    ["reduce", "--model", "{fig1}", "--center", "{center}", "--eps", "1.0",
     "--out", "{missing}/x.onnx"],
    ["reduce", "--model", "{fig1}", "--center", "{missing}.txt", "--eps", "1.0",
     "--out", "{tmp}/x.onnx"],
], ids=["missing_model", "unwritable_out", "missing_center"])
def test_a_missing_or_unwritable_file_exits_2(ws, tmp_path, capsys, argv):
    # before: FileNotFoundError reached the catch-all and exited 4
    names = {"missing": str(tmp_path / "missing"), "center": ws["center"], "fig1": ws["fig1"],
             "prop": ws["prop_true"], "tmp": str(tmp_path)}
    rc = main([a.format(**names) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    assert "internal error" not in err


@pytest.mark.parametrize("clip", [["1", "-1"], ["2", "3"]], ids=["reversed", "off_the_ball"])
def test_reduce_rejects_a_clip_range_off_the_ball(ws, capsys, clip):
    rc = main(["reduce", "--model", ws["fig1"], "--center", ws["center"], "--eps", "0.1",
               "--clip", *clip])
    assert rc == 2
    assert "clip range" in capsys.readouterr().err


def test_equiv_rejects_a_negative_sample_count(ws, capsys):
    # before: numpy's ValueError reached the catch-all and exited 4
    rc = main(["equiv", "--model", ws["fig1"], "--other", ws["fig1"],
               "--center", ws["center"], "--eps", "1.0", "--samples", "-1"])
    assert rc == 2
    assert "sample count" in capsys.readouterr().err


def test_a_malformed_sidecar_exits_2(ws, tmp_path, capsys):
    # every region command reads the sidecar next to the model; before, a
    # sidecar that is not JSON raised JSONDecodeError and exited 4
    model = tmp_path / "gen.onnx"
    model.write_bytes(open(ws["gen"], "rb").read())
    (tmp_path / "gen.onnx.json").write_text("{not json")
    rc = main(["reduce", "--model", str(model)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gen.onnx.json" in err


def test_malformed_vnnlib_exit_code(ws, tmp_path, capsys):
    prop = tmp_path / "broken.vnnlib"
    prop.write_text("(assert (>= X_0")
    rc = main(["verify", "--model", ws["fig1"], "--vnnlib", str(prop)])
    assert rc == 2
    assert f"error: {prop}: line 1:" in capsys.readouterr().err


@pytest.mark.parametrize("atom", ["(<= X_0 nan)", "(>= X_1 -inf)", "(>= Y_0 nan)", "(<= Y_1 inf)"])
def test_a_vnnlib_file_with_a_non_finite_number_exits_2(ws, tmp_path, capsys, atom):
    prop = tmp_path / "nonfinite.vnnlib"
    with open(ws["prop_true"]) as fh:
        prop.write_text(f"{fh.read()}(assert {atom})\n")
    rc = main(["verify", "--model", ws["fig1"], "--vnnlib", str(prop)])
    assert rc == 2
    assert "is not a finite number" in capsys.readouterr().err
