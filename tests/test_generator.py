"""Synthetic network generator: planted stability must be real stability.

The cross-check runs the reducer's interval classifier over every layer and
demands that each sidecar plant shows up with the promised sign. Nothing in
the generator is trusted; the classifier recomputes bounds from scratch.
"""

import json

import numpy as np
import pytest

from redkit import forward, generate_network, import_onnx, load_sidecar, save_model
from redkit.bounds import Box, compute_bounds
from redkit.errors import GenerationError, ParseError
from redkit.netir import as_sequential


def _stability_by_interval(net, box):
    """Map (layer, neuron) -> 'activated' | 'deactivated' | 'unstable'."""
    table = compute_bounds(net, box, method="interval")
    out = {}
    for k in range(len(table.linear_ids) - 1):
        lo, hi = table.pre_activation(k)
        for j in range(lo.shape[0]):
            if lo[j] >= 0.0:
                out[(k, j)] = "activated"
            elif hi[j] <= 0.0:
                out[(k, j)] = "deactivated"
            else:
                out[(k, j)] = "unstable"
    return out


def test_generator_is_deterministic():
    a, sa = generate_network(3, 16, 4, seed=42)
    b, sb = generate_network(3, 16, 4, seed=42)
    assert sa == sb
    for la, lb in zip(a.layers, b.layers):
        assert la.kind == lb.kind
        if la.kind == "linear":
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)


def test_different_seed_changes_weights():
    a, _ = generate_network(2, 8, 3, seed=0)
    b, _ = generate_network(2, 8, 3, seed=1)
    assert not np.array_equal(as_sequential(a).linears[0].weight,
                              as_sequential(b).linears[0].weight)


@pytest.mark.parametrize("frac", [0.0, 0.3, 0.7, 1.0])
def test_every_plant_is_interval_stable(frac):
    net, sidecar = generate_network(4, 20, 5, stable_fraction=frac, seed=7)
    box, _ = load_box(sidecar)
    seen = _stability_by_interval(net, box)
    for p in sidecar["plants"]:
        assert seen[(p["layer"], p["neuron"])] == p["kind"]
    want = int(round(frac * 20))
    per_layer = {}
    for p in sidecar["plants"]:
        per_layer[p["layer"]] = per_layer.get(p["layer"], 0) + 1
    if want:
        assert per_layer == {k: want for k in range(4)}
    else:
        assert sidecar["plants"] == []


def load_box(sidecar):
    box = Box(np.array(sidecar["box"]["lower"]), np.array(sidecar["box"]["upper"]))
    return box, sidecar


def test_unplanted_neurons_stay_unstable():
    net, sidecar = generate_network(3, 12, 4, stable_fraction=0.5, seed=3)
    box, _ = load_box(sidecar)
    seen = _stability_by_interval(net, box)
    planted = {(p["layer"], p["neuron"]) for p in sidecar["plants"]}
    for key, kind in seen.items():
        if key not in planted:
            assert kind == "unstable", f"{key} drifted into {kind}"


def test_fraction_one_plants_everything():
    net, sidecar = generate_network(2, 10, 3, stable_fraction=1.0, seed=5)
    assert len(sidecar["plants"]) == 20
    box, _ = load_box(sidecar)
    assert all(v != "unstable" for v in _stability_by_interval(net, box).values())


def test_plants_alternate_kinds():
    _, sidecar = generate_network(1, 10, 3, stable_fraction=1.0, seed=9)
    kinds = [p["kind"] for p in sidecar["plants"]]
    assert kinds.count("activated") == 5
    assert kinds.count("deactivated") == 5


def test_sidecar_schema():
    _, sidecar = generate_network(2, 6, 3, output_dim=4, stable_fraction=0.5,
                                  margin=0.25, seed=11)
    assert sidecar["seed"] == 11
    assert sidecar["stable_fraction"] == 0.5
    assert sidecar["margin"] == 0.25
    assert sidecar["input_dim"] == 3
    assert sidecar["output_dim"] == 4
    assert sidecar["hidden_widths"] == [6, 6]
    assert set(sidecar["box"]) == {"lower", "upper"}
    for p in sidecar["plants"]:
        assert set(p) == {"layer", "neuron", "kind"}


def test_network_shape_matches_request():
    net, _ = generate_network(3, 7, 4, output_dim=2, seed=0)
    seq = as_sequential(net)
    assert [l.width for l in seq.linears] == [7, 7, 7, 2]
    assert seq.input.width == 4
    assert not seq.ends_with_relu


def test_custom_box_is_respected():
    box = Box(np.full(3, -2.0), np.full(3, 3.0))
    net, sidecar = generate_network(2, 8, 3, stable_fraction=1.0, seed=1, box=box)
    assert sidecar["box"]["lower"] == [-2.0, -2.0, -2.0]
    got, _ = load_box(sidecar)
    seen = _stability_by_interval(net, got)
    for p in sidecar["plants"]:
        assert seen[(p["layer"], p["neuron"])] == p["kind"]


def test_margin_actually_clears_zero():
    net, sidecar = generate_network(2, 10, 3, stable_fraction=1.0, margin=0.75, seed=2)
    box, _ = load_box(sidecar)
    table = compute_bounds(net, box, method="interval")
    for p in sidecar["plants"]:
        lo, hi = table.pre_activation(p["layer"])
        if p["kind"] == "activated":
            assert lo[p["neuron"]] >= 0.75 - 1e-9
        else:
            assert hi[p["neuron"]] <= -0.75 + 1e-9


def test_bad_parameters_rejected():
    with pytest.raises(GenerationError, match="positive"):
        generate_network(0, 8, 3)
    with pytest.raises(GenerationError, match="stable_fraction"):
        generate_network(2, 8, 3, stable_fraction=1.5)
    with pytest.raises(GenerationError, match="margin"):
        generate_network(2, 8, 3, margin=0.0)
    with pytest.raises(GenerationError, match="dimension"):
        generate_network(2, 8, 3, box=Box(np.zeros(2), np.ones(2)))


def test_save_and_load_round_trip(tmp_path):
    net, sidecar = generate_network(2, 9, 4, stable_fraction=0.7, seed=13)
    model_path = tmp_path / "net.onnx"
    side_path = save_model(net, sidecar, model_path)
    assert side_path == str(model_path) + ".json"
    box, loaded = load_sidecar(side_path)
    assert loaded == json.loads(json.dumps(sidecar))  # survives serialization
    assert box.lower.tolist() == sidecar["box"]["lower"]
    net2, _ = import_onnx(model_path.read_bytes())
    rng = np.random.default_rng(0)
    for x in box.sample(100, rng):
        assert np.abs(forward(net, x) - forward(net2, x)).max() <= 1e-5


def test_save_model_bytes_are_deterministic(tmp_path):
    net, sidecar = generate_network(2, 6, 3, seed=21)
    p1, p2 = tmp_path / "a.onnx", tmp_path / "b.onnx"
    save_model(net, sidecar, p1)
    save_model(net, sidecar, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("text", [
    "{not json", '{"seed": 1}', '{"box": {"lower": ["a"], "upper": [1.0]}}', '{"box": [0, 1]}',
    '[1, 2]', b"\xff\xfe",
], ids=["not_json", "no_box", "non_numeric", "box_not_a_map", "not_a_map", "not_utf8"])
def test_a_malformed_sidecar_raises_a_parse_error(tmp_path, text):
    # before: JSONDecodeError, KeyError, ValueError or TypeError escaped
    p = tmp_path / "net.onnx.json"
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    with pytest.raises(ParseError, match="net.onnx.json: no numeric box"):
        load_sidecar(p)
