"""End-to-end acceptance gate.

Seven criteria, one test each, run against a fixed 50-network corpus
(depths 3-6, widths 32-128, planted stable fractions {0, 0.3, 0.7, 1.0},
seeds 0-4). Every test prints a single summary line on success; the
assertions themselves are the gate. Corpus generation and reduction happen
once in module fixtures and their wall time counts toward the criterion-3
budget.
"""

import time

import numpy as np
import pytest

from redkit import (
    Box,
    as_sequential,
    bab_verify,
    compute_bounds,
    export_onnx,
    find_grid_counterexample,
    forward,
    forward_batch,
    generate_network,
    grid_equivalence,
    import_onnx,
    reduce_network,
    robustness_spec,
    sample_equivalence,
    simplify,
)
from conftest import (
    FIG1_PRE_HI,
    FIG1_PRE_LO,
    FIG4_B1,
    FIG4_B2,
    FIG4_W1,
    FIG4_W2,
    box_samples,
    build_residual_block,
)

WIDTHS = [32, 48, 64, 96, 128]
FRACS = [0.0, 0.3, 0.7, 1.0]
INPUT_DIM = 8

def _schedule():
    out = []
    for i in range(50):
        out.append(
            {
                "i": i,
                "depth": 3 + i % 4,
                "width": WIDTHS[i % 5],
                "frac": FRACS[(i // 4) % 4],
                "seed": (i // 5) % 5,
            }
        )
    return out


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    rows = []
    for cfg in _schedule():
        net, sidecar = generate_network(
            cfg["depth"],
            cfg["width"],
            INPUT_DIM,
            stable_fraction=cfg["frac"],
            seed=cfg["seed"],
        )
        box = Box(
            np.asarray(sidecar["box"]["lower"], dtype=np.float64),
            np.asarray(sidecar["box"]["upper"], dtype=np.float64),
        )
        rows.append(dict(cfg, net=net, sidecar=sidecar, box=box))
    return {"rows": rows, "gen_time": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def reductions(corpus):
    t0 = time.perf_counter()
    rows = []
    for row in corpus["rows"]:
        red, report = reduce_network(row["net"], row["box"], method="interval")
        rows.append(dict(row, red=red, report=report))
    return {"rows": rows, "reduce_time": time.perf_counter() - t0}


def _interleaved_medians(fa, fb, repeats=21):
    """Median wall times of fa and fb, timed in alternating order so drift hits both."""
    fa()  # warm caches outside the clock
    fb()
    ts = {fa: [], fb: []}
    for k in range(repeats):
        for fn in (fa, fb) if k % 2 == 0 else (fb, fa):
            t0 = time.perf_counter()
            fn()
            ts[fn].append(time.perf_counter() - t0)
    return float(np.median(ts[fa])), float(np.median(ts[fb]))


def test_criterion_1_worked_example(fig1_net, unit_box):
    t0 = time.perf_counter()
    table = compute_bounds(fig1_net, unit_box, method="interval")
    lo, hi = table.pre_activation(0)
    assert lo.dtype == np.float64 and hi.dtype == np.float64
    assert np.array_equal(lo, FIG1_PRE_LO)
    assert np.array_equal(hi, FIG1_PRE_HI)

    reduced, report = reduce_network(fig1_net, unit_box, method="interval")
    assert report.relu_before == 5 and report.relu_after == 3
    seq = as_sequential(reduced)
    # merged hidden rows x1-x2+2 and 3x1+x2+7, kept row -x1+x2; output
    # recombination m3-x12-1 and m4+x12
    np.testing.assert_array_equal(seq.linears[0].weight, FIG4_W1)
    np.testing.assert_array_equal(seq.linears[0].bias, FIG4_B1)
    np.testing.assert_array_equal(seq.linears[1].weight, FIG4_W2)
    np.testing.assert_array_equal(seq.linears[1].bias, FIG4_B2)

    eq = grid_equivalence(fig1_net, reduced, unit_box, points_per_dim=21)
    assert eq.samples == 21 * 21
    assert eq.max_abs_diff <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS - interval bounds exact, merged forms exact, "
        f"relu 5 -> 3, grid max diff {eq.max_abs_diff:.2e}, {elapsed:.3f}s"
    )


def test_criterion_2_residual_to_chain():
    t0 = time.perf_counter()
    net, box, _parts = build_residual_block(seed=0)
    chain, stats = simplify(net, box)
    seq = as_sequential(chain)
    assert len(seq.linears) == 2 and len(seq.relus) == 1
    assert not seq.ends_with_relu
    eq = sample_equivalence(net, chain, box, n=1000, seed=0)
    assert eq.max_abs_diff <= 1e-6
    assert stats.constructions <= stats.layer_budget
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 2: PASS - residual block -> linear/relu/linear chain, "
        f"1000-sample max diff {eq.max_abs_diff:.2e}, "
        f"constructions {stats.constructions} <= |V| {stats.layer_budget}, {elapsed:.2f}s"
    )


def test_criterion_3_corpus_preservation(corpus, reductions):
    t0 = time.perf_counter()
    rows = reductions["rows"]
    assert len(rows) == 50
    assert sorted({r["depth"] for r in rows}) == [3, 4, 5, 6]
    assert sorted({r["width"] for r in rows}) == WIDTHS
    assert sorted({r["frac"] for r in rows}) == FRACS
    assert sorted({r["seed"] for r in rows}) == [0, 1, 2, 3, 4]

    worst = 0.0
    for row in rows:
        eq = sample_equivalence(row["net"], row["red"], row["box"], n=1000, seed=row["i"])
        worst = max(worst, eq.max_abs_diff)
        assert eq.max_abs_diff <= 1e-6, f"net {row['i']} diverges: {eq.max_abs_diff}"

    # every planted neuron must be caught stable, with the planted sign, by
    # plain interval propagation (the sidecar is the ground truth)
    plants_total = 0
    for row in rows:
        plants = row["sidecar"]["plants"]
        if not plants:
            continue
        table = compute_bounds(row["net"], row["box"], method="interval")
        for p in plants:
            lo, hi = table.pre_activation(p["layer"])
            plants_total += 1
            if p["kind"] == "activated":
                assert lo[p["neuron"]] >= 0.0, f"net {row['i']} missed plant {p}"
            else:
                assert hi[p["neuron"]] <= 0.0, f"net {row['i']} missed plant {p}"
    assert plants_total > 0

    total = corpus["gen_time"] + reductions["reduce_time"] + (time.perf_counter() - t0)
    assert total < 300.0
    print(
        f"criterion 3: PASS - 50/50 nets preserved (worst diff {worst:.2e}), "
        f"{plants_total}/{plants_total} plants detected, total {total:.1f}s"
    )


def test_criterion_4_bound_soundness(corpus):
    n_samples = 10_000
    crown_inside = 0
    for row in corpus["rows"]:
        net, box = row["net"], row["box"]
        t_int = compute_bounds(net, box, method="interval")
        t_crown = compute_bounds(net, box, method="crown")
        rng = np.random.default_rng(1000 + row["i"])
        xs = box.sample(n_samples, rng)
        seq = as_sequential(net)
        h = xs
        for k, lin in enumerate(seq.linears):
            z = h @ lin.weight.T + lin.bias[None, :]
            for table in (t_int, t_crown):
                lo, hi = table.pre_activation(k)
                assert (z >= lo[None, :]).all() and (z <= hi[None, :]).all(), (
                    f"net {row['i']} layer {k}: sampled pre-activation escapes "
                    f"{table.method} bounds"
                )
            if k < len(seq.relus):
                h = np.maximum(z, 0.0)
        ilo, ihi = t_int.output_bounds()
        clo, chi = t_crown.output_bounds()
        crown_inside += bool((clo >= ilo).all() and (chi <= ihi).all())
    frac = crown_inside / len(corpus["rows"])
    assert frac >= 0.95
    print(
        f"criterion 4: PASS - {n_samples} samples x 50 nets inside interval and "
        f"crown bounds, crown output box inside interval on {crown_inside}/50"
    )


def _verifiable_spec(row):
    """Center robustness property, epsilon halved until crown BaB verifies."""
    net, box = row["net"], row["box"]
    center = (box.lower + box.upper) / 2.0
    label = int(np.argmax(forward(net, center)))
    n_out = net.output_layer.width
    eps = float(box.widths.max()) / 4.0
    for _ in range(20):
        ball = Box(np.maximum(center - eps, box.lower), np.minimum(center + eps, box.upper))
        spec = robustness_spec(ball, label, n_out, name=f"rob_net{row['i']}_eps{eps:.4g}")
        verdict = bab_verify(net, spec, timeout=30.0, max_splits=4096)
        if verdict.verified:
            return spec
        eps /= 2.0
    raise AssertionError(f"no verifiable robustness radius found for net {row['i']}")


def _stable_rows(reductions):
    return [r for r in reductions["rows"] if r["frac"] >= 0.7]


@pytest.fixture(scope="module")
def verified_specs(reductions):
    """(row, spec) for ten verifiable properties on the largest high-stability nets."""
    sub = _stable_rows(reductions)
    picks = sorted(sub, key=lambda r: (-r["width"], -r["depth"], r["i"]))[:10]
    return [(row, _verifiable_spec(row)) for row in picks]


def test_criterion_5_verification_speedup(reductions, verified_specs):
    sub = _stable_rows(reductions)
    assert len(sub) >= 10

    # full crown bound computation must not get slower on any reduced net
    slower = []
    for row in sub:
        t_orig, t_red = _interleaved_medians(
            lambda: compute_bounds(row["net"], row["box"], method="crown"),
            lambda: compute_bounds(row["red"], row["box"], method="crown"),
        )
        if t_red > t_orig:
            slower.append(row["i"])
    assert not slower, f"reduced crown pass slower on nets {slower}"

    # ten verifiable properties on the largest nets of the subset
    speedups = []
    for row, spec in verified_specs:
        original, reduced = bab_verify(row["net"], spec), bab_verify(row["red"], spec)
        assert reduced.verified or not original.verified, f"verdicts disagree on {spec.name}"
        assert original.status == "verified"
        assert reduced.status == "verified"
        t_orig, t_red = _interleaved_medians(
            lambda: bab_verify(row["net"], spec), lambda: bab_verify(row["red"], spec), repeats=5
        )
        speedups.append(t_orig / t_red)
    geomean = float(np.exp(np.mean(np.log(speedups))))
    assert geomean >= 1.2
    print(
        f"criterion 5: PASS - crown pass never slower on {len(sub)} reduced nets, "
        f"10/10 verdict agreement, geomean speedup {geomean:.2f}x "
        f"(min {min(speedups):.2f}x, max {max(speedups):.2f}x)"
    )


def test_criterion_6_onnx_round_trip(reductions):
    worst = 0.0
    for row in reductions["rows"]:
        back, _report = import_onnx(export_onnx(row["red"]))
        xs = box_samples(row["box"], 100, seed=row["i"])
        diff = float(np.abs(forward_batch(row["red"], xs) - forward_batch(back, xs)).max())
        worst = max(worst, diff)
        assert diff <= 1e-6, f"net {row['i']} round trip diff {diff}"
    print(
        f"criterion 6: PASS - export/import round trip on 50 reduced nets, "
        f"worst forward diff {worst:.2e}"
    )


def test_criterion_7_no_counterexamples(verified_specs):
    # each spec verifies on its original net (the fixture's search) and on the
    # reduced twin (criterion 5's verdict agreement)
    pairs = [(net, spec) for row, spec in verified_specs for net in (row["net"], row["red"])]
    assert pairs
    for net, spec in pairs:
        assert find_grid_counterexample(net, spec, budget=10_000) is None, (
            f"grid search falsified {spec.name}"
        )
    print(
        f"criterion 7: PASS - grid search (10000 points) found no counterexample "
        f"for {len(pairs)} verified verdicts"
    )
