"""Command line front end.

Exit codes: 0 success / property verified / equivalent; 1 unknown, timed out
or inequivalent; 2 usage, malformed input or a file that cannot be read or
written; 3 unsupported model; 4 internal invariant breach.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bounds import Box, compute_bounds
from .equivalence import GRID_MAX_DIM, grid_equivalence, sample_equivalence
from .errors import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    ContractError,
    RedkitError,
    StructuralError,
)
from .generator import generate_network, load_sidecar, save_model
from .netir import Network, as_sequential, validate
from .onnx_bridge import export_onnx, import_onnx
from .reducer import reduce_network
from .simplifier import simplify
from .specio import PropertySpec, epsilon_ball, load_center, load_vnnlib
from .verify import bab_verify, check_budget, find_grid_counterexample, verify_incomplete


def _read_model(path) -> Network:
    with open(path, "rb") as fh:
        data = fh.read()
    net, report = import_onnx(data)
    if report.notes:
        for note in report.notes:
            print(f"note: {note}", file=sys.stderr)
    return net


def _write_model(net: Network, path):
    with open(path, "wb") as fh:
        fh.write(export_onnx(net))


def _sidecar_path(model_path) -> str:
    return str(model_path) + ".json"


def _region(args, input_dim: int) -> Box | None:
    """Input region from --vnnlib, --center/--eps, or the generator sidecar; None if none is given.

    A region flag that the chosen source does not read is an error, not ignored.
    """
    ball = [f for f in ("center", "eps", "clip") if getattr(args, f) is not None]
    if args.vnnlib and ball:
        raise ContractError(f"--vnnlib gives the region; drop --{ball[0]}")
    if ball and args.center is None:
        raise ContractError(f"--{ball[0]} needs --center")
    if args.vnnlib:
        box = load_vnnlib(args.vnnlib).box
    elif args.center is not None:
        if args.eps is None:
            raise ContractError("--center needs --eps")
        center = load_center(args.center)
        box = epsilon_ball(center, args.eps, clip=args.clip)
    elif os.path.exists(_sidecar_path(args.model)):
        box, _ = load_sidecar(_sidecar_path(args.model))
    else:
        return None
    if box.dim != input_dim:
        raise ContractError(f"region has dimension {box.dim}, model expects {input_dim}")
    return box


def _resolve_box(args, input_dim: int) -> Box:
    box = _region(args, input_dim)
    if box is None:
        raise ContractError(
            "no input region: pass --vnnlib or --center/--eps, or keep the "
            "generator sidecar json next to the model"
        )
    return box


def _load_property(args, net: Network) -> PropertySpec:
    spec = load_vnnlib(args.vnnlib)
    out_w = net.output_layer.width
    if spec.n_outputs > out_w:
        raise ContractError(
            f"property references output {spec.n_outputs - 1}, model has {out_w} outputs"
        )
    if spec.n_outputs < out_w:
        rows = np.zeros((spec.rows.shape[0], out_w))
        rows[:, : spec.n_outputs] = spec.rows
        spec = PropertySpec(spec.box, rows, spec.offsets, spec.mode, spec.name, spec.notes)
    if spec.box.dim != net.input_layer.width:
        raise ContractError(
            f"property region has dimension {spec.box.dim}, "
            f"model expects {net.input_layer.width}"
        )
    return spec


def _ensure_sequential(net: Network, box: Box | None, quiet: bool = False) -> Network:
    try:
        as_sequential(net)
        return net
    except StructuralError:
        if not quiet:
            print("model graph is not a chain; rewriting it to one first", file=sys.stderr)
        return simplify(net, box)[0]


def _print_reduction(report):
    hdr = f"{'layer':>5} {'before':>7} {'deact':>6} {'act':>5} {'unstable':>8} {'after':>6} {'merged':>6}"
    print(hdr)
    for r in sorted(report.rows, key=lambda r: r["layer"]):
        print(
            f"{r['layer']:>5} {r['width_before']:>7} {r['n_deactivated']:>6} "
            f"{r['n_activated']:>5} {r['n_unstable']:>8} {r['width_after']:>6} "
            f"{'yes' if r['merged'] else 'no':>6}"
        )
    removed = report.relu_before - report.relu_after
    pct = 100.0 * removed / report.relu_before if report.relu_before else 0.0
    print(
        f"relu neurons: {report.relu_before} -> {report.relu_after} "
        f"({pct:.1f}% removed) in {report.wall_time_s:.3f} s [{report.method}]"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_reduce(args) -> int:
    net = _read_model(args.model)
    box = _resolve_box(args, net.input_layer.width)
    net = _ensure_sequential(net, box)
    reduced, report = reduce_network(net, box, method=args.method)
    _print_reduction(report)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_csv())
        print(f"wrote per-layer report to {args.report}")
    if args.out:
        _write_model(reduced, args.out)
        print(f"wrote reduced model to {args.out}")
    return EXIT_OK


def _check_seed(seed: int) -> None:
    """Reject a seed that numpy's generators refuse, before any work."""
    if seed < 0:
        raise ContractError(f"seed must be a nonnegative integer, got {seed}")


def cmd_gen(args) -> int:
    _check_seed(args.seed)
    net, sidecar = generate_network(
        n_hidden=args.layers,
        width=args.width,
        input_dim=args.input_dim,
        output_dim=args.output_dim,
        stable_fraction=args.stable_frac,
        margin=args.margin,
        seed=args.seed,
    )
    sidecar_path = save_model(net, sidecar, args.out)
    n_relu = sum(l.width for l in net.relu_layers())
    print(
        f"wrote {args.out} ({args.layers}x{args.width} hidden, {n_relu} relu neurons, "
        f"{len(sidecar['plants'])} planted stable) and sidecar {sidecar_path}"
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    net = _read_model(args.model)
    rep = validate(net)
    print(f"{'id':>4} {'kind':<7} {'width':>6} {'params':>9}")
    n_params = 0
    for lid in sorted(net.by_id):
        layer = net.by_id[lid]
        p = layer.weight.size + layer.bias.size if layer.kind == "linear" else 0
        n_params += p
        print(f"{lid:>4} {layer.kind:<7} {layer.width:>6} {p:>9}")
    n_relu = sum(l.width for l in net.relu_layers())
    print(f"input width {net.input_layer.width}, output width {net.output_layer.width}")
    print(f"{n_params} parameters, {n_relu} relu neurons in {len(net.relu_layers())} layers")
    try:
        as_sequential(net)
        print("shape: sequential chain")
    except StructuralError:
        print("shape: general graph (run the simplify command to get a chain)")
    if not rep.ok:
        print(f"validation problems:\n{rep}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_bounds(args) -> int:
    net = _read_model(args.model)
    box = _resolve_box(args, net.input_layer.width)
    net = _ensure_sequential(net, box)
    table = compute_bounds(net, box, args.method)
    lines = ["layer,neuron,lower,upper,method"]
    for layer, neuron, lo, hi, method in table.rows():
        lines.append(f"{layer},{neuron},{lo!r},{hi!r},{method}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote bounds for {len(lines) - 1} neurons to {args.out}")
    else:
        sys.stdout.write(text)
    olo, ohi = table.output_bounds()
    for i in range(len(olo)):
        print(f"output {i}: [{olo[i]:.6g}, {ohi[i]:.6g}]", file=sys.stderr)
    return EXIT_OK


def cmd_equiv(args) -> int:
    if not args.tol >= 0:  # NaN fails too
        raise ContractError(f"tol must be a nonnegative number, got {args.tol!r}")
    _check_seed(args.seed)
    if args.grid and args.grid < 2:
        raise ContractError(f"grid must be 0 (off) or at least 2 points per axis, got {args.grid}")
    a = _read_model(args.model)
    b = _read_model(args.other)
    box = _resolve_box(args, a.input_layer.width)
    if args.grid and box.dim > GRID_MAX_DIM:
        raise ContractError(
            f"--grid is limited to inputs of dimension <= {GRID_MAX_DIM}, got {box.dim}; "
            "leave it out to compare on samples only"
        )
    rep = sample_equivalence(a, b, box, n=args.samples, seed=args.seed)
    verdict = rep.within(args.tol)
    print(f"sampled {rep.samples} points: max |diff| = {rep.max_abs_diff:.3g}")
    if args.grid:
        grep = grid_equivalence(a, b, box, args.grid)
        verdict = verdict and grep.within(args.tol)
        print(f"grid {args.grid} per axis: max |diff| = {grep.max_abs_diff:.3g}")
    print(f"equivalent within {args.tol:g}: {'yes' if verdict else 'NO'}")
    return EXIT_OK if verdict else EXIT_UNKNOWN


def cmd_verify(args) -> int:
    check_budget(args.timeout, args.max_splits)
    if args.falsify < 0:
        raise ContractError(f"falsify must be a nonnegative sample count, got {args.falsify}")
    _check_seed(args.seed)
    net = _read_model(args.model)
    spec = _load_property(args, net)
    net = _ensure_sequential(net, spec.box)
    v = verify_incomplete(net, spec)
    print(f"incomplete: {v.status} (bound {v.bound:.6g}, {v.wall_time_s:.3f} s)")
    if not v.verified and not args.no_bab:
        v = bab_verify(net, spec, timeout=args.timeout, max_splits=args.max_splits)
        print(
            f"branch and bound: {v.status} (bound {v.bound:.6g}, "
            f"{v.splits} splits, {v.wall_time_s:.3f} s)"
        )
    if not v.verified and args.falsify:
        x = find_grid_counterexample(net, spec, budget=args.falsify, seed=args.seed)
        if x is not None:
            print(f"counterexample: {np.array2string(x, max_line_width=200)}")
    return EXIT_OK if v.verified else EXIT_UNKNOWN


def cmd_simplify(args) -> int:
    net = _read_model(args.model)
    # a region is only needed when an input value skips past a junction
    chain, stats = simplify(net, _region(args, net.input_layer.width))
    print(
        f"rewrites: {stats.normalization_rewrites} merges, {stats.constructions} layer "
        f"constructions, {stats.linearizations} linearizations (budget {stats.layer_budget})"
    )
    seq = as_sequential(chain)
    print(f"chain: {len(seq.linears)} linear layers, {sum(l.width for l in seq.relus)} relu neurons")
    _write_model(chain, args.out)
    print(f"wrote sequential model to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="redkit",
        description="Stable-neuron reduction and verification for ReLU networks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    region = argparse.ArgumentParser(add_help=False)
    region.add_argument("--vnnlib", help="property file supplying the input region")
    region.add_argument("--center", help="text file with the region center point")
    region.add_argument("--eps", type=float, help="box half width around --center")
    region.add_argument(
        "--clip", type=float, nargs=2, metavar=("LO", "HI"),
        help="clip the eps ball to this range",
    )

    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument("--method", choices=("interval", "crown"), default="crown")

    p = sub.add_parser("reduce", parents=[region, analysis], help="drop provably stable neurons")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="path for the reduced model")
    p.add_argument("--report", help="path for the per-layer CSV report")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="generate a network with planted stable neurons")
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--input-dim", type=int, default=8)
    p.add_argument("--output-dim", type=int, default=2)
    p.add_argument("--stable-frac", type=float, default=0.5)
    p.add_argument("--margin", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="layer table and validation status")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bounds", parents=[region, analysis], help="per-neuron activation bounds")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("equiv", parents=[region], help="compare two models on a region")
    p.add_argument("--model", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--grid", type=int, default=0, help="points per axis (low dimension only)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("verify", help="prove a property or give up")
    p.add_argument("--model", required=True)
    p.add_argument("--vnnlib", required=True)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--max-splits", type=int, default=100_000)
    p.add_argument("--no-bab", action="store_true", help="stop after the incomplete pass")
    p.add_argument(
        "--falsify", type=int, default=1024,
        help="samples for counterexample search after an unknown (0 disables)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "simplify", parents=[region], help="rewrite a branching graph into a chain"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simplify)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args) or EXIT_OK
    except BrokenPipeError:
        return EXIT_OK
    except RedkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # a missing or unwritable file named on the command line
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
