"""Command-line interface: CSV/JSON in, entropy curves and reports out.

Exit codes: 0 success, 1 usage or a file that cannot be opened, 2 malformed
input file, 3 dimension mismatch, 4 numeric refusal (degenerate data, non-PSD
correlation, capacity cap). Every command runs with numpy's OpenBLAS on one
thread.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from importlib.metadata import PackageNotFoundError, version

from .bench import (
    GRAPH_POLICIES,
    compare_graph_policies,
    run_noise_experiment,
    run_timing_sweep,
    structured_correlation_sets,
    uniform_correlation,
)
from .blas import _one_blas_thread
from .entropy import (
    EmbeddingConfig,
    PATTERN_CAP,
    classical_mvde_curve,
    mvdeg_curve,
    univariate_mde,
)
from .errors import DimensionError, MvdegError, ParseError, ScaleUndefinedError
from .generators import GENERATOR_KINDS, GeneratorSpec, generate
from .graphs import (
    build_complete_graph,
    build_gaussian_kernel_graph,
    build_zero_graph,
    estimate_correlation_graph,
)
from . import io as mio

try:
    _VERSION = version("mvdeg")
except PackageNotFoundError:  # running from a source tree
    _VERSION = "0.1.0"


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit 2; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _number_list(text: str, flag: str, parser: _Parser, kind: type) -> list:
    """Comma-separated ints or floats; kind is int or float."""
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    if not items:
        parser.error(f"{flag} needs at least one value")
    try:
        return [kind(s) for s in items]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        parser.error(f"{flag} must be a comma-separated list of {noun}")


# ── commands ─────────────────────────────────────────────────────────────────


def _cmd_generate(args, parser: _Parser) -> int:
    params: dict = {}
    if args.kind == "mixture":
        if args.q is None:
            parser.error("--kind mixture requires --q")
        if args.p not in (None, 3):
            parser.error("mixture signals are trivariate; omit --p or pass 3")
        p = 3
        params["q"] = args.q
    elif args.kind == "correlated":
        if args.corr is None:
            parser.error("--kind correlated requires --corr")
        corr = mio.read_correlation_json(args.corr)
        p = corr.shape[0]
        if args.p is not None and args.p != p:
            parser.error(f"--p {args.p} conflicts with {p}x{p} matrix in {args.corr}")
        params["corr"] = corr.tolist()
    else:
        if args.p is None:
            parser.error(f"--kind {args.kind} requires --p")
        p = args.p
    spec = GeneratorSpec(
        kind=args.kind, p=p, n_samples=args.n, seed=args.seed, params=params
    )
    signal = generate(spec)
    mio.write_signal_csv(signal, args.out)
    sidecar = f"{args.out}.json"
    mio.write_json(
        {
            "kind": spec.kind,
            "p": spec.p,
            "n_samples": spec.n_samples,
            "seed": spec.seed,
            "params": spec.params,
            "generator_version": spec.version,
            "package": f"mvdeg {_VERSION}",
        },
        sidecar,
    )
    print(f"wrote {args.out} ({signal.p} channels x {signal.n_samples} samples) and {sidecar}")
    return 0


def _build_graph(name: str, flag: str, args, parser: _Parser, p, signal):
    """The channel graph that `flag name` asks for; an unknown name is a graph JSON path."""
    if name == "zero":
        return build_zero_graph(p)
    if name == "complete":
        return build_complete_graph(p)
    if name == "correlation":
        return estimate_correlation_graph(signal)
    if name == "gaussian":
        if args.coords is None or args.sigma1_sq is None or args.sigma2 is None:
            parser.error(f"{flag} gaussian requires --coords, --sigma1-sq and --sigma2")
        layout = mio.read_station_csv(args.coords)
        return build_gaussian_kernel_graph(layout, args.sigma1_sq, args.sigma2)
    return mio.read_graph_json(name)


def _cmd_graph(args, parser: _Parser) -> int:
    if args.kind in ("zero", "complete") and args.p is None:
        parser.error(f"--kind {args.kind} requires --p")
    signal = None
    if args.kind == "correlation":
        if args.signal is None:
            parser.error("--kind correlation requires --signal")
        signal = mio.read_signal_csv(args.signal)
    graph = _build_graph(args.kind, "--kind", args, parser, args.p, signal)
    mio.write_graph_json(graph, args.out)
    print(f"wrote {args.out} ({graph.describe()})")
    return 0


def _cmd_entropy(args, parser: _Parser) -> int:
    signal = mio.read_signal_csv(args.input)
    config = EmbeddingConfig(m=args.m, c=args.c, max_scale=args.max_scale)
    if args.method == "mvdeg":
        graph = _build_graph(args.graph, "--graph", args, parser, signal.p, signal)
        if graph.n != signal.p:
            raise DimensionError(
                f"graph has {graph.n} vertices but {args.input} has {signal.p} channels"
            )
        curve = mvdeg_curve(signal, graph, config)
    elif args.method == "classical":
        curve = classical_mvde_curve(signal, config, pattern_cap=args.cap)
    else:  # mde
        if signal.p != 1:
            raise DimensionError(
                f"--method mde needs a single-channel signal, got p={signal.p}"
            )
        curve = univariate_mde(signal.values[0], config)
    mio.write_curves_csv([curve], args.out)
    sidecar = f"{args.out}.json"
    mio.write_curves_json(
        [curve],
        sidecar,
        config={
            "input": str(args.input),
            "method": args.method,
            "graph": curve.graph,
            **asdict(config),
            "package": f"mvdeg {_VERSION}",
        },
    )
    defined = sum(1 for r in curve.records if r.defined)
    undefined = config.max_scale - defined
    note = f", {undefined} undefined" if undefined else ""
    print(f"wrote {args.out} and {sidecar} ({defined} scales{note}, method={curve.method})")
    return 0


def _cmd_bench(args, parser: _Parser) -> int:
    n_values = _number_list(args.Ns, "--Ns", parser, int)
    methods = [s.strip() for s in args.methods.split(",") if s.strip()]
    if not methods:
        parser.error("--methods needs at least one method")
    for method in methods:
        if method not in ("mvdeg", "classical"):
            parser.error(f"unknown method {method!r} (expected mvdeg or classical)")
    report = run_timing_sweep(
        n_values, args.p, args.m, args.c,
        methods=methods, seed=args.seed, pattern_cap=args.cap,
    )
    mio.write_timing_report(report, f"{args.out}.json", f"{args.out}.csv")
    for cell in report.cells:
        timing = "refused" if cell.wall_time_s is None else f"{cell.wall_time_s:.6f}s"
        print(
            f"{cell.method:9s} N={cell.n_samples:<7d} {timing:>12s}  "
            f"classical={cell.classical_patterns} graph_bound={cell.graph_bound_patterns}"
        )
    print(f"wrote {args.out}.json and {args.out}.csv")
    return 0


def _cmd_ensemble(args, parser: _Parser) -> int:
    config = EmbeddingConfig(m=args.m, c=args.c, max_scale=args.max_scale)
    n = args.n if args.n is not None else (15000 if args.experiment == "mixture" else 500)
    if args.experiment == "mixture":
        conditions = [(f"F({q})", GeneratorSpec("mixture", 3, n, 0, {"q": q})) for q in range(4)]
        policy = args.graph_policy
    else:
        if args.experiment == "sets":
            pairs = structured_correlation_sets(args.block_rho)
        else:  # graph-compare takes the first degree alone
            degrees = _number_list(args.degrees, "--degrees", parser, float)
            keep = 1 if args.experiment == "graph-compare" else len(degrees)
            # lazy, so each matrix is checked just before its own spec
            pairs = ((f"rho={rho}", uniform_correlation(args.p, rho)) for rho in degrees[:keep])
        conditions = [
            (label, GeneratorSpec("correlated", corr.shape[0], n, 0, {"corr": corr.tolist()}))
            for label, corr in pairs
        ]
        # zero-graph ensembles of correlated signals use the generator's own correlation
        policy = "theoretical" if args.graph_policy == "zero" else args.graph_policy
    if args.experiment == "graph-compare":
        report = compare_graph_policies(conditions[0][1], config, args.realizations, args.seed)
    else:
        report = run_noise_experiment(
            conditions, policy, config, args.realizations, args.seed, label=args.experiment
        )
    mio.write_ensemble_report(report, f"{args.out}.json", f"{args.out}.csv")
    print(
        f"wrote {args.out}.json and {args.out}.csv "
        f"({len(report.curves)} conditions x {report.realizations} realizations)"
    )
    return 0


# ── parser ───────────────────────────────────────────────────────────────────


def _build_parser() -> _Parser:
    parser = _Parser(prog="mvdeg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mvdeg {_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a synthetic signal CSV")
    gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    gen.add_argument("--p", type=int, help="channel count")
    gen.add_argument("--n", type=int, required=True, help="samples per channel")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--q", type=int, help="white channels in a mixture (0..3)")
    gen.add_argument("--corr", help="correlation matrix JSON (for --kind correlated)")
    gen.add_argument("--out", required=True, help="output signal CSV path")
    gen.set_defaults(func=_cmd_generate)

    gr = sub.add_parser("graph", help="build a channel graph JSON")
    gr.add_argument("--kind", required=True, choices=["zero", "complete", "correlation", "gaussian"])
    gr.add_argument("--p", type=int, help="vertex count (zero/complete)")
    gr.add_argument("--signal", help="signal CSV to estimate correlation from")
    gr.add_argument("--coords", help="station CSV (gaussian kernel)")
    gr.add_argument("--sigma1-sq", type=float, dest="sigma1_sq", help="kernel width parameter")
    gr.add_argument("--sigma2", type=float, help="distance cutoff")
    gr.add_argument("--out", required=True, help="output graph JSON path")
    gr.set_defaults(func=_cmd_graph)

    ent = sub.add_parser("entropy", help="entropy-versus-scale curve for a signal CSV")
    ent.add_argument("--input", required=True, help="signal CSV")
    ent.add_argument("--method", choices=["mvdeg", "classical", "mde"], default="mvdeg")
    ent.add_argument(
        "--graph", default="zero",
        help="zero | complete | correlation | gaussian | path to graph JSON",
    )
    ent.add_argument("--coords", help="station CSV (with --graph gaussian)")
    ent.add_argument("--sigma1-sq", type=float, dest="sigma1_sq")
    ent.add_argument("--sigma2", type=float)
    ent.add_argument("--m", type=int, default=4, help="embedding dimension")
    ent.add_argument("--c", type=int, default=6, help="class count")
    ent.add_argument("--max-scale", type=int, default=20, dest="max_scale")
    ent.add_argument("--cap", type=int, default=PATTERN_CAP, help="classical pattern cap")
    ent.add_argument("--out", required=True, help="output curve CSV path")
    ent.set_defaults(func=_cmd_entropy)

    ben = sub.add_parser("bench", help="wall-time sweep over signal lengths")
    ben.add_argument("--Ns", required=True, help="comma-separated signal lengths")
    ben.add_argument("--p", type=int, default=10)
    ben.add_argument("--m", type=int, default=4)
    ben.add_argument("--c", type=int, default=6)
    ben.add_argument("--methods", default="mvdeg,classical")
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--cap", type=int, default=PATTERN_CAP)
    ben.add_argument("--out", required=True, help="output path prefix")
    ben.set_defaults(func=_cmd_bench)

    ens = sub.add_parser("ensemble", help="seeded multi-realization experiments")
    ens.add_argument(
        "--experiment", required=True,
        choices=["mixture", "degrees", "sets", "graph-compare"],
    )
    ens.add_argument("--n", type=int, help="samples per channel (default per experiment)")
    ens.add_argument("--p", type=int, default=3, help="channels (degrees/graph-compare)")
    ens.add_argument("--realizations", type=int, default=40)
    ens.add_argument("--seed", type=int, default=0)
    ens.add_argument("--m", type=int, default=4)
    ens.add_argument("--c", type=int, default=6)
    ens.add_argument("--max-scale", type=int, default=20, dest="max_scale")
    ens.add_argument("--graph-policy", choices=list(GRAPH_POLICIES), default="zero")
    ens.add_argument("--degrees", default="0.95,0.75,0.55,0.35,0.15")
    ens.add_argument("--block-rho", type=float, default=0.9, dest="block_rho")
    ens.add_argument("--out", required=True, help="output path prefix")
    ens.set_defaults(func=_cmd_ensemble)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with _one_blas_thread():  # the hop products are too small to split
            return args.func(args, parser)
    except SystemExit as exit_call:
        code = exit_call.code
        return code if isinstance(code, int) else 0
    except ParseError as err:
        print(f"mvdeg: parse error: {err}", file=sys.stderr)
        return 2
    except (DimensionError, ScaleUndefinedError) as err:
        print(f"mvdeg: dimension error: {err}", file=sys.stderr)
        return 3
    except (MvdegError, MemoryError, OverflowError, ValueError) as err:  # or a size too big
        too_big = ("array is too big", "Maximum allowed dimension exceeded")
        if isinstance(err, ValueError) and not str(err).startswith(too_big):
            raise  # only numpy's refusals to size an array, not every ValueError
        print(f"mvdeg: {err}", file=sys.stderr)
        return 4
    except OSError as err:  # a path that cannot be opened, read or written
        where = "" if err.filename is None else f": {err.filename}"
        print(f"mvdeg: {err.strerror or err}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
