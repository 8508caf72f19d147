"""Command-line front end.

Subcommands: analyze, generate, postprocess, montecarlo, test. Outputs are
reproducible: identical configuration and seed give byte-identical CSV/JSON
payloads; wall-clock timestamps appear only in the per-run manifest.json.

Exit codes: 0 ok, 2 configuration error, 3 numerical non-convergence,
4 insufficient data.
"""
from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .density import invariant_density
from .entropy import entropy_rate
from .errors import (ChaosRngError, ConfigError, DomainError,
                     InsufficientDataError, ResourceLimitError)
from .maps import (BUILTIN_NAMES, BitGen, DEFAULT_THRESHOLDS, PiecewiseMap,
                   builtin, from_json)
from .montecarlo import PerturbationSpec, mc_profile
from .postproc import (DEFAULT_DITHER, build_typical_coder,
                       check_rate_bound, encode, generate_bits, read_stream,
                       von_neumann, vn_rate_exact, write_stream)
from .stattests import ALL_TESTS, battery
from .symbolic import refine

_EXIT_DOC = ("exit codes: 0 ok, 2 configuration error, "
             "3 numerical non-convergence, 4 insufficient data")


def _common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--out-dir", default=".", help="directory for output files")


def _format_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="format of the summary report (default json)")


def _map_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", required=True,
                   help=f"builtin name ({', '.join(BUILTIN_NAMES)}) or a JSON map file")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="builtin map parameter, e.g. slope=1.5 (repeatable)")
    p.add_argument("--threshold", type=float, default=None,
                   help="bit threshold (default: per-map convention)")


def _resolve_map(args) -> tuple[PiecewiseMap, BitGen]:
    params = {}
    for item in args.param:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--param expects NAME=VALUE, got {item!r}")
        try:
            params[name] = float(value)
        except ValueError:
            raise ConfigError(f"--param {name}: {value!r} is not a number") from None
    path = Path(args.map)
    if path.suffix == ".json" or path.is_file():
        if params:
            raise ConfigError("--param applies to builtin maps only")
        if not path.is_file():
            raise ConfigError(f"map file {path} is not a file")
        m = from_json(path.read_text())
        threshold = args.threshold if args.threshold is not None else 0.5
    else:
        m = builtin(args.map, **params)
        threshold = (args.threshold if args.threshold is not None
                     else DEFAULT_THRESHOLDS[args.map])
    return m, BitGen(threshold)


def _out_dir(args) -> Path:
    d = Path(args.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_manifest(args, command: str, config: dict) -> None:
    manifest = {
        "tool": "chaosrng",
        "version": __version__,
        "command": command,
        "config": config,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    (_out_dir(args) / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    if args.bins < 64 or args.bins & (args.bins - 1):
        raise ConfigError(f"--bins must be a power of two >= 64, got {args.bins}")
    m, gen = _resolve_map(args)
    out = _out_dir(args)
    f = invariant_density(m, args.bins)
    table = refine(m, gen, args.depth, density=f)
    report = entropy_rate(m, gen, density=f, n_max=args.depth, table=table)
    (out / "density.csv").write_text(f.to_csv())
    (out / "sequence_table.csv").write_text(table.to_csv())
    (out / "entropy_report.json").write_text(report.to_json() + "\n")
    _write_manifest(args, "analyze", {
        "map": args.map, "params": dict(m.params), "threshold": gen.threshold,
        "bins": args.bins, "depth": args.depth, "seed": args.seed,
    })
    print(f"analyze {m.label}: H={report.entropy_rate:.4f} bias={report.bias:.4f} "
          f"lyapunov={report.lyapunov:.4f}")
    return 0


def cmd_generate(args) -> int:
    m, gen = _resolve_map(args)
    out = _out_dir(args)
    f = invariant_density(m)
    stream = generate_bits(m, gen, f, args.count, args.seed, dither=args.dither)
    write_stream(out / args.out, stream)
    _write_manifest(args, "generate", {
        "map": args.map, "params": dict(m.params), "threshold": gen.threshold,
        "count": args.count, "seed": args.seed, "dither": args.dither,
        "out": args.out,
    })
    print(f"generate {m.label}: wrote {len(stream)} bits to {out / args.out}")
    return 0


def cmd_postprocess(args) -> int:
    out = _out_dir(args)
    stream = read_stream(args.input)
    table = None
    if args.map is not None:
        m, gen = _resolve_map(args)
        depth = max(args.n, 2) if args.algo == "typical-set" else 2
        table = refine(m, gen, depth)
    if args.algo == "von-neumann":
        result, rate = von_neumann(stream)
        report = {"algo": "von-neumann", "input_bits": len(stream),
                  "output_bits": len(result), "rate": rate}
        if table is not None:
            report["rate_exact"] = vn_rate_exact(table)
    else:
        if table is None:
            raise ConfigError("typical-set post-processing needs --map for exact "
                              "word probabilities")
        coder = build_typical_coder(table, args.n, args.epsilon)
        result = encode(coder, stream)
        report = {"algo": "typical-set", "n": args.n, "epsilon": args.epsilon,
                  "k": coder.k, "rate": coder.rate, "coverage": coder.coverage,
                  "typical_words": coder.n_typical, "input_bits": len(stream),
                  "output_bits": len(result)}
    if table is not None:
        verdict = check_rate_bound(table, report["rate"])
        report["rate_bound"] = {"verdict": verdict.verdict,
                                "entropy_rate": verdict.entropy_rate,
                                "margin": verdict.margin}
    write_stream(out / args.out, result)
    _write_report(out / "rate_report", report, args.format)
    _write_manifest(args, "postprocess", {
        "algo": args.algo, "input": str(args.input), "out": args.out,
        "map": args.map, "n": args.n, "epsilon": args.epsilon, "seed": args.seed,
    })
    print(f"postprocess {args.algo}: {len(stream)} -> {len(result)} bits "
          f"(rate {report['rate']:.4f})")
    return 0


def cmd_montecarlo(args) -> int:
    m, gen = _resolve_map(args)
    out = _out_dir(args)
    spec = PerturbationSpec(
        sigma_slope=args.sigma if args.sigma_slope is None else args.sigma_slope,
        sigma_break=args.sigma if args.sigma_break is None else args.sigma_break,
        sigma_offset=args.sigma if args.sigma_offset is None else args.sigma_offset,
        trials=args.trials, seed=args.seed)
    profile = mc_profile(m, gen, spec, n_entropy=args.depth, n_bins=args.bins)
    (out / "trials.csv").write_text(profile.to_csv())
    (out / "histogram.json").write_text(profile.to_json() + "\n")
    _write_manifest(args, "montecarlo", {
        "map": args.map, "params": dict(m.params), "threshold": gen.threshold,
        "trials": spec.trials, "sigma_slope": spec.sigma_slope,
        "sigma_break": spec.sigma_break, "sigma_offset": spec.sigma_offset,
        "depth": args.depth, "bins": args.bins, "seed": args.seed,
    })
    print(f"montecarlo {m.label}: mean H={profile.mean:.4f} std={profile.std:.4f} "
          f"min={profile.min_rate:.4f} failures={profile.failures}/{profile.trials}")
    return 0


def cmd_test(args) -> int:
    out = _out_dir(args)
    stream = read_stream(args.input)
    names = ALL_TESTS if args.tests == "all" else tuple(args.tests.split(","))
    results = battery(stream, tests=names, alpha=args.alpha, m=args.block_len)
    payload = [r.to_dict() for r in results]
    if args.format == "json":
        (out / "results.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = ["test,statistic,p_value,pass,alpha"]
        lines += [f"{r.test_name},{r.statistic:.12g},{r.p_value:.12g},"
                  f"{str(r.passed).lower()},{r.alpha}" for r in results]
        (out / "results.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(args, "test", {
        "input": str(args.input), "tests": list(names), "alpha": args.alpha,
        "block_len": args.block_len, "seed": args.seed,
    })
    for r in results:
        print(f"{r.test_name}: p={r.p_value:.3g} {'PASS' if r.passed else 'FAIL'}")
    return 0


def _write_report(stem: Path, report: dict, fmt: str) -> None:
    if fmt == "json":
        stem.with_suffix(".json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        flat = {k: v for k, v in report.items() if not isinstance(v, dict)}
        lines = [",".join(flat), ",".join(_csv_cell(v) for v in flat.values())]
        stem.with_suffix(".csv").write_text("\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaosrng",
        description="Analyze chaotic-map random bit generators.",
        epilog=_EXIT_DOC)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="densities, word probabilities, entropy rate",
                       epilog=_EXIT_DOC)
    _common_options(p)
    _map_options(p)
    p.add_argument("--bins", type=int, default=4096, help="density bins (power of two)")
    p.add_argument("--depth", type=int, default=10, help="word length (max 20)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write a raw bit stream", epilog=_EXIT_DOC)
    _common_options(p)
    _map_options(p)
    p.add_argument("--count", type=int, required=True, help="number of bits")
    p.add_argument("--dither", type=float, default=DEFAULT_DITHER,
                   help="trajectory dither amplitude (0 disables)")
    p.add_argument("--out", default="stream.bin", help="output file name")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("postprocess", help="apply a post-processing scheme",
                       epilog=_EXIT_DOC)
    _common_options(p)
    _format_option(p)
    p.add_argument("--algo", choices=("von-neumann", "typical-set"), required=True)
    p.add_argument("--input", required=True, help="input stream file")
    p.add_argument("--out", default="post.bin", help="output stream file name")
    p.add_argument("--map", default=None,
                   help="source map (enables exact rates; required for typical-set)")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--n", type=int, default=10, help="typical-set block length")
    p.add_argument("--epsilon", type=float, default=0.1, help="typicality window")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("montecarlo", help="entropy-rate profile under map jitter",
                       epilog=_EXIT_DOC)
    _common_options(p)
    _map_options(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--sigma", type=float, default=0.01,
                   help="jitter scale for slopes, breakpoints, and offsets")
    p.add_argument("--sigma-slope", type=float, default=None)
    p.add_argument("--sigma-break", type=float, default=None)
    p.add_argument("--sigma-offset", type=float, default=None)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--bins", type=int, default=4096)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("test", help="randomness test battery", epilog=_EXIT_DOC)
    _common_options(p)
    _format_option(p)
    p.add_argument("--input", required=True, help="input stream file")
    p.add_argument("--tests", default="all",
                   help=f"'all' or comma list of {','.join(ALL_TESTS)}")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--block-len", type=int, default=2,
                   help="block length for serial/approx-entropy")
    p.set_defaults(func=cmd_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ChaosRngError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
