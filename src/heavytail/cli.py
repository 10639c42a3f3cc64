"""Command line interface.

Commands: simulate | coefficients | discover | oracle | evaluate | benchmark
| tail-index. Exit codes: 0 success, 2 validation or usage error, 1 internal
error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .data import KINDS, CoefMatrix
from .ease import ease
from .errors import MEMORY_CAP_BYTES, ValidationError
from .estimators import EstimatorConfig, coefficient_matrix
from .evaluate import METHODS, benchmark, check_score_capacity, score_order
from .formats import (dataset_from_csv, dataset_to_csv, json_text, matrix_from_dict,
                      matrix_to_dict, meta_block, order_names_from_dict,
                      order_to_dict, read_json, results_to_csv, scm_from_dict,
                      scm_node_count, scm_to_dict, score_to_dict, write_json)
from .graph import COEFFICIENT_LAWS, MODES, CausalOrder, GeneratorConfig, Scm
from .noise import hill_tail_index
from .oracle import check_capacity, gamma_population, psi_population
from .simulate import SETTINGS, GridSpec, SimSetting, set_up_replicate, simulate


def _emit(args, doc: dict, path=None, seed=None) -> int:
    """Attach the meta block (seed, resolved flags); write ``doc`` to ``path``, or stdout."""
    config = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
    doc["meta"] = meta_block(seed, config)
    if path is None:
        sys.stdout.write(json_text(doc))
    else:
        write_json(path, doc)
    return 0


def _estimate(args) -> CoefMatrix:
    """The coefficient matrix of the ``--data`` CSV, estimated per the estimator flags."""
    config = EstimatorConfig(k=args.k, k_exponent=args.k_exponent, kind=args.kind)
    return coefficient_matrix(dataset_from_csv(args.data), config)


def _read_scm(path, check) -> Scm:
    """The SCM document at ``path``; ``check`` refuses its node count before the Dag is built."""
    doc = read_json(path)
    check(scm_node_count(doc))
    return scm_from_dict(doc)


def cmd_simulate(args) -> int:
    setting = SimSetting(args.setting, nonlinear_quantile=args.nonlinear_quantile)
    replicate = set_up_replicate(args.seed, MEMORY_CAP_BYTES, setting, args.n, args.p,
                                 args.alpha, 0, args.mode, args.coefficient_law)
    data = simulate(replicate.scm, replicate.drawn, args.n, replicate.data_seed)
    dataset_to_csv(data, args.out)
    return _emit(args, scm_to_dict(replicate.scm), args.truth, args.seed)


def cmd_coefficients(args) -> int:
    return _emit(args, matrix_to_dict(_estimate(args)), args.out)


def cmd_discover(args) -> int:
    if (args.matrix is None) == (args.data is None):
        raise ValidationError("give exactly one of --matrix or --data")
    matrix = (_estimate(args) if args.matrix is None
              else matrix_from_dict(read_json(args.matrix)))
    return _emit(args, order_to_dict(ease(matrix), matrix.names), args.out)


def cmd_oracle(args) -> int:
    scm = _read_scm(args.scm, check_capacity)
    matrix = gamma_population(scm) if args.kind == "gamma" else psi_population(scm)
    return _emit(args, matrix_to_dict(matrix), args.out)


def cmd_evaluate(args) -> int:
    truth = _read_scm(args.truth, check_score_capacity)
    order_names = order_names_from_dict(read_json(args.order))
    name_to_node = {truth.node_name(j): j for j in truth.observed}
    if set(order_names) != set(name_to_node):
        raise ValidationError("order names do not match the truth's observed variables")
    order = CausalOrder([name_to_node[name] for name in order_names])
    return _emit(args, score_to_dict(score_order(truth, order)))


def _load_grid(path) -> GridSpec:
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            try:
                import tomli as tomllib
            except ImportError as exc:
                raise ValidationError(
                    "TOML grids need Python >= 3.11 or the tomli package; use JSON") from exc
        try:
            with open(path, "rb") as fh:
                doc = tomllib.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # TOMLDecodeError, or bytes that are not UTF-8
            raise ValidationError(f"malformed TOML in {path}: {exc}") from exc
    else:
        doc = read_json(path)
    arrays = isinstance(doc, dict) and all(isinstance(doc.get(key), list)
                                           for key in ("n", "p", "alpha"))
    if not arrays or not isinstance(doc.get("settings", []), list):
        raise ValidationError(
            "grid file needs 'n', 'p', and 'alpha' arrays, and 'settings', if given, an array")
    optional = {key: doc[key] for key in ("settings", "memory_cap_bytes") if key in doc}
    return GridSpec(doc["n"], doc["p"], doc["alpha"], **optional)


def cmd_benchmark(args) -> int:
    grid = _load_grid(args.grid)
    methods = tuple(args.methods.split(","))
    rows = benchmark(grid, methods=methods, reps=args.reps, seed=args.seed)
    results_to_csv(rows, args.out)
    return 0


def cmd_tail_index(args) -> int:
    data = dataset_from_csv(args.data)
    column = data.column(data.column_index(args.column))
    if args.tail == "lower":
        column = -column
    estimate = hill_tail_index(column, args.k)
    return _emit(args, {"alpha_hat": estimate.alpha_hat, "xi_hat": estimate.xi_hat,
                        "k": estimate.k, "tail": args.tail})


def _add_estimator_flags(parser, kind_required=False):
    parser.add_argument("--kind", choices=KINDS, required=kind_required,
                        default=None if kind_required else EstimatorConfig.kind)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=None, help="explicit exceedance count")
    group.add_argument("--k-exponent", type=float, default=None,
                       help="k = floor(n ** exponent); default 0.4")


def build_parser() -> argparse.ArgumentParser:
    # choices and defaults are the library's: a dataclass field's default is its class attribute
    parser = argparse.ArgumentParser(
        prog="heavytail",
        description="Causal order discovery for heavy-tailed linear SCMs.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a random SCM to data.csv + truth.json")
    p_sim.add_argument("--setting", default=SimSetting.kind, choices=SETTINGS)
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mode", choices=MODES, default=GeneratorConfig.mode)
    p_sim.add_argument("--coefficient-law", choices=COEFFICIENT_LAWS,
                       default=GeneratorConfig.coefficient_law)
    p_sim.add_argument("--nonlinear-quantile", type=float,
                       default=SimSetting.nonlinear_quantile)
    p_sim.add_argument("--out", required=True, help="output data CSV path")
    p_sim.add_argument("--truth", required=True, help="output truth JSON path")
    p_sim.set_defaults(func=cmd_simulate)

    p_coef = sub.add_parser("coefficients", help="estimate a coefficient matrix from CSV data")
    p_coef.add_argument("--data", required=True)
    _add_estimator_flags(p_coef, kind_required=True)
    p_coef.add_argument("--out", required=True)
    p_coef.set_defaults(func=cmd_coefficients)

    p_disc = sub.add_parser("discover", help="recover a causal order from a matrix or data")
    p_disc.add_argument("--matrix", default=None, help="coefficient matrix JSON")
    p_disc.add_argument("--data", default=None, help="CSV data (estimates the matrix first)")
    _add_estimator_flags(p_disc)
    p_disc.add_argument("--out", required=True)
    p_disc.set_defaults(func=cmd_discover)

    p_orac = sub.add_parser("oracle", help="population coefficient matrix of an SCM")
    p_orac.add_argument("--scm", required=True, help="SCM JSON path")
    p_orac.add_argument("--kind", choices=KINDS, required=True)
    p_orac.add_argument("--out", required=True)
    p_orac.set_defaults(func=cmd_oracle)

    p_eval = sub.add_parser("evaluate", help="score an order against a truth SCM")
    p_eval.add_argument("--order", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("benchmark", help="run a scenario grid and write results CSV")
    p_bench.add_argument("--grid", required=True, help="grid spec JSON (or TOML)")
    p_bench.add_argument("--reps", type=int, default=50)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--methods", default=",".join(METHODS))
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_benchmark)

    p_tail = sub.add_parser("tail-index", help="Hill tail index of one CSV column")
    p_tail.add_argument("--data", required=True)
    p_tail.add_argument("--column", required=True)
    p_tail.add_argument("--k", type=int, required=True)
    p_tail.add_argument("--tail", choices=("upper", "lower"), default="upper")
    p_tail.set_defaults(func=cmd_tail_index)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
