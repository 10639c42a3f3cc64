"""Command line interface.

Commands: simulate | coefficients | discover | oracle | evaluate | benchmark
| tail-index. Exit codes: 0 success, 2 validation or usage error, 1 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .ease import ease
from .errors import MEMORY_CAP_BYTES, ValidationError
from .estimators import EstimatorConfig, coefficient_matrix
from .evaluate import benchmark, check_score_capacity, score_order
from .formats import (dataset_from_csv, dataset_to_csv, matrix_from_dict,
                      matrix_to_dict, meta_block, order_names_from_dict,
                      order_to_dict, read_json, results_to_csv, scm_from_dict,
                      scm_node_count, scm_to_dict, score_to_dict, write_json)
from .graph import CausalOrder
from .noise import hill_tail_index
from .oracle import check_capacity, gamma_population, psi_population
from .simulate import GridSpec, SimSetting, set_up_replicate, simulate


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(k=args.k, k_exponent=args.k_exponent, kind=args.kind)


def _config_meta(args) -> dict:
    skip = {"func"}
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip}


def cmd_simulate(args) -> int:
    setting = SimSetting(args.setting, nonlinear_quantile=args.nonlinear_quantile)
    replicate = set_up_replicate(args.seed, MEMORY_CAP_BYTES, setting, args.n, args.p,
                                 args.alpha, 0, args.mode, args.coefficient_law)
    result = simulate(replicate.scm, replicate.drawn, args.n, replicate.data_seed)
    dataset_to_csv(result.data, args.out)
    truth_doc = scm_to_dict(result.truth)
    truth_doc["meta"] = meta_block(args.seed, _config_meta(args))
    write_json(args.truth, truth_doc)
    return 0


def cmd_coefficients(args) -> int:
    data = dataset_from_csv(args.data)
    matrix = coefficient_matrix(data, _estimator_config(args))
    doc = matrix_to_dict(matrix)
    doc["meta"] = meta_block(None, _config_meta(args))
    write_json(args.out, doc)
    return 0


def cmd_discover(args) -> int:
    if (args.matrix is None) == (args.data is None):
        raise ValidationError("give exactly one of --matrix or --data")
    if args.matrix is not None:
        matrix = matrix_from_dict(read_json(args.matrix))
    else:
        data = dataset_from_csv(args.data)
        matrix = coefficient_matrix(data, _estimator_config(args))
    order = ease(matrix)
    names = matrix.names if matrix.names is not None else tuple(
        f"x{j}" for j in range(matrix.p))
    doc = order_to_dict(order, names)
    doc["meta"] = meta_block(None, _config_meta(args))
    write_json(args.out, doc)
    return 0


def cmd_oracle(args) -> int:
    doc = read_json(args.scm)
    check_capacity(scm_node_count(doc))  # before the Dag's per-node lists are built
    scm = scm_from_dict(doc)
    matrix = gamma_population(scm) if args.kind == "gamma" else psi_population(scm)
    doc = matrix_to_dict(matrix)
    doc["meta"] = meta_block(None, _config_meta(args))
    write_json(args.out, doc)
    return 0


def cmd_evaluate(args) -> int:
    doc = read_json(args.truth)
    # before the Dag's per-node lists are built
    check_score_capacity(scm_node_count(doc))
    truth = scm_from_dict(doc)
    order_names = order_names_from_dict(read_json(args.order))
    name_to_node = {truth.node_name(j): j for j in truth.observed}
    if set(order_names) != set(name_to_node):
        raise ValidationError("order names do not match the truth's observed variables")
    order = CausalOrder([name_to_node[name] for name in order_names])
    score = score_order(truth, order)
    doc = score_to_dict(score)
    doc["meta"] = meta_block(None, _config_meta(args))
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


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
    return GridSpec(doc["n"], doc["p"], doc["alpha"], settings=doc.get("settings", ["linear"]),
                    memory_cap_bytes=doc.get("memory_cap_bytes", MEMORY_CAP_BYTES))


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
    doc = {"alpha_hat": estimate.alpha_hat, "xi_hat": estimate.xi_hat,
           "k": estimate.k, "tail": args.tail,
           "meta": meta_block(None, _config_meta(args))}
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _add_estimator_flags(parser, kind_required=False):
    parser.add_argument("--kind", choices=("gamma", "psi"),
                        required=kind_required, default=None if kind_required else "gamma")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=None, help="explicit exceedance count")
    group.add_argument("--k-exponent", type=float, default=None,
                       help="k = floor(n ** exponent); default 0.4")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavytail",
        description="Causal order discovery for heavy-tailed linear SCMs.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a random SCM to data.csv + truth.json")
    p_sim.add_argument("--setting", default="linear",
                       choices=("linear", "hidden_confounders", "nonlinear", "uniform_margins"))
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mode", choices=("real", "positive"), default="real")
    p_sim.add_argument("--coefficient-law", choices=("intervals", "four_point"),
                       default="intervals")
    p_sim.add_argument("--nonlinear-quantile", type=float, default=0.95)
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
    p_orac.add_argument("--kind", choices=("gamma", "psi"), required=True)
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
    p_bench.add_argument("--methods", default="ease_gamma,ease_psi,random_order")
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
