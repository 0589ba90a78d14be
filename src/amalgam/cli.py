"""Command line interface.

Every command reads a JSON config describing the grid, weights, and task
parameters, runs the corresponding computation, and prints a JSON result.
The verify command additionally writes report.json and cases.csv when an
output directory is given.

Exit codes: 0 on success, 1 on configuration or precondition problems,
2 when a hypothesis gate fails or a verification run records violations.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import MISSING, fields, is_dataclass
from typing import Optional

from .errors import AmalgamError, ConfigurationError, HypothesisError
from .expressions import EXPRESSION_LANGUAGE
from .grid import Grid, Region, region_family, sample, write_function_csv
from .harness import (
    THEOREMS,
    BumpParams,
    ExperimentSpec,
    bmo_lemma_check,
    bump_check,
    theorem_experiment,
)
from .operators import Kernel, apply_operator, dini_integrals
from .orlicz import holder_check
from .spaces import AmalgamSpec, SpaceParams, amalgam_norm_detail, bmo_norm
from .weights import doubling_profile, muckenhoupt_characteristic, weight_from_expression

__all__ = ["main"]

# config key -> dataclass field, where the two differ
_ALIASES = {"kernel": "kernel_tag", "component": "riesz_component", "symbol": "b_expr"}
_ALIASES.update({key: f"{key}_expr" for key in ("w", "u", "v", "mu")})
_KEY_OF = {name: key for key, name in _ALIASES.items()}

# ExperimentSpec fields read from the experiment.weights block, and from the
# operator and family blocks of the other commands
_WEIGHT_FIELDS = {"w_expr", "u_expr", "v_expr", "mu_expr"}
_OPERATOR_FIELDS = {"kernel_tag", "theta", "eps_nodes", "riesz_component"}
_FAMILY_FIELDS = {"shape", "sizes", "center_stride"}


def _integer(value) -> int:
    # int() would truncate 1.9 and read true as 1
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _number(value) -> float:
    if isinstance(value, bool):
        raise TypeError("not a number")
    return float(value)


def _floats(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError("not a list")
    return tuple(_number(x) for x in value)


# annotated type (or type of a literal default) -> coercion, what it expects
_NUMBERS = {
    "int": (_integer, "an integer"),
    "float": (_number, "a number"),
    "Optional[float]": (_number, "a number"),
    "tuple": (_floats, "a list of numbers"),
    "Tuple[float, ...]": (_floats, "a list of numbers"),
}


def _coerce(value, kind: str, path: str):
    if kind not in _NUMBERS:
        return value
    convert, expected = _NUMBERS[kind]
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{path}: expected {expected}, got {value!r}") from None


def _object(block, path: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigurationError(f"{path}: expected an object")
    return block


def _schema(schema, names) -> dict:
    """Config key -> (field name, type, default) of a literal dict or a dataclass."""
    if isinstance(schema, dict):
        return {key: (key, type(d).__name__, d) for key, d in schema.items()}
    table = {}
    for f in fields(schema):
        if names is not None and f.name not in names:
            continue
        if f.default is not MISSING:
            default = f.default
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            continue
        table[_KEY_OF.get(f.name, f.name)] = (f.name, f.type, default)
    return table


def _read(block, schema, path: str, names=None, **defaults) -> dict:
    """Values of one config block, by field name.

    schema is a dict of key -> default, or a dataclass whose fields with a
    default (only those in names, when given) are the keys, renamed by
    _ALIASES.  Unknown keys are rejected; a missing key takes the default,
    or the one passed in defaults.  Numbers are coerced by the annotated
    type, and a field whose default is a dataclass is read as a nested block.
    """
    table = _schema(schema, names)
    for key in _object(block, path):
        if key not in table:
            raise ConfigurationError(f"{path}: unknown field {key!r}")
    out = {}
    for key, (name, kind, default) in table.items():
        if key not in block:
            out[name] = defaults.get(name, default)
        elif is_dataclass(default):
            out[name] = type(default)(**_read(block[key], type(default), f"{path}.{key}"))
        else:
            out[name] = _coerce(block[key], kind, f"{path}.{key}")
    return out


# each command's top-level config keys and their defaults
_CONFIGS = {
    "norm": {"grid": {}, "family": {}, "weights": {}, "function": None, "space": {}},
    "weights": {"grid": {}, "family": {}, "weight": None, "p": 2.0},
    "holder": dict(
        grid={}, function=None, function2=None, weight=None, pairing="llogl_expl", p=2.0
    ),
    "operator": {"grid": {}, "function": None, "symbol": None, "operator": {}},
    "bump": {"grid": {}, "family": {}, "weights": {}, "bump": {}},
    "bmo": {"grid": {}, "family": {}, "symbol": None, "lemma": None},
    "verify": {"experiment": {}},
}


def _load_config(args) -> dict:
    cfg, path = {}, args.config
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from exc
    return _read(cfg, _CONFIGS[args.command], "config")


def _build_grid(cfg: dict) -> Grid:
    return Grid(**_read(cfg["grid"], Grid, "grid"))


def _build_family(cfg: dict, grid: Grid):
    # the experiment's family, with a center every 1/16 of an axis
    stride = max(1, grid.points_per_axis // 16)
    block = _read(cfg["family"], ExperimentSpec, "family", _FAMILY_FIELDS, center_stride=stride)
    return region_family(grid, **block)


def _require(cfg: dict, key: str, command: str):
    if cfg[key] is None:
        raise ConfigurationError(f"{command} needs a {key!r} expression")
    return cfg[key]


def _weight(expression, grid: Grid):
    return None if expression is None else weight_from_expression(expression, grid)


def _attrs(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _print(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n")


def _cmd_language(_args) -> int:
    sys.stdout.write(EXPRESSION_LANGUAGE)
    return 0


def _cmd_norm(args) -> int:
    cfg = _load_config(args)
    grid = _build_grid(cfg)
    family = _build_family(cfg, grid)
    f = sample(_require(cfg, "function", "norm"), grid)
    weights = _read(cfg["weights"], {"inner": None, "outer": None}, "weights")
    schema = {"p": 1.0, "alpha": 2.0, "q": math.inf, "variant": AmalgamSpec.variant}
    space = _read(cfg["space"], schema, "space")
    spec = AmalgamSpec(
        SpaceParams(space["p"], space["alpha"], space["q"]),
        family,
        _weight(weights["inner"], grid),
        _weight(weights["outer"], grid),
        space["variant"],
    )
    detail = amalgam_norm_detail(f, spec)
    _print(_attrs(detail, "value", "argmax_size", "argmax_center"))
    return 0


def _cmd_weights(args) -> int:
    cfg = _load_config(args)
    grid = _build_grid(cfg)
    family = _build_family(cfg, grid)
    w = weight_from_expression(_require(cfg, "weight", "weights"), grid)
    p = cfg["p"]
    out = {"characteristic": muckenhoupt_characteristic(w, p, family), "p": p}
    profile = doubling_profile(w, family)
    out.update(_attrs(profile, "doubling_constant", "reverse_doubling_constant"))
    out.update(_attrs(profile, "comparison_exponent", "comparison_constant"))
    _print(out)
    return 0


def _cmd_operator(args) -> int:
    cfg = _load_config(args)
    grid = _build_grid(cfg)
    f = sample(_require(cfg, "function", "operator"), grid)
    block = _read(cfg["operator"], ExperimentSpec, "operator", _OPERATOR_FIELDS)
    kernel = Kernel(
        block["kernel_tag"], grid.dim, block["theta"], component=block["riesz_component"]
    )
    eps = block["eps_nodes"] * grid.spacing
    b = None if cfg["symbol"] is None else sample(cfg["symbol"], grid)
    image = apply_operator(kernel, f, eps, b)
    di = dini_integrals(kernel.theta)
    summary = {
        "epsilon": eps,
        "kernel": kernel.tag,
        "dini": di.dini,
        "log_dini": di.log_dini,
        "max_abs": float(abs(image.values).max()),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "image.csv")
        write_function_csv(image, path)
        summary["image_csv"] = path
    _print(summary)
    return 0


def _cmd_holder(args) -> int:
    cfg = _load_config(args)
    grid = _build_grid(cfg)
    f = sample(_require(cfg, "function", "holder"), grid)
    g = sample(_require(cfg, "function2", "holder"), grid)
    result = holder_check(
        f, g, pairing=cfg["pairing"], weight=_weight(cfg["weight"], grid), p=cfg["p"]
    )
    _print(_attrs(result, "pairing", "lhs", "rhs", "ratio", "holds"))
    return 0 if result.holds else 2


def _cmd_bump(args) -> int:
    cfg = _load_config(args)
    grid = _build_grid(cfg)
    family = _build_family(cfg, grid)
    weights = _read(cfg["weights"], ExperimentSpec, "weights", {"u_expr", "v_expr"})
    u = weight_from_expression(weights["u_expr"], grid)
    v = weight_from_expression(weights["v_expr"], grid)
    params = BumpParams(**_read(cfg["bump"], BumpParams, "bump"))
    result = bump_check(u, v, params, family)
    _print(_attrs(result, "value", "mode", "argmax_center", "argmax_size"))
    return 0


def _cmd_bmo(args) -> int:
    cfg = _load_config(args)
    grid = _build_grid(cfg)
    family = _build_family(cfg, grid)
    b = sample(_require(cfg, "symbol", "bmo"), grid)
    out = {"oscillation_norm": bmo_norm(b, family)}
    if cfg["lemma"] is not None:
        size = grid.half_width / 32.0
        schema = dict(center=(0.0,) * grid.dim, size=size, jmax=4, p=None, weight=None)
        lemma = _read(cfg["lemma"], schema, "lemma")
        result = bmo_lemma_check(
            b,
            Region("ball", lemma["center"], lemma["size"]),
            family,
            jmax=lemma["jmax"],
            p=None if lemma["p"] is None else _coerce(lemma["p"], "float", "lemma.p"),
            w=_weight(lemma["weight"], grid),
        )
        out["lemma"] = _attrs(result, "diffs", "growth_ratios", "weighted_ratios")
    _print(out)
    return 0


def _build_experiment(theorem: str, block, seed: Optional[int]) -> ExperimentSpec:
    block = dict(_object(block, "experiment"))
    weights = block.pop("weights", {})
    kwargs = _read(weights, ExperimentSpec, "experiment.weights", _WEIGHT_FIELDS)
    names = {f.name for f in fields(ExperimentSpec)} - _WEIGHT_FIELDS
    kwargs.update(_read(block, ExperimentSpec, "experiment", names))
    if seed is not None:
        kwargs["seed"] = seed
    return ExperimentSpec(theorem, **kwargs)


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    spec = _build_experiment(args.theorem, cfg["experiment"], args.seed)
    report = theorem_experiment(
        spec, refinements=args.refine, eps_stability=not args.no_eps_stability, strict=args.strict
    )
    payload = report.to_dict()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(args.out, "cases.csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(report.csv_rows())
    for h in report.hypotheses:
        state = "ok" if h.passed else "FAILED"
        sys.stdout.write(f"hypothesis {h.name}: {state} ({h.detail})\n")
    sys.stdout.write(
        f"experiment {report.experiment}: max ratio {report.max_ratio!r} "
        f"at {report.argmax_label or 'n/a'}\n"
    )
    for key, value in sorted(report.stability.items()):
        sys.stdout.write(f"stability {key}: max ratio drift {value!r}\n")
    if report.violations:
        sys.stdout.write(f"violations: {', '.join(report.violations)}\n")
        return 2
    if not report.hypotheses_ok:
        return 2
    return 0


def _levels(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amalgam",
        description="numerical toolkit for weighted amalgam space estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lang = sub.add_parser("language", help="print the expression language reference")
    p_lang.set_defaults(func=_cmd_language)

    for name, fn, help_text in (
        ("norm", _cmd_norm, "weighted amalgam norm of a function over a region family"),
        ("weights", _cmd_weights, "A_p characteristic and doubling profile of a weight"),
        ("holder", _cmd_holder, "test a Holder-type product inequality on two functions"),
        ("operator", _cmd_operator, "apply a truncated operator to a function"),
        ("bump", _cmd_bump, "two-weight bump condition of u and v over a family"),
        ("bmo", _cmd_bmo, "BMO norm of a symbol, and optionally the BMO lemma check"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to a JSON config")
        if fn is _cmd_operator:
            sp.add_argument("--out", default=None, help="directory for the image CSV")
        sp.set_defaults(func=fn)

    p_ver = sub.add_parser("verify", help="run a ratio experiment for one estimate")
    p_ver.add_argument("theorem", choices=THEOREMS)
    p_ver.add_argument("--config", default=None, help="path to a JSON config; defaults if omitted")
    p_ver.add_argument("--out", default=None, help="directory for report.json and cases.csv")
    p_ver.add_argument("--refine", type=_levels, default=1, help="grid refinement passes")
    p_ver.add_argument("--seed", type=int, default=None, help="override the corpus seed")
    p_ver.add_argument("--strict", action="store_true", help="fail fast on hypothesis gates")
    p_ver.add_argument(
        "--no-eps-stability",
        action="store_true",
        help="skip the truncation halving pass",
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AmalgamError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
