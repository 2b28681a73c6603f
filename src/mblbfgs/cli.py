"""Command-line front end for running experiment grids.

Flags may also come from a plain ``key=value`` file (one per line, using the
flag names without the leading dashes); a flag given on the command line
replaces the file's values for that flag. Exit codes: 0 success, 1 usage
error, 2 data error, 3 a run aborted (numeric, divergence or redraws) in at
least one cell.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .driver import METHODS, RunConfig, StepSchedule
from .errors import ConfigurationError, DataError, MblbfgsError, UsageError
from .experiment import ExperimentSpec, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

STRATEGIES = {"1": "strategy1", "2": "strategy2", "fault": "fault"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise UsageError(message)


def parse_step(text: str) -> StepSchedule:
    kind, _, rest = text.partition(":")
    try:
        if kind == "constant":
            return StepSchedule("constant", float(rest))
        if kind == "diminishing":
            return StepSchedule("diminishing", float(rest))
        if kind == "sqrt":
            c, tau = rest.split(",")
            return StepSchedule("sqrt_horizon", float(c), int(tau))
    except (ValueError, ConfigurationError) as exc:
        raise UsageError(f"bad --step value {text!r}: {exc}") from None
    raise UsageError(f"bad --step value {text!r}: expected "
                     "constant:<a>, diminishing:<b> or sqrt:<c>,<tau>")


def parse_scaling(text: str):
    if text == "bb":
        return "bb"
    if text.startswith("fixed:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad --scaling value {text!r}") from None
    raise UsageError(f"bad --scaling value {text!r}: expected bb or fixed:<g>")


def parse_synthetic(text: str) -> tuple:
    parts = _float_list(text)
    if len(parts) != 4:
        raise UsageError("--synthetic expects n,d,nnz,margin")
    return tuple(parts)


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"bad numeric list {text!r}") from None


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise UsageError(f"bad integer list {text!r}") from None


def build_parser() -> _Parser:
    """Every flag defaults to ``None``, "not given"; its ``dest`` names the
    ``ExperimentSpec`` or ``RunConfig`` field it sets, ``--strategy`` aside."""
    p = _Parser(prog="mblbfgs", description="Multi-batch L-BFGS experiment runner. "
                "r, o, p and seed values are comma lists; a flag left out takes "
                "the default of ExperimentSpec or RunConfig.")
    p.add_argument("--config", help="key=value file; flags given replace its values")
    p.add_argument("--dataset", dest="dataset_path", help="LIBSVM training data file")
    p.add_argument("--synthetic", type=parse_synthetic, help="n,d,nnz,margin to generate")
    p.add_argument("--data-seed", type=int)
    p.add_argument("--objective", choices=["logistic_l2", "sigmoid_lsq", "quadratic"])
    p.add_argument("--sigma", type=float,
                   help="regularization; defaults to 1/n for logistic_l2")
    p.add_argument("--method", dest="methods", action="append",
                   help=f"one of {', '.join(METHODS)}; repeatable")
    p.add_argument("--strategy", choices=STRATEGIES, help="sets RunConfig.mode")
    p.add_argument("--batch-frac", dest="batch_fracs", type=_float_list, help="r values")
    p.add_argument("--overlap-frac", dest="overlap_fracs", type=_float_list, help="o values")
    p.add_argument("--nodes", type=int)
    p.add_argument("--fail-prob", dest="fail_probs", type=_float_list, help="p values")
    p.add_argument("--memory", type=int)
    p.add_argument("--cautious-eps", type=float)
    p.add_argument("--scaling", type=parse_scaling, help="bb or fixed:<g>")
    p.add_argument("--step", dest="schedules", type=parse_step, action="append",
                   help="constant:<a>, diminishing:<b> or sqrt:<c>,<tau>; repeatable")
    p.add_argument("--epochs", type=float)
    p.add_argument("--seed", dest="seeds", type=_int_list)
    p.add_argument("--trace-stride", type=int)
    p.add_argument("--reshard-each-epoch", action="store_true", default=None)
    p.add_argument("--out", dest="out_dir",
                   help="output directory (default runs)")
    return p


_YES, _NO = ("1", "true", "yes"), ("0", "false", "no")


def _read_config_file(path) -> list:
    """Turn key=value lines into argv tokens, preserving file order."""
    argv = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key == "reshard-each-epoch":
                    if value.lower() in _YES:
                        argv.append("--reshard-each-epoch")
                    elif value.lower() not in _NO:
                        raise UsageError(f"{path}:{lineno}: reshard-each-epoch expects one "
                                         f"of {', '.join(_YES + _NO)}, not {value!r}")
                    continue
                argv.extend([f"--{key}", value])
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return argv


def build_spec(args) -> ExperimentSpec:
    """The spec of the flags given; a flag left out keeps the default of
    ``ExperimentSpec`` or, for a run parameter, of ``RunConfig``."""
    given = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
    if "strategy" in given:
        given["mode"] = STRATEGIES[given.pop("strategy")]
    run_fields = {f.name for f in fields(RunConfig)}
    base = RunConfig(**{k: given.pop(k) for k in list(given) if k in run_fields})
    return ExperimentSpec(base=base, **given)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            from_file = parser.parse_args(_read_config_file(args.config))
            if from_file.config is not None:
                raise UsageError(f"config file {args.config} names another config file")
            for key, value in vars(from_file).items():
                if getattr(args, key) is None:  # not given on the command line
                    setattr(args, key, value)
        spec = build_spec(args)
        result = run_experiment(spec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MblbfgsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for name, status in result.statuses:
        print(f"{name}: {status}")
    print(f"manifest: {result.manifest_path}")
    return EXIT_NUMERIC if result.aborted_cells else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
