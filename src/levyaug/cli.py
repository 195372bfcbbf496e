"""Command-line surface.

Four subcommands bind the library into reproducible batch runs:

* ``thin``      - dataset file -> pseudo-example file
* ``train``     - pseudo-example file + originals -> serialized model + CV report
* ``simulate``  - built-in benchmark spec -> sweep CSV (+ optional SVG chart);
  prints the mean test error per (n, alpha) and the failed-cell count
* ``limit``     - originals -> strong-thinning (alpha -> 0) model

Every command writes a ``<output>.manifest.json`` next to its artifact
recording the command line, seed, config, config hash and library version.
The config is every flag of the command as parsed (paths as given), plus
what the run derived: the file's ``family`` (``thin``, ``limit``), the
``chosen_lambda`` (``train``), ``calibrated`` (``limit``) and the ``sweep``
record (``simulate``).  The hash covers the whole config, so it also covers
``--jobs``, whose default is the number of usable cores.  Apart from the
manifest timestamp, rerunning a command with the same inputs and seed
reproduces its outputs byte for byte.  Only ``thin`` and ``simulate``
draw random numbers, so only they take ``--seed`` (default
``LEVYAUG_SEED``, else 0) and read that variable, where a value that is not
an integer is a usage error (exit 2); ``train`` and ``limit`` ignore it and
record a null seed.

scipy is not loaded by ``import levyaug.cli`` or by ``thin``; the commands
that solve (``train``, ``simulate``, ``limit``) load it once as they start.

Exit codes: 0 success, 2 input format error or a file that cannot be read or
written, 3 family/domain violation, 4 optimization failure.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from ._blas import load_scipy
from .dataio import (
    read_dataset,
    read_matrix,
    read_pseudo_dataset,
    write_pseudo_dataset,
)
from .errors import DataFormatError, LevyAugError, OptimizationError, ParameterError
from .families import FamilyKind, gaussian_family
from .logistic import TrainConfig, calibrate, fit_logistic_detailed, save_model
from .rng import RngState
from .simulation import (
    GaussianSimSpec,
    PoissonSimSpec,
    render_sweep_svg,
    run_alpha_sweep,
    write_sweep_csv,
)
from .strong_thinning import fit_strong_thinning
from .thinning import ThinningConfig, generate_pseudo_examples

_FAMILY_ALIASES = {
    "poisson": FamilyKind.POISSON,
    "gauss": FamilyKind.GAUSSIAN,
    "gaussian": FamilyKind.GAUSSIAN,
    "gamma": FamilyKind.GAMMA,
    "wishart": FamilyKind.WISHART,
}

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_DOMAIN = 3
EXIT_OPTIM = 4


def _env_seed() -> str:
    """``--seed``'s default, as text: ``LEVYAUG_SEED``, else "0".  argparse
    converts a text default only for a command that has the option and was
    not given it, so ``train`` and ``limit`` never parse the variable."""
    return os.environ.get("LEVYAUG_SEED") or "0"


def _seed(text: str) -> int:
    """``--seed``'s type.  A malformed value is a usage error (exit 2)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer for --seed or LEVYAUG_SEED, got {text!r}"
        ) from None


def _write_manifest(args, out_path: str, **derived) -> None:
    """Write ``<out_path>.manifest.json``.  Its ``command`` is the argv
    :func:`main` parsed, its ``config`` every flag of the command as parsed,
    then the values the run ``derived`` (one wins over a flag of the same
    name), and ``config_hash`` covers all of the config."""
    config = {key: value for key, value in vars(args).items() if key not in ("func", "argv")}
    config.update(derived)
    payload = json.dumps(config, sort_keys=True, default=str).encode()
    manifest = {
        "format": "levyaug-run-manifest v1",
        "command": " ".join(["levyaug", *args.argv]),
        "seed": config.get("seed"),
        "config_hash": hashlib.sha256(payload).hexdigest(),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config,
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as out:
        json.dump(manifest, out, indent=2, sort_keys=True, default=str)
        out.write("\n")


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_output_dirs(*paths) -> None:
    """The directory of each output path given exists, so that a run does
    not stop after writing some of its outputs."""
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, "no such directory for the output", path)


def _read_with_flags(path, args):
    """The dataset ``path``, then ``--sigma`` (read before the file; only a
    Gaussian file takes a covariance), then the ``--family`` check."""
    sigma = read_matrix(args.sigma) if args.sigma else None
    family, examples = read_dataset(path)
    if sigma is not None:
        if family.kind is not FamilyKind.GAUSSIAN:
            raise ParameterError("a covariance override only applies to Gaussian data")
        family = gaussian_family(family.d, sigma)
    if args.family is not None and _FAMILY_ALIASES[args.family] is not family.kind:
        raise DataFormatError(
            f"input file declares family {family.kind.value!r}, not {args.family!r}"
        )
    return family, examples


def _comma_list(convert, what: str):
    """An argparse ``type``: a comma list of ``convert`` values as a tuple.
    A malformed list is a usage error (exit 2), not a traceback."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {what}, got {text!r}"
            ) from None

    return parse


_floats = _comma_list(float, "numbers")


def _parse_lambda(text: str):
    """'auto' (None: the default grid), one value, or a comma grid."""
    if text == "auto":
        return None
    values = _floats(text)
    return values[0] if len(values) == 1 else values


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_thin(args) -> int:
    family, examples = _read_with_flags(args.input, args)
    if args.t_const is not None:
        examples = replace(examples, t=args.t_const)
    cfg = ThinningConfig(
        alpha=args.alpha, n_pseudo=args.n_pseudo, seed=RngState(args.seed)
    )
    pseudo = generate_pseudo_examples(examples, cfg, family)
    write_pseudo_dataset(args.output, family, pseudo)
    _write_manifest(args, args.output, family=family.kind.value)
    return EXIT_OK


def _cmd_train(args) -> int:
    load_scipy()
    family, pseudo = read_pseudo_dataset(args.pseudo)
    originals_family, originals = read_dataset(args.originals)
    if originals_family.kind is not family.kind:
        raise DataFormatError("pseudo-example and originals files declare different families")
    if originals_family.d != family.d:
        raise DataFormatError(
            f"pseudo-example file has d={family.d} but originals file has "
            f"d={originals_family.d}"
        )
    cfg = TrainConfig(ridge_lambda=args.ridge_lambda, n_folds=args.folds)
    model, report = fit_logistic_detailed(pseudo, cfg)
    model = calibrate(model, originals)
    save_model(model, args.out, family)
    with open(args.out + ".cv.csv", "w", encoding="utf-8") as out:
        out.write("lambda,mean_heldout_loss,mean_heldout_error\n")
        for lam, loss, err in report.cv_table:
            out.write(f"{lam!r},{loss!r},{err!r}\n")
        if not report.cv_table:
            out.write(f"{report.chosen_lambda!r},nan,nan\n")
    _write_manifest(args, args.out, chosen_lambda=report.chosen_lambda)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    load_scipy()
    _check_output_dirs(args.out, args.plot)
    spec = (GaussianSimSpec if args.spec == "gauss" else PoissonSimSpec)()
    train_cfg = TrainConfig(ridge_lambda=args.lambdas, n_folds=args.folds)
    result = run_alpha_sweep(
        spec,
        alphas=args.alphas,
        n_grid=args.n_grid,
        n_pseudo=args.n_pseudo,
        replicates=args.replicates,
        seed=args.seed,
        train_cfg=train_cfg,
        standardize=args.standardize,
        jobs=args.jobs,
    )
    write_sweep_csv(result, args.out, timing="measured" if args.timing else "zero")
    if args.plot:
        render_sweep_svg(result, args.plot)
    _write_manifest(args, args.out, sweep=result.manifest())
    for msg in result.failures:
        print(f"levyaug: cell failed: {msg}", file=sys.stderr)
    _print_sweep_summary(result)
    return EXIT_OK


def _print_sweep_summary(result) -> None:
    """Mean test error per (n, alpha) over the cells that did not fail."""
    for (n, alpha), err in result.mean_errors().items():
        print(f"n={n:<5d} alpha={alpha:<5g} mean_error={err:.4f}")
    print(f"{len(result.failures)} failed cells (see the manifest)")


def _cmd_limit(args) -> int:
    load_scipy()
    family, originals = _read_with_flags(args.originals, args)
    model = fit_strong_thinning(originals, family, ridge_lambda=args.ridge_lambda)
    if not args.no_calibrate:
        model = calibrate(model, originals)
    save_model(model, args.out, family)
    _write_manifest(
        args, args.out, family=family.kind.value, calibrated=not args.no_calibrate
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyaug",
        description="Data augmentation by thinning exponential-family processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    thin = sub.add_parser("thin", help="generate pseudo-examples from a dataset file")
    thin.add_argument("--input", required=True, help="dataset file")
    thin.add_argument("--output", required=True, help="pseudo-example file to write")
    thin.add_argument("--alpha", type=float, required=True, help="thinning fraction in (0, 1]")
    thin.add_argument(
        "-B", "--n-pseudo", type=int, default=1, help="thinned copies per example"
    )
    thin.add_argument(
        "--family",
        choices=sorted(_FAMILY_ALIASES),
        default=None,
        help="assert the input file's family",
    )
    thin.add_argument(
        "--t-const", type=float, default=None, help="override the t column with a constant"
    )
    thin.add_argument("--sigma", default=None, help="covariance CSV for Gaussian data")
    thin.add_argument("--seed", type=_seed, default=_env_seed())
    thin.set_defaults(func=_cmd_thin)

    train = sub.add_parser("train", help="fit + calibrate a model on pseudo-examples")
    train.add_argument("--pseudo", required=True, help="pseudo-example file")
    train.add_argument("--originals", required=True, help="originals for calibration")
    train.add_argument("--out", required=True, help="model file to write")
    train.add_argument(
        "--ridge-lambda",
        type=_parse_lambda,
        default="auto",
        help="'auto' (CV over the default grid), one value, or a comma grid",
    )
    train.add_argument("--folds", type=int, default=5)
    train.set_defaults(func=_cmd_train)

    sim = sub.add_parser("simulate", help="run a benchmark sweep over (n, alpha)")
    sim.add_argument("--spec", choices=("gauss", "poisson"), required=True)
    sim.add_argument("--out", required=True, help="sweep CSV to write")
    sim.add_argument("--alphas", type=_floats, default="0,0.1,0.25,0.5,0.75,1")
    sim.add_argument(
        "--n-grid",
        type=_comma_list(int, "integers"),
        default=None,
        help="comma list; default: the design's grid",
    )
    sim.add_argument("-B", "--n-pseudo", type=int, default=32)
    sim.add_argument("--replicates", type=int, default=None)
    sim.add_argument("--lambdas", type=_parse_lambda, default="auto")
    sim.add_argument("--folds", type=int, default=5)
    sim.add_argument(
        "--standardize",
        action="store_true",
        help="scale pseudo-feature columns to unit variance before the ridge fit",
    )
    sim.add_argument(
        "--jobs",
        type=int,
        default=_usable_cores(),
        help="worker processes for the sweep's cells (default: the cores this process may use)",
    )
    sim.add_argument("--plot", default=None, help="also render an SVG chart here")
    sim.add_argument(
        "--timing",
        action="store_true",
        help="write measured wall times (breaks byte-reproducibility of the CSV)",
    )
    sim.add_argument("--seed", type=_seed, default=_env_seed())
    sim.set_defaults(func=_cmd_simulate)

    limit = sub.add_parser("limit", help="fit the strong-thinning (alpha -> 0) model")
    limit.add_argument("--originals", required=True)
    limit.add_argument(
        "--family",
        choices=sorted(_FAMILY_ALIASES),
        default=None,
        help="assert the file's family",
    )
    limit.add_argument("--out", required=True)
    limit.add_argument("--ridge-lambda", type=float, default=1e-6)
    limit.add_argument("--sigma", default=None, help="covariance CSV for Gaussian data")
    limit.add_argument("--no-calibrate", action="store_true")
    limit.set_defaults(func=_cmd_limit)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the manifest's command line, not a flag
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"levyaug: input format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:  # a missing or unreadable file, named in the message
        print(f"levyaug: file error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OptimizationError as exc:
        print(f"levyaug: optimization failed: {exc}", file=sys.stderr)
        return EXIT_OPTIM
    except LevyAugError as exc:  # support, parameter, shape, decomposition, degenerate data
        print(f"levyaug: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
