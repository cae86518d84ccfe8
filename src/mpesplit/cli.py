"""Command-line interface: run experiments, convergence studies, scheme
order checks, and catalog listings. Outputs are CSV or JSON; plotting is
left to external tools."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from fractions import Fraction

from . import harness, models, order, schemes


def _parse_number(text: str) -> float:
    """Accept plain floats and fractions like 1/40."""
    if "/" in text:
        try:
            return float(Fraction(text))
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    return float(text)


def _number_list(text: str) -> list:
    return [_parse_number(t) for t in text.split(",")]


def _int_list(text: str) -> list:
    return [int(n) for n in text.split(",")]


def _param(text: str) -> tuple:
    """One --param KEY=VALUE pair; argparse rejects a malformed one (exit 2)."""
    key, sep, val = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"bad --param {text!r}, expected KEY=VALUE")
    return key, _parse_number(val)


FORMATS = ("csv", "json")  # the values of RunConfig.format

# the JSON values a RunConfig field of each annotation takes, as an error names them
_JSON_KINDS = {"int": "an integer", "float": "a number", "bool": "true or false",
               "str": "a string", "dict": "an object of numbers"}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a RunConfig field of this annotation. JSON
    true and false load as bools, which Python counts as ints; here they
    are neither integers nor numbers."""
    kind, _, rest = annotation.partition(" | ")
    if value is None:
        return rest == "None"
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "dict":  # overrides: model parameters and their values
        return isinstance(value, dict) and all(_fits(v, "float") for v in value.values())
    return isinstance(value, {"int": int, "float": (int, float), "bool": bool, "str": str}[kind])


def _load_config(path: str) -> harness.RunConfig:
    """The RunConfig of a JSON file, which comes from outside the program:
    a value whose JSON type does not fit its field raises ValueError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    for f in fields(harness.RunConfig) if isinstance(doc, dict) else ():
        if f.name in doc and not _fits(doc[f.name], f.type):
            kind, _, rest = f.type.partition(" | ")
            wanted = _JSON_KINDS[kind] + (" or null" if rest else "")
            raise ValueError(f"config {path}: {f.name} must be {wanted}, "
                             f"got {json.dumps(doc[f.name])}")
    if isinstance(doc, dict) and doc.get("format", FORMATS[0]) not in FORMATS:
        raise ValueError(f'config {path}: format must be "csv" or "json", '
                         f"got {json.dumps(doc['format'])}")
    try:
        return harness.RunConfig(**doc)
    except TypeError as exc:  # not an object, or a key RunConfig lacks
        raise ValueError(f"config {path}: {exc}") from None


def _run_config_from_args(args, base: harness.RunConfig) -> harness.RunConfig:
    """The one way the CLI builds a RunConfig: base with every flag given on
    the command line laid over it. Each flag's argparse dest is the name of
    the field it sets; --param pairs are merged into base.overrides."""
    given = {f.name: getattr(args, f.name) for f in fields(base)
             if getattr(args, f.name, None) is not None}
    if "overrides" in given:
        given["overrides"] = {**base.overrides, **dict(given["overrides"])}
    return replace(base, **given)


def _run_and_emit(cfg: harness.RunConfig) -> int:
    """Run; with an out_dir the run writes its files, else the diagnostics
    go to stdout. Exit status 3 when the run diverged or its monitor stopped it."""
    record = harness.run(cfg)
    if cfg.out_dir:
        print(f"wrote {cfg.out_dir} (status: {record.status})")
    elif cfg.format == "json":
        print(harness.record_to_json(record))
    else:
        stamp = datetime.now(timezone.utc).isoformat()
        sys.stdout.write(harness.diagnostics_csv(record, timestamp=stamp))
    return 0 if record.status == "ok" else 3


def _cmd_run(args) -> int:
    base = _load_config(args.config) if args.config else harness.RunConfig()
    return _run_and_emit(_run_config_from_args(args, base))


def _cmd_preset(args) -> int:
    cfg = _run_config_from_args(args, harness.preset(args.name))
    if args.dry_run:
        print(json.dumps(asdict(cfg), indent=1, default=str))
        return 0
    return _run_and_emit(cfg)


def _cmd_converge(args) -> int:
    cfg = _run_config_from_args(args, harness.RunConfig())
    harness.checked_scheme(cfg)  # refuse before the reference run, not after
    reference = args.reference
    if reference == "self":
        reference, status, reason = harness.run_state(
            replace(cfg, scheme=args.ref_scheme, tau=args.ref_tau))
        if status != "ok":
            print(f"error: reference run {reason}", file=sys.stderr)
            return 3
    report = (harness.convergence_study(cfg, args.taus, reference) if args.taus else
              harness.random_grid_study(cfg, args.random_n, reference, seed=args.seed))
    text = harness.convergence_csv(report)
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, "convergence.csv")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0 if report.status == "ok" else 3


def _cmd_order_check(args) -> int:
    scheme = schemes.catalog(args.scheme)
    reports = order.verify_conditions(scheme, args.up_to)
    fit = order.empirical_order(scheme, tau_ladder=args.ladder)
    doc = {
        "scheme": scheme.name,
        "claimed_order": scheme.claimed_order,
        "algebraic": [
            {
                "level": r.order_level,
                "id": r.condition_id,
                "lhs": str(r.lhs),
                "rhs": str(r.rhs),
                "satisfied": r.satisfied,
            }
            for r in reports
        ],
        "empirical": {
            "slope": fit.slope,
            "residual": fit.residual,
            "ladder": fit.taus,
            "errors": fit.errors,
            "floored": fit.floored,
        },
    }
    print(json.dumps(doc, indent=1))
    return 0


def _cmd_list_schemes(_args) -> int:
    for name in schemes.catalog_names():
        s = schemes.catalog(name)
        stats = schemes.scheme_stats(s)
        print(f"{name:10s} order {s.claimed_order:2d}  {s.scheme_class:12s} "
              f"terms {len(s.terms)}  stages {stats['stage_count']}")
    return 0


def _cmd_list_models(_args) -> int:
    for name in models.model_names():
        m = models.make_model(name)
        nu = models.model_nu(m)
        print(f"{name:14s} grid {m.n_default}^2  length {m.length:g}  "
              f"origin {m.x0:g}  nu {nu}  params {m.params}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mpesplit",
                                description="operator-splitting integrators and benchmarks")
    sub = p.add_subparsers(dest="command", required=True)

    # dest = the RunConfig field a flag sets (see _run_config_from_args);
    # store_true flags default to None so an absent flag keeps the base's value.
    def add_run_flags(sp):
        sp.add_argument("--scheme")
        sp.add_argument("--nx", type=int)
        sp.add_argument("--tfinal", type=_parse_number, dest="t_final", metavar="TFINAL")
        sp.add_argument("--out", dest="out_dir", metavar="DIR")
        sp.add_argument("--allow-backward", action="store_true", default=None)
        sp.add_argument("--param", action="append", type=_param, dest="overrides",
                        metavar="KEY=VALUE")
        sp.add_argument("--rk-substeps", type=int)

    sp = sub.add_parser("run", help="single time integration run")
    sp.add_argument("--model")
    add_run_flags(sp)
    sp.add_argument("--tau", type=_parse_number)
    sp.add_argument("--format", choices=FORMATS)
    sp.add_argument("--adaptive", action="store_true", default=None)
    sp.add_argument("--tau-min", type=_parse_number)
    sp.add_argument("--tau-max", type=_parse_number)
    sp.add_argument("--alpha", type=_parse_number)
    sp.add_argument("--config", help="JSON file mirroring RunConfig; flags override")
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("preset", help="run a named experiment preset")
    sp.add_argument("name", choices=harness.preset_names())
    add_run_flags(sp)
    sp.add_argument("--tau", type=_parse_number)
    sp.add_argument("--format", choices=FORMATS)
    sp.add_argument("--dry-run", action="store_true")
    sp.set_defaults(fn=_cmd_preset)

    sp = sub.add_parser("converge", help="convergence study against a reference")
    sp.add_argument("--model")
    add_run_flags(sp)
    ladder = sp.add_mutually_exclusive_group(required=True)
    ladder.add_argument("--taus", type=_number_list,
                        help="comma-separated ladder, fractions allowed")
    ladder.add_argument("--random-n", type=_int_list,
                        help="comma-separated counts of random subintervals")
    sp.add_argument("--seed", type=int, default=0, help="seed of the --random-n subdivisions")
    sp.add_argument("--reference", default="self", choices=["exact", "self"])
    sp.add_argument("--ref-scheme", default="s6")
    sp.add_argument("--ref-tau", type=_parse_number, default="1/200")
    sp.set_defaults(fn=_cmd_converge)

    sp = sub.add_parser("order-check", help="algebraic and empirical order report")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--up-to", type=int, default=3, dest="up_to", choices=[1, 2, 3])
    sp.add_argument("--ladder", type=_number_list, help="comma-separated tau ladder")
    sp.set_defaults(fn=_cmd_order_check)

    sp = sub.add_parser("list-schemes", help="catalog of named schemes")
    sp.set_defaults(fn=_cmd_list_schemes)

    sp = sub.add_parser("list-models", help="benchmark model registry")
    sp.set_defaults(fn=_cmd_list_models)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
