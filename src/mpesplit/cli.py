"""Command-line interface: run experiments, convergence studies, scheme
order checks, and catalog listings. Outputs are CSV or JSON; plotting is
left to external tools."""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import harness, models, order, schemes


def _parse_number(text: str) -> float:
    """Accept plain floats and fractions like 1/40."""
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        key, _, val = pair.partition("=")
        if not _:
            raise SystemExit(f"bad --param {pair!r}, expected KEY=VALUE")
        out[key] = _parse_number(val)
    return out


def _run_config_from_args(args) -> harness.RunConfig:
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
    cfg = harness.RunConfig(**base)
    for name, attr in [
        ("model", "model"), ("scheme", "scheme"), ("nx", "nx"), ("tau", "tau"),
        ("tfinal", "t_final"), ("tau_min", "tau_min"), ("tau_max", "tau_max"),
        ("alpha", "alpha"), ("out", "out_dir"), ("seed", "seed"),
        ("format", "format"), ("rk_substeps", "rk_substeps"),
    ]:
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, attr, val)
    if getattr(args, "adaptive", False):
        cfg.adaptive = True
    if getattr(args, "allow_backward", False):
        cfg.allow_backward = True
    if getattr(args, "param", None):
        cfg.overrides = {**cfg.overrides, **_parse_overrides(args.param)}
    return cfg


def _run_and_emit(cfg: harness.RunConfig) -> int:
    """Run; with an out_dir the run writes its files, else the diagnostics
    go to stdout. Exit status 3 when the run diverged."""
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
    return _run_and_emit(_run_config_from_args(args))


def _cmd_preset(args) -> int:
    over = {k: getattr(args, k, None) for k in ("nx", "tau", "seed")}
    if args.tfinal is not None:
        over["t_final"] = args.tfinal
    cfg = harness.preset(args.name, **over)
    if args.out is not None:
        cfg.out_dir = args.out
    if args.format is not None:
        cfg.format = args.format
    if args.allow_backward:
        cfg.allow_backward = True
    if args.scheme is not None:
        cfg.scheme = args.scheme
    if args.dry_run:
        print(json.dumps(harness.asdict(cfg), indent=1, default=str))
        return 0
    return _run_and_emit(cfg)


def _cmd_converge(args) -> int:
    taus = [_parse_number(t) for t in args.taus.split(",")] if args.taus else None
    t_final = args.tfinal
    if args.reference == "exact":
        reference = "exact"
    else:
        ref_tau = _parse_number(args.ref_tau)
        ref_cfg = harness.RunConfig(
            model=args.model, scheme=args.ref_scheme, nx=args.nx, tau=ref_tau,
            t_final=t_final, rk_substeps=args.rk_substeps,
            overrides=_parse_overrides(args.param),
        )
        reference = harness.run(ref_cfg).final_state
    study = dict(nx=args.nx, rk_substeps=args.rk_substeps,
                 overrides=_parse_overrides(args.param), allow_backward=args.allow_backward)
    if args.random_n:
        ns = [int(n) for n in args.random_n.split(",")]
        report = harness.random_grid_study(args.model, args.scheme, ns, reference, t_final,
                                           seed=args.seed or 0, **study)
    else:
        if not taus:
            raise SystemExit("need --taus or --random-n")
        report = harness.convergence_study(args.model, args.scheme, taus, reference, t_final,
                                           **study)
    text = harness.convergence_csv(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "convergence.csv")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_order_check(args) -> int:
    scheme = schemes.catalog(args.scheme)
    reports = order.verify_conditions(scheme, args.up_to)
    if args.ladder:
        ladder = [_parse_number(t) for t in args.ladder.split(",")]
    else:
        ladder = None
    fit = order.empirical_order(scheme, tau_ladder=ladder)
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

    def add_run_flags(sp, with_scheme_default=True):
        sp.add_argument("--model")
        sp.add_argument("--scheme")
        sp.add_argument("--nx", type=int)
        sp.add_argument("--tau", type=_parse_number)
        sp.add_argument("--tfinal", type=_parse_number)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=["csv", "json"])
        sp.add_argument("--allow-backward", action="store_true", dest="allow_backward")
        sp.add_argument("--param", action="append", metavar="KEY=VALUE")
        sp.add_argument("--rk-substeps", type=int, dest="rk_substeps")

    sp = sub.add_parser("run", help="single time integration run")
    add_run_flags(sp)
    sp.add_argument("--adaptive", action="store_true")
    sp.add_argument("--tau-min", type=_parse_number, dest="tau_min")
    sp.add_argument("--tau-max", type=_parse_number, dest="tau_max")
    sp.add_argument("--alpha", type=_parse_number)
    sp.add_argument("--config", help="JSON file mirroring RunConfig; flags override")
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("preset", help="run a named experiment preset")
    sp.add_argument("name", choices=harness.preset_names())
    add_run_flags(sp)
    sp.add_argument("--dry-run", action="store_true", dest="dry_run")
    sp.set_defaults(fn=_cmd_preset)

    sp = sub.add_parser("converge", help="convergence study against a reference")
    add_run_flags(sp)
    sp.add_argument("--taus", help="comma-separated ladder, fractions allowed")
    sp.add_argument("--random-n", dest="random_n",
                    help="comma-separated counts of random subintervals")
    sp.add_argument("--reference", default="self", choices=["exact", "self"])
    sp.add_argument("--ref-scheme", dest="ref_scheme", default="s6")
    sp.add_argument("--ref-tau", dest="ref_tau", default="1/200")
    sp.set_defaults(fn=_cmd_converge, rk_substeps=4)

    sp = sub.add_parser("order-check", help="algebraic and empirical order report")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--up-to", type=int, default=3, dest="up_to", choices=[1, 2, 3])
    sp.add_argument("--ladder", help="comma-separated tau ladder")
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
