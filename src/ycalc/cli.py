"""Command line front end.

Subcommands mirror the library surface: coefficient tables, moment
listings, growth kernels and sampling, the fitted-coefficient experiment,
and the identity verifier.  All numeric output is exact (fractions print
as "p/q"); floats appear only in sampler estimates.

Exit codes: 0 on success (including "reported" verifications), 1 when a
verification job fails, 2 on usage errors (argparse errors, bad values,
unknown identity ids).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .coefficients import nbi, npbi_table, pbi
from .growth import cotransition_kernel, sample_growth
from .moments import S_ROUTES, SIGMA_ROUTES, moment_values, pieri_coefficients
from .partitions import Partition, partitions_upto
from .shifted import d_k
from .symfunc import chi_experiment
from .verify import (
    PARAMETERS,
    _bound,
    identity_ids,
    report_to_dict,
    reports_to_json,
    run_all,
)

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def _use_color(stream) -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return bool(getattr(stream, "isatty", lambda: False)())


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _partition_arg(text: str) -> Partition:
    try:
        return Partition.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parameter_arg(name: str, read=None):
    """The argparse type of the parameter `name`: `read`, by default the
    parameter's reader in verify.PARAMETERS."""
    read = read or PARAMETERS[name]

    def parse(text: str):
        try:
            return read(name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _emit_rows(rows: list[dict], header: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[col] for col in header])
    return buf.getvalue()


def _cmd_coeff_nbi(args) -> int:
    print(nbi(args.n, args.p, args.k))
    return 0


def _cmd_coeff_table(args) -> int:
    if args.max < 1:
        raise ValueError("nothing to tabulate: --max must be at least 1")
    rows: list[dict] = []
    if args.family == "nbi":
        header = ["n", "p", "k", "value"]
        for n in range(1, args.max + 1):
            for p in range(0, n + 1):
                for k in range(1, n + 1):
                    rows.append({"n": n, "p": p, "k": k, "value": nbi(n, p, k)})
    elif args.family == "pbi":
        header = ["lambda", "p", "k", "value"]
        for la in partitions_upto(args.max):
            if la.weight == 0:
                continue
            for k in range(la.length, la.weight + 1):
                rows.append({"lambda": str(la), "p": 0, "k": k, "value": pbi(la, k)})
    else:
        header = ["lambda", "p", "k", "value"]
        for la in partitions_upto(args.max):
            if la.weight == 0:
                continue
            table = npbi_table(la)
            for (p, k), value in sorted(table.items()):
                rows.append({"lambda": str(la), "p": p, "k": k, "value": value})
    sys.stdout.write(_emit_rows(rows, header, args.format))
    return 0


def _cmd_moments_dk(args) -> int:
    rows = [
        {"k": k, "value": str(d_k(args.shape, args.alpha, k))}
        for k in range(0, args.k_max + 1)
    ]
    sys.stdout.write(_emit_rows(rows, ["k", "value"], args.format))
    return 0


def _cmd_moments_power(args, routes) -> int:
    chosen = list(routes) if args.method == "all" else [args.method]
    lists = {name: moment_values(routes[name], args.shape, args.alpha, args.r_max) for name in chosen}
    rows = [
        {"r": r, "value": str(lists[name][r]), "method": name}
        for r in range(0, args.r_max + 1)
        for name in chosen
    ]
    sys.stdout.write(_emit_rows(rows, ["r", "value", "method"], args.format))
    return 0


def _cmd_growth_dist(args) -> int:
    kernel = pieri_coefficients if args.direction == "up" else cotransition_kernel
    doc = {
        "base": str(args.shape),
        "alpha": str(args.alpha),
        "direction": args.direction,
        "atoms": [{"row": row, "p": str(p)} for row, p in kernel(args.shape, args.alpha)],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_growth_sample(args) -> int:
    if args.emit == "paths" and args.dump_cap < 1:
        raise ValueError("nothing to dump: --dump-cap must be at least 1 with --emit paths")
    stats = sample_growth(
        steps=args.steps,
        alpha=args.alpha,
        paths=args.paths,
        seed=args.seed,
        start=args.start,
        r_max=args.r_max,
        dump_paths=args.emit == "paths",
        dump_cap=args.dump_cap,
    )
    if args.emit == "paths":
        for line in stats.path_dump or ():
            print(line)
        return 0
    doc = {
        "steps": stats.steps,
        "alpha": str(stats.alpha),
        "paths": stats.paths,
        "seed": stats.seed,
        "start": str(stats.start),
    }
    if args.emit == "moments":
        doc["moments"] = [
            {
                "r": m.r,
                "estimate": m.estimate,
                "exact": str(m.exact),
                "std_error": m.std_error,
            }
            for m in stats.moments
        ]
    else:
        doc["occupancy"] = [
            {"shape": shape, "count": count} for shape, count in stats.occupancy
        ]
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_experiment_chi(args) -> int:
    report = chi_experiment(args.n_max, args.p_max)
    if not report.rows:
        raise ValueError("no coefficient to fit: --n-max must be at least 1")
    rows = [
        {
            "n": row.n,
            "p": row.p,
            "k": row.k,
            "mu": str(row.mu),
            "chi_fitted": str(row.chi_fitted),
            "chi_conjectured": str(row.chi_conjectured),
            "match": row.match,
        }
        for row in report.rows
    ]
    print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def _read_config(path: str) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in PARAMETERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = PARAMETERS[key](key, text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _render_text(reports, stream) -> None:
    color = _use_color(stream)
    for report in reports:
        status = report.status
        if color:
            tint = _GREEN if report.ok() else _RED
            status = f"{tint}{status}{_RESET}"
        stream.write(f"{report.identity}: {status} ({report.cases} cases)\n")
        if report.notes:
            stream.write(f"  {report.notes}\n")
        if report.counterexample is not None:
            detail = json.dumps(report_to_dict(report)["counterexample"], sort_keys=True)
            stream.write(f"  counterexample: {detail}\n")


def _cmd_verify(args) -> int:
    overrides = _read_config(args.config) if args.config else {}
    for key in PARAMETERS:
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    reports = run_all(overrides, identity_ids() if args.all else (args.identity,))
    if args.format == "json":
        sys.stdout.write(reports_to_json(reports))
    else:
        _render_text(reports, sys.stdout)
    return 0 if all(r.ok() for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ycalc", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    coeff = sub.add_parser("coeff", help="generalized binomial coefficients")
    coeff_sub = coeff.add_subparsers(dest="subcommand", required=True)
    c_nbi = coeff_sub.add_parser("nbi", help="single row-family value")
    c_nbi.add_argument("--n", type=int, required=True)
    c_nbi.add_argument("--p", type=int, required=True)
    c_nbi.add_argument("--k", type=int, required=True)
    c_nbi.set_defaults(func=_cmd_coeff_nbi)
    c_table = coeff_sub.add_parser("table", help="tabulate a coefficient family")
    c_table.add_argument("--family", choices=("nbi", "pbi", "npbi"), required=True)
    c_table.add_argument("--max", type=_parameter_arg("max", _bound), required=True)
    c_table.add_argument("--format", choices=("csv", "json"), default="csv")
    c_table.set_defaults(func=_cmd_coeff_table)

    moments = sub.add_parser("moments", help="content power sums and corner moments")
    moments_sub = moments.add_subparsers(dest="subcommand", required=True)
    m_dk = moments_sub.add_parser("dk", help="content power sums of a shape")
    m_dk.add_argument("--lambda", dest="shape", type=_partition_arg, required=True)
    m_dk.add_argument("--alpha", type=_fraction_arg, required=True)
    m_dk.add_argument("--k-max", dest="k_max", type=_parameter_arg("k_max"), default=6)
    m_dk.add_argument("--format", choices=("csv", "json"), default="csv")
    m_dk.set_defaults(func=_cmd_moments_dk)
    for name, routes in (("s", S_ROUTES), ("sigma", SIGMA_ROUTES)):
        m_pow = moments_sub.add_parser(name, help=f"{name}-moment listing")
        m_pow.add_argument("--lambda", dest="shape", type=_partition_arg, required=True)
        m_pow.add_argument("--alpha", type=_fraction_arg, required=True)
        m_pow.add_argument("--r-max", dest="r_max", type=_parameter_arg("r_max"), default=9 if name == "s" else 8)
        m_pow.add_argument("--method", choices=(*routes, "all"), default="direct")
        m_pow.add_argument("--format", choices=("csv", "json"), default="csv")
        m_pow.set_defaults(func=lambda args, _r=routes: _cmd_moments_power(args, _r))

    growth = sub.add_parser("growth", help="growth kernels and sampling")
    growth_sub = growth.add_subparsers(dest="subcommand", required=True)
    g_dist = growth_sub.add_parser("dist", help="one-step distribution at a shape")
    g_dist.add_argument("--lambda", dest="shape", type=_partition_arg, required=True)
    g_dist.add_argument("--alpha", type=_fraction_arg, required=True)
    g_dist.add_argument("--direction", choices=("up", "down"), required=True)
    g_dist.add_argument("--format", choices=("json",), default="json")
    g_dist.set_defaults(func=_cmd_growth_dist)
    g_sample = growth_sub.add_parser("sample", help="seeded Monte Carlo growth")
    g_sample.add_argument("--alpha", type=_fraction_arg, required=True)
    g_sample.add_argument("--steps", type=int, required=True)
    g_sample.add_argument("--paths", type=int, required=True)
    g_sample.add_argument("--seed", type=int, required=True)
    g_sample.add_argument("--start", type=_partition_arg, default=Partition(()))
    g_sample.add_argument("--emit", choices=("moments", "occupancy", "paths"), default="moments")
    g_sample.add_argument("--r-max", dest="r_max", type=_parameter_arg("r_max"), default=4)
    g_sample.add_argument("--dump-cap", dest="dump_cap", type=_parameter_arg("dump_cap", _bound), default=10_000)
    g_sample.set_defaults(func=_cmd_growth_sample)

    experiment = sub.add_parser("experiment", help="exploratory comparisons")
    experiment_sub = experiment.add_subparsers(dest="subcommand", required=True)
    e_chi = experiment_sub.add_parser("chi", help="fitted vs conjectured expansion coefficients")
    e_chi.add_argument("--n-max", dest="n_max", type=_parameter_arg("n_max"), default=6)
    e_chi.add_argument("--p-max", dest="p_max", type=_parameter_arg("p_max"), default=3)
    e_chi.add_argument("--format", choices=("json",), default="json")
    e_chi.set_defaults(func=_cmd_experiment_chi)

    verify = sub.add_parser("verify", help="run identity verification jobs")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity", choices=identity_ids(), metavar="ID")
    group.add_argument("--all", action="store_true")
    for name in PARAMETERS:
        verify.add_argument("--" + name.replace("_", "-"), dest=name, type=_parameter_arg(name))
    verify.add_argument("--format", choices=("json", "text"), default="text")
    verify.add_argument("--config")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
