"""Command-line front door.

Subcommands: ``gen`` (seeded instance synthesis), ``validate``, ``analyze``
(grid report plus identity suite), ``certify`` (simplicity decision with
certificate), ``laws`` (ambient law suite and identity suite), ``grid``
(ASCII triangle).  Exit status 0 means every requested check passed, 1 a
mathematical check failed, 2 the input was malformed or unreadable.

``certify`` validates dimensions and linking before deciding simplicity
and stops with exit 1 on any violation; with ``--certificate FILE`` it
checks that certificate instead of constructing one.  ``gen --strategy
degrade`` refuses its input the same way, and exits 2 when ``--d`` or
``--r`` is not the input's.  ``analyze``, ``grid`` and ``laws`` on an
instance validate first too, and stop with exit 1 before their reports
when a space is missing or has the wrong dimension.  Two file options
naming one file exit 2 before any file use.

All numeric output is exact (rational strings); reports are emitted with
sorted keys so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import generator, lls_core, simple_basis
from .chain_model import ChainCurve, verify_sheaf_laws
from .lattice import Multidegree
from .lls_core import GridReport, InstanceFormatError

__all__ = ["main", "render_grid"]


def render_grid(report: GridReport) -> str:
    """One cell per multidegree, ``codim/D`` (distributive) or ``codim/N``,
    rows by the third degree, columns right-shifted as rows shrink."""
    texts = {c.multidegree: f"{c.codim}/{'D' if c.distributive else 'N'}"
             for c in report.cells}
    width = max(len(t) for t in texts.values()) + 2
    lines = []
    for l in range(report.d + 1):
        row = [" " * width] * l
        for i in range(report.d - l, -1, -1):
            md = Multidegree(i, report.d - i - l, l)
            row.append(texts[md].ljust(width))
        lines.append("".join(row).rstrip())
    return "\n".join(lines)


# The file options of every command, in the order a clash names them.
_FILES = (("the instance", "instance"), ("--input", "input"), ("--certificate", "certificate"),
          ("-o", "out"), ("--certificate-out", "certificate_out"), ("--report", "report"))


def _distinct_files(args) -> None:
    """Refuse two file options naming one file, before anything is read or
    written: an output would overwrite an input or another output."""
    seen: dict[str, str] = {}
    for option, attr in _FILES:
        path = getattr(args, attr, None)
        if path is not None:
            clash = seen.setdefault(os.path.realpath(path), option)
            if clash != option:
                raise InstanceFormatError(args.command, f"{option} and {clash} name the same file")


def _emit(args, data: dict, text_lines: list[str]) -> None:
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(lls_core.dump(data))
    else:
        for line in text_lines:
            print(line)
    if getattr(args, "report", None):
        Path(args.report).write_text(lls_core.dump(data), encoding="utf-8")


def _cmd_gen(args) -> int:
    if args.certificate_out is not None and args.strategy != "from-sections":
        raise InstanceFormatError("gen", "--certificate-out needs --strategy from-sections")
    if (args.input is not None or args.mode is not None) and args.strategy != "degrade":
        raise InstanceFormatError("gen", "--input and --mode need --strategy degrade")
    spec = generator.GenSpec(d=args.d, r=args.r, strategy=args.strategy,
                             seed=args.seed, budget=args.budget)
    if args.strategy == "from-sections":
        result = generator.gen_simple(spec)
        lls_core.save_instance(args.out, result.instance)
        cert_path = args.certificate_out or _derived_cert_path(args.out)
        simple_basis.save_certificate(cert_path, result.certificate)
        print(f"wrote {args.out} and {cert_path} "
              f"(support {[md.to_json() for md in result.certificate.support]}, "
              f"attempt {result.attempts})")
        return 0
    if args.strategy == "exact-search":
        result = generator.gen_exact_search(spec)
        if not result.found:
            print(result.note)
            return 1
        lls_core.save_instance(args.out, result.instance)
        print(f"wrote {args.out} ({result.note}, codim sum {result.codim_sum}, "
              f"{result.expansions} expansions)")
        return 0
    # degrade
    if not args.input or not args.mode:
        raise InstanceFormatError("gen", "--strategy degrade needs --input and --mode")
    inst = lls_core.load_instance(args.input)
    validation = lls_core.validate(inst, ambient_laws=False)
    if not validation.ok:
        return _refuse(args, validation)
    if (args.d, args.r) != (inst.d, inst.r):
        raise InstanceFormatError(
            "gen", f"--d and --r must match the --input instance (d = {inst.d}, r = {inst.r})")
    result = generator.degrade(inst, args.mode, seed=args.seed)
    lls_core.save_instance(args.out, result.instance)
    print(f"wrote {args.out} (injected {args.mode} at {result.at.label})")
    return 0


def _derived_cert_path(out: str) -> str:
    path = Path(out)
    return str(path.with_suffix(".cert.json")) if path.suffix else out + ".cert.json"


def _violation_lines(report: lls_core.ValidationReport) -> list[str]:
    return [f"  {v.kind} at {v.label}: {v.message}"
            for v in report.violations]


def _wrong_dimension(report: lls_core.ValidationReport) -> bool:
    return any(v.kind == "dimension" for v in report.violations)


def _refuse(args, validation: lls_core.ValidationReport) -> int:
    """Report a validation failure that stops a command."""
    _emit(args, {"validation": validation.to_json()},
          ["invalid"] + _violation_lines(validation))
    return 1


def _cmd_validate(args) -> int:
    inst = lls_core.load_instance(args.instance)
    report = lls_core.validate(inst)
    lines = ["valid" if report.ok else "invalid"] + _violation_lines(report)
    _emit(args, report.to_json(), lines)
    return 0 if report.ok else 1


def _cmd_analyze(args) -> int:
    inst = lls_core.load_instance(args.instance)
    validation = lls_core.validate(inst)
    if _wrong_dimension(validation):
        return _refuse(args, validation)
    grid = lls_core.codim_report(inst)
    exact_report = lls_core.exactness(inst)
    identities = lls_core.identity_suite(inst)
    data = {
        "validation": validation.to_json(),
        "grid": grid.to_json(),
        "exactness": exact_report.to_json(),
        "identities": identities.to_json(),
    }
    failing = [e for e in exact_report.edges if not e.exact]
    lines = [render_grid(grid), "",
             f"codim sum {grid.codim_sum} (r+1 = {grid.r + 1})",
             f"valid: {validation.ok}  exact: {grid.exact}  "
             f"distributive everywhere: {grid.all_distributive}  "
             f"simple by criterion: {grid.simple_by_criterion}"]
    lines += [f"  inexact edge {e.edge.label}" for e in failing]
    lines += _violation_lines(validation)
    bad = identities.by_status("fail")
    lines += [f"  identity failure {c.identity} at {c.location}: {c.detail}" for c in bad]
    _emit(args, data, lines)
    ok = (validation.ok and grid.exact and identities.ok
          and grid.inequality_holds and grid.equivalence_consistent)
    return 0 if ok else 1


def _cmd_certify(args) -> int:
    if args.certificate is not None and args.certificate_out is not None:
        raise InstanceFormatError("certify", "--certificate-out cannot be used with --certificate")
    inst = lls_core.load_instance(args.instance)
    validation = lls_core.validate(inst, ambient_laws=False)
    if not validation.ok:
        return _refuse(args, validation)
    if args.certificate is not None:
        cert = simple_basis.load_certificate(args.certificate, inst.d)
        check = simple_basis.verify_certificate(inst, cert)
        where = f" at {check.failing_multidegree.label}" if check.failing_multidegree else ""
        _emit(args, {"certificate": check.to_json()}, [f"{check.message}{where}"])
        return 0 if check.ok else 1
    verdict = simple_basis.is_simple(inst)
    data = {"verdict": verdict.to_json()}
    if verdict.simple:
        lines = [f"simple (support {[md.to_json() for md in verdict.certificate.support]})"]
        if args.certificate_out:
            simple_basis.save_certificate(args.certificate_out, verdict.certificate)
            lines.append(f"wrote {args.certificate_out}")
    else:
        lines = [f"not simple: {verdict.reason} (witness {verdict.witness.label})"]
    _emit(args, data, lines)
    return 0 if verdict.simple else 1


def _cmd_laws(args) -> int:
    if (args.instance is None) == (args.d is None):
        raise InstanceFormatError("laws", "give an instance file or --d, not both")
    if args.instance is not None:
        inst = lls_core.load_instance(args.instance)
        validation = lls_core.validate(inst, ambient_laws=False)
        if _wrong_dimension(validation):
            return _refuse(args, validation)
        law_report = verify_sheaf_laws(inst)
        identities = lls_core.identity_suite(inst)
        data = {"laws": law_report.to_json(), "identities": identities.to_json()}
        ok = law_report.ok and identities.ok
        lines = [f"ambient laws: {'pass' if law_report.ok else 'fail'}",
                 f"identity suite: {'pass' if identities.ok else 'fail'} "
                 f"({len(identities.by_status('pass'))} pass, "
                 f"{len(identities.by_status('hypothesis-not-met'))} skipped)"]
        lines += [f"  {v.kind} at {v.label}" for v in law_report.violations]
        lines += [f"  {c.identity} at {c.location}: {c.detail}"
                  for c in identities.by_status("fail")]
    else:
        law_report = verify_sheaf_laws(ChainCurve(args.d))
        data = {"laws": law_report.to_json()}
        ok = law_report.ok
        lines = [f"ambient laws at degree {args.d}: {'pass' if ok else 'fail'}"]
        lines += [f"  {v.kind} at {v.label}" for v in law_report.violations]
    _emit(args, data, lines)
    return 0 if ok else 1


def _cmd_grid(args) -> int:
    inst = lls_core.load_instance(args.instance)
    validation = lls_core.validate(inst, ambient_laws=False)
    if _wrong_dimension(validation):
        return _refuse(args, validation)
    grid = lls_core.codim_report(inst)
    _emit(args, grid.to_json(), [render_grid(grid)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="llschain",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--r", type=int, required=True)
    gen.add_argument("--strategy", choices=generator.STRATEGIES,
                     default="from-sections")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--budget", type=int, default=2000)
    gen.add_argument("-o", "--out", required=True)
    gen.add_argument("--certificate-out")
    gen.add_argument("--input", help="source instance for --strategy degrade")
    gen.add_argument("--mode", choices=generator.DEGRADE_MODES,
                     help="defect for --strategy degrade")
    gen.set_defaults(func=_cmd_gen)

    for name, func in (("validate", _cmd_validate), ("analyze", _cmd_analyze),
                       ("certify", _cmd_certify), ("grid", _cmd_grid)):
        cmd = sub.add_parser(name)
        cmd.add_argument("instance")
        cmd.add_argument("--report")
        cmd.add_argument("--format", choices=("json", "text"), default="text")
        if name == "certify":
            cmd.add_argument("--certificate-out")
            cmd.add_argument("--certificate",
                             help="check this certificate instead of constructing one")
        cmd.set_defaults(func=func)

    laws = sub.add_parser("laws")
    laws.add_argument("instance", nargs="?")
    laws.add_argument("--d", type=int)
    laws.add_argument("--report")
    laws.add_argument("--format", choices=("json", "text"), default="text")
    laws.set_defaults(func=_cmd_laws)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _distinct_files(args)
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"input error: invalid JSON at line {exc.lineno}, column {exc.colno}",
              file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # An unusable path, a malformed file (``InstanceFormatError``) or spec.
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except generator.GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    except simple_basis.ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
