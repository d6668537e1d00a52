"""Command-line entry points.

Subcommands:
  run <case>            advance one benchmark case and write CSV snapshots
  analyze spectrum      eigenvalues of the linearized system for a profile
  analyze sweep         shear sweep across a thin middle layer (0.45, 0.1, 0.45)
  compare <run> <ref>   relative differences between two run directories
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys

import numpy as np

from .cases import CASES, TIDAL_LAYOUTS
from .csvio import load_run_states, output_root, write_run
from .harness import run_case
from .integrators import INTEGRATORS
from .linear import LinearModel, assemble_A, hyperbolicity_check, spectrum


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mlswe",
                                description="multilayer shallow-water solver")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark case")
    run.add_argument("case", choices=sorted(CASES))
    step = run.add_mutually_exclusive_group()
    step.add_argument("--dt", type=float, default=None)
    step.add_argument("--ccel", type=float, default=None,
                      help="adaptive step targeting this celerity Courant number")
    run.add_argument("--integrator", choices=tuple(INTEGRATORS), default=None)
    run.add_argument("--layout", choices=sorted(TIDAL_LAYOUTS), default=None,
                     help="vertical layout (tidal case only; default uniform)")
    run.add_argument("--t-final", type=float, default=None)
    run.add_argument("--output-interval", type=float, default=None)
    run.add_argument("--out", default=None, help="output directory")

    analyze = sub.add_parser("analyze", help="linear analysis tools")
    asub = analyze.add_subparsers(dest="analysis", required=True)
    spec_p = asub.add_parser("spectrum", help="spectrum of a background profile")
    spec_p.add_argument("profile", help="INI file with H, g, U, rho, l")
    spec_p.add_argument("--out", default=None, help="CSV output (default stdout)")
    sweep_p = asub.add_parser("sweep", help="hyperbolicity over the velocity jump "
                              "across a thin middle layer (0.45, 0.1, 0.45)")
    sweep_p.add_argument("--h", type=float, default=1.0)
    sweep_p.add_argument("--g", type=float, default=9.81)
    sweep_p.add_argument("--contrast-max", type=float, default=10.0)
    sweep_p.add_argument("--points", type=int, default=50)
    sweep_p.add_argument("--out", default=None)

    comp = sub.add_parser("compare", help="compare two run directories")
    comp.add_argument("run_dir")
    comp.add_argument("ref_dir")
    return p


def _cmd_run(args) -> int:
    kw = {}
    if args.dt is not None:
        kw["dt"] = args.dt
    if args.ccel is not None:
        kw["target_ccel"] = args.ccel
        kw["dt"] = None
    if args.integrator is not None:
        kw["integrator"] = args.integrator
    if args.t_final is not None:
        kw["t_final"] = args.t_final
    if args.output_interval is not None:
        kw["output_interval"] = args.output_interval
    if args.layout is not None:
        if args.case != "tidal":
            raise ValueError(f"--layout applies to the tidal case only, "
                             f"not to {args.case}")
        kw["layout"] = args.layout

    spec = CASES[args.case](**kw)

    result = run_case(spec)
    out = output_root(args.out) / spec.name if args.out is None else args.out
    write_run(result, out)
    r = result.report
    print(f"case={r.case} integrator={r.integrator} verdict={r.verdict} "
          f"t_end={r.t_end:.6g} steps={r.steps} "
          f"C_cel={r.max_ccel:.3g} C_vel={r.max_cvel:.3g}")
    return 0 if r.verdict == "completed" else 2


def _read_profile(path) -> LinearModel:
    cp = configparser.ConfigParser()
    with open(path) as f:
        cp.read_file(f)
    sec = cp["profile"]

    def vec(key):
        return np.array([float(v) for v in sec[key].split(",")])

    return LinearModel(H=float(sec["h"]), U=vec("u"), rho=vec("rho"),
                       l=vec("l"), g=float(sec.get("g", "9.81")))


def _cmd_spectrum(args) -> int:
    model = _read_profile(args.profile)
    lam = spectrum(assemble_A(model))
    rows = [("profile", "re_lambda", "im_lambda")]
    rows += [(args.profile, repr(float(v.real)), repr(float(v.imag)))
             for v in lam]
    _emit_csv(rows, args.out)
    return 0


def _cmd_sweep(args) -> int:
    rows = [("shear", "max_im_lambda")]
    for du in np.linspace(0.0, args.contrast_max, args.points):
        model = LinearModel(H=args.h, U=du * np.array([-0.5, 0.0, 0.5]),
                            rho=np.zeros(3), l=np.array([0.45, 0.1, 0.45]), g=args.g)
        _, max_im = hyperbolicity_check(assemble_A(model))
        rows.append((repr(float(du)), repr(float(max_im))))
    _emit_csv(rows, args.out)
    return 0


def _emit_csv(rows, out) -> None:
    if out is None:
        w = csv.writer(sys.stdout)
        for row in rows:
            w.writerow(row)
    else:
        with open(out, "w", newline="") as f:
            w = csv.writer(f)
            for row in rows:
                w.writerow(row)


def _cmd_compare(args) -> int:
    times_a, snaps_a = load_run_states(args.run_dir)
    times_b, snaps_b = load_run_states(args.ref_dir)
    common = sorted(set(np.round(times_a, 9)) & set(np.round(times_b, 9)))
    if not common:
        print("no common snapshot times", file=sys.stderr)
        return 1
    t = common[-1]
    a = snaps_a[int(np.argmin(np.abs(np.asarray(times_a) - t)))]
    b = snaps_b[int(np.argmin(np.abs(np.asarray(times_b) - t)))]
    w = csv.writer(sys.stdout)
    w.writerow(("t", "field", "rel_l2", "rel_linf"))
    for fname in sorted(set(a) & set(b)):
        keys = sorted(set(a[fname]) & set(b[fname]))
        va = np.array([a[fname][k] for k in keys])
        vb = np.array([b[fname][k] for k in keys])
        den2 = float(np.sqrt(np.sum(vb ** 2)))
        deni = float(np.max(np.abs(vb)))
        d = va - vb
        l2 = float(np.sqrt(np.sum(d ** 2))) / den2 if den2 > 0 else float(
            np.sqrt(np.sum(d ** 2)))
        li = float(np.max(np.abs(d))) / deni if deni > 0 else float(
            np.max(np.abs(d)))
        w.writerow((repr(float(t)), fname, repr(l2), repr(li)))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "analyze":
            if args.analysis == "spectrum":
                return _cmd_spectrum(args)
            return _cmd_sweep(args)
        if args.command == "compare":
            return _cmd_compare(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
