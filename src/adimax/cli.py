"""Command-line front end for the experiment drivers."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .harness import ConfigError, parse_config

DESK_DEFAULTS = {
    "run": dict(nx=20, ny=20, nz=20, dt=0.05, T=5.0, cadence=10),
    "energy-audit": dict(nx=16, ny=16, nz=16, dt=0.05, T=5.0, cadence=1),
    "converge-time": dict(nx=32, ny=32, nz=32, dt=0.05, T=1.0,
                          dt_list=(0.05, 0.04, 0.025)),
    "converge-space": dict(nx=10, ny=10, nz=10, dt=0.0025, T=1.0,
                           grid_list=(10, 20, 40)),
    "divergence-audit": dict(nx=20, ny=20, nz=20, dt=0.05, T=4.0, cadence=20),
    "stability": dict(nx=20, ny=20, nz=20, dt=0.25, T=100.0, cadence=40),
}

FULL_SCALE_DEFAULTS = {
    "run": dict(nx=100, ny=100, nz=100, dt=0.01, T=20.0, cadence=100),
    "energy-audit": dict(nx=100, ny=100, nz=100, dt=0.01, T=20.0, cadence=100),
    "converge-time": dict(nx=100, ny=100, nz=100, dt=0.05, T=1.0,
                          dt_list=(0.05, 0.04, 0.025, 0.02)),
    "converge-space": dict(nx=40, ny=40, nz=40, dt=0.001, T=1.0,
                           grid_list=(40, 50, 100)),
    "divergence-audit": dict(nx=100, ny=100, nz=100, dt=0.01, T=20.0, cadence=100),
    "stability": dict(nx=100, ny=100, nz=100, dt=0.25, T=100.0, cadence=40),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adimax",
        description="Unconditionally stable two-stage implicit Maxwell solver "
                    "with energy, convergence, and divergence diagnostics.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in harness.KINDS:
        p = sub.add_parser(kind, help=f"{kind} experiment")
        p.add_argument("--grid", metavar="I,J,K", help="cells per axis, e.g. 32,32,32")
        p.add_argument("--dt", type=float, help="time step")
        p.add_argument("--T", type=float, help="final time")
        p.add_argument("--eps", type=float, help="permittivity")
        p.add_argument("--mu", type=float, help="permeability")
        p.add_argument("--cadence", type=int, help="report every N steps")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        p.add_argument("--init", choices=harness.INITS, help="initial fields")
        p.add_argument("--paper-scale", action="store_true",
                       help="use the full-scale experiment defaults (slow)")
        if kind == "run":
            p.add_argument("--snapshots", action="store_true",
                           help="dump final field snapshots")
        if kind == "converge-time":
            p.add_argument("--dt-list", metavar="DT,DT,...", help="time steps to compare")
        if kind == "converge-space":
            p.add_argument("--grid-list", metavar="N,N,...", help="cube grids to compare")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    over: dict = {}
    if args.grid:
        try:
            nx, ny, nz = (int(p) for p in args.grid.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad value for key `grid` (flag): {args.grid!r}") from exc
        over.update(nx=nx, ny=ny, nz=nz)
    for key in ("dt", "T", "eps", "mu", "cadence", "out", "init"):
        value = getattr(args, key, None)
        if value is not None:
            over[key] = value
    if getattr(args, "dt_list", None):
        over["dt_list"] = args.dt_list
    if getattr(args, "grid_list", None):
        over["grid_list"] = args.grid_list
    if getattr(args, "snapshots", False):
        over["snapshots"] = True
    over["kind"] = args.kind
    return over


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    defaults = (FULL_SCALE_DEFAULTS if args.paper_scale else DESK_DEFAULTS)[args.kind]
    try:
        cfg = parse_config(args.config, _overrides(args), defaults=defaults)
        if cfg.kind == "converge-time":
            print(f"grid {cfg.nx}x{cfg.ny}x{cfg.nz}, T={cfg.T}, "
                  f"dt list {', '.join(str(d) for d in cfg.dt_list)}")
        elif cfg.kind == "converge-space":
            print(f"grids {', '.join(f'{n}^3' for n in cfg.grid_list)}, "
                  f"dt={cfg.dt}, T={cfg.T}")
        else:
            grid = cfg.to_grid()
            print(f"grid {cfg.nx}x{cfg.ny}x{cfg.nz}, dt={cfg.dt}, T={cfg.T}, "
                  f"steps={cfg.steps}, Courant={grid.courant(cfg.eps, cfg.mu):.3f}")
        result = harness.DRIVERS[cfg.kind](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        print(f"wrote {', '.join(result.files)} to {cfg.out}")
    if isinstance(result, harness.StabilityResult):
        verdict = "PASS" if result.passed else "FAIL"
        print(f"stability {verdict}: max drift {result.max_drift:.3e}, "
              f"max |field| {result.max_field:.3e} (initial {result.initial_max:.3e})")
    elif isinstance(result, harness.ConvergenceResult):
        for row in result.rows:
            rates = ", ".join(f"{k}={v:.3f}" for k, v in row.rates.items()) or "n/a"
            print(f"resolution {row.resolution:g}: ERR1={row.eh1:.4e} ERR2={row.eh2:.4e} "
                  f"rates: {rates}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
