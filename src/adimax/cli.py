"""Command-line front end for the experiment drivers."""

from __future__ import annotations

import argparse
import sys

from . import harness
from .harness import ConfigError, parse_config

DESK_DEFAULTS = {
    "run": dict(nx=20, ny=20, nz=20, dt=0.05, T=5.0, cadence=10),
    "energy-audit": dict(nx=16, ny=16, nz=16, dt=0.05, T=5.0, cadence=1),
    "converge-time": dict(nx=32, ny=32, nz=32, T=1.0, dt_list=(0.05, 0.04, 0.025)),
    "converge-space": dict(nx=10, ny=10, nz=10, dt=0.0025, T=1.0,
                           grid_list=(10, 20, 40)),
    "divergence-audit": dict(nx=20, ny=20, nz=20, dt=0.05, T=4.0, cadence=20),
    "stability": dict(nx=20, ny=20, nz=20, dt=0.25, T=100.0, cadence=40),
}

FULL_SCALE_DEFAULTS = {
    "run": dict(nx=100, ny=100, nz=100, dt=0.01, T=20.0, cadence=100),
    "energy-audit": dict(nx=100, ny=100, nz=100, dt=0.01, T=20.0, cadence=100),
    "converge-time": dict(nx=100, ny=100, nz=100, T=1.0, dt_list=(0.05, 0.04, 0.025, 0.02)),
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
        # an absent flag leaves no attribute, so vars(args) holds only what was given;
        # no abbreviations, or converge-time would read `--dt X` as `--dt-list X`
        p = sub.add_parser(kind, help=f"{kind} experiment", argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        p.add_argument("--grid", metavar="I,J,K", help="cells per axis, e.g. 32,32,32")
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        p.add_argument("--paper-scale", action="store_true",
                       help="use the full-scale experiment defaults (slow)")
        for key, f in harness.KEYS.items():
            if f.metadata["help"] and kind in f.metadata["kinds"]:
                p.add_argument("--" + key.replace("_", "-"), help=f.metadata["help"],
                               **f.metadata["flag"])
    return parser


def _overrides(args: dict) -> dict:
    """The config keys given as flags, as text for parse_config, with --grid split."""
    over = {key: value for key, value in args.items() if key in harness.KEYS}
    if "grid" in args:
        try:
            nx, ny, nz = (int(p) for p in args["grid"].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad value for key `grid` (flag): {args['grid']!r}") from exc
        over.update(nx=nx, ny=ny, nz=nz)
    return over


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    defaults = (FULL_SCALE_DEFAULTS if args.get("paper_scale") else DESK_DEFAULTS)[args["kind"]]
    try:
        cfg = parse_config(args.get("config"), _overrides(args), defaults=defaults)
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
