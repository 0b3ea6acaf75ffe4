"""Staggered Yee grid on the unit cube, field storage, and PEC boundary handling.

The domain is [0,1]^3 split into nx * ny * nz cells.  Each of the six field
components lives on its own staggered lattice; a half offset along an axis
means the sample point sits at the midpoint (l + 1/2) * h, an integer offset
means it sits on the node l * h.  Lattices include the boundary entries, so
tangential E values on the perfectly conducting walls are stored as explicit
zeros and every difference stencil can read them uniformly.

Component placements (index ranges follow from the offsets):

    ex : (i+1/2, j,     k    )   shape (nx,   ny+1, nz+1)
    ey : (i,     j+1/2, k    )   shape (nx+1, ny,   nz+1)
    ez : (i,     j,     k+1/2)   shape (nx+1, ny+1, nz  )
    hx : (i,     j+1/2, k+1/2)   shape (nx+1, ny,   nz  )
    hy : (i+1/2, j,     k+1/2)   shape (nx,   ny+1, nz  )
    hz : (i+1/2, j+1/2, k    )   shape (nx,   ny,   nz+1)
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

COMPONENTS = ("ex", "ey", "ez", "hx", "hy", "hz")

# Per-axis half offsets (1 = staggered by half a cell along that axis).
HALF_OFFSET = {
    "ex": (1, 0, 0),
    "ey": (0, 1, 0),
    "ez": (0, 0, 1),
    "hx": (0, 1, 1),
    "hy": (1, 0, 1),
    "hz": (1, 1, 0),
}


@dataclass(frozen=True)
class GridSpec:
    """Uniform staggered grid of the unit cube plus the time step.

    Mesh sizes are tied to the cell counts (dx = 1/nx and so on) so that the
    last node lands exactly on 1.  No CFL restriction is imposed on dt; the
    two-stage implicit update is stable for any positive time step.
    """

    nx: int
    ny: int
    nz: int
    dt: float

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 3:
                raise ValueError(f"{name} must be an integer >= 3, got {n!r}")
        if not (isinstance(self.dt, (int, float)) and math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be a positive finite number, got {self.dt!r}")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dy(self) -> float:
        return 1.0 / self.ny

    @property
    def dz(self) -> float:
        return 1.0 / self.nz

    @property
    def dv(self) -> float:
        return self.dx * self.dy * self.dz

    @property
    def cells(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    def spacing(self, axis: int) -> float:
        return (self.dx, self.dy, self.dz)[axis]

    def courant(self, eps: float = 1.0, mu: float = 1.0) -> float:
        """Courant number dt * c * sqrt(1/dx^2 + 1/dy^2 + 1/dz^2); informational only."""
        c = 1.0 / math.sqrt(eps * mu)
        return self.dt * c * math.sqrt(self.nx**2 + self.ny**2 + self.nz**2)


def make_grid(nx: int, ny: int, nz: int, dt: float) -> GridSpec:
    """Build a GridSpec, rejecting cell counts below 3 and nonpositive dt."""
    return GridSpec(nx, ny, nz, dt)


@dataclass(frozen=True)
class Medium:
    """Spatially constant permittivity and permeability."""

    eps: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps!r}")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be positive, got {self.mu!r}")


def extent(comp: str, grid: GridSpec) -> tuple[int, int, int]:
    """Lattice shape of one component: n along half-offset axes, n+1 along node axes."""
    off = HALF_OFFSET[comp]
    return tuple(n if o else n + 1 for n, o in zip(grid.cells, off))


@dataclass
class FieldState:
    """The six component lattices at one time level.

    ``time_level`` counts steps (half-integers label the intermediate level of
    the two-stage update).  A FieldState is a plain value: share it read-only,
    copy before mutating.
    """

    ex: np.ndarray
    ey: np.ndarray
    ez: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    hz: np.ndarray
    time_level: float = 0.0

    def components(self):
        for name in COMPONENTS:
            yield name, getattr(self, name)

    def e_triple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.ex, self.ey, self.ez)

    def h_triple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.hx, self.hy, self.hz)

    def copy(self) -> "FieldState":
        return FieldState(*(getattr(self, c).copy() for c in COMPONENTS), time_level=self.time_level)

    def max_abs(self) -> float:
        return max(max_abs(getattr(self, c)) for c in COMPONENTS)

    def all_finite(self) -> bool:
        """Whether every entry is finite: a NaN or an infinity shows in a lattice's max or
        min, and these make no temporary array."""
        return all(math.isfinite(max_abs(a)) for _, a in self.components())


def max_abs(a: np.ndarray) -> float:
    """max |a|, without the array of absolute values."""
    return max(float(a.max()), -float(a.min()))


def zero_state(grid: GridSpec) -> FieldState:
    return FieldState(*(np.zeros(extent(c, grid)) for c in COMPONENTS))


def check_extents(state: FieldState, grid: GridSpec) -> None:
    for name, arr in state.components():
        if arr.shape != extent(name, grid):
            raise ValueError(
                f"component {name!r} has shape {arr.shape}, expected {extent(name, grid)}"
            )


def enforce_pec(state: FieldState) -> FieldState:
    """Zero the tangential E entries on the six walls; all other entries untouched.

    ex vanishes on the y and z walls, ey on the x and z walls, ez on the x and
    y walls.  Idempotent.
    """
    out = state.copy()
    for comp, walls in (("ex", (1, 2)), ("ey", (0, 2)), ("ez", (0, 1))):
        for axis in walls:
            np.moveaxis(getattr(out, comp), axis, 0)[[0, -1]] = 0.0
    return out


def rotate_state(state: FieldState) -> FieldState:
    """Relabel fields under the cyclic axis map (x, y, z) -> (y, z, x).

    The new x-component is the old y-component with array axes permuted so
    that index order again follows (x', y', z').  Applying this three times
    returns the original state.  The update scheme and all norms are invariant
    under this relabeling; the norms use that through a role table over array
    axes (see norms), so this copy serves only to check the invariance.
    """
    T = lambda a: np.ascontiguousarray(np.transpose(a, (1, 2, 0)))
    return FieldState(
        ex=T(state.ey), ey=T(state.ez), ez=T(state.ex),
        hx=T(state.hy), hy=T(state.hz), hz=T(state.hx),
        time_level=state.time_level,
    )


# ---------------------------------------------------------------------------
# Snapshot I/O: one flat binary blob per component.
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"ADIM"
SNAPSHOT_VERSION = 1
# magic, version, nx, ny, nz, component tag, reserved, time level; 48 bytes total
_HEADER = struct.Struct("<4sI3I4sId12x")
assert _HEADER.size == 48


def write_component_blob(path, comp: str, values: np.ndarray, grid: GridSpec,
                         time_level: float) -> None:
    """Binary snapshot: 48-byte header then little-endian float64, k fastest."""
    if values.shape != extent(comp, grid):
        raise ValueError(f"shape {values.shape} does not match extent of {comp!r}")
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.nx, grid.ny, grid.nz,
                          comp.encode("ascii").ljust(4), 0, float(time_level))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f8"))


def read_component_blob(path) -> tuple[str, np.ndarray, tuple[int, int, int], float]:
    """The (component, values, cells, time level) of a blob; ValueError naming the file
    if it is not a whole blob of this format."""
    with open(path, "rb") as fh:
        raw, payload = fh.read(_HEADER.size), fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes, short of the {_HEADER.size}-byte header")
    magic, version, nx, ny, nz, tag, _res, time_level = _HEADER.unpack(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    comp = tag.rstrip(b" \x00").decode("ascii", "replace")
    if comp not in COMPONENTS:
        raise ValueError(f"{path}: unknown component tag {comp!r}")
    shape = tuple(n if o else n + 1 for n, o in zip((nx, ny, nz), HALF_OFFSET[comp]))
    if len(payload) != 8 * math.prod(shape):
        raise ValueError(f"{path}: {comp} on {nx}x{ny}x{nz} cells needs {math.prod(shape)} "
                         f"values, found {len(payload) / 8:g}")
    data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return comp, data, (nx, ny, nz), time_level


def write_snapshot(state: FieldState, grid: GridSpec, directory) -> list[str]:
    """Dump all six components into `directory` as blobs; returns the file names written."""
    check_extents(state, grid)
    names = []
    for comp, values in state.components():
        name = f"snapshot_{comp}.bin"
        write_component_blob(directory / name, comp, values, grid, state.time_level)
        names.append(name)
    return names
