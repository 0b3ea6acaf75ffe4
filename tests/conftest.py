import threading

import numpy as np
import pytest

from adimax import FieldState, Medium, enforce_pec, extent, make_grid, norms, stepper
from adimax.grid import COMPONENTS


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# vacuum keeps each test's plain id (pytest >= 8.4 hides it); the other media are appended.
# (2.5, 0.4) has eps mu = 1, so only (3, 0.5) moves the time scale sqrt(eps mu)
@pytest.fixture(params=[Medium(1.0, 1.0), Medium(2.5, 0.4), Medium(3.0, 0.5)],
                ids=[getattr(pytest, "HIDDEN_PARAM", "vacuum"), "eps2.5-mu0.4", "eps3-mu0.5"])
def medium(request):
    return request.param


def random_state(grid, rng, pec=True, time_level=0.0) -> FieldState:
    """Random fields; with pec=True the tangential-E wall entries are zeroed."""
    state = FieldState(
        *(rng.standard_normal(extent(c, grid)) for c in ("ex", "ey", "ez", "hx", "hy", "hz")),
        time_level=time_level,
    )
    return enforce_pec(state) if pec else state


def grid3(dt=0.4):
    return make_grid(3, 3, 3, dt)


def grid4(dt=0.4):
    return make_grid(4, 4, 4, dt)


def max_component_diff(a: FieldState, b: FieldState) -> float:
    return max(float(np.max(np.abs(getattr(a, c) - getattr(b, c))))
               for c in ("ex", "ey", "ez", "hx", "hy", "hz"))


def force_split(monkeypatch) -> list[int]:
    """Run every half-update as two slabs and every `state_sums` as two halves on
    two threads, whatever the grid size and core count.

    Returns a list that collects the thread id of every sweep the worker runs.
    """
    monkeypatch.setattr(stepper, "_SPLIT_MIN", 0)
    monkeypatch.setattr(norms, "_THREAD_MIN", 0)
    monkeypatch.setattr(stepper.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sweep, threads = stepper._sweep, []

    def recording(lam, rhs, axis):
        threads.append(threading.get_ident())
        return sweep(lam, rhs, axis)

    monkeypatch.setattr(stepper, "_sweep", recording)
    return threads


def summed_lattices(monkeypatch) -> dict:
    """Copies of the lattices that norms' passes sum, by component name in call order,
    recorded from the per-component sums (`_e_sums`, `_h_sums`): every pass sums each
    component once, so entry i of each list is that component of the i-th field summed."""
    lattices = {name: [] for name in COMPONENTS}

    def recording(sums, names):
        def record(c, u, *args):
            lattices[names[c]].append(u.copy())
            return sums(c, u, *args)
        return record

    monkeypatch.setattr(norms, "_e_sums", recording(norms._e_sums, COMPONENTS[:3]))
    monkeypatch.setattr(norms, "_h_sums", recording(norms._h_sums, COMPONENTS[3:]))
    return lattices


def summed_field(lattices: dict, i: int) -> FieldState:
    """The i-th field of `summed_lattices`."""
    return FieldState(*(lattices[name][i] for name in COMPONENTS))
