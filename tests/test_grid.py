import math

import numpy as np
import pytest

from adimax import (enforce_pec, extent, make_grid, read_component_blob, rotate_state, sample_exact,
                    write_component_blob, write_snapshot, zero_state)
from adimax import grid as grid_module
from adimax.norms import state_sums

from conftest import grid3, max_component_diff, random_state
from oracles import rotate_grid


def test_make_grid_sets_unit_cube_spacings():
    g = make_grid(100, 100, 100, 0.01)
    assert g.dx == g.dy == g.dz == 0.01
    assert g.courant(1.0, 1.0) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_make_grid_minimum_size():
    g = make_grid(3, 3, 3, 1.0)
    assert g.dx == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("bad", [(2, 3, 3, 0.01), (3, 3, 3, 0.0), (3, 3, 3, -1.0)])
def test_make_grid_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        make_grid(*bad)


def test_extents_match_stagger_classes():
    g = make_grid(4, 5, 6, 0.1)
    assert extent("ex", g) == (4, 6, 7)
    assert extent("ey", g) == (5, 5, 7)
    assert extent("ez", g) == (5, 6, 6)
    assert extent("hx", g) == (5, 5, 6)
    assert extent("hy", g) == (4, 6, 6)
    assert extent("hz", g) == (4, 5, 7)


def test_zero_state_has_zero_norms(medium):
    g = grid3()
    s = zero_state(g)
    sums = state_sums(s, medium, g, axes="")
    assert sums.e_sq == 0.0
    assert sums.h_sq == 0.0


def test_enforce_pec_zeroes_exactly_the_wall_sets():
    g = make_grid(4, 5, 6, 0.1)
    s = zero_state(g)
    s.ex[:] = 1.0
    out = enforce_pec(s)
    ny, nz = 5, 6
    assert np.all(out.ex[:, 0, :] == 0) and np.all(out.ex[:, ny, :] == 0)
    assert np.all(out.ex[:, :, 0] == 0) and np.all(out.ex[:, :, nz] == 0)
    interior = out.ex[:, 1:ny, 1:nz]
    assert np.all(interior == 1.0)


def test_enforce_pec_idempotent(rng):
    g = grid3()
    s = random_state(g, rng, pec=False)
    once = enforce_pec(s)
    twice = enforce_pec(once)
    assert max_component_diff(once, twice) == 0.0


def test_enforce_pec_barely_moves_sampled_mode():
    g = make_grid(6, 6, 6, 0.1)
    for t in (0.0, 0.37):
        s = sample_exact(t, g)
        assert max_component_diff(s, enforce_pec(s)) <= 1e-15


def test_rotate_three_times_is_identity(rng):
    g = grid3(0.2)
    s = random_state(g, rng, pec=False)
    r3 = rotate_state(rotate_state(rotate_state(s)))
    assert max_component_diff(s, r3) == 0.0
    assert rotate_grid(rotate_grid(rotate_grid(g))) == g


def test_rotate_matches_loop_relabeling(rng):
    from oracles import rotate_loop
    g = make_grid(3, 4, 5, 0.2)
    s = random_state(g, rng, pec=False)
    assert max_component_diff(rotate_state(s), rotate_loop(s)) == 0.0


def test_rotate_preserves_norms(rng, medium):
    g = make_grid(3, 4, 5, 0.2)
    s = random_state(g, rng)
    r = rotate_state(s)
    rg = rotate_grid(g)
    rotated, sums = state_sums(r, medium, rg, axes=""), state_sums(s, medium, g, axes="")
    assert rotated.e_sq == pytest.approx(sums.e_sq, rel=1e-14)
    assert rotated.h_sq == pytest.approx(sums.h_sq, rel=1e-14)


def test_blob_snapshot_round_trip(tmp_path, rng):
    g = make_grid(3, 4, 5, 0.125)
    s = random_state(g, rng, time_level=7.0)
    path = tmp_path / "ex.bin"
    write_component_blob(path, "ex", s.ex, g, s.time_level)
    comp, data, dims, level = read_component_blob(path)
    assert comp == "ex" and dims == (3, 4, 5) and level == 7.0
    assert np.array_equal(data, s.ex)
    # header layout: magic, then k-fastest float64 payload
    raw = path.read_bytes()
    assert raw[:4] == b"ADIM" and len(raw) == 48 + 8 * s.ex.size
    assert np.frombuffer(raw[48:], dtype="<f8")[1] == s.ex[0, 0, 1]


@pytest.mark.parametrize("layout", ["contiguous", "fortran", "strided", "big-endian"])
def test_blob_bytes_are_header_then_little_endian_values(tmp_path, rng, layout):
    g = make_grid(3, 4, 5, 0.125)
    values = rng.standard_normal(extent("hy", g))
    given = {"contiguous": values, "fortran": np.asfortranarray(values),
             "strided": np.repeat(values, 2, axis=2)[:, :, ::2],
             "big-endian": values.astype(">f8")}[layout]
    assert given.flags.c_contiguous == (layout in ("contiguous", "big-endian"))
    path = tmp_path / "hy.bin"
    write_component_blob(path, "hy", given, g, 2.5)
    header = grid_module._HEADER.pack(grid_module.SNAPSHOT_MAGIC, grid_module.SNAPSHOT_VERSION,
                                      3, 4, 5, b"hy  ", 0, 2.5)
    assert path.read_bytes() == header + values.astype("<f8").tobytes()


@pytest.mark.parametrize("defect, message", [
    ("magic", "bad snapshot magic b'ADIX'"),
    ("version", "unsupported snapshot version 2"),
    ("tag", "unknown component tag 'hq'"),
    ("short-header", "20 bytes, short of the 48-byte header"),
    ("short-payload", "hy on 3x4x5 cells needs 75 values, found 74"),
], ids=["magic", "version", "tag", "short-header", "short-payload"])
def test_read_blob_rejects_a_bad_file_by_name(tmp_path, rng, defect, message):
    g = make_grid(3, 4, 5, 0.125)
    raw = bytearray(grid_module._HEADER.pack(
        grid_module.SNAPSHOT_MAGIC, 2 if defect == "version" else grid_module.SNAPSHOT_VERSION,
        3, 4, 5, b"hq  " if defect == "tag" else b"hy  ", 0, 2.5))
    raw += rng.standard_normal(extent("hy", g)).astype("<f8").tobytes()
    if defect == "magic":
        raw[3:4] = b"X"
    path = tmp_path / "hy.bin"
    path.write_bytes({"short-header": raw[:20], "short-payload": raw[:-8]}.get(defect, raw))
    with pytest.raises(ValueError) as info:
        read_component_blob(path)
    assert str(info.value) == f"{path}: {message}"


def test_write_snapshot_emits_six_files(tmp_path, rng):
    g = grid3()
    s = random_state(g, rng)
    names = write_snapshot(s, g, tmp_path)
    assert len(names) == 6
    for name in names:
        assert (tmp_path / name).exists()


@pytest.mark.parametrize("values, finite", [
    pytest.param((1e308, 1e308), True, id="overflowing-sum"),
    pytest.param((np.nan,), False, id="nan"),
    pytest.param((np.inf,), False, id="inf"),
    pytest.param((np.inf, -np.inf), False, id="inf-minus-inf"),
    pytest.param((-5e-324, 1.0), True, id="finite"),
])
def test_all_finite_is_every_entry_finite(rng, values, finite):
    # the guard sums each lattice: a finite sum proves every entry finite, and a sum that
    # is not finite is checked entry by entry, so an overflow is no false alarm
    s = random_state(grid3(), rng)
    s.hy.flat[:len(values)] = values
    assert s.all_finite() is finite
    assert s.all_finite() == all(bool(np.isfinite(a).all()) for _, a in s.components())


def test_max_abs_is_the_max_of_the_absolute_values(rng):
    s = random_state(make_grid(5, 4, 6, 0.3), rng, pec=False)
    s.ez[1, 2, 3] = -7.5  # the largest magnitude, negative
    assert s.max_abs() == max(float(np.max(np.abs(a))) for _, a in s.components()) == 7.5
