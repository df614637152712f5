import json

import numpy as np
import pytest

from tfdw import fieldio
from tfdw.errors import StructuralError
from tfdw.grids import Grid, GridSpec, LatticeSpec, ScalarField, State, random_smooth_field


@pytest.fixture
def grid():
    return Grid(LatticeSpec.cubic(1.0, 2.0, [((1, 0, 0), 0.1)]), GridSpec((4, 4, 4), (2, 1, 1)))


def test_field_roundtrip(tmp_path, grid, rng):
    vals = random_smooth_field(grid, rng, 1.0, 2, supercell_modes=True)
    path = tmp_path / "field.tfw"
    fieldio.write_field(path, ScalarField(grid, vals))
    back = fieldio.read_field(path)
    assert back.grid == grid
    assert np.array_equal(back.values, vals)


def test_field_header_is_json_line(tmp_path, grid):
    path = tmp_path / "f.tfw"
    fieldio.write_field(path, ScalarField(grid, np.zeros(grid.shape)))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    assert header["format"] == "tfw"
    assert header["resolution"] == [4, 4, 4]
    assert header["supercell"] == [2, 1, 1]
    # little-endian doubles, row-major
    assert len(payload) == 8 * grid.total_points
    assert np.frombuffer(payload, dtype="<f8").shape == (grid.total_points,)


def test_field_grid_mismatch(tmp_path, grid):
    path = tmp_path / "f.tfw"
    fieldio.write_field(path, ScalarField(grid, np.zeros(grid.shape)))
    other = Grid(grid.lattice, GridSpec((4, 4, 4)))
    with pytest.raises(StructuralError):
        fieldio.read_field(path, other)


def test_field_lattice_mismatch(tmp_path, grid):
    path = tmp_path / "f.tfw"
    fieldio.write_field(path, ScalarField(grid, np.zeros(grid.shape)))
    lat = grid.lattice
    other = Grid(LatticeSpec(lat.cell_vectors, lat.Z + 1.0, lat.rho_b_modes), grid.spec)
    with pytest.raises(StructuralError, match="different grid"):
        fieldio.read_field(path, other)


def test_read_with_expected_grid_builds_no_grid(tmp_path, grid, monkeypatch):
    path = tmp_path / "f.tfw"
    fieldio.write_field(path, ScalarField(grid, np.arange(grid.total_points).reshape(grid.shape)))

    def no_grid(*args):
        raise AssertionError("read_field built a Grid")

    monkeypatch.setattr(fieldio, "Grid", no_grid)
    back = fieldio.read_field(path, grid)
    assert back.grid is grid
    assert np.array_equal(back.values.ravel(), np.arange(grid.total_points))


def test_truncated_payload(tmp_path, grid):
    path = tmp_path / "f.tfw"
    fieldio.write_field(path, ScalarField(grid, np.zeros(grid.shape)))
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(StructuralError):
        fieldio.read_field(path)


def _damage(data, kind):
    header, payload = data.split(b"\n", 1)
    if kind == "ragged-payload":
        return data[:-3]  # not a whole number of 8-byte values
    if kind == "header-not-json":
        return b"tfw, version 1\n" + payload
    return json.dumps([json.loads(header)]).encode() + b"\n" + payload  # a JSON list


@pytest.mark.parametrize("kind", ["ragged-payload", "header-not-json", "header-is-list"])
def test_malformed_file_raises_structural_error(tmp_path, grid, kind):
    path = tmp_path / "f.tfw"
    fieldio.write_field(path, ScalarField(grid, np.zeros(grid.shape)))
    path.write_bytes(_damage(path.read_bytes(), kind))
    with pytest.raises(StructuralError):
        fieldio.read_field(path)


def test_state_roundtrip(tmp_path, grid, rng):
    state = State(
        ScalarField(grid, 1.0 + 0.1 * random_smooth_field(grid, rng, 1.0, 1)),
        ScalarField(grid, 1.0 + 0.1 * random_smooth_field(grid, rng, 1.0, 1)),
        ScalarField(grid, random_smooth_field(grid, rng, 1.0, 1)),
        gauge=-0.7,
    )
    fieldio.write_state(tmp_path, "s", state, {"h_value": 0.25})
    back, manifest = fieldio.read_state(tmp_path, "s")
    assert manifest["h_value"] == 0.25
    assert back.gauge == state.gauge
    for a, b in [(back.nu_plus, state.nu_plus), (back.nu_minus, state.nu_minus), (back.V, state.V)]:
        assert np.array_equal(a.values, b.values)


def test_atomic_overwrite(tmp_path):
    path = tmp_path / "x.json"
    fieldio.atomic_write_text(path, "one")
    fieldio.atomic_write_text(path, "two")
    assert path.read_text() == "two"
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


def test_write_csv_format(tmp_path):
    # 0.1 + 0.2 needs all 17 significant digits to come back exactly
    x = 0.1 + 0.2
    path = tmp_path / "r.csv"
    fieldio.write_csv(path, ["k", "x", "y"], [(3, x, None), (np.int64(4), np.float64(-x), "sdw")])
    text = path.read_bytes().decode()
    assert text == "k,x,y\n3,0.30000000000000004,\n4,-0.30000000000000004,sdw\n"
    assert float(text.split("\n")[1].split(",")[1]) == x
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files
