"""Portable field files (".tfw"), state manifests and the report format.

A .tfw file is a single JSON header line (UTF-8, newline terminated) carrying
the grid metadata, followed by the raw field values as little-endian 8-byte
IEEE-754 floats in row-major axis order.

Every report, CSV or JSON, is written here and atomically: CSV floats carry
17 significant digits (they round-trip exactly), ints stay ints, None is an
empty cell and lines end in "\n"; JSON is indented by 2 with sorted keys.
Identical inputs therefore give byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import tempfile

import numpy as np

from .errors import StructuralError
from .grids import Grid, GridSpec, LatticeSpec, ScalarField, State

TFW_MAGIC = "tfw"
TFW_VERSION = 1
STATE_FIELDS = ("nu_plus", "nu_minus", "V")


def grid_descriptor(grid: Grid):
    """The JSON form of a grid, in .tfw headers and table manifests."""
    return {
        "lattice": grid.lattice.descriptor(),
        "resolution": list(grid.spec.resolution),
        "supercell": list(grid.spec.supercell),
    }


def read_grid_descriptor(d, what):
    """(LatticeSpec, GridSpec) of a grid descriptor; StructuralError naming
    ``what`` (the file that holds it) unless ``d`` describes a grid."""
    try:
        lattice = LatticeSpec.from_descriptor(d["lattice"])
        spec = GridSpec(tuple(d["resolution"]), tuple(d["supercell"]))
    except (KeyError, TypeError, ValueError, AttributeError, StructuralError) as exc:
        raise StructuralError(f"{what} does not describe a grid ({exc!r})") from exc
    return lattice, spec


def config_option(default, **bounds):
    """A field of an options dataclass that a config may set, with the
    JSON-schema bounds of its value; ``tfdw.cli`` builds the config
    schema from these fields and takes the JSON type from the annotation."""
    return dataclasses.field(default=default, metadata={"json": bounds})


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def parse_object(text, what, keys=()):
    """The JSON object in ``text`` (str or UTF-8 bytes); StructuralError
    naming ``what`` unless it parses to an object holding every key in
    ``keys``.  The literals NaN and (-)Infinity, which Python's json reads
    but JSON does not have, are rejected."""
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, constants
        raise StructuralError(f"{what} is not JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise StructuralError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise StructuralError(f"{what} lacks {', '.join(missing)}")
    return obj


def _read_bytes(path):
    """The bytes of the file at ``path``; StructuralError naming the path
    when it cannot be read (missing, a directory, not permitted)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise StructuralError(f"{path} cannot be read ({exc.strerror})") from exc


def read_manifest(path, keys=()):
    return parse_object(_read_bytes(path), str(path), keys)


def write_field(path, fld: ScalarField):
    grid = fld.grid
    header = {"format": TFW_MAGIC, "version": TFW_VERSION, **grid_descriptor(grid), "domain": grid.domain}
    payload = np.ascontiguousarray(fld.values, dtype="<f8").tobytes()
    atomic_write_bytes(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)


def read_field(path, grid: Grid | None = None) -> ScalarField:
    header_line, _, payload = _read_bytes(path).partition(b"\n")
    header = parse_object(header_line, f"{path}: the header line")
    if header.get("format") != TFW_MAGIC:
        raise StructuralError(f"{path} is not a .tfw field file")
    lattice, spec = read_grid_descriptor(header, f"{path}: the header")
    # an expected grid is compared by its specs, so no second Grid is built
    if grid is None:
        grid = Grid(lattice, spec)
    elif lattice != grid.lattice or spec != grid.spec:
        raise StructuralError(f"{path} carries a different grid than expected")
    if len(payload) != 8 * grid.total_points:
        raise StructuralError(
            f"{path}: expected {grid.total_points} 8-byte values, "
            f"found a payload of {len(payload)} bytes"
        )
    values = np.frombuffer(payload, dtype="<f8")
    return ScalarField(grid, values.reshape(grid.shape).copy())


def write_state(directory, name, state: State, extra=None):
    """Persist a state as three .tfw files plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    files = {}
    for tag in STATE_FIELDS:
        fname = f"{name}_{tag}.tfw"
        write_field(os.path.join(directory, fname), getattr(state, tag))
        files[tag] = fname
    manifest = {"fields": files, "gauge": state.gauge}
    if extra:
        manifest.update(extra)
    write_json(os.path.join(directory, f"{name}.json"), manifest)
    return manifest


def read_state(directory, name, grid: Grid | None = None) -> tuple[State, dict]:
    path = os.path.join(directory, f"{name}.json")
    manifest = read_manifest(path, ("fields", "gauge"))
    try:
        files = [os.path.join(directory, manifest["fields"][tag]) for tag in STATE_FIELDS]
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"{path}: the fields entry does not name the state's files") from exc
    state = State(*(read_field(f, grid) for f in files), manifest["gauge"])
    return state, manifest


def atomic_write_bytes(path, data: bytes):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        # gone after a successful rename; left behind only by a failure
        if os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def json_text(payload):
    """The report JSON text of ``payload``: indent 2, sorted keys."""
    return json.dumps(payload, indent=2, sort_keys=True)


def write_json(path, payload):
    atomic_write_text(path, json_text(payload))


def write_csv(path, header, rows):
    """A CSV report: the header row, then ``rows`` with floats to 17
    significant digits, ints as ints and None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.17g}" if isinstance(v, (float, np.floating)) else v for v in row] for row in rows)
    atomic_write_text(path, buf.getvalue())
