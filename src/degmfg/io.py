"""Run-directory serialization: binary paths, CSV field slices and JSON
summaries.

A run directory is self-describing: it contains the exact config used
(config.json), the value path as u/path.npy, the density path as
m/path.npy, and summary.json, the record the command printed, which
``load_run`` does not read. Each path.npy is the ``np.save`` of the whole
(nt, n1, n2) float64 path, so a round trip is bit-exact; it holds no
coordinates, and its mesh is config.json's, with the node counts taken from
the array's shape. ``export_run`` writes the slices of both paths beside
them as field CSVs, and a run directory written before the binary format,
which holds only those CSVs, reads back from them.

A field CSV is ASCII text: the header ``x1,x2,value``, then one row
``x1,x2,value`` per grid node in row-major order (x1 outer, x2 inner).
Every number is written with ``%.17g``, so a round trip is bit-exact for
doubles, and every line ends in ``\r\n`` (the layout of ``csv.writer``).
Readers also accept ``\n`` line ends and any row order. A file that is not
a full uniform grid of three-number rows is a ``ConfigurationError``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .config import RunConfig, load_config, read_text, serialize_config
from .errors import ConfigurationError
from .grid import DensityPath, Grid2D, ValuePath, require_mesh

_FMT = "%.17g"
_HEADER = "x1,x2,value"
_PATH_FILE = "path.npy"


def _csv_template(grid: Grid2D) -> str:
    """The text of a field CSV on ``grid`` with a ``%.17g`` slot per value.

    The coordinates are formatted here, once per grid, so writing a field
    is a single ``%`` of this template with the values in row-major order.
    """
    x1 = [_FMT % a for a in grid.x1.tolist()]
    x2 = [_FMT % b for b in grid.x2.tolist()]
    rows = ["%s,%s,%s\r\n" % (a, b, _FMT) for a in x1 for b in x2]
    return _HEADER + "\r\n" + "".join(rows)


def write_fields(paths, grid: Grid2D, fields):
    """Write each field (n1, n2) of ``fields`` to the matching path as a
    field CSV."""
    template = _csv_template(grid)
    for path, values in zip(paths, fields):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ConfigurationError("field shape %s does not match grid %s"
                                     % (values.shape, grid.shape))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(template % tuple(values.ravel().tolist()))


def _parse_rows(path, rows):
    """The data rows of a field CSV as an (n, 3) array of floats.

    A row that is not three numbers is a ConfigurationError naming its line.
    """
    # Joining the rows with a "\n" token between them, a file whose rows all
    # hold three fields reads x1, x2, value, "\n", x1, ...: every fourth
    # token is a row end. Any row with more or fewer fields breaks that.
    tokens = ",\n,".join(rows).split(",")
    if (len(tokens) != 4 * len(rows) - 1
            or tokens[3::4].count("\n") != len(rows) - 1):
        k = next(k for k, row in enumerate(rows) if row.count(",") != 2)
        raise ConfigurationError("%s: line %d: expected 3 fields, got %d"
                                 % (path, k + 2, rows[k].count(",") + 1))
    del tokens[3::4]
    try:
        # a coordinate recurs on every row of its line of nodes, and float()
        # of a 17-digit token is slow, so each distinct token is parsed once
        number = {token: float(token) for token in set(tokens)}
    except ValueError:
        for k, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                raise ConfigurationError("%s: line %d: %r is not a number"
                                         % (path, k // 3 + 2, token)) from None
    return np.array(list(map(number.__getitem__, tokens))).reshape(-1, 3)


def read_field_csv(path):
    """Read a field CSV back into (Grid2D, values).

    The grid is reconstructed from the coordinate columns; spacing must be
    uniform per axis, and every node must appear exactly once.
    """
    header, _, rest = read_text(path).partition("\n")  # \r\n reads as \n
    if header != _HEADER:
        raise ConfigurationError("%s: expected header %s, got %r"
                                 % (path, _HEADER, header))
    rows = rest.splitlines()
    if not rows:
        raise ConfigurationError("%s: no data rows" % path)
    arr = _parse_rows(path, rows)
    x1 = np.unique(arr[:, 0])
    x2 = np.unique(arr[:, 1])
    n1, n2 = len(x1), len(x2)
    if n1 * n2 != len(rows):
        raise ConfigurationError("%s: rows do not form a full grid" % path)
    for ax in (x1, x2):
        steps = np.diff(ax)
        if len(steps) and not np.allclose(steps, steps[0], rtol=1e-12,
                                          atol=1e-12):
            raise ConfigurationError("%s: non-uniform grid spacing" % path)
    grid = Grid2D(float(x1[0]), float(x1[-1]), float(x2[0]), float(x2[-1]),
                  n1, n2)
    i1 = np.searchsorted(x1, arr[:, 0])
    i2 = np.searchsorted(x2, arr[:, 1])
    if np.unique(i1 * n2 + i2).size != len(rows):
        raise ConfigurationError("%s: rows do not form a full grid" % path)
    values = np.empty(grid.shape)
    values[i1, i2] = arr[:, 2]
    return grid, values


def json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError("not JSON serializable: %r" % type(o))


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=json_default)
        fh.write("\n")


def read_json(path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError("%s is not valid JSON: %s" % (path, exc))


def _write_path(dirname, grid, values_3d):
    os.makedirs(dirname, exist_ok=True)
    write_fields([os.path.join(dirname, "slice_%04d.csv" % k)
                  for k in range(values_3d.shape[0])], grid, values_3d)


def _read_path(dirname):
    try:
        names = sorted(n for n in os.listdir(dirname)
                       if n.startswith("slice_") and n.endswith(".csv"))
    except OSError as exc:
        raise ConfigurationError("cannot read %s: %s"
                                 % (dirname, exc.strerror or exc)) from None
    if not names:
        raise ConfigurationError("%s: no slice CSVs found" % dirname)
    grid = None
    slices = []
    for name in names:
        g, v = read_field_csv(os.path.join(dirname, name))
        if grid is None:
            grid = g
        elif g != grid:
            raise ConfigurationError("%s: inconsistent grids across slices"
                                     % dirname)
        slices.append(v)
    return grid, np.stack(slices)


def read_path(dirname, box: Grid2D):
    """Read the path stored in ``dirname`` back into (Grid2D, values).

    From its path.npy, the grid is ``box`` with the node counts of the
    array's shape; a path.npy that is not a 3-D float64 array is a
    ConfigurationError naming the file. Without a path.npy, the path is read
    from the slice CSVs, in name order, and the grid from their coordinates.
    """
    file = os.path.join(dirname, _PATH_FILE)
    try:
        with open(file, "rb") as fh:
            values = np.load(fh, allow_pickle=False)
    except FileNotFoundError:
        return _read_path(dirname)
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigurationError("cannot read %s: %s" % (
            file, getattr(exc, "strerror", None) or exc)) from None
    if not isinstance(values, np.ndarray):  # an .npz archive
        raise ConfigurationError("%s is not a .npy array" % file)
    if (values.dtype != np.float64 or values.ndim != 3
            or min(values.shape[1:]) < 4):
        raise ConfigurationError(
            "%s holds a %s array of shape %s, not an (nt, n1, n2) float64 "
            "path with n1, n2 >= 4" % (file, values.dtype, values.shape))
    _, n1, n2 = values.shape
    grid = Grid2D(box.x1_min, box.x1_max, box.x2_min, box.x2_max, n1, n2)
    return grid, values


def save_run(run_dir, cfg: RunConfig, u_path: ValuePath, m_path: DensityPath,
             summary: dict):
    """Write a self-describing run directory: config, both paths, and the
    command's ``summary`` as summary.json.

    Both paths must lie on the mesh of ``cfg`` (its grid, time.nt and
    time.dt), which is checked before anything is written: path.npy holds no
    coordinates, so config.json is the only record of that mesh.
    """
    grid, nt, dt = cfg.make_grid(), cfg.time.nt, cfg.time.dt
    u_dir, m_dir = os.path.join(run_dir, "u"), os.path.join(run_dir, "m")
    require_mesh(u_dir, u_path, grid, nt, dt)
    require_mesh(m_dir, m_path, grid, nt, dt)
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.json"), "w",
              encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
    for dirname, path in ((u_dir, u_path), (m_dir, m_path)):
        os.makedirs(dirname, exist_ok=True)
        np.save(os.path.join(dirname, _PATH_FILE), path.values)
    write_json(os.path.join(run_dir, "summary.json"), summary)


def load_run(run_dir):
    """Read a run directory back: (u_path, m_path, dynamics, coupling).

    Reads config.json, u/ and m/, not summary.json. Both paths must lie on
    the mesh of config.json (its grid, time.nt and time.dt), and every
    slice of m/ must meet the density rule; a ConfigurationError names the
    directory that breaks either.
    """
    cfg = load_config(os.path.join(run_dir, "config.json"))
    grid, nt, dt = cfg.make_grid(), cfg.time.nt, cfg.time.dt
    u_dir, m_dir = os.path.join(run_dir, "u"), os.path.join(run_dir, "m")
    gu, uv = read_path(u_dir, grid)
    u_path = ValuePath(gu, dt, uv)
    require_mesh(u_dir, u_path, grid, nt, dt)
    gm, mv = read_path(m_dir, grid)
    try:
        m_path = DensityPath(gm, dt, mv)
    except ConfigurationError as exc:
        raise ConfigurationError(["%s: %s" % (m_dir, problem)
                                  for problem in exc.problems]) from None
    require_mesh(m_dir, m_path, grid, nt, dt)
    return u_path, m_path, cfg.make_dynamics(), cfg.make_coupling()


def export_run(run_dir):
    """Write the slices of both paths of a run directory as field CSVs,
    u/slice_%04d.csv and m/slice_%04d.csv, beside its path.npy files."""
    u_path, m_path, _, _ = load_run(run_dir)
    for field, path in (("u", u_path), ("m", m_path)):
        _write_path(os.path.join(run_dir, field), path.grid, path.values)
