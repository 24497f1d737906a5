"""File formats: codebook CSV, result JSON, rate-report CSV.

All writes are atomic (temp file in the target directory, then rename),
and every output embeds the seed and the resolved configuration.  A
``written_at`` timestamp is the only field excluded from byte-for-byte
reproducibility.
"""
from __future__ import annotations

import datetime
import json
import os
import tempfile

import numpy as np

from .errors import ConfigurationError
from .experiments import _fit_coords
from .paths import Grid, NormKind
from .quantize import Codebook

_CODEBOOK_MAGIC = "quantquad-codebook v1"


def atomic_write(path: str, text: str):
    """Write text to ``path`` via a temp file and rename; no partial outputs."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".quantquad-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _is_uniform(grid: Grid) -> bool:
    return bool(np.allclose(np.diff(grid.points), 1.0 / (grid.size - 1), atol=0, rtol=1e-12))


def save_codebook(codebook: Codebook, path: str, extra: dict = None):
    """Write a codebook as header + one CSV row per point (+ weights row).

    ``extra`` adds key=value pairs to the header (the CLI records the seed
    and resolved options there); values must not contain commas.
    """
    fields = [f"n={codebook.n}"]
    if codebook.grid is None:
        fields.append("space=vector")
        fields.append(f"d={codebook.points.shape[1]}")
    else:
        if not _is_uniform(codebook.grid):
            raise ConfigurationError(
                "codebook files support uniform grids only"
            )
        fields.append("space=path")
        fields.append(f"grid=uniform:{codebook.grid.size}")
        fields.append(f"m={codebook.points.shape[2]}")
    fields.append(f"r={codebook.order_r!r}")
    fields.append(f"norm={codebook.norm.value}")
    fields.append(f"measure={codebook.measure_tag}")
    if codebook.oracle_dim is not None:
        fields.append(f"oracle_dim={codebook.oracle_dim}")
    for key, value in (extra or {}).items():
        text = str(value)
        if "," in text or "," in key:
            raise ConfigurationError(f"header field {key}={text!r} contains a comma")
        fields.append(f"{key}={text}")
    lines = [_CODEBOOK_MAGIC + ", " + ", ".join(fields)]
    flat = codebook.flat_points()
    for i in range(codebook.n):
        lines.append(_format_row(flat[i]))
    if codebook.weights is not None:
        lines.append(_format_row(codebook.weights))
    atomic_write(path, "\n".join(lines) + "\n")


def load_codebook(path: str) -> Codebook:
    """Read a codebook file; values round-trip bit-for-bit."""
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise ConfigurationError(f"{path}: empty codebook file (line 1)")
    header = lines[0]
    if not header.startswith(_CODEBOOK_MAGIC + ","):
        raise ConfigurationError(
            f"{path}: line 1: expected header starting with "
            f"{_CODEBOOK_MAGIC!r}"
        )
    meta = {}
    for part in header.split(",")[1:]:
        part = part.strip()
        if "=" not in part:
            raise ConfigurationError(f"{path}: line 1: malformed field {part!r}")
        key, value = part.split("=", 1)
        meta[key.strip()] = value.strip()
    try:
        n = int(meta["n"])
        space = meta["space"]
        order_r = float(meta["r"])
        norm = NormKind.parse(meta["norm"])
        measure = meta["measure"]
    except KeyError as exc:
        raise ConfigurationError(f"{path}: line 1: missing field {exc}") from None
    oracle = int(meta["oracle_dim"]) if "oracle_dim" in meta else None

    body = lines[1:]
    if len(body) not in (n, n + 1):
        raise ConfigurationError(
            f"{path}: expected {n} point rows (+ optional weights row), "
            f"got {len(body)} data rows"
        )
    rows = []
    for offset, line in enumerate(body, start=2):
        try:
            rows.append(np.array([float(tok) for tok in line.split(",")]))
        except ValueError:
            raise ConfigurationError(
                f"{path}: line {offset}: could not parse numbers"
            ) from None
    weights = None
    if len(body) == n + 1:
        weights = rows.pop()
        if weights.size != n:
            raise ConfigurationError(
                f"{path}: line {len(body) + 1}: weights row must have {n} values"
            )
    flat = np.stack(rows)

    if space == "vector":
        d = int(meta["d"])
        if flat.shape[1] != d:
            raise ConfigurationError(f"{path}: point rows must have {d} values")
        return Codebook(flat, order_r, norm, measure, weights=weights,
                        oracle_dim=oracle)
    if space == "path":
        kind, _, size = meta["grid"].partition(":")
        if kind != "uniform":
            raise ConfigurationError(f"{path}: line 1: unknown grid {meta['grid']!r}")
        grid = Grid.uniform(int(size))
        m = int(meta.get("m", "1"))
        if flat.shape[1] != grid.size * m:
            raise ConfigurationError(
                f"{path}: point rows must have {grid.size * m} values"
            )
        points = flat.reshape(n, grid.size, m)
        return Codebook(points, order_r, norm, measure, grid=grid,
                        weights=weights, oracle_dim=oracle)
    raise ConfigurationError(f"{path}: line 1: unknown space {space!r}")


# ---------------------------------------------------------------------------
# Result records


def timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def write_result_json(path: str, payload: dict):
    """Result record with config echo; ``written_at`` is added here."""
    record = dict(payload)
    record["written_at"] = timestamp()
    atomic_write(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def write_rate_report_csv(path: str, report, config_echo: dict):
    """CSV table (size, rmse, stderr) with config echo and fit summary."""
    lines = [f"# {key}={value}" for key, value in sorted(config_echo.items())]
    lines.append(f"# written_at={timestamp()}")
    lines.append("size,rmse,stderr")
    for row in report.rows():
        lines.append(
            f"{row['size']!r},{row['rmse']!r},{row['stderr']!r}"
        )
    fit = report.fit
    bracket = report.slope_bracket
    lines.append(
        f"# fit transform={fit.transform} slope={fit.slope!r} "
        f"intercept={fit.intercept!r} r_squared={fit.r_squared!r}"
    )
    lines.append(
        f"# bracket={bracket} passed={str(report.passed).lower()}"
    )
    atomic_write(path, "\n".join(lines) + "\n")


def write_plot_data_csv(path: str, report):
    """Transformed coordinates for downstream plotting; no plotting here."""
    fit = report.fit
    lines = ["x,y,fitted"]
    for x, y in zip(*_fit_coords(report.points, fit.transform)):
        lines.append(f"{x!r},{y!r},{fit.slope * x + fit.intercept!r}")
    atomic_write(path, "\n".join(lines) + "\n")
