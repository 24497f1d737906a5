"""File formats: codebook CSV, result JSON, rate-report CSV.

All writes are atomic (temp file in the target directory, then rename),
and every output embeds the seed and the resolved configuration.  A
``written_at`` timestamp is the only field excluded from byte-for-byte
reproducibility.
"""
from __future__ import annotations

import datetime
import json
import math
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
    """Read a codebook file; values round-trip bit-for-bit.  A malformed
    file is refused with its name and the line at fault."""
    with open(path) as handle:
        lines = [(number, line.rstrip("\n")) for number, line in enumerate(handle, start=1)
                 if line.strip()]
    try:
        return _codebook_from(lines)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _positive(text: str, prefix: str = "") -> int:
    """``text`` less ``prefix`` as an integer >= 1, else ValueError."""
    if not text.startswith(prefix) or int(text[len(prefix):]) < 1:
        raise ValueError(text)
    return int(text[len(prefix):])


def _codebook_from(lines) -> Codebook:
    # ``lines`` holds (line number, text) of each line that is not blank.
    if not lines:
        raise ConfigurationError("empty codebook file (line 1)")
    (head, header), body = lines[0], lines[1:]
    if not header.startswith(_CODEBOOK_MAGIC + ","):
        raise ConfigurationError(f"line {head}: expected header starting with {_CODEBOOK_MAGIC!r}")
    meta = {}
    for part in header.split(",")[1:]:
        key, eq, value = part.partition("=")
        if not eq:
            raise ConfigurationError(f"line {head}: malformed field {part.strip()!r}")
        meta[key.strip()] = value.strip()

    def field(key, cast=str, default=None):
        # The header field ``key`` through ``cast``; ``default`` if absent and given.
        if key not in meta and default is None:
            raise ConfigurationError(f"line {head}: missing field {key!r}")
        text = meta.get(key, default)
        try:
            return cast(text)
        except (ValueError, ConfigurationError):
            raise ConfigurationError(f"line {head}: bad field {key}={text!r}") from None

    n, space, order_r = field("n", _positive), field("space"), field("r", float)
    norm, measure = field("norm", NormKind.parse), field("measure")
    oracle = field("oracle_dim", int) if "oracle_dim" in meta else None
    if space == "vector":
        shape = (field("d", _positive),)
    elif space == "path":
        size = field("grid", lambda text: _positive(text, "uniform:"))
        shape = (size, field("m", _positive, "1"))
    else:
        raise ConfigurationError(f"line {head}: unknown space {space!r}")

    if len(body) not in (n, n + 1):
        raise ConfigurationError(
            f"expected {n} point rows (+ optional weights row), got {len(body)} data rows"
        )
    # Each row's width is checked against the header before a grid of the
    # header's size is built.
    rows = []
    for index, (number, line) in enumerate(body):
        try:
            row = np.array([float(tok) for tok in line.split(",")])
        except ValueError:
            raise ConfigurationError(f"line {number}: could not parse numbers") from None
        what, width = ("point", math.prod(shape)) if index < n else ("weights", n)
        if row.size != width:
            raise ConfigurationError(
                f"line {number}: a {what} row must have {width} values, got {row.size}"
            )
        rows.append(row)
    weights = rows.pop() if len(body) == n + 1 else None
    grid = Grid.uniform(shape[0]) if space == "path" else None
    return Codebook(np.stack(rows).reshape(n, *shape), order_r, norm, measure, grid=grid,
                    weights=weights, oracle_dim=oracle)


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
