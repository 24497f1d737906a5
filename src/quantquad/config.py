"""Parsing of measures, coefficients, functionals, and experiment configs.

Measures come either as a shorthand ``name:arg[:arg]`` or as the
``kind=... key=value ...`` form used in config files.  Built-in
functionals are referenced by ``name`` or ``name(argument)``.
"""
from __future__ import annotations

import json
import math
import re
from typing import Optional, Union

from .errors import ConfigurationError
from .measures import (
    _check_count,
    _check_draw,
    AffineCoeff,
    BrownianKL,
    ConstantCoeff,
    Diffusion,
    DiffusionSpec,
    LinearCoeff,
    MeasureSpec,
    SeedSpec,
    StdNormal,
    UniformCube,
)
from .paths import (
    DEFAULT_GRID_SIZE,
    Functional,
    Grid,
    NormKind,
    l1_integral_functional,
    path_coord_functional,
    sup_norm_functional,
    vector_coord_functional,
)
from .quantize import dist_to_codebook_functional


def parse_seed(text) -> SeedSpec:
    try:
        return SeedSpec(int(text))
    except (TypeError, ValueError):
        raise ConfigurationError(f"seed must be an integer, got {text!r}") from None


def parse_coefficient(text: str):
    """constant:c, linear:c, or affine:c0,c1."""
    name, _, args = text.partition(":")
    try:
        if name == "constant":
            return ConstantCoeff(float(args))
        if name == "linear":
            return LinearCoeff(float(args))
        if name == "affine":
            c0, c1 = (float(tok) for tok in args.split(","))
            return AffineCoeff(c0, c1)
    except ValueError:
        raise ConfigurationError(f"bad coefficient arguments in {text!r}") from None
    raise ConfigurationError(f"unknown coefficient family {name!r}; use constant/linear/affine")


def _parse_kv(text: str) -> dict:
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise ConfigurationError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        fields[key] = value
    return fields


# The fields a shorthand name:a:b gives, in order, and those each kind reads.
_SHORTHAND = {"uniform_cube": ("d",), "std_normal": ("d",), "brownian_kl": ("k_terms", "grid")}
_FIELDS = {**_SHORTHAND, "diffusion": ("drift", "diffusion", "u0", "m", "k_steps", "grid")}


def parse_measure(text: str) -> MeasureSpec:
    """Parse 'uniform_cube:2' shorthand or 'kind=... key=value ...' form.

    A shorthand's parts are its kind's first fields in order; a part or a
    field the kind does not read is rejected."""
    text = text.strip()
    if "=" in text:
        fields = _parse_kv(text)
        kind = fields.pop("kind", None)
        if kind is None:
            raise ConfigurationError("measure description needs kind=...")
        return _measure_from_fields(kind, fields)
    name, _, rest = text.partition(":")
    if name not in _SHORTHAND:
        raise ConfigurationError(
            f"unknown measure {name!r}; use uniform_cube, std_normal, brownian_kl, "
            f"or the kind=diffusion form"
        )
    keys, args = _SHORTHAND[name], rest.split(":") if rest else []
    if len(args) > len(keys):
        raise ConfigurationError(f"measure {text!r} has the extra part {args[len(keys)]!r}")
    return _measure_from_fields(name, dict(zip(keys, args)))


def _measure_from_fields(kind: str, fields: dict) -> MeasureSpec:
    if kind not in _FIELDS:
        raise ConfigurationError(f"unknown measure kind {kind!r}")
    for key in fields:
        if key not in _FIELDS[kind]:
            raise ConfigurationError(f"measure kind={kind} reads no field {key!r}")
    try:
        sizes = {key: int(text) for key, text in fields.items()
                 if key not in ("drift", "diffusion", "u0")}
        # One draw's largest array is m times its largest size, a path's grid
        # included: check it before a grid or a state of that size is built.
        m, path = sizes.pop("m", 1), "grid" in _FIELDS[kind]
        _check_draw(m * max([sizes.get("grid", DEFAULT_GRID_SIZE if path else 1), *sizes.values()]))
        grid = Grid.uniform(sizes["grid"]) if "grid" in sizes else None
        if kind == "uniform_cube":
            return UniformCube(sizes["d"])
        if kind == "std_normal":
            return StdNormal(sizes["d"])
        if kind == "brownian_kl":
            return BrownianKL(sizes.get("k_terms", 200), grid)
        drift = parse_coefficient(fields["drift"])
        diffusion = parse_coefficient(fields["diffusion"])
        u0 = tuple(float(tok) for tok in fields["u0"].split(","))
        if len(u0) == 1 and m > 1:  # one initial value for every coordinate
            u0 *= m
        spec = DiffusionSpec(drift.drift, diffusion.diffusion, u0, m)
        return Diffusion(spec, sizes["k_steps"], grid)
    except KeyError as exc:
        raise ConfigurationError(f"measure kind={kind} missing field {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"measure kind={kind}: {exc}") from None


_FUNCTIONAL_RE = re.compile(r"^([a-z0-9_]+)(?:\((.*)\))?$")


def parse_functional(text: str, space: Union[Grid, int, None]) -> Functional:
    """Resolve a built-in functional name against the space it reads.

    ``space`` is a Grid for paths, a dimension d for vectors, or None (any
    vector index).  Built-ins: coord_at(t), abs_coord_at(t), sup_norm,
    l1_integral, dist_to_codebook(file).
    """
    match = _FUNCTIONAL_RE.match(text.strip())
    if not match:
        raise ConfigurationError(f"bad functional expression {text!r}")
    name, arg = match.group(1), match.group(2)
    grid = space if isinstance(space, Grid) else None
    if name in ("coord_at", "abs_coord_at"):
        try:
            value = float(arg)
            index = int(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{name} needs a finite numeric argument, got {arg!r}"
            ) from None
        absolute = name == "abs_coord_at"
        if grid is not None:
            return path_coord_functional(value, grid, absolute)
        d = math.inf if space is None else space
        if index != value or not 0 <= index < d:
            raise ConfigurationError(
                f"{name}({arg}) needs an integer coordinate index in [0, {d})"
            )
        return vector_coord_functional(index, absolute)
    if name == "sup_norm":
        return sup_norm_functional()
    if name == "l1_integral":
        if grid is None:
            raise ConfigurationError("l1_integral needs a path measure")
        return l1_integral_functional(grid)
    if name == "dist_to_codebook":
        if arg is None:
            raise ConfigurationError("dist_to_codebook needs a codebook file")
        from .storage import load_codebook

        return dist_to_codebook_functional(load_codebook(arg))
    raise ConfigurationError(f"unknown functional {name!r}")


def parse_norm(text: str) -> NormKind:
    return NormKind.parse(text)


# Each config key: its JSON type and, if not every config reads it, the
# algorithms that read it (a top-level key) or the kinds of its level that
# do (a key below); "codebooks.paths.*" is any key of codebooks.paths.
_KEYS = {
    "name": ("str", ""), "algorithm": ("str", ""), "measure": ("str", ""),
    "functional": ("str", ""), "ladder": ("ints", ""), "replications": ("int", ""),
    "slope_bracket": ("pair", ""), "transform": ("str", ""), "seed": ("int", ""),
    "reference": ("object", ""), "reference.kind": ("str", ""),
    "reference.value": ("float", "analytic"), "reference.budget": ("int", "mc"),
    "reference.k_ref": ("int", "euler"), "reference.n_ref": ("int", "euler"),
    "codebooks": ("object", "vrmc"), "codebooks.kind": ("str", ""),
    "codebooks.paths": ("object", "files"), "codebooks.paths.*": ("str", ""),
    "codebooks.weight_samples": ("int", "lloyd"), "codebooks.r": ("int", "lloyd"),
    "profile": ("object", "gauss-sub"), "profile.alpha": ("float", ""),
    "profile.beta": ("float", ""),
}
_TYPES = {"str": "a string", "int": "an integer", "float": "a finite number",
          "object": "a JSON object", "ints": "a list of integers", "pair": "two finite numbers"}
_NEEDED = object()


def _typed(kind: str, value):
    """``value`` as a JSON ``kind`` of _TYPES (a list as a tuple, a number
    in a float field as a float), or None if it is not one: a bool is no
    integer, and a float is refused in an integer field."""
    if kind in ("ints", "pair"):
        item = "int" if kind == "ints" else "float"
        shaped = type(value) is list and (kind == "ints" or len(value) == 2)
        return tuple(value) if shaped and all(_typed(item, v) is not None for v in value) else None
    if kind == "float" and type(value) in (int, float):
        try:
            return float(value) if math.isfinite(value) else None
        except OverflowError:  # an integer beyond float range
            return None
    return value if type(value) is {"str": str, "int": int, "object": dict}.get(kind) else None


def _read(raw: dict, key: str, default=_NEEDED, parse=None):
    """The dotted ``key`` of the config ``raw``, typed by _KEYS and passed
    through ``parse``; ``default`` if it is absent and not needed.  A key
    _KEYS lacks, one the algorithm or its level's kind does not read, and a
    value of another JSON type are refused with the key's name."""
    level, _, name = key.rpartition(".")
    kind, readers = _KEYS.get(key) or _KEYS.get(level + ".*", (None, ""))
    if kind is None:
        raise ConfigurationError(f"unknown config key {key!r}")
    fields = _read(raw, level, _NEEDED if default is _NEEDED else {}) if level else raw
    if name not in fields:
        if default is _NEEDED:
            raise ConfigurationError(f"missing config key {key!r}")
        return default
    reader = readers and _read(raw, f"{level}.kind" if level else "algorithm")
    if readers and reader not in readers.split():
        who = f"{level} kind" if level else "algorithm"
        raise ConfigurationError(f"{who} {reader!r} reads no config key {key!r}")
    given, value = fields[name], _typed(kind, fields[name])
    if value is None:
        shown = type(given).__name__ + ("" if isinstance(given, dict) else " " + json.dumps(given))
        raise ConfigurationError(f"config key {key!r} must be {_TYPES[kind]}, got {shown}")
    try:
        return value if parse is None else parse(value)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}") from None


def _keys(fields: dict, level: str = ""):
    """Every dotted key of ``fields``, each level before the keys below it."""
    for name, value in fields.items():
        yield level + name
        if isinstance(value, dict):
            yield from _keys(value, f"{level}{name}.")


def load_experiment_config(path: str, seed: Optional[SeedSpec] = None):
    """Build a RateExperimentConfig from a JSON file.

    Every key is read through ``_read`` before anything is built; each
    error is a ConfigurationError that names the file.
    """
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: not a JSON file: {exc}") from None
    try:
        return _config_from(raw, seed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _config_from(raw, seed: Optional[SeedSpec]):
    from .experiments import RateExperimentConfig, _check_ladder, _rung_grid
    from .quadrature import SmallBallProfile, check_path_measure
    from .quantize import _MIN_SAMPLES, lloyd, uniform_midpoint_codebook, voronoi_weights
    from .storage import load_codebook

    if not isinstance(raw, dict):
        raise ConfigurationError(f"a config must be a JSON object, got {type(raw).__name__}")
    for key in _keys(raw):
        _read(raw, key)

    def read(key, default=_NEEDED, parse=None):
        return _read(raw, key, default, parse)

    algorithm, ladder = read("algorithm"), read("ladder")

    profile = None
    if algorithm == "gauss-sub":
        alpha = read("profile.alpha") if "profile" in raw else 2.0
        profile = SmallBallProfile(alpha, read("profile.beta", 0.0))

    # A path ladder's rungs sample its measure's kind, each at its
    # schedule's k, on the grid RateExperimentConfig resolves; f reads the
    # space they sample.
    measure = read("measure", None if algorithm == "gauss-sub" else _NEEDED, parse_measure)
    check_path_measure(algorithm, measure)
    _check_ladder(algorithm, ladder)  # before any grid or codebook is built
    grid = _rung_grid(algorithm, ladder, profile, getattr(measure, "grid", None))
    space = measure.d if measure is not None and measure.grid is None else grid
    functional = read("functional", parse=lambda text: parse_functional(text, space))

    reference = ("mc", 1_000_000)
    if "reference" in raw:  # the kind, then the fields of that kind in _KEYS order
        kind = read("reference.kind")
        reference = (kind, *(read(key) for key, (_, readers) in _KEYS.items()
                             if key.startswith("reference.") and readers == kind))
    if seed is None:
        seed = read("seed", SeedSpec(0), parse_seed)

    codebooks = None
    if algorithm == "vrmc":
        source = read("codebooks.kind") if "codebooks" in raw else "midpoint-grid"
        codebooks = {}
        if source == "midpoint-grid":
            if not isinstance(measure, UniformCube):
                raise ConfigurationError("midpoint-grid codebooks need a uniform_cube measure")
            for n in ladder:
                per_axis = round(abs(n) ** (1.0 / measure.d))
                if per_axis**measure.d != n:
                    raise ConfigurationError(f"ladder size {n} is not a {measure.d}-th power; "
                                             f"midpoint-grid codebooks need per-axis^d sizes")
                codebooks[n] = uniform_midpoint_codebook(measure.d, per_axis)
        elif source == "files":
            for n in ladder:
                codebooks[n] = read(f"codebooks.paths.{n}", parse=load_codebook)
        elif source == "lloyd":
            w_samples = read("codebooks.weight_samples", 200_000)
            _check_count(w_samples, _MIN_SAMPLES)  # before the fits, not after
            for i, n in enumerate(ladder):
                cb = lloyd(measure, n, read("codebooks.r", 2), seed=seed.child(900_000 + i))
                voronoi_weights(cb, measure, w_samples, seed.child(910_000 + i))
                codebooks[n] = cb
        else:
            raise ConfigurationError(f"unknown codebook source {source!r}")

    return RateExperimentConfig(
        name=read("name", "experiment"), algorithm=algorithm, ladder=ladder,
        functional=functional, measure=measure, replications=read("replications", 200),
        reference=reference, slope_bracket=read("slope_bracket", None),
        transform=read("transform", "loglog"), seed=seed, codebooks=codebooks,
        diffusion=measure.spec if algorithm == "euler" else None, profile=profile, grid=grid,
    )
