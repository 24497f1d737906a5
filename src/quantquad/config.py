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
    raise ConfigurationError(
        f"unknown coefficient family {name!r}; use constant/linear/affine"
    )


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
        grid = Grid.uniform(int(fields["grid"])) if "grid" in fields else None
        if kind == "uniform_cube":
            return UniformCube(int(fields["d"]))
        if kind == "std_normal":
            return StdNormal(int(fields["d"]))
        if kind == "brownian_kl":
            return BrownianKL(int(fields.get("k_terms", 200)), grid)
        return Diffusion(diffusion_from_fields(fields), int(fields["k_steps"]), grid)
    except KeyError as exc:
        raise ConfigurationError(f"measure kind={kind} missing field {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"measure kind={kind}: {exc}") from None


def diffusion_from_fields(fields: dict) -> DiffusionSpec:
    drift = parse_coefficient(fields["drift"])
    diffusion = parse_coefficient(fields["diffusion"])
    m = int(fields.get("m", 1))
    u0 = tuple(float(tok) for tok in str(fields["u0"]).split(","))
    if len(u0) == 1 and m > 1:
        u0 = u0 * m
    return DiffusionSpec(drift.drift, diffusion.diffusion, u0, m)


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


_CONFIG_KEYS = {  # the keys a config reads, at the top level ("") and in each entry
    "": "name algorithm measure functional ladder replications reference slope_bracket "
        "transform codebooks diffusion profile grid seed",
    "reference": "kind value budget k_ref n_ref",
    "codebooks": "kind paths weight_samples r",
    "diffusion": "drift diffusion u0 m",
    "profile": "alpha beta",
}


class _Entry(dict):
    """One level of a config: a key it lacks is a ConfigurationError that
    names its dotted path, and a nested level is an _Entry too.  A level
    that is not a JSON object is a ConfigurationError naming its key."""

    def __init__(self, fields, path: str, where: str = ""):
        if not isinstance(fields, dict):
            level = f"config key '{where[:-1]}'" if where else "a config"
            raise ConfigurationError(
                f"{path}: {level} must be a JSON object, got {type(fields).__name__}"
            )
        super().__init__(fields)
        self.path, self.where = path, where

    def __getitem__(self, key):
        if key not in self:
            raise ConfigurationError(f"{self.path}: missing config key '{self.where}{key}'")
        value = super().__getitem__(key)
        return _Entry(value, self.path, f"{self.where}{key}.") if isinstance(value, dict) else value

    def get(self, key, default=None):
        return self[key] if key in self else default


def load_experiment_config(path: str, seed: Optional[SeedSpec] = None):
    """Build a RateExperimentConfig from a JSON file.

    Reads the keys of ``_CONFIG_KEYS`` and rejects any other key; a key it
    needs and lacks is named by its dotted path.
    """
    from .experiments import RateExperimentConfig
    from .quadrature import SmallBallProfile
    from .quantize import _MIN_SAMPLES, lloyd, uniform_midpoint_codebook, voronoi_weights
    from .storage import load_codebook

    with open(path) as handle:
        raw = _Entry(json.load(handle), path)
    for level, keys in _CONFIG_KEYS.items():
        for key in _Entry(raw.get(level, {}), path, f"{level}.") if level else raw:
            if key not in keys.split():
                name = f"{level}.{key}" if level else key
                raise ConfigurationError(f"{path}: unknown config key {name!r}")
    algorithm = raw["algorithm"]
    ladder = tuple(int(v) for v in raw["ladder"])

    measure = parse_measure(raw["measure"]) if "measure" in raw else None
    grid = Grid.uniform(int(raw["grid"])) if "grid" in raw else getattr(measure, "grid", None)
    if algorithm in ("euler", "gauss-sub"):  # f reads the grid the rungs sample
        space = grid = grid or Grid.uniform()
    else:
        space = None if measure is None else measure.grid or measure.d
    functional = parse_functional(raw["functional"], space)

    ref_raw = raw.get("reference", {"kind": "mc", "budget": 1_000_000})
    kind = ref_raw["kind"]
    if kind == "analytic":
        reference = ("analytic", float(ref_raw["value"]))
    elif kind == "mc":
        reference = ("mc", int(ref_raw["budget"]))
    elif kind == "euler":
        reference = ("euler", int(ref_raw["k_ref"]), int(ref_raw["n_ref"]))
    else:
        raise ConfigurationError(f"{path}: unknown reference kind {kind!r}")

    if seed is None:
        seed = SeedSpec(int(raw.get("seed", 0)))

    codebooks = None
    if algorithm == "vrmc":
        cb_raw = raw.get("codebooks", {"kind": "midpoint-grid"})
        codebooks = {}
        if cb_raw["kind"] == "midpoint-grid":
            if not isinstance(measure, UniformCube):
                raise ConfigurationError(
                    "midpoint-grid codebooks need a uniform_cube measure"
                )
            d = measure.d
            for n in ladder:
                per_axis = round(n ** (1.0 / d))
                if per_axis**d != n:
                    raise ConfigurationError(
                        f"ladder size {n} is not a {d}-th power; midpoint-grid "
                        f"codebooks need per-axis^d sizes"
                    )
                codebooks[n] = uniform_midpoint_codebook(d, per_axis)
        elif cb_raw["kind"] == "files":
            for n in ladder:
                codebooks[n] = load_codebook(cb_raw["paths"][str(n)])
        elif cb_raw["kind"] == "lloyd":
            w_samples = int(cb_raw.get("weight_samples", 200_000))
            _check_count(w_samples, _MIN_SAMPLES)  # before the fits, not after
            for i, n in enumerate(ladder):
                cb = lloyd(measure, n, int(cb_raw.get("r", 2)),
                           seed=seed.child(900_000 + i))
                voronoi_weights(cb, measure, w_samples, seed.child(910_000 + i))
                codebooks[n] = cb
        else:
            raise ConfigurationError(f"unknown codebook source {cb_raw['kind']!r}")

    diffusion = None
    if algorithm == "euler":
        if "diffusion" in raw:
            diffusion = diffusion_from_fields(raw["diffusion"])
        elif isinstance(measure, Diffusion):
            diffusion = measure.spec
        else:
            raise ConfigurationError("euler experiments need a diffusion entry")

    profile = None
    if algorithm == "gauss-sub":
        prof = raw.get("profile", {"alpha": 2.0, "beta": 0.0})
        profile = SmallBallProfile(float(prof["alpha"]), float(prof.get("beta", 0.0)))

    bracket = raw.get("slope_bracket")
    return RateExperimentConfig(
        name=raw.get("name", "experiment"),
        algorithm=algorithm,
        ladder=ladder,
        functional=functional,
        measure=measure,
        replications=int(raw.get("replications", 200)),
        reference=reference,
        slope_bracket=tuple(bracket) if bracket else None,
        transform=raw.get("transform", "loglog"),
        seed=seed,
        codebooks=codebooks,
        diffusion=diffusion,
        profile=profile,
        grid=grid,
    )
