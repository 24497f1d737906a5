"""Properties under hypothesis: estimator layouts, measure tags, codebook files.

``measures._Moments`` folds a stream's values in chunks of _CHUNK draws
from each run's first draw, so no mean or stderr depends on how the
stream is cut into blocks, tiles or pieces, and a run of at most one
chunk has numpy's mean and std(ddof=1) / sqrt(n).  A measure's tag parses
back to the measure, a codebook file gives back its codebook bit for bit,
coord_at(t) at a grid time t reads that grid point, every nearest
search returns what a search over all exact distances returns, a
streamed Euler measure gives the paths and the failures of one run over
all its rows in parts that fit _BLOCK_BYTES, a streamed vector or KL
measure's tiles are sample_batch calls in stream order and joined are one
call, and the d=1 Lloyd checkpointed block sums are the full in-block
sums.  A rates config drawn from ``config._KEYS`` loads or is
refused by a ConfigurationError, and quad, adversary, quantize and widths
argv drawn from their option tables exit with a documented code.  Layouts
and values are drawn at random; ``derandomize`` makes every run check the
same examples.
"""
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantquad import measures
from quantquad.config import parse_functional, parse_measure
from quantquad.errors import ConfigurationError, NumericError
from quantquad.measures import (
    AffineCoeff,
    BrownianKL,
    ConstantCoeff,
    Diffusion,
    DiffusionSpec,
    SeedSpec,
    StdNormal,
    UniformCube,
    measure_tag,
    reference_value,
)
from quantquad.paths import Functional, Grid, NormKind, sup_norm_functional
from quantquad.quadrature import classical_mc, classical_mc_replicated
from quantquad.quantize import (
    Codebook,
    _all_point_distances,
    distortion,
    min_dist_batch,
    product_quantizer_bm,
    uniform_midpoint_codebook,
)
from quantquad.storage import load_codebook, save_codebook

_CHUNK = measures._CHUNK
_SEEDS = st.integers(0, 2**32 - 1)


def _examples(count):
    return settings(derandomize=True, max_examples=count, deadline=None, database=None)


def _values(seed, n, ratio=0.0, scale=1.0):
    # Normal draws with mean ratio * scale and standard deviation scale.
    return scale * (ratio + np.random.default_rng(seed).standard_normal(n))


def _cut(values, cuts):
    edges = [0, *sorted(cuts), values.size]
    return [values[a:b] for a, b in zip(edges, edges[1:])]


@_examples(60)
@given(_SEEDS, st.data())
def test_piece_cuts_move_no_mean_or_stderr(seed, data):
    runs = data.draw(st.integers(1, 3), "runs")
    run = data.draw(st.integers(2, 2 * _CHUNK + 50), "run")
    cuts = data.draw(st.lists(st.integers(1, runs * run - 1), unique=True, max_size=8))
    values = _values(seed, runs * run)
    cut = measures._Moments(_cut(values, cuts), (runs,), run=run)
    # Each run is folded as a stream of its own, from its first draw.
    alone = [measures._Moments([values[j * run : (j + 1) * run]]) for j in range(runs)]
    np.testing.assert_array_equal(cut.mean(), [float(m.mean()) for m in alone])
    np.testing.assert_array_equal(cut.stderr(), [float(m.stderr()) for m in alone])


@_examples(60)
@given(
    _SEEDS,
    st.integers(2, _CHUNK),
    st.floats(-1e6, 1e6),
    st.floats(1e-6, 1e6),
    st.lists(st.integers(1, _CHUNK - 1), unique=True, max_size=6),
)
def test_one_chunk_is_numpys_mean_and_stderr(seed, n, ratio, scale, cuts):
    values = _values(seed, n, ratio, scale)
    moments = measures._Moments(_cut(values, [c for c in cuts if c < n]))
    assert float(moments.mean()) == float(values.mean())
    assert float(moments.stderr()) == float(values.std(ddof=1) / math.sqrt(n))


def _estimates():
    cube, seed = UniformCube(2), SeedSpec(70)
    f = Functional(lambda v: np.abs(v - 0.3).sum(axis=1), name="l1")
    M = 2 * _CHUNK + 123
    mc = classical_mc(cube, f, M, seed)
    dist = distortion(uniform_midpoint_codebook(2, 2), cube, 2.0, M, seed)
    reps = classical_mc_replicated(cube, f, _CHUNK // 2 + 7, 5, seed)
    return np.concatenate([[mc.estimate, mc.stderr, dist.value, dist.stderr], reps])


@pytest.fixture(scope="module")
def default_layout():
    measures._held = None
    return _estimates()


@_examples(12)
@given(block_rows=st.integers(40, 3 * _CHUNK), tile_rows=st.integers(7, 3 * _CHUNK))
def test_block_and_tile_bytes_move_no_estimate(default_layout, block_rows, tile_rows):
    # Rows of 2-D draws are 16 bytes.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_BLOCK_BYTES", 16 * block_rows)
        patch.setattr(measures, "_TILE_BYTES", 16 * tile_rows)
        measures._held = None
        try:
            got = _estimates()
        finally:
            measures._held = None
    np.testing.assert_array_equal(got, default_layout)


_MEASURES = st.one_of(
    st.builds(UniformCube, st.integers(1, 50)),
    st.builds(StdNormal, st.integers(1, 50)),
    st.builds(BrownianKL, st.integers(1, 300), st.builds(Grid.uniform, st.integers(2, 600))),
)


@_examples(60)
@given(_MEASURES)
def test_a_measure_tag_parses_back_to_its_measure(measure):
    parsed = parse_measure(measure_tag(measure))
    assert type(parsed) is type(measure)
    if isinstance(measure, BrownianKL):
        assert parsed.k_terms == measure.k_terms
        assert np.array_equal(parsed.grid.points, measure.grid.points)
    else:
        assert parsed == measure


_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@_examples(40)
@given(
    st.integers(1, 5), st.integers(1, 3), st.sampled_from([None, 2, 5]),
    st.floats(0.1, 10.0), st.data(),
)
def test_a_codebook_file_gives_back_its_codebook_bit_for_bit(n, m, grid_size, r, data):
    # Vector codebooks of n points in R^m, or path codebooks of n paths of
    # m components on a uniform grid, each with weights.
    shape = (n, m) if grid_size is None else (n, grid_size, m)
    points = np.array(data.draw(st.lists(_FINITE, min_size=math.prod(shape),
                                         max_size=math.prod(shape)))).reshape(shape)
    assume(np.unique(points.reshape(n, -1), axis=0).shape[0] == n)
    weights = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    weights /= weights.sum()
    weights[int(np.argmax(weights))] += 1.0 - weights.sum()
    grid = None if grid_size is None else Grid.uniform(grid_size)
    norm = NormKind.EUCLIDEAN if grid is None else NormKind.L2
    cb = Codebook(points, r, norm, "tag", grid=grid, weights=weights, oracle_dim=m)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "cb.csv")
        save_codebook(cb, path)
        back = load_codebook(path)
    assert back.points.tobytes() == cb.points.tobytes()
    assert back.points.shape == cb.points.shape
    assert back.weights.tobytes() == cb.weights.tobytes()
    assert (back.order_r, back.norm, back.measure_tag, back.oracle_dim) == (r, norm, "tag", m)
    assert (back.grid is None) == (grid is None)
    if grid is not None:
        assert back.grid.points.tobytes() == grid.points.tobytes()


@_examples(60)
@given(st.data())
def test_coord_at_a_grid_time_reads_that_point(data):
    # float(): the repr of a numpy scalar, np.float64(0.0), does not parse.
    size = data.draw(st.integers(2, 2049), "G")
    grid = Grid.uniform(size)
    t = float(grid.points[data.draw(st.integers(0, size - 1), "i")])
    f = parse_functional(f"coord_at({t!r})", grid)
    assert f(grid.points[None, :, None]).tolist() == [t]


def _search_codebook(data):
    # A product codebook (midpoints on a cube, or Brownian levels on a small
    # grid), the same points without the structure, or a point cloud.
    kind = data.draw(st.sampled_from(["midpoint", "bm", "cloud"]), "kind")
    if kind == "midpoint":
        cb = uniform_midpoint_codebook(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6)))
    elif kind == "bm":
        grid = Grid.uniform(data.draw(st.integers(3, 17)))
        cb = product_quantizer_bm(data.draw(st.integers(1, 24)), data.draw(st.integers(1, 8)), grid)
    else:
        n, m = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
        grid = data.draw(st.sampled_from([None, Grid.uniform(3), Grid.uniform(6)]))
        shape = (n, m) if grid is None else (n, grid.size, m)
        points = np.random.default_rng(data.draw(_SEEDS)).standard_normal(shape)
        norm = NormKind.EUCLIDEAN if grid is None else NormKind.L2
        return Codebook(points, 2.0, norm, "cloud", grid=grid, oracle_dim=1)
    if data.draw(st.booleans(), "drop product"):
        cb = Codebook(cb.points, cb.order_r, cb.norm, cb.measure_tag, grid=cb.grid)
    return cb


@_examples(60)
@given(st.data())
def test_nearest_search_is_the_first_minimum_of_all_distances(data):
    # Samples: random draws, codebook points, and midpoints between two
    # points (a tie in real arithmetic on each product axis where the two
    # hold adjacent levels).
    cb = _search_codebook(data)
    rng = np.random.default_rng(data.draw(_SEEDS))
    first = rng.integers(0, cb.n, 40)
    second = rng.integers(0, cb.n, 40)
    values = np.concatenate([
        cb.points[first],
        0.5 * (cb.points[first] + cb.points[second]),
        rng.standard_normal((40,) + cb.points.shape[1:]),
    ])
    block = data.draw(st.integers(8, 2**14), "block bytes")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_BLOCK_BYTES", block)
        dist, idx = min_dist_batch(values, cb)
    every = _all_point_distances(values, cb)
    nearest = np.argmin(every, axis=1)
    np.testing.assert_array_equal(idx, nearest)
    assert dist.tobytes() == every[np.arange(values.shape[0]), nearest].tobytes()


def _euler_layout(data, minimum=1):
    # (measure, total) of a small Diffusion stream, with _BLOCK_BYTES and
    # _TILE_BYTES drawn for it (set by the caller): Euler parts capped at
    # 1 .. total rows, and tiles of whole or split parts.
    m = data.draw(st.sampled_from([1, 2]), "m")
    k, size = data.draw(st.integers(2, 40), "k"), data.draw(st.integers(2, 40), "G")
    total = data.draw(st.integers(minimum, 2600), "total")
    row_bytes = 8 * m * max(k, size)
    block = row_bytes * data.draw(st.integers(1, total), "block rows")
    block += data.draw(st.integers(0, row_bytes - 1), "spare bytes")
    tile = 8 * m * size * data.draw(st.integers(1, 2 * total), "tile rows")
    vol = AffineCoeff(0.2, 0.1) if m == 2 else AffineCoeff(0.0, 0.3)
    spec = DiffusionSpec(AffineCoeff(0.1, -0.3).drift, vol.diffusion, (1.0,) * m, m)
    return Diffusion(spec, k, Grid.uniform(size)), total, block, tile


@_examples(40)
@given(_SEEDS, st.data())
def test_euler_tiles_joined_are_one_run(seed, data):
    measure, total, block, tile = _euler_layout(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_BLOCK_BYTES", block)
        patch.setattr(measures, "_TILE_BYTES", tile)
        tiles = [(start, t.copy()) for start, t in measures._tiles(measure, SeedSpec(seed), total)]
    starts = np.cumsum([0] + [len(t) for _, t in tiles[:-1]])
    assert [start for start, _ in tiles] == starts.tolist()
    run = measures.sample_batch(measure, SeedSpec(seed), total)
    assert np.concatenate([t for _, t in tiles]).tobytes() == run.tobytes()


@_examples(60)
@given(_SEEDS, st.data())
def test_vector_and_kl_tiles_joined_are_one_batch(seed, data):
    # Blocks of 1 .. total rows and tiles of 1 .. 2 total rows, in bytes of
    # the largest array one draw makes, each with spare bytes; held or not.
    # Each tile is one sample_batch call on the stream where it starts (a
    # held stream is one call), bit for bit, and tiles joined are one call
    # over all rows under the same bytes, bit for bit: a KL tile's paths are
    # a BLAS product whose rounding moves with its row count, and tiles are
    # cut from draw 0 as that call cuts its products.  The block bytes
    # decide what is held.
    measure = data.draw(st.one_of(
        st.builds(UniformCube, st.integers(1, 5)),
        st.builds(StdNormal, st.integers(1, 5)),
        st.builds(BrownianKL, st.integers(1, 30), st.builds(Grid.uniform, st.integers(2, 40))),
    ), "measure")
    total = data.draw(st.integers(1, 600), "total")
    row_bytes = 8 * measures._draw_floats(measure)
    block = row_bytes * data.draw(st.integers(1, total), "block rows")
    tile = row_bytes * data.draw(st.integers(1, 2 * total), "tile rows")
    block += data.draw(st.integers(0, row_bytes - 1), "spare block bytes")
    tile += data.draw(st.integers(0, row_bytes - 1), "spare tile bytes")
    replay = data.draw(st.booleans(), "replay")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_BLOCK_BYTES", block)
        patch.setattr(measures, "_TILE_BYTES", tile)
        measures._held = None
        try:
            tiles = [(start, t.copy()) for start, t in
                     measures._tiles(measure, SeedSpec(seed), total, replay)]
            held = measures._held is not None
            rng = SeedSpec(seed).rng()
            calls = [measures.sample_batch(measure, rng, total if held else len(t))
                     for _, t in tiles[: 1 if held else None]]
            whole = measures.sample_batch(measure, SeedSpec(seed), total)
        finally:
            measures._held = None
    assert held == (replay and total <= block // row_bytes)
    starts = np.cumsum([0] + [len(t) for _, t in tiles[:-1]])
    assert [start for start, _ in tiles] == starts.tolist()
    joined = np.concatenate([t for _, t in tiles])
    assert joined.tobytes() == np.concatenate(calls).tobytes()
    assert joined.tobytes() == whole.tobytes()


@_examples(80)
@given(_SEEDS, st.data())
def test_checkpointed_block_sums_are_the_full_arrays(seed, data):
    # A sorted pool of up to four blocks and a few samples, kept at every
    # _CHECKPOINT that divides _BLOCK: prefixes at drawn samples, block
    # totals, and the pieces of drawn cells (cut at drawn samples too) are
    # those of the full in-block sums, bit for bit.
    from conftest import FullBlockSums

    from quantquad import quantize

    block = quantize._BLOCK
    size = data.draw(st.integers(1, 4 * block + 3), "pool")
    checkpoint = 2 ** data.draw(st.integers(0, int(math.log2(block))), "log2 checkpoint")
    r = data.draw(st.sampled_from([1, 2]), "r")
    flat = np.sort(1e3 + np.random.default_rng(seed).standard_normal(size))
    at = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20), "at"))
    samples = st.lists(st.integers(0, size), max_size=12)
    splits = np.array([0, *sorted(data.draw(samples, "cell edges")), size])
    cuts = []
    if data.draw(st.booleans(), "cut"):
        cuts.append(np.array(data.draw(samples, "cuts"), dtype=np.intp))
    full = FullBlockSums(flat)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantize, "_CHECKPOINT", checkpoint)
        patch.setattr(quantize, "_RUN", np.arange(checkpoint)[:, None])
        sums = quantize._block_sums(flat)
        assert sums.checkpoints.shape[-1] == block // checkpoint + 1
        assert sums.prefix(at, r).tobytes() == full.prefix(at, r).tobytes()
        assert sums.totals(r).tobytes() == full.totals(r).tobytes()
        pieces = quantize._pieces(sums, r, splits, cuts)
    for got, want in zip(pieces, quantize._pieces(full, r, splits, cuts)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _blows_up_at(points, u0):
    # A zero drift that is infinite on one row at given steps of given
    # parts of a run, at[(part, step)] = row.  A part starts where every
    # state is u0.
    seen = {"part": -1, "step": 0}

    def drift(x):
        if (x == u0).all():
            seen["part"], seen["step"] = seen["part"] + 1, 1
        else:
            seen["step"] += 1
        a = np.zeros_like(x)
        row = points.get((seen["part"], seen["step"]))
        if row is not None:
            a[row, -1] = np.inf
        return a

    return drift


@_examples(40)
@given(_SEEDS, st.data())
def test_an_euler_failure_names_the_earliest_step_and_lowest_row(seed, data):
    # A stream fails where sample_batch of all its rows fails: at the
    # earliest step with a non-finite state and, at that step, its lowest
    # row, whichever part holds it, for every part cap and tile size.
    measure, total, block, tile = _euler_layout(data, minimum=100)
    k, m = measure.k_steps, measure.spec.m
    u0 = (1.0,) * m
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_BLOCK_BYTES", block)
        patch.setattr(measures, "_TILE_BYTES", tile)
        sizes = measures._euler_parts(total, k, m, measure.grid.size)
        starts = np.cumsum([0] + sizes[:-1]).tolist()
        points = {}
        for _ in range(data.draw(st.integers(1, 3), "blow-ups")):
            part = data.draw(st.integers(0, len(sizes) - 1), "part")
            step = data.draw(st.integers(1, k - 1), "step")
            points[(part, step)] = data.draw(st.integers(0, sizes[part] - 1), "row")

        def exploding():
            spec = DiffusionSpec(_blows_up_at(points, np.array(u0)),
                                 ConstantCoeff(0.2).diffusion, u0, m)
            return Diffusion(spec, k, measure.grid)

        with pytest.raises(NumericError) as info:
            reference_value(sup_norm_functional(), exploding(), total, SeedSpec(seed))
        with pytest.raises(NumericError) as oracle:
            measures.sample_batch(exploding(), SeedSpec(seed).child(0), total)
    expected = min((step, starts[part] + row) for (part, step), row in points.items())
    assert (oracle.value.step, oracle.value.sample) == expected
    assert (info.value.step, info.value.sample) == expected


@_examples(200)
@given(
    n=st.integers(1, 20_000),
    k=st.integers(2, 2**17),
    m=st.integers(1, 3),
    points=st.integers(2, 2**15),
    spare=st.integers(0, 2**26),
)
def test_euler_parts_fit_the_block_bytes(n, k, m, points, spare):
    # For every bound that admits one draw (_check_draw), the parts of n
    # rows count them once, the larger first and differing by at most one
    # row, and a part's increments and output each fit the bound.  They
    # are the fewest such parts, two at least from 2 _TILE rows.
    block = 8 * m * max(k, points) + spare
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_BLOCK_BYTES", block)
        measures._check_draw(m * max(k, points))
        parts = measures._euler_parts(n, k, m, points)
    assert sum(parts) == n and parts == sorted(parts, reverse=True)
    assert parts[0] - parts[-1] <= 1
    cap = min(16 * measures._TILE, block // (8 * m * max(k - 1, points)))
    assert parts[0] <= cap
    assert 8 * parts[0] * (k - 1) * m <= block and 8 * parts[0] * points * m <= block
    fewest = 2 if n >= 2 * measures._TILE else 1
    assert len(parts) == fewest or -(-n // (len(parts) - 1)) > cap


# Well-typed values of each key of config._KEYS (many that the loader then
# refuses for what they say), and JSON values of every type to put in their
# place.  Sizes stay tiny: a grid or a codebook of the drawn size is built.
_CONFIG_VALUES = {
    "name": ["p", ""],
    "algorithm": ["mc", "vrmc", "euler", "gauss-sub", "bogus"],
    "measure": ["uniform_cube:1", "uniform_cube:2", "brownian_kl:4:9", "std_normal:1", "bogus",
                "kind=diffusion drift=linear:0.1 diffusion=linear:0.2 u0=1 k_steps=4 grid=9",
                "brownian_kl:4:100000000000000"],
    "functional": ["abs_coord_at(0)", "coord_at(1.0)", "sup_norm", "l1_integral", "coord_at(7)",
                   "bogus("],
    "ladder": [[4, 9, 16, 25], [4, 16], [1, 4, 9, 16], [2, 3, 5, 7], [0, 2], [-4, 4], [],
               [10**30], [100, 200, 400, 800]],
    "replications": [5, 1, -2],
    "slope_bracket": [[-1, 0], [-0.5, -1.5], [0, 1e300]],
    "transform": ["loglog", "loglog-in-log", "bogus"],
    "seed": [0, 7, -1, 2**64],
    "reference.kind": ["analytic", "mc", "euler", "bogus"],
    "reference.value": [0.5, 1, -1e300],
    "reference.budget": [1000, 0, -5],
    "reference.k_ref": [9, 0], "reference.n_ref": [200, -1],
    "codebooks.kind": ["midpoint-grid", "files", "lloyd", "bogus"],
    "codebooks.weight_samples": [100, 1000, 99, 0],
    "codebooks.r": [1, 2, 3, 0],
    "profile.alpha": [2.0, 1, 0, -1],
    "profile.beta": [0.0, 1.0, -1e300],
}
_JSON_VALUES = [None, True, 0, 3, 2.5, math.nan, math.inf, "x", "", [], [1], [1.5, "a"],
                {}, {"kind": "mc"}]


def _config_level(data, level, files, chosen):
    # One level of a config from _KEYS.  The algorithm, or the level's kind,
    # is drawn first into ``chosen``.  A key that it reads is left out one
    # time in 100, and a key that it does not read is put in one time in
    # 100; a key put in holds a value of any JSON type one time in 100, any
    # of its _CONFIG_VALUES two times in 100, and the first otherwise (a
    # measure the first that the algorithm samples, as in _FIRST).  An
    # unknown key is added one time in 20.
    from quantquad.config import _KEYS

    fields = {}
    if level in ("", "reference", "codebooks"):
        key = f"{level}.kind" if level else "algorithm"
        chosen[level] = data.draw(st.sampled_from(_CONFIG_VALUES[key]), key)
    for key, (kind, readers) in _KEYS.items():
        parent, _, name = key.rpartition(".")
        if parent != level or name == "*":
            continue
        fate = data.draw(st.integers(0, 99), key)
        if (fate == 99) == (not readers or chosen.get(level) in readers.split()):
            continue
        if fate == 98:
            fields[name] = data.draw(st.sampled_from(_JSON_VALUES))
        elif key == "codebooks.paths":
            fields[name] = {str(n): data.draw(st.sampled_from(files)) for n in (1, 2, 4, 9, 16)}
        elif kind == "object":
            fields[name] = _config_level(data, key, files, chosen)
        elif name in ("algorithm", "kind"):
            fields[name] = chosen[level]
        else:
            values = _CONFIG_VALUES[key]
            first = _FIRST.get(chosen[""], {}).get(key, values[0]) if not level else values[0]
            fields[name] = data.draw(st.sampled_from(values)) if fate > 95 else first
    if data.draw(st.integers(0, 19), f"extra key in {level!r}") == 19:
        extra = data.draw(st.sampled_from(["bogus", "k_steps", "kind", "a.b", "paths"]))
        fields[extra] = data.draw(st.sampled_from(_JSON_VALUES))
    return fields


@pytest.mark.filterwarnings("ignore:voronoi_weights")
def test_a_config_loads_or_is_refused_by_a_configuration_error(tmp_path):
    # Every outcome of load_experiment_config is a config or a
    # ConfigurationError.  Lloyd codebooks are fitted on a small pool, and
    # their weights from at most 1000 samples: the fits are not under test.
    from quantquad import quantize
    from quantquad.config import load_experiment_config

    cb_file = str(tmp_path / "cb.csv")
    save_codebook(uniform_midpoint_codebook(1, 4), cb_file)
    cfg = str(tmp_path / "cfg.json")
    fit, weigh = quantize.lloyd, quantize.voronoi_weights

    def small_fit(measure, n, r, opts=None, seed=None, norm=None):
        return fit(measure, n, r, quantize.LloydOptions(iters=2, restarts=1, pool_size=200), seed)

    @_examples(150)
    @given(st.data())
    def loads_or_is_refused(data):
        with open(cfg, "w") as handle:
            json.dump(_config_level(data, "", [cb_file, cfg], {}), handle)
        try:
            load_experiment_config(cfg)
        except ConfigurationError:
            pass

    def few_weights(codebook, measure, samples, seed):
        return weigh(codebook, measure, min(samples, 1000), seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantize, "lloyd", small_fit)
        patch.setattr(quantize, "voronoi_weights", few_weights)
        loads_or_is_refused()


# Option values for argv, each list's first mostly (or the mode's in
# _FIRST), and every size small: a Lloyd fit is one short restart on a
# small pool.  Among them are a measure whose grid no draw fits in and
# codebook files that are malformed ({cbragged}) or whose header names
# such a grid ({cbhuge}).
_ARGV_VALUES = {
    "measure": ["uniform_cube:1", "brownian_kl:4:100000000000000", "uniform_cube:2",
                "brownian_kl:4:9", "std_normal:1", "bogus",
                "kind=diffusion drift=linear:0.1 diffusion=linear:0.2 u0=1 k_steps=4 grid=9"],
    "codebook": ["{cb}", "{cbragged}", "{cbhuge}", "{cbpath}", "{cb}.missing"],
    "functional": ["coord_at(0)", "abs_coord_at(1.0)", "sup_norm", "l1_integral", "coord_at(x)",
                   "dist_to_codebook({cb})"],
    "n": [2, 1, 300, 0, -3], "samples": [100, 300, 99, 0, -3], "pairs": [100, 300, 0, -3],
    "budget": [300, 100, 0, -3], "segments": [2, 8, 0, -2],
    "alpha": ["2", "1", "0", "-2", "nan", "inf"], "beta": ["0", "1", "-1", "nan", "1e300"],
    "window": ["1", "0.5", "0", "-1", "nan", "inf"], "lip_claim": ["1", "0", "-1", "nan", "inf"],
    "r": [2, 1, 3], "norm": ["l2", "sup", "l1", "euclidean", "bogus"],
    "pool": [200, 1, 0, "x"], "restarts": [1, 0, -1], "iters": [2, 0, -1],
    "weight_samples": [100, 99, 0], "dims": ["1,2", "0", "-1", "1,x", "9", "4,200"],
    "p": ["2", "1", "0", "-1", "nan", "inf"],
}
_FIRST = {
    "euler": {"measure": _ARGV_VALUES["measure"][-1]},
    "gauss-sub": {"measure": "brownian_kl:4:9"},
    "widths": {"measure": "brownian_kl:4:9", "samples": 1000},
}
_SIZES = ("n", "samples", "pairs", "budget", "pool", "restarts", "iters", "weight_samples")


def _argv_exit_with_a_documented_code(tmp_path, commands, count):
    # argv of each command in ``commands``, which maps it to its mode flag
    # (or None) and a table of the options that each mode needs and those
    # it may take.  An option that the mode needs is left out one time in
    # 50, a size it may take never, any other it may take one time in 5,
    # and one it does not read is given one time in 50.  The exit code is
    # one the README documents; an uncaught exception fails the test with
    # its traceback and the argv.
    #
    # The mode, the options and their values come from one seeded Random
    # per example, so every entry of a list is drawn as often as any other
    # when a value is drawn: hypothesis's own draws of them shrink toward
    # each list's first entries and repeat whole examples.  More than half
    # of the argv that reach cli.main must be distinct.
    #
    # An option that one mode of a command alone reads (--pairs, --window)
    # takes a value drawn uniformly from its list, not its first value
    # mostly: that mode is drawn too rarely for the late values to come up
    # otherwise.  Every value of such an option must reach cli.main.
    import contextlib
    import io

    from hypothesis import note

    from quantquad import cli

    files = {name: str(tmp_path / f"{name}.csv") for name in ("cb", "cbpath", "cbragged", "cbhuge")}
    save_codebook(uniform_midpoint_codebook(1, 4), files["cb"])
    save_codebook(product_quantizer_bm(2, 4, Grid.uniform(9)), files["cbpath"])
    for name, source, text, replacement in (
        ("cbragged", "cb", "\n0.375\n", "\n0.375,1\n"),
        ("cbhuge", "cbpath", "uniform:9", "uniform:100000000000000"),
    ):
        with open(files[source]) as src, open(files[name], "w") as dst:
            dst.write(src.read().replace(text, replacement))

    own = {}  # command -> mode -> the options that no other of its modes reads
    for name, (flag, table) in commands.items():
        readers = [set(" ".join(rule).split()) for rule in table.values()]
        own[name] = {mode: {o for o in options if sum(o in r for r in readers) == 1}
                     for mode, options in zip(table, readers)} if flag else {}

    def value(rnd, name, mode, option):
        values = _ARGV_VALUES[option]
        if option not in own[name].get(mode, ()) and rnd.randrange(5) < 4:
            return _FIRST.get(mode or name, {}).get(option, values[0])
        return rnd.choice(values)

    seen = []
    main = cli.main

    def spy(argv):
        seen.append(tuple(argv))
        return main(argv)

    @_examples(count)
    @given(st.sampled_from(sorted(commands)), st.randoms(use_true_random=True))
    def exits_with_a_documented_code(name, rnd):
        flag, table = commands[name]
        mode = rnd.choice(sorted(table))
        argv = [name, *([flag, mode] if flag else []), "--seed", "3",
                "--out", str(tmp_path / "out")]
        needs, takes = (names.split() for names in table[mode])
        for option in dict.fromkeys(" ".join(" ".join(rule) for rule in table.values()).split()):
            sized = option in _SIZES and option in takes
            odds = 49 if option in needs else 50 if sized else 40 if option in takes else 1
            if rnd.randrange(50) < odds:
                argv += ["--" + option.replace("_", "-"),
                         str(value(rnd, name, mode, option)).format(**files)]
        note(f"argv: {argv}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 1, 2, 3)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "main", spy)
        exits_with_a_documented_code()
    assert len(set(seen)) > len(seen) / 2, f"{len(set(seen))} distinct argv of {len(seen)}"
    for name, modes in own.items():
        flag = commands[name][0]
        for mode, options in modes.items():
            argvs = [argv for argv in seen if argv[:3] == (name, flag, mode)]
            for option in options:
                drawn = {argv[i + 1] for argv in argvs for i, word in enumerate(argv)
                         if word == "--" + option.replace("_", "-")}
                wanted = {str(v).format(**files) for v in _ARGV_VALUES[option]}
                assert drawn == wanted, f"{name} {mode} --{option}: {sorted(wanted - drawn)}"


def test_quad_and_adversary_argv_exit_with_a_documented_code(tmp_path):
    # From cli's option tables; quad needs --functional besides.
    from quantquad import cli

    quad = {algo: ("functional " + needs, takes)
            for algo, (needs, takes) in cli._QUAD_OPTIONS.items()}
    _argv_exit_with_a_documented_code(
        tmp_path, {"quad": ("--algo", quad), "adversary": ("--check", cli._ADVERSARY_OPTIONS)},
        500)


def test_quantize_and_widths_argv_exit_with_a_documented_code(tmp_path):
    # Each command's needs and takes, as in cli's parser.
    _argv_exit_with_a_documented_code(tmp_path, {
        "quantize": (None, {"": ("measure n", "r norm pool restarts iters weight_samples")}),
        "widths": (None, {"": ("measure dims", "p norm samples")}),
    }, 200)
