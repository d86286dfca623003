import numpy as np
import pyarrow as pa
import ray.data as rd
from gdal_ray.stages import polygonize as poly


def tiles_of(arr, tile):
    H, W = arr.shape
    rows = []
    for ty in range(H // tile):
        for tx in range(W // tile):
            sub = arr[ty*tile:(ty+1)*tile, tx*tile:(tx+1)*tile]
            rows.append({"z": 0, "x": tx, "y": ty, "band": 1, "width": tile,
                         "height": tile, "crs": "EPSG:3857", "nodata": 0.0,
                         "dtype": "uint8", "data": np.ascontiguousarray(sub).tobytes()})
    return pa.Table.from_pylist(rows)


def mosaic_of(ds, tile, H, W):
    out = np.zeros((H, W), np.uint8)
    for r in ds.take_all():
        arr = np.frombuffer(r["data"], np.uint8).reshape(r["height"], r["width"])
        out[r["y"]*tile:(r["y"]+1)*tile, r["x"]*tile:(r["x"]+1)*tile] = arr
    return out


def test_sieve_global_cross_tile():
    arr = np.ones((64, 64), np.uint8)
    arr[20:40, 20:40] = 8          # big survivor (400 px)
    arr[30:33, 38:42] = 5          # small island crossing into background+8
    arr[2:4, 30:34] = 3            # small island crossing top tile border col
    t2 = poly.sieve_global(rd.from_arrow(tiles_of(arr, 32)), threshold=20)
    m2 = mosaic_of(t2, 32, 64, 64)
    t1 = poly.sieve_global(rd.from_arrow(tiles_of(arr, 64)), threshold=20)
    m1 = mosaic_of(t1, 64, 64, 64)
    assert np.array_equal(m1, m2), "tiled != monolithic"
    # small islands merged into largest neighbor
    assert not (m2 == 3).any()
    assert not (m2 == 5).any()
    # island 5 (12 px) straddles 8 and 1: largest neighbor is background 1
    # (64*64 - 400 - 12 - 8 px) -> becomes 1... unless touching-8 shape makes
    # 8 its only/larger neighbor; assert against a scalar reference:
    assert (m2 == 8).sum() == 400 - (arr[20:40, 20:40] == 5).sum()
    assert (m2 == 1).sum() == 64*64 - (m2 == 8).sum()


def test_sieve_chain_fixpoint():
    # two small same-size islands adjacent to each other and to background:
    # each merges into background in turn (fixpoint terminates)
    arr = np.ones((32, 32), np.uint8)
    arr[10:12, 10:12] = 4
    arr[10:12, 12:14] = 6
    out = mosaic_of(poly.sieve_global(rd.from_arrow(tiles_of(arr, 32)), threshold=10),
                    32, 32, 32)
    assert (out == 1).all()


def test_sieve_global_connect8_cross_tile_diagonal():
    # two same-value pixels DIAGONALLY adjacent across the tile corner: with
    # connect8 they are one component; tiled == monolithic
    arr = np.ones((64, 64), np.uint8)
    arr[31, 31] = 5
    arr[32, 32] = 5          # diagonal across both tile borders (corner case)
    arr[10:30, 5:25] = 8     # big survivor
    for tile in (32, 64):
        out = mosaic_of(poly.sieve_global(rd.from_arrow(tiles_of(arr, tile)),
                                          threshold=3, connect8=True),
                        tile, 64, 64)
        if tile == 64:
            mono = out
        else:
            tiled = out
    assert np.array_equal(mono, tiled)
    # the 2-px diagonal component (< 3) merged into background
    assert not (mono == 5).any()


def test_sieve_global_connect8_survives_when_big_enough():
    arr = np.ones((64, 64), np.uint8)
    # 8-connected diagonal chain of 6 px crossing the tile border
    for i in range(6):
        arr[29 + i, 29 + i] = 5
    out = mosaic_of(poly.sieve_global(rd.from_arrow(tiles_of(arr, 32)),
                                      threshold=5, connect8=True), 32, 64, 64)
    assert (out == 5).sum() == 6  # one 6-px component >= threshold survives


def test_sieve_global_many_components_parity(ray_session):
    """Round-4: distributed contraction parity on a many-component random
    fixture — tiled output must equal the monolithic (no cross-tile pairs)
    run of the same code, and drive the small-subgraph merge loop hard."""
    rng = np.random.default_rng(7)
    arr = rng.integers(1, 5, size=(128, 128)).astype(np.uint8)
    t4 = poly.sieve_global(rd.from_arrow(tiles_of(arr, 32)), threshold=6,
                           tile_size=32)
    m4 = mosaic_of(t4, 32, 128, 128)
    t1 = poly.sieve_global(rd.from_arrow(tiles_of(arr, 128)), threshold=6,
                           tile_size=128)
    m1 = mosaic_of(t1, 128, 128, 128)
    assert np.array_equal(m1, m4), "tiled != monolithic on random fixture"
    # sieve actually changed something (non-trivial merge load)
    assert not np.array_equal(m4, arr)


def _runs_of(vec: np.ndarray):
    """Scalar reference: runs of equal non-negative labels along a vector."""
    out = []
    c = 0
    n = len(vec)
    while c < n:
        if vec[c] < 0:
            c += 1
            continue
        v = vec[c]
        c2 = c + 1
        while c2 < n and vec[c2] == v:
            c2 += 1
        out.append((c, c2, v))
        c = c2
    return out


def test_runs_of_np_matches_scalar():
    rng = np.random.default_rng(3)
    for _ in range(50):
        vec = rng.integers(-1, 4, size=rng.integers(0, 40))
        got = list(zip(*(a.tolist() for a in poly._runs_of_np(vec)))) \
            if len(vec) else []
        assert got == _runs_of(vec)
