"""GDALOpen-style driver probe (gcore/gdaldataset.cpp identify loop)."""

import numpy as np
import pytest

from gdal_ray.sources import openraster


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def test_identify_and_open_all_drivers(tmp_path, rng, ray_session):
    from gdal_ray.sources import (aaigrid, bmp, dted, envi, gif, hgt,
                                  netcdf3, pnm, tga)
    from gdal_ray.sources.jpeg import encode_baseline
    from gdal_ray.sources.png import encode_png

    a = rng.integers(0, 256, (70, 90), dtype=np.uint8)
    paths = {}
    bmp.write_bmp(str(tmp_path / "o.bmp"), a)
    paths["BMP"] = tmp_path / "o.bmp"
    gif.write_gif(str(tmp_path / "o.gif"), a)
    paths["GIF"] = tmp_path / "o.gif"
    pnm.write_pnm(str(tmp_path / "o.pgm"), a)
    paths["PNM"] = tmp_path / "o.pgm"
    (tmp_path / "o.png").write_bytes(encode_png(a))
    paths["PNG"] = tmp_path / "o.png"
    c8 = np.repeat(np.repeat(rng.integers(0, 256, (9, 12), dtype=np.uint8),
                             8, 0), 8, 1)
    (tmp_path / "o.jpg").write_bytes(encode_baseline(c8))
    paths["JPEG"] = tmp_path / "o.jpg"
    hgt.write_hgt(str(tmp_path / "N10E020.hgt"),
                  rng.integers(-100, 100, (1201, 1201)).astype(np.int16))
    paths["SRTMHGT"] = tmp_path / "N10E020.hgt"
    dted.write_dted(str(tmp_path / "o.dt0"),
                    rng.integers(-100, 100, (121, 121)).astype(np.int16))
    paths["DTED"] = tmp_path / "o.dt0"
    tga.write_tga(str(tmp_path / "o.tga"), a)
    paths["TGA"] = tmp_path / "o.tga"
    aaigrid.write_asc(str(tmp_path / "o.asc"), a.astype(np.float64))
    paths["AAIGrid"] = tmp_path / "o.asc"
    netcdf3.write_netcdf3(str(tmp_path / "o.nc"),
                          {"v": (("y", "x"), a.astype(np.float32))})
    paths["netCDF"] = tmp_path / "o.nc"
    envi.write_envi(str(tmp_path / "o_envi"), a[None].astype(np.float32))
    paths["ENVI"] = tmp_path / "o_envi.dat"

    for drv, p in paths.items():
        assert openraster.identify(str(p)) == drv
        tiles = openraster.open_raster_tiles(str(p), tile_size=64)
        rows = tiles.take_all()
        assert rows, drv
        # value transparency for the lossless byte formats
        if drv in ("BMP", "GIF", "PNM", "PNG", "TGA"):
            full = rows[0]
            got = np.frombuffer(full["data"], np.uint8).reshape(
                full["height"], full["width"])
            assert np.array_equal(got, a[:64, :64]), drv

    junk = tmp_path / "junk.zzz"
    junk.write_bytes(b"\x00" * 40)
    with pytest.raises(ValueError, match="no driver claims"):
        openraster.identify(str(junk))


def test_open_raster_pipeline_step(tmp_path, rng, ray_session):
    from gdal_ray.pipelines import steps
    from gdal_ray.sources import bmp

    a = rng.integers(0, 256, (70, 90), dtype=np.uint8)
    p = tmp_path / "s.bmp"
    bmp.write_bmp(str(p), a)
    out = steps.run_pipeline(None, f"open_raster path={p} ! limit n=2")
    assert out.count() == 2
    with pytest.raises(ValueError, match="path"):
        steps.run_pipeline(None, "open_raster")


# ---------------------------------------------------------------------------
# Tile-table parity: every driver's tile Dataset (schema, row order, bytes)
# is pinned to digests recorded before the drivers shared one window-tile
# builder.  Each case writes a small file, opens it, and hashes the rows in
# order.

_TILE_SCHEMA = ("z: int64\nx: int64\ny: int64\nband: int64\nwidth: int64\n"
                "height: int64\ncrs: string\nnodata: double\ndtype: string\n"
                "data: binary")
_R = np.random.default_rng(8)
_G = _R.integers(0, 256, (70, 90), dtype=np.uint8)
_RGB = _R.integers(0, 256, (70, 90, 3), dtype=np.uint8)
_RUNS = np.repeat(_R.integers(0, 6, (70, 9), dtype=np.uint8) * 40, 10, 1)
_DEM = _R.integers(-500, 3000, (121, 121)).astype(np.int16)
_BLOCKY = np.repeat(np.repeat(_R.integers(0, 256, (9, 12), dtype=np.uint8),
                              8, 0), 8, 1)
_ASC_NROWS_FIRST = ("nrows 5\nncols 7\nxllcorner 0.0\nyllcorner 0.0\n"
                    "cellsize 1.0\nNODATA_value -1.5\n"
                    + "\n".join(" ".join(str(r * 7 + c) for c in range(7))
                                for r in range(5)) + "\n")


def _write_case(name, d):
    """Write case ``name``'s file(s) under ``d`` -> (path, open kwargs)."""
    from gdal_ray.sources import (aaigrid, bmp, dted, envi, gif, gtiff, hgt,
                                  netcdf3, pnm, tga)
    from gdal_ray.sources.jpeg import encode_baseline
    from gdal_ray.sources.png import encode_png

    p = str(d / name)
    kw = {}
    if name == "BMP":
        bmp.write_bmp(p, _G)
    elif name == "BMP_rgb_band2":
        bmp.write_bmp(p, _RGB)
        kw = {"band": 2}
    elif name == "BMP_rle8":
        bmp.write_bmp_rle8(p, _RUNS)
    elif name == "GIF":
        gif.write_gif(p, _G, interlace=True)
    elif name == "PNM":
        pnm.write_pnm(p, _G)
    elif name == "PNM_rgb_band2":
        pnm.write_pnm(p, _RGB)
        kw = {"band": 2}
    elif name == "PNM_uint16":
        pnm.write_pnm(p, _G.astype(np.uint16) * 250)
    elif name == "PNG":
        (d / name).write_bytes(encode_png(_G, filter_type=4))
    elif name == "PNG_rgb":
        (d / name).write_bytes(encode_png(_RGB))
    elif name == "JPEG":
        (d / name).write_bytes(encode_baseline(_BLOCKY))
    elif name == "JPEG_rgb":
        (d / name).write_bytes(encode_baseline(
            np.stack([_BLOCKY, _BLOCKY[::-1], 255 - _BLOCKY], axis=2)))
    elif name == "GTiff":
        gtiff.write_gtiff(p, _DEM, tile_size=48, nodata=-9999.0, epsg=4326)
    elif name == "DTED":
        dted.write_dted(p, _DEM)
        kw = {"z": 7}
    elif name == "netCDF":
        netcdf3.write_netcdf3(p, {
            "t": (("x",), np.arange(90, dtype=np.float64)),
            "v": (("y", "x"), _G.astype(np.float32) / 4),
            "w": (("y", "x"), _G.astype(np.int16) - 100)})
    elif name == "netCDF_var_w":
        p, kw = _write_case("netCDF", d)[0], {"var": "w"}
    elif name == "AAIGrid":
        aaigrid.write_asc(p, _G.astype(np.float64) / 3, nodata=-1.0)
    elif name == "AAIGrid_by_name.asc":
        (d / name).write_text(_ASC_NROWS_FIRST)
        kw = {"tile_size": 4}
    elif name == "SRTMHGT":
        p = str(d / "N10E020.hgt")
        hgt.write_hgt(p, np.arange(1201 * 1201, dtype=np.int64)
                      .reshape(1201, 1201).astype(np.int16))
        kw = {"tile_size": 100}
    elif name == "TGA":
        p += ".tga"
        tga.write_tga(p, _G)
    elif name == "TGA_rle":
        p += ".tga"
        tga.write_tga(p, _RUNS, rle=True)
    elif name == "TGA_rle_rgb_band2":
        p += ".tga"
        tga.write_tga(p, np.stack([_RUNS, _RUNS[::-1], _RUNS.T[:70, :70]
                                   .repeat(2, 1)[:, :90]], axis=2),
                      rle=True, top_down=False)
        kw = {"band": 2}
    elif name == "ENVI":
        p = envi.write_envi(p, _G[None].astype(np.float32))[0]
    elif name == "ENVI_bil_band2":
        p = envi.write_envi(p, np.stack([_G, 255 - _G, _G // 2])
                            .astype(np.int16), interleave="bil")[0]
        kw = {"band": 2}
    elif name == "ENVI_bip_be_band3":
        p = envi.write_envi(p, np.stack([_G, 255 - _G, _G // 2])
                            .astype(np.uint16), interleave="bip",
                            byte_order=1)[0]
        kw = {"band": 3}
    else:
        raise KeyError(name)
    return p, kw


def _table_digest(ds):
    """(schema string, sha256 of the rows in order) of a tile Dataset."""
    import hashlib

    import pyarrow as pa
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    h = hashlib.sha256()
    for row in t.to_pylist():
        h.update(repr(row).encode())
    return t.schema.to_string(show_schema_metadata=False), h.hexdigest()


# case -> (driver the probe picks, sha256 of the rows in order)
_PARITY = {
    "BMP": ("BMP",
        "2418e1ba7f01de9195da1e1c53875f34a230f5785bb6b251422328f4d9c1a226"),
    "BMP_rgb_band2": ("BMP",
        "2277e392116dc3f086d673a72a2f50c230619cb1ffddd7967256390209357720"),
    "BMP_rle8": ("BMP",
        "2ff1772b66945f3388d732cfa4b2f3c9f403b7b440558e80aa12ab9e5aa3750b"),
    "GIF": ("GIF",
        "2418e1ba7f01de9195da1e1c53875f34a230f5785bb6b251422328f4d9c1a226"),
    "PNM": ("PNM",
        "2418e1ba7f01de9195da1e1c53875f34a230f5785bb6b251422328f4d9c1a226"),
    "PNM_rgb_band2": ("PNM",
        "2277e392116dc3f086d673a72a2f50c230619cb1ffddd7967256390209357720"),
    "PNM_uint16": ("PNM",
        "f2f6ed587849eae4c30d196f70553bd26b5d6b4e8d05d140887637395148d0bb"),
    "PNG": ("PNG",
        "2418e1ba7f01de9195da1e1c53875f34a230f5785bb6b251422328f4d9c1a226"),
    "PNG_rgb": ("PNG",
        "136d3dfa760401315e9f2e9c72bdd97e7dbc6b980745ffaf35b365760ce28f8c"),
    "JPEG": ("JPEG",
        "6b2e8a088d0a3e6321a6dc6534d0d6221566f3b0ec4185db12897e0da91465de"),
    "JPEG_rgb": ("JPEG",
        "76f1d2f66bb6272e096d5cbc0838fbe674ade71a0513bf03fd72c4105fe3852a"),
    "GTiff": ("GTiff",
        "4db87a0d40320102b666f18fac4144c7225443931a639a860b23a228e16aac72"),
    "DTED": ("DTED",
        "13ffbd5f46956a224b24d59743db8ac6f8ff927805d765032cd1f82d48d32261"),
    "netCDF": ("netCDF",
        "f2209b968b7a21e9def88473f5a0ab57de4ba7c0885458e4fd3e1d6e2bd1ff9e"),
    "netCDF_var_w": ("netCDF",
        "6b960db2324c263fd7366f1529f37cb8bb302fc50f6ee11d48fd315ca53fc92d"),
    "AAIGrid": ("AAIGrid",
        "1f9f5edd1b1ae93062abc879462a11474417502039a576651d9b2ea342b19c14"),
    "AAIGrid_by_name.asc": ("AAIGrid",
        "e560548c1d55872a891886c2a7ff4da34fe63952beba45f6f8b7a684fcf86dca"),
    "SRTMHGT": ("SRTMHGT",
        "7b6ec3904055fd7330602cedff044182fa6886e450b49a43b87df9c5d83de76b"),
    "TGA": ("TGA",
        "2418e1ba7f01de9195da1e1c53875f34a230f5785bb6b251422328f4d9c1a226"),
    "TGA_rle": ("TGA",
        "2ff1772b66945f3388d732cfa4b2f3c9f403b7b440558e80aa12ab9e5aa3750b"),
    "TGA_rle_rgb_band2": ("TGA",
        "e19619b168a5fd43617fabaadeac8f176da662fa69fab188e13e5f069f726c81"),
    "ENVI": ("ENVI",
        "9a7c54f65f0575c5b71884ab2c2e6073a61b07dfca9567d0a9abfcbbf6434d69"),
    "ENVI_bil_band2": ("ENVI",
        "5e5001bf31c822a11f27fc32c74dc8aef4bb5d7ba306e4853767b02d1df98bf9"),
    "ENVI_bip_be_band3": ("ENVI",
        "9f954fd80da188e5118aa20d0a67c08f9dd7b9a39727958fd5b65ba2b04916ee"),
}


@pytest.mark.parametrize("name", sorted(_PARITY))
def test_tile_table_parity(name, tmp_path, ray_session):
    p, kw = _write_case(name, tmp_path)
    kw.setdefault("tile_size", 32)
    schema, digest = _table_digest(openraster.open_raster_tiles(p, **kw))
    assert openraster.identify(p) == _PARITY[name][0]
    assert schema == _TILE_SCHEMA
    assert digest == _PARITY[name][1]


def test_parity_covers_every_driver():
    assert {drv for drv, _ in _PARITY.values()} == \
        {name for name, _claims, _opener in openraster._DRIVERS}


def test_windowed_driver_reads_no_pixels_in_driver(tmp_path, ray_session):
    """Building (not consuming) the tile Dataset of a 3601x3601 HGT holds
    only the window manifest in the driver, not its 26 MB of tile bytes."""
    import tracemalloc

    from gdal_ray.sources import hgt

    p = str(tmp_path / "N10E020.hgt")
    hgt.write_hgt(p, np.full((3601, 3601), 7, np.int16))
    hgt.read_hgt_tiles(p)  # first build imports Ray Data's plan modules
    tracemalloc.start()
    try:
        ds = hgt.read_hgt_tiles(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    got = [(r["y"], r["x"], r["width"], r["height"])
           for r in ds.drop_columns(["data"]).take_all()]
    assert got == [(y, x, 64 if x < 56 else 17, 64 if y < 56 else 17)
                   for y in range(57) for x in range(57)]
