"""Output parity of the tile stages that read and write F3 tile rows
(FIXTURES.md F3) through ``functions/tilerow``.

Each case's schema and sorted rows are pinned to a sha256 recorded before
the stages moved from their own decoders and row builders onto the one
tile-row codec.  Stages that read any tile run on both address widths of
F3: the narrow synthetic schema (int16/int32/int8 address columns) and the
wide file-driver one (int64).  Stages already pinned elsewhere
(``test_cogroup.py``, ``test_seam_protocol.py``) are not repeated here.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.functions import tilerow
from gdal_ray.sources import netcdf3, synthetic
from gdal_ray.stages import (contour, fillpalette, focal, mdim, proximity,
                             pyramid, rastermap, viewshed)

_ADDRESS = ("z", "x", "y", "band", "width", "height")


def _tiles(kind: str, nx: int, ny: int, wide: bool, size: int = 16,
           drop=(), ragged: bool = False):
    """``nx`` x ``ny`` synthetic tiles without the (x, y) tiles in ``drop``;
    ``ragged`` cuts the last column and row of tiles to half their size."""
    t = synthetic.make_raster_tiles(kind, nx, ny, size=size)
    if drop or ragged:
        rows = []
        for i in range(t.num_rows):
            x, y = t["x"][i].as_py(), t["y"][i].as_py()
            if (x, y) in drop:
                continue
            cut = [size // 2 if ragged and c == n - 1 else size
                   for c, n in ((y, ny), (x, nx))]
            rows.append(tilerow.tile_row(t, i, tilerow.pixels(t, i)[:cut[0], :cut[1]]))
        t = pa.Table.from_pylist(rows, schema=t.schema)
    if wide:
        for c in _ADDRESS:
            t = t.set_column(t.schema.get_field_index(c), c, t[c].cast(pa.int64()))
    return rd.from_arrow(t)


def _stack(w):
    return rastermap.stack_bands([_tiles("checker", 2, 2, w),
                                  _tiles("ramp", 2, 2, w),
                                  _tiles("blobs", 2, 2, w)])


_RELIEF = [(0, 0, 0, 0), (3, 100, 50, 20), (6, 255, 255, 255)]
_PALETTE = [0, 2, 4, 6]

TILE_CASES = {
    "reclassify": lambda w: rastermap.reclassify(
        _tiles("blobs", 2, 2, w), {1: 10, 2: 20, 6: 60}),
    "reclassify_default": lambda w: rastermap.reclassify(
        _tiles("checker", 2, 2, w), {255: 1}, default=7),
    "calc": lambda w: rastermap.calc(_tiles("ramp", 2, 2, w), "A * 2 + 1"),
    "scale": lambda w: rastermap.scale(_tiles("ramp", 2, 2, w), 0, 60, 0, 255),
    "set_type": lambda w: rastermap.set_type(_tiles("ramp", 2, 2, w), "uint8"),
    "band_stats": lambda w: rastermap.band_stats(_tiles("hump", 2, 2, w)),
    "band_stats_sampled": lambda w: rastermap.band_stats(
        _tiles("hump", 2, 2, w), sample_fraction=0.5),
    "histogram": lambda w: {"hist": rastermap.histogram(
        _tiles("ramp", 2, 2, w), 8, 0.0, 64.0).tolist()},
    "resize": lambda w: rastermap.resize(_tiles("ramp", 2, 2, w), 8, 6, "bilinear"),
    "clip_window": lambda w: rastermap.clip_window(
        _tiles("ramp", 2, 2, w), 5, 3, 27, 30, tile_size=16),
    "retile": lambda w: rastermap.retile(_tiles("ramp", 2, 2, w), 16, 12, 2, 2, 2),
    "as_features": lambda w: rastermap.as_features(
        _tiles("blobs", 2, 2, w), nodata=0.0, tile_size=16),
    "color_relief": lambda w: rastermap.color_relief(_tiles("blobs", 2, 2, w), _RELIEF),
    "select_band": lambda w: rastermap.select_band(_stack(w), 2),
    "calc_multi": lambda w: rastermap.calc_multi(_stack(w), "A + B * C"),
    "band_stats_lazy": lambda w: rastermap.band_stats_lazy(
        _tiles("blobs", 2, 2, w), stride=2),
    "tile_index": lambda w: rastermap.tile_index(
        _tiles("checker", 2, 2, w), tile_size=16, global_width=32),
    "equalize": lambda w: rastermap.equalize(_tiles("blobs", 2, 2, w), levels=16),
    "nodata_to_alpha": lambda w: rastermap.nodata_to_alpha(_tiles("blobs", 2, 2, w)),
    "raster_attribute_table": lambda w: rastermap.raster_attribute_table(
        _tiles("blobs", 2, 2, w), pixel_area=2.5, area_scale=10),
    "focal_hillshade": lambda w: focal.focal(_tiles("hump", 3, 3, w), "hillshade"),
    "focal_tpi": lambda w: focal.focal(_tiles("blobs", 3, 3, w), "tpi"),
    "neighbors_median": lambda w: focal.neighbors(_tiles("blobs", 3, 3, w), "median"),
    "contour": lambda w: contour.contour(_tiles("hump", 3, 3, w), [100.0, 200.0], 3, 3, 16),
    "contour_band_areas": lambda w: contour.contour_band_areas(
        _tiles("hump", 3, 3, w), [100.0, 200.0], 3, 3, 16),
    "contour_polygons": lambda w: contour.contour_polygons(
        _tiles("hump", 3, 3, w), [100.0, 200.0], tile_size=16),
    "contour_polygons_interp": lambda w: contour.contour_polygons_interp(
        _tiles("hump", 3, 3, w), [150.0], 3, 3, 16),
    "sieve": lambda w: contour.sieve(_tiles("blobs", 2, 2, w), 30),
    "proximity": lambda w: proximity.proximity(_tiles("blobs", 2, 2, w)),
    "proximity_target": lambda w: proximity.proximity(
        _tiles("blobs", 2, 2, w), target_value=3),
    "viewshed": lambda w: viewshed.viewshed(
        _tiles("hump", 3, 3, w), 20, 21, 2.0, tile_size=16),
    "viewshed_dem": lambda w: viewshed.viewshed(
        _tiles("hump", 3, 3, w), 20, 21, 2.0, tile_size=16, mode="dem"),
    "viewshed_radius": lambda w: viewshed.viewshed_radius(
        _tiles("hump", 3, 3, w), 20, 21, 12, 2.0, tile_size=16),
    "viewshed_sectors": lambda w: viewshed.viewshed_sectors(
        _tiles("hump", 3, 3, w), 20, 21, 12, n_sectors=4, observer_height=2.0,
        tile_size=16),
    "fill_nodata": lambda w: fillpalette.fill_nodata(
        _tiles("blobs", 2, 2, w), nodata=0.0, max_dist=3),
    "dither_ordered": lambda w: fillpalette.dither_ordered(
        _tiles("blobs", 2, 2, w), _PALETTE),
    "dither_floyd_steinberg": lambda w: fillpalette.dither_floyd_steinberg(
        _tiles("blobs", 2, 2, w), _PALETTE, 2, 2, tile_size=16),
    "refresh_overviews": lambda w: pyramid.refresh_overviews(
        _tiles("ramp", 4, 4, w), [(0, 0), (3, 2)]),
    "warp_tiles_join": lambda w: pyramid.warp_tiles_join(
        _tiles("ramp", 2, 2, w), (0.0, 0.5, 0.0, 10.0, 0.0, -0.5), 6,
        tile_px=16, resample="bilinear", src_tile_size=16),
    "retile_ragged": lambda w: rastermap.retile(
        _tiles("ramp", 3, 3, w, ragged=True), 16, 12, 2, 3, 3),
    "warp_tiles_join_nearest": lambda w: pyramid.warp_tiles_join(
        _tiles("ramp", 3, 3, w, ragged=True), (0.0, 0.5, 0.0, 10.0, 0.0, -0.5), 6,
        tile_px=16, resample="nearest", src_tile_size=16),
}

# the halo stages on 3x3 mosaics with the centre tile missing, with one
# corner tile missing, and with a last column and row of 8 px of 16
MOSAICS = {
    "hole_centre": {"drop": {(1, 1)}},
    "hole_corner": {"drop": {(2, 2)}},
    "ragged": {"ragged": True},
}
HALO_CASES = {
    "focal_hillshade": lambda w, m: focal.focal(_tiles("hump", 3, 3, w, **m), "hillshade"),
    "neighbors_median": lambda w, m: focal.neighbors(
        _tiles("blobs", 3, 3, w, **m), "median"),
    "contour": lambda w, m: contour.contour(
        _tiles("hump", 3, 3, w, **m), [100.0, 150.0, 200.0], 3, 3, 16),
    "fill_nodata": lambda w, m: fillpalette.fill_nodata(
        _tiles("blobs", 3, 3, w, **m), nodata=0.0, max_dist=8),
}
TILE_CASES.update({
    f"{name}_{mosaic}": (lambda w, f=f, m=m: f(w, m))
    for name, f in HALO_CASES.items() for mosaic, m in MOSAICS.items()})


def _float64_pyramid_base() -> rd.Dataset:
    """A 4x4 float64 base level in the schema ``build_overview`` reads."""
    t = synthetic.make_raster_tiles("hump", 4, 4, size=16)
    data = [np.frombuffer(b, np.float32).astype(np.float64).tobytes()
            for b in t["data"].to_pylist()]
    t = t.set_column(t.schema.get_field_index("data"), "data", pa.array(data, pa.binary()))
    t = t.set_column(t.schema.get_field_index("dtype"), "dtype",
                     pa.array(["float64"] * t.num_rows))
    return rd.from_arrow(t)


@pytest.fixture(scope="module")
def cube(tmp_path_factory):
    p = str(tmp_path_factory.mktemp("cube") / "c.nc")
    v = (np.arange(2 * 10 * 12).reshape(2, 10, 12) % 23).astype(np.int16)
    netcdf3.write_netcdf3(p, {"v": (("t", "y", "x"), v)})
    return p


def _mdim_tiles(path):
    ds, md = mdim.read_mdarray_chunks(path, "v", {"t": 1, "y": 4, "x": 5})
    red, rmd = mdim.axis_reduce(ds, md, "t", "sum")
    return mdim.to_raster_tiles(red, rmd)


def _mdim_reproject(path):
    ds, md = mdim.read_mdarray_chunks(path, "v", {"t": 1, "y": 4, "x": 5})
    out, omd = mdim.mdim_reproject(ds, md, (0.0, 1.0, 0.0, 10.0, 0.0, -1.0),
                                   (0.5, 1.5, 0.0, 9.5, 0.0, -1.5), 7, 6, tile=4)
    return {"assembled": mdim.assemble(out, omd).tolist(), "dims": omd.names}


OTHER_CASES = {
    "build_overview": lambda path: pyramid.build_overview(_float64_pyramid_base(), 16),
    "mdim_to_raster_tiles": _mdim_tiles,
    "mdim_reproject": _mdim_reproject,
}

CASES = {
    **{f"{name}_{form}": (lambda _p, f=f, w=form == "wide": f(w))
       for name, f in TILE_CASES.items() for form in ("narrow", "wide")},
    **OTHER_CASES,
}


def _digest(out) -> str:
    """sha256 of an operator's schema and its rows in sorted order."""
    if isinstance(out, dict):
        schema, rows = sorted((k, type(v).__name__) for k, v in out.items()), [out]
    elif isinstance(out, pa.Table):
        schema, rows = str(out.schema), out.to_pylist()
    else:
        out = out.materialize()
        schema, rows = str(out.schema().base_schema), out.take_all()
    items = sorted((tuple(sorted(r.items())) for r in rows), key=repr)
    assert items
    return hashlib.sha256(repr((schema, items)).encode()).hexdigest()


# case -> sha256 of the schema and sorted rows, recorded on the stages'
# own decoders and row builders, before they moved onto functions/tilerow
DIGESTS = {
    "as_features_narrow": "6988e8b33562f5490e3f0b7c117f705131ed8be9f83082e577bceaf3e05b1414",
    "as_features_wide": "6988e8b33562f5490e3f0b7c117f705131ed8be9f83082e577bceaf3e05b1414",
    "band_stats_lazy_narrow": "2ecded112d8f49ec7457ee83cbe9b0a42df2709dd4ddf08d2c7c8a64269cce07",
    "band_stats_lazy_wide": "2ecded112d8f49ec7457ee83cbe9b0a42df2709dd4ddf08d2c7c8a64269cce07",
    "band_stats_narrow": "532d2aa3f728d9e853dc5c3daffbbe1e9e46bd496ea68c0c0c6a7fe94e541f56",
    "band_stats_sampled_narrow": "de800eb72a79046b09f0591d70c5ba7ecbef2ec1cf34fecd66d6d0b7eb21de83",
    "band_stats_sampled_wide": "de800eb72a79046b09f0591d70c5ba7ecbef2ec1cf34fecd66d6d0b7eb21de83",
    "band_stats_wide": "532d2aa3f728d9e853dc5c3daffbbe1e9e46bd496ea68c0c0c6a7fe94e541f56",
    "build_overview": "a57cb1ec94a090a110e72688f11d48f01069abca8be2d23adfb3c697b6e62a8e",
    "calc_multi_narrow": "4ba82df67e1f59ea4e7a18c526e7959903d83e8b4724128ce9f7ff4c9b700020",
    "calc_multi_wide": "4ba82df67e1f59ea4e7a18c526e7959903d83e8b4724128ce9f7ff4c9b700020",
    "calc_narrow": "841fb340a38b4da67ee53ccc064d59b5fbc5aae39a722aef33088f777a011020",
    "calc_wide": "841fb340a38b4da67ee53ccc064d59b5fbc5aae39a722aef33088f777a011020",
    "clip_window_narrow": "d01a23315312c0bbdb8b483eab4b491957e8a216bbc1b58da1a634352273fe29",
    "clip_window_wide": "d01a23315312c0bbdb8b483eab4b491957e8a216bbc1b58da1a634352273fe29",
    "color_relief_narrow": "a1335d2a9afa8bdadc35e04f9ec0af68036e974c1868c7bab3993a9fc8eceb11",
    "color_relief_wide": "a1335d2a9afa8bdadc35e04f9ec0af68036e974c1868c7bab3993a9fc8eceb11",
    "contour_band_areas_narrow": "915c79d5d07353e03c1b2012878c8e507483f562d6ddf4ce13083adaba3c73da",
    "contour_band_areas_wide": "915c79d5d07353e03c1b2012878c8e507483f562d6ddf4ce13083adaba3c73da",
    "contour_narrow": "26331973448f7ef74599be3d08c15a3e8ce03710898495e3e112641bc2a185ed",
    "contour_polygons_interp_narrow": "b94bd0f1adb0b9a6269104eae993fc6c868220051c43a09389d00eacd8815142",
    "contour_polygons_interp_wide": "b94bd0f1adb0b9a6269104eae993fc6c868220051c43a09389d00eacd8815142",
    "contour_polygons_narrow": "fe5cfd1f4f679cc8eb114cf316ab6bcf2d7c2065dc5ca356e900158d5de157ab",
    "contour_polygons_wide": "fe5cfd1f4f679cc8eb114cf316ab6bcf2d7c2065dc5ca356e900158d5de157ab",
    "contour_wide": "26331973448f7ef74599be3d08c15a3e8ce03710898495e3e112641bc2a185ed",
    "dither_floyd_steinberg_narrow": "19ac2aacacf384308d042108463fff2fb5eb447a2d018180fd8a97a00df9a112",
    "dither_floyd_steinberg_wide": "19ac2aacacf384308d042108463fff2fb5eb447a2d018180fd8a97a00df9a112",
    "dither_ordered_narrow": "bbe61881d2193cfc5e0bd71d21dd50b073e2ce83193a72e12670826c034a652e",
    "dither_ordered_wide": "bbe61881d2193cfc5e0bd71d21dd50b073e2ce83193a72e12670826c034a652e",
    "equalize_narrow": "96bcee998057f8d1054f08221ee1df4b95e11143e435d9fa5e245ace6d2e6c10",
    "equalize_wide": "96bcee998057f8d1054f08221ee1df4b95e11143e435d9fa5e245ace6d2e6c10",
    "fill_nodata_narrow": "684035f34a58654bf9e5e3dc9c7971019d1d2571b93b90df77123a6856f48fa9",
    "fill_nodata_wide": "684035f34a58654bf9e5e3dc9c7971019d1d2571b93b90df77123a6856f48fa9",
    "focal_hillshade_narrow": "667359578dd28e1b2dbc233b47ba9c77ecccb0e616956df589713c270eb16368",
    "focal_hillshade_wide": "667359578dd28e1b2dbc233b47ba9c77ecccb0e616956df589713c270eb16368",
    "focal_tpi_narrow": "cf90015feacd1a69ca3c48fa8e0c308a4a7ea05cae55118a269d85290f8d55d7",
    "focal_tpi_wide": "cf90015feacd1a69ca3c48fa8e0c308a4a7ea05cae55118a269d85290f8d55d7",
    "histogram_narrow": "c0926757d0bac5980ae3c3e4cbb1730a5f17cd23d72b467727be4a13a2773ba9",
    "histogram_wide": "c0926757d0bac5980ae3c3e4cbb1730a5f17cd23d72b467727be4a13a2773ba9",
    "mdim_reproject": "42e444d467f722b9eee9bf3a254e66cbbe390c826e009a256335bba5584210d9",
    "mdim_to_raster_tiles": "3ac75372039fe4c0bb4041dc9cf1a76a62220d7624eb1d28e453b9a36a0e44d3",
    "neighbors_median_narrow": "35818a0180e14f6f92ca5efe32d2ab1fd44799ffd78fc6792993e01285d78c81",
    "neighbors_median_wide": "35818a0180e14f6f92ca5efe32d2ab1fd44799ffd78fc6792993e01285d78c81",
    "nodata_to_alpha_narrow": "90857d1bd2c8a395dfb924993e2abee24e27f3ca125c0a717d799e4bea82b741",
    "nodata_to_alpha_wide": "6f356a856d15e8a29868dacdcb548a7add2c73cda89e83ad98302539eb9bbbbc",
    "proximity_narrow": "946b2723089df4745171e5042023640a9196d13a766c049bf6b6ee09d10f22e1",
    "proximity_target_narrow": "e52488d368af3adad713383c9bd94f7b9e7eaecf10d08548ac96b4afc40caf37",
    "proximity_target_wide": "e52488d368af3adad713383c9bd94f7b9e7eaecf10d08548ac96b4afc40caf37",
    "proximity_wide": "946b2723089df4745171e5042023640a9196d13a766c049bf6b6ee09d10f22e1",
    "raster_attribute_table_narrow": "2d72d35c624eaa847db349f7c7c66edc7a21ce6deb555918a785c42fd517b26e",
    "raster_attribute_table_wide": "2d72d35c624eaa847db349f7c7c66edc7a21ce6deb555918a785c42fd517b26e",
    "reclassify_default_narrow": "cf2043648b2bf3723574377ac1fc54b331cc0bd9080fc5dc6ae824f2a641d1c4",
    "reclassify_default_wide": "cf2043648b2bf3723574377ac1fc54b331cc0bd9080fc5dc6ae824f2a641d1c4",
    "reclassify_narrow": "250c9216731d6ec487b3921a9ad37a174d04c6c82cdd51bf31318061f659ee2f",
    "reclassify_wide": "250c9216731d6ec487b3921a9ad37a174d04c6c82cdd51bf31318061f659ee2f",
    "refresh_overviews_narrow": "4b2b309b7d1f9c071f85f2355c8d9290ca1c246e71bcb85889ee9472e5a2890a",
    "refresh_overviews_wide": "4b2b309b7d1f9c071f85f2355c8d9290ca1c246e71bcb85889ee9472e5a2890a",
    "resize_narrow": "abb5c4919354396b549fa5614c00f54ea59e4a71aa76adca4a1b1e12346870bd",
    "resize_wide": "abb5c4919354396b549fa5614c00f54ea59e4a71aa76adca4a1b1e12346870bd",
    "retile_narrow": "1d897bbcc6f19d7c69c2f94f9bc36311bb14824af224f9094e3654c7136e962b",
    "retile_wide": "1d897bbcc6f19d7c69c2f94f9bc36311bb14824af224f9094e3654c7136e962b",
    "scale_narrow": "7196e064276adc76c5401e04bc1db7f16eb8f202d2dbc9312dc114dfd8dcac0c",
    "scale_wide": "7196e064276adc76c5401e04bc1db7f16eb8f202d2dbc9312dc114dfd8dcac0c",
    "select_band_narrow": "adbb7bdec9d53cf4b1228f1be7f7e39d708e622195c75a9e9ee13743ef744169",
    "select_band_wide": "adbb7bdec9d53cf4b1228f1be7f7e39d708e622195c75a9e9ee13743ef744169",
    "set_type_narrow": "e7ca98505c300d73edef6c7bd13c4aea2e2a37efd567384ee3ab19cfc1b4e136",
    "set_type_wide": "e7ca98505c300d73edef6c7bd13c4aea2e2a37efd567384ee3ab19cfc1b4e136",
    "sieve_narrow": "2c4f0dea1a5482ad8f434baa1008d61e6c052708f1245714ca1dc0af672bfa95",
    "sieve_wide": "2c4f0dea1a5482ad8f434baa1008d61e6c052708f1245714ca1dc0af672bfa95",
    "tile_index_narrow": "8bbcfea7839cd929af616ed64c076d0ab756fb3811caf12c793ad6787527cbdc",
    "tile_index_wide": "8bbcfea7839cd929af616ed64c076d0ab756fb3811caf12c793ad6787527cbdc",
    "viewshed_dem_narrow": "45f11ba859ac9cce0f3d460e4ddc313051faa03cf680d6705045b28ae1645fef",
    "viewshed_dem_wide": "45f11ba859ac9cce0f3d460e4ddc313051faa03cf680d6705045b28ae1645fef",
    "viewshed_narrow": "f18a5ac97dc683648e055151c462f98e10132057f8ed9091d6992500baa309c3",
    "viewshed_radius_narrow": "6ca2627c8eb5bb0ec583f82512835d0ce049c7d70e73364274578cca45e4490d",
    "viewshed_radius_wide": "6ca2627c8eb5bb0ec583f82512835d0ce049c7d70e73364274578cca45e4490d",
    "viewshed_sectors_narrow": "8de9dd9f79d5cd02acd3e10ea9aa98ab3f3271c9b1c714e85509e21fcc9b8b80",
    "viewshed_sectors_wide": "8de9dd9f79d5cd02acd3e10ea9aa98ab3f3271c9b1c714e85509e21fcc9b8b80",
    "viewshed_wide": "f18a5ac97dc683648e055151c462f98e10132057f8ed9091d6992500baa309c3",
    "warp_tiles_join_narrow": "f2302f6d6888be4a7ce1ee691de8afeb490470b9d2c44067c346e16ab48ed06c",
    "warp_tiles_join_wide": "f2302f6d6888be4a7ce1ee691de8afeb490470b9d2c44067c346e16ab48ed06c",
}

# the sparse, corner-less and ragged mosaics, ``retile`` on the ragged one
# and ``warp_tiles_join`` nearest, recorded on the two role-keyed halo
# exchanges and the stages' own clip-and-copy loops, before they moved onto
# ``focal._halo_exchange`` and ``tilerow.paste``
DIGESTS.update({
    "contour_hole_centre_narrow": "9d663df388dd06df369c6ee3172469f3028919a66e62c9642a0378bbec2e3985",
    "contour_hole_centre_wide": "9d663df388dd06df369c6ee3172469f3028919a66e62c9642a0378bbec2e3985",
    "contour_hole_corner_narrow": "c35fe2cd7d73e72b86b2a7e82b6ddebfa7c1866643168b6158a8b09751aafe79",
    "contour_hole_corner_wide": "c35fe2cd7d73e72b86b2a7e82b6ddebfa7c1866643168b6158a8b09751aafe79",
    "contour_ragged_narrow": "d7c71ee5e0b80e500e4a3dbe053593519678c1cb7039731c5af26bcace2b7b45",
    "contour_ragged_wide": "d7c71ee5e0b80e500e4a3dbe053593519678c1cb7039731c5af26bcace2b7b45",
    "fill_nodata_hole_centre_narrow": "90ec0945ddc3f780219073e94fd70dbf994ec6ca6c33ee32397215288afe5c2b",
    "fill_nodata_hole_centre_wide": "90ec0945ddc3f780219073e94fd70dbf994ec6ca6c33ee32397215288afe5c2b",
    "fill_nodata_hole_corner_narrow": "8071393da8ebe570111b5b26fefba04a010d3d5c110d931615a06093cb20a29b",
    "fill_nodata_hole_corner_wide": "8071393da8ebe570111b5b26fefba04a010d3d5c110d931615a06093cb20a29b",
    "fill_nodata_ragged_narrow": "02d895dcb425347904f3bd95d0330f302f7ff752024cf93c19992ae983616054",
    "fill_nodata_ragged_wide": "02d895dcb425347904f3bd95d0330f302f7ff752024cf93c19992ae983616054",
    "focal_hillshade_hole_centre_narrow": "b8fb5b2e2253006caf7928cb716764e16bb02e7354102a4ec31c12d7378611a4",
    "focal_hillshade_hole_centre_wide": "b8fb5b2e2253006caf7928cb716764e16bb02e7354102a4ec31c12d7378611a4",
    "focal_hillshade_hole_corner_narrow": "96b8f0dc69e852463433b78cd63c440e5a2ed30fd4ed41506481ce2b20f168ac",
    "focal_hillshade_hole_corner_wide": "96b8f0dc69e852463433b78cd63c440e5a2ed30fd4ed41506481ce2b20f168ac",
    "focal_hillshade_ragged_narrow": "7dd5df6ecf4cbdc45fe9921804e8747fcd4a34a4c5a647944737f84f6cb58ecd",
    "focal_hillshade_ragged_wide": "7dd5df6ecf4cbdc45fe9921804e8747fcd4a34a4c5a647944737f84f6cb58ecd",
    "neighbors_median_hole_centre_narrow": "674985674d8a5efd7b69d23b20c23bb8a8bb1a2cc6c21736a092feed08a2248e",
    "neighbors_median_hole_centre_wide": "674985674d8a5efd7b69d23b20c23bb8a8bb1a2cc6c21736a092feed08a2248e",
    "neighbors_median_hole_corner_narrow": "7a576bbd549c53b2c7833ce3065d0425105721ae76f40ad68874d5f5392b406d",
    "neighbors_median_hole_corner_wide": "7a576bbd549c53b2c7833ce3065d0425105721ae76f40ad68874d5f5392b406d",
    "neighbors_median_ragged_narrow": "b541edcc33dad34abd62b1ea6c60fa4aec46322a14147922963d8ebb21d05742",
    "neighbors_median_ragged_wide": "b541edcc33dad34abd62b1ea6c60fa4aec46322a14147922963d8ebb21d05742",
    "retile_ragged_narrow": "06c55e97252df9c5a08b07409f6a9eee42f5024387b54b4af128b1e3dddebf5b",
    "retile_ragged_wide": "06c55e97252df9c5a08b07409f6a9eee42f5024387b54b4af128b1e3dddebf5b",
    "warp_tiles_join_nearest_narrow": "8981328716e5af4ae6c7e061a65b240114c5e9ff8fe767d33e309f3eb09819f8",
    "warp_tiles_join_nearest_wide": "8981328716e5af4ae6c7e061a65b240114c5e9ff8fe767d33e309f3eb09819f8",
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_tile_stage_parity(name, ray_session, cube):
    assert _digest(CASES[name](cube)) == DIGESTS[name]
