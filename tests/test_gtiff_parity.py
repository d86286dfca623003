"""Byte parity of every GeoTIFF writer in ``sources/gtiff.py``.

Each case writes one file and pins its sha256, recorded before the strip,
tile, COG and BigTIFF layouts moved onto one IFD packer and one chunk
encoder.  Each file is then read back through both public read paths
(``read_gtiff``: the whole buffer; ``read_gtiff_manifest``: seeks) and the
tag dicts they hand to ``_chunk_layout`` must be equal, image by image.
``validate_cog`` walks the same IFD chain, BigTIFF included.
"""

import copy
import hashlib
import struct

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.sources import gtiff


def _ramp(h, w, dtype, salt=0):
    """Smooth ramp plus a little deterministic noise (LZW/deflate see real
    structure, and predictor 2 has something to difference)."""
    gy, gx = np.mgrid[0:h, 0:w]
    noise = ((gx * 7919 + gy * 104729 + salt * 31) % 13).astype(np.float64)
    v = gx * 3.0 + gy * 2.0 + noise
    if np.dtype(dtype).kind == "f":
        return (v / 7.0 - 20.0).astype(dtype)
    if np.dtype(dtype).kind == "c":
        return (v + 1j * noise).astype(dtype)
    if np.dtype(dtype).kind == "i":
        v = v - 40.0
    return (v % (np.iinfo(dtype).max + 1.0)).astype(dtype)


def _rgb(h, w, ns):
    return np.stack([_ramp(h, w, "uint8", salt=s) for s in range(ns)], axis=2)


def _wg(arr, **kw):
    return lambda p: gtiff.write_gtiff(p, arr, **kw)


WRITE_GTIFF = {
    "strips_none_u16": _wg(_ramp(70, 50, "uint16"), rows_per_strip=16),
    "tiles_none_u16": _wg(_ramp(70, 50, "uint16"), tile_size=32),
    "strips_deflate_u8": _wg(_ramp(70, 50, "uint8"), compress="deflate"),
    "tiles_deflate_u8": _wg(_ramp(70, 50, "uint8"), tile_size=32,
                            compress="deflate"),
    "strips_lzw_i16": _wg(_ramp(70, 50, "int16"), rows_per_strip=20,
                          compress="lzw"),
    "tiles_lzw_u16": _wg(_ramp(70, 50, "uint16"), tile_size=32,
                         compress="lzw"),
    "strips_packbits_u8": _wg(_ramp(70, 50, "uint8"), compress="packbits"),
    "tiles_packbits_i32": _wg(_ramp(70, 50, "int32"), tile_size=32,
                              compress="packbits"),
    "tiles_lzw_pred2_i16": _wg(_ramp(70, 50, "int16"), tile_size=32,
                               compress="lzw", predictor=2),
    "strips_deflate_pred2_u32": _wg(_ramp(70, 50, "uint32"),
                                    rows_per_strip=24, compress="deflate",
                                    predictor=2),
    "tiles_none_pred2_u8": _wg(_ramp(40, 40, "uint8"), tile_size=16,
                               predictor=2),
    "tiles_deflate_f32": _wg(_ramp(70, 50, "float32"), tile_size=32,
                             compress="deflate"),
    "strips_none_f64": _wg(_ramp(30, 20, "float64"), rows_per_strip=8),
    "strips_none_c64": _wg(_ramp(20, 25, "complex64")),
    "tiles_lzw_rgb": _wg(_rgb(70, 50, 3), tile_size=32, compress="lzw"),
    "tiles_deflate_pred2_rgb": _wg(_rgb(70, 50, 3), tile_size=32,
                                   compress="deflate", predictor=2),
    "strips_none_rgba": _wg(_rgb(45, 40, 4), rows_per_strip=10),
    "big_endian_tiles_lzw_pred2_i16": _wg(
        _ramp(70, 50, "int16"), tile_size=32, compress="lzw", predictor=2,
        endian=">"),
    "big_endian_strips_f32": _wg(_ramp(70, 50, "float32"), endian=">",
                                 rows_per_strip=32),
    "big_endian_strips_rgb": _wg(_rgb(30, 20, 3), endian=">"),
    "nodata_tiles_i16": _wg(_ramp(70, 50, "int16"), tile_size=32,
                            nodata=-9999, origin=(500000.0, 4100000.0),
                            pixel_size=(30.0, 30.0), epsg=32633),
    "epsg4326_strips_f32": _wg(_ramp(70, 50, "float32"), epsg=4326,
                               origin=(-10.5, 45.25),
                               pixel_size=(0.01, 0.01), nodata=-1.5),
}


def _append(compress, tile_size):
    def make(p):
        base = _ramp(96, 80, "uint16")
        gtiff.write_gtiff(p, base, tile_size=tile_size, compress=compress,
                          nodata=0)
        gtiff.append_gtiff_images(
            p, [_ramp(48, 40, "uint16", 1), _ramp(24, 20, "uint16", 2)],
            tile_size=tile_size, pixel_size=[(2.0, 2.0), (4.0, 4.0)],
            nodata=0, compress=compress)
    return make


def _wc(arr, **kw):
    return lambda p: gtiff.write_cog(p, arr, origin=(100.0, 200.0),
                                     pixel_size=(0.5, 0.5), **kw)


WRITE_COG = {
    "cog_u8_deflate": _wc(_ramp(150, 130, "uint8"), tile_size=32),
    "cog_u8_lzw": _wc(_ramp(150, 130, "uint8"), tile_size=32,
                      compress="lzw"),
    "cog_u8_none": _wc(_ramp(150, 130, "uint8"), tile_size=32,
                       compress=None),
    "cog_u16_lzw_pred2": _wc(_ramp(150, 130, "uint16"), tile_size=32,
                             compress="lzw", predictor=2, nodata=0),
    "cog_f32_deflate": _wc(_ramp(150, 130, "float32"), tile_size=32,
                           nodata=-9999.0),
    "cog_f32_lzw": _wc(_ramp(150, 130, "float32"), tile_size=32,
                       compress="lzw", epsg=4326),
    "cog_f32_none": _wc(_ramp(150, 130, "float32"), tile_size=32,
                        compress=None),
    "cog_u8_min_overview": _wc(_ramp(150, 130, "uint8"), tile_size=32,
                               compress="lzw", min_overview_size=16),
    "cog_i16_nearest": _wc(_ramp(100, 90, "int16"), tile_size=32,
                           kernel="nearest", compress="deflate"),
}

EAGER_CASES = {**WRITE_GTIFF, **WRITE_COG,
               "append_deflate_tiles": _append("deflate", 32),
               "append_none_strips": _append(None, None)}

PINS = {
    "append_deflate_tiles":
        "94f74a0265d68e33285038b0d6a53887d8f60d7f59ddfd264f9f009a5ca6fa33",
    "append_none_strips":
        "d3f283074b69e5d39d1466a9ecb63df24078f8c57de0da82b606bd468f6963c3",
    "big_endian_strips_f32":
        "3cda69bdcf35f4a3dfda1427f62b86087b73e2d176cd72ee3e0d83b0070a072d",
    "big_endian_strips_rgb":
        "1bf13a98ad7c161ff48c67f24ae8224ec5308797b7e84106b3b68e2a5c81879d",
    "big_endian_tiles_lzw_pred2_i16":
        "6f8783dce56c2e114aab2d0f98d856b27bd4a192b6b5667fbfdc668491df1295",
    "cog_f32_deflate":
        "a7d81fad777366e72a838b7166538fde5adca9864e17c13a5ac8016b57ad2155",
    "cog_f32_lzw":
        "0af00be8f2f605928ff98c8fb866a2107f4620d47e6e85870586bbbdba86fc34",
    "cog_f32_none":
        "b7b01e9983a2925ad093bba240182b67a02e6bbd1bf3968e8cedaaf1cc9a4d20",
    "cog_i16_nearest":
        "018be37405f6942d4259a271f1c18d27daafe986105e4e95fac37925bca63070",
    "cog_u16_lzw_pred2":
        "695708dddb0de2200a38083a979501c4fc30b4e2ad816b94a2162660c263bbfb",
    "cog_u8_deflate":
        "4c1a286361531d42b68c0ad53201b73ea99d59a1fa38bfe409f9f3028cabb520",
    "cog_u8_lzw":
        "0298e67c14061e28eeaa9e3cab0912f6f8299b845990028d3f2a730c1b97b8f2",
    "cog_u8_min_overview":
        "81c80973caf1356c3f1c237addcb76d638d936e458d6e659da895509960650f9",
    "cog_u8_none":
        "193055af48c6344d20b7b97422ccc4861943e4443eb90befd28d498e04968bff",
    # the one pin that moved: the old writer reserved the pad byte after an
    # odd-length GDAL_NODATA string ("-1.5\0") in its offsets but did not
    # write it, so every chunk sat one byte before its offset (the file read
    # back shifted).  These bytes are the old file with that NUL inserted
    # after the string, at byte 321.
    "epsg4326_strips_f32":
        "4aea495895380a58e7742a277e579bd042d4bce129ad964b56b85b67acd1fd89",
    "nodata_tiles_i16":
        "ed849942bc8bc7a7bb801ad827866353e1074d66aa29f8fcf5083b270fd38adb",
    "overviews_average":
        "cbe1ffc02fcc615e884e9a36256f920c8e040251922952f8ec3fa2a540b6d778",
    "overviews_nearest":
        "763a7823f32087c549f236917e434e5e18ce6de83254524aecbc91812ffde807",
    "stream_big":
        "fe8f9db4dd9b0b20fab5e576b8b9daa863fe907742025db5532b7e215b538481",
    "stream_classic":
        "7aea4c489ba101f81b4579c5fcf84ced9fe9b72e452f5faeaffb97d54267ac19",
    "strips_deflate_pred2_u32":
        "ad713d34d96d6b2d2cd481233914178509a585dedbede3b5cf9f2dbd503ea123",
    "strips_deflate_u8":
        "c079c6a2a343c007821bc7e0fc7d33c05afee8dca571977d0081be0d55455baf",
    "strips_lzw_i16":
        "67f3eaaed20c26261169e959a0c70605c122eafd10af49b6dc944a8a98fd29e5",
    "strips_none_c64":
        "98424967a02ebc217c66caf1d122d38ec701d6f5578f0a4c5f6cddf8984afe7a",
    "strips_none_f64":
        "dcc859c0f2b16e8fedf4b70590315fb29d32a323b3d5cb6f21e550a8eb8c2ceb",
    "strips_none_rgba":
        "7f011042f114e622d94f42467b7e0cfcf6ce3f394d273c1a4536257bc3fa781f",
    "strips_none_u16":
        "ec4c1f4a51feea4cb055168196b5cd93f67071fffcca6e6f840103cd7d27032d",
    "strips_packbits_u8":
        "95b0b8968a7e1841ee75374025e7af9d8f1f2ef549325bbbb643ec8052a382f6",
    "tiles_deflate_f32":
        "b37b2f65eaff16e046905406b0a7632602d3ae82e794035d148faaca5455318f",
    "tiles_deflate_pred2_rgb":
        "9af8b076fd3d8912e3cf9dc7315ed173583d9a33f6cb5cb9e28e051bc59098e4",
    "tiles_deflate_u8":
        "f9cd563a1db3e71dfb75fd9580e03166a50c115e15d8cc58906c6d8943d383b5",
    "tiles_lzw_pred2_i16":
        "b48959c382c33109551bf5f4effedf066b059080e080fb4e9962e1fc15f4d5ec",
    "tiles_lzw_rgb":
        "c5414cf28f154633d45b46f0cdf530767c3eb200a215952da1e41adacf4cc6db",
    "tiles_lzw_u16":
        "d9370a6b578ba37040c9d1e98b2a39b958e1132e8cc21b2f8f72f327054dd437",
    "tiles_none_pred2_u8":
        "d0262a4b501b282eeb03beb7279b09a411496e46eefc5807e1b38785882f56af",
    "tiles_none_u16":
        "ec8b4af78d83270fcb97e6f9db0ddf82bdffa4af8a9e37134dfa4ca4b65ccfb5",
    "tiles_packbits_i32":
        "4662073885cccc85b887f1190e089babcba1611843e1d358eb1af2e69f06bbe4",
}

HEADER_CASES = {
    "classic_u8": dict(width=64, height=64, tile_size=32, dtype="uint8"),
    "big_u8": dict(width=64, height=64, tile_size=32, dtype="uint8",
                   bigtiff=True),
    "classic_f32_nodata": dict(width=100, height=70, tile_size=32,
                               dtype="float32", nodata=-9999.0,
                               origin=(10.0, 20.0), pixel_size=(2.0, 3.0),
                               epsg=4326),
    "big_i16_big_endian": dict(width=100, height=70, tile_size=16,
                               dtype="int16", endian=">", bigtiff=True,
                               nodata=0.0),
    "big_f64_auto": dict(width=70000, height=70000, tile_size=1000,
                         dtype="float64"),
}

HEADER_PINS = {
    "big_f64_auto": (
        "2c91ade88879e2f03b57de57948476f638832de4d7d5dfe19ac2534e5721a37e",
        59236, 70, 70, 8000000),
    "big_i16_big_endian": (
        "4fb08e7ccf945c8895996826fd7556d89657d8d6a555ddb89fa717286ee00fb1",
        876, 7, 5, 512),
    "big_u8": (
        "b6cb679a68d438db64f2614892ec3c8c13362aedc726a0834ffc6c98ee01b137",
        484, 2, 2, 1024),
    "classic_f32_nodata": (
        "98f54983438219f5a97a4b9114e7be78e47e4bd34cd5ea592ee0086af788d0f3",
        414, 4, 3, 4096),
    "classic_u8": (
        "e9bc1c2fb845071a15e41c4e304d0932e04d24a7cde37dbe8956e7a4bea48124",
        330, 2, 2, 1024),
}


def _sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _tags_both_ways(path, monkeypatch):
    """Tag dicts of every image as ``read_gtiff`` (buffer) and
    ``read_gtiff_manifest`` (seeks) pass them to ``_chunk_layout``."""
    seen = []
    real = gtiff._chunk_layout

    def spy(tags, en):
        seen.append((copy.deepcopy(tags), en))
        return real(tags, en)

    monkeypatch.setattr(gtiff, "_chunk_layout", spy)
    n = gtiff.read_gtiff_manifest(path)["n_images"]
    eager, seeks = [], []
    for i in range(n):
        seen.clear()
        gtiff.read_gtiff(path, image=i)
        eager.append(seen[-1])
        seen.clear()
        gtiff.read_gtiff_manifest(path, image=i)
        seeks.append(seen[-1])
    monkeypatch.setattr(gtiff, "_chunk_layout", real)
    return eager, seeks


def _check(path, name, monkeypatch):
    eager, seeks = _tags_both_ways(path, monkeypatch)
    assert eager == seeks
    assert _sha(path) == PINS[name]


@pytest.mark.parametrize("name", sorted(EAGER_CASES))
def test_writer_bytes(name, tmp_path, monkeypatch):
    p = str(tmp_path / f"{name}.tif")
    EAGER_CASES[name](p)
    _check(p, name, monkeypatch)


@pytest.mark.parametrize("name", sorted(HEADER_CASES))
def test_tiled_header_bytes(name):
    header, data_start, ntx, nty, chunk = gtiff._tiled_header(
        **HEADER_CASES[name])
    got = (hashlib.sha256(header).hexdigest(), data_start, ntx, nty, chunk)
    assert got == HEADER_PINS[name]


def _stream_tiles(w, h, ts, dtype):
    rows = []
    for ty in range(-(-h // ts)):
        for tx in range(-(-w // ts)):
            th, tw = min(ts, h - ty * ts), min(ts, w - tx * ts)
            a = _ramp(th, tw, dtype, salt=ty * 10 + tx)
            rows.append({"x": tx, "y": ty, "width": tw, "height": th,
                         "dtype": dtype, "data": a.tobytes()})
    return rd.from_arrow(pa.Table.from_pylist(rows))


@pytest.mark.parametrize("bigtiff", [False, True])
def test_streaming_and_overview_bytes(ray_session, tmp_path, monkeypatch,
                                      bigtiff):
    tag = "big" if bigtiff else "classic"
    p = str(tmp_path / f"stream_{tag}.tif")
    n = gtiff.write_gtiff_tiles_streaming(
        _stream_tiles(90, 70, 32, "int16"), p, width=90, height=70,
        tile_size=32, dtype="int16", nodata=-1.0, origin=(5.0, 6.0),
        pixel_size=(0.25, 0.25), epsg=4326, bigtiff=bigtiff)
    assert n == 9
    _check(p, f"stream_{tag}", monkeypatch)
    if bigtiff:
        return
    for kernel in ("average", "nearest"):
        q = str(tmp_path / f"ovr_{kernel}.tif")
        gtiff.write_gtiff(q, _ramp(96, 128, "uint16"), tile_size=32,
                          compress="deflate", nodata=0)
        shapes = gtiff.gtiff_build_overviews(q, levels=(2, 4), kernel=kernel)
        assert shapes == [(48, 64), (24, 32)]
        _check(q, f"overviews_{kernel}", monkeypatch)


@pytest.mark.parametrize("tile_size", [None, 32])
@pytest.mark.parametrize("nodata", [-1.5, 1.25, -1.0])
def test_odd_length_nodata_string_keeps_chunks_at_their_offsets(
        tmp_path, tile_size, nodata):
    """GDAL_NODATA strings of odd length with their NUL (``"-1.5\0"``) are
    padded to a word boundary, and the pixel chunks start after the pad."""
    arr = _ramp(70, 50, "float32")
    p = str(tmp_path / "t.tif")
    gtiff.write_gtiff(p, arr, tile_size=tile_size, nodata=nodata)
    back, meta = gtiff.read_gtiff(p)
    assert meta["nodata"] == nodata
    assert np.array_equal(back, arr)
    q = str(tmp_path / "a.tif")
    gtiff.write_gtiff(q, arr, tile_size=tile_size)
    gtiff.append_gtiff_images(q, [arr[::2, ::2]], tile_size=tile_size,
                              nodata=nodata)
    back, meta = gtiff.read_gtiff(q, image=1)
    assert meta["nodata"] == nodata
    assert np.array_equal(back, arr[::2, ::2])


@pytest.mark.parametrize("kw,match", [
    (dict(predictor=2), "integer-only"),
    (dict(compress="zstd"), "unsupported compression")])
def test_write_cog_rejects_what_write_gtiff_rejects(tmp_path, kw, match):
    """COG tiles go through the same chunk encoder: float differencing
    (lossy) and unknown codecs (written raw, tagged uncompressed) raise."""
    arr = _ramp(64, 64, "float32")
    with pytest.raises(ValueError, match=match):
        gtiff.write_cog(str(tmp_path / "c.tif"), arr, tile_size=32, **kw)


def test_validate_cog_walks_a_bigtiff_chain(tmp_path):
    """A BigTIFF IFD is 8 + 20n + 8 bytes: a copy of the streaming header's
    IFD chained after the tile data must be reported as an IFD after the
    first tile (a walk with 12-byte entries never finds the copy)."""
    header, data_start, ntx, nty, chunk = gtiff._tiled_header(
        width=64, height=64, tile_size=32, dtype="uint8", bigtiff=True)
    (n,) = struct.unpack("<Q", header[16:24])
    ifd_end = 16 + 8 + 20 * n + 8
    assert ifd_end == 332
    copy_off = data_start + ntx * nty * chunk
    f = bytearray(header.ljust(copy_off, b"\x00")) + header[16:ifd_end]
    f[ifd_end - 8:ifd_end] = struct.pack("<Q", copy_off)
    p = tmp_path / "chain.tif"
    p.write_bytes(bytes(f))
    v = gtiff.validate_cog(str(p))
    assert v["n_images"] == 2
    assert (f"IFD at {copy_off + ifd_end - 16} after first tile {data_start}"
            in v["errors"])


def test_every_case_is_pinned():
    names = set(EAGER_CASES) | {"stream_classic", "stream_big",
                                "overviews_average", "overviews_nearest"}
    assert names == set(PINS)
    assert set(HEADER_CASES) == set(HEADER_PINS)
