"""HDF5 / netCDF4 container (gdal_ray.sources.hdf5, round 5).

Standalone tests roundtrip through the from-scratch writer; when the
reference checkout's public autotest fixtures are present, the reader is
additionally validated against real libhdf5-produced files
(frmts/hdf5/hdf5dataset.cpp + frmts/netcdf nc4 parity targets)."""
import glob
import os

import numpy as np
import pytest

from gdal_ray.sources import hdf5

REF_H5 = "/root/reference/autotest/gdrivers/data/hdf5"
REF_NC = "/root/reference/autotest/gdrivers/data/netcdf"


class TestWriterRoundtrip:
    def test_contiguous(self, tmp_path):
        t = np.arange(24, dtype=np.float64).reshape(2, 3, 4) * 1.5
        p = np.arange(12, dtype=np.int32).reshape(3, 4)
        f = str(tmp_path / "t.h5")
        hdf5.write_hdf5(f, {"temp": (["time", "y", "x"], t),
                            "pop": (["y", "x"], p)})
        h = hdf5.H5File(f)
        assert (h.read("temp") == t).all()
        assert (h.read("pop") == p).all()
        assert h.dimensions() == {"time": 2, "y": 3, "x": 4}
        assert h.var_dims("temp") == ["time", "y", "x"]

    @pytest.mark.parametrize("compress", [None, "deflate"])
    def test_chunked(self, tmp_path, compress):
        t = (np.arange(2 * 40 * 50).reshape(2, 40, 50) % 97) \
            .astype(np.float64)
        f = str(tmp_path / "c.h5")
        hdf5.write_hdf5(f, {"temp": (["time", "y", "x"], t)},
                        chunks={"temp": (1, 16, 16)}, compress=compress)
        h = hdf5.H5File(f)
        assert h.datasets["temp"].layout == "chunked"
        assert (h.read("temp") == t).all()

    def test_hyperslab(self, tmp_path):
        t = (np.arange(3 * 30 * 40).reshape(3, 30, 40) % 251) \
            .astype(np.int32)
        f = str(tmp_path / "h.h5")
        hdf5.write_hdf5(f, {"v": (["a", "b", "c"], t)},
                        chunks={"v": (2, 8, 8)}, compress="deflate")
        got = hdf5.read_hyperslab(f, "v", (1, 5, 7), (2, 20, 23))
        assert (got == t[1:3, 5:25, 7:30]).all()

    def test_contiguous_hyperslab_reads_only_its_rows(self, tmp_path):
        """A one-row hyperslab of a 32 MiB contiguous variable copies one
        row, not the file (the file is mapped, not read)."""
        import tracemalloc

        t = np.arange(2048 * 2048, dtype=np.float64).reshape(2048, 2048)
        f = str(tmp_path / "big.h5")
        hdf5.write_hdf5(f, {"v": (["y", "x"], t)})
        del t
        tracemalloc.start()
        try:
            got = hdf5.read_hyperslab(f, "v", (5, 0), (1, 2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        assert (got[0] == np.arange(5 * 2048, 6 * 2048)).all()
        whole = hdf5.H5File(f).read("v")
        assert whole.flags.writeable and whole[2047, 2047] == 2048 ** 2 - 1

    def test_empty_file_is_refused(self, tmp_path):
        f = tmp_path / "empty.h5"
        f.write_bytes(b"")
        with pytest.raises(ValueError, match="not an HDF5 file"):
            hdf5.H5File(str(f))

    def test_dtypes(self, tmp_path):
        for dt in ["uint8", "int16", "uint32", "int64", "float32",
                   "float64"]:
            a = (np.arange(20) % 7).astype(dt).reshape(4, 5)
            f = str(tmp_path / f"d_{dt}.h5")
            hdf5.write_hdf5(f, {"v": (["y", "x"], a)})
            got = hdf5.H5File(f).read("v")
            assert got.dtype == np.dtype(dt) and (got == a).all()

    def test_read_header_facade(self, tmp_path):
        t = np.zeros((4, 6), np.float32)
        f = str(tmp_path / "f.h5")
        hdf5.write_hdf5(f, {"v": (["y", "x"], t)})
        dims, meta, _g = hdf5.read_header(f)
        assert dims["y"] == 4 and dims["x"] == 6
        vdims, shape, dtname, _b, _a, _s = meta["v"]
        assert vdims == ["y", "x"] and shape == [4, 6]
        assert dtname == "float32"

    def test_is_hdf5(self, tmp_path):
        f = str(tmp_path / "x.h5")
        hdf5.write_hdf5(f, {"v": (["y"], np.zeros(3, np.int32))})
        assert hdf5.is_hdf5(f)
        g = str(tmp_path / "x.bin")
        open(g, "wb").write(b"CDF\x01junk")
        assert not hdf5.is_hdf5(g)


@pytest.mark.skipif(not os.path.isdir(REF_H5),
                    reason="reference fixtures not present")
class TestReferenceFixtures:
    def test_sweep(self):
        """Open + fully read every supported libhdf5-produced fixture."""
        ok = fail = 0
        for p in (sorted(glob.glob(f"{REF_H5}/*.h5"))
                  + sorted(glob.glob(f"{REF_NC}/*.nc"))):
            with open(p, "rb") as fh:
                if fh.read(8) != hdf5.MAGIC:
                    continue
            base = os.path.basename(p)
            if base.startswith("test_family") or base == "byte_truncated.nc":
                continue  # multi-file family driver / deliberate truncation
            try:
                h = hdf5.H5File(p)
                for name in h.datasets:
                    try:
                        h.read(name)
                    except NotImplementedError:
                        pass  # vlen/compound datasets: declared unsupported
                ok += 1
            except NotImplementedError:
                fail += 1
        assert ok >= 55, (ok, fail)
        assert fail <= 3

    def test_deflate_fixture_values(self):
        h = hdf5.H5File(f"{REF_H5}/deflate.h5")
        name = next(n for n, d in h.datasets.items()
                    if d.filters and d.dtype.cls in (0, 1))
        a = h.read(name)
        assert a.size > 0 and np.isfinite(
            np.asarray(a, dtype=np.float64)).all()

    def test_byte_chunked_multiple(self):
        # GDAL autotest netcdf.py: byte.tif's 20x20 byte band, checksum
        # 4672 == sum of pixel values? GDALChecksumImage differs; pin the
        # raw content sum which is container-independent
        h = hdf5.H5File(f"{REF_NC}/byte_chunked_multiple.nc")
        a = h.read("Band1")
        assert a.shape == (20, 20) and a.dtype == np.uint8
        assert int(a.sum()) == 50706

    def test_shuffle_deflate(self):
        h = hdf5.H5File(f"{REF_NC}/trmm-nc4z.nc")
        a = h.read("pcp")
        assert a.shape == (40, 40) and a.dtype == np.dtype("<f4")

    def test_dense_group_links(self):
        h = hdf5.H5File(f"{REF_NC}/alldatatypes.nc")
        assert "ubyte_var" in h.datasets
        assert list(h.read("ubyte_var").ravel()) == [255, 254]
        assert list(h.read("ushort_var").ravel()) == [65534, 65533]

    def test_big_endian_float(self):
        h = hdf5.H5File(f"{REF_H5}/float32_big_endian.h5")
        name = next(iter(h.datasets))
        a = h.read(name)
        assert a.dtype.byteorder in (">",)


class TestMdimDispatch:
    def test_netcdf4_through_mdim(self, ray_session, tmp_path):
        from gdal_ray.stages import mdim

        t = ((np.arange(2 * 32 * 32).reshape(2, 32, 32)) % 53) \
            .astype(np.int32)
        f = str(tmp_path / "m.h5")
        hdf5.write_hdf5(f, {"v": (["time", "y", "x"], t)},
                        chunks={"v": (1, 16, 16)}, compress="deflate")
        info = mdim.mdim_info(f).to_pandas()
        assert "v" in set(info["name"])
        ds, md = mdim.read_mdarray_chunks(
            f, "v", {"time": 1, "y": 16, "x": 16})
        red, rmd = mdim.axis_reduce(ds, md, "time", "sum")
        out = mdim.assemble(red, rmd)
        assert (out == t.sum(axis=0)).all()
