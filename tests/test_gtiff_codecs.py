"""GTiff LZW/PackBits/Predictor codecs + COG layout (round 5).

Reference parity: frmts/gtiff COMPRESS=LZW/PACKBITS + TIFFTAG_PREDICTOR
(autotest gcore/tiff_read.py), frmts/gtiff/cogdriver.cpp layout rules
(autotest gdrivers/cog.py / validate_cloud_optimized_geotiff.py)."""
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdal_ray.sources import gtiff, tiffcodec as tc


# --- reference: the scalar codec the numpy-batched one replaced -----------
# Verbatim but for one line, marked below: the reference wrote EOI at the
# flush code's width even when the decoder had just widened, so a stream
# whose table ended at 511/1023/2047 entries read back a corrupt code.


def _ref_lzw_decode(data: bytes, max_out: int | None = None) -> bytes:
    out = bytearray()
    table: list[bytes] = []

    def reset():
        nonlocal table, width, next_code
        table = [bytes([i]) for i in range(256)] + [b"", b""]
        width = 9
        next_code = 258

    width = 9
    next_code = 258
    reset()
    bitbuf = 0
    nbits = 0
    prev: bytes | None = None
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (bitbuf >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            bitbuf &= (1 << nbits) - 1
            if code == 256:
                reset()
                prev = None
                continue
            if code == 257:
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code < next_code:
                entry = table[code]
                table.append(prev + entry[:1])
                next_code += 1
            elif code == next_code:
                entry = prev + prev[:1]
                table.append(entry)
                next_code += 1
            else:
                raise ValueError(f"corrupt LZW stream: code {code} "
                                 f"> next {next_code}")
            out += entry
            prev = entry
            if next_code + 1 >= (1 << width) and width < 12:
                width += 1
            if max_out is not None and len(out) >= max_out:
                return bytes(out[:max_out])
    return bytes(out)


def _ref_lzw_encode(data: bytes) -> bytes:
    out = bytearray()
    bitbuf = 0
    nbits = 0
    width = 9

    def emit(code: int):
        nonlocal bitbuf, nbits
        bitbuf = (bitbuf << width) | code
        nbits += width
        while nbits >= 8:
            out.append((bitbuf >> (nbits - 8)) & 0xFF)
            nbits -= 8
            bitbuf &= (1 << nbits) - 1

    table: dict[bytes, int] = {bytes([i]): i for i in range(256)}
    next_code = 258
    emit(256)
    w = b""
    for b in data:
        c = bytes([b])
        wc = w + c
        if wc in table:
            w = wc
            continue
        emit(table[w])
        table[wc] = next_code
        next_code += 1
        if next_code >= (1 << width) and width < 12:
            width += 1
        if next_code >= 4094:
            emit(256)
            table = {bytes([i]): i for i in range(256)}
            next_code = 258
            width = 9
        w = c
    if w:
        emit(table[w])
        if next_code + 1 >= (1 << width) and width < 12:  # the EOI fix
            width += 1
    emit(257)
    if nbits:
        out.append((bitbuf << (8 - nbits)) & 0xFF)
    return bytes(out)


def _pack_codes(codes) -> bytes:
    """Pack raw codes MSB-first at the decoder's width schedule (9 bits at
    a CLEAR, one more at each early-change boundary), for hand-made and
    corrupt streams."""
    bits = []
    k = 0
    for c in codes:
        w = min(12, (258 + k).bit_length())
        bits.append(format(c, f"0{w}b"))
        k = 0 if c == 256 else k + 1
    s = "".join(bits)
    s += "0" * (-len(s) % 8)
    return int(s, 2).to_bytes(len(s) // 8, "big") if s else b""


def _same_decode(data: bytes, max_out=None):
    """The codec decodes ``data`` as the reference does; where the reference
    fails (corrupt code, or IndexError on a first code >= 258) it raises
    ValueError."""
    try:
        want = _ref_lzw_decode(data, max_out)
    except (ValueError, IndexError):
        with pytest.raises(ValueError, match="corrupt LZW stream"):
            tc.lzw_decode(data, max_out)
        return
    assert tc.lzw_decode(data, max_out) == want


def _pair_distinct(n: int) -> bytes:
    """``n`` bytes in which no adjacent pair repeats: every byte after the
    first sends one code and adds one table entry."""
    seq = np.concatenate([(d * np.arange(256)) % 256 for d in range(1, 256, 2)])
    return seq[:n].astype(np.uint8).tobytes()


def _smooth_noise(n: int = 256, amp: int = 4) -> bytes:
    rng = np.random.default_rng(7)
    yy, xx = np.mgrid[0:n, 0:n]
    field = 128 + (xx * 3 + yy * 2) // 8 % 64 + rng.integers(-amp, amp + 1, (n, n))
    return np.clip(field, 1, 255).astype(np.uint8).tobytes()


def _pinned_inputs() -> dict:
    rng = np.random.default_rng(11)
    cases = {
        "empty": b"", "one": b"\x07", "two": b"\x07\x07",
        "zeros_4096": bytes(4096), "zeros_70000": bytes(70000),
        "random_70000": bytes(rng.integers(0, 256, 70000, dtype=np.uint8)),
        "levels3_150000": bytes(rng.integers(0, 3, 150000, dtype=np.uint8)),
        "arange_x200": bytes(np.arange(256, dtype=np.uint8)) * 200,
        "smooth_noise_64k": _smooth_noise(),
    }
    # n codes fill the table to 257 + n entries: straddle each width
    # boundary (511, 1023, 2047) and the reset at 4094
    for top in (511, 1023, 2047, 4093):
        for n in range(top - 258, top - 254):
            cases[f"codes_{n}"] = _pair_distinct(n)
    return cases


# sha256 of lzw_encode output, recorded from the scalar encoder.  The three
# marked "EOI fix" end with the table at 511/1023/2047 entries: there EOI is
# now one bit wider, as libtiff writes it, and the stream reads back whole.
PINNED_LZW = {
    "empty": "630e072871dfcf38beecbb64b92d4d324b9b256396c77c011cfc5788bdc5cda0",
    "one": "01251c894ca6fcba9ff79697e1a00cd57a4c197ad8f250659f91a6c868792435",
    "two": "26c9404e5e24b1e73dbcb32d0994cb6c5ea0c873a60312cfd668f305134bb1b4",
    "zeros_4096": "741bcbfc6f373cac534a67fe5465188468f8fbddc7af8110ddf24bbb0ab1018b",
    "zeros_70000": "5118f2828746c982f28d5bd5c99c1a50d4e51dfec5f8840400d71572d9360f4a",
    "random_70000": "0883e59f9336f4adf98fbc014b5e616854536074d50713d955351159f9cebca8",
    "levels3_150000": "2fca8a436a5e02718d62ec95976c839f0c26aa3e719d07606fb6ea48d493900e",
    "arange_x200": "674292ac905d23af7e54bad9bd307ed9ab63c85cb25aeec18e9fdb4c922d363a",
    "smooth_noise_64k": "68ed710bf40a6093162382a60f29d6dd9bd0140a0b1714ae8ae07c57a966c77f",
    "codes_253": "f150fae2fde9335264b523b6d8d0d139c88cfa12dce46e7b8b10a9bb381794d6",
    "codes_254": "3a1c2c66e5802cc9556b203c2b64b7d3b5a1ea5850aba4243340bb433c2ed4ab",  # EOI fix
    "codes_255": "5c7406fdff63da72fe53a2052351bf9d3cebe1357e709f6cfb4fc436cc8d571e",
    "codes_256": "b6344e14186a63349bafda9b4eb7006228e43ba12874823a8e1ef02bc74a67fc",
    "codes_765": "e46317c1f5c3b38ffcccb3394d52a4aead967dafa8050e92e62dd6d2438881ef",
    "codes_766": "1afbfcc2caf31280a48639934d4c77eaad8064df23e0ae03de618bf8b053af3e",  # EOI fix
    "codes_767": "2ad971cdc87aa6f1baf5bc2ea3b1c652a83afa2bd5d6f38f1f5bb21e3a237742",
    "codes_768": "230b7ec0975f1e1d923ff2916634bfa9d8f8cd2861df9006bda8dc74c88f2154",
    "codes_1789": "1f855de159ba01baeecf8a3e670097fcad415395d3e9549c68b800bb1b4a7426",
    "codes_1790": "209824ff5bedf92c5cc09fdbe511cdd2e8d1e2d04a173250387b8525cc0f6678",  # EOI fix
    "codes_1791": "c785fd97b38affd071984d6f4c85a66b895ff869cc318fa85628bb9434a578ca",
    "codes_1792": "9e49e3dbb9974691ff93d418512d82fe8f81e2624a6f5dd3ff95e4ad0abc7ca6",
    "codes_3835": "1afebb491960c443bb5e7be9fcfb6239726263c7e3efb53d8cdbbb658e7bff3c",
    "codes_3836": "8d645c054b1b5b665038846f56c4081280493f4804d35abb95bc06a3b380a693",
    "codes_3837": "790a6649a6ab2a96ac09e5f1687bb086988eea09fe8658d8e08a41be8abd14f9",
    "codes_3838": "365cccd2e6a056243fa4bb50c1a9470bf203aa5bae1400ee288af70f3e0af418",
}


class TestLZW:
    def test_roundtrip_adversarial(self):
        rng = np.random.default_rng(11)
        cases = [
            b"", b"\x00" * 4096,
            bytes(rng.integers(0, 256, 70000, dtype=np.uint8)),
            bytes(rng.integers(0, 3, 150000, dtype=np.uint8)),
            bytes(np.arange(256, dtype=np.uint8)) * 200,
        ]
        for c in cases:
            assert tc.lzw_decode(tc.lzw_encode(c)) == c

    def test_width_boundary(self):
        # force the table exactly through the 511/1023/2047 early-change
        # boundaries: distinct pairs grow the table deterministically.
        # Ending one entry short of a boundary, the decoder widens after
        # the flush code, so EOI must be wider too.
        data = bytes(np.random.default_rng(5).integers(
            0, 256, 20000, dtype=np.uint8))
        assert tc.lzw_decode(tc.lzw_encode(data)) == data
        for top in (511, 1023, 2047, 4093):
            for n in range(top - 262, top - 250):
                data = _pair_distinct(n)
                assert tc.lzw_decode(tc.lzw_encode(data)) == data, n

    def test_corrupt_raises(self):
        with pytest.raises(ValueError):
            # code far beyond the table right after a clear
            tc.lzw_decode(bytes([0x80, 0x1F, 0xF0, 0x00]) * 4)

    def test_pinned_encoder_bytes(self):
        for name, data in _pinned_inputs().items():
            enc = tc.lzw_encode(data)
            assert hashlib.sha256(enc).hexdigest() == PINNED_LZW[name], name
            assert tc.lzw_decode(enc) == data, name

    def test_first_code_after_clear_out_of_range(self):
        with pytest.raises(ValueError, match="corrupt LZW stream"):
            tc.lzw_decode(_pack_codes([256, 300, 257]))

    def test_kwkwk(self):
        # 258 is read while it is being defined: "a" then "a" + "a"
        assert tc.lzw_decode(_pack_codes([256, 97, 258, 257])) == b"aaa"
        assert tc.lzw_decode(_pack_codes([256, 97, 258, 259, 257])) == b"a" * 6

    def test_no_clear_past_4096_entries(self):
        # a stream that never CLEARs stays at 12 bits once the table is full
        data = _pair_distinct(6000)  # one code per byte
        assert tc.lzw_decode(_pack_codes([256, *data, 257])) == data

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.binary(max_size=3000),
                     st.lists(st.integers(0, 3), max_size=12000).map(bytes),
                     st.lists(st.sampled_from([0, 255]), max_size=9000).map(bytes)))
    def test_matches_reference(self, data):
        enc = tc.lzw_encode(data)
        assert enc == _ref_lzw_encode(data)
        assert tc.lzw_decode(enc) == data
        _same_decode(enc)
        _same_decode(enc + b"\xff\x00junk")  # bytes after EOI are ignored

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=120))
    def test_every_cut_and_prefix(self, data):
        enc = tc.lzw_encode(data)
        for max_out in range(len(data) + 2):
            _same_decode(enc, max_out)
        for j in range(len(enc) + 1):
            _same_decode(enc[:j])  # truncated: no EOI

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 300), st.sampled_from([256, 257])),
                    max_size=60),
           st.one_of(st.none(), st.integers(0, 80)))
    @example([256, 65, 66, 299, 257], 1)  # corrupt code past the cut
    @example([256, 65, 66, 299, 257], 3)
    def test_raw_code_streams(self, codes, max_out):
        # arbitrary codes, corrupt ones included, at the decoder's widths
        _same_decode(_pack_codes(codes), max_out)

    def test_memory_bounds(self):
        def peak(fn, arg):
            tracemalloc.start()
            try:
                fn(arg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        noise = np.random.default_rng(3).integers(0, 256, 1 << 20, np.uint8)
        assert peak(tc.lzw_encode, noise.tobytes()) <= 4 << 20
        const = tc.lzw_encode(bytes(4 << 20))
        assert peak(tc.lzw_decode, const) <= 3 * (4 << 20)
        # max_out stops the decode within a batch of codes
        assert peak(lambda e: tc.lzw_decode(e, 1000), const) <= 1 << 20

    # --- streams of several CLEAR segments ---------------------------------

    @pytest.mark.parametrize("group", [None, 1])
    def test_multi_segment_streams_match_reference(self, group, monkeypatch):
        # group=1 puts every CLEAR segment in a group of its own
        if group is not None:
            monkeypatch.setattr(tc, "_GROUP", group)
        rng = np.random.default_rng(13)
        for data in (bytes(rng.integers(0, 3, 150_000, dtype=np.uint8)),
                     bytes(rng.integers(0, 256, 70_000, dtype=np.uint8))):
            enc = tc.lzw_encode(data)
            assert tc.lzw_decode(enc) == data == _ref_lzw_decode(enc)
            for cut in (1, 4095, 70_000 - 1):
                _same_decode(enc, cut)

    def test_constant_runs_and_noise_take_both_paths(self, monkeypatch):
        """A group of long runs joins bytes entries, a group of noise
        resolves by pointer doubling; one stream holds both."""
        rng = np.random.default_rng(17)
        data = (bytes(300_000)
                + bytes(rng.integers(0, 256, 40_000, dtype=np.uint8))
                + b"\x07" * 1_000_000)
        enc = tc.lzw_encode(data)
        calls = []
        for name in ("_join_entries", "_resolve"):
            fn = getattr(tc, name)
            monkeypatch.setattr(tc, name, lambda *a, _f=fn, _n=name: calls.append(_n) or _f(*a))
        assert tc.lzw_decode(enc) == data == _ref_lzw_decode(enc)
        assert set(calls) == {"_join_entries", "_resolve"}
        for cut in (1, 299_999, 300_001, 340_000, len(data) - 1):
            assert tc.lzw_decode(enc, cut) == data[:cut]

    def test_corrupt_code_in_third_segment(self):
        seg1 = list(range(40, 90))
        seg2 = [1, 2, 259, 260, 258, 3]  # KwKwK twice, then a back-reference
        seg3 = [5, 6, 7, 258, 259, 300, 8]  # 300 > next 262
        codes = [256, *seg1, 256, *seg2, 256, *seg3, 257]
        enc = _pack_codes(codes)
        with pytest.raises(ValueError, match="corrupt LZW stream: code 300 > next 262"):
            tc.lzw_decode(enc)
        prefix = _ref_lzw_decode(_pack_codes([256, *seg1, 256, *seg2, 256, *seg3[:5], 257]))
        assert prefix == _ref_lzw_decode(enc, len(prefix))
        # a max_out that ends before the corrupt code returns the prefix ...
        assert tc.lzw_decode(enc, len(prefix)) == prefix
        assert tc.lzw_decode(enc, len(prefix) - 3) == prefix[:-3]
        # ... and one byte more reaches it
        with pytest.raises(ValueError, match="corrupt LZW stream"):
            tc.lzw_decode(enc, len(prefix) + 1)
        # a corrupt first code of the third segment
        enc = _pack_codes([256, *seg1, 256, *seg2, 256, 300, 257])
        with pytest.raises(ValueError, match="code 300 opens a segment"):
            tc.lzw_decode(enc)
        assert tc.lzw_decode(enc, 50) == bytes(seg1)

    def test_kwkwk_opens_a_later_segment(self):
        # the second code of the second segment is the entry being defined
        enc = _pack_codes([256, 97, 98, 256, 99, 258, 259, 257])
        assert tc.lzw_decode(enc) == _ref_lzw_decode(enc) == b"ab" + b"c" * 6

    def test_memory_bound_of_grouped_decode(self):
        def peak(fn, arg):
            tracemalloc.start()
            try:
                fn(arg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        noise = np.random.default_rng(3).integers(0, 256, 1 << 20, np.uint8).tobytes()
        for data in (noise, _smooth_noise(1024, amp=6)):
            enc = tc.lzw_encode(data)
            assert peak(tc.lzw_decode, enc) <= 12 << 20


class TestPackBits:
    def test_spec_vector(self):
        # TIFF 6.0 §9 worked example
        decoded = bytes([0xAA] * 3 + [0x80, 0x00, 0x2A] + [0xAA] * 4
                        + [0x80, 0x00, 0x2A, 0x22] + [0xAA] * 10)
        encoded = bytes([0xFE, 0xAA, 0x02, 0x80, 0x00, 0x2A, 0xFD, 0xAA,
                         0x03, 0x80, 0x00, 0x2A, 0x22, 0xF7, 0xAA])
        assert tc.packbits_decode(encoded) == decoded
        assert tc.packbits_decode(tc.packbits_encode(decoded)) == decoded

    def test_long_runs(self):
        data = b"\x07" * 1000 + b"ab" * 300 + b"\xff" * 129
        assert tc.packbits_decode(tc.packbits_encode(data)) == data


class TestPredictor:
    @pytest.mark.parametrize("dtype", ["uint8", "uint16", "int32"])
    def test_roundtrip(self, dtype):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 200, (33, 47)).astype(dtype)
        enc = tc.predictor2_encode(a.tobytes(), 47, 33, np.dtype(dtype))
        dec = tc.predictor2_decode(enc, 47, 33, np.dtype(dtype))
        assert dec == a.tobytes()

    def test_wraparound(self):
        a = np.array([[250, 10, 250, 10]], dtype=np.uint8)
        enc = tc.predictor2_encode(a.tobytes(), 4, 1, np.uint8)
        assert tc.predictor2_decode(enc, 4, 1, np.uint8) == a.tobytes()


class TestGTiffCompressed:
    @pytest.mark.parametrize("compress,predictor", [
        ("lzw", 1), ("lzw", 2), ("packbits", 1), ("deflate", 2)])
    @pytest.mark.parametrize("tiled", [True, False])
    def test_roundtrip(self, tmp_path, compress, predictor, tiled):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 1000, (150, 130)).astype(np.uint16)
        p = str(tmp_path / "t.tif")
        gtiff.write_gtiff(p, a, tile_size=64 if tiled else None,
                          compress=compress, predictor=predictor)
        b, meta = gtiff.read_gtiff(p)
        assert (b == a).all()

    def test_predictor_rejects_float(self, tmp_path):
        with pytest.raises(ValueError, match="integer-only"):
            gtiff.write_gtiff(str(tmp_path / "t.tif"),
                              np.zeros((8, 8), np.float32),
                              compress="lzw", predictor=2)

    def test_unknown_compression_read_raises(self, tmp_path):
        p = str(tmp_path / "t.tif")
        gtiff.write_gtiff(p, np.zeros((8, 8), np.uint8))
        buf = bytearray(open(p, "rb").read())
        i = buf.find((259).to_bytes(2, "little"))  # Compression tag
        # 50000 = ZSTD: no codec in this environment -> clear error
        buf[i + 8:i + 10] = (50000).to_bytes(2, "little")
        open(p, "wb").write(bytes(buf))
        with pytest.raises(ValueError, match="Compression=50000"):
            gtiff.read_gtiff(p)


class TestCOG:
    def _hump(self):
        gy, gx = np.mgrid[0:700, 0:900]
        return (((gx - 450) ** 2 + (gy - 350) ** 2) // 64).astype(np.uint16)

    def test_layout_and_content(self, tmp_path):
        arr = self._hump()
        p = str(tmp_path / "c.tif")
        info = gtiff.write_cog(p, arr, tile_size=256, compress="deflate",
                               predictor=2)
        assert info["n_images"] == 3  # 900 -> 450 -> 225 (<= 256)
        v = gtiff.validate_cog(p)
        assert v["valid"], v["errors"]
        a0, meta = gtiff.read_gtiff(p, image=0)
        assert (a0 == arr).all()
        assert meta["n_images"] == 3

    def test_overview_content(self, tmp_path):
        arr = self._hump()
        p = str(tmp_path / "c.tif")
        gtiff.write_cog(p, arr, tile_size=256)
        a1, _ = gtiff.read_gtiff(p, image=1)
        # integer average decimation (round-half-up, gcore/overview.cpp)
        exp = gtiff._decimate_int(arr, 2, "average")
        assert a1.shape == exp.shape
        assert (a1 == exp).all()

    def test_ghost_area(self, tmp_path):
        p = str(tmp_path / "c.tif")
        gtiff.write_cog(p, self._hump(), tile_size=256)
        head = open(p, "rb").read(256)
        assert head[8:].startswith(b"GDAL_STRUCTURAL_METADATA_SIZE=")
        assert b"LAYOUT=IFDS_BEFORE_DATA" in head
        assert b"BLOCK_LEADER=SIZE_AS_UINT4" in head

    def test_plain_gtiff_fails_validation(self, tmp_path):
        p = str(tmp_path / "t.tif")
        gtiff.write_gtiff(p, self._hump()[:160, :160], tile_size=64)
        v = gtiff.validate_cog(p)
        assert not v["valid"]

    def test_lzw_cog(self, tmp_path):
        arr = self._hump()[:300, :300]
        p = str(tmp_path / "c.tif")
        gtiff.write_cog(p, arr, tile_size=128, compress="lzw", predictor=2)
        assert gtiff.validate_cog(p)["valid"]
        a0, _ = gtiff.read_gtiff(p)
        assert (a0 == arr).all()

    def test_float_cog(self, tmp_path):
        gy, gx = np.mgrid[0:300, 0:300]
        arr = ((gx + gy) / 3.0).astype(np.float32)
        p = str(tmp_path / "c.tif")
        gtiff.write_cog(p, arr, tile_size=128, compress="deflate")
        a0, _ = gtiff.read_gtiff(p)
        assert (a0 == arr).all()
        a1, _ = gtiff.read_gtiff(p, image=1)
        assert a1.shape == (150, 150)


class TestMultiBand:
    @pytest.mark.parametrize("compress,predictor", [
        (None, 1), ("deflate", 2), ("lzw", 2), ("packbits", 1)])
    def test_rgb_roundtrip(self, tmp_path, compress, predictor):
        rng = np.random.default_rng(9)
        rgb = rng.integers(0, 255, (150, 130, 3)).astype(np.uint8)
        p = str(tmp_path / "rgb.tif")
        gtiff.write_gtiff(p, rgb, tile_size=64, compress=compress,
                          predictor=predictor)
        b, meta = gtiff.read_gtiff(p)
        assert b.shape == rgb.shape and (b == rgb).all()
        assert meta["samples"] == 3

    def test_rgba_strips(self, tmp_path):
        rng = np.random.default_rng(2)
        rgba = rng.integers(0, 255, (90, 80, 4)).astype(np.uint8)
        p = str(tmp_path / "rgba.tif")
        gtiff.write_gtiff(p, rgba)
        b, _ = gtiff.read_gtiff(p)
        assert (b == rgba).all()

    def test_complex_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        c = (rng.random((20, 25)) + 1j * rng.random((20, 25))) \
            .astype(np.complex64)
        p = str(tmp_path / "c.tif")
        gtiff.write_gtiff(p, c)
        b, _ = gtiff.read_gtiff(p)
        assert b.dtype == np.complex64 and (b == c).all()


REF_GCORE = "/root/reference/autotest/gcore/data"


@pytest.mark.skipif(not __import__("os").path.isdir(REF_GCORE),
                    reason="reference fixtures not present")
class TestReferenceTiffFixtures:
    def test_cross_layout_equality(self):
        """The same RGB image in chunky-tiled / planar-tiled / stripped
        PackBits layouts decodes identically (big-endian files)."""
        a1, _ = gtiff.read_gtiff(f"{REF_GCORE}/contig_tiled.tif")
        a2, _ = gtiff.read_gtiff(f"{REF_GCORE}/separate_tiled.tif")
        a3, _ = gtiff.read_gtiff(f"{REF_GCORE}/contig_strip.tif")
        assert a1.shape == (37, 35, 3)
        assert (a1 == a2).all() and (a1 == a3).all()

    def test_rgbsmall_legacy_deflate_planar(self):
        a, meta = gtiff.read_gtiff(f"{REF_GCORE}/rgbsmall.tif")
        assert a.shape == (50, 50, 3) and a.dtype == np.uint8
        assert [int(a[:, :, i].sum()) for i in range(3)] == \
            [163597, 227577, 68920]

    def test_sweep_coverage(self):
        """At least 170 of the 235 public gcore TIFFs read fully (the
        remainder: JPEG/LERC/JXL codecs, intentionally-corrupt files,
        12-bit / YCbCr layouts)."""
        import glob

        ok = 0
        for p in sorted(glob.glob(f"{REF_GCORE}/*.tif")):
            try:
                gtiff.read_gtiff(p)
                ok += 1
            except Exception:
                pass
        assert ok >= 170, ok


@pytest.mark.skipif(not __import__("os").path.isdir(REF_GCORE),
                    reason="reference fixtures not present")
class TestJpegInTiff:
    def test_tables_splice(self):
        """New-style JPEG-in-TIFF: abbreviated chunk streams + shared
        JPEGTables decode through the in-repo JPEG codec."""
        a, _ = gtiff.read_gtiff(f"{REF_GCORE}/byte_jpg_tablesmodezero.tif")
        b, _ = gtiff.read_gtiff(f"{REF_GCORE}/byte_ovr_jpeg_tablesmode1.tif")
        assert a.shape == (20, 20) and b.shape == (20, 20)
        # both encode the classic 20x20 byte.tif image; JPEG loss is small
        assert abs(int(a.sum()) - int(b.sum())) < 2000

    def test_irregular_tiles(self):
        a, _ = gtiff.read_gtiff(
            f"{REF_GCORE}/irregular_tile_size_jpeg_in_tiff.tif")
        assert a.shape == (256, 512)
