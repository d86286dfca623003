"""Media stage plumbing, pipeline step registry, resumable writes (F7)."""

import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.sources import io as gio
from gdal_ray.sources import synthetic
from gdal_ray.stages import media
from gdal_ray.pipelines import steps


def test_media_featurize_deterministic_and_complete():
    docs = synthetic.make_docs(200)
    ds = rd.from_arrow(docs)
    rows = media.featurize_media(ds, batch_size=64).take_all()
    # expected media spans: every non-text span of every doc
    expect = 0
    for i in range(docs.num_rows):
        expect += sum(1 for s in docs["spans"][i].as_py() if s["kind"] != "text")
    assert len(rows) == expect
    # determinism: same ref -> same features
    by_ref = {}
    for r in rows:
        if r["media_ref"] in by_ref:
            assert by_ref[r["media_ref"]] == (r["mean_x100"], r["phash"])
        by_ref[r["media_ref"]] = (r["mean_x100"], r["phash"])
    # spot-check against the backend directly
    codec = media.DecodeBackend()
    r0 = rows[0]
    arr = codec.decode(r0["media_ref"])
    assert r0["mean_x100"] == int(round(float(arr.mean()) * 100))


def test_media_real_backend_png_roundtrip():
    """backend='real' decodes actual PNG payload bytes through the in-repo
    codec and recovers exactly the deterministic pixels."""
    ref = "media://image/000000042/1"
    real = media.DecodeBackend(backend="real")
    fake = media.DecodeBackend(backend="fake")
    assert np.array_equal(real.decode(ref, kind="image"),
                          fake.decode(ref, kind="image"))
    # payload really is a parseable PNG (signature + CRC-checked chunks)
    from gdal_ray.sources.png import decode_png

    payload = media.payload_for_ref(ref)
    assert payload[:8] == b"\x89PNG\r\n\x1a\n"
    assert np.array_equal(decode_png(payload), media.fake_pixels(ref))
    # audio/video kinds fall back to the deterministic pixels
    aref = "media://audio/000000042/2"
    assert np.array_equal(real.decode(aref, kind="audio"),
                          fake.decode(aref, kind="audio"))
    with pytest.raises(ValueError):
        media.DecodeBackend(backend="nope")


def test_media_store_materialize_resume_and_real_featurize(tmp_path):
    """Payload store: first run writes, second resume-skips everything; the
    real-backend featurizer over the store matches the fake backend's
    features; a missing payload fails with a pointed error."""
    root = str(tmp_path / "store")
    docs = synthetic.make_docs(60)
    ds = rd.from_arrow(docs)
    r1 = media.materialize_payload_store(
        ds, root, kinds=("image", "audio", "video")).take_all()
    n_media = sum(1 for i in range(docs.num_rows)
                  for s in docs["spans"][i].as_py()
                  if s["kind"] in ("image", "audio", "video"))
    assert len(r1) == n_media and not any(r["skipped"] for r in r1)
    assert all(r["n_bytes"] > 0 for r in r1)
    r2 = media.materialize_payload_store(
        ds, root, kinds=("image", "audio", "video")).take_all()
    assert all(r["skipped"] for r in r2)  # resume: nothing rewritten

    real = media.featurize_media(ds, backend="real", store_root=root).take_all()
    fake = media.featurize_media(ds, backend="fake").take_all()
    key = lambda r: (r["doc_id"], r["span_idx"])  # noqa: E731
    assert sorted(real, key=key) == sorted(fake, key=key)

    codec = media.DecodeBackend(backend="real", store_root=str(tmp_path / "empty"))
    with pytest.raises(FileNotFoundError, match="materialize_payload_store"):
        codec.decode("media://image/000000000/1", kind="image")


def test_step_registry_pipeline_spec():
    docs = synthetic.make_docs(100)
    ds = rd.from_arrow(docs)
    out = steps.run_pipeline(
        ds, "derive_geometry ! assign_tiles zooms=4 ! select cols=doc_id,tx_4,ty_4 ! limit n=5"
    )
    rows = out.take_all()
    assert len(rows) == 5
    assert set(rows[0].keys()) == {"doc_id", "tx_4", "ty_4"}
    with pytest.raises(KeyError):
        steps.get_step("nope")
    assert "reproject" in steps.list_steps()


def test_reproject_step_roundtrip():
    docs = synthetic.docs_with_geometry(synthetic.make_docs(50))
    out = steps.run_pipeline(rd.from_arrow(docs), "reproject dst=EPSG:3857").take_all()
    from gdal_ray.functions import geo

    for r in out[:10]:
        mx, my = geo.lonlat_to_mercator(np.array([r["lon"]]), np.array([r["lat"]]))
        assert r["geo_x"] == mx[0] and r["geo_y"] == my[0]


def test_write_partitioned_resume(tmp_path):
    """F7: kill after ~50% partitions, resume; nothing re-executed, outputs
    identical."""
    docs = synthetic.docs_with_geometry(synthetic.make_docs(400))
    ds = rd.from_arrow(docs)
    root = str(tmp_path / "out")
    pids = [f"k{i}" for i in range(4)]

    calls = []

    def part_filter(d, pid):
        import pyarrow.compute as pc

        calls.append(pid)
        k = int(pid[1:])

        def flt(t):
            last = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 12, 13), pa.int32())
            rem = last.to_numpy(zero_copy_only=False) % 4
            return t.filter(pa.array(rem == k))

        return d.map_batches(flt, batch_format="pyarrow")

    done1 = gio.write_partitioned(ds, root, pids[:2], part_filter, lineage={"stage": "t"})
    assert done1 == ["k0", "k1"]
    # resume over ALL partitions: only the missing two run
    calls.clear()
    done2 = gio.write_partitioned(ds, root, pids, part_filter, lineage={"stage": "t"})
    assert done2 == ["k2", "k3"]
    assert calls == ["k2", "k3"]
    m = gio.Manifest(root)
    assert m.done_partitions() == set(pids)
    rec = m.read("k2")
    assert rec["lineage"]["stage"] == "t" and rec["metrics"]["rows"] > 0
    # all rows present exactly once
    total = sum(m.read(p)["metrics"]["rows"] for p in pids)
    assert total == 400


def test_span_sequence_invariant_through_pipeline():
    """BASELINE input_hint: spans travel unperturbed through spatial stages."""
    docs = synthetic.make_docs(100)
    ds = rd.from_arrow(docs)
    out = steps.run_pipeline(ds, "derive_geometry ! assign_tiles zooms=8")
    got = {r["doc_id"]: r["spans"] for r in out.take_all()}
    for i in range(docs.num_rows):
        did = docs["doc_id"][i].as_py()
        orig = docs["spans"][i].as_py()
        new = got[did]
        assert [(s["kind"], s["text"], s["media_ref"]) for s in new] == [
            (s["kind"], s["text"], s["media_ref"]) for s in orig
        ]
        offs = [s["offset"] for s in new]
        assert offs == sorted(offs)


def test_png_codec_roundtrip_and_tile_sink_resume():
    """PNG encode/decode round trip (gray + RGB), tile-directory layout, and
    file-existence resume (second write run skips everything)."""
    import os
    import shutil
    import tempfile

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.sources import png as png_mod
    from gdal_ray.sources import synthetic

    rng = np.random.default_rng(3)
    gray = rng.integers(0, 256, (17, 23), dtype=np.uint8)
    assert np.array_equal(png_mod.decode_png(png_mod.encode_png(gray)), gray)
    rgb = rng.integers(0, 256, (9, 5, 3), dtype=np.uint8)
    assert np.array_equal(png_mod.decode_png(png_mod.encode_png(rgb)), rgb)

    root = os.path.join(tempfile.gettempdir(), "png_sink_test")
    shutil.rmtree(root, ignore_errors=True)
    tiles = rd.from_arrow(synthetic.make_raster_tiles("checker", 2, 2, size=16))
    r1 = png_mod.write_png_tiles(tiles, root, resume=True).take_all()
    assert len(r1) == 4 and not any(r["skipped"] for r in r1)
    assert os.path.exists(os.path.join(root, "4", "1", "1.png"))
    r2 = png_mod.write_png_tiles(tiles, root, resume=True).take_all()
    assert all(r["skipped"] for r in r2)  # resume: nothing rewritten


def test_span_stats_vectorized_and_empty_lists(ray_session):
    """span_stats: empty span lists produce zeros, mixed kinds count right,
    last_offset reproduces the accumulation invariant."""
    import ray.data as rd

    from gdal_ray.sources.synthetic import SPANS_TYPE
    from gdal_ray.stages import media

    spans = pa.array(
        [
            [],
            [{"kind": "text", "text": "ab cd", "media_ref": "", "offset": 5}],
            [
                {"kind": "image", "text": "", "media_ref": "media://image/1/0", "offset": 1},
                {"kind": "text", "text": "xyz", "media_ref": "", "offset": 4},
                {"kind": "audio", "text": "", "media_ref": "media://audio/1/2", "offset": 5},
            ],
        ],
        type=SPANS_TYPE,
    )
    tbl = pa.table({"doc_id": pa.array(["doc-0", "doc-1", "doc-2"]), "spans": spans})
    out = {r["doc_id"]: r for r in media.span_stats(rd.from_arrow(tbl)).take_all()}
    assert (out["doc-0"]["n_spans"], out["doc-0"]["last_offset"]) == (0, 0)
    assert (out["doc-1"]["n_text"], out["doc-1"]["text_chars"], out["doc-1"]["last_offset"]) == (1, 5, 5)
    assert (out["doc-2"]["n_spans"], out["doc-2"]["n_media"], out["doc-2"]["text_chars"],
            out["doc-2"]["last_offset"]) == (3, 2, 3, 5)


def test_span_sequence_signature_order_sensitive(ray_session):
    """span_sequence_signature: the digest is order-SENSITIVE (the input_hint
    invariant names order), changes on any field mutation, and matches a
    hand-computed md5 of the US/RS-joined tuple sequence."""
    import hashlib

    import ray.data as rd

    from gdal_ray.sources.synthetic import SPANS_TYPE
    from gdal_ray.stages import media

    a = {"kind": "text", "text": "ab cd", "media_ref": "", "offset": 5}
    b = {"kind": "image", "text": "", "media_ref": "media://image/7/1", "offset": 6}

    def sig_of(spans_py):
        spans = pa.array([spans_py], type=SPANS_TYPE)
        tbl = pa.table({"doc_id": pa.array(["doc-0"]), "spans": spans})
        return media.span_sequence_signature(rd.from_arrow(tbl)).take_all()[0]["seq_sig"]

    s_ab = sig_of([a, b])
    expected = hashlib.md5(
        "\x1e".join("\x1f".join([s["kind"], s["text"], s["media_ref"], str(s["offset"])])
                    for s in [a, b]).encode()
    ).hexdigest()
    assert s_ab == expected
    assert sig_of([b, a]) != s_ab  # reorder detected
    assert sig_of([a, {**b, "media_ref": "media://image/7/2"}]) != s_ab  # mutation detected
    assert sig_of([a]) != s_ab  # loss detected


def test_span_text_extract_and_media_bytes(ray_session):
    """Text extraction keeps span order (media spans contribute nothing);
    media byte resolution sums only media spans."""
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.sources.synthetic import SPANS_TYPE
    from gdal_ray.stages import media

    spans = pa.array(
        [
            [
                {"kind": "text", "text": "ab ", "media_ref": "", "offset": 3},
                {"kind": "image", "text": "", "media_ref": "media://image/9/1", "offset": 4},
                {"kind": "text", "text": "cd", "media_ref": "", "offset": 6},
            ],
            [{"kind": "audio", "text": "", "media_ref": "media://audio/9/0", "offset": 1}],
        ],
        type=SPANS_TYPE,
    )
    tbl = pa.table({"doc_id": pa.array(["doc-0", "doc-1"]), "spans": spans})
    txt = {r["doc_id"]: r for r in media.span_text_extract(rd.from_arrow(tbl)).take_all()}
    assert txt["doc-0"]["n_chars"] == 5
    assert txt["doc-0"]["text_md5"] == hashlib.md5(b"ab cd").hexdigest()
    assert txt["doc-1"]["n_chars"] == 0
    assert txt["doc-1"]["text_md5"] == hashlib.md5(b"").hexdigest()
    mb = {r["doc_id"]: r for r in media.span_media_bytes(rd.from_arrow(tbl)).take_all()}
    exp_img = 1 + (int(hashlib.md5(b"media://image/9/1").hexdigest()[:8], 16) % 65536)
    exp_aud = 1 + (int(hashlib.md5(b"media://audio/9/0").hexdigest()[:8], 16) % 65536)
    assert (mb["doc-0"]["n_media"], mb["doc-0"]["media_bytes"]) == (1, exp_img)
    assert (mb["doc-1"]["n_media"], mb["doc-1"]["media_bytes"]) == (1, exp_aud)


def test_filter_spans_recomputes_offsets(ray_session):
    """filter_spans drops the kind, keeps order, and rebuilds the running
    offsets (text += len, media += 1); empty survivors give empty lists."""
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.sources.synthetic import SPANS_TYPE
    from gdal_ray.stages import media

    spans = pa.array(
        [
            [
                {"kind": "video", "text": "", "media_ref": "media://video/0/0", "offset": 1},
                {"kind": "text", "text": "abc", "media_ref": "", "offset": 4},
                {"kind": "video", "text": "", "media_ref": "media://video/0/2", "offset": 5},
                {"kind": "image", "text": "", "media_ref": "media://image/0/3", "offset": 6},
            ],
            [{"kind": "video", "text": "", "media_ref": "media://video/1/0", "offset": 1}],
        ],
        type=SPANS_TYPE,
    )
    tbl = pa.table({"doc_id": pa.array(["doc-0", "doc-1"]), "spans": spans})
    out = {r["doc_id"]: r["spans"]
           for r in media.filter_spans(rd.from_arrow(tbl), ("video",)).take_all()}
    assert out["doc-0"] == [
        {"kind": "text", "text": "abc", "media_ref": "", "offset": 3},
        {"kind": "image", "text": "", "media_ref": "media://image/0/3", "offset": 4},
    ]
    assert out["doc-1"] == []


def test_media_inventory_counts(ray_session):
    """Per-kind ref counts / distinct docs / ref ranges vs a brute recount
    of the deterministic span fixture."""
    import collections

    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import media

    docs = synthetic.make_docs(300)
    out = media.media_inventory(rd.from_arrow(docs)).to_pandas() \
        .set_index("kind").sort_index()
    refs = collections.defaultdict(list)
    docs_per = collections.defaultdict(set)
    for k in range(300):
        nspans = 1 + k % 4
        for j in range(nspans):
            kind = ["text", "image", "audio", "video"][(k + j) % 4]
            if kind != "text":
                refs[kind].append(f"media://{kind}/{k:09d}/{j}")
                docs_per[kind].add(k)
    for kind in refs:
        assert out.loc[kind, "n_refs"] == len(refs[kind])
        assert out.loc[kind, "n_docs"] == len(docs_per[kind])
        assert out.loc[kind, "min_ref"] == min(refs[kind])
        assert out.loc[kind, "max_ref"] == max(refs[kind])


def test_wav_codec_roundtrip_and_validation():
    import struct

    import pytest

    from gdal_ray.sources.wav import decode_wav, encode_wav

    rng = np.random.default_rng(29)
    for arr in (rng.integers(0, 256, 200).astype(np.uint8),
                rng.integers(-30000, 30000, 201).astype(np.int16)):
        buf = encode_wav(arr, rate=16000)
        back, rate = decode_wav(buf)
        assert rate == 16000 and back.dtype == arr.dtype
        assert (back == arr).all()
    good = encode_wav(np.arange(64, dtype=np.uint8))
    with pytest.raises(ValueError, match="RIFF"):
        decode_wav(b"JUNK" + good[4:])
    with pytest.raises(ValueError, match="truncated|missing|exceeds"):
        decode_wav(good[:30])
    # unknown chunks are skipped per spec
    extra = (good[:12] + b"LIST" + struct.pack("<I", 4) + b"info" + good[12:])
    fixed = b"RIFF" + struct.pack("<I", len(extra) - 8) + extra[8:]
    back, _ = decode_wav(fixed)
    assert (back == np.arange(64, dtype=np.uint8)).all()


def test_real_audio_decode_matches_fake(ray_session, tmp_path):
    """Audio refs now run REAL end-to-end: WAV payload materialized, parsed
    by the RIFF decoder in the actor pool, features equal the fake path."""
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import media

    docs = rd.from_arrow(synthetic.make_docs(60))
    store = str(tmp_path / "store")
    for _ in media.materialize_payload_store(
            docs, store, kinds=("image", "audio", "video")).iter_batches():
        pass
    real = {(r["doc_id"], r["span_idx"]): (r["mean_x100"], r["phash"])
            for r in media.featurize_media(
                docs, backend="real", store_root=store).take_all()}
    fake = {(r["doc_id"], r["span_idx"]): (r["mean_x100"], r["phash"])
            for r in media.featurize_media(docs, backend="fake").take_all()}
    assert real == fake and len(real) > 0
    # at least one audio span actually exercised the WAV path
    kinds = {r["kind"] for r in media.featurize_media(
        docs, backend="real", store_root=store).take_all()}
    assert "audio" in kinds


def test_avi_codec_roundtrip_and_validation():
    import pytest

    from gdal_ray.sources.avi import decode_avi, encode_avi

    rng = np.random.default_rng(31)
    frames = rng.integers(0, 256, (5, 12, 16)).astype(np.uint8)
    buf = encode_avi(frames, fps=24)
    back, fps = decode_avi(buf)
    assert fps == 24 and back.shape == frames.shape
    assert (back == frames).all()
    with pytest.raises(ValueError, match="RIFF/AVI"):
        decode_avi(b"RIFF\x00\x00\x00\x00WAVE")
    with pytest.raises(ValueError, match="truncated"):
        decode_avi(buf[:60])
    with pytest.raises(ValueError):
        encode_avi(frames.astype(np.int16))


def test_mjpeg_avi_codec():
    import pytest

    from gdal_ray.sources.avi import decode_avi, encode_avi
    from gdal_ray.stages.media import fake_frames

    # constant 8x8 blocks: the lossy JFIF pipeline round-trips EXACTLY
    fr = fake_frames("media://video/000000042/1", thumb=8)
    big = np.repeat(np.repeat(fr, 8, axis=1), 8, axis=2)
    buf = encode_avi(big, fps=10, codec="mjpeg", quality=90)
    back, fps = decode_avi(buf)
    assert fps == 10 and back.shape == big.shape
    assert (back == big).all()
    # compressed stream is actually smaller than the raw frames
    assert len(buf) < big.nbytes
    # natural (noisy) frames: lossy but tight at high quality
    rng = np.random.default_rng(17)
    nat = rng.integers(0, 256, (3, 24, 40)).astype(np.uint8)
    nbuf = encode_avi(nat, codec="mjpeg", quality=95)
    nback, _ = decode_avi(nbuf)
    assert nback.shape == nat.shape
    assert np.abs(nback.astype(int) - nat.astype(int)).max() <= 12
    with pytest.raises(ValueError, match="unknown AVI codec"):
        encode_avi(nat, codec="h264")
    # foreign compression fourccs are rejected loudly, not mis-decoded
    import struct as _s

    h264 = bytearray(encode_avi(nat, codec="mjpeg"))
    pos = h264.find(b"strf") + 8 + 16
    h264[pos:pos + 4] = b"H264"
    with pytest.raises(ValueError, match="unsupported AVI compression"):
        decode_avi(bytes(h264))


def test_ima_adpcm_codec():
    import pytest

    from gdal_ray.sources.wav import decode_wav, encode_wav_adpcm

    # constant-per-block signal round-trips EXACTLY (oracle contract)
    vals = (np.arange(64) * 37 % 256).astype(np.uint8)
    sig = ((vals.astype(np.int32) - 128) << 8).astype(np.int16)
    up = np.repeat(sig, 9)
    buf = encode_wav_adpcm(up, rate=8000, samples_per_block=9)
    back, rate = decode_wav(buf)
    assert rate == 8000 and np.array_equal(back, up)
    assert len(buf) < up.nbytes  # actually compressed (4-bit vs 16-bit)
    # natural signal: lossy 4:1-ish, bounded relative error once adapted
    t = np.arange(505 * 2)
    nat = (6000 * np.sin(t / 25)).astype(np.int16)
    nbuf = encode_wav_adpcm(nat, samples_per_block=505)
    nback, _ = decode_wav(nbuf)
    assert nback.shape == nat.shape
    err = np.abs(nback[50:].astype(int) - nat[50:].astype(int))
    assert err.mean() < 200  # smooth signal tracks tightly after onset
    assert len(nbuf) < 0.3 * nat.nbytes
    # validation: framing and inputs fail loudly
    with pytest.raises(ValueError, match="must be odd"):
        encode_wav_adpcm(up, samples_per_block=8)
    with pytest.raises(ValueError, match="do not divide"):
        encode_wav_adpcm(up[:-1], samples_per_block=9)
    with pytest.raises(ValueError, match="int16"):
        encode_wav_adpcm(vals)
    with pytest.raises(ValueError, match="truncated|whole blocks|RIFF"):
        decode_wav(buf[:-7])


def test_adpcm_media_features_match_fake(ray_session, tmp_path):
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import media

    docs = rd.from_arrow(synthetic.make_docs(200))
    store = str(tmp_path / "adpcm_store")
    for _ in media.materialize_payload_store(
            docs, store, kinds=("image", "audio", "video"),
            audio_codec="ima_adpcm").iter_batches():
        pass
    real = sorted(
        tuple(r.values()) for r in media.featurize_media(
            docs, backend="real", store_root=store).take_all())
    fake = sorted(
        tuple(r.values()) for r in media.featurize_media(
            docs, backend="fake").take_all())
    assert real == fake and len(real) > 0
    # audio spans actually exercised the ADPCM branch (int16 WAV payloads)
    import glob

    wavs = glob.glob(f"{store}/audio/**/*.wav", recursive=True)
    assert wavs
    from gdal_ray.sources.wav import decode_wav

    with open(wavs[0], "rb") as f:
        s, _ = decode_wav(f.read())
    assert s.dtype == np.int16


def test_mjpeg_frame_sample_matches_fake(ray_session, tmp_path):
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import media

    docs = rd.from_arrow(synthetic.make_docs(200))
    store = str(tmp_path / "mjpeg_store")
    for _ in media.materialize_payload_store(
            docs, store, kinds=("video",), video_codec="mjpeg").iter_batches():
        pass
    real = sorted(
        tuple(r.values()) for r in media.sample_frames(
            docs, stride=2, backend="real", store_root=store).take_all())
    fake = sorted(
        tuple(r.values()) for r in media.sample_frames(
            docs, stride=2, backend="fake").take_all())
    assert real == fake and len(real) > 0


def test_jpeg_tile_sink_roundtrip(ray_session, tmp_path):
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.sources.jpeg import decode_baseline
    from gdal_ray.sources.png import write_image_tiles

    tiles = rd.from_arrow(synthetic.make_raster_tiles("checker", 2, 2, size=64))
    root = str(tmp_path / "jt")
    receipts = write_image_tiles(tiles, root, codec="jpeg", quality=90).take_all()
    assert len(receipts) == 4 and all(r["path"].endswith(".jpg") for r in receipts)
    # 8-aligned constant checker blocks -> lossless through baseline JPEG
    import pyarrow as _pa

    src = synthetic.make_raster_tiles("checker", 2, 2, size=64)
    by_xy = {(src["x"][i].as_py(), src["y"][i].as_py()):
             np.frombuffer(src["data"][i].as_py(), np.uint8).reshape(64, 64)
             for i in range(src.num_rows)}
    for r in receipts:
        with open(r["path"], "rb") as f:
            arr = decode_baseline(f.read())
        assert np.array_equal(arr, by_xy[(r["x"], r["y"])])
    # resume: second write skips every tile
    receipts2 = write_image_tiles(tiles, root, codec="jpeg").take_all()
    assert all(r["skipped"] for r in receipts2)
    import pytest

    with pytest.raises(ValueError, match="unknown tile codec"):
        write_image_tiles(tiles, root, codec="webp")


def test_real_video_frames_match_fake(ray_session, tmp_path):
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.stages import media

    docs = rd.from_arrow(synthetic.make_docs(60))
    store = str(tmp_path / "store")
    for _ in media.materialize_payload_store(
            docs, store, kinds=("image", "audio", "video")).iter_batches():
        pass
    real = sorted(
        (r["doc_id"], r["span_idx"], r["frame_idx"], r["mean_x100"])
        for r in media.sample_frames(docs, stride=2, backend="real",
                                     store_root=store).take_all())
    fake = sorted(
        (r["doc_id"], r["span_idx"], r["frame_idx"], r["mean_x100"])
        for r in media.sample_frames(docs, stride=2, backend="fake").take_all())
    assert real == fake and len(real) > 0
    assert {r[2] for r in real} == {0, 2}  # stride-2 of 4 frames
    # full span features with real backend cover all three media kinds
    feats = media.featurize_media(docs, backend="real", store_root=store).take_all()
    assert {r["kind"] for r in feats} == {"image", "audio", "video"}


def test_resize_media_exact_and_sink(ray_session, tmp_path):
    """Block-average resize: exact half-up integers vs brute; resized PNGs
    written once (existence resume) and decodable."""
    import ray.data as rd

    from gdal_ray.sources import synthetic
    from gdal_ray.sources.png import decode_png
    from gdal_ray.stages import media

    # kernel check
    arr = np.arange(64, dtype=np.uint8).reshape(8, 8)
    small = media.block_average(arr, 2)
    for r in range(4):
        for c in range(4):
            s = int(arr[2 * r:2 * r + 2, 2 * c:2 * c + 2].astype(int).sum())
            assert small[r, c] == (2 * s + 4) // 8
    with pytest.raises(ValueError):
        media.block_average(np.zeros((7, 8), np.uint8), 2)

    docs = rd.from_arrow(synthetic.make_docs(40))
    out_root = str(tmp_path / "resized")
    rows = media.resize_media(docs, factor=2, backend="fake",
                              out_root=out_root).take_all()
    assert rows
    r0 = rows[0]
    full = media.fake_pixels(r0["media_ref"])
    small = media.block_average(full, 2)
    n = small.size
    assert r0["r_mean_x100"] == (int(small.astype(int).sum()) * 200 + n) // (2 * n)
    # the sink holds a decodable PNG of exactly the resized thumb
    path = media._ref_store_path(out_root, r0["media_ref"])
    if not path.endswith(".png"):
        path = path.rsplit(".", 1)[0] + ".png"
    assert np.array_equal(decode_png(open(path, "rb").read()), small)


def test_curve_pipeline_steps(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.functions import wkb as wkb_f
    from gdal_ray.functions.wkt import parse_wkt
    from gdal_ray.pipelines import steps

    t = pa.table({"wkb": pa.array([
        parse_wkt("CURVEPOLYGON (CIRCULARSTRING (1 0, 0 1, -1 0, 0 -1, 1 0))"),
        parse_wkt("GEOMETRYCOLLECTION (POINT (1 2), POINT (3 4))"),
    ], pa.binary())})
    out = steps.run_pipeline(rd.from_arrow(t),
                             "explode ! linearize max_angle_deg=4")
    kinds = sorted(wkb_f.geom_type(r["wkb"]) for r in out.take_all())
    assert kinds == [wkb_f.POINT, wkb_f.POINT, wkb_f.POLYGON]
    # force_2d step drops Z through the same string surface
    import struct as st

    pz = b"\x01" + st.pack("<I", 1001) + st.pack("<ddd", 1.0, 2.0, 9.0)
    out2 = steps.run_pipeline(
        rd.from_arrow(pa.table({"wkb": pa.array([pz], pa.binary())})),
        "force_2d")
    g = wkb_f.decode(out2.take_all()[0]["wkb"])
    assert g.kind == wkb_f.POINT


def test_tee_and_materialize_steps(ray_session, tmp_path):
    """gdal pipeline tee/materialize (apps/gdalalg_tee.cpp,
    gdalalg_materialize.cpp): snapshot passes through; limit applies
    downstream only."""
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.pipelines import steps

    ds = rd.from_arrow(pa.table({"a": list(range(20))}))
    snap = str(tmp_path / "snap")
    out = steps.run_pipeline(ds, f"tee path={snap} ! limit n=5")
    assert out.count() == 5
    assert rd.read_parquet(snap).count() == 20
    assert "tee" in steps.list_steps() and "materialize" in steps.list_steps()
