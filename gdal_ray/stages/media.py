"""Multimodal span processing: decode / feature-extract / resize / frame-sample
over the interleaved corpus's media spans.

The Ray-side plumbing (schema, worker-cached decoders, batch sizing for large binary
payloads, output layout) is real and tested.  Two codec backends behind
``DecodeBackend``:

- ``backend="fake"``: deterministic pixels straight from the media_ref (md5
  block stream) — exact goldens an ANSI-SQL oracle can recompute.
- ``backend="real"``: a REAL byte-level decode — the payload bytes (fetched
  from an on-disk store directory, or synthesized deterministically when no
  store is given) are parsed by the engine's own PNG codec
  (``sources/png.py:decode_png``: signature, chunk CRCs, zlib inflate,
  scanline filters), the RIFF/WAV codec (``sources/wav.py``) for audio, and
  the RIFF/AVI codec (``sources/avi.py``) for video — every media kind runs
  a real byte-level parse end-to-end.  Payload bytes carry the same values
  as the fake path by construction, so the SQL oracles hold for both.

Scale notes: media rows are wide — the stage runs with a SMALL batch_size and
``batch_format="pyarrow"`` so binary payloads stay zero-copy in Arrow, and the
geometry/span columns are projected away before the heavy stage (SURVEY §7
"very wide rows": re-join by doc_id afterwards).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from ..state.session import map_cached


def fake_pixels(media_ref: str, thumb: int = 8) -> np.ndarray:
    """Deterministic pixels for a media_ref: (thumb, thumb) uint8 whose values
    are consecutive md5 digest bytes of '{ref}:{block}' — a pure function of
    the ref that an ANSI-SQL oracle can recompute (unlike an RNG stream)."""
    n = thumb * thumb
    nblk = (n + 15) // 16
    raw = b"".join(
        hashlib.md5(f"{media_ref}:{b}".encode()).digest() for b in range(nblk)
    )
    return np.frombuffer(raw[:n], dtype=np.uint8).reshape(thumb, thumb)


def _ref_kind(media_ref: str) -> str:
    return media_ref.split("://", 1)[-1].split("/", 1)[0]


def fake_frames(media_ref: str, n_frames: int = 4, thumb: int = 8) -> np.ndarray:
    """(n_frames, thumb, thumb) deterministic video frames: frame 0 is the
    span's fake_pixels (so frame-0 features equal the image path's), later
    frames derive from '{ref}#f{k}' — all md5-chains an ANSI-SQL oracle can
    recompute."""
    return np.stack([
        fake_pixels(media_ref if k == 0 else f"{media_ref}#f{k}", thumb)
        for k in range(n_frames)
    ])


def payload_for_ref(media_ref: str, thumb: int = 8,
                    image_codec: str = "png", jpeg_quality: int = 90,
                    video_codec: str = "raw",
                    audio_codec: str = "pcm") -> bytes:
    """The deterministic payload a media_ref resolves to — the stand-in for
    the object-store fetch a deployment would perform: PNG (or baseline
    JPEG) for image refs, 8-bit PCM WAV for audio refs.
    Byte-stable (zlib level 6 / PCM / fixed Huffman tables are
    deterministic) so store files can be resume-skipped by existence, like
    the tile sink (apps/gdalalg_raster_tile.cpp:676-682).

    ``image_codec='jpeg'``: the thumb x thumb fake pixels are upscaled to
    CONSTANT 8x8 blocks before encoding — a pure-DC image round-trips the
    lossy pipeline exactly at quality >= 75, and MediaFeaturizer's mean
    (scale-invariant on constant blocks) and dHash (samples block corners)
    come out IDENTICAL to the fake path, keeping the SQL oracle exact.

    ``video_codec='mjpeg'``: frames are 8x-upscaled to constant blocks the
    same way, then each frame is an independent baseline-JFIF stream inside
    the AVI (Motion-JPEG) — frame MEANS are invariant under the constant
    upscale ((64*sum*200 + 64*n) // (2*64*n) == (sum*200 + n) // (2*n)), so
    the frame-sample SQL oracle stays exact through the lossy pipeline."""
    kind = _ref_kind(media_ref)
    if kind == "audio":
        if audio_codec == "ima_adpcm":
            from ..sources.wav import encode_wav_adpcm

            # per-sample 9x constant hold: each source byte becomes one
            # constant ADPCM block (predictor verbatim + zero nibbles),
            # which round-trips the compressed format EXACTLY
            vals = fake_pixels(media_ref, thumb).ravel()
            sig = ((vals.astype(np.int32) - 128) << 8).astype(np.int16)
            return encode_wav_adpcm(np.repeat(sig, 9), rate=8000,
                                    samples_per_block=9)
        from ..sources.wav import encode_wav

        return encode_wav(fake_pixels(media_ref, thumb).ravel(), rate=8000)
    if kind == "video":
        from ..sources.avi import encode_avi

        frames = fake_frames(media_ref, thumb=thumb)
        if video_codec == "mjpeg":
            big = np.repeat(np.repeat(frames, 8, axis=1), 8, axis=2)
            return encode_avi(big, fps=10, codec="mjpeg", quality=90)
        return encode_avi(frames, fps=10)
    if image_codec == "jpeg":
        from ..sources.jpeg import encode_baseline

        px = fake_pixels(media_ref, thumb)
        big = np.repeat(np.repeat(px, 8, axis=0), 8, axis=1)
        return encode_baseline(big, quality=jpeg_quality)
    from ..sources.png import encode_png

    return encode_png(fake_pixels(media_ref, thumb))


_KIND_EXT = {"audio": ".wav", "video": ".avi"}


def _ref_store_path(root: str, media_ref: str, image_codec: str = "png") -> str:
    """media://kind/000000123/j -> <root>/kind/000000123/j.{png|jpg|wav|avi}"""
    rel = media_ref.split("://", 1)[-1]
    ext = _KIND_EXT.get(_ref_kind(media_ref),
                        ".jpg" if image_codec == "jpeg" else ".png")
    return os.path.join(root, *rel.split("/")) + ext


class DecodeBackend:
    """``backend="fake"``: ref -> deterministic pixels directly.
    ``backend="real"``: ref -> payload BYTES -> the in-repo codecs
    (PNG for image, RIFF/WAV for audio, RIFF/AVI for video).
    ``store_root``: directory of materialized payloads (see
    ``materialize_payload_store``); when None the payload bytes are
    synthesized in memory — the codec still runs on real PNG bytes.
    Image payloads are sniffed by magic: PNG (\x89PNG) via the in-repo PNG
    codec, JPEG (\xff\xd8) via sources/jpeg.decode — baseline SOF0
    (any sampling: 4:4:4, 4:2:0, 4:2:2) and progressive SOF2 streams,
    restart intervals included (round-4: real corpora are JPEG-heavy,
    mostly 4:2:0 and frequently progressive)."""

    def __init__(self, backend: str = "fake", thumb: int = 8,
                 store_root: str | None = None):
        if backend not in ("fake", "real"):
            raise ValueError(f"unknown decode backend {backend!r}")
        self.backend = backend
        self.thumb = thumb
        self.store_root = store_root
        if backend == "real":
            from ..sources.avi import decode_avi
            from ..sources.jpeg import decode as decode_jpeg
            from ..sources.png import decode_png
            from ..sources.wav import decode_wav

            self._decode_png = decode_png
            self._decode_jpeg = decode_jpeg
            self._decode_wav = decode_wav
            self._decode_avi = decode_avi

    def fetch(self, media_ref: str) -> bytes:
        """Resolve a ref to its payload bytes (store file, else synthesized)."""
        if self.store_root is not None:
            path = _ref_store_path(self.store_root, media_ref)
            try:
                with open(path, "rb") as f:
                    return f.read()
            except FileNotFoundError:
                jpath = _ref_store_path(self.store_root, media_ref, "jpeg")
                if jpath != path and os.path.exists(jpath):
                    with open(jpath, "rb") as f:
                        return f.read()
                raise FileNotFoundError(
                    f"media payload for {media_ref!r} not found at {path}; "
                    f"run materialize_payload_store first (or pass "
                    f"store_root=None to synthesize payloads in memory)"
                ) from None
        return payload_for_ref(media_ref, self.thumb)

    def decode(self, media_ref: str, kind: str = "image") -> np.ndarray:
        if self.backend == "real" and kind == "image":
            buf = self.fetch(media_ref)
            if buf[:2] == b"\xff\xd8":  # baseline JPEG by magic
                arr = self._decode_jpeg(buf)
            else:
                arr = self._decode_png(buf)
            if arr.ndim == 3:  # RGB -> luma-free gray (mean of channels)
                arr = arr.mean(axis=2).astype(np.uint8)
            return arr
        if self.backend == "real" and kind == "audio":
            samples, _rate = self._decode_wav(self.fetch(media_ref))
            n = self.thumb * self.thumb
            if samples.dtype == np.int16:
                # ADPCM payload: int16 constant-hold stream; invert the
                # (v-128)<<8 mapping and collapse each hold run to its value
                u = ((samples.astype(np.int32) >> 8) + 128).astype(np.uint8)
                if u.size % n:
                    raise ValueError(
                        f"audio stream length {u.size} is not a whole "
                        f"multiple of the {n}-sample grid")
                return u.reshape(n, -1)[:, 0].reshape(self.thumb, self.thumb)
            # 8-bit PCM carries the thumb x thumb byte grid (payload_for_ref)
            return samples.reshape(self.thumb, self.thumb)
        if self.backend == "real" and kind == "video":
            # span-level features use frame 0 (== the fake pixels)
            return self.decode_frames(media_ref)[0]
        return fake_pixels(media_ref, self.thumb)

    def decode_frames(self, media_ref: str) -> np.ndarray:
        """(n_frames, thumb, thumb) frames of a video ref (real: the AVI
        codec on the payload bytes; fake: the deterministic frame chain)."""
        if self.backend == "real":
            frames, _fps = self._decode_avi(self.fetch(media_ref))
            return frames
        return fake_frames(media_ref, thumb=self.thumb)


def materialize_payload_store(docs_ds, root: str, kinds=("image",),
                              thumb: int = 8, image_codec: str = "png",
                              jpeg_quality: int = 90,
                              video_codec: str = "raw",
                              audio_codec: str = "pcm"):
    """Write every media span's deterministic payload to
    ``<root>/<kind>/<doc>/<j>.{png|jpg}`` — the 'ingest to object store'
    stage the real decode pool reads from.  Resume = file existence
    (payloads are byte-stable), atomic tmp+rename publish.
    ``image_codec='jpeg'`` writes baseline JFIF via sources/jpeg instead of
    PNG (the 8x8-constant-block fake pixels round-trip JPEG exactly at
    quality >= 75, so downstream features stay bit-stable).  Returns a
    Dataset of (media_ref, path, n_bytes, skipped) receipts — consume it
    to execute."""
    import pyarrow.compute as pc

    keep = set(kinds)

    def write_batch(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        structs = spans.flatten()
        kind = structs.field("kind").to_pylist()
        refs = structs.field("media_ref").to_pylist()
        out_ref, out_path, out_bytes, out_skip = [], [], [], []
        for k, r in zip(kind, refs):
            if k not in keep or not r:
                continue
            path = _ref_store_path(root, r, image_codec)
            skipped = os.path.exists(path)
            n = 0
            if not skipped:
                payload = payload_for_ref(r, thumb, image_codec=image_codec,
                                          jpeg_quality=jpeg_quality,
                                          video_codec=video_codec,
                                          audio_codec=audio_codec)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "wb") as f:
                    f.write(payload)
                os.replace(tmp, path)  # atomic publish (resume-safe)
                n = len(payload)
            out_ref.append(r); out_path.append(path)
            out_bytes.append(n); out_skip.append(skipped)
        return pa.table({
            "media_ref": pa.array(out_ref, pa.string()),
            "path": pa.array(out_path, pa.string()),
            "n_bytes": pa.array(out_bytes, pa.int64()),
            "skipped": pa.array(out_skip, pa.bool_()),
        })

    return docs_ds.select_columns(["doc_id", "spans"]).map_batches(
        write_batch, batch_format="pyarrow")


class MediaFeaturizer:
    """Explode media spans -> decoded thumbnail features.

    Input batch: (doc_id, spans); output: one row per media span with
    (doc_id, span_idx, kind, media_ref, mean_x100: int64, phash: int64).
    Backend construction happens once per worker process (the model-load
    slot).
    """

    def __init__(self, backend: str = "fake", thumb: int = 8,
                 store_root: str | None = None):
        self.codec = DecodeBackend(backend, thumb, store_root=store_root)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, span_idx, kinds, refs, means, phashes = [], [], [], [], [], []
        spans_col = batch["spans"]
        for i in range(batch.num_rows):
            spans = spans_col[i].as_py() or []
            for j, s in enumerate(spans):
                if s["kind"] == "text" or not s["media_ref"]:
                    continue
                arr = self.codec.decode(s["media_ref"], kind=s["kind"])
                doc_ids.append(batch["doc_id"][i].as_py())
                span_idx.append(j)
                kinds.append(s["kind"])
                refs.append(s["media_ref"])
                # exact integer round-half-up of mean*100 == SQL arithmetic
                n_px = arr.size
                means.append((int(arr.sum()) * 200 + n_px) // (2 * n_px))
                # dHash-style perceptual hash on the fake thumbnail
                small = arr[:: max(1, arr.shape[0] // 8), :: max(1, arr.shape[1] // 8)]
                bits = (small[:, 1:] > small[:, :-1]).ravel()[:63]
                phashes.append(int(bits.dot(1 << np.arange(bits.size, dtype=np.uint64))))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids),
                "span_idx": pa.array(span_idx, pa.int32()),
                "kind": pa.array(kinds),
                "media_ref": pa.array(refs),
                "mean_x100": pa.array(means, pa.int64()),
                "phash": pa.array(phashes, pa.int64()),
            }
        )


def featurize_media(docs_ds, backend: str = "fake", batch_size: int = 1024,
                    store_root: str | None = None):
    """Media pipeline: project to (doc_id, spans) -> cached-backend decode."""
    cols = docs_ds.schema().names
    if set(cols) - {"doc_id", "spans"}:
        # project away wide geometry/derived columns before the decode stage
        # (SURVEY §7 "very wide rows": re-join by doc_id afterwards)
        docs_ds = docs_ds.select_columns(["doc_id", "spans"])
    return map_cached(docs_ds, MediaFeaturizer, backend, 8, store_root,
                      batch_format="pyarrow", batch_size=batch_size)


def span_stats(docs_ds):
    """Per-document span-sequence statistics over the interleaved corpus:
    (doc_id, n_spans, n_text, n_media, text_chars, last_offset).

    ``last_offset`` re-derives the strictly-increasing offset invariant
    (text spans advance by their length, media spans by 1), so any stage that
    reorders or perturbs spans upstream breaks this query — it is the
    BASELINE input_hint's span-sequence-equality check in aggregate form.

    Fully vectorized: one Arrow flatten + numpy segmented bincount per batch;
    no per-row Python on the spans column.
    """
    import pyarrow.compute as pc

    def stats(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        n = t.num_rows
        lens = pc.list_value_length(spans).to_numpy(zero_copy_only=False).astype(np.int64)
        structs = spans.flatten()
        kind = structs.field("kind")
        is_text = pc.equal(kind, "text").to_numpy(zero_copy_only=False)
        tlen = pc.utf8_length(structs.field("text")).to_numpy(zero_copy_only=False)
        off = structs.field("offset").to_numpy(zero_copy_only=False).astype(np.int64)
        parent = np.repeat(np.arange(n), lens)
        n_text = np.bincount(parent, weights=is_text, minlength=n).astype(np.int64)
        text_chars = np.bincount(parent, weights=tlen * is_text,
                                 minlength=n).astype(np.int64)
        last = np.zeros(n, dtype=np.int64)
        ends = np.cumsum(lens)
        nz = lens > 0
        last[nz] = off[ends[nz] - 1]
        return pa.table({
            "doc_id": t["doc_id"],
            "n_spans": pa.array(lens),
            "n_text": pa.array(n_text),
            "n_media": pa.array(lens - n_text),
            "text_chars": pa.array(text_chars),
            "last_offset": pa.array(last),
        })

    return docs_ds.map_batches(stats, batch_format="pyarrow")


def span_sequence_signature(docs_ds):
    """Per-document ORDER-SENSITIVE span-sequence digest: md5 over the
    US-joined (kind, text, media_ref, offset) tuples, RS-joined in span order
    (US=\\x1f, RS=\\x1e).

    This is the BASELINE input_hint's per-row span-sequence-equality invariant
    ("kind, text, media_ref, order") reduced to one comparable scalar: any
    span lost, reordered, or mutated by an engine stage changes the digest.
    Field extraction and string assembly are vectorized Arrow kernels; the
    digest is one C-level md5 per document (same budget as fingerprint).
    """
    import pyarrow.compute as pc

    def sig(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        structs = spans.flatten()  # concatenated span structs (no null lists)
        per_span = pc.binary_join_element_wise(
            structs.field("kind"),
            structs.field("text"),
            structs.field("media_ref"),
            pc.cast(structs.field("offset"), pa.string()),
            "\x1f",
        )
        # rebase offsets: a sliced ListArray's offsets need not start at 0,
        # but flatten() always returns exactly the covered values
        off = spans.offsets.to_numpy().astype(np.int64)
        off = off - off[0]
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(off, type=pa.int32()), per_span),
            "\x1e",
        )
        sigs = [
            hashlib.md5(s.encode()).hexdigest() for s in joined.to_pylist()
        ]
        return pa.table({
            "doc_id": t["doc_id"],
            "n_spans": pc.cast(pc.list_value_length(spans), pa.int64()),
            "seq_sig": pa.array(sigs, type=pa.string()),
        })

    return docs_ds.map_batches(sig, batch_format="pyarrow")


def span_text_extract(docs_ds):
    """Interleaved doc -> its full text: the text spans concatenated IN SPAN
    ORDER (media spans contribute nothing) — the first stage of every text
    pipeline over the interleaved corpus.  Output: (doc_id, n_chars,
    text_md5).  Vectorized: mask non-text spans to '', one Arrow list-join
    per batch, one C-level md5 per doc.
    """
    import pyarrow.compute as pc

    def extract(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        structs = spans.flatten()
        is_text = pc.equal(structs.field("kind"), "text")
        texts = pc.if_else(is_text, structs.field("text"), "")
        off = spans.offsets.to_numpy().astype(np.int64)
        off = off - off[0]
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(off, type=pa.int32()), texts), "")
        full = joined.to_pylist()
        return pa.table({
            "doc_id": t["doc_id"],
            "n_chars": pa.array([len(s or "") for s in full], pa.int64()),
            "text_md5": pa.array(
                [hashlib.md5((s or "").encode()).hexdigest() for s in full],
                pa.string()),
        })

    return docs_ds.map_batches(extract, batch_format="pyarrow")


def span_media_bytes(docs_ds):
    """Resolve every media span's ref to its (deterministic) payload size and
    aggregate per doc — the storage-planning pass before a decode pool ships
    bytes.  size(ref) = 1 + (first md5 hex window of the ref mod 65536);
    output (doc_id, n_media, media_bytes).  Segmented sum, no shuffle.
    """
    import pyarrow.compute as pc

    def resolve(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        n = t.num_rows
        structs = spans.flatten()
        refs = structs.field("media_ref").to_pylist()
        is_media = np.array([bool(r) for r in refs])
        sizes = np.zeros(len(refs), dtype=np.int64)
        for i, r in enumerate(refs):
            if r:
                sizes[i] = 1 + (int(hashlib.md5(r.encode()).hexdigest()[:8], 16)
                                % 65536)
        lens = pc.list_value_length(spans).to_numpy(zero_copy_only=False).astype(np.int64)
        parent = np.repeat(np.arange(n), lens)
        n_media = np.bincount(parent, weights=is_media, minlength=n).astype(np.int64)
        total = np.bincount(parent, weights=sizes, minlength=n).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_media": pa.array(n_media),
            "media_bytes": pa.array(total),
        })

    return docs_ds.map_batches(resolve, batch_format="pyarrow")


def filter_spans(docs_ds, drop_kinds=("video",)):
    """Span surgery over the interleaved corpus: remove spans of the given
    kinds and RECOMPUTE the running-offset invariant for the survivors
    (text spans advance by their length, media spans by 1) — the transform
    every span-level filter must perform to keep the input_hint's
    span-sequence contract intact downstream.

    Fully vectorized: one boolean mask over the flattened structs, list
    offsets rebuilt from segmented counts, offsets re-cumsummed with one
    global cumsum minus per-doc base.
    """
    import pyarrow.compute as pc

    drop = set(drop_kinds)

    def fn(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        n = t.num_rows
        structs = spans.flatten()
        kind = structs.field("kind")
        keep = np.ones(len(structs), dtype=bool)
        for k in drop:
            keep &= ~pc.equal(kind, k).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(spans).to_numpy(zero_copy_only=False).astype(np.int64)
        parent = np.repeat(np.arange(n), lens)
        kept = structs.filter(pa.array(keep))
        kparent = parent[keep]
        # rebuild list offsets from per-doc survivor counts
        new_counts = np.bincount(kparent, minlength=n).astype(np.int64)
        new_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(new_counts, out=new_off[1:])
        # recompute the running offset: text -> len(text), media -> 1
        is_text = pc.equal(kept.field("kind"), "text").to_numpy(zero_copy_only=False)
        tlen = pc.utf8_length(kept.field("text")).to_numpy(zero_copy_only=False).astype(np.int64)
        step = np.where(is_text, tlen, 1)
        run = np.cumsum(step)
        base = np.zeros(len(step), dtype=np.int64)
        starts = new_off[:-1][new_counts > 0]
        if len(step):
            base_vals = np.zeros(n, dtype=np.int64)
            nzdocs = new_counts > 0
            base_vals[nzdocs] = run[starts] - step[starts]
            base = base_vals[kparent]
        new_offset = (run - base).astype(np.int32)
        rebuilt = pa.StructArray.from_arrays(
            [kept.field("kind"), kept.field("text"), kept.field("media_ref"),
             pa.array(new_offset, pa.int32())],
            names=["kind", "text", "media_ref", "offset"],
        )
        new_spans = pa.ListArray.from_arrays(
            pa.array(new_off, type=pa.int32()).cast(pa.int32()), rebuilt)
        return pa.table({"doc_id": t["doc_id"], "spans": new_spans})

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def media_inventory(docs_ds):
    """Per-kind media-reference inventory over the interleaved corpus
    (the gdaltindex-style catalog for media spans): n_refs, n_docs holding
    at least one ref of the kind, and the lexicographic ref range.

    Shape: vectorized Arrow flatten; per-kind count/min/max fold via
    per-batch combiners; distinct-doc counts via the two-level plan
    (groupby (kind, doc) dedup -> per-kind count) so no stage ever holds a
    kind's full doc set.  Final merge is a 3-row driver join.
    """
    import pyarrow.compute as pc

    from ..sources.synthetic import doc_id_to_key

    def flat_refs(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lens = pc.list_value_length(spans).to_numpy(zero_copy_only=False).astype(np.int64)
        structs = spans.flatten()
        kind = structs.field("kind")
        keys = doc_id_to_key(t["doc_id"])
        flat = pa.table({
            "kind": kind,
            "ref": structs.field("media_ref"),
            "doc_key": pa.array(np.repeat(keys, lens)),
        }).filter(pc.not_equal(kind, "text"))
        return flat

    # the two reductions below both consume `flat`; materialize once so the
    # docs->flatten pipeline doesn't re-execute per branch
    flat = docs_ds.map_batches(flat_refs, batch_format="pyarrow").materialize()

    def ref_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("kind").aggregate(
            [("ref", "count"), ("ref", "min"), ("ref", "max")])
        return pa.table({"kind": g["kind"],
                         "n": pc.cast(g["ref_count"], pa.int64()),
                         "mn": g["ref_min"], "mx": g["ref_max"]})

    from ray.data.aggregate import Max, Min, Sum

    ref_stats = flat.map_batches(ref_partial, batch_format="pyarrow")         .groupby("kind").aggregate(Sum("n", alias_name="n_refs"),
                                   Min("mn", alias_name="min_ref"),
                                   Max("mx", alias_name="max_ref")).take_all()

    def pair_partial(t: pa.Table) -> pa.Table:
        return t.group_by(["kind", "doc_key"]).aggregate([])

    from ray.data.aggregate import Count

    doc_counts = flat.map_batches(pair_partial, batch_format="pyarrow")         .groupby(["kind", "doc_key"]).aggregate(Count(alias_name="_c"))         .map_batches(lambda t: pa.table({
            "kind": t["kind"],
            "one": pa.array(np.ones(t.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")         .groupby("kind").aggregate(Sum("one", alias_name="n_docs")).take_all()

    nd = {r["kind"]: r["n_docs"] for r in doc_counts}
    ref_stats.sort(key=lambda r: r["kind"])
    return pa.table({
        "kind": pa.array([r["kind"] for r in ref_stats]),
        "n_refs": pa.array([int(r["n_refs"]) for r in ref_stats], pa.int64()),
        "n_docs": pa.array([int(nd[r["kind"]]) for r in ref_stats], pa.int64()),
        "min_ref": pa.array([r["min_ref"] for r in ref_stats]),
        "max_ref": pa.array([r["max_ref"] for r in ref_stats]),
    })


class FrameSampler:
    """Explode VIDEO spans -> sampled per-frame features (the brief's
    frame-sample op): every ``stride``-th frame of each video ref decoded
    once by the worker's codec, one output row per sampled frame with its
    exact integer mean."""

    def __init__(self, stride: int = 2, backend: str = "fake", thumb: int = 8,
                 store_root: str | None = None):
        self.codec = DecodeBackend(backend, thumb, store_root=store_root)
        self.stride = int(stride)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, span_idx, refs, fidx, means = [], [], [], [], []
        spans_col = batch["spans"]
        for i in range(batch.num_rows):
            spans = spans_col[i].as_py() or []
            for j, s in enumerate(spans):
                if s["kind"] != "video" or not s["media_ref"]:
                    continue
                frames = self.codec.decode_frames(s["media_ref"])
                for k in range(0, frames.shape[0], self.stride):
                    fr = frames[k]
                    n_px = fr.size
                    doc_ids.append(batch["doc_id"][i].as_py())
                    span_idx.append(j)
                    refs.append(s["media_ref"])
                    fidx.append(k)
                    means.append((int(fr.sum()) * 200 + n_px) // (2 * n_px))
        return pa.table({
            "doc_id": pa.array(doc_ids),
            "span_idx": pa.array(span_idx, pa.int32()),
            "media_ref": pa.array(refs),
            "frame_idx": pa.array(fidx, pa.int32()),
            "mean_x100": pa.array(means, pa.int64()),
        })


def sample_frames(docs_ds, stride: int = 2, backend: str = "fake",
                  batch_size: int = 1024, store_root: str | None = None):
    """Video frame-sampling pipeline: project -> cached-codec frame decode."""
    cols = docs_ds.schema().names
    if set(cols) - {"doc_id", "spans"}:
        docs_ds = docs_ds.select_columns(["doc_id", "spans"])
    return map_cached(docs_ds, FrameSampler, stride, backend, 8, store_root,
                      batch_format="pyarrow", batch_size=batch_size)


def block_average(arr: np.ndarray, factor: int = 2) -> np.ndarray:
    """Exact integer area-average downscale by ``factor`` (round half up) —
    the media 'resize' kernel (gcore/overview.cpp average semantics on the
    thumbnail grid).  Requires factor-aligned dimensions."""
    h, w = arr.shape
    if h % factor or w % factor:
        raise ValueError(f"shape {arr.shape} not divisible by {factor}")
    b = arr.astype(np.int64).reshape(h // factor, factor, w // factor, factor)
    s = b.sum(axis=(1, 3))
    n = factor * factor
    return ((2 * s + n) // (2 * n)).astype(np.uint8)


class ThumbResizer:
    """Media RESIZE stage: decode -> exact block-average downscale
    -> (optionally) re-encode the resized PNG to an output store + emit the
    resized thumb's integer features (mean_x100 and the position-weighted
    checksum, functions/checksum convention)."""

    def __init__(self, factor: int = 2, backend: str = "fake", thumb: int = 8,
                 store_root: str | None = None, out_root: str | None = None):
        self.codec = DecodeBackend(backend, thumb, store_root=store_root)
        self.factor = int(factor)
        self.out_root = out_root

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, span_idx, refs, means, sums = [], [], [], [], []
        spans_col = batch["spans"]
        for i in range(batch.num_rows):
            spans = spans_col[i].as_py() or []
            for j, s in enumerate(spans):
                if s["kind"] == "text" or not s["media_ref"]:
                    continue
                arr = self.codec.decode(s["media_ref"], kind=s["kind"])
                small = block_average(arr, self.factor)
                if self.out_root is not None:
                    from ..sources.png import encode_png

                    path = _ref_store_path(self.out_root, s["media_ref"])
                    if not path.endswith(".png"):
                        path = path.rsplit(".", 1)[0] + ".png"
                    if not os.path.exists(path):  # resume by existence
                        os.makedirs(os.path.dirname(path), exist_ok=True)
                        tmp = f"{path}.tmp.{os.getpid()}"
                        with open(tmp, "wb") as f:
                            f.write(encode_png(small))
                        os.replace(tmp, path)
                n_px = small.size
                flat = small.astype(np.int64).ravel()
                w = (np.arange(n_px) % 7) + 1
                doc_ids.append(batch["doc_id"][i].as_py())
                span_idx.append(j)
                refs.append(s["media_ref"])
                means.append((int(flat.sum()) * 200 + n_px) // (2 * n_px))
                sums.append(int((flat * w).sum() % 65536))
        return pa.table({
            "doc_id": pa.array(doc_ids),
            "span_idx": pa.array(span_idx, pa.int32()),
            "media_ref": pa.array(refs),
            "r_mean_x100": pa.array(means, pa.int64()),
            "r_checksum": pa.array(sums, pa.int64()),
        })


def resize_media(docs_ds, factor: int = 2, backend: str = "fake",
                 batch_size: int = 1024, store_root: str | None = None,
                 out_root: str | None = None):
    """Media resize pipeline: project -> cached-codec decode + downscale."""
    cols = docs_ds.schema().names
    if set(cols) - {"doc_id", "spans"}:
        docs_ds = docs_ds.select_columns(["doc_id", "spans"])
    return map_cached(docs_ds, ThumbResizer, factor, backend, 8, store_root, out_root,
                      batch_format="pyarrow", batch_size=batch_size)
