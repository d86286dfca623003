"""The one keyed shuffle behind every hash-bucketed operator:
``relational.bucket_groups``.

- Parity: the sorted output of each operator that runs on the shuffle is
  pinned to a sha256 recorded before the operators were moved onto
  ``bucket_groups``.  The fixtures use int keys that are multiples of 64,
  co-groups where some keys exist on one side only, a string payload
  carried through a side, and inputs with a single key.
- ``bucket_of`` takes the high bits of the Fibonacci product, so keys that
  agree in their low bits still spread over the buckets.
- ``bucket_groups`` itself: a side absent from a bucket arrives as a typed
  zero-row table, side-only columns keep their types, and a single-side
  call passes its columns through unchanged.
"""

import datetime
import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.stages import dedup, events, relational, textops, zonal
from gdal_ray.stages import polygonize as poly


def _keyed(single: bool = False) -> pa.Table:
    rng = np.random.default_rng(3)
    n = 300
    k = np.full(n, 128) if single else 64 * rng.integers(0, 9, n)
    return pa.table({
        "k": pa.array(k, pa.int64()),
        "v": pa.array(rng.integers(0, 20, n), pa.int64()),
        "i": pa.array(rng.permutation(n), pa.int64()),
        "name": pa.array([f"r{j % 13}" for j in range(n)], pa.string()),
    })


# build-side keys: 0, 128, 256 meet the probe; 6400 and 6464 are build-only,
# and probe keys 64, 192, 320.. have no build row
_BUILD = pa.table({"bk": pa.array([0, 0, 128, 256, 6400, 6464], pa.int64())})


def _events(single: bool = False) -> pa.Table:
    rng = np.random.default_rng(5)
    n = 400
    u = np.full(n, 64) if single else 64 * rng.integers(0, 12, n)
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    ts = t0 + rng.integers(0, 2 * 86400, n).astype("timedelta64[s]")
    return pa.table({
        "event_id": pa.array(rng.permutation(n), pa.int64()),
        "user_id": pa.array(u, pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array(rng.integers(-500, 5000, n) / 100.0),
        "event_type": pa.array([f"t{j % 3}" for j in range(n)], pa.string()),
    })


def _orders() -> pa.Table:
    rng = np.random.default_rng(6)
    n = 60
    # customers 0..15 x 64: keys 768.. have no events
    return pa.table({
        "o_custkey": pa.array(64 * rng.integers(0, 16, n), pa.int64()),
        "o_orderdate": pa.array(
            [datetime.date(2024, 1, 1) + datetime.timedelta(days=int(d))
             for d in rng.integers(-1, 3, n)], pa.date32()),
        "o_orderkey": pa.array(rng.permutation(n) * 64, pa.int64()),
    })


_WORDS = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa"]


def _docs() -> pa.Table:
    rng = np.random.default_rng(7)
    shared = "the quick brown fox jumps over the lazy dog again"
    texts = []
    for j in range(40):
        body = " ".join(rng.choice(_WORDS, 6 + j % 9))
        if j % 4 == 0:
            body = shared + " " + body
        if j % 10 == 3:
            body = "tiny"
        texts.append(body)
    texts[21] = texts[5]  # exact duplicate docs
    texts[33] = texts[5]
    return pa.table({
        "doc_id": pa.array(64 * np.arange(1, 41), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en" if j % 7 else "de" for j in range(40)],
                         pa.string()),
    })


def _near_dups() -> pa.Table:
    rng = np.random.default_rng(41)
    vocab = ["v%d" % i for i in range(400)]
    base = " ".join(rng.choice(vocab, 80))
    texts = [base, base + " tail", base + " x",
             " ".join(rng.choice(vocab, 80)), " ".join(rng.choice(vocab, 80))]
    return pa.table({"doc_id": pa.array([640, 704, 960, 1280, 1344], pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _pairs() -> pa.Table:
    # a 20-node path, a triangle and a lone edge, all on multiples of 64
    a = [64 * j for j in range(1, 20)] + [6400, 6464, 6400, 9600]
    b = [64 * j for j in range(2, 21)] + [6464, 6528, 6528, 9664]
    return pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})


def _comps() -> tuple:
    comps = pa.table({
        "key": pa.array([64, 128, 192, 640, 704, 7040], pa.int64()),
        "name": pa.array(["a", "b", "c", "d", "e", "f"], pa.string()),
        "value": pa.array([1.5, 2.5, 3.5, 4.5, 5.5, 6.5]),
    })
    # labels for 64..192 and 640 only; node 9000 has no component row
    labels = pa.table({"node": pa.array([64, 128, 192, 640, 9000], pa.int64()),
                       "label": pa.array([64, 64, 64, 640, 64], pa.int64())})
    return comps, labels


def _points() -> tuple:
    from gdal_ray.sources import synthetic
    from gdal_ray.stages import tiles

    ids = np.arange(1, 3001, dtype=np.int64)
    t = pa.table({"doc_id": pa.array(ids),
                  "n_chars": pa.array((ids * 7) % 5, pa.int64())})
    zones = synthetic.make_rect_zones(np.arange(1, 201, dtype=np.int64))
    return tiles.derive_geometry_batch(t), zones


def _ds(t: pa.Table):
    return rd.from_arrow(t)


CASES = {
    "group_top_n": lambda: relational.group_top_n(_ds(_keyed()), "k", "v", 3, "i"),
    "group_top_n_single": lambda: relational.group_top_n(
        _ds(_keyed(True)), "k", "v", 3, "i"),
    "semi_join": lambda: relational.semi_anti_join_partitioned(
        _ds(_keyed()), _ds(_BUILD), "k", "bk"),
    "anti_join": lambda: relational.semi_anti_join_partitioned(
        _ds(_keyed()), _ds(_BUILD), "k", "bk", anti=True),
    "set_intersect": lambda: relational.set_op(
        _ds(_keyed().select(["k"])), _ds(_BUILD.rename_columns(["k"])), "k",
        "intersect"),
    "set_except": lambda: relational.set_op(
        _ds(_keyed().select(["k"])), _ds(_BUILD.rename_columns(["k"])), "k",
        "except"),
    "group_rank": lambda: relational.group_rank(_ds(_keyed()), "k", "v", "i"),
    "group_rank_single": lambda: relational.group_rank(
        _ds(_keyed(True)), "k", "v", "i", descending=False),
    "session_windows": lambda: events.session_windows(_ds(_events()), 3600),
    "session_windows_single": lambda: events.session_windows(
        _ds(_events(True)), 3600),
    "asof_join_partitioned": lambda: events.asof_join_partitioned(
        _ds(_events()), _ds(_orders())),
    "lag_lead_gaps": lambda: events.lag_lead_gaps(_ds(_events())),
    "running_totals": lambda: events.running_totals(_ds(_events())),
    "window_frames": lambda: events.window_frames(_ds(_events())),
    "window_frames_single": lambda: events.window_frames(_ds(_events(True))),
    "chunk_dedup_stats": lambda: dedup.chunk_dedup_stats(_ds(_docs())),
    "chunk_dedup_stats_hash": lambda: dedup.chunk_dedup_stats(
        _ds(_docs()), key_mode="hash"),
    "duplicated_spans": lambda: dedup.duplicated_spans(_ds(_docs())),
    "duplicated_spans_hash": lambda: dedup.duplicated_spans(
        _ds(_docs()), key_mode="hash"),
    "cluster_split": lambda: dedup.cluster_split(
        _ds(_near_dups()), min_jaccard_x1000=400),
    "filter_cascade": lambda: textops.filter_cascade(_ds(_docs())),
    "components_distributed": lambda: poly._components_distributed(
        _ds(_pairs())),
    "attach_component": lambda: poly._attach_component(
        _ds(_comps()[0]), _ds(_comps()[1]),
        payload=[("name", pa.string()), ("value", pa.float64())]),
    "zonal_value_modes": lambda: zonal.zonal_value_modes(
        _ds(_points()[0]), _points()[1]),
}


def _digest(rows: list) -> str:
    items = sorted((tuple(sorted(r.items())) for r in rows), key=repr)
    return hashlib.sha256(repr(items).encode()).hexdigest()


# case -> sha256 of the sorted output, recorded before the operators were
# moved onto bucket_groups
DIGESTS = {
    "anti_join": "5e88239669950d56b414d0186002035971fc8b0337ce40b98dad87dbe062af6b",
    "asof_join_partitioned": "5bcbf55189343c5456e35fb9f298e720e380137a78399898ed2746aa9f489537",
    "attach_component": "a6924cc284ccec8a59680ac6978c2382f7d95ae9b2faaee45af3eeee7a1cdc26",
    "chunk_dedup_stats": "33ecc9560d43824e51bb754428d764e6fcf6444a2d382220ff4bbfc4d7b3ba1c",
    "chunk_dedup_stats_hash": "33ecc9560d43824e51bb754428d764e6fcf6444a2d382220ff4bbfc4d7b3ba1c",
    "cluster_split": "c1f1a0b0f9b387802efbd675516d55f70119d50fbd464a3bb4752cfa4d49f0f1",
    "components_distributed": "baccff333373d0a2370ff7e9921ecb841e09634b5b36d29d7733f711e049e42b",
    "duplicated_spans": "89810bce46b9220dda28cc58c6ac34d240ca7b937892b54761716c7039caad58",
    "duplicated_spans_hash": "89810bce46b9220dda28cc58c6ac34d240ca7b937892b54761716c7039caad58",
    "filter_cascade": "2ced70d351c50e9ab2381c08425176f8b30551bfedd98df7836837d25ef96a61",
    "group_rank": "a047b4e281ed665b31ca9a20f677c49cd2925284a98177960b5166580b04f8a3",
    "group_rank_single": "facdaf035dcbd7d1069dffd161ff033984a103ad5bd9b533eff7baaf35539037",
    "group_top_n": "39f5f2261ff85351dc4e9203d49b64466ab3f133ecec1f6ab9469058c2f72167",
    "group_top_n_single": "6046d1490f9c02f16b06c02970c88e17c315e1b83728aac4ab1468e1b9c8547c",
    "lag_lead_gaps": "e0c5d66ef49a8c256276d654652444ee3bcef82dae182e3e8d8266086b7ed96c",
    "running_totals": "0e1a494fd4734875c1debc111d5414426c4d63fca755d4b10a57fb795a921fb8",
    "semi_join": "e8973dacfaf8d9ef43cbaa8f17a8bc97483ed5af3b0dd223e13db4dd31267765",
    "session_windows": "1af36a9122980aa049241b30281a67d834d0817784b54677e4d7c2e313aabcea",
    "session_windows_single": "8d0a43b79426acd748ad49f0ce079f25a756dae25c66b24d55a1bca651f3eb6e",
    "set_except": "7e5e63cb58a861b2e1452618d7e52407f3f3e9f9cbd5cf4bb19e81f1400a2ba1",
    "set_intersect": "d7ec4ad15881f95d3e7026d632207e9fd460ae18df7dd7dc163bb93f9ef05809",
    "window_frames": "5a666f7e4dbd66c13e6eee0fe1259b001a33f2067b10c85c49b2228c69e3eb5a",
    "window_frames_single": "7e1bb8fd4a9b09d9c50edec4b51ff08b04c8bcd50e2dfd00d1c68d4217c708f7",
    "zonal_value_modes": "6e9e384ab6e7c51fec88dcc478ede4cbf348cca2326c3d6bfe31c1a545b27c32",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_operator_parity(name, ray_session):
    rows = CASES[name]().take_all()
    assert rows
    assert _digest(rows) == DIGESTS[name]


@pytest.mark.parametrize("keys", [
    64 * np.arange(10_000),
    np.arange(1000, dtype=np.int64) << 32,
    1000 * np.arange(1, 100_000),
], ids=["multiples_of_64", "shifted_32", "multiples_of_1000"])
def test_bucket_of_uses_high_bits(keys):
    """Keys that agree in their low bits still cover the buckets; a
    low-bits hash puts these sets in 1, 1 and 8 of the 64."""
    b = relational.bucket_of(keys)
    assert b.min() >= 0 and b.max() < relational.BUCKETS
    assert np.unique(b).size >= 48
    # a bucket count that is not a power of two is covered too
    assert np.unique(relational.bucket_of(keys, 5)).size == 5


def test_cogroup_sides_keep_their_schemas(ray_session):
    """Each side arrives in its own columns and types, also where the sides
    share a column name with different types; a side absent from a bucket
    arrives as a zero-row table of its schema."""
    a = pa.table({"k": pa.array(64 * np.arange(40), pa.int32()),
                  "name": pa.array([f"n{j}" for j in range(40)], pa.string()),
                  "day": pa.array(np.arange(40), pa.int32()).cast(pa.date32())})
    b = pa.table({"k": pa.array(64 * np.arange(20, 60), pa.int64()),
                  "x": pa.array(np.arange(40) / 4.0)})
    sa, sb = a.schema, b.schema

    def per_bucket(ta: pa.Table, tb: pa.Table) -> pa.Table:
        return pa.table({"na": [ta.num_rows], "nb": [tb.num_rows],
                         "sa": [ta.schema.equals(sa)], "sb": [tb.schema.equals(sb)],
                         "ka": [ta["k"].to_pylist()], "kb": [tb["k"].to_pylist()]})

    rows = relational.bucket_groups(
        [(rd.from_arrow(a), sa), (rd.from_arrow(b), sb)], "k",
        per_bucket).take_all()
    assert all(r["sa"] and r["sb"] for r in rows)
    assert any(r["na"] == 0 for r in rows) and any(r["nb"] == 0 for r in rows)
    assert sorted(k for r in rows for k in r["ka"]) == a["k"].to_pylist()
    assert sorted(k for r in rows for k in r["kb"]) == b["k"].to_pylist()
    for r in rows:  # equal keys meet in one bucket
        assert set(r["ka"]) & set(b["k"].to_pylist()) <= set(r["kb"])


def test_single_side_passes_columns_through(ray_session):
    t = _keyed()
    out = relational.bucket_groups(rd.from_arrow(t), "k", lambda g: g)
    rows = out.take_all()
    assert out.schema().base_schema.equals(t.schema)
    assert _digest(rows) == _digest(t.to_pylist())


def test_asof_partitioned_right_side_empty(ray_session):
    """Left rows whose bucket holds no right row get null emits."""
    right = _orders().slice(0, 0)
    rows = events.asof_join_partitioned(_ds(_events()), _ds(right)).take_all()
    assert len(rows) == 400 and all(r["o_orderkey"] is None for r in rows)
