"""The cross-tile seam protocol shared by polygonize, polygonize_rings,
sieve_global, nearblack and footprint.

- Parity: each stage's sorted output is pinned to a sha256 recorded before
  the four stages were moved onto one border-run emitter, one seam-pair
  join and one label merge.  Every case runs on both merge paths (driver
  union-find and distributed propagation), selected through
  ``DRIVER_MERGE_MAX_PAIRS``.
- ``_seam_pairs`` on hand-built seam rows: two adjacent tiles and one 2x2
  corner junction.
- A tile batch whose components never touch a tile edge (no seam rows) used
  to build a null-typed border table and crash the stage.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from gdal_ray.stages import collar
from gdal_ray.stages import polygonize as poly

MOSAIC = 96


def _mosaic(name: str) -> np.ndarray:
    gy, gx = np.mgrid[0:MOSAIC, 0:MOSAIC]
    if name == "blobs":
        # background 50; dark discs on and off the mosaic edge, a nodata
        # disc, discs crossing the 32- and 40-px tile borders
        arr = np.full((MOSAIC, MOSAIC), 50, np.uint8)
        for v, cx, cy, r in ((3, 4, 30, 9), (200, 64, 20, 9), (7, 40, 62, 13),
                             (0, 80, 80, 10), (3, 70, 45, 4), (200, 31, 31, 5)):
            arr[(gx - cx) ** 2 + (gy - cy) ** 2 <= r * r] = v
        return arr
    if name == "diag":
        # 8-connected chains through the 4-tile corners of both tilings
        arr = np.zeros((MOSAIC, MOSAIC), np.uint8)
        arr[(gx == gy) & (gx >= 5) & (gx <= 90)] = 1
        arr[(gx + gy == 95) & (gx >= 10) & (gx <= 85)] = 60
        arr[np.abs(gx - 48) + np.abs(gy - 30) == 10] = 3
        return arr
    if name == "noise":
        rng = np.random.default_rng(5)
        return rng.choice(np.array([0, 5, 20, 200], np.uint8),
                          size=(MOSAIC, MOSAIC), p=[0.2, 0.3, 0.3, 0.2])
    raise ValueError(name)


def _tiles(arr: np.ndarray, tile: int) -> pa.Table:
    """Tile rows of ``arr``; the last row/column of tiles is ragged when
    ``tile`` does not divide the mosaic."""
    h, w = arr.shape
    rows = []
    for ty in range(-(-h // tile)):
        for tx in range(-(-w // tile)):
            sub = arr[ty * tile:(ty + 1) * tile, tx * tile:(tx + 1) * tile]
            rows.append({"z": 0, "x": tx, "y": ty, "band": 1,
                         "width": sub.shape[1], "height": sub.shape[0],
                         "crs": "EPSG:3857", "nodata": 0.0, "dtype": "uint8",
                         "data": np.ascontiguousarray(sub).tobytes()})
    return pa.Table.from_pylist(rows)


def _digest(rows: list) -> str:
    """sha256 of the rows in a canonical order: tile rows by (y, x),
    component rows by every column."""
    if rows and "data" in rows[0]:
        rows = sorted(rows, key=lambda r: (r["y"], r["x"]))
        items = [(r["x"], r["y"], r["width"], r["height"], r["dtype"],
                  r["data"]) for r in rows]
    else:
        items = sorted(tuple(sorted(r.items())) for r in rows)
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _run(stage: str, fixture: str, tile: int, connect8: bool) -> list:
    ds = rd.from_arrow(_tiles(_mosaic(fixture), tile))
    n = -(-MOSAIC // tile)
    if stage == "polygonize":
        out = poly.polygonize(ds, connect8=connect8, tile_size=tile)
    elif stage == "polygonize_rings":
        out = poly.polygonize_rings(ds, connect8=connect8, tile_size=tile)
    elif stage == "sieve_global":
        out = poly.sieve_global(ds, 6, connect8=connect8, tile_size=tile)
    elif stage == "nearblack":
        out = collar.nearblack(ds, threshold=10.0, nodata=255.0, nx=n, ny=n)
    else:
        out = collar.footprint(ds, nodata=0.0, tile_size=tile)
    return out.take_all()


# (stage, fixture, tile, connect8) -> sha256 of the sorted output, recorded
# on the code before the shared seam protocol (the driver and distributed
# merge paths of polygonize / polygonize_rings gave the same digest)
DIGESTS = {
    ('polygonize', 'blobs', 32, False):
        "50456cb74b21757d3628467e6c4bfef8761d2aea4b64f7d4410d9d8c94fe4fae",
    ('polygonize_rings', 'blobs', 32, False):
        "f065d5d1a55d047c951bd34153bfd952f659d9a4be3b88ba8a0eedfdc20ba498",
    ('sieve_global', 'blobs', 32, False):
        "50d6ea6b8f9ade96990f106cce452d0358befaf25a9338da0fac240245a63f5b",
    ('polygonize', 'blobs', 32, True):
        "50456cb74b21757d3628467e6c4bfef8761d2aea4b64f7d4410d9d8c94fe4fae",
    ('polygonize_rings', 'blobs', 32, True):
        "f065d5d1a55d047c951bd34153bfd952f659d9a4be3b88ba8a0eedfdc20ba498",
    ('sieve_global', 'blobs', 32, True):
        "50d6ea6b8f9ade96990f106cce452d0358befaf25a9338da0fac240245a63f5b",
    ('nearblack', 'blobs', 32, False):
        "c23aa862cd0adc7984aa69b16bdafb19c8a3406105b62eabdb0d29adbb3bfa80",
    ('footprint', 'blobs', 32, False):
        "a923378574c7c7819fc27766f04b03e72085db886a6bfff0e850ab68cc4a432c",
    ('polygonize', 'blobs', 40, False):
        "7e92cadca7fb02adaa26ba532eafbdaf0f5bceb853cc29399f1a09450869a0b9",
    ('polygonize_rings', 'blobs', 40, False):
        "be86780e50e8071a70c87f3ade9135bdfc12383ff37909095e4c37fb504d3520",
    ('sieve_global', 'blobs', 40, False):
        "4f047cf42568e5bd797064e89f6808c9b372525ca1379707779a6d60f51af74b",
    ('polygonize', 'blobs', 40, True):
        "7e92cadca7fb02adaa26ba532eafbdaf0f5bceb853cc29399f1a09450869a0b9",
    ('polygonize_rings', 'blobs', 40, True):
        "be86780e50e8071a70c87f3ade9135bdfc12383ff37909095e4c37fb504d3520",
    ('sieve_global', 'blobs', 40, True):
        "4f047cf42568e5bd797064e89f6808c9b372525ca1379707779a6d60f51af74b",
    ('nearblack', 'blobs', 40, False):
        "2a062ce30fd9cd511d8092baf3de1ae4b5003e4c060d7e55f5de5e9fc8241d37",
    ('footprint', 'blobs', 40, False):
        "a923378574c7c7819fc27766f04b03e72085db886a6bfff0e850ab68cc4a432c",
    ('polygonize', 'blobs', 96, False):
        "33d91d01bf6bae7d44e9c990a51d14ad8d5bde5aa2f543e236c3ef0a4506c16f",
    ('polygonize_rings', 'blobs', 96, False):
        "1e7d3c622af61d357c01140d33562ff32e0ae01bca379cc3b592437431f066ea",
    ('sieve_global', 'blobs', 96, False):
        "b1106237709657356529e80e581e143ed45309d0279242d63b6857c8b7e310c4",
    ('polygonize', 'blobs', 96, True):
        "33d91d01bf6bae7d44e9c990a51d14ad8d5bde5aa2f543e236c3ef0a4506c16f",
    ('polygonize_rings', 'blobs', 96, True):
        "1e7d3c622af61d357c01140d33562ff32e0ae01bca379cc3b592437431f066ea",
    ('sieve_global', 'blobs', 96, True):
        "b1106237709657356529e80e581e143ed45309d0279242d63b6857c8b7e310c4",
    ('nearblack', 'blobs', 96, False):
        "5bc60ac59f4bd634d3c5d19f938374ecfb6171300f2278e259a93c5416e7b6cf",
    ('footprint', 'blobs', 96, False):
        "3e3bd008250e67b1dd45ffa60ae8f6924e350eb45fd0a115683082ea442da5e3",
    ('polygonize', 'diag', 32, False):
        "bafd53a2d88698bced76676ec80c543ae4e5f8408394d953d987bed87004c357",
    ('polygonize_rings', 'diag', 32, False):
        "dbd489d73c6cd4fbf7c7b6cf5420255cf914ec36da8c336971e6ddd6addb0dfc",
    ('sieve_global', 'diag', 32, False):
        "bb92a359ec3ebe29ec7c3bc4f951a8bcd032b7b043dde17919c25bb7a3e5525b",
    ('polygonize', 'diag', 32, True):
        "e235662dc1a34dec3ad8615e3fa40d6d4526ee0ca6b4f6be14e9a4ef53da0e07",
    ('polygonize_rings', 'diag', 32, True):
        "82230fa9a960b5eeac4b3b6e86b924e9c5022713211f7942c1d9c39e8920c178",
    ('sieve_global', 'diag', 32, True):
        "fa7caf17179f407459411768e523f563eb42cc33632edb706e1aa5635f570beb",
    ('nearblack', 'diag', 32, False):
        "b8681d4f69ae685b337914b953af1da5a176931aa2241717843f77738092b9a5",
    ('footprint', 'diag', 32, False):
        "955b43b9cd86c36023cacec15b2c45e97ecaccdcdd569eb9b25ce471a84c3999",
    ('polygonize', 'diag', 40, False):
        "97b205addac663497da8c2f9ec134536ddc86329c0ab850eef7ecc5b64e62ea8",
    ('polygonize_rings', 'diag', 40, False):
        "400bda41ed3248abababbf7ab71c8ffa8d6f6ef27e7615361bdf68e7d8e54643",
    ('sieve_global', 'diag', 40, False):
        "a8847ca35813d3a51306b208f91869f590d6c78403ffbf13f4d52dfa4b872864",
    ('polygonize', 'diag', 40, True):
        "bd7aef95072edee1d86fcb2ca2c33d93df33f6102f0e2348addbcab20349b1b5",
    ('polygonize_rings', 'diag', 40, True):
        "409ed7923ec8260a366772245a0355867676c009703f122cf9fcf9a29ece3ac0",
    ('sieve_global', 'diag', 40, True):
        "168d618ca3ab5dd2af7d1ccf93ca7f17272facabe572fc178ab194d7f3f5e784",
    ('nearblack', 'diag', 40, False):
        "cc78085dcfa5b2d37894054b18c1f5441bf87c5021e46df2d2afdb6ad59b6666",
    ('footprint', 'diag', 40, False):
        "d2ccd28239cb1598274f31daa89ab3cf5bff25735a19449d4cbdbb0ddbe7c8ae",
    ('polygonize_rings', 'diag', 96, False):
        "2489ecf91e9e206b942b8f616c7a170ba7cbf29900d546c3dd9540614565a064",
    ('sieve_global', 'diag', 96, False):
        "5d415f9da80405e8f6f4588929c28a2a14a696ff38cdf7ab7055bb1ce53a6bc3",
    ('polygonize_rings', 'diag', 96, True):
        "b955f1a5283432b5bd616ac07e5fd47b34d7357f4e57b28664b41ecce9293671",
    ('sieve_global', 'diag', 96, True):
        "0979cc912f931a38cc055e625ad3c00c80a374579751d4042a214eba382eea36",
    ('nearblack', 'diag', 96, False):
        "ad5d8ecaa4b8c31d4b1ef0b6ab6e4a09c0d983bcad86d258cd23b787b6d6699d",
    ('polygonize', 'noise', 32, False):
        "f1554c2936a4f280f3120e6f4cba38b392bc51f7af643f54f01deab21c707dd0",
    ('polygonize_rings', 'noise', 32, False):
        "986027b3249139208743a6a5fcea713e7122bf73ed68fbba993bc12020bb7dea",
    ('sieve_global', 'noise', 32, False):
        "62506a4e9d162fc0b08a8d25e03154abd21d76a292db1739e51129c02ead2fab",
    ('polygonize', 'noise', 32, True):
        "e55476a7efe4fc715696d0863779cb2bf23ab333ea0d01ea3f7f8455ce0afc55",
    ('polygonize_rings', 'noise', 32, True):
        "075dd8725fbbe5f3806a2e60b36bd73bc028dd03edfd0849e168161060dbad76",
    ('sieve_global', 'noise', 32, True):
        "596fd4ae92fcc97811a859e32a9b018f25c03b4804dfe6fbc8c22c57968b25c0",
    ('nearblack', 'noise', 32, False):
        "52ba8bb7790992176cb0b3398956c92df2677448dff33d998af3f160eebb8692",
    ('footprint', 'noise', 32, False):
        "4c198533d9d26852269f5656f0314b8cc6da13f5011b60a8747607ce50ed6f28",
    ('polygonize', 'noise', 40, False):
        "653d84d23e3641c371d72fabb77803394ccd947c353f306a77aa64f9c2dab704",
    ('polygonize_rings', 'noise', 40, False):
        "3281d03a50de959615e235ccdc81d907fff64b38be072ed4d9a5508d79175d8d",
    ('sieve_global', 'noise', 40, False):
        "9e5ec9c98152db1f5cb4cd887c16f15caa2b27aaf9bb2c18fac5d154c7613624",
    ('polygonize', 'noise', 40, True):
        "9a48fe647e0901ac4c7b5b41423c3f2948ceb04c2e19ec9e938637549871c39a",
    ('polygonize_rings', 'noise', 40, True):
        "e2a51085d78b20e109973153d7ed0c7de469466c3a9f05829f620ace6aa1d704",
    ('sieve_global', 'noise', 40, True):
        "f4fa11587192e9634517f2ffcdae78cd2f479f54418cc04add45be08b901a083",
    ('nearblack', 'noise', 40, False):
        "77545407337ee383e77b9e19d5ea34de979c1f396b0521ac0248049d8d160b49",
    ('footprint', 'noise', 40, False):
        "ffed7d7963317857c889a564125a695b7119e7e5a01b6f3bd6ed31c1c49b52a3",
    ('polygonize', 'noise', 96, False):
        "6a875990f1ddcdfd9d3ff21d3b1beea55874c315ba187e44290a8c1c98cd16c4",
    ('polygonize_rings', 'noise', 96, False):
        "c8b29f6d61bb12fd7628025877f8526d2650fc8c42f0c16420759511ac702f30",
    ('sieve_global', 'noise', 96, False):
        "37fa6daa3979208efca63bfc708d47dfa08058110d9e3ea98db7f4f9ea4730cc",
    ('polygonize', 'noise', 96, True):
        "cf92aca9d452b2ca5df7031b6fdb8d474ebe758ff0d52218fc54fed4224edb98",
    ('polygonize_rings', 'noise', 96, True):
        "4023e48956bb2d2642b74605f4027368fb136e0793a3ded1d5f1f2549abf7e76",
    ('sieve_global', 'noise', 96, True):
        "9aa83c1687ebc37331ae0a0dd477c706ad4c4c99aee2564018dd06d8d305ee6b",
    ('nearblack', 'noise', 96, False):
        "0b88ac3fac4bf7d7480ff53b6595c9c113dcbc47a20ca418a99c18fc0b655921",
    ('footprint', 'noise', 96, False):
        "bbe8a6dbdf7816cce0960f872fb603aa1554e82df8692e6f05111e92bfad6449",
}


@pytest.mark.parametrize("merge", ["driver", "distributed"])
@pytest.mark.parametrize("case", sorted(DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_output_digest_unchanged(case, merge, monkeypatch):
    if merge == "distributed":
        monkeypatch.setattr(poly, "DRIVER_MERGE_MAX_PAIRS", -1)
    assert _digest(_run(*case)) == DIGESTS[case]


def _island_tile() -> pa.Table:
    arr = np.zeros((64, 64), np.uint8)
    arr[30:34, 30:34] = 9
    return _tiles(arr, 64)


@pytest.mark.parametrize("merge", ["driver", "distributed"])
def test_component_off_every_tile_edge(merge, monkeypatch):
    """One 64x64 tile whose only component sits inside a nodata frame: no
    seam rows at all, one 16-px component."""
    if merge == "distributed":
        monkeypatch.setattr(poly, "DRIVER_MERGE_MAX_PAIRS", -1)
    tiles = _island_tile()
    for out in (poly.polygonize(rd.from_arrow(tiles)).take_all(),
                collar.footprint(rd.from_arrow(tiles)).take_all()):
        assert [(r["n_pixels"], r["minx"], r["miny"], r["maxx"], r["maxy"],
                 r["n_fragments"]) for r in out] == [(16, 30, 30, 33, 33, 1)]
    rings = poly.polygonize_rings(rd.from_arrow(tiles)).take_all()
    assert [(r["value"], r["n_pixels"], r["n_holes"]) for r in rings] == [(9.0, 16, 0)]
    # no neighbour to merge into: the island survives a larger threshold
    sieved = poly.sieve_global(rd.from_arrow(tiles), 20).take_all()
    assert [r["data"] for r in sieved] == tiles["data"].to_pylist()


def _seams(rows) -> rd.Dataset:
    return rd.from_arrow(pa.Table.from_pylist(
        [dict(zip(poly._SEAM_COLS, r)) for r in rows],
        schema=pa.schema(poly._SEAM_FIELDS)))


@pytest.mark.parametrize("connect8", [False, True])
def test_seam_pairs_edge_and_corner(connect8):
    """Tiles (0, 0) | (1, 0) share a vertical edge; four tiles meet at the
    bottom-right corner of (0, 0).  Pairs computed by hand."""
    ev = poly._ekey(0, 0, "V")
    ec = poly._ekey(0, 0, "C")
    rows = [
        # right edge of (0, 0): owner runs [0, 3) value 5 and [3, 4) value 7
        (ev, 10, 1, 0, 3, 5.0), (ev, 11, 1, 3, 4, 7.0),
        # left edge of (1, 0): [0, 2) value 5, [2, 4) value 9, and [4, 6)
        # value 7, which touches key 11 only diagonally
        (ev, 20, 0, 0, 2, 5.0), (ev, 21, 0, 2, 4, 9.0), (ev, 22, 0, 4, 6, 7.0),
        # corner junction: NW, NE, SW, SE corner pixels
        (ec, 30, 2, 0, 1, 1.0), (ec, 31, 3, 0, 1, 2.0),
        (ec, 32, 4, 0, 1, 3.0), (ec, 33, 5, 0, 1, 1.0),
    ]
    got = sorted((r["a"], r["b"], r["same"])
                 for r in poly._seam_pairs(_seams(rows), connect8).take_all())
    expect = [(10, 20, True), (10, 21, False), (11, 21, False),
              (30, 33, True), (31, 32, False)]
    if connect8:
        expect.append((11, 22, True))
    assert got == sorted(expect)


def _pairs_loop(rows, connect8):
    """Per-pair reference: owner x neighbour runs on an edge, NW x SE and
    NE x SW at a corner junction."""
    slack = 1 if connect8 else 0
    groups: dict = {}
    for r in rows:
        groups.setdefault(r[0], []).append(r)
    out = []
    for g in groups.values():
        for _, ka, ra, a0, a1, va in g:
            for _, kb, rb, b0, b1, vb in g:
                if (ra, rb) in ((2, 5), (3, 4)) or (
                        (ra, rb) == (1, 0) and a0 < b1 + slack and a1 > b0 - slack):
                    out.append((ka, kb, va == vb))
    return sorted(out)


@pytest.mark.parametrize("connect8", [False, True])
def test_seam_pairs_match_pairwise_loop(connect8):
    """Seam rows of a randomly tiled mosaic: the vectorized pair join
    equals the per-pair loop."""
    arr = np.random.default_rng(2).integers(0, 3, (40, 40)).astype(np.uint8)
    seams = []
    for ty in range(4):
        for tx in range(4):
            sub = arr[ty * 10:(ty + 1) * 10, tx * 10:(tx + 1) * 10]
            labels, _ = poly.label_tile(sub, 0, connect8)
            seams.append(poly._seam_rows(tx, ty, labels, sub, connect8))
    cols = {c: np.concatenate([s[c] for s in seams]) for c in poly._SEAM_COLS}
    rows = list(zip(*(cols[c].tolist() for c in poly._SEAM_COLS)))
    got = sorted((r["a"], r["b"], r["same"]) for r in
                 poly._seam_pairs(rd.from_arrow(pa.table(cols)), connect8).take_all())
    want = _pairs_loop(rows, connect8)
    assert got == want and any(s for *_, s in want) and not all(s for *_, s in want)
