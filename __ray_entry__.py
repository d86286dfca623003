"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()`` / ``ray.shutdown()``.

Each ``queries()`` entry is one operator/pipeline family from SURVEY.md §2,
implemented in ``gdal_ray.pipelines.queries``; the matching ``oracle_sql()``
string recomputes the same result in DuckDB over the same parquet views.
Geometry is derived from int64 keys with exact 0.01-grid integer arithmetic so
the SQL oracles reproduce coordinates bit-for-bit (float64); aggregate outputs
use exact scaled-integer semantics (cents) so value hashes are stable under
any distributed reduction order.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# -- shared SQL fragments (mirror gdal_ray.functions.geo / sources.synthetic) --

_DOCS_GEO = """
d AS (
  SELECT doc_id,
         -180.0 + ((doc_id * 9973) % 36000) / 100.0 AS lon,
         -85.0 + ((doc_id * 7919) % 17000) / 100.0 AS lat,
         n_chars
  FROM documents
)
"""

# shared mod-256 hump checksum oracle for the uint8 codec roundtrips
_HUMP256_SQL = """
    WITH px AS (SELECT a.range AS gx, b.range AS gy
                FROM range(192) a, range(192) b)
    SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
           CAST(sum((CAST(trunc(CAST((gx-96)*(gx-96) + (gy-96)*(gy-96)
                                AS DOUBLE) / 64.0) AS BIGINT) % 256)
                    * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                AS BIGINT) AS checksum
    FROM px GROUP BY 1, 2
"""

_ZONES = """
z AS (
  SELECT printf('zone-%06d', p_partkey) AS zone_id,
         p_partkey AS zone_key,
         -180.0 + ((p_partkey * 7321) % 33000) / 100.0 AS minx,
         -85.0 + ((p_partkey * 4231) % 15000) / 100.0 AS miny,
         2.0 + ((p_partkey * 131) % 800) / 100.0 AS w,
         2.0 + ((p_partkey * 197) % 600) / 100.0 AS h
  FROM part
),
zz AS (
  SELECT zone_id, zone_key, minx, miny, minx + w AS maxx, miny + h AS maxy FROM z
)
"""


def _hex_u64(hcol: str) -> str:
    """SQL expression: uint64 (as HUGEINT) from the FIRST 8 bytes of a 32-char
    md5 hex string column, little-endian — mirrors np.frombuffer(md5.digest()
    [:8], uint64).  strpos('123456789abcdef', c) maps hex char -> value
    (0 for '0' since strpos returns 0 on no-match)."""
    terms = []
    for i in range(1, 9):
        terms.append(
            f"CAST(strpos('123456789abcdef', substr({hcol}, {2 * i - 1}, 1)) AS HUGEINT)"
            f" * {1 << (8 * (i - 1) + 4)}"
        )
        terms.append(
            f"strpos('123456789abcdef', substr({hcol}, {2 * i}, 1))"
            f" * {1 << (8 * (i - 1))}"
        )
    return "(" + " + ".join(terms) + ")"


def _hex_be32(hcol: str, off: int) -> str:
    """SQL expression: big-endian uint32 from 8 hex chars of ``hcol``
    starting at 0-based char offset ``off`` — mirrors
    int(md5hex[off:off+8], 16)."""
    terms = [
        f"CAST(strpos('123456789abcdef', substr({hcol}, {off + i + 1}, 1)) AS BIGINT)"
        f" * {16 ** (7 - i)}"
        for i in range(8)
    ]
    return "(" + " + ".join(terms) + ")"


_U64_TO_I64 = (
    "CAST(CASE WHEN {v} >= 9223372036854775808 THEN {v} - 18446744073709551616 "
    "ELSE {v} END AS BIGINT)"
)

_M61 = (1 << 61) - 1


def _shingle_cte(shingle_k: int, source: str = "documents") -> str:
    """CTEs w/g/hx/xs: word shingles of each doc -> md5 hex -> uint64 hash.
    Mirrors textops._shingle_hashes (k-word grams; <k words -> one gram of all
    words; no words -> the empty gram)."""
    return f"""
w AS (SELECT doc_id, regexp_extract_all(text, '[^ ]+') AS ws FROM {source}),
g AS (SELECT doc_id,
        CASE WHEN len(ws) >= {shingle_k} THEN array_to_string(ws[i.i:i.i+{shingle_k - 1}], ' ')
             WHEN len(ws) > 0 THEN array_to_string(ws, ' ')
             ELSE '' END AS gram
      FROM w, LATERAL (SELECT unnest(generate_series(1, greatest(len(ws)-{shingle_k - 1}, 1))) AS i) i),
hx AS (SELECT doc_id, md5(gram) AS h FROM g),
xs AS (SELECT doc_id, {_hex_u64('h')} AS x FROM hx)
"""


def _minhash_ctes(num_perm: int, bands: int) -> str:
    """CTEs params/mh/bk/bh: minhash signatures + band hashes, with the
    engine's seeded universal-hash and band-fold constants inlined as
    literals (same spec, independent SQL recomputation from the text)."""
    from gdal_ray.stages import textops

    a, b = textops._minhash_params(num_perm)
    r = num_perm // bands
    params = ", ".join(f"({p}, {int(a[p])}, {int(b[p])})" for p in range(num_perm))
    bk = ", ".join(
        f"({i}, {int(textops._BAND_K[i])}, {int(textops._BAND_L[i])})" for i in range(r)
    )
    return f"""
params(p, a, b) AS (VALUES {params}),
mh AS (SELECT doc_id, p,
              CAST(min((CAST(a AS HUGEINT) * (x % 4294967296) + b) % {_M61})
                   AS BIGINT) AS sig
       FROM xs, params GROUP BY doc_id, p),
bk(i, kk, ll) AS (VALUES {bk}),
bh AS (SELECT doc_id, p // {r} AS band_id,
              CAST(sum((kk * CAST(sig % 4294967296 AS HUGEINT)) % {_M61}
                     + (ll * CAST(sig // 4294967296 AS HUGEINT)) % {_M61}) % {_M61} AS BIGINT)
                AS band_hash
       FROM mh JOIN bk ON bk.i = mh.p % {r}
       GROUP BY doc_id, band_id),
cand AS (SELECT DISTINCT a1.doc_id AS id_a, b1.doc_id AS id_b
         FROM bh a1 JOIN bh b1 ON a1.band_id = b1.band_id
                               AND a1.band_hash = b1.band_hash
                               AND a1.doc_id < b1.doc_id)
"""


# ---------------------------------------------------------------------------
# Raster-fixture oracle SQL (mirrors gdal_ray.sources.synthetic closed forms)
# ---------------------------------------------------------------------------


def _blobs_cte(nx: int, ny: int, size: int = 64) -> str:
    """px/pv CTEs: the 'blobs' fixture pixel table (gx, gy, v) — six
    deterministic discs painted in order b=0..5 (later overwrites), so
    v = max matching b + 1, else 0 (synthetic.make_raster_tiles)."""
    W, H = nx * size, ny * size
    discs = ", ".join(
        f"({b}, {(b * 157) % W}, {(b * 211) % H}, {10 + (b * 7) % 20})" for b in range(6)
    )
    return f"""
px AS (SELECT a.range AS gx, b.range AS gy FROM range({W}) a, range({H}) b),
discs(b, cx, cy, r) AS (VALUES {discs}),
pv AS (SELECT gx, gy,
         COALESCE(max(CASE WHEN (gx-cx)*(gx-cx) + (gy-cy)*(gy-cy) <= r*r
                           THEN b END) + 1, 0) AS v
       FROM px CROSS JOIN discs GROUP BY gx, gy)
"""


def _tile_checksum_sql(val_expr: str, tile: int, src: str,
                       xcol: str = "gx", ycol: str = "gy") -> str:
    """Per-tile checksum SELECT: sum(int(v) * ((local_idx % 7) + 1)) % 65536
    with LOCAL row-major pixel index (functions/checksum.tile_checksum)."""
    return f"""
SELECT CAST({xcol} // {tile} AS INTEGER) AS x, CAST({ycol} // {tile} AS INTEGER) AS y,
       CAST(sum(CAST({val_expr} AS BIGINT)
                * ((({ycol} % {tile}) * {tile} + {xcol} % {tile}) % 7 + 1)) % 65536
            AS BIGINT) AS checksum
FROM {src} GROUP BY 1, 2
"""


def _warp_blend_sql() -> str:
    """Feather-blend mosaic (rastermap.mosaic_blend): two footprint sources,
    integer edge-distance densities clamped at 16, half-up weighted mean."""
    from gdal_ray.pipelines.queries import WARP_BLEND_RECT_A, WARP_BLEND_RECT_B

    def val(rect, a, b, mod):
        x0, y0, x1, y1 = rect
        return (f"CASE WHEN gx >= {x0} AND gx < {x1} AND gy >= {y0} AND gy < {y1} "
                f"THEN ({a} * gx + {b} * gy) % {mod} + 1 ELSE 0 END")

    def dens(rect, vcol):
        x0, y0, x1, y1 = rect
        return (f"CASE WHEN {vcol} = 0 THEN 0 ELSE "
                f"LEAST(gx - {x0} + 1, {x1} - gx, gy - {y0} + 1, {y1} - gy, 16) END")

    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy
                    FROM range(192) a, range(192) b),
        v AS (SELECT gx, gy,
                     {val(WARP_BLEND_RECT_A, 1, 2, 251)} AS va,
                     {val(WARP_BLEND_RECT_B, 3, 1, 241)} AS vb
              FROM px),
        d AS (SELECT gx, gy, va, vb,
                     {dens(WARP_BLEND_RECT_A, 'va')} AS da,
                     {dens(WARP_BLEND_RECT_B, 'vb')} AS db
              FROM v),
        o AS (SELECT gx, gy,
                     CASE WHEN da + db > 0
                          THEN (2 * (da * va + db * vb) + (da + db)) // (2 * (da + db))
                          ELSE 0 END AS v
              FROM d)
        {_tile_checksum_sql("v", 64, "o")}
    """


def _mosaic_sql() -> str:
    """rects composed over checker, last non-nodata wins (rastermap.mosaic):
    v = rect value where a rect covers the pixel, else the checker value;
    per-tile local checksums."""
    from gdal_ray.sources.synthetic import RECTS

    rect_case = "CASE " + " ".join(
        f"WHEN gx >= {x0} AND gx < {x1} AND gy >= {y0} AND gy < {y1} THEN {r + 1}"
        for r, (x0, y0, x1, y1) in enumerate(RECTS)
    ) + " ELSE 0 END"
    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy
                    FROM range(192) a, range(192) b),
        v AS (SELECT gx, gy,
                CASE WHEN ({rect_case}) != 0 THEN ({rect_case})
                     ELSE ((gx // 8 + gy // 8) % 2) * 255 END AS v
              FROM px)
        {_tile_checksum_sql("v", 64, "v")}
    """


def _neighbors_sql() -> str:
    """gdal raster neighbors over the 3x3 blobs mosaic: weighted kernel sums
    (edge2/gaussian) + order statistics min/max/median/mode + the stddev
    variance numerator 9*sum(v^2)-sum(v)^2, all integer-exact; per-tile
    sum/min/max of the focal output mirror stages/focal.neighbors.  Blob
    value: LAST disc assignment wins = highest b inside (loop order in
    sources/synthetic.make_raster_tiles), so GREATEST over the 6 disc cases."""
    W = H = 192
    discs = [((b * 157) % W, (b * 211) % H, 10 + (b * 7) % 20) for b in range(6)]

    def val(dx: int, dy: int) -> str:
        cx = f"LEAST(GREATEST(gx+{dx},0),{W - 1})" if dx else "gx"
        cy = f"LEAST(GREATEST(gy+{dy},0),{H - 1})" if dy else "gy"
        terms = ", ".join(
            f"CASE WHEN ({cx}-{cxb})*({cx}-{cxb}) + ({cy}-{cyb})*({cy}-{cyb})"
            f" <= {r * r} THEN {b + 1} ELSE 0 END"
            for b, (cxb, cyb, r) in enumerate(discs)
        )
        return f"GREATEST({terms})"

    # row-major (dy, dx) matches stages/focal._neighbors_apply stack order
    n9 = [val(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    edge2_coef = [-1, -1, -1, -1, 8, -1, -1, -1, -1]
    gauss_coef = [1, 2, 1, 2, 4, 2, 1, 2, 1]
    edge2 = " + ".join(f"({c})*({v})" for c, v in zip(edge2_coef, n9))
    gauss = " + ".join(f"({c})*({v})" for c, v in zip(gauss_coef, n9))
    nv_list = ", ".join(n9)
    finals = []
    for mode, o in [
        ("sum_edge2", "o_edge2"), ("sum_gaussian", "o_gauss"),
        ("min_equal", "o_min"), ("max_equal", "o_max"),
        ("median_equal", "o_med"), ("mode_equal", "o_mode"),
        ("stddev_equal", "o_var"),
    ]:
        finals.append(f"""
            SELECT '{mode}' AS mode,
                   CAST(gx // 64 AS INT) AS x, CAST(gy // 64 AS INT) AS y,
                   CAST(sum({o}) AS BIGINT) AS vsum,
                   CAST(min({o}) AS BIGINT) AS vmin,
                   CAST(max({o}) AS BIGINT) AS vmax
            FROM allpx GROUP BY 2, 3""")
    union = "\n            UNION ALL".join(finals)
    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy
                    FROM range({W}) a, range({H}) b),
        nb AS (SELECT gx, gy, unnest([{nv_list}]) AS nv FROM px),
        sums AS (SELECT gx, gy, {edge2} AS o_edge2, {gauss} AS o_gauss FROM px),
        st AS (SELECT gx, gy, min(nv) AS o_min, max(nv) AS o_max,
                      quantile_disc(nv, 0.5) AS o_med,
                      9 * sum(nv * nv) - sum(nv) * sum(nv) AS o_var
               FROM nb GROUP BY 1, 2),
        mc AS (SELECT gx, gy, nv, count(*) AS c FROM nb GROUP BY 1, 2, 3),
        mr AS (SELECT gx, gy, nv,
                      row_number() OVER (PARTITION BY gx, gy
                                         ORDER BY c DESC, nv ASC) AS rn
               FROM mc),
        md AS (SELECT gx, gy, nv AS o_mode FROM mr WHERE rn = 1),
        allpx AS (SELECT s.gx, s.gy, o_edge2, o_gauss, o_min, o_max, o_med,
                         o_var, o_mode
                  FROM sums s JOIN st USING (gx, gy) JOIN md USING (gx, gy))
        {union}
    """


def _dither_sql() -> str:
    """Ordered Bayer dithering of the ramp mosaic: adj = 64*(gx+gy) +
    (2*B(gx%8,gy%8) - 63)*24, nearest 7-level palette with ties to the
    smallest index (mirrors stages/fillpalette.dither_ordered exactly)."""
    from gdal_ray.pipelines.queries import DITHER_PALETTE
    from gdal_ray.stages.fillpalette import BAYER8

    bayer = ", ".join(str(int(v)) for v in BAYER8.ravel())  # row-major (y, x)
    pal = ", ".join(f"({i}, {p})" for i, p in enumerate(DITHER_PALETTE))
    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy
                    FROM range(192) a, range(192) b),
        adj AS (SELECT gx, gy,
                  64 * (gx + gy)
                  + (2 * ([{bayer}])[(gy % 8) * 8 + (gx % 8) + 1] - 63) * 24
                  AS v
                FROM px),
        pal(idx, p) AS (VALUES {pal}),
        d AS (SELECT gx, gy, idx, abs(v - 64 * p) AS dist FROM adj, pal),
        r AS (SELECT gx, gy, idx,
                row_number() OVER (PARTITION BY gx, gy
                                   ORDER BY dist ASC, idx ASC) AS rn
              FROM d)
        SELECT CAST(gx // 64 AS INT) AS x, CAST(gy // 64 AS INT) AS y,
               CAST(idx AS BIGINT) AS idx, CAST(count(*) AS BIGINT) AS n
        FROM r WHERE rn = 1
        GROUP BY 1, 2, 3
    """


def _line_substring_sql() -> str:
    """ST_LineSubstring mirror over the rect rings: both endpoints via the
    line_interpolate CASE walk (strict < boundaries) at dd = 0.2 and 0.55 of
    the perimeter, plus the count of ring corners strictly inside the
    measure range."""

    def walk_x(dd: str) -> str:
        return f"""CASE
            WHEN {dd} < wl THEN minx + (({dd} - 0.0) / wl) * (maxx - minx)
            WHEN {dd} < wl + hl THEN maxx + (({dd} - wl) / hl) * (maxx - maxx)
            WHEN {dd} < wl + hl + wl
                 THEN maxx + (({dd} - (wl + hl)) / wl) * (minx - maxx)
            ELSE minx + (({dd} - (wl + hl + wl)) / hl) * (minx - minx)
        END"""

    def walk_y(dd: str) -> str:
        return f"""CASE
            WHEN {dd} < wl THEN miny + (({dd} - 0.0) / wl) * (miny - miny)
            WHEN {dd} < wl + hl THEN miny + (({dd} - wl) / hl) * (maxy - miny)
            WHEN {dd} < wl + hl + wl
                 THEN maxy + (({dd} - (wl + hl)) / wl) * (maxy - maxy)
            ELSE maxy + (({dd} - (wl + hl + wl)) / hl) * (miny - maxy)
        END"""

    q = "CAST(floor(({e}) * 10000000.0 + 0.5) AS BIGINT)"
    return f"""
        WITH {{zones}},
        m AS (SELECT zone_key, minx, miny, maxx, maxy,
                     maxx - minx AS wl, maxy - miny AS hl,
                     0.2 * (((maxx - minx) + (maxy - miny))
                            + (maxx - minx) + (maxy - miny)) AS d0,
                     0.55 * (((maxx - minx) + (maxy - miny))
                             + (maxx - minx) + (maxy - miny)) AS d1
              FROM zz)
        SELECT zone_key,
               CAST(2 + (CASE WHEN wl > d0 AND wl < d1 THEN 1 ELSE 0 END)
                      + (CASE WHEN wl + hl > d0 AND wl + hl < d1
                              THEN 1 ELSE 0 END)
                      + (CASE WHEN (wl + hl) + wl > d0 AND (wl + hl) + wl < d1
                              THEN 1 ELSE 0 END) AS BIGINT) AS n_vertices,
               {q.format(e=walk_x("d0"))} AS p0x_e7,
               {q.format(e=walk_y("d0"))} AS p0y_e7,
               {q.format(e=walk_x("d1"))} AS p1x_e7,
               {q.format(e=walk_y("d1"))} AS p1y_e7
        FROM m
    """


def _hillshade_sql() -> str:
    """gdaldem hillshade over the 3x3 ramp mosaic: Horn 3x3 gradients with
    edge replication (== coordinate clamping on the closed-form ramp),
    res=1, z_factor=1, azimuth=315, altitude=45 (stages/focal.py)."""
    W = H = 192

    def val(dx: int, dy: int) -> str:
        cx = f"LEAST(GREATEST(gx+{dx},0),{W - 1})" if dx else "gx"
        cy = f"LEAST(GREATEST(gy+{dy},0),{H - 1})" if dy else "gy"
        return f"CAST({cx} + {cy} AS DOUBLE)"

    a, b, c = val(-1, -1), val(0, -1), val(1, -1)
    d, f = val(-1, 0), val(1, 0)
    g, h, i = val(-1, 1), val(0, 1), val(1, 1)
    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy FROM range({W}) a, range({H}) b),
        gr AS (SELECT gx, gy,
                 (({c} + 2*{f} + {i}) - ({a} + 2*{d} + {g})) / 8.0 AS dzdx,
                 (({g} + 2*{h} + {i}) - ({a} + 2*{b} + {c})) / 8.0 AS dzdy
               FROM px),
        sh AS (SELECT gx, gy,
                 LEAST(GREATEST(
                   (sin(radians(45.0)) * cos(atan(sqrt(dzdx*dzdx + dzdy*dzdy)))
                  + cos(radians(45.0)) * sin(atan(sqrt(dzdx*dzdx + dzdy*dzdy)))
                    * cos(radians(360.0 - 315.0 + 90.0) - atan2(dzdy, -dzdx))) * 254.0 + 1.0,
                   1.0), 255.0) AS v
               FROM gr)
        {_tile_checksum_sql("trunc(v)", 64, "sh")}
    """


def _hillshade_variants_sql() -> str:
    """gdaldem shading variants over the 3x3 hump paraboloid mosaic:
    ZevenbergenThorne slope/aspect/hillshade plus combined, multidirectional
    (USGS OF 92-422) and igor shading — exact double-arithmetic mirror of
    stages/focal._apply_alg / _apply_shading_variant (term order and
    parenthesization matched)."""
    W = H = 192

    def val(dx: int, dy: int) -> str:
        cx = f"LEAST(GREATEST(gx+{dx},0),{W - 1})" if dx else "gx"
        cy = f"LEAST(GREATEST(gy+{dy},0),{H - 1})" if dy else "gy"
        return (f"CAST((({cx})-96)*(({cx})-96) + (({cy})-96)*(({cy})-96) AS DOUBLE)"
                f" / 64.0")

    a, b, c = val(-1, -1), val(0, -1), val(1, -1)
    d, f = val(-1, 0), val(1, 0)
    g, h, i = val(-1, 1), val(0, 1), val(1, 1)
    horn_dx = f"((({c}) + 2*({f}) + ({i})) - (({a}) + 2*({d}) + ({g}))) / 8.0"
    horn_dy = f"((({g}) + 2*({h}) + ({i})) - (({a}) + 2*({b}) + ({c}))) / 8.0"
    zt_dx = f"(({f}) - ({d})) / 2.0"
    zt_dy = f"(({h}) - ({b})) / 2.0"
    # alt=45 az=315 z=1 res=1; az_math = radians(360-315+90) = radians(135)
    s_alt = "sin(radians(45.0))"
    c_alt = "cos(radians(45.0))"
    c0 = val(0, 0)
    # neighbor diffs are exact dyadic rationals on the hump fixture, so the
    # 8-term sum is EXACT under any association — no ordering hazard
    riley = " + ".join(f"(({n}) - ({c0})) * (({n}) - ({c0}))"
                       for n in (a, b, c, d, f, g, h, i))
    modes = {
        "slope_zt": "degrees(atan(sqrt(zx*zx + zy*zy)))",
        "aspect_zt": """CASE WHEN degrees(atan2(zy, -zx)) < 0
                             THEN 90.0 - degrees(atan2(zy, -zx))
                             WHEN degrees(atan2(zy, -zx)) > 90.0
                             THEN 360.0 - degrees(atan2(zy, -zx)) + 90.0
                             ELSE 90.0 - degrees(atan2(zy, -zx)) END""",
        "hillshade_zt": f"""LEAST(GREATEST(
            ({s_alt} * cos(atan(sqrt(zx*zx + zy*zy)))
           + {c_alt} * sin(atan(sqrt(zx*zx + zy*zy)))
             * cos(radians(360.0 - 315.0 + 90.0) - atan2(zy, -zx))) * 254.0 + 1.0,
            1.0), 255.0)""",
        # combined: cang = 1 - acos(shade_norm) * atan(sqrt(m2)) * 4/pi^2
        "combined": f"""CASE WHEN
            1.0 - acos(LEAST(GREATEST(
                ({s_alt} + {c_alt} * sqrt(hx*hx + hy*hy)
                 * cos(radians(360.0 - 315.0 + 90.0) - atan2(hy, -hx)))
                * (1.0/sqrt(1.0 + (hx*hx + hy*hy))), -1.0), 1.0))
              * atan(sqrt(hx*hx + hy*hy)) * (4.0/(pi()*pi())) <= 0.0
            THEN 1.0 ELSE
            1.0 + 254.0 * (1.0 - acos(LEAST(GREATEST(
                ({s_alt} + {c_alt} * sqrt(hx*hx + hy*hy)
                 * cos(radians(360.0 - 315.0 + 90.0) - atan2(hy, -hx)))
                * (1.0/sqrt(1.0 + (hx*hx + hy*hy))), -1.0), 1.0))
              * atan(sqrt(hx*hx + hy*hy)) * (4.0/(pi()*pi()))) END""",
        # multidirectional: x = -hx ... expressed via xg/yg columns below
        "multidirectional": f"""1.0 + 254.0 * (CASE WHEN xg*xg + yg*yg = 0.0
            THEN {s_alt} ELSE
            0.5 * ((0.5*(xg*xg + yg*yg) - xg*yg) * GREATEST({s_alt} + {c_alt}*(xg - yg)*cos(radians(225.0)), 0.0)
                 + (xg*xg) * GREATEST({s_alt} - {c_alt}*xg, 0.0)
                 + (0.5*(xg*xg + yg*yg) + xg*yg) * GREATEST({s_alt} + {c_alt}*(xg + yg)*cos(radians(225.0)), 0.0)
                 + (yg*yg) * GREATEST({s_alt} - {c_alt}*yg, 0.0))
            / (xg*xg + yg*yg) * (1.0/sqrt(1.0 + (xg*xg + yg*yg))) END)""",
        "tri_riley": f"sqrt({riley})",
        "igor": """255.0 * (1.0 - (degrees(atan(sqrt(hx*hx + hy*hy))) / 90.0)
            * (1.0 - (CASE WHEN abs(
                  (CASE WHEN atan2(hy, -hx) < 0.0 THEN atan2(hy, -hx) + 2.0*pi() ELSE atan2(hy, -hx) END)
                - (CASE WHEN 1.5*pi() - radians(315.0) < 0.0 THEN 1.5*pi() - radians(315.0) + 2.0*pi() ELSE 1.5*pi() - radians(315.0) END)
               ) > pi() THEN 2.0*pi() - abs(
                  (CASE WHEN atan2(hy, -hx) < 0.0 THEN atan2(hy, -hx) + 2.0*pi() ELSE atan2(hy, -hx) END)
                - (CASE WHEN 1.5*pi() - radians(315.0) < 0.0 THEN 1.5*pi() - radians(315.0) + 2.0*pi() ELSE 1.5*pi() - radians(315.0) END))
               ELSE abs(
                  (CASE WHEN atan2(hy, -hx) < 0.0 THEN atan2(hy, -hx) + 2.0*pi() ELSE atan2(hy, -hx) END)
                - (CASE WHEN 1.5*pi() - radians(315.0) < 0.0 THEN 1.5*pi() - radians(315.0) + 2.0*pi() ELSE 1.5*pi() - radians(315.0) END))
               END) / pi()))""",
    }
    arms = "\n UNION ALL\n".join(
        f"SELECT '{m}' AS mode, gx, gy, ({e}) AS v FROM gr" for m, e in modes.items()
    )
    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy FROM range({W}) a, range({H}) b),
        gr AS (SELECT gx, gy,
                 {horn_dx} AS hx, {horn_dy} AS hy,
                 {zt_dx} AS zx, {zt_dy} AS zy,
                 -({horn_dx}) AS xg, -({horn_dy}) AS yg
               FROM px),
        vv AS ({arms})
        SELECT mode, CAST(gx // 64 AS INTEGER) AS x, CAST(gy // 64 AS INTEGER) AS y,
               CAST(sum(CAST(trunc(v) AS BIGINT)
                        * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                    AS BIGINT) AS checksum
        FROM vv GROUP BY 1, 2, 3
    """


def _dem_derivatives_sql() -> str:
    """Plain Wilson TRI / TPI / roughness over the hump mosaic
    (stages/focal._apply_alg windowed stats; hump diffs are dyadic-exact so
    every sum is association-free).  TPI is signed, so the checksum mirror
    uses the sign-safe double mod ((s % m) + m) % m matching numpy's
    non-negative %."""
    W = H = 192

    def val(dx: int, dy: int) -> str:
        cx = f"LEAST(GREATEST(gx+{dx},0),{W - 1})" if dx else "gx"
        cy = f"LEAST(GREATEST(gy+{dy},0),{H - 1})" if dy else "gy"
        return (f"CAST((({cx})-96)*(({cx})-96) + (({cy})-96)*(({cy})-96) AS DOUBLE)"
                f" / 64.0")

    n9 = [val(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    c0 = n9[4]
    tri = "(" + " + ".join(f"abs(({n}) - ({c0}))" for n in n9) + ") / 8.0"
    s9 = "(" + " + ".join(f"({n})" for n in n9) + ")"
    tpi = f"({c0}) - ({s9} - ({c0})) / 8.0"
    rough = ("GREATEST(" + ", ".join(f"({n})" for n in n9) + ")"
             " - LEAST(" + ", ".join(f"({n})" for n in n9) + ")")
    a, b, c = n9[0], n9[1], n9[2]
    d, f = n9[3], n9[5]
    g, h, i = n9[6], n9[7], n9[8]
    horn_dx = f"((({c}) + 2*({f}) + ({i})) - (({a}) + 2*({d}) + ({g}))) / 8.0"
    horn_dy = f"((({g}) + 2*({h}) + ({i})) - (({a}) + 2*({b}) + ({c}))) / 8.0"
    zt_dx = f"(({f}) - ({d})) / 2.0"
    zt_dy = f"(({h}) - ({b})) / 2.0"
    slope_pct = (f"100.0 * sqrt(({horn_dx}) * ({horn_dx})"
                 f" + ({horn_dy}) * ({horn_dy}))")
    slope_pct_zt = (f"100.0 * sqrt(({zt_dx}) * ({zt_dx})"
                    f" + ({zt_dy}) * ({zt_dy}))")
    arms = "\n UNION ALL\n".join(
        f"SELECT '{m}' AS mode, gx, gy, ({e}) AS v FROM px"
        for m, e in (("tri", tri), ("tpi", tpi), ("roughness", rough),
                     ("slope_pct", slope_pct), ("slope_pct_zt", slope_pct_zt))
    )
    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy
                    FROM range({W}) a, range({H}) b),
        vv AS ({arms})
        SELECT mode, CAST(gx // 64 AS INTEGER) AS x,
               CAST(gy // 64 AS INTEGER) AS y,
               CAST(((sum(CAST(trunc(v) AS BIGINT)
                          * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536)
                     + 65536) % 65536 AS BIGINT) AS checksum
        FROM vv GROUP BY 1, 2, 3
    """


def _proximity_sql() -> str:
    """Exact EDT over the 3x3 blobs mosaic: min squared distance to any
    non-zero pixel, distance x100 rounded (stages/proximity.py)."""
    return f"""
        WITH {_blobs_cte(3, 3)},
        tg AS (SELECT gx, gy FROM pv WHERE v > 0),
        dmin AS (SELECT p.gx, p.gy,
                        min((p.gx-t.gx)*(p.gx-t.gx) + (p.gy-t.gy)*(p.gy-t.gy)) AS d2
                 FROM px p CROSS JOIN tg t GROUP BY p.gx, p.gy)
        {_tile_checksum_sql("round(100.0 * sqrt(CAST(d2 AS DOUBLE)))", 64, "dmin")}
    """


def _fill_nodata_sql() -> str:
    """IDW fill of the checker fixture's nodata (0) pixels from valid pixels
    within Chebyshev distance 8 (stages/fillpalette.fill_nodata); mosaic
    borders hold nodata (no wraparound)."""
    W = H = 192
    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy FROM range({W}) a, range({H}) b),
        pv AS (SELECT gx, gy, ((gx // 8 + gy // 8) % 2) * 255 AS v FROM px),
        offs AS (SELECT a.range AS dx, b.range AS dy
                 FROM range(-8, 9) a, range(-8, 9) b
                 WHERE NOT (a.range = 0 AND b.range = 0)),
        -- materialize the shifted keys so DuckDB hash-joins (the previous
        -- join on computed expressions fell back to a nested loop: 427s vs
        -- 0.6s for the identical result)
        cand AS (SELECT h.gx, h.gy, h.gx + o.dx AS nx, h.gy + o.dy AS ny,
                        o.dx, o.dy
                 FROM (SELECT gx, gy FROM pv WHERE v = 0) h CROSS JOIN offs o),
        fills AS (SELECT c.gx, c.gy,
                         sum(255.0 * (1.0 / CAST(dx*dx + dy*dy AS DOUBLE)))
                       / sum(1.0 / CAST(dx*dx + dy*dy AS DOUBLE)) AS f
                  FROM cand c
                  JOIN (SELECT gx, gy FROM pv WHERE v = 255) nb
                    ON nb.gx = c.nx AND nb.gy = c.ny
                  GROUP BY c.gx, c.gy),
        outv AS (SELECT p.gx, p.gy,
                        CASE WHEN p.v = 255 THEN 25500.0
                             ELSE COALESCE(round(100.0 * f.f), 0.0) END AS v100
                 FROM pv p LEFT JOIN fills f ON f.gx = p.gx AND f.gy = p.gy)
        {_tile_checksum_sql("v100", 64, "outv")}
    """


def _nearblack_sql() -> str:
    """nearblack: near-black (v <= 0.5) pixels 4-connected to the mosaic edge
    become nodata 254; interior dark blobs survive (stages/collar.nearblack).
    The flood is a recursive CTE BFS from the edge rows/columns."""
    return f"""
        WITH RECURSIVE {_blobs_cte(3, 3)},
        bg AS (SELECT gx, gy FROM pv WHERE v = 0),
        nb(dx, dy) AS (VALUES (1, 0), (-1, 0), (0, 1), (0, -1)),
        flood(gx, gy) AS (
            SELECT gx, gy FROM bg WHERE gx = 0 OR gx = 191 OR gy = 0 OR gy = 191
            UNION
            SELECT b.gx, b.gy
            FROM flood f JOIN nb ON true
            JOIN bg b ON b.gx = f.gx + nb.dx AND b.gy = f.gy + nb.dy
        ),
        clean AS (SELECT p.gx, p.gy,
                         CASE WHEN p.v = 0 AND fl.gx IS NOT NULL THEN 254 ELSE p.v END AS v
                  FROM pv p LEFT JOIN flood fl ON fl.gx = p.gx AND fl.gy = p.gy)
        {_tile_checksum_sql("v", 64, "clean")}
    """


def _viewshed_sql() -> str:
    """R3 line-of-sight viewshed on the integer DEM (observer (32,32),
    height 2): mirrors stages/viewshed.viewshed_array step arithmetic
    (bilinear ray samples, slope tolerance 1e-12, endpoint guard 1e-9)."""
    dem = "CAST((({x}*73 + {y}*151) % 37) + (({x}*{y}) % 11) * 3 AS DOUBLE)"
    d00 = dem.format(x="x0", y="y0")
    d01 = dem.format(x="(x0+1)", y="y0")
    d10 = dem.format(x="x0", y="(y0+1)")
    d11 = dem.format(x="(x0+1)", y="(y0+1)")
    return f"""
        WITH g AS (SELECT a.range AS x, b.range AS y FROM range(64) a, range(64) b),
        t AS (SELECT x, y, {dem.format(x='x', y='y')} AS z,
                     sqrt(CAST((x-32)*(x-32) + (y-32)*(y-32) AS DOUBLE)) AS dist
              FROM g),
        obs AS (SELECT z + 2.0 AS oz FROM t WHERE x = 32 AND y = 32),
        nn AS (SELECT CAST(ceil(max(dist)) AS BIGINT) + 1 AS n FROM t),
        samp AS (SELECT t.x, t.y, t.z, t.dist, obs.oz,
                        CAST(s.s AS DOUBLE) / CAST(nn.n AS DOUBLE) AS tt
                 FROM t, obs, nn,
                      LATERAL (SELECT unnest(generate_series(1, nn.n - 1)) AS s) s),
        ev AS (SELECT x, y, z, dist, oz, tt,
                      LEAST(GREATEST(CAST(floor(32 + tt*(x-32)) AS BIGINT), 0), 62) AS x0,
                      LEAST(GREATEST(CAST(floor(32 + tt*(y-32)) AS BIGINT), 0), 62) AS y0,
                      32 + tt*(x-32) AS sx, 32 + tt*(y-32) AS sy
               FROM samp),
        ev2 AS (SELECT x, y, z, dist, oz, tt, x0, y0,
                       LEAST(GREATEST(sx - x0, 0.0), 1.0) AS fx,
                       LEAST(GREATEST(sy - y0, 0.0), 1.0) AS fy
                FROM ev),
        blocked AS (
            SELECT DISTINCT x, y FROM ev2
            WHERE (({d00} * (1-fx) * (1-fy) + {d01} * fx * (1-fy)
                  + {d10} * (1-fx) * fy + {d11} * fx * fy) - oz) / (tt*dist + 1e-300)
                  > (z - oz) / (CASE WHEN dist = 0 THEN 1.0 ELSE dist END) + 1e-12
              AND tt*dist < dist - 1e-9)
        SELECT CAST(0 AS INTEGER) AS x, CAST(0 AS INTEGER) AS y,
               CAST(4096 - (SELECT count(*) FROM blocked) AS BIGINT) AS n_visible
    """


def _viewshed_cumulative_sql() -> str:
    """Cumulative-viewshed mirror: the _viewshed_sql R3 arithmetic replayed
    per observer of the 4x4 spacing-16 grid; per-cell heat = observers
    minus blocked pairs, summed per 16x16 block."""
    dem = "CAST((({x}*73 + {y}*151) % 37) + (({x}*{y}) % 11) * 3 AS DOUBLE)"
    d00 = dem.format(x="x0", y="y0")
    d01 = dem.format(x="(x0+1)", y="y0")
    d10 = dem.format(x="x0", y="(y0+1)")
    d11 = dem.format(x="(x0+1)", y="(y0+1)")
    return f"""
        WITH g AS (SELECT a.range AS x, b.range AS y FROM range(64) a, range(64) b),
        o AS (SELECT 16*a.range AS ox, 16*b.range AS oy FROM range(4) a, range(4) b),
        p AS (SELECT g.x, g.y, {dem.format(x='g.x', y='g.y')} AS z, o.ox, o.oy,
                     sqrt(CAST((g.x-o.ox)*(g.x-o.ox) + (g.y-o.oy)*(g.y-o.oy)
                          AS DOUBLE)) AS dist,
                     {dem.format(x='o.ox', y='o.oy')} + 2.0 AS oz
              FROM g, o),
        nn AS (SELECT ox, oy, CAST(ceil(max(dist)) AS BIGINT) + 1 AS n
               FROM p GROUP BY ox, oy),
        samp AS (SELECT p.x, p.y, p.z, p.ox, p.oy, p.dist, p.oz,
                        CAST(s.s AS DOUBLE) / CAST(nn.n AS DOUBLE) AS tt
                 FROM p JOIN nn USING (ox, oy),
                      LATERAL (SELECT unnest(generate_series(1, nn.n - 1)) AS s) s),
        ev AS (SELECT x, y, z, ox, oy, dist, oz, tt,
                      LEAST(GREATEST(CAST(floor(ox + tt*(x-ox)) AS BIGINT), 0), 62) AS x0,
                      LEAST(GREATEST(CAST(floor(oy + tt*(y-oy)) AS BIGINT), 0), 62) AS y0,
                      ox + tt*(x-ox) AS sx, oy + tt*(y-oy) AS sy
               FROM samp),
        ev2 AS (SELECT x, y, z, ox, oy, dist, oz, tt, x0, y0,
                       LEAST(GREATEST(sx - x0, 0.0), 1.0) AS fx,
                       LEAST(GREATEST(sy - y0, 0.0), 1.0) AS fy
                FROM ev),
        blocked AS (
            SELECT DISTINCT x, y, ox, oy FROM ev2
            WHERE (({d00} * (1-fx) * (1-fy) + {d01} * fx * (1-fy)
                  + {d10} * (1-fx) * fy + {d11} * fx * fy) - oz) / (tt*dist + 1e-300)
                  > (z - oz) / (CASE WHEN dist = 0 THEN 1.0 ELSE dist END) + 1e-12
              AND tt*dist < dist - 1e-9),
        bc AS (SELECT x, y, CAST(count(*) AS BIGINT) AS c
               FROM blocked GROUP BY x, y)
        SELECT CAST(g.x // 16 AS BIGINT) AS bx, CAST(g.y // 16 AS BIGINT) AS by,
               CAST(sum(16 - COALESCE(bc.c, 0)) AS BIGINT) AS vis_sum
        FROM g LEFT JOIN bc ON g.x = bc.x AND g.y = bc.y
        GROUP BY 1, 2
    """


def _viewshed_sectors_sql() -> str:
    """Ray-partitioned viewshed mirror: same R3 step arithmetic as
    _viewshed_sql on the 128x128 integer DEM, observer (64,64) h=2, radius-40
    disc, grouped by the 8-sector atan2 assignment (floor(theta / (2*pi/8))
    with theta normalized to [0, 2*pi))."""
    dem = "CAST((({x}*73 + {y}*151) % 37) + (({x}*{y}) % 11) * 3 AS DOUBLE)"
    d00 = dem.format(x="x0", y="y0")
    d01 = dem.format(x="(x0+1)", y="y0")
    d10 = dem.format(x="x0", y="(y0+1)")
    d11 = dem.format(x="(x0+1)", y="(y0+1)")
    return f"""
        WITH g AS (SELECT 24 + a.range AS x, 24 + b.range AS y
                   FROM range(81) a, range(81) b),
        t0 AS (SELECT x, y, {dem.format(x='x', y='y')} AS z,
                      sqrt(CAST((x-64)*(x-64) + (y-64)*(y-64) AS DOUBLE)) AS dist,
                      atan2(CAST(y-64 AS DOUBLE), CAST(x-64 AS DOUBLE)) AS th0
               FROM g),
        t1 AS (SELECT x, y, z, dist,
                      CASE WHEN th0 < 0 THEN th0 + 2*pi() ELSE th0 END AS th
               FROM t0 WHERE dist <= 40.0),
        t AS (SELECT x, y, z, dist,
                     LEAST(GREATEST(CAST(floor(th / (2*pi()/8)) AS BIGINT), 0), 7)
                         AS sector
              FROM t1),
        obs AS (SELECT {dem.format(x='64', y='64')} + 2.0 AS oz),
        nn AS (SELECT CAST(ceil(sqrt(CAST(3200 AS DOUBLE))) AS BIGINT) + 1 AS n),
        samp AS (SELECT t.x, t.y, t.z, t.dist, t.sector, obs.oz,
                        CAST(s.s AS DOUBLE) / CAST(nn.n AS DOUBLE) AS tt
                 FROM t, obs, nn,
                      LATERAL (SELECT unnest(generate_series(1, nn.n - 1)) AS s) s),
        ev AS (SELECT x, y, z, dist, sector, oz, tt,
                      LEAST(GREATEST(CAST(floor(64 + tt*(x-64)) AS BIGINT), 0), 126) AS x0,
                      LEAST(GREATEST(CAST(floor(64 + tt*(y-64)) AS BIGINT), 0), 126) AS y0,
                      64 + tt*(x-64) AS sx, 64 + tt*(y-64) AS sy
               FROM samp),
        ev2 AS (SELECT x, y, z, dist, sector, oz, tt, x0, y0,
                       LEAST(GREATEST(sx - x0, 0.0), 1.0) AS fx,
                       LEAST(GREATEST(sy - y0, 0.0), 1.0) AS fy
                FROM ev),
        blocked AS (
            SELECT DISTINCT x, y, sector FROM ev2
            WHERE (({d00} * (1-fx) * (1-fy) + {d01} * fx * (1-fy)
                  + {d10} * (1-fx) * fy + {d11} * fx * fy) - oz) / (tt*dist + 1e-300)
                  > (z - oz) / (CASE WHEN dist = 0 THEN 1.0 ELSE dist END) + 1e-12
              AND tt*dist < dist - 1e-9)
        SELECT t.sector, CAST(count(*) AS BIGINT) AS n_cells,
               CAST(count(*) - (SELECT count(*) FROM blocked b
                                WHERE b.sector = t.sector) AS BIGINT) AS n_visible
        FROM t GROUP BY 1
    """


def _viewshed_modes_sql() -> str:
    """gdal_viewshed NORMAL/DEM/GROUND output modes on the same integer DEM:
    per-cell max interior-sample slope -> required sight-line height; DEM =
    max(cell, required), GROUND = max(0, required - cell)
    (stages/viewshed.viewshed_array mode semantics, mirrored bit-for-bit)."""
    dem = "CAST((({x}*73 + {y}*151) % 37) + (({x}*{y}) % 11) * 3 AS DOUBLE)"
    d00 = dem.format(x="x0", y="y0")
    d01 = dem.format(x="(x0+1)", y="y0")
    d10 = dem.format(x="x0", y="(y0+1)")
    d11 = dem.format(x="(x0+1)", y="(y0+1)")
    return f"""
        WITH g AS (SELECT a.range AS x, b.range AS y FROM range(64) a, range(64) b),
        t AS (SELECT x, y, {dem.format(x='x', y='y')} AS z,
                     sqrt(CAST((x-32)*(x-32) + (y-32)*(y-32) AS DOUBLE)) AS dist
              FROM g),
        obs AS (SELECT z + 2.0 AS oz FROM t WHERE x = 32 AND y = 32),
        nn AS (SELECT CAST(ceil(max(dist)) AS BIGINT) + 1 AS n FROM t),
        samp AS (SELECT t.x, t.y, t.z, t.dist, obs.oz,
                        CAST(s.s AS DOUBLE) / CAST(nn.n AS DOUBLE) AS tt
                 FROM t, obs, nn,
                      LATERAL (SELECT unnest(generate_series(1, nn.n - 1)) AS s) s),
        ev AS (SELECT x, y, z, dist, oz, tt,
                      LEAST(GREATEST(CAST(floor(32 + tt*(x-32)) AS BIGINT), 0), 62) AS x0,
                      LEAST(GREATEST(CAST(floor(32 + tt*(y-32)) AS BIGINT), 0), 62) AS y0,
                      32 + tt*(x-32) AS sx, 32 + tt*(y-32) AS sy
               FROM samp),
        ev2 AS (SELECT x, y, z, dist, oz, tt, x0, y0,
                       LEAST(GREATEST(sx - x0, 0.0), 1.0) AS fx,
                       LEAST(GREATEST(sy - y0, 0.0), 1.0) AS fy
                FROM ev),
        ms AS (SELECT x, y,
                      max((({d00} * (1-fx) * (1-fy) + {d01} * fx * (1-fy)
                          + {d10} * (1-fx) * fy + {d11} * fx * fy) - oz)
                          / (tt*dist + 1e-300)) AS m
               FROM ev2 WHERE tt*dist < dist - 1e-9 GROUP BY x, y),
        cell AS (SELECT t.x, t.y, t.z, t.dist, obs.oz, ms.m
                 FROM t CROSS JOIN obs
                 LEFT JOIN ms ON ms.x = t.x AND ms.y = t.y)
        SELECT 'normal' AS mode,
               CAST(4096 - count(*) FILTER (m IS NOT NULL AND
                    m > (z - oz) / (CASE WHEN dist = 0 THEN 1.0 ELSE dist END) + 1e-12)
                    AS BIGINT) AS n_visible,
               CAST(1000 * (4096 - count(*) FILTER (m IS NOT NULL AND
                    m > (z - oz) / (CASE WHEN dist = 0 THEN 1.0 ELSE dist END) + 1e-12))
                    AS BIGINT) AS sum_x1000
        FROM cell
        UNION ALL
        SELECT 'dem' AS mode,
               CAST(count(*) FILTER (m IS NOT NULL AND oz + m*dist > z) AS BIGINT) AS n_visible,
               CAST(sum(floor((CASE WHEN m IS NULL THEN z
                               ELSE GREATEST(z, oz + m*dist) END) * 1000.0 + 0.5))
                    AS BIGINT) AS sum_x1000
        FROM cell
        UNION ALL
        SELECT 'ground' AS mode,
               CAST(count(*) FILTER (m IS NOT NULL AND oz + m*dist - z > 0) AS BIGINT) AS n_visible,
               CAST(sum(floor((CASE WHEN m IS NULL THEN 0.0
                               ELSE GREATEST(0.0, oz + m*dist - z) END) * 1000.0 + 0.5))
                    AS BIGINT) AS sum_x1000
        FROM cell
    """


def _footprint_sql() -> str:
    """Footprint of the rects fixture: per-rectangle component stats incl.
    n_fragments = number of per-tile pieces (a rect x tile intersection is
    one fragment)."""
    from gdal_ray.sources.synthetic import RECTS

    rect_vals = ", ".join(f"({i}, {x0}, {y0}, {x1}, {y1})" for i, (x0, y0, x1, y1) in enumerate(RECTS))
    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy FROM range(192) a, range(192) b),
        rects(rid, x0, y0, x1, y1) AS (VALUES {rect_vals}),
        rp AS (SELECT rid, gx, gy FROM px JOIN rects
               ON gx >= x0 AND gx < x1 AND gy >= y0 AND gy < y1)
        SELECT CAST(1 AS DOUBLE) AS value,
               CAST(count(*) AS BIGINT) AS n_pixels,
               CAST(min(gx) AS BIGINT) AS minx, CAST(min(gy) AS BIGINT) AS miny,
               CAST(max(gx) AS BIGINT) AS maxx, CAST(max(gy) AS BIGINT) AS maxy,
               CAST(count(DISTINCT (gx // 64) * 1000 + gy // 64) AS BIGINT) AS n_fragments
        FROM rp GROUP BY rid
    """


def _palette_sql() -> str:
    """Median-cut palette over four solid-color tiles: each color occupies one
    5-bit bucket, so the cut isolates the buckets and each palette entry is
    the bucket average rescaled (stages/fillpalette.median_cut)."""
    from gdal_ray.pipelines.queries import PALETTE_BASE

    base = ", ".join(f"({r}, {g}, {b})" for r, g, b in PALETTE_BASE)
    return f"""
        WITH base(r, g, b) AS (VALUES {base}),
        pal AS (SELECT (r // 8) * 8 + 4 AS r, (g // 8) * 8 + 4 AS g,
                       (b // 8) * 8 + 4 AS b FROM base)
        SELECT row_number() OVER (ORDER BY r, g, b) - 1 AS idx,
               CAST(r AS BIGINT) AS r, CAST(g AS BIGINT) AS g, CAST(b AS BIGINT) AS b
        FROM pal
    """


def _scrub_pii_sql() -> str:
    """PII scrub replay: the same RE2 patterns (pyarrow and DuckDB both use
    RE2, so match sets are identical), applied in the same email -> url ->
    phone order with counts taken before each replacement."""
    from gdal_ray.stages.textops import SCRUB_PATTERNS

    em, url, ph = (SCRUB_PATTERNS["email"], SCRUB_PATTERNS["url"],
                   SCRUB_PATTERNS["phone"])
    return f"""
        WITH aug AS (SELECT doc_id,
               text || ' mail doc' || CAST(doc_id AS VARCHAR)
                    || '@ex.com see https://ex.org/p/' || CAST(doc_id AS VARCHAR)
                    || ' call +1202555' || CAST(doc_id AS VARCHAR) || ' end' AS t
             FROM documents),
        s1 AS (SELECT doc_id,
                      CAST(length(regexp_extract_all(t, '{em}')) AS BIGINT) AS n_email,
                      regexp_replace(t, '{em}', '<EMAIL>', 'g') AS t1 FROM aug),
        s2 AS (SELECT doc_id, n_email,
                      CAST(length(regexp_extract_all(t1, '{url}')) AS BIGINT) AS n_url,
                      regexp_replace(t1, '{url}', '<URL>', 'g') AS t2 FROM s1),
        s3 AS (SELECT doc_id, n_email, n_url,
                      CAST(length(regexp_extract_all(t2, '{ph}')) AS BIGINT) AS n_phone,
                      regexp_replace(t2, '{ph}', '<PHONE>', 'g') AS t3 FROM s2)
        SELECT doc_id, n_email, n_url, n_phone, t3 AS text_scrubbed FROM s3
    """


def _kmeans_cte(k: int = 8, iters: int = 2) -> str:
    """Shared Lloyd-replay CTE chain: init = smallest-id vectors, then
    ``iters`` x (assign -> per-dim mean, empty clusters keep the previous
    centroid), mirroring stages/sim.kmeans_assign.  Exposes a{iters} as the
    final assignment relation and e as the vector relation."""
    parts = [
        "e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)",
        f"c0 AS (SELECT vec_id AS cid, v FROM e WHERE vec_id < {k})",
    ]
    for it in range(iters + 1):
        parts.append(f"""a{it} AS (SELECT vec_id, cid FROM (
            SELECT e.vec_id, c.cid,
                   row_number() OVER (PARTITION BY e.vec_id
                       ORDER BY list_distance(e.v, c.v), c.cid) AS rn
            FROM e CROSS JOIN c{it} c) WHERE rn = 1)""")
        if it < iters:
            parts.append(f"""m{it} AS (SELECT a{it}.cid, s.i, avg(e.v[s.i]) AS mv
                FROM a{it} JOIN e USING (vec_id),
                     LATERAL (SELECT unnest(range(1, len(e.v) + 1)) AS i) s
                GROUP BY 1, 2)""")
            parts.append(
                f"n{it} AS (SELECT cid, list(mv ORDER BY i) AS v FROM m{it} GROUP BY 1)")
            parts.append(
                f"c{it + 1} AS (SELECT c.cid, COALESCE(n.v, c.v) AS v"
                f" FROM c{it} c LEFT JOIN n{it} n USING (cid))")
    return "WITH " + ",\n".join(parts)


def _pq_parts(m: int, k: int, iters: int, d: int) -> list[str]:
    """Shared CTE chain for the PQ oracles: m independent sliced Lloyd
    replays (same shape as _kmeans_cte), exposing s{j}a{iters} (assignments)
    and s{j}c{iters} (codebooks) per subspace."""
    dsub = d // m
    parts = ["e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)"]
    for j in range(m):
        lo, hi = j * dsub + 1, (j + 1) * dsub
        parts.append(f"e{j} AS (SELECT vec_id, v[{lo}:{hi}] AS v FROM e)")
        parts.append(f"s{j}c0 AS (SELECT vec_id AS cid, v FROM e{j} WHERE vec_id < {k})")
        for it in range(iters + 1):
            parts.append(f"""s{j}a{it} AS (SELECT vec_id, cid FROM (
                SELECT e.vec_id, c.cid,
                       row_number() OVER (PARTITION BY e.vec_id
                           ORDER BY list_distance(e.v, c.v), c.cid) AS rn
                FROM e{j} e CROSS JOIN s{j}c{it} c) WHERE rn = 1)""")
            if it < iters:
                parts.append(f"""s{j}m{it} AS (SELECT a.cid, s.i, avg(e.v[s.i]) AS mv
                    FROM s{j}a{it} a JOIN e{j} e USING (vec_id),
                         LATERAL (SELECT unnest(range(1, len(e.v) + 1)) AS i) s
                    GROUP BY 1, 2)""")
                parts.append(f"s{j}n{it} AS (SELECT cid, list(mv ORDER BY i) AS v"
                             f" FROM s{j}m{it} GROUP BY 1)")
                parts.append(f"s{j}c{it + 1} AS (SELECT c.cid, COALESCE(n.v, c.v) AS v"
                             f" FROM s{j}c{it} c LEFT JOIN s{j}n{it} n USING (cid))")
    return parts


def _pq_sql(m: int = 4, k: int = 8, iters: int = 2, d: int = 64) -> str:
    """PQ codes replay — mirrors stages/sim.pq_encode (init = k smallest
    ids, ties -> lowest codeword, empty clusters keep their centroid)."""
    parts = _pq_parts(m, k, iters, d)
    sel = ", ".join(f"CAST(s{j}a{iters}.cid AS BIGINT) AS code_{j}" for j in range(m))
    joins = " ".join(f"JOIN s{j}a{iters} USING (vec_id)" for j in range(m))
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT e.vec_id, {sel} FROM e {joins}")


def _pq_adc_sql(m: int = 4, k: int = 8, iters: int = 2, d: int = 64,
                topk: int = 10) -> str:
    """ADC top-k replay: exact integer per-subspace distance tables between
    the e6-quantized closed-form query and the e6-quantized replayed
    codebooks (stages/sim.pq_adc_topk), summed per vector via the code
    assignments, ordered by (adc, vec_id)."""
    dsub = d // m
    parts = _pq_parts(m, k, iters, d)
    for j in range(m):
        qe = f"((((i - 1) + {j * dsub}) * 37) % 19 - 9) * 100000"
        ce = "CAST(floor(v[i] * 1000000.0 + 0.5) AS BIGINT)"
        diff = f"(({qe}) - {ce})"
        parts.append(f"""q{j} AS (SELECT cid,
            CAST(sum({diff} * {diff}) AS BIGINT) AS dt
            FROM s{j}c{iters},
                 LATERAL (SELECT unnest(range(1, {dsub + 1})) AS i) s
            GROUP BY cid)""")
    adc = " + ".join(f"q{j}.dt" for j in range(m))
    joins = " ".join(
        f"JOIN s{j}a{iters} a{j} USING (vec_id) JOIN q{j} ON q{j}.cid = a{j}.cid"
        for j in range(m))
    return ("WITH " + ",\n".join(parts)
            + f"""\nSELECT e.vec_id, CAST({adc} AS BIGINT) AS adc_e6
            FROM e {joins}
            ORDER BY adc_e6, e.vec_id LIMIT {topk}""")


def _pct2rgb_sql() -> str:
    """rgb2pct -> pct2rgb round trip on the solid-color palette fixture:
    each tile reconstructs to the quantized palette entry nearest its base
    color (ties broken in ascending palette order, matching argmin over the
    lexsorted palette)."""
    from gdal_ray.pipelines.queries import PALETTE_BASE

    base = ", ".join(
        f"({i % 2}, {i // 2}, {r}, {g}, {b})" for i, (r, g, b) in enumerate(PALETTE_BASE)
    )
    return f"""
        WITH base(tx, ty, r, g, b) AS (VALUES {base}),
        pal AS (SELECT (r // 8) * 8 + 4 AS pr, (g // 8) * 8 + 4 AS pg,
                       (b // 8) * 8 + 4 AS pb FROM base),
        nearest AS (SELECT tx, ty, pr, pg, pb,
                           row_number() OVER (PARTITION BY tx, ty
                               ORDER BY (r-pr)*(r-pr) + (g-pg)*(g-pg) + (b-pb)*(b-pb),
                                        pr, pg, pb) AS rn
                    FROM base CROSS JOIN pal)
        SELECT CAST(tx AS BIGINT) AS x, CAST(ty AS BIGINT) AS y,
               CAST(pr AS BIGINT) AS r, CAST(pg AS BIGINT) AS g,
               CAST(pb AS BIGINT) AS b, CAST(1 AS BIGINT) AS n_colors
        FROM nearest WHERE rn = 1
    """


def _contour_sql() -> str:
    """Marching-squares contour over the 3x2 ramp mosaic at half-integer
    levels: per-cell corner codes + edge-interpolated segment endpoints
    (stages/contour.marching_squares_cells; the 12 single-segment cases —
    saddles 5/10 are impossible on a monotone ramp since tl < br always),
    polyline count via segments - shared-endpoint joints (valid for the
    non-branching chains a linear ramp produces)."""
    # corners of cell (c, r): tl = c+r, tr = c+1+r, bl = c+r+1, br = c+r+2
    corners = {"a": "(c + r)", "b": "(c + 1 + r)", "d": "(c + r + 1)", "cc": "(c + r + 2)"}

    def interp(v0: str, v1: str) -> str:
        return (f"LEAST(GREATEST((level - {v0}) / "
                f"(CASE WHEN {v1} = {v0} THEN 1.0 ELSE CAST({v1} - {v0} AS DOUBLE) END),"
                f" 0.0), 1.0)")

    pts = {
        "top": (f"c + {interp(corners['a'], corners['b'])}", "CAST(r AS DOUBLE)"),
        "right": ("CAST(c + 1 AS DOUBLE)", f"r + {interp(corners['b'], corners['cc'])}"),
        "bottom": (f"c + {interp(corners['d'], corners['cc'])}", "CAST(r + 1 AS DOUBLE)"),
        "left": ("CAST(c AS DOUBLE)", f"r + {interp(corners['a'], corners['d'])}"),
    }
    table = {1: ("left", "top"), 2: ("top", "right"), 3: ("left", "right"),
             4: ("right", "bottom"), 6: ("top", "bottom"), 7: ("left", "bottom"),
             8: ("bottom", "left"), 9: ("bottom", "top"), 11: ("bottom", "right"),
             12: ("right", "left"), 13: ("right", "top"), 14: ("top", "left")}

    def case_expr(which: int, axis: int) -> str:
        branches = " ".join(
            f"WHEN {code} THEN {pts[ends[which]][axis]}" for code, ends in table.items()
        )
        return f"CASE code {branches} END"

    return f"""
        WITH cells AS (SELECT a.range AS c, b.range AS r FROM range(191) a, range(127) b),
        lv(level) AS (VALUES (30.5), (80.5), (130.5)),
        cs AS (SELECT level, c, r,
                 (CASE WHEN (c + r) >= level THEN 1 ELSE 0 END)
               + (CASE WHEN (c + 1 + r) >= level THEN 2 ELSE 0 END)
               + (CASE WHEN (c + r + 2) >= level THEN 4 ELSE 0 END)
               + (CASE WHEN (c + r + 1) >= level THEN 8 ELSE 0 END) AS code
               FROM cells, lv),
        seg AS (SELECT level,
                       {case_expr(0, 0)} AS x0, {case_expr(0, 1)} AS y0,
                       {case_expr(1, 0)} AS x1, {case_expr(1, 1)} AS y1
                FROM cs WHERE code NOT IN (0, 15)),
        ends AS (SELECT level, CAST(round(x0 / 1e-9) AS BIGINT) AS kx,
                        CAST(round(y0 / 1e-9) AS BIGINT) AS ky FROM seg
                 UNION ALL
                 SELECT level, CAST(round(x1 / 1e-9) AS BIGINT),
                        CAST(round(y1 / 1e-9) AS BIGINT) FROM seg),
        joints AS (SELECT level, sum(cnt - 1) AS nj FROM
                     (SELECT level, kx, ky, count(*) AS cnt FROM ends GROUP BY 1, 2, 3)
                   GROUP BY level)
        SELECT s.level,
               CAST(count(*) - COALESCE(any_value(j.nj), 0) AS BIGINT) AS n_polylines,
               CAST(count(*) AS BIGINT) AS n_segments,
               CAST(round(sum(sqrt((x1-x0)*(x1-x0) + (y1-y0)*(y1-y0))) * 1e6) AS BIGINT)
                 AS total_len_x1e6
        FROM seg s LEFT JOIN joints j ON j.level = s.level
        GROUP BY s.level
    """


def _retile_sql() -> str:
    """gdal_retile -ps 50 -overlap 10 replay on the 192x192 ramp: output
    origins at 40-px steps, edge tiles clipped, local-index checksum weights
    over each clipped size."""
    return """
        WITH ti AS (SELECT a.range AS i, b.range AS j FROM range(5) a, range(5) b),
        dims AS (SELECT i, j, LEAST(50, 192 - 40*i) AS w, LEAST(50, 192 - 40*j) AS h
                 FROM ti),
        px AS (SELECT i, j, w, h, u.range AS u, v.range AS v
               FROM dims, range(50) u, range(50) v
               WHERE u.range < w AND v.range < h)
        SELECT CAST(i AS BIGINT) AS x, CAST(j AS BIGINT) AS y,
               CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
               CAST(sum((40*i + u + 40*j + v) * ((v * w + u) % 7 + 1)) % 65536
                    AS BIGINT) AS checksum
        FROM px GROUP BY i, j, w, h
    """


def _stack_bands_sql() -> str:
    """Band stack over the 2x2 ramp/checker/hump fixtures: per-band per-tile
    checksums (each mod 65536, like functions/checksum) combined with band
    weights 1/2/3 — pins both pixel content and band ordering."""
    return """
        WITH px AS (SELECT a.range AS gx, b.range AS gy FROM range(128) a, range(128) b),
        v AS (SELECT gx, gy, ((gy % 64) * 64 + gx % 64) % 7 + 1 AS w,
                     CAST(gx + gy AS BIGINT) AS v1,
                     ((gx // 8 + gy // 8) % 2) * 255 AS v2,
                     CAST(trunc(CAST((gx-96)*(gx-96) + (gy-96)*(gy-96) AS DOUBLE)
                                / 64.0) AS BIGINT) AS v3
              FROM px),
        c AS (SELECT CAST(gx // 64 AS INTEGER) AS x, CAST(gy // 64 AS INTEGER) AS y,
                     sum(v1 * w) % 65536 AS c1,
                     sum(v2 * w) % 65536 AS c2,
                     sum(v3 * w) % 65536 AS c3
              FROM v GROUP BY 1, 2)
        SELECT x, y, CAST(3 AS BIGINT) AS n_bands,
               CAST((1 * c1 + 2 * c2 + 3 * c3) % 65536 AS BIGINT) AS checksum
        FROM c
    """


def _geodesic_sql() -> str:
    """Spherical area/perimeter replay over the zone rectangles: the same
    spherical-excess shoelace terms (in ring order, zero terms folded) and
    per-edge haversine as stages/geomops — term order and parenthesization
    mirrored for bit-stable rounding."""
    R = repr(6371007.180918475)

    def hav(x1, y1, x2, y2):
        dphi = f"(radians({y2}) - radians({y1}))/2.0"
        dlam = f"(radians({x2}) - radians({x1}))/2.0"
        return (f"2.0*{R}*asin(sqrt(sin({dphi})*sin({dphi})"
                f" + cos(radians({y1}))*cos(radians({y2}))"
                f"*(sin({dlam})*sin({dlam}))))")

    # ring order: (minx,miny)->(maxx,miny)->(maxx,maxy)->(minx,maxy)->close
    edges = [("minx", "miny", "maxx", "miny"), ("maxx", "miny", "maxx", "maxy"),
             ("maxx", "maxy", "minx", "maxy"), ("minx", "maxy", "minx", "miny")]
    perim = " + ".join(hav(*e) for e in edges)
    t1 = ("(radians(maxx) - radians(minx))"
          " * (2.0 + sin(radians(miny)) + sin(radians(miny)))")
    t3 = ("(radians(minx) - radians(maxx))"
          " * (2.0 + sin(radians(maxy)) + sin(radians(maxy)))")
    return f"""
        WITH {_ZONES}
        SELECT zone_key,
               CAST(round(abs({t1} + {t3}) * ({R}*{R}) / 2.0 / 10.0) AS BIGINT)
                 AS geo_area_10m2,
               CAST(round({perim}) AS BIGINT) AS geo_perim_m
        FROM zz
    """


def _geodesic_ellipsoidal_sql() -> str:
    """Ellipsoidal replay over the zone rectangles: authalic-q trapezoid
    area terms in ring order and a 20-iteration recursive-CTE Vincenty
    inverse per edge (fixed iteration count on both sides — the converged
    lambda is a fixed point, so whole-meter rounding is bit-stable)."""
    from gdal_ray.functions import transformer as tr

    F = tr.sql_float
    a_ = tr.WGS84_A
    f_ = tr.WGS84_F
    b_ = a_ * (1.0 - f_)
    e_ = tr.WGS84_E
    e2 = tr.WGS84_E2
    import numpy as np

    qp = float(tr._aea_q(np.pi / 2.0))

    def qof(lat_expr: str) -> str:
        s = f"sin(radians({lat_expr}))"
        return (f"(1.0 - {F(e2)}) * ({s} / (1.0 - {F(e2)} * {s} * {s})"
                f" - (1.0 / (2.0 * {F(e_)}))"
                f" * ln((1.0 - {F(e_)} * {s}) / (1.0 + {F(e_)} * {s})))")

    # ring order: (minx,miny)->(maxx,miny)->(maxx,maxy)->(minx,maxy)->close;
    # vertical edges have dlam = 0 exactly, so only the two parallels count
    t1 = (f"(radians(maxx) - radians(minx))"
          f" * (2.0 * {F(qp)} + {qof('miny')} + {qof('miny')})")
    t3 = (f"(radians(minx) - radians(maxx))"
          f" * (2.0 * {F(qp)} + {qof('maxy')} + {qof('maxy')})")

    # per-edge Vincenty: 4 edges per zone, 20 fixed iterations
    lam_step = """
        L + (1.0 - C) * {f} * sin_alpha * (sig + C * sin_sig
            * (cos2sigm + C * cos_sig * (2.0 * cos2sigm * cos2sigm - 1.0)))
    """.replace("{f}", F(f_))
    inner = """
        SELECT zone_key, eid, L, sU1, cU1, sU2, cU2, i, lam,
               sin_sig, cos_sig, atan2(sin_sig, cos_sig) AS sig,
               CASE WHEN sin_sig = 0.0 THEN 0.0
                    ELSE cU1 * cU2 * sin(lam) / sin_sig END AS sin_alpha
        FROM (SELECT *, sqrt((cU2 * sin(lam)) * (cU2 * sin(lam))
                             + (cU1 * sU2 - sU1 * cU2 * cos(lam))
                             * (cU1 * sU2 - sU1 * cU2 * cos(lam))) AS sin_sig,
                      sU1 * sU2 + cU1 * cU2 * cos(lam) AS cos_sig
              FROM it WHERE i < 20) s1
    """
    mid = f"""
        SELECT *, 1.0 - sin_alpha * sin_alpha AS cos2_alpha FROM ({inner}) s2
    """
    mid2 = f"""
        SELECT *, CASE WHEN cos2_alpha = 0.0 THEN 0.0
                       ELSE cos_sig - 2.0 * sU1 * sU2 / cos2_alpha END AS cos2sigm,
               {F(f_)} / 16.0 * cos2_alpha
               * (4.0 + {F(f_)} * (4.0 - 3.0 * cos2_alpha)) AS C
        FROM ({mid}) s3
    """
    return f"""
        WITH RECURSIVE {_ZONES},
        edges AS (
          SELECT zone_key, 1 AS eid, minx AS x1, miny AS y1, maxx AS x2, miny AS y2 FROM zz
          UNION ALL SELECT zone_key, 2, maxx, miny, maxx, maxy FROM zz
          UNION ALL SELECT zone_key, 3, maxx, maxy, minx, maxy FROM zz
          UNION ALL SELECT zone_key, 4, minx, maxy, minx, miny FROM zz),
        e2 AS (SELECT zone_key, eid,
                      radians(x2) - radians(x1) AS L,
                      atan((1.0 - {F(f_)}) * tan(radians(y1))) AS U1,
                      atan((1.0 - {F(f_)}) * tan(radians(y2))) AS U2
               FROM edges),
        e3 AS (SELECT zone_key, eid, L, sin(U1) AS sU1, cos(U1) AS cU1,
                      sin(U2) AS sU2, cos(U2) AS cU2 FROM e2),
        it AS (
          SELECT zone_key, eid, L, sU1, cU1, sU2, cU2, 0 AS i, L AS lam FROM e3
          UNION ALL
          SELECT zone_key, eid, L, sU1, cU1, sU2, cU2, i + 1,
                 {lam_step}
          FROM ({mid2}) s4
        ),
        fin AS ({mid2.replace("FROM it WHERE i < 20", "FROM it WHERE i = 20")}),
        dist AS (
          SELECT zone_key, eid,
                 CASE WHEN sin_sig = 0.0 THEN 0.0 ELSE
                   {F(b_)} * (1.0 + u2 / 16384.0 * (4096.0 + u2 * (-768.0
                       + u2 * (320.0 - 175.0 * u2))))
                   * (sig - (u2 / 1024.0 * (256.0 + u2 * (-128.0
                       + u2 * (74.0 - 47.0 * u2)))) * sin_sig
                     * (cos2sigm + (u2 / 1024.0 * (256.0 + u2 * (-128.0
                         + u2 * (74.0 - 47.0 * u2)))) / 4.0
                       * (cos_sig * (-1.0 + 2.0 * cos2sigm * cos2sigm)
                          - (u2 / 1024.0 * (256.0 + u2 * (-128.0
                              + u2 * (74.0 - 47.0 * u2)))) / 6.0 * cos2sigm
                            * (-3.0 + 4.0 * sin_sig * sin_sig)
                            * (-3.0 + 4.0 * cos2sigm * cos2sigm))))
                 END AS s
          FROM (SELECT *, cos2_alpha * ({F(a_)} * {F(a_)} - {F(b_)} * {F(b_)})
                          / ({F(b_)} * {F(b_)}) AS u2 FROM fin) s5),
        perim AS (SELECT zone_key, sum(s ORDER BY eid) AS p FROM dist GROUP BY 1)
        SELECT z.zone_key,
               CAST(round(abs({t1} + {t3}) * ({F(a_)} * {F(a_)}) / 4.0 / 10.0)
                    AS BIGINT) AS geo_area_10m2,
               CAST(round(p.p) AS BIGINT) AS geo_perim_m
        FROM zz z JOIN perim p USING (zone_key)
    """


def _wrapdateline_sql() -> str:
    """-wrapdateline replay on the fixture: lines unwrap the second vertex by
    the nearest-360 multiple (crossing iff it leaves [-180, 180]); rectangles
    split into two slabs when lon_w > lon_e (signed straddle).  Lengths /
    areas are computed in unwrapped space — identical to the engine's
    part-sum because the split is exact."""
    from gdal_ray.pipelines.queries import WRAP_LINES, WRAP_POLYS

    lines = ", ".join(f"({g}, {a}, {b}, {c}, {d})" for g, a, b, c, d in WRAP_LINES)
    polys = ", ".join(f"({g}, {a}, {b}, {c}, {d})" for g, a, b, c, d in WRAP_POLYS)
    return f"""
        WITH lines(gid, x0, y0, x1, y1) AS (VALUES {lines}),
        l AS (SELECT gid, x0, y0, y1,
                     x1 - 360.0 * round((x1 - x0) / 360.0) AS x1u
              FROM lines),
        lo AS (SELECT CAST(gid AS BIGINT) AS gid,
                      CAST(CASE WHEN x1u > 180.0 OR x1u < -180.0
                           THEN 2 ELSE 1 END AS BIGINT) AS n_parts,
                      CAST(round(sqrt((x1u-x0)*(x1u-x0) + (y1-y0)*(y1-y0))
                                 * 1000000.0) AS BIGINT) AS len_x1e6,
                      CAST(0 AS BIGINT) AS area_x1e6
               FROM l),
        polys(gid, xw, xe, y0, y1) AS (VALUES {polys}),
        po AS (SELECT CAST(gid AS BIGINT) AS gid,
                      CAST(CASE WHEN xw > xe THEN 2 ELSE 1 END AS BIGINT) AS n_parts,
                      CAST(0 AS BIGINT) AS len_x1e6,
                      CAST(round(((CASE WHEN xw > xe THEN xe + 360.0 ELSE xe END) - xw)
                                 * (y1 - y0) * 1000000.0) AS BIGINT) AS area_x1e6
               FROM polys)
        SELECT * FROM lo UNION ALL SELECT * FROM po
    """


def _contour_rings_sql() -> str:
    """Interpolated contour rings on the 3x3 hump paraboloid at off-lattice
    levels: per-cell marching-squares segment endpoints (crossing-fraction
    mirror of stages/contour.marching_squares_cells), ring closure via
    endpoint-degree==2, ring area as the complement of the suplevel region
    (the traced iso-circle encloses {v < level}; {v >= level} touches the
    mosaic border and is not traced), ring length as the segment-length sum.
    One closed ring per level on this convex fixture (no saddles: code 5/10
    impossible for a disc section)."""

    def cn(dx: int, dy: int) -> str:
        return (f"(CAST((c+{dx}-96)*(c+{dx}-96) + (r+{dy}-96)*(r+{dy}-96)"
                f" AS DOUBLE) / 64.0)")

    va, vb, vcc, vd = cn(0, 0), cn(1, 0), cn(1, 1), cn(0, 1)

    def interp(v0: str, v1: str) -> str:
        return (f"LEAST(GREATEST((level - {v0}) / "
                f"(CASE WHEN {v1} = {v0} THEN 1.0 ELSE {v1} - {v0} END),"
                f" 0.0), 1.0)")

    pts = {
        "top": ("c + t", "CAST(r AS DOUBLE)"),
        "right": ("CAST(c + 1 AS DOUBLE)", "r + rr"),
        "bottom": ("c + bm", "CAST(r + 1 AS DOUBLE)"),
        "left": ("CAST(c AS DOUBLE)", "r + l"),
    }
    table = {1: ("left", "top"), 2: ("top", "right"), 3: ("left", "right"),
             4: ("right", "bottom"), 6: ("top", "bottom"), 7: ("left", "bottom"),
             8: ("bottom", "left"), 9: ("bottom", "top"), 11: ("bottom", "right"),
             12: ("right", "left"), 13: ("right", "top"), 14: ("top", "left")}

    def case_expr(which: int, axis: int) -> str:
        branches = " ".join(
            f"WHEN {code} THEN {pts[ends[which]][axis]}" for code, ends in table.items()
        )
        return f"CASE code {branches} END"

    area_case = """
        CASE code
          WHEN 0 THEN 0.0
          WHEN 1 THEN t * l / 2.0
          WHEN 2 THEN (1.0 - t) * rr / 2.0
          WHEN 4 THEN (1.0 - rr) * (1.0 - bm) / 2.0
          WHEN 8 THEN (1.0 - l) * bm / 2.0
          WHEN 3 THEN (l + rr) / 2.0
          WHEN 6 THEN ((1.0 - t) + (1.0 - bm)) / 2.0
          WHEN 12 THEN ((1.0 - l) + (1.0 - rr)) / 2.0
          WHEN 9 THEN (t + bm) / 2.0
          WHEN 7 THEN 1.0 - (1.0 - l) * bm / 2.0
          WHEN 11 THEN 1.0 - (1.0 - rr) * (1.0 - bm) / 2.0
          WHEN 13 THEN 1.0 - (1.0 - t) * rr / 2.0
          WHEN 14 THEN 1.0 - t * l / 2.0
          WHEN 15 THEN 1.0
        END
    """
    return f"""
        WITH cells AS (SELECT a.range AS c, b.range AS r FROM range(191) a, range(191) b),
        lv(level) AS (VALUES (CAST(50.3 AS DOUBLE)), (CAST(120.7 AS DOUBLE))),
        f AS (SELECT level, c, r,
                (CASE WHEN {va} >= level THEN 1 ELSE 0 END)
              + (CASE WHEN {vb} >= level THEN 2 ELSE 0 END)
              + (CASE WHEN {vcc} >= level THEN 4 ELSE 0 END)
              + (CASE WHEN {vd} >= level THEN 8 ELSE 0 END) AS code,
                {interp(va, vb)} AS t, {interp(vb, vcc)} AS rr,
                {interp(vd, vcc)} AS bm, {interp(va, vd)} AS l
              FROM cells, lv),
        sup AS (SELECT level, sum({area_case}) AS suparea FROM f GROUP BY 1),
        seg AS (SELECT level,
                       {case_expr(0, 0)} AS x0, {case_expr(0, 1)} AS y0,
                       {case_expr(1, 0)} AS x1, {case_expr(1, 1)} AS y1
                FROM f WHERE code NOT IN (0, 15)),
        segagg AS (SELECT level, CAST(count(*) AS BIGINT) AS n_vertices,
                          CAST(round(sum(sqrt((x1-x0)*(x1-x0) + (y1-y0)*(y1-y0)))
                                     * 100.0) AS BIGINT) AS length_x100
                   FROM seg GROUP BY 1),
        ends AS (SELECT level, CAST(round(x0 / 1e-9) AS BIGINT) AS kx,
                        CAST(round(y0 / 1e-9) AS BIGINT) AS ky FROM seg
                 UNION ALL
                 SELECT level, CAST(round(x1 / 1e-9) AS BIGINT),
                        CAST(round(y1 / 1e-9) AS BIGINT) FROM seg),
        closedagg AS (SELECT level, (min(cnt) = 2 AND max(cnt) = 2) AS closed
                      FROM (SELECT level, kx, ky, count(*) AS cnt
                            FROM ends GROUP BY 1, 2, 3) GROUP BY 1)
        SELECT s.level, CAST(0 AS BIGINT) AS ring_id, s.n_vertices, c.closed,
               CAST(round((CAST(191*191 AS DOUBLE) - p.suparea) * 100.0)
                    AS BIGINT) AS area_x100,
               s.length_x100
        FROM segagg s JOIN closedagg c USING (level) JOIN sup p USING (level)
    """


def _contour_polygons_interp_sql() -> str:
    """Suplevel-area oracle for the interpolated contour POLYGONS on the
    3x3 hump: the per-cell 16-case fragment-area mirror (same expressions
    as _contour_rings_sql); one polygon per level with the domain
    rectangle as shell and the iso-circle as its single hole."""

    def cn(dx: int, dy: int) -> str:
        return (f"(CAST((c+{dx}-96)*(c+{dx}-96) + (r+{dy}-96)*(r+{dy}-96)"
                f" AS DOUBLE) / 64.0)")

    va, vb, vcc, vd = cn(0, 0), cn(1, 0), cn(1, 1), cn(0, 1)

    def interp(v0: str, v1: str) -> str:
        return (f"LEAST(GREATEST((level - {v0}) / "
                f"(CASE WHEN {v1} = {v0} THEN 1.0 ELSE {v1} - {v0} END),"
                f" 0.0), 1.0)")

    area_case = """
        CASE code
          WHEN 0 THEN 0.0
          WHEN 1 THEN t * l / 2.0
          WHEN 2 THEN (1.0 - t) * rr / 2.0
          WHEN 4 THEN (1.0 - rr) * (1.0 - bm) / 2.0
          WHEN 8 THEN (1.0 - l) * bm / 2.0
          WHEN 3 THEN (l + rr) / 2.0
          WHEN 6 THEN ((1.0 - t) + (1.0 - bm)) / 2.0
          WHEN 12 THEN ((1.0 - l) + (1.0 - rr)) / 2.0
          WHEN 9 THEN (t + bm) / 2.0
          WHEN 7 THEN 1.0 - (1.0 - l) * bm / 2.0
          WHEN 11 THEN 1.0 - (1.0 - rr) * (1.0 - bm) / 2.0
          WHEN 13 THEN 1.0 - (1.0 - t) * rr / 2.0
          WHEN 14 THEN 1.0 - t * l / 2.0
          WHEN 15 THEN 1.0
        END
    """
    return f"""
        WITH cells AS (SELECT a.range AS c, b.range AS r FROM range(191) a, range(191) b),
        lv(level) AS (VALUES (CAST(50.3 AS DOUBLE)), (CAST(120.7 AS DOUBLE))),
        f AS (SELECT level, c, r,
                (CASE WHEN {va} >= level THEN 1 ELSE 0 END)
              + (CASE WHEN {vb} >= level THEN 2 ELSE 0 END)
              + (CASE WHEN {vcc} >= level THEN 4 ELSE 0 END)
              + (CASE WHEN {vd} >= level THEN 8 ELSE 0 END) AS code,
                {interp(va, vb)} AS t, {interp(vb, vcc)} AS rr,
                {interp(vd, vcc)} AS bm, {interp(va, vd)} AS l
              FROM cells, lv),
        sup AS (SELECT level, sum({area_case}) AS suparea FROM f GROUP BY 1)
        SELECT level, CAST(0 AS BIGINT) AS poly_id, CAST(1 AS BIGINT) AS n_holes,
               CAST(round(suparea * 100.0) AS BIGINT) AS area_x100
        FROM sup
    """


def _contour_band_sql() -> str:
    """Interpolated band-polygon areas over the 3x2 ramp mosaic — mirrors
    stages/contour.suplevel_area_cells per cell (same crossing-fraction,
    corner-triangle and saddle expressions), then the per-cell x1e6 rounding
    and band differencing of contour_band_areas."""

    def interp(v0: str, v1: str) -> str:
        return (f"LEAST(GREATEST((level - {v0}) / "
                f"(CASE WHEN {v1} = {v0} THEN 1.0 ELSE {v1} - {v0} END),"
                f" 0.0), 1.0)")

    area_case = """
        CASE code
          WHEN 0 THEN 0.0
          WHEN 1 THEN t * l / 2.0
          WHEN 2 THEN (1.0 - t) * rr / 2.0
          WHEN 4 THEN (1.0 - rr) * (1.0 - bm) / 2.0
          WHEN 8 THEN (1.0 - l) * bm / 2.0
          WHEN 3 THEN (l + rr) / 2.0
          WHEN 6 THEN ((1.0 - t) + (1.0 - bm)) / 2.0
          WHEN 12 THEN ((1.0 - l) + (1.0 - rr)) / 2.0
          WHEN 9 THEN (t + bm) / 2.0
          WHEN 7 THEN 1.0 - (1.0 - l) * bm / 2.0
          WHEN 11 THEN 1.0 - (1.0 - rr) * (1.0 - bm) / 2.0
          WHEN 13 THEN 1.0 - (1.0 - t) * rr / 2.0
          WHEN 14 THEN 1.0 - t * l / 2.0
          WHEN 5 THEN CASE WHEN center >= level
               THEN 1.0 - ((1.0 - t) * rr / 2.0 + (1.0 - l) * bm / 2.0)
               ELSE t * l / 2.0 + (1.0 - rr) * (1.0 - bm) / 2.0 END
          WHEN 10 THEN CASE WHEN center >= level
               THEN 1.0 - (t * l / 2.0 + (1.0 - rr) * (1.0 - bm) / 2.0)
               ELSE (1.0 - t) * rr / 2.0 + (1.0 - l) * bm / 2.0 END
          WHEN 15 THEN 1.0
        END
    """
    return f"""
        WITH cells AS (SELECT a.range AS c, b.range AS r FROM range(191) a, range(127) b),
        lv(li, level) AS (VALUES (0, 30.5), (1, 80.5), (2, 130.5)),
        e AS (SELECT li, level, c, r,
                CAST(c + r AS DOUBLE) AS va, CAST(c + 1 + r AS DOUBLE) AS vb,
                CAST(c + r + 2 AS DOUBLE) AS vcc, CAST(c + r + 1 AS DOUBLE) AS vd
              FROM cells, lv),
        f AS (SELECT li, level, c, r,
                (CASE WHEN va >= level THEN 1 ELSE 0 END)
              + (CASE WHEN vb >= level THEN 2 ELSE 0 END)
              + (CASE WHEN vcc >= level THEN 4 ELSE 0 END)
              + (CASE WHEN vd >= level THEN 8 ELSE 0 END) AS code,
                {interp('va', 'vb')} AS t, {interp('vb', 'vcc')} AS rr,
                {interp('vd', 'vcc')} AS bm, {interp('va', 'vd')} AS l,
                (va + vb + vcc + vd) / 4.0 AS center
              FROM e),
        sup AS (SELECT li, c, r, {area_case} AS area FROM f),
        supw AS (SELECT c, r,
                   max(CASE WHEN li = 0 THEN area END) AS a0,
                   max(CASE WHEN li = 1 THEN area END) AS a1,
                   max(CASE WHEN li = 2 THEN area END) AS a2
                 FROM sup GROUP BY c, r),
        band_cells AS (
          SELECT 0 AS band, 1.0 - a0 AS cell FROM supw
          UNION ALL SELECT 1, a0 - a1 FROM supw
          UNION ALL SELECT 2, a1 - a2 FROM supw
          UNION ALL SELECT 3, a2 FROM supw)
        SELECT CAST(band AS BIGINT) AS band,
               CAST(sum(CAST(floor(cell * 1000000.0 + 0.5) AS BIGINT)) AS BIGINT) AS area_x1e6
        FROM band_cells GROUP BY band
    """


def _tile_pyramid_sql() -> str:
    """Warp the 256x256 EPSG:4326 ramp to z4 XYZ tiles (nearest kernel) and
    reduce to z3/z2 overviews — mirrors stages/pyramid.TileWarper /
    build_overview arithmetic; the grid/transform CTEs are the shared
    ``_warp_grid_ctes`` block (same constants as the cubic / overview /
    cutline oracles)."""
    return f"""
        WITH {_warp_grid_ctes()},
        p4s AS (SELECT x, y, i, j,
                  CAST(floor(px) AS BIGINT) AS cx,
                  CAST(floor(py) AS BIGINT) AS cy
                FROM p4px),
        p4 AS (SELECT x, y, i, j,
                 CASE WHEN cx >= 0 AND cx < 256 AND cy >= 0 AND cy < 256
                      THEN CAST(cx + cy AS DOUBLE) + 1.0 ELSE 0.0 END AS v
               FROM p4s),
        p3 AS (SELECT x // 2 AS x, y // 2 AS y,
                      (x % 2) * 32 + i // 2 AS i, (y % 2) * 32 + j // 2 AS j,
                      sum(v) / 4.0 AS v
               FROM p4 GROUP BY 1, 2, 3, 4),
        p2 AS (SELECT x // 2 AS x, y // 2 AS y,
                      (x % 2) * 32 + i // 2 AS i, (y % 2) * 32 + j // 2 AS j,
                      sum(v) / 4.0 AS v
               FROM p3 GROUP BY 1, 2, 3, 4),
        c4 AS (SELECT 4 AS z, x, y,
                 CAST(sum(CAST(trunc(v) AS BIGINT) * ((j * 64 + i) % 7 + 1)) % 65536
                      AS BIGINT) AS checksum FROM p4 GROUP BY 2, 3),
        c3 AS (SELECT 3 AS z, x, y,
                 CAST(sum(CAST(trunc(v) AS BIGINT) * ((j * 64 + i) % 7 + 1)) % 65536
                      AS BIGINT) AS checksum FROM p3 GROUP BY 2, 3),
        c2 AS (SELECT 2 AS z, x, y,
                 CAST(sum(CAST(trunc(v) AS BIGINT) * ((j * 64 + i) % 7 + 1)) % 65536
                      AS BIGINT) AS checksum FROM p2 GROUP BY 2, 3)
        SELECT z, CAST(x AS INTEGER) AS x, CAST(y AS INTEGER) AS y, checksum FROM c4
        UNION ALL SELECT z, CAST(x AS INTEGER), CAST(y AS INTEGER), checksum FROM c3
        UNION ALL SELECT z, CAST(x AS INTEGER), CAST(y AS INTEGER), checksum FROM c2
    """


def _warp_grid_ctes() -> str:
    """Shared CTEs xr/yr/t4/ij/p4px: z4 tile enumeration over bbox +-59 and
    the per-pixel source coordinates (px, py) of the 64px mercator tiles over
    the 256x256 EPSG:4326 ramp (mirrors stages/pyramid.TileWarper)."""
    import numpy as np

    from gdal_ray.functions import geo

    O = geo.ORIGIN_SHIFT
    size4 = 2.0 * O / 16.0
    gt = (-60.0, 120.0 / 256, 0.0, 60.0, 0.0, -120.0 / 256)
    inv = geo.inv_geotransform(gt)
    deg = float(np.degrees(1.0))
    half_pi = float(np.pi / 2.0)
    tx = "CAST(floor(({lon} + 180.0) / 360.0 * 16.0) AS BIGINT)"
    ty = ("CAST(floor((1.0 - ln(tan(radians({lat})) + 1.0/cos(radians({lat}))) / pi())"
          " / 2.0 * 16.0) AS BIGINT)")
    return f"""
xr AS (SELECT unnest(generate_series({tx.format(lon='-59.0')},
                                     {tx.format(lon='59.0')})) AS x),
yr AS (SELECT unnest(generate_series({ty.format(lat='59.0')},
                                     {ty.format(lat='-59.0')})) AS y),
t4 AS (SELECT x, y FROM xr, yr),
ij AS (SELECT a.range AS i, b.range AS j FROM range(64) a, range(64) b),
p4g AS (SELECT x, y, i, j,
          (-{O!r} + x * {size4!r}) AS minx,
          ({O!r} - y * {size4!r}) AS maxy
        FROM t4, ij),
p4m AS (SELECT x, y, i, j,
          minx + (i + 0.5) * (((minx + {size4!r}) - minx) / 64.0) AS mx,
          maxy - (j + 0.5) * (((minx + {size4!r}) - minx) / 64.0) AS my
        FROM p4g),
p4l AS (SELECT x, y, i, j, mx / {O / 180.0!r} AS lon,
          (2.0 * atan(exp(my / {geo.EARTH_RADIUS!r})) - {half_pi!r}) * {deg!r} AS lat
        FROM p4m),
p4px AS (SELECT x, y, i, j,
           {inv[0]!r} + lon * {inv[1]!r} AS px,
           {inv[3]!r} + lat * {inv[5]!r} AS py
         FROM p4l)
"""


def _warp_inv_consts() -> dict:
    """Inverse-geotransform constants of the ramp source as repr'd literals."""
    from gdal_ray.functions import geo

    inv = geo.inv_geotransform((-60.0, 120.0 / 256, 0.0, 60.0, 0.0, -120.0 / 256))
    return {"inv0": repr(inv[0]), "inv1": repr(inv[1]),
            "inv3": repr(inv[3]), "inv5": repr(inv[5])}


def _cubic_weight_exprs(t: str) -> list:
    """Catmull-Rom weight SQL for offsets -1..2 — same parenthesization as
    pyramid.TileWarper._cubic_weights."""
    return [
        f"(((-0.5*{t} + 1.0)*{t} - 0.5)*{t})",
        f"((((1.5*{t} - 2.5)*{t})*{t}) + 1.0)",
        f"((((-1.5*{t} + 2.0)*{t}) + 0.5)*{t})",
        f"(((0.5*{t} - 0.5)*{t})*{t})",
    ]


def _tile_pyramid_cubic_sql() -> str:
    """z4 Catmull-Rom warp of the ramp: the 16-tap convolution written out
    term by term in the engine's accumulation order, taps clamped to the
    source edge, nodata 0 where the nearest-inclusion test fails."""
    wx = _cubic_weight_exprs("tx")
    wy = _cubic_weight_exprs("ty")
    terms = []
    for mi, m in enumerate(range(-1, 3)):
        cy = f"LEAST(GREATEST(y0 + {m}, 0), 255)"
        for ni, n in enumerate(range(-1, 3)):
            cx = f"LEAST(GREATEST(x0 + {n}, 0), 255)"
            terms.append(f"{wy[mi]} * {wx[ni]} * (CAST({cy} + {cx} AS DOUBLE) + 1.0)")
    conv = " + ".join(terms)
    return f"""
        WITH {_warp_grid_ctes()},
        pf AS (SELECT x, y, i, j, px, py,
                 CAST(floor(px - 0.5) AS BIGINT) AS x0,
                 CAST(floor(py - 0.5) AS BIGINT) AS y0,
                 (px - 0.5) - CAST(floor(px - 0.5) AS BIGINT) AS tx,
                 (py - 0.5) - CAST(floor(py - 0.5) AS BIGINT) AS ty
               FROM p4px),
        p4 AS (SELECT x, y, i, j,
                 CASE WHEN floor(px) >= 0 AND floor(px) < 256
                       AND floor(py) >= 0 AND floor(py) < 256
                      THEN {conv} ELSE 0.0 END AS v
               FROM pf)
        SELECT 4 AS z, CAST(x AS INTEGER) AS x, CAST(y AS INTEGER) AS y,
               CAST(sum(CAST(trunc(v) AS BIGINT) * ((j * 64 + i) % 7 + 1)) % 65536
                    AS BIGINT) AS checksum
        FROM p4 GROUP BY 2, 3
    """


def _overview_kernels_sql() -> str:
    """z3 overview reductions of the nearest-warped z4 base for every
    2x2 kernel (pyramid._overview_reduce): per-parent-pixel aggregates over
    the four child pixels; mode ties break to the smallest value."""
    head = f"""
        WITH {_warp_grid_ctes()},
        p4 AS (SELECT x, y, i, j,
                 CASE WHEN CAST(floor(px) AS BIGINT) >= 0 AND CAST(floor(px) AS BIGINT) < 256
                       AND CAST(floor(py) AS BIGINT) >= 0 AND CAST(floor(py) AS BIGINT) < 256
                      THEN CAST(CAST(floor(px) AS BIGINT) + CAST(floor(py) AS BIGINT)
                                AS DOUBLE) + 1.0
                      ELSE 0.0 END AS v
               FROM p4px),
        pp AS (SELECT x // 2 AS x, y // 2 AS y,
                      (x % 2) * 32 + i // 2 AS i, (y % 2) * 32 + j // 2 AS j,
                      i % 2 AS ei, j % 2 AS ej, v
               FROM p4)
    """
    simple = {
        "nearest": "max(CASE WHEN ei = 0 AND ej = 0 THEN v END)",
        "min": "min(v)",
        "max": "max(v)",
        "sum": "sum(v)",
        "rms": "sqrt(sum(v * v) / 4.0)",
    }
    selects = []
    for k, expr in simple.items():
        selects.append(f"""
        SELECT '{k}' AS kernel, x, y, i, j, {expr} AS v
        FROM pp GROUP BY x, y, i, j""")
    mode = """
        SELECT 'mode' AS kernel, x, y, i, j, v FROM (
          SELECT x, y, i, j, v,
                 row_number() OVER (PARTITION BY x, y, i, j
                                    ORDER BY cnt DESC, v ASC) AS rn
          FROM (SELECT x, y, i, j, v, count(*) AS cnt
                FROM pp GROUP BY x, y, i, j, v))
        WHERE rn = 1"""
    union = " UNION ALL ".join(selects + [mode])
    return f"""
        {head},
        red AS ({union})
        SELECT 3 AS z, CAST(x AS INTEGER) AS x, CAST(y AS INTEGER) AS y,
               CAST(sum(CAST(trunc(v) AS BIGINT) * ((j * 64 + i) % 7 + 1)) % 65536
                    AS BIGINT) AS checksum,
               kernel
        FROM red GROUP BY kernel, x, y
    """


def _color_relief_sql() -> str:
    """Per-band checksums of the piecewise-linear color ramp over the 3x3
    ramp mosaic (rastermap.color_relief integer floor arithmetic)."""
    from gdal_ray.pipelines.queries import COLOR_STOPS

    sv = [s[0] for s in COLOR_STOPS]

    def chan(ci: int) -> str:
        branches = []
        for si in range(len(COLOR_STOPS) - 1):
            v0, v1 = sv[si], sv[si + 1]
            c0, c1 = COLOR_STOPS[si][1 + ci], COLOR_STOPS[si + 1][1 + ci]
            cond = f"v < {v1}" if si < len(COLOR_STOPS) - 2 else "true"
            branches.append(
                f"WHEN {cond} THEN ({c0} * ({v1} - v) + {c1} * (v - {v0})) // {v1 - v0}"
            )
        return "CASE " + " ".join(branches) + " END"

    return f"""
        WITH px AS (SELECT a.range AS gx, b.range AS gy FROM range(192) a, range(192) b),
        pv AS (SELECT gx, gy, gx + gy AS v FROM px),
        col AS (SELECT gx, gy, {chan(0)} AS cr, {chan(1)} AS cg, {chan(2)} AS cb FROM pv)
        SELECT CAST(gx // 64 AS INTEGER) AS x, CAST(gy // 64 AS INTEGER) AS y,
               CAST(sum(cr * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536 AS BIGINT)
                 AS checksum_r,
               CAST(sum(cg * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536 AS BIGINT)
                 AS checksum_g,
               CAST(sum(cb * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536 AS BIGINT)
                 AS checksum_b
        FROM col GROUP BY 1, 2
    """


def _predicate_counts_sql() -> str:
    """Predicate classification over the two integer-grid rect layers —
    exact integer interval arithmetic (pip.polygon_predicate mirror)."""
    return """
        WITH p AS (SELECT p_partkey AS l_id,
                          -180 + (p_partkey * 7321) % 330 AS x0,
                          -85 + (p_partkey * 4231) % 150 AS y0,
                          2 + (p_partkey * 131) % 8 AS w,
                          2 + (p_partkey * 197) % 6 AS h
                   FROM part),
        c AS (SELECT c_custkey AS r_id,
                     -180 + (c_custkey * 5179) % 330 AS x0,
                     -85 + (c_custkey * 3607) % 150 AS y0,
                     2 + (c_custkey * 149) % 8 AS w,
                     2 + (c_custkey * 211) % 6 AS h
              FROM customer),
        j AS (SELECT LEAST(p.x0 + p.w, c.x0 + c.w) - GREATEST(p.x0, c.x0) AS iw,
                     LEAST(p.y0 + p.h, c.y0 + c.h) - GREATEST(p.y0, c.y0) AS ih,
                     p.w * p.h AS aa, c.w * c.h AS ab
              FROM p, c
              WHERE LEAST(p.x0 + p.w, c.x0 + c.w) >= GREATEST(p.x0, c.x0)
                AND LEAST(p.y0 + p.h, c.y0 + c.h) >= GREATEST(p.y0, c.y0)),
        k AS (SELECT CASE WHEN iw = 0 OR ih = 0 THEN 'touches'
                          WHEN iw * ih = aa AND iw * ih = ab THEN 'equals'
                          WHEN iw * ih = ab THEN 'contains'
                          WHEN iw * ih = aa THEN 'within'
                          ELSE 'overlaps' END AS predicate
              FROM j)
        SELECT predicate, CAST(count(*) AS BIGINT) AS n_pairs
        FROM k GROUP BY predicate
    """


def _media_resize_sql() -> str:
    """Resized-thumb oracle: pixel chain -> 2x2 half-up block average ->
    mean_x100 + position-weighted mod-65536 checksum (ThumbResizer)."""
    return """
        WITH docs AS (SELECT range AS k FROM range(2000)),
        sp AS (SELECT k, j.j AS j FROM docs,
               LATERAL (SELECT unnest(generate_series(0, k % 4)) AS j) j),
        ms AS (SELECT k, j,
                      ['text','image','audio','video'][(k + j) % 4 + 1] AS kind
               FROM sp),
        med AS (SELECT k, j, kind,
                       'media://' || kind || '/' || printf('%09d', k) || '/'
                         || CAST(j AS VARCHAR) AS ref
                FROM ms WHERE kind <> 'text'),
        pxm AS (SELECT k, j, ref, i.i AS idx,
                       md5(ref || ':' || CAST(i.i // 16 AS VARCHAR)) AS h
                FROM med, LATERAL (SELECT unnest(generate_series(0, 63)) AS i) i),
        pxv AS (SELECT k, j, ref, idx,
                       strpos('123456789abcdef', substr(h, 2 * (idx % 16) + 1, 1)) * 16
                     + strpos('123456789abcdef', substr(h, 2 * (idx % 16) + 2, 1)) AS val
                FROM pxm),
        blk AS (SELECT k, j, ref,
                       (idx // 8) // 2 AS br, (idx % 8) // 2 AS bc,
                       (2 * sum(val) + 4) // 8 AS bval
                FROM pxv GROUP BY 1, 2, 3, 4, 5)
        SELECT printf('doc-%09d', k) AS doc_id,
               CAST(j AS BIGINT) AS span_idx, ref AS media_ref,
               CAST((sum(bval) * 200 + 16) // 32 AS BIGINT) AS r_mean_x100,
               CAST(sum(bval * ((br * 4 + bc) % 7 + 1)) % 65536 AS BIGINT)
                 AS r_checksum
        FROM blk GROUP BY 1, 2, 3
    """


def _video_frames_sql() -> str:

    """Frame-sample oracle: every video span's frames 0 and 2 (stride 2 of
    4), pixel chain md5('{fref}:{block}') with fref = ref (frame 0) or
    ref#f{k}; exact integer mean (stages/media.fake_frames/FrameSampler)."""
    return """
        WITH docs AS (SELECT range AS k FROM range(2000)),
        sp AS (SELECT k, j.j AS j FROM docs,
               LATERAL (SELECT unnest(generate_series(0, k % 4)) AS j) j),
        ms AS (SELECT k, j,
                      ['text','image','audio','video'][(k + j) % 4 + 1] AS kind
               FROM sp),
        med AS (SELECT k, j,
                       'media://video/' || printf('%09d', k) || '/'
                         || CAST(j AS VARCHAR) AS ref
                FROM ms WHERE kind = 'video'),
        fr AS (SELECT k, j, ref, f.f AS fi,
                      CASE WHEN f.f = 0 THEN ref
                           ELSE ref || '#f' || CAST(f.f AS VARCHAR) END AS fref
               FROM med, (SELECT unnest([0, 2]) AS f) f),
        pxm AS (SELECT k, j, ref, fi, i.i AS idx,
                       md5(fref || ':' || CAST(i.i // 16 AS VARCHAR)) AS h
                FROM fr, LATERAL (SELECT unnest(generate_series(0, 63)) AS i) i),
        pxv AS (SELECT k, j, ref, fi,
                       strpos('123456789abcdef', substr(h, 2 * (idx % 16) + 1, 1)) * 16
                     + strpos('123456789abcdef', substr(h, 2 * (idx % 16) + 2, 1)) AS val
                FROM pxm)
        SELECT printf('doc-%09d', k) AS doc_id,
               CAST(j AS BIGINT) AS span_idx, ref AS media_ref,
               CAST(fi AS BIGINT) AS frame_idx,
               CAST((sum(val) * 200 + 64) // 128 AS BIGINT) AS mean_x100
        FROM pxv GROUP BY 1, 2, 3, 4
    """


def _media_sql() -> str:
    """Media featurization over the synthetic 2000-doc interleaved corpus:
    span structure, md5-block fake decode, mean and dHash recomputed from
    scratch (sources/synthetic.make_docs + stages/media.DecodeBackend)."""
    return """
        WITH docs AS (SELECT range AS k FROM range(2000)),
        sp AS (SELECT k, j.j AS j FROM docs,
               LATERAL (SELECT unnest(generate_series(0, k % 4)) AS j) j),
        ms AS (SELECT k, j,
                      ['text','image','audio','video'][(k + j) % 4 + 1] AS kind
               FROM sp),
        med AS (SELECT k, j, kind,
                       'media://' || kind || '/' || printf('%09d', k) || '/'
                         || CAST(j AS VARCHAR) AS ref
                FROM ms WHERE kind <> 'text'),
        pxm AS (SELECT k, j, kind, ref, i.i AS idx,
                       md5(ref || ':' || CAST(i.i // 16 AS VARCHAR)) AS h
                FROM med, LATERAL (SELECT unnest(generate_series(0, 63)) AS i) i),
        pxv AS (SELECT k, j, kind, ref, idx,
                       strpos('123456789abcdef', substr(h, 2 * (idx % 16) + 1, 1)) * 16
                     + strpos('123456789abcdef', substr(h, 2 * (idx % 16) + 2, 1)) AS val
                FROM pxm),
        agg AS (SELECT k, j, kind, ref,
                       CAST((sum(val) * 200 + 64) // 128 AS BIGINT) AS mean_x100
                FROM pxv GROUP BY 1, 2, 3, 4),
        ph AS (SELECT a.k, a.j,
                      CAST(sum(CASE WHEN b.val > a.val
                               THEN CAST(1 AS BIGINT) << ((a.idx // 8) * 7 + (a.idx % 8))
                               ELSE 0 END) AS BIGINT) AS phash
               FROM pxv a JOIN pxv b ON b.k = a.k AND b.j = a.j AND b.idx = a.idx + 1
               WHERE a.idx % 8 < 7
               GROUP BY 1, 2)
        SELECT printf('doc-%09d', agg.k) AS doc_id,
               CAST(agg.j AS BIGINT) AS span_idx, agg.kind, agg.ref AS media_ref,
               agg.mean_x100, ph.phash
        FROM agg JOIN ph ON ph.k = agg.k AND ph.j = agg.j
    """


_LANG_STOPWORDS_SQL = {
    "en": ("the", "and", "of", "a", "to", "in", "is", "it", "that"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein", "zu"),
    "fr": ("le", "la", "les", "et", "est", "un", "une", "de"),
    "es": ("el", "la", "los", "y", "es", "un", "una", "que"),
}


def _langid_sql() -> str:
    """Stopword-vote language id: per-lang token-hit counts + first-max CASE
    chain (earlier language wins ties, all-zero -> 'und') — mirrors
    textops.LangId exactly."""
    hits = []
    for lang, words in _LANG_STOPWORDS_SQL.items():
        inlist = ", ".join(f"'{w}'" for w in words)
        hits.append(
            f"len(list_filter(regexp_extract_all(lower(text), '[a-z'']+'),"
            f" x -> x IN ({inlist}))) AS {lang}"
        )
    return f"""
        WITH h AS (SELECT doc_id, {", ".join(hits)} FROM documents)
        SELECT doc_id,
               CASE WHEN en > 0 AND en >= de AND en >= fr AND en >= es THEN 'en'
                    WHEN de > 0 AND de >= fr AND de >= es THEN 'de'
                    WHEN fr > 0 AND fr >= es THEN 'fr'
                    WHEN es > 0 THEN 'es'
                    ELSE 'und' END AS lang_pred
        FROM h
    """


def _tile_expr(z: int) -> str:
    n = float(1 << z)
    hi = (1 << z) - 1
    tx = f"LEAST(GREATEST(CAST(floor((lon + 180.0) / 360.0 * {n}) AS BIGINT), 0), {hi})"
    ty = (
        f"LEAST(GREATEST(CAST(floor((1.0 - ln(tan(radians(lat)) + 1.0/cos(radians(lat))) "
        f"/ pi()) / 2.0 * {n}) AS BIGINT), 0), {hi})"
    )
    return tx, ty


def _transformer_oracles() -> dict[str, str]:
    """SQL mirrors for the coordinate-transformer queries.

    Each oracle re-fits / re-derives the exact constants the engine uses
    (``gdal_ray.functions.transformer``) and inlines them via repr() so both
    sides evaluate the identical float64 expression tree; hyperbolics are
    exp/log-decomposed on both sides (transformer.py _sinh et al.)."""
    import numpy as np

    from gdal_ray.functions import transformer as tr
    from gdal_ray.pipelines import queries as q

    F = tr.sql_float

    e = tr.WGS84_E
    e2 = tr.WGS84_E2
    a_ = tr.WGS84_A

    # -- UTM zone 31: Krueger series (transformer.tmerc_forward) -----------
    A, alpha, _beta = tr._tm_constants()
    xi_terms = ["xi_p"]
    eta_terms = ["eta_p"]
    for j in range(6):
        tj = 2.0 * (j + 1)
        ch = f"((exp({F(tj)} * eta_p) + exp(-({F(tj)} * eta_p))) / 2.0)"
        sh = f"((exp({F(tj)} * eta_p) - exp(-({F(tj)} * eta_p))) / 2.0)"
        xi_terms.append(f"{F(alpha[j])} * sin({F(tj)} * xi_p) * {ch}")
        eta_terms.append(f"{F(alpha[j])} * cos({F(tj)} * xi_p) * {sh}")
    xi_expr = " + ".join(xi_terms)
    eta_expr = " + ".join(eta_terms)
    utm_sql = f"""
        WITH {_DOCS_GEO},
        f AS (SELECT doc_id, lon, lat FROM d
              WHERE abs(lon - 3.0) <= 6.0 AND abs(lat) <= 84.0),
        t1 AS (SELECT doc_id, radians(lat) AS phi, radians(lon - 3.0) AS lam FROM f),
        t2 AS (SELECT doc_id, lam, sin(phi) AS sphi, tan(phi) AS tau FROM t1),
        t3 AS (SELECT doc_id, lam,
                      ln(tau + sqrt(tau * tau + 1.0))
                      - {F(e)} * (0.5 * ln((1.0 + {F(e)} * sphi) / (1.0 - {F(e)} * sphi))) AS arg
               FROM t2),
        t4 AS (SELECT doc_id, lam, (exp(arg) - exp(-arg)) / 2.0 AS taup,
                      cos(lam) AS coslam FROM t3),
        t5 AS (SELECT doc_id, atan2(taup, coslam) AS xi_p,
                      sin(lam) / sqrt(taup * taup + coslam * coslam) AS s_eta FROM t4),
        t6 AS (SELECT doc_id, xi_p, ln(s_eta + sqrt(s_eta * s_eta + 1.0)) AS eta_p FROM t5),
        t7 AS (SELECT doc_id, {xi_expr} AS xi, {eta_expr} AS eta FROM t6)
        SELECT doc_id,
               CAST(round((500000.0 + 0.9996 * {F(A)} * eta) * 100.0) AS BIGINT) AS e_cm,
               CAST(round((0.0 + 0.9996 * {F(A)} * xi) * 100.0) AS BIGINT) AS n_cm
        FROM t7
    """

    # -- Lambert Conformal Conic 2SP (transformer.lcc_forward) -------------
    lp = q.LCC_PARAMS
    n_c, F_c, t0_c = tr.lcc_constants(lp["lat1"], lp["lat2"], lp["lat0"])
    rho0 = a_ * F_c * t0_c**n_c  # same scalar expression lcc_forward evaluates
    pi4 = float(np.pi / 4.0)
    half_e = e / 2.0
    lcc_sql = f"""
        WITH {_DOCS_GEO},
        f AS (SELECT doc_id, lon, lat FROM d
              WHERE abs(lon + 96.0) <= 30.0 AND lat >= 20.0 AND lat <= 60.0),
        t1 AS (SELECT doc_id, lon, radians(lat) AS phi FROM f),
        t2 AS (SELECT doc_id, lon, phi, sin(phi) AS sphi FROM t1),
        t3 AS (SELECT doc_id, lon,
                      tan({F(pi4)} - phi / 2.0)
                      / power((1.0 - {F(e)} * sphi) / (1.0 + {F(e)} * sphi), {F(half_e)}) AS t
               FROM t2),
        t4 AS (SELECT doc_id, {F(a_)} * {F(F_c)} * power(t, {F(n_c)}) AS rho,
                      {F(n_c)} * radians(lon - {F(lp['lon0'])}) AS theta FROM t3)
        SELECT doc_id,
               CAST(round((0.0 + rho * sin(theta)) * 100.0) AS BIGINT) AS e_cm,
               CAST(round((0.0 + {F(rho0)} - rho * cos(theta)) * 100.0) AS BIGINT) AS n_cm
        FROM t4
    """

    # -- 7-param Helmert datum shift + Bowring inverse ---------------------
    hp = q.HELMERT_PARAMS
    asec = np.pi / (180.0 * 3600.0)
    rxv, ryv, rzv = hp[3] * asec, hp[4] * asec, hp[5] * asec
    m = 1.0 + hp[6] * 1e-6
    b_ = a_ * (1.0 - tr.WGS84_F)
    ep2 = (a_ * a_ - b_ * b_) / (b_ * b_)
    one_m_e2 = 1.0 - e2
    datum_sql = f"""
        WITH {_DOCS_GEO},
        t1 AS (SELECT doc_id, radians(lon) AS lonr, radians(lat) AS latr FROM d),
        t2 AS (SELECT doc_id, lonr, latr, sin(latr) AS slat FROM t1),
        t3 AS (SELECT doc_id, lonr, latr, slat,
                      {F(a_)} / sqrt(1.0 - {F(e2)} * slat * slat) AS nu FROM t2),
        g AS (SELECT doc_id,
                     (nu + 0.0) * cos(latr) * cos(lonr) AS X,
                     (nu + 0.0) * cos(latr) * sin(lonr) AS Y,
                     (nu * {F(one_m_e2)} + 0.0) * slat AS Z FROM t3),
        hh AS (SELECT doc_id,
                      {F(hp[0])} + {F(m)} * (X - {F(rzv)} * Y + {F(ryv)} * Z) AS Xp,
                      {F(hp[1])} + {F(m)} * ({F(rzv)} * X + Y - {F(rxv)} * Z) AS Yp,
                      {F(hp[2])} + {F(m)} * (-({F(ryv)}) * X + {F(rxv)} * Y + Z) AS Zp FROM g),
        w AS (SELECT doc_id, Xp, Yp, Zp, sqrt(Xp * Xp + Yp * Yp) AS pr FROM hh),
        th AS (SELECT doc_id, Xp, Yp, Zp, pr,
                      atan2(Zp * {F(a_)}, pr * {F(b_)}) AS theta FROM w),
        tt AS (SELECT doc_id, Xp, Yp, Zp, pr, sin(theta) AS st, cos(theta) AS ct FROM th),
        ph AS (SELECT doc_id, Xp, Yp, pr,
                      atan2(Zp + {F(ep2)} * {F(b_)} * st * st * st,
                            pr - {F(e2)} * {F(a_)} * ct * ct * ct) AS phi FROM tt),
        fin AS (SELECT doc_id, atan2(Yp, Xp) AS lam, phi, sin(phi) AS sphi, pr FROM ph),
        fin2 AS (SELECT doc_id, lam, phi, pr,
                        {F(a_)} / sqrt(1.0 - {F(e2)} * sphi * sphi) AS nu2 FROM fin)
        SELECT doc_id,
               CAST(round(degrees(lam) * 10000000.0) AS BIGINT) AS lon_e7,
               CAST(round(degrees(phi) * 10000000.0) AS BIGINT) AS lat_e7,
               CAST(round((pr / cos(phi) - nu2) * 1000.0) AS BIGINT) AS h_mm
        FROM fin2
    """

    # -- fitted transformers: re-fit and inline coefficients ---------------
    sc_x = 100.0 / 360.0
    sc_y = 100.0 / 170.0
    pts = (f"p AS (SELECT doc_id, (lon + 180.0) * {F(sc_x)} AS x, "
           f"(lat + 85.0) * {F(sc_y)} AS y FROM d)")
    gx, gy = q._fit_gcp_poly().sql_exprs("x", "y")
    gcp_sql = f"""
        WITH {_DOCS_GEO}, {pts}
        SELECT doc_id,
               CAST(round({gx} * 10000.0) AS BIGINT) AS ox_e4,
               CAST(round({gy} * 10000.0) AS BIGINT) AS oy_e4
        FROM p
    """
    tx_, ty_ = q._fit_tps().sql_exprs("x", "y")
    tps_sql = f"""
        WITH {_DOCS_GEO}, {pts}
        SELECT doc_id,
               CAST(round({tx_} * 10000.0) AS BIGINT) AS ox_e4,
               CAST(round({ty_} * 10000.0) AS BIGINT) AS oy_e4
        FROM p
    """
    cexpr, rexpr = q._make_rpc().sql_exprs("lon", "lat", h=q.RPC_H)
    rpc_sql = f"""
        WITH {_DOCS_GEO}
        SELECT doc_id,
               CAST(round(({cexpr}) * 10000.0) AS BIGINT) AS col_e4,
               CAST(round(({rexpr}) * 10000.0) AS BIGINT) AS row_e4
        FROM d
    """
    # -- NTv2-style grid shift (transformer.GridShiftTransformer) ----------
    def gnode(kind: str, ie: str, je: str) -> str:
        if kind == "lon":
            return f"(((({ie})*7 + ({je})*3) % 11) - 5) * 0.25"
        return f"(((({ie})*5 + ({je})*11) % 13) - 6) * 0.125"

    def bilin(kind: str) -> str:
        return (f"({gnode(kind, 'i', 'j')} * (1.0 - tx) * (1.0 - ty)"
                f" + {gnode(kind, 'i + 1', 'j')} * tx * (1.0 - ty)"
                f" + {gnode(kind, 'i', 'j + 1')} * (1.0 - tx) * ty"
                f" + {gnode(kind, 'i + 1', 'j + 1')} * tx * ty)")

    grid_shift_sql = f"""
        WITH {_DOCS_GEO},
        p AS (SELECT doc_id, lon, lat,
                     (lon - (-180.0)) / 10.0 AS fx,
                     (lat - (-90.0)) / 10.0 AS fy FROM d),
        qq AS (SELECT doc_id, lon, lat, fx, fy,
                      LEAST(GREATEST(CAST(floor(fx) AS BIGINT), 0), 35) AS i,
                      LEAST(GREATEST(CAST(floor(fy) AS BIGINT), 0), 17) AS j FROM p),
        r AS (SELECT doc_id, lon, lat, i, j,
                     LEAST(GREATEST(fx - i, 0.0), 1.0) AS tx,
                     LEAST(GREATEST(fy - j, 0.0), 1.0) AS ty FROM qq)
        SELECT doc_id,
               CAST(floor((lon + {bilin('lon')} / 3600.0) * 10000000.0 + 0.5) AS BIGINT) AS lon_e7,
               CAST(floor((lat + {bilin('lat')} / 3600.0) * 10000000.0 + 0.5) AS BIGINT) AS lat_e7
        FROM r
    """
    # -- multi-subgrid grid shift: child (2.5 deg, [0,40]x[0,30]) wins ------
    def cnode(kind: str, ie: str, je: str) -> str:
        if kind == "lon":
            return f"(((({ie})*3 + ({je})*5) % 9) - 4) * 0.25"
        return f"(((({ie})*11 + ({je})*7) % 7) - 3) * 0.125"

    def cbilin(kind: str) -> str:
        return (f"({cnode(kind, 'ci', 'cj')} * (1.0 - ctx) * (1.0 - cty)"
                f" + {cnode(kind, 'ci + 1', 'cj')} * ctx * (1.0 - cty)"
                f" + {cnode(kind, 'ci', 'cj + 1')} * (1.0 - ctx) * cty"
                f" + {cnode(kind, 'ci + 1', 'cj + 1')} * ctx * cty)")

    grid_shift_multi_sql = f"""
        WITH {_DOCS_GEO},
        p AS (SELECT doc_id, lon, lat,
                     (lon - (-180.0)) / 10.0 AS fx,
                     (lat - (-90.0)) / 10.0 AS fy,
                     (lon - 0.0) / 2.5 AS cfx,
                     (lat - 0.0) / 2.5 AS cfy,
                     lon >= 0.0 AND lon <= 40.0 AND lat >= 0.0 AND lat <= 30.0
                         AS in_child
              FROM d),
        qq AS (SELECT doc_id, lon, lat, fx, fy, cfx, cfy, in_child,
                      LEAST(GREATEST(CAST(floor(fx) AS BIGINT), 0), 35) AS i,
                      LEAST(GREATEST(CAST(floor(fy) AS BIGINT), 0), 17) AS j,
                      LEAST(GREATEST(CAST(floor(cfx) AS BIGINT), 0), 15) AS ci,
                      LEAST(GREATEST(CAST(floor(cfy) AS BIGINT), 0), 11) AS cj
               FROM p),
        r AS (SELECT doc_id, lon, lat, i, j, ci, cj, in_child,
                     LEAST(GREATEST(fx - i, 0.0), 1.0) AS tx,
                     LEAST(GREATEST(fy - j, 0.0), 1.0) AS ty,
                     LEAST(GREATEST(cfx - ci, 0.0), 1.0) AS ctx,
                     LEAST(GREATEST(cfy - cj, 0.0), 1.0) AS cty
              FROM qq)
        SELECT doc_id,
               CAST(floor((lon + (CASE WHEN in_child THEN {cbilin('lon')}
                                       ELSE {bilin('lon')} END) / 3600.0)
                          * 10000000.0 + 0.5) AS BIGINT) AS lon_e7,
               CAST(floor((lat + (CASE WHEN in_child THEN {cbilin('lat')}
                                       ELSE {bilin('lat')} END) / 3600.0)
                          * 10000000.0 + 0.5) AS BIGINT) AS lat_e7
        FROM r
    """
    # -- composed chain: grid shift -> Helmert datum -> UTM ----------------
    chain_sql = f"""
        WITH {_DOCS_GEO},
        p0 AS (SELECT doc_id, lon, lat,
                      (lon - (-180.0)) / 10.0 AS fx,
                      (lat - (-90.0)) / 10.0 AS fy FROM d),
        p1 AS (SELECT doc_id, lon, lat, fx, fy,
                      LEAST(GREATEST(CAST(floor(fx) AS BIGINT), 0), 35) AS i,
                      LEAST(GREATEST(CAST(floor(fy) AS BIGINT), 0), 17) AS j FROM p0),
        p2 AS (SELECT doc_id, lon, lat, i, j,
                      LEAST(GREATEST(fx - i, 0.0), 1.0) AS tx,
                      LEAST(GREATEST(fy - j, 0.0), 1.0) AS ty FROM p1),
        p3 AS (SELECT doc_id, lon + {bilin('lon')} / 3600.0 AS lon1,
                      lat + {bilin('lat')} / 3600.0 AS lat1 FROM p2),
        d1 AS (SELECT doc_id, radians(lon1) AS lonr, radians(lat1) AS latr FROM p3),
        d2 AS (SELECT doc_id, lonr, latr, sin(latr) AS slat FROM d1),
        d3 AS (SELECT doc_id, lonr, latr, slat,
                      {F(a_)} / sqrt(1.0 - {F(e2)} * slat * slat) AS nu FROM d2),
        dg AS (SELECT doc_id,
                      (nu + 0.0) * cos(latr) * cos(lonr) AS X,
                      (nu + 0.0) * cos(latr) * sin(lonr) AS Y,
                      (nu * {F(one_m_e2)} + 0.0) * slat AS Z FROM d3),
        dh AS (SELECT doc_id,
                      {F(hp[0])} + {F(m)} * (X - {F(rzv)} * Y + {F(ryv)} * Z) AS Xp,
                      {F(hp[1])} + {F(m)} * ({F(rzv)} * X + Y - {F(rxv)} * Z) AS Yp,
                      {F(hp[2])} + {F(m)} * (-({F(ryv)}) * X + {F(rxv)} * Y + Z) AS Zp FROM dg),
        dw AS (SELECT doc_id, Xp, Yp, Zp, sqrt(Xp * Xp + Yp * Yp) AS pr FROM dh),
        dth AS (SELECT doc_id, Xp, Yp, Zp, pr,
                       atan2(Zp * {F(a_)}, pr * {F(b_)}) AS theta FROM dw),
        dtt AS (SELECT doc_id, Xp, Yp, Zp, pr, sin(theta) AS st, cos(theta) AS ct FROM dth),
        dph AS (SELECT doc_id, Xp, Yp,
                       atan2(Zp + {F(ep2)} * {F(b_)} * st * st * st,
                             pr - {F(e2)} * {F(a_)} * ct * ct * ct) AS phi FROM dtt),
        dd AS (SELECT doc_id, degrees(atan2(Yp, Xp)) AS lon2, degrees(phi) AS lat2 FROM dph),
        ff AS (SELECT doc_id, lon2, lat2 FROM dd
               WHERE abs(lon2 - 3.0) <= 6.0 AND abs(lat2) <= 84.0),
        u1 AS (SELECT doc_id, radians(lat2) AS phi, radians(lon2 - 3.0) AS lam FROM ff),
        u2 AS (SELECT doc_id, lam, sin(phi) AS sphi, tan(phi) AS tau FROM u1),
        u3 AS (SELECT doc_id, lam,
                      ln(tau + sqrt(tau * tau + 1.0))
                      - {F(e)} * (0.5 * ln((1.0 + {F(e)} * sphi) / (1.0 - {F(e)} * sphi))) AS arg
               FROM u2),
        u4 AS (SELECT doc_id, lam, (exp(arg) - exp(-arg)) / 2.0 AS taup,
                      cos(lam) AS coslam FROM u3),
        u5 AS (SELECT doc_id, atan2(taup, coslam) AS xi_p,
                      sin(lam) / sqrt(taup * taup + coslam * coslam) AS s_eta FROM u4),
        u6 AS (SELECT doc_id, xi_p, ln(s_eta + sqrt(s_eta * s_eta + 1.0)) AS eta_p FROM u5),
        u7 AS (SELECT doc_id, {xi_expr} AS xi, {eta_expr} AS eta FROM u6)
        SELECT doc_id,
               CAST(floor((500000.0 + 0.9996 * {F(A)} * eta) * 100.0 + 0.5) AS BIGINT) AS e_cm,
               CAST(floor((0.0 + 0.9996 * {F(A)} * xi) * 100.0 + 0.5) AS BIGINT) AS n_cm
        FROM u7
    """
    # -- polar stereographic variant B (transformer.stereo_polar_forward) --
    sp = q.STEREO_POLAR_PARAMS
    K_sp = tr.stereo_polar_constants(sp["lat_ts"], north=True)
    stereo_polar_sql = f"""
        WITH {_DOCS_GEO},
        f AS (SELECT doc_id, lon, lat FROM d WHERE lat >= 60.0),
        t1 AS (SELECT doc_id, radians(lat) AS phi,
                      radians(lon - {F(sp['lon0'])}) AS lam FROM f),
        t2 AS (SELECT doc_id, lam, sin(phi) AS sphi, phi FROM t1),
        t3 AS (SELECT doc_id, lam,
                      tan({F(float(np.pi / 4.0))} - phi / 2.0)
                      / power((1.0 - {F(e)} * sphi) / (1.0 + {F(e)} * sphi), {F(e / 2.0)}) AS t
               FROM t2)
        SELECT doc_id,
               CAST(round(({F(K_sp)} * t * sin(lam)) * 100.0) AS BIGINT) AS e_cm,
               CAST(round((-({F(K_sp)} * t * cos(lam))) * 100.0) AS BIGINT) AS n_cm
        FROM t3
    """

    # -- oblique stereographic on the conformal latitude -------------------
    so = q.STEREO_OBLIQUE_PARAMS
    phi1_so = np.radians(so["lat0"])
    chi1_so = float(tr._conformal_lat(np.float64(phi1_so)))
    m1_so = float(tr._lcc_m(np.float64(phi1_so)))
    s1_so, c1_so = float(np.sin(chi1_so)), float(np.cos(chi1_so))
    num_so = 2.0 * a_ * so["k0"] * m1_so  # same scalar product the engine forms
    stereo_oblique_sql = f"""
        WITH {_DOCS_GEO},
        f AS (SELECT doc_id, lon, lat FROM d
              WHERE abs(lon - {F(so['lon0'])}) <= 30.0 AND lat >= 20.0 AND lat <= 70.0),
        t1 AS (SELECT doc_id, radians(lat) AS phi,
                      radians(lon - {F(so['lon0'])}) AS lam FROM f),
        t2 AS (SELECT doc_id, lam, sin(phi) AS sphi, tan(phi) AS tau FROM t1),
        t3 AS (SELECT doc_id, lam,
                      ln(tau + sqrt(tau * tau + 1.0))
                      - {F(e)} * (0.5 * ln((1.0 + {F(e)} * sphi) / (1.0 - {F(e)} * sphi))) AS arg
               FROM t2),
        t4 AS (SELECT doc_id, lam, atan((exp(arg) - exp(-arg)) / 2.0) AS chi FROM t3),
        t5 AS (SELECT doc_id, lam, sin(chi) AS schi, cos(chi) AS cchi,
                      cos(lam) AS coslam FROM t4),
        t6 AS (SELECT doc_id, lam, schi, cchi, coslam,
                      {F(num_so)} / ({F(c1_so)} * (1.0 + {F(s1_so)} * schi
                                     + {F(c1_so)} * cchi * coslam)) AS A FROM t5)
        SELECT doc_id,
               CAST(round((0.0 + A * cchi * sin(lam)) * 100.0) AS BIGINT) AS e_cm,
               CAST(round((0.0 + A * ({F(c1_so)} * schi - {F(s1_so)} * cchi * coslam))
                          * 100.0) AS BIGINT) AS n_cm
        FROM t6
    """

    # -- Albers equal-area conic 2SP (transformer.aea_forward) -------------
    ap = q.AEA_PARAMS
    n_ae, C_ae, rho0_ae = tr.aea_constants(ap["lat1"], ap["lat2"], ap["lat0"])
    one_m_e2_ae = 1.0 - e2
    inv_2e = 1.0 / (2.0 * e)
    albers_sql = f"""
        WITH {_DOCS_GEO},
        f AS (SELECT doc_id, lon, lat FROM d
              WHERE abs(lon + 96.0) <= 30.0 AND lat >= 23.0 AND lat <= 52.0),
        t1 AS (SELECT doc_id, lon, sin(radians(lat)) AS sphi FROM f),
        t2 AS (SELECT doc_id, lon,
                      {F(one_m_e2_ae)} * (sphi / (1.0 - {F(e2)} * sphi * sphi)
                        - {F(inv_2e)} * ln((1.0 - {F(e)} * sphi) / (1.0 + {F(e)} * sphi))) AS qv
               FROM t1),
        t3 AS (SELECT doc_id,
                      {F(a_)} * sqrt({F(C_ae)} - {F(n_ae)} * qv) / {F(n_ae)} AS rho,
                      {F(n_ae)} * radians(lon - {F(ap['lon0'])}) AS theta FROM t2)
        SELECT doc_id,
               CAST(round((0.0 + rho * sin(theta)) * 100.0) AS BIGINT) AS e_cm,
               CAST(round((0.0 + {F(rho0_ae)} - rho * cos(theta)) * 100.0) AS BIGINT) AS n_cm
        FROM t3
    """

    # -- polar azimuthal equidistant (transformer.aeqd_polar_forward) ------
    (c0m, c2m, c4m, c6m), _dser = tr._merid_coeffs()
    Mp = float(tr.meridian_arc(np.float64(np.pi / 2.0)))
    aeqd_sql = f"""
        WITH {_DOCS_GEO},
        f AS (SELECT doc_id, lon, lat FROM d WHERE lat >= 50.0),
        t1 AS (SELECT doc_id, radians(lat) AS phi, radians(lon) AS lam FROM f),
        t2 AS (SELECT doc_id, lam,
                      {F(Mp)} - {F(a_)} * ({F(c0m)} * phi - {F(c2m)} * sin(2.0 * phi)
                        + {F(c4m)} * sin(4.0 * phi) - {F(c6m)} * sin(6.0 * phi)) AS rho
               FROM t1)
        SELECT doc_id,
               CAST(round((rho * sin(lam)) * 100.0) AS BIGINT) AS e_cm,
               CAST(round((-(rho * cos(lam))) * 100.0) AS BIGINT) AS n_cm
        FROM t2
    """

    # -- sinusoidal + equidistant cylindrical (meridian-arc built) ---------
    merid_expr = (f"{F(a_)} * ({F(c0m)} * phi - {F(c2m)} * sin(2.0 * phi)"
                  f" + {F(c4m)} * sin(4.0 * phi) - {F(c6m)} * sin(6.0 * phi))")
    sinusoidal_sql = f"""
        WITH {_DOCS_GEO},
        t1 AS (SELECT doc_id, radians(lat) AS phi, radians(lon) AS lam FROM d),
        t2 AS (SELECT doc_id, lam, phi, sin(phi) AS sphi FROM t1)
        SELECT doc_id,
               CAST(round(({F(a_)} * lam * cos(phi)
                           / sqrt(1.0 - {F(e2)} * sphi * sphi)) * 100.0)
                    AS BIGINT) AS e_cm,
               CAST(round(({merid_expr}) * 100.0) AS BIGINT) AS n_cm
        FROM t2
    """
    nu1cos_eqc = float(a_ * tr._lcc_m(np.float64(np.radians(30.0))))
    eqc_sql = f"""
        WITH {_DOCS_GEO},
        t1 AS (SELECT doc_id, radians(lat) AS phi, radians(lon) AS lam FROM d)
        SELECT doc_id,
               CAST(round(({F(nu1cos_eqc)} * lam) * 100.0) AS BIGINT) AS e_cm,
               CAST(round(({merid_expr}) * 100.0) AS BIGINT) AS n_cm
        FROM t1
    """

    # -- LAEA oblique/polar + CEA (transformer.laea/cea_forward) ----------
    qp_ = float(tr._aea_q(np.pi / 2.0))
    p0_ = float(np.radians(52.0))
    beta1_ = float(np.arcsin(tr._aea_q(p0_) / qp_))
    Rq_ = float(a_ * np.sqrt(qp_ / 2.0))
    m1_ = float(tr._lcc_m(np.float64(p0_)))
    D_ = float(a_ * m1_ / (Rq_ * np.cos(beta1_)))
    sb1_, cb1_ = float(np.sin(beta1_)), float(np.cos(beta1_))
    k0cea_ = float(tr._lcc_m(np.float64(np.radians(30.0))))
    q_expr = (f"(1.0 - {F(e2)}) * (sphi / (1.0 - {F(e2)} * sphi * sphi)"
              f" - (1.0 / (2.0 * {F(e)}))"
              f" * ln((1.0 - {F(e)} * sphi) / (1.0 + {F(e)} * sphi)))")
    laea_cea_sql = f"""
        WITH {_DOCS_GEO},
        f AS (SELECT doc_id, lon, lat FROM d
              WHERE abs(lon - 10.0) <= 25.0 AND lat >= 35.0 AND lat <= 70.0),
        t1 AS (SELECT doc_id, lon, sin(radians(lat)) AS sphi FROM f),
        t2 AS (SELECT doc_id, lon, {q_expr} AS q FROM t1),
        t3 AS (SELECT doc_id, lon, q,
                      asin(least(greatest(q / {F(qp_)}, -1.0), 1.0)) AS beta
               FROM t2),
        ob AS (SELECT doc_id, q, sin(beta) AS sb, cos(beta) AS cb,
                      radians(lon - 10.0) AS lam, radians(lon) AS lamp
               FROM t3),
        b AS (SELECT doc_id, q, sb, cb, lam, lamp,
                     {F(Rq_)} * sqrt(2.0 / (1.0 + {F(sb1_)} * sb
                                            + {F(cb1_)} * cb * cos(lam))) AS B
              FROM ob)
        SELECT doc_id,
          CAST(round((4321000.0 + B * {F(D_)} * cb * sin(lam)) * 100.0)
               AS BIGINT) AS laea_e_cm,
          CAST(round((3210000.0 + (B / {F(D_)})
                      * ({F(cb1_)} * sb - {F(sb1_)} * cb * cos(lam))) * 100.0)
               AS BIGINT) AS laea_n_cm,
          CAST(round(({F(a_)} * sqrt(greatest({F(qp_)} - q, 0.0)) * sin(lamp))
                     * 100.0) AS BIGINT) AS pol_e_cm,
          CAST(round((-({F(a_)} * sqrt(greatest({F(qp_)} - q, 0.0))
                        * cos(lamp))) * 100.0) AS BIGINT) AS pol_n_cm,
          CAST(round(({F(a_)} * {F(k0cea_)} * lamp) * 100.0) AS BIGINT)
               AS cea_e_cm,
          CAST(round(({F(a_)} * q / (2.0 * {F(k0cea_)})) * 100.0) AS BIGINT)
               AS cea_n_cm
        FROM b
    """

    return {
        "reproject_laea_cea": laea_cea_sql,
        "reproject_utm": utm_sql,
        "reproject_lcc": lcc_sql,
        "reproject_sinusoidal": sinusoidal_sql,
        "reproject_eqc": eqc_sql,
        "reproject_stereo_polar": stereo_polar_sql,
        "reproject_stereo_oblique": stereo_oblique_sql,
        "reproject_albers": albers_sql,
        "reproject_aeqd": aeqd_sql,
        "datum_helmert": datum_sql,
        "gcp_polynomial": gcp_sql,
        "tps_warp": tps_sql,
        "rpc_transform": rpc_sql,
        # geolocation arrays: the forward bilinear over the dyadic node
        # formula X(i,j)=4i+j^2/8, Y(i,j)=3j+i^2/16-i/4 is bit-exact in SQL;
        # the exact-inverse-bilinear roundtrip returns the integer keys
        "geoloc_transform": """
            WITH p AS (
              SELECT doc_id,
                     CAST(n_chars % 47 AS DOUBLE) / 2.0 AS gp,
                     CAST(doc_id % 31 AS DOUBLE) / 2.0 AS gl
              FROM documents
            ), c AS (
              SELECT doc_id, gp, gl,
                     CAST(floor(gp) AS BIGINT) AS i,
                     CAST(floor(gl) AS BIGINT) AS j,
                     gp - floor(gp) AS s, gl - floor(gl) AS t
              FROM p
            )
            SELECT doc_id,
              CAST(round(64 * (
                  (1-s)*(1-t) * (4*i + j*j/8.0)
                + s*(1-t)     * (4*(i+1) + j*j/8.0)
                + (1-s)*t     * (4*i + (j+1)*(j+1)/8.0)
                + s*t         * (4*(i+1) + (j+1)*(j+1)/8.0))) AS BIGINT) AS x64,
              CAST(round(64 * (
                  (1-s)*(1-t) * (3*j + i*i/16.0 - i/4.0)
                + s*(1-t)     * (3*j + (i+1)*(i+1)/16.0 - (i+1)/4.0)
                + (1-s)*t     * (3*(j+1) + i*i/16.0 - i/4.0)
                + s*t         * (3*(j+1) + (i+1)*(i+1)/16.0 - (i+1)/4.0))) AS BIGINT) AS y64,
              CAST(n_chars % 47 AS BIGINT) AS rk,
              CAST(doc_id % 31 AS BIGINT) AS rm
            FROM c JOIN documents USING (doc_id)
        """,
        "grid_shift": grid_shift_sql,
        "grid_shift_gsb": grid_shift_sql,
        "grid_shift_multi": grid_shift_multi_sql,
        "transform_chain": chain_sql,
    }


def _crs_oracles() -> dict[str, str]:
    """SQL mirrors for the registry-routed reproject queries (round 5:
    the general-CRS front door, gdal_ray.functions.crs).

    Each mirror replays ``crs.from_wgs84_lonlat`` for one EPSG code: the
    negated-towgs84 Helmert through geocentric coordinates (cross-ellipsoid
    Bowring inverse), then the projection-family forward on the CRS's own
    ellipsoid, with every scalar constant inlined via repr so both sides
    evaluate the identical float64 expression tree (hyperbolics
    exp/log-decomposed exactly as transformer.py does)."""
    import numpy as np

    from gdal_ray.functions import crs as crsmod
    from gdal_ray.functions import transformer as tr
    from gdal_ray.pipelines import queries as q

    F = tr.sql_float
    aW, fW = tr.WGS84_A, tr.WGS84_F
    e2W = fW * (2.0 - fW)
    pi4 = float(np.pi / 4.0)

    def window_cte(code: int) -> str:
        lon_c, hw, lat_lo, lat_hi = q.CRS_QUERY_WINDOWS[code]
        return (f"f AS (SELECT doc_id, lon, lat FROM d "
                f"WHERE abs(lon - ({F(lon_c)})) <= {F(hw)} "
                f"AND lat >= {F(lat_lo)} AND lat <= {F(lat_hi)})")

    def datum_ctes(towgs84, a2: float, f2: float) -> str:
        """CTE chain f(lon,lat) -> d2(doc_id, lon2, lat2): the engine's
        datum_shift_lonlat_ell with NEGATED params (WGS84 -> local)."""
        hp = tuple(-v for v in towgs84)
        asec = np.pi / (180.0 * 3600.0)
        rxv, ryv, rzv = hp[3] * asec, hp[4] * asec, hp[5] * asec
        m = 1.0 + hp[6] * 1e-6
        e2_2 = f2 * (2.0 - f2)
        b2 = a2 * (1.0 - f2)
        ep2 = (a2 * a2 - b2 * b2) / (b2 * b2)
        return f"""
        t1 AS (SELECT doc_id, radians(lon) AS lonr, radians(lat) AS latr
               FROM f),
        t2 AS (SELECT doc_id, lonr, latr, sin(latr) AS slat FROM t1),
        t3 AS (SELECT doc_id, lonr, latr, slat,
                      {F(aW)} / sqrt(1.0 - {F(e2W)} * slat * slat) AS nu
               FROM t2),
        g AS (SELECT doc_id,
                     (nu + 0.0) * cos(latr) * cos(lonr) AS X,
                     (nu + 0.0) * cos(latr) * sin(lonr) AS Y,
                     (nu * {F(1.0 - e2W)} + 0.0) * slat AS Z FROM t3),
        hh AS (SELECT doc_id,
                      {F(hp[0])} + {F(m)} * (X - {F(rzv)} * Y
                                             + {F(ryv)} * Z) AS Xp,
                      {F(hp[1])} + {F(m)} * ({F(rzv)} * X + Y
                                             - {F(rxv)} * Z) AS Yp,
                      {F(hp[2])} + {F(m)} * (-({F(ryv)}) * X + {F(rxv)} * Y
                                             + Z) AS Zp FROM g),
        w AS (SELECT doc_id, Xp, Yp, Zp,
                     sqrt(Xp * Xp + Yp * Yp) AS pr FROM hh),
        th AS (SELECT doc_id, Xp, Yp, Zp, pr,
                      atan2(Zp * {F(a2)}, pr * {F(b2)}) AS theta FROM w),
        tt AS (SELECT doc_id, Xp, Yp, Zp, pr,
                      sin(theta) AS st, cos(theta) AS ct FROM th),
        d2 AS (SELECT doc_id,
                      degrees(atan2(Yp, Xp)) AS lon2,
                      degrees(atan2(Zp + {F(ep2 * b2)} * st * st * st,
                                    pr - {F(e2_2 * a2)} * ct * ct * ct))
                        AS lat2
               FROM tt)"""

    ident_ctes = """
        d2 AS (SELECT doc_id, lon, lat FROM f)"""

    def tmerc_tail(kw: dict, a2: float, f2: float,
                   loncol="lon2", latcol="lat2") -> str:
        e = float(np.sqrt(f2 * (2.0 - f2)))
        A, alpha, _beta = tr._tm_constants(a2, f2)
        k0 = kw.get("k0", 1.0)
        fn_eff = kw.get("fn", 0.0) - tr.tmerc_natural_origin_northing(
            kw.get("lat0", 0.0), k0, a2, f2)
        xi_terms, eta_terms = ["xi_p"], ["eta_p"]
        for j in range(6):
            tj = 2.0 * (j + 1)
            ch = (f"((exp({F(tj)} * eta_p) + exp(-({F(tj)} * eta_p)))"
                  " / 2.0)")
            sh = (f"((exp({F(tj)} * eta_p) - exp(-({F(tj)} * eta_p)))"
                  " / 2.0)")
            xi_terms.append(f"{F(alpha[j])} * sin({F(tj)} * xi_p) * {ch}")
            eta_terms.append(f"{F(alpha[j])} * cos({F(tj)} * xi_p) * {sh}")
        return f"""
        m1 AS (SELECT doc_id, radians({latcol}) AS phi,
                      radians({loncol} - ({F(kw['lon0'])})) AS lam FROM d2),
        m2 AS (SELECT doc_id, lam, sin(phi) AS sphi, tan(phi) AS tau
               FROM m1),
        m3 AS (SELECT doc_id, lam,
                      ln(tau + sqrt(tau * tau + 1.0))
                      - {F(e)} * (0.5 * ln((1.0 + {F(e)} * sphi)
                                           / (1.0 - {F(e)} * sphi))) AS arg
               FROM m2),
        m4 AS (SELECT doc_id, lam, (exp(arg) - exp(-arg)) / 2.0 AS taup,
                      cos(lam) AS coslam FROM m3),
        m5 AS (SELECT doc_id, atan2(taup, coslam) AS xi_p,
                      sin(lam) / sqrt(taup * taup + coslam * coslam) AS s_e
               FROM m4),
        m6 AS (SELECT doc_id, xi_p,
                      ln(s_e + sqrt(s_e * s_e + 1.0)) AS eta_p FROM m5),
        m7 AS (SELECT doc_id, {' + '.join(xi_terms)} AS xi,
                      {' + '.join(eta_terms)} AS eta FROM m6)
        SELECT doc_id,
               CAST(round(({F(kw.get('fe', 0.0))} + {F(k0)} * {F(A)} * eta)
                          * 100.0) AS BIGINT) AS e_cm,
               CAST(round(({F(fn_eff)} + {F(k0)} * {F(A)} * xi) * 100.0)
                    AS BIGINT) AS n_cm
        FROM m7"""

    def lcc_tail(kw: dict, a2: float, f2: float,
                 loncol="lon2", latcol="lat2") -> str:
        e = float(np.sqrt(f2 * (2.0 - f2)))
        n_c, F_c, t0_c = tr.lcc_constants(kw["lat1"], kw["lat2"],
                                          kw["lat0"], f2)
        rho0 = a2 * F_c * t0_c ** n_c
        half_e = e / 2.0
        return f"""
        m1 AS (SELECT doc_id, {loncol} AS lon3, radians({latcol}) AS phi
               FROM d2),
        m2 AS (SELECT doc_id, lon3, phi, sin(phi) AS sphi FROM m1),
        m3 AS (SELECT doc_id, lon3,
                      tan({F(pi4)} - phi / 2.0)
                      / power((1.0 - {F(e)} * sphi)
                              / (1.0 + {F(e)} * sphi), {F(half_e)}) AS t
               FROM m2),
        m4 AS (SELECT doc_id,
                      {F(a2)} * {F(F_c)} * power(t, {F(n_c)}) AS rho,
                      {F(n_c)} * radians(lon3 - ({F(kw['lon0'])})) AS theta
               FROM m3)
        SELECT doc_id,
               CAST(round(({F(kw.get('fe', 0.0))} + rho * sin(theta))
                          * 100.0) AS BIGINT) AS e_cm,
               CAST(round(({F(kw.get('fn', 0.0))} + {F(rho0)}
                           - rho * cos(theta)) * 100.0) AS BIGINT) AS n_cm
        FROM m4"""

    def somerc_tail(kw: dict, a2: float, f2: float) -> str:
        e = float(np.sqrt(f2 * (2.0 - f2)))
        c, R, b0, K = tr.somerc_constants(kw["lat0"], kw["k0"], a2, f2)
        sb0, cb0 = float(np.sin(b0)), float(np.cos(b0))
        return f"""
        m1 AS (SELECT doc_id, lon2, radians(lat2) AS phi FROM d2),
        m2 AS (SELECT doc_id, lon2, phi, sin(phi) AS sphi FROM m1),
        m3 AS (SELECT doc_id, lon2,
                      {F(c)} * (ln(tan({F(pi4)} + phi / 2.0))
                                - {F(e / 2.0)}
                                  * ln((1.0 + {F(e)} * sphi)
                                       / (1.0 - {F(e)} * sphi))) + {F(K)}
                        AS S FROM m2),
        m4 AS (SELECT doc_id, lon2,
                      2.0 * (atan(exp(S)) - {F(pi4)}) AS b FROM m3),
        m5 AS (SELECT doc_id, sin(b) AS sb, cos(b) AS cb,
                      {F(c)} * radians(lon2 - ({F(kw['lon0'])})) AS l
               FROM m4),
        m6 AS (SELECT doc_id, sb, cb, sin(l) AS sl, cos(l) AS cl FROM m5),
        m7 AS (SELECT doc_id,
                      asin({F(cb0)} * sb - {F(sb0)} * cb * cl) AS bbar,
                      atan2(cb * sl, {F(cb0)} * cb * cl + {F(sb0)} * sb)
                        AS lbar FROM m6),
        m8 AS (SELECT doc_id, lbar, sin(bbar) AS sbb FROM m7)
        SELECT doc_id,
               CAST(round(({F(kw['fe'])} + {F(R)} * lbar) * 100.0)
                    AS BIGINT) AS e_cm,
               CAST(round(({F(kw['fn'])} + {F(R / 2.0)}
                           * ln((1.0 + sbb) / (1.0 - sbb))) * 100.0)
                    AS BIGINT) AS n_cm
        FROM m8"""

    def krovak_tail(kw: dict, a2: float, f2: float) -> str:
        e = float(np.sqrt(f2 * (2.0 - f2)))
        A_, B, g0, t0, n, r0 = tr.krovak_constants(
            kw["lat_c"], kw["lat_p"], kw["k"], a2, f2)
        ac = float(np.radians(kw["alpha_c"]))
        cac, sac = float(np.cos(ac)), float(np.sin(ac))
        eB2 = e * B / 2.0
        rnum = r0 * float(
            np.tan(np.pi / 4.0 + np.radians(kw["lat_p"]) / 2.0) ** n)
        return f"""
        m1 AS (SELECT doc_id, lon2, radians(lat2) AS phi FROM d2),
        m2 AS (SELECT doc_id, lon2, phi, sin(phi) AS sphi FROM m1),
        m3 AS (SELECT doc_id, lon2,
                      2.0 * (atan({F(t0)}
                                  * power(tan({F(pi4)} + phi / 2.0), {F(B)})
                                  / power((1.0 + {F(e)} * sphi)
                                          / (1.0 - {F(e)} * sphi),
                                          {F(eB2)})) - {F(pi4)}) AS U
               FROM m2),
        m4 AS (SELECT doc_id, U,
                      {F(B)} * radians({F(kw['lon0'])} - lon2) AS V FROM m3),
        m5 AS (SELECT doc_id, sin(U) AS sU, cos(U) AS cU,
                      sin(V) AS sV, cos(V) AS cV FROM m4),
        m6 AS (SELECT doc_id, cU, sV,
                      asin({F(cac)} * sU + {F(sac)} * cU * cV) AS T FROM m5),
        m7 AS (SELECT doc_id, T, asin(cU * sV / cos(T)) AS D FROM m6),
        m8 AS (SELECT doc_id,
                      {F(n)} * D AS theta,
                      {F(rnum)} / power(tan({F(pi4)} + T / 2.0), {F(n)})
                        AS r FROM m7)
        SELECT doc_id,
               CAST(round(({F(kw['fe'])} - r * sin(theta)) * 100.0)
                    AS BIGINT) AS e_cm,
               CAST(round(({F(kw['fn'])} - r * cos(theta)) * 100.0)
                    AS BIGINT) AS n_cm
        FROM m8"""

    def build(code: int, tail_fn, loncols=True) -> str:
        d = crsmod.epsg_def(code)
        mid = (datum_ctes(d.towgs84, d.a, d.f) if d.towgs84 is not None
               else ident_ctes.replace("lon, lat", "lon AS lon2, "
                                                   "lat AS lat2"))
        return (f"WITH {_DOCS_GEO}, {window_cte(code)},"
                f"{mid},{tail_fn(d.kw, d.a, d.f)}")

    return {
        "reproject_osgb": build(27700, tmerc_tail),
        "reproject_belge72": build(31370, lcc_tail),
        "reproject_lv95": build(2056, somerc_tail),
        "reproject_krovak": build(5514, krovak_tail),
        "reproject_gda_lambert": build(3112, lcc_tail),
    }


def entry() -> Any:
    """Flagship pipeline at sf0.001: documents -> derive geometry ->
    tile-assign z8 -> spatial join vs zones -> zonal aggregate."""
    from gdal_ray.pipelines import queries as q

    return q.zonal_stats_q("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from gdal_ray.pipelines import queries as q

    return {
        # tiling / rasterize (SURVEY §2.9 / §2.8)
        "tile_assign_z8": q.tile_assign_z8,
        "tile_assign_multi": q.tile_assign_multi,
        "rasterize_point_count_z6": q.rasterize_point_count_z6,
        # spatial joins (SURVEY §2.4)
        "join_intersects": q.join_intersects,
        "join_within": q.join_within,
        "join_partitioned_intersects": q.join_partitioned_intersects,
        "join_anti_spatial": q.join_anti_spatial_q,
        "join_knn": q.join_knn,
        "knn_tree": q.knn_tree_q,
        "zonal_stats": q.zonal_stats_q,
        "zonal_fractional": q.zonal_fractional_q,
        "zonal_extended": q.zonal_extended_q,
        "zonal_modes": q.zonal_modes_q,
        # relational conformance (SURVEY §2.2/2.5/2.6/2.7/2.11)
        "q1_pricing": q.q1_pricing,
        "join_orders_customer": q.join_orders_customer,
        "filter_like_between": q.filter_like_between,
        "filter_sql": q.filter_sql_q,
        "range_join": q.range_join_q,
        "select_sql_expr": q.select_sql_expr_q,
        "select_sql_group": q.select_sql_group_q,
        "select_sql_join": q.select_sql_join_q,
        "select_sql_distinct": q.select_sql_distinct_q,
        "select_sql_count_distinct": q.select_sql_count_distinct_q,
        "select_sql_global_agg": q.select_sql_global_agg_q,
        "select_sql_avg": q.select_sql_avg_q,
        "select_sql_stddev": q.select_sql_stddev_q,
        "select_sql_offset": q.select_sql_offset_q,
        "select_sql_special_fields": q.select_sql_special_q,
        "gopher_rules": q.gopher_rules_q,
        "lm_familiarity": q.lm_familiarity_q,
        "audio_g711": q.audio_g711_q,
        "select_sql_union_all": q.select_sql_union_all_q,
        "quantiles_continuous": q.quantiles_continuous_q,
        "select_sql_left_join_group": q.select_sql_left_join_group_q,
        "topk_orders": q.topk_orders,
        "distinct_segments": q.distinct_segments,
        # stream-shaped (SURVEY §2.12 analogues)
        "events_tumbling_1h": q.events_tumbling_1h,
        "asof_join_events": q.asof_join_events,
        "sliding_window_2h": q.sliding_window_q,
        "late_event_windows": q.late_events_q,
        "session_windows": q.session_windows_q,
        # scalar functions / sampling / raster lookup / grid metric
        "scalar_funcs": q.scalar_funcs_q,
        "sample_docs": q.sample_docs_q,
        "point_raster_lookup": q.point_raster_lookup_q,
        "point_sample_bilinear": q.point_sample_bilinear_q,
        "grid_count": q.grid_count_q,
        # text / dedup / similarity (training-data ops)
        "dedup_exact": q.dedup_exact_q,
        "line_dedup": q.line_dedup_q,
        "raster_compare": q.raster_compare_q,
        "layer_summary": q.layer_summary_q,
        "layer_union_parts": q.layer_union_q,
        "buffer_geodesic": q.buffer_geodesic_q,
        "composite_median": q.composite_median_q,
        "chunk_dedup": q.chunk_dedup_q,
        "sample_stratified": q.sample_stratified_q,
        "pack_sequences": q.pack_sequences_q,
        "target_affinity": q.target_affinity_q,
        "tfidf_top": q.tfidf_top_q,
        "token_count": q.token_count_q,
        "text_quality": q.text_quality_q,
        "repetition_stats": q.repetition_stats_q,
        "scalar_funcs2": q.scalar_funcs2_q,
        "scrub_pii": q.scrub_pii_q,
        "decontaminate": q.decontaminate_q,
        "kmeans_clusters": q.kmeans_clusters_q,
        "semantic_neardup": q.semantic_neardup_q,
        "embedding_topk": q.embedding_topk_q,
        "embedding_ann_ivf": q.embedding_ann_ivf_q,
        "embedding_neardup": q.embedding_neardup_q,
        "token_count_bpe": q.token_count_bpe_q,
        # layer algebra: polygon x polygon (SURVEY §2.4), clip/dissolve
        "polygon_join": q.polygon_join_q,
        "polygon_overlay": q.polygon_overlay_q,
        "polygon_erase": q.polygon_erase_q,
        "clip_areas": q.clip_areas_q,
        "dissolve_zones": q.dissolve_zones_q,
        "dissolve_union": q.dissolve_union_q,
        "buffer_dissolve": q.buffer_dissolve_q,
        "buffer_erode": q.buffer_erode_q,
        "contour_ramp": q.contour_ramp_q,
        "contour_polygons": q.contour_polygons_q,
        "contour_band_areas": q.contour_band_areas_q,
        "contour_rings_interp": q.contour_rings_q,
        "contour_polygons_interp": q.contour_polygons_interp_q,
        "contour_rings_closed": q.contour_rings_closed_q,
        "wrapdateline": q.wrapdateline_q,
        "geodesic_measures": q.geodesic_measures_q,
        "geodesic_ellipsoidal": q.geodesic_ellipsoidal_q,
        "geodesic_true": q.geodesic_true_q,
        "geodesic_azimuth": q.geodesic_azimuth_q,
        "arrow_ipc_roundtrip": q.arrow_ipc_roundtrip_q,
        "layer_info": q.layer_info_q,
        "line_interpolate": q.line_interpolate_q,
        "lineref_points": q.lineref_points_q,
        "line_locate": q.line_locate_q,
        "line_substring": q.line_substring_q,
        "geom_transforms": q.geom_transforms_q,
        "explode_collections": q.explode_collections_q,
        "simplify_roundtrip": q.simplify_roundtrip_q,
        "boundary": q.boundary_q,
        "convex_hull": q.convex_hull_q,
        "quantiles_quantity": q.quantiles_quantity_q,
        "group_quantiles": q.group_quantiles_q,
        "stack_bands": q.stack_bands_q,
        "select_band": q.select_band_q,
        "calc_two_bands": q.calc_two_bands_q,
        "having_segments": q.having_segments_q,
        "rank_orders": q.rank_orders_q,
        "retile_overlap": q.retile_q,
        "asc_roundtrip": q.asc_roundtrip_q,
        "envi_roundtrip": q.envi_roundtrip_q,
        "netcdf_roundtrip": q.netcdf_roundtrip_q,
        "mdim_time_sum": q.mdim_time_sum_q,
        "netcdf4_time_sum": q.netcdf4_time_sum_q,
        "zarr_time_sum": q.zarr_time_sum_q,
        "osm_roundtrip": q.osm_roundtrip_q,
        "select_sql_geom_funcs": q.select_sql_geom_funcs_q,
        "mdim_slice_transpose": q.mdim_slice_transpose_q,
        "mdim_record_max": q.mdim_record_max_q,
        "mdim_mosaic_sum": q.mdim_mosaic_sum_q,
        "mdim_reproject_sum": q.mdim_reproject_sum_q,
        "check_coverage": q.check_coverage_q,
        "vector_partition": q.vector_partition_q,
        "vector_tindex": q.vector_tindex_q,
        "sozip_roundtrip": q.sozip_roundtrip_q,
        "raster_update": q.raster_update_q,
        "nodata_to_alpha": q.nodata_to_alpha_q,
        "overview_refresh": q.overview_refresh_q,
        "raster_attribute_table": q.raster_attribute_table_q,
        "check_geometry": q.check_geometry_q,
        # rows-only by design: BPE training is iterative (see docstring)
        "bpe_train_corpus": q.bpe_train_corpus_q,
        "clean_coverage": q.clean_coverage_q,
        "gnm_shortest_path": q.gnm_shortest_path_q,
        "gnm_components": q.gnm_components_q,
        "bmp_roundtrip": q.bmp_roundtrip_q,
        "pnm_roundtrip": q.pnm_roundtrip_q,
        "gif_roundtrip": q.gif_roundtrip_q,
        "hgt_roundtrip": q.hgt_roundtrip_q,
        "dted_roundtrip": q.dted_roundtrip_q,
        "tga_roundtrip": q.tga_roundtrip_q,
        "bmp_rle_roundtrip": q.bmp_rle_roundtrip_q,
        "png_filters_roundtrip": q.png_filters_roundtrip_q,
        "gtiff_roundtrip": q.gtiff_roundtrip_q,
        "gtiff_lzw_roundtrip": q.gtiff_lzw_roundtrip_q,
        "cog_roundtrip": q.cog_roundtrip_q,
        "gtiff_stream_roundtrip": q.gtiff_stream_roundtrip_q,
        "gdal_translate_chain": q.gdal_translate_chain_q,
        "gdalcompare": q.gdalcompare_q,
        "shp_roundtrip": q.shp_roundtrip_q,
        "geojson_roundtrip": q.geojson_roundtrip_q,
        "vsizip_roundtrip": q.vsizip_roundtrip_q,
        "gpx_roundtrip": q.gpx_roundtrip_q,
        "dxf_roundtrip": q.dxf_roundtrip_q,
        "kml_roundtrip": q.kml_roundtrip_q,
        "gml_roundtrip": q.gml_roundtrip_q,
        "gpkg_roundtrip": q.gpkg_roundtrip_q,
        "geoparquet_roundtrip": q.geoparquet_roundtrip_q,
        "flatgeobuf_roundtrip": q.flatgeobuf_roundtrip_q,
        "ogr2ogr_convert": q.ogr2ogr_convert_q,
        "semi_join_orders": q.semi_join_orders_q,
        "anti_join_customers": q.anti_join_customers_q,
        "event_gaps": q.event_gaps_q,
        "running_total": q.running_total_q,
        "window_frames": q.window_frames_q,
        "scalar_funcs_datetime": q.scalar_funcs_datetime_q,
        "scalar_funcs_props": q.scalar_funcs_props_q,
        "mosaic_compose": q.mosaic_compose_q,
        "warp_blend": q.warp_blend_q,
        "char_entropy": q.char_entropy_q,
        "text_normalize": q.text_normalize_q,
        "filter_cascade": q.filter_cascade_q,
        "weighted_sample": q.weighted_sample_q,
        "string_agg_top": q.string_agg_top_q,
        "duplicated_spans": q.duplicated_spans_q,
        "mvt_roundtrip": q.mvt_roundtrip_q,
        "pmtiles_roundtrip": q.pmtiles_roundtrip_q,
        "mbtiles_roundtrip": q.mbtiles_roundtrip_q,
        "pq_codes": q.pq_codes_q,
        "pq_adc_topk": q.pq_adc_topk_q,
        "join_dwithin": q.join_dwithin_q,
        "count_distinct": q.count_distinct_q,
        "span_stats": q.span_stats_q,
        "span_roundtrip": q.span_roundtrip_q,
        "span_filter_media": q.span_filter_media_q,
        "span_text_extract": q.span_text_extract_q,
        "span_media_bytes": q.span_media_bytes_q,
        "delaunay_triangles": q.delaunay_triangles_q,
        "bloom_dedup": q.bloom_dedup_q,
        "set_intersect_nations": q.set_intersect_q,
        "set_except_nations": q.set_except_q,
        "rank_events": q.rank_events_q,
        "bpe_pairs": q.bpe_pairs_q,
        "gtiff_overviews": q.gtiff_overviews_q,
        "warp_affine": q.warp_affine_q,
        "cell_cover": q.cell_cover_q,
        "hll_users": q.hll_users_q,
        "cms_word_freq": q.cms_word_freq_q,
        "hll_window_users": q.hll_window_users_q,
        "mix_sources": q.mix_sources_q,
        "ogrmerge_layers": q.ogrmerge_layers_q,
        "polygonize_rings8": q.polygonize_rings8_q,
        "hilbert_sort_topk": q.hilbert_sort_topk_q,
        "png_tiles_roundtrip": q.png_tiles_q,
        "gpkg_tiles_roundtrip": q.gpkg_tiles_roundtrip_q,
        "jpeg_tiles_roundtrip": q.jpeg_tiles_q,
        "jpeg_420_roundtrip": q.jpeg_420_roundtrip_q,
        "jpeg_progressive_roundtrip": q.jpeg_progressive_roundtrip_q,
        "curve_linearize": q.curve_linearize_q,
        "force_2d": q.force_2d_q,
        "curve_area": q.curve_area_q,
        "explode_geometrycollection": q.explode_geometrycollection_q,
        "left_join_orders": q.left_join_orders_q,
        "raster_as_features": q.raster_as_features_q,
        "color_relief": q.color_relief_q,
        "predicate_counts": q.predicate_counts_q,
        # aggregates: histogram + exact stats partials (SURVEY §2.5)
        "histogram_nchars": q.histogram_nchars_q,
        "agg_stats_quantity": q.agg_stats_quantity_q,
        # geometry scalar ops (SURVEY §2.2) + spatial sort (§2.6)
        "geom_area_centroid": q.geom_area_centroid_q,
        "tin_surface_area": q.tin_surface_area_q,
        "spatial_sort_topk": q.spatial_sort_topk_q,
        # raster<->vector + warp/pyramid (SURVEY §2.8/2.9; rows-only goldens)
        "rasterize_polygons": q.rasterize_polygons_q,
        "rasterize_invert": q.rasterize_invert_q,
        "polygonize_blobs": q.polygonize_blobs_q,
        "polygonize_rings": q.polygonize_rings_q,
        "polygonize_holes": q.polygonize_holes_q,
        "sieve_cross_tile": q.sieve_q,
        "tile_pyramid": q.tile_pyramid_q,
        "tile_pyramid_cubic": q.tile_pyramid_cubic_q,
        "warp_geoloc": q.warp_geoloc_q,
        "overview_kernels": q.overview_kernels_q,
        "warp_cutline": q.warp_cutline_q,
        "grid_metrics": q.grid_metrics_q,
        "hillshade": q.hillshade_q,
        "dem_derivatives": q.dem_derivatives_q,
        "focal_neighbors": q.focal_neighbors_q,
        "dither_ordered": q.dither_ordered_q,
        "hillshade_variants": q.hillshade_variants_q,
        "footprint": q.footprint_q,
        "nearblack": q.nearblack_q,
        "proximity": q.proximity_q,
        "fill_nodata": q.fill_nodata_q,
        "viewshed": q.viewshed_q,
        "viewshed_sectors": q.viewshed_sectors_q,
        "viewshed_cumulative": q.viewshed_cumulative_q,
        "band_stats": q.band_stats_q,
        "band_stats_approx": q.band_stats_approx_q,
        "raster_histogram": q.raster_histogram_q,
        "equalize": q.equalize_q,
        "translate_scale": q.translate_scale_q,
        "pansharpen": q.pansharpen_q,
        "tile_index": q.tile_index_q,
        "translate_window": q.translate_window_q,
        "viewshed_modes": q.viewshed_modes_q,
        "pct2rgb_roundtrip": q.pct2rgb_q,
        "palette_median_cut": q.palette_q,
        "media_features": q.media_features_q,
        "media_features_real": q.media_features_real_q,
        "media_features_jpeg": q.media_features_jpeg_q,
        "dither_fs": q.dither_fs_q,
        "video_frame_sample": q.video_frame_sample_q,
        "video_frame_sample_mjpeg": q.video_frame_sample_mjpeg_q,
        "media_features_adpcm": q.media_features_adpcm_q,
        "media_resize": q.media_resize_q,
        "media_inventory": q.media_inventory_q,
        # coordinate transformers (SURVEY §2.3; alg/gdaltransformer.cpp family)
        "reproject_utm": q.reproject_utm_q,
        "reproject_sinusoidal": q.reproject_sinusoidal_q,
        "reproject_eqc": q.reproject_eqc_q,
        "reproject_stereo_polar": q.reproject_stereo_polar_q,
        "reproject_stereo_oblique": q.reproject_stereo_oblique_q,
        "reproject_albers": q.reproject_albers_q,
        "reproject_aeqd": q.reproject_aeqd_q,
        "reproject_lcc": q.reproject_lcc_q,
        "reproject_osgb": q.reproject_osgb_q,
        "reproject_belge72": q.reproject_belge72_q,
        "reproject_lv95": q.reproject_lv95_q,
        "reproject_krovak": q.reproject_krovak_q,
        "reproject_gda_lambert": q.reproject_gda_lambert_q,
        "reproject_laea_cea": q.reproject_laea_cea_q,
        "datum_helmert": q.datum_helmert_q,
        "gcp_polynomial": q.gcp_polynomial_q,
        "tps_warp": q.tps_warp_q,
        "rpc_transform": q.rpc_transform_q,
        "geoloc_transform": q.geoloc_transform_q,
        "grid_shift": q.grid_shift_q,
        "grid_shift_gsb": q.grid_shift_gsb_q,
        "grid_shift_multi": q.grid_shift_multi_q,
        "transform_chain": q.transform_chain_q,
        # text sketches / near-dup (oracle-checked via SQL recomputation)
        "langid": q.langid_q,
        "fingerprint": q.fingerprint_q,
        "minhash_lsh_pairs": q.minhash_lsh_q,
        "simhash_signatures": q.simhash_q,
        "simhash_neardup": q.simhash_neardup_q,
        "ngram_jaccard_pairs": q.ngram_jaccard_q,
        "dup_clusters": q.dup_clusters_q,
        "cluster_split": q.cluster_split_q,
        "dedup_keep_best": q.dedup_keep_best_q,
        "quality_classifier": q.quality_classifier_q,
    }


def oracle_sql() -> dict[str, str]:
    tx8, ty8 = _tile_expr(8)
    tx4, ty4 = _tile_expr(4)
    tx12, ty12 = _tile_expr(12)
    tx6, ty6 = _tile_expr(6)
    join_intersects_sql = f"""
        WITH {_DOCS_GEO}, {_ZONES}
        SELECT d.doc_id, zz.zone_id
        FROM d, zz
        WHERE d.lon >= zz.minx AND d.lon <= zz.maxx
          AND d.lat >= zz.miny AND d.lat <= zz.maxy
    """
    knn_sql = f"""
        WITH {_DOCS_GEO}, {_ZONES},
        c AS (SELECT zone_id, zone_key, (minx + maxx) / 2.0 AS cx,
                     (miny + maxy) / 2.0 AS cy FROM zz),
        s AS (
          SELECT d.doc_id, c.zone_id,
                 row_number() OVER (
                   PARTITION BY d.doc_id
                   ORDER BY (d.lon - c.cx) * (d.lon - c.cx)
                          + (d.lat - c.cy) * (d.lat - c.cy), c.zone_key
                 ) AS "rank"
          FROM d, c)
        SELECT doc_id, zone_id, "rank" FROM s WHERE "rank" <= 3
    """
    return {
        "tile_assign_z8": f"""
            WITH {_DOCS_GEO}
            SELECT doc_id, lon, lat, {tx8} AS tx_8, {ty8} AS ty_8,
                   {tx8} * 256 + {ty8} AS cell_8
            FROM d
        """,
        "tile_assign_multi": f"""
            WITH {_DOCS_GEO}
            SELECT doc_id, {tx4} AS tx_4, {ty4} AS ty_4,
                   {tx12} AS tx_12, {ty12} AS ty_12
            FROM d
        """,
        "rasterize_point_count_z6": f"""
            WITH {_DOCS_GEO}
            SELECT {tx6} AS tx_6, {ty6} AS ty_6,
                   CAST(count(*) AS BIGINT) AS n_points
            FROM d GROUP BY 1, 2
        """,
        "join_intersects": join_intersects_sql,
        "join_partitioned_intersects": join_intersects_sql,
        "join_within": f"""
            WITH {_DOCS_GEO}, {_ZONES}
            SELECT d.doc_id, zz.zone_id
            FROM d, zz
            WHERE d.lon > zz.minx AND d.lon < zz.maxx
              AND d.lat > zz.miny AND d.lat < zz.maxy
        """,
        "join_knn": knn_sql,
        "knn_tree": knn_sql,
        "zonal_stats": f"""
            WITH {_DOCS_GEO}, {_ZONES}
            SELECT zz.zone_id,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(d.n_chars) AS BIGINT) AS n_chars_sum,
                   CAST(min(d.n_chars) AS BIGINT) AS n_chars_min,
                   CAST(max(d.n_chars) AS BIGINT) AS n_chars_max
            FROM d, zz
            WHERE d.lon >= zz.minx AND d.lon <= zz.maxx
              AND d.lat >= zz.miny AND d.lat <= zz.maxy
            GROUP BY zz.zone_id
        """,
        "zonal_fractional": """
            WITH z AS (
              SELECT p_partkey AS zone_key,
                     ((p_partkey * 7) % 3520) / 16.0 AS x0,
                     ((p_partkey * 11) % 3520) / 16.0 AS y0,
                     2.0 + ((p_partkey * 5) % 320) / 16.0 AS w,
                     2.0 + ((p_partkey * 3) % 320) / 16.0 AS h
              FROM part),
            zz AS (SELECT zone_key, x0, y0, x0 + w AS x1, y0 + h AS y1 FROM z),
            px AS (
              SELECT zone_key, x0, y0, x1, y1, gx, gy
              FROM zz,
              LATERAL (SELECT unnest(generate_series(
                         CAST(floor(x0) AS BIGINT),
                         CAST(ceil(x1) AS BIGINT) - 1)) AS gx) gxs,
              LATERAL (SELECT unnest(generate_series(
                         CAST(floor(y0) AS BIGINT),
                         CAST(ceil(y1) AS BIGINT) - 1)) AS gy) gys),
            f AS (
              SELECT zone_key,
                     (least(x1, gx + 1.0) - greatest(x0, CAST(gx AS DOUBLE)))
                     * (least(y1, gy + 1.0) - greatest(y0, CAST(gy AS DOUBLE)))
                       AS frac,
                     ((gx - 96) * (gx - 96) + (gy - 96) * (gy - 96)) / 64.0
                       AS v
              FROM px)
            SELECT zone_key,
                   count(*) AS n_pix,
                   CAST(round(sum(frac) * 256.0) AS BIGINT) AS cov_256,
                   CAST(round(sum(frac * v) * 16384.0) AS BIGINT)
                     AS wsum_16384,
                   CAST(round(min(v) * 64.0) AS BIGINT) AS vmin_64,
                   CAST(round(max(v) * 64.0) AS BIGINT) AS vmax_64
            FROM f GROUP BY zone_key
        """,
        "zonal_extended": f"""
            WITH {_DOCS_GEO}, {_ZONES},
            p AS (
              SELECT zz.zone_id, CAST(d.n_chars AS BIGINT) AS v
              FROM d, zz
              WHERE d.lon >= zz.minx AND d.lon <= zz.maxx
                AND d.lat >= zz.miny AND d.lat <= zz.maxy
            )
            SELECT zone_id,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(v) AS BIGINT) AS n_chars_sum,
                   CAST(count(*) * sum(v * v) - sum(v) * sum(v) AS BIGINT)
                     AS var_num
            FROM p
            GROUP BY zone_id
        """,
        "zonal_modes": f"""
            WITH {_DOCS_GEO}, {_ZONES},
            p AS (
              SELECT zz.zone_id, CAST(d.n_chars AS BIGINT) AS v
              FROM d, zz
              WHERE d.lon >= zz.minx AND d.lon <= zz.maxx
                AND d.lat >= zz.miny AND d.lat <= zz.maxy
            ),
            c AS (SELECT zone_id, v, count(*) AS cnt FROM p GROUP BY 1, 2),
            r AS (
              SELECT zone_id, v,
                     row_number() OVER (PARTITION BY zone_id
                                        ORDER BY cnt DESC, v ASC) AS rmaj,
                     row_number() OVER (PARTITION BY zone_id
                                        ORDER BY cnt ASC, v ASC) AS rmin
              FROM c
            )
            SELECT zone_id,
                   CAST(max(CASE WHEN rmaj = 1 THEN v END) AS BIGINT)
                     AS majority_val,
                   CAST(max(CASE WHEN rmin = 1 THEN v END) AS BIGINT)
                     AS minority_val
            FROM r
            GROUP BY zone_id
        """,
        "q1_pricing": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS qty_sum,
                   CAST(sum(CAST(round(l_extendedprice * 100.0) AS BIGINT)) AS BIGINT)
                     AS base_cents_sum,
                   CAST(sum(CAST(round(l_extendedprice * (1.0 - l_discount) * 100.0)
                     AS BIGINT)) AS BIGINT) AS disc_cents_sum,
                   CAST(count(*) AS BIGINT) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
            GROUP BY l_returnflag, l_linestatus
        """,
        "join_orders_customer": """
            SELECT c.c_mktsegment,
                   CAST(sum(CAST(round(o.o_totalprice * 100.0) AS BIGINT)) AS BIGINT)
                     AS total_cents_sum,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        "filter_like_between": """
            SELECT p_partkey, p_name, p_size
            FROM part
            WHERE p_type LIKE '%AND%' AND p_size >= 10 AND p_size <= 30
        """,
        "range_join": """
            WITH iv AS (SELECT p_partkey,
                               CAST((p_partkey * 37) % 1200 AS DOUBLE) AS lo,
                               CAST((p_partkey * 37) % 1200
                                    + 15 + p_partkey % 50 AS DOUBLE) AS hi
                        FROM (SELECT p_partkey FROM part
                              ORDER BY p_partkey LIMIT 500))
            SELECT d.doc_id, d.n_chars, iv.p_partkey
            FROM documents d JOIN iv
              ON d.n_chars >= iv.lo AND d.n_chars < iv.hi
        """,
        "filter_sql": """
            SELECT p_partkey, p_name, p_size
            FROM part
            WHERE p_size BETWEEN 10 AND 30 AND p_type LIKE '%AND%'
        """,
        "select_sql_expr": """
            SELECT doc_id, n_chars * 3 - 1 AS x3,
                   n_chars - n_chars // 7 * 7 AS bucket7,
                   upper(substr(lang, 1, 2)) AS lang_uc,
                   CAST(length(source) AS INTEGER) AS src_len
            FROM documents
            WHERE n_chars - n_chars // 7 * 7 IN (1, 3, 5)
              AND NOT (n_chars BETWEEN 100 AND 200)
            ORDER BY doc_id LIMIT 200
        """,
        "quantiles_continuous": """
            WITH s AS (SELECT o_totalprice AS v FROM orders),
            r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM s),
            n AS (SELECT count(*) AS c FROM s)
            SELECT (SELECT c FROM n) AS n,
              (SELECT CAST(round(v * 100.0) AS BIGINT) FROM r
               WHERE rn = CAST(floor(0.25 * ((SELECT c FROM n) - 1)) AS BIGINT) + 1) AS q25_cents,
              (SELECT CAST(round(v * 100.0) AS BIGINT) FROM r
               WHERE rn = CAST(floor(0.50 * ((SELECT c FROM n) - 1)) AS BIGINT) + 1) AS q50_cents,
              (SELECT CAST(round(v * 100.0) AS BIGINT) FROM r
               WHERE rn = CAST(floor(0.75 * ((SELECT c FROM n) - 1)) AS BIGINT) + 1) AS q75_cents,
              (SELECT CAST(round(v * 100.0) AS BIGINT) FROM r
               WHERE rn = CAST(floor(0.90 * ((SELECT c FROM n) - 1)) AS BIGINT) + 1) AS q90_cents
        """,
        "select_sql_join": """
            SELECT o_orderkey, c_name, c_mktsegment FROM orders
            JOIN customer ON o_custkey = c_custkey
            WHERE o_orderkey % 5 = 0 ORDER BY o_orderkey LIMIT 300
        """,
        "select_sql_distinct": """
            SELECT DISTINCT c_mktsegment,
                   CAST(c_nationkey // 5 AS BIGINT) AS nat_bucket
            FROM customer WHERE c_acctbal >= 0
            ORDER BY c_mktsegment, nat_bucket
        """,
        "select_sql_count_distinct": """
            SELECT c_mktsegment,
                   CAST(count(DISTINCT c_nationkey) AS BIGINT) AS n_nations
            FROM customer WHERE c_custkey % 2 = 0
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "select_sql_global_agg": """
            SELECT CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(o_custkey) AS BIGINT) AS key_sum,
                   CAST(min(o_orderkey) AS BIGINT) AS min_o,
                   CAST(max(o_orderkey) AS BIGINT) AS max_o
            FROM orders WHERE o_orderkey % 3 = 0
        """,
        # Gopher rules: every rule is integer arithmetic on RE2 match counts
        # (the same regexes run on both engines)
        "gopher_rules": r"""
            WITH f AS (
              SELECT doc_id,
                CAST(len(regexp_extract_all(text, '[^ ]+')) AS BIGINT) AS n_words,
                CAST(len(regexp_extract_all(text, '[^ ]')) AS BIGINT) AS token_chars,
                CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) AS n_alpha,
                CAST(len(regexp_extract_all(text, '#'))
                     + len(regexp_extract_all(text, '\.\.\.')) AS BIGINT) AS n_sym,
                CAST(
                  CAST(regexp_matches(lower(text), '(^| )the( |$)') AS INTEGER)
                + CAST(regexp_matches(lower(text), '(^| )be( |$)') AS INTEGER)
                + CAST(regexp_matches(lower(text), '(^| )to( |$)') AS INTEGER)
                + CAST(regexp_matches(lower(text), '(^| )of( |$)') AS INTEGER)
                + CAST(regexp_matches(lower(text), '(^| )and( |$)') AS INTEGER)
                + CAST(regexp_matches(lower(text), '(^| )that( |$)') AS INTEGER)
                + CAST(regexp_matches(lower(text), '(^| )have( |$)') AS INTEGER)
                + CAST(regexp_matches(lower(text), '(^| )with( |$)') AS INTEGER)
                  AS BIGINT) AS stop_hits
              FROM documents
            )
            SELECT doc_id, n_words, token_chars, n_alpha, n_sym, stop_hits,
              CASE
                WHEN n_words < 20 OR n_words > 200 THEN 'words'
                WHEN 3 * n_words > token_chars OR token_chars > 10 * n_words
                     THEN 'meanlen'
                WHEN 10 * n_sym >= n_words THEN 'symbols'
                WHEN 2 * n_alpha < token_chars THEN 'alpha'
                WHEN stop_hits < 2 THEN 'stopwords'
                ELSE ''
              END AS reason,
              (n_words >= 20 AND n_words <= 200
               AND 3 * n_words <= token_chars AND token_chars <= 10 * n_words
               AND 10 * n_sym < n_words
               AND 2 * n_alpha >= token_chars
               AND stop_hits >= 2) AS keep
            FROM f
        """,
        # G.711 companding mirror: the segment/mantissa formulas in integer
        # SQL (bit ops are exact; A-law's arithmetic >>3 is floor(s/8))
        "audio_g711": """
            WITH p AS (
              SELECT doc_id, r.range AS k,
                     (doc_id * 9176 + r.range * 4099) % 65536 - 32768 AS s
              FROM documents, range(8) r
            ),
            mu AS (
              SELECT doc_id, k, s,
                     CASE WHEN s < 0 THEN 128 ELSE 0 END AS sign,
                     LEAST(abs(s), 32635) + 132 AS mag
              FROM p
            ),
            mu2 AS (
              SELECT doc_id, k, s, sign, mag,
                     CASE WHEN mag < 256 THEN 0 WHEN mag < 512 THEN 1
                          WHEN mag < 1024 THEN 2 WHEN mag < 2048 THEN 3
                          WHEN mag < 4096 THEN 4 WHEN mag < 8192 THEN 5
                          WHEN mag < 16384 THEN 6 ELSE 7 END AS e
              FROM mu
            ),
            mu3 AS (
              SELECT doc_id, k, s,
                     255 - (sign + e * 16 + ((mag >> (e + 3)) & 15)) AS mu_code
              FROM mu2
            ),
            mu4 AS (
              SELECT doc_id, k, s, mu_code, 255 - mu_code AS u FROM mu3
            ),
            al AS (
              SELECT doc_id, k, s, mu_code, u,
                     CAST(floor(s / 8.0) AS BIGINT) AS s13
              FROM mu4
            ),
            al2 AS (
              SELECT doc_id, k, s, mu_code, u,
                     CASE WHEN s13 >= 0 THEN 213 ELSE 85 END AS mask,
                     CASE WHEN s13 < 0 THEN -s13 - 1 ELSE s13 END AS pv
              FROM al
            ),
            al3 AS (
              SELECT doc_id, k, s, mu_code, u, mask, pv,
                     CASE WHEN pv <= 31 THEN 0 WHEN pv <= 63 THEN 1
                          WHEN pv <= 127 THEN 2 WHEN pv <= 255 THEN 3
                          WHEN pv <= 511 THEN 4 WHEN pv <= 1023 THEN 5
                          WHEN pv <= 2047 THEN 6 ELSE 7 END AS seg
              FROM al2
            ),
            al4 AS (
              SELECT doc_id, k, s, mu_code, u,
                     xor(seg * 16 + CASE WHEN seg < 2 THEN (pv >> 1) & 15
                                         ELSE (pv >> seg) & 15 END,
                         mask) AS a_code
              FROM al3
            ),
            al5 AS (
              SELECT doc_id, k, mu_code, u, a_code,
                     xor(a_code, 85) AS a
              FROM al4
            )
            SELECT doc_id, CAST(k AS BIGINT) AS k,
                   CAST(mu_code AS BIGINT) AS mu_code,
                   CAST(CASE WHEN u >= 128 THEN
                          -((((u & 15) * 8 + 132) << ((u >> 4) & 7)) - 132)
                        ELSE ((((u & 15) * 8 + 132) << ((u >> 4) & 7)) - 132)
                        END AS BIGINT) AS mu_dec,
                   CAST(a_code AS BIGINT) AS a_code,
                   CAST(CASE WHEN a >= 128 THEN
                          CASE WHEN (a & 112) = 0 THEN (a & 15) * 16 + 8
                               WHEN (a & 112) = 16 THEN (a & 15) * 16 + 264
                               ELSE ((a & 15) * 16 + 264)
                                    << (((a & 112) >> 4) - 1) END
                        ELSE
                          -(CASE WHEN (a & 112) = 0 THEN (a & 15) * 16 + 8
                                 WHEN (a & 112) = 16 THEN (a & 15) * 16 + 264
                                 ELSE ((a & 15) * 16 + 264)
                                      << (((a & 112) >> 4) - 1) END)
                        END AS BIGINT) AS a_dec
            FROM al5
        """,
        # LM familiarity: trigram STRINGS here mirror the engine's packed
        # int64 codes — UTF-8 byte order is codepoint order, so the
        # top-512 tie-break (count DESC, gram ASC) picks the same set
        "lm_familiarity": """
            WITH g AS (
              SELECT doc_id, substr(text, CAST(r.range AS INTEGER) + 1, 3) AS gram
              FROM documents, range(2048) r
              WHERE r.range <= length(text) - 3
            ),
            cnt AS (SELECT gram, CAST(count(*) AS BIGINT) AS cnt
                    FROM g GROUP BY gram),
            model AS (SELECT gram, cnt FROM cnt
                      ORDER BY cnt DESC, gram ASC LIMIT 512),
            sc AS (SELECT g.doc_id, sum(m.cnt) AS score
                   FROM g LEFT JOIN model m USING (gram)
                   GROUP BY g.doc_id)
            SELECT d.doc_id,
                   CAST(GREATEST(length(d.text) - 2, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(sc.score, 0) AS BIGINT) AS score,
                   COALESCE(sc.score, 0)
                     >= 40 * GREATEST(length(d.text) - 2, 0) AS keep
            FROM documents d LEFT JOIN sc USING (doc_id)
        """,
        # avg mirrored as exact-int sum / count (DuckDB's avg() may
        # accumulate doubles in a different order; this division of exact
        # int64s is bit-stable on both sides)
        "select_sql_avg": """
            SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(c_nationkey) AS DOUBLE) / count(*) AS avg_nat
            FROM customer WHERE c_custkey % 4 <> 1
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "select_sql_stddev": """
            -- same term order as the engine's finalize:
            -- pop = sqrt(ss/n - (s/n)*(s/n)); samp = sqrt((ss-(s/n)*s)/(n-1))
            SELECT o_orderpriority, CAST(n AS BIGINT) AS n,
                   sqrt(CAST(ss AS DOUBLE) / n
                        - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n))
                     AS sd,
                   sqrt((CAST(ss AS DOUBLE) - (CAST(s AS DOUBLE) / n)
                         * CAST(s AS DOUBLE)) / (n - 1)) AS sds
            FROM (SELECT o_orderpriority,
                         sum(o_custkey % 97) AS s,
                         sum((o_custkey % 97) * (o_custkey % 97)) AS ss,
                         CAST(count(*) AS DOUBLE) AS n
                  FROM orders GROUP BY o_orderpriority)
            ORDER BY o_orderpriority
        """,
        "select_sql_special_fields": """
            SELECT p_partkey AS fid, 'POLYGON' AS gtype,
                   CAST((2 + (p_partkey * 131) % 8)
                        * (2 + (p_partkey * 197) % 6) AS DOUBLE) AS area
            FROM part
            WHERE (2 + (p_partkey * 131) % 8)
                  * (2 + (p_partkey * 197) % 6) >= 20
            ORDER BY fid
        """,
        "select_sql_offset": """
            SELECT o_orderkey, o_custkey FROM orders
            ORDER BY o_custkey DESC, o_orderkey ASC LIMIT 40 OFFSET 25
        """,
        "select_sql_union_all": """
            SELECT n_name AS name, CAST(n_regionkey AS BIGINT) AS rk
            FROM nation WHERE n_regionkey <= 1
            UNION ALL
            SELECT r_name AS name, CAST(r_regionkey + 100 AS BIGINT) AS rk
            FROM region
        """,
        "select_sql_left_join_group": """
            SELECT n_name, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(c_custkey) AS BIGINT) AS key_sum
            FROM customer LEFT JOIN nation ON c_nationkey = n_nationkey
            WHERE c_custkey % 7 <> 0 GROUP BY n_name ORDER BY n_name
        """,
        "select_sql_group": """
            SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(c_nationkey) AS BIGINT) AS nat_sum,
                   CAST(min(c_custkey) AS BIGINT) AS min_key,
                   CAST(max(c_custkey) AS BIGINT) AS max_key
            FROM customer WHERE c_custkey % 3 <> 0
            GROUP BY c_mktsegment HAVING count(*) > 10
            ORDER BY c_mktsegment
        """,
        "topk_orders": """
            SELECT o_orderkey, CAST(round(o_totalprice * 100.0) AS BIGINT) AS total_cents
            FROM orders
            ORDER BY total_cents DESC, o_orderkey
            LIMIT 10
        """,
        "distinct_segments": "SELECT DISTINCT c_mktsegment FROM customer",
        "events_tumbling_1h": """
            SELECT event_type,
                   epoch_us(ts) // 1000000 // 3600 AS window_id,
                   CAST(sum(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT)
                     AS value_cents_sum,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM events
            GROUP BY 1, 2
        """,
        "asof_join_events": """
            WITH m AS (
              SELECT e.event_id, e.event_type, o.o_orderkey,
                     row_number() OVER (
                       PARTITION BY e.event_id
                       ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
              FROM events e
              JOIN orders o ON e.user_id = o.o_custkey AND o.o_orderdate <= e.ts)
            SELECT event_type,
                   CAST(sum(o_orderkey) AS BIGINT) AS o_orderkey_sum,
                   CAST(count(*) AS BIGINT) AS n_matched
            FROM m WHERE rn = 1
            GROUP BY event_type
        """,
        "late_event_windows": """
            WITH w AS (
              SELECT event_id, ts, value,
                     max(epoch_us(ts)) OVER (
                         ORDER BY (event_id // 16) * 16 + 15 - event_id % 16
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                       AS prev_max
              FROM events),
            f AS (SELECT epoch_us(ts) // 1000000 // 3600 AS window_id,
                         CASE WHEN prev_max IS NOT NULL
                               AND epoch_us(ts) < prev_max - 1800000000
                              THEN 1 ELSE 0 END AS late,
                         CAST(round(value * 100.0) AS BIGINT) AS cents
                  FROM w)
            SELECT window_id,
                   CAST(sum(1 - late) AS BIGINT) AS n_on_time,
                   CAST(sum(late) AS BIGINT) AS n_late,
                   CAST(sum(CASE WHEN late = 0 THEN cents ELSE 0 END) AS BIGINT)
                     AS value_cents_sum
            FROM f GROUP BY window_id
        """,
        "sliding_window_2h": """
            WITH w AS (
              SELECT event_type,
                     UNNEST(generate_series(epoch_us(ts) // 1000000 // 3600 - 1,
                                            epoch_us(ts) // 1000000 // 3600)) AS window_id
              FROM events)
            SELECT event_type, window_id, CAST(count(*) AS BIGINT) AS n_events
            FROM w GROUP BY 1, 2
        """,
        "session_windows": """
            WITH s AS (
              SELECT user_id, event_id,
                     epoch_us(ts) // 1000000 AS sec,
                     CASE WHEN epoch_us(ts) // 1000000
                            - lag(epoch_us(ts) // 1000000) OVER
                              (PARTITION BY user_id ORDER BY ts, event_id) > 7200
                          THEN 1 ELSE 0 END AS brk
              FROM events),
            t AS (
              SELECT user_id,
                     sum(brk) OVER (PARTITION BY user_id ORDER BY sec, event_id
                                    ROWS UNBOUNDED PRECEDING) AS sid
              FROM s),
            g AS (SELECT user_id, sid, count(*) AS n FROM t GROUP BY 1, 2)
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(max(n) AS BIGINT) AS max_session_events
            FROM g GROUP BY 1
        """,
        "scalar_funcs": """
            SELECT doc_id,
                   upper(substr(text, 1, 8)) AS head,
                   lang || '-' || source AS tag,
                   CASE WHEN n_chars < 100 THEN 'short'
                        WHEN n_chars <= 300 THEN 'mid'
                        ELSE 'long' END AS size_class,
                   CAST(n_chars AS DOUBLE) / 2.0 AS half_chars
            FROM documents
        """,
        "sample_docs": """
            SELECT doc_id, n_chars FROM documents
            WHERE (doc_id * 2654435761) % 100 < 10
        """,
        "point_raster_lookup": f"""
            WITH {_DOCS_GEO}
            SELECT doc_id,
                   LEAST(GREATEST(CAST(floor((lon + 180.0) / 360.0 * 360.0) AS BIGINT), 0), 359)
                 + LEAST(GREATEST(CAST(floor((85.0 - lat) / 170.0 * 170.0) AS BIGINT), 0), 169)
                   AS raster_value
            FROM d
        """,
        "point_sample_bilinear": f"""
            WITH {_DOCS_GEO},
            p AS (SELECT doc_id,
                    LEAST(GREATEST((lon + 180.0) / 360.0 * 360.0 - 0.5, 0.0), 359.0) AS pxc,
                    LEAST(GREATEST((85.0 - lat) / 170.0 * 170.0 - 0.5, 0.0), 169.0) AS pyc
                  FROM d),
            q AS (SELECT doc_id,
                    floor(pxc) AS x0, floor(pyc) AS y0,
                    LEAST(floor(pxc) + 1.0, 359.0) AS x1,
                    LEAST(floor(pyc) + 1.0, 169.0) AS y1,
                    pxc - floor(pxc) AS dx, pyc - floor(pyc) AS dy
                  FROM p)
            SELECT doc_id,
                   ((x0 + y0) * (1.0 - dx) + (x1 + y0) * dx) * (1.0 - dy)
                 + ((x0 + y1) * (1.0 - dx) + (x1 + y1) * dx) * dy AS sampled
            FROM q
        """,
        "grid_count": f"""
            WITH {_DOCS_GEO},
            cells AS (
              SELECT a.range AS cx, b.range AS cy
              FROM range(64) a, range(32) b)
            SELECT c.cx, c.cy,
                   CAST(count(d.doc_id) AS BIGINT) AS n
            FROM cells c LEFT JOIN d
              ON ((-180.0 + (c.cx + 0.5) * 5.625) - d.lon)
                 * ((-180.0 + (c.cx + 0.5) * 5.625) - d.lon)
               + ((-85.0 + (c.cy + 0.5) * 5.3125) - d.lat)
                 * ((-85.0 + (c.cy + 0.5) * 5.3125) - d.lat) <= 36.0
            GROUP BY 1, 2
        """,
        "composite_median": """
            -- median of 3 = a+b+c - greatest - least (all dyadic-exact);
            -- per-tile sums over 3x2 tiles of 64
            WITH px AS (
              SELECT gx.g AS gx, gy.g AS gy,
                     CAST(gx.g + gy.g AS DOUBLE) AS a,
                     ((gx.g - 96)*(gx.g - 96) + (gy.g - 96)*(gy.g - 96))
                       / 64.0 AS b,
                     100.0 AS c
              FROM (SELECT unnest(generate_series(0, 191)) AS g) gx,
                   (SELECT unnest(generate_series(0, 127)) AS g) gy)
            SELECT CAST(gx // 64 AS INT) AS x, CAST(gy // 64 AS INT) AS y,
                   sum(a + b + c - GREATEST(a, b, c) - LEAST(a, b, c))
                     AS sum_median
            FROM px GROUP BY 1, 2
        """,
        "buffer_geodesic": """
            -- spherical destination-point circle, same term order as the
            -- engine; the CCW reversal maps vertex j to bearing (7-j)*2pi/8
            WITH s AS (SELECT s_suppkey AS fid,
                              CAST(-180 + (s_suppkey * 7919) % 360 AS DOUBLE)
                                AS lon,
                              CAST(-80 + (s_suppkey * 104729) % 160 AS DOUBLE)
                                AS lat
                       FROM supplier),
            v AS (SELECT fid, j.j AS j, radians(lat) AS p1,
                         radians(lon) AS l1,
                         (7 - j.j) * (2 * pi() / 8) AS b
                  FROM s, LATERAL (SELECT unnest(generate_series(0, 7)) AS j)
                       j),
            w AS (SELECT fid, j, l1, b, p1,
                         asin(sin(p1) * cos(50000.0 / 6371007.180918475)
                              + cos(p1) * sin(50000.0 / 6371007.180918475)
                                * cos(b)) AS p2
                  FROM v)
            SELECT fid, j,
                   CAST(floor(degrees(l1 + atan2(
                         sin(b) * sin(50000.0 / 6371007.180918475) * cos(p1),
                         cos(50000.0 / 6371007.180918475)
                           - sin(p1) * sin(p2))) * 1e6 + 0.5) AS BIGINT)
                     AS x_e6,
                   CAST(floor(degrees(p2) * 1e6 + 0.5) AS BIGINT) AS y_e6
            FROM w
        """,
        "layer_union_parts": """
            -- layer Union mirror: intersections via the rect-overlap closed
            -- form; residuals = cells of a feature not covered by ANY rect
            -- of the other layer (multi-intersector semantics)
            WITH a AS (SELECT p_partkey AS fid,
                              -180 + (p_partkey * 7321) % 330 AS x0,
                              -85 + (p_partkey * 4231) % 150 AS y0,
                              2 + (p_partkey * 131) % 8 AS w,
                              2 + (p_partkey * 197) % 6 AS h
                       FROM part WHERE p_partkey % 5 = 0),
            b AS (SELECT c_custkey AS fid,
                         -180 + (c_custkey * 5179) % 330 AS x0,
                         -85 + (c_custkey * 3607) % 150 AS y0,
                         2 + (c_custkey * 149) % 8 AS w,
                         2 + (c_custkey * 211) % 6 AS h
                  FROM customer WHERE c_custkey % 3 = 0),
            bp AS (SELECT 'both' AS part, a.fid AS l_id, b.fid AS r_id,
                          GREATEST(0, LEAST(a.x0 + a.w, b.x0 + b.w)
                                      - GREATEST(a.x0, b.x0))
                        * GREATEST(0, LEAST(a.y0 + a.h, b.y0 + b.h)
                                      - GREATEST(a.y0, b.y0)) AS area
                   FROM a, b),
            ac AS (SELECT a.fid, a.x0 + cx.c AS cx, a.y0 + cy.c AS cy
                   FROM a,
                   LATERAL (SELECT unnest(generate_series(0, w - 1)) AS c) cx,
                   LATERAL (SELECT unnest(generate_series(0, h - 1)) AS c) cy),
            bc AS (SELECT b.fid, b.x0 + cx.c AS cx, b.y0 + cy.c AS cy
                   FROM b,
                   LATERAL (SELECT unnest(generate_series(0, w - 1)) AS c) cx,
                   LATERAL (SELECT unnest(generate_series(0, h - 1)) AS c) cy),
            ares AS (SELECT 'left' AS part, fid AS l_id, -1 AS r_id,
                            count(*) AS area
                     FROM ac WHERE NOT EXISTS (
                       SELECT 1 FROM b WHERE ac.cx >= b.x0
                         AND ac.cx < b.x0 + b.w AND ac.cy >= b.y0
                         AND ac.cy < b.y0 + b.h)
                     GROUP BY fid),
            bres AS (SELECT 'right' AS part, -1 AS l_id, fid AS r_id,
                            count(*) AS area
                     FROM bc WHERE NOT EXISTS (
                       SELECT 1 FROM a WHERE bc.cx >= a.x0
                         AND bc.cx < a.x0 + a.w AND bc.cy >= a.y0
                         AND bc.cy < a.y0 + a.h)
                     GROUP BY fid)
            SELECT part, CAST(l_id AS BIGINT) AS l_id,
                   CAST(r_id AS BIGINT) AS r_id, CAST(area AS BIGINT) AS area
            FROM (SELECT * FROM bp WHERE area > 0
                  UNION ALL SELECT * FROM ares
                  UNION ALL SELECT * FROM bres)
        """,
        "layer_summary": """
            -- ogrinfo -so mirror over the integer rect layer (all POLYGON)
            WITH p AS (SELECT p_partkey AS fid,
                              -180 + (p_partkey * 7321) % 330 AS x0,
                              -85 + (p_partkey * 4231) % 150 AS y0,
                              2 + (p_partkey * 131) % 8 AS w,
                              2 + (p_partkey * 197) % 6 AS h
                       FROM part)
            SELECT CAST(min(fid) AS BIGINT) AS fid_min,
                   CAST(max(fid) AS BIGINT) AS fid_max,
                   CAST(0 AS BIGINT) AS fid_null,
                   CAST(max(x0 + w) AS DOUBLE) AS maxx,
                   CAST(max(y0 + h) AS DOUBLE) AS maxy,
                   CAST(min(x0) AS DOUBLE) AS minx,
                   CAST(min(y0) AS DOUBLE) AS miny,
                   CAST(count(*) AS BIGINT) AS n_features,
                   CAST(0 AS BIGINT) AS n_geometrycollection,
                   CAST(0 AS BIGINT) AS n_linestring,
                   CAST(0 AS BIGINT) AS n_multilinestring,
                   CAST(0 AS BIGINT) AS n_multipoint,
                   CAST(0 AS BIGINT) AS n_multipolygon,
                   CAST(0 AS BIGINT) AS n_point,
                   CAST(count(*) AS BIGINT) AS n_polygon
            FROM p
        """,
        "raster_compare": """
            -- gdalcompare mirror: ramp = gx+gy; hump = ((gx-96)^2+(gy-96)^2)/64
            -- (both dyadic-exact), 3x2 tiles of 64 -> 192x128 pixels
            WITH px AS (
              SELECT gx.g AS gx, gy.g AS gy
              FROM (SELECT unnest(generate_series(0, 191)) AS g) gx,
                   (SELECT unnest(generate_series(0, 127)) AS g) gy),
            d AS (SELECT ABS((gx + gy)
                    - ((gx - 96)*(gx - 96) + (gy - 96)*(gy - 96)) / 64.0)
                    AS ad FROM px)
            SELECT CAST(count(*) AS BIGINT) AS n_pixels,
                   CAST(sum(CASE WHEN ad <> 0 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_diff,
                   max(ad) AS max_diff,
                   sum(ad) AS sum_diff
            FROM d
        """,
        "line_dedup": """
            -- line-level dedup mirror: tokens are the 'lines'; a token with
            -- corpus count >= 200 keeps only its globally first (doc, pos)
            -- occurrence
            WITH w AS (
              SELECT doc_id,
                     unnest(string_split(text, ' ')) AS wd,
                     generate_subscripts(string_split(text, ' '), 1) AS i
              FROM documents),
            k AS (
              SELECT doc_id, i, wd,
                     count(*) OVER (PARTITION BY wd) AS cnt,
                     row_number() OVER (PARTITION BY wd
                                        ORDER BY doc_id, i) AS rn
              FROM w)
            SELECT d.doc_id,
                   coalesce(string_agg(kk.wd, ' ' ORDER BY kk.i), '') AS text,
                   CAST(count(kk.wd) AS BIGINT) AS n_kept
            FROM documents d
            LEFT JOIN (SELECT * FROM k WHERE cnt < 200 OR rn = 1) kk
                 USING (doc_id)
            GROUP BY d.doc_id
        """,
        "dedup_exact": """
            SELECT md5(text) AS text_md5,
                   CAST(min(doc_id) AS BIGINT) AS keep_id,
                   CAST(count(*) AS BIGINT) AS n_dups
            FROM documents GROUP BY 1
        """,
        "sample_stratified": """
            SELECT doc_id, lang FROM documents
            WHERE (doc_id * 2654435761) % 100
                  < CASE WHEN lang = 'en' THEN 20 ELSE 5 END
        """,
        "pack_sequences": """
            WITH tok AS (SELECT doc_id,
                           CAST(length(regexp_extract_all(text, '[^ ]+'))
                                AS BIGINT) AS n_tokens
                         FROM documents),
            c AS (SELECT doc_id, n_tokens,
                         COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                             0) AS cum
                  FROM tok)
            SELECT doc_id, n_tokens,
                   CAST(cum // 256 AS BIGINT) AS pack_id,
                   CAST(cum % 256 AS BIGINT) AS pack_offset
            FROM c
        """,
        "chunk_dedup": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
            c AS (SELECT doc_id,
                         md5(array_to_string(w[(s.j-1)*3+1 : s.j*3], ' ')) AS h
                  FROM w, LATERAL (SELECT unnest(range(1, len(w)//3 + 1)) AS j) s),
            n AS (SELECT h, count(*) AS cnt FROM c GROUP BY 1)
            SELECT c.doc_id, CAST(count(*) AS BIGINT) AS n_chunks,
                   CAST(sum(CASE WHEN n.cnt > 1 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_dup_chunks
            FROM c JOIN n USING (h) GROUP BY 1
        """,
        "target_affinity": f"""
            WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
                         FROM documents),
            bk AS (SELECT doc_id,
                          CAST({_hex_u64("md5(term)")} % 65536 AS BIGINT) AS bucket
                   FROM tok),
            tgt AS (SELECT bucket, count(*) AS c
                    FROM bk t JOIN documents d USING (doc_id)
                    WHERE d.lang = 'en' GROUP BY 1)
            SELECT t.doc_id,
                   CAST(sum(COALESCE(g.c, 0)) AS BIGINT) AS affinity,
                   CAST(count(*) AS BIGINT) AS n_tokens
            FROM bk t LEFT JOIN tgt g USING (bucket) GROUP BY 1
        """,
        "tfidf_top": f"""
            WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
                         FROM documents),
            bk AS (SELECT doc_id, term,
                          CAST({_hex_u64("md5(term)")} % 65536 AS BIGINT) AS bucket
                   FROM tok),
            tf AS (SELECT doc_id, term, any_value(bucket) AS bucket,
                          count(*) AS tf
                   FROM bk GROUP BY 1, 2),
            df AS (SELECT bucket, count(DISTINCT doc_id) AS df
                   FROM bk GROUP BY 1),
            s AS (SELECT tf.doc_id, tf.term, tf.tf, df.df,
                         ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                             ORDER BY CAST(tf.tf AS DOUBLE) / df.df DESC, tf.term)
                             AS rn
                  FROM tf JOIN df USING (bucket))
            SELECT doc_id, term AS top_term, CAST(tf AS BIGINT) AS tf,
                   CAST(df AS BIGINT) AS df
            FROM s WHERE rn = 1
        """,
        "token_count": """
            SELECT doc_id,
                   CAST(length(regexp_extract_all(text, '[^ ]+')) AS BIGINT) AS n_tokens
            FROM documents
        """,
        "text_quality": """
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars_calc,
                   CAST(length(regexp_extract_all(text, '[^ ]+')) AS BIGINT) AS n_tokens,
                   CAST(length(regexp_extract_all(text, '[.,!?;:]')) AS BIGINT) AS n_punct
            FROM documents
        """,
        "scalar_funcs2": """
            SELECT doc_id,
                   COALESCE(NULLIF(lang, 'en'), 'default') AS coalesced,
                   lang IN ('en', 'fr', 'de') AS in_set,
                   trim('  ' || lang || ' ') AS trimmed,
                   replace(source, 'a', '_') AS replaced,
                   CAST(n_chars % 7 AS BIGINT) AS mod7,
                   CAST(floor(CAST(n_chars AS DOUBLE) / 8.0) AS BIGINT) AS floor8,
                   CAST(ceil(CAST(n_chars AS DOUBLE) / 8.0) AS BIGINT) AS ceil8,
                   CAST(power(CAST((n_chars % 7) % 5 + 1 AS DOUBLE), 2.0) AS BIGINT) AS pow2,
                   CAST(abs(n_chars - 250) AS BIGINT) AS abs250
            FROM documents
        """,
        "scrub_pii": _scrub_pii_sql(),
        "decontaminate": """
            WITH w AS (SELECT doc_id, string_split(lower(text), ' ') AS w
                       FROM documents),
            g AS (SELECT doc_id,
                         w[s.i] || chr(1) || w[s.i+1] || chr(1) || w[s.i+2]
                         || chr(1) || w[s.i+3] || chr(1) || w[s.i+4] AS gram
                  FROM w, LATERAL (SELECT unnest(range(1, len(w) - 3)) AS i) s),
            bench AS (SELECT DISTINCT gram FROM g WHERE doc_id < 20),
            hits AS (SELECT g.doc_id, count(*) AS n
                     FROM g JOIN bench USING (gram) GROUP BY 1)
            SELECT d.doc_id, CAST(COALESCE(h.n, 0) AS BIGINT) AS n_gram_hits,
                   COALESCE(h.n, 0) > 0 AS contaminated
            FROM documents d LEFT JOIN hits h ON h.doc_id = d.doc_id
        """,
        "kmeans_clusters": f"""
            {_kmeans_cte(8, 2)}
            SELECT vec_id, CAST(cid AS BIGINT) AS cluster FROM a2
        """,
        "semantic_neardup": f"""
            {_kmeans_cte(8, 2)},
            pe AS (SELECT a2.vec_id, a2.cid, e.v FROM a2 JOIN e USING (vec_id))
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM pe a JOIN pe b ON a.cid = b.cid AND a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.v, b.v) >= 0.35
        """,
        "repetition_stats": """
            WITH words AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
            uni AS (SELECT doc_id, unnest(w) AS word FROM words),
            ucnt AS (SELECT doc_id, word, count(*) AS c FROM uni GROUP BY 1, 2),
            ustat AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_words,
                             CAST(count(*) AS BIGINT) AS n_distinct_words,
                             CAST(max(c) AS BIGINT) AS top_word_n
                      FROM ucnt GROUP BY 1),
            big AS (SELECT doc_id, w[s.i] || chr(1) || w[s.i + 1] AS bg
                    FROM words, LATERAL (SELECT unnest(range(1, len(w))) AS i) s),
            bcnt AS (SELECT doc_id, bg, count(*) AS c FROM big GROUP BY 1, 2),
            bstat AS (SELECT doc_id, max(c) AS top_bigram_n FROM bcnt GROUP BY 1)
            SELECT u.doc_id, u.n_words, u.n_distinct_words, u.top_word_n,
                   CAST(COALESCE(b.top_bigram_n, 0) AS BIGINT) AS top_bigram_n
            FROM ustat u LEFT JOIN bstat b ON u.doc_id = b.doc_id
        """,
        "embedding_topk": """
            WITH q AS (SELECT embedding FROM embeddings WHERE vec_id = 0),
            s AS (
              SELECT e.vec_id,
                     row_number() OVER (
                       ORDER BY list_cosine_similarity(
                         CAST(e.embedding AS DOUBLE[]), CAST(q.embedding AS DOUBLE[])) DESC,
                       e.vec_id) AS "rank"
              FROM embeddings e, q)
            SELECT vec_id, "rank" FROM s WHERE "rank" <= 10
        """,
        "embedding_ann_ivf": """
            -- the IVF probe set covers all true top-10 at these params on
            -- this corpus, so ANN == exact top-k (the brute oracle)
            WITH q AS (SELECT embedding FROM embeddings WHERE vec_id = 0),
            s AS (
              SELECT e.vec_id,
                     row_number() OVER (
                       ORDER BY list_cosine_similarity(
                         CAST(e.embedding AS DOUBLE[]), CAST(q.embedding AS DOUBLE[])) DESC,
                       e.vec_id) AS "rank"
              FROM embeddings e, q)
            SELECT vec_id, "rank" FROM s WHERE "rank" <= 10
        """,
        "token_count_bpe": """
            SELECT doc_id,
                   CAST(length(regexp_extract_all(text,
                     '''[a-z]+| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\\s'']+'))
                     AS BIGINT) AS n_bpe_tokens
            FROM documents
        """,
        "polygon_join": f"""
            WITH {_ZONES},
            c AS (
              SELECT c_custkey AS r_id,
                     -180.0 + ((c_custkey * 5179) % 33000) / 100.0 AS minx,
                     -85.0 + ((c_custkey * 3607) % 15000) / 100.0 AS miny
              FROM customer
            ),
            cc AS (
              SELECT r_id, minx, miny,
                     minx + (2.0 + ((r_id * 149) % 900) / 100.0) AS maxx,
                     miny + (2.0 + ((r_id * 211) % 700) / 100.0) AS maxy
              FROM c
            )
            SELECT zz.zone_key AS l_id, cc.r_id
            FROM zz, cc
            WHERE zz.minx <= cc.maxx AND zz.maxx >= cc.minx
              AND zz.miny <= cc.maxy AND zz.maxy >= cc.miny
        """,
        "polygon_overlay": f"""
            WITH {_ZONES},
            c AS (
              SELECT c_custkey AS r_id,
                     -180.0 + ((c_custkey * 5179) % 33000) / 100.0 AS minx,
                     -85.0 + ((c_custkey * 3607) % 15000) / 100.0 AS miny
              FROM customer
            ),
            cc AS (
              SELECT r_id, minx, miny,
                     minx + (2.0 + ((r_id * 149) % 900) / 100.0) AS maxx,
                     miny + (2.0 + ((r_id * 211) % 700) / 100.0) AS maxy
              FROM c
            ),
            p AS (
              SELECT zz.zone_key AS l_id, cc.r_id,
                     (zz.maxx - zz.minx) * (zz.maxy - zz.miny) AS a_area,
                     (cc.maxx - cc.minx) * (cc.maxy - cc.miny) AS b_area,
                     (LEAST(zz.maxx, cc.maxx) - GREATEST(zz.minx, cc.minx)) AS iw,
                     (LEAST(zz.maxy, cc.maxy) - GREATEST(zz.miny, cc.miny)) AS ih
              FROM zz, cc
              WHERE LEAST(zz.maxx, cc.maxx) > GREATEST(zz.minx, cc.minx)
                AND LEAST(zz.maxy, cc.maxy) > GREATEST(zz.miny, cc.miny))
            SELECT l_id, r_id,
                   CAST(round(iw * ih * 10000.0) AS BIGINT) AS inter_x10000,
                   CAST(round((a_area + b_area - iw * ih) * 10000.0) AS BIGINT)
                     AS union_x10000,
                   CAST(round((a_area + b_area - 2 * (iw * ih)) * 10000.0) AS BIGINT)
                     AS symdiff_x10000
            FROM p
            WHERE CAST(round(iw * ih * 10000.0) AS BIGINT) > 0
        """,
        "polygon_erase": f"""
            WITH {_ZONES},
            p AS (SELECT zone_key AS fid,
                         (maxx - minx) * (maxy - miny) AS a_area,
                         GREATEST(LEAST(maxx, 60.0) - GREATEST(minx, -60.0), 0.0) AS iw,
                         GREATEST(LEAST(maxy, 40.0) - GREATEST(miny, -40.0), 0.0) AS ih
                  FROM zz)
            SELECT fid,
                   CAST(round((a_area - iw * ih) * 10000.0) AS BIGINT) AS erase_area_x10000
            FROM p
            WHERE round((a_area - iw * ih) * 10000.0) > 0
        """,
        "clip_areas": f"""
            WITH {_ZONES}
            SELECT zone_key AS fid,
                   CAST(round(
                     (LEAST(maxx, 60.0) - GREATEST(minx, -60.0)) *
                     (LEAST(maxy, 40.0) - GREATEST(miny, -40.0)) * 10000.0
                   ) AS BIGINT) AS clip_area_x10000
            FROM zz
            WHERE LEAST(maxx, 60.0) > GREATEST(minx, -60.0)
              AND LEAST(maxy, 40.0) > GREATEST(miny, -40.0)
        """,
        "dissolve_zones": f"""
            WITH {_ZONES}
            SELECT zone_key % 10 AS cat,
                   CAST(count(*) AS BIGINT) AS n_parts,
                   CAST(sum(CAST(round((maxx - minx) * (maxy - miny) * 10000.0)
                     AS BIGINT)) AS BIGINT) AS total_area_x10000,
                   min(minx) AS minx, min(miny) AS miny,
                   max(maxx) AS maxx, max(maxy) AS maxy
            FROM zz
            GROUP BY 1
        """,
        "dissolve_union": """
            -- union area of integer-grid rects = count of DISTINCT covered
            -- unit cells (overlaps counted once — TRUE dissolve semantics)
            WITH p AS (SELECT p_partkey AS fid, p_partkey % 100 AS cat,
                              -180 + (p_partkey * 7321) % 330 AS x0,
                              -85 + (p_partkey * 4231) % 150 AS y0,
                              2 + (p_partkey * 131) % 8 AS w,
                              2 + (p_partkey * 197) % 6 AS h
                       FROM part),
            cells AS (SELECT DISTINCT cat, x0 + cx.c AS cx, y0 + cy.c AS cy
                      FROM p,
                      LATERAL (SELECT unnest(generate_series(0, w - 1)) AS c) cx,
                      LATERAL (SELECT unnest(generate_series(0, h - 1)) AS c) cy)
            SELECT p.cat,
                   CAST(count(DISTINCT p.fid) AS BIGINT) AS n_parts,
                   CAST((SELECT count(*) FROM cells c WHERE c.cat = p.cat) AS BIGINT)
                     AS union_area
            FROM p GROUP BY p.cat
        """,
        "buffer_dissolve": """
            -- square-cap buffer (d=1) of integer horizontal segments =
            -- exact integer rects [x0-1, x0+w+1] x [y0-1, y0+1]; dissolve
            -- union area = DISTINCT covered unit cells
            WITH p AS (SELECT p_partkey AS fid, p_partkey % 100 AS cat,
                              -180 + (p_partkey * 7321) % 330 AS x0,
                              -85 + (p_partkey * 4231) % 150 AS y0,
                              2 + (p_partkey * 131) % 8 AS w
                       FROM part),
            cells AS (SELECT DISTINCT cat, x0 - 1 + cx.c AS cx,
                                      y0 - 1 + cy.c AS cy
                      FROM p,
                      LATERAL (SELECT unnest(generate_series(0, w + 1)) AS c) cx,
                      LATERAL (SELECT unnest(generate_series(0, 1)) AS c) cy)
            SELECT p.cat,
                   CAST(count(DISTINCT p.fid) AS BIGINT) AS n_parts,
                   CAST((SELECT count(*) FROM cells c WHERE c.cat = p.cat) AS BIGINT)
                     AS union_area
            FROM p GROUP BY p.cat
        """,
        "buffer_erode": """
            -- erosion of an integer rect by 1 = inner (w-2)x(h-2) rect,
            -- empty when a side is <= 2 (GEOS negative-buffer semantics)
            SELECT p_partkey AS fid,
                   CAST(CASE WHEN (2 + (p_partkey * 131) % 8) > 2
                              AND (2 + (p_partkey * 197) % 6) > 2
                        THEN ((2 + (p_partkey * 131) % 8) - 2)
                           * ((2 + (p_partkey * 197) % 6) - 2)
                        ELSE 0 END AS BIGINT) AS erode_area
            FROM part
        """,
        "histogram_nchars": """
            SELECT n_chars // 100 AS bucket, CAST(count(*) AS BIGINT) AS n
            FROM documents GROUP BY 1
        """,
        "agg_stats_quantity": """
            SELECT CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS q_sum,
                   CAST(sum(CAST(l_quantity AS BIGINT) * CAST(l_quantity AS BIGINT))
                     AS BIGINT) AS qq_sum,
                   CAST(min(CAST(l_quantity AS BIGINT)) AS BIGINT) AS q_min,
                   CAST(max(CAST(l_quantity AS BIGINT)) AS BIGINT) AS q_max
            FROM lineitem
        """,
        "geom_area_centroid": f"""
            WITH {_ZONES}
            SELECT zone_id,
                   CAST(round((maxx - minx) * (maxy - miny) * 10000.0) AS BIGINT)
                     AS area_x10000,
                   CAST(round((minx + maxx) / 2.0 * 200.0) AS BIGINT) AS cx_x200,
                   CAST(round((miny + maxy) / 2.0 * 200.0) AS BIGINT) AS cy_x200
            FROM zz
        """,
        "spatial_sort_topk": f"""
            WITH {_DOCS_GEO}
            SELECT doc_id, {_tile_expr(12)[0]} * 4096 + {_tile_expr(12)[1]} AS cell_12
            FROM d
            ORDER BY cell_12, doc_id
            LIMIT 100
        """,
        "embedding_neardup": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a, embeddings b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.45
        """,
        "contour_polygons": """
            -- ramp bands between half-integer levels: one connected diagonal
            -- strip per band, no holes
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(128) b),
            bands AS (SELECT CASE WHEN gx + gy < 30.5 THEN 0
                                  WHEN gx + gy < 80.5 THEN 1
                                  WHEN gx + gy < 130.5 THEN 2
                                  ELSE 3 END AS band
                      FROM px)
            SELECT CAST(band AS DOUBLE) AS value,
                   CAST(count(*) AS BIGINT) AS n_pixels,
                   CAST(0 AS BIGINT) AS n_holes
            FROM bands GROUP BY band
        """,
        "raster_as_features": f"""
            WITH {_blobs_cte(3, 3)}
            SELECT gx, gy, CAST(v AS DOUBLE) AS value FROM pv WHERE v > 0
        """,
        "color_relief": _color_relief_sql(),
        "predicate_counts": _predicate_counts_sql(),
        "rasterize_polygons": f"""
            -- scanline burn of the zone rectangles into the 1440x680 quarter-
            -- degree grid (stages/rasterize: pixel-center parity rule, REPLACE
            -- merge with feat order = key asc => max key wins; checksum uses
            -- GLOBAL pixel weights).  Tile list = clamped vertex-bbox cover.
            WITH {_ZONES},
            zp AS (SELECT zone_key, zone_key % 250 + 1 AS burn,
                     (minx - (-180.0)) / 0.25 AS pxlo, (maxx - (-180.0)) / 0.25 AS pxhi,
                     (maxy - 85.0) / (-0.25) AS pylo, (miny - 85.0) / (-0.25) AS pyhi
                   FROM zz),
            burned AS (
              SELECT c.c AS gx, r.r AS gy, arg_max(burn, zone_key) AS burn
              FROM zp,
              LATERAL (SELECT unnest(generate_series(
                 GREATEST(CAST(floor(pylo - 0.5) AS BIGINT) + 1, 0),
                 LEAST(CAST(floor(pyhi - 0.5) AS BIGINT), 679))) AS r) r,
              LATERAL (SELECT unnest(generate_series(
                 GREATEST(CAST(ceil(pxlo - 0.5) AS BIGINT), 0),
                 LEAST(CAST(ceil(pxhi - 0.5) AS BIGINT) - 1, 1439))) AS c) c
              GROUP BY 1, 2),
            tiles AS (SELECT DISTINCT tx.t AS tx, ty.t AS ty FROM zp,
              LATERAL (SELECT unnest(generate_series(
                 GREATEST(CAST(floor(pxlo / 256.0) AS BIGINT), 0),
                 LEAST(CAST(floor(pxhi / 256.0) AS BIGINT), 5))) AS t) tx,
              LATERAL (SELECT unnest(generate_series(
                 GREATEST(CAST(floor(pylo / 256.0) AS BIGINT), 0),
                 LEAST(CAST(floor(pyhi / 256.0) AS BIGINT), 2))) AS t) ty),
            sums AS (SELECT gx // 256 AS tx, gy // 256 AS ty,
                            sum(CAST(burn AS BIGINT) * ((gy * 1440 + gx) % 7 + 1)) AS s
                     FROM burned GROUP BY 1, 2)
            SELECT CAST(t.tx AS INTEGER) AS tx, CAST(t.ty AS INTEGER) AS ty,
                   CAST(COALESCE(s.s, 0) % 65536 AS BIGINT) AS checksum
            FROM tiles t LEFT JOIN sums s ON s.tx = t.tx AND s.ty = t.ty
        """,
        "rasterize_invert": f"""
            -- gdal_rasterize -i: 9 where NO zone covers the pixel center
            -- (complement of the rasterize_polygons coverage), checksum with
            -- GLOBAL pixel weights over each tile's clipped extent.
            WITH {_ZONES},
            zp AS (SELECT zone_key,
                     (minx - (-180.0)) / 0.25 AS pxlo, (maxx - (-180.0)) / 0.25 AS pxhi,
                     (maxy - 85.0) / (-0.25) AS pylo, (miny - 85.0) / (-0.25) AS pyhi
                   FROM zz),
            burned AS (
              SELECT DISTINCT c.c AS gx, r.r AS gy
              FROM zp,
              LATERAL (SELECT unnest(generate_series(
                 GREATEST(CAST(floor(pylo - 0.5) AS BIGINT) + 1, 0),
                 LEAST(CAST(floor(pyhi - 0.5) AS BIGINT), 679))) AS r) r,
              LATERAL (SELECT unnest(generate_series(
                 GREATEST(CAST(ceil(pxlo - 0.5) AS BIGINT), 0),
                 LEAST(CAST(ceil(pxhi - 0.5) AS BIGINT) - 1, 1439))) AS c) c),
            px AS (SELECT a.range AS gx, b.range AS gy
                   FROM range(1440) a, range(680) b),
            inv AS (SELECT px.gx, px.gy,
                           CASE WHEN b.gx IS NULL THEN 9 ELSE 0 END AS v
                    FROM px LEFT JOIN burned b
                    ON b.gx = px.gx AND b.gy = px.gy)
            SELECT CAST(gx // 256 AS INTEGER) AS tx,
                   CAST(gy // 256 AS INTEGER) AS ty,
                   CAST(sum(v * ((gy * 1440 + gx) % 7 + 1)) % 65536 AS BIGINT)
                     AS checksum
            FROM inv GROUP BY 1, 2
        """,
        "contour_ramp": _contour_sql(),
        "contour_band_areas": _contour_band_sql(),
        "contour_rings_interp": _contour_rings_sql(),
        "contour_polygons_interp": _contour_polygons_interp_sql(),
        "contour_rings_closed": """
            -- diagonal ramp v = gx + gy on [0,127]^2 (2x2 tiles of 64).
            -- L=50.25: suplevel region = domain minus the (0,0) corner
            -- triangle; ring = iso chain (2*floor(L)+2 vertices) + 3 corners,
            -- border walk length 4*127 - 2*L.  L=180.75: the (127,127)
            -- corner triangle; chain 2*(254-floor(L)) vertices + 1 corner,
            -- border walk 2*(254-L).  All vertices dyadic -> shoelace exact.
            SELECT CAST(50.25 AS DOUBLE) AS level, CAST(0 AS BIGINT) AS ring_id,
                   CAST(2*50 + 2 + 3 AS BIGINT) AS n_vertices, TRUE AS closed,
                   CAST(floor((127.0*127.0 - 50.25*50.25/2.0) * 100.0 + 0.5)
                        AS BIGINT) AS area_x100,
                   CAST(floor((50.25*sqrt(2.0) + 508.0 - 2.0*50.25) * 100.0 + 0.5)
                        AS BIGINT) AS length_x100
            UNION ALL
            SELECT CAST(180.75 AS DOUBLE), CAST(0 AS BIGINT),
                   CAST(2*(254 - 180) + 1 AS BIGINT), TRUE,
                   CAST(floor(((254.0 - 180.75)*(254.0 - 180.75)/2.0) * 100.0 + 0.5)
                        AS BIGINT),
                   CAST(floor(((254.0 - 180.75)*sqrt(2.0) + 2.0*(254.0 - 180.75))
                              * 100.0 + 0.5) AS BIGINT)
        """,
        "wrapdateline": _wrapdateline_sql(),
        "geodesic_measures": _geodesic_sql(),
        "geodesic_ellipsoidal": _geodesic_ellipsoidal_sql(),
        "line_interpolate": f"""
            -- ring order (minx,miny)->(maxx,miny)->(maxx,maxy)->(minx,maxy);
            -- boundaries use STRICT < so an exact edge-end lands on the next
            -- segment with t=0, matching np.searchsorted(side='right')
            WITH {_ZONES},
            m AS (SELECT zone_key, minx, miny, maxx, maxy,
                         maxx - minx AS wl, maxy - miny AS hl,
                         0.3 * ((maxx - minx) + (maxy - miny)
                                + (maxx - minx) + (maxy - miny)) AS dd
                  FROM zz)
            SELECT zone_key,
                   CAST(floor((CASE
                       WHEN dd < wl THEN minx + ((dd - 0.0) / wl) * (maxx - minx)
                       WHEN dd < wl + hl THEN maxx + ((dd - wl) / hl) * (maxx - maxx)
                       WHEN dd < wl + hl + wl
                            THEN maxx + ((dd - (wl + hl)) / wl) * (minx - maxx)
                       ELSE minx + ((dd - (wl + hl + wl)) / hl) * (minx - minx)
                   END) * 10000000.0 + 0.5) AS BIGINT) AS px_e7,
                   CAST(floor((CASE
                       WHEN dd < wl THEN miny + ((dd - 0.0) / wl) * (miny - miny)
                       WHEN dd < wl + hl THEN miny + ((dd - wl) / hl) * (maxy - miny)
                       WHEN dd < wl + hl + wl
                            THEN maxy + ((dd - (wl + hl)) / wl) * (maxy - maxy)
                       ELSE maxy + ((dd - (wl + hl + wl)) / hl) * (miny - maxy)
                   END) * 10000000.0 + 0.5) AS BIGINT) AS py_e7
            FROM m
        """,
        "lineref_points": f"""
            -- ogrlineref -create mirror: k*0.97 measures along the ring
            -- (minx,miny)->(maxx,miny)->(maxx,maxy)->(minx,maxy)->close.
            -- Cumulative boundaries reproduce np.cumsum's left association
            -- (wl, wl+hl, (wl+hl)+wl, ((wl+hl)+wl)+hl) and STRICT < matches
            -- searchsorted(side='right'); the last segment's t clamps to 1.
            WITH {_ZONES},
            m AS (SELECT zone_key, minx, miny, maxx, maxy,
                         maxx - minx AS wl, maxy - miny AS hl
                  FROM zz),
            pts AS (
              SELECT zone_key, minx, miny, maxx, maxy, wl, hl,
                     CAST(r.range AS DOUBLE) * 0.97 AS dd
              FROM m JOIN range(64) r
                ON CAST(r.range AS DOUBLE)
                   <= floor((((wl + hl) + wl) + hl) / 0.97)
            )
            SELECT zone_key,
                   CAST(floor(dd * 100.0 + 0.5) AS BIGINT) AS m_e2,
                   CAST(floor((CASE
                       WHEN dd < wl THEN minx + (dd / wl) * (maxx - minx)
                       WHEN dd < wl + hl THEN maxx
                       WHEN dd < (wl + hl) + wl
                            THEN maxx + ((dd - (wl + hl)) / wl) * (minx - maxx)
                       ELSE minx
                   END) * 10000000.0 + 0.5) AS BIGINT) AS px_e7,
                   CAST(floor((CASE
                       WHEN dd < wl THEN miny
                       WHEN dd < wl + hl THEN miny + ((dd - wl) / hl) * (maxy - miny)
                       WHEN dd < (wl + hl) + wl THEN maxy
                       ELSE maxy + LEAST((dd - ((wl + hl) + wl)) / hl, 1.0)
                                   * (miny - maxy)
                   END) * 10000000.0 + 0.5) AS BIGINT) AS py_e7
            FROM pts
        """,
        "line_locate": f"""
            -- ST_LineLocatePoint mirror: project the key-derived probe onto
            -- each rect-ring edge (order (minx,miny)->(maxx,miny)->(maxx,maxy)
            -- ->(minx,maxy)->close), argmin d2 with ties -> lowest edge index
            -- (numpy argmin first-min).  Segment length = greatest(|dx|,|dy|)
            -- == hypot exactly for axis-aligned edges; cumulative starts use
            -- numpy cumsum's left association ((wl+hl)+wl).
            WITH {_ZONES},
            m AS (SELECT zone_key, minx, miny, maxx, maxy,
                         maxx - minx AS wl, maxy - miny AS hl,
                         minx + (CAST((zone_key * 37) % 300 AS DOUBLE) / 100.0)
                                * (maxx - minx) AS px,
                         miny + ((CAST((zone_key * 53) % 300 AS DOUBLE) / 100.0)
                                 - 1.0) * (maxy - miny) AS py
                  FROM zz),
            edges AS (
              SELECT zone_key, px, py, wl, hl, 0 AS edge,
                     minx AS x1, miny AS y1,
                     maxx - minx AS dx, 0.0 AS dy, 0.0 AS cums FROM m
              UNION ALL
              SELECT zone_key, px, py, wl, hl, 1,
                     maxx, miny, 0.0, maxy - miny, wl FROM m
              UNION ALL
              SELECT zone_key, px, py, wl, hl, 2,
                     maxx, maxy, minx - maxx, 0.0, wl + hl FROM m
              UNION ALL
              SELECT zone_key, px, py, wl, hl, 3,
                     minx, maxy, 0.0, miny - maxy, (wl + hl) + wl FROM m),
            tt AS (SELECT *,
                     LEAST(GREATEST(((px - x1) * dx + (py - y1) * dy)
                                    / (dx * dx + dy * dy), 0.0), 1.0) AS t
                   FROM edges),
            d AS (SELECT *,
                    (px - (x1 + t * dx)) * (px - (x1 + t * dx))
                  + (py - (y1 + t * dy)) * (py - (y1 + t * dy)) AS d2
                  FROM tt),
            r AS (SELECT *, row_number() OVER (PARTITION BY zone_key
                                               ORDER BY d2 ASC, edge ASC) AS rn
                  FROM d)
            SELECT zone_key, CAST(edge AS BIGINT) AS edge,
                   CAST(floor(((cums + t * greatest(abs(dx), abs(dy)))
                               / (((wl + hl) + wl) + hl)) * 10000000.0 + 0.5)
                        AS BIGINT) AS frac_e7,
                   CAST(floor(sqrt(d2) * 10000000.0 + 0.5) AS BIGINT)
                     AS dist_e7
            FROM r WHERE rn = 1
        """,
        "line_substring": _line_substring_sql().replace("{zones}", _ZONES),
        "convex_hull": f"""
            -- hull of corners + interior points == the corner ring
            -- ((minx,miny) -> (maxx,miny) -> (maxx,maxy) -> (minx,maxy) ->
            -- close); sums in ring order, left-associated like np.sum
            WITH {_ZONES}
            SELECT zone_key, CAST(5 AS BIGINT) AS n_vertices,
                   CAST(floor(((((minx + maxx) + maxx) + minx) + minx)
                              * 10000000.0 + 0.5) AS BIGINT) AS sx_e7,
                   CAST(floor(((((miny + miny) + maxy) + maxy) + miny)
                              * 10000000.0 + 0.5) AS BIGINT) AS sy_e7
            FROM zz
        """,
        "boundary": f"""
            -- perimeter = np.hypot(diff).sum() over [wl, hl, wl, hl]
            -- (left-assoc); hypot of an axis-aligned edge == the exact side
            WITH {_ZONES}
            SELECT zone_key, CAST(5 AS BIGINT) AS n_vertices,
                   CAST(floor(((((maxx - minx) + (maxy - miny))
                                + (maxx - minx)) + (maxy - miny))
                              * 10000000.0 + 0.5) AS BIGINT) AS blen_e7
            FROM zz
        """,
        "simplify_roundtrip": f"""
            -- densify + DP-simplify must recover exactly the 5 ring corners;
            -- vertex-coordinate sums in ring order, left-associated like
            -- np.sum over the 5-element array
            WITH {_ZONES}
            SELECT zone_key, CAST(5 AS BIGINT) AS n_vertices,
                   CAST(floor(((((minx + maxx) + maxx) + minx) + minx)
                              * 10000000.0 + 0.5) AS BIGINT) AS sx_e7,
                   CAST(floor(((((miny + miny) + maxy) + maxy) + miny)
                              * 10000000.0 + 0.5) AS BIGINT) AS sy_e7
            FROM zz
        """,
        "explode_collections": f"""
            WITH {_ZONES}
            SELECT zone_key // 2 AS pair_key,
                   CAST(floor(minx * 10000000.0 + 0.5) AS BIGINT) AS x0_e7,
                   CAST(floor(miny * 10000000.0 + 0.5) AS BIGINT) AS y0_e7
            FROM zz
        """,
        "geom_transforms": f"""
            WITH {_ZONES}
            SELECT zone_key,
                   CAST(1 + ceil((maxx - minx) / 0.7) + ceil((maxy - miny) / 0.7)
                          + ceil((maxx - minx) / 0.7) + ceil((maxy - miny) / 0.7)
                        AS BIGINT) AS n_seg_vertices,
                   CAST(floor(miny * 10000000.0 + 0.5) AS BIGINT) AS sw_x0_e7,
                   CAST(floor(minx * 10000000.0 + 0.5) AS BIGINT) AS sw_y0_e7,
                   CAST(floor((round(minx / 0.03) * 0.03) * 10000000.0 + 0.5)
                        AS BIGINT) AS sp_x0_e7,
                   CAST(floor((round(miny / 0.03) * 0.03) * 10000000.0 + 0.5)
                        AS BIGINT) AS sp_y0_e7
            FROM zz
        """,
        "arrow_ipc_roundtrip": f"""
            -- zones are written key-ascending; IPC batches split
            -- sequentially at 256 rows, so batch_idx = rank // 256
            WITH {_ZONES},
            rr AS (SELECT zone_key, minx,
                     (row_number() OVER (ORDER BY zone_key) - 1) // 256
                       AS batch_idx
                   FROM zz)
            SELECT CAST(batch_idx AS BIGINT) AS batch_idx,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(zone_key) AS BIGINT) AS key_sum,
                   CAST(floor(min(minx) * 10000000.0 + 0.5) AS BIGINT)
                     AS minx_e7_min
            FROM rr GROUP BY batch_idx
        """,
        "geodesic_azimuth": f"""
            WITH {_ZONES},
            m AS (SELECT zone_key,
                    radians((miny + maxy) / 2.0) AS p1,
                    radians((minx + maxx) / 2.0) AS l1,
                    radians(miny) AS p2, radians(minx) AS l2,
                    radians(45.0 + CAST(zone_key % 270 AS DOUBLE)) AS b,
                    CAST(100000 + (zone_key % 900) * 1000 AS DOUBLE)
                      / 6371007.180918475 AS d
                  FROM zz),
            a AS (SELECT zone_key, p1, l1, b, d,
                    degrees(atan2(sin(l2 - l1) * cos(p2),
                                  cos(p1) * sin(p2)
                                  - sin(p1) * cos(p2) * cos(l2 - l1))) AS az,
                    asin(sin(p1) * cos(d) + cos(p1) * sin(d) * cos(b)) AS dp
                  FROM m)
            SELECT zone_key,
                   CAST(floor((CASE WHEN az < 0.0 THEN az + 360.0 ELSE az END)
                              * 1000000.0 + 0.5) AS BIGINT) AS az_e6,
                   CAST(floor(degrees(l1 + atan2(sin(b) * sin(d) * cos(p1),
                                                 cos(d) - sin(p1) * sin(dp)))
                              * 1000000.0 + 0.5) AS BIGINT) AS dst_x_e6,
                   CAST(floor(degrees(dp) * 1000000.0 + 0.5) AS BIGINT)
                     AS dst_y_e6
            FROM a
        """,
        "layer_info": f"""
            WITH {_ZONES}
            SELECT CAST(count(*) AS BIGINT) AS n_features,
                   min(minx) AS ext_minx, min(miny) AS ext_miny,
                   max(maxx) AS ext_maxx, max(maxy) AS ext_maxy,
                   'POLYGON' AS geom_type
            FROM zz
        """,
        "quantiles_quantity": """
            WITH vc AS (SELECT CAST(l_quantity AS BIGINT) AS v, count(*) AS c
                        FROM lineitem GROUP BY 1),
            tot AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM vc),
            cum AS (SELECT v, sum(c) OVER (ORDER BY v) AS cc FROM vc)
            SELECT t.n,
              (SELECT min(v) FROM cum WHERE cc >= CAST(floor(0.25*(t.n-1)) AS BIGINT) + 1) AS q25,
              (SELECT min(v) FROM cum WHERE cc >= CAST(floor(0.5*(t.n-1)) AS BIGINT) + 1) AS q50,
              (SELECT min(v) FROM cum WHERE cc >= CAST(floor(0.75*(t.n-1)) AS BIGINT) + 1) AS q75,
              (SELECT min(v) FROM cum WHERE cc >= CAST(floor(0.9*(t.n-1)) AS BIGINT) + 1) AS q90
            FROM tot t
        """,
        "group_quantiles": """
            WITH vc AS (SELECT l_returnflag,
                               CAST(l_quantity AS BIGINT) AS v, count(*) AS c
                        FROM lineitem GROUP BY 1, 2),
            tot AS (SELECT l_returnflag, CAST(sum(c) AS BIGINT) AS n
                    FROM vc GROUP BY 1),
            cum AS (SELECT l_returnflag, v,
                           sum(c) OVER (PARTITION BY l_returnflag
                                        ORDER BY v) AS cc
                    FROM vc)
            SELECT t.l_returnflag, t.n,
              (SELECT min(v) FROM cum c WHERE c.l_returnflag = t.l_returnflag
                 AND cc >= CAST(floor(0.25*(t.n-1)) AS BIGINT) + 1) AS q25,
              (SELECT min(v) FROM cum c WHERE c.l_returnflag = t.l_returnflag
                 AND cc >= CAST(floor(0.5*(t.n-1)) AS BIGINT) + 1) AS q50,
              (SELECT min(v) FROM cum c WHERE c.l_returnflag = t.l_returnflag
                 AND cc >= CAST(floor(0.75*(t.n-1)) AS BIGINT) + 1) AS q75
            FROM tot t
        """,
        "stack_bands": _stack_bands_sql(),
        "calc_two_bands": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(128) a, range(128) b),
            v AS (SELECT gx, gy,
                         (CAST(gx + gy AS DOUBLE)
                          + CAST(((gx // 8 + gy // 8) % 2) * 255 AS DOUBLE)) / 2.0 AS v
                  FROM px)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(v) AS BIGINT)
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM v GROUP BY 1, 2
        """,
        "having_segments": """
            SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n
            FROM customer GROUP BY 1
            HAVING count(*) * 5 >= (SELECT count(*) FROM customer)
        """,
        "rank_orders": """
            SELECT o_custkey, o_orderkey, CAST(rn AS BIGINT) AS rn
            FROM (SELECT o_custkey, o_orderkey,
                         ROW_NUMBER() OVER (PARTITION BY o_custkey
                             ORDER BY o_totalprice DESC, o_orderkey) AS rn
                  FROM orders)
            WHERE rn <= 3
        """,
        "select_band": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(128) a, range(128) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(2 AS BIGINT) AS band,
                   CAST(sum(((gx // 8 + gy // 8) % 2) * 255
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "left_join_orders": """
            SELECT c.c_custkey,
                   CAST(a.n AS BIGINT) AS n_orders,
                   CAST(a.s AS BIGINT) AS sum_cents
            FROM customer c LEFT JOIN (
              SELECT o_custkey, count(*) AS n,
                     sum(CAST(round(o_totalprice * 100.0) AS BIGINT)) AS s
              FROM orders GROUP BY 1) a ON a.o_custkey = c.c_custkey
        """,
        "retile_overlap": _retile_sql(),
        "png_tiles_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(((gx // 8 + gy // 8) % 2) * 255
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "gpkg_tiles_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(((gx // 8 + gy // 8) % 2) * 255
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "explode_geometrycollection": """
            WITH n AS (SELECT CAST(n_nationkey AS BIGINT) AS k FROM nation),
            parts AS (
              SELECT k, 1 AS geom_type, k * 1000000 AS x_u6,
                     k * 1000000 + 500000 AS y_u6 FROM n          -- point
              UNION ALL
              SELECT k, 2, k * 1000000, 0 FROM n                  -- line p0
              UNION ALL
              SELECT k, 1, (k + 2) * 1000000, 2000000 FROM n      -- mp a
              UNION ALL
              SELECT k, 1, (k + 3) * 1000000, 3000000 FROM n      -- mp b
              UNION ALL
              SELECT k, 1, (k + 9) * 1000000, 9000000 FROM n)     -- nested
            SELECT k AS n_nationkey, CAST(geom_type AS BIGINT) AS geom_type,
                   CAST(x_u6 AS BIGINT) AS x_u6, CAST(y_u6 AS BIGINT) AS y_u6
            FROM parts
        """,
        "curve_area": """
            WITH n AS (SELECT CAST(n_nationkey AS BIGINT) AS k FROM nation)
            SELECT k AS n_nationkey,
                   CASE k % 3 WHEN 0 THEN 'disc'
                              WHEN 1 THEN 'square_hole'
                              ELSE 'quarter_pie' END AS kind,
                   CAST(round(CASE k % 3
                     WHEN 0 THEN pi() * (1.0 + (k % 4)) * (1.0 + (k % 4))
                     WHEN 1 THEN (2.0 + (k % 5)) * (2.0 + (k % 5))
                                 - pi() * 0.25
                     ELSE pi() * (1.0 + (k % 3)) * (1.0 + (k % 3)) / 4.0
                   END * 1e6) AS BIGINT) AS area_u6
            FROM n
        """,
        "force_2d": """
            WITH n AS (SELECT CAST(n_nationkey AS BIGINT) AS k FROM nation),
            pz AS (SELECT k, 'pointz' AS kind, 0 AS seq,
                          k * 1.5 AS x, k * 2.5 AS y
                   FROM n WHERE k % 3 = 0),
            lz AS (SELECT k, 'linez' AS kind, i.i AS seq,
                          k * 1.0 + i.i AS x, k + 0.25 + 1.5 * i.i AS y
                   FROM n, (SELECT unnest([0, 1]) AS i) i
                   WHERE k % 3 = 1),
            gz AS (SELECT k, 'polyz' AS kind, i.i AS seq,
                          k + [0.0,1.0,1.0,0.0,0.0][i.i + 1] AS x,
                          k + [0.0,0.0,1.0,1.0,0.0][i.i + 1] AS y
                   FROM n, (SELECT unnest(generate_series(0, 4)) AS i) i
                   WHERE k % 3 = 2)
            SELECT k AS n_nationkey, kind, CAST(seq AS BIGINT) AS seq,
                   CAST(round(x * 1e6) AS BIGINT) AS x_u6,
                   CAST(round(y * 1e6) AS BIGINT) AS y_u6
            FROM (SELECT * FROM pz UNION ALL SELECT * FROM lz
                  UNION ALL SELECT * FROM gz)
        """,
        # CurveToLine: vertices recomputed from the exact arc parameters;
        # the engine recovers center/angles from the 3 control points
        # (circumcircle + atan2) to ~1e-12, far inside the 1e-6 rounding
        "curve_linearize": """
            WITH n AS (SELECT CAST(n_nationkey AS BIGINT) AS k FROM nation),
            p AS (SELECT k, (k % 5) * 10.0 AS cx, (k // 5) * 10.0 AS cy,
                         1.0 + (k % 3) AS r, 10.0 * (k % 7) AS a0,
                         83.0 + 30.0 * (k % 4) AS sw
                  FROM n),
            arcs AS (
              SELECT k, cx, cy, r, a0, sw, 0 AS arc,
                     CAST(0 AS BIGINT) AS seq0 FROM p
              UNION ALL
              SELECT k, cx, cy, r, a0 + sw AS a0, 45.0 AS sw, 1 AS arc,
                     CAST(ceil(sw / 4.0) AS BIGINT) AS seq0
              FROM p WHERE k % 5 = 0),
            seg AS (SELECT *, CAST(ceil(sw / 4.0) AS BIGINT) AS nseg FROM arcs),
            v AS (SELECT k, arc, seq0 + i.i AS seq,
                         a0 + sw * i.i / nseg AS ang, cx, cy, r, i.i AS i
                  FROM seg,
                       LATERAL (SELECT unnest(generate_series(0, nseg)) AS i) i
                  WHERE NOT (arc = 1 AND i.i = 0))
            SELECT k AS n_nationkey, seq,
                   CAST(round((cx + r * cos(radians(ang))) * 1e6) AS BIGINT) AS x_u6,
                   CAST(round((cy + r * sin(radians(ang))) * 1e6) AS BIGINT) AS y_u6
            FROM v
        """,
        # JPEG tile sink: the checker's 8-aligned constant blocks round-trip
        # the lossy baseline pipeline exactly at q>=75, so the PNG oracle
        # holds bit-for-bit for the .jpg tile tree too
        "jpeg_420_roundtrip": """
            WITH mb AS (SELECT a.range AS mi, b.range AS mj
                        FROM range(10) a, range(10) b)
            SELECT CAST(mj // 5 AS BIGINT) AS x, CAST(mi // 5 AS BIGINT) AS y,
                   CAST(sum(((mi*37 + mj*101 + 13) % 256) * 256) AS BIGINT)
                       AS sum_r
            FROM mb GROUP BY 1, 2
        """,
        "jpeg_progressive_roundtrip": """
            WITH mb AS (SELECT a.range AS mi, b.range AS mj
                        FROM range(10) a, range(10) b)
            SELECT CAST(mj // 5 AS BIGINT) AS x, CAST(mi // 5 AS BIGINT) AS y,
                   CAST(sum(((mi*37 + mj*101 + 17) % 256) * 256) AS BIGINT)
                       AS sum_r
            FROM mb GROUP BY 1, 2
        """,
        "jpeg_tiles_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(((gx // 8 + gy // 8) % 2) * 255
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "gdal_translate_chain": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(160) a, range(160) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(
                            CAST((gx-80)*(gx-80) + (gy-80)*(gy-80) AS DOUBLE)
                            / 64.0 * 2.0 + 1.0) AS BIGINT)
                            * (((gy % 64) * (CASE WHEN gx // 64 = 2 THEN 32 ELSE 64 END)
                                + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "gdalcompare": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            d AS (SELECT gx, gy, gx // 64 AS x, gy // 64 AS y,
                         CAST(gx + gy AS DOUBLE) AS v,
                         CASE WHEN gx + gy >= 200 THEN 5.0 ELSE 0.0 END AS delta
                  FROM px)
            SELECT CAST(4 AS BIGINT) AS z, CAST(x AS BIGINT) AS x,
                   CAST(y AS BIGINT) AS y, CAST(1 AS BIGINT) AS band,
                   CAST(sum(CASE WHEN delta <> 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_diff,
                   CAST(floor(max(delta) * 100 + 0.5) AS BIGINT) AS max_abs_x100,
                   CAST(((sum(CAST(trunc(v + delta) AS BIGINT)
                              * (((gy % 64) * 64 + gx % 64) % 7 + 1))
                          - sum(CAST(trunc(v) AS BIGINT)
                                * (((gy % 64) * 64 + gx % 64) % 7 + 1)))
                         % 65536 + 65536) % 65536
                        AS BIGINT) AS checksum_delta
            FROM d GROUP BY x, y
        """,
        "gtiff_stream_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(160) a, range(160) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(((gx-80)*(gx-80) + (gy-80)*(gy-80)) // 64
                            * (((gy % 64) * (CASE WHEN gx // 64 = 2 THEN 32 ELSE 64 END)
                                + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "gtiff_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(160) a, range(160) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(((gx-80)*(gx-80) + (gy-80)*(gy-80)) // 64
                            * (((gy % 64) * (CASE WHEN gx // 64 = 2 THEN 32 ELSE 64 END)
                                + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "gtiff_lzw_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(160) a, range(160) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(((gx-80)*(gx-80) + (gy-80)*(gy-80)) // 64
                            * (((gy % 64) * (CASE WHEN gx // 64 = 2 THEN 32 ELSE 64 END)
                                + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "cog_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(160) a, range(160) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(((gx-80)*(gx-80) + (gy-80)*(gy-80)) // 64
                            * (((gy % 64) * (CASE WHEN gx // 64 = 2 THEN 32 ELSE 64 END)
                                + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "geojson_roundtrip": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100
            FROM zz
        """,
        "dxf_roundtrip": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100
            FROM zz
        """,
        "gpx_roundtrip": """
            SELECT CAST(p_partkey AS BIGINT) AS pk,
                   'p' || CAST(p_partkey AS VARCHAR) AS name,
                   CAST(-720 + (p_partkey % 1400) AS BIGINT) AS x4,
                   CAST(-340 + (p_partkey % 560) AS BIGINT) AS y4
            FROM part
        """,
        "vsizip_roundtrip": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100
            FROM zz
        """,
        "gml_roundtrip": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100
            FROM zz
        """,
        "kml_roundtrip": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100
            FROM zz
        """,
        "gpkg_roundtrip": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100
            FROM zz
        """,
        "ogr2ogr_convert": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100
            FROM zz WHERE zone_key % 5 = 0
        """,
        "shp_roundtrip": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100
            FROM zz
        """,
        # GeoParquet: vertex sums as the shapefile mirror, plus the
        # footer-folded dataset bbox (min/max over all zone rects) and the
        # single Polygon geometry type
        "flatgeobuf_roundtrip": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100
            FROM zz
        """,
        "geoparquet_roundtrip": f"""
            WITH {_ZONES.strip().lstrip()},
            bb AS (SELECT CAST(floor(min(minx) * 100 + 0.5)
                             + floor(min(miny) * 100 + 0.5)
                             + floor(max(maxx) * 100 + 0.5)
                             + floor(max(maxy) * 100 + 0.5) AS BIGINT) AS s
                   FROM zz)
            SELECT CAST(zone_key AS BIGINT) AS zone_key, zone_id,
                   CAST(5 AS BIGINT) AS n_vertices,
                   CAST(3 * floor(minx * 100 + 0.5) + 2 * floor(maxx * 100 + 0.5)
                        + 3 * floor(miny * 100 + 0.5) + 2 * floor(maxy * 100 + 0.5)
                        AS BIGINT) AS coord_sum_x100,
                   (SELECT s FROM bb) AS bbox_sum_x100,
                   CAST(1 AS BIGINT) AS n_geom_types
            FROM zz
        """,
        "tin_surface_area": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT CAST(zone_key AS BIGINT) AS zone_key,
                   CAST(2 AS BIGINT) AS n_patches,
                   CAST(round((maxx - minx) * (maxy - miny) * 20000.0)
                        AS BIGINT) AS area_x20000
            FROM zz
        """,
        "hilbert_sort_topk": f"""
            WITH RECURSIVE {_DOCS_GEO.strip().rstrip()},
            pts AS (SELECT doc_id, {_tile_expr(12)[0]} AS tx_12,
                           {_tile_expr(12)[1]} AS ty_12 FROM d),
            hs(doc_id, tx_12, ty_12, x, y, s, hd) AS (
              SELECT doc_id, tx_12, ty_12, tx_12, ty_12,
                     CAST(2048 AS BIGINT), CAST(0 AS BIGINT) FROM pts
              UNION ALL
              SELECT doc_id, tx_12, ty_12,
                CASE WHEN (y & s) = 0
                     THEN (CASE WHEN (x & s) > 0 THEN s - 1 - y ELSE y END)
                     ELSE x END,
                CASE WHEN (y & s) = 0
                     THEN (CASE WHEN (x & s) > 0 THEN s - 1 - x ELSE x END)
                     ELSE y END,
                s // 2,
                hd + s * s * xor(3 * (CASE WHEN (x & s) > 0 THEN 1 ELSE 0 END),
                                 CASE WHEN (y & s) > 0 THEN 1 ELSE 0 END)
              FROM hs WHERE s > 0
            )
            SELECT doc_id, tx_12, ty_12, hd AS hkey
            FROM hs WHERE s = 0
            ORDER BY hkey, doc_id LIMIT 100
        """,
        "media_inventory": """
            WITH docs AS (SELECT range AS k FROM range(2000)),
            sp AS (SELECT k, j.j AS j FROM docs,
                   LATERAL (SELECT unnest(generate_series(0, k % 4)) AS j) j),
            ks AS (SELECT k, j,
                          ['text','image','audio','video'][(k + j) % 4 + 1] AS kind
                   FROM sp),
            med AS (SELECT k, j, kind,
                           printf('media://%s/%09d/%d', kind, k, j) AS ref
                    FROM ks WHERE kind <> 'text')
            SELECT kind, CAST(count(*) AS BIGINT) AS n_refs,
                   CAST(count(DISTINCT k) AS BIGINT) AS n_docs,
                   min(ref) AS min_ref, max(ref) AS max_ref
            FROM med GROUP BY kind
        """,
        "span_stats": """
            WITH docs AS (SELECT range AS k FROM range(2000)),
            sp AS (SELECT k, j.j AS j FROM docs,
                   LATERAL (SELECT unnest(generate_series(0, k % 4)) AS j) j),
            ks AS (SELECT k, j,
                          ['text','image','audio','video'][(k + j) % 4 + 1] AS kind,
                          (k * 2654435761 + j * 40503) % 4294967296 AS h
                   FROM sp),
            tw AS (SELECT k, j, h, i.i AS i FROM ks,
                   LATERAL (SELECT unnest(generate_series(0, h % 7)) AS i) i
                   WHERE kind = 'text'),
            wl AS (SELECT k, j,
                          len(['raster','vector','tile','warp','merge','cell',
                               'join','span','layer','band','pixel','zone',
                               'index','stream','batch','arrow','shuffle',
                               'actor','block','mosaic']
                              [CAST((h >> (3 * i)) % 20 AS INTEGER) + 1]) AS wlen
                   FROM tw),
            tl AS (SELECT k, j, CAST(sum(wlen) + count(*) - 1 AS BIGINT) AS text_len
                   FROM wl GROUP BY 1, 2),
            adv AS (SELECT ks.k, ks.kind,
                           CASE WHEN ks.kind = 'text' THEN tl.text_len
                                ELSE 1 END AS step
                    FROM ks LEFT JOIN tl ON tl.k = ks.k AND tl.j = ks.j)
            SELECT printf('doc-%09d', k) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_spans,
                   CAST(sum(CASE WHEN kind = 'text' THEN 1 ELSE 0 END) AS BIGINT) AS n_text,
                   CAST(sum(CASE WHEN kind <> 'text' THEN 1 ELSE 0 END) AS BIGINT) AS n_media,
                   CAST(sum(CASE WHEN kind = 'text' THEN step ELSE 0 END) AS BIGINT) AS text_chars,
                   CAST(sum(step) AS BIGINT) AS last_offset
            FROM adv GROUP BY k
        """,
        "bpe_pairs": """
            WITH w AS (SELECT unnest(regexp_extract_all(text, '[^ ]+')) AS word
                       FROM documents),
            p AS (SELECT substr(word, i.i, 2) AS pair FROM w,
                  LATERAL (SELECT unnest(generate_series(1, len(word) - 1)) AS i) i
                  WHERE len(word) >= 2),
            c AS (SELECT pair, CAST(count(*) AS BIGINT) AS cnt FROM p GROUP BY 1)
            SELECT pair, cnt FROM c ORDER BY cnt DESC, pair LIMIT 20
        """,
        "polygonize_rings8": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            diag AS (SELECT count(*) AS n FROM px
                     WHERE gx = gy AND gx >= 10 AND gx <= 180),
            antid AS (SELECT count(*) AS n FROM px
                     WHERE gx + gy = 191 AND gx >= 20 AND gx <= 170),
            wall AS (SELECT count(*) AS n FROM px
                     WHERE abs(gx - 64) + abs(gy - 96) = 12),
            hole AS (SELECT count(*) AS n FROM px
                     WHERE abs(gx - 64) + abs(gy - 96) < 12)
            SELECT 1.0 AS value, CAST(n AS BIGINT) AS n_pixels,
                   CAST(0 AS BIGINT) AS n_holes, CAST(0 AS BIGINT) AS hole_pixels,
                   CAST(n AS BIGINT) AS ring_area FROM diag
            UNION ALL
            SELECT 2.0, CAST(n AS BIGINT), 0, 0, CAST(n AS BIGINT) FROM antid
            UNION ALL
            SELECT 3.0, CAST(w.n AS BIGINT), 1, CAST(h.n AS BIGINT),
                   CAST(w.n + h.n AS BIGINT)
            FROM wall w, hole h
        """,
        "ogrmerge_layers": f"""
            WITH {_ZONES.strip().lstrip()}
            SELECT 'part_zones' AS layer, zone_id, zone_key,
                   minx, miny, maxx, maxy,
                   CAST(NULL AS BIGINT) AS r_id
            FROM zz
            UNION ALL
            SELECT 'cust_zones' AS layer, CAST(NULL AS VARCHAR) AS zone_id,
                   CAST(NULL AS BIGINT) AS zone_key,
                   -180.0 + ((c_custkey * 5179) % 33000) / 100.0 AS minx,
                   -85.0 + ((c_custkey * 3607) % 15000) / 100.0 AS miny,
                   (-180.0 + ((c_custkey * 5179) % 33000) / 100.0)
                       + (2.0 + ((c_custkey * 149) % 900) / 100.0) AS maxx,
                   (-85.0 + ((c_custkey * 3607) % 15000) / 100.0)
                       + (2.0 + ((c_custkey * 211) % 700) / 100.0) AS maxy,
                   c_custkey AS r_id
            FROM customer
        """,
        "mix_sources": """
            SELECT doc_id, source,
                   CAST((25 + (CAST(substr(source, 4) AS BIGINT) * 37) % 300) // 100
                        + CASE WHEN (doc_id * 2654435761) % 100
                               < (25 + (CAST(substr(source, 4) AS BIGINT) * 37) % 300) % 100
                          THEN 1 ELSE 0 END AS BIGINT) AS n_repeats
            FROM documents
        """,
        "hll_window_users": f"""
            WITH e AS (SELECT epoch_us(ts) // 1000000 // 3600 AS window_id,
                              md5(CAST(user_id AS VARCHAR)) AS h
                       FROM events),
            v AS (SELECT window_id, {_hex_be32('h', 0)} AS v FROM e),
            rw AS (SELECT window_id, v // 67108864 AS register,
                          v % 67108864 AS w FROM v),
            rk AS (SELECT window_id, register,
                          CASE WHEN w > 0 THEN 27 - len(bin(w)) ELSE 27 END AS rank
                   FROM rw),
            mx AS (SELECT window_id, register, max(rank) AS rank
                   FROM rk GROUP BY 1, 2),
            wins AS (SELECT DISTINCT window_id FROM e),
            grid AS (SELECT wins.window_id, g.range AS register
                     FROM wins CROSS JOIN range(64) g),
            regs AS (SELECT grid.window_id, grid.register,
                            coalesce(mx.rank, 0) AS rank
                     FROM grid LEFT JOIN mx ON mx.window_id = grid.window_id
                                           AND mx.register = grid.register),
            s AS (SELECT window_id, sum(power(2.0, -rank)) AS denom,
                         sum(CASE WHEN rank > 0 THEN 1 ELSE 0 END) AS nz
                  FROM regs GROUP BY 1)
            SELECT CAST(window_id AS BIGINT) AS window_id,
                   CAST(nz AS BIGINT) AS n_registers,
                   CAST(floor(0.709 * 64 * 64 / denom * 1000.0 + 0.5) AS BIGINT)
                        AS est_x1000
            FROM s
        """,
        "cms_word_freq": f"""
            WITH w AS (SELECT unnest(regexp_extract_all(text, '[^ ]+')) AS word
                       FROM documents),
            wc AS (SELECT word, CAST(count(*) AS BIGINT) AS cnt FROM w GROUP BY 1),
            hb AS (SELECT word, cnt, md5(word) AS h FROM wc),
            wb AS (SELECT word, cnt,
                          ({_hex_be32('h', 0)} % 1024) AS b0, ({_hex_be32('h', 8)} % 1024) AS b1,
                          ({_hex_be32('h', 16)} % 1024) AS b2, ({_hex_be32('h', 24)} % 1024) AS b3 FROM hb),
            qq AS (SELECT unnest(['table','scan','join','window','hash','merge','value','zebra']) AS word),
            qh AS (SELECT word, md5(word) AS h FROM qq),
            qb AS (SELECT word,
                          ({_hex_be32('h', 0)} % 1024) AS b0, ({_hex_be32('h', 8)} % 1024) AS b1,
                          ({_hex_be32('h', 16)} % 1024) AS b2, ({_hex_be32('h', 24)} % 1024) AS b3 FROM qh),
            est AS (SELECT q.word,
                           (SELECT coalesce(sum(cnt), 0) FROM wb WHERE wb.b0 = q.b0) AS e0,
                           (SELECT coalesce(sum(cnt), 0) FROM wb WHERE wb.b1 = q.b1) AS e1,
                           (SELECT coalesce(sum(cnt), 0) FROM wb WHERE wb.b2 = q.b2) AS e2,
                           (SELECT coalesce(sum(cnt), 0) FROM wb WHERE wb.b3 = q.b3) AS e3
                    FROM qb q)
            SELECT word, CAST(LEAST(e0, e1, e2, e3) AS BIGINT) AS est FROM est
        """,
        "hll_users": f"""
            WITH h AS (SELECT md5(CAST(user_id AS VARCHAR)) AS h FROM events),
            v AS (SELECT {_hex_be32('h', 0)} AS v FROM h),
            rw AS (SELECT v // 67108864 AS register, v % 67108864 AS w FROM v),
            rk AS (SELECT register,
                          CASE WHEN w > 0 THEN 27 - len(bin(w)) ELSE 27 END AS rank
                   FROM rw),
            mx AS (SELECT register, max(rank) AS rank FROM rk GROUP BY 1),
            regs AS (SELECT g.range AS register, coalesce(mx.rank, 0) AS rank
                     FROM range(64) g LEFT JOIN mx ON mx.register = g.range),
            s AS (SELECT sum(power(2.0, -rank)) AS denom,
                         sum(CASE WHEN rank > 0 THEN 1 ELSE 0 END) AS nz
                  FROM regs)
            SELECT CAST(nz AS BIGINT) AS n_registers,
                   CAST(floor(0.709 * 64 * 64 / denom * 1000.0 + 0.5) AS BIGINT)
                        AS est_x1000
            FROM s
        """,
        "cell_cover": f"""
            WITH RECURSIVE {_ZONES.strip().lstrip()},
            zb AS (SELECT zone_key,
                          LEAST(GREATEST((minx + 180.0) / 360.0, 0.0), 1.0) AS fx0,
                          LEAST(GREATEST((maxx + 180.0) / 360.0, 0.0), 1.0) AS fx1,
                          LEAST(GREATEST((1.0 - ln(tan(radians(maxy))
                                + 1.0 / cos(radians(maxy))) / pi()) / 2.0, 0.0), 1.0) AS fy0,
                          LEAST(GREATEST((1.0 - ln(tan(radians(miny))
                                + 1.0 / cos(radians(miny))) / pi()) / 2.0, 0.0), 1.0) AS fy1
                   FROM zz),
            cov AS (
                SELECT zone_key, 0 AS zl, CAST(0 AS BIGINT) AS x,
                       CAST(0 AS BIGINT) AS y,
                       fx0 AS fx0s, fx1 AS fx1s, fy0 AS fy0s, fy1 AS fy1s
                FROM zb
                UNION ALL
                SELECT c.zone_key, c.zl + 1, 2 * c.x + d.dx, 2 * c.y + d.dy,
                       c.fx0s * 2, c.fx1s * 2, c.fy0s * 2, c.fy1s * 2
                FROM cov c, (VALUES (0, 0), (1, 0), (0, 1), (1, 1)) d(dx, dy)
                WHERE c.zl < 8
                  AND NOT (c.x >= c.fx0s AND c.x + 1 <= c.fx1s
                           AND c.y >= c.fy0s AND c.y + 1 <= c.fy1s)
                  AND (2 * c.x + d.dx) + 1 > c.fx0s * 2
                  AND (2 * c.x + d.dx) < c.fx1s * 2
                  AND (2 * c.y + d.dy) + 1 > c.fy0s * 2
                  AND (2 * c.y + d.dy) < c.fy1s * 2
            )
            SELECT zone_key, CAST(zl AS BIGINT) AS z, x, y,
                   CAST(CASE WHEN x >= fx0s AND x + 1 <= fx1s
                             AND y >= fy0s AND y + 1 <= fy1s
                        THEN 1 ELSE 0 END AS BIGINT) AS contained
            FROM cov
            WHERE (x >= fx0s AND x + 1 <= fx1s AND y >= fy0s AND y + 1 <= fy1s)
               OR zl = 8
        """,
        "warp_affine": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(80) a, range(80) b),
            d AS (SELECT gx, gy,
                         5.0 + (gx + 0.5) * 0.375 AS dx,
                         35.0 - (gy + 0.5) * 0.375 AS dy FROM px),
            s AS (SELECT gx, gy, dx * 4.0 - 0.5 AS fx,
                         (160.0 - dy * 4.0) - 0.5 AS fy FROM d),
            t AS (SELECT gx, gy, CAST(floor(fx) AS BIGINT) AS x0,
                         CAST(floor(fy) AS BIGINT) AS y0,
                         fx - floor(fx) AS tx, fy - floor(fy) AS ty FROM s),
            v AS (SELECT gx, gy,
                         (x0 + 2 * y0) * (1 - tx) * (1 - ty)
                         + (x0 + 1 + 2 * y0) * tx * (1 - ty)
                         + (x0 + 2 * (y0 + 1)) * (1 - tx) * ty
                         + (x0 + 1 + 2 * (y0 + 1)) * tx * ty AS val
                  FROM t)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(val) AS BIGINT)
                            * (((gy % 64)
                                * (CASE WHEN gx // 64 = 1 THEN 16 ELSE 64 END)
                                + gx % 64) % 7 + 1)) % 65536 AS BIGINT) AS checksum
            FROM v GROUP BY 1, 2
        """,
        "gtiff_overviews": """
            WITH base AS (SELECT a.range AS gx, b.range AS gy,
                                 ((gx - 96) * (gx - 96) + (gy - 96) * (gy - 96)) // 64 AS v
                          FROM range(192) a, range(192) b),
            ov2 AS (SELECT gx // 2 AS ox, gy // 2 AS oy,
                           (2 * sum(v) + 4) // 8 AS val
                    FROM base GROUP BY 1, 2),
            ov4 AS (SELECT gx // 4 AS ox, gy // 4 AS oy,
                           (2 * sum(v) + 16) // 32 AS val
                    FROM base GROUP BY 1, 2),
            t2 AS (SELECT CAST(2 AS BIGINT) AS level,
                          CAST(ox // 64 AS BIGINT) AS x,
                          CAST(oy // 64 AS BIGINT) AS y,
                          CAST(sum(val * (((oy % 64)
                                 * (CASE WHEN ox // 64 = 1 THEN 32 ELSE 64 END)
                                 + ox % 64) % 7 + 1)) % 65536 AS BIGINT) AS checksum
                   FROM ov2 GROUP BY 2, 3),
            t4 AS (SELECT CAST(4 AS BIGINT) AS level,
                          CAST(0 AS BIGINT) AS x, CAST(0 AS BIGINT) AS y,
                          CAST(sum(val * ((oy * 48 + ox) % 7 + 1)) % 65536
                               AS BIGINT) AS checksum
                   FROM ov4)
            SELECT * FROM t2 UNION ALL SELECT * FROM t4
        """,
        "set_intersect_nations": """
            SELECT DISTINCT CAST(c_nationkey AS BIGINT) AS nationkey
            FROM customer WHERE c_acctbal > 9000
            INTERSECT
            SELECT DISTINCT CAST(s_nationkey AS BIGINT) FROM supplier
            WHERE s_acctbal < 1000
        """,
        "set_except_nations": """
            SELECT DISTINCT CAST(c_nationkey AS BIGINT) AS nationkey
            FROM customer WHERE c_acctbal > 9000
            EXCEPT
            SELECT DISTINCT CAST(s_nationkey AS BIGINT) FROM supplier
            WHERE s_acctbal < 1000
        """,
        "rank_events": """
            SELECT CAST(event_id AS BIGINT) AS event_id,
                   CAST(user_id AS BIGINT) AS user_id,
                   CAST(RANK() OVER (PARTITION BY user_id
                        ORDER BY CAST(floor(value * 100 + 0.5) AS BIGINT) DESC)
                        AS BIGINT) AS rnk,
                   CAST(DENSE_RANK() OVER (PARTITION BY user_id
                        ORDER BY CAST(floor(value * 100 + 0.5) AS BIGINT) DESC)
                        AS BIGINT) AS drnk
            FROM events
        """,
        # Bloom membership recomputed bit-for-bit: the reference corpus's
        # k=3 positions (big-endian md5 hex windows mod 8192) form the bit
        # set; a candidate hits iff all 3 of its positions are present —
        # false positives and all.
        "bloom_dedup": f"""
            WITH ref AS (SELECT md5(substr(text, 1, 24)) AS h FROM documents WHERE doc_id % 7 = 0),
            bits AS (SELECT DISTINCT pos FROM (
                SELECT {_hex_be32('h', 0)} % 8192 AS pos FROM ref
                UNION ALL SELECT {_hex_be32('h', 8)} % 8192 FROM ref
                UNION ALL SELECT {_hex_be32('h', 16)} % 8192 FROM ref)),
            cand AS (SELECT doc_id, md5(substr(text, 1, 24)) AS h FROM documents
                     WHERE doc_id % 7 <> 0),
            cp AS (SELECT doc_id, {_hex_be32('h', 0)} % 8192 AS pos FROM cand
                   UNION ALL SELECT doc_id, {_hex_be32('h', 8)} % 8192 FROM cand
                   UNION ALL SELECT doc_id, {_hex_be32('h', 16)} % 8192 FROM cand),
            m AS (SELECT cp.doc_id, count(*) AS nhit
                  FROM cp JOIN bits USING (pos) GROUP BY 1)
            SELECT c.doc_id,
                   CAST(CASE WHEN coalesce(m.nhit, 0) = 3 THEN 1 ELSE 0 END
                        AS BIGINT) AS bloom_hit
            FROM cand c LEFT JOIN m ON m.doc_id = c.doc_id
        """,
        # Delaunay by DEFINITION: a non-degenerate triple is a Delaunay
        # triangle iff no other point of its cell lies strictly inside its
        # circumcircle — exact BIGINT sign tests (orient/incircle signs
        # compared, never multiplied: the product would overflow BIGINT).
        "delaunay_triangles": """
            WITH d AS (SELECT doc_id AS k, doc_id % 8 AS cell,
                              (doc_id * 2654435761) % 2039 AS x,
                              (doc_id * 40503 + 12345) % 2039 AS y
                       FROM documents WHERE doc_id < 400),
            tri AS (SELECT p1.cell, p1.k AS ka, p2.k AS kb, p3.k AS kc,
                           p1.x AS ax, p1.y AS ay, p2.x AS bx, p2.y AS by,
                           p3.x AS cx, p3.y AS cy,
                           (p2.x - p1.x) * (p3.y - p1.y)
                           - (p2.y - p1.y) * (p3.x - p1.x) AS orient
                    FROM d p1 JOIN d p2 ON p2.cell = p1.cell AND p2.k > p1.k
                              JOIN d p3 ON p3.cell = p1.cell AND p3.k > p2.k
                    WHERE (p2.x - p1.x) * (p3.y - p1.y)
                          - (p2.y - p1.y) * (p3.x - p1.x) <> 0),
            chk AS (SELECT t.cell, t.ka, t.kb, t.kc, t.orient,
                           t.ax - q.x AS adx, t.ay - q.y AS ady,
                           t.bx - q.x AS bdx, t.by - q.y AS bdy,
                           t.cx - q.x AS cdx, t.cy - q.y AS cdy
                    FROM tri t JOIN d q ON q.cell = t.cell
                         AND q.k <> t.ka AND q.k <> t.kb AND q.k <> t.kc),
            inc AS (SELECT cell, ka, kb, kc, orient,
                           adx * (bdy * (cdx * cdx + cdy * cdy)
                                  - (bdx * bdx + bdy * bdy) * cdy)
                         - ady * (bdx * (cdx * cdx + cdy * cdy)
                                  - (bdx * bdx + bdy * bdy) * cdx)
                         + (adx * adx + ady * ady) * (bdx * cdy - bdy * cdx) AS det
                    FROM chk),
            bad AS (SELECT DISTINCT cell, ka, kb, kc FROM inc
                    WHERE (orient > 0 AND det > 0) OR (orient < 0 AND det < 0))
            SELECT t.cell, t.ka AS a_id, t.kb AS b_id, t.kc AS c_id,
                   CAST(abs(t.orient) AS BIGINT) AS area2
            FROM tri t ANTI JOIN bad b
                 ON b.cell = t.cell AND b.ka = t.ka AND b.kb = t.kb AND b.kc = t.kc
        """,
        "span_filter_media": """
            WITH docs AS (SELECT range AS k FROM range(2000)),
            sp AS (SELECT k, j.j AS j FROM docs,
                   LATERAL (SELECT unnest(generate_series(0, k % 4)) AS j) j),
            ks AS (SELECT k, j,
                          ['text','image','audio','video'][(k + j) % 4 + 1] AS kind,
                          (k * 2654435761 + j * 40503) % 4294967296 AS h
                   FROM sp),
            tw AS (SELECT k, j, h, i.i AS i FROM ks,
                   LATERAL (SELECT unnest(generate_series(0, h % 7)) AS i) i
                   WHERE kind = 'text'),
            wtxt AS (SELECT k, j,
                            string_agg(['raster','vector','tile','warp','merge','cell',
                                        'join','span','layer','band','pixel','zone',
                                        'index','stream','batch','arrow','shuffle',
                                        'actor','block','mosaic']
                                       [CAST((h >> (3 * i)) % 20 AS INTEGER) + 1],
                                       ' ' ORDER BY i) AS txt
                     FROM tw GROUP BY k, j),
            spans AS (SELECT ks.k, ks.j, ks.kind,
                             CASE WHEN ks.kind = 'text' THEN wtxt.txt ELSE '' END AS text,
                             CASE WHEN ks.kind = 'text' THEN ''
                                  ELSE 'media://' || ks.kind || '/'
                                       || printf('%09d', ks.k) || '/' || ks.j
                             END AS media_ref,
                             CASE WHEN ks.kind = 'text' THEN len(wtxt.txt)
                                  ELSE 1 END AS step
                      FROM ks LEFT JOIN wtxt ON wtxt.k = ks.k AND wtxt.j = ks.j
                      WHERE ks.kind <> 'video'),
            offs AS (SELECT k, j, kind, text, media_ref,
                            CAST(sum(step) OVER (PARTITION BY k ORDER BY j
                                                 ROWS UNBOUNDED PRECEDING) AS BIGINT) AS off
                     FROM spans)
            SELECT printf('doc-%09d', d.k) AS doc_id,
                   CAST(coalesce(o.n_spans, 0) AS BIGINT) AS n_spans,
                   coalesce(o.seq_sig, md5('')) AS seq_sig
            FROM docs d LEFT JOIN (
                SELECT k, count(*) AS n_spans,
                       md5(string_agg(kind || chr(31) || text || chr(31)
                                      || media_ref || chr(31) || off,
                                      chr(30) ORDER BY j)) AS seq_sig
                FROM offs GROUP BY k) o ON o.k = d.k
        """,
        "span_text_extract": f"""
            WITH docs AS (SELECT range AS k FROM range(2000)),
            sp AS (SELECT k, j.j AS j FROM docs,
                   LATERAL (SELECT unnest(generate_series(0, k % 4)) AS j) j),
            ks AS (SELECT k, j,
                          ['text','image','audio','video'][(k + j) % 4 + 1] AS kind,
                          (k * 2654435761 + j * 40503) % 4294967296 AS h
                   FROM sp),
            tw AS (SELECT k, j, h, i.i AS i FROM ks,
                   LATERAL (SELECT unnest(generate_series(0, h % 7)) AS i) i
                   WHERE kind = 'text'),
            wtxt AS (SELECT k, j,
                            string_agg(['raster','vector','tile','warp','merge','cell',
                                        'join','span','layer','band','pixel','zone',
                                        'index','stream','batch','arrow','shuffle',
                                        'actor','block','mosaic']
                                       [CAST((h >> (3 * i)) % 20 AS INTEGER) + 1],
                                       ' ' ORDER BY i) AS txt
                     FROM tw GROUP BY k, j),
            ft AS (SELECT ks.k,
                            coalesce(string_agg(
                                CASE WHEN ks.kind = 'text'
                                     THEN coalesce(wtxt.txt, '') ELSE '' END,
                                '' ORDER BY ks.j), '') AS full_text
                     FROM ks LEFT JOIN wtxt ON wtxt.k = ks.k AND wtxt.j = ks.j
                     GROUP BY ks.k)
            SELECT printf('doc-%09d', k) AS doc_id,
                   CAST(len(full_text) AS BIGINT) AS n_chars,
                   md5(full_text) AS text_md5
            FROM ft
        """,
        "span_media_bytes": f"""
            WITH docs AS (SELECT range AS k FROM range(2000)),
            sp AS (SELECT k, j.j AS j FROM docs,
                   LATERAL (SELECT unnest(generate_series(0, k % 4)) AS j) j),
            ks AS (SELECT k, j,
                          ['text','image','audio','video'][(k + j) % 4 + 1] AS kind,
                          (k * 2654435761 + j * 40503) % 4294967296 AS h
                   FROM sp),
            tw AS (SELECT k, j, h, i.i AS i FROM ks,
                   LATERAL (SELECT unnest(generate_series(0, h % 7)) AS i) i
                   WHERE kind = 'text'),
            wtxt AS (SELECT k, j,
                            string_agg(['raster','vector','tile','warp','merge','cell',
                                        'join','span','layer','band','pixel','zone',
                                        'index','stream','batch','arrow','shuffle',
                                        'actor','block','mosaic']
                                       [CAST((h >> (3 * i)) % 20 AS INTEGER) + 1],
                                       ' ' ORDER BY i) AS txt
                     FROM tw GROUP BY k, j),
            m AS (SELECT ks.k, ks.kind, ks.j,
                         'media://' || ks.kind || '/' || printf('%09d', ks.k)
                             || '/' || ks.j AS ref
                  FROM ks WHERE ks.kind <> 'text'),
            hx2 AS (SELECT k, md5(ref) AS h FROM m),
            sz AS (SELECT k, 1 + ({_hex_be32('h', 0)} % 65536) AS bytes FROM hx2),
            agg AS (SELECT k, count(*) AS n_media, sum(bytes) AS media_bytes
                    FROM sz GROUP BY k)
            SELECT printf('doc-%09d', d.k) AS doc_id,
                   CAST(coalesce(a.n_media, 0) AS BIGINT) AS n_media,
                   CAST(coalesce(a.media_bytes, 0) AS BIGINT) AS media_bytes
            FROM docs d LEFT JOIN agg a ON a.k = d.k
        """,
        # span-sequence-equality invariant: recompute the FULL span tuples
        # (kind, generated text, media_ref, running offset) from the corpus
        # definition and md5 the order-sensitive US/RS-joined sequence —
        # identical digest iff the engine's sink+source preserved every span.
        "span_roundtrip": """
            WITH docs AS (SELECT range AS k FROM range(2000)),
            sp AS (SELECT k, j.j AS j FROM docs,
                   LATERAL (SELECT unnest(generate_series(0, k % 4)) AS j) j),
            ks AS (SELECT k, j,
                          ['text','image','audio','video'][(k + j) % 4 + 1] AS kind,
                          (k * 2654435761 + j * 40503) % 4294967296 AS h
                   FROM sp),
            tw AS (SELECT k, j, h, i.i AS i FROM ks,
                   LATERAL (SELECT unnest(generate_series(0, h % 7)) AS i) i
                   WHERE kind = 'text'),
            wtxt AS (SELECT k, j,
                            string_agg(['raster','vector','tile','warp','merge','cell',
                                        'join','span','layer','band','pixel','zone',
                                        'index','stream','batch','arrow','shuffle',
                                        'actor','block','mosaic']
                                       [CAST((h >> (3 * i)) % 20 AS INTEGER) + 1],
                                       ' ' ORDER BY i) AS txt
                     FROM tw GROUP BY k, j),
            spans AS (SELECT ks.k, ks.j, ks.kind,
                             CASE WHEN ks.kind = 'text' THEN wtxt.txt ELSE '' END AS text,
                             CASE WHEN ks.kind = 'text' THEN ''
                                  ELSE 'media://' || ks.kind || '/'
                                       || printf('%09d', ks.k) || '/' || ks.j
                             END AS media_ref,
                             CASE WHEN ks.kind = 'text' THEN len(wtxt.txt)
                                  ELSE 1 END AS step
                      FROM ks LEFT JOIN wtxt ON wtxt.k = ks.k AND wtxt.j = ks.j),
            offs AS (SELECT k, j, kind, text, media_ref,
                            CAST(sum(step) OVER (PARTITION BY k ORDER BY j
                                                 ROWS UNBOUNDED PRECEDING) AS BIGINT) AS off
                     FROM spans)
            SELECT printf('doc-%09d', k) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_spans,
                   md5(string_agg(kind || chr(31) || text || chr(31)
                                  || media_ref || chr(31) || off,
                                  chr(30) ORDER BY j)) AS seq_sig
            FROM offs GROUP BY k
        """,
        "semi_join_orders": """
            SELECT o_orderkey, o_custkey FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity >= 48)
        """,
        "anti_join_customers": """
            SELECT c_custkey, c_nationkey FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_totalprice > 400000)
        """,
        "join_dwithin": f"""
            WITH {_DOCS_GEO}, {_ZONES},
            c AS (SELECT zone_key, (minx + maxx) / 2.0 AS cx,
                         (miny + maxy) / 2.0 AS cy FROM zz)
            SELECT d.doc_id, c.zone_key,
                   CAST(floor(sqrt((d.lon - c.cx) * (d.lon - c.cx)
                                   + (d.lat - c.cy) * (d.lat - c.cy)) * 1000000
                              + 0.5) AS BIGINT) AS dist_x1m
            FROM d, c
            WHERE (d.lon - c.cx) * (d.lon - c.cx)
                  + (d.lat - c.cy) * (d.lat - c.cy) <= 2.25
        """,
        "count_distinct": """
            SELECT o_orderpriority,
                   CAST(count(DISTINCT o_custkey) AS BIGINT) AS n_customers
            FROM orders GROUP BY o_orderpriority
        """,
        "running_total": """
            SELECT event_id, user_id,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                          OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_x100
            FROM events
        """,
        "mosaic_compose": _mosaic_sql(),
        "warp_blend": _warp_blend_sql(),
        "scalar_funcs_props": r"""
            -- NULLIF handles a no-match (regexp_extract returns '' there,
            -- and CAST('') errors), mirroring pc.extract_regex's null: the
            -- bucket CASE then yields NULL like the engine's null propagation
            WITH e AS (SELECT event_id, event_type,
                              TRY_CAST(NULLIF(regexp_extract(
                                  props, '"k": (\d+)', 1), '') AS BIGINT)
                                AS k_val
                       FROM events)
            SELECT event_id, k_val,
                   upper(event_type) LIKE '%CK%' AS ilike_ck,
                   CASE WHEN k_val IS NULL THEN NULL
                        WHEN k_val >= 66 THEN 'hi'
                        WHEN k_val >= 33 THEN 'mid'
                        ELSE 'lo' END AS bucket
            FROM e
        """,
        "pq_codes": _pq_sql(),
        "pq_adc_topk": _pq_adc_sql(),
        "mvt_roundtrip": f"""
            WITH {_DOCS_GEO},
            q AS (SELECT doc_id, n_chars, lon, lat,
                         {_tile_expr(6)[0]} AS tx, {_tile_expr(6)[1]} AS ty
                  FROM d),
            p AS (SELECT tx, ty, n_chars,
                    LEAST(GREATEST(CAST(floor(((lon + 180.0) / 360.0 * 64.0
                                               - tx) * 4096.0) AS BIGINT),
                                   0), 4095) AS px,
                    LEAST(GREATEST(CAST(floor(((1.0 - ln(tan(radians(lat))
                                                + 1.0/cos(radians(lat)))
                                               / pi()) / 2.0 * 64.0
                                               - ty) * 4096.0) AS BIGINT),
                                   0), 4095) AS py
                  FROM q)
            SELECT tx, ty,
                   CAST(count(*) AS BIGINT) AS n_features,
                   CAST(sum(px) AS BIGINT) AS sum_px,
                   CAST(sum(py) AS BIGINT) AS sum_py,
                   CAST(sum(n_chars) AS BIGINT) AS sum_nchars
            FROM p GROUP BY tx, ty
        """,
        "pmtiles_roundtrip": f"""
            WITH {_DOCS_GEO},
            q AS (SELECT doc_id, n_chars, lon, lat,
                         {_tile_expr(6)[0]} AS tx, {_tile_expr(6)[1]} AS ty
                  FROM d),
            p AS (SELECT tx, ty, n_chars,
                    LEAST(GREATEST(CAST(floor(((lon + 180.0) / 360.0 * 64.0
                                               - tx) * 4096.0) AS BIGINT),
                                   0), 4095) AS px,
                    LEAST(GREATEST(CAST(floor(((1.0 - ln(tan(radians(lat))
                                                + 1.0/cos(radians(lat)))
                                               / pi()) / 2.0 * 64.0
                                               - ty) * 4096.0) AS BIGINT),
                                   0), 4095) AS py
                  FROM q)
            SELECT tx, ty,
                   CAST(count(*) AS BIGINT) AS n_features,
                   CAST(sum(px) AS BIGINT) AS sum_px,
                   CAST(sum(py) AS BIGINT) AS sum_py,
                   CAST(sum(n_chars) AS BIGINT) AS sum_nchars
            FROM p GROUP BY tx, ty
        """,
        "mbtiles_roundtrip": f"""
            WITH {_DOCS_GEO},
            q AS (SELECT doc_id, n_chars, lon, lat,
                         {_tile_expr(6)[0]} AS tx, {_tile_expr(6)[1]} AS ty
                  FROM d),
            p AS (SELECT tx, ty, n_chars,
                    LEAST(GREATEST(CAST(floor(((lon + 180.0) / 360.0 * 64.0
                                               - tx) * 4096.0) AS BIGINT),
                                   0), 4095) AS px,
                    LEAST(GREATEST(CAST(floor(((1.0 - ln(tan(radians(lat))
                                                + 1.0/cos(radians(lat)))
                                               / pi()) / 2.0 * 64.0
                                               - ty) * 4096.0) AS BIGINT),
                                   0), 4095) AS py
                  FROM q)
            SELECT tx, ty,
                   CAST(count(*) AS BIGINT) AS n_features,
                   CAST(sum(px) AS BIGINT) AS sum_px,
                   CAST(sum(py) AS BIGINT) AS sum_py,
                   CAST(sum(n_chars) AS BIGINT) AS sum_nchars
            FROM p GROUP BY tx, ty
        """,
        "duplicated_spans": """
            WITH g0 AS (SELECT doc_id, text,
                               unnest(range(0, length(text) - 15)) AS pos
                        FROM documents WHERE length(text) >= 16),
            g AS (SELECT doc_id, pos, substr(text, pos + 1, 16) AS gram
                  FROM g0),
            dup AS (SELECT gram FROM g GROUP BY gram HAVING count(*) > 1),
            p AS (SELECT doc_id, pos FROM g JOIN dup USING (gram)),
            s AS (SELECT doc_id, pos,
                    CASE WHEN pos <= lag(pos) OVER (PARTITION BY doc_id
                                                    ORDER BY pos) + 16
                         THEN 0 ELSE 1 END AS brk
                  FROM p),
            isl AS (SELECT doc_id, pos,
                      sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS gid
                    FROM s)
            SELECT doc_id, CAST(min(pos) AS BIGINT) AS span_start,
                   CAST(max(pos) + 16 - min(pos) AS BIGINT) AS span_len
            FROM isl GROUP BY doc_id, gid
        """,
        "string_agg_top": """
            WITH r AS (SELECT c_mktsegment, c_name,
                         row_number() OVER (
                           PARTITION BY c_mktsegment
                           ORDER BY CAST(round(c_acctbal * 100.0) AS BIGINT)
                                    DESC, c_custkey) AS rn
                       FROM customer)
            SELECT c_mktsegment,
                   string_agg(c_name, ',' ORDER BY rn) AS top_names,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM r WHERE rn <= 3 GROUP BY 1
        """,
        "weighted_sample": f"""
            WITH h AS (SELECT doc_id, n_chars,
                              md5(CAST(doc_id AS VARCHAR)) AS h
                       FROM documents),
            f AS (SELECT doc_id, n_chars, {_hex_u64('h')} AS fp FROM h),
            k AS (SELECT doc_id,
                    CAST(floor((-ln((CAST(fp % 9007199254740992 AS DOUBLE)
                                     + 1.0) / 9007199254740992.0)
                                / GREATEST(CAST(n_chars AS DOUBLE), 1.0))
                               * 1000000000000.0 + 0.5) AS BIGINT)
                      AS es_key_e12
                  FROM f)
            SELECT doc_id, es_key_e12 FROM k
            ORDER BY es_key_e12, doc_id LIMIT 20
        """,
        "filter_cascade": f"""
            WITH h AS (SELECT doc_id, lang, text, md5(text) AS h
                       FROM documents),
            f AS (SELECT doc_id, lang,
                    len(regexp_extract_all(text, '[^ ]+')) AS ntok,
                    {_U64_TO_I64.format(v=_hex_u64('h'))} AS fp
                  FROM h),
            w AS (SELECT fp, min(doc_id) AS keep_id, count(*) AS c
                  FROM f GROUP BY fp),
            r AS (SELECT f.doc_id,
                    CASE WHEN ntok < 5 THEN 'short'
                         WHEN COALESCE(lang, '') <> 'en' THEN 'lang'
                         WHEN w.c > 1 AND f.doc_id <> w.keep_id THEN 'dup'
                         ELSE '' END AS reason
                  FROM f JOIN w USING (fp))
            SELECT doc_id, reason, reason = '' AS keep FROM r
        """,
        "text_normalize": """
            WITH n AS (SELECT doc_id,
                              trim(regexp_replace(lower(text), ' +', ' ', 'g'))
                                AS norm
                       FROM documents)
            SELECT doc_id, CAST(length(norm) AS BIGINT) AS norm_len,
                   substr(norm, 1, 16) AS prefix16
            FROM n
        """,
        "char_entropy": r"""
            WITH ch AS (SELECT doc_id,
                               unnest(regexp_extract_all(text, '[\s\S]')) AS c
                        FROM documents),
            cc AS (SELECT doc_id, c, count(*) AS cnt FROM ch GROUP BY 1, 2),
            agg AS (SELECT doc_id,
                      CAST(sum(CAST(floor(cnt * ln(cnt) * 1000000.0 + 0.5)
                               AS BIGINT)) AS BIGINT) AS ent_num,
                      CAST(sum(cnt) AS BIGINT) AS n_chars_t,
                      CAST(count(*) AS BIGINT) AS distinct_chars
                    FROM cc GROUP BY doc_id)
            SELECT d.doc_id,
                   COALESCE(a.ent_num, 0) AS ent_num,
                   COALESCE(a.n_chars_t, 0) AS n_chars_t,
                   COALESCE(a.distinct_chars, 0) AS distinct_chars
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        "scalar_funcs_datetime": """
            SELECT o_orderkey,
                   CAST(EXTRACT(YEAR FROM o_orderdate) AS BIGINT) AS yr,
                   CAST(EXTRACT(MONTH FROM o_orderdate) AS BIGINT) AS mo,
                   CAST(EXTRACT(DAY FROM o_orderdate) AS BIGINT) AS dy,
                   CAST(isodow(o_orderdate) - 1 AS BIGINT) AS dow,
                   CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT)
                     AS epoch_day,
                   CAST(epoch_us(o_orderdate) // 86400000000 - 9131 AS BIGINT)
                     AS days_since_95,
                   CAST(EXTRACT(YEAR FROM o_orderdate) * 12
                        + EXTRACT(MONTH FROM o_orderdate) - 1 AS BIGINT)
                     AS ym_bucket
            FROM orders
        """,
        "window_frames": """
            WITH v AS (SELECT event_id, user_id, ts,
                              CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
                       FROM events)
            SELECT event_id, user_id,
                   CAST(ntile(4) OVER w AS BIGINT) AS ntile,
                   first_value(cents) OVER w AS first_x100,
                   last_value(cents) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id
                                           ROWS BETWEEN UNBOUNDED PRECEDING
                                           AND UNBOUNDED FOLLOWING) AS last_x100,
                   CAST(sum(cents) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id
                                         ROWS BETWEEN 2 PRECEDING
                                         AND CURRENT ROW) AS BIGINT)
                     AS mov_sum_x100,
                   CAST(count(*) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id
                                       ROWS BETWEEN 2 PRECEDING
                                       AND CURRENT ROW) AS BIGINT) AS mov_cnt
            FROM v
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "event_gaps": """
            SELECT event_id, user_id,
                   COALESCE(epoch_us(ts) // 1000000
                            - lag(epoch_us(ts) // 1000000)
                              OVER (PARTITION BY user_id ORDER BY ts, event_id),
                            -1) AS gap_prev_s,
                   COALESCE(lead(epoch_us(ts) // 1000000)
                              OVER (PARTITION BY user_id ORDER BY ts, event_id)
                            - epoch_us(ts) // 1000000,
                            -1) AS gap_next_s
            FROM events
        """,
        "asc_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(CAST((gx-96)*(gx-96) + (gy-96)*(gy-96)
                                        AS DOUBLE) / 64.0) AS BIGINT)
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        # ENVI raw driver shares the AAIGrid hump fixture + checksum oracle
        # (the format layer must be value-transparent)
        "envi_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(CAST((gx-96)*(gx-96) + (gy-96)*(gy-96)
                                        AS DOUBLE) / 64.0) AS BIGINT)
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        # NetCDF classic shares the hump fixture + checksum oracle too
        "netcdf_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(CAST((gx-96)*(gx-96) + (gy-96)*(gy-96)
                                        AS DOUBLE) / 64.0) AS BIGINT)
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        # BMP folds the hump to uint8 (mod 256); GIF shares it through the
        # interlaced LZW path, TGA through RLE packets, BMP-RLE8 through
        # run-length rows, PNG through the Paeth-filter decode — all five
        # must be value-transparent through their codec layers
        "bmp_roundtrip": _HUMP256_SQL,
        "gif_roundtrip": _HUMP256_SQL,
        "tga_roundtrip": _HUMP256_SQL,
        "bmp_rle_roundtrip": _HUMP256_SQL,
        "png_filters_roundtrip": _HUMP256_SQL,
        # PGM carries the full 16-bit hump — same oracle as ASC/ENVI/NetCDF
        "pnm_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(CAST((gx-96)*(gx-96) + (gy-96)*(gy-96)
                                        AS DOUBLE) / 64.0) AS BIGINT)
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        # Multidim time cube v(t,y,x) = (7t+5y+3x) % 97 over (12,192,192):
        # sum over t per pixel, then the shared 64-px local-weight tile
        # checksum (chunks divide 192 evenly, so tile width is 64 always)
        "mdim_time_sum": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            s AS (SELECT gx, gy,
                         (SELECT sum((7 * t.range + 5 * gy + 3 * gx) % 97)
                          FROM range(12) t) AS v
                  FROM px)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(v * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM s GROUP BY 1, 2
        """,


        "select_sql_geom_funcs": f"""
            WITH {_ZONES.strip().lstrip()},
            d AS (SELECT zone_key, minx, miny, maxx, maxy,
                         -180.0 + ((zone_key * 9973) % 36000) / 100.0 AS px,
                         -85.0 + ((zone_key * 7919) % 17000) / 100.0 AS py
                  FROM zz
                  WHERE (maxx - minx) * (maxy - miny) > 20.0),
            e AS (SELECT zone_key, minx, miny, maxx, maxy,
                         greatest(minx - px, px - maxx, 0.0) AS dx,
                         greatest(miny - py, py - maxy, 0.0) AS dy
                  FROM d)
            SELECT zone_key,
                   CAST(round((maxx - minx) * (maxy - miny) * 10000.0)
                        AS BIGINT) AS area_x1e4,
                   CAST(round((minx + maxx) / 2.0 * 1000.0) AS BIGINT)
                     AS cx_x1000,
                   CAST(round((miny + maxy) / 2.0 * 1000.0) AS BIGINT)
                     AS cy_x1000,
                   CAST(5 AS BIGINT) AS n_pts,
                   CAST(1 AS BIGINT) AS valid,
                   CAST(round(sqrt(dx * dx + dy * dy) * 1000000.0)
                        AS BIGINT) AS dist_e6
            FROM e
        """,
        "osm_roundtrip": """
            WITH s AS (SELECT p_partkey AS k,
                              row_number() OVER (ORDER BY p_partkey) - 1
                                AS rn
                       FROM part),
            n AS (SELECT k, rn,
                         CAST(round((-180.0 + (k * 9973 % 36000) / 100.0)
                                    * 10000000.0) AS BIGINT) AS lon7,
                         CAST(round((-85.0 + (k * 7919 % 17000) / 100.0)
                                    * 10000000.0) AS BIGINT) AS lat7
                  FROM s),
            g AS (SELECT CAST(rn // 5 + 1 AS BIGINT) AS way_id,
                         count(*) AS n_pts,
                         sum(lon7) AS sum_lon_e7,
                         sum(lat7) AS sum_lat_e7
                  FROM n GROUP BY 1)
            SELECT way_id, CAST(n_pts AS BIGINT) AS n_pts,
                   CAST(sum_lon_e7 AS BIGINT) AS sum_lon_e7,
                   CAST(sum_lat_e7 AS BIGINT) AS sum_lat_e7
            FROM g WHERE n_pts = 5
        """,
        "netcdf4_time_sum": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            s AS (SELECT gx, gy,
                         (SELECT sum((7 * t.range + 5 * gy + 3 * gx) % 97)
                          FROM range(12) t) AS v
                  FROM px)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(v * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM s GROUP BY 1, 2
        """,
        "zarr_time_sum": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            s AS (SELECT gx, gy,
                         (SELECT sum((7 * t.range + 5 * gy + 3 * gx) % 97)
                          FROM range(12) t) AS v
                  FROM px)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(v * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM s GROUP BY 1, 2
        """,
        # hive-partitioned sink roundtrip: per-(key%7) count + key sum
        "vector_partition": """
            SELECT CAST(p_partkey % 7 AS BIGINT) AS grp,
                   CAST(count(*) AS BIGINT) AS n_zones,
                   CAST(sum(p_partkey) AS BIGINT) AS key_sum
            FROM part GROUP BY 1
        """,
        # RAT over the rects fixture: class counts from the RECTS literals;
        # area at 0.25/px scaled x4 == count
        "raster_attribute_table": """
            WITH r AS (SELECT * FROM (VALUES
                         (1, (30-10) * (24-8)), (2, (80-55) * (65-45)),
                         (3, (130-100) * (106-82)),
                         (4, (180-145) * (139-119))) t(v, c)),
            a AS (SELECT v, c FROM r
                  UNION ALL SELECT 0, 65536 - (SELECT sum(c) FROM r))
            SELECT CAST(v AS BIGINT) AS value, CAST(c AS BIGINT) AS count,
                   CAST(c AS BIGINT) AS area
            FROM a
        """,
        # one refreshed overview parent (1,1): 2x2 dyadic-exact average of
        # the updated quad; parent pixel (r,c) -> child (2+c//32, 2+r//32),
        # base pixel gx = 64*(2+c//32) + 2*(c%32) + dx
        "overview_refresh": """
            WITH pp AS (SELECT a.range AS c, b.range AS r
                        FROM range(64) a, range(64) b),
            q AS (SELECT c, r, d.range AS dx, e.range AS dy,
                         64 * (2 + c // 32) + 2 * (c % 32) + d.range AS gx,
                         64 * (2 + r // 32) + 2 * (r % 32) + e.range AS gy
                  FROM pp, range(2) d, range(2) e),
            v AS (SELECT c, r,
                         CASE WHEN gx // 64 = 2 AND gy // 64 = 2
                               AND ((gx // 8) + (gy // 8)) % 2 = 1
                              THEN 255.0
                              ELSE CAST((gx-96)*(gx-96) + (gy-96)*(gy-96)
                                        AS DOUBLE) / 64.0 END AS val
                  FROM q),
            m AS (SELECT c, r, sum(val) / 4.0 AS mv
                  FROM v GROUP BY c, r)
            SELECT CAST(1 AS BIGINT) AS x, CAST(1 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(mv) AS BIGINT)
                            * ((r * 64 + c) % 7 + 1)) % 65536 AS BIGINT)
                     AS checksum
            FROM m
        """,
        # validity classes by k%4: reason + error location closed forms
        "check_geometry": """
            WITH b AS (SELECT p_partkey AS k,
                              CAST((p_partkey * 7) % 100 AS BIGINT) AS x0,
                              CAST((p_partkey * 11) % 100 AS BIGINT) AS y0,
                              p_partkey % 4 AS m
                       FROM part)
            SELECT k AS zone_key,
                   CAST(CASE WHEN m = 0 THEN 1 ELSE 0 END AS BIGINT) AS valid,
                   CASE m WHEN 0 THEN ''
                          WHEN 1 THEN 'Ring Self-intersection'
                          WHEN 2 THEN 'Hole lies outside shell'
                          ELSE 'Too few points in geometry component'
                   END AS reason,
                   CAST(CASE m WHEN 0 THEN 0
                               WHEN 1 THEN 2 * x0 + 2
                               WHEN 2 THEN 2 * x0 + 20
                               ELSE 2 * x0 END AS BIGINT) AS loc_x2,
                   CAST(CASE m WHEN 0 THEN 0
                               WHEN 1 THEN 2 * y0 + 2
                               WHEN 2 THEN 2 * y0 + 20
                               ELSE 2 * y0 END AS BIGINT) AS loc_y2
            FROM b
        """,
        # hump data band + alpha mask (0 only at the exact center pixel)
        "nodata_to_alpha": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(256) a, range(256) b),
            v AS (SELECT gx, gy,
                         CAST(trunc(CAST((gx-96)*(gx-96) + (gy-96)*(gy-96)
                                         AS DOUBLE) / 64.0) AS BIGINT) AS hv
                  FROM px),
            w AS (SELECT gx, gy, hv,
                         ((gy % 64) * 64 + gx % 64) % 7 + 1 AS wt
                  FROM v),
            bands AS (
              SELECT gx, gy, 1 AS band, hv AS val, wt FROM w
              UNION ALL
              SELECT gx, gy, 2 AS band,
                     CASE WHEN (gx-96)*(gx-96)+(gy-96)*(gy-96) = 0 THEN 0
                          ELSE 255 END AS val, wt FROM w)
            SELECT CAST(gx // 64 AS BIGINT) AS x,
                   CAST(gy // 64 AS BIGINT) AS y,
                   CAST(band AS BIGINT) AS band,
                   CAST(sum(val * wt) % 65536 AS BIGINT) AS checksum
            FROM bands GROUP BY 1, 2, 3
        """,
        # chain of rects, max-area overlap assignment: lag/lead arithmetic
        # (clean_area scaled by 1024^2 = 10 * units)
        "clean_coverage": """
            WITH o AS (SELECT p_partkey AS k,
                              11 + p_partkey % 4 AS w
                       FROM part),
            l AS (SELECT k, w,
                         lag(w) OVER (ORDER BY k) AS wl,
                         lag(k) OVER (ORDER BY k) AS kl,
                         lead(w) OVER (ORDER BY k) AS wr
                  FROM o)
            SELECT k AS zone_key,
                   CAST(10 * (w
                     - CASE WHEN wl IS NOT NULL AND wl >= w
                            THEN 1 + kl % 4 ELSE 0 END
                     - CASE WHEN wr IS NOT NULL AND w < wr
                            THEN 1 + k % 4 ELSE 0 END) AS BIGINT)
                     AS clean_area
            FROM l
        """,
        # hump updated by center-window checker (nodata-0 pixels keep hump)
        "raster_update": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(256) a, range(256) b),
            v AS (SELECT gx, gy,
                         CASE WHEN gx // 64 BETWEEN 1 AND 2
                               AND gy // 64 BETWEEN 1 AND 2
                               AND ((gx // 8) + (gy // 8)) % 2 = 1
                              THEN 255
                              ELSE CAST(trunc(
                                CAST((gx-96)*(gx-96) + (gy-96)*(gy-96)
                                     AS DOUBLE) / 64.0) AS BIGINT) END AS val
                  FROM px)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(val * (((gy % 64) * 64 + gx % 64) % 7 + 1))
                        % 65536 AS BIGINT) AS checksum
            FROM v GROUP BY 1, 2
        """,
        # SOZip container transparency: shared 192x192 hump checksum
        "sozip_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(CAST((gx-96)*(gx-96) + (gy-96)*(gy-96)
                                        AS DOUBLE) / 64.0) AS BIGINT)
                            * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        # ogrtindex over the hive tree: per grp count + extent fold, exact
        # integer 0.01-grid arithmetic
        "vector_tindex": """
            WITH b AS (
              SELECT p_partkey % 5 AS grp,
                     -18000 + (p_partkey * 7321) % 33000 AS x0,
                     -8500 + (p_partkey * 4231) % 15000 AS y0,
                     200 + (p_partkey * 131) % 800 AS w,
                     200 + (p_partkey * 197) % 600 AS h
              FROM part)
            SELECT CAST(grp AS BIGINT) AS grp,
                   CAST(count(*) AS BIGINT) AS n_features,
                   CAST(min(x0) AS BIGINT) AS minx_100,
                   CAST(min(y0) AS BIGINT) AS miny_100,
                   CAST(max(x0 + w) AS BIGINT) AS maxx_100,
                   CAST(max(y0 + h) AS BIGINT) AS maxy_100
            FROM b GROUP BY 1
        """,
        # coverage validation: pairwise rect interior overlaps, closed form
        "check_coverage": f"""
            WITH {_ZONES},
            p AS (
              SELECT a.zone_key AS ka, b.zone_key AS kb,
                     least(a.maxx, b.maxx) - greatest(a.minx, b.minx) AS w,
                     least(a.maxy, b.maxy) - greatest(a.miny, b.miny) AS h
              FROM zz a, zz b WHERE a.zone_key < b.zone_key),
            v AS (
              SELECT ka, kb, CAST(round(w * h * 10000.0) AS BIGINT) AS sc
              FROM p WHERE w > 0 AND h > 0
                      AND CAST(round(w * h * 10000.0) AS BIGINT) > 0),
            e AS (
              SELECT ka AS zone_key, sc FROM v
              UNION ALL SELECT kb AS zone_key, sc FROM v)
            SELECT zz.zone_key,
                   CAST(coalesce(count(e.sc), 0) AS BIGINT) AS n_overlaps,
                   CAST(coalesce(sum(e.sc), 0) AS BIGINT) AS overlap_area
            FROM zz LEFT JOIN e ON zz.zone_key = e.zone_key
            GROUP BY zz.zone_key
        """,
        # GNM wall-grid network distance: manhattan + forced-detour closed
        # form (wall between x=63/64, gap at y=96; targets from p_partkey)
        "gnm_shortest_path": """
            SELECT p_partkey AS zone_key,
                   CAST((p_partkey * 13 % 128) + (p_partkey * 29 % 128)
                        + CASE WHEN (p_partkey * 13 % 128) >= 64
                                AND (p_partkey * 29 % 128) < 96
                               THEN 2 * (96 - (p_partkey * 29 % 128))
                               ELSE 0 END AS BIGINT) AS net_dist
            FROM part
        """,
        # 16 disjoint 512-node chains: component = floor(node/512)*512
        "gnm_components": """
            SELECT CAST((c.range) * 512 AS BIGINT) AS component,
                   CAST(512 AS BIGINT) AS n_nodes
            FROM range(16) c
        """,
        # two-file mosaic of the same cube: identical closed form
        "mdim_mosaic_sum": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            s AS (SELECT gx, gy,
                         (SELECT sum((7 * t.range + 5 * gy + 3 * gx) % 97)
                          FROM range(12) t) AS v
                  FROM px)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(v * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM s GROUP BY 1, 2
        """,
        # flipped cube summed over t: closed form with gy -> 191-gy
        "mdim_reproject_sum": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            s AS (SELECT gx, gy,
                         (SELECT sum((7 * t.range + 5 * (191 - gy) + 3 * gx)
                                     % 97)
                          FROM range(12) t) AS v
                  FROM px)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(v * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM s GROUP BY 1, 2
        """,
        # record-dim cube, max over t: same closed form, MAX aggregate
        "mdim_record_max": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            s AS (SELECT gx, gy,
                         (SELECT max((7 * t.range + 5 * gy + 3 * gx) % 97)
                          FROM range(12) t) AS v
                  FROM px)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(v * (((gy % 64) * 64 + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM s GROUP BY 1, 2
        """,
        # slice t=7 then transpose (y,x)->(x,y): output pixel (row i, col j)
        # = v(7, y=j, x=i); tile x = j//64, tile y = i//64
        "mdim_slice_transpose": """
            WITH px AS (SELECT a.range AS i, b.range AS j
                        FROM range(192) a, range(192) b)
            SELECT CAST(j // 64 AS BIGINT) AS x, CAST(i // 64 AS BIGINT) AS y,
                   CAST(sum(((7 * 7 + 5 * j + 3 * i) % 97)
                            * (((i % 64) * 64 + j % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        # DTED0 121x121 signed hump: negatives make the plain sum negative,
        # so the modular fold is done non-negative ((s % m) + m) % m
        "dted_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(121) a, range(121) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(((sum((CAST(trunc(CAST((gx-60)*(gx-60) + (gy-60)*(gy-60)
                                        AS DOUBLE) / 16.0) AS BIGINT) - 200)
                            * (((gy % 64) * LEAST(64, 121 - (gx // 64) * 64)
                                + gx % 64) % 7 + 1)) % 65536) + 65536) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        # HGT: full 1201x1201 SRTM-3 grid; edge tiles clip to 49 px, so the
        # local weight index uses the CLIPPED tile width
        "hgt_roundtrip": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(1201) a, range(1201) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST(sum(CAST(trunc(CAST((gx-600)*(gx-600) + (gy-600)*(gy-600)
                                        AS DOUBLE) / 256.0) AS BIGINT)
                            * (((gy % 64) * LEAST(64, 1201 - (gx // 64) * 64)
                                + gx % 64) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM px GROUP BY 1, 2
        """,
        "tile_pyramid": _tile_pyramid_sql(),
        "tile_pyramid_cubic": _tile_pyramid_cubic_sql(),
        # geoloc warp with an affine-encoding node grid == affine warp (the
        # exact inverse bilinear degenerates to the affine inverse); same
        # z4 nearest mirror
        "warp_geoloc": f"""
            WITH {{ctes}},
            p4s AS (SELECT x, y, i, j,
                      CAST(floor(px) AS BIGINT) AS cx,
                      CAST(floor(py) AS BIGINT) AS cy
                    FROM p4px),
            p4 AS (SELECT x, y, i, j,
                     CASE WHEN cx >= 0 AND cx < 256 AND cy >= 0 AND cy < 256
                          THEN CAST(cx + cy AS DOUBLE) + 1.0 ELSE 0.0 END AS v
                   FROM p4s)
            SELECT 4 AS z, CAST(x AS INTEGER) AS x, CAST(y AS INTEGER) AS y,
                   CAST(sum(CAST(trunc(v) AS BIGINT) * ((j * 64 + i) % 7 + 1))
                        % 65536 AS BIGINT) AS checksum
            FROM p4 GROUP BY 2, 3
        """.format(ctes=_warp_grid_ctes()),
        "overview_kernels": _overview_kernels_sql(),
        "media_features": _media_sql(),
        # the real-codec path (store PNGs -> decode_png) produces the same
        # pixel values by construction; the oracle recomputes them from scratch
        "media_features_real": _media_sql(),
        "media_features_jpeg": _media_sql(),
        "video_frame_sample": _video_frames_sql(),
        # Motion-JPEG path: constant-block 8x upscale round-trips the lossy
        # JFIF pipeline exactly, and frame means are upscale-invariant, so
        # the SAME frame oracle is exact for the compressed codec
        "video_frame_sample_mjpeg": _video_frames_sql(),
        # IMA-ADPCM path: constant-per-block holds round-trip the 4-bit
        # compressed format exactly (predictor stores the first sample
        # verbatim, zero deltas encode losslessly at step-table start), so
        # the media-features oracle is exact for the compressed codec too
        "media_features_adpcm": _media_sql(),
        "media_resize": _media_resize_sql(),
        "warp_cutline": f"""
            WITH {_warp_grid_ctes()},
            p4 AS (SELECT x, y, i, j,
                     CASE WHEN CAST(floor(px) AS BIGINT) >= 0 AND CAST(floor(px) AS BIGINT) < 256
                           AND CAST(floor(py) AS BIGINT) >= 0 AND CAST(floor(py) AS BIGINT) < 256
                           AND lon >= -30.0 AND lon < 40.0
                           AND lat >= -20.0 AND lat < 35.0
                          THEN CAST(CAST(floor(px) AS BIGINT) + CAST(floor(py) AS BIGINT)
                                    AS DOUBLE) + 1.0
                          ELSE 0.0 END AS v
                   FROM (SELECT x, y, i, j, lon, lat,
                           {{inv0}} + lon * {{inv1}} AS px,
                           {{inv3}} + lat * {{inv5}} AS py
                         FROM p4l))
            SELECT 4 AS z, CAST(x AS INTEGER) AS x, CAST(y AS INTEGER) AS y,
                   CAST(sum(CAST(trunc(v) AS BIGINT) * ((j * 64 + i) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM p4 GROUP BY 2, 3
        """.format(**_warp_inv_consts()),
        "grid_metrics": f"""
            WITH {_DOCS_GEO},
            cells AS (
              SELECT a.range AS cx, b.range AS cy,
                     -180.0 + (a.range + 0.5) * 5.625 AS ccx,
                     -85.0 + (b.range + 0.5) * 5.3125 AS ccy
              FROM range(64) a, range(32) b)
            SELECT c.cx, c.cy,
                   CAST(max(d.n_chars) - min(d.n_chars) AS BIGINT) AS vrange
            FROM cells c JOIN d
              ON (c.ccx - d.lon) * (c.ccx - d.lon)
               + (c.ccy - d.lat) * (c.ccy - d.lat) <= 400.0
            GROUP BY c.cx, c.cy
            HAVING count(*) FILTER (d.lon >= c.ccx AND d.lat >= c.ccy) >= 1
               AND count(*) FILTER (d.lon >= c.ccx AND d.lat < c.ccy) >= 1
               AND count(*) FILTER (d.lon < c.ccx AND d.lat >= c.ccy) >= 1
               AND count(*) FILTER (d.lon < c.ccx AND d.lat < c.ccy) >= 1
        """,
        "hillshade": _hillshade_sql(),
        "dem_derivatives": _dem_derivatives_sql(),
        "focal_neighbors": _neighbors_sql(),
        "dither_ordered": _dither_sql(),
        "hillshade_variants": _hillshade_variants_sql(),
        "proximity": _proximity_sql(),
        "fill_nodata": _fill_nodata_sql(),
        "nearblack": _nearblack_sql(),
        "viewshed": _viewshed_sql(),
        "viewshed_sectors": _viewshed_sectors_sql(),
        "viewshed_cumulative": _viewshed_cumulative_sql(),
        "band_stats": """
            WITH g AS (SELECT a.range AS x, b.range AS y
                       FROM range(128) a, range(128) b),
            t AS (SELECT CAST(((x*73 + y*151) % 37) + ((x*y) % 11) * 3
                              AS BIGINT) AS z FROM g),
            a AS (SELECT count(*) AS n, sum(z) AS s, sum(z*z) AS ss,
                         min(z) AS mn, max(z) AS mx FROM t)
            SELECT CAST(1 AS BIGINT) AS band, CAST(n AS BIGINT) AS n,
                   CAST(mn AS BIGINT) AS mn, CAST(mx AS BIGINT) AS mx,
                   CAST(floor((CAST(s AS DOUBLE) / n) * 1000000.0 + 0.5)
                        AS BIGINT) AS mean_e6,
                   CAST(floor(sqrt(GREATEST(CAST(ss AS DOUBLE) / n
                            - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n),
                            0.0)) * 1000000.0 + 0.5) AS BIGINT) AS std_e6
            FROM a
        """,
        "join_anti_spatial": f"""
            WITH {_DOCS_GEO}, {_ZONES}
            SELECT d.doc_id FROM d
            WHERE NOT EXISTS (SELECT 1 FROM zz
                              WHERE d.lon >= zz.minx AND d.lon <= zz.maxx
                                AND d.lat >= zz.miny AND d.lat <= zz.maxy)
        """,
        "pansharpen": """
            -- weighted Brovey: out_c = trunc(clip(up_c * pan/pseudo, 0, 255))
            -- with pseudo = r/3 + g/3 + b/3 at pan resolution (nearest
            -- upsample = ms pixel at pgx//2, pgy//2); per-(tile, band)
            -- LOCAL-weight checksums mirror stages/fillpalette.pansharpen
            WITH px AS (SELECT a.range AS pgx, b.range AS pgy
                        FROM range(256) a, range(256) b),
            v AS (SELECT pgx, pgy,
                    CAST(((pgx//2)*7 + (pgy//2)*11) % 256 AS DOUBLE) AS r,
                    CAST(((pgx//2)*13 + (pgy//2)*3) % 256 AS DOUBLE) AS g,
                    CAST(((pgx//2)*5 + (pgy//2)*17) % 256 AS DOUBLE) AS b,
                    CAST((pgx + 2*pgy) % 256 AS DOUBLE) + 0.25 AS pan
                  FROM px),
            w AS (SELECT pgx, pgy, r, g, b, pan,
                    r * (1.0/3.0) + g * (1.0/3.0) + b * (1.0/3.0) AS pseudo
                  FROM v),
            o AS (
              SELECT pgx, pgy, 0 AS band,
                     trunc(LEAST(GREATEST(r * (CASE WHEN pseudo > 0
                       THEN pan / pseudo ELSE 0 END), 0.0), 255.0)) AS val
              FROM w
              UNION ALL
              SELECT pgx, pgy, 1,
                     trunc(LEAST(GREATEST(g * (CASE WHEN pseudo > 0
                       THEN pan / pseudo ELSE 0 END), 0.0), 255.0))
              FROM w
              UNION ALL
              SELECT pgx, pgy, 2,
                     trunc(LEAST(GREATEST(b * (CASE WHEN pseudo > 0
                       THEN pan / pseudo ELSE 0 END), 0.0), 255.0))
              FROM w)
            SELECT CAST(pgx // 128 AS BIGINT) AS x,
                   CAST(pgy // 128 AS BIGINT) AS y,
                   CAST(band AS BIGINT) AS band,
                   CAST(sum(CAST(val AS BIGINT)
                            * (((pgy % 128) * 128 + pgx % 128) % 7 + 1))
                        % 65536 AS BIGINT) AS checksum
            FROM o GROUP BY 1, 2, 3
        """,
        "translate_scale": f"""
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(128) b),
            sc AS (SELECT gx, gy,
                     CAST((CAST(gx + gy AS DOUBLE) - 0.0)
                          * ((255.0 - 0.0) / (318.0 - 0.0)) + 0.0 AS FLOAT)
                       AS v
                   FROM px)
            {_tile_checksum_sql("trunc(v)", 64, "sc")}
        """,
        "equalize": f"""
            WITH g AS (SELECT a.range AS gx, b.range AS gy
                       FROM range(128) a, range(128) b),
            t AS (SELECT gx, gy, CAST(((gx*73 + gy*151) % 37)
                                      + ((gx*gy) % 11) * 3 AS BIGINT) AS z
                  FROM g),
            c AS (SELECT z, count(*) AS c FROM t GROUP BY z),
            cd AS (SELECT z, CAST(sum(c) OVER (ORDER BY z) AS BIGINT) AS cdf
                   FROM c),
            cm AS (SELECT min(cdf) AS cdfmin,
                          (SELECT count(*) FROM t) AS n FROM cd),
            lut AS (SELECT z, CAST((cdf - cdfmin) * 255
                                   // GREATEST(n - cdfmin, 1)
                                   AS BIGINT) AS o FROM cd, cm),
            v AS (SELECT gx, gy, o AS v FROM t JOIN lut USING (z))
            {_tile_checksum_sql("v", 64, "v")}
        """,
        "raster_histogram": """
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            v AS (SELECT CAST((gx-96)*(gx-96) + (gy-96)*(gy-96) AS DOUBLE)
                         / 64.0 AS v FROM px),
            b AS (SELECT LEAST(CAST(floor(v / 18.0) AS BIGINT), 15) AS bin
                  FROM v WHERE v >= 0.0 AND v <= 288.0),
            c AS (SELECT bin, count(*) AS n FROM b GROUP BY bin)
            SELECT r.range AS bin, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
            FROM range(16) r LEFT JOIN c ON c.bin = r.range
        """,
        "band_stats_approx": """
            WITH g AS (SELECT a.range AS x, b.range AS y
                       FROM range(128) a, range(128) b
                       WHERE a.range % 4 = 0 AND b.range % 4 = 0),
            t AS (SELECT CAST(((x*73 + y*151) % 37) + ((x*y) % 11) * 3
                              AS BIGINT) AS z FROM g),
            a AS (SELECT count(*) AS n, sum(z) AS s, sum(z*z) AS ss,
                         min(z) AS mn, max(z) AS mx FROM t)
            SELECT CAST(1 AS BIGINT) AS band, CAST(n AS BIGINT) AS n,
                   CAST(mn AS BIGINT) AS mn, CAST(mx AS BIGINT) AS mx,
                   CAST(floor((CAST(s AS DOUBLE) / n) * 1000000.0 + 0.5)
                        AS BIGINT) AS mean_e6,
                   CAST(floor(sqrt(GREATEST(CAST(ss AS DOUBLE) / n
                            - (CAST(s AS DOUBLE) / n) * (CAST(s AS DOUBLE) / n),
                            0.0)) * 1000000.0 + 0.5) AS BIGINT) AS std_e6
            FROM a
        """,
        "tile_index": """
            WITH g AS (SELECT a.range AS gx, b.range AS gy
                       FROM range(128) a, range(128) b)
            SELECT CAST(gx // 64 AS BIGINT) AS x, CAST(gy // 64 AS BIGINT) AS y,
                   CAST((gx // 64) * 64 AS BIGINT) AS minx,
                   CAST((gy // 64) * 64 AS BIGINT) AS miny,
                   CAST((gx // 64) * 64 + 64 AS BIGINT) AS maxx,
                   CAST((gy // 64) * 64 + 64 AS BIGINT) AS maxy,
                   CAST(sum((gx + gy) * ((gy * 128 + gx) % 7 + 1)) % 65536
                        AS BIGINT) AS checksum
            FROM g GROUP BY 1, 2, 3, 4, 5, 6
        """,
        "translate_window": """
            WITH g AS (SELECT a.range AS gx, b.range AS gy
                       FROM range(128) a, range(128) b),
            c AS (SELECT gx, gy, gx // 64 AS tx, gy // 64 AS ty FROM g
                  WHERE gx >= 20 AND gx < 100 AND gy >= 30 AND gy < 90),
            d AS (SELECT tx, ty, gx, gy,
                         GREATEST(20, tx * 64) AS cx0, GREATEST(30, ty * 64) AS cy0,
                         LEAST(100, tx * 64 + 64) AS cx1, LEAST(90, ty * 64 + 64) AS cy1
                  FROM c)
            SELECT CAST(tx AS BIGINT) AS x, CAST(ty AS BIGINT) AS y,
                   CAST(cx1 - cx0 AS BIGINT) AS width,
                   CAST(cy1 - cy0 AS BIGINT) AS height,
                   CAST(cx0 - tx * 64 AS BIGINT) AS win_ox,
                   CAST(cy0 - ty * 64 AS BIGINT) AS win_oy,
                   CAST(sum((gx + gy)
                            * (((gy - cy0) * (cx1 - cx0) + (gx - cx0)) % 7 + 1))
                        % 65536 AS BIGINT) AS checksum
            FROM d GROUP BY 1, 2, 3, 4, 5, 6
        """,
        "viewshed_modes": _viewshed_modes_sql(),
        "footprint": _footprint_sql(),
        "palette_median_cut": _palette_sql(),
        "pct2rgb_roundtrip": _pct2rgb_sql(),
        "polygonize_blobs": f"""
            WITH {_blobs_cte(4, 4)}
            SELECT CAST(v AS DOUBLE) AS value,
                   CAST(count(*) AS BIGINT) AS n_pixels,
                   CAST(min(gx) AS BIGINT) AS minx, CAST(min(gy) AS BIGINT) AS miny,
                   CAST(max(gx) AS BIGINT) AS maxx, CAST(max(gy) AS BIGINT) AS maxy
            FROM pv WHERE v > 0 GROUP BY v
        """,
        "polygonize_rings": f"""
            -- each disc region is hole-free on this fixture, so the traced
            -- shell's pixel-corner area equals its pixel count exactly
            WITH {_blobs_cte(4, 4)}
            SELECT CAST(v AS DOUBLE) AS value,
                   CAST(count(*) AS BIGINT) AS n_pixels,
                   CAST(count(*) * 100 AS BIGINT) AS ring_area_x100
            FROM pv WHERE v > 0 GROUP BY v
        """,
        "sieve_cross_tile": f"""
            -- rects on a value-9 background; disjoint rects' only neighbor is
            -- the background, so any rect below the threshold merges into it
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            rects(rid, x0, y0, x1, y1) AS (VALUES {", ".join(
                f"({i}, {x0}, {y0}, {x1}, {y1})"
                for i, (x0, y0, x1, y1) in enumerate(
                    __import__("gdal_ray.sources.synthetic", fromlist=["RECTS"]).RECTS))}),
            keep AS (SELECT * FROM rects WHERE (x1 - x0) * (y1 - y0) >= 350),
            v AS (SELECT p.gx, p.gy, COALESCE(any_value(k.rid + 1), 9) AS v
                  FROM px p LEFT JOIN keep k
                    ON p.gx >= k.x0 AND p.gx < k.x1 AND p.gy >= k.y0 AND p.gy < k.y1
                  GROUP BY 1, 2)
            {_tile_checksum_sql("v", 64, "v")}
        """,
        "polygonize_holes": """
            -- donut fixture: annulus [20,172)^2 \\ [60,132)^2, value 7; the
            -- shell ring bounds the full outer square, the one hole ring the
            -- inner square (pixel-corner areas = pixel counts)
            WITH px AS (SELECT a.range AS gx, b.range AS gy
                        FROM range(192) a, range(192) b),
            ann AS (SELECT count(*) AS npx FROM px
                    WHERE gx >= 20 AND gx < 172 AND gy >= 20 AND gy < 172
                      AND NOT (gx >= 60 AND gx < 132 AND gy >= 60 AND gy < 132)),
            hole AS (SELECT count(*) AS hpx FROM px
                     WHERE gx >= 60 AND gx < 132 AND gy >= 60 AND gy < 132)
            SELECT CAST(7 AS DOUBLE) AS value,
                   CAST(ann.npx AS BIGINT) AS n_pixels,
                   CAST(1 AS BIGINT) AS n_holes,
                   CAST(hole.hpx AS BIGINT) AS hole_pixels,
                   CAST((ann.npx + hole.hpx) * 100 AS BIGINT) AS shell_area_x100,
                   CAST(hole.hpx * 100 AS BIGINT) AS hole_area_x100
            FROM ann, hole
        """,
        "fingerprint": f"""
            WITH h AS (SELECT doc_id, md5(text) AS h FROM documents),
            f AS (SELECT doc_id, {_hex_u64('h')} AS v FROM h)
            SELECT doc_id, {_U64_TO_I64.format(v='v')} AS fingerprint FROM f
        """,
        "langid": _langid_sql(),
        "simhash_signatures": f"""
            WITH {_shingle_cte(3)},
            pw(j, pj) AS (VALUES {", ".join(f"({j}, {1 << j}::HUGEINT)" for j in range(64))}),
            bits AS (SELECT doc_id, j,
                            sum(CASE WHEN (x // pj) % 2 = 1 THEN 1 ELSE -1 END) AS votes
                     FROM xs, pw GROUP BY doc_id, j),
            val AS (SELECT b.doc_id,
                           sum(CASE WHEN b.votes > 0 THEN p.pj ELSE 0::HUGEINT END) AS v
                    FROM bits b JOIN pw p ON p.j = b.j GROUP BY b.doc_id)
            SELECT doc_id, {_U64_TO_I64.format(v='v')} AS simhash FROM val
        """,
        "simhash_neardup": f"""
            WITH {_shingle_cte(3)},
            pw(j, pj) AS (VALUES {", ".join(f"({j}, {1 << j}::HUGEINT)" for j in range(64))}),
            bits AS (SELECT doc_id, j,
                            sum(CASE WHEN (x // pj) % 2 = 1 THEN 1 ELSE -1 END) AS votes
                     FROM xs, pw GROUP BY doc_id, j),
            val AS (SELECT b.doc_id,
                           sum(CASE WHEN b.votes > 0 THEN p.pj ELSE 0::HUGEINT END) AS v
                    FROM bits b JOIN pw p ON p.j = b.j GROUP BY b.doc_id),
            s AS (SELECT doc_id, {_U64_TO_I64.format(v='v')} AS sig FROM val)
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
            FROM s a JOIN s b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.sig, b.sig)) <= 3
        """,
        "minhash_lsh_pairs": f"""
            WITH {_shingle_cte(5)}, {_minhash_ctes(64, 16)},
            est AS (SELECT c.id_a, c.id_b,
                           (sum(CASE WHEN ma.sig = mb.sig THEN 1 ELSE 0 END) * 1000) // 64
                             AS est_jaccard_x1000
                    FROM cand c
                    JOIN mh ma ON ma.doc_id = c.id_a
                    JOIN mh mb ON mb.doc_id = c.id_b AND mb.p = ma.p
                    GROUP BY c.id_a, c.id_b)
            SELECT id_a, id_b, CAST(est_jaccard_x1000 AS BIGINT) AS est_jaccard_x1000
            FROM est WHERE est_jaccard_x1000 >= 500
        """,
        "dup_clusters": f"""
            WITH RECURSIVE {_shingle_cte(5)}, {_minhash_ctes(64, 16)},
            est AS (SELECT c.id_a, c.id_b,
                           (sum(CASE WHEN ma.sig = mb.sig THEN 1 ELSE 0 END) * 1000) // 64 AS e
                    FROM cand c
                    JOIN mh ma ON ma.doc_id = c.id_a
                    JOIN mh mb ON mb.doc_id = c.id_b AND mb.p = ma.p
                    GROUP BY c.id_a, c.id_b),
            edges AS (SELECT id_a AS a, id_b AS b FROM est WHERE e >= 500
                      UNION SELECT id_b, id_a FROM est WHERE e >= 500),
            r(n, m) AS (SELECT a, a FROM edges
                        UNION SELECT r.n, e.b FROM r JOIN edges e ON e.a = r.m)
            SELECT CAST(n AS BIGINT) AS doc_id, CAST(min(m) AS BIGINT) AS cluster_id
            FROM r GROUP BY n
        """,
        "cluster_split": f"""
            WITH RECURSIVE {_shingle_cte(5)}, {_minhash_ctes(64, 16)},
            est AS (SELECT c.id_a, c.id_b,
                           (sum(CASE WHEN ma.sig = mb.sig THEN 1 ELSE 0 END) * 1000) // 64 AS e
                    FROM cand c
                    JOIN mh ma ON ma.doc_id = c.id_a
                    JOIN mh mb ON mb.doc_id = c.id_b AND mb.p = ma.p
                    GROUP BY c.id_a, c.id_b),
            edges AS (SELECT id_a AS a, id_b AS b FROM est WHERE e >= 500
                      UNION SELECT id_b, id_a FROM est WHERE e >= 500),
            r(n, m) AS (SELECT a, a FROM edges
                        UNION SELECT r.n, e2.b FROM r JOIN edges e2 ON e2.a = r.m),
            cl AS (SELECT n AS doc_id, min(m) AS cid FROM r GROUP BY n)
            SELECT d.doc_id,
                   CAST(COALESCE(cl.cid, d.doc_id) AS BIGINT) AS cluster_id,
                   CASE WHEN COALESCE(cl.cid, d.doc_id) % 5 = 0
                        THEN 'val' ELSE 'train' END AS split
            FROM documents d LEFT JOIN cl ON cl.doc_id = d.doc_id
        """,
        "dedup_keep_best": f"""
            WITH RECURSIVE {_shingle_cte(5)}, {_minhash_ctes(64, 16)},
            est AS (SELECT c.id_a, c.id_b,
                           (sum(CASE WHEN ma.sig = mb.sig THEN 1 ELSE 0 END) * 1000) // 64 AS e
                    FROM cand c
                    JOIN mh ma ON ma.doc_id = c.id_a
                    JOIN mh mb ON mb.doc_id = c.id_b AND mb.p = ma.p
                    GROUP BY c.id_a, c.id_b),
            edges AS (SELECT id_a AS a, id_b AS b FROM est WHERE e >= 500
                      UNION SELECT id_b, id_a FROM est WHERE e >= 500),
            r(n, m) AS (SELECT a, a FROM edges
                        UNION SELECT r.n, e.b FROM r JOIN edges e ON e.a = r.m),
            cc AS (SELECT n, min(m) AS cluster_id FROM r GROUP BY n),
            j AS (SELECT cc.cluster_id, cc.n AS doc_id, d.n_chars
                  FROM cc JOIN documents d ON d.doc_id = cc.n),
            rw AS (SELECT *,
                         row_number() OVER (PARTITION BY cluster_id
                                            ORDER BY n_chars DESC, doc_id) AS rn,
                         count(*) OVER (PARTITION BY cluster_id) AS nm
                  FROM j)
            SELECT CAST(cluster_id AS BIGINT) AS cluster_id,
                   CAST(doc_id AS BIGINT) AS keep_id,
                   CAST(nm AS BIGINT) AS n_members,
                   CAST(n_chars AS BIGINT) AS best_score
            FROM rw WHERE rn = 1
        """,
        "quality_classifier": f"""
            WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
                         FROM documents),
            h AS (SELECT doc_id, md5(term) AS h FROM tok),
            b AS (SELECT doc_id, {_hex_u64('h')} % 64 AS bk FROM h),
            s AS (SELECT doc_id,
                         sum((bk * 2654435761) % 2001 - 1000) AS score
                  FROM b GROUP BY doc_id)
            SELECT doc_id, CAST(score AS BIGINT) AS score_x1000,
                   CAST(CASE WHEN score > 0 THEN 1 ELSE 0 END AS BIGINT) AS label
            FROM s
        """,
        "ngram_jaccard_pairs": f"""
            WITH {_shingle_cte(3)}, {_minhash_ctes(32, 8)},
            sh AS (SELECT DISTINCT doc_id, x FROM xs),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
            inter AS (SELECT c.id_a, c.id_b, count(*) AS ni
                      FROM cand c
                      JOIN sh sa ON sa.doc_id = c.id_a
                      JOIN sh sb ON sb.doc_id = c.id_b AND sb.x = sa.x
                      GROUP BY c.id_a, c.id_b),
            jac AS (SELECT c.id_a, c.id_b,
                           (2000 * COALESCE(i.ni, 0)
                            + (ca.n + cb.n - COALESCE(i.ni, 0)))
                           // (2 * (ca.n + cb.n - COALESCE(i.ni, 0))) AS jaccard_x1000
                    FROM cand c
                    LEFT JOIN inter i ON i.id_a = c.id_a AND i.id_b = c.id_b
                    JOIN cnt ca ON ca.doc_id = c.id_a
                    JOIN cnt cb ON cb.doc_id = c.id_b)
            SELECT id_a, id_b, CAST(jaccard_x1000 AS BIGINT) AS jaccard_x1000
            FROM jac WHERE jaccard_x1000 >= 300
        """,
        **_transformer_oracles(),
        **_crs_oracles(),
    }
