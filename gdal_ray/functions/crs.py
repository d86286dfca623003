"""CRS resolution: EPSG parameter database + proj-string / WKT routing.

Re-answers the reference's CRS front door (``ogr/ogrspatialreference.cpp``
SetFromUserInput / importFromEPSG / importFromProj4 / importFromWkt and
``ogr/ogrct.cpp``'s PROJ method routing) as a data-driven registry over the
in-repo projection kernels (``gdal_ray.functions.transformer``).  Where the
reference links the full EPSG database through PROJ, this module carries a
curated extract of the widely-used projected CRS of each projection family
plus the zone-family closed forms (UTM / MGA / Gauss-Krueger); everything
routes onto the same vectorized float64 kernels.

Datum handling: each entry carries its ellipsoid (a, f) and, when the datum
is not WGS84-coincident at the meter level, a ``towgs84`` 7-parameter
Helmert (position-vector convention, the PROJ ``+towgs84`` pipeline).  The
reverse shift negates the parameters — the standard linearized inverse,
sub-mm at these rotation magnitudes.  Values are the public PROJ/EPSG
defaults for each datum.

All parameters in this file are public knowledge (EPSG registry /
PROJ ``proj.db`` extracts as published in EPSG Guidance Note 7-2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import transformer as _tr

# --- ellipsoids (a, 1/f) — EPSG datum ensemble table -----------------------

ELLIPSOIDS: dict[str, tuple[float, float]] = {
    "WGS84": (6378137.0, 298.257223563),
    "GRS80": (6378137.0, 298.257222101),
    "airy": (6377563.396, 299.3249646),          # Airy 1830
    "mod_airy": (6377340.189, 299.3249646),      # Airy Modified 1849
    "bessel": (6377397.155, 299.1528128),        # Bessel 1841
    "intl": (6378388.0, 297.0),                  # International 1924
    "clrk66": (6378206.4, 294.978698213898),     # Clarke 1866
    "clrk80ign": (6378249.2, 293.4660212936269), # Clarke 1880 (IGN)
    "krass": (6378245.0, 298.3),                 # Krassowsky 1940
    "GRS67": (6378160.0, 298.247167427),
    "aust_SA": (6378160.0, 298.25),              # Australian National
    "helmert": (6378200.0, 298.3),
    "evrst30": (6377276.345, 300.8017),
    "sphere": (6370997.0, float("inf")),
}


def _ef(name: str) -> tuple[float, float]:
    a, rf = ELLIPSOIDS[name]
    return a, (0.0 if rf == float("inf") else 1.0 / rf)


# --- datum -> WGS84 Helmert parameters (tx ty tz rx ry rz s) ---------------
# Position-vector sign convention; 3-param entries are zero-rotation.
# Public PROJ +towgs84 defaults per datum (see PROJ's datum table / EPSG).

DATUMS: dict[str, tuple[float, ...]] = {
    "OSGB36": (446.448, -125.157, 542.060, 0.1502, 0.2470, 0.8421, -20.4894),
    "BD72": (-106.8686, 52.2978, -103.7239, 0.3366, -0.457, 1.8422, -1.2747),
    "CH1903": (674.374, 15.056, 405.346, 0.0, 0.0, 0.0, 0.0),
    "CH1903+": (674.374, 15.056, 405.346, 0.0, 0.0, 0.0, 0.0),
    "SJTSK": (589.0, 76.0, 480.0, 0.0, 0.0, 0.0, 0.0),
    "DHDN": (598.1, 73.7, 418.2, 0.202, 0.045, -2.455, 6.7),
    "NTF": (-168.0, -60.0, 320.0, 0.0, 0.0, 0.0, 0.0),
    "ED50": (-87.0, -98.0, -121.0, 0.0, 0.0, 0.0, 0.0),
    "PULKOVO42": (23.92, -141.27, -80.9, 0.0, 0.35, 0.82, -0.12),
    "AMERSFOORT": (565.417, 50.3319, 465.552,
                   -0.398957, 0.343988, -1.8774, 4.0725),
    "TM75": (482.5, -130.6, 564.6, -1.042, -0.214, -0.631, 8.15),
}


@dataclass(frozen=True)
class CRSDef:
    """Resolved CRS: projection family + kernel kwargs + datum."""

    family: str                       # 'longlat' | kernel family name
    kw: dict = field(default_factory=dict)
    a: float = _tr.WGS84_A
    f: float = _tr.WGS84_F
    towgs84: tuple[float, ...] | None = None   # None => WGS84-coincident
    to_meter: float = 1.0             # axis unit (e.g. US survey foot)
    name: str = ""

    @property
    def is_geographic(self) -> bool:
        return self.family == "longlat"

    @property
    def ellips_param(self) -> bool:
        """Whether the family's kernels accept (a, f)."""
        return self.family in _ELLIPS_PARAM_FAMILIES


_ELLIPS_PARAM_FAMILIES = {"tmerc", "lcc", "lcc1sp", "somerc", "krovak",
                          "sterea", "longlat"}

# Families served by the WGS84-only kernels (guarded when the entry's
# ellipsoid differs materially from WGS84).
_WGS84_ONLY_FAMILIES = {"aea", "stereo_polar", "eqc", "laea", "cea", "merc"}


def _d(name: str) -> tuple[float, ...]:
    return DATUMS[name]


def _entry(family, kw, ellps="WGS84", datum=None, to_meter=1.0, name=""):
    a, f = _ef(ellps)
    return CRSDef(family=family, kw=kw, a=a, f=f,
                  towgs84=(_d(datum) if datum else None),
                  to_meter=to_meter, name=name)


# --- the registry ----------------------------------------------------------
# Keyed by integer EPSG code.  Zone families (UTM etc.) resolve
# programmatically in epsg_def(); this table is the non-zone extract.

def _registry() -> dict[int, CRSDef]:
    E = _entry
    r: dict[int, CRSDef] = {}

    # geographic CRS (2D lon/lat) — datum carried for transform chains
    r[4326] = E("longlat", {}, "WGS84", name="WGS 84")
    r[4258] = E("longlat", {}, "GRS80", name="ETRS89")
    r[4269] = E("longlat", {}, "GRS80", name="NAD83")
    r[4283] = E("longlat", {}, "GRS80", name="GDA94")
    r[7844] = E("longlat", {}, "GRS80", name="GDA2020")
    r[4171] = E("longlat", {}, "GRS80", name="RGF93")
    r[4167] = E("longlat", {}, "GRS80", name="NZGD2000")
    r[4277] = E("longlat", {}, "airy", "OSGB36", name="OSGB36")
    r[4313] = E("longlat", {}, "intl", "BD72", name="BD72")
    r[4149] = E("longlat", {}, "bessel", "CH1903", name="CH1903")
    r[4150] = E("longlat", {}, "bessel", "CH1903+", name="CH1903+")
    r[4156] = E("longlat", {}, "bessel", "SJTSK", name="S-JTSK")
    r[4314] = E("longlat", {}, "bessel", "DHDN", name="DHDN")
    r[4275] = E("longlat", {}, "clrk80ign", "NTF", name="NTF")
    r[4230] = E("longlat", {}, "intl", "ED50", name="ED50")
    r[4284] = E("longlat", {}, "krass", "PULKOVO42", name="Pulkovo 1942")
    r[4289] = E("longlat", {}, "bessel", "AMERSFOORT", name="Amersfoort")
    r[4300] = E("longlat", {}, "mod_airy", "TM75", name="TM75")

    # --- transverse mercator national grids ---
    r[27700] = E("tmerc", dict(lon0=-2.0, lat0=49.0, k0=0.9996012717,
                               fe=400000.0, fn=-100000.0),
                 "airy", "OSGB36", name="OSGB36 / British National Grid")
    r[29903] = E("tmerc", dict(lon0=-8.0, lat0=53.5, k0=1.000035,
                               fe=200000.0, fn=250000.0),
                 "mod_airy", "TM75", name="TM75 / Irish Grid")
    r[2157] = E("tmerc", dict(lon0=-8.0, lat0=53.5, k0=0.99982,
                              fe=600000.0, fn=750000.0),
                "GRS80", name="IRENET95 / Irish Transverse Mercator")
    r[2180] = E("tmerc", dict(lon0=19.0, k0=0.9993,
                              fe=500000.0, fn=-5300000.0),
                "GRS80", name="ETRS89 / Poland CS92")
    for i, lon0 in enumerate((15.0, 18.0, 21.0, 24.0)):
        r[2176 + i] = E("tmerc", dict(lon0=lon0, k0=0.999923,
                                      fe=(lon0 / 3.0) * 1e6 + 500000.0,
                                      fn=0.0),
                        "GRS80", name=f"ETRS89 / Poland CS2000 zone {5+i}")
    r[3006] = E("tmerc", dict(lon0=15.0, k0=0.9996, fe=500000.0, fn=0.0),
                "GRS80", name="SWEREF99 TM")
    for z in (2, 3, 4, 5):  # DHDN / Gauss-Krueger zones 2-5
        r[31464 + z] = E("tmerc", dict(lon0=3.0 * z, k0=1.0,
                                       fe=z * 1e6 + 500000.0, fn=0.0),
                         "bessel", "DHDN",
                         name=f"DHDN / 3-degree Gauss-Krueger zone {z}")

    # --- Lambert conformal conic (2SP) ---
    r[3112] = E("lcc", dict(lon0=134.0, lat1=-18.0, lat2=-36.0, lat0=0.0),
                "GRS80", name="GDA94 / Geoscience Australia Lambert")
    r[31370] = E("lcc", dict(lon0=4.367486666666666,
                             lat1=51.16666723333333, lat2=49.8333339,
                             lat0=90.0, fe=150000.013, fn=5400088.438),
                 "intl", "BD72", name="BD72 / Belgian Lambert 72")
    r[3812] = E("lcc", dict(lon0=4.359215833333333,
                            lat1=49.833333333333336, lat2=51.166666666666664,
                            lat0=50.797815, fe=649328.0, fn=665262.0),
                "GRS80", name="ETRS89 / Belgian Lambert 2008")
    r[2154] = E("lcc", dict(lon0=3.0, lat1=44.0, lat2=49.0, lat0=46.5,
                            fe=700000.0, fn=6600000.0),
                "GRS80", name="RGF93 / Lambert-93")

    # --- Lambert conformal conic (1SP) — NTF France zones (grads -> deg) ---
    r[27561] = E("lcc1sp", dict(lon0=2.337229166666667, lat0=49.5,
                                k0=0.999877341, fe=600000.0, fn=200000.0),
                 "clrk80ign", "NTF", name="NTF (Paris) / Lambert Nord France")
    r[27562] = E("lcc1sp", dict(lon0=2.337229166666667, lat0=46.8,
                                k0=0.99987742, fe=600000.0, fn=200000.0),
                 "clrk80ign", "NTF", name="NTF (Paris) / Lambert Centre")
    r[27563] = E("lcc1sp", dict(lon0=2.337229166666667, lat0=44.1,
                                k0=0.999877499, fe=600000.0, fn=200000.0),
                 "clrk80ign", "NTF", name="NTF (Paris) / Lambert Sud France")
    r[27572] = E("lcc1sp", dict(lon0=2.337229166666667, lat0=46.8,
                                k0=0.99987742, fe=600000.0, fn=2200000.0),
                 "clrk80ign", "NTF", name="NTF (Paris) / Lambert zone II")

    # --- Swiss oblique Mercator ---
    r[2056] = E("somerc", dict(lon0=7.439583333333333,
                               lat0=46.95240555555556, k0=1.0,
                               fe=2600000.0, fn=1200000.0),
                "bessel", "CH1903+", name="CH1903+ / LV95")
    r[21781] = E("somerc", dict(lon0=7.439583333333333,
                                lat0=46.95240555555556, k0=1.0,
                                fe=600000.0, fn=200000.0),
                 "bessel", "CH1903", name="CH1903 / LV03")

    # --- Krovak ---
    kro = dict(lon0=24.833333333333332, lat_c=49.5, lat_p=78.5,
               alpha_c=30.288139722222223, k=0.9999, fe=0.0, fn=0.0)
    r[5514] = E("krovak", dict(kro, east_north=True), "bessel", "SJTSK",
                name="S-JTSK / Krovak East North")
    r[5513] = E("krovak", dict(kro, east_north=False), "bessel", "SJTSK",
                name="S-JTSK / Krovak")

    # --- oblique stereographic ---
    r[28992] = E("sterea", dict(lon0=5.387638888888889,
                                lat0=52.15616055555555, k0=0.9999079,
                                fe=155000.0, fn=463000.0),
                 "bessel", "AMERSFOORT", name="Amersfoort / RD New")

    # --- US State Plane NAD83 extract (GRS80; ftUS where the published
    # CRS uses US survey feet — kernel kwargs stay in meters, to_meter
    # converts the axis units, matching EPSG's dual-unit definitions) ---
    FT = 1200.0 / 3937.0
    r[2263] = CRSDef("lcc", dict(lon0=-74.0, lat1=41.03333333333333,
                                 lat2=40.66666666666666,
                                 lat0=40.16666666666666,
                                 fe=300000.0, fn=0.0),
                     a=_ef("GRS80")[0], f=_ef("GRS80")[1], to_meter=FT,
                     name="NAD83 / New York Long Island (ftUS)")
    r[2229] = CRSDef("lcc", dict(lon0=-118.0, lat1=35.46666666666667,
                                 lat2=34.03333333333333, lat0=33.5,
                                 fe=2000000.0, fn=500000.0),
                     a=_ef("GRS80")[0], f=_ef("GRS80")[1], to_meter=FT,
                     name="NAD83 / California zone 5 (ftUS)")
    r[2230] = CRSDef("lcc", dict(lon0=-116.25, lat1=33.88333333333333,
                                 lat2=32.78333333333333,
                                 lat0=32.166666666666668,
                                 fe=2000000.0, fn=500000.0),
                     a=_ef("GRS80")[0], f=_ef("GRS80")[1], to_meter=FT,
                     name="NAD83 / California zone 6 (ftUS)")
    r[2285] = CRSDef("lcc", dict(lon0=-120.83333333333333,
                                 lat1=48.733333333333334, lat2=47.5,
                                 lat0=47.0, fe=500000.0, fn=0.0),
                     a=_ef("GRS80")[0], f=_ef("GRS80")[1], to_meter=FT,
                     name="NAD83 / Washington North (ftUS)")
    r[2248] = CRSDef("lcc", dict(lon0=-77.0, lat1=39.45, lat2=38.3,
                                 lat0=37.666666666666664,
                                 fe=400000.0, fn=0.0),
                     a=_ef("GRS80")[0], f=_ef("GRS80")[1], to_meter=FT,
                     name="NAD83 / Maryland (ftUS)")
    r[2276] = CRSDef("lcc", dict(lon0=-98.5, lat1=33.96666666666667,
                                 lat2=32.13333333333333,
                                 lat0=31.666666666666668,
                                 fe=600000.0, fn=2000000.0),
                     a=_ef("GRS80")[0], f=_ef("GRS80")[1], to_meter=FT,
                     name="NAD83 / Texas North Central (ftUS)")
    r[26943] = E("lcc", dict(lon0=-120.5, lat1=38.43333333333333,
                             lat2=37.06666666666667, lat0=36.5,
                             fe=2000000.0, fn=500000.0),
                 "GRS80", name="NAD83 / California zone 3")
    r[2240] = CRSDef("tmerc", dict(lon0=-84.16666666666667, lat0=30.0,
                                   k0=0.9999, fe=700000.0, fn=0.0),
                     a=_ef("GRS80")[0], f=_ef("GRS80")[1], to_meter=FT,
                     name="NAD83 / Georgia West (ftUS)")
    r[26971] = E("tmerc", dict(lon0=-88.33333333333333,
                               lat0=36.666666666666664, k0=0.999975,
                               fe=300000.0, fn=0.0),
                 "GRS80", name="NAD83 / Illinois East")

    # --- ED50 / UTM zones (International 1924 + ED50 shift) ---
    for z in range(28, 39):
        lon0, k0, fe, fn = _tr.utm_zone_params(z, south=False)
        r[23000 + z] = E("tmerc", dict(lon0=lon0, k0=k0, fe=fe, fn=fn),
                         "intl", "ED50", name=f"ED50 / UTM zone {z}N")

    # --- Pulkovo 1942 / Gauss-Krueger 6-degree zones 4-32 ---
    for z in range(4, 33):
        r[28400 + z] = E("tmerc", dict(lon0=6.0 * z - 3.0, k0=1.0,
                                       fe=z * 1e6 + 500000.0, fn=0.0),
                         "krass", "PULKOVO42",
                         name=f"Pulkovo 1942 / Gauss-Krueger zone {z}")

    return r


_REGISTRY: dict[int, CRSDef] | None = None


def epsg_def(code: int) -> CRSDef | None:
    """CRSDef for an EPSG code: registry first, then the legacy
    geo._EPSG_TABLE + zone families (all WGS84-ellipsoid)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _registry()
    hit = _REGISTRY.get(code)
    if hit is not None:
        return hit
    from . import geo as _geo

    legacy = _geo.epsg_params(f"EPSG:{code}")
    if legacy is not None:
        fam, kw = legacy
        return CRSDef(family=fam, kw=dict(kw), name=f"EPSG:{code}")
    return None


# --- proj-string parsing ---------------------------------------------------

_PROJ_TO_FAMILY = {
    "tmerc": "tmerc", "utm": "tmerc", "lcc": "lcc", "somerc": "somerc",
    "krovak": "krovak", "sterea": "sterea", "aea": "aea", "laea": "laea",
    "cea": "cea", "eqc": "eqc", "merc": "merc", "stere": "stereo_polar",
    "longlat": "longlat", "latlong": "longlat",
}


def parse_proj_string(text: str) -> CRSDef:
    """Parse a ``+proj=...`` string onto a CRSDef (the importFromProj4
    subset: projection family + origin/scale/false-origin parameters,
    +ellps/+a/+rf/+f, +towgs84, +to_meter, +zone/+south)."""
    kvs: dict[str, str] = {}
    for tok in text.split():
        tok = tok.lstrip("+")
        if "=" in tok:
            k, v = tok.split("=", 1)
            kvs[k] = v
        elif tok:
            kvs[tok] = ""
    proj = kvs.get("proj")
    if proj not in _PROJ_TO_FAMILY:
        raise NotImplementedError(f"+proj={proj} not routed "
                                  f"(supported: {sorted(_PROJ_TO_FAMILY)})")
    family = _PROJ_TO_FAMILY[proj]

    # ellipsoid
    if "ellps" in kvs:
        a, f = _ef(kvs["ellps"])
    else:
        a = float(kvs.get("a", _tr.WGS84_A))
        if "rf" in kvs:
            f = 1.0 / float(kvs["rf"])
        elif "f" in kvs:
            f = float(kvs["f"])
        elif "b" in kvs:
            f = (a - float(kvs["b"])) / a
        elif "a" in kvs:
            f = 0.0  # sphere
        else:
            f = _tr.WGS84_F

    towgs84 = None
    if "towgs84" in kvs:
        vals = tuple(float(v) for v in kvs["towgs84"].split(","))
        if len(vals) == 3:
            vals = vals + (0.0, 0.0, 0.0, 0.0)
        if len(vals) != 7:
            raise ValueError(f"+towgs84 needs 3 or 7 values, got {vals}")
        if any(vals):
            towgs84 = vals

    g = lambda k, d=0.0: float(kvs.get(k, d))  # noqa: E731
    kw: dict = {}
    if proj == "utm":
        lon0, k0, fe, fn = _tr.utm_zone_params(int(kvs["zone"]),
                                               south="south" in kvs)
        kw = dict(lon0=lon0, k0=k0, fe=fe, fn=fn)
    elif family == "tmerc":
        kw = dict(lon0=g("lon_0"), lat0=g("lat_0"), k0=g("k", g("k_0", 1.0)),
                  fe=g("x_0"), fn=g("y_0"))
    elif family == "lcc":
        if "lat_2" in kvs:
            kw = dict(lon0=g("lon_0"), lat1=g("lat_1"), lat2=g("lat_2"),
                      lat0=g("lat_0"), fe=g("x_0"), fn=g("y_0"))
        else:  # 1SP form
            family = "lcc1sp"
            kw = dict(lon0=g("lon_0"), lat0=g("lat_0"),
                      k0=g("k", g("k_0", 1.0)), fe=g("x_0"), fn=g("y_0"))
    elif family == "somerc":
        kw = dict(lon0=g("lon_0"), lat0=g("lat_0"), k0=g("k", g("k_0", 1.0)),
                  fe=g("x_0"), fn=g("y_0"))
    elif family == "krovak":
        kw = dict(lon0=g("lon_0", 24.833333333333332),
                  lat_c=g("lat_0", 49.5), lat_p=78.5,
                  alpha_c=g("alpha", 30.288139722222223),
                  k=g("k", g("k_0", 0.9999)), fe=g("x_0"), fn=g("y_0"),
                  east_north=True)
    elif family == "sterea":
        kw = dict(lon0=g("lon_0"), lat0=g("lat_0"), k0=g("k", g("k_0", 1.0)),
                  fe=g("x_0"), fn=g("y_0"))
    elif family == "aea":
        kw = dict(lon0=g("lon_0"), lat1=g("lat_1"), lat2=g("lat_2"),
                  lat0=g("lat_0"), fe=g("x_0"), fn=g("y_0"))
    elif family == "laea":
        kw = dict(lon0=g("lon_0"), lat0=g("lat_0"), fe=g("x_0"), fn=g("y_0"))
    elif family == "cea":
        kw = dict(lon0=g("lon_0"), lat_ts=g("lat_ts"), fe=g("x_0"),
                  fn=g("y_0"))
    elif family == "eqc":
        kw = dict(lon0=g("lon_0"), lat_ts=g("lat_ts"), fe=g("x_0"),
                  fn=g("y_0"))
    elif family == "stereo_polar":
        lat0 = g("lat_0", 90.0)
        kw = dict(lon0=g("lon_0"), lat_ts=g("lat_ts", lat0),
                  fe=g("x_0"), fn=g("y_0"), north=lat0 >= 0.0)
    elif family == "merc":
        kw = {}
    elif family == "longlat":
        kw = {}
    to_meter = float(kvs.get("to_meter", 1.0))
    if kvs.get("units") == "us-ft":
        to_meter = 1200.0 / 3937.0
    elif kvs.get("units") == "ft":
        to_meter = 0.3048
    return CRSDef(family=family, kw=kw, a=a, f=f, towgs84=towgs84,
                  to_meter=to_meter, name=text)


# --- WKT (OGC WKT1) parsing ------------------------------------------------


def _wkt_tokenize(text: str):
    """WKT -> nested [keyword, arg, arg, ...] lists; quoted strings kept."""
    i, n = 0, len(text)

    def parse_node():
        nonlocal i
        # keyword
        start = i
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        kw = text[start:i]
        node = [kw]
        if i < n and text[i] == "[":
            i += 1
            while True:
                while i < n and text[i] in ", \t\r\n":
                    i += 1
                if i >= n or text[i] == "]":
                    i += 1
                    break
                if text[i] == '"':
                    j = text.index('"', i + 1)
                    node.append(text[i + 1:j])
                    i = j + 1
                elif text[i].isalpha():
                    node.append(parse_node())
                else:
                    j = i
                    while j < n and text[j] not in ",]":
                        j += 1
                    node.append(float(text[i:j]))
                    i = j
        return node

    return parse_node()


_WKT_PROJECTION_TO_PROJ = {
    "Transverse_Mercator": "tmerc",
    "Lambert_Conformal_Conic_2SP": "lcc",
    "Lambert_Conformal_Conic_1SP": "lcc1sp",
    "Albers_Conic_Equal_Area": "aea",
    "Polar_Stereographic": "stereo_polar",
    "Oblique_Stereographic": "sterea",
    "Lambert_Azimuthal_Equal_Area": "laea",
    "Cylindrical_Equal_Area": "cea",
    "Equirectangular": "eqc",
    "Mercator_1SP": "merc",
    "Krovak": "krovak",
    "Swiss_Oblique_Cylindrical": "somerc",
    "Hotine_Oblique_Mercator_Azimuth_Center": "somerc",
}

_WKT_PARAM_MAP = {
    "central_meridian": "lon0",
    "longitude_of_center": "lon0",
    "latitude_of_origin": "lat0",
    "latitude_of_center": "lat0",
    "standard_parallel_1": "lat1",
    "standard_parallel_2": "lat2",
    "scale_factor": "k0",
    "false_easting": "fe",
    "false_northing": "fn",
    "azimuth": "alpha_c",
    "pseudo_standard_parallel_1": "lat_p",
}


def _somerc_azimuth(kw: dict):
    """Hotine oblique Mercator routes to the Swiss oblique cylindrical
    kernel, which is its 90-degree-azimuth case (CH1903): drop the azimuth
    once checked (the rectified grid angle is never mapped)."""
    az = kw.pop("alpha_c", 90.0)
    if abs(az - 90.0) > 1e-6:
        raise NotImplementedError(
            f"Hotine oblique Mercator with azimuth {az} (only the "
            "90-degree Swiss oblique Mercator case is routed)")


def parse_wkt(text: str) -> CRSDef:
    """Parse OGC WKT1 PROJCS/GEOGCS onto a CRSDef (importFromWkt subset:
    PROJECTION + PARAMETERs + SPHEROID + optional TOWGS84 + UNIT)."""
    root = _wkt_tokenize(text.strip())
    kw_name = root[0].upper()

    def find(node, key):
        for c in node[1:]:
            if isinstance(c, list) and c[0].upper() == key:
                return c
        return None

    if kw_name == "GEOGCS":
        datum = find(root, "DATUM")
        sph = find(datum, "SPHEROID")
        a, rf = float(sph[2]), float(sph[3])
        f = 0.0 if rf == 0 else 1.0 / rf
        tw = find(datum, "TOWGS84")
        towgs84 = None
        if tw is not None:
            vals = tuple(float(v) for v in tw[1:])
            if len(vals) == 3:
                vals += (0.0, 0.0, 0.0, 0.0)
            if any(vals):
                towgs84 = vals
        return CRSDef(family="longlat", kw={}, a=a, f=f, towgs84=towgs84,
                      name=str(root[1]))
    if kw_name != "PROJCS":
        raise NotImplementedError(f"WKT node {root[0]} not supported "
                                  "(PROJCS/GEOGCS only)")
    geog = find(root, "GEOGCS")
    gdef = parse_wkt_node(geog)
    projection = find(root, "PROJECTION")
    proj_name = str(projection[1])
    if proj_name not in _WKT_PROJECTION_TO_PROJ:
        raise NotImplementedError(
            f"WKT PROJECTION {proj_name!r} not routed "
            f"(supported: {sorted(_WKT_PROJECTION_TO_PROJ)})")
    family = _WKT_PROJECTION_TO_PROJ[proj_name]
    kw: dict = {}
    for c in root[1:]:
        if isinstance(c, list) and c[0].upper() == "PARAMETER":
            pname = str(c[1]).lower()
            if pname in _WKT_PARAM_MAP:
                kw[_WKT_PARAM_MAP[pname]] = float(c[2])
    # family-specific normalization
    if family == "stereo_polar":
        lat0 = kw.pop("lat0", 90.0)
        kw.setdefault("lat_ts", abs(lat0))
        kw["north"] = lat0 >= 0.0
        kw.pop("k0", None)
    elif family == "krovak":
        kw["lat_c"] = kw.pop("lat0", 49.5)
        kw["k"] = kw.pop("k0", 0.9999)
        kw.setdefault("lat_p", 78.5)
        kw.setdefault("east_north", True)
    elif family == "somerc":
        _somerc_azimuth(kw)
    elif family in ("merc", "longlat"):
        kw = {}
    elif family == "lcc" and "lat2" not in kw:
        family = "lcc1sp"
    unit = find(root, "UNIT")
    to_meter = float(unit[2]) if unit is not None else 1.0
    return CRSDef(family=family, kw=kw, a=gdef.a, f=gdef.f,
                  towgs84=gdef.towgs84, to_meter=to_meter, name=str(root[1]))


_WKT2_METHOD_TO_PROJ = {
    "Transverse Mercator": "tmerc",
    "Lambert Conic Conformal (2SP)": "lcc",
    "Lambert Conic Conformal (1SP)": "lcc1sp",
    "Albers Equal Area": "aea",
    "Polar Stereographic (variant B)": "stereo_polar",
    "Polar Stereographic (variant A)": "stereo_polar",
    "Oblique Stereographic": "sterea",
    "Lambert Azimuthal Equal Area": "laea",
    "Lambert Cylindrical Equal Area": "cea",
    "Equidistant Cylindrical": "eqc",
    "Popular Visualisation Pseudo Mercator": "merc",
    "Krovak": "krovak",
    "Swiss Oblique Cylindrical": "somerc",
    "Hotine Oblique Mercator (variant B)": "somerc",
}

_WKT2_PARAM_MAP = {
    "longitude of origin": "lon0",
    "longitude of natural origin": "lon0",
    "central meridian": "lon0",
    "latitude of natural origin": "lat0",
    "latitude of origin": "lat0",
    "latitude of false origin": "lat0",
    "longitude of false origin": "lon0",
    "latitude of 1st standard parallel": "lat1",
    "latitude of 2nd standard parallel": "lat2",
    "latitude of standard parallel": "lat_ts",
    "scale factor at natural origin": "k0",
    "false easting": "fe",
    "false northing": "fn",
    "easting at false origin": "fe",
    "northing at false origin": "fn",
    "co-latitude of cone axis": "alpha_c",
    "latitude of pseudo standard parallel": "lat_p",
    "azimuth of initial line": "alpha_c",
    "latitude of projection centre": "lat0",
    "longitude of projection centre": "lon0",
    "scale factor on initial line": "k0",
    "easting at projection centre": "fe",
    "northing at projection centre": "fn",
}


# ABRIDGEDTRANSFORMATION parameter name -> TOWGS84 slot (tx ty tz in metres,
# rx ry rz in arc-seconds, ds in ppm)
_TOWGS84_SLOT = {
    "x-axis translation": 0,
    "y-axis translation": 1,
    "z-axis translation": 2,
    "x-axis rotation": 3,
    "y-axis rotation": 4,
    "z-axis rotation": 5,
    "scale difference": 6,
}
_ARCSEC_RAD = np.pi / (180.0 * 3600.0)


def _abridged_towgs84(params) -> tuple | None:
    """TOWGS84 7-tuple from BOUNDCRS ABRIDGEDTRANSFORMATION ``(name, value,
    unit node or None)`` parameters, read by name in any order.  A unit's
    factor converts to metres / arc-seconds.  ``Scale difference`` comes in
    ppm, or (ISO 19162, PROJ) as the unity ratio 1 + ds * 1e-6: it is read as
    a ratio when its SCALEUNIT is unity (factor 1) or, with no unit, when the
    value lies within 1e-3 of 1."""
    out = [0.0] * 7
    seen = set()
    for name, val, unit in params:
        slot = _TOWGS84_SLOT.get(name)
        if slot is None:
            continue
        factor = float(unit[2]) if unit is not None and len(unit) > 2 else None
        if slot == 6:
            ratio = abs(factor - 1.0) < 1e-12 if factor is not None else abs(val - 1.0) < 1e-3
            val = (val - 1.0) * 1e6 if ratio else val * (factor or 1e-6) * 1e6
        elif factor is not None:
            val = val * factor / (_ARCSEC_RAD if slot >= 3 else 1.0)
        out[slot] = val
        seen.add(slot)
    return tuple(out) if {0, 1, 2} <= seen else None


def parse_wkt2(text: str) -> CRSDef:
    """OGC WKT2 (ISO 19162) PROJCRS/GEOGCRS subset: BASEGEOGCRS datum +
    ELLIPSOID, CONVERSION METHOD + PARAMETERs, axis UNIT/LENGTHUNIT.
    TOWGS84 has no WKT2 carrier; BOUNDCRS ABRIDGEDTRANSFORMATION is
    honored when present."""
    root = _wkt_tokenize(text.strip())

    def find(node, *keys):
        for c in node[1:]:
            if isinstance(c, list) and c[0].upper() in keys:
                return c
        return None

    def find_all(node, *keys):
        return [c for c in node[1:]
                if isinstance(c, list) and c[0].upper() in keys]

    kw_name = root[0].upper()
    towgs84 = None
    if kw_name == "BOUNDCRS":
        src = find(root, "SOURCECRS")
        tr = find(root, "ABRIDGEDTRANSFORMATION")
        if tr is not None:
            towgs84 = _abridged_towgs84(
                [(str(c[1]).lower(), float(c[2]),
                  find(c, "LENGTHUNIT", "ANGLEUNIT", "SCALEUNIT", "UNIT"))
                 for c in find_all(tr, "PARAMETER")])
        root = src[1]
        kw_name = root[0].upper()

    def geog_of(node):
        datum = find(node, "DATUM", "TRF", "ENSEMBLE")
        ell = find(datum, "ELLIPSOID", "SPHEROID")
        a = float(ell[2])
        rf = float(ell[3])
        return a, (0.0 if rf == 0 else 1.0 / rf)

    if kw_name in ("GEOGCRS", "GEOGRAPHICCRS", "GEODCRS"):
        a, f = geog_of(root)
        return CRSDef(family="longlat", kw={}, a=a, f=f, towgs84=towgs84,
                      name=str(root[1]))
    if kw_name != "PROJCRS":
        raise NotImplementedError(f"WKT2 node {root[0]} (PROJCRS/GEOGCRS)")
    base = find(root, "BASEGEOGCRS", "BASEGEODCRS")
    a, f = geog_of(base)
    conv = find(root, "CONVERSION")
    method = find(conv, "METHOD")
    mname = str(method[1])
    if mname not in _WKT2_METHOD_TO_PROJ:
        raise NotImplementedError(
            f"WKT2 method {mname!r} (supported: "
            f"{sorted(_WKT2_METHOD_TO_PROJ)})")
    family = _WKT2_METHOD_TO_PROJ[mname]
    kw: dict = {}
    for p in find_all(conv, "PARAMETER"):
        pname = str(p[1]).lower()
        if pname in _WKT2_PARAM_MAP:
            val = float(p[2])
            unit = find(p, "ANGLEUNIT", "LENGTHUNIT", "SCALEUNIT", "UNIT")
            if unit is not None and len(unit) > 2:
                conv_f = float(unit[2])
                uname = str(unit[1]).lower()
                if "grad" in uname or abs(conv_f - 0.01570796) < 1e-6:
                    val = val * 0.9          # grads -> degrees
                elif abs(conv_f - 1.0) > 1e-9 and "degree" not in uname                         and "metre" not in uname and "unity" not in uname:
                    val = val * conv_f if "LENGTH" in unit[0].upper()                         else val
            kw[_WKT2_PARAM_MAP[pname]] = val
    if family == "stereo_polar":
        lat0 = kw.pop("lat0", 90.0)
        kw.setdefault("lat_ts", abs(kw.pop("lat_ts", lat0)))
        kw["north"] = lat0 >= 0.0
        kw.pop("k0", None)
    elif family == "krovak":
        kw["lat_c"] = kw.pop("lat0", 49.5)
        kw["k"] = kw.pop("k0", 0.9999)
        if "alpha_c" in kw:
            kw["alpha_c"] = kw["alpha_c"]
        kw.setdefault("lat_p", 78.5)
        kw.setdefault("east_north", True)
        kw.pop("lat_ts", None)
    elif family == "somerc":
        _somerc_azimuth(kw)
    elif family in ("merc", "longlat"):
        kw = {}
    elif family == "lcc" and "lat2" not in kw:
        family = "lcc1sp"
    # axis unit: first CS axis LENGTHUNIT conversion factor
    to_meter = 1.0
    cs = find(root, "CS")
    for ax in find_all(root, "AXIS") + (find_all(cs, "AXIS") if cs else []):
        u = find(ax, "LENGTHUNIT", "UNIT")
        if u is not None and len(u) > 2:
            to_meter = float(u[2])
            break
    else:
        u = find(root, "LENGTHUNIT")
        if u is not None and len(u) > 2:
            to_meter = float(u[2])
    return CRSDef(family=family, kw=kw, a=a, f=f, towgs84=towgs84,
                  to_meter=to_meter, name=str(root[1]))


def parse_wkt_node(node) -> CRSDef:
    """GEOGCS sub-node of an already-tokenized WKT tree -> CRSDef."""

    def find(n, key):
        for c in n[1:]:
            if isinstance(c, list) and c[0].upper() == key:
                return c
        return None

    datum = find(node, "DATUM")
    sph = find(datum, "SPHEROID")
    a, rf = float(sph[2]), float(sph[3])
    f = 0.0 if rf == 0 else 1.0 / rf
    tw = find(datum, "TOWGS84")
    towgs84 = None
    if tw is not None:
        vals = tuple(float(v) for v in tw[1:])
        if len(vals) == 3:
            vals += (0.0, 0.0, 0.0, 0.0)
        if any(vals):
            towgs84 = vals
    return CRSDef(family="longlat", kw={}, a=a, f=f, towgs84=towgs84)


# --- resolution + transform chain ------------------------------------------


def resolve_crs(text: str) -> CRSDef:
    """SetFromUserInput analogue: 'EPSG:nnnn' / bare int / '+proj=...' /
    WKT PROJCS/GEOGCS -> CRSDef, or raise NotImplementedError with the
    routed inventory."""
    t = text.strip()
    if t.startswith("+"):
        return parse_proj_string(t)
    if t[:6].upper() in ("PROJCS", "GEOGCS"):
        return parse_wkt(t)
    head = t[:20].upper()
    if head.startswith(("PROJCRS", "GEOGCRS", "GEODCRS", "BOUNDCRS",
                        "GEOGRAPHICCRS")):
        return parse_wkt2(t)
    up = t.upper()
    if up.startswith("EPSG:"):
        up = up[5:]
    if up.isdigit():
        d = epsg_def(int(up))
        if d is not None:
            return d
        raise NotImplementedError(
            f"EPSG:{up} is not in the routed registry — see "
            "gdal_ray.functions.crs (curated EPSG extract + UTM/GK zone "
            "families); pass a +proj= string or WKT for arbitrary CRS")
    if up in ("WGS84", "CRS84", "OGC:CRS84"):
        return epsg_def(4326)
    raise NotImplementedError(f"cannot resolve CRS from {text!r}")


def _family_fns(family: str):
    fns = {
        "tmerc": (_tr.tmerc_forward, _tr.tmerc_inverse),
        "lcc": (_tr.lcc_forward, _tr.lcc_inverse),
        "lcc1sp": (_tr.lcc1sp_forward, _tr.lcc1sp_inverse),
        "somerc": (_tr.somerc_forward, _tr.somerc_inverse),
        "krovak": (_tr.krovak_forward, _tr.krovak_inverse),
        "sterea": (_tr.sterea_forward, _tr.sterea_inverse),
        "aea": (_tr.aea_forward, _tr.aea_inverse),
        "stereo_polar": (_tr.stereo_polar_forward, _tr.stereo_polar_inverse),
        "eqc": (_tr.eqc_forward, _tr.eqc_inverse),
        "laea": (_tr.laea_forward, _tr.laea_inverse),
        "cea": (_tr.cea_forward, _tr.cea_inverse),
    }
    if family == "merc":
        from . import geo as _geo

        return (lambda lon, lat, **_: _geo.lonlat_to_mercator(lon, lat),
                lambda x, y, **_: _geo.mercator_to_lonlat(x, y))
    return fns[family]


def _check_wgs84_only(d: CRSDef):
    if d.family in _WGS84_ONLY_FAMILIES and abs(d.a - _tr.WGS84_A) > 1.0:
        raise NotImplementedError(
            f"family {d.family} is served by WGS84-ellipsoid kernels; "
            f"ellipsoid a={d.a} is not supported for it")


def to_wgs84_lonlat(x, y, d: CRSDef):
    """(x, y) in CRS d -> (lon, lat) on WGS84."""
    if d.is_geographic:
        lon = np.asarray(x, dtype=np.float64)
        lat = np.asarray(y, dtype=np.float64)
    else:
        x = np.asarray(x, dtype=np.float64) * d.to_meter
        y = np.asarray(y, dtype=np.float64) * d.to_meter
        _check_wgs84_only(d)
        fwd, inv = _family_fns(d.family)
        kw = dict(d.kw)
        if d.ellips_param:
            kw.update(a=d.a, f=d.f)
        lon, lat = inv(x, y, **kw)
    if d.towgs84 is not None:
        lon, lat, _h = _tr.datum_shift_lonlat_ell(lon, lat, d.towgs84,
                                                  a=d.a, f=d.f)
    return lon, lat


def from_wgs84_lonlat(lon, lat, d: CRSDef):
    """(lon, lat) on WGS84 -> (x, y) in CRS d."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    if d.towgs84 is not None:
        neg = tuple(-v for v in d.towgs84)
        lon, lat, _h = _tr.datum_shift_lonlat_ell(
            lon, lat, neg, a=_tr.WGS84_A, f=_tr.WGS84_F, a2=d.a, f2=d.f)
    if d.is_geographic:
        return lon, lat
    _check_wgs84_only(d)
    fwd, inv = _family_fns(d.family)
    kw = dict(d.kw)
    if d.ellips_param:
        kw.update(a=d.a, f=d.f)
    x, y = fwd(lon, lat, **kw)
    if d.to_meter != 1.0:
        x, y = x / d.to_meter, y / d.to_meter
    return x, y


def transform(x, y, src: str | CRSDef, dst: str | CRSDef):
    """General point transform src -> dst through WGS84 geographic."""
    s = src if isinstance(src, CRSDef) else resolve_crs(src)
    t = dst if isinstance(dst, CRSDef) else resolve_crs(dst)
    lon, lat = to_wgs84_lonlat(x, y, s)
    return from_wgs84_lonlat(lon, lat, t)
