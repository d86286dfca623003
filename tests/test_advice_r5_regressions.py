"""Regressions for the round-5 review findings on the GRIB2 reader and the
WKT Hotine oblique Mercator routing.  Synthetic inputs only: no reference
fixture is needed."""
import struct

import numpy as np
import pytest

from gdal_ray.functions import crs
from gdal_ray.sources import grib2


_MISSING = 0xFFFFFFFF


def _grib2_latlon(values: np.ndarray, lat1, lon1, lat2, lon2, dlat, dlon, scan,
                  basic: int = 0, sub: int = 0) -> bytes:
    """One GRIB2 message: grid template 3.0 (angles in basic/sub degrees,
    micro-degrees when either is 0 or missing), IEEE float64 data (template
    5.4), stored in the order the scan mode says."""
    ny, nx = values.shape
    per_degree = 1e6 if {basic, sub} & {0, _MISSING} else sub / basic
    s1 = struct.pack(">IB", 21, 1) + bytes(16)
    s3 = bytearray(72)
    s3[0:5] = struct.pack(">IB", 72, 3)
    s3[12:14] = struct.pack(">H", 0)
    s3[30:38] = struct.pack(">II", nx, ny)
    s3[38:46] = struct.pack(">II", basic, sub)
    for off, deg in ((46, lat1), (50, lon1), (55, lat2), (59, lon2), (63, dlon), (67, dlat)):
        s3[off:off + 4] = struct.pack(">I", round(deg * per_degree))
    s3[71] = scan
    s4 = struct.pack(">IB", 34, 4) + bytes(29)
    s5 = struct.pack(">IBIHB", 12, 5, nx * ny, 4, 2)
    data = values.astype(">f8").tobytes()
    s7 = struct.pack(">IB", 5 + len(data), 7) + data
    body = s1 + bytes(s3) + s4 + s5 + s7 + b"7777"
    return b"GRIB" + bytes(2) + bytes([0, 2]) + struct.pack(">Q", 16 + len(body)) + body


def test_grib2_scan_minus_i_georeferences_the_west_edge():
    """Scan bit 0x80 stores each row east -> west: after the column flip the
    first column is the westernmost point (lon2), stepping east."""
    west_to_east = np.arange(8, dtype=np.float64).reshape(2, 4)
    stored = west_to_east[:, ::-1]
    msg = _grib2_latlon(stored, lat1=10.0, lon1=30.0, lat2=9.0, lon2=27.0,
                        dlat=1.0, dlon=1.0, scan=0x80)
    d = grib2.decode_message(msg)
    np.testing.assert_array_equal(d["values"], west_to_east)
    assert d["lon0"] == 27.0 and d["dlon"] == 1.0 and d["lon_last"] == 30.0
    assert d["lat0"] == 10.0 and d["dlat"] == -1.0
    # default scan (west -> east) is untouched
    d0 = grib2.decode_message(_grib2_latlon(west_to_east, 10.0, 27.0, 9.0, 30.0, 1.0, 1.0, 0x00))
    np.testing.assert_array_equal(d0["values"], west_to_east)
    assert d0["lon0"] == 27.0 and d0["dlon"] == 1.0 and d0["lon_last"] == 30.0


@pytest.mark.parametrize("basic, sub", [(2, 2_000_000), (_MISSING, _MISSING),
                                        (3, 1000)])
def test_grib2_angle_unit_is_basic_over_subdivisions(basic, sub):
    """Template 3.0 angles are in units of basic/sub degrees when both are
    given; a missing (0xFFFFFFFF) pair falls back to micro-degrees."""
    msg = _grib2_latlon(np.arange(8.0).reshape(2, 4), 10.5, 27.0, 9.0, 31.5,
                        1.5, 1.5, 0x00, basic=basic, sub=sub)
    d = grib2.decode_message(msg)
    assert (d["lat0"], d["lon0"], d["dlon"], d["lon_last"]) == \
        (10.5, 27.0, 1.5, 31.5)
    assert d["dlat"] == -1.5


_CH1903_GEOGCS = (
    'GEOGCS["CH1903",DATUM["CH1903",'
    'SPHEROID["Bessel 1841",6377397.155,299.1528128,AUTHORITY["EPSG","7004"]],'
    'TOWGS84[674.374,15.056,405.346,0,0,0,0],AUTHORITY["EPSG","6149"]],'
    'PRIMEM["Greenwich",0,AUTHORITY["EPSG","8901"]],'
    'UNIT["degree",0.0174532925199433,AUTHORITY["EPSG","9122"]],'
    'AUTHORITY["EPSG","4149"]]')


def _lv03_wkt1(azimuth: float = 90.0) -> str:
    return (
        f'PROJCS["CH1903 / LV03",{_CH1903_GEOGCS},'
        'PROJECTION["Hotine_Oblique_Mercator_Azimuth_Center"],'
        'PARAMETER["latitude_of_center",46.95240555555556],'
        'PARAMETER["longitude_of_center",7.439583333333333],'
        f'PARAMETER["azimuth",{azimuth}],'
        'PARAMETER["rectified_grid_angle",90],'
        'PARAMETER["scale_factor",1],'
        'PARAMETER["false_easting",600000],'
        'PARAMETER["false_northing",200000],'
        'UNIT["metre",1,AUTHORITY["EPSG","9001"]],'
        'AXIS["Y",EAST],AXIS["X",NORTH],AUTHORITY["EPSG","21781"]]')


_LV03_WKT2 = (
    'PROJCRS["CH1903 / LV03",BASEGEOGCRS["CH1903",DATUM["CH1903",'
    'ELLIPSOID["Bessel 1841",6377397.155,299.1528128,LENGTHUNIT["metre",1]]],'
    'PRIMEM["Greenwich",0,ANGLEUNIT["degree",0.0174532925199433]]],'
    'CONVERSION["Swiss Oblique Mercator 1903M",'
    'METHOD["Hotine Oblique Mercator (variant B)",ID["EPSG",9815]],'
    'PARAMETER["Latitude of projection centre",46.9524055555556,'
    'ANGLEUNIT["degree",0.0174532925199433]],'
    'PARAMETER["Longitude of projection centre",7.43958333333333,'
    'ANGLEUNIT["degree",0.0174532925199433]],'
    'PARAMETER["Azimuth of initial line",90,ANGLEUNIT["degree",0.0174532925199433]],'
    'PARAMETER["Angle from Rectified to Skew Grid",90,'
    'ANGLEUNIT["degree",0.0174532925199433]],'
    'PARAMETER["Scale factor on initial line",1,SCALEUNIT["unity",1]],'
    'PARAMETER["Easting at projection centre",600000,LENGTHUNIT["metre",1]],'
    'PARAMETER["Northing at projection centre",200000,LENGTHUNIT["metre",1]]],'
    'CS[Cartesian,2],AXIS["easting (Y)",east,ORDER[1],LENGTHUNIT["metre",1]],'
    'AXIS["northing (X)",north,ORDER[2],LENGTHUNIT["metre",1]]]')

# swisstopo worked example (also in test_crs.py): CH1903 geographic
# 47d03'28.95659233"N 8d29'11.11127154"E -> LV03 E 679520.05 N 212273.44
_PHI = 47 + 3 / 60 + 28.95659233 / 3600
_LAM = 8 + 29 / 60 + 11.11127154 / 3600


def test_wkt1_hotine_ch1903_lv03_transforms():
    d = crs.resolve_crs(_lv03_wkt1())
    assert d.family == "somerc" and "alpha_c" not in d.kw
    E, N = crs.transform(np.array([_LAM]), np.array([_PHI]), _CH1903_GEOGCS, _lv03_wkt1())
    assert abs(E[0] - 679520.05) < 0.01 and abs(N[0] - 212273.44) < 0.01
    # same CRS as the registry entry
    r = crs.epsg_def(21781)
    x, y = crs.from_wgs84_lonlat(np.array([8.0]), np.array([46.5]), d)
    xr, yr = crs.from_wgs84_lonlat(np.array([8.0]), np.array([46.5]), r)
    assert abs(x[0] - xr[0]) < 1e-6 and abs(y[0] - yr[0]) < 1e-6


def test_wkt2_hotine_variant_b_ch1903_lv03_transforms():
    d = crs.resolve_crs(_LV03_WKT2)
    assert d.family == "somerc" and "alpha_c" not in d.kw
    # no TOWGS84 carrier: the input is taken on the CRS's own ellipsoid
    E, N = crs.from_wgs84_lonlat(np.array([_LAM]), np.array([_PHI]), d)
    assert abs(E[0] - 679520.05) < 0.01 and abs(N[0] - 212273.44) < 0.01


def test_hotine_other_azimuth_is_not_routed():
    with pytest.raises(NotImplementedError, match="azimuth"):
        crs.resolve_crs(_lv03_wkt1(azimuth=45.0))
    with pytest.raises(NotImplementedError, match="azimuth"):
        crs.resolve_crs(_LV03_WKT2.replace('"Azimuth of initial line",90', '"Azimuth of initial line",33'))


def test_grib2_repeated_section_is_refused():
    """A message carrying two fields repeats sections 4-7; decoding only the
    last one silently is refused."""
    one = _grib2_latlon(np.arange(8.0).reshape(2, 4), 10.0, 27.0, 9.0, 30.0, 1.0, 1.0, 0x00)
    body = one[16:-4]
    s3_end = 16 + 21 + 72
    # fields share sections 1 and 3 and repeat 4-7
    two = body + one[s3_end:-4]
    msg = b"GRIB" + bytes(2) + bytes([0, 2]) + struct.pack(">Q", 16 + len(two) + 4) + two + b"7777"
    assert grib2.decode_message(one)["nx"] == 4
    with pytest.raises(NotImplementedError, match="repeats section 4"):
        grib2.decode_message(msg)


_OSGB36_BNG = (
    'PROJCRS["OSGB36 / British National Grid",BASEGEOGCRS["OSGB36",'
    'DATUM["Ordnance Survey of Great Britain 1936",ELLIPSOID["Airy 1830",'
    '6377563.396,299.3249646,LENGTHUNIT["metre",1]]],PRIMEM["Greenwich",0]],'
    'CONVERSION["British National Grid",METHOD["Transverse Mercator"],'
    'PARAMETER["Latitude of natural origin",49,ANGLEUNIT["degree",0.0174532925199433]],'
    'PARAMETER["Longitude of natural origin",-2,ANGLEUNIT["degree",0.0174532925199433]],'
    'PARAMETER["Scale factor at natural origin",0.9996012717,SCALEUNIT["unity",1]],'
    'PARAMETER["False easting",400000,LENGTHUNIT["metre",1]],'
    'PARAMETER["False northing",-100000,LENGTHUNIT["metre",1]]],'
    'CS[Cartesian,2],AXIS["(E)",east,ORDER[1],LENGTHUNIT["metre",1]],'
    'AXIS["(N)",north,ORDER[2],LENGTHUNIT["metre",1]]]')


def _boundcrs(params: list) -> str:
    return ('BOUNDCRS[SOURCECRS[' + _OSGB36_BNG + '],TARGETCRS[GEOGCRS["WGS 84",'
            'DATUM["WGS84",ELLIPSOID["WGS 84",6378137,298.257223563]],'
            'CS[ellipsoidal,2],AXIS["latitude",north],AXIS["longitude",east]]],'
            'ABRIDGEDTRANSFORMATION["OSGB36 to WGS 84",'
            'METHOD["Position Vector transformation"],' + ",".join(params) + ']]')


_OSGB36_TOWGS84 = (446.448, -125.157, 542.06, 0.1502, 0.247, 0.8421, 4.0812)


def test_wkt2_boundcrs_scale_difference_as_unity_ratio_in_any_order():
    """ISO 19162 writes 'Scale difference' as the ratio 1 + ds * 1e-6 (the
    reference value 1.0000040812 is 4.0812 ppm); parameters are matched by
    name, not by position."""
    p = {
        "tz": 'PARAMETER["Z-axis translation",542.06,LENGTHUNIT["metre",1]]',
        "ds": 'PARAMETER["Scale difference",1.0000040812{}]',
        "ry": 'PARAMETER["Y-axis rotation",0.247,ANGLEUNIT["arc-second",4.84813681109536E-06]]',
        "tx": 'PARAMETER["X-axis translation",446.448,LENGTHUNIT["metre",1]]',
        "rz": 'PARAMETER["Z-axis rotation",0.8421]',
        "ty": 'PARAMETER["Y-axis translation",-125.157]',
        "rx": 'PARAMETER["X-axis rotation",0.1502]',
    }
    ppm_form = dict(
        p, ds='PARAMETER["Scale difference",4.0812,SCALEUNIT["parts per million",1E-06]]')
    for unit in ("", ',SCALEUNIT["unity",1]'):
        shuffled = dict(p, ds=p["ds"].format(unit))
        d = crs.resolve_crs(_boundcrs(list(shuffled.values())))
        np.testing.assert_allclose(d.towgs84, _OSGB36_TOWGS84, rtol=0, atol=1e-9)
    d_ppm = crs.resolve_crs(_boundcrs(list(ppm_form.values())))
    np.testing.assert_allclose(d_ppm.towgs84, _OSGB36_TOWGS84, rtol=0, atol=1e-9)
    # the ratio form transforms exactly as the ppm form does
    lon, lat = np.array([-1.0]), np.array([52.0])
    xa, ya = crs.from_wgs84_lonlat(lon, lat, d)
    xb, yb = crs.from_wgs84_lonlat(lon, lat, d_ppm)
    assert abs(xa[0] - xb[0]) < 1e-6 and abs(ya[0] - yb[0]) < 1e-6
