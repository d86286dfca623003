"""Coordinate transformers beyond the closed-form web-mercator pair.

Re-answers the transformer-chain roles of the reference:

- ``alg/gdaltransformer.cpp`` (GDALCreateGCPTransformer / GDALGCPTransform):
  GCP polynomial transformers of order 1/2/3, least-squares fitted.
- ``alg/thinplatespline.cpp`` (VizGeorefSpline2D): thin-plate-spline GCP
  transformer.
- ``alg/gdal_rpc.cpp`` (RPCEvaluate / GDALRPCTransform): rational polynomial
  camera model, forward + iterative inverse.
- ``ogr/ogrct.cpp``'s projection engine for the sandbox scope: ellipsoidal
  Transverse Mercator (UTM) via the 6th-order Krueger series (Karney 2011,
  "Transverse Mercator with an accuracy of a few nanometers" — public),
  Lambert Conformal Conic 2SP (Snyder, USGS PP 1395), geodetic<->geocentric
  conversion (Bowring closed form) and the 7-parameter Helmert datum shift
  (position-vector convention), replacing PROJ datum pipelines.

Everything is vectorized float64 numpy.  Hyperbolics are decomposed into
exp/log primitives (``_sinh`` et al.) so SQL oracles can mirror the exact
expression tree; fitted transformers (polynomial / TPS / RPC) expose their
coefficients for inlining into oracle SQL as repr'd literals.
"""

from __future__ import annotations

import numpy as np

def sql_float(v: float) -> str:
    """Float as a SQL literal DuckDB parses as DOUBLE (plain decimal literals
    become DECIMAL and overflow in wide products); .17e round-trips exactly."""
    return f"{float(v):.17e}"


# WGS84 (same ellipsoid the reference defaults to; gcore/gdal.h SRS_WGS84)
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)
WGS84_E = float(np.sqrt(WGS84_E2))


# -- exp/log-decomposed hyperbolics (mirrored verbatim by SQL oracles) -------


def _sinh(x):
    return (np.exp(x) - np.exp(-x)) / 2.0


def _cosh(x):
    return (np.exp(x) + np.exp(-x)) / 2.0


def _asinh(x):
    return np.log(x + np.sqrt(x * x + 1.0))


def _atanh(x):
    return 0.5 * np.log((1.0 + x) / (1.0 - x))


# ---------------------------------------------------------------------------
# Transverse Mercator (Krueger series, order n^6) — UTM when k0=0.9996.
# ---------------------------------------------------------------------------


def _tm_constants(a: float = WGS84_A, f: float = WGS84_F):
    """Rectifying radius A and the Krueger alpha/beta series coefficients
    (Karney 2011 eqs. 12, 35, 36) as plain floats for literal inlining."""
    n = f / (2.0 - f)
    n2, n3, n4, n5, n6 = n * n, n**3, n**4, n**5, n**6
    A = a / (1.0 + n) * (1.0 + n2 / 4.0 + n4 / 64.0 + n6 / 256.0)
    alpha = [
        n / 2.0 - 2.0 / 3.0 * n2 + 5.0 / 16.0 * n3 + 41.0 / 180.0 * n4
        - 127.0 / 288.0 * n5 + 7891.0 / 37800.0 * n6,
        13.0 / 48.0 * n2 - 3.0 / 5.0 * n3 + 557.0 / 1440.0 * n4
        + 281.0 / 630.0 * n5 - 1983433.0 / 1935360.0 * n6,
        61.0 / 240.0 * n3 - 103.0 / 140.0 * n4 + 15061.0 / 26880.0 * n5
        + 167603.0 / 181440.0 * n6,
        49561.0 / 161280.0 * n4 - 179.0 / 168.0 * n5 + 6601661.0 / 7257600.0 * n6,
        34729.0 / 80640.0 * n5 - 3418889.0 / 1995840.0 * n6,
        212378941.0 / 319334400.0 * n6,
    ]
    beta = [
        n / 2.0 - 2.0 / 3.0 * n2 + 37.0 / 96.0 * n3 - 1.0 / 360.0 * n4
        - 81.0 / 512.0 * n5 + 96199.0 / 604800.0 * n6,
        1.0 / 48.0 * n2 + 1.0 / 15.0 * n3 - 437.0 / 1440.0 * n4
        + 46.0 / 105.0 * n5 - 1118711.0 / 3870720.0 * n6,
        17.0 / 480.0 * n3 - 37.0 / 840.0 * n4 - 209.0 / 4480.0 * n5
        + 5569.0 / 90720.0 * n6,
        4397.0 / 161280.0 * n4 - 11.0 / 504.0 * n5 - 830251.0 / 7257600.0 * n6,
        4583.0 / 161280.0 * n5 - 108847.0 / 3991680.0 * n6,
        20648693.0 / 638668800.0 * n6,
    ]
    return float(A), [float(v) for v in alpha], [float(v) for v in beta]


def tmerc_natural_origin_northing(lat0: float, k0: float, a: float,
                                  f: float) -> float:
    """k0 * A * xi(lat0): the TM northing of the natural origin from the
    equator (EPSG 9807 handles lat0 != 0 by subtracting this constant)."""
    if lat0 == 0.0:
        return 0.0
    A, alpha, _ = _tm_constants(a, f)
    e = float(np.sqrt(f * (2.0 - f)))
    phi0 = float(np.radians(lat0))
    taup = float(_sinh(_asinh(np.tan(phi0)) - e * _atanh(e * np.sin(phi0))))
    xi_p = float(np.arctan2(taup, 1.0))
    xi = xi_p
    for j in range(6):
        xi += alpha[j] * float(np.sin(2.0 * (j + 1) * xi_p))
    return k0 * A * xi


def tmerc_forward(lon, lat, lon0: float, k0: float = 0.9996,
                  fe: float = 500000.0, fn: float = 0.0,
                  a: float = WGS84_A, f: float = WGS84_F,
                  lat0: float = 0.0):
    """Ellipsoidal TM forward: (lon, lat) degrees -> (easting, northing) m.

    Conformal latitude via tau' = sinh(asinh(tan phi) - e atanh(e sin phi));
    Gauss-Schreiber coordinates (xi', eta'); Krueger series to (xi, eta).
    Keep the expression ORDER identical to the SQL mirror in __ray_entry__.
    """
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    A, alpha, _ = _tm_constants(a, f)
    e = float(np.sqrt(f * (2.0 - f)))
    phi = np.radians(lat)
    lam = np.radians(lon - lon0)
    sphi = np.sin(phi)
    tau = np.tan(phi)
    taup = _sinh(_asinh(tau) - e * _atanh(e * sphi))
    coslam = np.cos(lam)
    xi_p = np.arctan2(taup, coslam)
    eta_p = _asinh(np.sin(lam) / np.sqrt(taup * taup + coslam * coslam))
    xi = xi_p
    eta = eta_p
    for j in range(6):
        two_j = 2.0 * (j + 1)
        xi = xi + alpha[j] * np.sin(two_j * xi_p) * _cosh(two_j * eta_p)
        eta = eta + alpha[j] * np.cos(two_j * xi_p) * _sinh(two_j * eta_p)
    fn_eff = fn - tmerc_natural_origin_northing(lat0, k0, a, f)
    return fe + k0 * A * eta, fn_eff + k0 * A * xi


def tmerc_inverse(E, N, lon0: float, k0: float = 0.9996,
                  fe: float = 500000.0, fn: float = 0.0,
                  a: float = WGS84_A, f: float = WGS84_F,
                  lat0: float = 0.0):
    """TM inverse: Krueger beta series back to Gauss-Schreiber, then Newton
    from conformal tau' to geodetic tau (Karney 2011 sec. 6)."""
    E = np.asarray(E, dtype=np.float64)
    N = np.asarray(N, dtype=np.float64)
    A, _, beta = _tm_constants(a, f)
    e = float(np.sqrt(f * (2.0 - f)))
    fn = fn - tmerc_natural_origin_northing(lat0, k0, a, f)
    xi = (N - fn) / (k0 * A)
    eta = (E - fe) / (k0 * A)
    xi_p = xi
    eta_p = eta
    for j in range(6):
        two_j = 2.0 * (j + 1)
        xi_p = xi_p - beta[j] * np.sin(two_j * xi) * _cosh(two_j * eta)
        eta_p = eta_p - beta[j] * np.cos(two_j * xi) * _sinh(two_j * eta)
    sh = _sinh(eta_p)
    taup = np.sin(xi_p) / np.sqrt(sh * sh + np.cos(xi_p) ** 2)
    lam = np.arctan2(sh, np.cos(xi_p))
    # Newton: find tau with tau'(tau) = taup
    tau = taup.copy()
    e2 = f * (2.0 - f)
    for _ in range(6):
        sig = _sinh(e * _atanh(e * tau / np.sqrt(1.0 + tau * tau)))
        f_tau = tau * np.sqrt(1.0 + sig * sig) - sig * np.sqrt(1.0 + tau * tau)
        dtau = (
            (taup - f_tau)
            * (1.0 + (1.0 - e2) * tau * tau)
            / ((1.0 - e2) * np.sqrt((1.0 + f_tau * f_tau) * (1.0 + tau * tau)))
        )
        tau = tau + dtau
    lat = np.degrees(np.arctan(tau))
    lon = lon0 + np.degrees(lam)
    return lon, lat


def utm_zone_params(zone: int, south: bool = False):
    """UTM zone -> (lon0, k0, false easting, false northing)."""
    if not 1 <= zone <= 60:
        raise ValueError(f"UTM zone {zone} out of range")
    return (zone * 6.0 - 183.0, 0.9996, 500000.0, 10000000.0 if south else 0.0)


# ---------------------------------------------------------------------------
# Lambert Conformal Conic, 2 standard parallels (Snyder PP1395 eq. 15-1..15-11)
# ---------------------------------------------------------------------------


def _lcc_m(phi, e2: float = WGS84_E2):
    return np.cos(phi) / np.sqrt(1.0 - e2 * np.sin(phi) ** 2)


def _lcc_t(phi, e: float = WGS84_E):
    sphi = np.sin(phi)
    return np.tan(np.pi / 4.0 - phi / 2.0) / (
        (1.0 - e * sphi) / (1.0 + e * sphi)
    ) ** (e / 2.0)


def lcc_constants(lat1: float, lat2: float, lat0: float,
                  f: float = WGS84_F):
    """(n, F, rho0-scale t0) for the 2SP Lambert Conformal Conic."""
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    p1, p2, p0 = np.radians([lat1, lat2, lat0])
    m1, m2 = _lcc_m(p1, e2), _lcc_m(p2, e2)
    t1, t2, t0 = _lcc_t(p1, e), _lcc_t(p2, e), _lcc_t(p0, e)
    n = (np.log(m1) - np.log(m2)) / (np.log(t1) - np.log(t2))
    F = m1 / (n * t1**n)
    return float(n), float(F), float(t0)


def lcc_forward(lon, lat, lon0: float, lat1: float, lat2: float, lat0: float,
                fe: float = 0.0, fn: float = 0.0,
                a: float = WGS84_A, f: float = WGS84_F):
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    n, F, t0 = lcc_constants(lat1, lat2, lat0, f)
    e = float(np.sqrt(f * (2.0 - f)))
    t = _lcc_t(np.radians(lat), e)
    rho = a * F * t**n
    rho0 = a * F * t0**n
    theta = n * np.radians(lon - lon0)
    return fe + rho * np.sin(theta), fn + rho0 - rho * np.cos(theta)


def lcc_inverse(E, N, lon0: float, lat1: float, lat2: float, lat0: float,
                fe: float = 0.0, fn: float = 0.0,
                a: float = WGS84_A, f: float = WGS84_F):
    E = np.asarray(E, dtype=np.float64) - fe
    N = np.asarray(N, dtype=np.float64)
    n, F, t0 = lcc_constants(lat1, lat2, lat0, f)
    rho0 = a * F * t0**n
    dN = rho0 - (N - fn)
    rho = np.sign(n) * np.sqrt(E * E + dN * dN)
    theta = np.arctan2(np.sign(n) * E, np.sign(n) * dN)
    t = (rho / (a * F)) ** (1.0 / n)
    # iterate Snyder 7-9 for phi
    e = float(np.sqrt(f * (2.0 - f)))
    phi = np.pi / 2.0 - 2.0 * np.arctan(t)
    for _ in range(8):
        sphi = np.sin(phi)
        phi = np.pi / 2.0 - 2.0 * np.arctan(
            t * ((1.0 - e * sphi) / (1.0 + e * sphi)) ** (e / 2.0)
        )
    return lon0 + np.degrees(theta / n), np.degrees(phi)


def lcc1sp_constants(lat0: float, k0: float, f: float = WGS84_F):
    """(n, F) for the 1SP Lambert Conformal Conic (EPSG method 9801):
    n = sin(lat0), F = k0 * m0 / (n * t0^n)."""
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    p0 = float(np.radians(lat0))
    n = float(np.sin(p0))
    m0 = float(_lcc_m(np.float64(p0), e2))
    t0 = float(_lcc_t(np.float64(p0), e))
    F = k0 * m0 / (n * t0 ** n)
    return n, F, t0


def lcc1sp_forward(lon, lat, lon0: float, lat0: float, k0: float = 1.0,
                   fe: float = 0.0, fn: float = 0.0,
                   a: float = WGS84_A, f: float = WGS84_F):
    """Lambert Conformal Conic 1SP forward (EPSG 9801; the NTF France
    zone grids).  Same cone evaluation as the 2SP path with (n, F) from
    the single standard parallel + scale factor."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    n, F, t0 = lcc1sp_constants(lat0, k0, f)
    e = float(np.sqrt(f * (2.0 - f)))
    t = _lcc_t(np.radians(lat), e)
    rho = a * F * t ** n
    rho0 = a * F * t0 ** n
    theta = n * np.radians(lon - lon0)
    return fe + rho * np.sin(theta), fn + rho0 - rho * np.cos(theta)


def lcc1sp_inverse(E, N, lon0: float, lat0: float, k0: float = 1.0,
                   fe: float = 0.0, fn: float = 0.0,
                   a: float = WGS84_A, f: float = WGS84_F):
    E = np.asarray(E, dtype=np.float64) - fe
    N = np.asarray(N, dtype=np.float64)
    n, F, t0 = lcc1sp_constants(lat0, k0, f)
    rho0 = a * F * t0 ** n
    dN = rho0 - (N - fn)
    rho = np.sign(n) * np.sqrt(E * E + dN * dN)
    theta = np.arctan2(np.sign(n) * E, np.sign(n) * dN)
    t = (rho / (a * F)) ** (1.0 / n)
    e = float(np.sqrt(f * (2.0 - f)))
    phi = np.pi / 2.0 - 2.0 * np.arctan(t)
    for _ in range(8):
        sphi = np.sin(phi)
        phi = np.pi / 2.0 - 2.0 * np.arctan(
            t * ((1.0 - e * sphi) / (1.0 + e * sphi)) ** (e / 2.0)
        )
    return lon0 + np.degrees(theta / n), np.degrees(phi)


# ---------------------------------------------------------------------------
# Polar Stereographic, std-parallel variant (Snyder PP1395 eq. 21-33..21-41;
# EPSG 9829 "Polar Stereographic variant B" — the EPSG:3413 / EPSG:3031 family)
# ---------------------------------------------------------------------------


def stereo_polar_constants(lat_ts: float, north: bool = True):
    """rho(phi) scale factor a*m_c/t_c for the standard-parallel polar
    stereographic (Snyder 21-34): m at the std parallel over t there."""
    sgn = 1.0 if north else -1.0
    pc = np.radians(sgn * lat_ts)
    return float(WGS84_A * _lcc_m(pc) / _lcc_t(pc))


def stereo_polar_forward(lon, lat, lon0: float, lat_ts: float,
                         fe: float = 0.0, fn: float = 0.0, north: bool = True):
    """Ellipsoidal polar stereographic forward, degrees -> meters.

    North: x = fe + rho sin(lam), y = fn - rho cos(lam); south mirrors by
    negating (lat, lam, y-offset) — Snyder 21-30/31 with rho = (a m_c/t_c) t.
    """
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    sgn = 1.0 if north else -1.0
    k = stereo_polar_constants(lat_ts, north)
    t = _lcc_t(np.radians(sgn * lat))
    lam = np.radians(sgn * (lon - lon0))
    rho = k * t
    return fe + sgn * rho * np.sin(lam), fn - sgn * rho * np.cos(lam)


def stereo_polar_inverse(E, N, lon0: float, lat_ts: float,
                         fe: float = 0.0, fn: float = 0.0, north: bool = True):
    """Polar stereographic inverse (Snyder 21-39/40 + iterated 7-9)."""
    sgn = 1.0 if north else -1.0
    x = sgn * (np.asarray(E, dtype=np.float64) - fe)
    y = sgn * (np.asarray(N, dtype=np.float64) - fn)
    k = stereo_polar_constants(lat_ts, north)
    rho = np.sqrt(x * x + y * y)
    t = rho / k
    e = WGS84_E
    phi = np.pi / 2.0 - 2.0 * np.arctan(t)
    for _ in range(8):
        sphi = np.sin(phi)
        phi = np.pi / 2.0 - 2.0 * np.arctan(
            t * ((1.0 - e * sphi) / (1.0 + e * sphi)) ** (e / 2.0)
        )
    lam = np.arctan2(x, -y)
    return lon0 + sgn * np.degrees(lam), sgn * np.degrees(phi)


# ---------------------------------------------------------------------------
# Oblique / equatorial Stereographic on the conformal latitude (Snyder PP1395
# eq. 21-27..21-29 ellipsoidal form; ogr/ogrct.cpp SRS_PT_STEREOGRAPHIC role)
# ---------------------------------------------------------------------------


def _conformal_lat(phi, e: float = WGS84_E):
    """chi(phi): conformal latitude via the same tau' chain the TM uses."""
    tau = np.tan(phi)
    taup = _sinh(_asinh(tau) - e * _atanh(e * np.sin(phi)))
    return np.arctan(taup)


def stereo_oblique_forward(lon, lat, lon0: float, lat0: float, k0: float = 1.0,
                           fe: float = 0.0, fn: float = 0.0,
                           a: float = WGS84_A, f: float = WGS84_F):
    """Ellipsoidal oblique stereographic (Snyder 21-27..21-29): project the
    conformal latitude chi on a sphere centered at (lon0, chi1), scaled by
    m1/cos(chi1) to preserve scale at the origin parallel."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    phi1 = np.radians(lat0)
    chi1 = float(_conformal_lat(np.float64(phi1), e))
    m1 = float(_lcc_m(np.float64(phi1), e2))
    chi = _conformal_lat(np.radians(lat), e)
    lam = np.radians(lon - lon0)
    schi, cchi = np.sin(chi), np.cos(chi)
    s1, c1 = np.sin(chi1), np.cos(chi1)
    A = (2.0 * a * k0 * m1
         / (c1 * (1.0 + s1 * schi + c1 * cchi * np.cos(lam))))
    x = A * cchi * np.sin(lam)
    y = A * (c1 * schi - s1 * cchi * np.cos(lam))
    return fe + x, fn + y


def stereo_oblique_inverse(E, N, lon0: float, lat0: float, k0: float = 1.0,
                           fe: float = 0.0, fn: float = 0.0,
                           a: float = WGS84_A, f: float = WGS84_F):
    """Inverse of the oblique stereographic: spherical inverse to chi
    (Snyder 21-38), then chi -> phi by Newton on tau (Karney's tau chain)."""
    x = np.asarray(E, dtype=np.float64) - fe
    y = np.asarray(N, dtype=np.float64) - fn
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    phi1 = np.radians(lat0)
    chi1 = float(_conformal_lat(np.float64(phi1), e))
    m1 = float(_lcc_m(np.float64(phi1), e2))
    s1, c1 = np.sin(chi1), np.cos(chi1)
    rho = np.sqrt(x * x + y * y)
    # A at the origin = 2 a k0 m1 / (c1 (1 + s1^2 + c1^2)) = a k0 m1 / c1
    Re = 2.0 * a * k0 * m1 / (2.0 * c1)
    c = 2.0 * np.arctan2(rho, 2.0 * Re)
    sc, cc = np.sin(c), np.cos(c)
    safe = np.where(rho == 0.0, 1.0, rho)
    chi = np.where(rho == 0.0, chi1,
                   np.arcsin(np.clip(cc * s1 + y * sc * c1 / safe, -1.0, 1.0)))
    lam = np.arctan2(x * sc, safe * c1 * cc - y * s1 * sc)
    # chi -> phi: Newton on tau with target tau' = tan(chi)
    taup = np.tan(chi)
    tau = taup.copy()
    for _ in range(6):
        sig = _sinh(e * _atanh(e * tau / np.sqrt(1.0 + tau * tau)))
        f_tau = tau * np.sqrt(1.0 + sig * sig) - sig * np.sqrt(1.0 + tau * tau)
        tau = tau + (
            (taup - f_tau)
            * (1.0 + (1.0 - e2) * tau * tau)
            / ((1.0 - e2) * np.sqrt((1.0 + f_tau * f_tau) * (1.0 + tau * tau)))
        )
    return lon0 + np.degrees(lam), np.degrees(np.arctan(tau))


# ---------------------------------------------------------------------------
# Albers Equal-Area Conic, 2SP (Snyder PP1395 eq. 14-1..14-21; the CONUS
# EPSG:5070 family; ogr/ogrct.cpp SRS_PT_ALBERS_CONIC_EQUAL_AREA role)
# ---------------------------------------------------------------------------


def _aea_q(phi):
    """Authalic q (Snyder 3-12)."""
    e = WGS84_E
    sphi = np.sin(phi)
    return (1.0 - WGS84_E2) * (
        sphi / (1.0 - WGS84_E2 * sphi * sphi)
        - (1.0 / (2.0 * e)) * np.log((1.0 - e * sphi) / (1.0 + e * sphi))
    )


def aea_constants(lat1: float, lat2: float, lat0: float):
    """(n, C, rho0) for the 2SP Albers equal-area conic."""
    p1, p2, p0 = np.radians([lat1, lat2, lat0])
    m1, m2 = _lcc_m(p1), _lcc_m(p2)
    q1, q2, q0 = _aea_q(p1), _aea_q(p2), _aea_q(p0)
    n = (m1 * m1 - m2 * m2) / (q2 - q1)
    C = m1 * m1 + n * q1
    rho0 = WGS84_A * np.sqrt(C - n * q0) / n
    return float(n), float(C), float(rho0)


def aea_forward(lon, lat, lon0: float, lat1: float, lat2: float, lat0: float,
                fe: float = 0.0, fn: float = 0.0):
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    n, C, rho0 = aea_constants(lat1, lat2, lat0)
    q = _aea_q(np.radians(lat))
    rho = WGS84_A * np.sqrt(C - n * q) / n
    theta = n * np.radians(lon - lon0)
    return fe + rho * np.sin(theta), fn + rho0 - rho * np.cos(theta)


def aea_inverse(E, N, lon0: float, lat1: float, lat2: float, lat0: float,
                fe: float = 0.0, fn: float = 0.0):
    """Albers inverse: rho/theta back to q, then Newton (Snyder 3-16)."""
    x = np.asarray(E, dtype=np.float64) - fe
    n, C, rho0 = aea_constants(lat1, lat2, lat0)
    dN = rho0 - (np.asarray(N, dtype=np.float64) - fn)
    rho = np.sqrt(x * x + dN * dN)
    theta = np.arctan2(np.sign(n) * x, np.sign(n) * dN)
    q = (C - (rho * n / WGS84_A) ** 2) / n
    e = WGS84_E
    e2 = WGS84_E2
    phi = np.arcsin(np.clip(q / 2.0, -1.0, 1.0))
    for _ in range(10):
        sphi = np.sin(phi)
        one = 1.0 - e2 * sphi * sphi
        phi = phi + (one * one / (2.0 * np.cos(phi))) * (
            q / (1.0 - e2)
            - sphi / one
            + (1.0 / (2.0 * e)) * np.log((1.0 - e * sphi) / (1.0 + e * sphi))
        )
    return lon0 + np.degrees(theta / n), np.degrees(phi)


# ---------------------------------------------------------------------------
# Azimuthal Equidistant, polar aspect (Snyder PP1395 eq. 25-1..25-15: rho is
# the meridian arc from the pole; EPSG 1028-series meridian-arc coefficients)
# ---------------------------------------------------------------------------


def _merid_coeffs():
    """Meridian-arc series coefficients (Snyder 3-21) and the rectifying
    inverse series mu -> phi (Snyder 3-26), as plain floats."""
    e2 = WGS84_E2
    e4, e6 = e2 * e2, e2 * e2 * e2
    c0 = 1.0 - e2 / 4.0 - 3.0 * e4 / 64.0 - 5.0 * e6 / 256.0
    c2 = 3.0 * e2 / 8.0 + 3.0 * e4 / 32.0 + 45.0 * e6 / 1024.0
    c4 = 15.0 * e4 / 256.0 + 45.0 * e6 / 1024.0
    c6 = 35.0 * e6 / 3072.0
    e1 = (1.0 - np.sqrt(1.0 - e2)) / (1.0 + np.sqrt(1.0 - e2))
    d2 = 3.0 * e1 / 2.0 - 27.0 * e1**3 / 32.0
    d4 = 21.0 * e1**2 / 16.0 - 55.0 * e1**4 / 32.0
    d6 = 151.0 * e1**3 / 96.0
    d8 = 1097.0 * e1**4 / 512.0
    return ([float(v) for v in (c0, c2, c4, c6)],
            [float(v) for v in (d2, d4, d6, d8)])


def meridian_arc(phi):
    """M(phi): meridian arc length from the equator (Snyder 3-21)."""
    (c0, c2, c4, c6), _ = _merid_coeffs()
    return WGS84_A * (c0 * phi - c2 * np.sin(2.0 * phi)
                      + c4 * np.sin(4.0 * phi) - c6 * np.sin(6.0 * phi))


def aeqd_polar_forward(lon, lat, lon0: float, fe: float = 0.0, fn: float = 0.0,
                       north: bool = True):
    """Polar azimuthal equidistant: rho = M(pole) - M(phi) (Snyder 25-1/2)."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    sgn = 1.0 if north else -1.0
    Mp = float(meridian_arc(np.float64(np.pi / 2.0)))
    rho = Mp - meridian_arc(np.radians(sgn * lat))
    lam = np.radians(sgn * (lon - lon0))
    return fe + sgn * rho * np.sin(lam), fn - sgn * rho * np.cos(lam)


def aeqd_polar_inverse(E, N, lon0: float, fe: float = 0.0, fn: float = 0.0,
                       north: bool = True):
    """Inverse via the rectifying-latitude series (Snyder 3-26)."""
    sgn = 1.0 if north else -1.0
    x = sgn * (np.asarray(E, dtype=np.float64) - fe)
    y = sgn * (np.asarray(N, dtype=np.float64) - fn)
    (c0, _, _, _), (d2, d4, d6, d8) = _merid_coeffs()
    Mp = float(meridian_arc(np.float64(np.pi / 2.0)))
    rho = np.sqrt(x * x + y * y)
    mu = (Mp - rho) / (WGS84_A * c0)
    phi = (mu + d2 * np.sin(2.0 * mu) + d4 * np.sin(4.0 * mu)
           + d6 * np.sin(6.0 * mu) + d8 * np.sin(8.0 * mu))
    lam = np.arctan2(x, -y)
    return lon0 + sgn * np.degrees(lam), sgn * np.degrees(phi)


# ---------------------------------------------------------------------------
# Sinusoidal (Snyder PP1395 eq. 30-8/30-9, ellipsoidal) and Equidistant
# Cylindrical (EPSG 1028, ellipsoidal: x = a nu1 cos(phi1) lam, y = M(phi))
# — both equal-area/equidistant staples built on the meridian-arc series
# ---------------------------------------------------------------------------


def sinusoidal_forward(lon, lat, lon0: float = 0.0,
                       fe: float = 0.0, fn: float = 0.0):
    """Ellipsoidal sinusoidal (equal-area, MODIS grid family):
    x = a lam cos(phi) / sqrt(1 - e^2 sin^2 phi), y = M(phi)."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    phi = np.radians(lat)
    lam = np.radians(lon - lon0)
    sphi = np.sin(phi)
    x = WGS84_A * lam * np.cos(phi) / np.sqrt(1.0 - WGS84_E2 * sphi * sphi)
    return fe + x, fn + meridian_arc(phi)


def sinusoidal_inverse(E, N, lon0: float = 0.0,
                       fe: float = 0.0, fn: float = 0.0):
    """Inverse via the rectifying-latitude series (Snyder 3-26), then the
    closed-form lam."""
    x = np.asarray(E, dtype=np.float64) - fe
    y = np.asarray(N, dtype=np.float64) - fn
    (c0, _, _, _), (d2, d4, d6, d8) = _merid_coeffs()
    mu = y / (WGS84_A * c0)
    phi = (mu + d2 * np.sin(2.0 * mu) + d4 * np.sin(4.0 * mu)
           + d6 * np.sin(6.0 * mu) + d8 * np.sin(8.0 * mu))
    sphi = np.sin(phi)
    denom = WGS84_A * np.cos(phi) / np.sqrt(1.0 - WGS84_E2 * sphi * sphi)
    lam = np.where(np.abs(denom) > 0, x / np.where(denom == 0, 1.0, denom), 0.0)
    return lon0 + np.degrees(lam), np.degrees(phi)


def eqc_forward(lon, lat, lon0: float = 0.0, lat_ts: float = 0.0,
                fe: float = 0.0, fn: float = 0.0):
    """Equidistant Cylindrical, ellipsoidal (EPSG method 1028; plate carree
    when lat_ts = 0): x = a cos(phi1)/sqrt(1-e^2 sin^2 phi1) * lam,
    y = M(phi) — meridians true to scale."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    p1 = np.radians(lat_ts)
    nu1_cos = float(WGS84_A * _lcc_m(np.float64(p1)))
    lam = np.radians(lon - lon0)
    return fe + nu1_cos * lam, fn + meridian_arc(np.radians(lat))


def eqc_inverse(E, N, lon0: float = 0.0, lat_ts: float = 0.0,
                fe: float = 0.0, fn: float = 0.0):
    x = np.asarray(E, dtype=np.float64) - fe
    y = np.asarray(N, dtype=np.float64) - fn
    p1 = np.radians(lat_ts)
    nu1_cos = float(WGS84_A * _lcc_m(np.float64(p1)))
    (c0, _, _, _), (d2, d4, d6, d8) = _merid_coeffs()
    mu = y / (WGS84_A * c0)
    phi = (mu + d2 * np.sin(2.0 * mu) + d4 * np.sin(4.0 * mu)
           + d6 * np.sin(6.0 * mu) + d8 * np.sin(8.0 * mu))
    return lon0 + np.degrees(x / nu1_cos), np.degrees(phi)


# ---------------------------------------------------------------------------
# Geodetic <-> geocentric + Helmert 7-parameter datum shift
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Lambert Azimuthal Equal-Area + cylindrical equal-area (Snyder PP1395
# eq. 3-11/3-12 authalic latitude, 24-2..24-16 LAEA, 10-1/10-2 CEA;
# reference surface ogr/ogrct.cpp SRS_PT_LAMBERT_AZIMUTHAL_EQUAL_AREA /
# SRS_PT_CYLINDRICAL_EQUAL_AREA).  Covers EPSG:3035, the EASE-Grid 2.0
# family (6931/6932/6933) and the arctic LAEA set (3573-3576).
# ---------------------------------------------------------------------------

_QP = None


def _qp() -> float:
    """q at the pole (total authalic q range)."""
    global _QP
    if _QP is None:
        _QP = float(_aea_q(np.pi / 2.0))
    return _QP


def _authalic_to_geodetic(beta):
    """Authalic -> geodetic latitude series (Snyder 3-18)."""
    e2 = WGS84_E2
    e4 = e2 * e2
    e6 = e4 * e2
    return (beta
            + (e2 / 3.0 + 31.0 * e4 / 180.0 + 517.0 * e6 / 5040.0)
            * np.sin(2.0 * beta)
            + (23.0 * e4 / 360.0 + 251.0 * e6 / 3780.0) * np.sin(4.0 * beta)
            + (761.0 * e6 / 45360.0) * np.sin(6.0 * beta))


def laea_forward(lon, lat, lon0: float, lat0: float,
                 fe: float = 0.0, fn: float = 0.0):
    """Ellipsoidal LAEA forward (Snyder 24-2..24-14; polar aspects 24-23/24).

    Oblique aspect maps onto the authalic sphere of radius Rq = a sqrt(qp/2)
    with D correcting the azimuthal scale at the center; polar aspects use
    rho = a sqrt(qp -+ q)."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    a = WGS84_A
    qp = _qp()
    q = _aea_q(np.radians(lat))
    lam = np.radians(lon - lon0)
    if lat0 >= 90.0 - 1e-12:
        rho = a * np.sqrt(np.maximum(qp - q, 0.0))
        return fe + rho * np.sin(lam), fn - rho * np.cos(lam)
    if lat0 <= -90.0 + 1e-12:
        rho = a * np.sqrt(np.maximum(qp + q, 0.0))
        return fe + rho * np.sin(lam), fn + rho * np.cos(lam)
    p0 = np.radians(lat0)
    beta = np.arcsin(np.clip(q / qp, -1.0, 1.0))
    beta1 = np.arcsin(np.clip(_aea_q(p0) / qp, -1.0, 1.0))
    Rq = a * np.sqrt(qp / 2.0)
    m1 = _lcc_m(p0)
    D = a * m1 / (Rq * np.cos(beta1))
    sb, cb = np.sin(beta), np.cos(beta)
    sb1, cb1 = np.sin(beta1), np.cos(beta1)
    denom = 1.0 + sb1 * sb + cb1 * cb * np.cos(lam)
    B = Rq * np.sqrt(2.0 / denom)
    x = B * D * cb * np.sin(lam)
    y = (B / D) * (cb1 * sb - sb1 * cb * np.cos(lam))
    return fe + x, fn + y


def laea_inverse(E, N, lon0: float, lat0: float,
                 fe: float = 0.0, fn: float = 0.0):
    """Ellipsoidal LAEA inverse (Snyder 24-16..24-21 oblique; 24-31 polar)."""
    x = np.asarray(E, dtype=np.float64) - fe
    y = np.asarray(N, dtype=np.float64) - fn
    a = WGS84_A
    qp = _qp()
    if abs(lat0) >= 90.0 - 1e-12:
        north = lat0 > 0
        rho = np.sqrt(x * x + y * y)
        q = qp - (rho / a) ** 2
        if not north:
            q = -q
        beta = np.arcsin(np.clip(q / qp, -1.0, 1.0))
        lam = np.arctan2(x, -y) if north else np.arctan2(x, y)
        return (lon0 + np.degrees(lam),
                np.degrees(_authalic_to_geodetic(beta)))
    p0 = np.radians(lat0)
    beta1 = np.arcsin(np.clip(_aea_q(p0) / qp, -1.0, 1.0))
    Rq = a * np.sqrt(qp / 2.0)
    m1 = _lcc_m(p0)
    D = a * m1 / (Rq * np.cos(beta1))
    sb1, cb1 = np.sin(beta1), np.cos(beta1)
    rho = np.sqrt((x / D) ** 2 + (D * y) ** 2)
    ce = 2.0 * np.arcsin(np.clip(rho / (2.0 * Rq), -1.0, 1.0))
    sce, cce = np.sin(ce), np.cos(ce)
    with np.errstate(invalid="ignore"):
        beta = np.arcsin(np.clip(
            cce * sb1 + np.where(rho == 0.0, 0.0, D * y * sce * cb1 / rho),
            -1.0, 1.0))
    lam = np.arctan2(x * sce, D * rho * cb1 * cce - D * D * y * sb1 * sce)
    return (lon0 + np.degrees(lam),
            np.degrees(_authalic_to_geodetic(beta)))


def cea_forward(lon, lat, lon0: float = 0.0, lat_ts: float = 0.0,
                fe: float = 0.0, fn: float = 0.0):
    """Ellipsoidal Lambert Cylindrical Equal-Area (Snyder 10-1/10-2):
    x = a k0 lam, y = a q / (2 k0), k0 = m(lat_ts)."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    a = WGS84_A
    k0 = _lcc_m(np.radians(lat_ts))
    q = _aea_q(np.radians(lat))
    return (fe + a * k0 * np.radians(lon - lon0),
            fn + a * q / (2.0 * k0))


def cea_inverse(E, N, lon0: float = 0.0, lat_ts: float = 0.0,
                fe: float = 0.0, fn: float = 0.0):
    x = np.asarray(E, dtype=np.float64) - fe
    y = np.asarray(N, dtype=np.float64) - fn
    a = WGS84_A
    k0 = _lcc_m(np.radians(lat_ts))
    q = 2.0 * y * k0 / a
    beta = np.arcsin(np.clip(q / _qp(), -1.0, 1.0))
    return (lon0 + np.degrees(x / (a * k0)),
            np.degrees(_authalic_to_geodetic(beta)))


# ---------------------------------------------------------------------------
# Swiss Oblique Mercator / Oblique Cylindrical (EPSG method 9814; PROJ
# +proj=somerc; ogr/ogrct.cpp SRS_PT_SWISS_OBLIQUE_CYLINDRICAL role).
# Double projection: ellipsoid -> conformal Gauss sphere -> rotation to the
# pseudo-equator through the projection centre -> spherical Mercator.
# Formulas: swisstopo "Formulas and constants for the calculation of the
# Swiss conformal cylindrical projection" (public).  CH1903/LV03 (EPSG:21781)
# and CH1903+/LV95 (EPSG:2056) use it on the Bessel 1841 ellipsoid.
# ---------------------------------------------------------------------------


def somerc_constants(lat0: float, k0: float, a: float, f: float):
    """(c, R, b0, K): Gauss-sphere exponent, sphere radius, sphere latitude
    of the centre, isometric-latitude offset — all plain floats."""
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    phi0 = float(np.radians(lat0))
    s0 = np.sin(phi0)
    c = float(np.sqrt(1.0 + e2 * np.cos(phi0) ** 4 / (1.0 - e2)))
    R = float(a * k0 * np.sqrt(1.0 - e2) / (1.0 - e2 * s0 * s0))
    b0 = float(np.arcsin(s0 / c))
    K = float(np.log(np.tan(np.pi / 4.0 + b0 / 2.0))
              - c * np.log(np.tan(np.pi / 4.0 + phi0 / 2.0))
              + c * e / 2.0 * np.log((1.0 + e * s0) / (1.0 - e * s0)))
    return c, R, b0, K


def somerc_forward(lon, lat, lon0: float, lat0: float, k0: float = 1.0,
                   fe: float = 0.0, fn: float = 0.0,
                   a: float = WGS84_A, f: float = WGS84_F):
    """Swiss oblique Mercator forward: degrees -> (easting, northing) m."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    c, R, b0, K = somerc_constants(lat0, k0, a, f)
    phi = np.radians(lat)
    sphi = np.sin(phi)
    # ellipsoid -> conformal sphere
    S = c * (np.log(np.tan(np.pi / 4.0 + phi / 2.0))
             - e / 2.0 * np.log((1.0 + e * sphi) / (1.0 - e * sphi))) + K
    b = 2.0 * (np.arctan(np.exp(S)) - np.pi / 4.0)
    l = c * np.radians(lon - lon0)
    # rotate the sphere so the centre lies on the pseudo-equator
    sb, cb = np.sin(b), np.cos(b)
    sl, cl = np.sin(l), np.cos(l)
    sb0, cb0 = np.sin(b0), np.cos(b0)
    bbar = np.arcsin(np.clip(cb0 * sb - sb0 * cb * cl, -1.0, 1.0))
    lbar = np.arctan2(cb * sl, cb0 * cb * cl + sb0 * sb)
    # spherical Mercator on the rotated sphere
    E = fe + R * lbar
    N = fn + R / 2.0 * np.log((1.0 + np.sin(bbar)) / (1.0 - np.sin(bbar)))
    return E, N


def somerc_inverse(E, N, lon0: float, lat0: float, k0: float = 1.0,
                   fe: float = 0.0, fn: float = 0.0,
                   a: float = WGS84_A, f: float = WGS84_F):
    """Swiss oblique Mercator inverse: fixed-point on the isometric
    latitude (swisstopo's published iteration, 8 rounds to < 1e-12 rad)."""
    x = np.asarray(E, dtype=np.float64) - fe
    y = np.asarray(N, dtype=np.float64) - fn
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    c, R, b0, K = somerc_constants(lat0, k0, a, f)
    lbar = x / R
    bbar = 2.0 * (np.arctan(np.exp(y / R)) - np.pi / 4.0)
    sb0, cb0 = np.sin(b0), np.cos(b0)
    sbb, cbb = np.sin(bbar), np.cos(bbar)
    b = np.arcsin(np.clip(cb0 * sbb + sb0 * cbb * np.cos(lbar), -1.0, 1.0))
    l = np.arctan2(cbb * np.sin(lbar), cb0 * cbb * np.cos(lbar) - sb0 * sbb)
    lon = lon0 + np.degrees(l / c)
    # sphere -> ellipsoid: psi = (ln tan(pi/4 + b/2) - K) / c, then iterate
    psi = (np.log(np.tan(np.pi / 4.0 + b / 2.0)) - K) / c
    phi = b.copy()
    for _ in range(8):
        sphi = np.sin(phi)
        phi = 2.0 * np.arctan(np.exp(
            psi + e / 2.0 * np.log((1.0 + e * sphi) / (1.0 - e * sphi)))
        ) - np.pi / 2.0
    return lon, np.degrees(phi)


# ---------------------------------------------------------------------------
# Krovak oblique conformal conic (EPSG method 9819; PROJ +proj=krovak;
# ogr/ogrct.cpp SRS_PT_KROVAK role).  S-JTSK, Czech + Slovak national grid:
# conformal sphere -> oblique cone through the pseudo standard parallel.
# EPSG:5513 (Krovak, southing/westing) and EPSG:5514 (Krovak East North).
# ---------------------------------------------------------------------------


def krovak_constants(lat_c: float, lat_p: float, k: float,
                     a: float, f: float):
    """(A_, B, g0, t0, n, r0) for the Krovak projection: conformal-sphere
    radius, latitude exponent, sphere latitude of centre, isometric offset,
    cone constant, pseudo-parallel radius."""
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    phic = float(np.radians(lat_c))
    sc = np.sin(phic)
    A_ = float(a * np.sqrt(1.0 - e2) / (1.0 - e2 * sc * sc))
    B = float(np.sqrt(1.0 + e2 * np.cos(phic) ** 4 / (1.0 - e2)))
    g0 = float(np.arcsin(sc / B))
    t0 = float(np.tan(np.pi / 4.0 + g0 / 2.0)
               * ((1.0 + e * sc) / (1.0 - e * sc)) ** (e * B / 2.0)
               / np.tan(np.pi / 4.0 + phic / 2.0) ** B)
    n = float(np.sin(np.radians(lat_p)))
    r0 = float(k * A_ / np.tan(np.radians(lat_p)))
    return A_, B, g0, t0, n, r0


def krovak_forward(lon, lat, lon0: float = 24.833333333333332,
                   lat_c: float = 49.5, lat_p: float = 78.5,
                   alpha_c: float = 30.288139722222223, k: float = 0.9999,
                   fe: float = 0.0, fn: float = 0.0,
                   a: float = WGS84_A, f: float = WGS84_F,
                   east_north: bool = True):
    """Krovak forward.  ``east_north=True`` emits the EPSG:5514 axis
    orientation (E = -westing, N = -southing); False emits raw
    (southing X, westing Y) per EPSG:5513."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    A_, B, g0, t0, n, r0 = krovak_constants(lat_c, lat_p, k, a, f)
    ac = np.radians(alpha_c)
    phi = np.radians(lat)
    sphi = np.sin(phi)
    U = 2.0 * (np.arctan(
        t0 * np.tan(np.pi / 4.0 + phi / 2.0) ** B
        / ((1.0 + e * sphi) / (1.0 - e * sphi)) ** (e * B / 2.0)
    ) - np.pi / 4.0)
    V = B * np.radians(lon0 - lon)
    sU, cU = np.sin(U), np.cos(U)
    sV, cV = np.sin(V), np.cos(V)
    T = np.arcsin(np.clip(np.cos(ac) * sU + np.sin(ac) * cU * cV,
                          -1.0, 1.0))
    D = np.arcsin(np.clip(cU * sV / np.cos(T), -1.0, 1.0))
    theta = n * D
    r = (r0 * np.tan(np.pi / 4.0 + np.radians(lat_p) / 2.0) ** n
         / np.tan(np.pi / 4.0 + T / 2.0) ** n)
    Xs = r * np.cos(theta)   # southing
    Yw = r * np.sin(theta)   # westing
    if east_north:
        return fe - Yw, fn - Xs
    return fe + Xs, fn + Yw


def krovak_inverse(E, N, lon0: float = 24.833333333333332,
                   lat_c: float = 49.5, lat_p: float = 78.5,
                   alpha_c: float = 30.288139722222223, k: float = 0.9999,
                   fe: float = 0.0, fn: float = 0.0,
                   a: float = WGS84_A, f: float = WGS84_F,
                   east_north: bool = True):
    """Krovak inverse: cone unroll, sphere rotation back, then fixed-point
    from the conformal-sphere latitude U to geodetic phi (8 rounds)."""
    E = np.asarray(E, dtype=np.float64)
    N = np.asarray(N, dtype=np.float64)
    if east_north:
        Yw, Xs = fe - E, fn - N
    else:
        Xs, Yw = E - fe, N - fn
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    A_, B, g0, t0, n, r0 = krovak_constants(lat_c, lat_p, k, a, f)
    ac = np.radians(alpha_c)
    r = np.sqrt(Xs * Xs + Yw * Yw)
    theta = np.arctan2(Yw, Xs)
    D = theta / n
    T = 2.0 * (np.arctan(
        (r0 / r) ** (1.0 / n) * np.tan(np.pi / 4.0 + np.radians(lat_p) / 2.0)
    ) - np.pi / 4.0)
    U = np.arcsin(np.clip(np.cos(ac) * np.sin(T)
                          - np.sin(ac) * np.cos(T) * np.cos(D), -1.0, 1.0))
    V = np.arcsin(np.clip(np.cos(T) * np.sin(D) / np.cos(U), -1.0, 1.0))
    lon = lon0 - np.degrees(V / B)
    # U -> phi fixed point (EPSG 9819 inverse iteration)
    phi = U.copy()
    for _ in range(8):
        sphi = np.sin(phi)
        phi = 2.0 * (np.arctan(
            t0 ** (-1.0 / B)
            * np.tan(np.pi / 4.0 + U / 2.0) ** (1.0 / B)
            * ((1.0 + e * sphi) / (1.0 - e * sphi)) ** (e / 2.0)
        ) - np.pi / 4.0)
    return lon, np.degrees(phi)


def geodetic_to_geocentric(lon, lat, h=0.0,
                           a: float = WGS84_A, f: float = WGS84_F):
    """(lon, lat, h) -> ECEF (X, Y, Z) on the given ellipsoid."""
    e2 = f * (2.0 - f)
    lon = np.radians(np.asarray(lon, dtype=np.float64))
    lat = np.radians(np.asarray(lat, dtype=np.float64))
    h = np.asarray(h, dtype=np.float64)
    slat = np.sin(lat)
    nu = a / np.sqrt(1.0 - e2 * slat * slat)
    X = (nu + h) * np.cos(lat) * np.cos(lon)
    Y = (nu + h) * np.cos(lat) * np.sin(lon)
    Z = (nu * (1.0 - e2) + h) * slat
    return X, Y, Z


def geocentric_to_geodetic(X, Y, Z, a: float = WGS84_A,
                           f: float = WGS84_F):
    """Bowring's closed-form (one trigonometric step, non-iterative) —
    deterministic and SQL-expressible; accurate to sub-mm for |h| < 10 km."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    e2 = f * (2.0 - f)
    b = a * (1.0 - f)
    ep2 = (a * a - b * b) / (b * b)
    p = np.sqrt(X * X + Y * Y)
    theta = np.arctan2(Z * a, p * b)
    st, ct = np.sin(theta), np.cos(theta)
    phi = np.arctan2(Z + ep2 * b * st * st * st, p - e2 * a * ct * ct * ct)
    lam = np.arctan2(Y, X)
    sphi = np.sin(phi)
    nu = a / np.sqrt(1.0 - e2 * sphi * sphi)
    h = p / np.cos(phi) - nu
    return np.degrees(lam), np.degrees(phi), h


def helmert_shift(X, Y, Z, params):
    """7-parameter Helmert, position-vector convention (EPSG 9606):
    params = (tx, ty, tz, rx, ry, rz, s) with rotations in arc-seconds and
    scale in ppm.  Small-angle linearized rotation, matching PROJ +towgs84."""
    tx, ty, tz, rx, ry, rz, s = params
    asec = np.pi / (180.0 * 3600.0)
    rx, ry, rz = rx * asec, ry * asec, rz * asec
    m = 1.0 + s * 1e-6
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    Xp = tx + m * (X - rz * Y + ry * Z)
    Yp = ty + m * (rz * X + Y - rx * Z)
    Zp = tz + m * (-ry * X + rx * Y + Z)
    return Xp, Yp, Zp


def datum_shift_lonlat(lon, lat, params, h=0.0):
    """Geodetic -> geocentric -> Helmert -> geodetic (the PROJ
    +towgs84 pipeline shape)."""
    X, Y, Z = geodetic_to_geocentric(lon, lat, h)
    Xp, Yp, Zp = helmert_shift(X, Y, Z, params)
    return geocentric_to_geodetic(Xp, Yp, Zp)


# ---------------------------------------------------------------------------
# GCP polynomial transformer (alg/gdaltransformer.cpp GDALGCPTransform role)
# ---------------------------------------------------------------------------

# term exponent tables per order: list of (px, py) with term x**px * y**py.
_POLY_TERMS = {
    1: [(0, 0), (1, 0), (0, 1)],
    2: [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
    3: [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        (3, 0), (2, 1), (1, 2), (0, 3)],
}


def _poly_design(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    return np.stack([x**px * y**py for px, py in _POLY_TERMS[order]], axis=1)


class GCPPolynomialTransformer:
    """Least-squares polynomial GCP transformer, orders 1-3, fit in BOTH
    directions like GDAL's GCP transformer (forward pixel->geo and reverse
    geo->pixel solves are independent fits)."""

    def __init__(self, src_x, src_y, dst_x, dst_y, order: int = 1):
        if order not in _POLY_TERMS:
            raise ValueError("order must be 1, 2 or 3")
        self.order = order
        sx = np.asarray(src_x, dtype=np.float64)
        sy = np.asarray(src_y, dtype=np.float64)
        dx = np.asarray(dst_x, dtype=np.float64)
        dy = np.asarray(dst_y, dtype=np.float64)
        need = len(_POLY_TERMS[order])
        if len(sx) < need:
            raise ValueError(f"order {order} needs >= {need} GCPs, got {len(sx)}")
        A = _poly_design(sx, sy, order)
        self.cx, *_ = np.linalg.lstsq(A, dx, rcond=None)
        self.cy, *_ = np.linalg.lstsq(A, dy, rcond=None)
        B = _poly_design(dx, dy, order)
        self.inv_cx, *_ = np.linalg.lstsq(B, sx, rcond=None)
        self.inv_cy, *_ = np.linalg.lstsq(B, sy, rcond=None)

    @staticmethod
    def _apply(cx, cy, x, y, order):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        # left-to-right accumulation; SQL mirrors this exact term order
        ox = np.zeros_like(x)
        oy = np.zeros_like(x)
        for c_x, c_y, (px, py) in zip(cx, cy, _POLY_TERMS[order]):
            t = x**px * y**py
            ox = ox + c_x * t
            oy = oy + c_y * t
        return ox, oy

    def forward(self, x, y):
        return self._apply(self.cx, self.cy, x, y, self.order)

    def inverse(self, x, y):
        return self._apply(self.inv_cx, self.inv_cy, x, y, self.order)

    def sql_exprs(self, xcol: str, ycol: str) -> tuple[str, str]:
        """SQL expressions mirroring forward() term-by-term (literals via
        repr so the float64 round-trips exactly)."""

        def expr(coefs):
            parts = []
            for c, (px, py) in zip(coefs, _POLY_TERMS[self.order]):
                t = " * ".join([xcol] * px + [ycol] * py) or "1.0"
                parts.append(f"{sql_float(c)} * ({t})")
            return "(" + " + ".join(parts) + ")"

        return expr(self.cx), expr(self.cy)


# ---------------------------------------------------------------------------
# Thin-plate-spline transformer (alg/thinplatespline.cpp VizGeorefSpline2D)
# ---------------------------------------------------------------------------


class TPSTransformer:
    """Thin plate spline: f(p) = a0 + a1 x + a2 y + sum_i w_i U(|p - p_i|),
    U(r) = r^2 ln(r^2); the classic biharmonic interpolant the reference's
    -tps mode solves per control point."""

    def __init__(self, src_x, src_y, dst_x, dst_y):
        sx = np.asarray(src_x, dtype=np.float64)
        sy = np.asarray(src_y, dtype=np.float64)
        n = len(sx)
        if n < 3:
            raise ValueError("TPS needs >= 3 control points")
        d2 = (sx[:, None] - sx[None, :]) ** 2 + (sy[:, None] - sy[None, :]) ** 2
        K = np.where(d2 > 0.0, d2 * np.log(np.where(d2 > 0.0, d2, 1.0)), 0.0)
        P = np.column_stack([np.ones(n), sx, sy])
        L = np.zeros((n + 3, n + 3))
        L[:n, :n] = K
        L[:n, n:] = P
        L[n:, :n] = P.T
        rhs = np.zeros((n + 3, 2))
        rhs[:n, 0] = np.asarray(dst_x, dtype=np.float64)
        rhs[:n, 1] = np.asarray(dst_y, dtype=np.float64)
        sol = np.linalg.solve(L, rhs)
        self.sx, self.sy = sx, sy
        self.wx, self.wy = sol[:n, 0], sol[:n, 1]
        self.ax, self.ay = sol[n:, 0], sol[n:, 1]

    def forward(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        ox = self.ax[0] + self.ax[1] * x + self.ax[2] * y
        oy = self.ay[0] + self.ay[1] * x + self.ay[2] * y
        # accumulate control points left-to-right (SQL mirror order)
        for i in range(len(self.sx)):
            d2 = (x - self.sx[i]) ** 2 + (y - self.sy[i]) ** 2
            u = np.where(d2 > 0.0, d2 * np.log(np.where(d2 > 0.0, d2, 1.0)), 0.0)
            ox = ox + self.wx[i] * u
            oy = oy + self.wy[i] * u
        return ox, oy

    def sql_exprs(self, xcol: str, ycol: str) -> tuple[str, str]:
        def expr(a, w):
            parts = [f"{sql_float(a[0])} + {sql_float(a[1])} * {xcol}"
                     f" + {sql_float(a[2])} * {ycol}"]
            for i in range(len(self.sx)):
                xi, yi = sql_float(self.sx[i]), sql_float(self.sy[i])
                d2 = (f"(({xcol} - {xi}) * ({xcol} - {xi})"
                      f" + ({ycol} - {yi}) * ({ycol} - {yi}))")
                parts.append(
                    f"{sql_float(w[i])} * (CASE WHEN {d2} > 0.0 THEN {d2} * ln({d2}) ELSE 0.0 END)"
                )
            return "(" + " + ".join(parts) + ")"

        return expr(self.ax, self.wx), expr(self.ay, self.wy)


# ---------------------------------------------------------------------------
# RPC transformer (alg/gdal_rpc.cpp RPCEvaluate term order, RPC00B layout)
# ---------------------------------------------------------------------------

# 20-term cubic in (P=lat_n, L=lon_n, H=h_n): the standard RPC00B ordering
# used by RPCEvaluate.
_RPC_TERMS = [
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),      # 1, L, P, H
    (1, 1, 0), (1, 0, 1), (0, 1, 1),                 # LP, LH, PH
    (2, 0, 0), (0, 2, 0), (0, 0, 2),                 # L2, P2, H2
    (1, 1, 1), (3, 0, 0), (1, 2, 0), (1, 0, 2),      # PLH, L3, LP2, LH2
    (2, 1, 0), (0, 3, 0), (0, 1, 2), (2, 0, 1),      # L2P, P3, PH2, L2H
    (0, 2, 1), (0, 0, 3),                            # P2H, H3
]


def _rpc_poly(coefs, L, P, H):
    out = np.zeros_like(L)
    for c, (el, ep, eh) in zip(coefs, _RPC_TERMS):
        out = out + c * (L**el) * (P**ep) * (H**eh)
    return out


class RPCTransformer:
    """Rational polynomial camera model: normalized (lon, lat, h) ->
    normalized (row, col) by ratios of 20-term cubics; inverse by damped
    Newton iteration on the forward model (the reference's approach)."""

    def __init__(self, line_num, line_den, samp_num, samp_den,
                 lon_off=0.0, lon_scale=1.0, lat_off=0.0, lat_scale=1.0,
                 h_off=0.0, h_scale=1.0, line_off=0.0, line_scale=1.0,
                 samp_off=0.0, samp_scale=1.0):
        self.line_num = np.asarray(line_num, dtype=np.float64)
        self.line_den = np.asarray(line_den, dtype=np.float64)
        self.samp_num = np.asarray(samp_num, dtype=np.float64)
        self.samp_den = np.asarray(samp_den, dtype=np.float64)
        for c in (self.line_num, self.line_den, self.samp_num, self.samp_den):
            if len(c) != 20:
                raise ValueError("RPC coefficient vectors must have 20 terms")
        self.offsets = (lon_off, lon_scale, lat_off, lat_scale, h_off, h_scale,
                        line_off, line_scale, samp_off, samp_scale)

    def forward(self, lon, lat, h=0.0):
        (lon_off, lon_s, lat_off, lat_s, h_off, h_s,
         line_off, line_s, samp_off, samp_s) = self.offsets
        L = (np.asarray(lon, dtype=np.float64) - lon_off) / lon_s
        P = (np.asarray(lat, dtype=np.float64) - lat_off) / lat_s
        H = (np.asarray(h, dtype=np.float64) - h_off) / h_s
        if H.ndim == 0:
            H = np.full_like(L, float(H))
        row = _rpc_poly(self.line_num, L, P, H) / _rpc_poly(self.line_den, L, P, H)
        col = _rpc_poly(self.samp_num, L, P, H) / _rpc_poly(self.samp_den, L, P, H)
        return col * samp_s + samp_off, row * line_s + line_off

    def inverse(self, col, row, h=0.0, iters: int = 12):
        """(col, row) -> (lon, lat) at height h by Newton on the forward
        model with numeric Jacobian (gdal_rpc.cpp RPCInverseTransformPoint)."""
        (lon_off, lon_s, lat_off, lat_s, *_rest) = self.offsets
        col = np.asarray(col, dtype=np.float64)
        row = np.asarray(row, dtype=np.float64)
        lon = np.full_like(col, lon_off)
        lat = np.full_like(col, lat_off)
        eps_l = 1e-7 * lon_s
        eps_p = 1e-7 * lat_s
        for _ in range(iters):
            c0, r0 = self.forward(lon, lat, h)
            cl, rl = self.forward(lon + eps_l, lat, h)
            cp, rp = self.forward(lon, lat + eps_p, h)
            j00 = (cl - c0) / eps_l
            j01 = (cp - c0) / eps_p
            j10 = (rl - r0) / eps_l
            j11 = (rp - r0) / eps_p
            det = j00 * j11 - j01 * j10
            det = np.where(np.abs(det) < 1e-300, 1e-300, det)
            dc = col - c0
            dr = row - r0
            lon = lon + (j11 * dc - j01 * dr) / det
            lat = lat + (-j10 * dc + j00 * dr) / det
        return lon, lat

    def sql_exprs(self, loncol: str, latcol: str, h: float) -> tuple[str, str]:
        """(col_expr, row_expr) mirroring forward() with literals inlined."""
        (lon_off, lon_s, lat_off, lat_s, h_off, h_s,
         line_off, line_s, samp_off, samp_s) = self.offsets
        Lx = f"(({loncol} - {sql_float(lon_off)}) / {sql_float(lon_s)})"
        Px = f"(({latcol} - {sql_float(lat_off)}) / {sql_float(lat_s)})"
        Hv = float((h - h_off) / h_s)

        def poly(coefs):
            parts = []
            for c, (el, ep, eh) in zip(coefs, _RPC_TERMS):
                factors = [Lx] * el + [Px] * ep
                t = " * ".join(factors) if factors else "1.0"
                hv = float(Hv**eh)
                parts.append(f"{sql_float(c)} * ({t}) * {sql_float(hv)}")
            return "(" + " + ".join(parts) + ")"

        col = (f"({poly(self.samp_num)} / {poly(self.samp_den)})"
               f" * {sql_float(samp_s)} + {sql_float(samp_off)}")
        row = (f"({poly(self.line_num)} / {poly(self.line_den)})"
               f" * {sql_float(line_s)} + {sql_float(line_off)}")
        return col, row


class GridShiftTransformer:
    """NTv2-style grid-shift datum transform (the PROJ hgridshift role in the
    reference's transformer chain, alg/gdaltransformer.cpp +
    frmts/ntv2 grids): a regular lon/lat grid of (shift_lon, shift_lat)
    values in arc-seconds, bilinearly interpolated; points outside the grid
    clamp to the border cell (PROJ extrapolates the edge cell the same way).
    Inverse is the NTv2 standard fixed-point iteration.

    The grid arrays are small broadcast state (a worker-cached ``__init__``
    load at scale — exactly how PROJ grids ship to workers)."""

    def __init__(self, lon0: float, lat0: float, step: float,
                 shift_lon: np.ndarray, shift_lat: np.ndarray):
        self.lon0 = float(lon0)
        self.lat0 = float(lat0)
        self.step = float(step)
        self.slon = np.asarray(shift_lon, dtype=np.float64)
        self.slat = np.asarray(shift_lat, dtype=np.float64)

    def _interp(self, grid: np.ndarray, lon, lat):
        ny, nx = grid.shape
        fx = (np.asarray(lon, dtype=np.float64) - self.lon0) / self.step
        fy = (np.asarray(lat, dtype=np.float64) - self.lat0) / self.step
        i = np.clip(np.floor(fx).astype(np.int64), 0, nx - 2)
        j = np.clip(np.floor(fy).astype(np.int64), 0, ny - 2)
        tx = np.clip(fx - i, 0.0, 1.0)
        ty = np.clip(fy - j, 0.0, 1.0)
        return (grid[j, i] * (1.0 - tx) * (1.0 - ty)
                + grid[j, i + 1] * tx * (1.0 - ty)
                + grid[j + 1, i] * (1.0 - tx) * ty
                + grid[j + 1, i + 1] * tx * ty)

    def forward(self, lon, lat):
        return (lon + self._interp(self.slon, lon, lat) / 3600.0,
                lat + self._interp(self.slat, lon, lat) / 3600.0)

    def inverse(self, lon, lat, iters: int = 4):
        x = np.asarray(lon, dtype=np.float64).copy()
        y = np.asarray(lat, dtype=np.float64).copy()
        for _ in range(iters):
            x = lon - self._interp(self.slon, x, y) / 3600.0
            y = lat - self._interp(self.slat, x, y) / 3600.0
        return x, y


def demo_shift_grid(lon0: float = -180.0, lat0: float = -90.0,
                    step: float = 10.0, nx: int = 37, ny: int = 19):
    """Deterministic synthetic NTv2 grid (integer node formula, SQL-exact):
    shift_lon(i, j) = ((i*7 + j*3) % 11 - 5) * 0.25 arcsec,
    shift_lat(i, j) = ((i*5 + j*11) % 13 - 6) * 0.125 arcsec
    (dyadic values: exact in float32, so NTv2 .gsb round trips are bitwise)."""
    j, i = np.mgrid[0:ny, 0:nx]
    slon = (((i * 7 + j * 3) % 11) - 5) * 0.25
    slat = (((i * 5 + j * 11) % 13) - 6) * 0.125
    return GridShiftTransformer(lon0, lat0, step, slon, slat)


class MultiGridShiftTransformer:
    """Multi-subgrid NTv2 transform (NUM_FILE > 1, ``frmts/ntv2``): a root
    grid plus denser child subgrids nested inside parent extents.  Point
    lookup selects the DEEPEST subgrid whose node extent contains the point
    (children take precedence over parents, the NTv2/PROJ rule); points
    outside every subgrid fall back to the root grid's edge-clamp behavior,
    matching GridShiftTransformer.

    ``grids`` is a list of (name, parent_name, GridShiftTransformer); the
    root has parent 'NONE'.  Selection is vectorized per subgrid (one
    containment mask + one bilinear pass each) — subgrid count is small,
    point count is not."""

    def __init__(self, grids):
        self.grids = list(grids)
        names = [g[0] for g in self.grids]
        depth = {}

        def _depth(i):
            name, parent, _ = self.grids[i]
            if name in depth:
                return depth[name]
            d = 0 if parent not in names else _depth(names.index(parent)) + 1
            depth[name] = d
            return d

        self.order = sorted(range(len(self.grids)), key=_depth)
        if _depth(self.order[0]) != 0:
            raise ValueError("multi-grid needs a root subgrid (PARENT NONE)")

    def _extent(self, t: GridShiftTransformer):
        ny, nx = t.slon.shape
        return (t.lon0, t.lon0 + t.step * (nx - 1),
                t.lat0, t.lat0 + t.step * (ny - 1))

    def _shift(self, lon, lat):
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        root = self.grids[self.order[0]][2]
        dlon = root._interp(root.slon, lon, lat)
        dlat = root._interp(root.slat, lon, lat)
        for i in self.order[1:]:
            t = self.grids[i][2]
            x0, x1, y0, y1 = self._extent(t)
            m = (lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1)
            if m.any():
                dlon[m] = t._interp(t.slon, lon[m], lat[m])
                dlat[m] = t._interp(t.slat, lon[m], lat[m])
        return dlon, dlat

    def forward(self, lon, lat):
        dlon, dlat = self._shift(lon, lat)
        return (np.asarray(lon, dtype=np.float64) + dlon / 3600.0,
                np.asarray(lat, dtype=np.float64) + dlat / 3600.0)

    def inverse(self, lon, lat, iters: int = 4):
        x = np.asarray(lon, dtype=np.float64).copy()
        y = np.asarray(lat, dtype=np.float64).copy()
        for _ in range(iters):
            dlon, dlat = self._shift(x, y)
            x = lon - dlon / 3600.0
            y = lat - dlat / 3600.0
        return x, y


def demo_child_grid(lon0: float = 0.0, lat0: float = 0.0,
                    step: float = 2.5, nx: int = 17, ny: int = 13):
    """Dense child subgrid for the multi-subgrid demo, nested in the
    [0,40] x [0,30] extent (aligned to the 10-deg parent cells):
    shift_lon(i, j) = ((i*3 + j*5) % 9 - 4) * 0.25 arcsec,
    shift_lat(i, j) = ((i*11 + j*7) % 7 - 3) * 0.125 arcsec (dyadic)."""
    j, i = np.mgrid[0:ny, 0:nx]
    slon = (((i * 3 + j * 5) % 9) - 4) * 0.25
    slat = (((i * 11 + j * 7) % 7) - 3) * 0.125
    return GridShiftTransformer(lon0, lat0, step, slon, slat)


def demo_multi_grid():
    """Root world grid + nested dense child (the SQL-exact multi-subgrid
    fixture)."""
    return MultiGridShiftTransformer([
        ("DEMOGRID", "NONE", demo_shift_grid()),
        ("CHILD0", "DEMOGRID", demo_child_grid()),
    ])


# -- geolocation arrays -------------------------------------------------------


class GeolocTransformer:
    """Geolocation-array transformer (the reference's GEOLOCATION metadata
    domain, ``alg/gdalgeoloc.cpp``): two 2-D arrays give the georeferenced
    (X, Y) of each geolocation-grid node; raster pixel/line coordinates map
    into the grid through (offset, step) scalars (PIXEL_OFFSET/PIXEL_STEP/
    LINE_OFFSET/LINE_STEP).

    forward: bilinear interpolation within the containing grid cell, with
    linear extension beyond the borders from the closest cell — the
    reference's PixelLineToXY contract (gdalgeoloc.cpp:375-384 "assumes
    infinite extension beyond borders ... based on closest grid square").

    inverse: the reference builds a coarse backmap then refines with exact
    inverse bilinear interpolation (gdalgeoloc.cpp:651,967).  Here the seed
    structure is a CSR bin index over quad bounding boxes (built once in
    ``__init__`` — per-worker state at scale, like the CSR cell grid in
    stages/join.py) and refinement solves the quadratic inverse bilinear
    system per candidate quad, derived independently: with corner vectors
    E=P10-P00, F=P01-P00, G=P00-P10-P01+P11 and H=Q-P00, eliminating s from
    sE + tF + stG = H gives  a t^2 + b t + c = 0  with
    a = Fy*Gx - Fx*Gy, b = Hx*Gy - Hy*Gx + Fy*Ex - Fx*Ey,
    c = Hx*Ey - Hy*Ex.

    The geoloc arrays are broadcast state; all query paths are vectorized
    numpy over point batches.
    """

    def __init__(self, geo_x: np.ndarray, geo_y: np.ndarray,
                 pixel_offset: float = 0.0, pixel_step: float = 1.0,
                 line_offset: float = 0.0, line_step: float = 1.0,
                 nbins: int = 0):
        self.gx = np.asarray(geo_x, dtype=np.float64)
        self.gy = np.asarray(geo_y, dtype=np.float64)
        if self.gx.shape != self.gy.shape or self.gx.ndim != 2:
            raise ValueError(f"geoloc arrays must be equal-shape 2-D, got "
                             f"{self.gx.shape} vs {self.gy.shape}")
        if min(self.gx.shape) < 2:
            raise ValueError("geoloc arrays need at least 2x2 nodes")
        self.po, self.ps = float(pixel_offset), float(pixel_step)
        self.lo, self.ls = float(line_offset), float(line_step)
        ny, nx = self.gx.shape
        # quad corner tables, row-major over (ny-1, nx-1) cells
        self._x00 = self.gx[:-1, :-1].ravel()
        self._x10 = self.gx[:-1, 1:].ravel()
        self._x01 = self.gx[1:, :-1].ravel()
        self._x11 = self.gx[1:, 1:].ravel()
        self._y00 = self.gy[:-1, :-1].ravel()
        self._y10 = self.gy[:-1, 1:].ravel()
        self._y01 = self.gy[1:, :-1].ravel()
        self._y11 = self.gy[1:, 1:].ravel()
        xmin = np.minimum.reduce([self._x00, self._x10, self._x01, self._x11])
        xmax = np.maximum.reduce([self._x00, self._x10, self._x01, self._x11])
        ymin = np.minimum.reduce([self._y00, self._y10, self._y01, self._y11])
        ymax = np.maximum.reduce([self._y00, self._y10, self._y01, self._y11])
        self._bx0, self._by0 = float(xmin.min()), float(ymin.min())
        self._bx1, self._by1 = float(xmax.max()), float(ymax.max())
        if nbins <= 0:
            nbins = max(8, int(np.sqrt((nx - 1) * (ny - 1))))
        self._nb = int(nbins)
        self._sx = (self._bx1 - self._bx0) / self._nb or 1.0
        self._sy = (self._by1 - self._by0) / self._nb or 1.0
        # CSR: quad -> covered bins (bbox cover), inverted to bin -> quads
        i0 = np.clip(((xmin - self._bx0) / self._sx).astype(np.int64),
                     0, self._nb - 1)
        i1 = np.clip(((xmax - self._bx0) / self._sx).astype(np.int64),
                     0, self._nb - 1)
        j0 = np.clip(((ymin - self._by0) / self._sy).astype(np.int64),
                     0, self._nb - 1)
        j1 = np.clip(((ymax - self._by0) / self._sy).astype(np.int64),
                     0, self._nb - 1)
        spans = (i1 - i0 + 1) * (j1 - j0 + 1)
        quad_ids = np.repeat(np.arange(spans.size, dtype=np.int64), spans)
        # enumerate covered (bi, bj) per quad without a Python loop
        offs = np.concatenate([[0], np.cumsum(spans)])
        k = np.arange(int(spans.sum()), dtype=np.int64) - offs[quad_ids]
        w = (i1 - i0 + 1)[quad_ids]
        bi = i0[quad_ids] + k % w
        bj = j0[quad_ids] + k // w
        bin_ids = bj * self._nb + bi
        order = np.argsort(bin_ids, kind="stable")
        self._csr_quads = quad_ids[order]
        self._csr_offsets = np.searchsorted(
            bin_ids[order], np.arange(self._nb * self._nb + 1))

    # -- forward ---------------------------------------------------------

    def forward(self, pixel, line):
        """raster pixel/line -> (X, Y), vectorized; the reference's
        bilinear-with-extension contract."""
        gp = (np.asarray(pixel, dtype=np.float64) - self.po) / self.ps
        gl = (np.asarray(line, dtype=np.float64) - self.lo) / self.ls
        ny, nx = self.gx.shape
        i = np.clip(np.floor(gp).astype(np.int64), 0, nx - 2)
        j = np.clip(np.floor(gl).astype(np.int64), 0, ny - 2)
        s = gp - i  # may fall outside [0, 1]: linear extension at borders
        t = gl - j
        w00 = (1 - s) * (1 - t)
        w10 = s * (1 - t)
        w01 = (1 - s) * t
        w11 = s * t
        X = (self.gx[j, i] * w00 + self.gx[j, i + 1] * w10
             + self.gx[j + 1, i] * w01 + self.gx[j + 1, i + 1] * w11)
        Y = (self.gy[j, i] * w00 + self.gy[j, i + 1] * w10
             + self.gy[j + 1, i] * w01 + self.gy[j + 1, i + 1] * w11)
        return X, Y

    # -- inverse ---------------------------------------------------------

    def _solve_quads(self, quads, qx, qy):
        """Exact inverse bilinear over (pair) arrays -> (s, t) in quad
        coords (see class docstring for the derivation)."""
        ex = self._x10[quads] - self._x00[quads]
        ey = self._y10[quads] - self._y00[quads]
        fx = self._x01[quads] - self._x00[quads]
        fy = self._y01[quads] - self._y00[quads]
        gx = (self._x00[quads] - self._x10[quads]
              - self._x01[quads] + self._x11[quads])
        gy = (self._y00[quads] - self._y10[quads]
              - self._y01[quads] + self._y11[quads])
        hx = qx - self._x00[quads]
        hy = qy - self._y00[quads]
        a = fy * gx - fx * gy
        b = hx * gy - hy * gx + fy * ex - fx * ey
        c = hx * ey - hy * ex
        scale = np.abs(a) + np.abs(b) + np.abs(c) + 1e-300
        with np.errstate(invalid="ignore", divide="ignore"):
            lin = np.abs(a) <= 1e-12 * scale
            t_lin = -c / np.where(np.abs(b) > 1e-12 * scale, b, np.nan)
            disc = b * b - 4 * a * c
            sq = np.sqrt(np.maximum(disc, 0.0))
            t1 = (-b + sq) / (2 * a)
            t2 = (-b - sq) / (2 * a)
            pick1 = (t1 >= -1e-9) & (t1 <= 1 + 1e-9)
            t_quad = np.where(pick1, t1, t2)
            t = np.where(lin, t_lin, np.where(disc < 0, np.nan, t_quad))
            den_x = ex + t * gx
            den_y = ey + t * gy
            use_x = np.abs(den_x) >= np.abs(den_y)
            s = np.where(use_x, (hx - t * fx) / den_x, (hy - t * fy) / den_y)
        return s, t

    def inverse(self, X, Y, tol: float = 1e-9):
        """(X, Y) -> raster pixel/line (shape-preserving); NaN for points
        outside every quad (the reference likewise fails points the backmap
        can't seed)."""
        shape = np.asarray(X).shape
        qx = np.asarray(X, dtype=np.float64).ravel()
        qy = np.asarray(Y, dtype=np.float64).ravel()
        n = qx.size
        nx = self.gx.shape[1]
        bi = np.clip(((qx - self._bx0) / self._sx).astype(np.int64),
                     0, self._nb - 1)
        bj = np.clip(((qy - self._by0) / self._sy).astype(np.int64),
                     0, self._nb - 1)
        bins = bj * self._nb + bi
        starts = self._csr_offsets[bins]
        ends = self._csr_offsets[bins + 1]
        counts = ends - starts
        total = int(counts.sum())
        pix = np.full(n, np.nan)
        lin = np.full(n, np.nan)
        if total == 0:
            return pix.reshape(shape), lin.reshape(shape)
        qidx = np.repeat(np.arange(n, dtype=np.int64), counts)
        offs = np.concatenate([[0], np.cumsum(counts)])
        k = np.arange(total, dtype=np.int64) - offs[qidx]
        quads = self._csr_quads[starts[qidx] + k]
        s, t = self._solve_quads(quads, qx[qidx], qy[qidx])
        ok = (s >= -tol) & (s <= 1 + tol) & (t >= -tol) & (t <= 1 + tol)
        ok &= ~(np.isnan(s) | np.isnan(t))
        # first acceptable candidate per query wins (quads tile the plane;
        # shared edges make ties identical up to tol)
        qi = qidx[ok]
        gi = quads[ok] % (nx - 1)
        gj = quads[ok] // (nx - 1)
        gp = gi + np.clip(s[ok], 0.0, 1.0)
        gl = gj + np.clip(t[ok], 0.0, 1.0)
        # keep the first hit per query (stable order)
        first = np.zeros(qi.size, dtype=bool)
        if qi.size:
            first[np.unique(qi, return_index=True)[1]] = True
        pix[qi[first]] = gp[first] * self.ps + self.po
        lin[qi[first]] = gl[first] * self.ls + self.lo
        return pix.reshape(shape), lin.reshape(shape)


def demo_geoloc_arrays(nx: int = 25, ny: int = 17):
    """Deterministic curvilinear geolocation grid (SQL-exact integer-node
    formula, dyadic coefficients — mirrors cleanly in DuckDB):
    X(i, j) = 4*i + j*j / 8,  Y(i, j) = 3*j + i*i / 16 - i / 4."""
    j, i = np.mgrid[0:ny, 0:nx]
    X = 4.0 * i + (j * j) / 8.0
    Y = 3.0 * j + (i * i) / 16.0 - i / 4.0
    return GeolocTransformer(X, Y, pixel_offset=0.5, pixel_step=2.0,
                             line_offset=0.5, line_step=2.0)


def datum_shift_lonlat_ell(lon, lat, params, h=0.0,
                           a: float = WGS84_A, f: float = WGS84_F,
                           a2: float = WGS84_A, f2: float = WGS84_F):
    """Cross-ellipsoid datum shift: geodetic on (a, f) -> geocentric ->
    7-param Helmert -> geodetic on (a2, f2).  The general PROJ +towgs84
    pipeline shape (reference ogr/ogrct.cpp datum path); the WGS84-only
    ``datum_shift_lonlat`` remains for the existing SQL-mirrored query."""
    X, Y, Z = geodetic_to_geocentric(lon, lat, h, a=a, f=f)
    Xp, Yp, Zp = helmert_shift(X, Y, Z, params)
    return geocentric_to_geodetic(Xp, Yp, Zp, a=a2, f=f2)


# ---------------------------------------------------------------------------
# Oblique Stereographic, EPSG method 9809 ("double stereographic": conformal
# Gauss sphere at the origin, then spherical stereographic) — the variant the
# Amersfoort / RD New grid (EPSG:28992) actually uses; differs from Snyder's
# conformal-latitude form (stereo_oblique_*) by ~2 m at RD scale.
# Reference role: ogr/ogrct.cpp SRS_PT_OBLIQUE_STEREOGRAPHIC via PROJ sterea.
# ---------------------------------------------------------------------------


def sterea_constants(lat0: float, k0: float, a: float, f: float):
    """(R, n, c, chi0, lam0-free constants) per EPSG Guidance 7-2 9809."""
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    phi0 = float(np.radians(lat0))
    s0 = np.sin(phi0)
    rho0 = a * (1.0 - e2) / (1.0 - e2 * s0 * s0) ** 1.5
    nu0 = a / np.sqrt(1.0 - e2 * s0 * s0)
    R = float(np.sqrt(rho0 * nu0))
    n = float(np.sqrt(1.0 + e2 * np.cos(phi0) ** 4 / (1.0 - e2)))
    S1 = (1.0 + s0) / (1.0 - s0)
    S2 = (1.0 - e * s0) / (1.0 + e * s0)
    w1 = (S1 * S2 ** e) ** n
    sin_chi00 = (w1 - 1.0) / (w1 + 1.0)
    c = ((n + s0) * (1.0 - sin_chi00)) / ((n - s0) * (1.0 + sin_chi00))
    w2 = c * w1
    chi0 = float(np.arcsin((w2 - 1.0) / (w2 + 1.0)))
    return R, n, float(c), chi0


def sterea_forward(lon, lat, lon0: float, lat0: float, k0: float = 1.0,
                   fe: float = 0.0, fn: float = 0.0,
                   a: float = WGS84_A, f: float = WGS84_F):
    """EPSG 9809 oblique stereographic forward, degrees -> meters."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    R, n, c, chi0 = sterea_constants(lat0, k0, a, f)
    lam0 = np.radians(lon0)
    phi = np.radians(lat)
    lam = np.radians(lon)
    Lam = n * (lam - lam0) + lam0
    sphi = np.sin(phi)
    Sa = (1.0 - e * sphi) / (1.0 + e * sphi)
    w = c * ((1.0 + sphi) / (1.0 - sphi) * Sa ** e) ** n
    chi = np.arcsin(np.clip((w - 1.0) / (w + 1.0), -1.0, 1.0))
    schi0, cchi0 = np.sin(chi0), np.cos(chi0)
    schi, cchi = np.sin(chi), np.cos(chi)
    dl = Lam - lam0
    B = 1.0 + schi * schi0 + cchi * cchi0 * np.cos(dl)
    E = fe + 2.0 * R * k0 * cchi * np.sin(dl) / B
    N = fn + 2.0 * R * k0 * (schi * cchi0 - cchi * schi0 * np.cos(dl)) / B
    return E, N


def sterea_inverse(E, N, lon0: float, lat0: float, k0: float = 1.0,
                   fe: float = 0.0, fn: float = 0.0,
                   a: float = WGS84_A, f: float = WGS84_F):
    """EPSG 9809 inverse: spherical inverse to (chi, Lam), then fixed-point
    from the conformal-sphere latitude back to geodetic phi."""
    x = np.asarray(E, dtype=np.float64) - fe
    y = np.asarray(N, dtype=np.float64) - fn
    e2 = f * (2.0 - f)
    e = float(np.sqrt(e2))
    R, n, c, chi0 = sterea_constants(lat0, k0, a, f)
    lam0 = np.radians(lon0)
    g = 2.0 * R * k0 * np.tan(np.pi / 4.0 - chi0 / 2.0)
    h = 4.0 * R * k0 * np.tan(chi0) + g
    i_ = np.arctan2(x, h + y)
    j = np.arctan2(x, g - y) - i_
    chi = chi0 + 2.0 * np.arctan2(y - x * np.tan(j / 2.0), 2.0 * R * k0)
    Lam = j + 2.0 * i_ + lam0
    lam = (Lam - lam0) / n + lam0
    # chi -> phi: psi = isometric latitude from chi; fixed-point (G7-2)
    psi = 0.5 * np.log((1.0 + np.sin(chi)) / (c * (1.0 - np.sin(chi)))) / n
    phi = 2.0 * np.arctan(np.exp(psi)) - np.pi / 2.0
    for _ in range(8):
        sphi = np.sin(phi)
        psi_i = np.log(np.tan(phi / 2.0 + np.pi / 4.0)
                       * ((1.0 - e * sphi) / (1.0 + e * sphi)) ** (e / 2.0))
        nu_ = a / np.sqrt(1.0 - e2 * sphi * sphi)
        rho_ = a * (1.0 - e2) / (1.0 - e2 * sphi * sphi) ** 1.5
        phi = phi - (psi_i - psi) * np.cos(phi) * (1.0 - e2 * sphi * sphi) \
            / (1.0 - e2)
    return np.degrees(lam), np.degrees(phi)
