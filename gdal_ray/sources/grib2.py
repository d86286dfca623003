"""GRIB2 — dependency-free reader (WMO FM 92 GRIB Edition 2).

From-scratch implementation of the public WMO GRIB2 specification:
message framing ('GRIB'..'7777'), sections 1-7, grid definition template
3.0 (regular lat/lon, with scanning-mode row order), product definition
template 4.0 basics (discipline/category/parameter), data representation
templates 5.0 (simple packing), 5.4 (IEEE float) and 5.41 (PNG packing —
decoded by the in-repo PNG codec), and the section-6 bitmap.  Complex /
JPEG2000 / CCSDS packings raise a clear NotImplementedError.  Reference
driver role: ``frmts/grib/`` (degrib); test parity target
``autotest/gdrivers/grib.py`` fixtures.

Ray-Data shape: the driver scans only the message framing (one seek per
message) and emits a message manifest; workers range-read and unpack
their own messages — a multi-GB NWP file never transits the driver.
"""
from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa


def _u(b: bytes, off: int, n: int) -> int:
    return int.from_bytes(b[off:off + n], "big")


def _s(b: bytes, off: int, n: int) -> int:
    """GRIB signed int: sign-magnitude with the top bit as sign."""
    v = _u(b, off, n)
    top = 1 << (8 * n - 1)
    return -(v & ~top) if v & top else v


def scan_messages(path: str) -> list[dict]:
    """Driver-side manifest: one dict per GRIB message (edition, byte
    range)."""
    out = []
    with open(path, "rb") as f:
        buf = f.read()
    pos = 0
    while True:
        i = buf.find(b"GRIB", pos)
        if i < 0:
            break
        edition = buf[i + 7]
        if edition == 2:
            ln = _u(buf, i + 8, 8)
        elif edition == 1:
            ln = _u(buf, i + 4, 3)
        else:
            pos = i + 4
            continue
        out.append({"offset": i, "nbytes": ln, "edition": edition})
        pos = i + max(ln, 8)
    return out


def _sections(msg: bytes) -> dict[int, bytes]:
    """Section number -> section bytes (incl. length+number header)."""
    out: dict[int, bytes] = {}
    pos = 16
    while pos < len(msg) - 4:
        if msg[pos:pos + 4] == b"7777":
            break
        ln = _u(msg, pos, 4)
        num = msg[pos + 4]
        if num in out:
            # WMO FM 92 lets sections 2-7 repeat, one field per repeat
            raise NotImplementedError(
                f"GRIB2 message repeats section {num} (one field per message only)")
        out[num] = msg[pos:pos + ln]
        pos += ln
    return out


def decode_message(msg: bytes) -> dict:
    """One GRIB2 message -> {'values': 2-D masked float array (np.nan at
    bitmap holes), 'lat0', 'lon0', 'dlat', 'dlon', 'nx', 'ny',
    'discipline', 'category', 'parameter'}."""
    if msg[:4] != b"GRIB":
        raise ValueError("not a GRIB message")
    if msg[7] != 2:
        raise NotImplementedError("GRIB edition 1 (edition 2 only)")
    discipline = msg[6]
    secs = _sections(msg)

    # --- section 3: grid definition ---
    s3 = secs[3]
    gdt = _u(s3, 12, 2)
    # Nx/Ny share octets 31-38 across the lat/lon + projected templates
    # (3.0/3.10/3.12/3.20/3.30/3.31/3.110/3.140 all lead with shape-of-
    # earth then Ni/Nj); only template 3.0's georeferencing is derived
    if gdt in (0, 10, 12, 20, 30, 31, 110, 140):
        nx = _u(s3, 30, 4)
        ny = _u(s3, 34, 4)
    else:
        raise NotImplementedError(
            f"grid definition template 3.{gdt}")
    lat1 = lon1 = lat2 = lon2 = dlat = dlon = float("nan")
    scan = 0x40
    if gdt == 0:
        # angle unit = basic / subdivisions degrees when both are set,
        # else 1e-6 degrees (code table 3.1 note; degrib's rule)
        num, den = _u(s3, 38, 4), _u(s3, 42, 4)
        if {num, den} & {0, 0xFFFFFFFF}:
            num, den = 1, 1e6
        lat1 = _s(s3, 46, 4) * num / den
        lon1 = _s(s3, 50, 4) * num / den
        lat2 = _s(s3, 55, 4) * num / den
        lon2 = _s(s3, 59, 4) * num / den
        dlon = _s(s3, 63, 4) * num / den
        dlat = _s(s3, 67, 4) * num / den
        scan = s3[71]

    # --- section 4: product ---
    s4 = secs[4]
    category = s4[9]
    parameter = s4[10]

    # --- section 5: data representation ---
    s5 = secs[5]
    npoints = _u(s5, 5, 4)
    drt = _u(s5, 9, 2)

    # --- section 6: bitmap ---
    bitmap = None
    if 6 in secs:
        s6 = secs[6]
        ind = s6[5]
        if ind == 0:
            bits = np.unpackbits(
                np.frombuffer(s6[6:], np.uint8))[: nx * ny]
            bitmap = bits.astype(bool)
        elif ind != 255:
            raise NotImplementedError(f"bitmap indicator {ind}")

    # --- section 7: data ---
    s7 = secs[7]
    data = s7[5:]

    if drt == 0:      # simple packing
        R = struct.unpack(">f", s5[11:15])[0]
        E = _s(s5, 15, 2)
        D = _s(s5, 17, 2)
        nbits = s5[19]
        if nbits == 0:
            vals = np.full(npoints, R)
        else:
            bits = np.unpackbits(np.frombuffer(data, np.uint8))
            need = npoints * nbits
            bits = bits[:need].reshape(npoints, nbits)
            weights = (1 << np.arange(nbits - 1, -1, -1)).astype(np.int64)
            X = bits.astype(np.int64) @ weights
            vals = (R + X * (2.0 ** E)) / (10.0 ** D)
    elif drt == 4:    # IEEE floating point
        precision = s5[11]
        dt = {1: ">f4", 2: ">f8"}.get(precision)
        if dt is None:
            raise NotImplementedError(f"IEEE precision {precision}")
        vals = np.frombuffer(data, dtype=dt, count=npoints).astype(
            np.float64)
    elif drt == 41:   # PNG packing
        from . import png as _png

        R = struct.unpack(">f", s5[11:15])[0]
        E = _s(s5, 15, 2)
        D = _s(s5, 17, 2)
        nbits = s5[19]
        if nbits == 0:   # constant field: no PNG stream present
            vals = np.full(npoints, R / (10.0 ** D))
        else:
            arr = _png.decode_png(bytes(data))
            X = np.asarray(arr, np.int64).reshape(-1)[:npoints]
            vals = (R + X * (2.0 ** E)) / (10.0 ** D)
    elif drt in (2, 3):   # complex packing (+ optional spatial diff)
        vals = _unpack_complex(s5, data, npoints, drt)
    else:
        raise NotImplementedError(
            f"data representation template 5.{drt} "
            "(5.0 simple, 5.2/5.3 complex, 5.4 IEEE, 5.41 PNG supported; "
            "JPEG2000/CCSDS need codecs absent here)")

    if bitmap is not None:
        full = np.full(nx * ny, np.nan)
        full[bitmap] = vals[: int(bitmap.sum())]
        vals = full
    grid = vals[: nx * ny].reshape(ny, nx)
    if not scan & 0x40:        # -j: rows stored north->south
        lat0, dlat_signed = lat1, -abs(dlat)
    else:
        lat0, dlat_signed = lat1, abs(dlat)
    lon0, lon_last = lon1, lon2
    if scan & 0x80:            # -i: columns stored east->west; after the
        grid = grid[:, ::-1]   # flip the first column is the westernmost
        lon0, lon_last, dlon = lon2, lon1, abs(dlon)
    return {"values": grid, "nx": nx, "ny": ny,
            "lat0": lat0, "lon0": lon0, "dlat": dlat_signed, "dlon": dlon,
            "lat_last": lat2, "lon_last": lon_last,
            "discipline": discipline, "category": category,
            "parameter": parameter, "template": drt}


def read_grib2(path: str, message: int = 0) -> dict:
    """Eager single-message read (the inspect path)."""
    msgs = scan_messages(path)
    m = msgs[message]
    with open(path, "rb") as f:
        f.seek(m["offset"])
        return decode_message(f.read(m["nbytes"]))


def read_grib2_messages(path: str):
    """All decodable GRIB2 messages as a streaming Dataset: one row per
    message with the unpacked float64 grid + georeferencing."""
    import ray.data as rd

    msgs = [m for m in scan_messages(path) if m["edition"] == 2]
    man = pa.Table.from_pylist([{"idx": i, **m}
                                for i, m in enumerate(msgs)])

    def fetch(t: pa.Table) -> pa.Table:
        rows = []
        with open(path, "rb") as f:
            for i in range(t.num_rows):
                f.seek(t["offset"][i].as_py())
                raw = f.read(t["nbytes"][i].as_py())
                try:
                    d = decode_message(raw)
                except NotImplementedError:
                    continue  # unsupported packing: skipped, not fatal
                rows.append({
                    "msg": t["idx"][i].as_py(),
                    "discipline": d["discipline"],
                    "category": d["category"],
                    "parameter": d["parameter"],
                    "nx": d["nx"], "ny": d["ny"],
                    "lat0": d["lat0"], "lon0": d["lon0"],
                    "dlat": d["dlat"], "dlon": d["dlon"],
                    "data": d["values"].astype(np.float64).tobytes(),
                })
        if not rows:
            return pa.table({"msg": pa.array([], pa.int64())})
        return pa.Table.from_pylist(rows)

    return rd.from_arrow(man).map_batches(fetch, batch_format="pyarrow")


def _bits_reader(data: bytes):
    bits = np.unpackbits(np.frombuffer(data, np.uint8))
    pos = [0]

    def take(n: int, count: int) -> np.ndarray:
        """count unsigned ints of n bits each."""
        if n == 0:
            return np.zeros(count, np.int64)
        end = pos[0] + n * count
        chunk = bits[pos[0]:end].reshape(count, n)
        pos[0] = end
        w = (1 << np.arange(n - 1, -1, -1)).astype(np.int64)
        return chunk.astype(np.int64) @ w

    def skip_to_byte():
        pos[0] = (pos[0] + 7) // 8 * 8

    return take, skip_to_byte


def _unpack_complex(s5: bytes, data: bytes, npoints: int,
                    drt: int) -> np.ndarray:
    """DRS templates 5.2/5.3 (WMO complex packing with optional spatial
    differencing): group reference/width/length streams, per-group packed
    increments, order-1/2 difference reconstruction, missing-value
    management 0/1."""
    R = struct.unpack(">f", s5[11:15])[0]
    E = _s(s5, 15, 2)
    D = _s(s5, 17, 2)
    nbits = s5[19]
    missing_mgmt = s5[22]
    NG = _u(s5, 31, 4)
    gw_ref = s5[35]
    gw_bits = s5[36]
    gl_ref = _u(s5, 37, 4)
    gl_inc = s5[41]
    last_len = _u(s5, 42, 4)
    gl_bits = s5[46]
    order = extra = 0
    if drt == 3:
        order = s5[47]
        extra = s5[48]

    take, skip_to_byte = _bits_reader(data)
    ival = []
    ozmin = 0
    if drt == 3:
        # spatial-differencing header: order initial values + overall min,
        # each in `extra` octets, sign-magnitude
        def sm(v: int, nbytes: int) -> int:
            top = 1 << (8 * nbytes - 1)
            return -(v & ~top) if v & top else v

        for _ in range(order):
            ival.append(sm(int(take(8 * extra, 1)[0]), extra))
        ozmin = sm(int(take(8 * extra, 1)[0]), extra)

    refs = take(nbits, NG)
    skip_to_byte()
    widths = gw_ref + take(gw_bits, NG)
    skip_to_byte()
    lengths = gl_ref + gl_inc * take(gl_bits, NG)
    skip_to_byte()
    lengths[-1] = last_len
    total = int(lengths.sum())

    X = np.empty(total, np.int64)
    missing = np.zeros(total, bool)
    pos = 0
    for g in range(NG):
        L = int(lengths[g])
        w = int(widths[g])
        vals_g = take(w, L)
        if missing_mgmt == 1:
            if w == 0:
                # all-missing group encodes via an all-ones reference
                if nbits and int(refs[g]) == (1 << nbits) - 1:
                    missing[pos:pos + L] = True
                    X[pos:pos + L] = 0
                else:
                    X[pos:pos + L] = refs[g]
            else:
                miss = vals_g == (1 << w) - 1
                missing[pos:pos + L] = miss
                X[pos:pos + L] = np.where(miss, 0, refs[g] + vals_g)
        else:
            X[pos:pos + L] = refs[g] + vals_g
        pos += L

    if drt == 3 and order:
        # add back the overall min difference, then integrate; stored
        # initial values replace the first `order` entries
        good = ~missing
        g_idx = np.nonzero(good)[0]
        d = X[good]
        d = d + ozmin
        if order == 1:
            # first value is stored directly; the rest integrate once
            d = np.concatenate([[ival[0]], ival[0] + np.cumsum(d[1:])])
        else:  # order 2
            first2 = np.array(ival[:2], np.int64)
            rest = d[2:]
            out = np.empty(len(d), np.int64)
            out[:2] = first2
            for i in range(2, len(d)):
                out[i] = rest[i - 2] + 2 * out[i - 1] - out[i - 2]
            d = out
        X = X.astype(np.float64)
        X[g_idx] = d
    else:
        X = X.astype(np.float64)

    vals = (R + X * (2.0 ** E)) / (10.0 ** D)
    vals[missing] = np.nan
    return vals[:npoints]
