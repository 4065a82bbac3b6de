"""Bayesian inference engine for a binary change-risk.

A latent outcome b in {1, 0} (change / status quo) drives a data stream whose
log likelihood-ratio l_t is a Gaussian process: over any interval the
increment has drift +/- sigma_l^2/2 (sign set by b) and variance sigma_l^2 dt.
Beliefs follow by multiplying prior odds with exp(l_t).

Everything here simulates l_t with exact Gaussian increments and derives the
belief pointwise; no Euler stepping of the belief SDE is ever used, so the
odds identity O(pi_t) = O(pi_0) * exp(l_t) holds to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Log-odds are clipped here before exponentiation; beliefs saturate smoothly
# to the interval endpoints instead of overflowing.
LOGLR_SATURATION = 700.0

# Rows formatted per file write in write_csv: the formatted text and the
# formatter's arrays held in memory take about 0.2 MB per column, whatever
# the row count.
CSV_BLOCK = 1024

# _format_17g certifies |x| in [_FAST_MIN, _FAST_MAX]: there every product
# of its double-double stays clear of overflow and of subnormals.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -266, 299  # the powers of ten that the scaling can use
# A rounding is certified when the scaled value lies further than this from
# a half-integer: far above the error of its fraction, a few units in the
# last place of a double below 32, so under 2**-46.
_TIE_MARGIN = 2.0**-30
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter of a 53-bit double into 26-bit halves
_PLACE_OFFSET = np.array([[0], [10_000], [20_000], [30_000]], np.uint32)  # per digit group
_WORD_OFFSET = np.array([[16], [8], [0]])  # the digit words start at digits 0, 8 and 16
# The slots of one formatted float, in text order; see _format_17g.
_FIELD = np.dtype({
    "names": ["sign", "lead", "int", "int2", "point", "frac", "frac2", "exp"],
    "formats": ["u1", "S5", ("<u8", 2), "u1", "u1", ("<u8", 2), "u1", "S5"],
    "offsets": [0, 1, 6, 22, 23, 24, 40, 41],
    "itemsize": 46,
})


class InputError(ValueError):
    """Raised for invalid operation inputs (non-finite, out of range).

    fields names the parameters at fault, where known: fields of the object
    that raised, or dotted paths to fields of its parts ("inference.t_max"
    on a MarketConfig), so that a caller that read them from a config can
    name their lines.
    """

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def write_csv(path, header, columns, append=False) -> None:
    """Write columns as CSV rows: the one format of every artifact.

    Each column is a 1-d array or sequence (through np.asarray, so pass
    integers beyond int64 as a uint64 or object array), or a scalar repeated
    on every row. A float column prints as f"{x:.17g}", which parses back to
    the same double: a numpy kernel (_format_17g) writes those exact bytes,
    and Python's own formatter takes the few values whose rounding the kernel
    cannot certify. A bytes (numpy "S") column is written verbatim: each
    value's bytes, without the NUL padding of its dtype. So text_17g(x), made
    once, writes the same bytes as x each time it is passed. Any other value
    prints as str, in UTF-8. No field is quoted, so values must not contain
    commas, quotes, line breaks or NUL bytes. With append=True the rows are
    added to the file without the header. Formatting works on CSV_BLOCK rows
    at a time.
    """
    cols = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in cols if c.ndim}
    if len(lengths) != 1:
        raise InputError("write_csv needs array columns of one length")
    (n,) = lengths
    # a scalar's text is made once and repeated on every row
    scalars = {j: _csv_fields(c.reshape(1)) for j, c in enumerate(cols) if not c.ndim}
    scalars = {j: np.broadcast_to(f, (CSV_BLOCK, f.shape[1])) for j, f in scalars.items()}
    with open(path, "ab" if append else "wb") as fh:
        if not append:
            fh.write((",".join(header) + "\n").encode())
        for lo in range(0, n, CSV_BLOCK):
            block = [c[lo : lo + CSV_BLOCK] if c.ndim else None for c in cols]
            fh.write(_csv_block(block, scalars))


def _csv_block(block: list, scalars: dict) -> bytes:
    """The CSV text of one block of rows; block holds each array column's
    slice, and scalars the repeated text of the other columns."""
    m = next(len(c) for c in block if c is not None)
    floats = [j for j, c in enumerate(block) if c is not None and c.dtype.kind == "f"]
    if floats:  # one kernel call formats the floats of every column
        text = _format_17g(np.concatenate([block[j] for j in floats], dtype=np.float64))
    parts = []
    for j, c in enumerate(block):
        if j in scalars:
            parts.append(scalars[j][:m])
        elif j in floats:
            k = floats.index(j) * m
            parts.append(text[k : k + m])
        else:
            parts.append(_csv_fields(c))
        parts.append(np.full((m, 1), ord(","), np.uint8))
    parts[-1] = np.full((m, 1), ord("\n"), np.uint8)
    # the fields hold their text with NUL bytes between: drop them all
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _csv_fields(c: np.ndarray) -> np.ndarray:
    """The text of each value of the 1-d array c: a (len(c), width) uint8
    array whose rows hold the bytes in order, with NUL bytes between."""
    if c.dtype.kind == "f":
        return _format_17g(c.astype(np.float64))
    if c.dtype == np.int8:
        text = _format_tables()["int8"].take(c.view(np.uint8))
    elif c.dtype.kind == "S":
        text = np.ascontiguousarray(c)
    elif c.dtype.kind in "biu":
        text = c.astype("S")
    else:
        text = np.array([str(v).encode() for v in c.tolist()], "S")
    return text.view(np.uint8).reshape(len(c), text.itemsize)


@functools.cache
def _format_tables() -> dict:
    """The read-only tables of _format_17g, built on its first call.

    pow10: row k - _K_MIN is (hi, lo, head, tail) for 10**k. hi is the
    double nearest 10**k, lo the double nearest 10**k - hi, and head + tail
    = hi is hi's Veltkamp split. Python's int-to-float conversion and int
    true division round correctly, so every entry is exact to the last bit.
    digits4: the four ASCII digits of j as a little-endian uint64. place:
    entry 10_000 * i + j is 4 * i plus the 1-based place of the last nonzero
    digit of j, or 0 for j = 0. keep: entry j + 16 keeps the first j bytes
    of a little-endian uint64 (none for j <= 0, all for j >= 8). For each E
    in [-300, 300], before: the digits before the point, and entry
    2 * (E + 300) + negative of template: the sign, "0." and zeros below 1,
    the point and the exponent of .17g's text. int8: entry i is the text of
    the int8 whose bit pattern is i, for _csv_fields.
    """
    pow10 = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        n, d = hi.as_integer_ratio()
        c = hi * _SPLIT
        head = c - (c - hi)
        pow10.append((hi, (num * d - n * den) / (den * d), head, hi - head))
    # the four digits of j from the two-digit halves j // 100 and j % 100
    pairs = [b"%02d" % i for i in range(100)]
    j = np.arange(10_000)
    high, low = j // 100, j % 100
    two = np.frombuffer(b"".join(pairs), "<u2").astype(np.int64)
    place2 = np.array([len(p.rstrip(b"0")) for p in pairs])
    place4 = np.where(low > 0, place2.take(low) + 2, place2.take(high))
    template = []
    for e in range(-300, 301):
        fixed = -4 <= e < 17
        lead = b"0." + b"0" * (-1 - e) if fixed and e < 0 else b""
        exp = b"" if fixed else b"e%+03d" % e
        text = (lead.ljust(5, b"\0") + bytes(17) + (b"\0" if lead else b".") + bytes(17)
                + exp.ljust(5, b"\0"))
        template += [b"\0" + text, b"-" + text]
    # small Python lists and the kernel's own int64 operations build them:
    # throwaway objects and numpy loops used nowhere else stay resident
    tables = {
        "pow10": np.array(pow10),
        "digits4": (two.take(high) | two.take(low) << 16).astype(np.uint64),
        "place": np.concatenate([np.where(place4 > 0, place4 + 4 * i, 0) for i in range(4)]
                                ).astype(np.uint8),
        "keep": np.array([2 ** (8 * min(max(i, 0), 8)) - 1 for i in range(-16, 24)], np.uint64),
        "before": np.array([max(e + 1, 0) if -4 <= e < 17 else 1 for e in range(-300, 301)]),
        "template": np.frombuffer(b"".join(template), _FIELD),
        "int8": np.array([b"%d" % v for v in [*range(128), *range(-128, 0)]], "S4"),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as a double-double s + t with |t| <= ulp(s) / 2.

    Dekker's two-product gives a * hi exactly as p plus its error (numpy has
    no fused multiply-add); the term a * lo adds 10**k's remainder.
    """
    hi, lo, head, tail = _format_tables()["pow10"].take(k - _K_MIN, axis=0).T
    p = a * hi
    a_head = a * _SPLIT
    a_head -= a_head - a
    a_tail = a - a_head
    # in place, in the order ((a_head*head - p) + a_head*tail + a_tail*head) + a_tail*tail + a*lo
    t = a_head * head
    t -= p
    t += a_head * tail
    t += a_tail * head
    t += a_tail * tail
    t += a * lo
    s = p + t
    t -= s - p
    return s, t


def _round17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, E, sure): |x| rounded to n * 10**(E - 16) with 10**16 <= n < 10**17,
    and whether the kernel certifies that rounding; see _format_17g."""
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # false for nan
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, 16 - e)
    # floor(log10 a) can be one off next to a power of ten, and the rounding
    # can carry to 10**17: both leave s at an end of [1e16, 1e17]
    edge = np.flatnonzero((s <= 1e16) | (s >= 1e17))
    if len(edge):
        se, te = s[edge], t[edge]
        high = (se > 1e17) | ((se == 1e17) & (te >= 0))
        low = (se < 1e16) | ((se == 1e16) & (te < 0))
        e[edge] += high.astype(np.int64) - low
        s[edge], t[edge] = _scaled(a[edge], 16 - e[edge])
    # s >= 1e16 > 2**53 is an even integer, so rint(t) rounds s + t half-even
    r = np.rint(t)
    sure = fast & (np.abs(t - r) < 0.5 - _TIE_MARGIN)
    n = s.astype(np.int64) + r.astype(np.int64)
    carry = edge[n[edge] == 10**17]
    n[carry] = 10**16
    e[carry] += 1
    return n, e, sure


def _ascii_digits(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(words, sig): the 17 ASCII digits of each n in [10**16, 10**17) as
    three rows of little-endian uint64 words, holding the first eight, the
    next eight and the last one, and the count of digits up to the last
    nonzero one."""
    tables = _format_tables()
    # one int64 division splits off the first eight digits; every other
    # split is a uint32 quotient q and the multiply-subtract x - q * d
    high = n // 10**9
    low = (n - high * 10**9).astype(np.uint32)
    mid = low // 10
    last = low - mid * 10
    eights = np.stack([high.astype(np.uint32), mid])
    q = eights // 10_000
    groups = np.stack([q, eights - q * 10_000], axis=1)
    fours = tables["digits4"].take(groups)
    fours[:, 1] <<= np.uint64(32)
    words = np.empty((3, len(n)), np.uint64)
    np.bitwise_or(fours[:, 0], fours[:, 1], out=words[:2])
    words[2] = last + ord("0")
    places = tables["place"].take(groups.reshape(4, len(n)) + _PLACE_OFFSET)
    return words, np.where(last > 0, 17, places.max(axis=0))


def _format_17g(x: np.ndarray) -> np.ndarray:
    """The bytes of f"{v:.17g}" for each v of the float64 array x.

    Returns a (len(x), 46) uint8 array: row i holds the text of x[i] in
    order, with NUL bytes between and after its characters. For |x| in
    [_FAST_MIN, _FAST_MAX] the kernel takes E = floor(log10|x|), moved by
    one where the double-double |x| * 10**(16 - E) falls outside
    [1e16, 1e17), and rounds that to the 17 digits half-even. It certifies
    the digits when the scaled value lies more than _TIE_MARGIN from a
    half-integer. Python formats every other value (_python_17g): 0, -0,
    inf, nan, |x| outside that range, and exact or near ties such as 2**-25
    = 2.98023223876953125e-08.

    .17g writes the fixed form for -4 <= E < 17 and d.ddde+XX otherwise,
    and drops trailing zeros, and the point with them. A row is a _FIELD
    record: the sign, "0." and zeros below 1, the q digits before the point
    (all 17 digits with those past q made NUL), the point, the digits from
    q up to the last nonzero one, and the exponent. Its tables come from
    _format_tables.
    """
    tables = _format_tables()
    n, e, sure = _round17(x)
    words, sig = _ascii_digits(n)
    out = tables["template"].take(2 * (e + 300) + np.signbit(x))
    q = tables["before"].take(e + 300)
    keep = tables["keep"]
    before = keep.take(q + _WORD_OFFSET)
    before &= words
    words ^= before
    words &= keep.take(sig + _WORD_OFFSET)  # the digits after the point
    out["int"] = before[:2].T
    out["int2"] = before[2]
    out["frac"] = words[:2].T
    out["frac2"] = words[2]
    out["point"] *= sig > q

    raw = out.view(np.uint8).reshape(len(x), _FIELD.itemsize)
    slow = np.flatnonzero(~sure)
    if len(slow):
        raw[slow] = 0
        raw[slow, :24] = _python_17g(x[slow]).view(np.uint8).reshape(len(slow), 24)
    return raw


def text_17g(x) -> np.ndarray:
    """f"{v:.17g}" of each v of the 1-d float array x, as an S24 array.

    The kernel formats CSV_BLOCK values at a time, and each value's
    characters move to the front of its 24 bytes, so no Python object per
    value is made.
    """
    x = np.asarray(x, np.float64)
    out = np.zeros(len(x) * 24, np.uint8)
    for lo in range(0, len(x), CSV_BLOCK):
        raw = _format_17g(x[lo : lo + CSV_BLOCK])
        chars = np.frombuffer(raw.tobytes().translate(None, b"\0"), np.uint8)
        size = np.count_nonzero(raw, axis=1)
        # character k of the block goes to byte k + 24 * (lo + i) - (the
        # characters of the rows before i), where i is the row it belongs to
        shift = 24 * np.arange(lo, lo + len(raw)) - (np.cumsum(size) - size)
        out[np.arange(len(chars)) + np.repeat(shift, size)] = chars
    return out.view("S24")


def _python_17g(x: np.ndarray) -> np.ndarray:
    """f"{v:.17g}" of each v of x by Python's formatter, as an S24 array."""
    return np.array([f"{v:.17g}".encode() for v in x.tolist()], "S24")


@dataclass(frozen=True)
class InferenceParams:
    """Signal-to-noise configuration of the data streams.

    sigma_lZ: signal-to-noise carried by the price-relevant stream (per
        sqrt time).
    sigma_lD: signal-to-noise of the purely outcome-informative stream.
    dt: simulation step for dense grids.
    t_max: horizon; simulations never run past it.
    schedule: optional piecewise-constant overrides, a tuple of
        (t_start, sigma_lZ, sigma_lD) with strictly increasing t_start.
        Before the first entry the base values apply.
    """

    sigma_lZ: float = 0.0
    sigma_lD: float = 0.5
    dt: float = 0.01
    t_max: float = 10.0
    schedule: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        negative = [f for f in ("sigma_lZ", "sigma_lD") if not getattr(self, f) >= 0]
        if negative:
            raise InputError("signal-to-noise values must be nonnegative", *negative)
        if not self.dt > 0:
            raise InputError("need dt > 0 and t_max >= dt", "dt")
        if not self.t_max >= self.dt:
            raise InputError("need dt > 0 and t_max >= dt", "dt", "t_max")
        last = -math.inf
        for seg in self.schedule:
            t0, slz, sld = seg
            if t0 <= last:
                raise InputError("schedule breakpoints must strictly increase", "schedule")
            if slz < 0 or sld < 0:
                raise InputError("schedule signal-to-noise must be nonnegative", "schedule")
            last = t0

    def sigma_at(self, t: float) -> tuple[float, float]:
        """Active (sigma_lZ, sigma_lD) at time t."""
        live = [seg[1:] for seg in self.schedule if seg[0] <= t]
        return live[-1] if live else (self.sigma_lZ, self.sigma_lD)

    def sigma_l_total(self, t: float) -> float:
        """The constant signal-to-noise that gives l_t the schedule's law.

        That is sqrt(V_t / t), V_t being the variance of l_t summed over the
        intervals of path_grid([t]), so that l_t | b ~ N(+/- V_t/2, V_t) reads
        as loglr_law(t, b, sigma_l_total(t)). Where one pair is live on all of
        [0, t) (t = 0 included) it is that pair's hypot, exactly.
        """
        if not any(0 < t0 < t for t0, _, _ in self.schedule):
            return math.hypot(*self.sigma_at(0.0))
        var_z, var_d = self.interval_variances(self.path_grid([t], t_max=t)[0])
        return math.sqrt((var_z.sum() + var_d.sum()) / t)

    def interval_variances(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Z-variance, D-variance) arrays of the l-increments between grid points.

        times must hold every breakpoint inside it, as path_grid's grids do:
        each interval's variances are then the squares of the pair live at its
        start times its length.
        """
        pairs = np.array([(self.sigma_lZ, self.sigma_lD), *(seg[1:] for seg in self.schedule)])
        live = pairs[np.searchsorted([seg[0] for seg in self.schedule], times[:-1], side="right")]
        dts = np.diff(times)
        return live[:, 0] * live[:, 0] * dts, live[:, 1] * live[:, 1] * dts

    def dense_steps(self, t_max: float) -> int:
        """Steps of the dt-grid up to the last one not past t_max."""
        return math.floor(t_max / self.dt * (1 + 1e-12))  # 0.3 / 0.1 = 2.9999999999999996

    def path_grid(self, record_times=None, t_max=None):
        """(times, cols): a simulation grid and the indices of its reported times.

        The reported times are record_times, which must not pass the horizon
        t_max (default self.t_max), or else the dt-grid up to the last step not
        past it. times holds them, 0 and the schedule breakpoints inside them,
        so that no interval straddles a breakpoint.
        """
        horizon = self.t_max if t_max is None else t_max
        if record_times is None:
            n_steps = self.dense_steps(horizon)
            reported = np.linspace(0.0, n_steps * self.dt, n_steps + 1)
        else:
            reported = np.asarray(record_times, float)
            if reported.max() > horizon:
                raise InputError("record_times exceed the horizon")
        inner = [t0 for t0, _, _ in self.schedule if 0 < t0 < reported[-1]]
        # np.unique's result, without the numpy.ma import it makes
        times = np.array(sorted({0.0, *reported.tolist(), *inner}))
        return times, np.searchsorted(times, reported)


@dataclass(frozen=True)
class Milestones:
    """Inferential hurdles in log-odds and in time units.

    H_p is the objective hurdle log((1-p1_0)/p1_0). Time-denominated versions
    divide by the inference speed sigma_l^2/2; the pricing-side hurdles add
    the bias and risk-pricing gaps t_rho and +-t_K to t_p.
    """

    H_p: float
    t_p: float
    t_rho: float
    t_K: float

    @property
    def t_Pi_plus(self) -> float:
        return self.t_rho + self.t_K + self.t_p

    @property
    def t_Pi_minus(self) -> float:
        return self.t_rho - self.t_K + self.t_p

    @classmethod
    def from_params(cls, p1_0: float, rho: float, K: float, sigma_l: float) -> "Milestones":
        if not 0 < p1_0 < 1:
            raise InputError("p1_0 must lie in (0,1)", "p1_0")
        if rho < 1:
            raise InputError("rho must be >= 1 (apply label switching first)", "rho")
        if K < 1:
            raise InputError("K must be >= 1", "K")
        if sigma_l <= 0:
            raise InputError("sigma_l must be positive", "sigma_l")
        h_p = math.log((1 - p1_0) / p1_0)
        rate = sigma_l * sigma_l / 2.0
        if rate == 0:
            raise InputError("sigma_l is so small that sigma_l**2/2 underflows to 0", "sigma_l")
        return cls(
            H_p=h_p,
            t_p=h_p / rate,
            t_rho=math.log(rho) / rate,
            t_K=math.log(K) / rate,
        )


def loglr_law(t: float, b: int, sigma_l: float) -> tuple[float, float]:
    """(mean, standard deviation) of l_t for outcome b at time t."""
    mean = (1.0 if b == 1 else -1.0) * sigma_l * sigma_l * t / 2.0
    return mean, sigma_l * math.sqrt(t)


def expit(x):
    """Logistic function 1/(1+exp(-x)), in scipy.special.expit's formula.

    A Python float (np.float64 included) goes through math.exp, which gives
    scipy's bits exactly; anything else goes through numpy, whose vectorised
    exp may differ from the C library's in the last bit. Overflow saturates
    to 0 without a warning, as in scipy. Scalar input gives an np.float64.
    """
    if isinstance(x, float):
        try:
            return np.float64(1.0 / (1.0 + math.exp(-x)))
        except OverflowError:
            pass  # exp(-x) beyond the float range: numpy gives 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x)))


def logit(p):
    """Log-odds log(p/(1-p)), in scipy.special.logit's two-branch formula.

    Near p = 1/2 the difference log1p(s) - log1p(-s), s = 2(p - 1/2), keeps
    the precision that the plain quotient loses. Python floats give scipy's
    bits through the math module, as in expit. logit(0) = -inf, logit(1) =
    inf and p outside [0, 1] gives nan, all without a warning.
    """
    if isinstance(p, float):
        try:
            if p < 0.3 or p > 0.65:
                return np.float64(math.log(p / (1.0 - p)))
            s = 2.0 * (p - 0.5)
            return np.float64(math.log1p(s) - math.log1p(-s))
        except (ValueError, ZeroDivisionError):
            pass  # 0, 1 and values outside [0, 1]: numpy gives -inf, inf, nan
    p = np.asarray(p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = 2.0 * (p - 0.5)
        out = np.where((p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)),
                       np.log1p(s) - np.log1p(-s))
    return out[()]


def posterior_from_loglr(prior_odds, loglr):
    """Belief pi from prior odds and accumulated log likelihood-ratio.

    Works in log-odds space so that extreme evidence saturates smoothly to 0
    or 1 instead of overflowing. Accepts scalars or arrays.
    """
    log_odds = np.log(prior_odds) + np.clip(loglr, -LOGLR_SATURATION, LOGLR_SATURATION)
    return expit(log_odds)


def loglr_paths(var_z, var_d, b, z) -> np.ndarray:
    """Exact log-LR paths, one row per outcome in b, starting with a 0 column.

    var_z, var_d are the Z- and D-variances of the intervals; each row of z
    holds a standard normal per interval for the D-stream, then one for the
    Z-stream if drawn (if not, the Z term is left out). Each increment is
    the outcome's drift +/- (var_z + var_d)/2 plus the noise of both streams.
    """
    n = np.size(var_d)
    incr = np.where(b, 1.0, -1.0)[:, None] * ((var_z + var_d) / 2.0) + np.sqrt(var_d) * z[:, :n]
    if z.shape[1] > n:
        incr = incr + np.sqrt(var_z) * z[:, n:]
    paths = np.zeros((incr.shape[0], incr.shape[1] + 1))
    np.cumsum(incr, axis=1, out=paths[:, 1:])
    return paths


def certainty_tracker(t: float, m: Milestones, b: int, sigma_l: float) -> float:
    """Certainty-gap tracker C_t(b) = sigma_l*sqrt(t)/2 * ((-1)^b + t_p/t).

    t_p is the time-denominated objective hurdle. For b=1 the tracker
    bottoms out at zero exactly when t equals the hurdle time; for b=0 it
    is strictly positive (evidence and hurdle point the same way).
    """
    if t <= 0:
        raise InputError("t must be positive")
    return 0.5 * sigma_l * math.sqrt(t) * ((-1.0) ** b + m.t_p / t)


def window_check(t: float, m: Milestones) -> bool:
    """True while data beat the objective hurdle (t_p/t <= 0.2) but not the bias (t_rho/t >= 5)."""
    if t <= 0:
        raise InputError("t must be positive")
    return (m.t_p / t <= 0.2) and (m.t_rho / t >= 5.0)


def event_dominance_loglr(
    t: float, u: float, m: Milestones, sigma_l: float, branch: int = 1, b: int = 1
) -> float:
    """Log likelihood-ratio of hitting the objective hurdle at t vs t +/- u.

    Equals log(1 +/- u/t) + C_{t +/- u}^2 - C_t^2 with the objective tracker;
    identical to twice the gap of Normal log-densities of l at the hurdle.
    Positive values mean the in-window event dominates.
    """
    if u <= 0:
        raise InputError("u must be positive")
    if branch not in (1, -1):
        raise InputError("branch must be +1 or -1")
    if branch == -1 and u >= t:
        raise InputError("u must be below t on the minus branch")
    t2 = t + branch * u
    c_now = certainty_tracker(t, m, b, sigma_l)
    c_then = certainty_tracker(t2, m, b, sigma_l)
    return math.log1p(branch * u / t) + c_then * c_then - c_now * c_now


def _redundancy_map(gprime0: float, b: int):
    """s = +1 (b=1) or -1 (b=0) and the family g(l) = -s*log(g'(0) e^{-s l} + 1 - g'(0))."""
    if not 0 < gprime0 <= 1:
        raise InputError("gprime0 must lie in (0, 1]")
    s = 1.0 if b == 1 else -1.0
    log_tail = math.log(gprime0)
    log_flat = math.log1p(-gprime0) if gprime0 < 1 else -math.inf

    def g(l):
        # log-space sum: the naive form absorbs the exponential tail
        return -s * np.logaddexp(log_tail - s * l, log_flat)

    return s, g


def redundancy_ode_residual(gprime0: float, l_grid: np.ndarray, b: int = 1, h: float = 1e-3) -> float:
    """Max finite-difference residual of the belief-redundancy ODE.

    Two beliefs driven by the same data are deterministic functions of each
    other; writing one log-odds as g(l) of the other, Ito's lemma forces
    g'' = s (g'-1) g' with s=+1 for b=1 and s=-1 for b=0. Every member of
    the _redundancy_map family satisfies the ODE exactly; the residual is
    pure finite-difference noise.
    """
    s, g = _redundancy_map(gprime0, b)
    l = np.asarray(l_grid, float)
    g0, gp, gm = g(l), g(l + h), g(l - h)
    d1 = (gp - gm) / (2 * h)
    d2 = (gp - 2 * g0 + gm) / (h * h)
    resid = d2 - s * (d1 - 1.0) * d1
    return float(np.max(np.abs(resid)))


def redundancy_gap_growth(gprime0: float, l_limit: float = 40.0, b: int = 1) -> float:
    """How far g(l) - l drifts from its value at 0 by |l| = l_limit.

    Only g'(0) = 1 (the identity map) keeps the gap bounded on both sides;
    any other member of the family loses track of the driving log-LR
    linearly on one tail.
    """
    _, g = _redundancy_map(gprime0, b)
    g0 = float(g(0.0))
    return max(abs(float(g(l)) - l - g0) for l in (l_limit, -l_limit))
