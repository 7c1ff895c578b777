"""Counter-based random number streams for reproducible parallel Monte Carlo.

Every Gaussian increment is a pure function of (seed, path_id, step, component),
so any subset of paths can be generated on any worker, in any order, and the
values never change.  A batch is drawn step major, into a (steps, paths, dim)
buffer, and handed out as a (paths, steps, dim) view of it, so each Euler
step reads one contiguous (paths, dim) slice.  The generator is a stateless
splitmix64-style avalanche applied to a 64-bit counter; uniforms are mapped
to normals by inverse CDF (`_ndtri`, a numpy port of the Cephes algorithm).
Its tail branch calls numpy's `log`, so draws are bit-stable for a given
numpy build and SIMD dispatch.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# the largest uniform: the largest double below 1, 1 - 2^-53
_U_MAX = np.nextafter(1.0, 0.0)

# words per step block of `gaussian_increments`: every temporary stays in cache
_BLOCK_WORDS = 2 ** 15

# Cephes ndtri, as scipy.special ships it; coefficients highest power first,
# with the implicit leading 1 of each denominator written out
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2): central branch for |u - 1/2| < 1/2 - exp(-2)
# central branch: x = y + y y^2 P0(y^2) / Q0(y^2), y = u - 1/2, times sqrt(2 pi)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tails, in z = 1/x with x = sqrt(-2 log y): 2 <= x < 8 (P1/Q1), x >= 8 (P2/Q2)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place: full-avalanche 64-bit mixer."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _path_keys(seed: int, path_ids: np.ndarray) -> np.ndarray:
    """Each path's start state mix(seed + GOLDEN*(p+1)), uint64."""
    with np.errstate(over="ignore"):
        seed64 = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        return _mix64(seed64 + _GOLDEN * (path_ids.astype(np.uint64) + np.uint64(1)))


def _stream_words(seed: int, path_ids: np.ndarray, n_words: int) -> np.ndarray:
    """Raw uint64 words, shape (len(path_ids), n_words).

    Word j of path p is mix(mix(seed + GOLDEN*(p+1)) + GOLDEN*(j+1)): a
    splitmix64 sequence whose start state is itself derived by mixing the
    (seed, path) key, so distinct paths use well-separated states.
    """
    idx = _GOLDEN * (np.arange(1, n_words + 1, dtype=np.uint64))
    return _mix64(np.add.outer(_path_keys(seed, path_ids), idx))


def _to_uniforms(w: np.ndarray) -> np.ndarray:
    """Uniforms in [2^-54, 1 - 2^-53] from raw words (w is overwritten)."""
    # 53 significant bits k, u = (k + 1/2) 2^-53, so 0 is excluded; above 1/2
    # the half rounds to even and the top word would give 1.0, so u is capped
    w >>= np.uint64(11)
    u = w.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    np.minimum(u, _U_MAX, out=u)
    return u


def uniforms(seed: int, path_ids: np.ndarray, n: int) -> np.ndarray:
    """Per-path uniforms in [2^-54, 1 - 2^-53], inside the open interval
    (0, 1), shape (paths, n)."""
    return _to_uniforms(_stream_words(seed, np.asarray(path_ids, dtype=np.uint64), n))


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Horner's rule in Cephes' operation order, highest power first."""
    out = x * coef[0]
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of a 1-d u in [0, 1]: Cephes `ndtri` with its
    coefficients and operation order, so the central branch is bitwise
    scipy's; the tails differ from it only where numpy's `log` does."""
    # central branch on the whole array; the tail entries are overwritten
    y = u - 0.5
    y2 = y * y
    x = _polevl(y2, _P0)
    x *= y2
    x /= _polevl(y2, _Q0)
    x *= y
    x += y
    x *= _S2PI
    tail = np.flatnonzero((u <= _EXPM2) | (u > 1.0 - _EXPM2))
    if tail.size:
        ut = u[tail]
        upper = ut > 1.0 - _EXPM2
        with np.errstate(divide="ignore", invalid="ignore"):  # log(0) at u = 0 or 1
            t = np.sqrt(-2.0 * np.log(np.where(upper, 1.0 - ut, ut)))
            x0 = t - np.log(t) / t
        z = 1.0 / t
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
        far = np.flatnonzero(t >= 8.0)  # u < exp(-32): almost always empty
        if far.size:
            zf = z[far]
            x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2)
            x0[far] = np.where(np.isinf(t[far]), np.inf, x0[far])  # u = 0 or 1
        x0 -= x1
        x[tail] = np.where(upper, x0, -x0)
    return x


def gaussian_increments(
    seed: int, path_lo: int, path_hi: int, steps: int, dim: int, dt: float
) -> np.ndarray:
    """Brownian increments dW ~ N(0, dt*I) for paths [path_lo, path_hi).

    Returns shape (path_hi - path_lo, steps, dim).  Row i is identical to the
    single-path draw for path_id = path_lo + i regardless of the block bounds.
    The draws are written step major, into a contiguous (steps, paths, dim)
    buffer, and the result is a batch-first view of it, not a copy:
    np.swapaxes(dW, 0, 1) gives the buffer back, and dW[:, k] is contiguous.
    Words, uniforms and normals are made in blocks of steps of about
    `_BLOCK_WORDS` words, so the temporaries stay in cache.
    """
    if path_hi < path_lo:
        raise ValueError("empty or inverted path range")
    n = path_hi - path_lo
    out = np.empty((steps, n, dim))
    keys = _path_keys(seed, np.arange(path_lo, path_hi, dtype=np.uint64))[:, None]
    block = max(1, _BLOCK_WORDS // max(1, n * dim))
    scale = np.sqrt(dt)
    for lo in range(0, steps, block):
        hi = min(lo + block, steps)
        # word j = k dim + c of path p sits at [k, p, c]
        idx = _GOLDEN * np.arange(lo * dim + 1, hi * dim + 1, dtype=np.uint64)
        u = _to_uniforms(_mix64(keys + idx.reshape(hi - lo, 1, dim))).ravel()
        np.multiply(_ndtri(u), scale, out=out[lo:hi].reshape(-1))
    return np.swapaxes(out, 0, 1)
