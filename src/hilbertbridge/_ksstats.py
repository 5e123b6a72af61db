"""Pr(D_n ≥ d) of the two-sided one-sample Kolmogorov-Smirnov statistic.

Ported from the survival-function path of scipy 1.17.1's
scipy/stats/_ksstats.py (its license is below), with its expressions kept
so the bits agree with ``scipy.stats.kstwo.sf``: Simard & L'Ecuyer's choice
("Computing the two-sided Kolmogorov-Smirnov distribution", J. Stat. Softw.
39(11), 2011) of Ruben-Gambino's closed forms, 2·smirnov, the Durbin matrix
as Marsaglia, Tsang & Wang compute it (J. Stat. Softw. 8(18), 2003),
Pomeranz's recursion or the Pelz-Good series.  d is a 0-d array, as in
scipy, so its powers take numpy's ufunc loops.  Only
:func:`hilbertbridge.stats_util.ks_test` imports this module.
"""

# scipy/stats/_ksstats.py is distributed under this license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

import numpy as np

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
# Stirling series coefficients B_2j/(2j)/(2j−1), j = 8…1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def kstwo_sf(d: float, n: int) -> float:
    """``scipy.stats.kstwo.sf(d, n)``: 1 up to the support's 1/2n, 0 from 1."""
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    x = np.asarray(d, dtype=np.float64)
    from scipy.special import smirnov

    t = n * x
    nxsquared = t * x
    if t <= 1.0:  # Ruben-Gambino
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:  # log(n!/nⁿ) by Stirling, with n·log n taken out
            rn = 1.0/n
            log_ratio = np.log(n)/2 - n + np.log(2*np.pi)/2 + rn*np.polyval(_STIRLING_COEFFS, rn/n)
            prob = np.exp(log_ratio + n * np.log(2*t-1))
        sf = 1.0 - prob
    elif t >= n - 1:  # Ruben-Gambino
        sf = 2 * (1.0 - x)**n
    elif n > 140 and x < 0.5 and nxsquared >= 370.0:
        return 0.0
    elif x >= 0.5 or (nxsquared > 4 if n <= 140 else nxsquared >= 2.2):
        sf = 2 * smirnov(n, x)  # exact from x = 1/2, else Miller's approximation
    elif n <= 140 and nxsquared > 0.754693:
        sf = 1.0 - _kolmogn_pomeranz(n, x)
    elif n <= 140 or (n <= 100000 and n * x**1.5 <= 1.4):
        sf = 1.0 - _kolmogn_dmtw(n, x)
    else:
        sf = 1.0 - _kolmogn_pelz_good(n, x)
    return float(np.clip(sf, 0.0, 1.0))


def _kolmogn_dmtw(n: int, d):
    """Pr(D_n ≤ d), d = (k − h)/n: entry (k, k) of (n!/nⁿ)·Hⁿ, H (2k − 1)-square."""
    nd = n * d
    k = int(np.ceil(nd))
    h, m = k - nd, 2 * k - 1
    H, intm, w, fac = np.zeros([m, m]), np.arange(1, m + 1), np.empty(m), 1.0
    v = 1.0 - h ** intm
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)
    Hpwr, nn, expnt, Hexpnt = np.eye(m), n, 0, 0  # the scalings of Hpwr and H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/nⁿ
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _pomeranz_j1j2(i: int, n: int, ll: int, ceilf: int, roundf: int) -> tuple[int, int]:
    """The span of row i of Pomeranz's recursion that can be nonzero."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_pomeranz(n: int, x):
    """Pr(D_n ≤ x) by Pomeranz's recursion: rows convolved with Poisson-like weights."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # the fractional part of t
    g = min(f, 1.0 - f)
    ceilf, roundf = (1 if f > 0 else 0), (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)
    # (g/n)^m/m!, (2g/n)^m/m! and ((1 − 2g)/n)^m/m!
    gpower, twogpower, onem2gpower = np.ones((3, npwrs))
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m
    V0, V1 = np.zeros((2, npwrs))
    V1[0] = 1
    V0s, V1s, expnt = 0, 0, 0  # the rows' start indices and scaling
    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1, V0s, V1s = V1, V0, V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        pwrs = gpower if i in (1, 2 * n + 1) else (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            V1[:j2 - j1 + 1] = conv[j1 - k1:j2 - k1 + 1]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1
    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _kolmogn_pelz_good(n: int, x):
    """Pr(D_n ≤ x) by Pelz and Good's small-z form of the Li-Chien/Korolyuk series."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -np.pi**2 / 8 / zsquared
    if qlog < -708:  # z ≲ 0.0417
        return 0.0
    q = np.exp(qlog)
    k1a, k1b = -zsquared, np.pi**2 / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * np.pi**2 / 4
    k2c = np.pi**4 * (1 - 2 * zsquared) / 16
    k3d = np.pi**6 * (5 - 30 * zsquared) / 64
    k3c = np.pi**4 * (-60 * zsquared + 212 * zfour) / 16
    k3b = np.pi**2 * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8
    K0to3 = np.zeros(4)  # Horner's scheme for Σ c_m q^(m²) over odd m
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        K0to3 *= np.power(q, 8 * k)
        K0to3 += np.array([1.0, k1a + k1b*msquared, k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
    K0to3 *= q
    K0to3 *= np.sqrt(2 * np.pi)
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])
    # K₂'s and K₃'s sums over every integer k
    q = np.exp(-np.pi**2 / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z, kspi, qpwers = np.sqrt(3) * z, np.pi * ks, q ** ksquared
    K0to3[2] += np.sum(ksquared * qpwers) * (np.pi**2 * np.sqrt(2 * np.pi)/(-36 * zthree))
    K0to3[3] += np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers) * (
        np.pi**2 * np.sqrt(2 * np.pi)/(216 * zsix))
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)
