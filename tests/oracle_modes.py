"""Brute-force scattering oracle for the tests.

Solves the 8x8 interface-matching linear system for the two-slab geometry
with numpy, completely independently of the package's closed-form coefficient
assembly.  Only suitable for mild opacity (|s n d| small enough that the
matching matrix stays well conditioned); the opaque regime is cross-checked
against closed-form half-space limits instead.

Also holds ``halfspace_bath_integrand``, the printed half-space bath
integrand, the reference for the opaque and infinitely wide limits of the
bath integrand.
"""

import numpy as np

from casimir1d._core import (cavity_delta, coth_half, gap_phase,
                             refractive_at)


def solve_greater(omega, a, d, nL, nR):
    """Coefficients of the mode incident from the left, unit amplitude.

    Regions and ansatz (s = -i*omega):
      x < x1          : e^{-s x} + R e^{s x}
      x1 < x < x2     : A e^{-s nL x} + B e^{s nL x}
      x2 < x < x3     : C e^{-s x} + D e^{s x}
      x3 < x < x4     : E e^{-s nR x} + F e^{s nR x}
      x > x4          : T e^{-s x}
    with x1 = -a/2-d, x2 = -a/2, x3 = a/2, x4 = a/2+d.

    Returns a dict with the eight amplitudes.
    """
    s = -1j * omega
    x1, x2, x3, x4 = -a / 2 - d, -a / 2, a / 2, a / 2 + d
    # unknown order: R, A, B, C, D, E, F, T
    M = np.zeros((8, 8), dtype=complex)
    rhs = np.zeros(8, dtype=complex)

    def ep(q, x):
        return np.exp(-s * q * x), np.exp(s * q * x)

    # interface x1: ext-left <-> slab L
    em1, ep1 = ep(1.0, x1)
    emL1, epL1 = ep(nL, x1)
    M[0, 0] = ep1
    M[0, 1] = -emL1
    M[0, 2] = -epL1
    rhs[0] = -em1
    M[1, 0] = s * ep1
    M[1, 1] = s * nL * emL1
    M[1, 2] = -s * nL * epL1
    rhs[1] = s * em1
    # interface x2: slab L <-> gap
    emL2, epL2 = ep(nL, x2)
    em2, ep2 = ep(1.0, x2)
    M[2, 1] = emL2
    M[2, 2] = epL2
    M[2, 3] = -em2
    M[2, 4] = -ep2
    M[3, 1] = -s * nL * emL2
    M[3, 2] = s * nL * epL2
    M[3, 3] = s * em2
    M[3, 4] = -s * ep2
    # interface x3: gap <-> slab R
    em3, ep3 = ep(1.0, x3)
    emR3, epR3 = ep(nR, x3)
    M[4, 3] = em3
    M[4, 4] = ep3
    M[4, 5] = -emR3
    M[4, 6] = -epR3
    M[5, 3] = -s * em3
    M[5, 4] = s * ep3
    M[5, 5] = s * nR * emR3
    M[5, 6] = -s * nR * epR3
    # interface x4: slab R <-> ext-right
    emR4, epR4 = ep(nR, x4)
    em4, _ = ep(1.0, x4)
    M[6, 5] = emR4
    M[6, 6] = epR4
    M[6, 7] = -em4
    M[7, 5] = -s * nR * emR4
    M[7, 6] = s * nR * epR4
    M[7, 7] = s * em4
    sol = np.linalg.solve(M, rhs)
    keys = ("R", "A", "B", "C", "D", "E", "F", "T")
    return dict(zip(keys, sol))


def eval_greater(coeffs, omega, a, d, nL, nR, x):
    """Evaluate (value, derivative) of the left-incident mode at x."""
    s = -1j * omega
    x1, x2, x3, x4 = -a / 2 - d, -a / 2, a / 2, a / 2 + d
    c = coeffs
    if x < x1:
        v = np.exp(-s * x) + c["R"] * np.exp(s * x)
        dv = -s * np.exp(-s * x) + s * c["R"] * np.exp(s * x)
    elif x < x2:
        v = c["A"] * np.exp(-s * nL * x) + c["B"] * np.exp(s * nL * x)
        dv = (-s * nL * c["A"] * np.exp(-s * nL * x)
              + s * nL * c["B"] * np.exp(s * nL * x))
    elif x < x3:
        v = c["C"] * np.exp(-s * x) + c["D"] * np.exp(s * x)
        dv = -s * c["C"] * np.exp(-s * x) + s * c["D"] * np.exp(s * x)
    elif x < x4:
        v = c["E"] * np.exp(-s * nR * x) + c["F"] * np.exp(s * nR * x)
        dv = (-s * nR * c["E"] * np.exp(-s * nR * x)
              + s * nR * c["F"] * np.exp(s * nR * x))
    else:
        v = c["T"] * np.exp(-s * x)
        dv = -s * c["T"] * np.exp(-s * x)
    return complex(v), complex(dv)


def bracket_greater_lesser(omega, a, d, nL, nR):
    """1 + |R>|^2 + |T|^2 - |C>|^2 - |D>|^2 - |C<|^2 - |D<|^2."""
    g = solve_greater(omega, a, d, nL, nR)
    l = solve_greater(omega, a, d, nR, nL)  # mirror geometry
    return (1.0 + abs(g["R"]) ** 2 + abs(g["T"]) ** 2
            - abs(g["C"]) ** 2 - abs(g["D"]) ** 2
            - abs(l["C"]) ** 2 - abs(l["D"]) ** 2)


def _surface_refl(omega, mat):
    """Surface reflection (1 - n) / (1 + n) of material tuple ``mat``."""
    n = refractive_at(-1j * omega, *mat)
    return (1.0 - n) / (1.0 + n)


def halfspace_bath_integrand(omega, a, matL, matR, betaL, betaR, sG=0.0):
    """Two-temperature bath integrand between half-spaces."""
    rnL = _surface_refl(omega, matL)
    rnR = _surface_refl(omega, matR)
    pL = abs(rnL) ** 2
    pR = abs(rnR) ** 2
    gap = gap_phase(omega, a, sG)
    _, delta = cavity_delta(rnL, rnR, gap)
    d2 = abs(delta) ** 2
    return omega * (coth_half(betaL, omega) * (1.0 - pL)
                    * (1.0 - (1.0 + pR) / d2)
                    - coth_half(betaR, omega) * (1.0 - pR) * (1.0 + pL) / d2)
