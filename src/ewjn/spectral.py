"""Spectral densities of the fluctuating fields above the half-space.

chi_xx and chi_zz are the symmetrized noise spectral densities of the
electric field in (V/m)^2 s and of the magnetic field in T^2 s, at
height z above the surface and angular frequency omega, one-sided in
frequency. Models:

  local-quasistatic     closed forms in the Drude permittivity
  nonlocal-quasistatic  quasistatic integrals over the nonlocal
                        reflection coefficients
  local-retarded        full retarded integrals over the classical
                        Fresnel coefficients

regime_select picks a model from the physical scales: nonlocal effects
matter within tens of Fermi wavelengths of the surface, retardation
within a fraction of the skin depth of the far field.

Every model is one batch function of (z, omega) points that returns
columns, and evaluate_columns, the one evaluation path, groups the
points by model, makes one call per model and checks the columns by
masks; evaluate_batch adds tensors, and evaluate is a batch of one. A
batch gives each point the bits and the error it gets alone. Both
integral models are trapezoid sums on a log lattice that all the points
of one omega share, whose step halves by quadrature.lattice_sums's rule:
each lattice's kernel runs once for h = H0 and H0/2, on the nodes at
H0/2 (quadrature._refine), and the lattice at H0 is their even nodes.
The nonlocal model and the rules only it uses are the module
nonlocal_model, of which this module takes the batch function alone
(_nonlocal_quasistatic). A local-retarded point is one integral over a
log-mapped axis, the vacuum normal wavevector q near the surface and the
line q = omega/c + i t far from it, whose sums near the surface are
series in z on moments of the lattice that all heights share
(_local_retarded).
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, require_positive_finite
from .fresnel import local_reflection_q
from .materials import C_LIGHT, EPS0, HBAR, Material, drude_epsilon, skin_depth
from .nonlocal_model import _nonlocal_quasistatic
from .quadrature import (EPS, H0, QuadratureConfig, _distinct, _refine, _runs, lattice_sums,
                         not_converged)


class Model(str, enum.Enum):
    LOCAL_QUASISTATIC = "local-quasistatic"
    NONLOCAL_QUASISTATIC = "nonlocal-quasistatic"
    LOCAL_RETARDED = "local-retarded"
    AUTO = "auto"

    def __str__(self) -> str:  # keep CLI output free of enum repr noise
        return self.value


# z below this many Fermi wavelengths: the local model badly understates
# electric noise and the nonlocal integrals are mandatory
_NONLOCAL_Z_LIMIT = 30.0
# z above this fraction of the skin depth: quasistatic forms drift at
# the percent level and the retarded integrals take over
_RETARDED_Z_FRACTION = 0.1


@dataclass(frozen=True)
class SpectralDensityTensor:
    """Diagonal noise tensor at one (z, omega) point.

    field_kind is "E" or "B"; chi_yy equals chi_xx by in-plane symmetry.
    decomposition carries signed partial integrals when a component is
    assembled from distinct polarization channels (magnetic xx only).
    """

    field_kind: str
    chi_xx: float
    chi_zz: float
    z: float
    omega: float
    model: Model
    error_estimate: float
    decomposition: dict = field(default_factory=dict)


def _drude_scales_error(material, omega, squared, grazing):
    """The DomainError of an omega at which the Drude permittivity's
    omega (omega + i nu) underflows to 0, or omega^2 is not finite
    (squared), or the Drude permittivity or grazing wavevector
    (omega/c)/sqrt|eps| is not a finite, nonzero float (grazing), else
    None. The integral models ask for both, the bulk ladder for squared."""
    if squared and not math.isfinite(omega * omega):
        return DomainError(f"omega = {omega:.6g} rad/s is too large for {material.name}: "
                           f"omega^2 leaves the float range")
    if omega * complex(omega, material.collision_rate) == 0:
        return DomainError(f"omega = {omega:.6g} rad/s is too small for {material.name}: "
                           f"omega (omega + i nu) underflows to 0")
    if not grazing:
        return None
    eps = drude_epsilon(material, omega)
    if cmath.isfinite(eps) and omega / C_LIGHT / math.sqrt(abs(eps)) != 0:
        return None
    return DomainError(f"omega = {omega:.6g} rad/s is too small for {material.name}: its Drude "
                       f"permittivity or (omega/c)/sqrt|eps| leaves the float range")


def regime_select(material: Material, z: float, omega: float) -> Model:
    """Pick the cheapest model that is honest at (z, omega).

    Inside 30 Fermi wavelengths the nonlocal quasistatic model is
    required. Between that and a tenth of the skin depth the local
    model is formally adequate for magnetic noise but still understates
    electric noise, so the nonlocal model is kept. Beyond a tenth of the
    skin depth retardation matters and the local retarded model takes
    over.
    """
    require_positive_finite("z", z)
    require_positive_finite("omega", omega)
    if z < _nonlocal_below(material, omega):
        return Model.NONLOCAL_QUASISTATIC
    return Model.LOCAL_RETARDED


def _nonlocal_below(material: Material, omega: float) -> float:
    """z below which the nonlocal model is kept at omega, from which the
    retarded one takes over."""
    return max(_NONLOCAL_Z_LIMIT * material.fermi_wavelength,
               _RETARDED_Z_FRACTION * skin_depth(material, omega))


def _pow(x, n):
    """x**n on Python floats (numpy's power rounds otherwise), inf on overflow."""
    try:
        return x**n
    except OverflowError:
        return math.inf


# A model's batch function maps (material, field_kind, zs, omegas, cfg),
# lists of Python floats with one omega per z and a QuadratureConfig, to (columns, failed): the
# (n, 5) chi_xx, chi_zz, error_estimate, rs_part and rp_part (NaN where the
# model has no decomposition; any values at a failed point) and {index:
# QuadratureError or DomainError} of the failed points.

def _local_quasistatic(material, field_kind, zs, omegas, cfg) -> tuple:
    """The closed forms at every point, as array products and quotients.

      E: chi_xx = hbar/(8 eps0 z^3) Im[(eps-1)/(eps+1)], chi_zz = 2 chi_xx
      B: chi_zz = hbar omega^2/(8 eps0 c^4 z) Im eps, chi_xx = chi_zz/2

    The magnetic form holds well below the skin depth; its 1/z growth
    saturates near delta in the retarded treatment. An electric point
    whose z^3 (_pow) overflows or whose 8 eps0 z^3 underflows to 0, and a
    magnetic point whose omega^2 overflows, gets a DomainError.
    """
    electric, (distinct, at) = field_kind == "E", _distinct(np.array(omegas))
    im = np.array([((e - 1.0) / (e + 1.0) if electric else e).imag
                   for e in (drude_epsilon(material, w) for w in distinct.tolist())])[at]
    power = np.array([_pow(x, 3 if electric else 2) for x in (zs if electric else omegas)])
    cols = np.full((len(zs), 5), math.nan)
    with np.errstate(all="ignore"):
        if electric:
            cube = 8.0 * EPS0 * power
            cols[:, 0] = HBAR / cube * im
            cols[:, 1] = 2.0 * cols[:, 0]
        else:
            cols[:, 1] = HBAR * power / (8.0 * EPS0 * C_LIGHT**4 * np.array(zs)) * im
            cols[:, 0] = 0.5 * cols[:, 1]
    cols[:, 2] = 0.0
    failed = {i: DomainError(f"z = {zs[i]:.6g} m is too large: z^3 overflows" if electric else
                             f"omega = {omegas[i]:.6g} rad/s is too large: omega^2 overflows")
              for i in np.flatnonzero(power == math.inf).tolist()}
    if electric:
        failed.update((i, DomainError(f"z = {zs[i]:.6g} m is too small: 8 eps0 z^3 underflows "
                                      f"to 0")) for i in np.flatnonzero(cube == 0).tolist())
    return cols, failed


# The local-retarded lattice: s_n = nh, x_n = (omega/c) e^{s_n}. A sum starts
# e^-_LOW_SPAN below its scale, omega/c (1/(2z) on the line), leaving e^-44 of
# (omega/c)^3 or of the value (e^-60 on the evanescent sector, whose summand
# falls like u^2). The evanescent sum and the line end at the last node with
# 2 x z <= _DECAY_CUT, the propagating one, on q = (omega/c)/(1 + e^-s), at
# s = _PROP_TOP, e^-40 short of q = omega/c. _ORDER cuts _moment_sum's series.
_CONTOUR_FROM, _DECAY_CUT, _ORDER, _PROP_TOP = 1.0, 700.0, 20, 40
_LOW_SPAN = {"prop": 44, "ev": 30, "line": 44}


def _moment_sum(moments, moduli, count, c, reach):
    """(Sum_m c^m/m! moments[m], its error), (points, columns), by Horner's rule on
    moments[m] = Sum_n y_n^m F_n (columns, points or 1) over count nodes, |c| y_n <= reach:
    each and 4 _ORDER steps round by eps of e^reach moduli (Sum |F_n|), the cut by reach^21/21!."""
    acc, steps = moments[-1] * np.ones_like(c), c / np.arange(1, _ORDER + 1)[:, None]
    for m in range(_ORDER, 0, -1):
        acc *= steps[m - 1]
        acc += moments[m - 1]
    bound = (np.exp(reach) * (count + 4 * _ORDER) * EPS
             + reach ** (_ORDER + 1) / math.factorial(_ORDER + 1))
    return acc.T, (moduli * bound).T


def _propagating(block, n, h, a, moments):
    """(value, error, moments) per point of h Re Sum_n e^{i a y_n} block_n, y_n =
    1/(1 + e^{-nh}), a = 2 z omega/c < 1: _moment_sum in i a on moments all points
    share, at h/2 those at h plus the odd nodes'; each tail under twice its end term."""
    y, new = 1.0 / (1.0 + np.exp(-n * h)), (n % 2 == 1) | (moments is None)
    part = np.concatenate([(y[new] ** np.arange(_ORDER + 1)[:, None] @ block[new].view(float))
                           .view(complex), np.abs(block[new]).sum(0, keepdims=True)])
    moments = part if moments is None else moments + part
    value, bound = _moment_sum(moments[:-1, :, None], moments[-1].real[:, None], y.size, 1j * a,
                               a * y[-1])
    return h * value.real, h * bound + 2.0 * (np.abs(block[0]) + np.abs(block[-1])), moments


def _decayed(x, block, two_z, lo, hi):
    """(sums, sums of moduli), (points, columns), of each point's terms e^{-2 z x_n}
    block_n at nodes lo..hi of a row, two_z = 2z, in order by reduceat: its bits alone."""
    nodes, starts, counts = _runs(lo, hi)
    terms = np.exp(-np.repeat(two_z, counts) * x[nodes]) * np.take(block.T, nodes, axis=1)
    return [np.add.reduceat(t, starts, axis=1).T for t in (terms, np.abs(terms))]


def _phase(z, omega):
    """e^{2 i z omega/c} from its phase as a double q plus the exact rest,
    good to a few ulps however many turns 2 z omega/c makes."""
    from fractions import Fraction  # only far points pay for the import

    phase = Fraction(2.0 * z) * Fraction(omega) / Fraction(C_LIGHT)
    return cmath.exp(1j * (q := float(phase))) * cmath.exp(1j * float(phase - Fraction(q)))


def _local_retarded(material, field_kind, zs, omegas, cfg) -> tuple:
    """The local retarded integrals at every point, as one batch.

    chi = scale * (I_xx, I_zz), scale = hbar/eps0 (E) or hbar/(eps0 c^2) (B),
      I_xx = Re Integral dp (p/q) e^{2 i q z} (omega^2/c^2 r_a - q^2 r_b)/2
      I_zz = Re Integral dp (p^3/q) e^{2 i q z} r_b
    with (r_a, r_b) = (r_s, r_p) for E and swapped for B, from the vacuum
    normal wavevector q (local_reflection_q). As (p/q) dp = -dq, that is
    Re Integral dq e^{2iqz} X(q) along q = i u, u from infinity to 0, then
    q from 0 to omega/c: near the surface a trapezoid sum in ln u of
    e^{-2uz} Im X(iu), whose terms cannot cancel, plus one in s, q =
    (omega/c)/(1 + e^-s), which sends q = omega/c to s = infinity; from
    _CONTOUR_FROM on, where that one cancels, one in ln t on q = omega/c +
    i t (the swept quadrant holds neither r_p's pole nor q_m's branch
    point; K. A. Michalski and J. R. Mosig, IEEE TAP 45, 508 (1997)). The
    points of one omega share its lattice, halved by lattice_sums, and
    moments: the propagating sum is a series in 2 i z omega/c
    (_propagating), and every evanescent sum starts at one node, so up to
    its switch node, the last with 2 z x <= 1 whose prefix moments Sum
    e^{mnh} F_n (one cumsum per omega and h) are finite, it is a series in
    -2 z omega/c on them; its other terms and the line's are summed
    directly (_decayed). A point gets its bits and outcome alone, and a
    DomainError if its integrand would leave the float range or its eps
    rounds to 1.
    """
    failed = {}
    distinct, row = _distinct(np.array(omegas))
    eps_r = np.array([drude_epsilon(material, w) for w in distinct.tolist()])
    w_c_of, z_of = distinct / C_LIGHT, np.asarray(zs, dtype=float)
    w_c, w, size = w_c_of.tolist(), w_c_of[row], np.abs(eps_r)[row]
    with np.errstate(all="ignore"):
        # from e^-44 min(omega/c, 1/(2z)) to M = max(_DECAY_CUT/(2z), omega/c): the first node
        # and g = (omega/c)/sqrt|eps| normal, M/g, |eps| M, M^3 and the phase 2 z omega/c finite
        m, g = np.maximum(_DECAY_CUT / (2.0 * z_of), w), w / np.sqrt(size)
        fits = ((np.minimum(g, np.minimum(w, 0.5 / z_of) * math.exp(-44)) >= sys.float_info.min)
                & np.isfinite([m / g, size * m, m * m * m, 2.0 * z_of * w]).all(axis=0))
        # ln(1/(2 z omega/c)) in steps of H0; per sector (points, first, last)
        scale_n = np.where(fits, np.log(0.5 / (z_of * w)) / H0, 0.0)
        far = 2.0 * z_of * w >= _CONTOUR_FROM
    # eps - 1 that lost its real part (omega_p^2 != 0) leaves r_s, r_p no digit
    wp = material.plasma_frequency
    lost = ~fits | ((eps_r.real == 1.0)[row] & (wp * wp != 0))
    for i in np.flatnonzero(lost).tolist():
        failed[i] = DomainError(
            f"z = {zs[i]:.6g} m, omega = {omegas[i]:.6g} rad/s: the local-retarded integrand "
            f"leaves the float range" if not fits[i] else f"omega = {omegas[i]:.6g} rad/s is "
            f"too large for {material.name}: its Drude permittivity rounds to 1 and the "
            f"Fresnel coefficients keep no digit")
    ok = np.flatnonzero(~lost)
    low = {k: -round(v / H0) for k, v in _LOW_SPAN.items()}
    last = np.floor(scale_n + math.log(_DECAY_CUT) / H0).astype(int)
    zero = np.zeros_like(last)
    spans = {"ev": (~far, zero + low["ev"], last),
             "prop": (~far, zero + low["prop"], zero + round(_PROP_TOP / H0)),
             "line": (far, np.floor(scale_n).astype(int) + low["line"], last)}

    def kernel(sector):  # dq/ds X(q) at the sector's nodes k = e^s: columns xx, zz
        def run(k, rows):
            # gap = omega/c - q, exact, so that p^2 = gap (omega/c + q) keeps its digits
            w, x_n = w_c_of[rows], w_c_of[rows] * k
            if sector == "prop":
                gap, q = w / (1.0 + k) + 0j, x_n / (1.0 + k) + 0j
                jac = q.real * gap.real / w
            else:
                gap = w - 1j * x_n if sector == "ev" else -1j * x_n
                q, jac = w - gap, x_n
            pair = local_reflection_q(q, (eps_r[rows] - 1.0) * w * w, eps_r[rows])
            r_a, r_b = (pair.r_p, pair.r_s) if field_kind == "B" else (pair.r_s, pair.r_p)
            if sector == "ev":
                # Re(-i X) = Im X from Im r alone: q^2 = -u^2 and p^2 are real
                return np.stack([0.5 * x_n * (w * w * r_a.imag + x_n * x_n * r_b.imag),
                                 x_n * (w * w + x_n * x_n) * r_b.imag], axis=-1)
            return np.stack([0.5 * jac * (w * w * r_a - q * q * r_b),
                             jac * gap * (w + q) * r_b], axis=-1)
        return run

    lattices, shared = {}, {}

    def sector_sums(sector, table, start, points, level, values, errs):
        """Add each point's sums of one sector at h = H0/2^level, from the
        sector's lattice at that h (table, columns from n = start), to its
        rows of values and errs."""
        step, h, (_, lo, hi) = 2**level, H0 / 2**level, spans[sector]
        lo, hi = lo[points] * step, hi[points] * step
        for r in sorted(set(row[points].tolist())):
            idx, a, b = (v[row[points] == r] for v in (points, lo, hi))
            n = np.arange(a.min(), b.max() + 1)
            block, two_z = table[r, n[0] - start:n[-1] - start + 1], 2.0 * z_of[idx]
            if sector == "prop":
                value, err, shared[r] = _propagating(block, n, h, two_z * w_c[r], shared.get(r))
                values[idx] += value
                errs[idx] += err
                continue
            e_n, a, b, head, err = np.exp(n * h), a - n[0], b - n[0], 0.0, 0.0
            x = w_c[r] * e_n
            # the tail below the first node stays under twice its term, the
            # one beyond the last, where X grows at most like x^3, under |X|
            # e^{-2xz}/(2z) (1 + 3/y + 6/y^2 + 6/y^3), y = 2xz
            first, end = (np.abs(block[k] * np.exp(-two_z * x[k])[:, None]) for k in (a, b))
            if sector == "ev":
                # up to each switch node s from the prefix moments, while finite
                s = np.floor(scale_n[idx] * step).astype(int) - n[0]
                y, f = e_n[:s.max() + 1], np.ascontiguousarray(block[:s.max() + 1].T)
                with np.errstate(over="ignore", invalid="ignore"):
                    powers = y ** np.arange(_ORDER + 1)[:, None, None]
                    moments = np.cumsum(np.concatenate([powers * f, np.abs(f)[None]]), 2)
                s = np.minimum(s, np.isfinite(moments).all((0, 1)).sum() - 1)
                moments = np.take(moments, s, axis=2)
                head, err = _moment_sum(moments[:-1], moments[-1], s + 1, -two_z * w_c[r],
                                        two_z * x[s])
                a = s + 1
            direct, moduli = _decayed(x, block, two_z, a, b)
            value, y = h * (head + direct), two_z * x[b]
            if sector == "line":
                value = (np.array([_phase(zs[i], omegas[i]) for i in idx.tolist()])[:, None]
                         * value).imag
            # _decayed's sums round by at most count eps of their moduli, in any order
            values[idx] += value
            errs[idx] += (h * moduli * ((b - a + 1) * EPS)[:, None] + 2.0 * first
                          + end * ((1 + 3 / y + 6 / y**2 + 6 / y**3) / y)[:, None] + h * err)

    def sums(levels, live):
        top, asked = levels[-1], ok[live]
        values, errs = np.zeros((2, len(levels), len(zs), 2))
        for sector, (member, lo, hi) in spans.items():
            points = asked[member[asked]]
            if points.size:
                # the lattice at h = H0/2^top: on the first call every node from
                # the kernel, the lattice at 2h its even nodes
                lattices[sector] = _refine(
                    *(lattices[sector] if levels[0] else (None, None)), row[points],
                    lo[points] * 2**top, hi[points] * 2**top, H0 / 2**top, kernel(sector))
        live = asked
        for m, level in enumerate(levels):
            if m:  # as in lattice_sums, a point with a sum at 2h not finite is lost
                live = live[np.isfinite(values[m - 1, live]).all(1)
                            & np.isfinite(errs[m - 1, live]).all(1)]
            for sector, (member, _, _) in spans.items():
                points = live[member[live]]
                if points.size:
                    fine, first = lattices[sector]
                    sector_sums(sector, fine[:, ::2**(top - level)], first // 2**(top - level),
                                points, level, values[m], errs[m])
        return values[:, asked], errs[:, asked]

    # a point's non-finite sums become a DomainError of evaluate_columns
    scale = HBAR / EPS0 if field_kind == "E" else HBAR / (EPS0 * C_LIGHT**2)
    values, errs, missed = lattice_sums(ok.size, sums, cfg)
    cols = np.full((len(zs), 5), math.nan)
    cols[ok, :2], cols[ok, 2] = scale * values.reshape(-1, 2), scale * errs.max(axis=1, initial=0.0)
    missed = ok[missed]
    for i, zz, err in zip(missed.tolist(), cols[missed, 1].tolist(), cols[missed, 2].tolist()):
        failed[i] = not_converged("local-retarded", cfg, zz, err)
    return cols, failed


_BATCH = {
    Model.LOCAL_QUASISTATIC: _local_quasistatic,
    Model.NONLOCAL_QUASISTATIC: _nonlocal_quasistatic,
    Model.LOCAL_RETARDED: _local_retarded,
}


def evaluate_columns(material: Material, field_kind: str, zs, omega,
                     model: Model | str = Model.AUTO, cfg: QuadratureConfig | None = None) -> tuple:
    """evaluate_batch's points as (columns, used, failed): the models'
    (n, 5) columns, {model: indices of its points} and {index: DomainError
    or QuadratureError} of the failed points, whose rows are NaN. omega is
    one frequency for every z of zs, or one per z; any other length raises
    DomainError. model="auto" resolves per point; the points of each model
    then run as one batch, with the outcomes a point-by-point run would
    give. A point whose chi_xx, chi_zz or error_estimate is not finite
    (its inputs leave the float range) gets a DomainError, and so does a
    point whose omega fails _drude_scales_error and a point of the
    integral models whose |chi_xx| or |chi_zz| underflows below the
    smallest normal float (a subnormal keeps a few bits, or none) where
    the metal responds (omega_p^2 != 0)."""
    if field_kind not in ("E", "B"):
        raise DomainError("field_kind must be 'E' or 'B'")
    model, cfg, wp = Model(model), cfg or QuadratureConfig(), material.plasma_frequency
    z_of, w_of = np.asarray(zs, dtype=float), np.ravel(np.asarray(omega, dtype=float))
    if w_of.size not in (1, z_of.size):
        raise DomainError("omega must be one value or one per z")
    w_of = w_of.repeat(z_of.size if w_of.size == 1 else 1)
    cols, failed = np.full((z_of.size, 5), math.nan), {}
    run = (z_of > 0) & (z_of < math.inf) & (w_of > 0) & (w_of < math.inf)
    for i in np.flatnonzero(~run).tolist():
        try:
            require_positive_finite("z", z_of[i].item())
            require_positive_finite("omega", w_of[i].item())
        except DomainError as exc:
            failed[i] = exc
    run = np.flatnonzero(run)
    # per distinct omega: its DomainError, or None
    distinct, at = _distinct(w_of[run])
    integral = model is not Model.LOCAL_QUASISTATIC
    errors = [_drude_scales_error(material, w, integral, integral) for w in distinct.tolist()]
    bad = np.array([e is not None for e in errors], dtype=bool)[at]
    failed.update(zip(run[bad].tolist(), [errors[k] for k in at[bad].tolist()]))
    run, at = run[~bad], at[~bad]
    used = {model: run}
    if model is Model.AUTO:
        below = np.array([math.nan if e else _nonlocal_below(material, w)
                          for w, e in zip(distinct.tolist(), errors)])
        near = z_of[run] < below[at]
        used = {Model.NONLOCAL_QUASISTATIC: run[near], Model.LOCAL_RETARDED: run[~near]}
    for m, idx in used.items():
        if not idx.size:
            continue
        cols[idx], lost = _BATCH[m](material, field_kind, z_of[idx].tolist(),
                                    w_of[idx].tolist(), cfg)
        chi = cols[idx, :3]
        infinite = ~np.isfinite(chi).all(axis=1)
        tiny = (~infinite & (np.minimum(abs(chi[:, 0]), abs(chi[:, 1])) < sys.float_info.min)
                & (m is not Model.LOCAL_QUASISTATIC) & (wp * wp != 0))
        failed.update(zip(idx[list(lost)].tolist(), lost.values()))
        for i, kind in zip(idx[infinite | tiny].tolist(), tiny[infinite | tiny].tolist()):
            failed.setdefault(i, DomainError(
                f"chi {'underflows' if kind else 'is not finite'} at z = {z_of[i]:.6g} m, "
                f"omega = {w_of[i]:.6g} rad/s; the inputs leave the float range"))
    cols[list(failed)] = math.nan
    return cols, used, failed


def evaluate_batch(material: Material, field_kind: str, zs, omega,
                   model: Model | str = Model.AUTO, cfg: QuadratureConfig | None = None) -> list:
    """evaluate at every (z, omega) point, as outcomes: outcome i is the
    tensor at point i, or the DomainError or QuadratureError that
    evaluate would raise there (evaluate_columns, whose columns the
    tensors carry)."""
    cols, used, failed = evaluate_columns(material, field_kind, zs, omega, model, cfg)
    omegas = np.broadcast_to(np.ravel(np.asarray(omega, dtype=float)), len(cols)).tolist()
    out = [failed.get(i) for i in range(len(cols))]
    for m, idx in used.items():
        for i, (chi_xx, chi_zz, err, rs_part, rp_part) in zip(idx.tolist(), cols[idx].tolist()):
            if out[i] is None:
                parts = {} if math.isnan(rs_part) else {"rs_part": rs_part, "rp_part": rp_part}
                out[i] = SpectralDensityTensor(field_kind, chi_xx, chi_zz, zs[i], omegas[i], m,
                                               err, parts)
    return out


def evaluate(material: Material, field_kind: str, z: float, omega: float,
             model: Model | str = Model.AUTO,
             cfg: QuadratureConfig | None = None) -> SpectralDensityTensor:
    """Evaluate one noise tensor, resolving model="auto" by regime."""
    [outcome] = evaluate_batch(material, field_kind, [z], omega, model, cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
