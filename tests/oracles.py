"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow way: python loops,
math.fsum accumulation, scipy root finding.  None of it shares code
paths with the package internals.
"""

import math

import numpy as np
from scipy.optimize import brentq


def region_nodes(grid, center, size, shape):
    """Indices of nodes strictly inside the region, by direct scan."""
    coords = grid.coords
    c = np.asarray(center, dtype=float)
    if shape == "ball":
        dist = np.sqrt(np.sum((coords - c) ** 2, axis=1))
        mask = dist < size
    else:
        mask = np.all(np.abs(coords - c) < size, axis=1)
    return np.flatnonzero(mask)


def region_indices(grid, center, size, shape):
    """Node indices of a region in the package's former rule, kept as the reference.

    Strict membership: per axis by searchsorted for intervals and cubes,
    and by the squared-distance mask over the whole grid for balls.
    """
    ax = grid.axis
    n = grid.points_per_axis
    if grid.dim == 1:
        c = center[0]
        lo = np.searchsorted(ax, c - size, side="right")
        hi = np.searchsorted(ax, c + size, side="left")
        return np.arange(lo, hi, dtype=np.intp)
    if shape == "cube":
        ranges = []
        for c in center:
            lo = np.searchsorted(ax, c - size, side="right")
            hi = np.searchsorted(ax, c + size, side="left")
            ranges.append(np.arange(lo, hi, dtype=np.intp))
        return (ranges[0][:, None] * n + ranges[1][None, :]).ravel()
    dx = ax - center[0]
    dy = ax - center[1]
    mask = (dx[:, None] ** 2 + dy[None, :] ** 2) < size**2
    return np.flatnonzero(mask.ravel()).astype(np.intp)


def direct_truncated(kernel, f, epsilon, b=None):
    """O(N^2) evaluation of the truncated operator, node by node."""
    grid = f.grid
    coords = grid.coords
    n = grid.n_nodes
    cell = grid.cell_volume
    fv = f.values
    out = np.zeros(n)
    for i in range(n):
        diff = coords[i] - coords
        rho = np.sqrt(np.sum(diff * diff, axis=1))
        kv = kernel.pointwise(diff)
        mask = rho > epsilon
        if b is None:
            out[i] = cell * math.fsum((kv[mask] * fv[mask]).tolist())
        else:
            contrib = kv[mask] * (b.values[i] - b.values[mask]) * fv[mask]
            out[i] = cell * math.fsum(contrib.tolist())
    return out


def brute_weak_lp(values, masses, p):
    """Weak norm by sweeping lambda just below every distinct value."""
    av = np.abs(np.asarray(values, dtype=float))
    masses = np.asarray(masses, dtype=float)
    best = 0.0
    for v in np.unique(av):
        if v <= 0:
            continue
        lam = np.nextafter(v, 0.0)
        mass = math.fsum(masses[av > lam].tolist())
        best = max(best, lam * mass ** (1.0 / p))
    return best


def brute_luxemburg(values, masses, Y, rel=1e-11):
    """Root of avg Y(|f|/lam) = 1 via scipy brentq."""
    av = np.abs(np.asarray(values, dtype=float))
    masses = np.asarray(masses, dtype=float)
    total = math.fsum(masses.tolist())
    carried = av[masses > 0]
    if total <= 0 or carried.size == 0 or not np.any(carried > 0):
        return 0.0

    def g(lam):
        with np.errstate(over="ignore"):
            return math.fsum((Y(av / lam) * masses).tolist()) / total - 1.0

    hi = float(carried.max()) / 1e-12
    lo = float(carried[carried > 0].min()) * 1e-12
    # g is decreasing; shrink the bracket until the signs straddle zero
    while g(hi) > 0:
        hi *= 4.0
    while g(lo) < 0:
        lo /= 4.0
    # an xtol far below rel * lam leaves the relative tolerance in charge
    return brentq(g, lo, hi, xtol=rel * lo, rtol=rel, maxiter=400)


def brute_bump(u, v, p, r, mode, family):
    """Two-weight bump supremum, one region at a time, as (value, center, size).

    two:     (avg u)^{1/p} (avg v^{1-p'})^{1/p'}
    power:   (avg u^r)^{1/(rp)} (avg v^{(1-p')r})^{1/(rp')}
    orlicz:  (avg u^r)^{1/(rp)} times the brentq Luxemburg norm of v^{-1/p}
             under [t (1 + log+ t)]^{p'}

    Regions without nodes are skipped; the first region attaining the sup
    in size then center order wins.  None when every region is empty.
    """
    grid = u.grid
    pp = p / (p - 1.0)
    if mode == "two":
        r = 1.0

    def bump_young(t):
        return (t * (1.0 + np.log(np.maximum(t, 1.0)))) ** pp

    best = None
    for size in family.sizes:
        for center in family.centers:
            idx = region_nodes(grid, center, size, family.shape)
            if idx.size == 0:
                continue
            uu, vv = u.values[idx], v.values[idx]
            u_side = (math.fsum((uu**r).tolist()) / idx.size) ** (1.0 / (r * p))
            if mode == "orlicz":
                v_side = brute_luxemburg(vv ** (-1.0 / p), np.ones(idx.size), bump_young)
            else:
                v_mean = math.fsum((vv ** ((1.0 - pp) * r)).tolist()) / idx.size
                v_side = v_mean ** (1.0 / (r * pp))
            if best is None or u_side * v_side > best[0]:
                best = (u_side * v_side, center, size)
    return best


def _llogl(t):
    return t * (1.0 + np.log(np.maximum(t, 1.0)))


def brute_maximal(f, regions, kind):
    """Per-node supremum of region averages, accumulated in python.

    hl and sharp average |f| and |f - avg f|; llogl takes the brentq
    Luxemburg norm under t (1 + log+ t).
    """
    grid = f.grid
    out = [-math.inf] * grid.n_nodes
    for region in regions:
        idx = region_nodes(grid, region.center, region.size, region.shape)
        if idx.size == 0:
            continue
        seg = f.values[idx]
        if kind == "hl":
            val = math.fsum(np.abs(seg).tolist()) / idx.size
        elif kind == "llogl":
            val = brute_luxemburg(seg, np.ones(idx.size), _llogl)
        else:  # sharp
            mean = math.fsum(seg.tolist()) / idx.size
            val = math.fsum(np.abs(seg - mean).tolist()) / idx.size
        for i in idx:
            if val > out[i]:
                out[i] = val
    return np.asarray(out)


def brute_characteristic(w, p, family):
    """Muckenhoupt characteristic by direct python loops."""
    grid = w.grid
    wv = w.values
    best = 0.0
    for region in family:
        idx = region_nodes(grid, region.center, region.size, region.shape)
        if idx.size == 0:
            continue
        seg = wv[idx]
        avg = math.fsum(seg.tolist()) / idx.size
        if p == 1.0:
            val = avg / float(seg.min())
        else:
            dual = math.fsum((seg ** (-1.0 / (p - 1.0))).tolist()) / idx.size
            val = avg * dual ** (p - 1.0)
        best = max(best, val)
    return best


def brute_doubling_profile(w, family):
    """(doubling, reverse doubling, comparison exponent, comparison constant,
    pair count) of the measure w dx, one region at a time."""
    grid = w.grid

    def mass(region):
        idx = region_nodes(grid, region.center, region.size, region.shape)
        return math.fsum(w.values[idx].tolist()) * grid.cell_volume

    ratios = []
    chains = {}
    for region in family:
        twice = region.dilate(2.0)
        if twice.fits_box(grid) and mass(region) > 0 and mass(twice) > 0:
            ratios.append(mass(twice) / mass(region))
        if region.fits_box(grid) and mass(region) > 0:
            point = (math.log(region.size), math.log(mass(region)))
            chains.setdefault(region.center, []).append(point)
    chains = [sorted(pts) for pts in chains.values() if len(pts) >= 2]
    num = den = 0.0
    for pts in chains:
        mx = math.fsum(x for x, _ in pts) / len(pts)
        my = math.fsum(y for _, y in pts) / len(pts)
        num += math.fsum((x - mx) * (y - my) for x, y in pts)
        den += math.fsum((x - mx) ** 2 for x, _ in pts)
    delta = num / den
    worst = 0.0
    for pts in chains:
        for i, (xr, yr) in enumerate(pts):
            for xR, yR in pts[i + 1:]:
                worst = max(worst, (yr - yR) - delta * (xr - xR))
    return max(ratios), min(ratios), delta, math.exp(worst), len(ratios)


def brute_bmo(b, family):
    grid = b.grid
    bv = b.values
    best = 0.0
    for region in family:
        idx = region_nodes(grid, region.center, region.size, region.shape)
        if idx.size == 0:
            continue
        seg = bv[idx]
        mean = math.fsum(seg.tolist()) / idx.size
        osc = math.fsum(np.abs(seg - mean).tolist()) / idx.size
        best = max(best, osc)
    return best


def brute_amalgam_strong(f, family, p, alpha, q, w=None, mu=None, variant="strong", argmax=False):
    """Triple loop over sizes, centers, and nodes for the amalgam norm.

    variant strong takes the L^p norm of each region, weak the swept weak
    L^p norm, and llogl the brentq averaged Luxemburg norm under
    t (1 + log+ t) with the measure exponent 1/alpha - 1/q.  With argmax
    the result is (value, size, center): the first size attaining the
    sup, and the first largest center of that size.
    """
    grid = f.grid
    cell = grid.cell_volume
    fv = np.abs(f.values)
    wv = np.ones(grid.n_nodes) if w is None else w.values
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    expo = 1.0 / alpha - inv_q if variant == "llogl" else 1.0 / alpha - 1.0 / p - inv_q
    best = (0.0, None, None)
    for size in family.sizes:
        vals = []
        mus = []
        for center in family.centers:
            idx = region_nodes(grid, center, size, family.shape)
            if idx.size == 0:
                vals.append(0.0)
            else:
                mass = math.fsum(wv[idx].tolist()) * cell
                if variant == "weak":
                    inner = brute_weak_lp(fv[idx], wv[idx] * cell, p)
                elif variant == "llogl":
                    inner = brute_luxemburg(fv[idx], wv[idx] * cell, _llogl)
                else:
                    inner = (math.fsum((fv[idx] ** p * wv[idx]).tolist()) * cell) ** (1.0 / p)
                vals.append(mass**expo * inner if inner > 0 else 0.0)
            if mu is None:
                mus.append(1.0)
            else:
                mus.append(float(mu.values[grid.node_index(center)]))
        if math.isinf(q):
            outer = max(vals)
        else:
            outer = math.fsum(
                (v**q * m * cell for v, m in zip(vals, mus))
            ) ** (1.0 / q)
        if best[1] is None or outer > best[0]:
            best = (outer, size, family.centers[vals.index(max(vals))])
    return best if argmax else best[0]


def brute_morrey(f, family, p, alpha, w=None):
    """Independent Morrey scan: sup over regions of mass^e times local norm."""
    grid = f.grid
    cell = grid.cell_volume
    fv = np.abs(f.values)
    wv = np.ones(grid.n_nodes) if w is None else w.values
    expo = 1.0 / alpha - 1.0 / p
    best = 0.0
    for size in family.sizes:
        for center in family.centers:
            idx = region_nodes(grid, center, size, family.shape)
            if idx.size == 0:
                continue
            mass = math.fsum(wv[idx].tolist()) * cell
            inner = (math.fsum((fv[idx] ** p * wv[idx]).tolist()) * cell) ** (1.0 / p)
            if inner > 0:
                best = max(best, mass**expo * inner)
    return best


def dini_closed_forms(tag, param):
    """Exact Dini integrals for the supported modulus families.

    power delta:  integral of t^{delta-1} is 1/delta,
                  integral of t^{delta-1} |log t| is 1/delta^2.
    log beta:     integral of (1 - log t)^{-beta} / t is 1/(beta-1) for
                  beta > 1, else divergent; with the extra |log t| factor
                  the substitution u = 1 - log t gives
                  1/(beta-2) - 1/(beta-1) for beta > 2, else divergent.
    """
    if tag == "power":
        return 1.0 / param, 1.0 / param**2
    if tag == "log":
        dini = 1.0 / (param - 1.0) if param > 1.0 else math.inf
        log_dini = (
            1.0 / (param - 2.0) - 1.0 / (param - 1.0) if param > 2.0 else math.inf
        )
        return dini, log_dini
    return 0.0, 0.0


def endpoint_level(grid, family, image, f, lam, wgt_vals, vgt_vals, alpha, q, phi, mu_vals=None):
    """Reference endpoint level quantities, mirroring the norm layout.

    Returns (lhs, rhs): the family aggregation of the wgt-mass of the
    exceedance set of image above lam, and of the vgt-weighted mass of
    phi(|f|/lam), both scaled by mass(B)^{1/alpha - 1 - 1/q} and collected
    through the outer q sum and the supremum over sizes.  With mu_vals
    (node values of the outer measure) each center's term in the q sum is
    weighted by mu at the node nearest to that center.
    """
    cell = grid.cell_volume
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    expo = 1.0 / alpha - 1.0 - inv_q
    phi_f = phi(np.abs(f.values) / lam)
    exceed = np.abs(image.values) > lam
    best_l = best_r = 0.0
    for size in family.sizes:
        vals_l = []
        vals_r = []
        for region in family.at_size(size):
            idx = region_nodes(grid, region.center, region.size, region.shape)
            if idx.size == 0:
                vals_l.append(0.0)
                vals_r.append(0.0)
                continue
            mass = cell * float(np.sum(wgt_vals[idx]))
            scale = mass**expo
            m_l = cell * float(np.sum(wgt_vals[idx][exceed[idx]]))
            m_r = cell * float(np.sum(vgt_vals[idx] * phi_f[idx]))
            vals_l.append(scale * m_l if m_l > 0 else 0.0)
            vals_r.append(scale * m_r if m_r > 0 else 0.0)
        if math.isinf(q):
            out_l, out_r = max(vals_l), max(vals_r)
        elif mu_vals is not None:
            mus = [float(mu_vals[grid.node_index(c)]) for c in family.centers]
            out_l = math.fsum(v**q * m * cell for v, m in zip(vals_l, mus)) ** (1.0 / q)
            out_r = math.fsum(v**q * m * cell for v, m in zip(vals_r, mus)) ** (1.0 / q)
        else:
            arr_l = np.asarray(vals_l)
            arr_r = np.asarray(vals_r)
            out_l = float(np.sum(arr_l**q * cell)) ** (1.0 / q)
            out_r = float(np.sum(arr_r**q * cell)) ** (1.0 / q)
        best_l = max(best_l, out_l)
        best_r = max(best_r, out_r)
    return best_l, best_r
