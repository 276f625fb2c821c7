"""Brute-force verification lab for the inequalities behind the testers.

Everything here is exact enumeration or Monte-Carlo at small dimension:
chain rule for total variation under random restrictions, hypercube edge
classification and greedy orientations, the robust Pisier inequality (as
a reported ratio; its universal constant is unspecified), Khintchine's
inequality, the graph-to-mean and contributing-pair lower bounds, the
restriction-theorem probe, and the mean/variance bands of the pairing
statistic Z.

Verifiers return report objects; the test suite (not this module) turns
them into assertions, so a failing inequality shows up as a test failure
with the offending parameters, never as a silent skip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blowup import gram_moments
from .meantest import _numerators
from .model import (
    DensePmf,
    Restriction,
    all_sign_points,
    bit_powers,
    conditional_table,
    indices_to_points,
    points_to_indices,
    project,
    tv_to_uniform,
    uniform_signs,
)

CHAIN_RULE_CAP = 10
PROBE_CAP = 8
ORIENTATION_CAP = 14
PISIER_EXACT_CAP = 10
PISIER_MC_MIN_DRAWS = 100_000
KHINTCHINE_CAP = 20

ZERO, UNEVEN, SCALE = 0, 1, 2


@dataclass
class InequalityReport:
    lhs: float
    rhs: float
    ratio: float
    context: dict = field(default_factory=dict)


@dataclass
class VerifierReport:
    ok: bool
    cases: int
    nonvacuous: int
    failures: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def random_dense_pmf(rng: np.random.Generator, n: int, alpha: float = 0.3) -> DensePmf:
    """Random dense PMF; small alpha concentrates mass (more uneven edges)."""
    return DensePmf(n, rng.dirichlet(np.full(1 << n, alpha)))


# ---------------------------------------------------------------------------
# Chain rule and restriction probe


def _subset_terms(p: DensePmf, stars: tuple[int, ...]):
    """For a fixed star set: (projection tv, conditional-tv average,
    restriction-mean-norm average), all exact."""
    n = p.n
    fixed = [i for i in range(n) if i not in stars]
    k, f = len(stars), len(fixed)
    table = (
        p.mass.reshape((2,) * n).transpose(fixed + list(stars)).reshape(1 << f, 1 << k)
    )
    row_mass = table.sum(axis=1)
    proj_tv = 0.5 * np.abs(row_mass - 2.0**-f).sum()
    live = row_mass > 0.0
    cond = np.zeros_like(table)
    cond[live] = table[live] / row_mass[live, None]
    cond_tv = 0.5 * np.abs(cond - 2.0**-k).sum(axis=1)
    cond_term = float((row_mass * cond_tv).sum())
    mu_rows = cond @ all_sign_points(k).astype(np.float64) if k else np.zeros((1 << f, 0))
    norm_term = float((row_mass * np.linalg.norm(mu_rows, axis=1)).sum())
    return float(proj_tv), cond_term, norm_term


def _sigma_sweep(p: DensePmf, sigma: float, cap: int, name: str):
    """The three ``_subset_terms``, each summed exactly over star sets drawn
    i.i.d. with probability sigma and weighted by their probability."""
    if p.n > cap:
        raise ValueError(f"{name} needs n <= {cap}")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    proj_total = cond_total = norm_total = 0.0
    for mask in range(1 << p.n):
        stars = tuple(i for i in range(p.n) if mask & (1 << i))
        w = sigma ** len(stars) * (1.0 - sigma) ** (p.n - len(stars))
        if w == 0.0:
            continue
        proj_tv, cond_term, norm_term = _subset_terms(p, stars)
        proj_total += w * proj_tv
        cond_total += w * cond_term
        norm_total += w * norm_term
    return proj_total, cond_total, norm_total


def verify_chain_rule(p: DensePmf, sigma: float) -> InequalityReport:
    """dtv(p, U) <= E_S[dtv(p_projected, U)] + E_rho[dtv(p_restricted, U)],
    with both expectations over stars drawn i.i.d. with probability sigma
    and the non-stars filled from p, all evaluated exactly."""
    proj_total, cond_total, _ = _sigma_sweep(p, sigma, CHAIN_RULE_CAP, "exact chain-rule check")
    lhs = tv_to_uniform(p)
    rhs = proj_total + cond_total
    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return InequalityReport(
        lhs, rhs, ratio, {"n": p.n, "sigma": sigma, "proj": proj_total, "cond": cond_total}
    )


def probe_restriction_theorem(p: DensePmf, sigma: float) -> InequalityReport:
    """lhs = E_rho ||mu(p_restricted)||_2, rhs = sigma * E_S dtv(p_projected, U);
    reported only: the comparison hides unspecified polylog factors, so no
    threshold is asserted here."""
    proj_total, _, mean_total = _sigma_sweep(p, sigma, PROBE_CAP, "restriction probe")
    rhs = sigma * proj_total
    ratio = mean_total / rhs if rhs > 0.0 else 0.0
    return InequalityReport(
        mean_total, rhs, ratio, {"n": p.n, "sigma": sigma, "proj": proj_total}
    )


# ---------------------------------------------------------------------------
# Edge classification and orientation


@dataclass
class OrientedGraphs:
    """Classification and orientation of all m 2^(m-1) hypercube edges of a
    nonnegative vertex function (a PMF over {-1,1}^m).

    Edges are stored flat; `edge_row[x, i]` maps a vertex and coordinate to
    the row shared by both endpoints. Classes: zero (equal values), uneven
    (weight >= 2/3, oriented from the larger value), scale kappa
    (2^-kappa < weight <= 2^-kappa+1, oriented by a greedy max-degree
    deletion ordering). Zero edges are oriented from the lexicographically
    smaller endpoint.
    """

    m: int
    u: np.ndarray
    v: np.ndarray
    coord: np.ndarray
    weight: np.ndarray
    cls: np.ndarray
    kappa: np.ndarray
    source: np.ndarray
    edge_row: np.ndarray
    orderings: dict

    def record(self, x: int, i: int) -> dict:
        row = int(self.edge_row[x, i])
        return {
            "row": row,
            "u": int(self.u[row]),
            "v": int(self.v[row]),
            "coord": int(self.coord[row]),
            "weight": float(self.weight[row]),
            "cls": int(self.cls[row]),
            "kappa": int(self.kappa[row]),
            "source": int(self.source[row]),
        }

    def directed_from(self, x: int, i: int) -> bool:
        return int(self.source[self.edge_row[x, i]]) == int(x)

    def out_mask(self) -> np.ndarray:
        """Boolean (2^m, m): entry [x, i] says the edge at (x, coord i) is
        oriented out of x."""
        return self.source[self.edge_row] == np.arange(1 << self.m)[:, None]

    def out_degrees(self, cls: int, kappa: int | None = None) -> np.ndarray:
        sel = self.cls == cls
        if kappa is not None:
            sel &= self.kappa == kappa
        return np.bincount(self.source[sel], minlength=1 << self.m)

    def class_counts(self) -> dict:
        counts = {"zero": int((self.cls == ZERO).sum()), "uneven": int((self.cls == UNEVEN).sum())}
        for k in sorted(self.orderings):
            counts[f"scale_{k}"] = int(((self.cls == SCALE) & (self.kappa == k)).sum())
        return counts

    def scales(self) -> list[int]:
        return sorted(self.orderings)


def _degrees_and_neighbors(
    n_vertices: int, edges_u: np.ndarray, edges_v: np.ndarray
) -> tuple[np.ndarray, list[list[int]]]:
    deg = np.zeros(n_vertices, dtype=np.int64)
    np.add.at(deg, edges_u, 1)
    np.add.at(deg, edges_v, 1)
    neighbors: list[list[int]] = [[] for _ in range(n_vertices)]
    for a, b in zip(edges_u.tolist(), edges_v.tolist()):
        neighbors[a].append(b)
        neighbors[b].append(a)
    return deg, neighbors


def greedy_ordering(n_vertices: int, edges_u: np.ndarray, edges_v: np.ndarray) -> np.ndarray:
    """Deletion positions (0-based) from repeatedly removing a maximum-degree
    vertex, ties broken toward the smallest vertex index."""
    work, neighbors = _degrees_and_neighbors(n_vertices, edges_u, edges_v)
    pos = np.empty(n_vertices, dtype=np.int64)
    for step in range(n_vertices):
        x = int(np.argmax(work))  # first maximum = smallest index
        pos[x] = step
        work[x] = -1
        for y in neighbors[x]:
            if work[y] >= 0:
                work[y] -= 1
    return pos


def greedy_ordering_valid(
    n_vertices: int, edges_u: np.ndarray, edges_v: np.ndarray, pos: np.ndarray
) -> bool:
    """Replay a deletion sequence and confirm each removed vertex had
    maximal residual degree at its removal step."""
    deg, neighbors = _degrees_and_neighbors(n_vertices, edges_u, edges_v)
    order = np.argsort(pos)
    alive = np.ones(n_vertices, dtype=bool)
    for x in order:
        if deg[x] != deg[alive].max():
            return False
        alive[x] = False
        deg[x] = -1
        for y in neighbors[x]:
            if alive[y]:
                deg[y] -= 1
    return True


def build_orientation(ell: DensePmf) -> OrientedGraphs:
    m = ell.n
    if m > ORIENTATION_CAP:
        raise ValueError(f"orientation needs m <= {ORIENTATION_CAP}")
    n_v = 1 << m
    mass = ell.mass
    ids = np.arange(n_v, dtype=np.int64)
    powers = bit_powers(m)
    us, vs, coords = [], [], []
    for i in range(m):
        base = ids[(ids & powers[i]) == 0]
        us.append(base)
        vs.append(base | powers[i])
        coords.append(np.full(base.size, i, dtype=np.int64))
    u = np.concatenate(us) if m else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if m else np.empty(0, dtype=np.int64)
    coord = np.concatenate(coords) if m else np.empty(0, dtype=np.int64)

    lu, lv = mass[u], mass[v]
    zero = lu == lv
    mx = np.maximum(lu, lv)
    weight = np.zeros(u.size)
    np.divide(np.abs(lu - lv), mx, out=weight, where=~zero)
    cls = np.full(u.size, SCALE, dtype=np.int64)
    cls[zero] = ZERO
    cls[~zero & (weight >= 2.0 / 3.0)] = UNEVEN

    kappa = np.zeros(u.size, dtype=np.int64)
    rem = cls == SCALE
    k = 1
    while rem.any():
        sel = rem & (weight > 2.0**-k)
        kappa[sel] = k
        rem &= ~sel
        k += 1

    source = u.copy()  # zero edges: lexicographically smaller endpoint
    une = cls == UNEVEN
    source[une] = np.where(lu[une] > lv[une], u[une], v[une])

    orderings: dict[int, np.ndarray] = {}
    for k in sorted(set(kappa[cls == SCALE].tolist())):
        sel = (cls == SCALE) & (kappa == k)
        pos = greedy_ordering(n_v, u[sel], v[sel])
        orderings[k] = pos
        source[sel] = np.where(pos[u[sel]] < pos[v[sel]], u[sel], v[sel])

    edge_row = np.empty((n_v, m), dtype=np.int64)
    rows = np.arange(u.size, dtype=np.int64)
    edge_row[u, coord] = rows
    edge_row[v, coord] = rows
    return OrientedGraphs(m, u, v, coord, weight, cls, kappa, source, edge_row, orderings)


def count_directed_into(graphs: OrientedGraphs, kappa: int, big_u, v: int) -> int:
    """Number of scale-kappa edges directed from a vertex of big_u into v."""
    big_u = set(int(x) for x in big_u)
    powers = bit_powers(graphs.m)
    incoming = 0
    for i in range(graphs.m):
        nb = int(v ^ powers[i])
        if nb not in big_u:
            continue
        rec = graphs.record(nb, i)
        if rec["cls"] == SCALE and rec["kappa"] == kappa and rec["source"] == nb:
            incoming += 1
    return incoming


def check_greedy_property(
    graphs: OrientedGraphs, kappa: int, big_u, v: int, g: int
) -> bool:
    """With every u in U having out-degree <= g at scale kappa and v outside
    U, the number of scale-kappa edges directed from U into v is at most g.
    Triples violating the precondition are vacuously true."""
    big_u = set(int(x) for x in big_u)
    if int(v) in big_u:
        return True
    out_deg = graphs.out_degrees(SCALE, kappa)
    if any(out_deg[x] > g for x in big_u):
        return True
    return count_directed_into(graphs, kappa, big_u, int(v)) <= g


# ---------------------------------------------------------------------------
# Robust Pisier and Khintchine


def evaluate_robust_pisier(
    ell: DensePmf, *, s: float = 1.0, rng: np.random.Generator | None = None
) -> InequalityReport:
    """lhs = (E_x |f(x)|^s)^(1/s) with f = 2^m ell - 1; rhs the oriented
    derivative sum of the robust inequality on ell's orientation (by rng's
    draws past m = PISIER_EXACT_CAP). Reports lhs / (rhs ln m); asserts
    nothing (the inequality's constant is unspecified)."""
    if s < 1.0:
        raise ValueError("s must be >= 1")
    m = ell.n
    graphs = build_orientation(ell)
    n_v = 1 << m
    f = n_v * ell.mass - 1.0
    pts = all_sign_points(m).astype(np.float64)
    partner_f = f[(np.arange(n_v)[:, None] ^ bit_powers(m)[None, :])]
    delta = 0.5 * (f[:, None] - partner_f)
    c = pts * delta * graphs.out_mask()
    lhs = float(np.mean(np.abs(f) ** s) ** (1.0 / s))
    if m <= PISIER_EXACT_CAP:
        sums = c @ pts.T  # [x, y] -> sum_i y_i x_i delta_i f(x) over out-edges
        rhs = float(np.mean(np.abs(sums) ** s) ** (1.0 / s))
        mode = "exact"
    else:
        if rng is None:
            raise ValueError(f"m > {PISIER_EXACT_CAP} needs an rng for Monte-Carlo")
        xs = rng.integers(0, n_v, size=PISIER_MC_MIN_DRAWS)
        ys = uniform_signs(rng, (PISIER_MC_MIN_DRAWS, m))
        sums = (c[xs] * ys).sum(axis=1)
        rhs = float(np.mean(np.abs(sums) ** s) ** (1.0 / s))
        mode = "monte-carlo"
    scale = math.log(max(m, 2))
    if rhs > 0.0:
        ratio = lhs / (rhs * scale)
    else:
        ratio = math.inf if lhs > 0.0 else 0.0
    return InequalityReport(lhs, rhs, ratio, {"m": m, "s": s, "mode": mode})


def khintchine_lhs(a: np.ndarray) -> float:
    """Exact E_{y ~ {-1,1}^m} |<y, a>| by sign enumeration (m <= 20)."""
    a = np.asarray(a, dtype=np.float64)
    m = a.size
    if m > KHINTCHINE_CAP:
        raise ValueError(f"exact enumeration needs m <= {KHINTCHINE_CAP}")
    if m == 0:
        return 0.0
    total = 0.0
    chunk = 1 << 16
    for lo in range(0, 1 << m, chunk):
        signs = indices_to_points(np.arange(lo, min(lo + chunk, 1 << m)), m)
        total += float(np.abs(signs.astype(np.float64) @ a).sum())
    return total / (1 << m)


def verify_khintchine(a: np.ndarray, tol: float = 1e-12) -> bool:
    return khintchine_lhs(a) <= float(np.linalg.norm(a)) + tol


# ---------------------------------------------------------------------------
# Graph-to-mean and contributing pairs


def _restriction_from_sequence(stars, y: np.ndarray) -> Restriction:
    cells = np.asarray(y, dtype=np.int8).copy()
    cells[list(stars)] = 0
    return Restriction(cells)


def _conditional_mean_at(p: DensePmf, rho: Restriction, coord: int) -> float:
    """mu(p_|rho)_coord, exact; 0 for zero-mass subcubes."""
    table, mass = conditional_table(p, rho)
    if mass == 0.0:
        return 0.0
    stars = rho.stars.tolist()
    pos = stars.index(coord)
    signs = all_sign_points(len(stars))[:, pos].astype(np.float64)
    return float(table @ signs)


def _directed_edge_class(p, cache: dict, t_set: frozenset, y: np.ndarray, coord: int):
    """Class/kappa of the directed edge (y projected on the complement of
    t_set, coord), or None when the edge points the other way."""
    entry = cache.get(t_set)
    if entry is None:
        tbar = [i for i in range(p.n) if i not in t_set]
        graphs = build_orientation(project(p, tbar))
        entry = (graphs, tbar)
        cache[t_set] = entry
    graphs, tbar = entry
    z_idx = int(points_to_indices(y[tbar]))
    i_pos = tbar.index(coord)
    rec = graphs.record(z_idx, i_pos)
    if rec["source"] != z_idx:
        return None
    return rec


def verify_graph_to_mean(
    p: DensePmf, t: int, trials: int, rng: np.random.Generator, tol: float = 1e-12
) -> VerifierReport:
    """For random (pi, y, i): when the directed edge (y restricted to the
    complement of S(pi minus i), pi(i)) is uneven, the conditional mean of
    p under rho(pi, y) at pi(i) has magnitude >= 1/3; at scale kappa,
    >= 2^(-kappa-1)."""
    n = p.n
    if n > PROBE_CAP:
        raise ValueError(f"graph-to-mean check needs n <= {PROBE_CAP}")
    if not 1 <= t + 1 <= n:
        raise ValueError("need 1 <= t+1 <= n")
    cache: dict = {}
    nonvac = 0
    failures = []
    for _ in range(trials):
        pi = rng.choice(n, size=t + 1, replace=False)
        y = p.sample(rng, 1)[0]
        i = int(rng.integers(t + 1))
        t_set = frozenset(int(c) for k, c in enumerate(pi) if k != i)
        rec = _directed_edge_class(p, cache, t_set, y, int(pi[i]))
        if rec is None or rec["cls"] == ZERO:
            continue
        bound = 1.0 / 3.0 if rec["cls"] == UNEVEN else 2.0 ** (-rec["kappa"] - 1)
        rho = _restriction_from_sequence(pi, y)
        mu = _conditional_mean_at(p, rho, int(pi[i]))
        nonvac += 1
        if abs(mu) < bound - tol:
            failures.append(
                {"pi": pi.tolist(), "i": i, "mu": mu, "bound": bound, "rec": rec}
            )
    return VerifierReport(not failures, trials, nonvac, failures, {"t": t})


def verify_contributing_bias(
    p: DensePmf, trials: int, rng: np.random.Generator, tol: float = 1e-12
) -> VerifierReport:
    """For random (pi, y, i, j) with both index-removed directed edges
    uneven: the conditional mean of p under rho(pi minus i, y) at pi(j)
    has magnitude >= 1/20."""
    n = p.n
    if n > PROBE_CAP:
        raise ValueError(f"contributing-pair check needs n <= {PROBE_CAP}")
    if n < 2:
        raise ValueError("need n >= 2")
    cache: dict = {}
    nonvac = 0
    failures = []
    for _ in range(trials):
        t = int(rng.integers(1, n))  # t+1 <= n
        pi = rng.choice(n, size=t + 1, replace=False)
        y = p.sample(rng, 1)[0]
        i, j = rng.choice(t + 1, size=2, replace=False)
        i, j = int(i), int(j)
        set_i = frozenset(int(c) for k, c in enumerate(pi) if k != i)
        rec_i = _directed_edge_class(p, cache, set_i, y, int(pi[i]))
        if rec_i is None or rec_i["cls"] != UNEVEN:
            continue
        set_j = frozenset(int(c) for k, c in enumerate(pi) if k != j)
        rec_j = _directed_edge_class(p, cache, set_j, y, int(pi[j]))
        if rec_j is None or rec_j["cls"] != UNEVEN:
            continue
        stars_minus_i = [int(c) for k, c in enumerate(pi) if k != i]
        rho = _restriction_from_sequence(stars_minus_i, y)
        mu = _conditional_mean_at(p, rho, int(pi[j]))
        nonvac += 1
        if abs(mu) < 1.0 / 20.0 - tol:
            failures.append({"pi": pi.tolist(), "i": i, "j": j, "mu": mu})
    return VerifierReport(not failures, trials, nonvac, failures, {})


# ---------------------------------------------------------------------------
# Mean/variance bands for the pairing statistic


def verify_variance_bound(
    p: DensePmf, q: int, batches: int, rng: np.random.Generator, level: int = 0
) -> VerifierReport:
    """Empirical mean of Z within 4 SE of ||mu(bl^level p)||^2 and empirical
    variance below (1/q^2)||Sigma||_F^2 + (4/q)||mu||^2 ||Sigma||_F + 4 SE
    (moment matrices of the level-0 distribution; bands at higher levels
    use the blown-up exact moments)."""
    if p.n > 6:
        raise ValueError("variance check needs n <= 6")

    mu_sq, frob_sq = gram_moments(p, level)
    frob = math.sqrt(frob_sq)
    bound = frob_sq / q**2 + 4.0 / q * mu_sq * frob

    # each batch's Z from the testers' own exact statistic, over one draw
    # that is checked once
    z = np.array(_numerators(p.sample(rng, (2 * q) * batches), q, level)) / q**2

    z_mean = float(z.mean())
    z_var = float(z.var(ddof=1))
    se_mean = float(z.std(ddof=1) / math.sqrt(batches))
    centered = z - z_mean
    m4 = float((centered**4).mean())
    se_var = math.sqrt(max(m4 - z_var**2, 0.0) / batches)

    mean_ok = abs(z_mean - mu_sq) <= 4.0 * se_mean + 1e-12
    var_ok = z_var <= bound + 4.0 * se_var + 1e-12
    extras = {
        "mu_sq": mu_sq,
        "frob_sq": frob_sq,
        "bound": bound,
        "z_mean": z_mean,
        "z_var": z_var,
        "se_mean": se_mean,
        "se_var": se_var,
        "level": level,
    }
    failures = [] if (mean_ok and var_ok) else [extras]
    return VerifierReport(mean_ok and var_ok, batches, batches, failures, extras)
