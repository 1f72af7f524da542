"""Acceptance suite: one self-contained check per contract criterion.

Each criterion function takes the master seed and returns a
:class:`CriterionResult`; ``run_all`` executes them in order, prints one
PASS/FAIL line each, and reports overall success.  All randomness derives from
(seed, fixed stream offsets), so a given seed reproduces the suite exactly.

Monte Carlo grid sizes are chosen so that estimator-vs-oracle and
estimator-vs-estimator comparisons happen at matched discretization, with
statistical error dominating quadrature/truncation error; the stated runtime
budgets are enforced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import asymptotics as asy
from . import mc, paths, schrodinger

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

# Stream-id offsets per criterion; keeps all acceptance randomness disjoint.
# A Monte Carlo run draws one stream per batch from its base up (C5(b) and C7
# take 25 each) and C6 two per rep; C5(a) takes 245, so its base comes last.
_STREAM_C3 = 300
_STREAM_C4 = 400
_STREAM_C5B = 520
_STREAM_C6 = 600
_STREAM_C7 = 700
_STREAM_C5A = 1000

# Monte Carlo budgets; each criterion sets the master seed with ``replace``.
_C5A_CONFIG = mc.McConfig(samples=10**6, n_steps=512, stream_base=_STREAM_C5A, workers=2)
_C5B_CONFIG = mc.McConfig(samples=10**5, n_steps=512, stream_base=_STREAM_C5B, workers=2)
# C6 rep r draws its direct sups from stream _STREAM_C6 + 2r, its time-changed ones from the next
_C6_REPS = 3
_C7_CONFIG = mc.McConfig(samples=10**5, n_steps=512, stream_base=_STREAM_C7, workers=2)

_GEOMETRIC_Q = paths.geometric_q(0.5, 50)  # q_j = 2^-j, J = 50


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    label: str
    passed: bool
    detail: str
    seconds: float
    budget_seconds: float

    @property
    def within_budget(self) -> bool:
        return self.seconds < self.budget_seconds


def _finish(cid, label, passed, detail, t0, budget) -> CriterionResult:
    dt = time.perf_counter() - t0
    passed = bool(passed)  # numpy comparisons leak np.bool_, which json rejects
    if dt >= budget:
        passed = False
        detail += f"; RUNTIME {dt:.1f}s exceeded budget {budget:.0f}s"
    return CriterionResult(cid, label, passed, detail, dt, budget)


def criterion_1(seed: int) -> CriterionResult:
    """kappa_2 = 1/8 via the computed ground state."""
    t0 = time.perf_counter()
    lam = schrodinger.lambda1(2.0)
    kap = asy.kappa_p(2.0, lam.value)
    err = abs(kap - 0.125)
    detail = f"kappa_2={kap:.10f}, |err|={err:.2e} (tol 1e-4); lambda1(2)={lam.value:.10f}"
    return _finish("C1", "kappa_2 from the ground state", err <= 1e-4, detail, t0, 5.0)


def criterion_2(seed: int) -> CriterionResult:
    """lambda_1(1) against the Airy-derivative oracle value."""
    t0 = time.perf_counter()
    lam = schrodinger.lambda1(1.0)
    err = abs(lam.value - 0.808617)
    detail = f"lambda1(1)={lam.value:.8f}, |err|={err:.2e} vs 0.808617 (tol 1e-4)"
    return _finish("C2", "lambda_1(1) vs Airy oracle", err <= 1e-4, detail, t0, 5.0)


def criterion_3(seed: int) -> CriterionResult:
    """Tauberian round trip on random orders, plus the cosh-oracle cross-link."""
    t0 = time.perf_counter()
    rng = paths.RngStream(seed, _STREAM_C3).generator()
    worst = 0.0
    for _ in range(1000):
        o = asy.AsymptoticOrder(
            rng.uniform(0.1, 5.0),
            rng.uniform(-3.0, 3.0),
            10.0 ** rng.uniform(-3.0, 3.0),
        )
        back = asy.tauberian_inverse(asy.tauberian_forward(o))
        worst = max(
            worst,
            abs(back.alpha - o.alpha) / o.alpha,
            abs(back.beta - o.beta) / max(1.0, abs(o.beta)),
            abs(back.big_k - o.big_k) / o.big_k,
        )
    lam = 1e8
    slope = -mc.log_laplace(paths.PowerClockSpec(2.0), 1.0, lam)[0] / np.sqrt(lam)
    slope_err = abs(slope - 2.0**-0.5)
    ok = worst <= 1e-12 and slope_err <= 1e-3
    detail = f"round-trip worst rel err {worst:.2e} (tol 1e-12); slope {slope:.8f} vs 1/sqrt2, |err|={slope_err:.2e} (tol 1e-3)"
    return _finish("C3", "Tauberian round trip + cosh cross-link", ok, detail, t0, 1.0)


def criterion_4(seed: int) -> CriterionResult:
    """Constant-consistency: time-change constant equals chaos sup constant."""
    t0 = time.perf_counter()
    rng = paths.RngStream(seed, _STREAM_C4).generator()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        times = np.cumsum(rng.uniform(0.1, 2.0, size=m))
        # interlaced windows a_1 < b_1 <= a_2 < b_2 <= ...
        steps = rng.uniform(0.05, 1.0, size=2 * m)
        edges = np.cumsum(steps)
        windows = tuple((edges[2 * i] if i else 0.0, edges[2 * i + 1]) for i in range(m))
        w = rng.uniform(0.2, 3.0)
        part = asy.Partition(tuple(times), windows)
        ks = 0.125 * w**2 * part.delta_t**2
        b = [win[1] for win in windows]
        lhs = asy.tsb_constant(1.0, 0.0, ks, b)
        rhs = asy.chaos_sup_constant(w, part)
        worst = max(worst, abs(lhs - rhs) / rhs)
    detail = f"worst rel diff {worst:.2e} over 1000 random partitions (tol 1e-12)"
    return _finish("C4", "time-change vs chaos sup constant", worst <= 1e-12, detail, t0, 1.0)


def criterion_5(seed: int) -> CriterionResult:
    """Monte Carlo vs exact oracles, both at matched discretization.

    (a) raw grid-sup estimates for plain Brownian motion at eps 0.5 and 1.0,
        read off one set of sups, against the exact transfer-operator law of
        the grid maximum;
    (b) Laplace-functional estimates for the squared-Brownian clock against
        the exact law of the N = 512 trapezoid clock they sample (z-gate) and
        the closed-form cosh oracle (1% gate; the two oracles differ by 7e-6
        relative at lambda = 10).

    Designed false-fail rate per seed: the two |z| <= 3 gates of (a) are
    plain Monte Carlo, 0.27% each.  (b) draws the clock as randomized
    quasi-Monte Carlo, 25 scrambled nets (24 of 4096 points and one of 1696),
    so its z follows Student's t with 24 degrees of freedom and each of its
    three |z| <= 3 gates fails 0.62% of the time.  That is at most
    2 x 0.27% + 3 x 0.62% ~ 2.4% (the coupled probes of (a), and those of
    (b), are correlated, so the union bound is conservative).  The 1% gates
    no longer bind: the relative SE of (b) is about 1.1e-5, 7.5e-5 and
    2.4e-4 at lambda = 1, 5, 10 (seed 42), so a 1% miss lies 40 SE or more
    from the law.
    """
    t0 = time.perf_counter()
    lines = []
    ok = True

    part = asy.Partition((1.0,), windows=((0.0, 1.0),))
    cfg = replace(_C5A_CONFIG, seed=seed)
    eps_a = (0.5, 1.0)
    for eps, est in zip(eps_a, mc.probe_smallball_raw(paths.BrownianProcess(), part, eps_a, cfg)):
        exact = mc.sup_bm_grid_cdf(eps, cfg.n_steps)
        z = (est.estimate - exact) / est.std_error
        ok &= abs(z) <= 3.0
        lines.append(
            f"raw eps={eps}: est={est.estimate:.6f} grid-exact={exact:.6f} z={z:+.2f} "
            f"(continuous {asy.sup_bm_cdf(eps):.6f})"
        )

    clock = paths.PowerClockSpec(p=2.0)
    part1 = asy.Partition((1.0,))
    cfg = replace(_C5B_CONFIG, seed=seed)
    lams = (1.0, 5.0, 10.0)
    ests = mc.estimate_laplace_multi(clock, part1, lams, cfg)
    matched_law = np.exp(mc.log_laplace(clock, 1.0, lams, cfg.n_steps))
    exact_law = np.exp(mc.log_laplace(clock, 1.0, lams))
    for lam, est, matched, exact in zip(lams, ests, matched_law, exact_law):
        z = (est.estimate - matched) / est.std_error
        rel = abs(est.estimate - exact) / exact
        ok &= abs(z) <= 3.0 and rel <= 0.01
        lines.append(
            f"laplace lam={lam:g}: est={est.estimate:.6f} matched={matched:.6f} z={z:+.2f}; "
            f"exact={exact:.6f} rel={rel:.2e} (tol 1e-2)"
        )

    return _finish("C5", "Monte Carlo vs exact oracles", ok, "; ".join(lines), t0, 180.0)


def criterion_6(seed: int) -> CriterionResult:
    """Distributional identity between the chaos integral and its time change.

    Two-sample KS between sup |Z| from direct simulation and from the
    time-changed representation over the matching chaos clock, at matched
    grid resolution; passes at the 1% critical value in >= 2 of 3 streams.

    Designed false-fail rate per seed: with each rep failing 1% of the time
    and reps independent, at least two of three fail with probability
    3 (0.01)^2 (0.99) + (0.01)^3 ~ 3.0e-4.  That holds while the two grid laws
    agree; an O(1/N) mismatch between the samplers would raise it.
    """
    t0 = time.perf_counter()
    n = 20_000
    n_steps = 512
    spec = paths.ChaosClockSpec(_GEOMETRIC_Q)
    direct = paths.ChaosDirectProcess(spec)
    changed = paths.TimeChangedProcess(spec)
    crit = mc.ks_critical_value(n, n, 0.01)
    passes = 0
    stats = []

    def sups(side):
        process, stream = side
        return paths.sup_samples(process, (1.0,), n_steps, n, paths.RngStream(seed, stream))[:, 0]

    # the two sides of a rep draw from their own streams, so running them at once changes no bit
    for rep in range(_C6_REPS):
        a, b = mc._parallel_map(sups, [(direct, _STREAM_C6 + 2 * rep), (changed, _STREAM_C6 + 2 * rep + 1)], 2)
        d, p = mc.ks_two_sample(a, b)
        stats.append(f"rep{rep}: D={d:.5f} p={p:.3f}")
        passes += d < crit
    ok = passes >= 2
    detail = f"KS 1% critical={crit:.5f}, n={n} each, N={n_steps}; " + "; ".join(stats) + f"; {passes}/{_C6_REPS} pass"
    return _finish("C6", "representation: direct chaos vs time change", ok, detail, t0, 300.0)


def criterion_7(seed: int) -> CriterionResult:
    """First-order sup constant recovered by conditional Monte Carlo.

    Probes P(sup_{[0,1]}|Z| <= eps) on a decreasing eps grid for the geometric
    chaos clock (trace norm 2).  Each probe sits within 3 SE of the exact law
    at its own grid (``log_smallball`` with n_steps).  The empirical
    constant at the smallest eps is within 30% of (pi/4) * 2, with the gap to
    the extrapolated limit contracting along the grid.  For this clock
    prod_j cosh(x 2^-j) = sinh(x)/x (Levy's area formula), so K_hat(eps) =
    pi/2 - eps log(4/eps) up to O(eps exp(-2 pi/eps)): K_hat(0.1) + 0.1 log 40
    sits within 3 delta-method SEs, eps SE(p)/p, of pi/2.

    Designed false-fail rate per seed: the probes draw the clock as
    randomized quasi-Monte Carlo, 25 scrambled nets (24 of 4096 points and
    one of 1696), so their z, and the second-order gate's, follow Student's
    t with 24 degrees of freedom.  Six |z| <= 3 gates (five probes and the
    second-order gate) at 0.62% each fail at most 6 x 0.62% ~ 3.7% of seeds
    (the coupled probes are correlated, so the union bound is
    conservative).  The 30% gate and the contracting gaps are deterministic
    in effect: K_hat(0.1) has mean pi/2 - 0.1 log 40 (23.5% low) and SE
    about 0.004, more than 10 SE from the 30% bound, and adjacent gaps
    differ by more than 10 SE.
    """
    t0 = time.perf_counter()
    spec = paths.ChaosClockSpec(_GEOMETRIC_Q)
    target = np.pi / 4.0 * 2.0
    cfg = replace(_C7_CONFIG, seed=seed)
    eps_grid = (0.4, 0.3, 0.2, 0.15, 0.1)
    probes = mc.probe_smallball_conditional(spec, 1.0, eps_grid, cfg)
    exact = np.exp(mc.log_smallball(spec, 1.0, eps_grid, cfg.n_steps))
    zs = [(r.estimate - p) / r.std_error for r, p in zip(probes, exact)]
    ext = mc.extract_constant(eps_grid, probes, (1.0, 0.0))
    k_last = ext.k_hat[-1]
    rel = abs(k_last - target) / target
    eps = eps_grid[-1]
    second = (k_last + eps * np.log(4.0 / eps) - target) / ext.k_hat_se[-1]
    ok = max(map(abs, zs)) <= 3.0 and rel <= 0.30 and abs(second) <= 3.0
    ok = ok and ext.gaps_non_increasing and not ext.dropped
    detail = (
        f"K_hat={[f'{k:.4f}' for k in ext.k_hat]} at eps={list(ext.epsilons)}; "
        f"z vs matched N={cfg.n_steps} law={[f'{z:+.2f}' for z in zs]} (tol 3); "
        f"K_hat({eps:g})={k_last:.4f} vs {target:.4f} (rel {rel:.1%}, tol 30%); "
        f"K_hat({eps:g}) + {eps:g} log(4/{eps:g}) - pi/2 = {second:+.2f} SE (tol 3); "
        f"extrapolated={ext.extrapolated:.4f}; gaps={[f'{g:.4f}' for g in ext.gaps]} "
        f"non-increasing: {ext.gaps_non_increasing}"
    )
    return _finish("C7", "first-order constant via conditional MC", ok, detail, t0, 600.0)


def criterion_8(seed: int) -> CriterionResult:
    """Geometric weighted-sum constant against the product Laplace oracle."""
    t0 = time.perf_counter()
    base = asy.AsymptoticOrder(1.0, 0.0, 0.125)
    combined = asy.weighted_sum_constant(base, asy.WeightSequenceSpec.geometric(0.25))
    image = asy.tauberian_forward(asy.AsymptoticOrder(1.0, 0.0, combined))
    lam = 1e8
    slope = -mc.log_laplace(paths.ChaosClockSpec(_GEOMETRIC_Q), 1.0, lam)[0] / np.sqrt(lam)
    rel = abs(slope - image.big_l) / image.big_l
    detail = (
        f"combined K={combined:.10f} (exact 1/2), Laplace image L={image.big_l:.10f} (exact sqrt2); "
        f"product-oracle slope at lam=1e8: {slope:.6f}, rel diff {rel:.2e} (tol 1%)"
    )
    return _finish("C8", "geometric weighted-sum constant vs product oracle", rel <= 0.01, detail, t0, 1.0)


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
]


def run_all(seed: int = 42, only=None) -> list[CriterionResult]:
    """Run the acceptance criteria in order, printing one line per criterion.

    ``only`` selects criterion ids (C1-C8); an unknown id raises ValueError
    before anything runs.
    """
    selected = set(only) if only else None
    cids = [fn.__name__.replace("criterion_", "C") for fn in CRITERIA]
    if selected is not None and not selected <= set(cids):
        unknown = ", ".join(map(repr, sorted(selected - set(cids))))
        raise ValueError(f"unknown criterion id(s) {unknown}; choose from {', '.join(cids)}")
    results = []
    for cid, fn in zip(cids, CRITERIA):
        if selected is not None and cid not in selected:
            continue
        res = fn(seed)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.cid} {res.label}: {res.detail} [{res.seconds:.1f}s / budget {res.budget_seconds:.0f}s]")
        results.append(res)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed (seed {seed})")
    return results

