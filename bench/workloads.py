"""The four benchmark workloads: inputs, operations and output checks.

A workload runs in rounds.  Every round attempts the same operations; an
operation is one ``smallball.cli.main`` invocation or one oracle call.  Monte
Carlo rounds pass the CLI a seed derived from (benchmark seed, round index),
so each round samples afresh while the run as a whole is fixed by the seed.
The exact-oracle inputs are drawn once from the seed and repeat every round.

Checks compare outputs with ``reference`` (computed apart from the package)
or with properties the method must have.  Light-tailed estimates must lie
within ``Z`` exact standard errors of their reference; the standard errors come
from the reference law, not from the estimate, so a low estimate cannot shrink
its own error bar.

``reference`` (mpmath, scipy.optimize) is imported only where references are
computed, so that ``setup_s`` times the package's import and the inputs alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from smallball import asymptotics, cli, mc, paths, schrodinger

# Two-sided z bound for estimates whose single samples cannot move the mean
# by this many standard errors; false-alarm rate per check ~2e-9.
Z = 6.0

GEOMETRIC_Q = paths.geometric_q(0.5, 50)  # q_j = 2^-j, J = 50: ||w||_1 = 2
GRID_EPS = 0.5  # sup_bm_grid_cdf cost grows with eps; one fixed value keeps rounds equal


def round_seed(seed: int, index: int) -> int:
    """The CLI seed of round ``index``, a pure function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_cli(argv: list[str]) -> int:
    """One CLI invocation with its human-readable stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


@dataclass
class Op:
    """One operation; ``ok`` says whether its return value means success."""

    label: str
    call: Callable[[], Any]
    ok: Callable[[Any], bool] = lambda result: True


def cli_op(label: str, argv: list[str]) -> Op:
    return Op(label, lambda: run_cli(argv), lambda code: code == 0)


@dataclass(frozen=True)
class ZCheck:
    """An estimate against its reference, with the exact standard error of one round."""

    label: str
    estimate: float
    reference: float
    se: float
    bound: float
    lower_only: bool = False  # only a shortfall counts, e.g. grid sups against a continuous law

    def error(self, rounds: int = 1) -> str | None:
        """A message if the estimate, averaged over ``rounds`` rounds, is out of bounds."""
        z = (self.estimate - self.reference) / (self.se / math.sqrt(rounds))
        if -self.bound <= z and (self.lower_only or z <= self.bound):
            return None
        return (
            f"{self.label}: estimate {self.estimate:.6g} over {rounds} round(s) vs reference "
            f"{self.reference:.6g}, z={z:+.2f} beyond {self.bound:.3g}"
        )


def pooled(rounds: list[list[ZCheck]]) -> list[ZCheck]:
    """Each check with its estimate averaged over independent rounds."""
    return [
        ZCheck(c[0].label, statistics.fmean(x.estimate for x in c), c[0].reference, c[0].se, c[0].bound, c[0].lower_only)
        for c in zip(*rounds)
    ]


class Workload:
    """Inputs, per-round operations, output capture and checks of one workload."""

    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def references(self) -> None:
        """Compute the reference values the checks use (outside any timing)."""

    def ops(self, index: int, tag: str) -> list[Op]:
        raise NotImplementedError

    def outputs(self, index: int, tag: str, results: list) -> list[bytes]:
        """What the round produced, as bytes compared across traced and untraced rounds."""
        raise NotImplementedError

    def check(self, outputs: list[bytes], results: list) -> list[str]:
        """Messages for every output that fails a check other than a z check."""
        raise NotImplementedError

    def z_checks(self, outputs: list[bytes]) -> list[ZCheck]:
        """Estimates with a reference; checked per round and pooled over the run."""
        return []

    def reference_estimate(self, outputs: list[bytes]) -> tuple[float, float] | None:
        """(estimate, standard error) behind ``time_to_1pct_s``; None if exact."""
        return None


class CliWorkload(Workload):
    """A workload of CLI invocations, each writing an ``--output`` JSON record."""

    commands: list[tuple[str, list[str]]]  # (label, argv without --seed and --output)

    def _path(self, index: int, tag: str, k: int) -> Path:
        return self.out_dir / f"{self.name}-{tag}-{k}.json"

    def ops(self, index: int, tag: str) -> list[Op]:
        seed = str(round_seed(self.seed, index))
        return [
            cli_op(label, argv + ["--seed", seed, "--output", str(self._path(index, tag, k))])
            for k, (label, argv) in enumerate(self.commands)
        ]

    def outputs(self, index: int, tag: str, results: list) -> list[bytes]:
        return [self._path(index, tag, k).read_bytes() for k in range(len(self.commands))]

    @staticmethod
    def records(outputs: list[bytes]) -> list[dict]:
        return [json.loads(raw) for raw in outputs]


class ChaosProbe(CliWorkload):
    """Conditional small-ball probes of the geometric chaos clock (shape of C7)."""

    name = "chaos-probe"
    eps = (0.4, 0.2, 0.1)

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        self.samples = 64 if tiny else 512
        self.n_steps = 64 if tiny else 512
        self.commands = [(
            "smallball --conditional --clock chaos",
            ["smallball", "--conditional", "--clock", "chaos", "--q-ratio", "0.5", "--q-terms", "50",
             "--n-steps", str(self.n_steps), "--samples", str(self.samples), "--workers", "2",
             "--eps", *map(str, self.eps), "--extract", "1", "0"],
        )]

    def references(self):
        import reference

        q = np.asarray(GEOMETRIC_Q)
        mu = reference.trapezoid_clock_eigenvalues(self.n_steps)
        self.ref = []
        for e in self.eps:
            mean, var = reference.matched_chaos_smallball(e, q, mu)
            bound = reference.conditional_z_bound(e, q, mu, self.samples)
            self.ref.append((mean, math.sqrt(var / self.samples), bound))

    def check(self, outputs, results):
        recs = self.records(outputs)[0]["results"]
        probes, extraction = recs[:-1], recs[-1]
        errors = []
        for e, rec in zip(self.eps, probes):
            if rec["samples"] != self.samples:
                errors.append(f"{self.name} eps={e}: {rec['samples']} samples, asked {self.samples}")
        est = [rec["estimate"] for rec in probes]
        if not all(a > b > 0 for a, b in zip(est, est[1:])):
            errors.append(f"{self.name}: estimates {est} do not fall strictly as eps falls")
        k_hat = extraction.get("k_hat", [])
        if len(k_hat) != len(self.eps) or not all(map(math.isfinite, k_hat + [extraction.get("extrapolated", math.nan)])):
            errors.append(f"{self.name}: K_hat {k_hat} or extrapolated K not finite")
        return errors

    def z_checks(self, outputs):
        probes = self.records(outputs)[0]["results"][:-1]
        return [
            ZCheck(f"{self.name} eps={e}", rec["estimate"], mean, se, bound)
            for e, rec, (mean, se, bound) in zip(self.eps, probes, self.ref)
        ]

    def reference_estimate(self, outputs):
        rec = self.records(outputs)[0]["results"][0]  # eps = 0.4
        return rec["estimate"], rec["stdError"]


class PowerLaplace(CliWorkload):
    """Laplace functional of the squared-Brownian clock on a long grid (shape of C5(b))."""

    name = "power-laplace"
    lams = (1.0, 5.0, 10.0)

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        self.samples = 64 if tiny else 1024
        n_steps = 256 if tiny else 2**14
        self.commands = [(
            "laplace --clock power --clock-p 2",
            ["laplace", "--clock", "power", "--clock-p", "2", "--n-steps", str(n_steps),
             "--samples", str(self.samples), "--workers", "2", "--lam", *map(str, self.lams)],
        )]

    def references(self):
        import reference

        self.ref = []
        for lam in self.lams:
            mean = reference.cosh_laplace(lam)
            var = reference.cosh_laplace(2.0 * lam) - mean * mean
            self.ref.append((mean, math.sqrt(var / self.samples)))

    def check(self, outputs, results):
        est = [rec["estimate"] for rec in self.records(outputs)[0]["results"]]
        if len(est) != len(self.lams) or not all(a > b for a, b in zip(est, est[1:])):
            return [f"{self.name}: estimates {est} do not fall as lambda rises"]
        return []

    def z_checks(self, outputs):
        recs = self.records(outputs)[0]["results"]
        return [
            ZCheck(f"{self.name} lambda={lam:g}", rec["estimate"], mean, se, Z)
            for lam, rec, (mean, se) in zip(self.lams, recs, self.ref)
        ]

    def reference_estimate(self, outputs):
        rec = self.records(outputs)[0]["results"][0]  # lambda = 1
        return rec["estimate"], rec["stdError"]


class GridSup(CliWorkload):
    """Raw indicator estimates on whole paths and their running sup (shapes of C5(a), C6)."""

    name = "grid-sup"
    bm_eps = (0.5, 0.75, 1.0)
    chaos_eps = (0.4, 0.6)

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        self.n_steps = 64 if tiny else 512
        self.bm_samples = 512 if tiny else 8192
        self.chaos_samples = 64 if tiny else 512
        common = ["--n-steps", str(self.n_steps), "--workers", "2"]
        chaos = ["--clock", "chaos", "--q-ratio", "0.5", "--q-terms", "50"]
        self.commands = [
            ("smallball --process bm",
             ["smallball", "--process", "bm", *common, "--samples", str(self.bm_samples),
              "--eps", *map(str, self.bm_eps)]),
            ("smallball --process chaos",
             ["smallball", "--process", "chaos", *common, *chaos, "--samples", str(self.chaos_samples),
              "--eps", *map(str, self.chaos_eps)]),
            ("smallball --process time-changed",
             ["smallball", "--process", "time-changed", *common, *chaos, "--samples", str(self.chaos_samples),
              "--eps", *map(str, self.chaos_eps)]),
        ]

    def references(self):
        import reference

        self.grid_ref = [reference.grid_max_cdf(e, self.n_steps) for e in self.bm_eps]
        self.cont_ref = [reference.sech_product_smallball(e, GEOMETRIC_Q) for e in self.chaos_eps]

    def check(self, outputs, results):
        bm, chaos, changed = (r["results"] for r in self.records(outputs))
        errors = []
        for rec in bm + chaos + changed:
            if rec["estimate"] <= 0.0:
                errors.append(f"{self.name}: zero hits at eps={rec['params']['eps']}")
        for e, a, b in zip(self.chaos_eps, chaos, changed):
            se = math.hypot(a["stdError"], b["stdError"])
            if abs(a["estimate"] - b["estimate"]) > Z * se:
                errors.append(
                    f"{self.name} eps={e}: direct chaos {a['estimate']:.6g} and time change "
                    f"{b['estimate']:.6g} differ by more than {Z} combined SE"
                )
        if len(bm) != len(self.bm_eps) or len(chaos) != len(changed) or len(chaos) != len(self.chaos_eps):
            errors.append(f"{self.name}: wrong number of records")
        return errors

    def z_checks(self, outputs):
        bm, chaos, changed = (r["results"] for r in self.records(outputs))
        checks = [
            ZCheck(f"{self.name} bm eps={e}", rec["estimate"], p, math.sqrt(p * (1 - p) / self.bm_samples), Z)
            for e, rec, p in zip(self.bm_eps, bm, self.grid_ref)
        ]
        # grid sups never exceed continuous sups, so grid estimates may only lie above the continuous law
        for label, recs in (("chaos", chaos), ("time-changed", changed)):
            checks += [
                ZCheck(f"{self.name} {label} eps={e}", rec["estimate"], p,
                       math.sqrt(p * (1 - p) / self.chaos_samples), Z, lower_only=True)
                for e, rec, p in zip(self.chaos_eps, recs, self.cont_ref)
            ]
        return checks

    def reference_estimate(self, outputs):
        rec = self.records(outputs)[0]["results"][-1]  # Brownian motion, eps = 1
        return rec["estimate"], rec["stdError"]


class ExactOracles(Workload):
    """Exact layers only: grid-sup law, theta series, chaos oracle, ground state, verify."""

    name = "exact-oracles"

    def __init__(self, seed, out_dir, tiny=False):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng([seed, 1])
        self.grid_n = (64, 128) if tiny else (64, 128, 256, 512, 1024, 2048, 4096)
        self.matched_n = min(512, self.grid_n[-1])  # checked against the benchmark's transfer matrix
        self.theta_x = np.exp(rng.uniform(np.log(0.05), np.log(6.0), 1000 if tiny else 1_000_000))
        self.oracle_eps = tuple(np.sort(rng.uniform(0.08, 0.8, 3 if tiny else 16))[::-1])
        self.p_sweep = (1.0, 2.0) + tuple(rng.uniform(1.0, 10.0, 0 if tiny else 14))
        self.verify_argv = ["verify", "--only", "C1,C2,C3,C4,C8", "--seed", str(seed)]
        near_two = (np.argmin(np.where(self.theta_x < 2, 2 - self.theta_x, np.inf)),
                    np.argmin(np.where(self.theta_x >= 2, self.theta_x - 2, np.inf)))
        picks = rng.choice(self.theta_x.size, 20, replace=False)
        self.theta_checks = np.unique(np.r_[picks, near_two, np.argmin(self.theta_x), np.argmax(self.theta_x)])

    def ops(self, index, tag):
        ops = [Op(f"sup_bm_cdf({GRID_EPS})", lambda: asymptotics.sup_bm_cdf(GRID_EPS))]
        ops += [Op(f"sup_bm_grid_cdf({GRID_EPS}, {n})", lambda n=n: mc.sup_bm_grid_cdf(GRID_EPS, n)) for n in self.grid_n]
        ops.append(Op("sup_bm_log_cdf(array)", lambda: asymptotics.sup_bm_log_cdf(self.theta_x)))
        ops += [
            Op(f"oracle_smallball_chaos({e:.4f})", lambda e=e: mc.oracle_smallball_chaos(e, 1.0, GEOMETRIC_Q))
            for e in self.oracle_eps
        ]
        ops += [Op(f"lambda1({p:.4f})", lambda p=p: schrodinger.lambda1(p)) for p in self.p_sweep]
        ops.append(cli_op("verify --only C1,C2,C3,C4,C8", self.verify_argv))
        return ops

    def outputs(self, index, tag, results):
        def raw(v):
            if isinstance(v, schrodinger.Lambda1Result):
                return repr((v.value, v.error_estimate, v.grid_values)).encode()
            if isinstance(v, int):
                return repr(v).encode()
            return np.asarray(v, dtype=float).tobytes()

        return [raw(v) for v in results]

    def references(self):
        import reference

        self.grid_ref = reference.grid_max_cdf(GRID_EPS, self.matched_n)
        self.theta_ref = [reference.theta_log_cdf(x) for x in self.theta_x[self.theta_checks]]
        self.oracle_ref = [reference.sech_product_smallball(e, GEOMETRIC_Q) for e in self.oracle_eps]
        self.airy = reference.airy_lambda1()

    def check(self, outputs, results):
        values = list(results)
        errors = []
        cont, values = values[0], values[1:]
        grid, values = values[: len(self.grid_n)], values[len(self.grid_n) :]
        theta, values = values[0], values[1:]
        oracle, values = values[: len(self.oracle_eps)], values[len(self.oracle_eps) :]
        lam, (verify_code,) = values[: len(self.p_sweep)], values[len(self.p_sweep) :]

        # nested grids: the continuous law lies below every grid law, which falls as N doubles
        chain = [cont] + grid[::-1]
        if not all(a <= b for a, b in zip(chain, chain[1:])):
            errors.append(f"{self.name}: sup_bm_cdf <= sup_bm_grid_cdf, falling in N, fails: {chain}")
        got = grid[self.grid_n.index(self.matched_n)]
        if abs(got - self.grid_ref) > 1e-3 * self.grid_ref:
            errors.append(
                f"{self.name}: sup_bm_grid_cdf({GRID_EPS}, {self.matched_n})={got:.8g} vs "
                f"transfer matrix {self.grid_ref:.8g}"
            )
        for x, got, want in zip(self.theta_x[self.theta_checks], np.asarray(theta)[self.theta_checks], self.theta_ref):
            if abs(got - want) > 1e-11 * abs(want):
                errors.append(f"{self.name}: sup_bm_log_cdf({x:.6g})={got!r} vs mpmath {want!r}")
        for e, got, want in zip(self.oracle_eps, oracle, self.oracle_ref):
            if abs(got - want) > 1e-11 * want:
                errors.append(f"{self.name}: oracle_smallball_chaos({e:.6g})={got!r} vs mpmath {want!r}")
        if not all(a > b for a, b in zip(oracle, oracle[1:])):
            errors.append(f"{self.name}: oracle_smallball_chaos does not fall with eps: {oracle}")
        for p, res in zip(self.p_sweep, lam):
            if not (0.0 < res.value < math.pi**2 / 8 and res.error_estimate <= 1e-6):
                errors.append(f"{self.name}: lambda1({p:.4f}) = {res}")
        if abs(lam[1].value - 2.0**-0.5) > 1e-8:
            errors.append(f"{self.name}: lambda1(2)={lam[1].value!r} vs 1/sqrt(2)")
        if abs(lam[0].value - self.airy) > 1e-8:
            errors.append(f"{self.name}: lambda1(1)={lam[0].value!r} vs Airy value {self.airy!r}")
        if verify_code != 0:
            errors.append(f"{self.name}: verify exited {verify_code}")
        return errors


WORKLOADS = {w.name: w for w in (ChaosProbe, PowerLaplace, GridSup, ExactOracles)}
