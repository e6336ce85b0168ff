"""The three benchmark workloads: inputs from a seed, one timed call per op, checks.

Each workload repeats a fixed unit of ops; the number of units comes from
--seconds and the workload's nominal unit cost (measured on a 2-core x86 box),
so a given --seconds always runs the same ops on every commit and the latency
percentiles are order statistics of the same population.  The seed changes
the inputs (alphas, evolution times, CLI seeds), not the cost profile: times
are drawn near fixed stratum centres so every run covers the same branches.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPS = 0.01              # transform accuracy target (qht_apply, qht CLI)
PROJECTED_TOL = 1e-6    # criterion 3's bound on || Pi_N (U - V) Pi_N ||
TAIL_REL_TOL = 1e-6     # tail norms against the recorded values, relative
ENERGY_TOL = 1e-9       # |E_n - (n + 1/2)| for n < 16 from dense_diagonalize
ORTHO_TOL = 1e-12       # max |V^T V - I| over the lowest 16 eigenvectors
OVERLAP_BAND = (0.60, 0.72)   # overlap plateau (n >= 7) band
DATA = Path(__file__).resolve().parent / "data"


@dataclass
class Op:
    kind: str
    payload: object


@dataclass
class Check:
    """Outcome of one op's output check.

    errors are deterministic checks that failed (the output is wrong); mc are
    Monte-Carlo checks that failed (they only count the op as failed);
    ratio is the worst deterministic error over its tolerance.
    """

    errors: list = field(default_factory=list)
    mc: list = field(default_factory=list)
    ratio: float = 0.0

    def bound(self, what, err, tol):
        self.ratio = max(self.ratio, err / tol)
        if not err <= tol:
            self.errors.append(f"{what}: {err:.3e} > {tol:.1e}")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else json.dumps(p).encode())
    return h.hexdigest()[:16]


class Workload:
    name = ""
    UNIT_S = 1.0
    traced_children = False  # set by the runner for the traced pass
    child_dumps = ()         # (process id, tracer dump) of traced child processes
    process_s = 0.0          # child wall time outside cli.main, traced pass

    def __init__(self, root: Path, seed: int, seconds: int, trace: bool):
        self.root, self.seed = root, seed
        units = max(1, round(seconds / self.UNIT_S))
        # a traced run times the schedule twice (untraced, then traced)
        self.units = max(1, units // 2) if trace else units
        self.ops: list = []

    def setup(self):
        self.prepare()
        self.warm()

    def prepare(self):
        """Inputs and the benchmark's reference data (never traced)."""

    def warm(self):
        """First-touch work a user pays once per configuration (traced)."""

    def expected_failure(self, op, reason) -> bool:
        """True for the failures this commit is known to have; any other is wrong."""
        return False

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Transform(Workload):
    """qht_apply on dense unit alphas at N = 8 (M = 4096) and N = 16 (M = 16384)."""

    name = "transform"
    UNIT = (16, 8, 8, 8, 8, 8, 8)
    UNIT_S = 5.5

    def prepare(self):
        from qhermite.discrete_qho import hermite_basis
        from qhermite.qht_pipeline import choose_dimensions, qht_reference
        from qhermite.spectral_core import GridSpec

        rng = np.random.default_rng(self.seed)
        self.cfg = {N: choose_dimensions(N, EPS) for N in (8, 16)}
        basis = {N: hermite_basis(GridSpec(c.M), N - 1) for N, c in self.cfg.items()}
        self.ops, self.refs = [], []
        for N in self.UNIT * self.units:
            alpha = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            alpha /= np.linalg.norm(alpha)
            ref = qht_reference(alpha, basis[N])
            self.ops.append(Op(f"qht_apply N={N}", (N, alpha)))
            self.refs.append(ref / np.linalg.norm(ref))

    def warm(self):
        from qhermite.qht_pipeline import qht_apply

        for N, cfg in self.cfg.items():   # first touch: pipeline context and FFT plans
            qht_apply(np.eye(N)[0], cfg)

    def inputs_digest(self):
        return _digest(*(op.payload[1] for op in self.ops))

    def run(self, i, op):
        from qhermite.qht_pipeline import qht_apply   # the binding in force, traced or not

        N, alpha = op.payload
        return qht_apply(alpha, self.cfg[N])

    def check(self, i, op, res):
        chk = Check()
        fid = abs(np.vdot(self.refs[i], res.output))
        chk.bound("1 - fidelity vs qht_reference", 1.0 - fid, EPS)
        chk.bound("uncompute_residual", res.uncompute_residual, EPS)
        return chk


class OscillatorLab(Workload):
    """Dense eigen-oracle, projected fast-forward error, multiprecision tails."""

    name = "oscillator_lab"
    # (|t| centre, N): 3 factors; 5 factors; 5 factors after the 2*pi sign flip.
    # The jitter keeps each time inside one Chebyshev length (a power of two,
    # which changes at |t| ~ 0.71, 1.83 and 4.20 for M = 512), so the cost
    # profile does not depend on the seed.
    TIMES = ((0.45, 8), (1.7, 16), (3.65, 8))
    JITTER = 0.08
    FAMILIES = ("x2_p2", "p2_x2", "p2_anti")
    UNIT_S = 10.0

    def prepare(self):
        from qhermite.discrete_qho import build, dense_diagonalize
        from qhermite.spectral_core import GridSpec

        rng = np.random.default_rng(self.seed)
        with open(DATA / "tail_norms.json") as fh:
            recorded = json.load(fh)
        self.tails = {fam: recorded["tail_norm"][fam] for fam in self.FAMILIES}
        self.tail_args = (recorded["N"], recorded["t_max"])
        self.qho = {M: build(GridSpec(M)) for M in (recorded["M"], 256, 512)}
        self.tail_M = recorded["M"]
        self.ops = []
        for _ in range(self.units):
            self.ops += [Op("dense_diagonalize M=256", 256), Op("dense_diagonalize M=512", 512)]
            for centre, N in self.TIMES:
                t = float(rng.choice((-1.0, 1.0)) * (centre + rng.uniform(-self.JITTER, self.JITTER)))
                self.ops.append(Op(f"low_energy_error N={N} |t|~{centre}", (N, t)))
            self.ops += [Op(f"commutator_tail_norm {fam}", fam) for fam in self.FAMILIES]
        self.eig512 = dense_diagonalize(self.qho[512])   # reference data for low_energy_error

    def inputs_digest(self):
        return _digest([op.payload for op in self.ops if op.kind.startswith("low_energy")])

    def run(self, i, op):
        from qhermite.discrete_qho import commutator_tail_norm, dense_diagonalize
        from qhermite.fast_forward import low_energy_error

        if op.kind.startswith("dense"):
            return dense_diagonalize(self.qho[op.payload])
        if op.kind.startswith("low_energy"):
            N, t = op.payload
            return low_energy_error(self.qho[512], self.eig512, N, t)
        return commutator_tail_norm(self.qho[self.tail_M], *self.tail_args, op.payload)

    def check(self, i, op, out):
        chk = Check()
        if op.kind.startswith("dense"):
            k = 16
            chk.bound("max |E_n - (n + 1/2)|, n < 16",
                      float(np.abs(out.energies[:k] - (np.arange(k) + 0.5)).max()), ENERGY_TOL)
            low = out.vectors[:, :k]
            chk.bound("max |V^T V - I|", float(np.abs(low.T @ low - np.eye(k)).max()), ORTHO_TOL)
        elif op.kind.startswith("low_energy"):
            chk.bound("projected error", float(out), PROJECTED_TOL)
        else:
            want = self.tails[op.payload]
            chk.bound(f"{op.payload} tail vs recorded (relative)",
                      abs(out.tail_norm - want) / abs(want), TAIL_REL_TOL)
        return chk


def _default_corpus(n):
    """The instances `qhermite sample` draws from when no --corpus is given."""
    from qhermite import corpus

    return {
        "const": corpus.constant(n, 1.0),
        "product_sign": corpus.product_sign(tuple(range(min(2, n))), n),
        "monomial": corpus.hermite_monomial((2,) + (0,) * (n - 1), n),
    }


class CliSweeps(Workload):
    """One `python -m qhermite.cli` process per op, every subcommand at desk scale."""

    name = "cli_sweeps"
    # Below the 4.5-5.5 s a unit takes on a 2-core x86 box, so that --seconds 30
    # gives 7 units of 9 ops: the 11th-slowest op (op_tail_ms) then sits in the
    # middle of the 14 sample n=2 and ff-error ops, not at a gap between kinds.
    UNIT_S = 4.3
    SAMPLE = dict(M=512, D=9, trials=2000)
    TIMEOUT_S = 120.0
    KNOWN_FAILURE = ("sample n=3", "full-grid budget exceeded")

    def prepare(self):
        from qhermite.hermite_sampling import SamplerConfig, sample_distribution

        rng = np.random.default_rng(self.seed)

        def seed():
            return str(int(rng.integers(0, 2**31 - 1)))

        s = self.SAMPLE
        self.ops = []
        for _ in range(self.units):
            # 3 and 5 factors, each inside one Chebyshev length at M = 128
            t1 = rng.choice((-1.0, 1.0)) * (0.5 + rng.uniform(-0.1, 0.1))
            t2 = rng.choice((-1.0, 1.0)) * (2.4 + rng.uniform(-0.1, 0.1))
            self.ops += [
                Op("qht", ["qht", "--N", "8", "--eps", str(EPS)]),
                *(Op(f"sample n={n}", ["sample", "--n", str(n), "--M", str(s["M"]), "--D", str(s["D"]),
                                       "--trials", str(s["trials"]), "--seed", seed()])
                  for n in (1, 2, 3)),
                Op("ggl classical", ["ggl", "--n", "2", "--mode", "classical",
                                     "--seeds", f"{seed()},{seed()}"]),
                Op("ggl sampler", ["ggl", "--n", "2", "--mode", "sampler",
                                   "--seeds", f"{seed()},{seed()}"]),
                Op("test", ["test", "--M", "256", "--seed", seed()]),
                # "--t=" keeps a leading minus sign from reading as an option
                Op("ff-error", ["ff-error", "--M", "128", "--N", "8",
                                f"--t={t1:.6f},{t2:.6f}"]),
                Op("overlap", ["overlap", "--M", "20000", "--n", "40"]),
            ]
        # reference data: the exact measurement distributions behind `sample`
        scfg = SamplerConfig(M=s["M"], D=s["D"])
        self.dists = {}
        for n in (1, 2, 3):
            for label, f in _default_corpus(n).items():
                try:
                    dist = sample_distribution(f, scfg, normalized=not f.boolean)
                except ValueError as exc:
                    dist = exc
                self.dists[(n, label)] = dist
        self.out_dir = self.root / ".perfbench_out"
        self.out_dir.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.child_dumps = []
        self.max_child_rss_mb = 0.0

    def inputs_digest(self):
        return _digest([op.payload for op in self.ops])

    def expected_failure(self, op, reason) -> bool:
        kind, message = self.KNOWN_FAILURE
        return op.kind == kind and message in reason

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_mb

    def run(self, i, op):
        out = self.out_dir / "cli-op.json"
        err = self.out_dir / "cli-op.err"
        spans = self.out_dir / f"cli-op-{i}.spans.json"
        for p in (out, spans):
            p.unlink(missing_ok=True)
        if self.traced_children:
            cmd = [sys.executable, str(Path(__file__).resolve().parent / "launcher.py"), str(spans)]
        else:
            cmd = [sys.executable, "-m", "qhermite.cli"]
        cmd += [*op.payload, "--format", "json", "--out", str(out)]
        with open(err, "w") as errfh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                    stdout=subprocess.DEVNULL, stderr=errfh)
            killer = threading.Timer(self.TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.max_child_rss_mb = max(self.max_child_rss_mb, usage.ru_maxrss / 1024.0)
        if self.traced_children and spans.exists():
            lines = spans.read_text().splitlines()
            spans.unlink()
            dump, tracer_s = json.loads(lines[0]), json.loads(lines[1])["dump_s"]
            tracer_s += dump["install_s"]
            main = [s for s in dump["spans"] if s[0] == "cli.main" and s[3] == -1]
            # spawn to exit, minus cli.main and the launcher's own tracer work
            self.process_s += elapsed - sum(s[2] - s[1] for s in main) - tracer_s
            for s in dump["spans"]:
                s[4] = i
            self.child_dumps.append((f"cli-{i}", dump))
        if code != 0:
            stderr = err.read_text().strip().splitlines()
            raise RuntimeError(f"exit {code}: {stderr[-1] if stderr else ''}")
        return out

    def check(self, i, op, out):
        from qhermite.cli import read_table

        chk = Check()
        _, rows, _ = read_table(out)
        cmd = op.payload[0]
        if cmd == "qht":
            if len(rows) != 8:
                chk.errors.append(f"qht: {len(rows)} rows, want 8")
            for r in rows:
                chk.bound(f"qht n={r['n']} 1 - fidelity", 1.0 - float(r["fidelity"]), EPS)
                chk.bound(f"qht n={r['n']} uncompute_residual", float(r["uncompute_residual"]), EPS)
        elif cmd == "ff-error":
            for r in rows:
                if r["status"] != "ok":
                    chk.errors.append(f"ff-error M={r['M']} N={r['N']} t={r['t']}: {r['status']}")
                else:
                    chk.bound(f"ff-error M={r['M']} N={r['N']} t={r['t']}",
                              float(r["projected_error"]), PROJECTED_TOL)
        elif cmd == "overlap":
            lo, hi = OVERLAP_BAND
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            for r in rows:
                if int(r["n"]) >= 7:
                    x = float(r["overlap"])
                    chk.ratio = max(chk.ratio, abs(x - mid) / half)
                    if not lo <= x <= hi:
                        chk.errors.append(f"overlap n={r['n']}: {x} outside [{lo}, {hi}]")
        elif cmd == "ggl":
            chk.mc += [f"ggl {r['instance']} seed {r['seed']}: incomplete"
                       for r in rows if int(r["complete"]) != 1]
        elif cmd == "test":
            chk.mc += [f"test {r['instance']}: wrong verdict"
                       for r in rows if int(r["correct"]) != 1]
        elif cmd == "sample":
            self._check_histogram(op, rows, chk)
        return chk

    def _check_histogram(self, op, rows, chk):
        """Each bin's count within 6 binomial sigmas (+3) of the exact distribution."""
        n = int(op.payload[op.payload.index("--n") + 1])
        trials = self.SAMPLE["trials"]
        counts: dict = {}
        for r in rows:
            v = tuple(int(c) for c in str(r["v"]).split("|"))
            counts.setdefault(r["instance"], {})[v] = int(r["count"])
        chk.errors += [f"sample n={n}: no rows for {label}"
                       for label in _default_corpus(n) if label not in counts]
        for label, hist in counts.items():
            dist = self.dists.get((n, label))
            if not hasattr(dist, "probs"):
                chk.mc.append(f"sample n={n} {label}: no exact distribution ({dist})")
                continue
            total = float(dist.probs.sum()) + dist.out_mass
            expected = {tuple(int(c) for c in v): p / total
                        for v, p in np.ndenumerate(dist.probs) if p > 0}
            expected[(dist.D + 1,) * n] = dist.out_mass / total
            for v in set(expected) | set(hist):
                p, c = expected.get(v, 0.0), hist.get(v, 0)
                if abs(c - trials * p) > 6.0 * math.sqrt(trials * p * (1.0 - p)) + 3.0:
                    chk.mc.append(f"sample n={n} {label} v={v}: count {c}, expected {trials * p:.1f}")


WORKLOADS = {w.name: w for w in (Transform, CliSweeps, OscillatorLab)}
