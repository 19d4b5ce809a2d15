"""The benchmark's workloads: their inputs, timed rounds and correctness checks.

A workload builds its inputs from the run's seed in `setup`, checks the
program on them once in `static_problems`, and then runs identical rounds,
each after `setups_per_round` fresh set-ups (timed for setup_s).
A round is the unit that is timed; it holds one or more operations (one
`recover` call, or one denoised image), and each operation that raises or
fails a check counts as failed.  Checks compare against properties the
outputs must have, never against a saved copy of earlier output.

Inputs, for run seed s.  Every image is a crop of one motif image
(make_motif_image with seed 3) whose offset, one of the 36 motif phases,
is set by s (s + i for the i-th denoise-mixed image).  The dense matrix
uses seed 1000 + s, noise 2000 + s (+ i), the adjoint test vectors
3000 + s.  The motif itself is fixed: PSNR depends far more on which
motif is drawn than on anything a code change does, while over motif
phases, dense matrices and noise draws it moves by under 2%.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import groupcs  # noqa: F401  (loads every module the tracer wraps)
from groupcs import measurement, solver
from groupcs.synthetic import make_motif_image

from common import ROOT
from tracer import traced

HERE = Path(__file__).resolve().parent
PEAK = 255.0
DOT_TEST_RTOL = 1e-10
PSNR_ATOL_DB = 1e-9
MOTIF_SEED = 3


@dataclass
class Round:
    """One timed round: its operations, their checks and its outputs."""

    solve_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    psnr_db: float = math.nan
    digest: str = ""
    layers: dict | None = None  # per-layer summary of a traced round
    child_rss_kb: int = 0
    traced: bool = False
    raised: bool = False  # an operation raised instead of returning output


def motif_crop(shape, seed):
    """A crop of the fixed motif image, at one of 36 offsets chosen by seed."""
    h, w = shape
    dy, dx = divmod(seed % 36, 6)
    return make_motif_image(max(h, w) + 5, MOTIF_SEED)[dy:dy + h, dx:dx + w]


def own_psnr(image, reference):
    """PSNR in dB at peak 255, written independently of groupcs.metrics."""
    d = np.asarray(image, dtype=np.float64) - np.asarray(reference, dtype=np.float64)
    return 20.0 * math.log10(PEAK) - 10.0 * math.log10(float(np.dot(d.ravel(), d.ravel())) / d.size)


def write_p5(path, pixels):
    """Write integer-valued pixels in [0, 255] as a binary PGM."""
    h, w = pixels.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + pixels.astype(np.uint8).tobytes())


def read_p5(path):
    """Parse a binary PGM into a float array; an independent reader."""
    data = Path(path).read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while data[pos:pos + 1].isspace() or data[pos:pos + 1] == b"#":
            if data[pos:pos + 1] == b"#":
                pos = data.index(b"\n", pos)
            pos += 1
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    if fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(fields[1]), int(fields[2])
    raster = data[pos + 1:pos + 1 + w * h]
    if len(raster) != w * h:
        raise ValueError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(np.float64)


def dot_test_problems(op, rng):
    """Adjoint test <Hx, v> = <x, H^T v>."""
    x = rng.standard_normal(op.shape)
    v = rng.standard_normal(op.m)
    lhs = float(np.dot(op.forward(x), v))
    rhs = float(np.sum(x * op.adjoint(v)))
    if not abs(lhs - rhs) <= DOT_TEST_RTOL * max(abs(lhs), abs(rhs)):
        return [f"adjoint dot test: <Hx,v>={lhs!r} <x,HTv>={rhs!r}"]
    return []


class CsWorkload:
    """`recover` on a 128x128 motif image from dense Gaussian measurements.

    The matrix (3277 x 16384, 430 MB) is larger than the last-level
    cache, so the X-step's matrix-vector products are memory-bound.  The
    measurements carry impulsive noise and are recovered with the robust
    data term, at default settings otherwise.
    """

    side = 128
    subrate = 0.2
    noise = measurement.NoiseSpec("gaussian_mixture", target_snr_db=15.0)
    solver_kwargs = {"fidelity": "m_estimator", "outer_iters": 2}
    setups_per_round = 1

    def __init__(self):
        self.build_times = []
        self.release()

    def release(self):
        self.image = self.op = self.y = self.cfg = None

    def setup(self, seed, workdir):
        self.seed = seed
        self.image = motif_crop((self.side, self.side), seed)
        start = perf_counter()
        self.op = measurement.make_operator("dense", self.image.shape, self.subrate, 1000 + seed)
        self.build_times.append(perf_counter() - start)
        self.y, _, _ = measurement.add_noise(self.op.forward(self.image), self.noise, 2000 + seed)
        self.cfg = solver.SolverConfig(**self.solver_kwargs)

    def static_problems(self):
        problems = dot_test_problems(self.op, np.random.default_rng(3000 + self.seed))
        self.backprojection_db = own_psnr(self.op.adjoint(self.y), self.image)
        return problems

    def run_round(self, tracer=None):
        rnd = Round(attempted=1)
        start = perf_counter()
        try:
            with traced(tracer, self.op) if tracer else contextlib.nullcontext():
                try:
                    x, trace = solver.recover(self.y, self.op, self.cfg,
                                              ground_truth=self.image)
                finally:
                    rnd.solve_s = perf_counter() - start  # up to the raise, if it raised
        except Exception as exc:  # a failed operation; the run goes on
            rnd.failed = 1
            rnd.raised = True
            rnd.problems.append(f"recover raised {type(exc).__name__}: {exc}")
            return rnd
        finally:
            if tracer:
                rnd.layers = tracer.summary()
        rnd.problems, rnd.psnr_db = self._check(x, trace)
        rnd.failed = int(bool(rnd.problems))
        rnd.digest = hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
        return rnd

    def _check(self, x, trace):
        x = np.asarray(x)
        if x.shape != self.image.shape or not np.all(np.isfinite(x)):
            return [f"reconstruction has shape {x.shape} or non-finite values"], math.nan
        problems = []
        mine = own_psnr(x, self.image)
        theirs = trace[-1].psnr_db if trace else None
        if theirs is None or not abs(mine - theirs) <= PSNR_ATOL_DB:
            problems.append(f"program PSNR {theirs!r} != recomputed {mine!r}")
        if not mine > self.backprojection_db:
            problems.append(f"PSNR {mine:.3f} dB does not beat back-projection "
                            f"{self.backprojection_db:.3f} dB")
        for st in trace:
            if not (st.q_min is not None and 0.0 < st.q_min < 1.0
                    and st.q_min <= st.q_max <= 1.0):
                problems.append(f"iteration {st.iteration}: robust weights "
                                f"q_min={st.q_min!r} q_max={st.q_max!r}")
                break
        return problems, mine


class DenoiseWorkload:
    """`groupcs denoise` through `groupcs.cli.main` on three noisy PGM files.

    Each round runs in a fresh interpreter (denoise_child.py), so every
    image shape is new to the process that denoises it.
    """

    shapes = ((96, 160), (200, 120), (256, 256))
    noise_sigma = 20.0
    tau = "1.5e7"
    sweeps = "3"
    min_gain_db = 3.0
    setups_per_round = 5
    child_timeout_s = 170

    def __init__(self):
        self.build_times = []
        self.release()

    def release(self):
        self.images = []

    def setup(self, seed, workdir):
        for i, (h, w) in enumerate(self.shapes):
            clean = np.floor(motif_crop((h, w), seed + i) + 0.5)
            rng = np.random.default_rng(2000 + seed + i)
            noisy = np.floor(np.clip(clean + rng.normal(0.0, self.noise_sigma, clean.shape),
                                     0.0, PEAK) + 0.5)
            stem = workdir / f"{h}x{w}"
            paths = {k: Path(f"{stem}-{k}.pgm") for k in ("clean", "noisy", "out")}
            write_p5(paths["clean"], clean)
            write_p5(paths["noisy"], noisy)
            self.images.append({"clean": clean, "noisy": noisy, "paths": paths,
                                "noisy_db": own_psnr(noisy, clean)})
        self.job = workdir / "denoise-job.json"
        self.job.write_text(json.dumps([
            ["denoise", str(im["paths"]["noisy"]), "--output", str(im["paths"]["out"]),
             "--ground-truth", str(im["paths"]["clean"]),
             "--tau", self.tau, "--sweeps", self.sweeps]
            for im in self.images]))

    def static_problems(self):
        problems = []
        for im in self.images:
            z, _ = solver.z_step(im["noisy"], solver.SolverConfig(), 0.0)
            if z.shape != im["noisy"].shape or z.tobytes() != im["noisy"].tobytes():
                problems.append(f"z_step with tau=0 changed a {im['noisy'].shape} input")
        return problems

    def run_round(self, tracer=None):
        n = len(self.images)
        rnd = Round(attempted=n)
        cmd = [sys.executable, str(HERE / "denoise_child.py"), str(self.job),
               "--trace", "0" if tracer is None else "1"]
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=self.child_timeout_s, check=True)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
            rnd.solve_s = perf_counter() - start  # the child's wall time, start-up included
            rnd.layers = {}
            rnd.failed = n
            rnd.raised = True
            rnd.problems.append(f"denoise round did not complete: {exc}")
            return rnd
        rnd.solve_s = sum(call["seconds"] for call in report["calls"])
        rnd.layers = report["layers"]
        rnd.child_rss_kb = report["peak_rss_kb"]
        digest = hashlib.sha256()
        psnrs = []
        for im, call in zip(self.images, report["calls"]):
            problems, psnr_db = self._check(im, call)
            if problems:
                rnd.failed += 1
                rnd.problems.extend(problems)
                continue
            digest.update(im["paths"]["out"].read_bytes())
            psnrs.append(psnr_db)
        rnd.digest = digest.hexdigest()
        if len(psnrs) == n:
            rnd.psnr_db = sum(psnrs) / n
        return rnd

    def _check(self, im, call):
        shape = im["clean"].shape
        if call["exit_code"] != 0:
            return [f"{shape}: denoise exited {call['exit_code']}: {call['stderr']!r}"], None
        try:
            out = read_p5(im["paths"]["out"])
        except (OSError, ValueError) as exc:
            return [f"{shape}: unreadable output: {exc}"], None
        if out.shape != shape:
            return [f"{shape}: output has shape {out.shape}"], None
        mine = own_psnr(out, im["clean"])
        problems = []
        if f"psnr_db={mine:.2f}" not in call["stdout"].split():
            problems.append(f"{shape}: program printed {call['stdout']!r}, "
                            f"recomputed psnr_db={mine:.2f}")
        if not mine - im["noisy_db"] >= self.min_gain_db:
            problems.append(f"{shape}: gain {mine - im['noisy_db']:.2f} dB "
                            f"below {self.min_gain_db} dB")
        return problems, mine


WORKLOADS = {
    "cs-dense-robust-128": CsWorkload,
    "denoise-mixed": DenoiseWorkload,
}
