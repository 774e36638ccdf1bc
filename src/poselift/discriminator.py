"""Realness scoring of 3D pose windows from KCS/TKCS descriptors.

The paper scores realness with an adversarial spatio-temporal discriminator
over KCS/TKCS features. Here the pose prior is KcsEnergyModel: the
Mahalanobis energy of the per-frame [upper(Psi) | upper(Phi) | coords]
feature rows from the statistics of a reference corpus of real motion. It
is fitted in closed form, deterministic, and its gen_loss(window) is
differentiable w.r.t. the window coordinates, so it plugs into the lifter's
training loss and into inference-stage refinement. A BCE-trained
temporal-conv scorer over the same features did not beat it on the ablation
ladder and took over twice the wall time (the comparison is in CHANGES.md).

One kernel computes every window's energy and its gradient. Given a part
count it cuts the frames into ranges and runs them as two parallel.run
calls: the feature rows, the precision product and per-frame energies, then,
once every range has finished, the gradient. The ranges go to the workers of
the team open on the calling thread (parallel.team; a split ISO descent
keeps one for all its evaluations), else to a team started for the call. Phi
needs Psi of a few frames past its range, and the gradient of Phi needs the
few rows of the precision product just before it; a range forms those again
from the frames, or reads them once they are final, so no range reads a row
another is still writing. Cuts sit on multiples of CUT_FRAMES = 48 frames
because a product cut into row blocks keeps every bit only at some offsets:
on numpy's bundled OpenBLAS 0.3.31 (AVX-512 double kernels, one BLAS thread)
cuts at multiples of 12 rows kept every bit of a 480 x 323 by 323 x 323
product and no other cut did. A BLAS that splits a product among its own
threads cuts it by size, so the split is bit for bit only with BLAS on one
thread (parallel.blas_threads).
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, InvalidInputError
from .kcs import bone_incidence, check_window, discriminator_features, fill_rows
from .parallel import run
from .pose_io import load_checkpoint, save_checkpoint
from .skeleton import PoseSequence3D, SkeletonTopology

CUT_FRAMES = 48        # every cut of a split kernel call falls on a multiple of this


def _frames_of(window):
    if isinstance(window, PoseSequence3D):
        return window.frames
    return window


class KcsEnergyModel:
    """Mahalanobis energy of window features vs reference-corpus statistics.

    gen_loss is the mean per-frame energy, zero at the corpus mean and
    growing quadratically away from it.
    """

    def __init__(self, mean: np.ndarray, precision: np.ndarray,
                 incidence: np.ndarray, interval: int,
                 fit_energies: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        precision = np.asarray(precision, dtype=np.float64)
        # gen_loss's closed-form gradient 2 d P holds only for a symmetric P;
        # np.linalg.inv leaves an asymmetry of about 1e-12 relative
        self.precision = 0.5 * (precision + precision.T)
        self.incidence = np.asarray(incidence, dtype=np.float64)
        self.interval = int(interval)
        self.fit_energies = np.asarray(fit_energies, dtype=np.float64)
        m = self.incidence.shape[1]
        iu = np.triu_indices(m)
        self._pick = iu[0] * m + iu[1]             # flat M*M slots of the upper triangle
        # M*M map of bone pair (a, b) to the upper-triangle slot of (min, max)
        slot = np.empty((m, m), dtype=np.intp)
        slot[iu] = np.arange(len(iu[0]))
        slot.T[iu] = slot[iu]
        self._sym = slot.reshape(-1)

    @classmethod
    def fit(cls, windows: list, topo: SkeletonTopology, interval: int = 1,
            reg_scale: float = 1e-3) -> "KcsEnergyModel":
        """Mean + regularized covariance over all frames of all windows."""
        if not windows:
            raise InvalidInputError("need at least one window")
        if reg_scale <= 0:
            raise ConfigError("reg_scale must be > 0")
        rows = []
        for w in windows:
            pose = w if isinstance(w, PoseSequence3D) else PoseSequence3D(np.asarray(w))
            rows.append(discriminator_features(pose, topo, interval))
        feats = np.concatenate(rows, axis=0)
        mean = feats.mean(axis=0)
        centered = feats - mean
        cov = centered.T @ centered / max(len(feats) - 1, 1)
        # keep the quadratic form positive definite even for tiny corpora
        reg = reg_scale * max(np.trace(cov) / cov.shape[0], 1e-12)
        cov[np.diag_indices_from(cov)] += reg
        precision = np.linalg.inv(cov)
        model = cls(mean, precision, bone_incidence(topo), interval,
                    fit_energies=np.zeros(len(windows)))
        model.fit_energies = np.array([model.energy(w) for w in windows])
        return model

    def energy(self, window) -> float:
        """Mean per-frame Mahalanobis energy of the window."""
        return self.gen_loss(_frames_of(window)).item()

    def _kernel(self, frames: np.ndarray, work: dict = None, parts: int = 1) -> tuple:
        """(energies, grad) of a (..., T, K, 3) stack: each window's mean per-frame
        energy, and grad(weight), the gradient of weight times their sum. Every
        large array is a buffer of `work`, a workspace of the stack's shape
        (one is made for the call when none is given), and the gradient
        returned is a view into one of them.

        With `parts` > 1 the frames are cut into up to that many ranges, every
        cut on a multiple of CUT_FRAMES, and the ranges run in two
        parallel.run calls, on the calling thread's team if one is open: the
        energy, then the gradient. A range writes only its own frames of the
        buffers, made before either call, and reads another's only between
        the calls, when they are final.
        """
        check_window(frames, self.incidence, self.interval)
        lead, t, i = frames.shape[:-2], frames.shape[-3], self.interval
        (k, m), u = self.incidence.shape, len(self._pick)
        shapes = self._shapes(lead)
        if work is None:
            work = self.workspace(lead)
        for name, shape in shapes.items():
            # a buffer with more frames would take every out= and add unwritten
            # frames into the energies
            held = getattr(work.get(name), "shape", "missing")
            if held != shape:
                raise InvalidInputError(f"workspace buffer {name!r} is {held}, but a "
                                        f"{frames.shape} stack needs {shape}")
        bones, gsym, rows, y, sums, gf, gbones, gx = (work[name] for name in shapes)
        spans = [(0, t)]
        if parts > 1:
            cuts = {CUT_FRAMES * round(j * t / (parts * CUT_FRAMES)) for j in range(1, parts)}
            # no one-frame range: numpy takes a one-row product as a vector product
            bounds = [0, *sorted(c for c in cuts if 0 < c < t - 1), t]
            spans = list(zip(bounds, bounds[1:]))

        def energy(a, b):
            fill_rows(frames, self.incidence, i, self._pick, bones, gsym, rows, a, b)
            d = rows[..., a:b, :]
            d -= self.mean                           # rows is ours: centre it in place
            ya = np.matmul(d, self.precision, out=y[..., a:b, :])
            d *= ya                                  # the bits of y * d, as x * y == y * x
            np.add.reduce(d, axis=-1, out=sums[..., a:b])

        run([functools.partial(energy, a, b) for a, b in spans], len(spans))
        energies = sums.sum(axis=-1) * (1.0 / t)

        def grad(weight):
            # d(energy)/d(rows), P symmetric
            scale = 2.0 * weight / t

            def part(a, b):
                g = np.multiply(y[..., a:b, :], scale, out=gf[..., a:b, :])
                gpsi, gphi = g[..., :u], g[..., u:2 * u]
                # Phi_s = Psi_{s+i} - Psi_s: frame s + i gains gphi_s and frame s
                # loses it; gphi of the i frames before a is formed from y again
                lo, mid = max(a, i), min(b, a + i)
                if lo < mid:
                    gpsi[..., lo - a:mid - a, :] += np.multiply(
                        y[..., lo - i:mid - i, u:2 * u], scale)
                if a + i < b:
                    gpsi[..., i:, :] += gphi[..., :b - a - i, :]
                n = min(b, t - i) - a
                if n > 0:
                    gpsi[..., :n, :] -= gphi[..., :n, :]
                # g + g^T of the upper triangle g holding gpsi: slot (p, q) of either
                # triangle plus the zero across it, and twice the diagonal
                gs = np.take(gpsi, self._sym, axis=-1, mode="clip", out=gsym[..., a:b, :])
                gs[..., ::m + 1] *= 2.0
                gb = np.matmul(bones[..., a:b, :, :], gs.reshape(gs.shape[:-1] + (m, m)),
                               out=gbones[..., a:b, :, :])
                # one product over the rows of whole windows, else one per window
                flat = (-1,) if (a, b) == (0, t) else lead[:-1] + (-1,)
                gx_ab = gx[..., a:b, :, :]
                np.matmul(gb.reshape(flat + (m,)), self.incidence.T,
                          out=gx_ab.reshape(flat + (k,)))
                gx_ab = np.swapaxes(gx_ab, -1, -2)
                gx_ab += g[..., 2 * u:].reshape(gx_ab.shape)

            run([functools.partial(part, a, b) for a, b in spans], len(spans))
            return np.swapaxes(gx, -1, -2)

        return energies, grad

    def energies_and_grad(self, frames, weight: float, work: dict = None,
                          parts: int = 1) -> tuple:
        """Each window's mean per-frame energy over a (..., T, K, 3) stack, and the
        gradient of `weight` times their sum w.r.t. the stack: gen_loss without
        a graph, value and gradient bit for bit the node's. `work`, a
        workspace(stack.shape[:-2]) passed to every call, keeps the kernel's
        buffers between calls; one of another shape is an InvalidInputError.

        `parts` > 1 splits the evaluation into up to that many frame ranges on
        threads (see _kernel); the bits stay those of one part wherever BLAS
        runs each product on one thread (parallel.blas_threads() == 1).
        """
        energies, grad = self._kernel(np.asarray(frames, dtype=np.float64), work, parts)
        return energies, grad(weight)

    def _shapes(self, lead: tuple) -> dict:
        """The shape of each buffer the kernel writes for (*lead, K, 3) stacks."""
        (k, m), f = self.incidence.shape, self.mean.size
        return {"bones": lead + (3, m), "gsym": lead + (m * m,),  # gsym: Psi, then g + g^T
                "rows": lead + (f,), "y": lead + (f,), "sums": lead, "gf": lead + (f,),
                "gbones": lead + (3, m), "gx": lead + (3, k)}

    def workspace(self, lead: tuple) -> dict:
        """A `work` dict for (*lead, K, 3) stacks (lead ends in T): every buffer
        the kernel writes, in the shape it writes, allocated but unwritten."""
        return {name: np.empty(shape) for name, shape in self._shapes(tuple(lead)).items()}

    def gen_loss(self, window) -> Tensor:
        """Mean per-frame energy as one graph node with a closed-form backward.

        A batch of windows, (..., T, K, 3), gives the sum over its windows
        of their mean per-frame energies, added in window order so that it
        equals the per-window calls added one by one.
        """
        frames = _frames_of(window)
        x = frames if isinstance(frames, Tensor) else Tensor(
            np.asarray(frames, dtype=np.float64))
        energies, grad = self._kernel(x.data)
        total = 0.0
        for energy in energies.reshape(-1).tolist():
            total += energy
        return Tensor(total, (x,), lambda out: x._accumulate(grad(out.grad)))

    def reference_percentile(self, q: float) -> float:
        return float(np.percentile(self.fit_energies, q))

    def save(self, path) -> None:
        save_checkpoint(path, {"mean": self.mean, "precision": self.precision,
                               "incidence": self.incidence,
                               "fit_energies": self.fit_energies},
                        {"kind": "kcs-energy", "interval": self.interval})

    @classmethod
    def load(cls, path) -> "KcsEnergyModel":
        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != "kcs-energy":
            raise InvalidInputError(
                f"{path}: not an energy checkpoint: kind={meta.get('kind')!r}")
        try:
            mean, precision, incidence, fit_energies = (
                arrays["mean"], arrays["precision"], arrays["incidence"], arrays["fit_energies"])
            interval = meta["interval"]
        except KeyError as e:
            raise InvalidInputError(f"{path}: kcs-energy checkpoint has no {e} entry") from None
        extra = set(arrays) - {"mean", "precision", "incidence", "fit_energies"}
        if extra:
            raise InvalidInputError(f"{path}: kcs-energy checkpoint has unexpected arrays: "
                                    f"{sorted(extra)}")
        k, m = incidence.shape if incidence.ndim == 2 else (0, 0)
        f = m * (m + 1) + 3 * k        # feature width: upper(Psi) | upper(Phi) | coords
        for name, fits, want in (
                ("incidence", incidence.ndim == 2, "K x M"),
                ("mean", mean.shape == (f,), f"({f},) for K = {k} keypoints and M = {m} bones"),
                ("precision", precision.shape == (f, f), f"({f}, {f})"),
                ("fit_energies", fit_energies.ndim == 1, "1-D")):
            if not fits:
                raise InvalidInputError(f"{path}: kcs-energy checkpoint entry {name!r} has "
                                        f"shape {arrays[name].shape}, not {want}")
        if type(interval) is not int or interval < 1:
            raise InvalidInputError(f"{path}: kcs-energy checkpoint entry 'interval' is "
                                    f"{interval!r}, not an integer >= 1")
        return cls(mean, precision, incidence, interval, fit_energies)
