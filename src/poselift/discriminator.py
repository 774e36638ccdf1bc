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
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, InvalidInputError
from .kcs import bone_incidence, discriminator_features, feature_rows, scratch
from .pose_io import load_checkpoint, save_checkpoint
from .skeleton import PoseSequence3D, SkeletonTopology


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
        self._iu = np.triu_indices(m)
        # M*M map of bone pair (a, b) to the upper-triangle slot of (min, max)
        slot = np.empty((m, m), dtype=np.intp)
        slot[self._iu] = np.arange(len(self._iu[0]))
        slot.T[self._iu] = slot[self._iu]
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

    def _kernel(self, frames: np.ndarray, work: dict = None) -> tuple:
        """(energies, grad) of a (..., T, K, 3) stack: each window's mean per-frame
        energy, and grad(weight), the gradient of weight times their sum. With a
        `work` dict every large array is a buffer kept there (kcs.scratch), and
        the gradient returned is a view into one of them."""
        bones, rows = feature_rows(frames, self.incidence, self.interval, self._iu, work)
        rows -= self.mean                            # rows is ours: centre it in place
        y = np.matmul(rows, self.precision, out=scratch(work, "y", rows.shape))
        t, i = rows.shape[-2], self.interval
        (k, m), u = self.incidence.shape, len(self._iu[0])
        rows *= y                                    # the bits of y * d, as x * y == y * x
        energies = rows.sum(axis=-1).sum(axis=-1) * (1.0 / t)

        def grad(weight):
            # d(energy)/d(rows), P symmetric
            gf = np.multiply(y, 2.0 * weight / t, out=scratch(work, "gf", y.shape))
            gpsi = gf[..., :u]
            gphi = gf[..., :t - i, u: 2 * u]         # Phi_t = Psi_{t+i} - Psi_t
            gpsi[..., i:, :] += gphi
            gpsi[..., :t - i, :] -= gphi
            # g + g^T of the upper triangle g holding gpsi: slot (a, b) of either
            # triangle plus the zero across it, and twice the diagonal
            # mode "clip" (every slot is in range) lets np.take write `out` directly
            gsym = np.take(gpsi, self._sym, axis=-1, mode="clip",
                           out=scratch(work, "gsym", gpsi.shape[:-1] + (m * m,)))
            gsym[..., ::m + 1] *= 2.0
            gbones = np.matmul(bones, gsym.reshape(gsym.shape[:-1] + (m, m)),
                               out=scratch(work, "gbones", bones.shape))
            gx = np.swapaxes(np.matmul(gbones.reshape(-1, m), self.incidence.T,
                                       out=scratch(work, "gx", (gbones.size // m, k))
                                       ).reshape(gbones.shape[:-1] + (k,)), -1, -2)
            gx += gf[..., 2 * u:].reshape(gx.shape)
            return gx

        return energies, grad

    def energies_and_grad(self, frames, weight: float, work: dict = None) -> tuple:
        """Each window's mean per-frame energy over a (..., T, K, 3) stack, and the
        gradient of `weight` times their sum w.r.t. the stack: gen_loss without
        a graph, value and gradient bit for bit the node's. A `work` dict
        passed to every call keeps the kernel's buffers between calls."""
        energies, grad = self._kernel(np.asarray(frames, dtype=np.float64), work)
        return energies, grad(weight)

    def workspace(self, lead: tuple) -> dict:
        """A `work` dict for (*lead, K, 3) stacks (lead ends in T) holding every
        buffer the kernel keeps there at full size, allocated but unwritten:
        calls on such stacks, or on fewer of their windows, allocate none."""
        (k, m), f = self.incidence.shape, self.mean.size
        per_frame = {"bones": 3 * m, "psi": m * m, "rows": f, "y": f, "gf": f,
                     "gsym": m * m, "gbones": 3 * m, "gx": 3 * k}
        frames = int(np.prod(lead))
        return {name: np.empty(frames * size) for name, size in per_frame.items()}

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
