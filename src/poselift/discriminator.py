"""Realness scoring of 3D pose windows from KCS/TKCS descriptors.

DiscriminatorModel is a small temporal-conv classifier over the per-frame
[upper(Psi) | upper(Phi) | coords] features, trained real-vs-generated with
binary cross-entropy. KcsEnergyModel is a deterministic surrogate scorer:
Mahalanobis distance of the same features from reference-corpus statistics.
Both expose gen_loss(window) differentiable w.r.t. the window coordinates,
so either can plug into training and inference-stage refinement.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import SGD, Tensor, parameter
from .errors import (ConfigError, InvalidInputError, InvalidWindowError,
                     TrainingDivergedError)
from .kcs import bone_incidence, discriminator_features, feature_rows
from .pose_io import load_checkpoint, save_checkpoint
from .skeleton import PoseSequence3D, SkeletonTopology

EPSILON = 1e-6


def _frames_of(window):
    if isinstance(window, PoseSequence3D):
        return window.frames
    return window


def window_features(frames, incidence: np.ndarray, interval: int) -> Tensor:
    """Differentiable T x F feature rows; F = M(M+1) + 3K.

    Matches kcs.discriminator_features row for row: upper triangle of
    Psi_t, upper triangle of Phi_t (zero for the last `interval` frames),
    then the raw frame coordinates.
    """
    x = frames if isinstance(frames, Tensor) else Tensor(np.asarray(frames, dtype=np.float64))
    k, m = incidence.shape
    if x.ndim != 3 or x.shape[1] != k or x.shape[2] != 3:
        raise InvalidInputError(f"window must be T x {k} x 3, got {x.shape}")
    t = x.shape[0]
    if interval < 1:
        raise InvalidWindowError(f"interval must be >= 1, got {interval}")
    if t < interval + 1:
        raise InvalidWindowError(f"window length {t} < interval + 1 = {interval + 1}")
    iu0, iu1 = np.triu_indices(m)
    b = x.transpose((0, 2, 1)) @ Tensor(incidence)       # T x 3 x M
    psi = b.transpose((0, 2, 1)) @ b                     # T x M x M
    psi_flat = psi[:, iu0, iu1]
    phi = psi_flat[interval:] - psi_flat[: t - interval]
    phi_flat = Tensor.concat([phi, Tensor(np.zeros((interval, len(iu0))))], axis=0)
    return Tensor.concat([psi_flat, phi_flat, x.reshape(t, 3 * k)], axis=1)


@dataclass(frozen=True)
class DiscConfig:
    n_keypoints: int = 17
    channels: int = 16
    kernel: int = 3
    layers: int = 2
    tkcs_interval: int = 1

    def __post_init__(self):
        if self.n_keypoints < 2:
            raise ConfigError("n_keypoints must be >= 2")
        if self.channels < 1 or self.layers < 1:
            raise ConfigError("channels and layers must be >= 1")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError("kernel must be odd and >= 1")
        if self.tkcs_interval < 1:
            raise ConfigError("tkcs_interval must be >= 1")

    @property
    def feature_dim(self) -> int:
        m = self.n_keypoints - 1
        return m * (m + 1) + 3 * self.n_keypoints


class DiscriminatorModel:
    """Temporal-conv classifier; score in (0,1) is the realness probability."""

    def __init__(self, config: DiscConfig, topo: SkeletonTopology = None, seed: int = 0):
        self.config = config
        if topo is not None:
            if topo.K != config.n_keypoints:
                raise ConfigError(f"topology has {topo.K} keypoints, "
                                  f"config says {config.n_keypoints}")
            self.incidence = bone_incidence(topo)
        else:
            # placeholder shape; load() overwrites it from the checkpoint
            self.incidence = np.zeros((config.n_keypoints, config.n_keypoints - 1))
        f = config.feature_dim
        self.scaler_mean = np.zeros(f)
        self.scaler_inv = np.ones(f)
        self.scaler_fitted = False
        rng = np.random.default_rng(seed)
        self._params = {}
        c_in = f
        for li in range(config.layers):
            for tap in range(config.kernel):
                self._params[f"conv{li}.w{tap}"] = parameter((c_in, config.channels), rng)
            self._params[f"conv{li}.b"] = parameter(np.zeros(config.channels))
            c_in = config.channels
        # zero head: untrained score is exactly 0.5
        self._params["head.w"] = parameter(np.zeros((c_in, 1)))
        self._params["head.b"] = parameter(np.zeros(1))

    def parameters(self) -> list:
        return list(self._params.values())

    # ------------------------------------------------------------- scaler

    def fit_scaler(self, real_windows: list) -> None:
        """Per-feature mean/scale from REAL windows only (never generated)."""
        if not real_windows:
            raise InvalidInputError("need at least one window to fit the scaler")
        rows = [feature_rows(np.asarray(_frames_of(w), dtype=np.float64), self.incidence,
                             self.config.tkcs_interval)[1]
                for w in real_windows]
        feats = np.concatenate(rows, axis=0)
        self.scaler_mean = feats.mean(axis=0)
        std = feats.std(axis=0)
        # floor relative to the corpus scale: constant columns (fixed bone
        # lengths, zero root coords) must not blow up to 1e8 sensitivity
        floor = 1e-8 + 1e-3 * std.mean()
        self.scaler_inv = 1.0 / np.maximum(std, floor)
        self.scaler_fitted = True

    # ------------------------------------------------------------ scoring

    def _logit(self, frames) -> Tensor:
        cfg = self.config
        x = window_features(frames, self.incidence, cfg.tkcs_interval)
        x = (x - Tensor(self.scaler_mean)) * Tensor(self.scaler_inv)
        t = x.shape[0]
        pad = (cfg.kernel - 1) // 2
        for li in range(cfg.layers):
            if pad:
                x = Tensor.concat([x[0:1]] * pad + [x] + [x[t - 1: t]] * pad, axis=0)
            h = self._params[f"conv{li}.b"]
            for tap in range(cfg.kernel):
                h = h + x[tap: tap + t] @ self._params[f"conv{li}.w{tap}"]
            x = h.tanh()
        pooled = x.mean(axis=0, keepdims=True)
        return (pooled @ self._params["head.w"] + self._params["head.b"]).sum()

    def _score_t(self, frames) -> Tensor:
        return self._logit(frames).sigmoid().clip(EPSILON, 1.0 - EPSILON)

    def score(self, window) -> float:
        """Probability the window is a real motion, in (0,1)."""
        return self._score_t(_frames_of(window)).item()

    def gen_loss(self, window) -> Tensor:
        """-log score; differentiable w.r.t. the window's 3D coordinates."""
        return -self._score_t(_frames_of(window)).log()

    # --------------------------------------------------------- persistence

    def state_arrays(self) -> dict:
        out = {name: p.data.copy() for name, p in self._params.items()}
        out["incidence"] = self.incidence.copy()
        out["scaler.mean"] = self.scaler_mean.copy()
        out["scaler.inv"] = self.scaler_inv.copy()
        return out

    def save(self, path) -> None:
        save_checkpoint(path, self.state_arrays(),
                        {"kind": "discriminator", "config": asdict(self.config),
                         "scaler_fitted": self.scaler_fitted})

    @classmethod
    def load(cls, path) -> "DiscriminatorModel":
        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != "discriminator":
            raise InvalidInputError(
                f"not a discriminator checkpoint: kind={meta.get('kind')!r}")
        model = cls(DiscConfig(**meta["config"]))
        model.incidence = arrays.pop("incidence")
        model.scaler_mean = arrays.pop("scaler.mean")
        model.scaler_inv = arrays.pop("scaler.inv")
        model.scaler_fitted = bool(meta.get("scaler_fitted", False))
        for name, p in model._params.items():
            arr = arrays.get(name)
            if arr is None or arr.shape != p.data.shape:
                raise InvalidInputError(f"bad or missing array {name!r} in checkpoint")
            p.data = arr.copy()
        return model


def train_adversarial(disc: DiscriminatorModel, generator_outputs: list,
                      real_windows: list, steps: int, lr: float = 0.05,
                      momentum: float = 0.9, batch_size: int = 8,
                      seed: int = 0) -> list:
    """BCE updates of the discriminator against fixed generated windows.

    The generator side of the alternation lives in the lifter's training
    loop (its loss takes -log score through a frozen scorer); here the
    discriminator is the trainable side and the generated windows are data.
    Fits the input scaler on the real windows if not already fitted.
    Returns per-step mean BCE history; the model is updated in place.
    """
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    if not real_windows or not generator_outputs:
        raise InvalidInputError("need nonempty real and generated window sets")
    if not disc.scaler_fitted:
        disc.fit_scaler(real_windows)
    rng = np.random.default_rng(seed)
    opt = SGD(disc.parameters(), lr=lr, momentum=momentum)
    reals = [_frames_of(w) for w in real_windows]
    fakes = [_frames_of(w) for w in generator_outputs]
    snapshot = disc.state_arrays()
    history = []
    for step in range(steps):
        loss = Tensor(0.0)
        for _ in range(batch_size):
            r = reals[rng.integers(len(reals))]
            f = fakes[rng.integers(len(fakes))]
            loss = loss - disc._score_t(r).log() - (1.0 - disc._score_t(f)).log()
        loss = loss * (1.0 / (2 * batch_size))
        if not np.isfinite(loss.data):
            raise TrainingDivergedError(f"non-finite loss at step {step}",
                                        checkpoint=snapshot)
        opt.zero_grad()
        loss.backward()
        opt.step()
        if any(not np.all(np.isfinite(p.data)) for p in disc.parameters()):
            raise TrainingDivergedError(f"non-finite parameters at step {step}",
                                        checkpoint=snapshot)
        if (step + 1) % 25 == 0:
            snapshot = disc.state_arrays()
        history.append(loss.data.item())
    return history


# ------------------------------------------------------------------ energy


class KcsEnergyModel:
    """Mahalanobis energy of window features vs reference-corpus statistics.

    Deterministic drop-in for a trained discriminator wherever a realness
    penalty is needed: gen_loss is the mean per-frame energy, zero at the
    corpus mean and growing quadratically away from it.
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
        self._iu = np.triu_indices(self.incidence.shape[1])

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

    def energy_of_features(self, rows: np.ndarray) -> np.ndarray:
        d = np.atleast_2d(np.asarray(rows, dtype=np.float64)) - self.mean
        return np.einsum("nf,fg,ng->n", d, self.precision, d)

    def energy(self, window) -> float:
        """Mean per-frame Mahalanobis energy of the window."""
        return self.gen_loss(_frames_of(window)).item()

    def gen_loss(self, window) -> Tensor:
        """Mean per-frame energy as one graph node with a closed-form backward."""
        frames = _frames_of(window)
        x = frames if isinstance(frames, Tensor) else Tensor(
            np.asarray(frames, dtype=np.float64))
        bones, rows = feature_rows(x.data, self.incidence, self.interval, self._iu)
        d = rows - self.mean
        y = d @ self.precision
        t, i = len(d), self.interval
        (iu0, iu1), m = self._iu, self.incidence.shape[1]
        u = len(iu0)

        def back(out):
            gf = y * (2.0 * out.grad / t)            # d(energy)/d(rows), P symmetric
            gpsi = gf[:, :u].copy()
            gphi = gf[:, u: 2 * u]                   # Phi_t = Psi_{t+i} - Psi_t
            gpsi[i:] += gphi[: t - i]
            gpsi[: t - i] -= gphi[: t - i]
            g = np.zeros((t, m, m))
            g[:, iu0, iu1] = gpsi                    # upper-triangle indices are unique
            gbones = bones @ (g + g.transpose(0, 2, 1))
            gx = self.incidence @ gbones.transpose(0, 2, 1)
            gx += gf[:, 2 * u:].reshape(gx.shape)
            x._accumulate(gx)

        return Tensor((y * d).sum(axis=1).sum() * (1.0 / t), (x,), back)

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
                f"not an energy checkpoint: kind={meta.get('kind')!r}")
        return cls(arrays["mean"], arrays["precision"], arrays["incidence"],
                   meta["interval"], arrays["fit_energies"])
