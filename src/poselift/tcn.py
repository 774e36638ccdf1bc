"""Multi-stride temporal convolutional network for 2D-to-3D pose lifting.

Each frame's detections (x, y, confidence, mask per keypoint) are embedded
by a shared dense layer; parallel branches run dilated temporal convolutions
at different strides over the embedding sequence; the center columns of all
branches are concatenated and fused to the center frame's root-relative
3D pose. Training combines 3D supervision, multi-view consistency, 2D
reprojection, and a rotated-window realness penalty from a plugged scorer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import parallel
from .autodiff import SGD, Tensor, _unbroadcast, parameter
from .errors import (ConfigError, InvalidInputError, InvalidWindowError,
                     TrainingDivergedError)
from .pose_io import load_checkpoint, save_checkpoint
from .skeleton import PoseSequence2D, PoseSequence3D, RotationAugment, rotation_matrix

# Every conv layer has KERNEL taps and every layer, the embedding too, ends in
# tanh. Head outputs are scaled by OUTPUT_SCALE_MM so trained weights stay O(1).
KERNEL = 3
OUTPUT_SCALE_MM = 200.0
# fields older checkpoints hold: the one value each may have, or None for any
_RETIRED_FIELDS = {"tkcs_interval": None, "kernel": KERNEL, "activation": "tanh",
                   "output_scale_mm": OUTPUT_SCALE_MM}


@dataclass(frozen=True)
class LossWeights:
    """Multipliers for the multi-view, 2D, and realness terms."""

    w1: float = 0.5
    w2: float = 0.1
    w3: float = 0.01

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0 or self.w3 < 0:
            raise ConfigError("loss weights must be nonnegative")


@dataclass(frozen=True)
class TcnConfig:
    """The defaults are the pipeline's lifter (37,203 parameters; experiment.train_lifter and
    run_experiment, and so the CLI, set n_keypoints from the topology). A larger run might
    use embed_dim=512, window_len=64, strides=(1, 2, 3, 5, 7), channels=128, branch_layers=3
    (1,544,499 parameters); the paper has no sizes."""

    n_keypoints: int = 17
    embed_dim: int = 64
    window_len: int = 20
    strides: tuple[int, ...] = (1, 2, 3)
    channels: int = 32
    branch_layers: int = 2
    use_embedding: bool = True

    def __post_init__(self):
        object.__setattr__(self, "strides", tuple(int(s) for s in self.strides))
        if self.n_keypoints < 1:
            raise ConfigError("n_keypoints must be >= 1")
        if self.embed_dim < 1 or self.channels < 1 or self.branch_layers < 1:
            raise ConfigError("embed_dim, channels, branch_layers must be >= 1")
        if not self.strides:
            raise ConfigError("need at least one stride")
        if any(s < 1 for s in self.strides):
            raise ConfigError("strides must be >= 1")
        if any(b <= a for a, b in zip(self.strides, self.strides[1:])):
            raise ConfigError("strides must be strictly increasing")
        if self.receptive_field(max(self.strides)) > self.window_len:
            raise ConfigError("window_len shorter than the widest branch's "
                              "receptive field")

    def receptive_field(self, stride: int) -> int:
        return 1 + self.branch_layers * (KERNEL - 1) * stride

    @property
    def input_dim(self) -> int:
        return 4 * self.n_keypoints

    @property
    def branch_input_dim(self) -> int:
        return self.embed_dim if self.use_embedding else self.input_dim


def frame_inputs(coords: np.ndarray, conf: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """T x 4K model input: [x block | y block | conf block | mask block].

    Coordinates are recentered so the crop center is 0. Masked keypoints
    contribute zeros in the first three blocks regardless of what the
    arrays store, so occluded coordinates can never leak in.
    """
    coords = np.asarray(coords, dtype=np.float64)
    conf = np.asarray(conf, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if coords.ndim != 3 or coords.shape[2] != 2 or conf.shape != coords.shape[:2] \
            or mask.shape != coords.shape[:2]:
        raise InvalidInputError("frame inputs need (T,K,2) coords and (T,K) conf/mask")
    keep = ~mask
    # filled block by block, so building it holds one T x K block beside it
    out = np.empty((mask.shape[0], 4, mask.shape[1]))
    np.multiply(coords[:, :, 0] - 0.5, keep, out=out[:, 0])
    np.multiply(coords[:, :, 1] - 0.5, keep, out=out[:, 1])
    np.multiply(conf, keep, out=out[:, 2])
    out[:, 3] = mask
    return out.reshape(mask.shape[0], -1)


# A forward whose embedding rows x branch_input_dim x channels reach this
# runs its stride branches on threads, and so does its backward and each
# predict_sequence chunk. On 2 cores with BLAS on one thread, a forward plus
# backward on two threads took 0.90-1.25x the one-thread time at 1.4 x 2^20,
# 0.75-1.02x at 2.9 x 2^20 and 0.55-0.81x from 5.75 x 2^20 up; below 2^20,
# starting threads mostly costs more than the branches save.
BRANCH_THREAD_WORK = 1 << 22

# predict_sequence lifts at most this many centers at a time, each chunk from
# its own chunk + window_len - 1 rows, so its memory beyond the frame inputs
# and the output does not grow with the sequence.
PREDICT_CHUNK = 1024


def _conv_layer(x, taps, bias, s) -> np.ndarray:
    """One dilated conv layer of stride `s` over input rows `x` (arrays):
    output row j is tanh(bias + the sum over taps k of input row j + k*s
    times tap k), the taps added in tap order."""
    out_len = x.shape[-2] - (len(taps) - 1) * s
    h = x[..., :out_len, :] @ taps[0]
    h += bias                   # bias + tap 0: the sum is the same either way round
    for k in range(1, len(taps)):
        h += x[..., k * s: k * s + out_len, :] @ taps[k]
    return np.tanh(h, out=h)


def _branch_forward(x, weights, s) -> list:
    """The layers of one stride-`s` branch over its input rows `x`, which
    forward keeps for its backward: per layer (input, output, taps, bias)."""
    layers = []
    for taps, bias in weights:
        y = _conv_layer(x, [w.data for w in taps], bias.data, s)
        layers.append((x, y, taps, bias))
        x = y
    return layers


def _branch_backward(layers, s, gy) -> np.ndarray:
    """Accumulates one branch's tap and bias gradients from `gy`, the
    gradient of its last layer's output; returns the gradient of its input
    rows, added last tap first."""
    for x, y, taps, bias in reversed(layers):
        gh = gy * (1.0 - y * y)
        rows = gh.reshape(-1, gh.shape[-1])
        bias._accumulate(_unbroadcast(gh, bias.shape))
        out_len = y.shape[-2]
        gy = np.zeros_like(x)
        for k in reversed(range(len(taps))):
            piece = x[..., k * s: k * s + out_len, :]
            taps[k]._accumulate(piece.reshape(-1, piece.shape[-1]).T @ rows)
            gy[..., k * s: k * s + out_len, :] += gh @ taps[k].data.T
    return gy


def _per_branch(groups: list, fn) -> list:
    """fn(branch index) of every branch, in branch order. Each group of
    branch indices runs on its own thread (parallel.run), in group order;
    one group runs on the calling thread alone."""
    out = [None] * sum(map(len, groups))
    jobs = [partial(lambda group: [fn(bi) for bi in group], group) for group in groups]
    for group, got in zip(groups, parallel.run(jobs, len(groups))):
        for bi, value in zip(group, got):
            out[bi] = value
    return out


class TcnModel:
    """Embedding + per-stride dilated conv branches + linear fusion head."""

    def __init__(self, config: TcnConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self._params = {}

        def add(name, value):
            self._params[name] = value

        if config.use_embedding:
            add("embed.w", parameter((config.input_dim, config.embed_dim), rng))
            add("embed.b", parameter(np.zeros(config.embed_dim)))
        self._branch_weights = []     # per branch: (taps, bias) per layer
        for bi in range(len(config.strides)):
            c_in = config.branch_input_dim
            self._branch_weights.append([])
            for li in range(config.branch_layers):
                taps = [parameter((c_in, config.channels), rng) for _ in range(KERNEL)]
                for tap, w in enumerate(taps):
                    add(f"branch{bi}.layer{li}.w{tap}", w)
                add(f"branch{bi}.layer{li}.b", parameter(np.zeros(config.channels)))
                self._branch_weights[-1].append((taps, self._params[f"branch{bi}.layer{li}.b"]))
                c_in = config.channels
        fused = len(config.strides) * config.channels
        # zero head: an untrained model predicts the all-zero pose
        add("head.w", parameter(np.zeros((fused, config.n_keypoints * 3))))
        add("head.b", parameter(np.zeros(config.n_keypoints * 3)))

    # ------------------------------------------------------------- params

    def parameters(self) -> list:
        return list(self._params.values())

    def state_arrays(self) -> dict:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state(self, arrays: dict) -> None:
        missing = set(self._params) - set(arrays)
        if missing:
            raise InvalidInputError(f"checkpoint missing arrays: {sorted(missing)}")
        extra = set(arrays) - set(self._params)
        if extra:
            raise InvalidInputError(f"checkpoint has unexpected arrays: {sorted(extra)}")
        for name, p in self._params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise InvalidInputError(
                    f"array {name!r} has shape {arr.shape}, expected {p.data.shape}")
            p.data = arr.copy()

    def save(self, path) -> None:
        save_checkpoint(path, self.state_arrays(),
                        {"kind": "tcn", "config": asdict(self.config)})

    @classmethod
    def load(cls, path) -> "TcnModel":
        arrays, meta = load_checkpoint(path)
        if meta.get("kind") != "tcn":
            raise InvalidInputError(f"{path}: not a model checkpoint: kind={meta.get('kind')!r}")
        try:
            config = dict(meta["config"])
            for name, fixed in _RETIRED_FIELDS.items():
                value = config.pop(name, fixed)
                if fixed is not None and value != fixed:
                    raise ConfigError(f"{name} = {value!r}, but the lifter's is {fixed!r}")
            model = cls(TcnConfig(**config))
        except (KeyError, AttributeError, TypeError, ValueError, ConfigError) as e:
            raise InvalidInputError(f"checkpoint config in {path} does not build a model: "
                                    f"{e}") from None
        try:
            model.load_state(arrays)
        except InvalidInputError as e:
            raise InvalidInputError(f"{path}: {e}") from None
        return model

    # ------------------------------------------------------------- forward

    def embed_frames(self, coords, conf, mask) -> Tensor:
        """Per-frame representations r_t, shape T x branch_input_dim.

        With the embedding on, the dense layer and its tanh are one
        node whose parents are embed.w and embed.b; the frame inputs are
        constants and get no gradient.
        """
        m = self._frame_inputs(coords, conf, mask)
        if not self.config.use_embedding:
            return Tensor(m)
        w, b = self._params["embed.w"], self._params["embed.b"]
        y = self._embed(m)

        def back(out):
            g = out.grad * (1.0 - y * y)
            b._accumulate(_unbroadcast(g, b.shape))
            w._accumulate(m.T @ g)

        return Tensor(y, (w, b), back)

    def _frame_inputs(self, coords, conf, mask) -> np.ndarray:
        m = frame_inputs(coords, conf, mask)
        if m.shape[1] != self.config.input_dim:
            raise InvalidInputError(
                f"expected {self.config.n_keypoints} keypoints, got {m.shape[1] // 4}")
        return m

    def _embed(self, m: np.ndarray) -> np.ndarray:
        """The embedding rows of frame-input rows `m`: the dense layer and its
        tanh, or `m` itself with the embedding off."""
        if not self.config.use_embedding:
            return m
        y = m @ self._params["embed.w"].data
        y += self._params["embed.b"].data
        return np.tanh(y, out=y)

    def _branches(self, centers: int) -> list:
        """Per branch of a forward over `centers` centers: its stride, the
        embedding rows it reads, and its (taps, bias) parameters per layer.
        A branch reads only its own receptive field, which starts at row
        window_len//2 - (rf-1)//2 for the first center."""
        cfg = self.config
        branches = []
        for s, weights in zip(cfg.strides, self._branch_weights):
            rf = cfg.receptive_field(s)
            # the receptive field is odd: (rf-1)//2 frames either side of the center
            first = cfg.window_len // 2 - (rf - 1) // 2
            branches.append((s, slice(first, first + rf + centers - 1), weights))
        return branches

    def _head(self, fused: np.ndarray) -> np.ndarray:
        """The fusion head over the concatenated branch outputs, in mm."""
        out = fused @ self._params["head.w"].data
        out += self._params["head.b"].data
        out *= OUTPUT_SCALE_MM
        return out

    def forward(self, embeddings, centers: int = 1) -> Tensor:
        """Root-relative poses of `centers` consecutive window centers.

        `embeddings` holds window_len + centers - 1 rows, optionally behind
        leading batch axes. The branches are valid convolutions, so one pass
        serves every center (see _branches for the rows each reads).
        Returns (..., K, 3) for one center, else (..., centers, K, 3).

        This is the training path: the whole lifter is one graph node over
        the embeddings and every branch and head parameter, and it keeps
        every layer of its branch pass (_pass) for its backward.
        predict_sequence runs the same pass on plain arrays and records
        nothing. The backward folds the leading axes into rows, so each
        tap's weight gradient is one (rows, C_in)^T @ (rows, C_out) product.
        It adds input gradients into zeroed arrays last tap first and last
        branch first: the order of the graph with one node per op.

        A wide forward (see branch_groups) runs its stride branches on
        parallel.run threads, one group of branches per thread, and so does
        its backward. Each branch computes exactly what it computes alone,
        and no product is cut; the caller concatenates the branch outputs in
        branch order and adds the branches' input gradients last branch
        first, so every bit is the serial one.
        """
        cfg = self.config
        r = embeddings if isinstance(embeddings, Tensor) else Tensor(embeddings)
        if not isinstance(centers, (int, np.integer)) or centers < 1 or r.ndim < 2 \
                or r.shape[-2] != cfg.window_len + centers - 1:
            raise InvalidWindowError(
                f"expected {centers} center(s) of a {cfg.window_len}-frame window, "
                f"got shape {r.shape}")
        if r.shape[-1] != cfg.branch_input_dim:
            raise InvalidInputError(f"embedding dim {r.shape[-1]} does not match config")
        groups = self.branch_groups(math.prod(r.shape[:-1]), centers)
        branches, layers, fused, out = self._pass(r.data, centers, groups)
        params = self._params
        head_w, head_b = params["head.w"], params["head.b"]

        def back(node):
            g = node.grad.reshape(out.shape) * OUTPUT_SCALE_MM
            head_b._accumulate(_unbroadcast(g, head_b.shape))
            head_w._accumulate(fused.reshape(-1, fused.shape[-1]).T
                               @ g.reshape(-1, g.shape[-1]))
            g_fused = g @ head_w.data.T
            g_in = _per_branch(groups, lambda bi: _branch_backward(
                layers[bi], branches[bi][0],
                g_fused[..., bi * cfg.channels: (bi + 1) * cfg.channels]))
            g_r = np.zeros_like(r.data)
            for bi in reversed(range(len(branches))):
                g_r[..., branches[bi][1], :] += g_in[bi]
            r._accumulate(g_r)

        lead = r.shape[:-2] + ((centers,) if centers > 1 else ())
        parents = (r, *(p for name, p in params.items() if not name.startswith("embed.")))
        return Tensor(out.reshape(lead + (cfg.n_keypoints, 3)), parents, back)

    def _pass(self, r: np.ndarray, centers: int, groups: list) -> tuple:
        """The branch pass over embedding rows `r` (arrays), its branches
        run by `groups` (see branch_groups): (the branches, see _branches;
        per branch its layers, (input, output, taps, bias) per layer; the
        concatenated branch outputs; the head outputs)."""
        branches = self._branches(centers)
        layers = _per_branch(groups, lambda bi: _branch_forward(
            r[..., branches[bi][1], :], branches[bi][2], branches[bi][0]))
        fused = np.concatenate([branch[-1][1] for branch in layers], axis=-1)
        return branches, layers, fused, self._head(fused)

    def _lift(self, r: np.ndarray, centers: int) -> np.ndarray:
        """forward's head outputs (centers x 3K) over plain embedding rows
        `r`, recording nothing; the pass's layers go when this returns."""
        return self._pass(r, centers, self.branch_groups(len(r), centers))[-1]

    def branch_groups(self, rows: int, centers: int) -> list:
        """The branch indices each thread of a forward over `rows` embedding
        rows runs, and its backward: one group, in branch order, unless
        rows x branch_input_dim x channels reaches BRANCH_THREAD_WORK and
        BLAS computes each product on one thread. Then the branches are
        dealt into min(cores, branches) groups, widest receptive field
        first, each onto the group with the fewest layer output rows so far
        (the first such group on a tie)."""
        cfg = self.config
        wide = rows * cfg.branch_input_dim * cfg.channels >= BRANCH_THREAD_WORK \
            and parallel.blas_threads() == 1
        n = min(parallel.cores(), len(cfg.strides)) if wide else 1
        if n < 2:
            return [list(range(len(cfg.strides)))]
        groups, load = [[] for _ in range(n)], [0] * n
        for bi in reversed(range(len(cfg.strides))):
            length = cfg.receptive_field(cfg.strides[bi]) + centers - 1
            step = (KERNEL - 1) * cfg.strides[bi]
            j = load.index(min(load))
            groups[j].append(bi)
            load[j] += sum(length - step * li for li in range(1, cfg.branch_layers + 1))
        return groups

    def predict_sequence(self, det: PoseSequence2D) -> PoseSequence3D:
        """Per-frame 3D; the ends use edge padding.

        Records nothing: builds the T x 4K frame inputs once, then embeds and
        lifts the centers in even chunks of at most PREDICT_CHUNK, each from
        its own chunk + window_len - 1 edge-padded rows, into one T x K x 3
        array. Each chunk runs forward's branch pass (_pass) on plain arrays
        and holds its layers only until its head outputs are written. Wide
        chunks run their branches on threads as forward does, all on one
        parallel.team.

        A sequence of at most PREDICT_CHUNK frames is one chunk, with the very
        products of forward over the whole sequence. Longer ones cut each
        product into row blocks, and BLAS may round a row by the block it is
        in: OpenBLAS's small-matrix kernel (rows x inputs x outputs up to
        10^6) and a one-row (matrix-vector) product do. Even chunks keep at
        least PREDICT_CHUNK // 2 centers, where every product of the
        pipeline's lifters takes the packed kernel and keeps its bits.
        """
        if det.T < 1:
            raise InvalidInputError(f"detections have {det.T} frames; lifting needs at least 1")
        cfg = self.config
        m = self._frame_inputs(det.frames, det.confidence, det.mask)
        left = cfg.window_len // 2
        n = -(-det.T // PREDICT_CHUNK)
        ends = [det.T * i // n for i in range(n + 1)]
        widest = -(-det.T // n)
        preds = np.empty((det.T, cfg.n_keypoints * 3))
        with parallel.team(len(self.branch_groups(widest + cfg.window_len - 1, widest))):
            for a, b in zip(ends, ends[1:]):
                # rows before the first frame and past the last take its edge
                rows = m.take(np.arange(a - left, b - left + cfg.window_len - 1), axis=0,
                              mode="clip")
                preds[a:b] = self._lift(self._embed(rows), b - a)
        return PoseSequence3D(preds.reshape(det.T, cfg.n_keypoints, 3), root_relative=True,
                              actions=None if det.actions is None else list(det.actions))


# ------------------------------------------------------------------ losses
#
# Each loss is one graph node with its gradient written out in numpy, as
# iso.rep_loss is. Gradients flow to whichever inputs are Tensors; plain
# arrays and pose containers are constants. Means are sum * (1 / n), as
# Tensor.mean computes them, so values match the per-op graphs that
# tests/oracles.py keeps byte for byte.


def _operand(x) -> tuple:
    """(the Tensor or None, its array) of a loss input; only Tensors get gradients."""
    if isinstance(x, Tensor):
        return x, x.data
    if isinstance(x, PoseSequence3D):
        x = x.frames
    return None, np.asarray(x, dtype=np.float64)


def _loss_node(value, inputs, grads) -> Tensor:
    """A loss node over `inputs` (Tensor or None); `grads(g)` gives each one's gradient."""
    parents = [t for t in inputs if t is not None]

    def back(out):
        for t, g in zip(inputs, grads(out.grad)):
            if t is not None:
                t._accumulate(_unbroadcast(g, t.shape))

    return Tensor(value, parents, back)


def _joint_mse(pred, gt, rotation=None) -> Tensor:
    """Mean over joints of |pred @ rotation^T - gt|^2; no rotation when None."""
    p, a = _operand(pred)
    q, b = _operand(gt)
    d = (a if rotation is None else a @ np.swapaxes(rotation, -1, -2)) - b
    sq = (d * d).sum(axis=-1).reshape(-1)

    def grads(g):
        gd = (g * (1.0 / sq.size)) * d
        gd = gd + gd
        return (gd if rotation is None else gd @ rotation), -gd

    return _loss_node(sq.sum() * (1.0 / sq.size), (p, q), grads)


def loss_3d(pred, gt) -> Tensor:
    """Mean over joints of squared Euclidean error, mm^2."""
    return _joint_mse(pred, gt)


def loss_multiview(pred_v1, pred_v2, rotation: np.ndarray) -> Tensor:
    """loss_3d between view-1 predictions mapped through R(v1->v2) and view 2.

    `rotation` is 3x3, or a stack of them, one per leading entry of the poses.
    """
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape[-2:] != (3, 3):
        raise InvalidInputError("rotation must be 3x3")
    return _joint_mse(pred_v1, pred_v2, r)


def loss_2d(pred, gt2d, mask=None, scale_mm=None) -> Tensor:
    """Reprojection error in normalized crop units, unmasked keypoints only.

    The prediction is projected by dropping z, divided by scale_mm and
    shifted to the crop center 0.5; a sample's loss is the mean squared
    error over its unmasked keypoints. Accepts a PoseSequence2D or explicit
    (coords, mask, scale_mm) arrays. A single scale_mm means one sample; a
    list of them, one per leading entry of `pred`, means a stack of samples
    (a training batch), and the loss is the sum of each entry's loss.
    Masked entries carry exactly zero gradient; a fully masked target gives 0.
    """
    if isinstance(gt2d, PoseSequence2D):
        coords, mask, scale_mm = gt2d.frames, gt2d.mask, gt2d.scale_mm
    elif mask is None or scale_mm is None:
        raise InvalidInputError("array form needs mask and scale_mm")
    else:
        coords = gt2d
    stacked = np.ndim(scale_mm) == 1
    scales = list(scale_mm) if stacked else [scale_mm]
    if any(s is None or s <= 0 for s in scales):
        raise InvalidInputError("every sample needs scale_mm > 0")
    p, x = _operand(pred)
    coords = np.asarray(coords, dtype=np.float64)
    keep = (~np.asarray(mask, dtype=bool)).astype(np.float64)
    if not stacked:
        x, coords, keep = x[None], coords[None], keep[None]
    n = len(scales)
    if x.shape[-1:] != (3,) or x.shape[:-1] + (2,) != coords.shape \
            or keep.shape != coords.shape[:-1] or x.shape[0] != n:
        raise InvalidInputError("prediction and 2D target shapes do not match")
    sample_axes = (n,) + (1,) * (x.ndim - 1)
    inv_scale = (1.0 / np.asarray(scales, dtype=np.float64)).reshape(sample_axes)
    d = (x[..., :2] * inv_scale + 0.5 - coords) * keep[..., None]
    inv_count = 1.0 / np.maximum(keep.reshape(n, -1).sum(axis=1), 1.0)

    def grads(g):
        gd = (g * inv_count).reshape(sample_axes) * d
        gd = gd + gd
        gx = np.zeros_like(x)
        gx[..., :2] = gd * inv_scale     # d, and so gd, is 0 where masked
        return (gx if stacked else gx[0],)

    return _loss_node(((d * d).reshape(n, -1).sum(axis=1) * inv_count).sum(), (p,), grads)


def total_loss(l3d, lmv, l2d, lgen, weights: LossWeights = LossWeights()) -> Tensor:
    """l3d + w1 * lmv + w2 * l2d + w3 * lgen as one node; floats are constants."""
    parts = [_operand(x) for x in (l3d, lmv, l2d, lgen)]
    scales = (weights.w1, weights.w2, weights.w3)
    value = parts[0][1]
    for (_, v), w in zip(parts[1:], scales):
        value = value + v * w
    return _loss_node(value, [t for t, _ in parts],
                      lambda g: (g, *(g * w for w in scales)))


# ---------------------------------------------------------------- training


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-6
    momentum: float = 0.9
    steps_per_epoch: int = 60
    batch_size: int = 8
    seed: int = 0
    weights: LossWeights = LossWeights()
    gen_window: int = 4          # consecutive center frames fed to the scorer
    lr_decay: float = 1.0        # per-epoch multiplier
    snapshot_every: int = 25

    def __post_init__(self):
        if self.lr < 0 or not (0 <= self.momentum < 1):
            raise ConfigError("need lr >= 0 and 0 <= momentum < 1")
        if self.steps_per_epoch < 1 or self.gen_window < 2 or self.snapshot_every < 1:
            raise ConfigError("steps_per_epoch >= 1, gen_window >= 2, "
                              "snapshot_every >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr_decay <= 0:
            raise ConfigError("lr_decay must be > 0")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")


def _matrices(augs) -> np.ndarray:
    """The matrices of RotationAugments as one stack, from one rotation_matrix call."""
    return rotation_matrix(*np.array([(a.alpha, a.beta, a.gamma) for a in augs]).T)


def train(model: TcnModel, sequences: list, cfg: TrainConfig,
          epochs: int = 1, scorer=None) -> list:
    """SGD over randomly sampled windows; returns per-epoch loss history.

    Each sequence exposes .views, and each view carries .rotation
    (RotationAugment), .det2d (PoseSequence2D) and .pose3d (that view's
    ground truth, or None for 2D-only sequences, which then contribute
    only the reprojection term). A sequence too short for a window raises.

    A step draws its whole batch first, then runs one forward over every
    sample's view-1 frames (all `gen_window` chain centers at once when a
    scorer is plugged in) and one over the view-2 windows. The scorer's
    gen_loss gets all the rotated chains as one batch_size x gen_window x
    K x 3 array and returns the sum of their per-window losses.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum)
    w = model.config.window_len
    wt = cfg.weights
    chain_len = cfg.gen_window if scorer is not None else 1
    need = w + chain_len - 1
    if not sequences:
        raise InvalidInputError("no sequence to train on")
    for i, seq in enumerate(sequences):
        if not seq.views or seq.views[0].det2d.T < need:
            has = f"{seq.views[0].det2d.T} frames" if seq.views else "no views"
            raise InvalidInputError(f"sequence {i} has {has}, but a window needs {need} frames")
        frames = seq.views[0].det2d.T
        for v, view in enumerate(seq.views):
            if view.det2d.T != frames:
                raise InvalidInputError(f"sequence {i} view {v} has {view.det2d.T} detection "
                                        f"frames, but view 0 has {frames}")
            if view.pose3d is not None and view.pose3d.T != frames:
                raise InvalidInputError(f"sequence {i} view {v} has {view.pose3d.T} pose3d "
                                        f"frames, but {frames} detection frames")

    def embed(dets, starts, length):
        """One embed_frames call over `length` frames of each det; B x length x C."""
        rows = [slice(s, s + length) for s in starts]
        emb = model.embed_frames(
            np.concatenate([d.frames[r] for d, r in zip(dets, rows)]),
            np.concatenate([d.confidence[r] for d, r in zip(dets, rows)]),
            np.concatenate([d.mask[r] for d, r in zip(dets, rows)]))
        return emb.reshape(len(dets), length, -1)

    snapshot = model.state_arrays()
    history = []
    zero = Tensor(0.0)
    # one team for every wide forward and backward of the run, so its
    # workers start once
    with parallel.team(len(model.branch_groups(cfg.batch_size * need, chain_len))):
        for epoch in range(epochs):
            sums = {"loss": 0.0, "loss_3d": 0.0, "loss_mv": 0.0,
                    "loss_2d": 0.0, "loss_gen": 0.0}
            for step in range(cfg.steps_per_epoch):
                view1s, view2s, starts, rots = [], [], [], []
                for _ in range(cfg.batch_size):
                    seq = sequences[rng.integers(len(sequences))]
                    n_views = len(seq.views)
                    v1 = int(rng.integers(n_views))
                    v2 = None
                    if n_views > 1:
                        v2 = int(rng.integers(n_views - 1))
                        if v2 >= v1:
                            v2 += 1
                    view1s.append(seq.views[v1])
                    view2s.append(None if v2 is None else seq.views[v2])
                    starts.append(int(rng.integers(view1s[-1].det2d.T - need + 1)))
                    if scorer is not None:
                        rots.append(RotationAugment.sample(rng))
                centers = [s + w // 2 for s in starts]

                chain = model.forward(embed([v.det2d for v in view1s], starts, need),
                                      centers=chain_len)
                pred1 = chain if chain_len == 1 else chain[:, 0]
                gt = [i for i, v in enumerate(view1s) if v.pose3d is not None]
                mv = [i for i in gt if view2s[i] is not None]
                l3 = lmv = lgen = zero
                if gt:
                    l3 = loss_3d(pred1[gt], np.stack([view1s[i].pose3d.frames[centers[i]]
                                                      for i in gt])) * len(gt)
                if mv:
                    pred2 = model.forward(embed([view2s[i].det2d for i in mv],
                                                [starts[i] for i in mv], w))
                    r12 = _matrices(view2s[i].rotation for i in mv) \
                        @ np.swapaxes(_matrices(view1s[i].rotation for i in mv), -1, -2)
                    lmv = loss_multiview(pred1[mv], pred2, r12) * len(mv)
                l2 = loss_2d(pred1, np.stack([v.det2d.frames[c] for v, c in zip(view1s, centers)]),
                             np.stack([v.det2d.mask[c] for v, c in zip(view1s, centers)]),
                             [v.det2d.scale_mm for v in view1s])
                if scorer is not None:
                    rotated = chain @ Tensor(np.swapaxes(_matrices(rots), -1, -2)[:, None])
                    lgen = scorer.gen_loss(rotated)
                inv = 1.0 / cfg.batch_size
                l3, lmv, l2, lgen = l3 * inv, lmv * inv, l2 * inv, lgen * inv
                loss = total_loss(l3, lmv, l2, lgen, wt)

                if not np.isfinite(loss.data):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch} step {step}",
                        checkpoint=snapshot)
                opt.zero_grad()
                loss.backward()
                opt.step()
                if any(not np.all(np.isfinite(p.data)) for p in model.parameters()):
                    raise TrainingDivergedError(
                        f"non-finite parameters at epoch {epoch} step {step}",
                        checkpoint=snapshot)
                if (step + 1) % cfg.snapshot_every == 0:
                    snapshot = model.state_arrays()

                sums["loss"] += loss.data.item()
                sums["loss_3d"] += l3.data.item()
                sums["loss_mv"] += lmv.data.item()
                sums["loss_2d"] += l2.data.item()
                sums["loss_gen"] += lgen.data.item()
            record = {k: v / cfg.steps_per_epoch for k, v in sums.items()}
            record["epoch"] = epoch
            history.append(record)
            opt.lr *= cfg.lr_decay
    return history
