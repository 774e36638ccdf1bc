"""Independent oracles for the visibility and lifter tests.

The geometry oracles compute visibility from the pose and topology alone,
without touching poselift.visibility internals. Rays march from the keypoint
toward the camera, direction (0, 0, -1).

The lifter oracles are the straightforward reference forms of the TCN: a
numpy forward that convolves the whole window and keeps its center column,
the forward built as a Tensor graph with one slice, matmul and add node per
conv tap, per-frame sequence lifting, and a training loop that embeds and
runs every window of every sample on its own.

The loss-term oracles are the per-op Tensor graphs of the lifter's
embedding and its 3D, multi-view, 2D reprojection and total losses, of the
KCS energy (over the Tensor-graph KCS/TKCS feature rows, window_features),
the ISO reprojection term and the ISO smoothness term, against which the
closed-form single-node versions are checked. The KCS energy also has a
bit-exact oracle: its closed form written with a fresh array per step
(concatenated feature rows, a zeroed M x M scatter for the symmetric
gradient), which the one-buffer kernel must reproduce bit for bit.

The synthesis and metric oracles are the per-frame forms of the
frame-batched code: cylinder visibility one frame at a time, Rodrigues
matrices and forward kinematics one joint of one frame at a time, one
rotation matrix per frame, and one Procrustes fit per frame. The batched
code must reproduce them byte for byte.
"""

import numpy as np

from poselift import synth
from poselift.autodiff import SGD, Tensor
from poselift.errors import (ConfigError, DegenerateInputError, InvalidInputError,
                             InvalidWindowError, TopologyError, TrainingDivergedError)
from poselift.iso import HARD_THRESHOLD, REFIT_EVERY, compute_weights, fit_projection
from poselift.skeleton import (CROP_PX, PoseSequence2D, PoseSequence3D, RotationAugment,
                               project_to_crop, rotate_pose)
from poselift.tcn import KERNEL, OUTPUT_SCALE_MM, LossWeights, frame_inputs


def cylinder_table(frame, topo):
    """(top, bottom, radius, defining-index-pair) per body cylinder."""
    neck, sh_l, sh_r = topo.torso[0], topo.torso[1], topo.torso[2]
    torso_r = 0.5 * (np.linalg.norm(frame[sh_l] - frame[neck])
                     + np.linalg.norm(frame[sh_r] - frame[neck]))
    rows = []
    for spec in topo.cylinders:
        r = torso_r if spec.radius_mm is None else spec.radius_mm
        rows.append((frame[spec.top], frame[spec.bottom], r, (spec.top, spec.bottom)))
    return rows


def rectangle_frame(top, bottom):
    """(u_hat, w_hat, n_hat, height) of the camera-facing diametral rectangle.

    Returns None when the axis is degenerate or parallel to the view axis.
    """
    u = bottom - top
    h = np.linalg.norm(u)
    if h < 1e-9:
        return None
    u_hat = u / h
    w = np.array([u[1], -u[0], 0.0])
    wn = np.linalg.norm(w)
    if wn < 1e-9:
        return None
    w_hat = w / wn
    n = np.cross(u_hat, w_hat)
    n /= np.linalg.norm(n)
    if n[2] > 0:
        n = -n
    return u_hat, w_hat, n, h


def ray_hits_rectangle(point, top, bottom, radius):
    """March toward the camera; does the ray pierce the diametral patch?

    Returns (hit: bool, margins: (plane_dist_mm, axis_mm, lateral_mm)) where
    the margins measure distance to the nearest decision boundary; margins
    are +inf for non-gating configurations.
    """
    fr = rectangle_frame(top, bottom)
    if fr is None:
        return False, (np.inf, np.inf, np.inf)
    u_hat, w_hat, n, h = fr
    d = (point - top) @ n
    # ray: point + t (0,0,-1); plane crossing at t* = -d / |n_z|, n_z < 0
    nz = abs(n[2])
    if nz < 1e-12:
        return False, (np.inf, np.inf, np.inf)
    t_star = -d / nz
    pierce = point + t_star * np.array([0.0, 0.0, -1.0])
    rel = pierce - top
    s = rel @ u_hat
    q = rel @ w_hat
    inside = (0.0 <= s <= h) and (abs(q) <= radius)
    hit = t_star > 0.0 and inside
    axis_margin = min(abs(s), abs(h - s))
    lat_margin = abs(radius - abs(q))
    return hit, (abs(d), axis_margin, lat_margin)


def visible_by_rectangle_oracle(point_index, frame, topo):
    """(visible, min_margin_mm) for the rectangle-patch ray oracle."""
    point = frame[point_index]
    visible = True
    min_margin = np.inf
    for top, bottom, r, defining in cylinder_table(frame, topo):
        if point_index in defining:
            continue
        hit, (dplane, maxis, mlat) = ray_hits_rectangle(point, top, bottom, r)
        # margin only matters when the configuration is near a decision
        # boundary: near the plane while inside-ish, or near a patch edge
        # while behind-ish
        fr = rectangle_frame(top, bottom)
        if fr is None:
            continue
        u_hat, w_hat, n, h = fr
        rel = point - top
        s2 = rel @ u_hat
        q2 = rel @ w_hat
        inside_expanded = (-1.0 <= s2 <= h + 1.0) and (abs(q2) <= r + 1.0)
        if inside_expanded:
            min_margin = min(min_margin, dplane, maxis, mlat)
        if hit:
            visible = False
    return visible, min_margin


def rectangle_oracle_frame(frame, topo):
    """Vectorized visible_by_rectangle_oracle over all keypoints of a frame.

    Returns (visible: K bool, margin: K float). Same math as the scalar
    routine, batched; the module tests cross-check the two.
    """
    k_count = frame.shape[0]
    rows = cylinder_table(frame, topo)
    visible = np.ones(k_count, dtype=bool)
    margin = np.full(k_count, np.inf)
    ray = np.array([0.0, 0.0, -1.0])
    for top, bottom, r, defining in rows:
        fr = rectangle_frame(top, bottom)
        if fr is None:
            continue
        u_hat, w_hat, n, h = fr
        nz = abs(n[2])
        if nz < 1e-12:
            continue
        rel = frame - top
        d = rel @ n
        t_star = -d / nz
        pierce = rel + t_star[:, None] * ray
        s = pierce @ u_hat
        q = pierce @ w_hat
        inside = (s >= 0.0) & (s <= h) & (np.abs(q) <= r)
        hit = (t_star > 0.0) & inside
        s2 = rel @ u_hat
        q2 = rel @ w_hat
        expanded = (s2 >= -1.0) & (s2 <= h + 1.0) & (np.abs(q2) <= r + 1.0)
        cand = np.minimum(np.abs(d), np.minimum(
            np.minimum(np.abs(s), np.abs(h - s)), np.abs(r - np.abs(q))))
        self_mask = np.zeros(k_count, dtype=bool)
        self_mask[list(defining)] = True
        margin = np.where(expanded & ~self_mask, np.minimum(margin, cand), margin)
        visible &= ~(hit & ~self_mask)
    return visible, margin


def solid_interval(point, top, bottom, radius):
    """[t_enter, t_exit] of ray point + t(0,0,-1) inside the solid cylinder.

    Returns (None, info) when the ray misses. info carries whether the entry
    happens through a cap face and whether the point starts inside.
    """
    u = bottom - top
    h = np.linalg.norm(u)
    if h < 1e-9:
        return None, {}
    u_hat = u / h
    d = np.array([0.0, 0.0, -1.0])
    p0 = point - top
    d_perp = d - (d @ u_hat) * u_hat
    p_perp = p0 - (p0 @ u_hat) * u_hat
    a = d_perp @ d_perp
    b = 2.0 * (p_perp @ d_perp)
    c = p_perp @ p_perp - radius * radius
    if a < 1e-12:
        if c > 0:
            return None, {}
        t_cyl = (-np.inf, np.inf)
    else:
        disc = b * b - 4 * a * c
        if disc < 0:
            return None, {}
        sq = np.sqrt(disc)
        t_cyl = ((-b - sq) / (2 * a), (-b + sq) / (2 * a))
    du = d @ u_hat
    su = p0 @ u_hat
    if abs(du) < 1e-12:
        if not (0.0 <= su <= h):
            return None, {}
        t_slab = (-np.inf, np.inf)
    else:
        lo = (0.0 - su) / du
        hi = (h - su) / du
        t_slab = (min(lo, hi), max(lo, hi))
    te = max(t_cyl[0], t_slab[0])
    tx = min(t_cyl[1], t_slab[1])
    if te > tx:
        return None, {}
    entry_via_cap = t_slab[0] >= t_cyl[0]
    inside_now = te <= 0.0 <= tx
    return (te, tx), {"entry_via_cap": entry_via_cap, "inside_now": inside_now}


def point_in_dilated_solid(point, top, bottom, radius, dilate=1.0):
    u = bottom - top
    h = np.linalg.norm(u)
    if h < 1e-9:
        return False
    u_hat = u / h
    rel = point - top
    s = rel @ u_hat
    lat = np.linalg.norm(rel - s * u_hat)
    return (-dilate <= s <= h + dilate) and lat <= radius + dilate


def visible_by_solid_oracle(point_index, frame, topo):
    """(visible, diagnostics) for the solid-cylinder entering-hit oracle.

    outside_patch_hit marks solid hits whose diametral rectangle is NOT
    pierced: the cap-overhang zone beyond the rectangle ends, where the
    rectangle gate and true cylinder occlusion legitimately differ.
    """
    point = frame[point_index]
    visible = True
    inside_any = False
    cap_entry = False
    outside_patch_hit = False
    for top, bottom, r, defining in cylinder_table(frame, topo):
        if point_index in defining:
            continue
        if point_in_dilated_solid(point, top, bottom, r):
            inside_any = True
        interval, info = solid_interval(point, top, bottom, r)
        if interval is None:
            continue
        te, tx = interval
        if te > 0.0:
            visible = False
            if info.get("entry_via_cap"):
                cap_entry = True
            rect_hit, _ = ray_hits_rectangle(point, top, bottom, r)
            if not rect_hit:
                outside_patch_hit = True
    return visible, {"inside_any": inside_any, "cap_entry": cap_entry,
                     "outside_patch_hit": outside_patch_hit}


# ------------------------------------------------------------ lifter oracles


def window_forward(model, emb):
    """Center-frame pose (K x 3) of one window: every branch convolves the
    whole window in plain numpy, and its middle output row is kept."""
    cfg = model.config
    p = model.state_arrays()
    cols = []
    for bi, s in enumerate(cfg.strides):
        x = np.asarray(emb, dtype=np.float64)
        for li in range(cfg.branch_layers):
            out_len = len(x) - (KERNEL - 1) * s
            h = p[f"branch{bi}.layer{li}.b"] + sum(
                x[tap * s: tap * s + out_len] @ p[f"branch{bi}.layer{li}.w{tap}"]
                for tap in range(KERNEL))
            x = np.tanh(h)
        cols.append(x[len(x) // 2])
    out = (np.concatenate(cols) @ p["head.w"] + p["head.b"]) * OUTPUT_SCALE_MM
    return out.reshape(cfg.n_keypoints, 3)


def forward_per_tap(model, embeddings, centers=1):
    """TcnModel.forward with every dilated conv tap built from Tensor ops:
    a slice of the layer input, a matmul by the tap weight and an add."""
    cfg = model.config
    p = model._params
    r = embeddings if isinstance(embeddings, Tensor) else Tensor(embeddings)
    cols = []
    for bi, s in enumerate(cfg.strides):
        rf = cfg.receptive_field(s)
        first = cfg.window_len // 2 - (rf - 1) // 2
        x = r[..., first: first + rf + centers - 1, :]
        length = rf + centers - 1
        for li in range(cfg.branch_layers):
            out_len = length - (KERNEL - 1) * s
            h = p[f"branch{bi}.layer{li}.b"]
            for tap in range(KERNEL):
                piece = x[..., tap * s: tap * s + out_len, :]
                h = h + piece @ p[f"branch{bi}.layer{li}.w{tap}"]
            x = h.tanh()
            length = out_len
        cols.append(x)
    fused = Tensor.concat(cols, axis=-1)
    out = (fused @ p["head.w"] + p["head.b"]) * OUTPUT_SCALE_MM
    lead = r.shape[:-2] + ((centers,) if centers > 1 else ())
    return out.reshape(lead + (cfg.n_keypoints, 3))


def predict_sequence_per_frame(model, det):
    """Per-frame lifting by sliding one window over the edge-padded sequence."""
    w = model.config.window_len
    pad = ((w // 2, w - w // 2 - 1), (0, 0))
    emb = model.embed_frames(np.pad(det.frames, pad + ((0, 0),), mode="edge"),
                             np.pad(det.confidence, pad, mode="edge"),
                             np.pad(det.mask, pad, mode="edge")).data
    return np.stack([window_forward(model, emb[t: t + w]) for t in range(det.T)])


def _predict_chain(model, det, start, count):
    w = model.config.window_len
    preds = []
    for j in range(start, start + count):
        emb = model.embed_frames(det.frames[j: j + w], det.confidence[j: j + w],
                                 det.mask[j: j + w])
        preds.append(model.forward(emb))
    return preds


def train_per_window(model, sequences, cfg, epochs=1, scorer=None):
    """poselift.tcn.train with one forward per window and per-sample losses."""
    rng = np.random.default_rng(cfg.seed)
    opt = SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum)
    w = model.config.window_len
    chain_len = cfg.gen_window if scorer is not None else 1
    need = w + chain_len - 1
    usable = [s for s in sequences if s.views and s.views[0].det2d.T >= need]
    if not usable:
        raise InvalidInputError(f"no sequence has the {need} frames a window needs")
    history = []
    zero = Tensor(0.0)
    for epoch in range(epochs):
        sums = {"loss": 0.0, "loss_3d": 0.0, "loss_mv": 0.0,
                "loss_2d": 0.0, "loss_gen": 0.0}
        for step in range(cfg.steps_per_epoch):
            parts = {"loss_3d": zero, "loss_mv": zero, "loss_2d": zero,
                     "loss_gen": zero}
            for _ in range(cfg.batch_size):
                seq = usable[rng.integers(len(usable))]
                n_views = len(seq.views)
                v1 = int(rng.integers(n_views))
                v2 = None
                if n_views > 1:
                    v2 = int(rng.integers(n_views - 1))
                    if v2 >= v1:
                        v2 += 1
                view1 = seq.views[v1]
                start = int(rng.integers(view1.det2d.T - need + 1))
                center = start + w // 2
                chain = _predict_chain(model, view1.det2d, start, chain_len)
                pred1 = chain[0]
                has_gt = view1.pose3d is not None
                if has_gt:
                    parts["loss_3d"] = parts["loss_3d"] + loss_3d_graph(
                        pred1, view1.pose3d.frames[center])
                if v2 is not None and has_gt:
                    view2 = seq.views[v2]
                    pred2 = _predict_chain(model, view2.det2d, start, 1)[0]
                    r12 = view2.rotation.matrix() @ view1.rotation.matrix().T
                    parts["loss_mv"] = parts["loss_mv"] + loss_multiview_graph(
                        pred1, pred2, r12)
                parts["loss_2d"] = parts["loss_2d"] + loss_2d_graph(
                    pred1, view1.det2d.frames[center], view1.det2d.mask[center],
                    view1.det2d.scale_mm)
                if scorer is not None:
                    window3 = Tensor.concat([p.reshape(1, -1, 3) for p in chain], axis=0)
                    rot = RotationAugment.sample(rng).matrix()
                    parts["loss_gen"] = parts["loss_gen"] + scorer.gen_loss(
                        window3 @ Tensor(rot.T))
            inv = 1.0 / cfg.batch_size
            l3, lmv = parts["loss_3d"] * inv, parts["loss_mv"] * inv
            l2, lgen = parts["loss_2d"] * inv, parts["loss_gen"] * inv
            loss = total_loss_graph(l3, lmv, l2, lgen, cfg.weights)
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch} step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step()
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


# --------------------------------------------------------- loss-term oracles


def _graph_input(pose):
    if isinstance(pose, Tensor):
        return pose
    if isinstance(pose, PoseSequence3D):
        return Tensor(pose.frames)
    return Tensor(np.asarray(pose, dtype=np.float64))


def embed_frames_graph(model, coords, conf, mask):
    """TcnModel.embed_frames as a dense layer and a tanh of Tensor ops."""
    m = Tensor(frame_inputs(coords, conf, mask))
    if not model.config.use_embedding:
        return m
    return (m @ model._params["embed.w"] + model._params["embed.b"]).tanh()


def loss_3d_graph(pred, gt):
    """poselift.tcn.loss_3d through Tensor ops."""
    d = _graph_input(pred) - _graph_input(gt)
    return (d * d).sum(axis=-1).reshape(-1).mean()


def loss_multiview_graph(pred_v1, pred_v2, rotation):
    """poselift.tcn.loss_multiview through Tensor ops."""
    r = np.asarray(rotation, dtype=np.float64)
    return loss_3d_graph(_graph_input(pred_v1) @ Tensor(np.swapaxes(r, -1, -2)), pred_v2)


# selection matrix: 3D mm -> 2D mm, drop z
_PROJECT = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def loss_2d_sum_graph(pred, coords, mask, scale_mm):
    """poselift.tcn.loss_2d of a stack, one scale_mm per sample, through Tensor ops:
    per-sample means, summed."""
    x = _graph_input(pred)
    n = len(scale_mm)
    inv_scale = 1.0 / np.asarray(scale_mm, dtype=np.float64)
    proj = (x @ Tensor(_PROJECT)) * Tensor(inv_scale.reshape((n,) + (1,) * (x.ndim - 1))) + 0.5
    keep = (~np.asarray(mask, dtype=bool)).astype(np.float64)
    d = (proj - Tensor(coords)) * Tensor(keep[..., None])
    per_sample = (d * d).reshape(n, -1).sum(axis=1)
    return (per_sample * Tensor(1.0 / np.maximum(keep.reshape(n, -1).sum(axis=1), 1.0))).sum()


def loss_2d_graph(pred, coords, mask, scale_mm):
    """poselift.tcn.loss_2d (array form) through Tensor ops."""
    x = _graph_input(pred)
    proj = (x @ Tensor(_PROJECT)) * (1.0 / scale_mm) + 0.5
    keep = (~np.asarray(mask, dtype=bool)).astype(np.float64)
    d = (proj - Tensor(np.asarray(coords, dtype=np.float64))) * Tensor(keep[..., None])
    return (d * d).sum() * (1.0 / max(keep.sum(), 1.0))


def total_loss_graph(l3d, lmv, l2d, lgen, weights=LossWeights()):
    """poselift.tcn.total_loss through Tensor ops."""
    return Tensor._lift(l3d) + weights.w1 * Tensor._lift(lmv) \
        + weights.w2 * Tensor._lift(l2d) + weights.w3 * Tensor._lift(lgen)


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


def energy_gen_loss_graph(model, window):
    """KcsEnergyModel.gen_loss through window_features and Tensor ops."""
    d = window_features(_graph_input(window), model.incidence, model.interval) \
        - Tensor(model.mean)
    return ((d @ Tensor(model.precision)) * d).sum(axis=1).mean()


def energies_and_grad_by_graph(gen_loss, frames, weight):
    """KcsEnergyModel.energies_and_grad through a Tensor-graph gen_loss, one
    window at a time: each window's energy, and the gradient that
    backward() leaves on it under a `weight` * energy node."""
    frames = np.asarray(frames, dtype=np.float64)
    windows = frames.reshape((-1,) + frames.shape[-3:])
    energies, grad = np.empty(len(windows)), np.empty_like(windows)
    for b, window in enumerate(windows):
        x = Tensor(window.copy(), requires_grad=True)
        energy = gen_loss(x)
        (energy * weight).backward()
        energies[b], grad[b] = energy.item(), x.grad
    return energies.reshape(frames.shape[:-3]), grad.reshape(frames.shape)


class GraphEnergy:
    """A KcsEnergyModel scorer whose gen_loss is the per-op graph.

    A B x T x K x 3 batch gives the sum of its windows' graphs, one window
    at a time, as KcsEnergyModel.gen_loss does for batches.
    """

    def __init__(self, model):
        self.model = model

    def gen_loss(self, window):
        x = _graph_input(window)
        if x.ndim == 3:
            return energy_gen_loss_graph(self.model, x)
        total = Tensor(0.0)
        for b in range(x.shape[0]):
            total = total + energy_gen_loss_graph(self.model, x[b])
        return total

    def energies_and_grad(self, frames, weight, work=None, parts=1):
        return energies_and_grad_by_graph(self.gen_loss, frames, weight)

    def workspace(self, lead):
        return {}


def feature_rows_concat(frames, incidence, interval):
    """kcs.feature_rows as three fresh arrays joined by np.concatenate."""
    t, m = frames.shape[-3], incidence.shape[1]
    iu = np.triu_indices(m)
    bones = np.swapaxes(frames, -1, -2) @ incidence
    psi = np.swapaxes(bones, -1, -2) @ bones
    psi_flat = psi[..., iu[0], iu[1]]
    phi_flat = np.zeros_like(psi_flat)
    phi_flat[..., :t - interval, :] = psi_flat[..., interval:, :] \
        - psi_flat[..., :t - interval, :]
    coords = frames.reshape(frames.shape[:-2] + (-1,))
    return bones, np.concatenate([psi_flat, phi_flat, coords], axis=-1)


def energy_gen_loss_closed_form(model, window):
    """KcsEnergyModel.gen_loss with fresh temporaries: d = rows - mean, the
    energy from y * d, and g + g^T from a zeroed M x M scatter of the
    upper-triangle gradient, then a batched incidence product."""
    if isinstance(window, PoseSequence3D):
        window = window.frames
    x = window if isinstance(window, Tensor) else Tensor(np.asarray(window, dtype=np.float64))
    bones, rows = feature_rows_concat(x.data, model.incidence, model.interval)
    d = rows - model.mean
    y = d @ model.precision
    t, i = d.shape[-2], model.interval
    m = model.incidence.shape[1]
    iu0, iu1 = np.triu_indices(m)
    u = len(iu0)
    energies = (y * d).sum(axis=-1).sum(axis=-1) * (1.0 / t)
    total = 0.0
    for energy in energies.reshape(-1).tolist():
        total += energy

    def back(out):
        gf = y * (2.0 * out.grad / t)
        gpsi = gf[..., :u].copy()
        gphi = gf[..., :t - i, u: 2 * u]
        gpsi[..., i:, :] += gphi
        gpsi[..., :t - i, :] -= gphi
        g = np.zeros(gpsi.shape[:-1] + (m, m))
        g[..., iu0, iu1] = gpsi
        gbones = bones @ (g + np.swapaxes(g, -1, -2))
        gx = model.incidence @ np.swapaxes(gbones, -1, -2)
        gx += gf[..., 2 * u:].reshape(gx.shape)
        x._accumulate(gx)

    return Tensor(total, (x,), back)


class ClosedFormEnergy:
    """A KcsEnergyModel scorer whose gen_loss is energy_gen_loss_closed_form."""

    def __init__(self, model):
        self.model = model

    def gen_loss(self, window):
        return energy_gen_loss_closed_form(self.model, window)

    def energies_and_grad(self, frames, weight, work=None, parts=1):
        return energies_and_grad_by_graph(self.gen_loss, frames, weight)

    def workspace(self, lead):
        return {}


def rep_loss_graph(pose, det2d, cfg, scale=None, translation=None, weights=None):
    """poselift.iso.rep_loss through Tensor ops."""
    x = _graph_input(pose)
    if scale is None or translation is None:
        scale, translation = fit_projection(x.data, det2d)
    if weights is None:
        weights = compute_weights(x.data, det2d, cfg, scale, translation)
    proj = x[:, :, :2] * scale + Tensor(translation[:, None, :])
    d = (proj - Tensor(det2d.frames)) * CROP_PX
    sq = (d * d).sum(axis=2)
    return (sq * Tensor(weights)).sum()


def smooth_loss_graph(pose):
    """poselift.iso.smooth_loss through Tensor ops."""
    x = _graph_input(pose)
    if x.shape[0] < 2:
        return Tensor(0.0)
    d = x[1:] - x[: x.shape[0] - 1]
    return (d * d).sum()


# ------------------------------------------------------ refinement oracle


def weights_per_window(frames, det2d, cfg, scale, trans):
    """poselift.iso.compute_weights with fresh arrays: map, project, weigh, mask."""
    conf = det2d.confidence
    if cfg.calibration is not None:
        conf = np.where(det2d.mask, 0.0, cfg.calibration(conf))
    proj = frames[:, :, :2] * scale + trans[:, None, :]
    dist = np.linalg.norm(proj - det2d.frames, axis=2) * CROP_PX
    w = {"constant": lambda: np.ones_like(conf),
         "confidence": lambda: conf.copy(),
         "hard": lambda: np.where(conf >= HARD_THRESHOLD, conf, 0.0),
         "soft": lambda: 1.0 - np.exp(-conf * dist * dist / (2.0 * cfg.sigma * cfg.sigma)),
         }[cfg.weight_mode]()
    return w * ~det2d.mask


def rep_loss_node(x, det2d, cfg, scale, translation, weights):
    """poselift.iso.rep_loss at a given fit and weights, one node over fresh arrays;
    `cfg` is unused, as the given weights already carry it."""
    d = (x.data[:, :, :2] * scale + translation[:, None, :] - det2d.frames) * CROP_PX

    def back(out):
        gx = np.zeros_like(x.data)
        gx[:, :, :2] = (2.0 * CROP_PX * scale * out.grad) * weights[:, :, None] * d
        x._accumulate(gx)

    return Tensor(((d * d).sum(axis=2) * weights).sum(), (x,), back)


def smooth_loss_node(x):
    """poselift.iso.smooth_loss, one node over fresh arrays."""
    if x.shape[0] < 2:
        return Tensor(0.0)
    d = x.data[1:] - x.data[:-1]

    def back(out):
        g = (2.0 * out.grad) * d
        gx = np.zeros_like(x.data)
        gx[1:] += g
        gx[:-1] -= g
        x._accumulate(gx)

    return Tensor((d * d).sum(), (x,), back)


def refine_graph(initial_pose3d, det2d, scorer, cfg, gt3d=None, rep=rep_loss_node,
                 smooth=smooth_loss_node):
    """poselift.iso.refine for one window, one Tensor graph per iteration.

    Each iteration refits the projection every REFIT_EVERY steps, weighs
    the detections afresh, builds rep + lambda1 gen + lambda2 smooth from
    rep(x, det2d, cfg, scale, translation, weights), the scorer's gen_loss
    and smooth(x), and steps along the gradient backward() leaves on the
    frames. Returns (refined PoseSequence3D, trace) exactly as refine does.
    The default terms are one node each; rep_loss_graph and
    smooth_loss_graph build the same terms op by op.
    """
    pose = initial_pose3d if isinstance(initial_pose3d, PoseSequence3D) \
        else PoseSequence3D(np.asarray(initial_pose3d, dtype=np.float64))
    frames = pose.frames.copy()
    scale, trans = fit_projection(frames, det2d)
    trace = []
    loss0 = None
    best_loss, best_frames = np.inf, frames.copy()
    for it in range(cfg.iterations):
        if it % REFIT_EVERY == 0:
            weights = weights_per_window(frames, det2d, cfg, scale, trans)
            scale, trans = fit_projection(frames, det2d, weights)
        weights = weights_per_window(frames, det2d, cfg, scale, trans)
        x = Tensor(frames, requires_grad=True)
        rep_term = rep(x, det2d, cfg, scale, trans, weights)
        gen = scorer.gen_loss(x) if (scorer is not None and cfg.lambda1 > 0) \
            else Tensor(0.0)
        sm = smooth(x)
        loss = rep_term + cfg.lambda1 * gen + cfg.lambda2 * sm
        loss.backward()
        lval = loss.item()
        row = {"iteration": it, "loss": lval, "rep": rep_term.item(),
               "gen": gen.item(), "smooth": sm.item()}
        if gt3d is not None:
            row["mpjpe"] = float(np.linalg.norm(frames - gt3d.frames, axis=2).mean())
        trace.append(row)
        if loss0 is None:
            loss0 = lval
        if lval < best_loss:
            best_loss, best_frames = lval, frames.copy()
        if not np.isfinite(lval) or lval > 10.0 * loss0:
            frames = best_frames
            break
        frames = frames - cfg.step_size * x.grad
    out = pose.copy()
    out.frames = frames
    return out, trace


# ------------------------------------------------------ per-frame synthesis


def frame_hard_visibility(frame, topo):
    """K hard labels of one frame from per-frame cylinder geometry: the
    rectangle gate and plane test of poselift.visibility, one frame at a
    time, with lengths from np.linalg.norm."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (topo.K, 3):
        raise TopologyError(f"pose frame shape {frame.shape} does not match K={topo.K}")
    if not topo.cylinders:
        raise TopologyError("topology defines no cylinders")
    neck, sh_l, sh_r = topo.torso[0], topo.torso[1], topo.torso[2]
    torso_r = 0.5 * (np.linalg.norm(frame[sh_l] - frame[neck])
                     + np.linalg.norm(frame[sh_r] - frame[neck]))
    tops, bots, radii, defining, degenerate = [], [], [], [], []
    for spec in topo.cylinders:
        r = torso_r if spec.radius_mm is None else spec.radius_mm
        top = frame[spec.top].copy()
        bottom = frame[spec.bottom].copy()
        height = np.linalg.norm(bottom - top)
        tops.append(top)
        bots.append(bottom)
        radii.append(float(r))
        defining.append((spec.top, spec.bottom))
        degenerate.append(height < 1e-9 or r < 1e-9)
    c = len(tops)
    tops, bots, radii = np.stack(tops), np.stack(bots), np.array(radii)
    u = bots - tops
    w = np.stack([u[:, 1], -u[:, 0], np.zeros(c)], axis=1)
    wnorm = np.linalg.norm(w, axis=1)
    valid = (wnorm > 1e-9) & ~np.array(degenerate)
    w = w / np.where(wnorm[:, None] > 1e-9, wnorm[:, None], 1.0)
    n = np.cross(u, w)
    nnorm = np.linalg.norm(n, axis=1)
    n = n / np.where(nnorm[:, None] > 1e-9, nnorm[:, None], 1.0)
    n[n[:, 2] > 0] *= -1.0
    axis2d = (bots - tops)[:, :2]
    q2d = frame[:, None, :2] - tops[None, :, :2]
    e = axis2d[None, :, :]
    w2 = w[None, :, :2]
    det = e[..., 0] * w2[..., 1] - e[..., 1] * w2[..., 0]
    safe = np.where(np.abs(det) > 1e-9, det, 1.0)
    a = (q2d[..., 0] * w2[..., 1] - q2d[..., 1] * w2[..., 0]) / safe
    b = (e[..., 0] * q2d[..., 1] - e[..., 1] * q2d[..., 0]) / safe
    contained = ((np.abs(det) > 1e-9) & (a >= 0.0) & (a <= 1.0)
                 & (np.abs(b) <= radii[None, :]))
    gated = contained & valid[None, :]
    dist = np.einsum("qcd,cd->qc", frame[:, None, :] - tops[None, :, :], n)
    for ci, (i, j) in enumerate(defining):
        gated[i, ci] = False
        gated[j, ci] = False
    return np.all((dist > 0.0) | ~gated, axis=1)


def sequence_visibility_per_frame(pose_seq, topo):
    """T x K visibility, one frame_hard_visibility call per frame."""
    out = np.zeros((pose_seq.T, pose_seq.K), dtype=bool)
    for t in range(pose_seq.T):
        out[t] = frame_hard_visibility(pose_seq.frames[t], topo)
    return out


def axis_angle_matrix(rotvec):
    """Rotation matrix of one rotation vector (Rodrigues)."""
    angle = np.linalg.norm(rotvec)
    if angle < 1e-12:
        return np.eye(3)
    axis = rotvec / angle
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def fk_per_frame(topo, offsets, rotvecs, global_rots):
    """Forward kinematics one frame and one joint at a time."""
    frames = np.zeros((rotvecs.shape[0], topo.K, 3))
    placed = {topo.root_index}
    order = []
    pending = list(range(topo.M))
    while pending:
        ready = [m for m in pending if topo.bones[m][0] in placed]
        if not ready:
            raise ConfigError("bone list is not topologically ordered from the root")
        for m in ready:
            order.append(m)
            placed.add(topo.bones[m][1])
            pending.remove(m)
    parent_of_bone = {c: m for m, (p, c) in enumerate(topo.bones)}
    for t in range(rotvecs.shape[0]):
        rots = {None: np.eye(3)}
        for m in order:
            p, c = topo.bones[m]
            g = rots[parent_of_bone.get(p)] @ axis_angle_matrix(rotvecs[t, m])
            rots[m] = g
            frames[t, c] = frames[t, p] + g @ offsets[m]
        frames[t] = frames[t] @ global_rots[t].T
    return frames


def generate_sequence_per_frame(cfg, topo, rng, speed):
    """poselift.synth.generate_sequence with per-frame global rotations and FK.

    The motion-model constants (smoothing window 9, joint-angle clamp 0.8 rad,
    yaw step 0.02 rad, wobble 0.1 rad) are literals here, not imports, so the
    oracle test pins their values too."""
    offsets = synth.rest_offsets(topo)
    base_len = int(np.ceil(cfg.frames * speed)) + 2
    walk = synth._smooth_walk(rng, base_len, topo.M * 3, synth.ANGLE_STEP, 9)
    times = np.arange(cfg.frames) * speed
    rotvecs = synth._resample(walk, times).reshape(cfg.frames, topo.M, 3)
    norms = np.linalg.norm(rotvecs, axis=2, keepdims=True)
    scale = np.where(norms > 0.8, 0.8 / np.maximum(norms, 1e-12), 1.0)
    rotvecs = rotvecs * scale
    yaw0 = rng.uniform(-np.pi, np.pi)
    yaw_walk = synth._smooth_walk(rng, base_len, 1, 0.02, 9)
    yaw = yaw0 + synth._resample(yaw_walk, times)[:, 0]
    pitch = 0.1 * np.sin(np.linspace(0, 2 * np.pi, cfg.frames) + rng.uniform(0, 2 * np.pi))
    global_rots = np.zeros((cfg.frames, 3, 3))
    for t in range(cfg.frames):
        global_rots[t] = RotationAugment(alpha=pitch[t], beta=yaw[t]).matrix()
    frames = fk_per_frame(topo, offsets, rotvecs, global_rots)
    frames -= frames[:, topo.root_index:topo.root_index + 1]
    return PoseSequence3D(frames)


def generate_per_frame(cfg, topo):
    """poselift.synth.generate built from the per-frame references above; the
    confidence ranges (0.65, 0.98) visible and (0.05, 0.35) occluded and the
    2000 mm crop edge are literals."""
    rng = np.random.default_rng(cfg.seed)
    view_rots = [RotationAugment()] + [RotationAugment(*v) for v in cfg.view_rotations]
    out = []
    for s in range(cfg.n_sequences):
        speed = cfg.speed_multipliers[s % len(cfg.speed_multipliers)]
        action = f"speed{speed:g}"
        pose = generate_sequence_per_frame(cfg, topo, rng, speed)
        pose.actions = [action] * pose.T
        views = []
        for r in view_rots:
            vp = rotate_pose(pose, r)
            visible = sequence_visibility_per_frame(vp, topo)
            clean = project_to_crop(vp, 2000.0)
            t, k = vp.T, vp.K
            conf = np.where(visible,
                            rng.uniform(0.65, 0.98, size=(t, k)),
                            rng.uniform(0.05, 0.35, size=(t, k)))
            std_px = synth.NOISE_PX * (1.3 - conf)
            noise = rng.normal(0.0, 1.0, size=(t, k, 2)) * (std_px / CROP_PX)[:, :, None]
            coords = clean.frames + noise
            mask = (~visible) & (rng.random((t, k)) < cfg.mask_occluded_prob)
            coords[mask] = 0.0
            conf[mask] = 0.0
            det = PoseSequence2D(coords, confidence=conf, mask=mask,
                                 scale_mm=2000.0, actions=vp.actions)
            vp.visibility = visible
            views.append(synth.ViewData(r, vp, det, visible))
        out.append(synth.SyntheticSequence(pose, views, action))
    return out


# ------------------------------------------------------- per-frame metrics


def procrustes_align_single(pred, gt):
    """Similarity alignment of one K x 3 pose onto gt, one SVD per call."""
    mu_p = pred.mean(axis=0)
    mu_g = gt.mean(axis=0)
    xp = pred - mu_p
    xg = gt - mu_g
    norm_g = np.sqrt((xg ** 2).sum())
    if norm_g < 1e-9:
        raise DegenerateInputError("ground-truth pose has zero spread")
    norm_p = np.sqrt((xp ** 2).sum())
    if norm_p < 1e-9:
        return np.tile(mu_g, (pred.shape[0], 1))
    u, s, vt = np.linalg.svd(xp.T @ xg)
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    d = np.array([1.0, 1.0, sign])
    rot = vt.T @ np.diag(d) @ u.T
    scale = (s * d).sum() / (norm_p ** 2)
    if scale <= 0:
        scale = 1.0
    t = mu_g - scale * rot @ mu_p
    return scale * (rot @ pred.T).T + t


def p_mpjpe_per_frame(pred, gt):
    """P-MPJPE with one procrustes_align_single call per frame."""
    errs = np.empty(pred.shape[0])
    for t in range(pred.shape[0]):
        aligned = procrustes_align_single(pred[t], gt[t])
        errs[t] = np.linalg.norm(aligned - gt[t], axis=1).mean()
    return float(errs.mean())
