"""Learnable data selector trained on (subset embeddings, quality label) pairs.

Three architectures share one contract: a set of item embeddings (T, D) in,
one scalar quality score out.

  linear     mean over items of x.w + b
  mlp        per-item tanh MLP D -> hidden -> hidden -> 1, mean over items
  attention  input projection D -> d_model, two residual blocks
             (single-head self-attention, then a tanh feed-forward),
             mean-pool over items, scalar head

Scores must not depend on item order. Float addition is not associative, so
instead of relying on symmetric pooling alone every set's rows are first
sorted lexicographically; permuted inputs then produce bit-identical scores.

One forward and one backward take a (B, T, D) batch of B sorted sets of T
items: ``predict`` is B = 1, ``loss_and_grad`` stacks its equal-length
sets, and ``predict_items`` runs N one-item sets (T = 1, where attention
weights are exactly 1 and nothing needs sorting). Products stay stacked per
set, one BLAS call each, and per-set terms are added in set order, so a set
gets the same bits alone as in a batch.

Parameters live in one flat float64 vector addressed through a shape table,
and gradients are computed by hand (no autodiff). The scalar head is
zero-initialized, so an untrained selector scores everything 0.0.
Training is full-batch with Adam by default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    BadConfig,
    DimensionMismatch,
    DivergedTraining,
    ModelLoadError,
    NonFiniteFeature,
)

MODEL_VERSION = 1
KINDS = ("linear", "mlp", "attention")


@dataclass(frozen=True)
class SelectorModel:
    kind: str
    input_dim: int
    d_model: int
    ff_dim: int
    layers: int
    params: np.ndarray  # flat float64


@dataclass(frozen=True)
class TrainResult:
    model: SelectorModel
    losses: list[float]  # MSE per epoch, evaluated before each update


def shape_table(
    kind: str, input_dim: int, d_model: int, ff_dim: int, layers: int
) -> list[tuple[str, tuple[int, ...]]]:
    if kind == "linear":
        return [("head.w", (input_dim,)), ("head.b", (1,))]
    if kind == "mlp":
        h = ff_dim
        return [
            ("l1.W", (input_dim, h)), ("l1.b", (h,)),
            ("l2.W", (h, h)), ("l2.b", (h,)),
            ("head.w", (h,)), ("head.b", (1,)),
        ]
    if kind == "attention":
        table = [("in.W", (input_dim, d_model)), ("in.b", (d_model,))]
        for i in range(layers):
            for mat in ("Wq", "Wk", "Wv", "Wo"):
                table.append((f"blk{i}.att.{mat}", (d_model, d_model)))
                table.append((f"blk{i}.att.{mat.replace('W', 'b')}", (d_model,)))
            table.extend([
                (f"blk{i}.ff.W1", (d_model, ff_dim)), (f"blk{i}.ff.b1", (ff_dim,)),
                (f"blk{i}.ff.W2", (ff_dim, d_model)), (f"blk{i}.ff.b2", (d_model,)),
            ])
        table.extend([("head.w", (d_model,)), ("head.b", (1,))])
        return table
    raise BadConfig(f"unknown selector kind {kind!r}")


def _views(flat: np.ndarray, table) -> dict[str, np.ndarray]:
    out, off = {}, 0
    for name, shape in table:
        size = int(np.prod(shape))
        out[name] = flat[off:off + size].reshape(shape)
        off += size
    if off != flat.size:
        raise ModelLoadError(f"parameter vector has {flat.size} entries, expected {off}")
    return out


def num_params(kind: str, input_dim: int, d_model: int, ff_dim: int, layers: int) -> int:
    return sum(int(np.prod(s)) for _, s in shape_table(kind, input_dim, d_model, ff_dim, layers))


def init_selector(
    kind: str,
    input_dim: int,
    seed: int = 0,
    d_model: int = 16,
    ff_dim: int = 32,
    layers: int = 2,
) -> SelectorModel:
    """Weights ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)); biases and head zero."""
    if kind not in KINDS:
        raise BadConfig(f"unknown selector kind {kind!r}")
    if input_dim < 1 or d_model < 1 or ff_dim < 1 or layers < 1:
        raise BadConfig("selector dimensions must be positive")
    table = shape_table(kind, input_dim, d_model, ff_dim, layers)
    rng = np.random.default_rng(seed)
    flat = np.zeros(sum(int(np.prod(s)) for _, s in table))
    views = _views(flat, table)
    for name, shape in table:
        if name.startswith("head.") or len(shape) == 1:
            continue  # stays zero
        bound = 1.0 / math.sqrt(shape[0])
        views[name][...] = rng.uniform(-bound, bound, size=shape)
    return SelectorModel(
        kind=kind, input_dim=input_dim, d_model=d_model,
        ff_dim=ff_dim, layers=layers, params=flat,
    )


# -- forward -------------------------------------------------------------

def _canonical(X: np.ndarray) -> np.ndarray:
    # lexicographic row order, primary key = column 0
    return X[np.lexsort(X.T[::-1])]


def _check_input(model: SelectorModel, X, min_rows: int) -> np.ndarray:
    """X as a finite float (N, D) matrix of the selector's width, N >= min_rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < min_rows:
        raise DimensionMismatch(f"expected a (T, D) item matrix, got shape {X.shape}")
    if X.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"item width {X.shape[1]} != selector input_dim {model.input_dim}"
        )
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("non-finite value in selector input")
    return X


def _table(model: SelectorModel):
    return shape_table(model.kind, model.input_dim, model.d_model, model.ff_dim, model.layers)


def _T(A: np.ndarray) -> np.ndarray:
    """Transpose every matrix of a (B, m, n) stack."""
    return A.transpose(0, 2, 1)


def _softmax_rows(S: np.ndarray) -> np.ndarray:
    shifted = S - S.max(axis=-1, keepdims=True)
    E = np.exp(shifted)
    return E / E.sum(axis=-1, keepdims=True)


def _forward(model: SelectorModel, p, X: np.ndarray):
    """(scores (B,), cache) for a (B, T, D) batch of canonical sets; p: param views."""
    if model.kind == "mlp":
        H1 = np.tanh(X @ p["l1.W"] + p["l1.b"])
        H2 = np.tanh(H1 @ p["l2.W"] + p["l2.b"])
        items = H2 @ p["head.w"] + p["head.b"][0]
        return items.mean(axis=1), {"H1": H1, "H2": H2}
    H, blocks = X, []
    if model.kind == "attention":
        scale = 1.0 / math.sqrt(model.d_model)
        H = X @ p["in.W"] + p["in.b"]
        for i in range(model.layers):
            a = f"blk{i}.att."
            f = f"blk{i}.ff."
            Q = H @ p[a + "Wq"] + p[a + "bq"]
            K = H @ p[a + "Wk"] + p[a + "bk"]
            V = H @ p[a + "Wv"] + p[a + "bv"]
            P = _softmax_rows(Q @ _T(K) * scale)
            C = P @ V
            H1 = H + (C @ p[a + "Wo"] + p[a + "bo"])
            Z = np.tanh(H1 @ p[f + "W1"] + p[f + "b1"])
            blocks.append({"Hin": H, "Q": Q, "K": K, "V": V, "P": P, "C": C,
                           "H1": H1, "Z": Z})
            H = H1 + (Z @ p[f + "W2"] + p[f + "b2"])
    pooled = H.mean(axis=1)
    # (B, 1, m) @ (m,): one dot product per set, as for a single set
    scores = (pooled[:, None, :] @ p["head.w"])[:, 0] + p["head.b"][0]
    return scores, {"blocks": blocks, "pooled": pooled}


def predict(model: SelectorModel, X) -> float:
    """Score one set of item embeddings; invariant to row order."""
    X = _canonical(_check_input(model, X, min_rows=1))
    scores, _ = _forward(model, _views(model.params, _table(model)), X[None])
    return float(scores[0])


def predict_items(model: SelectorModel, X) -> np.ndarray:
    """Score each row as its own singleton set (curation-time use)."""
    X = _check_input(model, X, min_rows=0)
    return _forward(model, _views(model.params, _table(model)), X[:, None, :])[0]


# -- backward ------------------------------------------------------------

def _sum_sets(S: np.ndarray) -> np.ndarray:
    """Sum per-set terms over the batch axis one set after another, in list
    order (``sum`` would add a 1-D axis pairwise)."""
    return np.add.accumulate(S, axis=0)[-1]


def _affine_grad(g, name_W: str, name_b: str, Hin: np.ndarray, dOut: np.ndarray) -> None:
    """Add the gradients of Out = Hin @ W + b, summed over items, then sets."""
    g[name_W] += _sum_sets(_T(Hin) @ dOut)
    g[name_b] += _sum_sets(dOut.sum(axis=1))


def _backward(model: SelectorModel, p, X: np.ndarray, cache, dscore: np.ndarray,
              g: dict[str, np.ndarray]) -> None:
    """Add d(loss)/d(params) into the views g, given d(loss)/d(score) per set."""
    T = X.shape[1]
    if model.kind == "mlp":
        H1, H2 = cache["H1"], cache["H2"]
        d_items = np.repeat((dscore / T)[:, None], T, axis=1)
        g["head.w"] += _sum_sets((_T(H2) @ d_items[:, :, None])[:, :, 0])
        g["head.b"][0] += _sum_sets(d_items.sum(axis=1))
        dU2 = d_items[:, :, None] * p["head.w"] * (1.0 - H2 * H2)
        _affine_grad(g, "l2.W", "l2.b", H1, dU2)
        dU1 = (dU2 @ p["l2.W"].T) * (1.0 - H1 * H1)
        _affine_grad(g, "l1.W", "l1.b", X, dU1)
        return
    g["head.w"] += _sum_sets(dscore[:, None] * cache["pooled"])
    g["head.b"][0] += _sum_sets(dscore)
    if model.kind == "linear":
        return
    scale = 1.0 / math.sqrt(model.d_model)
    dH = np.repeat((dscore[:, None] * p["head.w"] / T)[:, None, :], T, axis=1)
    for i in reversed(range(model.layers)):
        a = f"blk{i}.att."
        f = f"blk{i}.ff."
        blk = cache["blocks"][i]
        # feed-forward residual: H2 = H1 + tanh(H1 W1 + b1) W2 + b2
        _affine_grad(g, f + "W2", f + "b2", blk["Z"], dH)
        dU = (dH @ p[f + "W2"].T) * (1.0 - blk["Z"] * blk["Z"])
        _affine_grad(g, f + "W1", f + "b1", blk["H1"], dU)
        dH1 = dH + dU @ p[f + "W1"].T
        # attention residual: H1 = Hin + (P V) Wo + bo
        Hin, Q, K, V, P, C = blk["Hin"], blk["Q"], blk["K"], blk["V"], blk["P"], blk["C"]
        _affine_grad(g, a + "Wo", a + "bo", C, dH1)
        dC = dH1 @ p[a + "Wo"].T
        dP = dC @ _T(V)
        dV = _T(P) @ dC
        dS = P * (dP - (dP * P).sum(axis=-1, keepdims=True))
        dQ = dS @ K * scale
        dK = _T(dS) @ Q * scale
        for m, dM in (("q", dQ), ("k", dK), ("v", dV)):
            _affine_grad(g, a + "W" + m, a + "b" + m, Hin, dM)
        dH = dH1 + dQ @ p[a + "Wq"].T + dK @ p[a + "Wk"].T + dV @ p[a + "Wv"].T
    _affine_grad(g, "in.W", "in.b", X, dH)


def loss_and_grad(
    model: SelectorModel, sets: list[np.ndarray], labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared error over equal-length labeled sets, with its full gradient."""
    if len(sets) != len(labels) or len(sets) == 0:
        raise BadConfig("need one label per set and at least one set")
    labels = np.asarray(labels, dtype=float)
    canonical = [_canonical(_check_input(model, X, min_rows=1)) for X in sets]
    lengths = {X.shape[0] for X in canonical}
    if len(lengths) != 1:
        raise DimensionMismatch(f"training sets differ in length: {sorted(lengths)}")
    X = np.stack(canonical)
    table = _table(model)
    p = _views(model.params, table)
    grad = np.zeros_like(model.params)
    scores, cache = _forward(model, p, X)
    err = scores - labels
    n = len(sets)
    _backward(model, p, X, cache, 2.0 * err / n, _views(grad, table))
    return float(_sum_sets(err * err / n)), grad


def train(
    model: SelectorModel,
    sets: list[np.ndarray],
    labels: np.ndarray,
    epochs: int = 20,
    lr: float = 0.01,
    optimizer: str = "adam",
) -> TrainResult:
    """Full-batch training; one parameter update per epoch."""
    if optimizer not in ("adam", "sgd"):
        raise BadConfig(f"unknown optimizer {optimizer!r}")
    if epochs < 1 or lr <= 0.0:
        raise BadConfig("epochs must be >= 1 and lr > 0")
    if len(sets) < 2:
        raise BadConfig("training needs at least 2 labeled sets")
    params = model.params.copy()
    current = replace(model, params=params)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    losses = []
    for epoch in range(epochs):
        loss, grad = loss_and_grad(current, sets, labels)
        if not np.isfinite(loss):
            raise DivergedTraining(epoch)
        losses.append(float(loss))
        if optimizer == "adam":
            t = epoch + 1
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            params -= lr * m_hat / (np.sqrt(v_hat) + eps)
        else:
            params -= lr * grad
    if not np.all(np.isfinite(params)):
        raise DivergedTraining(epochs)
    return TrainResult(model=current, losses=losses)


# -- persistence ---------------------------------------------------------

def save_selector(model_dir: str | Path, model: SelectorModel) -> None:
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": MODEL_VERSION,
        "kind": model.kind,
        "input_dim": model.input_dim,
        "d_model": model.d_model,
        "ff_dim": model.ff_dim,
        "layers": model.layers,
        "n_params": int(model.params.size),
    }
    with open(model_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    with open(model_dir / "params.txt", "w", encoding="utf-8") as fh:
        for value in model.params:
            fh.write(float(value).hex())
            fh.write("\n")


def load_selector(model_dir: str | Path) -> SelectorModel:
    model_dir = Path(model_dir)
    try:
        with open(model_dir / "meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(model_dir / "params.txt", encoding="utf-8") as fh:
            params = np.array(
                [float.fromhex(line.strip()) for line in fh if line.strip()]
            )
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ModelLoadError(f"cannot read selector from {model_dir}: {exc}") from exc
    if meta.get("version") != MODEL_VERSION:
        raise ModelLoadError(
            f"model version {meta.get('version')!r} != supported {MODEL_VERSION}"
        )
    try:
        kind = meta["kind"]
        dims = {k: int(meta[k]) for k in ("input_dim", "d_model", "ff_dim", "layers")}
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelLoadError(f"selector metadata incomplete: {exc}") from exc
    expected = num_params(kind, **dims)
    if params.size != expected or int(meta.get("n_params", -1)) != expected:
        raise ModelLoadError(
            f"parameter count {params.size} != expected {expected} for {kind}"
        )
    if not np.all(np.isfinite(params)):
        raise ModelLoadError("non-finite parameter in saved selector")
    return SelectorModel(kind=kind, params=params, **dims)
