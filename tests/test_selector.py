"""Selector architectures: init, forward, manual gradients, training, I/O."""

import itertools
import json
import time

import numpy as np
import pytest

from vlcurate.errors import (
    BadConfig,
    DimensionMismatch,
    DivergedTraining,
    ModelLoadError,
    NonFiniteFeature,
)
from vlcurate.numerics import spearman
from vlcurate.quality_labels import attach_labels, load_reference_reports
from vlcurate.selector import (
    SelectorModel,
    init_selector,
    load_selector,
    loss_and_grad,
    num_params,
    predict,
    predict_items,
    save_selector,
    shape_table,
    train,
)


def _sets(rng, n_sets=4, t=6, dim=5):
    return [rng.normal(size=(t, dim)) for _ in range(n_sets)]


# -- init ---------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["linear", "mlp", "attention"])
def test_zero_head_predicts_zero(kind):
    model = init_selector(kind, input_dim=5, seed=3, d_model=8, ff_dim=16)
    rng = np.random.default_rng(0)
    assert predict(model, rng.normal(size=(7, 5))) == 0.0


@pytest.mark.parametrize("kind", ["linear", "mlp", "attention"])
def test_init_seed_determinism(kind):
    a = init_selector(kind, input_dim=6, seed=11)
    b = init_selector(kind, input_dim=6, seed=11)
    assert np.array_equal(a.params, b.params)
    c = init_selector(kind, input_dim=6, seed=12)
    if kind != "linear":  # linear init is all zeros regardless of seed
        assert not np.array_equal(a.params, c.params)


def test_attention_param_count_independent():
    # recount the documented shapes by hand: projection, then per block
    # 4 attention mats+biases and a 2-layer feed-forward, then the head
    D, d, ff, L = 10, 16, 32, 2
    proj = D * d + d
    att = 4 * (d * d + d)
    ffwd = d * ff + ff + ff * d + d
    head = d + 1
    expected = proj + L * (att + ffwd) + head
    assert expected == 4513
    assert num_params("attention", D, d, ff, L) == expected
    model = init_selector("attention", input_dim=D, d_model=d, ff_dim=ff, layers=L)
    assert model.params.size == expected


def test_mlp_and_linear_param_counts():
    assert num_params("linear", 10, 16, 32, 2) == 11
    assert num_params("mlp", 10, 16, 32, 2) == 10 * 32 + 32 + 32 * 32 + 32 + 32 + 1


def test_init_rejects_bad_config():
    with pytest.raises(BadConfig):
        init_selector("transformer", input_dim=5)
    with pytest.raises(BadConfig):
        init_selector("mlp", input_dim=0)
    with pytest.raises(BadConfig):
        shape_table("rnn", 5, 8, 16, 1)


def test_init_weight_bounds():
    model = init_selector("attention", input_dim=9, seed=5, d_model=8, ff_dim=16)
    views = dict(zip([n for n, _ in shape_table("attention", 9, 8, 16, 2)],
                     np.split(model.params, np.cumsum(
                         [int(np.prod(s)) for _, s in shape_table("attention", 9, 8, 16, 2)])[:-1])))
    w = views["in.W"]
    assert np.abs(w).max() <= 1.0 / np.sqrt(9)
    assert np.abs(views["blk0.att.Wq"]).max() <= 1.0 / np.sqrt(8)
    assert np.all(views["head.w"] == 0.0)
    assert np.all(views["in.b"] == 0.0)


# -- predict --------------------------------------------------------------

def _nonzero_head(kind, seed=7, input_dim=5, d_model=8, ff_dim=16, layers=2):
    """A model whose head is populated, so outputs are informative."""
    model = init_selector(kind, input_dim=input_dim, seed=seed,
                          d_model=d_model, ff_dim=ff_dim, layers=layers)
    rng = np.random.default_rng(seed + 100)
    params = model.params.copy()
    params[params == 0.0] = rng.normal(scale=0.5, size=int((params == 0.0).sum()))
    return SelectorModel(kind=kind, input_dim=model.input_dim, d_model=model.d_model,
                         ff_dim=model.ff_dim, layers=model.layers, params=params)


def test_attention_duplicated_item_pooling_identity():
    model = _nonzero_head("attention")
    rng = np.random.default_rng(1)
    item = rng.normal(size=(1, 5))
    single = predict(model, item)
    tripled = predict(model, np.repeat(item, 3, axis=0))
    assert tripled == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("kind", ["linear", "mlp", "attention"])
def test_permutation_invariance_exact(kind):
    model = _nonzero_head(kind)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(7, 5))
    base = predict(model, X)
    for perm in itertools.islice(itertools.permutations(range(7)), 10):
        assert predict(model, X[list(perm)]) == base  # bitwise


def test_linear_predict_closed_form():
    model = init_selector("linear", input_dim=4)
    params = model.params.copy()
    w = np.array([0.5, -1.0, 2.0, 0.25])
    params[:4] = w
    params[4] = 3.0
    model = SelectorModel(kind="linear", input_dim=4, d_model=16, ff_dim=32,
                          layers=2, params=params)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(9, 4))
    expected = float(np.mean(X @ w) + 3.0)
    assert predict(model, X) == pytest.approx(expected, abs=1e-12)


def test_predict_rejects_bad_input():
    model = init_selector("mlp", input_dim=5)
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones((3, 4)))
    with pytest.raises(DimensionMismatch):
        predict(model, np.ones((0, 5)))
    with pytest.raises(NonFiniteFeature):
        predict(model, np.array([[1.0, 2.0, np.nan, 0.0, 0.0]]))


@pytest.mark.parametrize("kind", ["linear", "mlp", "attention"])
@pytest.mark.parametrize("n,dim", [(6, 5), (500, 10)])
def test_predict_items_matches_singletons(kind, n, dim):
    model = _nonzero_head(kind, input_dim=dim)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(n, dim))
    per_item = predict_items(model, X)
    assert per_item.shape == (n,)
    for i in range(n):
        assert per_item[i] == predict(model, X[i:i + 1])  # bitwise


# -- gradients ------------------------------------------------------------

def fd_gradient(model, sets, labels, eps=1e-5):
    """Central-difference gradient of the training loss."""
    base = model.params.copy()
    out = np.empty_like(base)
    for j in range(base.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            params = base.copy()
            params[j] += sign * eps
            probe = SelectorModel(kind=model.kind, input_dim=model.input_dim,
                                  d_model=model.d_model, ff_dim=model.ff_dim,
                                  layers=model.layers, params=params)
            loss, _ = loss_and_grad(probe, sets, labels)
            if slot == 0:
                plus = loss
            else:
                minus = loss
        out[j] = (plus - minus) / (2.0 * eps)
    return out


def max_rel_err(a, b):
    # floor masks central-difference roundoff (~1e-11 absolute at eps=1e-5)
    # on coordinates whose true gradient is essentially zero
    floor = 1e-6 * max(1.0, float(np.abs(a).max()))
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / scale).max())


@pytest.mark.parametrize("kind,seed", [(k, s) for k in ("linear", "mlp", "attention")
                                       for s in (0, 1, 2)])
def test_gradients_match_finite_differences(kind, seed):
    rng = np.random.default_rng(seed)
    model = _nonzero_head(kind, seed=seed, input_dim=5, d_model=4, ff_dim=8)
    sets = _sets(rng, n_sets=3, t=5, dim=5)
    labels = rng.normal(size=3)
    _, grad = loss_and_grad(model, sets, labels)
    fd = fd_gradient(model, sets, labels)
    assert max_rel_err(grad, fd) < 1e-4


def test_loss_rejects_sets_of_unequal_length():
    model = _nonzero_head("mlp")
    rng = np.random.default_rng(8)
    sets = [rng.normal(size=(4, 5)), rng.normal(size=(5, 5))]
    with pytest.raises(DimensionMismatch):
        loss_and_grad(model, sets, np.zeros(2))


def test_perfect_model_zero_loss_zero_grad():
    model = _nonzero_head("attention", seed=9)
    rng = np.random.default_rng(9)
    sets = _sets(rng, n_sets=4, t=6, dim=5)
    labels = np.array([predict(model, X) for X in sets])
    loss, grad = loss_and_grad(model, sets, labels)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_linear_gradient_closed_form():
    model = _nonzero_head("linear", seed=10, input_dim=6)
    rng = np.random.default_rng(10)
    sets = _sets(rng, n_sets=5, t=4, dim=6)
    labels = rng.normal(size=5)
    _, grad = loss_and_grad(model, sets, labels)
    w, b = model.params[:6], model.params[6]
    means = np.stack([X.mean(axis=0) for X in sets])
    errs = means @ w + b - labels
    grad_w = 2.0 * errs @ means / len(sets)
    grad_b = 2.0 * errs.mean()
    assert np.abs(grad[:6] - grad_w).max() < 1e-10
    assert abs(grad[6] - grad_b) < 1e-10


def test_loss_is_mean_squared_error():
    model = _nonzero_head("mlp", seed=12)
    rng = np.random.default_rng(12)
    sets = _sets(rng, n_sets=4, t=3, dim=5)
    labels = rng.normal(size=4)
    loss, _ = loss_and_grad(model, sets, labels)
    manual = np.mean([(predict(model, X) - y) ** 2 for X, y in zip(sets, labels)])
    assert loss == pytest.approx(manual, rel=1e-12)


# -- training ---------------------------------------------------------------

def test_train_linear_ground_truth_converges():
    rng = np.random.default_rng(13)
    dim = 6
    w_star = rng.normal(size=dim)
    sets = _sets(rng, n_sets=12, t=10, dim=dim)
    labels = np.array([float(np.mean(X @ w_star)) for X in sets])
    model = init_selector("linear", input_dim=dim)
    result = train(model, sets, labels, epochs=200, lr=0.05)
    assert result.losses[-1] < 1e-2 * result.losses[0]


def test_train_reference_labels_attention_defaults():
    rng = np.random.default_rng(14)
    reports = load_reference_reports()
    labels = np.array([np.mean(list(r.scores.values())) for r in reports])
    sets = [rng.normal(size=(114, 10)) for _ in range(30)]
    model = init_selector("attention", input_dim=10, seed=0)
    start = time.time()
    result = train(model, sets, labels, epochs=20, lr=0.01)
    assert time.time() - start < 60.0
    assert len(result.losses) == 20
    assert result.losses[-1] < result.losses[0]


def test_train_determinism():
    rng = np.random.default_rng(15)
    sets = _sets(rng, n_sets=6, t=8, dim=5)
    labels = rng.normal(size=6)
    runs = []
    for _ in range(2):
        model = init_selector("attention", input_dim=5, seed=4, d_model=8, ff_dim=16)
        runs.append(train(model, sets, labels, epochs=10, lr=0.01).model.params)
    assert np.array_equal(runs[0], runs[1])


def test_train_losses_recorded_before_update():
    rng = np.random.default_rng(16)
    sets = _sets(rng, n_sets=4, t=5, dim=5)
    labels = rng.normal(size=4)
    model = init_selector("mlp", input_dim=5, seed=2)
    initial, _ = loss_and_grad(model, sets, labels)
    result = train(model, sets, labels, epochs=5, lr=0.01)
    assert result.losses[0] == initial


def test_train_rejects_bad_config():
    rng = np.random.default_rng(17)
    sets = _sets(rng, n_sets=3, t=4, dim=5)
    labels = rng.normal(size=3)
    model = init_selector("linear", input_dim=5)
    with pytest.raises(BadConfig):
        train(model, sets, labels, epochs=0)
    with pytest.raises(BadConfig):
        train(model, sets, labels, lr=0.0)
    with pytest.raises(BadConfig):
        train(model, sets[:1], labels[:1])
    with pytest.raises(BadConfig):
        train(model, sets, labels, optimizer="rmsprop")


def test_train_divergence_detected():
    rng = np.random.default_rng(18)
    sets = _sets(rng, n_sets=3, t=4, dim=5)
    labels = np.array([5.0, -3.0, 2.0])
    model = init_selector("linear", input_dim=5)
    with np.errstate(over="ignore"), pytest.raises(DivergedTraining) as err:
        train(model, sets, labels, epochs=10, lr=1e100, optimizer="sgd")
    assert err.value.epoch >= 1


def test_train_sgd_mode_differs_from_adam():
    rng = np.random.default_rng(19)
    sets = _sets(rng, n_sets=5, t=6, dim=5)
    labels = rng.normal(size=5)
    model = init_selector("mlp", input_dim=5, seed=6)
    adam = train(model, sets, labels, epochs=5, lr=0.01).model.params
    sgd = train(model, sets, labels, epochs=5, lr=0.01, optimizer="sgd").model.params
    assert not np.array_equal(adam, sgd)


def test_ranking_sanity_monotone_quality():
    # items whose true quality is a fixed monotone function of the embedding
    rng = np.random.default_rng(20)
    dim = 6
    w_star = rng.normal(size=dim)
    items = rng.normal(size=(300, dim))
    quality = np.tanh(items @ w_star)
    sets, labels = [], []
    for _ in range(40):
        members = rng.choice(300, size=12, replace=False)
        sets.append(items[members])
        labels.append(float(quality[members].mean()))
    model = init_selector("attention", input_dim=dim, seed=1, d_model=8, ff_dim=16)
    result = train(model, sets, np.array(labels), epochs=200, lr=0.01)
    scores = predict_items(result.model, items)
    assert spearman(scores, quality) > 0.8


# -- persistence -------------------------------------------------------------

def test_save_load_bitwise_roundtrip(tmp_path):
    model = _nonzero_head("attention", seed=21)
    save_selector(tmp_path / "m", model)
    back = load_selector(tmp_path / "m")
    assert back.kind == model.kind
    assert np.array_equal(back.params, model.params)
    rng = np.random.default_rng(21)
    for _ in range(5):
        X = rng.normal(size=(4, 5))
        assert predict(back, X) == predict(model, X)  # bitwise


def test_load_truncated_params(tmp_path):
    model = _nonzero_head("mlp", seed=22)
    save_selector(tmp_path / "m", model)
    params_file = tmp_path / "m" / "params.txt"
    lines = params_file.read_text().splitlines()
    params_file.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ModelLoadError):
        load_selector(tmp_path / "m")


def test_load_version_mismatch(tmp_path):
    model = _nonzero_head("linear", seed=23)
    save_selector(tmp_path / "m", model)
    meta_file = tmp_path / "m" / "meta.json"
    meta = json.loads(meta_file.read_text())
    meta["version"] = 42
    meta_file.write_text(json.dumps(meta))
    with pytest.raises(ModelLoadError) as err:
        load_selector(tmp_path / "m")
    assert "version" in str(err.value)


def test_load_corrupted_hex(tmp_path):
    model = _nonzero_head("linear", seed=24)
    save_selector(tmp_path / "m", model)
    params_file = tmp_path / "m" / "params.txt"
    lines = params_file.read_text().splitlines()
    lines[2] = "not-a-float"
    params_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelLoadError):
        load_selector(tmp_path / "m")


def test_load_missing_dir(tmp_path):
    with pytest.raises(ModelLoadError):
        load_selector(tmp_path / "absent")
