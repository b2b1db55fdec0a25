import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlm import autodiff as ad
from oracles import o_add_norm_grads, o_attention_grads


def _fd(f, params, **kw):
    return ad.finite_diff_check(f, params, **kw)


# --- forward values ----------------------------------------------------------

def softmax(scores):
    """``attend``'s probabilities for the given scores: a width-1 query of
    1 against keys holding the scores (the scale is 1/sqrt(1))."""
    scores = np.asarray(scores, dtype=float)
    q = np.ones((*scores.shape[:-1], 1, 1))
    k = scores[..., :, None]
    return ad.attend(q, k, np.zeros_like(k))[1][..., 0, :]


def test_softmax_two_element_value():
    # softmax([ln 1, ln 3]) = [1/4, 3/4]
    out = softmax([[math.log(1.0), math.log(3.0)]])
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_uniform_rows():
    out = softmax(np.zeros((3, 5)))
    np.testing.assert_allclose(out, np.full((3, 5), 0.2), atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 6))
    np.testing.assert_allclose(softmax(x), softmax(x + 123.0), atol=1e-12)


def test_softmax_masked_entries_get_zero_weight():
    rng = np.random.default_rng(2)
    q, k, v = rng.normal(size=(1, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
    mask = np.array([[0.0, -np.inf, 0.0]])
    out, p = ad.attend(q, k, v, mask)
    assert p[0, 1] == 0.0
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(out, p[:, [0, 2]] @ v[[0, 2]], atol=1e-12)
    node = ad.attention(ad.constant(q), ad.constant(k), ad.constant(v), mask)
    np.testing.assert_array_equal(node.data, out)


def test_softmax_rejects_nan_and_posinf_and_full_mask():
    # the graph op refuses what leaves NaN probabilities in the bare kernel
    q, v = np.ones((1, 1)), np.ones((2, 1))
    for scores, mask in (([np.nan, 0.0], None), ([np.inf, 0.0], None),
                         ([0.0, 0.0], np.array([[-np.inf, -np.inf]]))):
        k = np.array(scores)[:, None]
        with np.errstate(invalid="ignore"):
            assert np.isnan(ad.attend(q, k, v, mask)[1]).any()
        with pytest.raises(ValueError, match=r"NaN or \+inf, or a fully masked row"):
            ad.attention(ad.parameter(q), ad.parameter(k), ad.parameter(v), mask)


def test_cross_entropy_value():
    # logits [2,0,0], true class 0: loss = -log(e^2 / (e^2 + 2))
    logits = ad.constant(np.array([[2.0, 0.0, 0.0]]))
    loss = ad.cross_entropy_logits(logits, np.array([0]))
    expected = -math.log(math.exp(2.0) / (math.exp(2.0) + 2.0))
    np.testing.assert_allclose(loss.data[0], expected, atol=1e-12)


def test_cross_entropy_uniform_is_log_vocab():
    v = 17
    logits = ad.constant(np.zeros((4, v)))
    loss = ad.cross_entropy_logits(logits, np.zeros(4, dtype=np.int64))
    np.testing.assert_allclose(loss.data, math.log(v), atol=1e-12)


def test_cross_entropy_rejects_bad_labels():
    logits = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ad.cross_entropy_logits(logits, np.array([0, 3]))
    with pytest.raises(ValueError):
        ad.cross_entropy_logits(logits, np.array([-1, 0]))
    with pytest.raises(ValueError):
        ad.cross_entropy_logits(logits, np.array([0.5, 1.0]))


def test_layer_norm_normalizes():
    rng = np.random.default_rng(2)
    d = 8
    x = rng.normal(size=(3, d)) * 5 + 2
    r = rng.normal(size=(3, d))
    gain = ad.constant(np.ones(d))
    bias = ad.constant(np.zeros(d))
    out = ad.add_norm(ad.constant(x), ad.constant(r), gain, bias).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)
    # the op normalizes the sum of its operands, with the kernel's arithmetic
    np.testing.assert_array_equal(out, ad.normalize(x + r, gain.data, bias.data)[0])
    with pytest.raises(ValueError, match="affine shapes"):
        ad.add_norm(ad.constant(x), ad.constant(r), ad.constant(np.ones(d - 1)), bias)


def test_layer_norm_constant_row_collapses_to_bias():
    d = 4
    x = ad.constant(np.full((1, d), 7.0))
    bias = ad.constant(np.arange(d, dtype=float))
    out = ad.add_norm(x, ad.constant(np.full((1, d), -2.0)), ad.constant(np.ones(d)), bias).data
    np.testing.assert_allclose(out, np.arange(d, dtype=float)[None, :], atol=1e-6)


def test_relu_and_dropout_identity():
    x = ad.parameter(np.array([-1.0, 0.0, 2.0]))
    assert ad.dropout(x, 0.0, training=True) is x
    assert ad.dropout(x, 0.5, training=False) is x
    np.testing.assert_array_equal(ad.relu(x).data, [0.0, 0.0, 2.0])


def test_dropout_requires_rng_in_training():
    with pytest.raises(ValueError):
        ad.dropout(ad.constant(np.ones(4)), 0.5, rng=None, training=True)


def test_dropout_scales_survivors():
    rng = np.random.default_rng(0)
    x = ad.constant(np.ones(20000))
    out = ad.dropout(x, 0.25, rng=rng, training=True).data
    kept = out != 0.0
    assert abs(kept.mean() - 0.75) < 0.02
    np.testing.assert_allclose(out[kept], 1.0 / 0.75, atol=1e-12)
    assert abs(out.mean() - 1.0) < 0.02


def test_embedding_gather_selects_rows_and_checks_range():
    table = ad.parameter(np.arange(12, dtype=float).reshape(4, 3))
    out = ad.embedding_gather(table, np.array([2, 0, 2]))
    np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]])
    with pytest.raises(ValueError):
        ad.embedding_gather(table, np.array([4]))
    with pytest.raises(ValueError):
        ad.embedding_gather(table, np.array([0.0]))


def test_embedding_gather_backward_accumulates_duplicates():
    table = ad.parameter(np.zeros((3, 2)))
    out = ad.embedding_gather(table, np.array([1, 1, 0]))
    ad.backward(ad.tensor_sum(out))
    np.testing.assert_array_equal(table.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_matmul_shape_errors_name_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        ad.matmul(a, b)
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(np.zeros(3)), b)


def test_split_merge_heads_roundtrip_and_gradient():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4, 6))
    split = ad.split_heads(ad.constant(x), 3)
    assert split.data.shape == (2, 3, 4, 2)
    # head h holds columns 2h, 2h+1 of every row
    np.testing.assert_array_equal(split.data[:, 1], x[..., 2:4])
    np.testing.assert_array_equal(ad.merge_heads(split).data, x)
    with pytest.raises(ValueError, match="heads"):
        ad.split_heads(ad.constant(x), 4)

    params = _random_params(rng, {"x": (2, 4, 6), "w": (6, 6)})
    weights = rng.normal(size=(2, 4, 6))

    def f():
        # per-head attention makes each head's gradient depend on its own columns
        heads = ad.split_heads(ad.matmul(params["x"], params["w"]), 3)
        merged = ad.merge_heads(ad.attention(heads, heads, heads))
        return ad.tensor_sum(ad.mul(merged, ad.constant(weights)))

    res = _fd(f, params, step=1e-6)
    assert res.max_rel_error < 1e-6
    assert res.coords_checked == 2 * 4 * 6 + 6 * 6


def test_masked_mean_counts_only_selected():
    x = ad.constant(np.array([1.0, 2.0, 3.0, 4.0]))
    out = ad.masked_mean(x, np.array([1.0, 0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out.data, 2.0)
    with pytest.raises(ValueError):
        ad.masked_mean(x, np.zeros(4))


# --- backward machinery ------------------------------------------------------

def test_backward_needs_scalar():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(ad.relu(x))


def test_backward_accumulates_across_calls():
    x = ad.parameter(np.array([3.0]))
    for _ in range(2):
        ad.backward(ad.tensor_sum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [12.0])  # 2 * (2x)
    ad.zero_grad([x])
    assert x.grad is None


def test_second_backward_over_same_graph_sums():
    # l = 2 x^2 at x = 3: dl/dx = 12, so two passes give 24
    x = ad.parameter(np.array([3.0]))
    doubled = ad.scale(x, 2)
    loss = ad.tensor_sum(ad.mul(doubled, x))
    ad.backward(loss)
    assert doubled.grad is None and loss.grad is None  # interior: freed
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [24.0])


def test_backward_accumulates_in_place_into_bound_views():
    flat = np.full(5, 7.0)
    x, b = ad.parameter(np.ones((2, 2))), ad.parameter(np.ones(1))
    ad.zero_grad([x, b], flat, [flat[:4].reshape(2, 2), flat[4:]])
    assert not flat.any()
    ad.backward(ad.tensor_sum(ad.add(ad.scale(x, 3), b)))
    assert np.shares_memory(x.grad, flat) and np.shares_memory(b.grad, flat)
    np.testing.assert_array_equal(flat, [3, 3, 3, 3, 4])


def test_backward_reused_node_sums_paths():
    x = ad.parameter(np.array([2.0]))
    y = ad.mul(x, x)           # x^2
    z = ad.add(y, y)           # 2 x^2  -> dz/dx = 4x = 8
    ad.backward(ad.tensor_sum(z))
    np.testing.assert_allclose(x.grad, [8.0])


def test_constant_gets_no_grad():
    c = ad.constant(np.ones(2))
    x = ad.parameter(np.ones(2))
    ad.backward(ad.tensor_sum(ad.mul(c, x)))
    assert c.grad is None and x.grad is not None


def test_broadcast_add_backward_sums_over_batch():
    x = ad.parameter(np.zeros((4, 3)))
    b = ad.parameter(np.zeros(3))
    ad.backward(ad.tensor_sum(ad.add(x, b)))
    np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(x.grad, np.ones((4, 3)))


def test_deep_chain_does_not_recurse():
    # 5000 stacked adds would blow the default recursion limit if the
    # topological sort were recursive.
    x = ad.parameter(np.array([1.0]))
    node = x
    for _ in range(5000):
        node = ad.add(node, ad.constant(np.array([0.0])))
    ad.backward(ad.tensor_sum(node))
    np.testing.assert_allclose(x.grad, [1.0])


# --- finite differences ------------------------------------------------------

def _random_params(rng, shapes):
    return {name: ad.parameter(rng.normal(size=shape)) for name, shape in shapes.items()}


def test_finite_diff_small_composite():
    rng = np.random.default_rng(3)
    params = _random_params(rng, {"w1": (5, 4), "w2": (4, 3), "b": (3,)})
    x = np.abs(rng.normal(size=(2, 5))) + 0.1
    labels = np.array([0, 2])

    def f():
        h = ad.relu(ad.matmul(ad.constant(x), params["w1"]))
        logits = ad.add(ad.matmul(h, params["w2"]), params["b"])
        return ad.masked_mean(ad.cross_entropy_logits(logits, labels), np.ones(2))

    res = _fd(f, params, step=1e-6)
    assert res.max_rel_error < 1e-6
    assert res.coords_checked == 5 * 4 + 4 * 3 + 3


def test_finite_diff_layer_norm_softmax_path():
    rng = np.random.default_rng(4)
    d = 6
    params = _random_params(rng, {"x": (3, d), "r": (3, d), "g": (d,), "b": (d,),
                                  "wq": (d, 4), "wk": (d, 4), "wv": (d, 4)})
    mask = np.triu(np.full((3, 3), -np.inf), 1)

    def f():
        h = ad.add_norm(params["x"], params["r"], params["g"], params["b"])
        q, k, v = (ad.matmul(h, params[w]) for w in ("wq", "wk", "wv"))
        mixed = ad.attention(q, k, v, mask)
        return ad.tensor_sum(ad.mul(mixed, ad.constant(rng_weights)))

    rng_weights = np.random.default_rng(5).normal(size=(3, 4))
    res = _fd(f, params, step=1e-6)
    assert res.max_rel_error < 1e-6


def test_attention_and_add_norm_gradients_match_jacobian_oracles():
    rng = np.random.default_rng(9)
    q, k, v = (ad.parameter(rng.normal(size=shape)) for shape in ((2, 3, 4), (2, 5, 4), (2, 5, 3)))
    mask = np.where(rng.random((3, 5)) < 0.4, -np.inf, 0.0)
    mask[:, 0] = 0.0  # every row keeps a key
    up = rng.normal(size=(2, 3, 3))
    ad.backward(ad.tensor_sum(ad.mul(ad.attention(q, k, v, mask), ad.constant(up))))
    for h in range(2):
        want = o_attention_grads(q.data[h], k.data[h], v.data[h], mask, up[h])
        for got, expected in zip((q.grad[h], k.grad[h], v.grad[h]), want):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    a, b = ad.parameter(rng.normal(size=(4, 6)) * 3), ad.parameter(rng.normal(size=(4, 6)))
    gain, bias = ad.parameter(rng.normal(size=6)), ad.parameter(rng.normal(size=6))
    up = rng.normal(size=(4, 6))
    ad.backward(ad.tensor_sum(ad.mul(ad.add_norm(a, b, gain, bias), ad.constant(up))))
    d_sum, d_gain, d_bias = o_add_norm_grads(a.data, b.data, gain.data, up)
    for got, expected in ((a.grad, d_sum), (b.grad, d_sum), (gain.grad, d_gain), (bias.grad, d_bias)):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_finite_diff_flags_wrong_gradient():
    # Using raw .data detaches a factor, so the analytic gradient sees
    # x instead of 2x; the check must localize the offender.
    x = ad.parameter(np.array([1.0, 2.0, 3.0]))

    def f():
        return ad.tensor_sum(ad.mul(x, ad.constant(x.data.copy())))

    res = _fd(f, {"x": x})
    assert res.max_rel_error > 1e-3
    assert res.worst_param == "x"
    assert res.worst_index in {(0,), (1,), (2,)}


def test_finite_diff_requires_wide_dtype():
    x = ad.parameter(np.ones(2, dtype=np.float32))
    with pytest.raises(ValueError, match="float64"):
        _fd(lambda: ad.tensor_sum(x), {"x": x})


def test_finite_diff_coordinate_sampling_needs_rng():
    x = ad.parameter(np.ones(10))
    with pytest.raises(ValueError, match="rng"):
        _fd(lambda: ad.tensor_sum(ad.mul(x, x)), {"x": x}, max_coords=3)
    res = _fd(lambda: ad.tensor_sum(ad.mul(x, x)), {"x": x}, max_coords=3,
              rng=np.random.default_rng(0))
    assert res.coords_checked == 3


@pytest.mark.parametrize("lead", [(1, 5), (3, 5), (2, 3, 4)])
def test_folded_matmul_matches_einsum(monkeypatch, lead):
    # a batch of several matrices times a 2-d weight runs as one 2-d
    # product, with no batched weight gradient to sum down; a batch of one
    # matrix takes the general path
    unbroadcast = []
    sum_to_shape = ad._sum_to_shape
    monkeypatch.setattr(ad, "_sum_to_shape",
                        lambda g, shape: unbroadcast.append(shape) or sum_to_shape(g, shape))
    rng = np.random.default_rng(len(lead))
    a = ad.parameter(rng.normal(size=(*lead, 6)))
    w = ad.parameter(rng.normal(size=(6, 4)))
    up = rng.normal(size=(*lead, 4))
    out = ad.matmul(a, w)
    np.testing.assert_allclose(out.data, np.einsum("...k,kn->...n", a.data, w.data),
                               rtol=0, atol=1e-12)
    ad.backward(ad.tensor_sum(ad.mul(out, ad.constant(up))))
    np.testing.assert_allclose(a.grad, np.einsum("...n,kn->...k", up, w.data),
                               rtol=0, atol=1e-12)
    axes = "abc"[:len(lead)]
    np.testing.assert_allclose(w.grad, np.einsum(f"{axes}k,{axes}n->kn", a.data, up),
                               rtol=0, atol=1e-12)
    assert a.grad.shape == a.data.shape and w.grad.shape == w.data.shape
    folded = np.prod(lead[:-1]) > 1
    assert (w.data.shape not in unbroadcast) == folded


@pytest.mark.parametrize("lead", [(2, 3), (2, 2, 3)])
def test_finite_diff_folded_matmul(lead):
    rng = np.random.default_rng(7 + len(lead))
    # one contiguous activation, and one head-split view that the fold copies
    params = _random_params(rng, {"a": (*lead, 4), "t": (*lead[:-2], lead[-1], lead[-2] * 4),
                                  "w": (4, 3)})
    weights = rng.normal(size=(2, *lead, 3))

    def f():
        h1 = ad.matmul(params["a"], params["w"])
        h2 = ad.matmul(ad.split_heads(params["t"], lead[-2]), params["w"])
        return ad.add(ad.tensor_sum(ad.mul(ad.relu(h1), ad.constant(weights[0]))),
                      ad.tensor_sum(ad.mul(h2, ad.constant(weights[1]))))

    res = _fd(f, params, step=1e-6)
    assert res.max_rel_error < 1e-6


# --- properties --------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8))
def test_softmax_is_distribution(values):
    out = softmax(values)
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_mul_backward_matches_product_rule(d, seed):
    rng = np.random.default_rng(seed)
    a = ad.parameter(rng.normal(size=d))
    b = ad.parameter(rng.normal(size=d))
    ad.backward(ad.tensor_sum(ad.mul(a, b)))
    np.testing.assert_allclose(a.grad, b.data, atol=1e-12)
    np.testing.assert_allclose(b.grad, a.data, atol=1e-12)


def test_dtype_preserved_through_ops():
    x32 = ad.constant(np.ones((2, 2), dtype=np.float32))
    assert ad.matmul(x32, x32).data.dtype == np.float32
    assert ad.attention(x32, x32, x32, np.zeros((2, 2))).data.dtype == np.float32
    assert ad.attend(x32.data, x32.data, x32.data, np.zeros((2, 2)))[1].dtype == np.float32
    assert ad.add_norm(x32, x32, ad.constant(np.ones(2, dtype=np.float32)),
                       ad.constant(np.zeros(2, dtype=np.float32))).data.dtype == np.float32
    x64 = ad.constant(np.ones((2, 2)))
    assert ad.matmul(x64, x64).data.dtype == np.float64
