"""Kernel-level checks: primitive semantics and gradient correctness."""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbias import autodiff as ad
from kwbias.autodiff import AutodiffError, ShapeError, Tape, Tensor, backward
from kwbias.rng import stream

from helpers import finite_difference, relative_error, weighted_sum


def _dot_self(w: Tensor) -> Tensor:
    """Scalar sum(w * w), with w entering both matmul operands."""
    n = w.data.size
    return ad.reshape(ad.matmul(ad.reshape(w, (1, n)), ad.reshape(w, (n, 1))), ())


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    out = ad.matmul(eye, eye)
    assert np.array_equal(out.data, np.eye(2))


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradient_of_sum_is_ones_times_b_transpose():
    rng = stream(0, "matmul")
    a = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    b = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    with Tape():
        loss = weighted_sum(ad.matmul(a, b), np.ones((5, 3)))
        backward(loss)
    assert np.allclose(a.grad, np.ones((5, 3)) @ b.data.T)
    # spot-check against central differences
    def loss_value():
        return float((a.data @ b.data).sum())

    for index in [(0, 0), (2, 5), (4, 6)]:
        fd = finite_difference(loss_value, a, index)
        assert relative_error(a.grad[index], fd) < 1e-6


def test_softmax_uniform_on_constant_input():
    out = ad.softmax_forward(np.array([0.0, 0.0, 0.0]))
    assert np.allclose(out, [1 / 3] * 3)


def test_softmax_is_overflow_safe():
    out = ad.softmax_forward(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] > 0.999999
    assert abs(out.sum() - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=12))
def test_softmax_slices_sum_to_one(values):
    out = ad.softmax_forward(np.array(values))
    assert abs(out.sum() - 1.0) < 1e-12
    assert (out >= 0).all()


def test_layer_norm_zero_variance_slice():
    out = ad.layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_two_point_slice():
    # mean 2, var 1 -> (x - 2) / sqrt(1 + 1e-5)
    out = ad.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-4)


@pytest.mark.parametrize("shape", [(3,), (1, 64), (17, 64), (2, 5, 8), (2, 4, 3, 16)])
def test_layer_norm_equals_the_mean_var_formula_bit_for_bit(shape):
    rng = stream(4, "ln-ref", *shape)
    x = rng.normal(3.0, 5.0, size=shape)
    x[(0,) * (x.ndim - 1)] = 7.25  # one constant row
    g = rng.normal(size=shape[-1])
    b = rng.normal(size=shape[-1])
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    reference = (x - mu) * (1.0 / np.sqrt(var + 1e-5)) * g + b
    out = ad.layer_norm(Tensor(x), Tensor(g), Tensor(b))
    assert np.array_equal(out.data, reference)


@pytest.mark.parametrize("shape", [(1, 64), (16, 64), (1130, 256)])
def test_forward_formulas_equal_their_textbook_expressions_bit_for_bit(shape):
    # the forwards work in place, in an order that changes no rounding; the
    # largest shape is a prefill's feed-forward input
    rng = stream(12, "textbook", *shape)
    x = rng.normal(0.0, 3.0, size=shape)
    w, b = rng.normal(size=(shape[1], 32)), rng.normal(size=32)
    assert np.array_equal(ad.affine_forward(x, w, b), x @ w + b)
    assert np.array_equal(ad.affine_forward(x, w), x @ w)
    c = np.sqrt(2.0 / np.pi)
    tanh = np.tanh(c * (x + 0.044715 * (x * x * x)))
    y, t = ad.gelu_forward(x)
    assert np.array_equal(y, 0.5 * x * (1.0 + tanh)) and np.array_equal(t, tanh)
    y_over_tanh, no_tanh = ad.gelu_forward(x, keep_tanh=False)
    assert np.array_equal(y_over_tanh, y) and no_tanh is None
    g, b = rng.normal(size=shape[1]), rng.normal(size=shape[1])
    yhat = (x - np.mean(x, axis=-1, keepdims=True)) * (1.0 / np.sqrt(np.var(x, axis=-1, keepdims=True) + 1e-5))
    out, got_yhat, _ = ad.layer_norm_forward(x, g, b)
    assert np.array_equal(out, yhat * g + b) and np.array_equal(got_yhat, yhat)


def test_layer_norm_gradients_match_finite_differences():
    rng = stream(2, "ln")
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    g = Tensor(rng.normal(size=5), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    w = rng.normal(size=(3, 5))

    def loss_value():
        return float((ad.layer_norm(x, g, b).data * w).sum())

    with Tape():
        backward(weighted_sum(ad.layer_norm(x, g, b), w))
    for t in (x, g, b):
        flat = int(stream(3, "pick", id(t)).integers(t.data.size))
        index = np.unravel_index(flat, t.data.shape)
        fd = finite_difference(loss_value, t, index)
        assert relative_error(t.grad[index], fd) < 1e-6


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 4)))
    loss = ad.cross_entropy(logits, [1, 3])
    assert abs(float(loss.data) - np.log(4)) < 1e-12


def test_cross_entropy_confident_logit_drives_loss_to_zero():
    previous = None
    for magnitude in (1.0, 10.0, 100.0):
        logits = np.zeros((1, 5))
        logits[0, 2] = magnitude
        loss = float(ad.cross_entropy(Tensor(logits), [2]).data)
        if previous is not None:
            assert loss < previous
        previous = loss
    assert previous < 1e-8


def test_cross_entropy_against_scalar_loop():
    rng = stream(4, "ce")
    logits = rng.normal(size=(3, 5))
    targets = [4, 0, 2]
    expected = [-np.log(np.exp(row[t]) / np.exp(row).sum()) for row, t in zip(logits, targets)]
    loss = ad.cross_entropy(Tensor(logits), targets)
    assert relative_error(float(loss.data), float(np.mean(expected))) < 1e-12


def test_backward_of_sum_gives_ones():
    w = Tensor(stream(5, "w").normal(size=(2, 3)), requires_grad=True)
    with Tape():
        backward(weighted_sum(w, np.ones((2, 3))))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_of_sum_of_squares():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        backward(_dot_self(w))
    assert np.allclose(w.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        out = ad.add(w, w)
        with pytest.raises(AutodiffError, match="scalar"):
            backward(out)


def test_backward_twice_is_a_stale_tape_error():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        loss = weighted_sum(w, np.ones(2))
        backward(loss)
        with pytest.raises(AutodiffError, match="stale"):
            backward(loss)


def test_backward_of_a_loss_from_an_earlier_tape_is_an_error():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        old_loss = weighted_sum(w, np.ones(2))
        backward(old_loss)
    with Tape() as tape:
        loss = _dot_self(w)
        with pytest.raises(AutodiffError, match="active tape"):
            backward(old_loss)
        assert not tape.consumed
        w.grad = None
        backward(loss)
    assert np.allclose(w.grad, [2.0, 4.0])


def test_backward_without_tape_is_an_error():
    loss = weighted_sum(Tensor([1.0], requires_grad=True), [1.0])
    with pytest.raises(AutodiffError, match="tape"):
        backward(loss)


def test_a_tape_is_active_only_on_the_thread_that_entered_it():
    x = Tensor(np.ones(3), requires_grad=True)
    seen = {}

    def other_thread():
        out = ad.scale(x, 2.0)
        seen["tracked"] = out.requires_grad

    with Tape() as tape:
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(tape) == 0
        assert ad.scale(x, 2.0).requires_grad
    assert seen == {"tracked": False}
    assert len(tape) == 1


def test_graph_is_freed_without_the_cycle_collector():
    # Tensor has no weakref slot; the data array of an intermediate lives
    # exactly as long as the tensor that owns it.
    x = Tensor(stream(9, "free").normal(size=(3, 4)), requires_grad=True)
    collector_was_on = gc.isenabled()
    gc.disable()
    try:
        with Tape() as tape:
            hidden = ad.gelu(ad.matmul(x, Tensor(np.ones((4, 2)))))
            constant = ad.add(Tensor(np.ones(2)), Tensor(np.ones(2)))  # not recorded
            loss = weighted_sum(ad.add(hidden, constant), np.ones((3, 2)))
            backward(loss)
        assert len(tape) == 6  # matmul, gelu, add, then reshape, matmul, reshape
        alive = weakref.ref(hidden.data)
        del tape, hidden, loss
        assert alive() is None
    finally:
        if collector_was_on:
            gc.enable()
    assert x.grad.shape == (3, 4)


def test_gradients_accumulate_across_shared_use():
    w = Tensor([3.0], requires_grad=True)
    with Tape():
        backward(weighted_sum(ad.add(w, w), [1.0]))
    assert np.allclose(w.grad, [2.0])


def test_an_array_handed_to_two_inputs_is_not_shared_by_their_grads():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    w = np.array([0.5, -2.0])
    with Tape():
        tripled = ad.scale(a, 3.0)  # recorded first, so its adjoint adds to a.grad last
        total = ad.add(ad.add(a, b), tripled)  # the inner add hands one array to a and b
        backward(weighted_sum(total, w))
    assert np.array_equal(a.grad, w + 3.0 * w)
    assert np.array_equal(b.grad, w)


def test_embedding_scatter_adds_repeated_ids():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with Tape():
        backward(weighted_sum(ad.embedding(table, [1, 1, 2]), np.ones((3, 2))))
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])


@pytest.mark.parametrize("ids", [[0, -1], [2, 3]], ids=["negative", "row-count"])
def test_embedding_rejects_ids_outside_the_table(ids):
    with pytest.raises(ShapeError, match="^embedding id out of range for table of 3 rows$"):
        ad.embedding(Tensor(np.zeros((3, 2))), ids)


def test_embedding_takes_an_index_array_as_a_list():
    table = Tensor(np.arange(6.0).reshape(3, 2))
    assert np.array_equal(ad.embedding(table, np.array([2, 0, 2])).data, ad.embedding(table, [2, 0, 2]).data)
    assert ad.embedding(table, np.array([], dtype=np.int64)).shape == (0, 2)
    for ids in ([0, -1], [2, 3]):
        with pytest.raises(ShapeError, match="^embedding id out of range for table of 3 rows$"):
            ad.embedding(table, np.array(ids))


def test_suffix_broadcast_add_sums_grad_over_leading_axes():
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    with Tape():
        backward(weighted_sum(ad.add(x, b), np.ones((4, 3))))
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])
    with pytest.raises(ShapeError, match="suffix"):
        ad.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))


def test_determinism_same_seed_same_grads():
    def run():
        rng = stream(7, "det")
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        with Tape():
            y = ad.gelu(ad.matmul(x, x))
            backward(weighted_sum(ad.layer_norm(y, Tensor(np.ones(4)), Tensor(np.zeros(4))), rng.normal(size=(4, 4))))
        return x.data.copy(), x.grad.copy()

    d1, g1 = run()
    d2, g2 = run()
    assert np.array_equal(d1, d2)
    assert np.array_equal(g1, g2)


def test_primitive_gradients_match_finite_differences():
    rng = stream(8, "prims")
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    q = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    k = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    v = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    # 3 query rows at positions 2..4 over 5 key rows, as in a cached decoder step
    suffix = ((3,), (5,))
    # block 0: 1 query over 2 keys; block 1: 2 queries over 3 keys
    blocks = ((1, 2), (2, 3))

    cases = {
        "gelu": (lambda: ad.gelu(x), [x]),
        "concat": (lambda: ad.concat([x, ad.scale(x, 2.0)], axis=1), [x]),
        "swap": (lambda: ad.swap_axes(ad.reshape(x, (4, 3)), 0, 1), [x]),
        "scale": (lambda: ad.scale(ad.add(x, Tensor(-np.ones(4))), -1.7), [x]),
        "affine": (lambda: ad.affine(x, w, b), [x, w, b]),
        "affine without bias": (lambda: ad.affine(x, w), [x, w]),
        "attention, 1 head": (lambda: ad.attention(q, k, v, 1), [q, k, v]),
        "attention, 4 heads": (lambda: ad.attention(q, k, v, 4), [q, k, v]),
        "attention, 4 heads, suffix-causal": (lambda: ad.attention(q, k, v, 4, suffix, True), [q, k, v]),
        "attention, 4 heads, blocked": (lambda: ad.attention(q, k, v, 4, blocks), [q, k, v]),
        "attention, 2 heads, blocked, causal": (lambda: ad.attention(q, k, v, 2, blocks, True), [q, k, v]),
    }
    for name, (build, inputs) in cases.items():
        weights = stream(8, "weights", name).normal(size=build().shape)
        for t in inputs:
            t.grad = None
        with Tape():
            backward(weighted_sum(build(), weights))

        def loss_value():
            return float((build().data * weights).sum())

        for t in inputs:
            for flat in stream(8, "coords", name, t.data.shape).choice(t.data.size, 3, replace=False):
                index = np.unravel_index(flat, t.data.shape)
                fd = finite_difference(loss_value, t, index)
                assert relative_error(t.grad[index], fd) < 1e-6, (name, t.data.shape, index)


def _attention_reference(q, k, v, n_heads, mask):
    """The split -> scores -> mask -> softmax -> merge chain, in plain numpy."""
    hd = q.shape[1] // n_heads
    qh, kh, vh = (np.swapaxes(t.reshape(len(t), n_heads, hd), 0, 1) for t in (q, k, v))
    scores = np.matmul(qh, np.swapaxes(kh, -1, -2)) * (1.0 / np.sqrt(hd))
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    att = e / np.sum(e, axis=-1, keepdims=True)
    return np.swapaxes(np.matmul(att, vh), 0, 1).reshape(q.shape), np.mean(att, axis=0)


@pytest.mark.parametrize("n_heads, masked", [(1, False), (4, False), (4, True)])
def test_fused_primitives_equal_the_plain_numpy_chain_bit_for_bit(n_heads, masked):
    rng = stream(10, "fused", n_heads, masked)
    q, k, v = rng.normal(size=(3, 8)), rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
    # the 3 queries are the last rows of the 5 keys
    mask = np.triu(np.full((3, 5), -1e30), k=3) if masked else None
    collect = []
    out = ad.attention(Tensor(q), Tensor(k), Tensor(v), n_heads, ((3,), (5,)), masked, collect)
    expected, weights = _attention_reference(q, k, v, n_heads, mask)
    assert np.array_equal(out.data, expected)
    assert len(collect) == 1 and np.array_equal(collect[0], weights)
    x, w, b = rng.normal(size=(3, 8)), rng.normal(size=(8, 6)), rng.normal(size=6)
    assert np.array_equal(ad.affine(Tensor(x), Tensor(w), Tensor(b)).data, np.matmul(x, w) + b)
    assert np.array_equal(ad.affine(Tensor(x), Tensor(w)).data, np.matmul(x, w))


@pytest.mark.parametrize("causal", [False, True])
def test_packed_attention_blocks_equal_each_block_run_alone(causal):
    # three sequences of distinct lengths; the first two have fewer queries
    # than keys, as a decode step or the read rows of a last layer do
    q_lengths, k_lengths = (2, 1, 4), (3, 5, 4)
    rng = stream(12, "blocks", causal)
    q, k, v = (Tensor(rng.normal(size=(sum(n), 8)), requires_grad=True)
               for n in (q_lengths, k_lengths, k_lengths))
    weights = rng.normal(size=(sum(q_lengths), 8))
    with Tape():
        packed = ad.attention(q, k, v, 4, (q_lengths, k_lengths), causal)
        backward(weighted_sum(packed, weights))
    q0 = k0 = 0
    for n, m in zip(q_lengths, k_lengths):
        rows, keys = slice(q0, q0 + n), slice(k0, k0 + m)
        q0, k0 = q0 + n, k0 + m
        qb, kb, vb = (Tensor(t.data[sl].copy(), requires_grad=True) for t, sl in ((q, rows), (k, keys), (v, keys)))
        with Tape():
            alone = ad.attention(qb, kb, vb, 4, ((n,), (m,)), causal)
            backward(weighted_sum(alone, weights[rows]))
        assert np.array_equal(packed.data[rows], alone.data)
        assert np.array_equal(q.grad[rows], qb.grad)
        assert np.array_equal(k.grad[keys], kb.grad)
        assert np.array_equal(v.grad[keys], vb.grad)


def test_attention_and_affine_each_record_one_node():
    rng = stream(11, "one-node")
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    w, b = Tensor(rng.normal(size=(8, 8))), Tensor(rng.normal(size=8))
    with Tape() as tape:
        y = ad.affine(x, w, b)
        assert len(tape) == 1
        ad.attention(y, x, y, 4, ((1, 2), (1, 2)), causal=True)
        assert len(tape) == 2
        # nothing that requires a gradient: no node
        ad.attention(Tensor(x.data), w, w, 2)
        ad.affine(w, w)
        assert len(tape) == 2


def test_fused_primitives_reject_mismatched_shapes():
    a, b = Tensor(np.ones((3, 8))), Tensor(np.ones((5, 8)))
    with pytest.raises(ShapeError, match="affine"):
        ad.affine(a, b)
    with pytest.raises(ShapeError, match="bias"):
        ad.affine(a, Tensor(np.ones((8, 2))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="attention"):
        ad.attention(a, b, a, 4)
    with pytest.raises(ShapeError, match="attention"):
        ad.attention(a, b, b, 3)
    # lengths that do not sum to the rows or do not pair up, a block without
    # keys, and more causal queries than keys
    for q, kv, lengths, causal in [(a, b, ((3,), (3,)), False), (a, b, ((1, 2), (5,)), False),
                                   (a, b, ((2, 1), (5, 0)), False), (a, b, ((2, 1), (1, 4)), True),
                                   (b, a, None, True)]:
        with pytest.raises(ShapeError, match="lengths"):
            ad.attention(q, kv, kv, 4, lengths, causal)


def test_bce_with_logits_matches_manual_formula():
    logits = Tensor(np.array([2.0, -1.0, 0.0]), requires_grad=True)
    labels = np.array([1.0, 0.0, 1.0])
    with Tape():
        loss = ad.bce_with_logits(logits, labels)
        backward(loss)
    p = 1 / (1 + np.exp(-logits.data))
    manual = -(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean()
    assert relative_error(float(loss.data), float(manual)) < 1e-12
    assert np.allclose(logits.grad, (p - labels) / 3)
