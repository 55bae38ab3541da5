import gc
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphkbc import autodiff as ad
from graphkbc.autodiff import (
    GradientError,
    Tensor,
    affine_rows,
    backward,
    concat_rows,
    gather_rows,
    gradcheck,
    group_transition,
    mean0,
    relu,
    rows_norm,
    segment_max,
    segment_mean,
    segment_sum,
    sum_all,
    tanh,
)
from graphkbc.model import TRANSITIONS


def naive_matvec(A, x):
    # independent oracle: plain triple loop
    n, d = x.shape
    out = np.zeros_like(x)
    for i in range(n):
        for row in range(d):
            s = 0.0
            for col in range(d):
                s += A[row, col] * x[i, col]
            out[i, row] = s
    return out


class TestForward:
    def test_affine_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        y = affine_rows(x, Tensor(np.eye(3)[None]), [0, 2])
        assert np.array_equal(y.data, x.data)

    def test_affine_zero(self):
        x = Tensor(np.ones((2, 3)))
        y = affine_rows(x, Tensor(np.zeros((1, 3, 3))), [0, 2])
        assert np.array_equal(y.data, np.zeros((2, 3)))

    def test_affine_matches_naive_matvec(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 3))
        x = rng.normal(size=(4, 3))
        y = affine_rows(Tensor(x), Tensor(A[None]), [0, 4])
        assert np.allclose(y.data, naive_matvec(A, x), rtol=1e-12, atol=1e-12)

    def test_stacked_affine_matches_per_group_matvec(self):
        # rows sorted by group; group 1 has no rows
        rng = np.random.default_rng(8)
        A = rng.normal(size=(3, 3, 3))
        x = rng.normal(size=(5, 3))
        offsets = [0, 2, 2, 5]
        y = affine_rows(Tensor(x), Tensor(A), offsets)
        for g, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            assert np.allclose(y.data[lo:hi], naive_matvec(A[g], x[lo:hi]), rtol=1e-12, atol=1e-12)

    def test_stacked_affine_gradient_of_absent_group_is_zero(self):
        rng = np.random.default_rng(9)
        A = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        backward(sum_all(affine_rows(x, A, [0, 1, 1, 3])))
        assert np.array_equal(A.grad[1], np.zeros((2, 2)))
        assert np.array_equal(A.grad[0], np.outer([1.0, 1.0], x.data[0]))

    def test_affine_shape_mismatch(self):
        with pytest.raises(ValueError):
            affine_rows(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 4, 4))), [0, 2])
        with pytest.raises(ValueError):
            affine_rows(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), [0, 2])
        with pytest.raises(ValueError, match="offsets"):
            affine_rows(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3, 3))), [0, 2])
        with pytest.raises(ValueError, match="offsets"):
            affine_rows(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3, 3))), [0, 3, 2])
        with pytest.raises(ValueError, match="offsets"):  # a pass-through prefix is >= 0 rows
            affine_rows(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3, 3))), [-1, 2])

    def test_activations(self):
        assert relu(Tensor([-1.0])).data[0] == 0.0
        assert relu(Tensor([2.0])).data[0] == 2.0
        assert tanh(Tensor([0.0])).data[0] == 0.0

    def test_norms(self):
        assert rows_norm(Tensor([[0.0, 0.0]]), 2).data[0] == 0.0
        assert rows_norm(Tensor([[3.0, 4.0]]), 2).data[0] == 5.0
        assert rows_norm(Tensor([[1.0, -2.0, 3.0]]), 1).data[0] == 6.0
        with pytest.raises(ValueError):
            rows_norm(Tensor([[1.0]]), 3)

    def test_vector_norm_helper(self):
        batch = Tensor([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [1.0, -2.0, 3.0]])
        assert np.array_equal(rows_norm(batch, 2).data, [0.0, 5.0, np.sqrt(14.0)])
        assert np.array_equal(rows_norm(batch, 1).data, [0.0, 7.0, 6.0])

    def test_segment_reductions(self):
        x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        seg = np.array([0, 0, 1])
        assert np.array_equal(segment_sum(x, seg, 2).data, [[1, 1], [2, 2]])
        assert np.array_equal(segment_mean(x, seg, 2).data, [[0.5, 0.5], [2, 2]])
        assert np.array_equal(segment_max(x, seg, 2).data, [[1, 1], [2, 2]])

    def test_segment_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            segment_sum(Tensor(np.ones((2, 2))), np.array([0, 0]), 2)

    def test_segment_out_of_range_rejected(self):
        for op in (segment_sum, segment_mean, segment_max):
            with pytest.raises(ValueError, match="segment id 2 is out of range for 2 segments"):
                op(Tensor(np.ones((2, 2))), np.array([0, 2]), 2)

    def test_segment_ops_reject_rows_that_are_not_n_by_d(self):
        # as group_transition does: a vector is not one-feature rows
        for op in (segment_sum, segment_mean, segment_max):
            for shape in ((3,), (3, 2, 2)):
                with pytest.raises(ValueError, match=r"wants \(n,d\) rows"):
                    op(Tensor(np.ones(shape)), np.array([0, 0, 1]), 2)


class TestBackward:
    def test_half_squared_norm_gradient_is_x(self):
        x = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
        loss = sum_all(x * x * 0.5)
        backward(loss)
        assert np.allclose(x.grad, x.data)

    def test_constant_loss_leaves_grads_empty(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = sum_all(Tensor(np.zeros(1)))
        backward(loss)
        assert x.grad is None

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(ValueError):
            backward(Tensor(np.ones(2)))

    def test_nonfinite_loss_trapped(self):
        with pytest.raises(GradientError):
            backward(Tensor(np.array(np.inf)))

    def test_finite_check_flag(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        old = ad.CHECK_FINITE
        ad.CHECK_FINITE = True
        try:
            with np.errstate(divide="ignore"), pytest.raises(GradientError):
                ad.power(x * 0.0, -1.0)
        finally:
            ad.CHECK_FINITE = old

    def test_affine_relu_chain_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        A = Tensor(rng.uniform(-1, 1, size=(1, 4, 4)), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, size=(5, 4)), requires_grad=True)

        def build():
            return sum_all(rows_norm(relu(affine_rows(x, A, [0, 5])), 2))

        assert gradcheck(build, {"A": A, "x": x}) == []

    def test_gradcheck_catches_wrong_gradient(self):
        x = Tensor(np.array([[0.7, -0.3]]), requires_grad=True)

        def build():
            # tanh masquerading as relu would have a different slope
            return sum_all(tanh(x))

        loss = build()
        backward(loss)
        x.grad = -x.grad  # corrupt analytic gradient
        analytic = x.grad.copy()
        num = []
        eps = 1e-5
        flat = x.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = float(build().data)
            flat[i] = keep - eps
            down = float(build().data)
            flat[i] = keep
            num.append((up - down) / (2 * eps))
        assert not np.allclose(analytic.reshape(-1), num, rtol=1e-4)

    def test_gradcheck_fails_a_nan_gradient(self):
        # a NaN error compares false with any tolerance: it must still fail
        x = Tensor(np.array([[0.7, -0.3]]), requires_grad=True)

        def build():
            out = sum_all(tanh(x))
            out._backward = lambda g: ad._accumulate(x, np.full(x.shape, np.nan))
            return out

        failures = gradcheck(build, {"x": x})
        assert len(failures) == 2 and all("analytic nan" in f for f in failures), failures


def test_backward_frees_the_tape_as_it_walks_it():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    gamma = Tensor(np.ones((2, 3)), requires_grad=True)
    beta = Tensor(np.zeros((2, 3)), requires_grad=True)
    leaves = (x, w, gamma, beta)
    enabled = gc.isenabled()
    gc.disable()  # only reference counts free anything
    try:
        rows = gather_rows(x, np.array([0, 2, 2, 5, 1, 4]))
        moved = group_transition(rows, [0, 2, 6], w, (gamma, beta, 1e-5, None), "relu")[0]
        loss = sum_all(rows_norm(segment_max(moved, np.array([0, 1, 1, 0, 2, 2]), 3), 1) * 2.0)
        tape, stack = {}, [loss]
        while stack:
            t = stack.pop()
            if id(t) not in tape:
                tape[id(t)] = t
                stack.extend(t._parents)
        backward(loss)
    finally:
        if enabled:
            gc.enable()
    assert len(tape) == 11
    # every op output keeps its data only; the leaves keep their gradients for Adam
    assert all(t._parents == () and t._backward is None for t in tape.values())
    assert all(t.grad is None for t in tape.values() if not any(t is p for p in leaves))
    assert all(p.grad is not None for p in leaves)


GRAD_OPS = {
    "gather": lambda x: sum_all(rows_norm(gather_rows(x, np.array([0, 2, 2, 1])), 2)),
    "concat": lambda x: sum_all(concat_rows([gather_rows(x, [0, 1]), gather_rows(x, [2])]) * 2.0),
    "segment_sum": lambda x: sum_all(rows_norm(segment_sum(x, np.array([0, 1, 0]), 2), 2)),
    "segment_mean": lambda x: sum_all(rows_norm(segment_mean(x, np.array([1, 1, 0]), 2), 1)),
    "segment_max": lambda x: sum_all(segment_max(x, np.array([0, 0, 1]), 2)),
    "mean0": lambda x: sum_all(rows_norm(x - mean0(x), 2)),
    "tanh": lambda x: sum_all(tanh(x)),
    "power": lambda x: sum_all(ad.power(x * x + 1.0, -0.5)),
    "l1": lambda x: sum_all(rows_norm(x, 1)),
}


@pytest.mark.parametrize("name", sorted(GRAD_OPS))
def test_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
    build = lambda: GRAD_OPS[name](x)
    assert gradcheck(build, {"x": x}) == [], name


def test_repeated_gather_accumulates():
    x = Tensor(np.array([[1.0, 1.0], [2.0, 2.0]]), requires_grad=True)
    picked = gather_rows(x, np.array([0, 0, 1]))
    backward(sum_all(picked))
    assert np.array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])


@pytest.mark.parametrize("gather_first", [False, True])
def test_fan_in_leaves_sibling_gradient_alone(gather_first):
    # add hands one gradient array to both parents; x then also gets a
    # gather gradient, which must not land in y's gradient
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    y = Tensor(np.array([[0.5, 0.5], [0.5, 0.5]]), requires_grad=True)
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = np.array([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
    terms = [sum_all((x + y) * w), sum_all(gather_rows(x, np.array([1, 1, 0])) * v)]
    if gather_first:
        terms.reverse()
    backward(terms[0] + terms[1])
    assert np.array_equal(y.grad, w)
    assert np.array_equal(x.grad, w + [[50.0, 60.0], [40.0, 60.0]])


def test_no_backward_writes_a_stored_gradient(monkeypatch):
    # every stored gradient is made read-only (a row-sparse one's rows and
    # values): a backward (or the optimizer) that wrote one in place would raise
    from graphkbc.checks import gradient_check_report
    from graphkbc.kg import build_graph
    from graphkbc.model import ObjectiveConfig, PropagationConfig
    from graphkbc.trainer import TrainConfig, init_model, train
    from synthetic_corpus import grid_corpus

    accumulate = ad._accumulate
    stored = []

    def read_only(t, g):
        accumulate(t, g)
        if t.grad is not None:
            sparse = isinstance(t.grad, ad.RowSparseGrad)
            for array in (t.grad.rows, t.grad.values) if sparse else (t.grad,):
                array.flags.writeable = False
            stored.append(t.grad)

    monkeypatch.setattr(ad, "_accumulate", read_only)
    ok, failures = gradient_check_report()
    assert ok, failures
    train_triplets, _, _, ev, rv = grid_corpus()
    model = init_model(len(ev), len(rv), PropagationConfig(dim=4, depth=2, mode="stacked"), 0)
    cfg = TrainConfig(epochs=1, minibatch_size=32, filter_false_negatives=True)
    [metrics] = train(build_graph(train_triplets), model, cfg, ObjectiveConfig())
    assert np.isfinite(metrics["loss"]) and stored
    # the last minibatch's entity gradient is row-sparse, and Adam stepped with it read-only
    assert isinstance(model.entities.grad, ad.RowSparseGrad)
    assert not model.entities.grad.values.flags.writeable


def test_a_row_sparse_gradient_is_not_read_as_an_array():
    g = ad.RowSparseGrad(np.array([1]), np.ones((1, 2)), (3, 2))
    with pytest.raises(TypeError, match="use autodiff.densify"):
        np.asarray(g)


# ---------------------------------------------------------------------------
# max pooling: reduceat maxima, one winner per (segment, feature)

# few distinct values, signed zeros among them, so that ties are common
_TIE_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0])


@st.composite
def duplicated_records(draw):
    """(rows, seg, n_segments): records drawn from a few base rows, so rows repeat."""
    d = draw(st.integers(1, 3))
    n_base = draw(st.integers(1, 4))
    base = np.array(draw(st.lists(_TIE_VALUES, min_size=n_base * d, max_size=n_base * d)))
    n_segments = draw(st.integers(1, 5))
    extra = draw(st.lists(st.integers(0, n_segments - 1), max_size=12))
    seg = np.array(draw(st.permutations(list(range(n_segments)) + extra)), dtype=np.intp)
    picks = draw(st.lists(st.integers(0, n_base - 1), min_size=len(seg), max_size=len(seg)))
    return base.reshape(n_base, d)[picks], seg, n_segments


@settings(max_examples=200, deadline=None)
@given(duplicated_records())
# reduceat's vectorized maximum of eight -0.0 rows and a +0.0 row is -0.0
@example((np.array([[-0.0]] * 8 + [[0.0]]), np.zeros(9, np.intp), 1))
def test_segment_max_forward_is_reduceat_and_gradient_has_one_winner(case):
    rows, seg, n_segments = case
    x = Tensor(rows, requires_grad=True)
    out = segment_max(x, seg, n_segments)
    order = np.argsort(seg, kind="stable")
    starts = np.flatnonzero(np.diff(seg[order], prepend=-1))
    expected = np.maximum.reduceat(rows[order], starts, axis=0) + 0.0  # a zero maximum is +0.0
    assert out.data.tobytes() == expected.tobytes()  # bitwise, signed zeros included
    upstream = np.arange(1.0, out.data.size + 1).reshape(out.data.shape)
    backward(sum_all(out * upstream))
    for s in range(n_segments):
        members = np.flatnonzero(seg == s)
        for f in range(rows.shape[1]):
            winner = members[np.flatnonzero(rows[members, f] == out.data[s, f])[0]]
            assert x.grad[winner, f] == upstream[s, f]
            assert np.all(x.grad[members[members != winner], f] == 0.0)


def test_segment_max_tie_goes_to_lowest_index_row():
    # rows 1 and 3 repeat one record of segment 0; row 0 is segment 1
    x = Tensor(np.array([[5.0, 1.0], [2.0, 3.0], [1.0, 3.0], [2.0, 3.0]]), requires_grad=True)
    backward(sum_all(segment_max(x, np.array([1, 0, 0, 0]), 2)))
    assert np.array_equal(x.grad, [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# id sorts: 16-bit radix passes give numpy's stable argsort

@st.composite
def bounded_keys(draw):
    """(keys, bound): keys of a few values below ``bound``, ``bound - 1`` among them, so ties abound."""
    bound = draw(st.sampled_from([1, 2, 2**16, 2**16 + 1, 2**32 + 1, 2**62]))
    values = draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=4)) + [bound - 1]
    return np.array(draw(st.lists(st.sampled_from(values), max_size=60)), dtype=np.int64), bound


@settings(max_examples=300, deadline=None)
@given(bounded_keys())
@example((np.zeros(0, np.int64), 2**62))
@example((np.full(9, 2**62 - 1), 2**62))
@example((np.full(9, 2**16), 2**16 + 1))
@example((np.array([2**16, 0, 2**16, 1, 0]), 2**16 + 1))  # equal low digits, unequal keys
def test_stable_order_is_numpy_stable_argsort(case):
    keys, bound = case
    order = ad.stable_order(keys, bound)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype and order.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# gather: repeated rows add in index order

def test_repeated_gather_gradient_matches_add_at_bitwise():
    rng = np.random.default_rng(12)
    # the last source is not a leaf, picked by strictly increasing ids
    for n_source, n_picks in ((7, 40), (300, 200), (3, 500), (60, None)):
        x = Tensor(rng.normal(size=(n_source, 5)), requires_grad=True)
        if n_picks is None:
            source, idx = x * 2.0, np.sort(rng.choice(n_source, 25, replace=False))
        else:
            source, idx = x, rng.integers(0, n_source, size=n_picks)
        upstream = rng.normal(size=(len(idx), 5)) * 10.0 ** rng.integers(-8, 8, size=(len(idx), 1))
        upstream[::3, 1] = -0.0
        backward(sum_all(gather_rows(source, idx) * upstream))
        expected = np.zeros_like(x.data)
        np.add.at(expected, idx, upstream)
        # a non-leaf's gradient is gone after backward: check it through the leaf
        if source is not x:
            expected = expected * 2.0
        assert x.grad.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# the fused transition against the unfused chain

def unfused_chain(x, offsets, W, gamma, beta, eps, fixed, activation, upstream):
    """Affine map, batch norm and activation as three whole-array passes, in numpy.

    ``W``, ``gamma`` (with ``beta``) and ``activation`` may each be None,
    which skips that stage. Returns the output, the batch statistics and the
    gradients of x, W, gamma and beta (None for a skipped stage) for the
    upstream gradient.
    """
    groups = [(g, lo, hi) for g, (lo, hi) in enumerate(zip(offsets, offsets[1:])) if hi > lo]
    pre = x.copy()
    if W is not None:
        for g, lo, hi in groups:
            pre[lo:hi] = x[lo:hi] @ W[g].T
    normed, mean, var = pre, None, None
    if gamma is not None:
        mean, inv = fixed if fixed is not None else (np.zeros_like(gamma), np.zeros_like(gamma))
        var = np.zeros_like(gamma)
        centered, normed = np.empty_like(x), np.empty_like(x)
        for g, lo, hi in groups:
            if fixed is None:
                mean[g] = pre[lo:hi].mean(axis=0)
            c = centered[lo:hi] = pre[lo:hi] - mean[g]
            if fixed is None:
                var[g] = (c * c).mean(axis=0)
                inv[g] = (var[g] + eps) ** -0.5
            normed[lo:hi] = c * inv[g] * gamma[g] + beta[g]
    out = normed
    if activation == "relu":
        out = np.maximum(normed, 0.0)
    elif activation == "tanh":
        out = np.tanh(normed)

    d_normed = upstream
    if activation == "relu":
        d_normed = upstream * (normed > 0.0)
    elif activation == "tanh":
        d_normed = upstream * (1.0 - out * out)
    d_pre, g_gamma, g_beta = d_normed.copy(), None, None
    if gamma is not None:
        g_gamma, g_beta = np.zeros_like(gamma), np.zeros_like(beta)
        for g, lo, hi in groups:
            xhat = centered[lo:hi] * inv[g]
            g_beta[g] = d_normed[lo:hi].sum(axis=0)
            g_gamma[g] = (d_normed[lo:hi] * xhat).sum(axis=0)
            dxhat = d_normed[lo:hi] * gamma[g]
            if fixed is None:
                dxhat -= dxhat.mean(axis=0) + xhat * (dxhat * xhat).mean(axis=0)
            d_pre[lo:hi] = dxhat * inv[g]
    gx, g_W = d_pre.copy(), None
    if W is not None:
        g_W = np.zeros_like(W)
        for g, lo, hi in groups:
            gx[lo:hi] = d_pre[lo:hi] @ W[g]
            g_W[g] = d_pre[lo:hi].T @ x[lo:hi]
    return out, mean, var, (gx, g_W, g_gamma, g_beta)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("training", [True, False])
def test_group_transition_is_the_unfused_chain_bitwise(training, activation):
    # groups of 5, 0, 1 and 9 rows: an empty group and a one-row group; then
    # the same behind 3 pass-through rows, which leave the groups' rows, batch
    # statistics and gradients as they were
    for n_pass in (0, 3):
        offsets = [n_pass + o for o in (0, 5, 5, 6, 15)]
        n = offsets[-1]
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(n, 6)), requires_grad=True)
        W = Tensor(rng.normal(size=(4, 6, 6)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=(4, 6)), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, size=(4, 6)), requires_grad=True)
        eps = 1e-5
        fixed = None
        if not training:
            running_var = rng.uniform(0.5, 2.0, size=(4, 6))
            fixed = (rng.normal(size=(4, 6)), 1.0 / np.sqrt(running_var + eps))
        upstream = rng.normal(size=(n, 6))

        out, mean, var = group_transition(x, offsets, W, (gamma, beta, eps, fixed), activation)
        backward(sum_all(out * upstream))
        ref_out, ref_mean, ref_var, ref_grads = unfused_chain(
            x.data[n_pass:], [o - n_pass for o in offsets], W.data, gamma.data, beta.data, eps,
            fixed, activation, upstream[n_pass:])

        assert out.data[:n_pass].tobytes() == x.data[:n_pass].tobytes()
        assert x.grad[:n_pass].tobytes() == upstream[:n_pass].tobytes()
        assert out.data[n_pass:].tobytes() == ref_out.tobytes()
        if training:
            assert mean.tobytes() == ref_mean.tobytes() and var.tobytes() == ref_var.tobytes()
            assert np.array_equal(out.data[n_pass + 5], np.maximum(beta.data[2], 0.0)
                                  if activation == "relu"
                                  else np.tanh(beta.data[2]))  # a one-row group outputs its beta
        else:
            assert mean is None and var is None
        assert x.grad[n_pass:].tobytes() == ref_grads[0].tobytes()
        for t, ref in zip((W, gamma, beta), ref_grads[1:]):
            assert t.grad.tobytes() == ref.tobytes()
        assert not W.grad[1].any() and not gamma.grad[1].any()  # the empty group


_STANDALONE_POOL = {"sum": segment_sum, "avg": segment_mean, "max": segment_max}


def _numpy_pool(pooling, rows, seg, n_segments):
    """Each segment's pool of ``rows`` by numpy's unbuffered ufunc ``at``, in row order."""
    if pooling == "max":
        out = np.full((n_segments, rows.shape[1]), -np.inf)
        np.maximum.at(out, seg, rows)
        out += 0.0  # a zero maximum is +0.0
        return out
    out = np.zeros((n_segments, rows.shape[1]))
    np.add.at(out, seg, rows)
    return out / np.bincount(seg)[:, None] if pooling == "avg" else out


def _numpy_pool_grad(pooling, rows, pooled, seg, upstream):
    """The rows' gradient of ``_numpy_pool``: max sends it to the lowest-index winning row."""
    grad = upstream[seg]
    if pooling == "avg":
        grad = grad / np.bincount(seg)[seg, None]
    if pooling == "max":
        ids = np.arange(len(rows))[:, None]
        first = np.full(pooled.shape, len(rows))
        np.minimum.at(first, seg, np.where(rows == pooled[seg], ids, len(rows)))
        grad = grad * (ids == first[seg])  # a zero of the gradient's sign elsewhere
    return grad


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("pooling", ["sum", "avg", "max"])
@pytest.mark.parametrize("transition", sorted(TRANSITIONS))
def test_propagation_step_is_gather_transition_and_pool_bitwise(transition, pooling, training):
    # one op against the chain it fuses: gather_rows, the unfused transition
    # and the standalone segment op. 3 self records pass through, then groups
    # of 5, 0, 1 and 40 records (1,000 at d = 100). The records repeat rows of
    # a 40-row table; every other record of the last group takes its
    # segment's row, so maxima tie across records, as relu's zeros do
    weighted, normed, activation, _ = TRANSITIONS[transition]
    for d in (1, 6, 100):
        rng = np.random.default_rng(d)
        sizes = (3, 5, 0, 1, 1000 if d == 100 else 40)
        offsets = None if not weighted else np.cumsum(sizes)
        n, n_targets = sum(sizes), sum(sizes) // 4
        n_pass = n if offsets is None else sizes[0]
        idx = rng.integers(0, 40, n)
        seg = rng.permutation(np.concatenate([np.arange(n_targets),
                                              rng.integers(0, n_targets, n - n_targets)]))
        idx[n - sizes[-1]::2] = seg[n - sizes[-1]::2] % 40
        table = rng.normal(size=(40, d))
        W = rng.normal(size=(4, d, d)) / np.sqrt(d) if weighted else None
        gamma, beta = rng.uniform(0.5, 1.5, size=(4, d)), rng.uniform(-0.5, 0.5, size=(4, d))
        fixed = None
        if normed and not training:
            fixed = (rng.normal(size=(4, d)), 1.0 / np.sqrt(rng.uniform(0.5, 2.0, (4, d)) + 1e-5))
        upstream = rng.normal(size=(n_targets, d))
        upstream[::5] = -0.0

        x = Tensor(table, requires_grad=True)
        params = [Tensor(a, requires_grad=True) if a is not None else None
                  for a in (W, gamma if normed else None, beta if normed else None)]
        norm = None if not normed else (params[1], params[2], 1e-5, fixed)
        out, mean, var = group_transition(x, offsets, params[0], norm, activation,
                                          gather=(idx, None), pool=(pooling, seg, n_targets, None),
                                          training=training)

        rows = table[idx]

        def chain(up):  # the transition of the grouped records
            return unfused_chain(rows[n_pass:], np.cumsum((0,) + sizes[1:]), W,
                                 gamma if normed else None, beta, 1e-5, fixed, activation, up)
        ref_rows, ref_mean, ref_var, _ = chain(np.zeros((n - n_pass, d)))
        records = Tensor(np.concatenate([rows[:n_pass], ref_rows]), requires_grad=True)
        pooled = _STANDALONE_POOL[pooling](records, seg, n_targets)
        assert out.data.tobytes() == pooled.data.tobytes(), d
        # the standalone op is the step's own pool, so numpy's is the reference
        ref_pooled = _numpy_pool(pooling, records.data, seg, n_targets)
        assert pooled.data.tobytes() == ref_pooled.tobytes(), d
        if pooling == "max":  # some maxima tie
            hits = np.zeros((n_targets, d))
            np.add.at(hits, seg, records.data == pooled.data[seg])
            assert (hits > 1).any(), d
        if normed and training:
            assert mean.tobytes() == ref_mean.tobytes() and var.tobytes() == ref_var.tobytes()
        if pooling == "max" and not training:  # an inference forward keeps no winners
            with pytest.raises(ValueError, match="training=True"):
                backward(sum_all(out * upstream))
            continue
        backward(sum_all(out * upstream))
        backward(sum_all(pooled * upstream))
        ref_grad = _numpy_pool_grad(pooling, records.data, pooled.data, seg, upstream)
        assert records.grad.tobytes() == ref_grad.tobytes(), d
        grads = chain(records.grad[n_pass:])[3]
        source = Tensor(table, requires_grad=True)
        backward(sum_all(gather_rows(source, idx)
                         * np.concatenate([records.grad[:n_pass], grads[0]])))
        assert ad.densify(x.grad).tobytes() == ad.densify(source.grad).tobytes(), d
        for t, ref in zip(params, grads[1:]):
            if t is not None:
                assert t.grad.tobytes() == ref.tobytes(), d


def test_column_dot_is_the_axis_0_sum_of_the_products_bitwise():
    # einsum adds the rows in order, as numpy's axis-0 sum does for d >= 2;
    # d = 1, where numpy sums pairwise, takes the product path
    rng = np.random.default_rng(31)
    for _ in range(200):
        m, d = int(rng.integers(1, 2000)), int(rng.integers(1, 130))
        a, b = rng.normal(size=(2, m, d)) * 10.0 ** rng.integers(-6, 6, size=(2, m, 1))
        a[::7] = -0.0
        assert ad._column_dot(a, b).tobytes() == (a * b).sum(axis=0).tobytes(), (m, d)


def test_group_transition_rejects_unknown_activation():
    with pytest.raises(ValueError, match="activation"):
        group_transition(Tensor(np.ones((2, 2))), [0, 2], Tensor(np.ones((1, 2, 2))),
                         activation="gelu")


@pytest.mark.parametrize("pooling", ["sum", "avg", "max"])
def test_pool_alone_reads_its_rows_in_place_and_never_writes_them(pooling):
    # a segment op makes no copy of its rows: its forward allocates less than
    # they take, and its backward leaves the rows as they were. An activation
    # has no grouped row to act on without offsets, so the op refuses one
    import tracemalloc

    rng = np.random.default_rng(9)
    rows = rng.normal(size=(20_000, 16))
    seg = rng.integers(0, 50, len(rows))
    seg[:50] = np.arange(50)
    kept = rows.copy()
    x = Tensor(rows, requires_grad=True)
    op = _STANDALONE_POOL[pooling]
    op(rows, seg, 50)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        out = op(x, seg, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes
    with pytest.raises(ValueError, match="offsets"):
        group_transition(x, None, activation="relu", pool=(pooling, seg, 50, None))
    backward(sum_all(out * 2.0))
    assert rows.tobytes() == kept.tobytes()
    assert x.grad.tobytes() == _numpy_pool_grad(pooling, rows, out.data, seg,
                                                np.full(out.shape, 2.0)).tobytes()


def test_propagation_step_rejects_unknown_pooling_and_ids_outside_the_rows():
    x = Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError, match="pooling"):
        group_transition(x, None, pool=("median", [0, 0, 0], 1, None))
    for ids in ([0, 3], [-1, 0]):  # the gather does not wrap or clip
        with pytest.raises(IndexError, match="gather ids"):
            group_transition(x, None, gather=(ids, None), pool=("sum", [0, 0], 1, None))


_W = np.random.default_rng(3).normal(size=(2, 3, 3))
_GAMMA_BETA_EPS = (np.full((2, 3), 1.5), np.full((2, 3), 0.25), 1e-5)
RECORDING_OPS = {
    "add": lambda x: ad.add(x, 1.0),
    "sub": lambda x: ad.sub(x, 1.0),
    "mul": lambda x: ad.mul(x, 2.0),
    "power": lambda x: ad.power(x, 2.0),
    "relu": relu,
    "tanh": tanh,
    "group_transition:training": lambda x: group_transition(
        x, [1, 3, 4], _W, (*_GAMMA_BETA_EPS, None), "relu")[0],
    "group_transition:inference": lambda x: group_transition(
        x, [1, 3, 4], _W, (*_GAMMA_BETA_EPS, (np.zeros((2, 3)), np.ones((2, 3)))), "tanh")[0],
    "group_transition:step": lambda x: group_transition(
        x, [1, 3, 4], _W, (*_GAMMA_BETA_EPS, None), "relu", gather=([0, 2, 2, 3], None),
        pool=("max", [0, 1, 0, 1], 2, None))[0],
    "affine_rows": lambda x: affine_rows(x, _W, [0, 2, 4]),
    "sum_all": sum_all,
    "mean0": mean0,
    "gather_rows": lambda x: gather_rows(x, [0, 2, 2]),
    "concat_rows": lambda x: concat_rows([x, np.ones((1, 3))]),
    "segment_sum": lambda x: segment_sum(x, [0, 1, 0, 1], 2),
    "segment_mean": lambda x: segment_mean(x, [0, 1, 0, 1], 2),
    "segment_max": lambda x: segment_max(x, [0, 1, 0, 1], 2),
    "rows_norm:l1": lambda x: rows_norm(x, 1),
    "rows_norm:l2": lambda x: rows_norm(x, 2),
}


@pytest.mark.parametrize("needs_grad", [False, True])
@pytest.mark.parametrize("name", sorted(RECORDING_OPS))
def test_op_keeps_a_backward_only_when_its_output_needs_a_gradient(monkeypatch, name, needs_grad):
    # every op makes one tape node; constants do not need a gradient, so only
    # x decides whether the node keeps its parents and its backward
    made = []
    make = ad._make
    monkeypatch.setattr(ad, "_make", lambda data, parents: made.append(1) or make(data, parents))
    x = Tensor(np.random.default_rng(5).normal(size=(4, 3)), requires_grad=needs_grad)
    out = RECORDING_OPS[name](x)
    assert len(made) == 1
    assert out.requires_grad is needs_grad
    if needs_grad:
        assert x in out._parents and out._backward is not None
    else:
        assert out._parents == () and out._backward is None


# A pass-through prefix of 7 rows, then groups of 150, 1, 0, 3000 and 200
# rows: the large group sits in the middle, so three threads get three runs.
_POOLED_OFFSETS = [7, 157, 158, 158, 3158, 3358]
_POOLED_CASES = [  # (weight, norm statistics, activation)
    (True, "batch", "relu"), (True, "batch", "tanh"),
    (True, "fixed", "relu"), (True, "fixed", "tanh"),
    (True, None, None),  # the matrix-only form
    (False, "batch", None), (False, "fixed", None),  # the norm-only form
]


def _pooled_transition(weighted, stats, activation):
    """One transition above ``POOL_FLOOR`` and its gradients, as bytes."""
    offsets, d, groups = _POOLED_OFFSETS, 24, len(_POOLED_OFFSETS) - 1
    assert (offsets[-1] - offsets[0]) * d >= ad.POOL_FLOOR
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(offsets[-1], d)), requires_grad=True)
    W = Tensor(rng.normal(size=(groups, d, d)) / np.sqrt(d), requires_grad=True) if weighted else None
    gamma = Tensor(rng.uniform(0.5, 1.5, size=(groups, d)), requires_grad=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, size=(groups, d)), requires_grad=True)
    norm = None
    if stats is not None:
        fixed = None
        if stats == "fixed":
            fixed = (rng.normal(size=(groups, d)), 1.0 / np.sqrt(rng.uniform(0.5, 2.0, (groups, d))))
        norm = (gamma, beta, 1e-5, fixed)
    out, mean, var = group_transition(x, offsets, W, norm, activation)
    backward(sum_all(out * rng.normal(size=out.shape)))
    grads = [t.grad for t in (x, W, gamma, beta) if t is not None and t.grad is not None]
    return [a.tobytes() for a in (out.data, *grads) + ((mean, var) if mean is not None else ())]


def _inline_and_pooled(monkeypatch, run):
    """``run()`` on one CPU, then on three; both results.

    ``_cpus`` is patched to 1 and then to 3, so the pool runs on a host
    with fewer CPUs too. Asserts that the second call used the pool and
    that only the calling thread wrote the tape.
    """
    import threading

    monkeypatch.setattr(ad, "_cpus", lambda: 1)
    inline = run()
    monkeypatch.setattr(ad, "_pool", None)
    monkeypatch.setattr(ad, "_cpus", lambda: 3)
    recorded_on = set()
    record = ad._record
    monkeypatch.setattr(ad, "_record", lambda *args: recorded_on.add(threading.get_ident())
                        or record(*args))
    pooled = run()
    assert ad._pool is not None  # the pooled path ran
    assert recorded_on == {threading.get_ident()}  # the tape is only written by the caller
    ad._pool.shutdown()
    return inline, pooled


@pytest.mark.parametrize("weighted, stats, activation", _POOLED_CASES)
def test_pooled_transition_is_the_inline_one_bitwise(monkeypatch, weighted, stats, activation):
    inline, pooled = _inline_and_pooled(
        monkeypatch, lambda: _pooled_transition(weighted, stats, activation))
    assert len(pooled) == len(inline)
    assert all(a == b for a, b in zip(pooled, inline))


def test_runs_hold_every_group_once_and_balance_rows():
    groups = ad._group_slices(_POOLED_OFFSETS, _POOLED_OFFSETS[-1], len(_POOLED_OFFSETS) - 1)
    assert ad._runs(groups, 3) == [[(3, 158, 3158)], [(4, 3158, 3358)],
                                   [(0, 7, 157), (1, 157, 158)]]
    assert ad._runs([], 3) == [[]]  # a transition of pass-through rows only
    rng = np.random.default_rng(8)
    for offsets in (_POOLED_OFFSETS, [0, 0, 1, 1, 2, 9, 9, 500],
                    np.sort(rng.integers(0, 20_000, 23)), np.cumsum(rng.zipf(1.5, 40) % 5000)):
        groups = ad._group_slices(offsets, offsets[-1], len(offsets) - 1)
        rows = [hi - lo for _, lo, hi in groups]
        for parts in range(1, 8):
            runs = ad._runs(groups, parts)
            assert 1 <= len(runs) <= parts and all(runs)
            assert sorted(g for run in runs for g in run) == groups  # each group in one run
            largest = max(sum(hi - lo for _, lo, hi in run) for run in runs)
            assert largest <= -(-sum(rows) // parts) + max(rows)


def test_small_transition_or_one_thread_runs_inline(monkeypatch):
    monkeypatch.setattr(ad, "_cpus", lambda: 3)
    monkeypatch.setattr(ad, "_pool", None)
    x = Tensor(np.ones((ad.POOL_FLOOR // 4 - 1, 4)))
    group_transition(x, [0, 10, x.shape[0]], np.ones((2, 4, 4)))  # below the floor
    monkeypatch.setattr(ad, "_cpus", lambda: 1)
    group_transition(Tensor(np.ones((ad.POOL_FLOOR, 4))), [0, 10, ad.POOL_FLOOR], np.ones((2, 4, 4)))
    assert ad._pool is None


def _tied_segments(rng, n_segments, d):
    """Rows and segment ids: one-row segments, ties across ranks, signed-zero maxima.

    Segments have 1 to 12 rows, each row drawn from a few values, a third of
    the segments from nonpositive ones only, so that maxima tie and many
    are +0.0 or -0.0; the rows are shuffled, so ties fall across ranks.
    """
    sizes = np.where(np.arange(n_segments) % 4 == 0, 1, rng.integers(2, 13, n_segments))
    seg = rng.permutation(np.repeat(np.arange(n_segments), sizes))
    values = np.where((seg % 3 == 0)[:, None], rng.choice([-1.5, -0.0, 0.0], (len(seg), d)),
                      rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], (len(seg), d)))
    return values, seg


def test_pooled_segment_max_is_the_inline_one_bitwise(monkeypatch):
    rng = np.random.default_rng(21)
    rows, seg = _tied_segments(rng, 3000, 16)
    upstream = rng.choice([-1.0, -0.0, 0.0, 3.0], (3000, 16))
    assert rows.size >= ad.POOL_FLOOR * 3  # above the gate for three threads and 12 ranks

    def run():
        x = Tensor(rows, requires_grad=True)
        out = segment_max(x, seg, 3000)
        backward(sum_all(out * upstream))
        return out.data.tobytes(), x.grad.tobytes()
    inline, pooled = _inline_and_pooled(monkeypatch, run)
    assert pooled == inline


def test_segment_sum_and_mean_add_in_row_order_bitwise(monkeypatch):
    # the sum of each segment is np.add.at's into zeros, and the mean that sum
    # over the row count, on one thread and on three; a third of the segments
    # are signed zeros only, and a sixth of the other rows are -0.0
    rng = np.random.default_rng(24)
    _, seg = _tied_segments(rng, 3000, 16)
    rows = rng.normal(size=(len(seg), 16)) * 10.0 ** rng.integers(-8, 8, size=(len(seg), 1))
    rows[::6] = -0.0
    rows[seg % 3 == 0] = rng.choice([-0.0, 0.0], (np.count_nonzero(seg % 3 == 0), 16))
    assert rows.size >= ad.POOL_FLOOR * 3
    total = np.zeros((3000, 16))
    np.add.at(total, seg, rows)
    mean = total / np.bincount(seg)[:, None]

    def run():
        return segment_sum(rows, seg, 3000).data.tobytes(), segment_mean(rows, seg, 3000).data.tobytes()
    for result in _inline_and_pooled(monkeypatch, run):
        assert result == (total.tobytes(), mean.tobytes())


def test_pooled_repeated_gather_gradient_is_the_inline_one_bitwise(monkeypatch):
    rng = np.random.default_rng(22)
    idx = rng.integers(0, 4000, 20_000)
    upstream = rng.normal(size=(len(idx), 16)) * 10.0 ** rng.integers(-8, 8, size=(len(idx), 1))
    upstream[::3, 1] = -0.0
    assert upstream.size >= ad.POOL_FLOOR * 3

    def run():
        x = Tensor(np.zeros((4000, 16)), requires_grad=True)
        backward(sum_all(gather_rows(x, idx) * upstream))
        return x.grad.tobytes()
    inline, pooled = _inline_and_pooled(monkeypatch, run)
    assert pooled == inline


def test_rank_loops_of_small_ranks_or_inputs_or_one_thread_run_inline(monkeypatch):
    monkeypatch.setattr(ad, "_cpus", lambda: 3)
    monkeypatch.setattr(ad, "_pool", None)
    rng = np.random.default_rng(23)
    # the relations gather of a training minibatch: thousands of ranks of a few rows each
    relations = rng.choice(11, 10_000, p=np.arange(11, 0, -1) / 66)
    upstream = rng.normal(size=(len(relations), 100))
    assert upstream.size >= ad.POOL_FLOOR * 3 and np.bincount(relations).max() > 1000
    x = Tensor(np.zeros((11, 100)), requires_grad=True)
    backward(sum_all(gather_rows(x, relations) * upstream))
    rows, seg = _tied_segments(rng, 300, 16)  # below the floor
    assert rows.size < ad.POOL_FLOOR
    backward(sum_all(segment_max(Tensor(rows, requires_grad=True), seg, 300)))
    monkeypatch.setattr(ad, "_cpus", lambda: 1)
    rows, seg = _tied_segments(rng, 3000, 16)
    backward(sum_all(segment_max(Tensor(rows, requires_grad=True), seg, 3000)))
    backward(sum_all(gather_rows(Tensor(rows, requires_grad=True), seg)))
    assert ad._pool is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_pooled_transition(monkeypatch):
    import signal
    import time
    import warnings

    from graphkbc.nn import ParamStore, adam_step

    def pooled():  # a transition and an Adam step, each above POOL_FLOOR
        store = ParamStore({"table": np.arange(2 * ad.POOL_FLOOR, dtype=float).reshape(-1, 32)})
        store.param("table").grad = np.ones((2 * ad.POOL_FLOOR // 32, 32))
        adam_step(store, 0.01)
        step = [a.tobytes() for a in (store.param("table").data, *store.moments("table"))]
        return _pooled_transition(True, "batch", "relu") + step

    monkeypatch.setattr(ad, "_cpus", lambda: 2)
    monkeypatch.setattr(ad, "_pool", None)
    want = pooled()
    assert ad._pool is not None  # the parent has pool threads; its child has none of them
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if pooled() == want else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung in a pooled transition or Adam step")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    ad._pool.shutdown()
