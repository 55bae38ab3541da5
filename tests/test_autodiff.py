import numpy as np
import pytest

from graphkbc import autodiff as ad
from graphkbc.autodiff import (
    GradientError,
    Tensor,
    affine_rows,
    backward,
    concat_rows,
    gather_rows,
    gradcheck,
    mean0,
    relu,
    rows_norm,
    segment_max,
    segment_mean,
    segment_sum,
    sum_all,
    tanh,
)


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
        y = affine_rows(x, Tensor(np.eye(3)))
        assert np.array_equal(y.data, x.data)

    def test_affine_zero(self):
        x = Tensor(np.ones((2, 3)))
        y = affine_rows(x, Tensor(np.zeros((3, 3))))
        assert np.array_equal(y.data, np.zeros((2, 3)))

    def test_affine_matches_naive_matvec(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 3))
        x = rng.normal(size=(4, 3))
        y = affine_rows(Tensor(x), Tensor(A))
        assert np.allclose(y.data, naive_matvec(A, x), rtol=1e-12, atol=1e-12)

    def test_affine_shape_mismatch(self):
        with pytest.raises(ValueError):
            affine_rows(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 4))))

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
        A = Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, size=(5, 4)), requires_grad=True)

        def build():
            return sum_all(rows_norm(relu(affine_rows(x, A)), 2))

        assert gradcheck(build, {"A": A, "x": x}) == []

    def test_gradcheck_catches_wrong_gradient(self):
        x = Tensor(np.array([[0.7, -0.3]]), requires_grad=True)

        def build():
            # tanh masquerading as relu would have a different slope
            return sum_all(tanh(x))

        loss = build()
        backward(loss)
        x.grad *= -1.0  # corrupt analytic gradient
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
