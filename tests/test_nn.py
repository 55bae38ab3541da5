import json
import tracemalloc

import numpy as np
import pytest

from graphkbc.autodiff import RowSparseGrad, Tensor, densify, gradcheck, sum_all
from graphkbc.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    BN_EPS,
    BatchNorm,
    CheckpointError,
    ParamStore,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    step_size,
)


class TestStepSize:
    def test_epoch_zero(self):
        assert step_size(0) == 0.01

    def test_halved_at_ten_thousand(self):
        assert step_size(10_000) == pytest.approx(0.005)

    def test_strictly_decreasing(self):
        sizes = [step_size(k) for k in range(50)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            step_size(-1)


class TestAdam:
    def test_single_step_magnitude(self):
        # hand-executed recurrence: with fresh moments and g=1 the
        # bias-corrected update is lr * 1 / (1 + eps)
        store = ParamStore()
        p = store.add_param("w", np.array([0.0]))
        p.grad = np.array([1.0])
        adam_step(store, epoch=0)
        expected = -0.01 * 1.0 / (1.0 + ADAM_EPS)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_is_noop_with_fresh_moments(self):
        store = ParamStore()
        p = store.add_param("w", np.array([1.5, -2.5]))
        adam_step(store, epoch=0)  # no grad accumulated at all
        assert np.array_equal(p.data, [1.5, -2.5])

    def test_shape_mismatch_rejected(self):
        store = ParamStore()
        p = store.add_param("w", np.zeros(3))
        p.grad = np.zeros(2)
        with pytest.raises(ValueError):
            adam_step(store, epoch=0)

    def test_two_steps_match_manual_recurrence(self):
        store = ParamStore()
        p = store.add_param("w", np.array([0.2]))
        grads = [0.3, -0.7]
        m = v = 0.0
        w = 0.2
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            w -= 0.01 * mh / (np.sqrt(vh) + ADAM_EPS)
        for g in grads:
            p.grad = np.array([g])
            adam_step(store, epoch=0)
        assert p.data[0] == pytest.approx(w, rel=1e-12)

    def test_blocked_update_is_the_whole_array_formula_bitwise(self):
        # tensors below, at and across the block size, one without a gradient;
        # "table" has rows first named at different steps and row 7, which
        # never is; "full" gets a dense gradient, then row-sparse ones
        rng = np.random.default_rng(4)
        shapes = {"small": (3, 5), "block": (ADAM_BLOCK,), "wide": (7, ADAM_BLOCK // 3 + 11),
                  "idle": (4, 4), "table": (600, 40), "full": (50, 300), "scalar": ()}
        store = ParamStore({name: rng.normal(size=shape) for name, shape in shapes.items()})
        table = store.param("table").data
        table[7, 3] = -0.0
        start = table.copy()
        idle = store.param("idle").data.tobytes()
        reference = {name: [p.data.copy(), np.zeros(p.data.shape), np.zeros(p.data.shape)]
                     for name, p in store.parameters().items()}
        # rows of "table" named at each step (no gradient at step 3); from
        # step 4 on, rows 400-599 form contiguous blocks
        candidates = np.setdiff1d(np.arange(600), [7])
        named = {1: rng.choice(candidates[:300], 60, replace=False),
                 2: rng.choice(candidates, 90, replace=False),
                 4: np.concatenate([rng.choice(candidates[:300], 40, replace=False),
                                    np.arange(400, 600)]),
                 5: rng.choice(candidates, 30, replace=False)}

        def sparse(shape, rows, scale):
            rows = np.sort(rows)
            values = rng.normal(size=(len(rows),) + shape[1:]) * scale
            values[0, 0] = -0.0  # a gradient of -0.0 is +0.0 in the dense form
            return RowSparseGrad(rows, values, shape)

        for t, epoch in enumerate((0, 0, 5, 5, 6), start=1):
            lr = step_size(epoch)
            for name, p in store.parameters().items():
                scale = 10.0 ** (t - 2)
                if name == "idle" or (name == "table" and t == 3):
                    p.grad = None
                elif name == "table":
                    p.grad = sparse(p.data.shape, named[t], scale)
                elif name == "full" and t > 1:
                    p.grad = sparse(p.data.shape, rng.choice(50, 20, replace=False), scale)
                else:
                    p.grad = rng.normal(size=p.data.shape) * scale
                g = densify(p.grad) if p.grad is not None else np.zeros_like(p.data)
                w, m, v = reference[name]
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * (g * g)
                update = m / (1.0 - ADAM_BETA1 ** t)
                denom = np.sqrt(v / (1.0 - ADAM_BETA2 ** t))
                denom += ADAM_EPS
                update /= denom
                update *= lr
                w -= update
            adam_step(store, epoch)
            unnamed = ~np.isin(np.arange(600), np.concatenate([named[k] for k in named if k <= t]))
            assert table[unnamed].tobytes() == start[unnamed].tobytes(), t
            for moment in store._moments["table"]:
                assert not moment[unnamed].view(np.uint64).any(), t  # +0.0, bit for bit
        for name, p in store.parameters().items():
            for got, want in zip((p.data, *store._moments[name]), reference[name]):
                assert got.tobytes() == want.tobytes(), name
        assert np.signbit(table[7, 3])
        assert store.param("idle").data.tobytes() == idle
        assert not any(moment.view(np.uint64).any() for moment in store._moments["idle"])
        assert store._moments["full"][1].all()

    def test_a_moment_other_than_positive_zero_makes_a_row_live(self, tmp_path):
        # row 0 is never named and has +0.0 moments: it keeps its bits, -0.0
        # included; rows 1-2: an update turns a -0.0 first moment into +0.0
        # (and so does a gradient of -0.0, which is +0.0 in the dense form);
        # row 3: a second moment decays under a zero gradient, after a checkpoint.
        # "d" meets a -0.0 first moment with a dense gradient of -0.0, read as +0.0 too
        store = ParamStore({"w": np.ones((4, 2)), "d": np.ones((3, 2))})
        store.param("w").data[0, 1] = -0.0
        store._moments["w"][0][1:3, 0] = -0.0
        store._moments["w"][1][3, 1] = 0.5
        store._moments["d"][0][1] = -0.0
        save_checkpoint(store, tmp_path / "ck")
        loaded, _ = load_checkpoint(tmp_path / "ck")
        row0 = loaded.param("w").data[0].tobytes()
        loaded.param("w").grad = RowSparseGrad(np.array([2]), np.array([[-0.0, 0.0]]), (4, 2))
        loaded.param("d").grad = np.array([[0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0]])
        adam_step(loaded, epoch=0)
        assert not np.signbit(loaded._moments["w"][0]).any()
        assert not np.signbit(loaded._moments["d"][0]).any()
        assert loaded._moments["w"][1][3, 1] == 0.5 * ADAM_BETA2
        assert loaded.param("w").data[0].tobytes() == row0 and np.signbit(loaded.param("w").data[0, 1])
        assert not any(moment[0].view(np.uint64).any() for moment in loaded._moments["w"])

    def test_row_sparse_step_allocates_no_parameter_sized_array(self, monkeypatch):
        # on this host's CPUs, then on four: the op pool's runs share one scratch budget
        from graphkbc import autodiff as ad

        monkeypatch.setattr(ad, "_pool", None)
        for cpus in (ad._cpus(), 4):
            monkeypatch.setattr(ad, "_cpus", lambda: cpus)
            store = ParamStore({"table": np.zeros((20_000, 50))})
            rows = np.arange(0, 20_000, 7)
            values = np.random.default_rng(0).normal(size=(len(rows), 50))
            for _ in range(2):
                store.param("table").grad = RowSparseGrad(rows, values, (20_000, 50))
                tracemalloc.start()
                adam_step(store, epoch=0)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < store.param("table").data.nbytes // 8, (cpus, peak)
            if ad._pool is not None:
                ad._pool.shutdown()
                monkeypatch.setattr(ad, "_pool", None)


    def test_pooled_update_is_the_inline_one_bitwise(self, monkeypatch):
        # "table" gets row-sparse gradients over a different 11,000 of its
        # 12,000 rows at each step, "dense" dense ones: tables over the pool
        # floor, on one CPU and on three; a -0.0 gradient counts as +0.0
        from graphkbc import autodiff as ad

        def run():
            rng = np.random.default_rng(9)
            store = ParamStore({"table": rng.normal(size=(12_000, 48)),
                                "dense": rng.normal(size=(600, 1000))})
            for t in range(3):
                rows = np.sort(rng.choice(12_000, 11_000, replace=False))
                values = rng.normal(size=(len(rows), 48))
                values[::5, 3] = -0.0
                store.param("table").grad = RowSparseGrad(rows, values, (12_000, 48))
                store.param("dense").grad = rng.normal(size=(600, 1000))
                adam_step(store, epoch=t)
            return [a.tobytes() for name, p in store.parameters().items()
                    for a in (p.data, *store.moments(name))]

        monkeypatch.setattr(ad, "_pool", None)
        monkeypatch.setattr(ad, "_cpus", lambda: 1)
        inline = run()
        assert ad._pool is None
        monkeypatch.setattr(ad, "_cpus", lambda: 3)
        pooled = run()
        assert ad._pool is not None  # the pooled path ran
        ad._pool.shutdown()
        assert pooled == inline


def batch_norm(groups, dim):
    store = ParamStore(*BatchNorm.tensors("bn", groups, dim))
    return store, BatchNorm(store, "bn")


def per_group_reference(x, offsets, gamma, beta, eps):
    """Training-mode batch norm of each group on its own, one group at a time."""
    out = np.empty_like(x)
    for g, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        if hi == lo:
            continue
        centered = x[lo:hi] - x[lo:hi].mean(axis=0)
        var = (centered * centered).mean(axis=0)
        out[lo:hi] = centered * (var + eps) ** -0.5 * gamma[g] + beta[g]
    return out


class TestBatchNorm:
    def make(self, dim):
        return batch_norm(1, dim)

    def test_two_point_batch_is_normalized(self):
        store, bn = self.make(1)
        out = bn(Tensor([[2.0], [4.0]]), [0, 2], training=True)
        expected = 1.0 / np.sqrt(1.0 + BN_EPS)  # batch var of {2,4} is 1
        assert out.data[0, 0] == pytest.approx(-expected, rel=1e-12)
        assert out.data[1, 0] == pytest.approx(expected, rel=1e-12)

    def test_constant_batch_maps_to_beta(self):
        store, bn = self.make(2)
        out = bn(Tensor(np.full((3, 2), 5.0)), [0, 3], training=True)
        assert np.allclose(out.data, 0.0)

    def test_gamma_zero_gives_beta(self):
        store, bn = self.make(2)
        bn.gamma.data[:] = 0.0
        bn.beta.data[:] = [1.0, -1.0]
        out = bn(Tensor(np.random.default_rng(0).normal(size=(4, 2))), [0, 4], training=True)
        assert np.allclose(out.data, [[1.0, -1.0]] * 4)

    def test_batch_of_one_gives_beta(self):
        store, bn = self.make(2)
        bn.beta.data[:] = [0.25, -0.5]
        out = bn(Tensor([[3.0, 7.0]]), [0, 1], training=True)
        assert np.allclose(out.data, [[0.25, -0.5]])

    def test_normalized_statistics(self):
        store, bn = self.make(3)
        x = np.random.default_rng(1).normal(2.0, 3.0, size=(64, 3))
        out = bn(Tensor(x), [0, 64], training=True).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=0), 1.0, atol=1e-4)  # eps-induced slack

    def test_inference_uses_initial_running_stats(self):
        store, bn = self.make(2)
        x = np.array([[1.0, -2.0]])
        out = bn(Tensor(x), [0, 1], training=False)
        assert np.allclose(out.data, x / np.sqrt(1.0 + BN_EPS))

    def test_running_stats_ema(self):
        store, bn = self.make(1)
        bn(Tensor([[2.0], [4.0]]), [0, 2], training=True)
        rmean = store.buffer("bn.running_mean")
        rvar = store.buffer("bn.running_var")
        assert rmean[0, 0] == pytest.approx(0.9 * 0.0 + 0.1 * 3.0)
        assert rvar[0, 0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_training_gradients_match_finite_differences(self):
        store, bn = self.make(3)
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, size=(6, 3)), requires_grad=True)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
        bn.beta.data[:] = rng.uniform(-0.5, 0.5, size=3)

        def build():
            out = bn(x, [0, 6], training=True)
            return sum_all(out * out)

        params = {"x": x, "gamma": bn.gamma, "beta": bn.beta}
        assert gradcheck(build, params) == []


class TestStackedBatchNorm:
    # groups of 3, 0, 1 and 4 rows
    offsets = [0, 3, 3, 4, 8]

    def make(self, seed=0):
        store, bn = batch_norm(4, 3)
        rng = np.random.default_rng(seed)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=(4, 3))
        bn.beta.data[:] = rng.uniform(-0.5, 0.5, size=(4, 3))
        x = rng.normal(1.0, 2.0, size=(8, 3))
        return store, bn, x

    def test_each_group_matches_per_group_loop(self):
        store, bn, x = self.make()
        out = bn(Tensor(x), self.offsets, training=True).data
        expected = per_group_reference(x, self.offsets, bn.gamma.data, bn.beta.data, BN_EPS)
        assert np.array_equal(out, expected)

    def test_one_row_group_outputs_its_beta(self):
        store, bn, x = self.make(1)
        out = bn(Tensor(x), self.offsets, training=True).data
        assert np.array_equal(out[3], bn.beta.data[2])

    def test_absent_group_running_stats_unchanged(self):
        store, bn, x = self.make(2)
        rmean, rvar = store.buffer("bn.running_mean"), store.buffer("bn.running_var")
        rmean[:] = np.random.default_rng(3).normal(size=rmean.shape)
        before_mean, before_var = rmean.copy(), rvar.copy()
        bn(Tensor(x), self.offsets, training=True)
        assert np.array_equal(rmean[1], before_mean[1])
        assert np.array_equal(rvar[1], before_var[1])
        for g, (lo, hi) in ((0, (0, 3)), (3, (4, 8))):
            mu = x[lo:hi].mean(axis=0)
            assert np.array_equal(rmean[g], before_mean[g] * 0.9 + (1.0 - 0.9) * mu)

    def test_gradients_match_finite_differences(self):
        store, bn, x0 = self.make(5)
        store.buffer("bn.running_mean")[:] = np.random.default_rng(6).normal(size=(4, 3))
        x = Tensor(x0, requires_grad=True)
        # inference first: training-mode calls move the running statistics
        for training in (False, True):
            def build():
                out = bn(x, self.offsets, training=training)
                return sum_all(out * out)

            assert gradcheck(build, {"x": x, "gamma": bn.gamma, "beta": bn.beta}) == [], training

    def test_inference_uses_each_groups_running_stats(self):
        store, bn, x = self.make(4)
        rmean, rvar = store.buffer("bn.running_mean"), store.buffer("bn.running_var")
        rmean[:] = np.arange(12.0).reshape(4, 3)
        rvar[:] = 1.0 + np.arange(12.0).reshape(4, 3)
        out = bn(Tensor(x), self.offsets, training=False).data
        for g, (lo, hi) in enumerate(zip(self.offsets[:-1], self.offsets[1:])):
            ref = (x[lo:hi] - rmean[g]) / np.sqrt(rvar[g] + BN_EPS) * bn.gamma.data[g] + bn.beta.data[g]
            assert np.allclose(out[lo:hi], ref, rtol=1e-12, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        store = ParamStore()
        rng = np.random.default_rng(2)
        w = store.add_param("w", rng.normal(size=(3, 2)))
        b = store.add_param("b", rng.normal(size=2))
        store.add_buffer("running", np.array([1.0, 2.0, 3.0]))
        w.grad = rng.normal(size=(3, 2))
        b.grad = rng.normal(size=2)
        adam_step(store, epoch=3)

        save_checkpoint(store, tmp_path / "ck", extra={"epoch": 3})
        loaded, extra = load_checkpoint(tmp_path / "ck")
        assert extra == {"epoch": 3}
        assert np.array_equal(loaded.param("w").data, w.data)
        assert np.array_equal(loaded.param("b").data, b.data)
        assert np.array_equal(loaded.buffer("running"), store.buffer("running"))
        assert loaded.adam_t == 1
        for got, want in zip(loaded._moments["w"], store._moments["w"]):
            assert np.array_equal(got, want)
            assert got.base is None and got.flags.writeable  # its own copy
        assert loaded.param("w").data.base is None

    def test_resume_continues_identically(self, tmp_path):
        # "table" rows 0 and 4 are named before the checkpoint, row 2 after it
        # and rows 1, 3 and 5 never: the resumed run must continue exactly as
        # the one kept in memory, and the unnamed rows keep their bits
        sparse = {0: [0, 4], 1: [4], 2: [], 3: [2, 4]}

        def run(store, steps):
            p, table = store.param("w"), store.param("table")
            for k in steps:
                p.grad = np.array([[0.5, -0.25, 0.125, 1.0][k]])
                rows = np.array(sparse[k], dtype=np.intp)
                table.grad = RowSparseGrad(rows, np.full((len(rows), 3), 0.5 - k), (6, 3))
                adam_step(store, epoch=0)
            return [a.tobytes() for name in ("w", "table")
                    for a in (store.param(name).data, *store._moments[name])]

        def fresh():
            return ParamStore({"w": np.array([1.0]), "table": np.arange(18.0).reshape(6, 3)})

        final_a = run(fresh(), range(4))
        store_b = fresh()
        run(store_b, range(2))
        save_checkpoint(store_b, tmp_path / "mid")
        resumed, _ = load_checkpoint(tmp_path / "mid")
        start = fresh().param("table").data

        def kept(unnamed):
            return (resumed.param("table").data[unnamed].tobytes() == start[unnamed].tobytes()
                    and not any(m[unnamed].view(np.uint64).any() for m in resumed._moments["table"]))

        assert kept([1, 2, 3, 5])
        final_b = run(resumed, range(2, 4))
        assert final_a == final_b
        assert kept([1, 3, 5])

    def test_load_without_moments_skips_them_and_cannot_train_or_save(self, tmp_path):
        store = ParamStore({"w": np.arange(6.0).reshape(3, 2), "b": np.ones(2)},
                           {"running": np.array([1.0, 2.0, 3.0])})
        store.param("w").grad = np.full((3, 2), 0.5)
        adam_step(store, epoch=0)
        save_checkpoint(store, tmp_path / "ck", extra={"epoch": 1})
        blob = tmp_path / "ck" / "params.bin"
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        # a NaN in a moment is never read; the same NaN in a parameter is
        at = {(e["name"], e["kind"]): e["offset"] for e in manifest["tensors"]}
        data = bytearray(blob.read_bytes())
        data[at[("w", "adam_v")]:at[("w", "adam_v")] + 8] = np.float64(np.nan).tobytes()
        blob.write_bytes(bytes(data))

        loaded, extra = load_checkpoint(tmp_path / "ck", moments=False)
        assert extra == {"epoch": 1} and loaded.adam_t == 1
        for name in ("w", "b"):
            assert loaded.param(name).data.tobytes() == store.param(name).data.tobytes()
        assert loaded.buffer("running").tobytes() == store.buffer("running").tobytes()
        with pytest.raises(ValueError, match="without its Adam moments"):
            adam_step(loaded, epoch=1)
        assert loaded.adam_t == 1
        with pytest.raises(ValueError, match="without its Adam moments"):
            save_checkpoint(loaded, tmp_path / "again")
        assert not (tmp_path / "again").exists()
        with pytest.raises(CheckpointError, match=r"'w' \(adam_v\) holds a NaN"):
            load_checkpoint(tmp_path / "ck")  # the default load still reads every moment

        data[at[("b", "param")]:at[("b", "param")] + 8] = np.float64(np.inf).tobytes()
        blob.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=r"'b' \(param\) holds a NaN or Inf"):
            load_checkpoint(tmp_path / "ck", moments=False)
        blob.write_bytes(bytes(data[:-8]))
        with pytest.raises(CheckpointError, match="holds .* bytes, its manifest describes"):
            load_checkpoint(tmp_path / "ck", moments=False)

    def test_load_without_moments_still_wants_their_entries(self, tmp_path):
        save_checkpoint(ParamStore({"w": np.zeros((2, 2))}), tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        kept = [e for e in manifest["tensors"] if e["kind"] != "adam_v"]
        manifest["tensors"] = kept
        path.write_text(json.dumps(manifest))
        (tmp_path / "ck" / "params.bin").write_bytes(bytes(8 * 4 * len(kept)))
        with pytest.raises(CheckpointError, match="'w' lacks Adam moments"):
            load_checkpoint(tmp_path / "ck", moments=False)


def test_one_adam_step_count_for_all_parameters():
    store = ParamStore()
    store.add_param("w", np.zeros(2))
    store.add_param("b", np.zeros(1))
    adam_step(store, epoch=0)
    adam_step(store, epoch=0)
    assert store.adam_t == 2


def test_per_tensor_step_counts_are_rejected(tmp_path):
    # the manifest layout written before one store-wide Adam step count
    store = ParamStore()
    store.add_param("A.head.r0.l0", np.eye(2))
    save_checkpoint(store, tmp_path / "old")
    manifest_path = tmp_path / "old" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["adam_steps"] = {"A.head.r0.l0": manifest.pop("adam_step")}
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="'A.head.r0.l0'.*retrain"):
        load_checkpoint(tmp_path / "old")


def test_check_layout_names_the_tensor():
    store = ParamStore()
    store.add_param("w", np.zeros((2, 3)))
    store.check_layout({"w": np.zeros((2, 3))}, {})
    with pytest.raises(CheckpointError, match=r"'w' has shape \(2, 3\).*\(3, 3\)"):
        store.check_layout({"w": np.zeros((3, 3))}, {})
    with pytest.raises(CheckpointError, match="no tensor 'b'"):
        store.check_layout({"w": np.zeros((2, 3)), "b": np.zeros(3)}, {})
    with pytest.raises(CheckpointError, match="'w' is not one of the model's tensors"):
        store.check_layout({}, {})
