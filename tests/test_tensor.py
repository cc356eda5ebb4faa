"""Tensor core: forward values, reverse-mode gradients, tape discipline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spherehead.data import Dataset
from spherehead.errors import DomainError, ShapeError, StateError
from spherehead.heads import EmbeddingQueue
from spherehead import ndcore
from spherehead.ndcore import Tensor, backward, mlp, trace
from spherehead.stereo import EuclideanPoint, SpherePoint, project, project_rows
from .helpers import check_gradients
from .oracles import acos, add, clamp, concat, cos, div, exp, log, matmul, mul, reduce_sum, relu, sqrt, sub, transpose


class TestForwardValues:
    def test_arithmetic_matches_numpy(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0  # keep away from zero for div
        ta, tb = Tensor(a), Tensor(b)
        assert_array_equal(add(ta, tb).data, a + b)
        assert_array_equal(sub(ta, tb).data, a - b)
        assert_array_equal(mul(ta, tb).data, a * b)
        assert_array_equal(div(ta, tb).data, a / b)

    def test_scalar_operands(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert_array_equal(add(t, 1.0).data, [2.0, 3.0, 4.0])
        assert_array_equal(add(1.0, t).data, [2.0, 3.0, 4.0])
        assert_array_equal(mul(2.0, t).data, [2.0, 4.0, 6.0])
        assert_array_equal(sub(t, 1.0).data, [0.0, 1.0, 2.0])
        assert_array_equal(div(6.0, t).data, [6.0, 3.0, 2.0])

    def test_unary_matches_numpy(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.1, 2.0, size=(2, 5))
        t = Tensor(a)
        assert_array_equal(exp(t).data, np.exp(a))
        assert_array_equal(log(t).data, np.log(a))
        assert_array_equal(sqrt(t).data, np.sqrt(a))
        assert_array_equal(cos(t).data, np.cos(a))

    def test_relu_and_clamp(self):
        t = Tensor([-2.0, 0.0, 3.0])
        assert_array_equal(relu(t).data, [0.0, 0.0, 3.0])
        assert_array_equal(clamp(t, -1.0, 1.0).data, [-1.0, 0.0, 1.0])

    def test_acos_endpoints(self):
        t = Tensor([-1.0, 0.0, 1.0])
        assert_allclose(acos(t).data, [np.pi, np.pi / 2.0, 0.0], rtol=0, atol=1e-15)

    def test_matmul_identity_and_dot(self):
        a = np.arange(6.0).reshape(2, 3)
        eye = np.eye(3)
        assert_array_equal(matmul(Tensor(a), Tensor(eye)).data, a)
        u = Tensor([[1.0, 2.0, 3.0]])
        v = Tensor([[4.0], [5.0], [6.0]])
        assert matmul(u, v).data.reshape(()) == 32.0

    def test_reductions(self):
        a = np.array([[1.0, 5.0, 3.0], [2.0, 2.0, 2.0]])
        t = Tensor(a)
        assert reduce_sum(t).item() == 15.0
        assert_array_equal(reduce_sum(t, axis=1).data, [9.0, 6.0])
        assert_array_equal(reduce_sum(t, axis=0, keepdims=True).data, [[3.0, 7.0, 5.0]])
        assert_array_equal(reduce_sum(t, axis=-1, keepdims=True).data, [[9.0], [6.0]])

    def test_concat_both_axes(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0]])
        assert_array_equal(concat([a, b], axis=0).data, [[1.0, 2.0], [3.0, 4.0]])
        assert_array_equal(concat([a, b], axis=1).data, [[1.0, 2.0, 3.0, 4.0]])

    def test_transpose(self):
        a = np.arange(6.0).reshape(2, 3)
        assert_array_equal(transpose(Tensor(a)).data, a.T)

    def test_expand_helpers(self):
        """A [B, 1] column or [1, C] row broadcasts across a [B, C] operand."""
        col, row, ones = Tensor([[2.0], [3.0]]), Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones((2, 3)))
        assert_array_equal(mul(col, ones).data, [[2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
        assert_array_equal(mul(ones, row).data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_float64_contiguous_storage(self):
        t = Tensor(np.arange(4, dtype=np.int32).reshape(2, 2).T)
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]


class TestWorkedGradients:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = reduce_sum(mul(x, x))
        backward(loss)
        assert_array_equal(x.grad, [2.0, 4.0])

    def test_relu_subgradient_zero_at_kink(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        backward(reduce_sum(relu(x)))
        assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_clamp_zero_gradient_at_bounds(self):
        x = Tensor([-1.0, 0.5, 1.0, 7.0], requires_grad=True)
        backward(reduce_sum(clamp(x, -1.0, 1.0)))
        assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])

    def test_matmul_gradients(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0], [4.0]], requires_grad=True)
        backward(reduce_sum(matmul(a, b)))
        assert_array_equal(a.grad, [[3.0, 4.0]])
        assert_array_equal(b.grad, [[1.0], [2.0]])

    def test_scalar_broadcast_gradient_reduces(self):
        s = Tensor(2.0, requires_grad=True)
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        backward(reduce_sum(mul(s, x)))
        assert s.grad.shape == ()
        assert float(s.grad) == 6.0
        assert_array_equal(x.grad, np.full((2, 3), 2.0))

    def test_exp_log_round_trip(self):
        x = Tensor([0.5, 1.0, 2.0], requires_grad=True)
        y = exp(log(x))
        assert_allclose(y.data, x.data, rtol=1e-15)
        backward(reduce_sum(y))
        assert_allclose(x.grad, np.ones(3), rtol=1e-14)

    def test_reused_node_accumulates_both_paths(self):
        x = Tensor(3.0, requires_grad=True)
        y = add(mul(x, x), x)  # dy/dx = 2x + 1 = 7
        backward(y)
        assert float(x.grad) == 7.0

    def test_detach_blocks_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        detached = Tensor(x.data.copy())  # a fresh leaf holding a copy of the values
        backward(reduce_sum(mul(detached, x)))
        assert_array_equal(x.grad, [1.0, 2.0])  # only the live branch contributes


class TestGradientAccounting:
    def test_accumulation_across_backward_calls(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = reduce_sum(mul(x, x))
        backward(loss)
        first = x.grad.copy()
        loss2 = reduce_sum(mul(x, x))
        backward(loss2)
        assert_allclose(x.grad, 2.0 * first, rtol=0, atol=1e-12)

    def test_zero_grad_resets(self):
        x = Tensor([1.0], requires_grad=True)
        backward(reduce_sum(mul(x, x)))
        x.zero_grad()
        assert x.grad is None
        backward(reduce_sum(mul(x, x)))
        assert_array_equal(x.grad, [2.0])

    def test_constant_loss_backward_is_noop(self):
        x = Tensor([1.0, 2.0])
        loss = reduce_sum(mul(x, x))
        assert not loss.requires_grad
        backward(loss)  # must not raise
        assert x.grad is None

    def test_leaf_scalar_gets_unit_gradient(self):
        x = Tensor(5.0, requires_grad=True)
        backward(x)
        assert float(x.grad) == 1.0

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            backward(reduce_sum(mul(relu(matmul(x, w)), 0.5)))
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert_array_equal(gx1, gx2)
        assert_array_equal(gw1, gw2)


class TestGradientSlots:
    """A first contribution lands in ``_grad_slot`` with the bits of adding it to zeros."""

    def test_first_contribution_has_the_bits_of_zero_plus_g(self):
        g = np.array([[-0.0, 0.0, -1.5], [5e-324, -5e-324, np.pi]])
        arena = np.full(7, np.nan)
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t._grad_slot = arena[1:].reshape(2, 3)
        ndcore._accumulate(t, g)
        assert t.grad is t._grad_slot
        assert t.grad.tobytes() == (0.0 + g).tobytes()
        assert not np.signbit(t.grad[0, 0])  # -0.0 became +0.0, as 0.0 + -0.0 does
        assert np.isnan(arena[0])  # nothing outside the slot was written

    def test_matmul_into_a_slot_has_the_bytes_of_the_product(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(96, 64)), rng.normal(size=(96, 40))
        arena = np.empty(1 + 64 * 40)  # the slot sits one float in, as a packed parameter's can
        slot = arena[1:].reshape(64, 40)
        np.matmul(a.T, b, out=slot)
        assert slot.tobytes() == (a.T @ b).tobytes()
        w = Tensor(np.zeros((64, 40)), requires_grad=True)
        w._grad_slot = slot
        ndcore._accumulate_matmul(w, a.T, b)
        assert w.grad is slot and slot.tobytes() == (0.0 + a.T @ b).tobytes()

    def test_later_contributions_add_into_the_slot(self):
        g1, g2 = np.array([1.0, -0.0, 2.0]), np.array([0.5, -0.0, -2.0])
        slotted, plain = Tensor(np.zeros(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        slotted._grad_slot = np.full(3, np.nan)
        for t in (slotted, plain):
            ndcore._accumulate(t, g1)
            ndcore._accumulate(t, g2)
        assert slotted.grad is slotted._grad_slot
        assert slotted.grad.tobytes() == plain.grad.tobytes() == ((0.0 + g1) + g2).tobytes()

    def test_two_backward_calls_through_mlp_accumulate_into_the_slots(self):
        """A packed model's gradients after two backward calls have the bits of an unpacked model's."""
        rng = np.random.default_rng(3)
        shapes = [(5, 7), (1, 7), (7, 3), (1, 3)]
        values = [rng.normal(size=shape) for shape in shapes]
        xs = [Tensor(rng.normal(size=(6, 5))) for _ in range(2)]
        runs = []
        for packed in (False, True):
            params = [Tensor(v.copy(), requires_grad=True) for v in values]
            if packed:
                arena = np.full(sum(v.size for v in values), np.nan)
                start = 0
                for p in params:
                    p._grad_slot = arena[start:start + p.size].reshape(p.shape)
                    start += p.size
            layers = [(params[0], params[1]), (params[2], params[3])]
            for x in xs:
                backward(reduce_sum(mul(mlp(x, layers), mlp(x, layers))))
            if packed:
                assert all(p.grad is p._grad_slot for p in params)
            runs.append([p.grad.tobytes() for p in params])
        assert runs[0] == runs[1]


class TestTape:
    def test_trace_is_topologically_ordered(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 4.0], requires_grad=True)
        loss = reduce_sum(add(mul(x, w), relu(x)))
        tape = trace(loss)
        produced = set()
        for node in tape.nodes:
            for parent in node.inputs:
                if parent.op != "leaf":
                    assert id(parent) in produced, "parent recorded after its consumer"
            produced.add(id(node))
        assert tape.nodes[-1] is loss

    def test_constants_fold_out_of_tape(self):
        x = Tensor([1.0], requires_grad=True)
        c = mul(Tensor([2.0]), Tensor([3.0]))  # pure constant subexpression
        assert c.op == "leaf"
        tape = trace(reduce_sum(mul(x, c)))
        assert [node.op for node in tape.nodes] == ["mul", "sum"]

    def test_shared_subexpression_recorded_once(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        loss = reduce_sum(add(y, y))
        tape = trace(loss)
        assert [node.op for node in tape.nodes].count("mul") == 1


class TestErrors:
    def test_backward_rejects_nonscalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(mul(x, x))

    def test_item_rejects_nonscalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_matmul_shape_checks(self):
        with pytest.raises(ShapeError):
            matmul(Tensor([[1.0]]), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ShapeError):
            matmul(Tensor([1.0]), Tensor([[1.0]]))

    def test_concat_shape_checks(self):
        with pytest.raises(ShapeError):
            concat([])
        with pytest.raises(ShapeError):
            concat([Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0, 3.0]])], axis=0)

    def test_expand_shape_checks(self):
        """Only a [B, 1] or [1, C] operand broadcasts against [B, C], and only within rank 2."""
        for a, b in [((4, 2), (4, 3)), ((1, 3), (4, 1)), ((3,), (4, 3)), ((4, 1), (4,)), ((2, 1), (4, 3))]:
            for x, y in [(a, b), (b, a)]:
                for op in (add, sub, mul, div):
                    with pytest.raises(ShapeError):
                        op(Tensor(np.ones(x)), Tensor(np.ones(y)))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sqrt(Tensor([0.0]))
        with pytest.raises(DomainError):
            acos(Tensor([1.5]))
        with pytest.raises(DomainError):
            div(Tensor([1.0]), Tensor([0.0]))
        with pytest.raises(DomainError):
            clamp(Tensor([1.0]), 2.0, 1.0)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            reduce_sum(Tensor([[1.0]]), axis=2)
        with pytest.raises(ShapeError):
            reduce_sum(Tensor([[1.0]]), axis=-3)


# the five entry points of outside floats, each with the error it raises for a bad [2, 2] value
_ENTRY_POINTS = {
    "Tensor": (Tensor, DomainError),
    "EuclideanPoint": (EuclideanPoint, DomainError),
    "project": (project, DomainError),
    "SpherePoint": (SpherePoint, DomainError),
    "project_rows": (project_rows, DomainError),
    "push_batch embeddings": (lambda X: EmbeddingQueue(4).push_batch(X, [0, 1], np.ones((2, 2))), StateError),
    "push_batch snapshots": (lambda X: EmbeddingQueue(4).push_batch(np.ones((2, 2)), [0, 1], X), StateError),
    "Dataset": (lambda X: Dataset(X, [0, 1], 2, "toy"), ShapeError),
}
_NOT_REAL = {
    "complex array": np.array([[1.0 + 1e-3j, 2.0], [3.0, 4.0]]),
    "complex list": [[1.0 + 1e-3j, 2.0], [3.0, 4.0]],
    "imaginary-free complex": np.ones((2, 2), dtype=np.complex128),
    "object array": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=object),
    "string array": np.array([["1", "2"], ["3", "4"]]),
    "string list": [["1", "2"], ["3", "4"]],
    "bytes array": np.array([[b"1", b"2"], [b"3", b"4"]]),
}


class TestFloat64Gate:
    """One float64 gate: real input converts, anything else is the entry point's typed error."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", _NOT_REAL.values(), ids=_NOT_REAL.keys())
    @pytest.mark.parametrize("entry", _ENTRY_POINTS, ids=_ENTRY_POINTS.keys())
    def test_non_real_input_is_the_typed_error(self, entry, bad):
        call, error = _ENTRY_POINTS[entry]
        with pytest.raises(error, match="real numbers"):
            call(bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("real", [np.array([[0.0, 1.0], [0.5, 0.25]]), [[0, 1], [2, 3]],
                                      np.array([[0, 1], [2, 3]], dtype=np.uint8), np.eye(2, dtype=bool)],
                             ids=["float64", "int list", "uint8", "bool"])
    def test_real_input_is_its_float64_value(self, real):
        want = np.asarray(real).astype(np.float64)
        assert Tensor(real).data.tobytes() == want.tobytes()
        assert Dataset(real, [0, 1], 2, "toy").features.data.tobytes() == want.tobytes()
        assert project_rows(real).tobytes() == project_rows(want).tobytes()
        queue = EmbeddingQueue(4)
        queue.push_batch(real, [0, 1], real)
        assert all(part.tobytes() == want.tobytes() for part in (queue.stacked()[0], queue.stacked()[2]))

    def test_a_float64_array_passes_uncopied(self):
        X = np.array([[0.0, 1.0], [0.5, 0.25]])
        assert Tensor(X).data is X
        assert Dataset(X, [0, 1], 2, "toy").features.data is X


class TestFiniteDifferenceInvariant:
    """Every differentiable primitive agrees with central differences."""

    TRIALS = 10
    SHAPE = (3, 4)

    def _draw(self, rng, lo=-2.0, hi=2.0, avoid_zero=None):
        x = rng.uniform(lo, hi, size=self.SHAPE)
        if avoid_zero is not None:
            # push samples away from a non-smooth point so the FD stencil
            # does not straddle it
            x = np.where(np.abs(x) < avoid_zero, x + np.sign(x + 0.5) * 2.0 * avoid_zero, x)
        return x

    def test_add_sub_mul(self):
        rng = np.random.default_rng(42)
        for _ in range(self.TRIALS):
            a, b = self._draw(rng), self._draw(rng)
            check_gradients(lambda x, y: reduce_sum(add(x, y)), [a, b])
            check_gradients(lambda x, y: reduce_sum(sub(x, y)), [a, b])
            check_gradients(lambda x, y: reduce_sum(mul(x, y)), [a, b])

    def test_div(self):
        rng = np.random.default_rng(43)
        for _ in range(self.TRIALS):
            a = self._draw(rng)
            b = rng.uniform(0.5, 2.0, size=self.SHAPE) * rng.choice([-1.0, 1.0], size=self.SHAPE)
            check_gradients(lambda x, y: reduce_sum(div(x, y)), [a, b])

    def test_exp(self):
        rng = np.random.default_rng(44)
        for _ in range(self.TRIALS):
            a = self._draw(rng)
            check_gradients(lambda x: reduce_sum(exp(x)), [a])

    def test_log_sqrt(self):
        rng = np.random.default_rng(45)
        for _ in range(self.TRIALS):
            a = rng.uniform(0.1, 2.0, size=self.SHAPE)
            check_gradients(lambda x: reduce_sum(log(x)), [a])
            check_gradients(lambda x: reduce_sum(sqrt(x)), [a])

    def test_trig(self):
        rng = np.random.default_rng(46)
        for _ in range(self.TRIALS):
            a = self._draw(rng)
            check_gradients(lambda x: reduce_sum(cos(x)), [a])

    def test_acos_interior(self):
        rng = np.random.default_rng(47)
        for _ in range(self.TRIALS):
            a = rng.uniform(-0.9, 0.9, size=self.SHAPE)
            check_gradients(lambda x: reduce_sum(acos(x)), [a])

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(48)
        for _ in range(self.TRIALS):
            a = self._draw(rng, avoid_zero=1e-3)
            check_gradients(lambda x: reduce_sum(relu(x)), [a])

    def test_clamp_away_from_bounds(self):
        rng = np.random.default_rng(49)
        for _ in range(self.TRIALS):
            a = self._draw(rng, lo=-3.0, hi=3.0)
            a = np.where(np.abs(np.abs(a) - 1.0) < 1e-3, a * 1.5, a)
            check_gradients(lambda x: reduce_sum(clamp(x, -1.0, 1.0)), [a])

    def test_matmul_transpose(self):
        rng = np.random.default_rng(50)
        for _ in range(self.TRIALS):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 2))
            check_gradients(lambda x, y: reduce_sum(matmul(x, y)), [a, b])
            check_gradients(lambda x: reduce_sum(matmul(transpose(x), x)), [a])

    def test_reductions_and_shapes(self):
        rng = np.random.default_rng(51)
        for _ in range(self.TRIALS):
            a = self._draw(rng)
            check_gradients(lambda x: reduce_sum(mul(reduce_sum(x, axis=1), reduce_sum(x, axis=1))), [a])
            check_gradients(lambda x: reduce_sum(mul(reduce_sum(x, axis=0, keepdims=True), 2.0)), [a])
            check_gradients(lambda x: reduce_sum(mul(x, reduce_sum(x, axis=-1, keepdims=True))), [a])

    def test_concat_expand(self):
        rng = np.random.default_rng(53)
        for _ in range(self.TRIALS):
            a = rng.normal(size=(2, 3))
            b = rng.normal(size=(2, 3))
            check_gradients(lambda x, y: reduce_sum(mul(reduce_sum(concat([x, y], axis=1), axis=1), 0.25)), [a, b])
            check_gradients(lambda x, y: reduce_sum(mul(concat([x, y], axis=0), concat([y, x], axis=0))), [a, b])
            col = rng.normal(size=(3, 1))
            check_gradients(lambda c: reduce_sum(mul(c, Tensor(np.full((3, 4), 0.5)))), [col])

    def test_composite_expression(self):
        rng = np.random.default_rng(54)
        for _ in range(self.TRIALS):
            x = rng.normal(size=(3, 4))
            w = rng.normal(size=(4, 2))
            check_gradients(
                lambda a, b: reduce_sum(sqrt(add(relu(matmul(a, b)), 0.1))),
                [x, w],
            )



# each binary op on tensors and its numpy counterpart
BINARY_OPS = {"add": (add, np.add), "sub": (sub, np.subtract), "mul": (mul, np.multiply), "div": (div, np.divide)}


@pytest.mark.parametrize("name", list(BINARY_OPS))
@pytest.mark.parametrize("small", [(3, 1), (1, 4)], ids=["column", "row"])
@pytest.mark.parametrize("small_first", [True, False], ids=["small-left", "small-right"])
class TestBroadcast:
    """A [B, 1] or [1, C] operand against [B, C], on either side of add, sub, mul and div."""

    @staticmethod
    def operands(rng, small, small_first):
        # magnitudes in [0.5, 2] keep every divisor away from zero
        a, b = (rng.uniform(0.5, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape) for shape in (small, (3, 4)))
        return (a, b) if small_first else (b, a)

    def test_forward_matches_numpy(self, name, small, small_first):
        x, y = self.operands(np.random.default_rng(55), small, small_first)
        op, np_op = BINARY_OPS[name]
        out = op(Tensor(x), Tensor(y))
        assert out.shape == (3, 4)
        assert_array_equal(out.data, np_op(x, y))

    def test_gradients_match_finite_differences(self, name, small, small_first):
        rng = np.random.default_rng(56)
        op, _ = BINARY_OPS[name]
        R = Tensor(rng.normal(size=(3, 4)))
        for _ in range(5):
            check_gradients(lambda u, v: reduce_sum(mul(op(u, v), R)), list(self.operands(rng, small, small_first)))
