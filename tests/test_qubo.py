"""Core instance type, evaluation, bound and the text format."""

import pickle

import numpy as np
import pytest

from conftest import brute_force_max, make_business_generators, random_instance
from qrobust import (
    ParseError,
    QuboInstance,
    ScenarioGenerators,
    evaluate,
    format_instance,
    parse_instance,
    positive_sum_bound,
)
from qrobust.pipeline import scenario_instances
from qrobust.qubo import _objectives, _sequential_sum, _stack, _terms, _tie_tolerance


def loop_evaluate(instance, bits):
    """The dict loop ``evaluate`` used before instances stored arrays."""
    total = 0.0
    for (i, j), v in instance.coefficients.items():
        if i == j:
            total += v * bits[i]
        else:
            total += 2.0 * v * bits[i] * bits[j]
    return total


def loop_positive_sum_bound(instance):
    """The dict loop ``positive_sum_bound`` used before instances stored arrays."""
    total = 0.0
    for (i, j), v in instance.coefficients.items():
        if v > 0.0:
            total += v if i == j else 2.0 * v
    return total


def loop_to_dense(instance):
    """The dict loop ``to_dense`` used before instances stored arrays."""
    q = np.zeros((instance.n, instance.n))
    for (i, j), v in instance.coefficients.items():
        q[i, j] = v
        q[j, i] = v
    return q


def shuffled_float_instance(rng, n):
    """Random float coefficients, some negative and some zero, inserted in shuffled order."""
    iu, ju = np.triu_indices(n)
    keep = rng.random(iu.size) < 0.6
    values = rng.normal(size=iu.size) * 10.0 ** rng.integers(-3, 4, size=iu.size)
    values[rng.random(iu.size) < 0.1] = 0.0
    keys = [(int(i), int(j)) for i, j in zip(iu[keep], ju[keep])]
    order = rng.permutation(len(keys))
    return QuboInstance(n, {keys[t]: float(values[keep][t]) for t in order})


class TestArraysMatchTheDictLoops:
    def test_bit_for_bit_on_random_float_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 14))
            inst = shuffled_float_instance(rng, n)
            assert positive_sum_bound(inst) == loop_positive_sum_bound(inst)
            assert np.array_equal(inst.to_dense(), loop_to_dense(inst))
            for _ in range(8):
                bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
                got, want = evaluate(inst, bits), loop_evaluate(inst, bits)
                assert got == want and np.signbit(got) == np.signbit(want)

    def test_a_negative_coefficient_at_zero_bits_gives_positive_zero(self):
        inst = QuboInstance(2, {(0, 1): -3.0, (1, 1): -1.0})
        assert str(evaluate(inst, (0, 0))) == str(loop_evaluate(inst, (0, 0))) == "0.0"


def same_bits(a, b) -> bool:
    """Equal as stored floats, the sign of a zero included."""
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


def dropping_mates(rng, n: int, k: int, drop: float) -> list[QuboInstance]:
    """k float instances on one read-only support, each dropping its own positions.

    A dropped position gets a zero of either sign.  A mate that drops none
    keeps the shared support array; the others get their own.
    """
    iu, ju = np.triu_indices(n)
    keep = rng.random(iu.size) < 0.7
    rows, cols = iu[keep], ju[keep]
    for a in (rows, cols):
        a.setflags(write=False)
    values = rng.uniform(-10.0, 10.0, size=(k, rows.size))
    values *= 10.0 ** rng.integers(-3, 4, size=rows.size)
    zero = rng.random(values.shape) < drop
    values[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return [QuboInstance(n, (rows, cols, v)) for v in values]


class TestStack:
    def test_rows_are_the_lone_terms_on_the_union_support(self):
        rng = np.random.default_rng(30)
        for trial in range(60):
            n, k = int(rng.integers(1, 10)), int(rng.integers(1, 6))
            batch = dropping_mates(rng, n, k, 0.0 if trial % 4 == 0 else 0.3)
            rows, cols, terms = _stack(batch)
            keys = rows * n + cols
            union = {i * n + j for inst in batch for (i, j), _v in inst.entries()}
            assert keys.tolist() == sorted(union)
            for s, inst in enumerate(batch):
                loop = [v if i == j else 2.0 * v for (i, j), v in inst.entries()]
                assert _terms(inst).tolist() == loop
                at = np.searchsorted(keys, inst.rows * n + inst.cols)
                assert terms[s, at].tolist() == loop
                assert np.count_nonzero(terms[s]) == inst.nnz

    def test_a_shared_support_is_stacked_as_it_is(self):
        batch = dropping_mates(np.random.default_rng(31), 6, 4, 0.0)
        rows, cols, _ = _stack(batch)
        assert rows is batch[0].rows and cols is batch[0].cols

    def test_stacked_sums_match_the_lone_ones_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for trial in range(80):
            n, k = int(rng.integers(1, 12)), int(rng.integers(1, 7))
            batch = dropping_mates(rng, n, k, 0.0 if trial % 4 == 0 else 0.3)
            stack = _stack(batch)
            x = rng.integers(0, 2, size=(k, n)).astype(float)
            values = _objectives(stack, x)
            tolerances = _tie_tolerance(stack.terms)
            bounds = _sequential_sum(np.maximum(stack.terms, 0.0))
            for s, inst in enumerate(batch):
                bits = x[s].astype(int).tolist()
                assert same_bits(values[s], evaluate(inst, bits))
                assert same_bits(values[s], loop_evaluate(inst, bits))
                assert same_bits(tolerances[s], _tie_tolerance(_terms(inst)))
                assert same_bits(bounds[s], positive_sum_bound(inst))
                assert same_bits(bounds[s], loop_positive_sum_bound(inst))

    def test_a_zero_term_changes_no_sum(self):
        # np.sum pairs terms up, so an inserted zero can shift the pairing
        # and change the last bits of a pairwise sum of 40 terms
        rng = np.random.default_rng(33)
        for _ in range(200):
            t = rng.uniform(-1.0, 1.0, size=40)
            at = int(rng.integers(0, t.size + 1))
            for zero in (0.0, -0.0):
                padded = np.insert(t, at, zero)
                assert same_bits(_sequential_sum(padded), _sequential_sum(t))
                assert same_bits(_tie_tolerance(padded), _tie_tolerance(t))

    def test_every_shape_sums_as_accumulate_does(self):
        # several columns reduce a contiguous copy row by row; one column
        # (k = 1, which NumPy may flatten into a pairwise sum) and a 1-D sum
        # keep np.add.accumulate.  Each gives the accumulate form's bits
        rng = np.random.default_rng(34)

        def accumulated(t, axis=-1):
            t = np.moveaxis(t, axis, 0)
            return 0.0 + (np.add.accumulate(t)[-1] if len(t) else np.zeros(t.shape[1:]))

        for trial in range(300):
            k, u = (1 if trial % 3 == 0 else int(rng.integers(2, 12))), int(rng.integers(0, 90))
            t = rng.normal(size=(k, u)) * 10.0 ** rng.integers(-6, 7, size=(k, u))
            t[rng.random((k, u)) < 0.2] = 0.0
            t[rng.random((k, u)) < 0.2] = -0.0
            if trial % 10 == 0:
                t[:] = -0.0
            assert same_bits(_sequential_sum(t), accumulated(t))
            assert same_bits(_sequential_sum(t.T, axis=0), accumulated(t.T, 0))
            for row in t:
                assert same_bits(_sequential_sum(row), accumulated(row))
                loop = 0.0
                for v in row:
                    loop += v
                assert same_bits(_sequential_sum(row), loop)

    def test_one_assignment_scores_every_row_as_its_own_would(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            n, k = int(rng.integers(1, 10)), int(rng.integers(1, 6))
            stack = _stack(dropping_mates(rng, n, k, 0.3))
            x = rng.integers(0, 2, size=n).astype(float)
            assert same_bits(_objectives(stack, x), _objectives(stack, np.tile(x, (k, 1))))

    def test_signed_zeros_sum_to_positive_zero(self):
        assert same_bits(_sequential_sum(np.array([-0.0, -0.0])), 0.0)
        assert same_bits(_sequential_sum(np.zeros(0)), 0.0)
        columns = _sequential_sum(np.array([[-0.0, 1.0], [-0.0, -0.0]]), axis=0)
        assert same_bits(columns, [0.0, 1.0])


class TestQuboInstance:
    def test_zero_values_dropped(self):
        inst = QuboInstance(3, {(0, 0): 1.0, (1, 2): 0.0})
        assert inst.nnz == 1
        assert inst.coefficients == {(0, 0): 1.0}

    def test_rejects_lower_triangle_key(self):
        with pytest.raises(ValueError):
            QuboInstance(3, {(2, 1): 1.0})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            QuboInstance(2, {(0, 2): 1.0})

    def test_dense_roundtrip(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 6, 0.7)
        again = QuboInstance.from_dense(inst.to_dense())
        assert again.coefficients == inst.coefficients

    def test_coefficients_kept_in_index_order(self):
        inst = QuboInstance(3, {(2, 2): 3.0, (0, 1): 1.0, (0, 0): 2.0})
        assert list(inst.coefficients) == [(0, 0), (0, 1), (2, 2)]

    def test_insertion_order_does_not_change_the_value(self):
        # 0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1
        diag = [((0, 0), 0.1), ((1, 1), 0.2), ((2, 2), 0.3)]
        forward = QuboInstance(3, dict(diag))
        reverse = QuboInstance(3, dict(reversed(diag)))
        assert evaluate(forward, (1, 1, 1)) == evaluate(reverse, (1, 1, 1))

    def test_mapping_and_array_forms_agree(self):
        mapping = QuboInstance(3, {(2, 2): 3.0, (0, 1): -1.5, (0, 0): 2.0, (1, 2): 0.0})
        arrays = QuboInstance(3, ([2, 0, 0, 1], [2, 1, 0, 2], [3.0, -1.5, 2.0, 0.0]))
        assert mapping == arrays
        assert arrays.coefficients == {(0, 0): 2.0, (0, 1): -1.5, (2, 2): 3.0}
        assert arrays.rows.tolist() == [0, 0, 2] and arrays.cols.tolist() == [0, 1, 2]

    def test_array_form_rejects_repeats_and_ragged_input(self):
        with pytest.raises(ValueError, match="repeated"):
            QuboInstance(2, ([0, 0], [1, 1], [1.0, 2.0]))
        with pytest.raises(ValueError):
            QuboInstance(2, ([0, 1], [1], [1.0, 2.0]))
        with pytest.raises(ValueError):
            QuboInstance(2, ([0], [1]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            QuboInstance(2, {(0, 0): 1.0, (0, 1): bad})
        with pytest.raises(ValueError):
            QuboInstance(2, ([0], [1], [bad]))

    def test_stored_form_is_read_only(self, demo5):
        with pytest.raises(TypeError):
            demo5.coefficients[(0, 0)] = 1.0
        with pytest.raises(TypeError):
            del demo5.coefficients[(0, 0)]
        with pytest.raises(ValueError):
            demo5.vals[0] = 1.0
        with pytest.raises(AttributeError):
            demo5.n = 4

    def test_caller_arrays_stay_writable(self):
        rows, cols, vals = np.array([0]), np.array([1]), np.array([2.0])
        QuboInstance(2, (rows, cols, vals))
        vals[0] = 3.0
        assert vals.flags.writeable

    def test_a_read_only_sorted_support_is_shared(self):
        rows, cols = np.array([0, 0, 1], dtype=np.int64), np.array([0, 1, 1], dtype=np.int64)
        rows.setflags(write=False)
        cols.setflags(write=False)
        a = QuboInstance(2, (rows, cols, [1.0, 2.0, 3.0]))
        b = QuboInstance(2, (rows, cols, [4.0, 5.0, 6.0]))
        assert a.rows is rows and b.rows is rows and b.cols is cols
        assert pickle.loads(pickle.dumps([a, b])) == [a, b]

    def test_a_writable_support_is_copied_not_frozen(self):
        rows, cols = np.array([0, 0, 1], dtype=np.int64), np.array([0, 1, 1], dtype=np.int64)
        inst = QuboInstance(2, (rows, cols, [1.0, 2.0, 3.0]))
        assert inst.rows is not rows and not inst.rows.flags.writeable
        assert rows.flags.writeable and cols.flags.writeable
        rows[0] = 1
        assert inst.rows.tolist() == [0, 0, 1]

    def test_a_view_of_a_writable_support_is_copied(self):
        base = np.array([0, 0, 1], dtype=np.int64)
        rows = base.view()
        rows.setflags(write=False)
        cols = np.array([0, 1, 1], dtype=np.int64)
        cols.setflags(write=False)
        inst = QuboInstance(2, (rows, cols, [1.0, 2.0, 3.0]))
        assert inst.rows is not rows and inst.cols is cols
        base[0] = 1
        assert inst.rows.tolist() == [0, 0, 1]

    def test_a_zero_value_is_dropped_from_a_shared_support(self):
        rows, cols = np.array([0, 0, 1], dtype=np.int64), np.array([0, 1, 1], dtype=np.int64)
        rows.setflags(write=False)
        cols.setflags(write=False)
        inst = QuboInstance(2, (rows, cols, [1.0, 0.0, 3.0]))
        assert inst.rows is not rows
        assert inst.entries() == [((0, 0), 1.0), ((1, 1), 3.0)]

    @pytest.mark.parametrize("size", ["small", "large"])
    def test_unpickled_scenarios_share_one_support(self, size):
        # no entry is zero at either level, so every scenario has the whole
        # support; protocol 4 unpickles a large array as a view on bytes
        if size == "small":
            gen = make_business_generators()
            gen = ScenarioGenerators(gen.n, {key: v for key, v in gen.entries.items() if 0.0 not in v})
        else:
            entries = {(i, j): (1.0, 1.0) for i in range(40) for j in range(i, 40)}
            entries.update({(i, i): (1.0, 2.0) for i in range(3)})
            gen = ScenarioGenerators(40, entries)
        scenarios = scenario_instances(gen)[3]
        assert len(scenarios) > 1 and len({id(inst.rows) for inst in scenarios}) == 1
        for protocol in (4, 5):
            again = pickle.loads(pickle.dumps(scenarios, protocol=protocol))
            assert again == scenarios
            assert len({id(inst.rows) for inst in again}) == 1
            assert len({id(inst.cols) for inst in again}) == 1

    def test_an_unpickled_view_of_a_caller_buffer_is_copied(self):
        rows, cols = np.array([0, 0, 1], dtype=np.int64), np.array([0, 1, 1], dtype=np.int64)
        rows.setflags(write=False)
        cols.setflags(write=False)
        pair = [QuboInstance(2, (rows, cols, vals)) for vals in ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])]
        buffers = []
        data = pickle.dumps(pair, protocol=5, buffer_callback=buffers.append)
        caller = [bytearray(buf.raw()) for buf in buffers]
        again = pickle.loads(data, buffers=caller)
        assert again == pair and again[0].rows is not again[1].rows
        for buf in caller:
            buf[:] = bytes(len(buf))
        assert again == pair

    def test_pickle_round_trip(self, demo5):
        again = pickle.loads(pickle.dumps(demo5))
        assert again == demo5 and again.name == "demo5"
        assert again.coefficients == demo5.coefficients
        assert not again.vals.flags.writeable

    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuboInstance.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestEvaluate:
    def test_demo5_optimum_point(self, demo5):
        assert evaluate(demo5, (0, 1, 0, 1, 1)) == 288.0

    def test_all_zero_is_zero(self, demo5):
        assert evaluate(demo5, (0,) * 5) == 0.0

    def test_two_variable_expansion(self):
        inst = QuboInstance(2, {(0, 0): 1, (1, 1): 2, (0, 1): -3})
        assert evaluate(inst, (1, 1)) == -3.0

    def test_coefficients_that_could_overflow_are_refused(self):
        # doubled, 1e308 is inf, and inf times a zero bit would make the
        # all-zero assignment score NaN instead of 0.0
        huge = {(0, 0): 1e308, (1, 1): 1e308, (0, 1): 1e308}
        with pytest.raises(ValueError, match="overflow"):
            QuboInstance(2, huge)
        inst = QuboInstance(2, {key: 2e307 for key in huge})
        assert evaluate(inst, (0, 0)) == 0.0
        assert evaluate(inst, (1, 1)) == 8e307
        # each level alone passes, but a scenario may take the larger of both
        with pytest.raises(ValueError, match="overflow"):
            ScenarioGenerators(2, {(0, 0): (8e307, 1.0), (1, 1): (1.0, 8e307)})

    def test_dimension_mismatch(self, demo5):
        with pytest.raises(ValueError):
            evaluate(demo5, (0, 1))

    def test_non_binary_entry(self, demo5):
        with pytest.raises(ValueError):
            evaluate(demo5, (0, 1, 2, 0, 0))

    def test_matches_dense_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_instance(rng, 8, 0.6)
            q = inst.to_dense()
            x = rng.integers(0, 2, size=8)
            assert evaluate(inst, tuple(int(b) for b in x)) == float(x @ q @ x)

    def test_invariant_under_consistent_permutation(self):
        rng = np.random.default_rng(12)
        inst = random_instance(rng, 7, 0.8)
        perm = rng.permutation(7)
        mapped = {}
        for (i, j), v in inst.coefficients.items():
            a, b = int(perm[i]), int(perm[j])
            mapped[(min(a, b), max(a, b))] = v
        shuffled = QuboInstance(7, mapped)
        x = tuple(int(b) for b in rng.integers(0, 2, size=7))
        y = [0] * 7
        for i in range(7):
            y[perm[i]] = x[i]
        assert evaluate(inst, x) == evaluate(shuffled, tuple(y))


class TestPositiveSumBound:
    def test_demo5(self, demo5):
        assert positive_sum_bound(demo5) == 550.0

    def test_all_negative_is_zero(self):
        inst = QuboInstance(3, {(0, 0): -1, (1, 2): -4, (2, 2): -2})
        assert positive_sum_bound(inst) == 0.0

    def test_two_variable(self):
        inst = QuboInstance(2, {(0, 0): 1, (1, 1): 2, (0, 1): -3})
        assert positive_sum_bound(inst) == 3.0

    def test_dominates_every_assignment(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            inst = random_instance(rng, n, float(rng.choice([0.2, 0.6, 1.0])))
            assert positive_sum_bound(inst) >= brute_force_max(inst)


class TestParse:
    def test_basic(self):
        inst = parse_instance("2 3\n1 1 1\n2 2 2\n1 2 -3\n")
        assert inst.n == 2
        assert inst.coefficients == {(0, 0): 1.0, (1, 1): 2.0, (0, 1): -3.0}

    def test_single_variable(self):
        inst = parse_instance("1 1\n1 1 5\n")
        assert inst.n == 1
        assert inst.coefficients == {(0, 0): 5.0}

    def test_index_out_of_range_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_instance("2 1\n1 3 4\n")
        assert err.value.line == 2

    def test_swapped_indices_normalized(self):
        inst = parse_instance("3 1\n3 1 7\n")
        assert inst.coefficients == {(0, 2): 7.0}

    def test_comments_and_blanks_ignored(self):
        inst = parse_instance("# header\n\n2 1\n# entry\n1 2 4\n\n")
        assert inst.coefficients == {(0, 1): 4.0}

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("2 2\n1 2 4\n2 1 5\n")

    def test_agreeing_duplicate_accepted(self):
        inst = parse_instance("2 2\n1 2 4\n2 1 4\n")
        assert inst.coefficients == {(0, 1): 4.0}

    @pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, word):
        with pytest.raises(ParseError) as err:
            parse_instance(f"2 2\n1 1 1\n1 2 {word}\n")
        assert err.value.line == 3

    def test_missing_entries_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("2 2\n1 2 4\n")

    def test_zero_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("0 0\n")

    def test_roundtrip(self, demo5):
        again = parse_instance(format_instance(demo5))
        assert again.n == demo5.n
        assert again.coefficients == demo5.coefficients

    def test_roundtrip_float_values(self):
        inst = QuboInstance(3, {(0, 1): 1.05, (2, 2): -0.3333333333333333})
        again = parse_instance(format_instance(inst))
        assert again.coefficients == inst.coefficients
