import gc
import io
import random
import re
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest

from consensus_reference import reference_run, split_mass
from quagd import consensus
from quagd.consensus import (
    ConsensusNonterminationError,
    ConsensusResult,
    init_consensus,
    minmax_window_round,
    run_faqua,
)
from quagd.graph import (
    Digraph,
    NotStronglyConnectedError,
    diameter,
    generate_random_strongly_connected,
)
from quagd.harness import reference_instance
from quagd.optimizer import quagd_run
from quagd.quantizer import QuantizationLevel
from quagd.rng import node_streams


def cycle(n):
    return Digraph(n, [((i + 1) % n, i) for i in range(n)])


def complete(n):
    return Digraph(n, [(r, s) for r in range(n) for s in range(n) if r != s])


class TestInit:
    def test_positive_input(self):
        states = init_consensus([3.7, 0.0], cycle(2), QuantizationLevel("1"))
        st = states[0]
        assert (st.y, st.z, st.y_s, st.z_s) == (6, 2, 6, 2)

    def test_zero_input(self):
        states = init_consensus([0.0, 1.0], cycle(2), QuantizationLevel("0.5"))
        st = states[0]
        assert (st.y, st.z, st.y_s, st.z_s) == (0, 2, 0, 2)

    def test_negative_input_floor_oracle(self):
        # 2 * floor(-1.3 / 0.5) = 2 * floor(-2.6) = -6
        states = init_consensus([-1.3, 0.0], cycle(2), QuantizationLevel("0.5"))
        st = states[0]
        assert (st.y, st.z, st.y_s, st.z_s) == (-6, 2, -6, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            init_consensus([1.0], cycle(3), QuantizationLevel("1"))


class TestSplitMass:
    def test_single_destination_collects_everything(self):
        rng = random.Random(0)
        alloc = split_mass(7, 3, rng, self_id=0, destinations=[0])
        assert alloc == {0: (7, 3)}

    def test_piece_multiset_20_over_8(self):
        # 20 = 8*2 + 4: four pieces of 3, four of 2; kept piece is a 2
        for seed in range(50):
            rng = random.Random(seed)
            alloc = split_mass(20, 8, rng, self_id=0, destinations=[0, 1, 2])
            assert sum(cy for cy, _ in alloc.values()) == 20
            assert sum(cz for _, cz in alloc.values()) == 8
            for dest, (cy, cz) in alloc.items():
                # every unit piece is 2 or 3
                assert 2 * cz <= cy <= 3 * cz
            cy, cz = alloc[0]
            # the kept piece has the minimum value, so self holds at least one 2
            assert cy <= 3 * cz - 1

    def test_negative_mass_floor_division(self):
        rng = random.Random(1)
        alloc = split_mass(-6, 2, rng, self_id=0, destinations=[0, 1])
        # floor(-6/2) = -3, remainder 0: two pieces of -3
        assert sum(cy for cy, _ in alloc.values()) == -6
        assert sum(cz for _, cz in alloc.values()) == 2
        for cy, cz in alloc.values():
            assert cy == -3 * cz

    def test_negative_with_remainder(self):
        # y = -7, z = 3: floor(-7/3) = -3, r = -7 - (-9) = 2: pieces [-2, -2, -3]
        seen = set()
        for seed in range(30):
            rng = random.Random(seed)
            alloc = split_mass(-7, 3, rng, self_id=0, destinations=[0, 1])
            assert sum(cy for cy, _ in alloc.values()) == -7
            assert sum(cz for _, cz in alloc.values()) == 3
            for cy, cz in alloc.values():
                assert -3 * cz <= cy <= -2 * cz
            seen.add(tuple(sorted(alloc.items())))
        assert len(seen) > 1  # randomized assignment actually varies

    def test_conservation_randomized(self):
        rnd = random.Random(17)
        for _ in range(200):
            y = rnd.randint(-100, 100)
            z = rnd.randint(2, 40)
            alloc = split_mass(y, z, random.Random(rnd.random()), 0, [0, 1, 2, 3])
            assert sum(cy for cy, _ in alloc.values()) == y
            assert sum(cz for _, cz in alloc.values()) == z

    def test_rejects_small_z(self):
        with pytest.raises(ValueError):
            split_mass(5, 1, random.Random(0), 0, [0])


class TestMinMaxWindow:
    def _states(self, g, ys, zs):
        states = init_consensus([0.0] * g.n, g, QuantizationLevel("1"))
        for st, y, z in zip(states, ys, zs):
            st.y_s, st.z_s = y, z
        return states

    def test_identical_values_stable(self):
        g = cycle(4)
        states = self._states(g, [3, 3, 3, 3], [1, 1, 1, 1])
        for lam in range(1, 4):
            minmax_window_round(states, g, lam, 3)
            assert all(st.M == 3 and st.m == 3 for st in states)

    def test_cycle_min_floods_in_diameter_rounds(self):
        g = cycle(4)
        states = self._states(g, [0, 1, 2, 3], [1, 1, 1, 1])
        for lam in range(1, 4):  # diameter(4-cycle) = 3
            minmax_window_round(states, g, lam, 3)
        assert all(st.m == 0 for st in states)
        assert all(st.M == 3 for st in states)

    def test_reseed_uses_ceiling_and_floor(self):
        g = cycle(2)
        states = self._states(g, [5, 5], [2, 2])
        minmax_window_round(states, g, 1, 5)
        # reseed at window start: ceil(5/2)=3, floor(5/2)=2, then one flood
        assert all(st.M == 3 and st.m == 2 for st in states)

    def test_rejects_bad_round_index(self):
        g = cycle(2)
        states = self._states(g, [0, 0], [1, 1])
        with pytest.raises(ValueError):
            minmax_window_round(states, g, 0, 1)

    @pytest.mark.parametrize("lam, d_bound, message", [
        (1.5, 3, "round index must be an int, got 1.5"),
        (True, 3, "round index must be an int, got True"),
        (1, 2.5, "d_bound must be an int, got 2.5"),
        (1, True, "d_bound must be an int, got True"),
    ], ids=["float-round", "bool-round", "float-d-bound", "bool-d-bound"])
    def test_rejects_a_non_int_round_index_or_window(self, lam, d_bound, message):
        g = cycle(2)
        states = self._states(g, [0, 0], [1, 1])
        with pytest.raises(ValueError, match=re.escape(message)):
            minmax_window_round(states, g, lam, d_bound)
        assert [(st.M, st.m) for st in states] == [(0, 0), (0, 0)]

    @pytest.mark.parametrize("d_bound", [0, -1, -5])
    def test_rejects_window_below_one_round(self, d_bound):
        g = cycle(2)
        states = self._states(g, [0, 0], [1, 1])
        with pytest.raises(ValueError, match=f"d_bound must be >= 1, got {d_bound}"):
            minmax_window_round(states, g, 1, d_bound)


class TestRunFaqua:
    def test_equal_inputs_stop_at_first_window(self):
        g = cycle(5)
        d = diameter(g)
        res = run_faqua([2.7] * 5, g, d, QuantizationLevel("0.5"), 3)
        assert res.rounds_used == d
        assert res.per_node_values == [2.5] * 5
        assert res.within_accuracy_contract()

    def test_two_node_pigeonhole(self):
        g = complete(2)
        for seed in range(40):
            res = run_faqua([0.0, 1.0], g, 1, QuantizationLevel("1"), seed)
            assert res.value == 0.0  # mean of counts is 0.5; floor consensus gives 0
            assert res.within_accuracy_contract()

    def test_four_node_complete_outputs_two(self):
        g = complete(4)
        for seed in range(100):
            res = run_faqua([1.0, 2.0, 3.0, 4.0], g, 1, QuantizationLevel("1"), seed)
            assert res.value == 2.0
            assert len(set(res.per_node_values)) == 1

    def test_accuracy_and_conservation_randomized(self):
        rnd = random.Random(404)
        for _ in range(60):
            n = rnd.randint(2, 8)
            g = generate_random_strongly_connected(n, rnd.random() * 0.6, rnd.randrange(2**32))
            xh = [rnd.uniform(-5, 10) for _ in range(n)]
            q = QuantizationLevel(rnd.choice(["1", "0.25", "0.1"]))
            res = run_faqua(xh, g, diameter(g), q, rnd.randrange(2**32))
            assert res.within_accuracy_contract()
            assert all(a.y_conserved and a.z_conserved for a in res.audits)
            assert len(set(res.per_node_values)) == 1

    def test_accuracy_contract_allows_exactly_n_counts(self):
        # |m*n - quantized_sum| <= n: the output is within delta of the quantized mean
        def result(quantized_sum):  # m = 2 on 4 nodes, so m*n = 8
            return ConsensusResult(2.0, 2, 1, [2.0] * 4, quantized_sum, 4, [])

        assert all(result(s).within_accuracy_contract() for s in (4, 8, 12))
        assert not any(result(s).within_accuracy_contract() for s in (3, 13))

    def test_wrong_number_of_streams_rejected(self):
        streams = node_streams(0, 3, 0)  # one short
        with pytest.raises(ValueError, match="expected 4 rng streams, got 3"):
            run_faqua([1.0] * 4, cycle(4), 4, QuantizationLevel("1"), streams)

    def test_overestimated_diameter_bound_still_correct(self):
        g = cycle(4)
        res = run_faqua([1.0, 2.0, 3.0, 4.0], g, diameter(g) + 3, QuantizationLevel("1"), 11)
        assert res.rounds_used % (diameter(g) + 3) == 0
        assert res.within_accuracy_contract()

    def test_deterministic_trace(self):
        g = generate_random_strongly_connected(6, 0.3, 8)
        xh = [0.3, 5.1, -2.0, 7.7, 4.4, 1.0]
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            streams = node_streams(123, 6, 0)
            run_faqua(xh, g, diameter(g), QuantizationLevel("0.25"), streams, trace=buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_trace_format(self):
        g = complete(3)
        buf = io.StringIO()
        res = run_faqua([1.0, 2.0, 3.0], g, 1, QuantizationLevel("1"), 5, trace=buf)
        lines = buf.getvalue().splitlines()
        assert lines[-1] == f"RESULT\t{res.value!r}\t{res.rounds_used}"
        assert len(lines) == res.rounds_used * 3 + 1
        first = lines[0].split("\t")
        assert len(first) == 8 and first[0] == "1"

    def test_nontermination_error_carries_snapshot(self):
        g = cycle(4)
        with pytest.raises(ConsensusNonterminationError) as err:
            run_faqua([0.0, 0.0, 0.0, 100.0], g, 3, QuantizationLevel("1"), 1, max_rounds=3)
        assert err.value.rounds == 3
        assert len(err.value.states) == 4
        # the message shows a bounded prefix; the snapshot stays complete
        g = cycle(200)
        x = [float(j % 7) for j in range(200)]
        with pytest.raises(ConsensusNonterminationError) as err:
            run_faqua(x, g, diameter(g), QuantizationLevel("1"), 1, max_rounds=2)
        assert len(str(err.value)) < 300
        assert "192 more nodes" in str(err.value)
        assert len(err.value.states) == 200

    @pytest.mark.parametrize("max_rounds", [0, -1, -5])
    def test_rejects_round_budget_below_one(self, max_rounds):
        with pytest.raises(ValueError, match=f"max_rounds must be >= 1, got {max_rounds}"):
            run_faqua([1.0] * 4, cycle(4), 3, QuantizationLevel("1"), 0, max_rounds=max_rounds)

    @pytest.mark.parametrize("bad, message", [
        ({"d_bound": 4.0}, "d_bound must be an int, got 4.0"),
        ({"d_bound": 4.5}, "d_bound must be an int, got 4.5"),
        ({"max_rounds": 10.5}, "max_rounds must be an int or None, got 10.5"),
        ({"rng": 2**64}, f"rng seed must be in [0, 2**64), got {2**64}"),
        ({"rng": -1}, "rng seed must be in [0, 2**64), got -1"),
        ({"rng": 1.5}, "rng must be an int seed or a sequence of streams, got 1.5"),
        ({"rng": None}, "rng must be an int seed or a sequence of streams, got None"),
        ({"d_bound": True}, "d_bound must be an int, got True"),
        ({"max_rounds": True}, "max_rounds must be an int or None, got True"),
        ({"rng": True}, "rng must be an int seed or a sequence of streams, got True"),
        ({"rng": "abcd"}, "rng must be an int seed or a sequence of streams, got 'abcd'"),
        ({"rng": ""}, "rng must be an int seed or a sequence of streams, got ''"),
        ({"rng": b"abcd"}, "rng must be an int seed or a sequence of streams, got b'abcd'"),
        ({"rng": [1, 2, 3, 4]},
         "rng must be an int seed or a sequence of streams, got [1, 2, 3, 4]"),
    ], ids=["float-d-bound", "fractional-d-bound", "fractional-max-rounds",
            "seed-of-2-to-the-64", "negative-seed", "float-seed", "no-seed",
            "bool-d-bound", "bool-max-rounds", "bool-seed", "str-seed", "empty-str-seed",
            "bytes-seed", "ints-as-streams"])
    def test_rejects_a_non_int_bound_or_an_aliasing_seed(self, bad, message):
        # mix64 masks to 64 bits: rng=2**64 would repeat rng=0's run
        args = {"d_bound": 4, "rng": 0, "max_rounds": None, **bad}
        with pytest.raises(ValueError, match=re.escape(message)):
            run_faqua([1.0, 2.0, 3.0, 4.0], cycle(4), args["d_bound"],
                      QuantizationLevel("1"), args["rng"], args["max_rounds"])

    @pytest.mark.parametrize("estimate", [True, "1e400", None],
                             ids=["bool", "str", "none"])
    def test_rejects_an_estimate_that_is_no_number(self, estimate):
        # True would read as 1, and "1e400" as a mass no round budget settles
        g = Digraph(3, [(1, 0), (2, 1), (0, 2)])
        with pytest.raises(ValueError, match="cannot quantize .*: not a number"):
            run_faqua([estimate, 2.0, 3.0], g, 2, QuantizationLevel("0.1"), 0)

    def test_rejects_a_non_finite_decimal_estimate(self):
        g = Digraph(3, [(1, 0), (2, 1), (0, 2)])
        with pytest.raises(ValueError, match="cannot quantize non-finite value"):
            run_faqua([Decimal("Infinity"), 2.0, 3.0], g, 2, QuantizationLevel("0.1"), 0)

    @pytest.mark.parametrize("estimate", [Fraction(10**400), 10**400, Decimal("1e400")],
                             ids=["fraction", "int", "decimal"])
    def test_rejects_an_exact_estimate_beyond_the_float_range(self, estimate):
        # the output is a float, which cannot hold it; refused before round 1
        g = Digraph(3, [(1, 0), (2, 1), (0, 2)])
        with pytest.raises(ValueError, match="node 0's estimate lies beyond the float"):
            run_faqua([estimate, 2.0, 3.0], g, 2, QuantizationLevel("0.1"), 0, max_rounds=1)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_accepts_the_ends_of_the_seed_range(self, seed):
        res = run_faqua([1.0, 2.0, 3.0, 4.0], cycle(4), 4, QuantizationLevel("1"), seed)
        assert res.within_accuracy_contract()

    def test_nontermination_snapshot_is_the_same_traced_or_not(self):
        """M and m are as reseeded at the last window start on every path; a
        trace floods its own copy of them."""
        g, x = cycle(4), [1.0, 2.0, 3.0, 4.0]

        def snapshot(**kw):
            with pytest.raises(ConsensusNonterminationError) as err:
                run_faqua(x, g, 3, QuantizationLevel("1"), 0, max_rounds=2, **kw)
            return err.value.states

        states = snapshot()
        assert [(st.M, st.m) for st in states] == [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert snapshot(trace=io.StringIO()) == states
        assert snapshot(tamper=lambda lam, msgs: msgs) == states

    def test_traced_flood_is_checked_against_window_extrema(self, monkeypatch):
        real_flood = consensus._flood

        def wrong_max(M, m, closed_in, pending):
            M, m = real_flood(M, m, closed_in, pending)
            return [M[0] + 1, *M[1:]], m

        monkeypatch.setattr(consensus, "_flood", wrong_max)
        g = cycle(4)
        x = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(RuntimeError, match="round 3: flood missed extrema") as err:
            run_faqua(x, g, 3, QuantizationLevel("1"), 0, trace=io.StringIO())
        assert type(err.value) is RuntimeError

    def test_untraced_path_neither_floods_nor_builds_messages(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called on the untraced, untampered path")

        for name in ("_flood", "_tamper_observer", "MassMessage", "_Rows"):
            monkeypatch.setattr(consensus, name, forbidden)
        res = run_faqua([1.0, 2.0, 3.0, 4.0], cycle(4), 3, QuantizationLevel("1"), 0)
        assert res.within_accuracy_contract()

    def test_rejects_underestimated_diameter(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            run_faqua([1.0] * 4, g, 2, QuantizationLevel("1"), 0)

    def test_rejects_disconnected_graph(self):
        g = Digraph(3, [(1, 0), (2, 1)])
        with pytest.raises(NotStronglyConnectedError) as err:
            run_faqua([1.0] * 3, g, 2, QuantizationLevel("1"), 0)
        with pytest.raises(NotStronglyConnectedError) as direct:
            diameter(g)
        assert err.value.pair == direct.value.pair == (1, 0)  # diameter's witness

    def test_messages_go_to_out_neighbors(self):
        g = generate_random_strongly_connected(6, 0.3, 5)
        xh = [0.3, 5.1, -2.0, 7.7, 4.4, 1.0]
        hit = set()

        def record(lam, msgs):
            for msg in msgs:
                assert msg.receiver in g.out_neighbors(msg.sender)
                hit.add((msg.sender, msg.receiver))
            return msgs

        for seed in range(30):
            run_faqua(xh, g, diameter(g), QuantizationLevel("0.25"), seed, tamper=record)
        assert hit == {(j, dest) for j in range(g.n) for dest in g.out_neighbors(j)}

    def test_tamper_hook_localizes_conservation_violation(self):
        g = complete(4)

        def corrupt(lam, msgs):
            if lam == 2 and msgs:
                msgs[0].c_y += 5
            return msgs

        res = run_faqua(
            [1.0, 2.0, 3.0, 4.0], g, 1, QuantizationLevel("1"), 2, tamper=corrupt
        )
        assert res.audits[0].y_conserved  # round 1 clean
        assert not res.audits[1].y_conserved  # corruption lands in round 2
        assert all(a.z_conserved for a in res.audits)  # z mass untouched


def _outcome(run):
    """A run's result, or its nontermination error's round budget and
    (y, z, y_s, z_s) snapshot (the reference floods M and m, the untraced
    kernel does not)."""
    try:
        return run()
    except ConsensusNonterminationError as err:
        return err.rounds, [(st.y, st.z, st.y_s, st.z_s) for st in err.states]


class TestInlineDraws:
    """The kernel draws targets through getrandbits inline; these compare it
    with reference_run, which draws by Random.choice, where the rejection
    loop is most fragile: target lists of a power-of-two length reject half
    the words, and lists longer than 255 need 9-bit words."""

    SIZES = (2, 3, 4, 5, 8, 9, 16, 17, 256, 257, 300)

    @pytest.mark.parametrize("n", SIZES)
    def test_untraced_run_equals_split_mass_run(self, n):
        g = complete(n)
        rnd = random.Random(n)
        x = [rnd.uniform(-50.0, 50.0) for _ in range(n)]
        q = QuantizationLevel("0.25")
        plain = run_faqua(x, g, 1, q, 7)
        assert plain == reference_run(x, g, 1, q, 7)
        assert plain == run_faqua(x, g, 1, q, 7, tamper=lambda lam, msgs: msgs)

    @pytest.mark.parametrize("n", SIZES)
    def test_init_send_draws_as_random_choice(self, n):
        # After one round, y_s and z_s hold the masses the init send left
        # at every node that split in round 1.
        g = complete(n)
        x = [float(j % 5) for j in range(n)]
        q = QuantizationLevel("1")
        kernel = _outcome(lambda: run_faqua(x, g, 1, q, 11, max_rounds=1))
        assert kernel == _outcome(lambda: reference_run(x, g, 1, q, 11, max_rounds=1))


    def test_untraced_path_never_calls_random_choice(self, monkeypatch):
        def forbidden(self, seq):
            raise AssertionError("Random.choice called on the untraced path")

        g = generate_random_strongly_connected(12, 0.3, 4)
        monkeypatch.setattr(random.Random, "choice", forbidden)
        x = [float(j) for j in range(12)]
        res = run_faqua(x, g, diameter(g), QuantizationLevel("0.1"), 3)
        assert res.within_accuracy_contract()


class TestTamperOutbox:
    """A tamper hook gets each round's messages rebuilt from the kernel's
    draws: per sender and destination other than the sender, the sum of its
    pieces, in sender and then destination order, as reference_run sends
    them from split_mass's allocations."""

    @pytest.mark.parametrize(
        "make, n", [(cycle, 3), (cycle, 5), (cycle, 12), (complete, 3), (complete, 6),
                    (complete, 17)],
        ids=["ring-3", "ring-5", "ring-12", "complete-3", "complete-6", "complete-17"],
    )
    def test_identity_hook_sees_the_reference_messages(self, make, n):
        g = make(n)
        def recorder(rounds):
            def record(lam, msgs):
                rounds.append([(m.sender, m.receiver, m.c_y, m.c_z) for m in msgs])
                return msgs
            return record

        rnd = random.Random(g.n)
        x = [rnd.uniform(-50.0, 50.0) for _ in range(g.n)]
        q, d = QuantizationLevel("0.1"), diameter(g)
        seen, sent = [], []
        res = run_faqua(x, g, d, q, 3, tamper=recorder(seen))
        assert res == reference_run(x, g, d, q, 3, tamper=recorder(sent))
        assert len(seen) == res.rounds_used
        assert any(len(msgs) > 1 for msgs in seen)
        assert seen == sent


class TestTraceWriter:
    """The trace writer (_Rows) ignores the draws, so the kernel hands it none,
    and it formats integers from one digit cache per stream, which lives as
    long as the stream does."""

    def test_writer_gets_no_split_records(self, monkeypatch):
        real_call, seen = consensus._Rows.__call__, []

        def spy(self, lam, ys, zs, ys_s, zs_s, M, m, splits):
            seen.append(list(splits))
            real_call(self, lam, ys, zs, ys_s, zs_s, M, m, splits)

        monkeypatch.setattr(consensus._Rows, "__call__", spy)
        g, x, q = complete(6), [0.3, 5.1, -2.0, 7.7, 4.4, 1.0], QuantizationLevel("0.25")
        res = run_faqua(x, g, 1, q, 3, trace=io.StringIO())
        assert len(seen) == res.rounds_used > 1 and not any(seen)
        # behind a tamper hook, which reads them, the writer is handed the draws
        seen.clear()
        tampered = run_faqua(x, g, 1, q, 3, trace=io.StringIO(), tamper=lambda lam, msgs: msgs)
        assert tampered == res and len(seen) == res.rounds_used and all(seen)

    def test_two_runs_into_one_stream_write_identical_halves(self):
        cfg, buf = reference_instance(n=8, seed=0, max_outer=3), io.StringIO()
        for _ in range(2):
            quagd_run(cfg, inner_trace=buf)
        text = buf.getvalue()
        half = len(text) // 2
        assert text.count("RESULT") == 6 and text[:half] == text[half:]
        assert buf in consensus._Rows.streams  # both runs' writers shared its cache

    def test_digit_cache_lives_as_long_as_its_stream(self, monkeypatch):
        made = []

        class Digits(consensus._Digits):
            def __init__(self):
                made.append(weakref.ref(self))

        monkeypatch.setattr(consensus, "_Digits", Digits)
        buf = io.StringIO()
        quagd_run(reference_instance(n=8, seed=0, max_outer=3), inner_trace=buf)
        assert any(ref() is not None and len(ref()) > 1 for ref in made)
        del buf
        gc.collect()
        assert made and all(ref() is None for ref in made)

    def test_stream_without_weak_references_writes_the_same_bytes(self):
        class Slotted:
            __slots__ = ("parts",)

            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)

        slotted, buf = Slotted(), io.StringIO()
        with pytest.raises(TypeError):
            weakref.ref(slotted)
        cfg = reference_instance(n=8, seed=0, max_outer=3)
        quagd_run(cfg, inner_trace=slotted)
        quagd_run(cfg, inner_trace=buf)
        assert "".join(slotted.parts) == buf.getvalue() != ""
