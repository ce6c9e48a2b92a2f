import contextlib
import io
import random

import pytest

from quagd import consensus
from quagd.consensus import (
    ConsensusNonterminationError,
    init_consensus,
    minmax_window_round,
    run_faqua,
    split_mass,
)
from quagd.graph import (
    Digraph,
    NotStronglyConnectedError,
    diameter,
    find_unreachable_pair,
    generate_random_strongly_connected,
)
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

    def test_traced_flood_is_checked_against_window_extrema(self, monkeypatch):
        real_flood = consensus._flood

        def wrong_max(M, m, closed_in):
            M, m = real_flood(M, m, closed_in)
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

        for name in ("_flood", "split_mass", "MassMessage"):
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
        assert err.value.pair == find_unreachable_pair(g)

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


class TestInlineDraws:
    """The untraced kernel draws targets through getrandbits inline; these
    compare it with Random.choice where the rejection loop is most fragile:
    target lists of a power-of-two length reject half the words, and lists
    longer than 255 need 9-bit words."""

    SIZES = (2, 3, 4, 5, 8, 9, 16, 17, 256, 257, 300)

    @pytest.mark.parametrize("n", SIZES)
    def test_untraced_run_equals_split_mass_run(self, n):
        g = complete(n)
        rnd = random.Random(n)
        x = [rnd.uniform(-50.0, 50.0) for _ in range(n)]
        q = QuantizationLevel("0.25")
        plain = run_faqua(x, g, 1, q, 7)
        drawn_by_choice = run_faqua(x, g, 1, q, 7, tamper=lambda lam, msgs: msgs)
        assert plain == drawn_by_choice

    @pytest.mark.parametrize("n", SIZES)
    def test_init_send_draws_as_random_choice(self, n, monkeypatch):
        # On the tamper path, round 1 splits each node's mass as the init
        # send left it; rebuild that state with Random.choice and compare.
        g = complete(n)
        x = [float(j % 5) for j in range(n)]
        q = QuantizationLevel("1")
        streams = node_streams(11, n, 0)
        ys, zs = [0] * n, [0] * n
        for j, stream in enumerate(node_streams(11, n, 0)):
            dest = stream.choice([j, *g.out_neighbors(j)])
            ys[dest] += 2 * int(x[j])
            zs[dest] += 2
        split_at_round_1 = {}
        real_split = consensus.split_mass

        def record(y, z, rng, self_id, destinations):
            split_at_round_1.setdefault(self_id, (y, z))
            return real_split(y, z, rng, self_id, destinations)

        monkeypatch.setattr(consensus, "split_mass", record)
        with contextlib.suppress(ConsensusNonterminationError):  # unless n = 2
            run_faqua(x, g, 1, q, streams, max_rounds=1, tamper=lambda lam, msgs: msgs)
        assert split_at_round_1 == {j: (ys[j], zs[j]) for j in range(n) if zs[j] >= 2}

    def test_untraced_path_never_calls_random_choice(self, monkeypatch):
        def forbidden(self, seq):
            raise AssertionError("Random.choice called on the untraced path")

        g = generate_random_strongly_connected(12, 0.3, 4)
        monkeypatch.setattr(random.Random, "choice", forbidden)
        x = [float(j) for j in range(12)]
        res = run_faqua(x, g, diameter(g), QuantizationLevel("0.1"), 3)
        assert res.within_accuracy_contract()
