import math

import numpy as np
import pytest

import _synth
from libsuggest import decode
from libsuggest.corpus import EOS_ID, N_RESERVED, UNK_ID
from libsuggest.decode import NoSignalError, _beam, beam_search, greedy_decode, recommend
from libsuggest.model import BOS, attention_keys, decoder_step, encode

TOKENS = ["t0", "t3", "t5"]


def replay(tokens, ckpt, ids):
    """The probability of each id of `ids` in turn, teacher-forced over the
    one-sequence `decoder_step`."""
    enc_out, valid_len, s, cell, ctx = _synth.start_one(tokens, ckpt)
    probs, prev = [], BOS
    for step, target in enumerate(ids):
        s, cell, ctx, _, y = decoder_step(prev, ctx, s, cell, enc_out, valid_len, set(ids[:step]), ckpt.params)
        probs.append(float(y.data[target]))
        prev = target
    return probs


def reference_greedy(tokens, ckpt, max_steps):
    """Greedy decoding over the one-sequence `decoder_step`: at each step
    the most likely of EOS and the libraries not yet emitted, ties to the
    lowest id.  Returns (library ids, per-step probabilities with EOS's
    last, completed), where `completed` means EOS came within max_steps."""
    enc_out, valid_len, s, cell, ctx = _synth.start_one(tokens, ckpt)
    ids, probs, prev = [], [], BOS
    for _ in range(max_steps):
        s, cell, ctx, _, y = decoder_step(prev, ctx, s, cell, enc_out, valid_len, set(ids), ckpt.params)
        candidates = [EOS_ID] + [i for i in range(N_RESERVED, ckpt.params.lib_vocab_size) if i not in ids]
        choice = max(candidates, key=lambda i: (y.data[i], -i))
        probs.append(float(y.data[choice]))
        if choice == EOS_ID:
            return ids, probs, True
        ids.append(choice)
        prev = choice
    return ids, probs, False


def reference_beam(tokens, ckpt, beam_width, max_steps):
    """Beam search one hypothesis at a time: every candidate becomes a
    tuple, and one sort by (-score, sequence) picks the next beam."""
    enc_out, valid_len, s_t, cell_t, context_t = _synth.start_one(tokens, ckpt)
    vocab_n = ckpt.params.lib_vocab_size
    # (score, seq, probs, s, cell, context)
    live = [(0.0, (), (), s_t, cell_t, context_t)]
    pool = []
    seed_ids = [ckpt.lib_vocab.id(name) for name in greedy_decode(tokens, ckpt, max_steps)]
    if len(seed_ids) < max_steps:  # greedy completed: its path seeds the pool
        steps = replay(tokens, ckpt, seed_ids + [EOS_ID])
        score = sum(math.log(p) if p > 0.0 else -math.inf for p in steps)
        pool.append((score, tuple(seed_ids), tuple(steps)))
    for _ in range(max_steps):
        candidates = []
        for score, seq, probs, s, cell, ctx in live:
            prev = seq[-1] if seq else BOS
            s_n, cell_n, ctx_n, _, y = decoder_step(
                prev, ctx, s, cell, enc_out, valid_len, set(seq), ckpt.params
            )
            for cand in [EOS_ID] + [i for i in range(N_RESERVED, vocab_n) if i not in seq]:
                p = float(y.data[cand])
                cand_score = score + (math.log(p) if p > 0.0 else -math.inf)
                candidates.append((cand_score, seq + (cand,), probs + (p,), s_n, cell_n, ctx_n))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for cand in candidates[:beam_width]:
            if cand[1][-1] == EOS_ID:
                pool.append((cand[0], cand[1][:-1], cand[2]))
            else:
                live.append(cand)
        if not live:
            break
        if pool and max(p[0] for p in pool) >= max(h[0] for h in live):
            break
    if pool:
        _, seq, probs = min(pool, key=lambda p: (-p[0], p[1]))
    else:
        _, seq, probs = min(live, key=lambda h: (-h[0], h[1]))[:3]
    return list(seq), list(probs)


def tie_checkpoint(seed):
    """Random checkpoint in which libraries 3 and 4, and 5 and 6, are
    interchangeable: same embedding row, same output column.  Swapping
    one for the other in a sequence leaves every score bit for bit equal,
    so only the lexicographic tie-break tells them apart."""
    ckpt = _synth.random_checkpoint(seed)
    p = ckpt.params
    for a, b in ((3, 4), (5, 6)):
        p.emb.data[b] = p.emb.data[a]
        p.out.w_o.data[:, b] = p.out.w_o.data[:, a]
    return ckpt


class TestEmbedSource:
    def test_token_spelled_like_a_reserved_symbol_is_an_unknown_word(self):
        ckpt = _synth.random_checkpoint(0)
        ckpt.word_embed[UNK_ID] = np.arange(1.0, ckpt.config.embed_dim + 1)  # the EOS row stays zero
        enc_out, lengths, _, _ = decode._start([["<eos>", "zzz"]], ckpt)
        assert lengths.tolist() == [2]
        p = ckpt.params
        unknown = encode(ckpt.word_embed[[UNK_ID, UNK_ID]], 2, p.enc_fwd, p.enc_bwd)
        assert np.array_equal(enc_out.data[0], unknown.data)


class TestGreedyDecode:
    def test_max_steps_one_gives_single_library(self):
        ckpt = _synth.random_checkpoint(0)
        out = greedy_decode(TOKENS, ckpt, 1)
        assert len(out) <= 1

    def test_no_duplicates_over_100_seeds(self):
        for seed in range(100):
            ckpt = _synth.random_checkpoint(seed)
            out = greedy_decode(TOKENS, ckpt, 8)
            assert len(set(out)) == len(out)
            assert all(lib.startswith("lib") for lib in out)

    def test_deterministic(self):
        ckpt = _synth.random_checkpoint(7)
        assert greedy_decode(TOKENS, ckpt, 6) == greedy_decode(TOKENS, ckpt, 6)

    def test_max_steps_validated(self):
        with pytest.raises(ValueError):
            greedy_decode(TOKENS, _synth.random_checkpoint(0), 0)

    def test_equals_the_one_sequence_argmax_rollout(self):
        # an oracle that shares no code with `decode`; the tie checkpoints
        # have exact ties, which go to the lowest id
        for ckpt in [_synth.random_checkpoint(seed) for seed in range(100)] + [tie_checkpoint(s) for s in range(20)]:
            for max_steps in (1, 3, 8):
                ids, _, _ = reference_greedy(TOKENS, ckpt, max_steps)
                assert greedy_decode(TOKENS, ckpt, max_steps) == [ckpt.lib_vocab.token(i) for i in ids]


class TestBeamSearch:
    def test_width_one_equals_greedy_100_models(self):
        for seed in range(100):
            ckpt = _synth.random_checkpoint(seed)
            assert beam_search(TOKENS, ckpt, 1, 6) == greedy_decode(TOKENS, ckpt, 6)

    def test_saturating_width_matches_exhaustive_enumeration(self):
        for seed in range(20):
            ckpt = _synth.random_checkpoint(seed)
            ids, probs = _beam([TOKENS], ckpt, 200, 3)[0]
            _, oracle_seq = _synth.exhaustive_best(ckpt, TOKENS, 3)
            assert tuple(ids) == oracle_seq

    def test_score_at_least_greedy_when_all_paths_complete(self):
        # max_steps above the library count forces EOS termination, making
        # scores comparable across widths
        for seed in range(60):
            ckpt = _synth.random_checkpoint(seed)
            _, greedy_probs = _beam([TOKENS], ckpt, 1, 6)[0]
            greedy_score = sum(math.log(p) for p in greedy_probs)
            for width in (2, 3, 5):
                _, probs = _beam([TOKENS], ckpt, width, 6)[0]
                score = sum(math.log(p) for p in probs)
                assert score >= greedy_score - 1e-12

    def test_score_never_exceeds_saturating_width(self):
        for seed in range(60):
            ckpt = _synth.random_checkpoint(seed)
            _, sat_probs = _beam([TOKENS], ckpt, 200, 6)[0]
            sat_score = sum(math.log(p) for p in sat_probs)
            for width in (1, 2, 3, 5):
                _, probs = _beam([TOKENS], ckpt, width, 6)[0]
                score = sum(math.log(p) for p in probs)
                assert score <= sat_score + 1e-12

    def test_no_duplicates_or_reserved_tokens(self):
        for seed in range(50):
            ckpt = _synth.random_checkpoint(seed)
            out = beam_search(TOKENS, ckpt, 3, 6)
            assert len(set(out)) == len(out)
            assert all(lib.startswith("lib") for lib in out)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            beam_search(TOKENS, _synth.random_checkpoint(0), 0, 3)


class TestBatchedBeamMatchesReference:
    """The batched beam must give the reference beam's ids and, bit for
    bit, its probabilities."""

    WIDTHS = (1, 2, 3, 5, 10)

    def check(self, ckpt, tokens, max_steps):
        for width in self.WIDTHS:
            assert _beam([tokens], ckpt, width, max_steps)[0] == reference_beam(tokens, ckpt, width, max_steps), (
                width,
                max_steps,
            )

    def test_100_small_checkpoints(self):
        # 5 libraries: at the wider widths every candidate is in the beam
        for seed in range(100):
            ckpt = _synth.random_checkpoint(seed)
            for max_steps in (3, 6):
                self.check(ckpt, TOKENS, max_steps)

    def test_checkpoints_wider_than_the_beam(self):
        # 40 libraries: the beam keeps a few of hundreds of candidates
        for seed in range(40):
            ckpt = _synth.random_checkpoint(seed, n_libs=40)
            for max_steps in (3, 6):
                self.check(ckpt, ["t1", "t2"], max_steps)

    def test_interchangeable_libraries_break_ties_by_sequence(self):
        for seed in range(20):
            ckpt = tie_checkpoint(seed)
            for max_steps in (3, 6):
                self.check(ckpt, TOKENS, max_steps)
            ids, _ = _beam([TOKENS], ckpt, 200, 3)[0]
            assert tuple(ids) == _synth.exhaustive_best(ckpt, TOKENS, 3)[1]
            for first, twin in ((3, 4), (5, 6)):
                if twin in ids:
                    assert first in ids[: ids.index(twin)]

    def test_all_ids_equally_likely(self):
        # a zero readout makes every unmasked id equally likely at every
        # step, so the answer is decided by the tie-break alone
        for seed in range(10):
            ckpt = _synth.random_checkpoint(seed)
            ckpt.params.out.w_o.data[:] = 0.0
            for width in (1, 3, 200):
                ids, probs = _beam([TOKENS], ckpt, width, 3)[0]
                assert tuple(ids) == _synth.exhaustive_best(ckpt, TOKENS, 3)[1]
                assert (ids, probs) == reference_beam(TOKENS, ckpt, width, 3)
            assert beam_search(TOKENS, ckpt, 1, 6) == greedy_decode(TOKENS, ckpt, 6)


class TestManyQueries:
    """A list of token lists decodes in one beam search, each step one
    `decoder_step` over the rows of every query; a query's answer and its
    probabilities must not depend on which queries share its steps."""

    SOURCES = [
        ["t0", "t3", "t5"],
        ["t1"],
        ["t2", "t4", "t0", "t1", "t3", "t5", "t2", "t4", "t0"],  # past max_src
        ["t5", "t5"],
        ["t1", "t2", "t9"],  # an unknown word
        ["t4", "t0", "t3", "t2", "t1"],
    ]

    @pytest.mark.parametrize("width", [1, 3, 10])
    def test_batched_beam_equals_per_query_beam(self, width):
        rng = np.random.default_rng(width)
        for seed in range(12):
            ckpt = _synth.random_checkpoint(seed, n_libs=40 if seed % 2 else 5)
            alone = [_beam([tokens], ckpt, width, 6)[0] for tokens in self.SOURCES]
            assert _beam(self.SOURCES, ckpt, width, 6) == alone
            order = rng.permutation(len(self.SOURCES))
            assert _beam([self.SOURCES[i] for i in order], ckpt, width, 6) == [alone[i] for i in order]
            cut = int(rng.integers(1, len(self.SOURCES)))
            parts = _beam(self.SOURCES[:cut], ckpt, width, 6) + _beam(self.SOURCES[cut:], ckpt, width, 6)
            assert parts == alone
            names = [[ckpt.lib_vocab.token(i) for i in ids] for ids, _ in alone]
            assert beam_search(self.SOURCES, ckpt, width, 6) == names
            if seed < 3:
                assert alone == [reference_beam(tokens, ckpt, width, 6) for tokens in self.SOURCES]

    def test_the_group_starts_as_one_batch(self, monkeypatch):
        # the start of the first step: each query's two rows (its beam and
        # its greedy seed) hold the one-sequence start, bit for bit, over
        # encoder outputs and keys zero-padded past its length
        calls = []
        monkeypatch.setattr(decode, "decoder_step", lambda *a, **kw: calls.append((a, kw)) or decoder_step(*a, **kw))
        for seed in range(4):
            ckpt = _synth.random_checkpoint(seed, n_libs=40 if seed % 2 else 5)
            calls.clear()
            _beam(self.SOURCES, ckpt, 3, 6)
            (prev, context, s, cell, enc, lengths, masked, _), kw = calls[0]
            assert (prev == BOS).all() and not masked.any()
            for i, tokens in enumerate(self.SOURCES):
                enc_out, n, s0, cell0, context0 = _synth.start_one(tokens, ckpt)
                keys = attention_keys(enc_out, ckpt.params.attn)
                for row in (2 * i, 2 * i + 1):
                    assert lengths[row] == n
                    for got, want in ((s, s0), (cell, cell0), (context, context0)):
                        assert np.array_equal(got.data[row], want.data)
                    assert np.array_equal(enc.data[row, :n], enc_out.data)
                    assert np.array_equal(kw["keys"].data[row, :n], keys.data)
                    assert not enc.data[row, n:].any() and not kw["keys"].data[row, n:].any()

    def test_sources_of_different_lengths_give_the_reference_answers(self):
        # one source runs past max_src; the tie checkpoints have exact ties
        for seed in range(6):
            for ckpt in (_synth.random_checkpoint(seed, n_libs=40 if seed % 2 else 5), tie_checkpoint(seed)):
                for width in (2, 3):
                    want = [reference_beam(tokens, ckpt, width, 6) for tokens in self.SOURCES]
                    assert _beam(self.SOURCES, ckpt, width, 6) == want, (seed, width)

    def test_one_encode_per_group_gives_the_rows_of_one_source_encodes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(decode, "encode", lambda *a: calls.append(encode(*a)) or calls[-1])
        for seed in range(3):
            ckpt = _synth.random_checkpoint(seed)
            calls.clear()
            _beam(self.SOURCES, ckpt, 3, 6)
            [group] = calls
            for i, tokens in enumerate(self.SOURCES):
                alone, n, *_ = _synth.start_one(tokens, ckpt)
                assert np.array_equal(group.data[i, :n], alone.data) and not group.data[i, n:].any()

    def test_late_seed_completion_stops_the_beam_where_pooling_it_first_would(self):
        """The greedy seed completes at step 5, with the score of the best
        live hypothesis of step 0, so a search that pools it before the beam
        starts (`reference_beam`) stops at step 0.

        Found by a scan of `_synth.random_checkpoint` at widths 2, 3 and
        5, max_steps 6 and 12 and two token lists.  Seeds 0-149 with 5, 12
        and 40 libraries never reach this path, not even with the readout
        `w_o` scaled by 3, 10 or 30.  Scaled by 1e3 or 1e4, greedy's
        probabilities round to exactly 1.0, so its completion ties the live
        score of a step before it: over seeds 0-19 the first hits were seed
        11 at 1e3 (step 3 back to 2) and seed 5 at 1e4, pinned here, which
        reaches back furthest.
        """
        ckpt = _synth.random_checkpoint(5)
        ckpt.params.out.w_o.data *= 1e4
        seed_ids, seed_probs, completed = reference_greedy(TOKENS, ckpt, 6)
        assert completed and len(seed_ids) == 5
        seed_score = sum(math.log(p) for p in seed_probs)
        enc_out, valid_len, s0, c0, ctx0 = _synth.start_one(TOKENS, ckpt)
        *_, y0 = decoder_step(BOS, ctx0, s0, c0, enc_out, valid_len, set(), ckpt.params)
        # the best live score of step 0, when width >= 2
        assert seed_score >= math.log(y0.data[N_RESERVED:].max())
        for width in (2, 3, 5):
            for max_steps in (6, 12):
                assert _beam([TOKENS], ckpt, width, max_steps)[0] == reference_beam(TOKENS, ckpt, width, max_steps)

    def test_seed_completion_stops_the_beam_at_its_own_step(self, monkeypatch):
        # unscaled: greedy completes at step 10 with a score above the best
        # live one of that step (width 2), so the search ends there, after
        # 11 steps; pooled only after the step's check, it would run a 12th.
        # The only such case in a scan of seeds 0-99 with 5, 8, 12 and 40
        # libraries that counted the steps of both
        ckpt = _synth.random_checkpoint(59, n_libs=40)
        assert _beam([TOKENS], ckpt, 2, 12)[0] == reference_beam(TOKENS, ckpt, 2, 12)
        calls = []
        monkeypatch.setattr(decode, "decoder_step", lambda *a, **kw: calls.append(None) or decoder_step(*a, **kw))
        _beam([TOKENS], ckpt, 2, 12)
        assert len(calls) == 11


def near_tie(seed, draws=50_000):
    """Probabilities (p_b, p_a) a few ulps apart where math.log ranks b at
    least as high as a but np.log puts b below a, from a seeded search over
    uniform draws; None when np.log and math.log agree on every draw."""
    p = np.random.default_rng(seed).uniform(0.01, 1.0, size=draws)
    for p_b in p[np.log(p) != [math.log(x) for x in p]]:
        for k in range(-4, 5):
            p_a = p_b + k * np.spacing(p_b)
            if math.log(p_b) >= math.log(p_a) and np.log(p_b) < np.log(p_a):
                return float(p_b), float(p_a)
    return None


class TestSelect:
    def test_candidate_an_ulp_below_the_approximate_kth_is_scored_exactly(self):
        # query 0's one row holds library 3 at p_b and library 4 at p_a: by
        # math.log, 3 scores at least as high and wins a tie by its smaller
        # id, yet by np.log it falls an ulp below the width-th best, 4; only
        # the margin keeps it for the exact rescoring.  Query 1's two rows
        # make the blocks unequal
        pair = near_tie(20)
        if pair is None:
            pytest.skip("np.log and math.log agree on every draw: no input tells a missing margin")
        p_b, p_a = pair
        y = np.full((3, 7), 1e-6)
        y[0, 3], y[0, 4] = p_b, p_a
        y[1:, 3:] = [[0.1, 0.3, 0.2, 0.4], [0.25, 0.05, 0.5, 0.2]]
        masked = np.zeros(y.shape, dtype=bool)
        masked[1, 5] = True
        live = [(0.0, (), ()), (-1.5, (5,), (0.2,)), (-0.5, (6,), (0.6,))]
        chosen = decode._select(y, masked, [0, 1, 2], live, [1, 2], 1)
        assert chosen[0] == [((math.log(p_b), (3,), (p_b,)), 0)]
        candidates = [
            ((score + math.log(y[row, j]), seq + (j,), probs + (y[row, j],)), row)
            for row, (score, seq, probs) in zip((1, 2), live[1:])
            for j in range(EOS_ID, 7)
            if not masked[row, j]
        ]
        assert chosen[1] == [min(candidates, key=lambda c: (-c[0][0], c[0][1]))]

    def test_one_hit_rule_keeps_every_open_candidate_of_a_block_of_at_most_width_scores(self):
        # ids: PAD, UNK, EOS, libraries 3-5.  Query 0's one row holds 6
        # scores, no more than the width, so its width-th best is -inf: every
        # open candidate is kept, library 3 of probability 0 (score -inf)
        # too, but not the masked library 4, PAD or UNK, whose probabilities
        # are positive.  Query 1's three rows hold 9 open candidates, so its
        # width-th best is finite and 3 of them fall out
        y = np.array([
            [0.1, 0.1, 0.3, 0.0, 0.2, 0.3],
            [0.05, 0.05, 0.2, 0.4, 0.25, 0.05],
            [0.05, 0.05, 0.1, 0.3, 0.35, 0.15],
            [0.05, 0.05, 0.45, 0.1, 0.1, 0.25],
        ])
        masked = np.zeros(y.shape, dtype=bool)
        masked[[0, 1, 2, 3], [4, 5, 3, 4]] = True
        live = [(-0.7, (4,), (0.5,)), (-0.9, (5,), (0.4,)), (-1.2, (3,), (0.3,)), (-1.6, (4,), (0.2,))]
        chosen = decode._select(y, masked, [0, 1, 2, 3], live, [1, 3], 6)

        def sorted_candidates(rows):
            return sorted(
                (
                    ((score + (math.log(y[r, j]) if y[r, j] > 0 else -math.inf), seq + (j,), probs + (y[r, j],)), r)
                    for r in rows
                    for score, seq, probs in [live[r]]
                    for j in range(EOS_ID, 6)
                    if not masked[r, j]
                ),
                key=lambda c: (-c[0][0], c[0][1]),
            )

        assert chosen[0] == sorted_candidates([0])
        assert [c[0][1] for c in chosen[0]] == [(4, 2), (4, 5), (4, 3)]
        assert chosen[0][-1] == ((-math.inf, (4, 3), (0.5, 0.0)), 0)
        assert len(sorted_candidates([1, 2, 3])) == 9
        assert chosen[1] == sorted_candidates([1, 2, 3])[:6]


@pytest.fixture(scope="module")
def trained():
    # cheap memorized model over the small synthetic corpus
    import io
    from contextlib import redirect_stdout

    from libsuggest.trainer import train

    data = _synth.prepared_dataset(n_projects=10, n_libs=8, cfg=_synth.overfit_config(1))
    cfg = _synth.overfit_config(max_epochs=60)
    with redirect_stdout(io.StringIO()):
        return train(data, cfg, _synth.make_embedding_table(n_projects=10, n_libs=8)), data


class TestRecommend:
    def test_k_larger_than_decoded_length_flagged(self, trained):
        ckpt, _ = trained
        result = recommend("w000 w001 the", ckpt, k=50)
        assert result.requested_k == 50
        assert result.truncated == (len(result.items) < 50)
        assert len(result.items) <= 50

    def test_no_duplicates_and_probabilities(self, trained):
        ckpt, _ = trained
        result = recommend("w003 w004 w006", ckpt, k=5)
        libs = [lib for lib, _ in result.items]
        assert len(set(libs)) == len(libs)
        assert all(0.0 < p <= 1.0 for _, p in result.items)

    def test_stopword_only_description_is_no_signal(self, trained):
        ckpt, _ = trained
        with pytest.raises(NoSignalError):
            recommend("the for the", ckpt, k=3)

    def test_repeated_invocation_identical(self, trained):
        ckpt, _ = trained
        a = recommend("w000 w001 w003", ckpt, k=4)
        b = recommend("w000 w001 w003", ckpt, k=4)
        assert a == b

    def test_memorized_projects_reproduce_their_head_libraries(self, trained):
        ckpt, data = trained
        hits = 0
        for ex in data.examples:
            tokens = [data.word_vocab.token(i) for i in ex.source.ids[: ex.source.length]]
            truth_head = {data.lib_vocab.token(i) for i in ex.target.ids[: min(3, ex.target.length - 1)]}
            result = recommend(" ".join(tokens), ckpt, k=3)
            got = {lib for lib, _ in result.items}
            if truth_head & got:
                hits += 1
        assert hits >= 9  # 10-project corpus, allow one borderline miss

    def test_k_validated(self, trained):
        ckpt, _ = trained
        with pytest.raises(ValueError):
            recommend("w000", ckpt, k=0)
