import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr import synthetic
from robustdr.corpus import load_corpus, load_qrels, load_queries
from robustdr.synthetic import (
    _token_draws,
    make_imbalanced_source,
    make_two_domain_benchmark,
    write_task_dir,
)
from tests.oracles import make_task_reference, token_draws_reference


def task_fields(bundle):
    """Everything a task holds: its name, documents, queries and judgments, in order."""
    qrels = bundle.qrels
    return (bundle.name, list(bundle.corpus), list(bundle.queries),
            [(qid, list(qrels.judged(qid).items())) for qid in qrels.query_ids])


class TestTwoDomainBenchmark:
    def test_sizes_meet_floors(self):
        source, target = make_two_domain_benchmark(seed=0)
        assert len(source.corpus) + len(target.corpus) >= 2000
        assert len(source.queries) >= 200
        assert len(target.queries) >= 100

    def test_topical_vocabularies_disjoint_function_words_shared(self):
        source, target = make_two_domain_benchmark(
            seed=0, n_source_topics=3, n_target_topics=3, docs_per_topic=3
        )
        src_tokens = {t for d in source.corpus for t in d.tokens}
        tgt_tokens = {t for d in target.corpus for t in d.tokens}
        shared = src_tokens & tgt_tokens
        assert shared  # function words overlap
        assert all(t.startswith("fw") for t in shared)

    def test_every_query_has_positives(self):
        source, _ = make_two_domain_benchmark(
            seed=1, n_source_topics=2, n_target_topics=2, docs_per_topic=2
        )
        for qid in source.queries.ids:
            assert source.qrels.positives(qid)

    def test_deterministic(self):
        a, _ = make_two_domain_benchmark(seed=5, n_source_topics=2, n_target_topics=2)
        b, _ = make_two_domain_benchmark(seed=5, n_source_topics=2, n_target_topics=2)
        assert a.corpus.ids == b.corpus.ids
        assert [q.text for q in a.queries] == [q.text for q in b.queries]
        assert task_fields(a) == task_fields(b)


class TestImbalancedSource:
    def test_group_mass_ratio(self):
        _, groups = make_imbalanced_source(seed=0)
        rare = sum(1 for g in groups.values() if g == "rare")
        frac = rare / len(groups)
        assert 0.13 <= frac <= 0.17

    def test_query_tokens_disjoint_from_doc_topic_words(self):
        task, groups = make_imbalanced_source(
            seed=0, n_major_topics=2, n_rare_topics=1, docs_per_topic=3,
            major_queries_per_topic=3, rare_queries_per_topic=3,
        )
        doc_tokens = {t for d in task.corpus for t in d.tokens if not t.startswith("fw")}
        for query in task.queries:
            topical = [t for t in query.tokens if "qry" in t]
            assert topical, "queries carry their own vocabulary"
            assert not set(topical) & doc_tokens


class TestWriteTaskDir:
    def test_roundtrips_through_loaders(self, tmp_path):
        task, _ = make_imbalanced_source(
            seed=2, n_major_topics=2, n_rare_topics=1, docs_per_topic=2,
            major_queries_per_topic=2, rare_queries_per_topic=2,
        )
        write_task_dir(task, tmp_path)
        corpus = load_corpus(tmp_path / "corpus.jsonl")
        queries = load_queries(tmp_path / "queries.jsonl")
        qrels = load_qrels(tmp_path / "qrels.tsv")
        assert corpus.ids == task.corpus.ids
        assert queries.ids == task.queries.ids
        assert len(qrels) == len(task.qrels)
        qrels.validate_against(queries, corpus)


# bounds on either side of every draw kind: one (no draw), small, and 32-bit
# bounds that reject a quarter (3 * 2**30) and nearly half (2**31 + 1) of draws
BOUNDS = [1, 2, 3, 40, 50, 3 * 2**30, 2**31 + 1, 2**32]


@st.composite
def token_cases(draw):
    """(length, fw_rate, n_fw, n_vocab, seed, warm-up draws) for `_token_draws`;
    an odd number of warm-up draws leaves the generator holding a 32-bit half."""
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from([257, 3001])))
    return (n, draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])), draw(st.sampled_from(BOUNDS)),
            draw(st.sampled_from(BOUNDS)), draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 3)))


def seeded(seed, warm_up):
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(warm_up):
        rng.integers(7)
    return rng


def twin_of(rng):
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


class TestTokenDraws:
    """`_token_draws`, one batch per task, against two scalar draws per token: the
    same picks and the same generator state after."""

    @staticmethod
    def assert_same_draws(rng, n, fw_rate, n_fw, n_vocab):
        twin = twin_of(rng)
        got = _token_draws(rng, n, fw_rate, n_fw, n_vocab)
        want = token_draws_reference(twin, n, fw_rate, n_fw, n_vocab)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    @given(token_cases())
    def test_matches_scalar_draws(self, case):
        n, fw_rate, n_fw, n_vocab, seed, warm_up = case
        self.assert_same_draws(seeded(seed, warm_up), n, fw_rate, n_fw, n_vocab)

    @pytest.mark.parametrize("warm_up", [0, 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 5001])
    def test_lengths_from_either_half(self, n, warm_up):
        rng = seeded(11, warm_up)
        assert rng.bit_generator.state["has_uint32"] == warm_up
        self.assert_same_draws(rng, n, 0.3, 50, 40)

    @pytest.mark.parametrize("warm_up", [0, 1])
    @pytest.mark.parametrize("n_fw,n_vocab", [(3 * 2**30, 40), (40, 3 * 2**30),
                                              (2**31 + 1, 2**31 + 1)])
    def test_rejection_heavy_bounds(self, n_fw, n_vocab, warm_up):
        self.assert_same_draws(seeded(12, warm_up), 2001, 0.5, n_fw, n_vocab)

    @pytest.mark.parametrize("warm_up", [0, 1])
    @pytest.mark.parametrize("n_fw,n_vocab", [(1, 40), (50, 1), (1, 1)])
    def test_bounds_of_one_draw_nothing(self, n_fw, n_vocab, warm_up):
        self.assert_same_draws(seeded(13, warm_up), 1001, 0.3, n_fw, n_vocab)

    @pytest.mark.parametrize("fw_rate", [0.0, 1.0])
    def test_all_or_no_function_words(self, fw_rate):
        rng = seeded(14, 1)
        twin = twin_of(rng)
        is_fw, _ = _token_draws(rng, 999, fw_rate, 50, 40)
        assert (is_fw == (fw_rate == 1.0)).all()
        self.assert_same_draws(twin, 999, fw_rate, 50, 40)

    @pytest.mark.parametrize("warm_up", [0, 1])
    @pytest.mark.parametrize("n_fw,n_vocab", [(50, 0), (0, 40)])
    def test_zero_bound_raises_at_the_same_token(self, n_fw, n_vocab, warm_up):
        rng = seeded(15, warm_up)
        twin = twin_of(rng)
        with pytest.raises(ValueError) as got:
            _token_draws(rng, 500, 0.3, n_fw, n_vocab)
        with pytest.raises(ValueError) as want:
            token_draws_reference(twin, 500, 0.3, n_fw, n_vocab)
        assert str(got.value) == str(want.value)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("fw_rate,n_fw,n_vocab", [(0.0, 0, 40), (1.0, 50, 0)])
    def test_zero_bound_never_drawn(self, fw_rate, n_fw, n_vocab):
        self.assert_same_draws(seeded(16, 1), 300, fw_rate, n_fw, n_vocab)


def generated(make, make_task, **sizes):
    """``make(**sizes)`` with ``make_task`` as `synthetic._make_task`, and the
    state its generator is left in."""
    rngs = []
    bind = inspect.signature(synthetic._make_task).bind

    def recording(*args, **kwargs):
        rngs.append(bind(*args, **kwargs).arguments["rng"])
        return make_task(*args, **kwargs)

    with mock.patch.object(synthetic, "_make_task", recording):
        out = make(**sizes)
    assert all(rng is rngs[0] for rng in rngs)
    return out, rngs[0].bit_generator.state


def assert_generators_match(make, **sizes):
    """The generator with the batched `_make_task` against the loop reference:
    the same tasks, field for field, group map and generator end state."""
    (got, got_state), (want, want_state) = (generated(make, make_task, **sizes)
                                            for make_task in (synthetic._make_task,
                                                              make_task_reference))
    if make is make_imbalanced_source:
        got, got_groups = got
        want, want_groups = want
        assert list(got_groups.items()) == list(want_groups.items())
        got, want = [got], [want]
    assert [task_fields(t) for t in got] == [task_fields(t) for t in want]
    assert got_state == want_state


class TestLoopReference:
    """Both generators, batched, equal the per-token loop they replaced."""

    @pytest.mark.parametrize("make,seed", [(make_two_domain_benchmark, 1000),
                                           (make_two_domain_benchmark, 2000),
                                           (make_imbalanced_source, 1000),
                                           (make_imbalanced_source, 2000)])
    def test_default_sizes(self, make, seed):
        assert_generators_match(make, seed=seed)

    @pytest.mark.parametrize("seed", range(50))
    def test_two_domain_small_sizes(self, seed):
        assert_generators_match(
            make_two_domain_benchmark, seed=seed, n_source_topics=1 + seed % 4,
            n_target_topics=1 + seed % 3, docs_per_topic=1 + seed % 5,
            source_queries_per_topic=1 + seed % 2, target_queries_per_topic=1,
        )

    @pytest.mark.parametrize("seed", range(50))
    def test_imbalanced_small_sizes(self, seed):
        assert_generators_match(
            make_imbalanced_source, seed=seed, n_major_topics=1 + seed % 4,
            n_rare_topics=1 + seed % 3, docs_per_topic=1 + seed % 5,
            major_queries_per_topic=1 + seed % 3, rare_queries_per_topic=1 + seed % 2,
        )
