"""Unit tests for config presets, RNG helpers, and the bench harness."""

import pytest

from repro.bench import SweepTable, format_factor, format_seconds
from repro.config import (
    EngineConfig,
    balanced_cluster_spec,
    laptop_cluster_spec,
    paper_cluster_spec,
)
from repro.datagen.rng import (
    WORDS,
    add_days,
    date_range_days,
    iso_days,
    make_below,
    make_rng,
    random_phrase,
    zipf_sampler,
)


class TestConfig:
    def test_balanced_spec_hits_scan_target(self):
        total_bytes = 800 * 1024 * 1024
        spec = balanced_cluster_spec(total_bytes, num_nodes=8,
                                     scan_seconds=0.5)
        bytes_per_node = total_bytes / 8
        assert (bytes_per_node / spec.node.disk.seq_bandwidth
                == pytest.approx(0.5))

    def test_balanced_spec_keeps_random_io_model(self):
        paper = paper_cluster_spec()
        balanced = balanced_cluster_spec(10 ** 9)
        assert (balanced.node.disk.random_service_time
                == paper.node.disk.random_service_time)
        assert balanced.node.disk.spindles == paper.node.disk.spindles
        assert balanced.node.cores == paper.node.cores

    def test_balanced_spec_tiny_dataset_safe(self):
        spec = balanced_cluster_spec(0, num_nodes=4)
        assert spec.node.disk.seq_bandwidth > 0

    def test_engine_config_defaults_match_paper(self):
        config = EngineConfig()
        assert config.thread_pool_size == 1000
        assert config.inline_referencers is True

    def test_laptop_spec_num_nodes(self):
        assert laptop_cluster_spec(3).num_nodes == 3


class TestRngHelpers:
    def test_make_rng_streams_decorrelate(self):
        a = make_rng(1, "alpha").random()
        b = make_rng(1, "beta").random()
        assert a != b

    def test_make_rng_deterministic(self):
        assert make_rng(5, "s").random() == make_rng(5, "s").random()

    def test_random_phrase_word_count(self):
        phrase = random_phrase(make_rng(1), 4)
        assert len(phrase.split()) == 4

    def test_random_phrase_draws_what_choice_draws(self):
        rng = make_rng(9)
        expected = " ".join(rng.choice(WORDS) for __ in range(5))
        assert random_phrase(make_rng(9), 5) == expected

    def test_date_arithmetic(self):
        assert date_range_days("1992-01-01", "1992-01-31") == 30
        assert add_days("1992-01-01", 31) == "1992-02-01"
        assert add_days("1992-12-31", 1) == "1993-01-01"

    def test_iso_days_is_add_days_by_offset(self):
        days = iso_days("1992-02-27", 400)
        assert len(days) == 400
        assert days == [add_days("1992-02-27", d) for d in range(400)]


class TestBelow:
    """``make_below`` consumes an RNG exactly as the stdlib's
    ``randrange``, ``choice`` and ``uniform`` do, value for value."""

    SIZES = [1, 2, 3, 5, 7, 8, 9, 25, 50, 121, 1000, 2406, 9_999,
             2 ** 31 - 1, 2 ** 40 + 3]

    def test_randrange_is_start_plus_below_width(self):
        for seed in range(5):
            stdlib, ours = make_rng(seed, "a"), make_rng(seed, "a")
            below = make_below(ours)
            for n in self.SIZES * 20:
                assert stdlib.randrange(n) == below(n)
                assert stdlib.randrange(3, 3 + n) == 3 + below(n)
            assert stdlib.random() == ours.random()  # streams in step

    def test_choice_and_uniform_interleaved(self):
        stdlib, ours = make_rng(4, "mix"), make_rng(4, "mix")
        below, random = make_below(ours), ours.random
        seq = ("a", "b", "c", "d", "e", "f", "g")
        for __ in range(500):
            assert stdlib.choice(seq) == seq[below(len(seq))]
            assert stdlib.uniform(-999.99, 9999.99) == \
                -999.99 + (9999.99 - -999.99) * random()
            assert stdlib.uniform(0.0, 0.08) == 0.08 * random()


    def test_an_empty_range_is_refused(self):
        below = make_below(make_rng(0))
        for n in (0, -3):
            with pytest.raises(ValueError):
                below(n)


class TestZipfSampler:
    def test_same_seed_same_draws(self):
        first = zipf_sampler(make_rng(3, "zipf"), 50, s=1.0)
        second = zipf_sampler(make_rng(3, "zipf"), 50, s=1.0)
        assert [first() for __ in range(200)] == \
            [second() for __ in range(200)]

    def test_draws_stay_in_range_and_rank_zero_leads(self):
        sample = zipf_sampler(make_rng(11, "zipf"), 20, s=1.0)
        counts = [0] * 20
        for __ in range(4000):
            rank = sample()
            assert 0 <= rank < 20
            counts[rank] += 1
        assert counts[0] == max(counts)
        # Zipf(1): rank 0 is drawn about twice as often as rank 1
        assert 1.5 < counts[0] / counts[1] < 2.6

    def test_empty_domain_is_refused(self):
        with pytest.raises(ValueError):
            zipf_sampler(make_rng(0), 0)


class TestFormatting:
    def test_format_seconds_scales(self):
        assert format_seconds(2.5) == "2.500s"
        assert format_seconds(0.0421) == "42.1ms"
        assert format_seconds(0.000123) == "123us"

    def test_format_factor(self):
        assert format_factor(12.34) == "12.3x"
        assert format_factor(float("inf")) == "-"
        assert format_factor(0.0) == "-"
        assert format_factor(float("nan")) == "-"


class TestSweepTable:
    def test_render_contains_all_cells(self):
        table = SweepTable("demo", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(2.5, "y")
        table.add_note("a note")
        text = table.render()
        assert "demo" in text
        assert "2.500" in text
        assert "a note" in text

    def test_row_arity_checked(self):
        table = SweepTable("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_accessor(self):
        table = SweepTable("demo", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column("b") == ["x", "y"]

    def test_float_rendering_edge_cases(self):
        table = SweepTable("demo", ["v"])
        table.add_row(0.0)
        table.add_row(1234567.0)
        table.add_row(0.0001)
        text = table.render()
        assert "0" in text
        assert "1.23e+06" in text
        assert "0.0001" in text
