import contextlib
import io
import json

import numpy as np
import pytest

from ptqubit import (
    NoStatisticsError,
    ParameterError,
    PtParams,
    ShotConfig,
    k3_sampled,
    pt_via_dilation,
    quantum_witness,
    sample_conditional,
    witness_sampled,
)
from ptqubit.cli import main
from ptqubit.montecarlo import substream


class TestShotConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ShotConfig(shots=0)
        with pytest.raises(ParameterError):
            ShotConfig(shots=10, mode="exact")

    def test_defaults(self):
        config = ShotConfig(shots=5)
        assert config.seed == 0
        assert config.mode == "ideal"


class TestSubstream:
    def test_deterministic(self):
        a = substream(7, "slot", 0).integers(0, 1 << 30, size=5)
        b = substream(7, "slot", 0).integers(0, 1 << 30, size=5)
        np.testing.assert_array_equal(a, b)

    def test_independent_labels_and_slots(self):
        base = substream(7, "slot", 0).integers(0, 1 << 30, size=5)
        other_label = substream(7, "slot2", 0).integers(0, 1 << 30, size=5)
        other_slot = substream(7, "slot", 1).integers(0, 1 << 30, size=5)
        assert not np.array_equal(base, other_label)
        assert not np.array_equal(base, other_slot)


class TestSampleConditional:
    @pytest.mark.parametrize("mode", ["ideal", "dilated"])
    def test_zero_time_is_exact(self, mode):
        record = sample_conditional(
            -1, 0.0, PtParams(gamma=0.6), ShotConfig(shots=1000, seed=1, mode=mode)
        )
        assert record.estimate == 0.0
        assert record.stderr == 0.0

    def test_ideal_estimate_converges(self):
        record = sample_conditional(
            -1, np.pi / 4, PtParams(gamma=0.0), ShotConfig(shots=10**6, seed=2)
        )
        assert record.accepted == record.attempted == 10**6
        assert abs(record.estimate - 0.5) <= 5.0 * record.stderr

    def test_dilated_success_rate_near_break(self):
        config = ShotConfig(shots=10**5, seed=3, mode="dilated")
        record = sample_conditional(-1, np.pi / 2, PtParams(gamma=0.95), config)
        sigma = np.sqrt(0.025 * 0.975 / 10**5)
        assert abs(record.success_rate - 0.025) <= 5.0 * sigma
        # every accepted shot reads +1: the flip is complete
        assert record.estimate == pytest.approx(1.0, abs=1e-12)

    def test_reproducible(self):
        config = ShotConfig(shots=5000, seed=11, mode="dilated")
        first = sample_conditional(-1, 0.9, PtParams(gamma=0.8), config)
        second = sample_conditional(-1, 0.9, PtParams(gamma=0.8), config)
        assert first == second

    def test_no_statistics_error(self):
        # post-selection success ~ 5e-9, so 10 attempts surely all fail
        params = PtParams(gamma=1.0 - 1e-8)
        config = ShotConfig(shots=10, seed=4, mode="dilated")
        with pytest.raises(NoStatisticsError):
            sample_conditional(-1, np.pi / 2, params, config)


class TestK3Sampled:
    def test_zero_interval_is_exact(self):
        record = k3_sampled(0.0, PtParams(gamma=0.6), ShotConfig(shots=1000, seed=5))
        assert record.estimate == 1.0
        assert record.stderr == 0.0

    def test_hermitian_luders_point(self):
        record = k3_sampled(np.pi / 6, PtParams(gamma=0.0), ShotConfig(shots=10**6, seed=6))
        assert abs(record.estimate - 1.5) <= 5.0 * record.stderr

    def test_near_break_quarter_interval(self):
        record = k3_sampled(np.pi / 4, PtParams(gamma=0.95), ShotConfig(shots=10**6, seed=7))
        assert abs(record.estimate - 2.8525) <= 5.0 * record.stderr

    def test_attempted_counts_five_batches(self):
        record = k3_sampled(0.4, PtParams(gamma=0.6), ShotConfig(shots=1000, seed=8))
        assert record.attempted == 5000
        assert record.accepted == 5000  # ideal mode accepts everything
        assert record.success_rate == 1.0

    def test_reproducible(self):
        config = ShotConfig(shots=2000, seed=9, mode="dilated")
        params = PtParams(gamma=0.6)
        assert k3_sampled(0.5, params, config) == k3_sampled(0.5, params, config)

    def test_stderr_tracks_seed_spread(self):
        # empirical spread over 20 seeds should match the reported stderr
        params = PtParams(gamma=0.6)
        estimates, stderrs = [], []
        for seed in range(20):
            record = k3_sampled(0.5, params, ShotConfig(shots=10**4, seed=seed))
            estimates.append(record.estimate)
            stderrs.append(record.stderr)
        spread = float(np.std(estimates, ddof=1))
        typical = float(np.mean(stderrs))
        assert spread <= 1.5 * typical
        assert spread >= typical / 1.5

    def test_modes_agree_at_large_budget(self):
        params = PtParams(gamma=0.95)
        ideal = k3_sampled(np.pi / 4, params, ShotConfig(shots=10**6, seed=10))
        dilated = k3_sampled(np.pi / 4, params, ShotConfig(shots=10**6, seed=10, mode="dilated"))
        combined = np.hypot(ideal.stderr, dilated.stderr)
        assert abs(ideal.estimate - dilated.estimate) <= 5.0 * combined

    def test_bootstrap_error_bars_track_propagation(self):
        params = PtParams(gamma=0.6)
        plain = k3_sampled(0.5, params, ShotConfig(shots=10**4, seed=21))
        booted = k3_sampled(0.5, params, ShotConfig(shots=10**4, seed=21, bootstrap=True))
        assert booted.estimate == plain.estimate  # same draws, different error bars
        assert 0.8 <= booted.stderr / plain.stderr <= 1.25
        again = k3_sampled(0.5, params, ShotConfig(shots=10**4, seed=21, bootstrap=True))
        assert again == booted


class TestWitnessSampled:
    def test_hermitian_bound(self):
        record = witness_sampled(PtParams(gamma=0.0), ShotConfig(shots=10**6, seed=12))
        assert abs(record.estimate - 0.5) <= 5.0 * record.stderr

    def test_near_break_value(self):
        record = witness_sampled(PtParams(gamma=0.95), ShotConfig(shots=10**6, seed=13))
        exact = quantum_witness(PtParams(gamma=0.95)).w
        assert abs(record.estimate - exact) <= 5.0 * max(record.stderr, 1e-6)

    def test_single_shot_is_valid(self):
        record = witness_sampled(PtParams(gamma=0.6), ShotConfig(shots=1, seed=14))
        assert record.attempted == 2
        assert 0.0 <= record.estimate <= 1.0
        assert record.stderr >= 0.0

    def test_dilated_mode_converges(self):
        record = witness_sampled(
            PtParams(gamma=0.6), ShotConfig(shots=10**6, seed=15, mode="dilated")
        )
        assert abs(record.estimate - 0.8) <= 5.0 * record.stderr

    def test_bootstrap_error_bars(self):
        plain = witness_sampled(PtParams(gamma=0.6), ShotConfig(shots=10**4, seed=22))
        booted = witness_sampled(
            PtParams(gamma=0.6), ShotConfig(shots=10**4, seed=22, bootstrap=True)
        )
        assert booted.estimate == plain.estimate
        assert 0.7 <= booted.stderr / plain.stderr <= 1.4


def test_expected_success_rate_monotone_in_ratio():
    # post-selection gets harder as the break approaches (fixed quarter flip)
    from ptqubit import minus_y

    ratios = np.arange(0.0, 0.951, 0.05)
    expected = [
        pt_via_dilation(minus_y(), PtParams(gamma=r), np.pi / 2)[1] for r in ratios
    ]
    assert np.all(np.diff(expected) < 0.0)
    for ratio, success in zip(ratios[::4], expected[::4]):
        config = ShotConfig(shots=10**5, seed=16, mode="dilated")
        record = sample_conditional(-1, np.pi / 2, PtParams(gamma=ratio), config)
        sigma = np.sqrt(success * (1.0 - success) / 10**5)
        assert abs(record.success_rate - success) <= 5.0 * max(sigma, 1e-9)


# Seeded draws are part of the output contract: these JSON rows (quantity,
# estimate, stderr, accepted, attempted, success_rate) are frozen literals,
# so any change to substream labels, slot numbers, draw order or the order
# of floating-point operations in the estimators shows up here bit for bit.
FROZEN_ROWS = [
    ('--quantity conditional --mode ideal --gamma 0.6 --shots 2000 --seed 3 --qin 1 --tau 0.7',
     ['conditional', 0.258, 0.009783557635134573, 2000, 2000, 1.0]),
    ('--quantity conditional --mode ideal --gamma 0.35 --shots 777 --seed 2024 --qin 1 --tau 0.7',
     ['conditional', 0.4362934362934363, 0.01779120550247442, 777, 777, 1.0]),
    ('--quantity conditional --mode ideal --gamma 0.6 --shots 2000 --seed 3 --qin 1 --tau 0.7 --bootstrap',
     ['conditional', 0.258, 0.009590254061961711, 2000, 2000, 1.0]),
    ('--quantity conditional --mode ideal --gamma 0.35 --shots 777 --seed 2024 --qin 1 --tau 0.7 --bootstrap',
     ['conditional', 0.4362934362934363, 0.017712664125646895, 777, 777, 1.0]),
    ('--quantity conditional --mode dilated --gamma 0.6 --shots 2000 --seed 3 --qin 1 --tau 0.7',
     ['conditional', 0.25900900900900903, 0.01470135673785795, 888, 2000, 0.444]),
    ('--quantity conditional --mode dilated --gamma 0.35 --shots 777 --seed 2024 --qin 1 --tau 0.7',
     ['conditional', 0.3333333333333333, 0.025161711869879904, 351, 777, 0.4517374517374517]),
    ('--quantity conditional --mode dilated --gamma 0.6 --shots 2000 --seed 3 --qin 1 --tau 0.7 --bootstrap',
     ['conditional', 0.25900900900900903, 0.01466454597075147, 888, 2000, 0.444]),
    ('--quantity conditional --mode dilated --gamma 0.35 --shots 777 --seed 2024 --qin 1 --tau 0.7 --bootstrap',
     ['conditional', 0.3333333333333333, 0.024943160666424255, 351, 777, 0.4517374517374517]),
    ('--quantity k3 --mode ideal --gamma 0.6 --shots 2000 --seed 3 --t 0.45',
     ['k3', 1.299059, 0.024884203245171425, 10000, 10000, 1.0]),
    ('--quantity k3 --mode ideal --gamma 0.35 --shots 777 --seed 2024 --t 0.45',
     ['k3', 1.4080307555211031, 0.046653919804110634, 3885, 3885, 1.0]),
    ('--quantity k3 --mode ideal --gamma 0.6 --shots 2000 --seed 3 --t 0.45 --bootstrap',
     ['k3', 1.299059, 0.025194162802285713, 10000, 10000, 1.0]),
    ('--quantity k3 --mode ideal --gamma 0.35 --shots 777 --seed 2024 --t 0.45 --bootstrap',
     ['k3', 1.4080307555211031, 0.04486194692760484, 3885, 3885, 1.0]),
    ('--quantity k3 --mode dilated --gamma 0.6 --shots 2000 --seed 3 --t 0.45',
     ['k3', 1.289474429276673, 0.035543153575719966, 5615, 10000, 0.5615]),
    ('--quantity k3 --mode dilated --gamma 0.35 --shots 777 --seed 2024 --t 0.45',
     ['k3', 1.3993459067643035, 0.06494996284368303, 2108, 3885, 0.5425997425997426]),
    ('--quantity k3 --mode dilated --gamma 0.6 --shots 2000 --seed 3 --t 0.45 --bootstrap',
     ['k3', 1.289474429276673, 0.036710521283360324, 5615, 10000, 0.5615]),
    ('--quantity k3 --mode dilated --gamma 0.35 --shots 777 --seed 2024 --t 0.45 --bootstrap',
     ['k3', 1.3993459067643035, 0.06247906934239039, 2108, 3885, 0.5425997425997426]),
    ('--quantity witness --mode ideal --gamma 0.6 --shots 2000 --seed 3 --tau 0.6',
     ['witness', 0.7260000000000001, 0.010867324877816066, 4000, 4000, 1.0]),
    ('--quantity witness --mode ideal --gamma 0.35 --shots 777 --seed 2024 --tau 0.6',
     ['witness', 0.6254826254826255, 0.018827432165332277, 1554, 1554, 1.0]),
    ('--quantity witness --mode ideal --gamma 0.6 --shots 2000 --seed 3 --tau 0.6 --bootstrap',
     ['witness', 0.7260000000000001, 0.010444111953799561, 4000, 4000, 1.0]),
    ('--quantity witness --mode ideal --gamma 0.35 --shots 777 --seed 2024 --tau 0.6 --bootstrap',
     ['witness', 0.6254826254826255, 0.01874488722879896, 1554, 1554, 1.0]),
    ('--quantity witness --mode dilated --gamma 0.6 --shots 2000 --seed 3 --tau 0.6',
     ['witness', 0.7196549332596027, 0.019769145497009075, 1556, 4000, 0.389]),
    ('--quantity witness --mode dilated --gamma 0.35 --shots 777 --seed 2024 --tau 0.6',
     ['witness', 0.6518909446839892, 0.026416275108277616, 691, 1554, 0.4446589446589447]),
    ('--quantity witness --mode dilated --gamma 0.6 --shots 2000 --seed 3 --tau 0.6 --bootstrap',
     ['witness', 0.7196549332596027, 0.019275286088696893, 1556, 4000, 0.389]),
    ('--quantity witness --mode dilated --gamma 0.35 --shots 777 --seed 2024 --tau 0.6 --bootstrap',
     ['witness', 0.6518909446839892, 0.026260581037560397, 691, 1554, 0.4446589446589447]),
    ('--quantity k3 --mode dilated --gamma 1.998 --t 0.7 --shots 5000 --seed 11 --j 2',
     ['k3', 1.0247730987237889, 0.018892792719456028, 10917, 25000, 0.43668]),
    ('--quantity witness --mode dilated --gamma 0.9 --shots 20 --seed 1',
     ['witness', 0.905, 0.09025657870759339, 13, 40, 0.325]),
    ('--quantity witness --mode ideal --gamma 0.98 --shots 3 --seed 5 --bootstrap',
     ['witness', 1.0, 0.0, 6, 6, 1.0]),
]


@pytest.mark.parametrize("flags, row", FROZEN_ROWS, ids=[flags for flags, _ in FROZEN_ROWS])
def test_seeded_rows_are_frozen(flags, row):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["montecarlo", *flags.split(), "--format", "json"])
    assert status == 0
    assert json.loads(out.getvalue())["rows"] == [row]
