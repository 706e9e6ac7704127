import cmath
import io
import math
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import dasris.model as model
from dasris.model import (
    _BLOCK_ROWS,
    ChannelFormatError,
    ChannelParams,
    ChannelRealization,
    PhaseConfig,
    composite_phi,
    draw_channels,
    generate_channel,
    read_channel_csv,
    received_power,
    snr_db,
    write_channel_csv,
)

# hand-computed with cmath: |e^{j pi/3} + e^{-j pi/4} + 0.5|^2
POWER_ORACLE = 2.939468690981507


def make_channel(g, h_r, h_d, noise_power=1.0, tx_power=1.0):
    return ChannelRealization(g=np.array(g, dtype=complex), h_r=np.array(h_r, dtype=complex),
                              h_d=h_d, noise_power=noise_power, tx_power=tx_power)


def pow2_exponent(scaled, raw):
    """The e for which scaled == raw * 2**e holds exactly; fails if there is none."""
    parts = np.asarray(raw, dtype=complex).view(np.float64)
    j = int(np.argmax(np.abs(parts)))
    e = math.frexp(scaled.view(np.float64)[j])[1] - math.frexp(parts[j])[1]
    assert np.array_equal(np.ldexp(parts, e), scaled.view(np.float64))
    return e


def test_composite_phi_single_element_with_direct_link():
    # (1, 1) scaled by 2^-1 puts the largest part at 0.5
    assert np.array_equal(composite_phi(make_channel([1], [1], 1)), [0.5, 0.5])


def test_composite_phi_conjugates_h_r():
    # phi_n = conj(h_r_n) * g_n, worked by hand: (1+1j, -2j, 0.5), then
    # scaled by 2^-2 so that the largest part, |-2|, lands at 0.5
    phi_bar = composite_phi(make_channel([1 + 1j, 2], [1, 1j], 0.5))
    assert np.array_equal(phi_bar, np.array([1 + 1j, -2j, 0.5]) / 4)


def test_composite_phi_all_zero_is_returned_unchanged():
    phi_bar = composite_phi(make_channel([0, 0], [0, 0], 0))
    assert np.array_equal(phi_bar, [0.0, 0.0, 0.0])


# largest |re| or |im| of a row's composite: the smallest subnormal, two more
# subnormals, zero (an all-zero row), and a value near the largest float
EXTREME_TOPS = [5e-324, 2.0**-1070, 1e-310, 0.0, 1.5e308]


@pytest.mark.parametrize("top", EXTREME_TOPS)
def test_composite_phi_row_matches_its_block_row_at_extreme_tops(top):
    # a channel alone takes the one-row rescale (Python float exponent), a
    # block the per-row one (array frexp); both must give the same bits
    g = np.array([complex(top, -top / 2), complex(-top / 4, top / 8), complex(0.0, -top)])
    h_r = np.array([1, 1j, -1], dtype=complex)
    h_d = complex(top / 2, -top / 16)
    row = composite_phi(make_channel(g, h_r, h_d))
    scaled = float(np.max(np.abs(row.view(np.float64))))
    assert scaled == math.frexp(top)[0]  # the top's mantissa, 0 for zero
    one = model._composite(g[None], h_r[None], np.array([h_d]))
    assert one[0].tobytes() == row.tobytes()
    # neighbours of other scales: each row keeps its own exponent
    g3 = np.vstack((np.full_like(g, 1e300), g, np.full_like(g, 3e-320)))
    h_d3 = np.array([1e-300, h_d, 0.0])
    three = model._composite(g3, np.vstack((h_r, h_r, h_r)), h_d3)
    assert three[1].tobytes() == row.tobytes()
    for t in (0, 2):
        alone = composite_phi(make_channel(g3[t], h_r, h_d3[t]))
        assert three[t].tobytes() == alone.tobytes()


@pytest.mark.parametrize("g, h_r", [
    ([1e160, 2e160], [1e160, 1]),  # the product overflows to inf
    ([1e200 + 1e200j], [1e200 + 1e200j]),  # inf - inf: a NaN part
])
def test_composite_phi_rejects_an_overflowing_product_without_a_warning(g, h_r):
    ch = make_channel(g, h_r, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            composite_phi(ch)
        with pytest.raises(ValueError, match="overflow"):
            model._composite(ch.g[None], ch.h_r[None], np.array([ch.h_d]))


def test_a_product_into_a_row_has_the_bits_of_one_through_a_temporary():
    # a row of two or more entries is multiplied in place, where conj(h_r)
    # was written; a lone entry goes through a temporary
    rng = np.random.default_rng(523)
    for n in range(1, 301):
        for _ in range(4):
            g, h_r = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) \
                * np.ldexp(1.0, rng.integers(-30, 30, (2, 1)))
            phi_bar = np.empty(n + 1, dtype=complex)
            model._product(h_r, g, phi_bar[:-1])
            assert phi_bar[:-1].tobytes() == (np.conj(h_r) * g).tobytes(), n


SMALL_PARTS = st.integers(min_value=-8, max_value=8)


@seed(7241)
@given(st.lists(st.tuples(SMALL_PARTS, SMALL_PARTS, SMALL_PARTS, SMALL_PARTS),
                min_size=1, max_size=12),
       st.tuples(SMALL_PARTS, SMALL_PARTS),
       st.integers(min_value=-1074, max_value=1000))
@settings(max_examples=200, deadline=None)
# g = [5e-324], h_r = [1], h_d = 0 must give [0.5, 0]: a multiply by
# 2.0**1074 would overflow there
@example(elements=[(1, 0, 1, 0)], h_d=(0, 0), k=-1074)
def test_composite_phi_is_an_exact_power_of_two_multiple(elements, h_d, k):
    # small integer parts times 2^k keep every product and sum exact, even
    # among subnormals, so the hand-computed vector below is exact as well
    scale = 2.0**k
    g = np.array([complex(a, b) for a, b, _, _ in elements]) * scale
    h_r = np.array([complex(c, d) for _, _, c, d in elements])
    # conj(c + dj) * (a + bj) = (ac + bd) + (bc - ad)j, then conj(h_d)
    hand = [complex(a * c + b * d, b * c - a * d) * scale for a, b, c, d in elements]
    hand.append(complex(h_d[0], -h_d[1]) * scale)
    phi_bar = composite_phi(make_channel(g, h_r, complex(*h_d) * scale))
    top = float(np.max(np.abs(phi_bar.view(np.float64))))
    if any(hand):
        assert 0.5 <= top < 1.0
    else:
        assert top == 0.0
    pow2_exponent(phi_bar, hand)


def test_received_power_all_aligned():
    ch = make_channel([1, 1], [1, 1], 1)
    assert received_power(ch, PhaseConfig(np.array([1, 1]))) == 9.0


def test_received_power_matches_cmath_oracle():
    g = [cmath.exp(1j * cmath.pi / 3), cmath.exp(-1j * cmath.pi / 4)]
    ch = make_channel(g, [1, 1], 0.5)
    power = received_power(ch, PhaseConfig(np.array([1, 1])))
    assert math.isclose(power, POWER_ORACLE, rel_tol=1e-12)


def test_received_power_scales_with_tx_power():
    ch = make_channel([1, 1], [1, 1], 1, tx_power=2.5)
    assert received_power(ch, PhaseConfig(np.array([1, 1]))) == 22.5


def test_received_power_rejects_length_mismatch():
    ch = make_channel([1, 1], [1, 1], 1)
    with pytest.raises(ValueError):
        received_power(ch, PhaseConfig(np.array([1, 1, 1])))


@pytest.mark.parametrize("n", [model._DOT_CHUNK, model._DOT_CHUNK + 1, 3 * model._DOT_CHUNK,
                               3 * model._DOT_CHUNK + 77])
def test_a_long_power_adds_whole_chunks_left_to_right(n):
    # one zdotc a chunk, too short for OpenBLAS to split across its threads,
    # and the chunks added in a fixed order: bits that no BLAS thread count
    # moves, alone and as a row of a block. A row of _DOT_CHUNK entries keeps
    # its one np.vdot
    g, h_r, h_d = draw_channels(n, [5, 6], ChannelParams())
    w = np.where(np.arange(n) % 3 == 0, -1, 1)
    chunk = model._DOT_CHUNK
    expected = []
    for t in range(2):
        wg = w * g[t]
        if n <= chunk:
            amp = complex(np.vdot(h_r[t], wg))
        else:
            whole = n - n % chunk
            amp = complex(np.vdot(h_r[t, :chunk], wg[:chunk]))
            for start in range(chunk, whole, chunk):
                amp += complex(np.vdot(h_r[t, start:start + chunk], wg[start:start + chunk]))
            amp += complex(np.vdot(h_r[t, whole:], wg[whole:]))
        amp += complex(h_d[t]).conjugate()
        expected.append((amp.real * amp.real + amp.imag * amp.imag) * 2.0)
        assert repr(model._power(h_r[t], wg, complex(h_d[t]), 2.0)) == repr(expected[t])
    assert repr(model._power(h_r, w * g, h_d, 2.0)) == repr(expected)


def test_snr_db_values():
    # 10*log10(4/2) and 10*log10(4/1), computed with math.log10
    assert math.isclose(snr_db(4.0, 2.0), 3.010299956639812, rel_tol=1e-12)
    assert math.isclose(snr_db(4.0, 1.0), 6.020599913279624, rel_tol=1e-12)
    assert snr_db(0.0, 1.0) == float("-inf")
    with pytest.raises(ValueError):
        snr_db(1.0, 0.0)
    with pytest.raises(ValueError):
        snr_db(-1.0, 1.0)
    for noise_power in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="noise_power must be finite and > 0"):
            snr_db(1.0, noise_power)
    for power in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="power must be finite and >= 0"):
            snr_db(power, 1.0)


@pytest.mark.parametrize("power, noise_power, expected", [
    (1e300, 1e-300, 6000.0),  # the quotient overflows a float
    (1e-300, 1e300, -6000.0),  # it underflows to 0
    (5e-324, 1e300, 10 * (math.log10(5e-324) - 300.0)),
])
def test_snr_db_is_finite_where_the_quotient_leaves_the_double_range(power, noise_power, expected):
    assert power / noise_power in (0.0, math.inf)
    assert math.isclose(snr_db(power, noise_power), expected, rel_tol=1e-15)


def test_snr_db_keeps_the_quotients_log_inside_the_double_range():
    for power, noise_power in ((4.0, 2.0), (1e-300, 1e-8), (1e300, 1e8), (5e-324, 1.0),
                               (1.7976931348623157e308, 1.0)):
        assert snr_db(power, noise_power) == 10.0 * math.log10(power / noise_power)


def test_phase_config_validation():
    with pytest.raises(ValueError):
        PhaseConfig(np.array([1, 0, -1]))


@pytest.mark.parametrize("bad", [1.5, -1.9, 1j, 0])
def test_phase_config_rejects_non_sign_entries_before_the_cast(bad):
    with pytest.raises(ValueError):
        PhaseConfig(np.array([bad, -1]))


@pytest.mark.parametrize("signs", [[1, -1], [-1.0, 1.0]])
def test_phase_config_accepts_int_and_float_signs(signs):
    cfg = PhaseConfig(np.array(signs))
    assert cfg.w.dtype == np.int64
    assert cfg.w.tolist() == signs


def test_channel_realization_validation():
    with pytest.raises(ValueError):
        make_channel([1, 1], [1], 0)
    with pytest.raises(ValueError):
        make_channel([1], [1], 0, noise_power=0.0)
    with pytest.raises(ValueError):
        make_channel([1], [1], 0, tx_power=-1.0)


@pytest.mark.parametrize("field", ["g", "h_r"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_channel_realization_rejects_non_finite_coefficients(field, bad):
    values = {"g": [1.0, 1.0], "h_r": [1.0, 1.0]}
    values[field] = [1.0, complex(0.0, bad)]
    with pytest.raises(ValueError, match="finite"):
        make_channel(values["g"], values["h_r"], 0)


@pytest.mark.parametrize("h_d", [complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf])
def test_channel_realization_rejects_non_finite_direct_link(h_d):
    with pytest.raises(ValueError, match="h_d"):
        make_channel([1], [1], h_d)


@pytest.mark.parametrize("field", ["noise_power", "tx_power"])
def test_channel_realization_rejects_nan_powers(field):
    with pytest.raises(ValueError, match=field):
        make_channel([1], [1], 0, **{field: math.nan})


@pytest.mark.parametrize("field", ["beta_g", "beta_r", "beta_d"])
def test_channel_params_rejects_nan_betas(field):
    with pytest.raises(ValueError, match=field):
        ChannelParams(**{field: math.nan})


def test_generate_channel_is_deterministic():
    a = generate_channel(8, 123)
    b = generate_channel(8, 123)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.h_r, b.h_r)
    assert a.h_d == b.h_d
    c = generate_channel(8, 124)
    assert not np.array_equal(a.g, c.g)


def test_generate_channel_rejects_empty():
    with pytest.raises(ValueError):
        generate_channel(0, 1)


@pytest.mark.parametrize("los", [2, 1, 0, "no", None, 1.0])
def test_channel_params_rejects_a_los_that_is_not_a_bool(los):
    # an int would draw two normals for h_d per unit of los
    with pytest.raises(ValueError, match="los"):
        ChannelParams(los=los)


def test_channel_params_takes_a_numpy_bool_as_los():
    for los in (True, False):
        ch = generate_channel(16, 7, ChannelParams(los=np.bool_(los)))
        assert ch.h_d == generate_channel(16, 7, ChannelParams(los=los)).h_d


@pytest.mark.parametrize("n", [4.0, 4.5, "4", None])
def test_a_channel_size_that_is_not_an_integer_is_rejected(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        generate_channel(n, 1)
    with pytest.raises(ValueError, match="n must be an integer"):
        draw_channels(n, [1, 2], ChannelParams())


def test_a_numpy_integer_channel_size_is_taken():
    assert np.array_equal(generate_channel(np.int64(4), 1).g, generate_channel(4, 1).g)


def test_generate_channel_no_los_zeroes_direct_link_only():
    with_los = generate_channel(5, 7, ChannelParams(los=True))
    without = generate_channel(5, 7, ChannelParams(los=False))
    assert without.h_d == 0
    assert with_los.h_d != 0
    # h_d is drawn last, so the cascaded links are unaffected by the flag
    assert np.array_equal(with_los.g, without.g)
    assert np.array_equal(with_los.h_r, without.h_r)


def test_generate_channel_entry_variance():
    ch = generate_channel(20000, 1, ChannelParams(beta_g=2.0, beta_r=0.5))
    mean_g = np.mean(np.abs(ch.g) ** 2)
    mean_r = np.mean(np.abs(ch.h_r) ** 2)
    assert 0.95 < mean_g / 2.0 < 1.05
    assert 0.95 < mean_r / 0.5 < 1.05


def reference_channel(n, seed, params):
    """One channel drawn entry group by entry group, as generate_channel documents."""
    rng = np.random.default_rng(seed)

    def gaussian(size, variance):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) \
            * math.sqrt(variance / 2.0)

    g = gaussian(n, params.beta_g)
    h_r = gaussian(n, params.beta_r)
    h_d = complex(gaussian(1, params.beta_d)[0]) if params.los else 0j
    return g, h_r, h_d


@pytest.mark.parametrize("n", [1, 2, 17, 256])
@pytest.mark.parametrize("params", [
    ChannelParams(),
    ChannelParams(los=False),
    ChannelParams(beta_g=3.5, beta_r=0.02, beta_d=7.0, noise_power=0.5, tx_power=2.0),
    ChannelParams(beta_g=0.25, beta_r=1e-6, los=False),
    ChannelParams(beta_g=0.0, beta_d=0.0),
], ids=["default", "no-los", "betas-los", "betas-no-los", "zero-variances"])
def test_draw_channels_rows_are_generate_channel_bit_for_bit(n, params):
    seeds = [0, 1, 2**63 + 12345, 987654321, 2**64 - 1]
    g, h_r, h_d = draw_channels(n, seeds, params)
    assert g.shape == h_r.shape == (len(seeds), n) and h_d.shape == (len(seeds),)
    for t, seed in enumerate(seeds):
        ch = generate_channel(n, seed, params)
        ref_g, ref_h_r, ref_h_d = reference_channel(n, seed, params)
        for row, single, ref in ((g[t], ch.g, ref_g), (h_r[t], ch.h_r, ref_h_r)):
            assert row.tobytes() == single.tobytes() == ref.tobytes()
        assert np.complex128(h_d[t]).tobytes() == np.complex128(ch.h_d).tobytes() \
            == np.complex128(ref_h_d).tobytes()
        assert (ch.noise_power, ch.tx_power) == (params.noise_power, params.tx_power)


# Seeds by how numpy's SeedSequence assembles their entropy: one uint32 word
# below 2^32, two words up to 2^64 - 1. The column-wise seeding takes both
# in one block; every other seed goes through numpy itself.
ONE_WORD = st.integers(min_value=0, max_value=2**32 - 1)
TWO_WORDS = st.integers(min_value=2**32, max_value=2**64 - 1)
UNIT_SCALE = ChannelParams(beta_g=2.0, beta_r=2.0, beta_d=2.0)  # entries are the normals


def drawn_normals(n, seeds):
    """draw_channels' normals per row, read back from entries with unit scale."""
    g, h_r, h_d = draw_channels(n, seeds, UNIT_SCALE)
    return np.column_stack((g.real, g.imag, h_r.real, h_r.imag, h_d.real, h_d.imag))


def assert_rows_are_default_rng(n, seeds):
    normals = drawn_normals(n, seeds)
    for row, seed in zip(normals, seeds):
        assert row.tobytes() == np.random.default_rng(seed).standard_normal(4 * n + 2).tobytes()


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=8),
       st.sampled_from([1, 2, 4]), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_seed_state_columns_are_numpy_seed_sequence(length, columns, n_words, rnd):
    # pool hash, all-pairs mix and generate_state, up to the pool's 4 words
    words = [[rnd.getrandbits(32) for _ in range(columns)] for _ in range(length)]
    words[0][0] = 0  # a zero word, as the seed 0 gives
    entropy = np.array(words, dtype=np.uint32)
    state = model._seed_state(entropy, n_words)
    assert state.shape == (n_words, columns) and state.dtype == np.uint64
    for t in range(columns):
        expected = np.random.SeedSequence(entropy[:, t].copy()).generate_state(n_words, np.uint64)
        assert state[:, t].tobytes() == expected.tobytes()


def test_seed_state_refuses_an_entropy_wider_than_the_pool():
    # numpy mixes a fifth word in a loop the column-wise routine does not run
    with pytest.raises(ValueError):
        model._seed_state(np.ones((5, 3), dtype=np.uint32), 2)


@given(ones=st.lists(st.one_of(ONE_WORD, ONE_WORD.map(np.uint32)), max_size=2 * _BLOCK_ROWS),
       twos=st.lists(st.one_of(TWO_WORDS, TWO_WORDS.map(np.uint64), st.just(2**64 - 1)),
                     max_size=2 * _BLOCK_ROWS),
       wide=st.lists(st.integers(min_value=2**64, max_value=2**70), max_size=2),
       n=st.integers(min_value=1, max_value=9), rnd=st.randoms(use_true_random=False))
@example(ones=list(range(_BLOCK_ROWS)), twos=[2**64 - 1] * _BLOCK_ROWS, wide=[2**64],
         n=3, rnd=random.Random(0))
@settings(max_examples=80, deadline=None)
def test_draw_channels_rows_are_default_rng_byte_for_byte(ones, twos, wide, n, rnd):
    seeds = ones + twos + wide
    rnd.shuffle(seeds)
    if seeds:
        assert_rows_are_default_rng(n, seeds)


@pytest.mark.parametrize("ones", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 3 * _BLOCK_ROWS])
@pytest.mark.parametrize("twos", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 1])
def test_draw_channels_seeds_a_large_block_column_wise(monkeypatch, ones, twos):
    # blocks on both sides of the crossover: _BLOCK_ROWS or more rows are
    # drawn through the reused generator, and every row stays exact
    blocks = []
    original = model._draw_seeded

    def recording(normals, seeds):
        blocks.append(len(seeds))
        return original(normals, seeds)

    monkeypatch.setattr(model, "_draw_seeded", recording)
    # the word-count boundary on both sides: 2^32 - 1 has one word, 2^32 two
    seeds = [2**32 + 977 * k for k in range(twos)] + [2**32 - 1 - 31 * k for k in range(ones)]
    seeds[::3] = [np.uint64(s) for s in seeds[::3]]
    if seeds:
        assert_rows_are_default_rng(5, seeds)
    assert blocks == ([ones + twos] if ones + twos >= _BLOCK_ROWS else [])


SHIM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def test_draw_seeded_rows_get_pcg64s_own_seeding(monkeypatch):
    # each row's generator must start exactly where np.random.PCG64(seed)
    # starts: state, increment and the buffered 32-bit half alike
    row_seed = model._row_seed_type()
    asked, states = [], []
    generate_state = row_seed.generate_state

    def recording(self, n_words, dtype=np.uint32):
        asked.append((n_words, dtype))
        words = generate_state(self, n_words, dtype)
        assert words.dtype == np.uint64 and words.shape == (4,) and words.flags.c_contiguous
        return words

    class Generator(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            states.append(self.bit_generator.state)
            return super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(row_seed, "generate_state", recording)
    monkeypatch.setattr(np.random, "Generator", Generator)
    seeds = list(SHIM_SEEDS) * (_BLOCK_ROWS // len(SHIM_SEEDS) + 1)
    assert len(seeds) >= _BLOCK_ROWS
    normals = np.empty((len(seeds), 7))
    model._draw_seeded(normals, seeds)
    assert asked == [(4, np.uint64)] * len(seeds)
    assert states == [np.random.PCG64(seed).state for seed in seeds]
    for row, seed in zip(normals, seeds):
        assert row.tobytes() == np.random.default_rng(seed).standard_normal(7).tobytes()


def test_row_seed_refuses_any_other_request():
    seq = model._row_seed_type()(np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError, match="4 uint64 words"):
        seq.generate_state(8, np.uint64)
    with pytest.raises(ValueError, match="4 uint64 words"):
        seq.generate_state(4, np.uint32)


def test_importing_the_library_does_not_load_numpy_random():
    # numpy.random loads on the first seeded block, not at import, which
    # would add its import time to every process
    code = ("import sys, dasris.cli, dasris.das, dasris.harness, dasris.model; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("bad", [-1, np.int64(-5), 1.5, True])
def test_draw_channels_leaves_other_seeds_to_numpy(bad):
    seeds = list(range(2 * _BLOCK_ROWS)) + [bad]
    try:
        np.random.default_rng(bad)
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            draw_channels(4, seeds, ChannelParams())
    else:
        assert_rows_are_default_rng(4, seeds)


@pytest.mark.parametrize("bad", [2**64, True])
def test_one_seed_outside_the_block_range_draws_every_row_through_numpy(monkeypatch, bad):
    # seeds that default_rng takes but the column-wise route does not: the
    # whole block goes through numpy, and every row keeps default_rng's bytes
    def refuse(normals, seeds):
        raise AssertionError("a block with an ineligible seed was drawn column-wise")

    monkeypatch.setattr(model, "_draw_seeded", refuse)
    seeds = list(range(2 * _BLOCK_ROWS))
    seeds.insert(_BLOCK_ROWS, bad)
    assert_rows_are_default_rng(4, seeds)


def test_generate_channel_copies_params():
    ch = generate_channel(3, 0, ChannelParams(noise_power=0.25, tx_power=4.0))
    assert ch.noise_power == 0.25
    assert ch.tx_power == 4.0


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_power_routes_agree(n, seed):
    """|h_r^H diag(w) g + h_d^H|^2 equals |w_bar^T phi_bar|^2, before and after the rescaling."""
    rng = np.random.default_rng(seed)
    ch = generate_channel(n, seed, ChannelParams(los=bool(seed % 2)))
    w = rng.integers(0, 2, size=n) * 2 - 1
    direct = received_power(ch, PhaseConfig(w))
    raw = np.append(np.conj(ch.h_r) * ch.g, np.conj(ch.h_d))
    phi_bar = composite_phi(ch)
    e = pow2_exponent(phi_bar, raw)
    w_bar = np.concatenate([w, [1]])
    via_phi_bar = abs(w_bar @ raw) ** 2 * ch.tx_power
    via_scaled = math.ldexp(abs(w_bar @ phi_bar) ** 2, -2 * e) * ch.tx_power
    assert math.isclose(direct, via_phi_bar, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(direct, via_scaled, rel_tol=1e-9, abs_tol=1e-12)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_sign_symmetry_without_direct_link(n, seed):
    rng = np.random.default_rng(seed)
    ch = generate_channel(n, seed, ChannelParams(los=False))
    w = rng.integers(0, 2, size=n) * 2 - 1
    assert received_power(ch, PhaseConfig(w)) == received_power(ch, PhaseConfig(-w))


def _roundtrip(ch):
    buf = io.StringIO()
    write_channel_csv(ch, buf)
    buf.seek(0)
    return read_channel_csv(buf)


def test_channel_csv_roundtrip_exact():
    for seed in range(30):
        ch = generate_channel(1 + seed % 9, seed, ChannelParams(los=bool(seed % 2)))
        back = _roundtrip(ch)
        assert np.array_equal(back.g, ch.g)
        assert np.array_equal(back.h_r, ch.h_r)
        assert back.h_d == ch.h_d
        assert back.noise_power == ch.noise_power
        assert back.tx_power == ch.tx_power


def test_channel_csv_layout():
    ch = make_channel([1 + 2j], [3 - 4j], 0.5 + 0.25j, noise_power=0.5, tx_power=2.0)
    buf = io.StringIO()
    write_channel_csv(ch, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "idx,g_re,g_im,hr_re,hr_im"
    assert lines[1] == "1,1.0,2.0,3.0,-4.0"
    assert lines[2] == "hd,0.5,0.25,0.5,2.0"


def test_channel_csv_missing_footer():
    text = "idx,g_re,g_im,hr_re,hr_im\n1,1.0,0.0,1.0,0.0\n"
    with pytest.raises(ChannelFormatError) as err:
        read_channel_csv(io.StringIO(text))
    assert "footer" in str(err.value)
    assert "line 3" in str(err.value)


def test_channel_csv_bad_float_names_line():
    text = "idx,g_re,g_im,hr_re,hr_im\n1,oops,0.0,1.0,0.0\nhd,0.0,0.0,1.0,1.0\n"
    with pytest.raises(ChannelFormatError) as err:
        read_channel_csv(io.StringIO(text))
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("row, line", [
    ("1,{},0.0,1.0,0.0\nhd,0.0,0.0,1.0,1.0\n", 2),
    ("1,1.0,0.0,1.0,0.0\nhd,0.0,{},1.0,1.0\n", 3),
    ("1,1.0,0.0,1.0,0.0\nhd,0.0,0.0,{},1.0\n", 3),
], ids=["g_re", "hd_im", "noise_power"])
def test_channel_csv_rejects_non_finite_tokens(token, row, line):
    text = "idx,g_re,g_im,hr_re,hr_im\n" + row.format(token)
    with pytest.raises(ChannelFormatError) as err:
        read_channel_csv(io.StringIO(text))
    assert f"line {line}" in str(err.value)
    assert "finite" in str(err.value)


def test_channel_csv_bad_header():
    with pytest.raises(ChannelFormatError):
        read_channel_csv(io.StringIO("a,b\n"))


def test_channel_csv_no_elements():
    text = "idx,g_re,g_im,hr_re,hr_im\nhd,0.0,0.0,1.0,1.0\n"
    with pytest.raises(ChannelFormatError):
        read_channel_csv(io.StringIO(text))


def test_channel_csv_wrong_index():
    text = "idx,g_re,g_im,hr_re,hr_im\n2,1.0,0.0,1.0,0.0\nhd,0.0,0.0,1.0,1.0\n"
    with pytest.raises(ChannelFormatError) as err:
        read_channel_csv(io.StringIO(text))
    assert "line 2" in str(err.value)


def test_channel_csv_footer_not_last():
    text = ("idx,g_re,g_im,hr_re,hr_im\n"
            "1,1.0,0.0,1.0,0.0\n"
            "hd,0.0,0.0,1.0,1.0\n"
            "2,1.0,0.0,1.0,0.0\n")
    with pytest.raises(ChannelFormatError):
        read_channel_csv(io.StringIO(text))
