import cmath
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dasris.model import (
    ChannelFormatError,
    ChannelParams,
    ChannelRealization,
    PhaseConfig,
    composite_phi,
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


def test_snr_db_values():
    # 10*log10(4/2) and 10*log10(4/1), computed with math.log10
    assert math.isclose(snr_db(4.0, 2.0), 3.010299956639812, rel_tol=1e-12)
    assert math.isclose(snr_db(4.0, 1.0), 6.020599913279624, rel_tol=1e-12)
    assert snr_db(0.0, 1.0) == float("-inf")
    with pytest.raises(ValueError):
        snr_db(1.0, 0.0)
    with pytest.raises(ValueError):
        snr_db(-1.0, 1.0)


def test_phase_config_validation():
    with pytest.raises(ValueError):
        PhaseConfig(np.array([1, 0, -1]))
    cfg = PhaseConfig(np.array([1, -1]))
    assert np.allclose(cfg.phases(), [0.0, np.pi])


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
