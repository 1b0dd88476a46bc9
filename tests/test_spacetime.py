import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import (
    AutomorphismCert,
    apply_to_config,
    certify_automorphism,
    compose,
    detect_period_vectors,
    enumerate_automorphisms,
    power_is_shift,
    rect_complexity,
    spacetime_window,
)
from shiftlab.spacetime import SpaceTimeWindow, window_to_json
from shiftlab.words import Configuration

from oracles import period_vectors_oracle, spacetime_window_oracle


@pytest.fixture(scope="module")
def full2_certs(systems):
    spec = systems["full2"].spec
    codes = systems["full2"].codes
    return {name: certify_automorphism(spec, codes[name], 1).cert
            for name in ("identity", "shift", "flip")}


@pytest.fixture(scope="module")
def hallway_cert_a(systems):
    hallway = systems["hallway"]
    return certify_automorphism(hallway.spec, hallway.codes["phi_a"], 1).cert


def test_certificate_on_another_subshift_is_rejected(systems, full2_certs):
    # the full2 flip maps 0^inf to 1^inf, which the golden mean does not contain
    golden, flip = systems["golden_mean"].spec, full2_certs["flip"]
    probe = Configuration(("0",), ("1",), ("0",))
    calls = (lambda: spacetime_window(golden, flip, Configuration.constant("0"), 3, 3),
             lambda: power_is_shift(golden, flip, [probe], 2, 2))
    for call in calls:
        with pytest.raises(ValueError, match="code lives on a different subshift"):
            call()


def test_identity_rows_repeat_base(systems, full2_certs):
    probe = systems["full2"].probes["alt"]
    window = spacetime_window(systems["full2"].spec, full2_certs["identity"],
                              probe, 6, 4)
    base = probe.window(window.col0, 6)
    assert all(row == base for row in window.grid)


def test_shift_moves_marker_left(systems, full2_certs):
    probe = systems["full2"].probes["one"]
    window = spacetime_window(systems["full2"].spec, full2_certs["shift"],
                              probe, 5, 3)
    for j in range(3):
        assert window.grid[j][-j - window.col0] == "1"


def test_hallway_walker_advances_to_nail(systems, hallway_cert_a):
    hallway = systems["hallway"]
    window = spacetime_window(hallway.spec, hallway_cert_a,
                              hallway.probes["x3"], 9, 4)
    for j in range(3):
        assert window.grid[j][-3 + j - window.col0] == "p"
        assert window.grid[j][-window.col0] == "1"
    assert window.grid[3][-window.col0] == "ap"


def test_window_rejects_foreign_point(systems, full2_certs):
    bad = Configuration.periodic(("0", "1"))
    with pytest.raises(ValueError):
        spacetime_window(systems["at_most_one_1"].spec, full2_certs["identity"],
                         bad, 4, 4)
    one = systems["at_most_one_1"]
    ident = certify_automorphism(one.spec, one.codes["identity"], 0).cert
    with pytest.raises(ValueError, match="^base configuration not in the subshift$"):
        spacetime_window(one.spec, ident, bad, 4, 4)
    for width, height in ((0, 4), (4, 0)):
        with pytest.raises(ValueError, match="^width and height must be >= 1$"):
            spacetime_window(one.spec, ident, one.probes["one"], width, height)


def test_eta_identity_cross_check(systems, full2_certs):
    spec = systems["full2"].spec
    cert = full2_certs["shift"]
    probe = systems["full2"].probes["alt"]
    window = spacetime_window(spec, cert, probe, 9, 6)
    rng = random.Random(5)
    for _ in range(20):
        i = rng.randrange(window.col0, window.col0 + 9)
        j = rng.randrange(0, 6)
        point = probe.shift(i)
        for _ in range(j):
            point = apply_to_config(cert.code, point)
        assert window.grid[j][i - window.col0] == point.get(0)


_INVERSE = {"phi_a": "phi_a_inv", "phi_b": "phi_b_inv",
            "phi_a_inv": "phi_a", "phi_b_inv": "phi_b"}


@settings(max_examples=200)
@given(st.data())
def test_window_matches_the_point_per_row_oracle(systems, data):
    # walk products of range 0-3 on marker points of the hallway: sliding
    # one word of row 0's light cone gives the grid of building each row
    # as a whole point
    hallway = systems["hallway"]
    walk = data.draw(st.lists(st.sampled_from(sorted(_INVERSE)), max_size=3))
    code, inverse = hallway.codes["identity"], hallway.codes["identity"]
    for name in walk:
        code = compose(code, hallway.codes[name])
        inverse = compose(hallway.codes[_INVERSE[name]], inverse)
    family = data.draw(st.sampled_from(((),) + hallway.spec.families))
    cells = data.draw(st.lists(st.integers(-12, 12), min_size=len(family),
                               max_size=len(family), unique=True))
    probe = Configuration.from_markers("0", dict(zip(cells, family)))
    width, height = data.draw(st.integers(1, 16)), data.draw(st.integers(1, 9))
    cert = AutomorphismCert(code, inverse, code.radius)
    window = spacetime_window(hallway.spec, cert, probe, width, height)
    assert window == spacetime_window_oracle(code, probe, width, height)


def test_rect_complexity_examples(systems, full2_certs):
    spec = systems["full2"].spec
    alt = systems["full2"].probes["alt"]
    ident_window = spacetime_window(spec, full2_certs["identity"], alt, 8, 8)
    assert rect_complexity(ident_window, 2, 2) == 2
    shift_window = spacetime_window(spec, full2_certs["shift"], alt, 14, 14)
    for n in range(1, 7):
        for k in range(1, 7):
            assert rect_complexity(shift_window, n, k) == 2
    zero_window = spacetime_window(spec, full2_certs["identity"],
                                   systems["full2"].probes["zero"], 6, 6)
    assert rect_complexity(zero_window, 3, 2) == 1
    for n, k in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="^rectangle sides must be >= 1$"):
            rect_complexity(zero_window, n, k)
    for n, k in ((7, 2), (2, 7)):
        with pytest.raises(ValueError, match="^rectangle exceeds the window$"):
            rect_complexity(zero_window, n, k)


def test_rect_complexity_monotone(systems, full2_certs):
    window = spacetime_window(systems["full2"].spec, full2_certs["shift"],
                              systems["full2"].probes["one"], 8, 8)
    for n in range(1, 4):
        for k in range(1, 4):
            assert rect_complexity(window, n, k) <= rect_complexity(window, n + 1, k)
            assert rect_complexity(window, n, k) <= rect_complexity(window, n, k + 1)


def test_period_vectors_shift(systems, full2_certs):
    spec = systems["full2"].spec
    for probe in systems["full2"].probes.values():
        window = spacetime_window(spec, full2_certs["shift"], probe, 9, 9)
        assert (1, -1) in detect_period_vectors(window, 2)


def test_period_vectors_identity(systems, full2_certs):
    window = spacetime_window(systems["full2"].spec, full2_certs["identity"],
                              systems["full2"].probes["alt"], 9, 9)
    vectors = detect_period_vectors(window, 2)
    assert (0, 1) in vectors
    assert (2, 0) in vectors
    with pytest.raises(ValueError, match="^bound must be >= 1$"):
        detect_period_vectors(window, 0)
    with pytest.raises(ValueError, match="^bound must be smaller than both window sides$"):
        detect_period_vectors(window, 9)


def test_period_vectors_break_at_nail(systems, hallway_cert_a):
    hallway = systems["hallway"]
    window = spacetime_window(hallway.spec, hallway_cert_a,
                              hallway.probes["x3"], 9, 4)
    assert detect_period_vectors(window, 3) == ()


@settings(max_examples=150)
@given(st.data())
def test_period_vectors_match_the_cell_oracle(data):
    # a grid repeating a random tile has period vectors; one changed cell
    # breaks some of them
    width, height = data.draw(st.integers(2, 9)), data.draw(st.integers(2, 6))
    tile_w, tile_h = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    tile = data.draw(st.lists(st.lists(st.sampled_from("ab"), min_size=tile_w, max_size=tile_w),
                              min_size=tile_h, max_size=tile_h))
    grid = [[tile[j % tile_h][(i + j) % tile_w] for i in range(width)] for j in range(height)]
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1))
        grid[j][i] = "c"
    window = SpaceTimeWindow(width, height, 0, tuple(map(tuple, grid)))
    bound = data.draw(st.integers(1, min(width, height) - 1))
    assert detect_period_vectors(window, bound) == period_vectors_oracle(window, bound)


def test_periodicity_caps_rectangles(systems, full2_certs):
    # a consistent vector identifies rectangle positions along its orbit:
    # on a (2n)x(2k) window the (n+1)(k+1) positions lose one per pair
    # (p, p+v) inside the grid, an exact cap on distinct rectangles
    spec = systems["full2"].spec
    for name in ("identity", "shift"):
        for probe_name in ("one", "alt", "zero"):
            probe = systems["full2"].probes[probe_name]
            for n in range(1, 4):
                for k in range(1, 4):
                    window = spacetime_window(spec, full2_certs[name], probe,
                                              2 * n, 2 * k)
                    bound = min(2 * n, 2 * k) - 1
                    if bound < 1:
                        continue
                    for v1, v2 in detect_period_vectors(window, bound):
                        identified = (max(0, n + 1 - abs(v1))
                                      * max(0, k + 1 - abs(v2)))
                        cap = (n + 1) * (k + 1) - identified
                        assert rect_complexity(window, n, k) <= cap


def test_power_is_shift_rejects_probe_outside_the_subshift(systems):
    one = systems["at_most_one_1"]
    ident = certify_automorphism(one.spec, one.codes["identity"], 0).cert
    two_ones = Configuration.from_markers("0", {0: "1", 2: "1"})
    with pytest.raises(ValueError, match="^probe not in the subshift$"):
        power_is_shift(one.spec, ident, [two_ones], 2, 2)


def test_power_is_shift_sigma(systems, full2_certs):
    report = power_is_shift(systems["full2"].spec, full2_certs["shift"],
                            [systems["full2"].probes["one"]], 3, 3)
    assert report.exponent == 1
    assert report.shifts == (1,)


def test_power_is_shift_on_sparse_automorphisms(systems):
    one = systems["at_most_one_1"]
    for cert in enumerate_automorphisms(one.spec, 1):
        report = power_is_shift(one.spec, cert, [one.probes["one"]], 4, 6)
        assert report is not None
        assert report.exponent <= 4
        assert all(abs(t) <= 6 for t in report.shifts)


def test_power_is_shift_hallway_walk_fails(systems, hallway_cert_a):
    hallway = systems["hallway"]
    probes = [hallway.probes[f"x{i}"] for i in range(1, 5)]
    assert power_is_shift(hallway.spec, hallway_cert_a, probes, 6, 10) is None


def test_power_is_shift_rejects_periodic_probe(systems, full2_certs):
    with pytest.raises(ValueError):
        power_is_shift(systems["full2"].spec, full2_certs["shift"],
                       [systems["full2"].probes["zero"]], 2, 2)


def test_grid_exports(systems, full2_certs):
    window = spacetime_window(systems["full2"].spec, full2_certs["shift"],
                              systems["full2"].probes["one"], 5, 2)
    blob = window_to_json(window)
    assert blob["width"] == 5 and len(blob["grid"]) == 2
