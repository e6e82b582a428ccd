import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittaker2d import (
    InterlaceBounds,
    ModelConfig,
    PathBundle,
    SamplePath,
    TimeGrid,
    Topology,
    TriangularConfiguration,
    TriIndex,
    bundle_from_csv,
    interlacing_defect,
    tri_indices,
    tri_offset,
    tri_size,
)
from whittaker2d.model import (
    _float_rows,
    _write_csv,
    bundle_to_csv,
    configuration_from_csv,
    configuration_to_csv,
    validate_initial_entries,
)


def test_tri_index_barriers():
    # rows (1,1), (2,1), (2,2), (3,1), (3,2), (3,3): (n, k) is bounded
    # above by (n-1, k-1) and below by (n-1, k); edges lose one barrier each
    tri = Topology.triangle(3)
    np.testing.assert_array_equal(tri.upper, [-1, -1, 0, -1, 1, 2])
    np.testing.assert_array_equal(tri.lower, [-1, 0, -1, 1, 2, -1])


def test_tri_layout_level_major():
    assert tri_size(3) == 6
    idx = tri_indices(3)
    assert idx == [
        TriIndex(1, 1),
        TriIndex(2, 1),
        TriIndex(2, 2),
        TriIndex(3, 1),
        TriIndex(3, 2),
        TriIndex(3, 3),
    ]
    for i, (n, k) in enumerate(idx):
        assert tri_offset(n, k) == i


def test_topology_triangle_relations_order():
    # for each (n, k) in level-major order: the upper barrier above the
    # particle, then the particle above its lower barrier
    expect = []
    for n in range(2, 5):
        for k in range(1, n + 1):
            if k >= 2:
                expect.append(((n - 1, k - 1), (n, k)))
            if k <= n - 1:
                expect.append(((n, k), (n - 1, k)))
    idx = tri_indices(4)
    got = [(idx[hi], idx[lo]) for hi, lo in Topology.triangle(4).relations]
    assert got == expect
    assert Topology.triangle(4) is Topology.triangle(4)


def test_topology_restrict_renumbers_and_drops_barriers():
    # T0, T+, T-, T: the four-particle sub-graph of the N=3 triangle
    four = Topology.triangle(3).restrict([0, 1, 2, 4])
    np.testing.assert_array_equal(four.lower, [-1, 0, -1, 2])
    np.testing.assert_array_equal(four.upper, [-1, -1, 0, 1])
    with pytest.raises(ValueError):
        Topology([1], [-1])


def test_tri_index_validate():
    with pytest.raises(ValueError):
        TriIndex(2, 3).validate(3)
    with pytest.raises(ValueError):
        TriIndex(4, 1).validate(3)


def test_time_grid():
    g = TimeGrid(0.0, 1.0, 4)
    assert g.dt == 0.25
    assert g.npoints == 5
    np.testing.assert_allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(0.5, 0.5, 1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    # a fractional step count would give a fractional npoints
    for steps in [2.5, 4.0, np.float64(4.0)]:
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(0.0, 1.0, steps)
    assert TimeGrid(0.0, 1.0, np.int64(4)) == g


def test_time_grid_from_dt():
    assert TimeGrid.from_dt(0.0, 1.0, 1e-4) == TimeGrid(0.0, 1.0, 10000)
    assert TimeGrid.from_dt(0.25, 0.75, 0.125) == TimeGrid(0.25, 0.75, 4)
    # dt must be positive, finite, and divide the interval
    for dt in [0.0, -0.1, np.nan, np.inf, 5e-324, 0.3, 2.0]:
        with pytest.raises(ValueError, match="dt"):
            TimeGrid.from_dt(0.0, 1.0, dt)


def test_sample_path_length_check():
    g = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SamplePath(g, np.zeros(4))
    with pytest.raises(ValueError):
        SamplePath(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))


def test_validate_initial_examples():
    # all zeros: equalities allowed
    assert validate_initial_entries(2, np.zeros(3)) == []
    # strict interlacing
    assert validate_initial_entries(2, np.array([0.0, 1.0, -1.0])) == []
    # T_2_1 = -1 sits below T_1_1 = 0: that relation is broken with defect
    # -1; T_1_1 - T_2_2 = 0 still holds because the order is non-strict
    report = validate_initial_entries(2, np.array([0.0, -1.0, 0.0]))
    assert len(report) == 1
    hi, lo, defect = report[0]
    assert (hi, lo) == (TriIndex(2, 1), TriIndex(1, 1))
    assert defect == -1.0


def test_validate_initial_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        e = np.sort(rng.normal(size=3))[::-1]  # T_2_1 >= T_1_1 >= T_2_2
        entries = np.array([e[1], e[0], e[2]])
        assert validate_initial_entries(2, entries) == []
        assert validate_initial_entries(2, entries + 17.3) == []


def test_model_config_rejects_bad_initial():
    bad = TriangularConfiguration(2, np.array([0.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        ModelConfig(N=2, gamma=8.0, initial=bad)
    with pytest.raises(ValueError):
        ModelConfig(N=1, gamma=0.0, initial=TriangularConfiguration.zeros(1))
    ok = ModelConfig(N=2, gamma=8.0, initial=TriangularConfiguration.zeros(2))
    assert validate_initial_entries(ok.N, ok.initial.entries) == []


def test_model_config_cap_is_keyword_only():
    # a fourth positional argument binds to no field, not to the cap
    zero = TriangularConfiguration.zeros(1)
    with pytest.raises(TypeError):
        ModelConfig(1, 8.0, zero, np.array([0.3]))
    assert ModelConfig(1, 8.0, zero, drift_cap=2.0).drift_cap == 2.0


def test_levels_below_one_rejected():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="level"):
        TriangularConfiguration.zeros(0)
    with pytest.raises(ValueError, match="level"):
        PathBundle(0, grid, np.zeros((0, 5)))
    # a CSV with only a t column holds no particle
    with pytest.raises(ValueError, match="level"):
        bundle_from_csv(io.StringIO("t\n0.0\n0.5\n1.0\n"))


def test_interlace_bounds():
    b = InterlaceBounds.from_gamma(4.0)
    assert b.f == 0.5
    assert b.g == 1.0
    assert b.g_level(1) == 1.0
    assert b.g_level(3) == 16.0  # 4^(n-1) growth
    assert b.f_level(2) == 2.0
    assert InterlaceBounds(f=0.3).g == 0.6  # g = 2 f by construction
    with pytest.raises(ValueError):
        InterlaceBounds(f=0.0)


def test_interlacing_defect_constant_bundle():
    grid = TimeGrid(0.0, 1.0, 10)
    cfg = TriangularConfiguration(2, np.array([0.0, 1.0, -1.0]))
    bundle = PathBundle.constant(2, grid, cfg)
    report = interlacing_defect(bundle, 0.1)
    assert report.all_hold
    assert all(d >= 0 for d in report.defects.values())


def test_interlacing_defect_within_margin():
    # T_2_1 sits 0.05 below T_1_1: defect -0.05, still above margin -0.1
    grid = TimeGrid(0.0, 1.0, 10)
    vals = np.zeros((3, 11))
    vals[1] -= 0.05
    bundle = PathBundle(2, grid, vals)
    report = interlacing_defect(bundle, 0.1)
    assert report.all_hold
    assert min(report.defects.values()) == pytest.approx(-0.05)
    tight = interlacing_defect(bundle, 0.01)
    assert not tight.all_hold


def test_interlacing_defect_margin_monotonicity():
    rng = np.random.default_rng(3)
    grid = TimeGrid(0.0, 1.0, 32)
    for _ in range(10):
        bundle = PathBundle(3, grid, rng.normal(0, 0.3, (6, 33)))
        r_small = interlacing_defect(bundle, 0.05)
        r_big = interlacing_defect(bundle, 0.5)
        for key, held in r_small.a_flags.items():
            if held:
                assert r_big.a_flags[key]


def test_a_event_implies_c_event():
    # with 2 f_n = g_n the pairwise margins force the same-level gap
    rng = np.random.default_rng(4)
    grid = TimeGrid(0.0, 1.0, 64)
    bounds = InterlaceBounds.from_gamma(16.0)
    hits = 0
    for _ in range(50):
        bundle = PathBundle(2, grid, rng.normal(0, 0.05, (3, 65)))
        report = interlacing_defect(bundle, bounds)
        for n, held in report.a_flags.items():
            if held:
                hits += 1
                assert report.c_flags[n]
    assert hits > 0


def test_defect_matches_brute_scan():
    rng = np.random.default_rng(5)
    grid = TimeGrid(0.0, 1.0, 40)
    bundle = PathBundle(3, grid, rng.normal(0, 0.5, (6, 41)))
    report = interlacing_defect(bundle, 0.1)
    for (hi, lo), defect in report.defects.items():
        vals_hi = bundle.path(hi[0], hi[1]).values
        vals_lo = bundle.path(lo[0], lo[1]).values
        brute = min(
            vals_hi[i] - vals_lo[i] for i in range(grid.npoints)
        )
        assert defect == pytest.approx(brute, abs=0)


def test_bundle_csv_round_trip():
    rng = np.random.default_rng(6)
    grid = TimeGrid(0.25, 0.75, 8)
    bundle = PathBundle(2, grid, rng.normal(size=(3, 9)))
    buf = io.StringIO()
    bundle_to_csv(buf, bundle, comments=["seed=1 replicate=0"])
    text = buf.getvalue()
    assert text.splitlines()[1] == "t,T_1_1,T_2_1,T_2_2"
    back = bundle_from_csv(io.StringIO(text))
    assert back.N == 2
    assert back.grid == bundle.grid
    np.testing.assert_array_equal(back.values, bundle.values)


def test_bundle_csv_rejects_nonuniform_grid():
    text = "t,T_1_1\n0.0,1.0\n0.1,1.0\n0.5,1.0\n"
    with pytest.raises(ValueError):
        bundle_from_csv(io.StringIO(text))


def test_bundle_csv_rejects_bad_column_count():
    text = "t,T_1_1,T_2_1\n0.0,1.0,1.0\n0.5,1.0,1.0\n"
    with pytest.raises(ValueError):
        bundle_from_csv(io.StringIO(text))


def test_bundle_csv_bytes_are_per_value_repr():
    # the writer formats every value as repr(float(v)), one row per point
    grid = TimeGrid(0.0, 1.0, 4)
    values = np.array([[-0.0, 5e-324, 1e300, 0.1, 1.0],
                       [1.0, 0.1, -1e300, -5e-324, 0.0],
                       [1 / 3, -0.0, 2.5e-8, 7.0, -0.1]])
    bundle = PathBundle(2, grid, values)
    buf = io.StringIO()
    bundle_to_csv(buf, bundle, comments=["c"])
    want = "# c\nt,T_1_1,T_2_1,T_2_2\n" + "".join(
        ",".join([repr(float(grid.times[i]))]
                 + [repr(float(v)) for v in values[:, i]]) + "\n"
        for i in range(grid.npoints)
    )
    assert buf.getvalue() == want
    back = bundle_from_csv(io.StringIO(want))
    assert back.values.tobytes() == bundle.values.tobytes()


def test_bundle_csv_round_trip_skips_blank_and_comment_lines():
    rng = np.random.default_rng(7)
    grid = TimeGrid(0.0, 0.5, 6)
    bundle = PathBundle(3, grid, rng.normal(size=(6, 7)))
    buf = io.StringIO()
    bundle_to_csv(buf, bundle)
    lines = buf.getvalue().splitlines()
    spaced = []
    for i, line in enumerate(lines):
        spaced += [line, "", "# between rows"] if i % 2 else [line, "  "]
    back = bundle_from_csv(io.StringIO("\n".join(spaced) + "\n"))
    assert back.grid == bundle.grid
    np.testing.assert_array_equal(back.values, bundle.values)


@pytest.mark.parametrize(
    "row, message",
    [("0.5,1.0,2.0", "line 4: 3 fields, expected 2"),
     ("0.5,x", "line 4: could not convert string to float: 'x'"),
     ("0.5,", "line 4: could not convert string to float: ''"),
     # float() reads these two, numpy's C reader does not
     ("0.5,1_000", "line 4: could not convert string to float: '1_000'"),
     ("0.5,\uff11", "line 4: could not convert string to float: '\uff11'")],
    ids=["ragged", "non-numeric", "empty-field", "underscore", "full-width"],
)
def test_bundle_csv_names_the_malformed_line(row, message):
    text = f"# comment\nt,T_1_1\n0.0,1.0\n{row}\n\n1.0,1.0\n"
    with pytest.raises(ValueError) as exc:
        bundle_from_csv(io.StringIO(text))
    assert str(exc.value) == message


def test_bundle_csv_fields_read_as_float_bit_for_bit():
    fields = ["inf", "-inf", "nan", "-nan", "-0.0", "5e-324",
              "1.7976931348623157e308", "1e400", "0.12345678901234567",
              "-9.8765432109876543e-7", " 2.5", "-0.25 ", " nan "]
    times = np.linspace(0.0, 1.0, len(fields)).tolist()
    text = "t,T_1_1\n" + "".join(f"{t!r},{x}\n" for t, x in zip(times, fields))
    # a bundle holds finite values only, so read the table beneath it
    header, data = _float_rows(io.StringIO(text))
    assert header == ["t", "T_1_1"]
    want = np.array([float(x) for x in fields])
    assert data[:, 1].tobytes() == want.tobytes()
    assert np.signbit(data[3, 1])  # -nan keeps its sign


def test_bundle_csv_short_rows_fail_on_the_first_data_line():
    # every data row one field short: the rows agree on a width, the wrong one
    text = "# comment\nt,T_1_1,T_2_1,T_2_2\n0.0,1.0,1.0\n1.0,1.0,1.0\n"
    with pytest.raises(ValueError, match="^line 3: 3 fields, expected 4$"):
        bundle_from_csv(io.StringIO(text))


@pytest.mark.parametrize("rows", [
    [["T_1_1", 3, True, -0.0], ["x", -7, False, 5e-324],
     ["y", 0, True, float("nan")], ["z", 10**20, False, float("inf")],
     ["w", 1, False, -float("inf")], ["v", 2, True, 0.1]],
    [],
], ids=["mixed", "no-rows"])
def test_write_csv_matches_a_per_row_join(rows):
    buf = io.StringIO()
    _write_csv(buf, "name,count,flag,value", iter(rows), ["c=1", "d"],
               ["total=2"])
    want = "# c=1\n# d\nname,count,flag,value\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in rows) + "# total=2\n"
    assert buf.getvalue() == want


def test_configuration_csv_round_trip():
    cfg = TriangularConfiguration(2, np.array([0.5, 1.25, -0.125]))
    buf = io.StringIO()
    configuration_to_csv(buf, cfg)
    back = configuration_from_csv(io.StringIO(buf.getvalue()))
    assert back.N == 2
    np.testing.assert_array_equal(back.entries, cfg.entries)


def test_configuration_csv_rejects_other_headers():
    # a bundle-like header has a triangular count of fields, but its first
    # column is t, which would be read as T_1_1
    with pytest.raises(ValueError, match=r"unexpected header \['t', 'T_1_1', "
                                         r"'T_2_1'\]"):
        configuration_from_csv(io.StringIO("t,T_1_1,T_2_1\n0.0,0.5,0.7\n"))
    with pytest.raises(ValueError, match="unexpected header"):
        configuration_from_csv(io.StringIO("T_1_1,T_2_2,T_2_1\n0,1,2\n"))


def test_configuration_csv_rejects_extra_rows():
    with pytest.raises(ValueError, match="found 2 data rows"):
        configuration_from_csv(io.StringIO("T_1_1\n0.5\n0.7\n"))
    with pytest.raises(ValueError, match="found 0 data rows"):
        configuration_from_csv(io.StringIO("T_1_1\n"))


def test_bundle_slices():
    grid = TimeGrid(0.0, 1.0, 2)
    start = TriangularConfiguration(2, np.array([0.0, 1.0, -1.0]))
    end = TriangularConfiguration(2, np.array([2.0, 3.0, 1.0]))
    bundle = PathBundle.linear(2, grid, start, end)
    np.testing.assert_array_equal(bundle.initial.entries, start.entries)
    np.testing.assert_array_equal(bundle.at_time(2).entries, end.entries)
    np.testing.assert_allclose(
        bundle.at_time(1).entries, (start.entries + end.entries) / 2
    )
    assert bundle.path(2, 2).values[0] == -1.0


@settings(max_examples=30, deadline=None)
@given(
    shift=st.floats(-100, 100, allow_nan=False),
    seed=st.integers(0, 2**16),
)
def test_interlacing_relations_are_shift_invariant(shift, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.0, 1.0, 8)
    bundle = PathBundle(2, grid, rng.normal(0, 0.5, (3, 9)))
    shifted = PathBundle(2, grid, bundle.values + shift)
    r1 = interlacing_defect(bundle, 0.1)
    r2 = interlacing_defect(shifted, 0.1)
    for key in r1.defects:
        assert r1.defects[key] == pytest.approx(r2.defects[key], abs=1e-9)
