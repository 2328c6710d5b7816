import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qauction import cli


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    comments, header, rows = {}, None, []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                comments[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return comments, header, rows


def column(header, rows, name, cast=float):
    idx = header.index(name)
    return [cast(r[idx]) for r in rows]


class TestConverge:
    def test_row_count_and_convergence(self, capsys):
        code, out = run_cli(["converge", "--bids", "10,11", "--steps", "20",
                             "--delta", "1.5"], capsys)
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["s", "f", "success_prob", "leakage"]
        assert len(rows) == 21
        success = column(header, rows, "success_prob")
        assert success[0] == pytest.approx(0.25)
        assert success[-1] >= 0.9
        assert comments["winner"] == "0011"

    def test_single_step(self, capsys):
        code, out = run_cli(["converge", "--steps", "1"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 2

    def test_tie_exits_2(self, capsys):
        code = cli.main(["converge", "--bids", "10,10"])
        captured = capsys.readouterr()
        assert code == 2
        assert "tied" in captured.err

    def test_auto_delta(self, capsys):
        code, out = run_cli(["converge", "--steps", "16", "--delta", "auto"], capsys)
        assert code == 0
        comments, _, _ = parse_csv(out)
        assert float(comments["delta"]) == pytest.approx(0.25)

    def test_locked_defense(self, capsys):
        code, out = run_cli(["converge", "--bids", "11,10", "--defense", "lock",
                             "--alpha1", "0.9", "--alpha2", "0.7"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert max(column(header, rows, "leakage")) <= 1e-9

    def test_lock_needs_alphas(self, capsys):
        code = cli.main(["converge", "--defense", "lock"])
        assert code == 1
        assert "alpha" in capsys.readouterr().err


class TestVariants:
    def test_initial_row_and_ordering(self, capsys):
        code, out = run_cli(["variants", "--bids", "10,11", "--steps", "40",
                             "--delta", "1"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["s", "f", "exact", "zeroth", "first"]
        assert len(rows) == 41
        first_row = rows[0]
        assert [float(x) for x in first_row[2:]] == [0.25, 0.25, 0.25]
        # the symmetric splitting converges faster: it dominates the plain
        # splitting at most steps (though not at the very last one)
        zeroth = column(header, rows, "zeroth")
        first = column(header, rows, "first")
        dominated = sum(1 for z, fo in zip(zeroth, first) if fo >= z)
        assert dominated > len(rows) * 0.75

    def test_small_step_agreement(self, capsys):
        # keep total time S*delta = 40 while shrinking delta; all three
        # integrators land on the same curve
        code, out = run_cli(["variants", "--bids", "10,11", "--steps", "1600",
                             "--delta", "0.025"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        exact = np.array(column(header, rows, "exact"))
        zeroth = np.array(column(header, rows, "zeroth"))
        first = np.array(column(header, rows, "first"))
        assert np.max(np.abs(exact - zeroth)) <= 1e-3
        assert np.max(np.abs(exact - first)) <= 1e-3


class TestGap:
    def test_restricted_tracks(self, capsys):
        code, out = run_cli(["gap", "--bids", "10,11", "--steps", "20"], capsys)
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header[:2] == ["s", "f"]
        final = rows[-1]
        lams = [float(x) for x in final[2:6]]
        np.testing.assert_allclose(lams, [-3, -2, 0, 0], atol=1e-9)
        gaps = column(header, rows, "gap")
        assert min(gaps) > 0
        assert float(comments["g_min"]) == pytest.approx(min(gaps), rel=1e-9)

    def test_spurious_tracks(self, capsys):
        code, out = run_cli(["gap", "--bids", "10,11", "--table", "spurious"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        lams = [float(x) for x in rows[-1][2:6]]
        np.testing.assert_allclose(lams, [-5, -3, -2, 0], atol=1e-9)
        assert min(column(header, rows, "gap")) > 0

    def test_locked_tracks_shrink_gap(self, capsys):
        code, honest = run_cli(["gap", "--bids", "11,10"], capsys)
        assert code == 0
        code, locked = run_cli(["gap", "--bids", "11,10", "--defense", "lock",
                                "--alpha1", "0.9", "--alpha2", "0.7"], capsys)
        assert code == 0
        g_honest = float(parse_csv(honest)[0]["g_min"])
        g_locked = float(parse_csv(locked)[0]["g_min"])
        assert 0 < g_locked < g_honest

    def test_full_space_tracks(self, capsys):
        code, out = run_cli(["gap", "--bids", "10,11", "--restrict", "false"], capsys)
        assert code == 0
        _, header, _ = parse_csv(out)
        assert header[-1] == "gap"
        assert len(header) == 2 + 16 + 1


class TestAttack:
    def test_probe_columns_and_values(self, capsys):
        code, out = run_cli(["attack", "--attack", "probe_basis", "--bids", "10,11",
                             "--rounds", "5", "--trials", "4000"], capsys)
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["N", "basis_closed", "basis_mc", "povm_closed",
                          "povm_mc", "povm_mc_majority"]
        basis = column(header, rows, "basis_closed")
        assert basis[0] == 0.25
        assert basis[3] == 0.87890625
        p_e = float(comments["p_e_bidder0"])
        assert 0.1102 <= p_e <= 0.1122
        povm_closed = column(header, rows, "povm_closed")
        assert povm_closed[0] == pytest.approx((1 - p_e) ** 2, rel=1e-9)
        assert povm_closed[3] > 0.999

    def test_locked_counterparts(self, capsys):
        code, out = run_cli(["attack", "--attack", "probe_basis", "--bids", "11,10",
                             "--rounds", "4", "--trials", "2000", "--defense", "lock",
                             "--alpha1", "0.9", "--alpha2", "0.7"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        for name in ("basis_closed_lock", "basis_mc_lock", "povm_closed_lock",
                     "povm_mc_lock", "povm_mc_majority_lock"):
            assert name in header
        plain = column(header, rows, "basis_closed")
        locked = column(header, rows, "basis_closed_lock")
        assert all(lo < pl for lo, pl in zip(locked, plain))

    def test_full_lock_basis_column_is_zero(self, capsys):
        code, out = run_cli(["attack", "--attack", "probe_basis", "--bids", "10,11",
                             "--rounds", "4", "--trials", "1000", "--defense", "lock",
                             "--alpha1", "1", "--alpha2", "0.8"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert column(header, rows, "basis_mc_lock") == [0.0] * 4
        assert column(header, rows, "basis_closed_lock") == [0.0] * 4
        closed = np.array(column(header, rows, "povm_closed_lock"))
        mc = np.array(column(header, rows, "povm_mc_lock"))
        assert np.all(np.abs(mc - closed) <= 4 * np.sqrt(closed * (1 - closed) / 1000))

    def test_negative_seed_rejected(self, capsys):
        code = cli.main(["attack", "--attack", "probe_basis", "--bids", "10,11",
                         "--seed", "-1", "--rounds", "2", "--trials", "10"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "seed" in captured.err

    def test_spurious_curve(self, capsys):
        code, out = run_cli(["attack", "--attack", "spurious", "--bids", "10,11"], capsys)
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert comments["revealing"] == "1011"
        reveal = column(header, rows, "revealing_prob")
        assert reveal[0] == pytest.approx(0.25)
        assert reveal[-1] >= 0.9

    @staticmethod
    def _assert_collusion_hides_revealing(bids, capsys):
        code, out = run_cli(["attack", "--attack", "spurious", "--bids", bids,
                             "--defense", "collude"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert max(column(header, rows, "revealing_prob")) <= 1e-18

    def test_spurious_with_collusion(self, capsys):
        self._assert_collusion_hides_revealing("10,11", capsys)

    def test_spurious_with_collusion_second_bid_not_11(self, capsys):
        self._assert_collusion_hides_revealing("01,10", capsys)

    def test_spurious_rejects_other_widths(self, capsys):
        _rejected_in_one_line(["attack", "--attack", "spurious", "--bids", "101,110"], capsys,
                              "the spurious table is defined for two 2-qubit bidders")

    def test_requires_attack_value(self, capsys):
        assert cli.main(["attack"]) == 1


class TestPovmCommand:
    def test_report(self, capsys):
        code, out = run_cli(["povm"], capsys)
        assert code == 0
        lines = out.splitlines()
        p_e = float(next(l for l in lines if l.startswith("P_e")).split("=")[1])
        assert 0.1102 <= p_e <= 0.1122
        assert any(l.strip() == "optimality_check = true" for l in lines)


class TestCircuitVerify:
    def test_pass_and_fail(self, tmp_path, capsys):
        circuit = tmp_path / "bidder.txt"
        circuit.write_text("H q0\nCNOT q0 q1\n")
        code, out = run_cli(["circuit-verify", str(circuit), "bidder:11"], capsys)
        assert code == 0
        assert "result=pass" in out
        code, out = run_cli(["circuit-verify", str(circuit), "bidder:01"], capsys)
        assert code == 0
        assert "result=fail" in out

    def test_empty_circuit_fails_target(self, tmp_path, capsys):
        circuit = tmp_path / "empty.txt"
        circuit.write_text("")
        code, out = run_cli(["circuit-verify", str(circuit), "bidder:11"], capsys)
        assert code == 0
        assert "result=fail" in out

    def test_parse_error_exits_1(self, tmp_path, capsys):
        circuit = tmp_path / "bad.txt"
        circuit.write_text("WIBBLE q0\n")
        assert cli.main(["circuit-verify", str(circuit), "bidder:11"]) == 1

    def test_bad_number_in_target_exits_1(self, tmp_path, capsys):
        circuit = tmp_path / "d.txt"
        circuit.write_text("PHASE q0 1.5\n")
        assert cli.main(["circuit-verify", str(circuit), "D:abc,1"]) == 1
        assert cli.main(["circuit-verify", "--emit", "D:1.5,x,2"]) == 1
        assert "bad number" in capsys.readouterr().err
        assert cli.main(["circuit-verify", str(circuit), "D:inf,1,1"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_bad_bid_in_target_exits_1(self, tmp_path, capsys):
        circuit = tmp_path / "bidder.txt"
        circuit.write_text("H q0\nCNOT q0 q1\n")
        assert cli.main(["circuit-verify", str(circuit), "bidder:0x"]) == 1
        assert cli.main(["circuit-verify", "--emit", "collusion:10,0x"]) == 1
        assert "bad bid" in capsys.readouterr().err

    def test_generated_p_circuit(self, tmp_path, capsys):
        from qauction.circuits import build_P_circuit
        from qauction.protocol import AuctionConfig, build_first_price_table, pauli_z_expansion
        expansion = pauli_z_expansion(build_first_price_table(AuctionConfig(m=2, p=2)))
        text = build_P_circuit(expansion, 1.0, 0.5, 4).to_text()
        path = tmp_path / "p.txt"
        path.write_text(text)
        code, out = run_cli(["circuit-verify", str(path), "P:1,0.5"], capsys)
        assert code == 0
        assert "result=pass" in out
        distance = float(next(l for l in out.splitlines() if l.startswith("distance")).split("=")[1])
        assert distance <= 1e-9

    def test_mixing_circuit_with_width(self, tmp_path, capsys):
        from qauction.circuits import build_D_circuit
        path = tmp_path / "d.txt"
        path.write_text(build_D_circuit(1.5, 0.4, 4).to_text())
        code, out = run_cli(["circuit-verify", str(path), "D:1.5,0.4"], capsys)
        assert code == 0
        assert "result=pass" in out

    @pytest.mark.parametrize("text,args", [
        ("PHASE q0 nan\n", ["D:1,0.5,4"]),
        ("ROT q0 inf\n", ["D:1,0.5,1"]),
        (None, ["--emit", "D:1e308,10,2"]),
        ("PHASE q0 1\nPHASE q1 1\n", ["P:1e308,10"]),
    ], ids=["nan_phase", "inf_rotation", "emit_overflow", "target_overflow"])
    def test_non_finite_angles_rejected(self, tmp_path, capsys, text, args):
        if text is not None:
            circuit = tmp_path / "c.txt"
            circuit.write_text(text)
            args = [str(circuit)] + args
        target = tmp_path / "out.txt"
        assert cli.main(["circuit-verify", *args, "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not target.exists()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_emit_roundtrip(self, tmp_path, capsys):
        code, out = run_cli(["circuit-verify", "--emit", "collusion:10,11"], capsys)
        assert code == 0
        path = tmp_path / "collusion.txt"
        path.write_text(out)
        code, out = run_cli(["circuit-verify", str(path), "collusion:10,11"], capsys)
        assert code == 0
        assert "result=pass" in out

    def test_emit_roundtrip_at_width_cap(self, tmp_path, capsys):
        code, out = run_cli(["circuit-verify", "--emit", "D:1.5,0.3,12"], capsys)
        assert code == 0
        path = tmp_path / "d12.txt"
        path.write_text(out)
        # the circuit's 2^12 x 2^12 matrix is the one full-size array held:
        # the diagonal target stays a vector and PHASE gates scale in place
        tracemalloc.start()
        try:
            code, out = run_cli(["circuit-verify", str(path), "D:1.5,0.3,12"], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "result=pass" in out
        assert peak < 1.25 * 16 * 4**12

    @pytest.mark.parametrize("text,target,calls", [
        (None, "P:1,0.5", 1),
        ("PHASE q0 1\n", "D:1,1,3", 2),
    ], ids=["width_from_file", "target_widens"])
    def test_parses_circuit_file_once_unless_target_widens(self, tmp_path, monkeypatch,
                                                           text, target, calls):
        from qauction.circuits import build_P_circuit
        from qauction.protocol import AuctionConfig, build_first_price_table, pauli_z_expansion
        if text is None:
            expansion = pauli_z_expansion(build_first_price_table(AuctionConfig(m=2, p=2)))
            text = build_P_circuit(expansion, 1.0, 0.5, 4).to_text()
        path = tmp_path / "c.txt"
        path.write_text(text)
        seen = []
        parse = cli.circuits.parse_circuit
        monkeypatch.setattr(cli.circuits, "parse_circuit",
                            lambda *a, **kw: seen.append(kw) or parse(*a, **kw))
        assert cli.main(["circuit-verify", str(path), target]) == 0
        assert len(seen) == calls


def _refused_and_small(monkeypatch, targets):
    """Make each (module, name) raise if called, and keep the traced
    allocation peak of the test under 10 MB."""
    def refuse(*args, **kwargs):
        raise AssertionError("a refused builder was called")
    for module, name in targets:
        monkeypatch.setattr(module, name, refuse)
    tracemalloc.start()
    yield
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 10_000_000


def _rejected_in_one_line(args, capsys, needle):
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and needle in captured.err


class TestWidthCap:
    """Registers wider than cli.MAX_QUBITS are configuration errors, caught
    before any dense operator is built."""

    @pytest.fixture(autouse=True)
    def no_dense_builds(self, monkeypatch):
        yield from _refused_and_small(monkeypatch, (
            (cli, "_target_unitary"), (cli.circuits, "circuit_to_matrix"),
            (cli.protocol, "build_first_price_table"), (cli.protocol, "joint_bidding_operator")))

    @staticmethod
    def _rejected(args, capsys):
        _rejected_in_one_line(args, capsys, "cap of 12")

    def test_explicit_target_width(self, tmp_path, capsys):
        circuit = tmp_path / "d.txt"
        circuit.write_text("PHASE q0 1\n")
        self._rejected(["circuit-verify", str(circuit), "D:1,1,40"], capsys)
        self._rejected(["circuit-verify", "--emit", "D:1,1,40"], capsys)
        self._rejected(["circuit-verify", "--emit", "bidder:1111111111111"], capsys)

    def test_inferred_target_width(self, tmp_path, capsys):
        circuit = tmp_path / "wide.txt"
        circuit.write_text("PHASE q39 1\n")
        self._rejected(["circuit-verify", str(circuit), "D:1,1"], capsys)

    def test_total_bid_width(self, capsys):
        self._rejected(["converge", "--bids", "1111111,1111110"], capsys)
        self._rejected(["attack", "--attack", "spurious", "--bids", "1111,1110,1101,1100"], capsys)

    def test_width_at_cap_accepted(self, capsys):
        code, out = run_cli(["circuit-verify", "--emit", "D:1,1,12"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 12


class TestExactCap:
    """`exact` builds the dense 2^n x 2^n joint operator and U W U^dag, so an
    `exact` search wider than cli.MAX_EXACT_QUBITS is a configuration error,
    caught before any operator is built. Gap tracks are not searches and are
    not capped."""

    @pytest.fixture()
    def refused(self, monkeypatch):
        yield from _refused_and_small(monkeypatch, (
            (cli.protocol, "joint_bidding_operator"), (cli.protocol, "eig_hermitian")))

    @pytest.mark.parametrize("args", [
        ["variants", "--bids", "0110,1011,0011"],
        ["variants", "--bids", "1,1,1,1,1,1,1,1,1,1,1", "--steps", "1"],
        ["converge", "--variant", "exact", "--bids", "111111,111110"],
        ["converge", "--variant", "exact", "--defense", "lock", "--alpha1", "0.9",
         "--alpha2", "0.7", "--bids", "111111,111110"],
    ], ids=["variants_12", "variants_11", "converge_12", "locked_12"])
    def test_rejected(self, refused, args, capsys):
        _rejected_in_one_line(args, capsys, f"exceed its cap of {cli.MAX_EXACT_QUBITS}")

    def test_variants_at_cap_accepted(self, capsys):
        code, out = run_cli(["variants", "--bids", "11111,10101", "--steps", "1"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["s", "f", "exact", "zeroth", "first"] and len(rows) == 2

    def test_gap_not_capped(self, capsys):
        code, out = run_cli(["gap", "--variant", "exact", "--bids", "111111,111110",
                             "--steps", "2"], capsys)
        assert code == 0
        assert "g_min" in out


class TestMonteCarloCap:
    """A trials x rounds grid above cli.MAX_MC_CELLS is a configuration
    error, caught before any Monte Carlo array is allocated."""

    @pytest.fixture(autouse=True)
    def no_monte_carlo(self, monkeypatch):
        yield from _refused_and_small(monkeypatch, (
            (cli.adversary, "probe_attack_basis"), (cli.adversary, "povm_mc_curve"),
            (cli.adversary, "majority_mc_curve")))

    @pytest.mark.parametrize("grid", [
        ["--trials", "100000000000"],
        ["--rounds", "100000000000", "--trials", "10"],
        ["--trials", "9223372036854775808"],
        ["--trials", "100000001", "--rounds", "1"],
    ], ids=["trials_1e11", "rounds_1e11", "trials_2e63", "one_over_cap"])
    def test_rejected(self, grid, capsys):
        _rejected_in_one_line(["attack", "--attack", "probe_basis", *grid], capsys,
                              "Monte Carlo cap of 100000000 cells")

    @pytest.mark.parametrize("grid", [[], ["--trials", "100000000", "--rounds", "1"],
                                      ["--trials", "1", "--rounds", "100000000"]],
                             ids=["defaults", "trials_at_cap", "rounds_at_cap"])
    def test_at_or_below_cap_accepted(self, grid):
        args = cli.build_parser().parse_args(["attack", "--attack", "probe_basis", *grid])
        cfg = cli.resolve_config(args)
        assert cfg.trials * cfg.rounds <= cli.MAX_MC_CELLS


class TestConfigHandling:
    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("bids = 10,11\nsteps = 20\ndelta = 1.5\nseed = 7\n")
        code, out = run_cli(["converge", "--config", str(cfg), "--steps", "10"], capsys)
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert comments["steps"] == "10"
        assert len(rows) == 11

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("stepz = 20\n")
        assert cli.main(["converge", "--config", str(cfg)]) == 1

    def test_unknown_value_rejected(self, capsys):
        assert cli.main(["converge", "--variant", "third"]) == 1
        assert cli.main(["converge", "--bids", "00,11"]) == 1
        assert cli.main(["attack", "--attack", "probe_povm"]) == 1
        assert cli.main(["attack", "--attack", "probe_basis", "--jobs", "2"]) == 1
        assert cli.main(["povm", "--restarts", "3"]) == 1
        assert cli.main(["converge", "--table", "bogus"]) == 1
        assert cli.main(["converge", "--defense", "bogus"]) == 1

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("unknown keys are rejected. Keys:\n\n```\n", 1)[1].split("```", 1)[0]
        keys = [key for line in block.splitlines() for key in line.split("  ")[0].split(", ")]
        assert keys == list(cli._KEY_SPECS)

    def test_no_partial_output_on_error(self, tmp_path):
        target = tmp_path / "out.csv"
        code = cli.main(["converge", "--bids", "10,10", "--out", str(target)])
        assert code == 2
        assert not target.exists()

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_rejected(self, tmp_path, delta):
        target = tmp_path / "out.csv"
        assert cli.main(["converge", "--bids", "10,11", "--delta", delta, "--out", str(target)]) == 1
        assert not target.exists()

    def test_nan_state_exits_2_without_csv(self, tmp_path):
        target = tmp_path / "out.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["converge", "--bids", "10,11", "--delta", "1e308", "--out", str(target)])
        assert code == 2
        assert not target.exists()

    def test_overflowing_phases_give_one_line(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["converge", "--bids", "10,11", "--delta", "1e308", "--out", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "overflows" in err
        assert not target.exists()

    @pytest.mark.parametrize("args", [
        ["--bids", "10,11", "--rounds", "3", "--trials", "3000", "--seed", "5"],
        ["--bids", "10,11", "--rounds", "2", "--trials", "2000", "--seed", "11"],
        ["--bids", "11,10", "--defense", "lock", "--alpha1", "0.9", "--alpha2", "0.7",
         "--rounds", "3", "--trials", "2000", "--seed", "4"],
    ], ids=["seed5", "seed11", "lock_seed4"])
    def test_deterministic_bytes(self, tmp_path, args):
        # each curve draws from one stream seeded by (seed, rule), so a rerun gives the same bytes
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["attack", "--attack", "probe_basis", *args]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["converge", "variants", "gap", "attack", "povm"])
    def test_every_key_is_a_flag(self, command):
        parser = cli.build_parser()
        for key in cli._KEY_SPECS:
            assert getattr(parser.parse_args([command, f"--{key}", "v"]), key) == "v"

    def test_circuit_verify_has_no_scenario_flags(self, capsys):
        assert cli.main(["circuit-verify", "--emit", "bidder:11", "--steps", "3"]) == 1
        assert "unrecognized arguments: --steps 3" in capsys.readouterr().err


class TestParserReuse:
    # a success, a config error (exit 1), a simulation error (exit 2) and a
    # subparser argument error, then the success again
    CALLS = [["gap", "--bids", "10,11", "--steps", "4"],
             ["converge", "--variant", "third"],
             ["converge", "--bids", "10,10", "--steps", "3"],
             ["circuit-verify", "--emit", "bidder:11", "--steps", "3"],
             ["gap", "--bids", "10,11", "--steps", "4"]]

    def _call(self, argv, capsys):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_calls_in_a_row_match_fresh_calls(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli.build_parser.cache_clear()
            fresh.append(self._call(argv, capsys))
        assert [code for code, _, _ in fresh] == [0, 1, 2, 1, 0]
        parser = cli.build_parser()
        in_a_row = [self._call(argv, capsys) for argv in self.CALLS * 2]
        assert in_a_row == fresh * 2
        assert cli.build_parser() is parser
