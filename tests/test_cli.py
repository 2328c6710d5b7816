import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import kron_circuit_matrix, phase_invariant_distance

from qauction import circuits, cli


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

    @pytest.mark.parametrize("command", ["converge", "gap"])
    def test_lock_needs_two_bidders(self, command, capsys):
        _rejected_in_one_line([command, "--bids", "11,10,01", "--defense", "lock",
                               "--alpha1", "0.9", "--alpha2", "0.7"], capsys,
                              "locking pair covers exactly two bidders")


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

    @pytest.mark.parametrize("restrict", ["true", "false"])
    @pytest.mark.parametrize("bids", ["1,1", "10,10"])
    def test_tie_exits_2_before_any_track(self, bids, restrict, monkeypatch, capsys):
        # as in converge and variants: a tied auction has no winner to track
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvalue_tracks was called")
        monkeypatch.setattr(cli.protocol, "eigenvalue_tracks", refuse)
        assert cli.main(["gap", "--bids", bids, "--restrict", restrict]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "tied among plausible allocations" in captured.err


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

    def test_locked_states_built_once(self, monkeypatch, capsys):
        # each (bid, alpha) lock is built once: the true states and their basis
        # distributions come from the candidate sets that the POVM solves use
        seen = []
        build = cli.adversary.locking_operator
        monkeypatch.setattr(cli.adversary, "locking_operator",
                            lambda bid, alpha: seen.append((str(bid), alpha)) or build(bid, alpha))
        assert cli.main(["attack", "--attack", "probe_basis", "--bids", "11,10", "--rounds", "2",
                         "--trials", "16", "--defense", "lock", "--alpha1", "0.9", "--alpha2", "0.7"]) == 0
        assert len(seen) == len(set(seen)) == 6

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
                              "attack=spurious is defined for two 2-qubit bidders")

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

    def test_collusion_reference_is_not_the_emitted_circuit(self, tmp_path, monkeypatch, capsys):
        # the reference is adversary.collusion_operator, so a wrong builder shows up as a fail
        monkeypatch.setattr(circuits, "build_collusion_circuit",
                            lambda bid1, bid2: circuits.Circuit(4, (circuits.hadamard(0),)))
        path = tmp_path / "collusion.txt"
        assert cli.main(["circuit-verify", "--emit", "collusion:10,11", "--out", str(path)]) == 0
        code, out = run_cli(["circuit-verify", str(path), "collusion:10,11"], capsys)
        assert code == 0 and out.splitlines()[-1] == "result=fail"

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

    @pytest.mark.parametrize("text,target", [
        (None, "P:1,0.5"),
        ("PHASE q0 1\n", "D:1,1,3"),
    ], ids=["width_from_file", "target_widens"])
    def test_parses_circuit_file_once_unless_target_widens(self, tmp_path, monkeypatch,
                                                           text, target):
        # once in both cases: the file is parsed at the target's width, or at
        # the width it implies when the target leaves it out
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
        assert len(seen) == 1


def _malformed_circuits():
    """Malformed circuit texts: per flat gate kind in the shape table, one
    qubit too few or too many and a missing, extra or non-finite angle;
    then bad CTRL0 heads, nesting one over the bound and unbalanced braces."""
    cases = {}
    for kind, (count, angled) in circuits._SHAPES.items():
        qubits = [f"q{q}" for q in range(count + 1)]
        angle = ["0.5"] if angled else []
        cases[f"{kind}_too_few"] = [kind, *qubits[:count - 1], *angle]
        cases[f"{kind}_too_many"] = [kind, *qubits, *angle]
        if angled:
            cases[f"{kind}_no_angle"] = [kind, *qubits[:count]]
            cases.update({f"{kind}_{bad}": [kind, *qubits[:count], bad] for bad in ("nan", "-inf")})
        else:
            cases[f"{kind}_angle"] = [kind, *qubits[:count], "0.5"]
    cases = {name: " ".join(toks) + "\n" for name, toks in cases.items()}
    deep = circuits.MAX_NESTING + 1
    cases.update({
        "ctrl0_no_control": "CTRL0 [] {\n}\n",
        "ctrl0_brackets_reversed": "CTRL0 ]q0[ {\n}\n",
        "ctrl0_no_brace": "CTRL0 [q0]\nH q1\n}\n",
        "nested_over_bound": "CTRL0 [q0] {\n" * deep + "H q1\n" + "}\n" * deep,
        "unopened_brace": "H q0\n}\n",
        "unclosed_brace": "CTRL0 [q0] {\nH q1\n",
    })
    return cases


MALFORMED = _malformed_circuits()


def _nested(depth: int, width: int) -> str:
    """`depth` CTRL0 blocks on q0 around an H on the last of `width` qubits."""
    return "CTRL0 [q0] {\n" * depth + f"H q{width - 1}\n" + "}\n" * depth


class TestMalformedCircuitFiles:
    """A malformed circuit file ends in exit 1 and one stderr line with the
    file's parse error, whether the target fixes the width (bidder:11) or
    leaves it to the file (D:1,1); never a traceback."""

    @pytest.mark.parametrize("target,width", [("bidder:11", 2), ("D:1,1", None)],
                             ids=["bidder", "D"])
    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_one_line_with_the_file_error(self, name, target, width, tmp_path, capsys):
        text = MALFORMED[name]
        with pytest.raises(circuits.CircuitParseError) as info:
            circuits.parse_circuit(text, width)
        path = tmp_path / "c.txt"
        path.write_text(text)
        assert cli.main(["circuit-verify", str(path), target]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {info.value}\n"
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("target", ["bidder:11", "D:1,1"])
    def test_nesting_at_the_bound_verifies(self, target, tmp_path, capsys):
        depth = circuits.MAX_NESTING
        path = tmp_path / "c.txt"
        path.write_text("CTRL0 [q0] {\n" * depth + "H q1\n" + "}\n" * depth)
        code, out = run_cli(["circuit-verify", str(path), target], capsys)
        assert code == 0 and "result=" in out

    @pytest.mark.parametrize("text", [
        _nested(circuits.MAX_NESTING, 4),
        "CTRL0 [q0] {\nCTRL0 [q1] {\nCTRL0 [q2] {\nH q3\n}\n}\n}\n",
    ], ids=["repeated_controls", "distinct_controls"])
    def test_nesting_verifies_as_its_kronecker_product(self, text, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text(text)
        code, out = run_cli(["circuit-verify", str(path), "D:1,0.5,4"], capsys)
        assert code == 0
        row, values, width = cli._parse_target("D:1,0.5,4")
        want = phase_invariant_distance(kron_circuit_matrix(circuits.parse_circuit(text, 4)),
                                        row.reference(*values, width))
        lines = out.splitlines()
        assert lines[1].startswith("distance=") and lines[-1] == "result=fail"  # H is not diagonal
        assert float(lines[1].removeprefix("distance=")) == pytest.approx(want, rel=1e-11)


# Valid arguments per circuit-verify target kind; every kind in cli._TARGETS needs some.
TARGET_ARGS = {
    "bidder": ["1", "011", "1011", "101"],
    "D": ["1.5,0.4,3", "1.5,0.3,4", "0.9,0.7,8"],
    "P": ["1,0.5", "1.3,0.4", "0.5,1"],
    "collusion": ["10,11", "01,11", "11,11", "11,01"],
}
# How a kind whose width is one of its arguments writes width w; P and
# collusion are fixed at 4 qubits.
WIDTH_ARGS = {"bidder": lambda w: "1" * w, "D": lambda w: f"1,1,{w}"}


def _bad_targets():
    """Per kind in cli._TARGETS: one argument more than it takes and, where
    it takes more than one, one fewer; a bad number or bid; widths 0, -2
    and 13 where the width is an argument. Then an unknown kind, a target
    with no colon, and collusion bids that are not two qubits each."""
    cases = {"unknown_kind": "Q:1", "no_colon": "bidder",
             "collusion_1_qubit_bid": "collusion:1,10", "collusion_3_qubit_bids": "collusion:100,011"}
    for kind, row in cli._TARGETS.items():
        args = TARGET_ARGS.get(kind, ["1"])[0].split(",")
        cases[f"{kind}_too_many"] = f"{kind}:" + ",".join(args + ["1"] * (max(row.counts) + 1 - len(args)))
        if min(row.counts) > 1:
            cases[f"{kind}_too_few"] = f"{kind}:" + ",".join(args[:min(row.counts) - 1])
        cases[f"{kind}_bad_value"] = f"{kind}:" + ",".join(["x", *args[1:]])
        for width in (0, -2, 13) if kind in WIDTH_ARGS else ():
            cases[f"{kind}_width_{width}"] = f"{kind}:{WIDTH_ARGS[kind](width)}"
    return cases


BAD_TARGETS = _bad_targets()


class TestEveryTargetKind:
    """Generated from cli._TARGETS: every kind's --emit output verifies as a
    pass, at its own width and (where the kind takes one argument fewer)
    with the width left to the file; every bad target is one stderr line
    and exit 1, with nothing on stdout and no --out file."""

    def test_every_kind_has_arguments(self):
        assert set(TARGET_ARGS) == set(cli._TARGETS)

    @pytest.mark.parametrize("target", [f"{kind}:{args}" for kind in cli._TARGETS
                                        for args in TARGET_ARGS.get(kind, [])])
    def test_emit_then_verify_passes(self, target, tmp_path, capsys):
        path = tmp_path / "c.txt"
        assert cli.main(["circuit-verify", "--emit", target, "--out", str(path)]) == 0
        kind, args = target.split(":")
        checked = [target]
        if args.count(",") in cli._TARGETS[kind].counts:  # one argument fewer: the width
            checked.append(target.rsplit(",", 1)[0])
        for verified in checked:
            code, out = run_cli(["circuit-verify", str(path), verified], capsys)
            lines = out.splitlines()
            assert code == 0 and lines[0] == f"target={verified}" and lines[-1] == "result=pass"

    @pytest.mark.parametrize("mode", ["emit", "verify"])
    @pytest.mark.parametrize("name", list(BAD_TARGETS))
    def test_bad_target_is_one_line(self, name, mode, tmp_path, capsys):
        circuit, out = tmp_path / "c.txt", tmp_path / "out.txt"
        circuit.write_text("H q0\n")
        head = ["--emit"] if mode == "emit" else [str(circuit)]
        assert cli.main(["circuit-verify", *head, BAD_TARGETS[name], "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_help_and_unknown_kind_name_every_kind(self, capsys):
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
        target = next(a for a in subparsers.choices["circuit-verify"]._actions if a.dest == "target")
        for kind, row in cli._TARGETS.items():
            assert f"{kind}:{row.usage}" in target.help
        _rejected_in_one_line(["circuit-verify", "--emit", "Q:1"], capsys, "/".join(cli._TARGETS))


def _refuse(*args, **kwargs):
    raise AssertionError("a refused builder was called")


def _refused_and_small(monkeypatch, targets):
    """Make each (module, name) raise if called, and keep the traced
    allocation peak of the test under 10 MB."""
    for module, name in targets:
        monkeypatch.setattr(module, name, _refuse)
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
        for kind, row in cli._TARGETS.items():  # every kind's dense or diagonal reference
            monkeypatch.setitem(cli._TARGETS, kind, row._replace(reference=_refuse))
        yield from _refused_and_small(monkeypatch, (
            (cli.circuits, "circuit_to_matrix"),
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


# Runs `python ARGS...` with stdout to OUT and prints its exit code and max RSS
# in KB. A child's max RSS counts the resident pages of the process that spawned
# it, so the test process, whose RSS grows with the tests before it, spawns this
# small launcher, and the launcher spawns the measured child.
_MAX_RSS_LAUNCHER = """
import os, sys
out = (os.POSIX_SPAWN_OPEN, 1, sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]], os.environ, file_actions=[out])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_env() -> dict:
    """The environment of a child interpreter that imports this `qauction`."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="max RSS of a child needs os.wait4")
class TestMemoryBound:
    """A `circuit-verify` run at the width cap holds its operands and no
    copy of them: D and P circuits checked against their diagonal
    references stay within the max RSS of an interpreter that imports the
    CLI, plus 16 MB (the operands are 2^12-entry vectors of 64 KB each).
    The 12-qubit bidder round trip, whose reference is its 2^13 entries and
    never a dense matrix, may add one float64 4096 x 4096 operand of
    128 MB: the circuit matrix, which every gate updates in place. So may
    a CTRL0 nesting at 12 qubits, however deep it nests: each block works
    on a view of that matrix. Searches at the caps may
    add the one such joint operator that `exact` takes dense at 12 qubits,
    and the span arrays of their steps.
    Locked probe attacks at the Monte Carlo caps may add the majority's
    packed flags and block buffers, or the first-hit curves' byte a trial."""

    SLACK_MB = 16
    JOINT_MB = 4**12 * 8 / 2**20  # a float64 2^12 x 2^12 operator
    LOCKED_ATTACK = ["attack", "--attack", "probe_basis", "--bids", "11,10",
                     "--defense", "lock", "--alpha1", "0.9", "--alpha2", "0.7"]
    OPERANDS_MB = {"bidder:101101101101": JOINT_MB}

    @staticmethod
    def _child(args, out):
        """Run `python args` in a grandchild process, stdout to `out`; its exit code and max RSS in MB."""
        launched = subprocess.run([sys.executable, "-c", _MAX_RSS_LAUNCHER, str(out), *args],
                                  env=_child_env(), capture_output=True, text=True, check=True)
        code, kb = launched.stdout.split()
        return int(code), int(kb) / 1024  # ru_maxrss is in KB on Linux

    @pytest.mark.parametrize("target", ["D:1.5,0.3,12", "P:1.3,0.4", "bidder:101101101101"])
    def test_verify_stays_within_the_interpreter_plus_its_operands(self, target, tmp_path, capsys):
        circuit, out = tmp_path / "circuit.txt", tmp_path / "verify.txt"
        assert run_cli(["circuit-verify", "--emit", target, "--out", str(circuit)], capsys)[0] == 0
        code, baseline = self._child(["-c", "import qauction.cli"], out)
        assert code == 0
        code, peak = self._child(["-m", "qauction", "circuit-verify", str(circuit), target], out)
        assert code == 0 and "result=pass" in out.read_text().splitlines()
        bound = baseline + self.OPERANDS_MB.get(target, 0) + self.SLACK_MB
        assert peak <= bound, f"{target}: {peak:.1f} MB max RSS, bound {bound:.1f}"

    @pytest.mark.parametrize("argv, operands_mb", [
        (["converge", "--bids", "0011,0101,1001", "--variant", "exact"], JOINT_MB),
        # locked `exact` at 12 qubits: U dense and V as two 64 x 64 float64 factors of 32 KB
        (["converge", "--bids", "111111,111110", "--variant", "exact", "--defense", "lock",
          "--alpha1", "0.9", "--alpha2", "0.7"], JOINT_MB + 2 * 64 * 64 * 8 / 2**20),
        # at S = 10000 steps on k = 64 span indices, three (S + 1, k) arrays of 16 B an
        # entry: the list of states `_fold` stacks, the stack, and the probabilities
        # read from it (`np.abs(states) ** 2`, 8 B an entry and as much for its temporary)
        (["variants", "--bids", "01,10,11,01,10,01", "--steps", "10000"],
         JOINT_MB + 3 * 10_001 * 64 * 16 / 2**20),
        # at the rounds cap: the packed learned flags of the two majority columns,
        # one bit a trial and round, and the majority block buffers, 1024 trials
        # of 1000 rounds at about 16 B a cell
        (LOCKED_ATTACK + ["--trials", "100000", "--rounds", "1000"],
         (2 * 1000 * 100_000 / 8 + 1024 * 1000 * 16) / 2**20),
        # at the cells cap in one round: the latest first-hit round of each trial, one byte each
        (LOCKED_ATTACK + ["--trials", "100000000", "--rounds", "1"], 100_000_000 / 2**20),
    ], ids=["converge_exact_12_qubits", "locked_converge_exact_12_qubits", "variants_at_the_steps_cap",
            "locked_attack_at_the_rounds_cap", "locked_attack_at_the_cells_cap_in_one_round"])
    def test_cap_run_stays_within_the_interpreter_plus_its_operands(self, argv, operands_mb, tmp_path):
        out = tmp_path / "out.csv"
        code, baseline = self._child(["-c", "import qauction.cli"], out)
        assert code == 0
        code, peak = self._child(["-m", "qauction", *argv], out)
        assert code == 0 and out.read_text().startswith(f"# command={argv[0]}\n")
        bound = baseline + operands_mb + self.SLACK_MB
        assert peak <= bound, f"{argv[0]}: {peak:.1f} MB max RSS, bound {bound:.1f}"

    @pytest.mark.parametrize("text", [
        _nested(1, 12),
        "CTRL0 [q0] {\nCTRL0 [q1] {\nCTRL0 [q2] {\nH q11\n}\n}\n}\n",
        _nested(circuits.MAX_NESTING, 12),
    ], ids=["one_level", "three_deep_distinct_controls", "max_nesting_deep"])
    def test_nesting_verifies_within_the_interpreter_plus_its_operands(self, text, tmp_path):
        # the float64 circuit matrix alone: every block updates a view of it in place
        circuit, out = tmp_path / "circuit.txt", tmp_path / "verify.txt"
        circuit.write_text(text)
        code, baseline = self._child(["-c", "import qauction.cli"], out)
        assert code == 0
        code, peak = self._child(["-m", "qauction", "circuit-verify", str(circuit), "D:1,0.5,12"], out)
        assert code == 0 and "result=fail" in out.read_text().splitlines()  # H is not diagonal
        bound = baseline + self.JOINT_MB + self.SLACK_MB
        assert peak <= bound, f"{peak:.1f} MB max RSS, bound {bound:.1f}"


class TestModuleEntryPoint:
    """`python -m qauction.cli`, the entry point the README names beside the
    `qauction` script, prints what `cli.main` prints and fails as it does."""

    ARGS = ["converge", "--bids", "10,11"]

    @staticmethod
    def _run(args):
        return subprocess.run([sys.executable, "-m", "qauction.cli", *args],
                              env=_child_env(), capture_output=True)

    def test_output_is_main_output(self, capsys):
        child = self._run(self.ARGS)
        code, out = run_cli(self.ARGS, capsys)
        assert child.returncode == code == 0
        assert child.stdout == out.encode() and child.stderr == b""

    def test_bad_flag_exits_1_with_one_line(self):
        child = self._run(self.ARGS + ["--no-such-flag"])
        assert child.returncode == 1 and child.stdout == b""
        assert child.stderr == b"error: unrecognized arguments: --no-such-flag\n"


class TestExactCap:
    """`exact` shares cli.MAX_QUBITS: it steps on the plausible span, so a
    12-qubit `exact` search runs, locked or not. Gap tracks are not
    searches and were never capped lower."""

    @pytest.fixture()
    def refused(self, monkeypatch):
        yield from _refused_and_small(monkeypatch, (
            (cli.protocol, "joint_bidding_operator"), (cli.protocol, "eig_hermitian")))

    @pytest.mark.parametrize("args", [
        ["variants", "--bids", "0110,1011,0011"],
        ["converge", "--variant", "exact", "--bids", "111111,111110"],
        ["converge", "--variant", "exact", "--defense", "lock", "--alpha1", "0.9",
         "--alpha2", "0.7", "--bids", "111111,111110"],
    ], ids=["variants_12", "converge_12", "locked_12"])
    def test_twelve_qubits_accepted(self, args, capsys):
        code, out = run_cli(args, capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 21
        assert all(0 <= float(x) <= 1 for row in rows for x in row[2:])

    def test_eleven_one_qubit_bidders_tie(self, refused, capsys):
        # every one-bidder allocation pays 1: a payoff tie, a simulation
        # error found before any operator is built
        assert cli.main(["variants", "--bids", ",".join(["1"] * 11), "--steps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "tied among plausible allocations" in captured.err

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
            (cli.adversary, "probe_attack_basis"), (cli.adversary, "basis_mc_curve"),
            (cli.adversary, "povm_mc_curve"), (cli.adversary, "majority_mc_curve")))

    @pytest.mark.parametrize("grid", [
        ["--trials", "100000000000"],
        ["--rounds", "100000000000", "--trials", "10"],
        ["--trials", "9223372036854775808"],
        ["--trials", "100000001", "--rounds", "1"],
    ], ids=["trials_1e11", "rounds_1e11", "trials_2e63", "one_over_cap"])
    def test_rejected(self, grid, capsys):
        _rejected_in_one_line(["attack", "--attack", "probe_basis", *grid], capsys,
                              "Monte Carlo cap of 100000000 cells")

    @pytest.mark.parametrize("grid", [["--trials", "1", "--rounds", "1001"],
                                      ["--trials", "99900", "--rounds", "1001"]],
                             ids=["one_round_over", "one_round_over_under_cells_cap"])
    def test_rounds_over_their_cap_rejected(self, grid, capsys):
        assert cli.MAX_MC_ROUNDS == 1000
        _rejected_in_one_line(["attack", "--attack", "probe_basis", *grid], capsys,
                              "cap of 1000 probe rounds")

    @pytest.mark.parametrize("grid", [[], ["--trials", "100000000", "--rounds", "1"],
                                      ["--trials", "1", "--rounds", "1000"],
                                      ["--trials", "100000", "--rounds", "1000"]],
                             ids=["defaults", "trials_at_cap", "rounds_at_cap",
                                  "rounds_at_cap_and_cells_at_cap"])
    def test_at_or_below_cap_accepted(self, grid):
        args = cli.build_parser().parse_args(["attack", "--attack", "probe_basis", *grid])
        cfg = cli.resolve_config(args)
        assert cfg.trials * cfg.rounds <= cli.MAX_MC_CELLS
        assert cfg.rounds <= cli.MAX_MC_ROUNDS


class TestStepCap:
    """More than cli.MAX_STEPS schedule steps, or full-space gap tracks of
    more than cli.MAX_GAP_VALUES eigenvalues, (steps + 1) * 2^n, is a
    configuration error, caught before any table or operator is built."""

    class Reached(Exception):
        pass

    @pytest.fixture()
    def nothing_built(self, monkeypatch):
        yield from _refused_and_small(monkeypatch, (
            (cli.protocol, "build_first_price_table"), (cli.protocol, "run_adiabatic"),
            (cli.protocol, "eigenvalue_tracks")))

    @pytest.fixture()
    def tracks_reached(self, monkeypatch):
        def reached(*args, **kwargs):
            raise self.Reached
        monkeypatch.setattr(cli.protocol, "eigenvalue_tracks", reached)

    @pytest.mark.parametrize("args", [
        ["converge", "--steps", "10001"],
        ["variants", "--steps", "10001"],
        ["gap", "--steps", "10001"],
        ["attack", "--attack", "spurious", "--steps", "10001"],
        ["converge", "--steps", "1" * 30],
    ], ids=["converge", "variants", "gap", "spurious", "30_digits"])
    def test_steps_over_cap_rejected(self, args, nothing_built, capsys):
        assert cli.MAX_STEPS == 10_000
        _rejected_in_one_line(args, capsys, "cap of 10000 steps")

    def test_steps_at_cap_accepted(self):
        cfg = cli.resolve_config(cli.build_parser().parse_args(["variants", "--steps", "10000"]))
        assert cfg.steps == cli.MAX_STEPS

    # (bids, steps at the cap): 512 * 2^12, 1024 * 2^11, 2048 * 2^10 and 8192 * 2^8 eigenvalues
    GAP_AT_CAP = [("0011,0101,1001", 511), ("10110100101", 1023),
                  ("01,10,11,01,10", 2047), ("1011,0110", 8191)]

    @pytest.mark.parametrize("bids, steps", GAP_AT_CAP)
    def test_full_space_gap_over_cap_rejected(self, bids, steps, nothing_built, capsys):
        assert cli.MAX_GAP_VALUES == 2**21
        _rejected_in_one_line(["gap", "--bids", bids, "--restrict", "false",
                               "--steps", str(steps + 1)], capsys, "exceed the cap of 2097152")

    @pytest.mark.parametrize("bids, steps", GAP_AT_CAP)
    def test_full_space_gap_at_cap_accepted(self, bids, steps, tracks_reached):
        with pytest.raises(self.Reached):
            cli.main(["gap", "--bids", bids, "--restrict", "false", "--steps", str(steps)])

    def test_restricted_gap_not_capped(self, tracks_reached):
        with pytest.raises(self.Reached):
            cli.main(["gap", "--bids", "0011,0101,1001", "--steps", "10000"])


# Bad values for every key: not a number, infinite, huge, subnormal, empty,
# hexadecimal, an integer of 30 digits, zero and negative
BAD_VALUES = ["nan", "inf", "-inf", "1e308", "1e-320", "", "0x10", "1" * 30, "0", "-1"]


class TestEveryKeyClosed:
    """A bad value for any scenario key, on any scenario subcommand, with or
    without the lock defense, ends in an exit code and never in a traceback
    or a NaN in the output. The other keys keep small runs."""

    SMALL = {"steps": "2", "trials": "16", "rounds": "3"}
    LOCK = {"defense": "lock", "alpha1": "0.9", "alpha2": "0.7"}

    @pytest.mark.parametrize("locked", [False, True], ids=["plain", "lock"])
    @pytest.mark.parametrize("command", ["converge", "variants", "gap", "attack", "povm"])
    @pytest.mark.parametrize("key", list(cli._KEY_SPECS))
    def test_bad_values(self, key, command, locked, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # --out writes a file named after the value
        settings = dict(self.SMALL, **(self.LOCK if locked else {}))
        if command == "attack":
            settings["attack"] = "probe_basis"
        for value in BAD_VALUES:
            argv = [command] + [part for k, v in dict(settings, **{key: value}).items()
                                for part in (f"--{k}", v)]
            code = cli.main(argv)
            output = capsys.readouterr().out
            for path in tmp_path.iterdir():
                output += path.read_text()
                path.unlink()
            assert code in (0, 1, 2), argv
            assert "nan" not in output.lower(), argv


class TestEveryScenario:
    """Every (attack, defense) pair on every scenario subcommand of
    cli._PAIRS: a listed pair runs on a tiny grid and exits 0, and any other
    pair, a setting of cli._TWO_BY_TWO on other bidders, or a locked
    `converge` at variant first exits 1 with one stderr line, nothing on
    stdout and no --out file."""

    SMALL = ["--steps", "2", "--trials", "16", "--rounds", "3", "--alpha1", "0.9", "--alpha2", "0.7"]
    PAIRS = [(command, attack, defense) for command in cli._PAIRS
             for attack in cli._KEY_SPECS["attack"].choices
             for defense in cli._KEY_SPECS["defense"].choices]
    # each listed pair that a two-2-qubit setting can ride on, with each other bidder shape
    SCALE = [(command, attack, defense, key, value, bids)
             for command, pairs in cli._PAIRS.items() for attack, defense in sorted(pairs)
             for key, value in cli._TWO_BY_TWO
             if {"table": value, "attack": attack, "defense": defense}[key] == value
             for bids in ("100,011", "10,11,01")]

    @staticmethod
    def _refused(argv, tmp_path, capsys, needle=""):
        out = tmp_path / "out.csv"
        _rejected_in_one_line([*argv, "--out", str(out)], capsys, needle)
        assert not out.exists()

    @pytest.mark.parametrize("command, attack, defense", PAIRS)
    def test_pair(self, command, attack, defense, tmp_path, capsys):
        argv = [command, "--attack", attack, "--defense", defense, *self.SMALL]
        if (attack, defense) in cli._PAIRS[command]:
            out = tmp_path / "out.csv"
            assert cli.main([*argv, "--out", str(out)]) == 0
            assert out.read_text().startswith(f"# command={command}\n")
        else:
            self._refused(argv, tmp_path, capsys, f"not {attack}/{defense}")

    @pytest.mark.parametrize("command, attack, defense, key, value, bids", SCALE)
    def test_two_by_two_settings_on_other_bidders(self, command, attack, defense, key, value,
                                                  bids, tmp_path, capsys):
        self._refused([command, "--attack", attack, "--defense", defense, f"--{key}", value,
                       "--bids", bids, *self.SMALL], tmp_path, capsys, "two 2-qubit bidders")

    def test_locked_converge_refuses_first(self, tmp_path, capsys):
        self._refused(["converge", "--defense", "lock", "--variant", "first", *self.SMALL],
                      tmp_path, capsys, "'zeroth' and 'exact'")


class TestConfigHandling:
    @pytest.mark.parametrize("argv", [["converge"], ["variants"], ["gap"],
                                      ["attack", "--attack", "spurious"], ["povm"]], ids=lambda a: a[0])
    def test_one_attribute_per_key(self, argv):
        cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        assert list(vars(cfg)) == list(cli._KEY_SPECS)

    def test_spurious_attack_resolves_to_spurious_table(self):
        args = cli.build_parser().parse_args(["attack", "--attack", "spurious", "--table", "first_price"])
        assert cli.resolve_config(args).table == "spurious"

    @pytest.mark.parametrize("argv, needle", [
        (["converge", "--steps", "0"], "steps must be >= 1"),
        (["converge", "--steps", "-1"], "steps must be >= 1"),
        (["attack", "--attack", "probe_basis", "--trials", "0"], "trials and rounds must be positive"),
        (["attack", "--attack", "probe_basis", "--rounds", "-1"], "trials and rounds must be positive"),
        (["converge", "--bids", "10,011"], "bids must share a register width"),
    ], ids=["steps_0", "steps_-1", "trials_0", "rounds_-1", "bids_of_two_widths"])
    def test_out_of_range_value_gives_one_line(self, argv, needle, capsys):
        _rejected_in_one_line(argv, capsys, needle)

    def test_comment_only_line_is_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("# a comment\n   # indented\nsteps = 3\n")
        code, out = run_cli(["converge", "--config", str(cfg)], capsys)
        assert code == 0 and parse_csv(out)[0]["steps"] == "3"

    def test_line_without_equals_gives_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("seed = 1\nsteps 5\n")
        _rejected_in_one_line(["converge", "--config", str(cfg)], capsys,
                              f"{cfg}:2: expected 'key = value', got 'steps 5'")

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("bids = 10,11\nsteps = 20\ndelta = 1.5\nseed = 7\n")
        code, out = run_cli(["converge", "--config", str(cfg), "--steps", "10"], capsys)
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert comments["steps"] == "10"
        assert len(rows) == 11

    @pytest.mark.parametrize("command", [["converge", "--config"], ["circuit-verify"]],
                             ids=["config", "circuit"])
    def test_non_utf8_file_gives_one_line(self, command, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        tail = ["bidder:11"] if command == ["circuit-verify"] else []
        _rejected_in_one_line([*command, str(path), *tail], capsys, "can't decode byte 0xff")

    def test_unwritable_out_gives_one_line(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        _rejected_in_one_line(["converge", "--bids", "10,11", "--out", str(target)], capsys,
                              f"cannot write {target}")
        assert not target.parent.exists()

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
        capsys.readouterr()
        # a lock comes only from --defense lock, so `locked` is no --variant value
        for lock in ([], ["--defense", "lock", "--alpha1", "0.9", "--alpha2", "0.7"]):
            _rejected_in_one_line(["converge", "--variant", "locked", *lock], capsys,
                                  "variant must be one of ('exact', 'zeroth', 'first')")

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

    @pytest.mark.parametrize("head", [["--emit", "c.txt"], ["c.txt", "--emit"], []],
                             ids=["emit_then_file", "file_then_emit", "neither"])
    def test_circuit_verify_needs_file_or_emit(self, head, capsys):
        _rejected_in_one_line(["circuit-verify", *head, "bidder:11"], capsys,
                              "pass a circuit file, or --emit and no file")

    def test_circuit_verify_takes_an_option_between_its_operands(self, tmp_path, capsys):
        circuit, out = tmp_path / "c.txt", tmp_path / "out.txt"
        assert cli.main(["circuit-verify", "--emit", "bidder:101", "--out", str(circuit)]) == 0
        code, expected = run_cli(["circuit-verify", str(circuit), "bidder:101"], capsys)
        assert code == 0 and expected.endswith("result=pass\n")
        assert cli.main(["circuit-verify", str(circuit), "--out", str(out), "bidder:101"]) == 0
        assert capsys.readouterr().out == "" and out.read_text() == expected

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
