"""Command-line interface: golden outputs, exit codes, JSON schema."""

import json
import os
import subprocess
import sys

import pytest

from pibisim.cli import EXIT_BROKEN_PIPE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenExamples:
    def test_steps_tau(self, capsys):
        code, out, _ = run(capsys, "steps", "--prefix", "", "tau.0")
        assert code == 0
        assert out.splitlines() == ["{} ; tau ; 0"]

    def test_steps_no_transition(self, capsys):
        code, out, _ = run(
            capsys, "steps", "--prefix", "nabla x, nabla z", "(nu y)[x=y]x!z.0"
        )
        assert code == 1
        assert out.strip() == ""

    def test_steps_match_forall(self, capsys):
        code, out, _ = run(
            capsys, "steps", "--prefix", "forall x, forall y", "[x=y]tau.0"
        )
        assert code == 0
        assert out.splitlines() == ["{x:=y} ; tau ; 0"]

    def test_steps_bound(self, capsys):
        code, out, _ = run(
            capsys, "steps", "--bound", "--prefix", "nabla x", "(nu z)x!z.tau.0"
        )
        assert code == 0
        assert out.splitlines() == ["{} ; x!(y) ; tau.0"]

    def test_steps_bound_binder_does_not_capture_the_received_name(self, capsys):
        code, out, _ = run(
            capsys, "steps", "--bound", "--prefix",
            "nabla y, nabla z, nabla u, nabla v, nabla x", "x?(a).a?(b).a!b.0",
        )
        assert code == 0
        assert out.splitlines() == ["{} ; x?(w) ; w?(m).w!m.0"]

    def test_lts_fresh_constant_is_not_named_like_a_prefix_entry(self, capsys):
        code, out, _ = run(capsys, "lts", "--prefix", "nabla n3, nabla x", "x?(u).u!n3.0")
        assert code == 0
        assert out.splitlines() == [
            "5 states, 6 edges",
            "  0 -> 1 : x?(n3) ; {}",
            "  0 -> 2 : x?(x) ; {}",
            "  0 -> 3 : x?(n3_1) ; {}",
            "  1 -> 4 : n3!n3 ; {}",
            "  2 -> 4 : x!n3 ; {}",
            "  3 -> 4 : n3_1!n3 ; {}",
        ]

    def test_bisim_late_negative_example(self, capsys):
        code, out, _ = run(
            capsys,
            "bisim",
            "--mode",
            "late",
            "--prefix",
            "nabla x, nabla z",
            "(nu y)[x=y]x!z.0",
            "0",
        )
        assert code == 0
        assert out.splitlines()[0] == "bisimilar"

    def test_bisim_open_sangiorgi(self, capsys):
        code, out, _ = run(
            capsys,
            "bisim",
            "--mode",
            "open",
            "--prefix",
            "forall x, forall z",
            "x?(u).(tau.tau.0+tau.0)",
            "x?(u).(tau.tau.0+tau.0+tau.[u=z]tau.0)",
        )
        assert code == 1
        assert out.splitlines()[0] == "not bisimilar"
        assert "witness:" in out and "formula:" in out

    def test_check_ground_budget_example(self, capsys):
        code, _, _ = run(
            capsys,
            "check",
            "--mode",
            "ground",
            "--prefix",
            "nabla a",
            "a?(x).0",
            "[a?(x)]L [x=a] false",
        )
        assert code == 0

    def test_check_fresh_zero(self, capsys):
        code, _, _ = run(
            capsys,
            "check",
            "--mode",
            "ground",
            "--prefix",
            "nabla a",
            "--fresh",
            "0",
            "a?(x).0",
            "[a?(x)]L [x=a] false",
        )
        assert code == 1

    def test_parse_command(self, capsys):
        code, out, _ = run(capsys, "parse", "--prefix", "nabla x", "x!x.0 | 0")
        assert code == 0
        assert "x!x.0" in out


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["bisim", "--mode", "weird", "p", "q"]) == 2

    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "parse", "--prefix", "", "((")
        assert code == 2
        assert err.startswith("error:")

    def test_unbound_name_is_2(self, capsys):
        code, _, err = run(capsys, "steps", "--prefix", "", "x!x.0")
        assert code == 2
        assert err.startswith("error:")

    def test_replication_bisim_is_2(self, capsys):
        code, _, err = run(capsys, "bisim", "--prefix", "", "!tau.0", "tau.0")
        assert code == 2
        assert err.startswith("error:")

    def test_ground_check_forall_prefix_is_2(self, capsys):
        code, _, err = run(
            capsys, "check", "--mode", "ground", "--prefix", "forall x",
            "x!x.0", "true",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_missing_defs_file_is_2(self, capsys):
        code, _, err = run(
            capsys, "steps", "--defs", "/nonexistent/defs.pi", "--prefix", "", "0"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_deep_prefix_chain_is_2(self, capsys):
        code, out, err = run(capsys, "parse", "tau." * 3000 + "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_wide_sum_bisim_is_2(self, capsys):
        p = " + ".join(["tau.0"] * 600)
        code, out, err = run(capsys, "bisim", p, p)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_internal_error_is_3(self, capsys, monkeypatch):
        import pibisim.bisim
        from pibisim.unify import InternalError

        def broken(*args, **kwargs):
            raise InternalError("invariant violated")

        monkeypatch.setattr(pibisim.bisim, "open_bisim", broken)
        code, out, err = run(capsys, "bisim", "tau.0", "tau.0")
        assert code == 3
        assert out == ""
        assert err.strip() == "internal error: invariant violated"

    def test_formula_audit_failure_is_3(self, capsys, monkeypatch):
        import pibisim.bisim

        monkeypatch.setattr(pibisim.bisim._Game, "_holds_left_only", lambda *a: False)
        code, out, err = run(capsys, "bisim", "--mode", "late", "tau.0", "0")
        assert code == 3
        assert out == ""
        assert err.strip() == "internal error: constructed formula failed verification"
        assert "Traceback" not in err

    def test_no_separator_by_construction_is_reported(self, capsys):
        inner = "(a?(v).[w=a]tau.0 + a?(v).[v=a]tau.0)"
        left, right = f"a?(w).{inner}", f"a?(w).{inner} + a?(w).a?(v).[w=a]tau.0"
        code, out, err = run(capsys, "bisim", "--prefix", "forall a", left, right)
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "not bisimilar"
        assert lines[-1] == "formula: (none by construction in the open sublogic)"


class TestJson:
    def test_bisim_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "bisim",
            "--json",
            "--mode",
            "open",
            "--prefix",
            "forall x, forall y",
            "[x=y]tau.0",
            "0",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["command"] == "bisim"
        assert doc["verdict"] is False
        assert doc["certificate"] is None
        assert set(doc["stats"]) == {"goals", "branches", "time_ms"}
        witness = doc["witness"]
        assert witness["formula"] is not None
        assert witness["formula_holds"] in ("left", "right")
        trace = witness["trace"]
        assert trace and {"side", "theta", "action", "instantiation",
                          "attacker_index", "defender_count",
                          "chosen_continuation_index"} <= set(trace[0])

    def test_bisim_json_bisimilar_certificate(self, capsys):
        code, out, _ = run(
            capsys, "bisim", "--json", "--prefix", "", "tau.0", "tau.0 + tau.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["witness"] is None
        assert isinstance(doc["certificate"], list) and doc["certificate"]

    def test_witness_formula_replay(self, capsys):
        """The emitted witness formula drives check to the same verdict."""
        code, out, _ = run(
            capsys,
            "bisim",
            "--json",
            "--mode",
            "open",
            "--prefix",
            "forall x, forall z",
            "x?(u).(tau.tau.0+tau.0)",
            "x?(u).(tau.tau.0+tau.0+tau.[u=z]tau.0)",
        )
        assert code == 1
        doc = json.loads(out)
        formula = doc["witness"]["formula"]
        procs = ["x?(u).(tau.tau.0+tau.0)", "x?(u).(tau.tau.0+tau.0+tau.[u=z]tau.0)"]
        holds = doc["witness"]["formula_holds"]
        sat_codes = []
        for proc in procs:
            c, _, _ = run(
                capsys, "check", "--mode", "open",
                "--prefix", "forall x, forall z", proc, formula,
            )
            sat_codes.append(c)
        expected = [0, 1] if holds == "left" else [1, 0]
        assert sat_codes == expected

    def test_printed_formula_with_four_binders_reads_back(self, capsys):
        """A formula with four nested binders prints no binder named like a
        formula keyword, so ``check`` reads the printed text back and gives
        each process the verdict ``bisim`` reported."""
        prefix = "forall x"
        procs = ["x?(u).0 | x?(u).0 | x?(u).0", "x?(u).0 | x?(u).0 | x?(u).x?(v).0"]
        code, out, _ = run(capsys, "bisim", "--prefix", prefix, *procs)
        assert code == 1
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        assert fields["formula"].count("?(") == 4
        codes = [
            run(capsys, "check", "--mode", "open", "--prefix", prefix, proc, fields["formula"])[0]
            for proc in procs
        ]
        assert codes == ([0, 1] if fields["holds on"] == "left" else [1, 0])

    def test_check_json(self, capsys):
        code, out, _ = run(
            capsys, "check", "--json", "--prefix", "nabla a", "tau.0", "<tau>true"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "check" and doc["verdict"] is True
        assert doc["data"]["mode"] == "ground"

    def test_steps_json(self, capsys):
        code, out, _ = run(capsys, "steps", "--json", "--prefix", "", "tau.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["data"]["transitions"][0]["action"] == "tau"


class TestFlags:
    def test_defs_file(self, tmp_path, capsys):
        f = tmp_path / "lib.pi"
        f.write_text("d(x) := x!x.0\n")
        code, out, _ = run(
            capsys, "steps", "--defs", str(f), "--prefix", "nabla a", "d(a)"
        )
        assert code == 0
        assert "a!a" in out

    def test_distinct_flag(self, capsys):
        args = [
            "bisim", "--mode", "open", "--prefix", "forall x, forall y",
            "[x=y]tau.0", "0",
        ]
        assert main(args) == 1
        capsys.readouterr()
        assert main(args + ["--distinct", "x#y"]) == 0

    def test_distinct_flag_bad_pair(self, capsys):
        code, _, err = run(
            capsys, "bisim", "--prefix", "forall x", "--distinct", "x#x",
            "tau.0", "tau.0",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_dot_export(self, tmp_path, capsys):
        out_file = tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "lts", "--prefix", "", "--dot", str(out_file), "tau.tau.0"
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("digraph") and "tau" in text

    def test_lts_max_states(self, capsys):
        code, _, err = run(
            capsys, "lts", "--prefix", "", "--max-states", "2", "!tau.0"
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_lts_max_states_below_one_is_a_usage_error(self, capsys, value):
        code, out, err = run(capsys, "lts", "--prefix", "", "--max-states", value, "tau.0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: argument --max-states: must be at least 1")

    def test_check_negative_fresh_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "check", "--prefix", "nabla a", "--fresh", "-1", "a?(x).0", "[a?(x)]L [x=a] false"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: argument --fresh: must be at least 0")

    def test_check_fresh_in_open_mode_is_a_usage_error(self, capsys):
        argv = ("check", "--mode", "open", "--prefix", "forall a", "--json", "a?(x).0", "<a?(x)>L true")
        code, out, err = run(capsys, *argv, "--fresh", "7")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: --fresh applies only to ground mode"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["data"] == {"mode": "open", "budget": None}

    @pytest.mark.parametrize(
        "argv", [("check", "--fresh", "two", "0", "true"), ("lts", "--max-states", "two", "0")]
    )
    def test_count_flag_that_is_not_an_int_is_a_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: argument {argv[1]}: invalid int value: 'two'")

    def test_bisim_early_mode(self, capsys):
        code, _, _ = run(
            capsys, "bisim", "--mode", "early", "--prefix", "nabla x",
            "x?(u).tau.0 + x?(v).0",
            "x?(u).tau.0 + x?(v).0 + x?(w).[w=x]tau.0",
        )
        assert code == 0

    def test_bisim_late_same_pair_differs(self, capsys):
        code, _, _ = run(
            capsys, "bisim", "--mode", "late", "--prefix", "nabla x",
            "x?(u).tau.0 + x?(v).0",
            "x?(u).tau.0 + x?(v).0 + x?(w).[w=x]tau.0",
        )
        assert code == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pibisim.cli", "steps", "--prefix", "", "tau.0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["{} ; tau ; 0"]

    def test_import_leaves_json_unloaded(self):
        """Only ``--json`` output needs ``json``, so importing the CLI does
        not load it."""
        code = "import sys, pibisim.cli; print('json' in sys.modules)"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_not_an_error(self, unbuffered):
        """A reader that stops reading early, as ``| head -1`` does, gets no
        error message and the documented exit code, and nothing is reported
        when the interpreter exits.  Buffered, the 3 KB of output first
        reach the closed pipe when main flushes stdout; unbuffered, at the
        first line printed."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "pibisim.cli", "lts", "--prefix", "nabla x",
             "x!x.0 | x?(u).0 | x!x.0 | x?(u).0 | tau.0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # before the child writes anything
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert err == b""

    def test_deterministic_output(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run(
                capsys, "bisim", "--json", "--mode", "open",
                "--prefix", "forall x, forall z",
                "x?(u).(tau.tau.0+tau.0)",
                "x?(u).(tau.tau.0+tau.0+tau.[u=z]tau.0)",
            )
            doc = json.loads(out)
            doc.pop("stats")  # wall time varies
            outs.add(json.dumps(doc, sort_keys=True))
        assert len(outs) == 1
