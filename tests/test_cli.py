"""CLI integration tests (driving the real entry point in-process)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_classify(self):
        args = build_parser().parse_args(["classify", "1100", "7"])
        assert args.factor == "1100" and args.d == 7

    def test_backend_choices_are_the_backends(self):
        # written out in the CLI so the parser does not import repro.network
        from repro.cli import _BACKEND_CHOICES
        from repro.network.backends import AUTO, BACKENDS

        assert _BACKEND_CHOICES == [AUTO, *BACKENDS]


class TestCommands:
    def test_classify_decided(self, capsys):
        assert main(["classify", "1100", "7"]) == 0
        out = capsys.readouterr().out
        assert "NOT iso" in out
        assert "Theorem 3.3(ii)" in out

    def test_classify_unknown_then_bruteforce(self, capsys):
        main(["classify", "10110", "6"])
        assert "undecided" in capsys.readouterr().out
        main(["classify", "10110", "6", "--bruteforce"])
        assert "iso in Q_d" in capsys.readouterr().out

    def test_counts(self, capsys):
        assert main(["counts", "110", "10"]) == 0
        out = capsys.readouterr().out
        assert "= 232" in out  # F_13 - 1 vertices
        assert "= 743" in out  # edges

    def test_counts_large_d(self, capsys):
        # an |f| = 8 factor at d = 1000: each count steps a fixed-size
        # counting system 1000 times
        from repro.words.correlation import count_avoiding_gf

        assert main(["counts", "11010011", "1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split(" = ")[0] for ln in lines] == [
            "|V(Q_1000(11010011))|", "|E(Q_1000(11010011))|",
            "|S(Q_1000(11010011))|",
        ]
        assert lines[0].endswith(f" = {count_avoiding_gf('11010011', 1000)}")

    def test_analytic_counts_recurrences(self, capsys):
        assert main(["analytic", "counts", "11:200", "--recurrence"]) == 0
        lines = capsys.readouterr().out.splitlines()
        labels = [ln.split(":")[0].strip() for ln in lines[1:]]
        assert labels == [
            "nodes", "edges",
            "node recurrence", "edge recurrence", "square recurrence",
        ]
        assert lines[-1] == (
            " square recurrence: a(n) = 3*a(n-1) + -5*a(n-3) + 3*a(n-5) "
            "+ 1*a(n-6) (order 6)"
        )

    def test_structure(self, capsys):
        assert main(["structure", "11", "5"]) == 0
        out = capsys.readouterr().out
        assert "max degree = diameter = d): True" in out

    def test_table1_matches_paper(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out
        assert "11010" in out

    def test_network(self, capsys):
        assert main(["network", "11", "4"]) == 0
        out = capsys.readouterr().out
        assert "router" in out and "broadcast rounds" in out

    def test_ladder(self, capsys):
        assert main(["ladder", "4"]) == 0
        out = capsys.readouterr().out
        assert "5 rungs" in out
        assert "not a partial cube" in out
