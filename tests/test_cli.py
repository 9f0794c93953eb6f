"""The CLI surface: version sync, help completeness, dispatch.

Two silent-drift hazards pinned here:

* ``repro.__version__`` vs ``pyproject.toml`` — nothing imported one
  from the other, so they could (and did) diverge;
* the module docstring / ``--help`` epilog vs the actual ``COMMANDS``
  table — the docstring enumerated subcommands by hand and sat one PR
  behind.

Everything runs in-process through ``repro.__main__.main(argv)`` —
no subprocesses, so the suite stays fast and coverage-visible.
"""

import io
import tomllib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import repro
from repro import __main__ as cli


def run_main(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestVersion:
    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            doc = tomllib.load(fh)
        assert repro.__version__ == doc["project"]["version"], (
            "src/repro/__init__.py __version__ and pyproject.toml "
            "[project].version drifted apart"
        )

    @pytest.mark.parametrize("flag", ["--version", "-V"])
    def test_version_flag(self, flag):
        code, out, err = run_main([flag])
        assert code == 0
        assert out.strip() == f"repro {repro.__version__}"


class TestHelp:
    @pytest.mark.parametrize("flag", ["--help", "-h", "help"])
    def test_help_lists_every_command(self, flag):
        code, out, err = run_main([flag])
        assert code == 0
        for name in cli.COMMANDS:
            assert name in out, f"--help does not mention {name!r}"

    def test_help_table_is_in_sync_with_commands(self):
        assert set(cli.COMMAND_HELP) == set(cli.COMMANDS)

    def test_module_docstring_mentions_every_command(self):
        doc = cli.__doc__
        for name in cli.COMMANDS:
            assert f"``{name}``" in doc, (
                f"__main__ docstring does not document {name!r}"
            )

    def test_arg_commands_subset_of_commands(self):
        assert cli.ARG_COMMANDS <= set(cli.COMMANDS)


class TestDispatch:
    def test_unknown_command_exits_2(self):
        code, out, err = run_main(["frobnicate"])
        assert code == 2
        assert "unknown command" in err

    def test_serve_net_rejects_bad_poison(self):
        code, out, err = run_main(["serve-net", "--poison", "1.5",
                                   "--connect", "127.0.0.1:1"])
        assert code == 2

    def test_serve_net_rejects_bad_connect(self):
        code, out, err = run_main(["serve-net", "--connect", "nonsense"])
        assert code == 2

    def test_serve_net_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run_main(["serve-net", "--help"])
        assert exc.value.code == 0


class TestMetricsCheck:
    def test_check_accepts_a_real_export_and_rejects_a_corrupt_copy(
        self, tmp_path
    ):
        """`metrics PATH --check` on what `write_exports` wrote: exit 0;
        on the same document with one counter corrupted: exit 1."""
        import json

        from repro.flow import run_flow
        from repro.obs import MetricsRegistry, write_exports
        from repro.serve.cache import FlowArtifactCache
        from repro.trace import trace_loop_iteration

        reg = MetricsRegistry()
        cache = FlowArtifactCache()
        for _ in range(2):  # a miss, then a hit
            run_flow(trace_loop_iteration(), cache=cache, metrics=reg)
        json_path, _ = write_exports(reg.snapshot(), str(tmp_path / "m.json"))
        code, out, err = run_main(["metrics", json_path, "--check"])
        assert code == 0, err
        assert "OK:" in out

        with open(json_path) as fh:
            doc = json.load(fh)
        assert doc["counters"], "the workload recorded no counters"
        doc["counters"][0]["value"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_main(["metrics", str(bad), "--check"])
        assert code == 1
        assert "schema violation" in err


class TestCurveConstants:
    """`verify` re-derives from first principles and compares with the
    committed module; `derive` prints or writes the generated module."""

    def test_verify_reports_the_committed_module_identical(self):
        code, out, _ = run_main(["verify"])
        assert code == 0
        assert "OK (identical)" in out

    def test_verify_exits_1_when_the_committed_module_differs(
        self, tmp_path, monkeypatch
    ):
        from repro.curve import committed

        text = committed.COMMITTED_PATH.read_text()
        at = text.index("LAMBDA_PSI = 0x") + len("LAMBDA_PSI = 0x")
        tampered = tmp_path / "derived_constants.py"
        tampered.write_text(text[:at] + ("1" if text[at] != "1" else "2")
                            + text[at + 1:])
        monkeypatch.setattr(committed, "COMMITTED_PATH", tampered)
        code, out, _ = run_main(["verify"])
        assert code == 1
        assert "MISMATCH" in out

    def test_derive_prints_and_writes_the_committed_module(
        self, tmp_path, monkeypatch
    ):
        from repro.curve import committed

        text = committed.COMMITTED_PATH.read_text()
        code, out, _ = run_main(["derive"])
        assert (code, out) == (0, text)
        target = tmp_path / "derived_constants.py"
        monkeypatch.setattr(committed, "COMMITTED_PATH", target)
        code, out, _ = run_main(["derive", "--write"])
        assert code == 0 and target.read_text() == text
