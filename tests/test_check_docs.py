"""Tests for tools/check_docs.py (docs consistency checker)."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def _write(root: Path, relpath: str, text: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestLinks:
    def test_dead_relative_link_reported(self, tmp_path):
        _write(tmp_path, "docs/index.md", "[gone](missing.md)\n")
        problems = check_docs.check_links(
            tmp_path, check_docs.doc_files(tmp_path)
        )
        assert problems == ["docs/index.md: dead link -> missing.md"]

    def test_live_external_and_fragment_links_pass(self, tmp_path):
        _write(tmp_path, "docs/other.md", "# other\n")
        _write(
            tmp_path,
            "docs/index.md",
            "[ok](other.md) [web](https://example.com) [frag](#section) "
            "[sub](other.md#part)\n",
        )
        assert check_docs.check_links(
            tmp_path, check_docs.doc_files(tmp_path)
        ) == []

    def test_image_links_are_ignored(self, tmp_path):
        _write(tmp_path, "docs/index.md", "![shot](missing.png)\n")
        assert check_docs.check_links(
            tmp_path, check_docs.doc_files(tmp_path)
        ) == []


class TestModuleReferences:
    def test_stale_module_reported(self, tmp_path):
        _write(tmp_path, "src/repro/__init__.py", "")
        _write(tmp_path, "src/repro/real.py", "x = 1\n")
        _write(
            tmp_path,
            "docs/index.md",
            "see repro.real and repro.not_a_module\n",
        )
        problems = check_docs.check_module_references(
            tmp_path, check_docs.doc_files(tmp_path)
        )
        assert problems == [
            "docs/index.md: stale reference repro.not_a_module"
        ]

    def test_real_repo_references_resolve(self):
        files = check_docs.doc_files(REPO_ROOT)
        assert files  # docs/ exists and is covered
        assert check_docs.check_module_references(REPO_ROOT, files) == []

    def test_class_references_checked_via_import(self):
        # A doc naming a deleted or renamed class fails the check.
        assert check_docs._resolve_module(REPO_ROOT, "serve.cache.ResponseCache")
        assert check_docs._resolve_module(REPO_ROOT, "obs.ledger.EntryStore.path_for")
        assert not check_docs._resolve_module(
            REPO_ROOT, "serve.cache.ResponseStore"
        )
        assert check_docs._MODULE_RE.search(
            "see `repro.serve.cache.ResponseStore`."
        ).group(1) == ".serve.cache.ResponseStore"

    def test_attribute_references_checked_via_import(self):
        assert check_docs._resolve_module(REPO_ROOT, "analysis.runner.run_grid")
        assert not check_docs._resolve_module(
            REPO_ROOT, "analysis.runner.run_gird"
        )


class TestIndexReachability:
    def test_unreachable_page_reported(self, tmp_path):
        _write(tmp_path, "docs/index.md", "[a](a.md)\n")
        _write(tmp_path, "docs/a.md", "# a\n")
        _write(tmp_path, "docs/orphan.md", "# nobody links here\n")
        assert check_docs.check_index_reachability(tmp_path) == [
            "docs/orphan.md: not reachable from docs/index.md"
        ]

    def test_transitive_reachability(self, tmp_path):
        _write(tmp_path, "docs/index.md", "[a](a.md)\n")
        _write(tmp_path, "docs/a.md", "[b](b.md)\n")
        _write(tmp_path, "docs/b.md", "# b\n")
        assert check_docs.check_index_reachability(tmp_path) == []

    def test_missing_index_reported(self, tmp_path):
        _write(tmp_path, "docs/a.md", "# a\n")
        assert check_docs.check_index_reachability(tmp_path) == [
            "docs/index.md is missing"
        ]


class TestCliSubcommands:
    COMMANDS = {
        "map": frozenset(),
        "serve": frozenset(),
        "obs": frozenset({"tail", "timeline"}),
    }

    def test_unknown_subcommand_reported(self, tmp_path):
        _write(
            tmp_path,
            "docs/index.md",
            "run `repro nosuch --help` or python -m repro map\n",
        )
        problems = check_docs.check_cli_subcommands(
            tmp_path, check_docs.doc_files(tmp_path), self.COMMANDS
        )
        assert problems == [
            "docs/index.md: unknown CLI subcommand 'repro nosuch'"
        ]

    def test_nested_subcommand_checked(self, tmp_path):
        _write(
            tmp_path,
            "docs/index.md",
            "$ repro obs timeline trace.jsonl\n$ repro obs nosub x\n",
        )
        problems = check_docs.check_cli_subcommands(
            tmp_path, check_docs.doc_files(tmp_path), self.COMMANDS
        )
        assert problems == [
            "docs/index.md: unknown CLI subcommand 'repro obs nosub'"
        ]

    def test_non_command_contexts_ignored(self, tmp_path):
        _write(
            tmp_path,
            "docs/index.md",
            # Dotted module references, the bare CLI name, option-only
            # invocations and prose all stay out of scope.
            "repro.serve.models has the schema; the `repro` CLI; "
            "python -m repro --help; import repro nosuch\n",
        )
        assert check_docs.check_cli_subcommands(
            tmp_path, check_docs.doc_files(tmp_path), self.COMMANDS
        ) == []

    def test_fabricated_repo_without_cli_skips(self, tmp_path):
        _write(tmp_path, "docs/index.md", "python -m repro nosuch\n")
        assert check_docs.cli_subcommands(tmp_path) is None
        assert check_docs.check_cli_subcommands(
            tmp_path, check_docs.doc_files(tmp_path)
        ) == []

    def test_real_parser_map_includes_serve(self):
        commands = check_docs.cli_subcommands(REPO_ROOT)
        assert commands is not None
        for name in ("map", "iterate", "study", "run-grid", "bench",
                     "run-rolling", "serve", "serve-load"):
            assert name in commands, name
        assert "timeline" in commands["obs"]

    def test_real_repo_cli_mentions_resolve(self):
        files = check_docs.doc_files(REPO_ROOT)
        assert check_docs.check_cli_subcommands(REPO_ROOT, files) == []


class TestCliFlags:
    OPTIONS = {
        ("run-grid",): frozenset({"-h", "--help", "--workers", "--resume"}),
        ("obs",): frozenset({"-h", "--help"}),
        ("obs", "tail"): frozenset({"-h", "--help", "--follow"}),
    }

    def _problems(self, tmp_path, text):
        _write(tmp_path, "docs/index.md", text)
        return check_docs.check_cli_flags(
            tmp_path, check_docs.doc_files(tmp_path), self.OPTIONS
        )

    def test_stale_flag_reported(self, tmp_path):
        assert self._problems(
            tmp_path,
            "```\npython -m repro run-grid --workers 2 \\\n"
            "    --batch-size 2 --resume\n```\n",
        ) == ["docs/index.md: unknown option '--batch-size' for 'repro run-grid'"]

    def test_nested_command_options(self, tmp_path):
        assert self._problems(
            tmp_path, "$ repro obs tail --follow --last 3\n"
        ) == ["docs/index.md: unknown option '--last' for 'repro obs tail'"]

    def test_invocation_ends_at_backtick_pipe_and_comment(self, tmp_path):
        assert self._problems(
            tmp_path,
            "`repro run-grid --workers 2` then --anything\n"
            "python -m repro run-grid --resume | grep --count x\n"
            "python -m repro run-grid --resume  # not --real\n",
        ) == []

    def test_real_repo_flags_resolve(self):
        files = check_docs.doc_files(REPO_ROOT)
        assert check_docs.check_cli_flags(REPO_ROOT, files) == []
        options = check_docs.cli_options(REPO_ROOT)
        assert "--store" in options[("run-grid",)]
        assert "--follow" in options[("obs", "tail")]


class TestEndToEnd:
    def test_real_repo_is_consistent(self):
        assert check_docs.run_checks(REPO_ROOT) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        _write(tmp_path, "docs/index.md", "[gone](missing.md)\n")
        assert check_docs.main([str(tmp_path)]) == 1
        assert "dead link" in capsys.readouterr().err

        _write(tmp_path, "docs/index.md", "all good\n")
        assert check_docs.main([str(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out
