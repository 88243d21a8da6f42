#!/usr/bin/env python
"""Documentation consistency checker (zero dependencies).

Five checks over ``docs/`` and ``README.md``, wired into ``make lint``
and CI so the docs cannot silently rot as the code moves:

1. **Dead relative links** — every relative markdown link target
   (``[text](path)``) must exist on disk, resolved against the file
   containing the link.  External links (``http(s)://``, ``mailto:``)
   and pure in-page anchors (``#section``) are skipped.
2. **Stale module references** — every dotted ``repro.<module>``
   mention must resolve: first against the source tree layout under
   ``src/repro`` (packages and ``.py`` modules; trailing segments past
   a module, class names included, are treated as attributes and
   verified by import), so a doc can never name a module, function or
   class that was renamed away.
3. **Index reachability** — every page under ``docs/`` must be
   reachable from ``docs/index.md`` by following relative links, so
   the index stays the complete map of the documentation.
4. **Stale CLI subcommands** — every ``repro <subcommand>`` invocation
   the docs show (``python -m repro X``, `` `repro X`` or ``$ repro X``)
   must name a real subcommand of the live argument parser (nested
   groups like ``repro obs <sub>`` included), so a renamed or removed
   command cannot survive in a quickstart.
5. **Stale CLI flags** — every ``--flag`` written after such an
   invocation (backslash continuations joined; the invocation ends at a
   closing backtick, a pipe, ``;``, ``&&``, a redirect or a shell
   comment) must be an option of that subcommand's live parser, so a
   deleted or renamed flag cannot survive in a quickstart either.

Usage::

    python tools/check_docs.py [repo_root]

Exits 0 when the docs are consistent, 1 with one line per problem
otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Markdown inline link: [text](target), ignoring images' leading ``!``.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Dotted repro reference: module segments and any attribute segments
#: after them, class names included (``repro.serve.cache.ResponseCache``).
_MODULE_RE = re.compile(r"\brepro((?:\.[A-Za-z_][A-Za-z0-9_]*)+)")

#: ``repro <subcommand>`` invocation in one of the command contexts the
#: docs use: ``python -m repro X``, an opening-backtick `` `repro X`` or
#: a shell-prompt ``$ repro X``.  Dotted ``repro.module`` references do
#: not match (no whitespace), and option tokens (``--help``) cannot
#: match the ``[a-z]``-led subcommand group.  The optional second token
#: covers nested groups (``repro obs timeline``) and is only validated
#: for commands that actually own a nested parser.
_CLI_RE = re.compile(
    r"(?:python -m repro|\$ repro|`repro)\s+"
    r"([a-z][a-z0-9-]*)(?:\s+([a-z][a-z0-9-]*))?"
)

#: Where an invocation's own arguments end: a closing backtick, a
#: pipe, a command chain, a redirect or a shell comment.
_INVOCATION_END_RE = re.compile(r"`|\||&&|;|>|\s#")

#: A long option token (``--trace-out``), not the tail of a longer word.
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

#: Files whose links/references are checked.
_DOC_GLOBS = ("docs/*.md",)
_EXTRA_FILES = ("README.md",)


def doc_files(root: Path) -> list[Path]:
    """All markdown files the checker covers, sorted for stable output."""
    files = [root / name for name in _EXTRA_FILES if (root / name).is_file()]
    for pattern in _DOC_GLOBS:
        files.extend(sorted(root.glob(pattern)))
    return files


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "#"))


def iter_links(text: str):
    """Yield link targets of one markdown document (fragment stripped)."""
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if _is_external(target):
            continue
        yield target.split("#", 1)[0]


def check_links(root: Path, files: list[Path]) -> list[str]:
    """Dead-relative-link problems, one message per broken link."""
    problems = []
    for path in files:
        for target in iter_links(path.read_text(encoding="utf-8")):
            if not target:
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: dead link -> {target}"
                )
    return problems


def _resolve_module(root: Path, dotted: str) -> bool:
    """Does ``repro.<dotted...>`` name a real module/package/attribute?

    Walks the source tree first (cheap, no imports): each segment must
    be a package directory or a ``.py`` module under ``src/repro``.
    Segments *after* a ``.py`` module are attributes; those are checked
    by importing the module (with ``src`` on ``sys.path``), so a doc
    referencing ``repro.analysis.runner.run_grid`` breaks the build if
    ``run_grid`` is renamed.
    """
    base = root / "src" / "repro"
    if not base.is_dir():
        return True  # nothing to check against
    segments = dotted.split(".")
    current = base
    for index, segment in enumerate(segments):
        if (current / segment).is_dir():
            current = current / segment
            continue
        if (current / f"{segment}.py").is_file():
            module = "repro." + ".".join(segments[: index + 1])
            attrs = segments[index + 1 :]
            if not attrs:
                return True
            return _resolve_attrs(root, module, attrs)
        # Not a package or module: only valid as attribute(s) of the
        # package reached so far (e.g. repro.obs.use_tracer re-export).
        module = "repro" + (
            "." + ".".join(segments[:index]) if index else ""
        )
        return _resolve_attrs(root, module, segments[index:])
    return True


def _resolve_attrs(root: Path, module: str, attrs: list[str]) -> bool:
    import importlib

    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        obj = importlib.import_module(module)
    except Exception:
        return False
    for attr in attrs:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            return False
    return True


def check_module_references(root: Path, files: list[Path]) -> list[str]:
    """Stale ``repro.<module>`` reference problems."""
    problems = []
    checked: dict[str, bool] = {}
    for path in files:
        text = path.read_text(encoding="utf-8")
        for match in _MODULE_RE.finditer(text):
            dotted = match.group(1).lstrip(".")
            if dotted not in checked:
                checked[dotted] = _resolve_module(root, dotted)
            if not checked[dotted]:
                problems.append(
                    f"{path.relative_to(root)}: stale reference repro.{dotted}"
                )
    return problems


def check_index_reachability(root: Path) -> list[str]:
    """Pages under docs/ not reachable from docs/index.md by links."""
    docs = root / "docs"
    index = docs / "index.md"
    if not index.is_file():
        return ["docs/index.md is missing"]
    all_pages = {p.resolve() for p in docs.glob("*.md")}
    seen = {index.resolve()}
    frontier = [index]
    while frontier:
        page = frontier.pop()
        for target in iter_links(page.read_text(encoding="utf-8")):
            if not target.endswith(".md"):
                continue
            resolved = (page.parent / target).resolve()
            if resolved in all_pages and resolved not in seen:
                seen.add(resolved)
                frontier.append(docs / resolved.name)
    return [
        f"docs/{page.name}: not reachable from docs/index.md"
        for page in sorted(all_pages - seen)
    ]


def _live_parser(root: Path):
    """The ``repro`` CLI's argument parser under ``root``, or ``None``
    when the tree has no importable CLI (the fabricated repos of the
    unit tests), mirroring how the module check degrades when
    ``src/repro`` is absent."""
    if not (root / "src" / "repro" / "cli.py").is_file():
        return None
    import importlib

    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        return importlib.import_module("repro.cli").build_parser()
    except Exception:
        return None


def _choices(parser) -> dict:
    """Subcommand name -> subparser of ``parser`` (empty when flat)."""
    if parser._subparsers is None:
        return {}
    for action in parser._subparsers._group_actions:
        if getattr(action, "choices", None):
            return action.choices
    return {}


def cli_subcommands(root: Path) -> dict[str, frozenset[str]] | None:
    """Live subcommand map of the ``repro`` CLI, or ``None`` to skip.

    Keys are top-level subcommands; each value is the set of nested
    subcommands the command owns (empty for flat commands).
    """
    parser = _live_parser(root)
    if parser is None:
        return None
    return {
        name: frozenset(_choices(sub))
        for name, sub in _choices(parser).items()
    }


def cli_options(root: Path) -> dict[tuple[str, ...], frozenset[str]] | None:
    """Option strings of every live subcommand, or ``None`` to skip.

    Keys are command paths: ``("run-grid",)`` or, for nested groups,
    ``("obs", "tail")``.
    """
    parser = _live_parser(root)
    if parser is None:
        return None
    options = {}
    for name, sub in _choices(parser).items():
        for path, p in [((name,), sub)] + [
            ((name, nested), p) for nested, p in _choices(sub).items()
        ]:
            options[path] = frozenset(
                flag for action in p._actions for flag in action.option_strings
            )
    return options


def check_cli_subcommands(
    root: Path,
    files: list[Path],
    commands: dict[str, frozenset[str]] | None = None,
) -> list[str]:
    """Stale ``repro <subcommand>`` invocation problems.

    ``commands`` defaults to the live parser's map; the unit tests
    inject a fake map to exercise the matching without importing.
    """
    if commands is None:
        commands = cli_subcommands(root)
    if commands is None:
        return []
    problems = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        for match in _CLI_RE.finditer(text):
            command, nested = match.group(1), match.group(2)
            if command not in commands:
                problems.append(
                    f"{path.relative_to(root)}: unknown CLI subcommand "
                    f"'repro {command}'"
                )
            elif nested and commands[command] and nested not in commands[command]:
                problems.append(
                    f"{path.relative_to(root)}: unknown CLI subcommand "
                    f"'repro {command} {nested}'"
                )
    return problems


def check_cli_flags(
    root: Path,
    files: list[Path],
    options: dict[tuple[str, ...], frozenset[str]] | None = None,
) -> list[str]:
    """Stale ``--flag`` problems in ``repro <subcommand>`` invocations.

    ``options`` defaults to the live parser's map (:func:`cli_options`);
    the unit tests inject a fake one.  Invocations of unknown commands
    are left to :func:`check_cli_subcommands`.
    """
    if options is None:
        options = cli_options(root)
    if options is None:
        return []
    problems = []
    for path in files:
        text = path.read_text(encoding="utf-8").replace("\\\n", " ")
        for line in text.splitlines():
            for match in _CLI_RE.finditer(line):
                command = (match.group(1), match.group(2))
                if command not in options:
                    command = command[:1]
                if command not in options:
                    continue
                tail = line[match.end():]
                end = _INVOCATION_END_RE.search(tail)
                for flag in _FLAG_RE.findall(tail[: end.start()] if end else tail):
                    if flag not in options[command]:
                        problems.append(
                            f"{path.relative_to(root)}: unknown option "
                            f"'{flag}' for 'repro {' '.join(command)}'"
                        )
    return problems


def run_checks(root: Path) -> list[str]:
    """All problems across the five checks (empty = consistent docs)."""
    files = doc_files(root)
    problems = check_links(root, files)
    problems += check_module_references(root, files)
    problems += check_index_reachability(root)
    problems += check_cli_subcommands(root, files)
    problems += check_cli_flags(root, files)
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else Path.cwd()
    problems = run_checks(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    files = doc_files(root)
    if problems:
        print(
            f"check_docs: {len(problems)} problem(s) across "
            f"{len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"check_docs: OK ({len(files)} file(s) checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
